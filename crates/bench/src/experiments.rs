//! One driver per table/figure of the paper's evaluation (§4).
//!
//! Every driver returns a [`Table`] holding the rows the paper reports;
//! [`summary`] reads its inputs from four of them by column name. The
//! `repro` binary prints the tables it runs and commits Figure 4, Tables
//! 1–2, Figures 6–8 and the summary as `BENCH_paper.json`;
//! `tests/paper_shapes.rs` pins their shapes at [`ExpScale::quick`].

use std::time::Duration;

use at_linalg::svd::SvdConfig;
use at_recommender::{rating_matrix, section_relatedness, ActiveUser, CfService};
use at_search::{section_top_k_coverage, SearchRequest, SearchService};
use at_sim::{run_fixed_rate, run_hour_window, CostModel, RequestSample, SimConfig, Technique};
use at_synopsis::{
    AggregationMode, BuildReport, DataUpdate, RowStore, SparseRow, SynopsisConfig, SynopsisStore,
};
use at_workloads::{
    Corpus, CorpusConfig, DiurnalPattern, MapReduceConfig, QueryGenerator, RatingsConfig,
    RatingsDataset,
};
use rayon::prelude::*;

use crate::deployments::{build_recommender, build_search, DeployScale, SearchDeployment};
use crate::replay::{rec_accuracy_loss, search_accuracy_loss, Budget};
use crate::table::{Cell, Table};

/// Knobs controlling how much compute each experiment burns.
#[derive(Clone, Copy, Debug)]
pub struct ExpScale {
    /// Accuracy-side deployment scale.
    pub deploy: DeployScale,
    /// Simulated components for the rate sweeps (paper: 108).
    pub table_components: usize,
    /// Simulated components for the diurnal figures.
    pub fig_components: usize,
    /// Duration of each fixed-rate cell (s).
    pub table_duration_s: f64,
    /// Window each diurnal hour is compressed into (s).
    pub fig_window_s: f64,
    /// Peak requests/second of the diurnal pattern.
    pub peak_rps: f64,
    /// Simulator request-sampling stride for accuracy replay.
    pub sample_every: usize,
    /// Physical nodes.
    pub n_nodes: usize,
    /// Subset size for the offline-module experiments (synopsis creation /
    /// update / Figure 4), in data points.
    pub offline_subset: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ExpScale {
    /// Small scale: seconds per experiment (tests, CI smoke).
    pub fn quick() -> Self {
        ExpScale {
            deploy: DeployScale::quick(),
            table_components: 24,
            fig_components: 12,
            table_duration_s: 15.0,
            fig_window_s: 60.0,
            peak_rps: 40.0,
            sample_every: 40,
            n_nodes: 8,
            offline_subset: 1200,
            seed: 0xE0,
        }
    }

    /// Full scale for the `repro` binary (minutes per experiment).
    pub fn full() -> Self {
        ExpScale {
            deploy: DeployScale::full(),
            table_components: 108,
            fig_components: 36,
            table_duration_s: 60.0,
            fig_window_s: 300.0,
            peak_rps: 100.0,
            sample_every: 100,
            n_nodes: 30,
            offline_subset: 4000,
            seed: 0xE0,
        }
    }

    fn sim_config(&self, n_components: usize, sample: bool) -> SimConfig {
        SimConfig {
            n_components,
            n_nodes: self.n_nodes,
            cost: CostModel::default(),
            interference: MapReduceConfig {
                n_nodes: self.n_nodes,
                ..MapReduceConfig::default()
            },
            sample_every: if sample { self.sample_every } else { 0 },
            seed: self.seed ^ 0x51,
            ..SimConfig::default()
        }
    }
}

/// A table/figure driver.
pub type Driver = fn(&ExpScale) -> Table;

/// Every driver in the order `repro` prints them: its name on the `repro`
/// command line, whether `repro --out` commits its table, and the driver.
pub const DRIVERS: [(&str, bool, Driver); 10] = [
    ("creation", false, creation_overheads),
    ("fig3", false, fig3),
    ("fig4a", true, fig4a),
    ("fig4b", true, fig4b),
    ("table1", true, table1),
    ("table2", true, table2),
    ("fig5", false, fig5),
    ("fig6", true, fig6),
    ("fig7", true, fig7),
    ("fig8", true, fig8),
];

/// The drivers [`summary`] reads, in its argument order.
pub const SUMMARY_INPUTS: [&str; 4] = ["table1", "table2", "fig7", "fig8"];

// ---------------------------------------------------------------------
// §4.2: synopsis creation overheads
// ---------------------------------------------------------------------

/// §4.2: build one paper-shaped subset per service and report the
/// creation time per step and the aggregation ratio (the paper's 133.01
/// users / 42.55 pages per aggregated point).
pub fn creation_overheads(scale: &ExpScale) -> Table {
    let reports: Vec<BuildReport> = offline_subsets(scale)
        .into_iter()
        .zip([100, 40])
        .map(|((_, data, mode), ratio)| {
            SynopsisStore::build(&data, mode, offline_synopsis_config(scale, ratio)).1
        })
        .collect();
    let each = |f: fn(&BuildReport) -> f64| reports.iter().map(f).collect::<Vec<f64>>();
    Table::new("creation", "§4.2 synopsis creation overheads")
        .col("service", 0, ["recommender", "search"])
        .col("points", 0, each(|r| r.n_points as f64))
        .col("aggregated", 0, each(|r| r.n_aggregated as f64))
        .col("mean_group_size", 2, each(|r| r.mean_group_size))
        .col("reduce_ms", 1, each(|r| ms(r.reduce_time)))
        .col("organize_ms", 1, each(|r| ms(r.organize_time)))
        .col("aggregate_ms", 1, each(|r| ms(r.aggregate_time)))
}

/// Both services' offline subsets, each with the aggregation mode its
/// synopsis is built with.
fn offline_subsets(scale: &ExpScale) -> [(&'static str, RowStore, AggregationMode); 2] {
    [
        (
            "recommender",
            offline_recommender_subset(scale).0,
            AggregationMode::Mean,
        ),
        (
            "search",
            offline_search_subset(scale).0,
            AggregationMode::Merge,
        ),
    ]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

fn offline_synopsis_config(scale: &ExpScale, ratio: usize) -> SynopsisConfig {
    SynopsisConfig {
        svd: SvdConfig::paper().with_seed(scale.seed),
        size_ratio: ratio,
        ..SynopsisConfig::default()
    }
}

/// One recommender subset (paper: ~4000 users × 1000 items) plus its
/// ratings dataset.
fn offline_recommender_subset(scale: &ExpScale) -> (RowStore, RatingsDataset) {
    let data = RatingsDataset::generate(RatingsConfig {
        n_users: scale.offline_subset,
        n_items: (scale.offline_subset / 4).clamp(60, 1000),
        ratings_per_user: 50,
        seed: scale.seed,
        ..RatingsConfig::default()
    });
    let store = rating_matrix(
        scale.offline_subset,
        (scale.offline_subset / 4).clamp(60, 1000),
        &data.ratings,
    );
    (store, data)
}

/// One search subset plus its corpus.
fn offline_search_subset(scale: &ExpScale) -> (RowStore, Corpus) {
    let corpus = Corpus::generate(CorpusConfig {
        n_docs: scale.offline_subset,
        vocab: (scale.offline_subset * 2).clamp(600, 8000),
        n_topics: 20,
        seed: scale.seed ^ 0x3,
        ..CorpusConfig::default()
    });
    let mut store = RowStore::new(corpus.config.vocab);
    for d in &corpus.docs {
        store.push_row(SparseRow::from_pairs(d.terms.clone()));
    }
    (store, corpus)
}

// ---------------------------------------------------------------------
// Figure 3: synopsis updating time vs. change fraction
// ---------------------------------------------------------------------

/// Figure 3: update time (ms) for i % additions and i % changes, i in
/// 1..=10, on both services' subsets.
pub fn fig3(scale: &ExpScale) -> Table {
    let (mut services, mut adds, mut changes) = (Vec::new(), Vec::new(), Vec::new());
    for (service, data, mode) in offline_subsets(scale) {
        let (store, _) = SynopsisStore::build(&data, mode, offline_synopsis_config(scale, 60));
        // Per i: apply `make`'s updates to i % of the rows, on fresh copies
        // per scenario as in the paper's repeats.
        let time = |make: fn(usize, &RowStore) -> Vec<DataUpdate>| -> Vec<f64> {
            (1..=10)
                .map(|pct| {
                    let (mut d, mut s) = (data.clone(), store.clone());
                    let updates = make((d.len() * pct / 100).max(1), &d);
                    let report = s.apply_updates(&mut d, updates);
                    debug_assert!(s.validate().is_ok());
                    ms(report.duration)
                })
                .collect()
        };
        adds.extend(time(additions));
        changes.extend(time(perturbations));
        services.extend([service; 10]);
    }
    let pcts = (1..=10usize).cycle().take(services.len());
    Table::new("fig3_update_ms", "Figure 3: synopsis updating time (ms)")
        .col("service", 0, services)
        .col("pct", 0, pcts)
        .col("add", 2, adds)
        .col("change", 2, changes)
}

/// `n` additions: copies of the first `n` rows, wrapping.
fn additions(n: usize, d: &RowStore) -> Vec<DataUpdate> {
    (0..n)
        .map(|i| DataUpdate::Add(d.row((i % d.len()) as u64).clone()))
        .collect()
}

/// `n` changes to every seventh row, wrapping: each value shifted up by
/// one notch, capped at 5.
fn perturbations(n: usize, d: &RowStore) -> Vec<DataUpdate> {
    (0..n)
        .map(|i| {
            let id = (i * 7 % d.len()) as u64;
            let shifted = d.row(id).iter().map(|(c, v)| (c, (v + 1.0).min(5.0)));
            DataUpdate::Change {
                id,
                row: SparseRow::from_pairs(shifted.collect()),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 4: effectiveness of synopses
// ---------------------------------------------------------------------

/// A Figure-4 table: per ranked section (best first), the mean over
/// requests of each request's ten per-section percentages.
fn fig4_table(
    key: &'static str,
    what: &str,
    column: &'static str,
    per_request: &[Vec<f64>],
) -> Table {
    let n = per_request.len();
    let means = (0..10).map(|s| per_request.iter().map(|r| r[s]).sum::<f64>() / n as f64);
    Table::new(
        key,
        format!("Figure 4{what}: ranked sections vs. relatedness (avg over {n} requests)"),
    )
    .col("section", 0, 1..=10usize)
    .col(column, 2, means)
}

/// Figure 4(a): recommender — % of highly related users (|w| > 0.8) per
/// ranked section of aggregated users.
pub fn fig4a(scale: &ExpScale) -> Table {
    let (store, data) = offline_recommender_subset(scale);
    // size_ratio chosen so the synopsis has enough aggregated points for
    // ten meaningful sections.
    let cfg = offline_synopsis_config(scale, 30);
    let (syn, _) = SynopsisStore::build(&store, AggregationMode::Mean, cfg);
    let component = at_core::Component::from_parts(store, syn, CfService);

    let (train, _) = data.holdout_split(0.8, scale.seed);
    let n_requests = scale.deploy.n_requests.min(100);
    let per_request: Vec<Vec<f64>> = (0..n_requests as u32)
        .into_par_iter()
        .map(|user| {
            let profile: Vec<(u32, f64)> = train
                .iter()
                .filter(|r| r.user == user)
                .map(|r| (r.item, r.stars))
                .collect();
            let req = ActiveUser::new(SparseRow::from_pairs(profile), vec![0]);
            section_relatedness(component.ctx(), &req, 0.8, 10)
        })
        .collect();
    fig4_table(
        "fig4a_related_pct",
        "(a) recommender",
        "related_pct",
        &per_request,
    )
}

/// Figure 4(b): search — % of actual top-10 pages per ranked section of
/// aggregated pages.
pub fn fig4b(scale: &ExpScale) -> Table {
    let (store, corpus) = offline_search_subset(scale);
    let service = SearchService::build(&store, 10);
    let cfg = offline_synopsis_config(scale, 30);
    let (syn, _) = SynopsisStore::build(&store, AggregationMode::Merge, cfg);
    let component = at_core::Component::from_parts(store, syn, service);

    let mut generator = QueryGenerator::new(&corpus, scale.seed ^ 0x44);
    let n_requests = scale.deploy.n_requests.min(100);
    let queries: Vec<SearchRequest> = generator
        .batch(&corpus, n_requests)
        .iter()
        .map(SearchRequest::from)
        .collect();
    let per_request: Vec<Vec<f64>> = queries
        .par_iter()
        .map(|q| section_top_k_coverage(component.ctx(), component.service(), q, 10))
        .collect();
    fig4_table("fig4b_top10_pct", "(b) search", "top10_pct", &per_request)
}

// ---------------------------------------------------------------------
// The compared techniques, at the paper's settings
// ---------------------------------------------------------------------

/// The paper's 100 ms service deadline.
const DEADLINE_S: f64 = 0.1;
const PARTIAL: Technique = Technique::Partial {
    deadline_s: DEADLINE_S,
};
const REISSUE: Technique = Technique::Reissue {
    trigger_percentile: 95.0,
};

/// AccuracyTrader; the search workload caps stage 2 at the top 40 % of
/// ranked sets (`imax_frac`), the CF workload does not.
fn accuracy_trader(imax_frac: Option<f64>) -> Technique {
    Technique::AccuracyTrader {
        deadline_s: DEADLINE_S,
        imax: imax_frac.map(|f| (CostModel::default().n_sets as f64 * f).ceil() as usize),
    }
}

/// The search workload's `i_max` fraction.
const SEARCH_IMAX: Option<f64> = Some(0.4);

/// The latency-side techniques of Table 1 and Figures 5 and 7 under their
/// column names, AccuracyTrader capped at `imax_frac`.
fn latency_techniques(imax_frac: Option<f64>) -> [(&'static str, Technique); 3] {
    [
        ("basic", Technique::Basic),
        ("reissue", REISSUE),
        ("accuracy_trader", accuracy_trader(imax_frac)),
    ]
}

/// Replay budget of an AccuracyTrader sample.
fn sets_budget(s: &RequestSample, imax_frac: Option<f64>) -> Budget<'_> {
    Budget::Sets {
        sets: s.sets_processed.as_ref().expect("AT sets"),
        sim_total: CostModel::default().n_sets,
        imax_frac,
    }
}

/// Replay budget of a partial-execution sample.
fn mask_budget(s: &RequestSample) -> Budget<'_> {
    Budget::Mask(s.made_deadline.as_ref().expect("partial mask"))
}

/// Search accuracy-loss % of (partial execution, AccuracyTrader) over one
/// diurnal `hour`, per each of `n_bins` equal spans of arrival time; an
/// empty span scores 0 (Figures 6 and 8).
fn search_losses(
    scale: &ExpScale,
    deployment: &SearchDeployment,
    hour: usize,
    n_bins: usize,
) -> Vec<(f64, f64)> {
    let pattern = DiurnalPattern::sogou_like(scale.peak_rps);
    let cfg = scale.sim_config(scale.fig_components, true);
    let run = |t| run_hour_window(&pattern, hour, scale.fig_window_s, t, &cfg).samples;
    let (partial, at) = (run(PARTIAL), run(accuracy_trader(SEARCH_IMAX)));
    let at_budget: fn(&RequestSample) -> Budget<'_> = |s| sets_budget(s, SEARCH_IMAX);
    (0..n_bins)
        .into_par_iter()
        .map(|bin| {
            let lo = scale.fig_window_s * bin as f64 / n_bins as f64;
            let hi = scale.fig_window_s * (bin + 1) as f64 / n_bins as f64;
            let loss = |samples: &[RequestSample], budget: fn(&RequestSample) -> Budget<'_>| {
                let in_bin: Vec<RequestSample> = samples
                    .iter()
                    .filter(|s| s.arrival_s >= lo && s.arrival_s < hi)
                    .cloned()
                    .collect();
                if in_bin.is_empty() {
                    0.0
                } else {
                    search_accuracy_loss(deployment, &in_bin, budget)
                }
            };
            (loss(&partial, mask_budget), loss(&at, at_budget))
        })
        .collect()
}

/// `table` with the (partial execution, AccuracyTrader) loss columns of
/// Table 2 and Figures 6 and 8 appended.
fn with_losses(table: Table, losses: Vec<(f64, f64)>) -> Table {
    let (partial, at): (Vec<f64>, Vec<f64>) = losses.into_iter().unzip();
    table
        .col("partial", 2, partial)
        .col("accuracy_trader", 2, at)
}

// ---------------------------------------------------------------------
// Tables 1 & 2: fixed-rate CF workload
// ---------------------------------------------------------------------

/// The arrival rates (req/s) of Tables 1 and 2.
const RATES: [f64; 5] = [20.0, 40.0, 60.0, 80.0, 100.0];

/// Table 1: 99.9th-percentile component latency (ms) of Basic, request
/// reissue and AccuracyTrader per arrival rate, synthetic CF workload.
pub fn table1(scale: &ExpScale) -> Table {
    let cfg = scale.sim_config(scale.table_components, false);
    let mut table = Table::new(
        "table1_p999_ms",
        "Table 1: 99.9th-percentile component latency (ms), CF workload",
    )
    .col("rate", 2, RATES);
    for (name, technique) in latency_techniques(None) {
        let p999: Vec<f64> = RATES
            .par_iter()
            .map(|&r| {
                run_fixed_rate(r, scale.table_duration_s, technique, &cfg)
                    .latencies
                    .p999_ms()
            })
            .collect();
        table = table.col(name, 2, p999);
    }
    table
}

/// Table 2: accuracy-loss % of partial execution and AccuracyTrader per
/// arrival rate under the CF workload, replaying simulated budgets
/// against the real service.
pub fn table2(scale: &ExpScale) -> Table {
    let deployment = build_recommender(scale.deploy);
    let cfg = scale.sim_config(scale.table_components, true);

    let losses = RATES
        .par_iter()
        .map(|&rate| {
            let partial = run_fixed_rate(rate, scale.table_duration_s, PARTIAL, &cfg);
            let at = run_fixed_rate(rate, scale.table_duration_s, accuracy_trader(None), &cfg);
            (
                rec_accuracy_loss(&deployment, &partial.samples, mask_budget),
                rec_accuracy_loss(&deployment, &at.samples, |s| sets_budget(s, None)),
            )
        })
        .collect();
    let table = Table::new(
        "table2_loss_pct",
        "Table 2: accuracy losses (%), CF workload",
    );
    with_losses(table.col("rate", 2, RATES), losses)
}

// ---------------------------------------------------------------------
// Figures 5-8: diurnal search workload
// ---------------------------------------------------------------------

/// Figure 5: per-minute p99.9 component latency (ms) and arrivals for the
/// characteristic hours 9/10/24 under Basic, reissue and AccuracyTrader.
/// Every sixth minute is kept, to keep the printout readable; a minute
/// with no completed request is missing.
pub fn fig5(scale: &ExpScale) -> Table {
    let pattern = DiurnalPattern::sogou_like(scale.peak_rps);
    let cfg = scale.sim_config(scale.fig_components, false);
    let (h_inc, h_steady, h_dec) = DiurnalPattern::characteristic_hours();
    let hours = [h_inc, h_steady, h_dec];
    // Per hour: each technique's per-minute p99.9 series, and the first
    // run's arrivals per minute.
    type Series = Vec<Option<f64>>;
    let runs: Vec<(Vec<Series>, Vec<usize>)> = hours
        .into_par_iter()
        .map(|hour| {
            let runs = latency_techniques(SEARCH_IMAX)
                .map(|(_, tech)| run_hour_window(&pattern, hour, scale.fig_window_s, tech, &cfg));
            let arrivals = &runs[0].bucketed;
            (
                runs.iter().map(|r| r.bucketed.p999_series_ms()).collect(),
                (0..arrivals.len())
                    .map(|m| arrivals.bucket(m).len())
                    .collect(),
            )
        })
        .collect();
    // One row per (hour, sampled minute), hour-major.
    let rows = |cell: &dyn Fn(usize, usize) -> Cell| -> Vec<Cell> {
        let minutes = || (0..60).step_by(6);
        (0..hours.len())
            .flat_map(|h| minutes().map(move |m| cell(h, m)))
            .collect()
    };
    let mut table = Table::new(
        "fig5_p999_ms",
        "Figure 5: per-minute p99.9 component latency (ms), hours 9/10/24",
    )
    .col("hour", 0, rows(&|h, _| hours[h].into()))
    .col("minute", 0, rows(&|_, m| (m + 1).into()))
    .col(
        "arrivals",
        0,
        rows(&|h, m| runs[h].1.get(m).copied().unwrap_or(0).into()),
    );
    for (t, (name, _)) in latency_techniques(SEARCH_IMAX).into_iter().enumerate() {
        table = table.col(
            name,
            0,
            rows(&|h, m| runs[h].0[t].get(m).copied().flatten().into()),
        );
    }
    table
}

/// Figure 6: accuracy losses (%) of partial execution and AccuracyTrader
/// over hours 9/10/24 of the search workload, each hour in six bins.
pub fn fig6(scale: &ExpScale) -> Table {
    let deployment = build_search(scale.deploy);
    let (h_inc, h_steady, h_dec) = DiurnalPattern::characteristic_hours();
    let hours = [h_inc, h_steady, h_dec];
    let losses = hours
        .iter()
        .flat_map(|&hour| search_losses(scale, &deployment, hour, 6))
        .collect();
    let table = Table::new(
        "fig6_loss_pct",
        "Figure 6: accuracy losses (%), hours 9/10/24, search workload",
    )
    .col("hour", 0, hours.iter().flat_map(|&h| [h; 6]))
    .col("bin", 0, (1..=6usize).cycle().take(hours.len() * 6));
    with_losses(table, losses)
}

/// Figure 7: hourly arrival rate (req/s) and p99.9 component latency (ms)
/// of Basic, reissue and AccuracyTrader over the 24-hour search workload.
pub fn fig7(scale: &ExpScale) -> Table {
    let pattern = DiurnalPattern::sogou_like(scale.peak_rps);
    let cfg = scale.sim_config(scale.fig_components, false);
    let mut table = Table::new(
        "fig7_p999_ms",
        "Figure 7: hourly p99.9 component latency (ms), 24-hour search workload",
    )
    .col("hour", 0, 1..=24usize)
    .col("hourly_rps", 2, pattern.hourly().to_vec());
    for (name, tech) in latency_techniques(SEARCH_IMAX) {
        let p999: Vec<f64> = (1..=24usize)
            .into_par_iter()
            .map(|h| {
                run_hour_window(&pattern, h, scale.fig_window_s, tech, &cfg)
                    .latencies
                    .p999_ms()
            })
            .collect();
        table = table.col(name, 2, p999);
    }
    table
}

/// Figure 8: hourly accuracy losses (%) of partial execution and
/// AccuracyTrader over the 24-hour search workload.
pub fn fig8(scale: &ExpScale) -> Table {
    let deployment = build_search(scale.deploy);
    let losses = (1..=24usize)
        .into_par_iter()
        .map(|hour| search_losses(scale, &deployment, hour, 1)[0])
        .collect();
    let table = Table::new(
        "fig8_loss_pct",
        "Figure 8: hourly accuracy losses (%), 24-hour search workload",
    );
    with_losses(table.col("hour", 0, 1..=24usize), losses)
}

// ---------------------------------------------------------------------
// §4.3 summary ratios
// ---------------------------------------------------------------------

/// The five §4.3 headline numbers next to the paper's, read by column
/// name from Table 1, Table 2, Figure 7 and Figure 8: tail-latency
/// reduction of AT vs. reissue (CF, search), AT's CF accuracy loss, and
/// the accuracy-loss reduction of AT vs. partial execution (CF, search).
pub fn summary(t1: &Table, t2: &Table, f7: &Table, f8: &Table) -> Table {
    // CF latency: mean reduction over the heavy-load cells (rate >= 60).
    let rates = t1.column("rate");
    let latency_reduction_cf = mean_ratio(t1, "reissue", |i| rates[i] >= 60.0);
    // Search latency: mean over busy hours (rate above the daily median).
    let hourly = f7.column("hourly_rps");
    let median = {
        let mut r = hourly.clone();
        r.sort_by(|a, b| a.partial_cmp(b).expect("rates"));
        r[12]
    };
    let latency_reduction_search = mean_ratio(f7, "reissue", |i| hourly[i] > median);
    let at_loss_cf = at_linalg::stats::mean(&t2.column("accuracy_trader"));
    let loss_reduction_cf = mean_ratio(t2, "partial", |_| true);
    let loss_reduction_search = mean_ratio(f8, "partial", |_| true);

    let rows = [
        ("latency_reduction_cf", latency_reduction_cf, 133.38, "x"),
        (
            "latency_reduction_search",
            latency_reduction_search,
            42.72,
            "x",
        ),
        ("at_loss_cf", at_loss_cf, 1.97, "%"),
        ("loss_reduction_cf", loss_reduction_cf, 15.12, "x"),
        ("loss_reduction_search", loss_reduction_search, 13.85, "x"),
    ];
    Table::new("summary", "§4.3 summary: reproduced value vs. the paper's")
        .col("name", 0, rows.map(|r| r.0))
        .col("value", 2, rows.map(|r| r.1))
        .col("paper", 2, rows.map(|r| r.2))
        .col("unit", 0, rows.map(|r| r.3))
}

/// Mean of `num / accuracy_trader` over the rows `keep` selects whose
/// AccuracyTrader cell is positive; NaN if there is none.
fn mean_ratio(t: &Table, num: &str, keep: impl Fn(usize) -> bool) -> f64 {
    let ratios: Vec<f64> = t
        .column(num)
        .into_iter()
        .zip(t.column("accuracy_trader"))
        .enumerate()
        .filter(|&(i, (_, d))| keep(i) && d > 1e-9)
        .map(|(_, (n, d))| n / d)
        .collect();
    ratios.iter().sum::<f64>() / ratios.len() as f64
}
