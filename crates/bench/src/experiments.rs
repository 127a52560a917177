//! One driver per table/figure of the paper's evaluation (§4).
//!
//! Every driver returns a plain data struct with a `print_*` that emits the
//! same rows/series the paper reports. The `repro` binary calls these and
//! commits Tables 1–2, Figures 6–8 and the summary as `BENCH_paper.json`;
//! `tests/paper_shapes.rs` pins their shapes at [`ExpScale::quick`].

use at_linalg::svd::SvdConfig;
use at_recommender::{rating_matrix, section_relatedness, ActiveUser, CfService};
use at_search::{section_top_k_coverage, SearchRequest, SearchService};
use at_sim::{run_fixed_rate, run_hour_window, CostModel, RequestSample, SimConfig, Technique};
use at_synopsis::{
    AggregationMode, DataUpdate, RowStore, SparseRow, SynopsisConfig, SynopsisStore,
};
use at_workloads::{
    Corpus, CorpusConfig, DiurnalPattern, MapReduceConfig, QueryGenerator, RatingsConfig,
    RatingsDataset,
};
use rayon::prelude::*;

use crate::deployments::{build_recommender, build_search, DeployScale, SearchDeployment};
use crate::replay::{rec_accuracy_loss, search_accuracy_loss, Budget};

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

// ---------------------------------------------------------------------
// §4.2: synopsis creation overheads
// ---------------------------------------------------------------------

/// Per-service synopsis-creation report (§4.2: creation time per step,
/// aggregation ratio — the paper's 133.01 users / 42.55 pages).
#[derive(Clone, Debug)]
pub struct CreationReport {
    /// Service label.
    pub service: &'static str,
    /// Build report of one subset.
    pub report: at_synopsis::BuildReport,
}

/// Build one paper-shaped subset per service and report creation costs.
pub fn creation_overheads(scale: &ExpScale) -> Vec<CreationReport> {
    let (rec_data, _) = offline_recommender_subset(scale);
    let (_, rec_report) = SynopsisStore::build(
        &rec_data,
        AggregationMode::Mean,
        offline_synopsis_config(scale, 100),
    );
    let (search_data, _) = offline_search_subset(scale);
    let (_, search_report) = SynopsisStore::build(
        &search_data,
        AggregationMode::Merge,
        offline_synopsis_config(scale, 40),
    );
    vec![
        CreationReport {
            service: "recommender",
            report: rec_report,
        },
        CreationReport {
            service: "search",
            report: search_report,
        },
    ]
}

/// Print the creation-overheads table.
pub fn print_creation(reports: &[CreationReport]) {
    println!("== §4.2 synopsis creation overheads ==");
    println!(
        "{:<12} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "service", "points", "agg", "ratio", "step1(ms)", "step2(ms)", "step3(ms)"
    );
    for r in reports {
        println!(
            "{:<12} {:>9} {:>10} {:>10.2} {:>10.1} {:>10.1} {:>10.1}",
            r.service,
            r.report.n_points,
            r.report.n_aggregated,
            r.report.mean_group_size,
            r.report.reduce_time.as_secs_f64() * 1000.0,
            r.report.organize_time.as_secs_f64() * 1000.0,
            r.report.aggregate_time.as_secs_f64() * 1000.0,
        );
    }
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

/// Figure 3 data: update durations (ms) for i% additions and i% changes.
#[derive(Clone, Debug)]
pub struct Fig3 {
    /// Percent values tested (1..=10).
    pub percents: Vec<usize>,
    /// (service label, add-durations ms, change-durations ms).
    pub series: Vec<(&'static str, Vec<f64>, Vec<f64>)>,
}

/// Run the Figure-3 updating experiment on both services' subsets.
pub fn fig3(scale: &ExpScale) -> Fig3 {
    let percents: Vec<usize> = (1..=10).collect();
    let mut series = Vec::new();
    for (service, data, mode) in [
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
    ] {
        let cfg = offline_synopsis_config(scale, 60);
        let (store, _) = SynopsisStore::build(&data, mode, cfg);

        let run = |make: &dyn Fn(usize, &RowStore) -> Vec<DataUpdate>| -> Vec<f64> {
            percents
                .iter()
                .map(|&pct| {
                    // Fresh copies per scenario, as in the paper's repeats.
                    let mut d = data.clone();
                    let mut s = store.clone();
                    let n = (d.len() * pct / 100).max(1);
                    let updates = make(n, &d);
                    let report = s.apply_updates(&mut d, updates);
                    debug_assert!(s.validate().is_ok());
                    report.duration.as_secs_f64() * 1000.0
                })
                .collect()
        };

        let adds = run(&|n, d| {
            (0..n)
                .map(|i| DataUpdate::Add(d.row((i % d.len()) as u64).clone()))
                .collect()
        });
        let changes = run(&|n, d| {
            (0..n)
                .map(|i| {
                    let id = (i * 7 % d.len()) as u64;
                    // Perturb the row: shift every value by one notch.
                    let row = d.row(id);
                    let new = SparseRow::from_pairs(
                        row.iter().map(|(c, v)| (c, (v + 1.0).min(5.0))).collect(),
                    );
                    DataUpdate::Change { id, row: new }
                })
                .collect()
        });
        series.push((service, adds, changes));
    }
    Fig3 { percents, series }
}

/// Print Figure 3.
pub fn print_fig3(f: &Fig3) {
    println!("== Figure 3: synopsis updating time (ms) ==");
    for (service, adds, changes) in &f.series {
        println!("-- {service} --");
        println!("{:<10} {:>12} {:>12}", "i%", "add", "change");
        for (i, &pct) in f.percents.iter().enumerate() {
            println!("{:<10} {:>12.2} {:>12.2}", pct, adds[i], changes[i]);
        }
    }
}

// ---------------------------------------------------------------------
// Figure 4: effectiveness of synopses
// ---------------------------------------------------------------------

/// Figure 4 data: per ranked section, the average percentage of highly
/// related original data points (a) / of actual top-10 pages (b).
#[derive(Clone, Debug)]
pub struct Fig4 {
    /// Ten ranked sections, best first.
    pub sections: Vec<f64>,
    /// Number of requests averaged over.
    pub n_requests: usize,
}

impl Fig4 {
    /// Average each request's ten per-section percentages.
    fn mean_of(per_request: &[Vec<f64>]) -> Fig4 {
        let n_requests = per_request.len();
        let sections = (0..10)
            .map(|s| per_request.iter().map(|r| r[s]).sum::<f64>() / n_requests as f64)
            .collect();
        Fig4 {
            sections,
            n_requests,
        }
    }
}

/// Figure 4(a): recommender — % of highly related users (|w| > 0.8) per
/// ranked section of aggregated users.
pub fn fig4a(scale: &ExpScale) -> Fig4 {
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
    Fig4::mean_of(&per_request)
}

/// Figure 4(b): search — % of actual top-10 pages per ranked section of
/// aggregated pages.
pub fn fig4b(scale: &ExpScale) -> Fig4 {
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
    Fig4::mean_of(&per_request)
}

/// Print Figure 4(a) or (b).
pub fn print_fig4(label: &str, f: &Fig4) {
    println!(
        "== Figure 4{label}: ranked sections vs. relatedness (avg over {} requests) ==",
        f.n_requests
    );
    println!("{:<10} {:>10}", "section", "% related");
    for (i, s) in f.sections.iter().enumerate() {
        println!("{:<10} {:>10.2}", i + 1, s);
    }
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
/// window's samples; an empty window scores 0.
fn search_losses(
    deployment: &SearchDeployment,
    partial: &[RequestSample],
    at: &[RequestSample],
) -> (f64, f64) {
    let partial_loss = if partial.is_empty() {
        0.0
    } else {
        search_accuracy_loss(deployment, partial, mask_budget)
    };
    let at_loss = if at.is_empty() {
        0.0
    } else {
        search_accuracy_loss(deployment, at, |s| sets_budget(s, SEARCH_IMAX))
    };
    (partial_loss, at_loss)
}

// ---------------------------------------------------------------------
// Tables 1 & 2: fixed-rate CF workload
// ---------------------------------------------------------------------

/// Table 1 data: 99.9th-percentile component latency (ms) per technique
/// per arrival rate.
#[derive(Clone, Debug, PartialEq)]
pub struct Table1 {
    /// Request arrival rates (req/s).
    pub rates: Vec<f64>,
    /// Basic row (ms).
    pub basic: Vec<f64>,
    /// Request-reissue row (ms).
    pub reissue: Vec<f64>,
    /// AccuracyTrader row (ms).
    pub accuracy_trader: Vec<f64>,
}

/// Run Table 1: Basic vs. reissue vs. AccuracyTrader tails under the
/// synthetic CF workload.
pub fn table1(scale: &ExpScale) -> Table1 {
    let rates = vec![20.0, 40.0, 60.0, 80.0, 100.0];
    let cfg = scale.sim_config(scale.table_components, false);
    let run = |technique: Technique| -> Vec<f64> {
        rates
            .par_iter()
            .map(|&r| {
                run_fixed_rate(r, scale.table_duration_s, technique, &cfg)
                    .latencies
                    .p999_ms()
            })
            .collect()
    };
    Table1 {
        rates: rates.clone(),
        basic: run(Technique::Basic),
        reissue: run(REISSUE),
        accuracy_trader: run(accuracy_trader(None)),
    }
}

/// Print a technique × rate table: `label_width`-wide row labels, cells
/// at `decimals` places.
fn print_rate_table(rates: &[f64], rows: &[(&str, &[f64])], label_width: usize, decimals: usize) {
    print!("{:<label_width$}", "rate (req/s)");
    for r in rates {
        print!("{r:>12.0}");
    }
    println!();
    for (name, row) in rows {
        print!("{name:<label_width$}");
        for v in *row {
            print!("{v:>12.decimals$}");
        }
        println!();
    }
}

/// Print Table 1.
pub fn print_table1(t: &Table1) {
    println!("== Table 1: 99.9th-percentile component latency (ms), CF workload ==");
    let rows = [
        ("Basic", &t.basic[..]),
        ("Reissue", &t.reissue[..]),
        ("AccuracyTrader", &t.accuracy_trader[..]),
    ];
    print_rate_table(&t.rates, &rows, 16, 0);
}

/// Table 2 data: accuracy-loss % per technique per arrival rate.
#[derive(Clone, Debug, PartialEq)]
pub struct Table2 {
    /// Request arrival rates (req/s).
    pub rates: Vec<f64>,
    /// Partial-execution row (%).
    pub partial: Vec<f64>,
    /// AccuracyTrader row (%).
    pub accuracy_trader: Vec<f64>,
}

/// Run Table 2: partial execution vs. AccuracyTrader accuracy losses under
/// the CF workload, replaying simulated budgets against the real service.
pub fn table2(scale: &ExpScale) -> Table2 {
    let rates = vec![20.0, 40.0, 60.0, 80.0, 100.0];
    let deployment = build_recommender(scale.deploy);
    let cfg = scale.sim_config(scale.table_components, true);

    let cells: Vec<(f64, f64)> = rates
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
    Table2 {
        rates,
        partial: cells.iter().map(|c| c.0).collect(),
        accuracy_trader: cells.iter().map(|c| c.1).collect(),
    }
}

/// Print Table 2.
pub fn print_table2(t: &Table2) {
    println!("== Table 2: accuracy losses (%), CF workload ==");
    let rows = [
        ("Partial exec", &t.partial[..]),
        ("AccuracyTrader", &t.accuracy_trader[..]),
    ];
    print_rate_table(&t.rates, &rows, 18, 2);
}

// ---------------------------------------------------------------------
// Figures 5-8: diurnal search workload
// ---------------------------------------------------------------------

/// One technique's per-minute p99.9 series for one hour, plus arrivals.
#[derive(Clone, Debug)]
pub struct HourSeries {
    /// Hour of day (1..=24).
    pub hour: usize,
    /// Requests per minute-bucket (the (a)/(e)/(i) panels).
    pub arrivals_per_bucket: Vec<usize>,
    /// (technique label, per-bucket p99.9 ms).
    pub series: Vec<(&'static str, Vec<Option<f64>>)>,
}

/// Figure 5: tail-latency series for the characteristic hours 9/10/24
/// under Basic, reissue, and AccuracyTrader.
pub fn fig5(scale: &ExpScale) -> Vec<HourSeries> {
    let pattern = DiurnalPattern::sogou_like(scale.peak_rps);
    let cfg = scale.sim_config(scale.fig_components, false);
    let (h_inc, h_steady, h_dec) = DiurnalPattern::characteristic_hours();
    [h_inc, h_steady, h_dec]
        .into_par_iter()
        .map(|hour| {
            let mut arrivals_per_bucket = Vec::new();
            let series = search_latency_techniques()
                .into_iter()
                .map(|(name, tech)| {
                    let r = run_hour_window(&pattern, hour, scale.fig_window_s, tech, &cfg);
                    if arrivals_per_bucket.is_empty() {
                        // Per-bucket arrival counts, from the bucketed recorder.
                        arrivals_per_bucket = (0..r.bucketed.len())
                            .map(|i| r.bucketed.bucket(i).len())
                            .collect();
                    }
                    (name, r.bucketed.p999_series_ms())
                })
                .collect();
            HourSeries {
                hour,
                arrivals_per_bucket,
                series,
            }
        })
        .collect()
}

/// The three latency-side techniques of Figures 5 and 7.
fn search_latency_techniques() -> [(&'static str, Technique); 3] {
    [
        ("Basic", Technique::Basic),
        ("Reissue", REISSUE),
        ("AccuracyTrader", accuracy_trader(SEARCH_IMAX)),
    ]
}

/// Print Figure 5 (sampled minutes to keep the table readable).
pub fn print_fig5(hours: &[HourSeries]) {
    println!("== Figure 5: per-minute p99.9 component latency (ms), hours 9/10/24 ==");
    for h in hours {
        println!("-- hour {} --", h.hour);
        print!("{:<8}", "minute");
        for m in (0..60).step_by(6) {
            print!("{:>10}", m + 1);
        }
        println!();
        print!("{:<8}", "arrivals");
        for m in (0..60).step_by(6) {
            print!("{:>10}", h.arrivals_per_bucket.get(m).copied().unwrap_or(0));
        }
        println!();
        for (name, series) in &h.series {
            print!("{:<8}", &name[..name.len().min(8)]);
            for m in (0..60).step_by(6) {
                match series.get(m).copied().flatten() {
                    Some(v) => print!("{:>10.0}", v),
                    None => print!("{:>10}", "-"),
                }
            }
            println!();
        }
    }
}

/// Accuracy-loss series for one hour: Partial vs. AccuracyTrader, grouped
/// into coarse time bins (Figure 6).
#[derive(Clone, Debug)]
pub struct Fig6Hour {
    /// Hour of day.
    pub hour: usize,
    /// Loss % per bin: (partial, accuracy_trader).
    pub bins: Vec<(f64, f64)>,
}

/// Figure 6: accuracy losses over hours 9/10/24 (search workload).
pub fn fig6(scale: &ExpScale) -> Vec<Fig6Hour> {
    let pattern = DiurnalPattern::sogou_like(scale.peak_rps);
    let cfg = scale.sim_config(scale.fig_components, true);
    let deployment = build_search(scale.deploy);
    let (h_inc, h_steady, h_dec) = DiurnalPattern::characteristic_hours();
    let n_bins = 6usize;
    [h_inc, h_steady, h_dec]
        .iter()
        .map(|&hour| {
            let run = |t| run_hour_window(&pattern, hour, scale.fig_window_s, t, &cfg);
            let (partial, at) = (run(PARTIAL), run(accuracy_trader(SEARCH_IMAX)));
            let bins = (0..n_bins)
                .into_par_iter()
                .map(|bin| {
                    let lo = scale.fig_window_s * bin as f64 / n_bins as f64;
                    let hi = scale.fig_window_s * (bin + 1) as f64 / n_bins as f64;
                    let in_bin = |s: &&RequestSample| s.arrival_s >= lo && s.arrival_s < hi;
                    let p_samples: Vec<RequestSample> =
                        partial.samples.iter().filter(in_bin).cloned().collect();
                    let a_samples: Vec<RequestSample> =
                        at.samples.iter().filter(in_bin).cloned().collect();
                    search_losses(&deployment, &p_samples, &a_samples)
                })
                .collect();
            Fig6Hour { hour, bins }
        })
        .collect()
}

/// Print Figure 6.
pub fn print_fig6(hours: &[Fig6Hour]) {
    println!("== Figure 6: accuracy losses (%), hours 9/10/24, search workload ==");
    for h in hours {
        println!("-- hour {} --", h.hour);
        println!("{:<8} {:>12} {:>16}", "bin", "Partial", "AccuracyTrader");
        for (i, (p, a)) in h.bins.iter().enumerate() {
            println!("{:<8} {:>12.2} {:>16.2}", i + 1, p, a);
        }
    }
}

/// Figure 7 data: hourly arrival rates and hourly p99.9 per technique.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig7 {
    /// Mean arrival rate per hour (req/s), hour 1 first.
    pub hourly_rates: Vec<f64>,
    /// (technique, per-hour p99.9 ms).
    pub series: Vec<(&'static str, Vec<f64>)>,
}

/// Figure 7: 24-hour tail-latency comparison.
pub fn fig7(scale: &ExpScale) -> Fig7 {
    let pattern = DiurnalPattern::sogou_like(scale.peak_rps);
    let cfg = scale.sim_config(scale.fig_components, false);
    let series = search_latency_techniques()
        .into_iter()
        .map(|(name, tech)| {
            let per_hour: Vec<f64> = (1..=24usize)
                .into_par_iter()
                .map(|h| {
                    run_hour_window(&pattern, h, scale.fig_window_s, tech, &cfg)
                        .latencies
                        .p999_ms()
                })
                .collect();
            (name, per_hour)
        })
        .collect();
    Fig7 {
        hourly_rates: pattern.hourly().to_vec(),
        series,
    }
}

/// Print Figure 7.
pub fn print_fig7(f: &Fig7) {
    println!("== Figure 7: hourly p99.9 component latency (ms), 24-hour search workload ==");
    print!("{:<16}", "hour");
    for h in 1..=24 {
        print!("{:>9}", h);
    }
    println!();
    print!("{:<16}", "rate (req/s)");
    for r in &f.hourly_rates {
        print!("{:>9.1}", r);
    }
    println!();
    for (name, row) in &f.series {
        print!("{:<16}", name);
        for v in row {
            print!("{:>9.0}", v);
        }
        println!();
    }
}

/// Figure 8 data: hourly accuracy losses, Partial vs. AccuracyTrader.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig8 {
    /// Per-hour loss % (hour 1 first): (partial, accuracy_trader).
    pub hours: Vec<(f64, f64)>,
}

/// Figure 8: 24-hour accuracy-loss comparison (search workload).
pub fn fig8(scale: &ExpScale) -> Fig8 {
    let pattern = DiurnalPattern::sogou_like(scale.peak_rps);
    let cfg = scale.sim_config(scale.fig_components, true);
    let deployment = build_search(scale.deploy);
    let hours: Vec<(f64, f64)> = (1..=24usize)
        .into_par_iter()
        .map(|h| {
            let run = |t| run_hour_window(&pattern, h, scale.fig_window_s, t, &cfg);
            let (partial, at) = (run(PARTIAL), run(accuracy_trader(SEARCH_IMAX)));
            search_losses(&deployment, &partial.samples, &at.samples)
        })
        .collect();
    Fig8 { hours }
}

/// Print Figure 8.
pub fn print_fig8(f: &Fig8) {
    println!("== Figure 8: hourly accuracy losses (%), 24-hour search workload ==");
    println!("{:<6} {:>12} {:>16}", "hour", "Partial", "AccuracyTrader");
    for (i, (p, a)) in f.hours.iter().enumerate() {
        println!("{:<6} {:>12.2} {:>16.2}", i + 1, p, a);
    }
}

// ---------------------------------------------------------------------
// §4.3 summary ratios
// ---------------------------------------------------------------------

/// One of the paper's headline ratios (§4.3 "Results") next to ours.
#[derive(Clone, Debug, PartialEq)]
pub struct SummaryRow {
    /// Key in `BENCH_paper.json`.
    pub name: &'static str,
    /// Row label `print_summary` prints.
    pub label: &'static str,
    /// The reproduced value.
    pub value: f64,
    /// The value the paper reports.
    pub paper: f64,
    /// `"x"` (a ratio) or `"%"`.
    pub unit: &'static str,
}

/// The five §4.3 headline numbers: tail-latency reduction of AT vs.
/// reissue (CF, search), AT's CF accuracy loss, and the accuracy-loss
/// reduction of AT vs. partial execution (CF, search).
pub type Summary = [SummaryRow; 5];

/// Compute the summary ratios from already-run experiments.
pub fn summary(t1: &Table1, t2: &Table2, f7: &Fig7, f8: &Fig8) -> Summary {
    // CF latency: mean reduction over the heavy-load cells (rate >= 60).
    let heavy: Vec<usize> = t1
        .rates
        .iter()
        .enumerate()
        .filter(|(_, &r)| r >= 60.0)
        .map(|(i, _)| i)
        .collect();
    let latency_reduction_cf = mean_ratio(
        heavy.iter().map(|&i| t1.reissue[i]),
        heavy.iter().map(|&i| t1.accuracy_trader[i]),
    );
    // Search latency: mean over busy hours (rate above the daily median).
    let median = {
        let mut r = f7.hourly_rates.clone();
        r.sort_by(|a, b| a.partial_cmp(b).expect("rates"));
        r[12]
    };
    let busy: Vec<usize> = f7
        .hourly_rates
        .iter()
        .enumerate()
        .filter(|(_, &r)| r > median)
        .map(|(i, _)| i)
        .collect();
    let reissue = &f7
        .series
        .iter()
        .find(|(n, _)| *n == "Reissue")
        .expect("reissue")
        .1;
    let at = &f7
        .series
        .iter()
        .find(|(n, _)| *n == "AccuracyTrader")
        .expect("AT")
        .1;
    let latency_reduction_search = mean_ratio(
        busy.iter().map(|&i| reissue[i]),
        busy.iter().map(|&i| at[i]),
    );

    let at_loss_cf = at_linalg::stats::mean(&t2.accuracy_trader);
    let loss_reduction_cf = mean_ratio(
        t2.partial.iter().copied(),
        t2.accuracy_trader.iter().copied(),
    );
    let loss_reduction_search =
        mean_ratio(f8.hours.iter().map(|h| h.0), f8.hours.iter().map(|h| h.1));
    let row = |name, label, value, paper, unit| SummaryRow {
        name,
        label,
        value,
        paper,
        unit,
    };
    [
        row(
            "latency_reduction_cf",
            "AT vs reissue tail-latency reduction, CF:",
            latency_reduction_cf,
            133.38,
            "x",
        ),
        row(
            "latency_reduction_search",
            "AT vs reissue tail-latency reduction, search:",
            latency_reduction_search,
            42.72,
            "x",
        ),
        row("at_loss_cf", "AT accuracy loss, CF:", at_loss_cf, 1.97, "%"),
        row(
            "loss_reduction_cf",
            "AT vs partial accuracy-loss reduction, CF:",
            loss_reduction_cf,
            15.12,
            "x",
        ),
        row(
            "loss_reduction_search",
            "AT vs partial accuracy-loss reduction, search:",
            loss_reduction_search,
            13.85,
            "x",
        ),
    ]
}

fn mean_ratio(num: impl Iterator<Item = f64>, den: impl Iterator<Item = f64>) -> f64 {
    let pairs: Vec<(f64, f64)> = num.zip(den).filter(|&(_, d)| d > 1e-9).collect();
    if pairs.is_empty() {
        return f64::NAN;
    }
    pairs.iter().map(|(n, d)| n / d).sum::<f64>() / pairs.len() as f64
}

/// Print the summary.
pub fn print_summary(s: &Summary) {
    println!("== §4.3 summary (paper values in parentheses) ==");
    for r in s {
        println!(
            "{:<46}{:8.2}{}  ({}{})",
            r.label, r.value, r.unit, r.paper, r.unit
        );
    }
}
