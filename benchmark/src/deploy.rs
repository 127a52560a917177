//! The benchmark's own deployment builder.
//!
//! The deployment data is a fixed fixture: it is generated from
//! [`DATA_SEED`], not from `--seed`, which drives the traffic (request
//! stream, arrival schedule, update contents). Accuracy and throughput
//! depend on the dataset far more than on the traffic (measured over ten
//! data seeds: `Budgeted{17}` loss 10.6-17.8 %, sharded throughput ±6 %),
//! and a benchmark whose numbers move that much with the seed cannot see a
//! 5 % regression.
//!
//! Same generator parameters as `crates/bench/src/deployments.rs` (noise
//! 0.3, `ratings_per_user = cols/3`, SVD 30 epochs, `size_ratio` 12, 80/20
//! holdout) but owned here, because `at-bench` is due to be reshaped and
//! the benchmark must not move with it. Only the `at_workloads` generators
//! and `Component::build` / `FanOutService::from_components` are called.

use std::time::{Duration, Instant};

use at_core::{partition_rows, ApproximateService, Component, FanOutService};
use at_recommender::{rating_matrix, ActiveUser, CfService};
use at_search::{SearchRequest, SearchService};
use at_synopsis::{AggregationMode, BuildReport, RowStore, SparseRow, SynopsisConfig};
use at_workloads::{Corpus, CorpusConfig, QueryGenerator, RatingsConfig, RatingsDataset};

/// Seed of every generated dataset and of the SVD initialisation.
pub const DATA_SEED: u64 = 0xACC0_2016;

/// Size of a deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    pub name: &'static str,
    pub components: usize,
    pub rows_per_component: usize,
    pub columns: usize,
    /// Distinct evaluation users / queries the request stream draws from.
    pub requests: usize,
}

impl Scale {
    /// Paper-like: exact processing is an order of magnitude slower than
    /// the synopsis pass.
    pub const LARGE: Scale = Scale {
        name: "large",
        components: 16,
        rows_per_component: 1000,
        columns: 400,
        requests: 2000,
    };

    /// The scale every old `BENCH_*.json` artifact used; fixed per-request
    /// overheads dominate here.
    pub const SMALL: Scale = Scale {
        name: "small",
        components: 6,
        rows_per_component: 150,
        columns: 120,
        requests: 500,
    };

    pub fn label(&self) -> String {
        format!(
            "{}:{}x{}x{}/{}req",
            self.name, self.components, self.rows_per_component, self.columns, self.requests
        )
    }
}

/// What the three synopsis-build steps cost, summed over components, and
/// the synopsis shape they produced.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildSummary {
    pub reduce: Duration,
    pub organize: Duration,
    pub aggregate: Duration,
    pub points_per_component: f64,
    pub mean_group_size: f64,
}

impl BuildSummary {
    fn from_reports(reports: &[BuildReport]) -> Self {
        let n = reports.len().max(1) as f64;
        BuildSummary {
            reduce: reports.iter().map(|r| r.reduce_time).sum(),
            organize: reports.iter().map(|r| r.organize_time).sum(),
            aggregate: reports.iter().map(|r| r.aggregate_time).sum(),
            points_per_component: reports.iter().map(|r| r.n_aggregated as f64).sum::<f64>() / n,
            mean_group_size: reports.iter().map(|r| r.mean_group_size).sum::<f64>() / n,
        }
    }
}

fn synopsis_config() -> SynopsisConfig {
    let base = SynopsisConfig::default();
    SynopsisConfig {
        svd: base.svd.with_epochs(30).with_seed(DATA_SEED),
        size_ratio: 12,
        ..base
    }
}

/// Build every component on its own thread, `nproc` at a time (the offline
/// pipeline is embarrassingly parallel across subsets).
fn build_components<S: ApproximateService + Send>(
    subsets: Vec<RowStore>,
    mode: AggregationMode,
    config: SynopsisConfig,
    make_service: impl Fn(&RowStore) -> S + Sync,
) -> (Vec<Component<S>>, BuildSummary) {
    let threads = crate::cores().min(subsets.len()).max(1);
    let jobs = std::sync::Mutex::new(subsets.into_iter().enumerate());
    let mut built: Vec<(usize, Component<S>, BuildReport)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let job = jobs.lock().expect("job queue lock").next();
                        let Some((i, subset)) = job else { break };
                        let service = make_service(&subset);
                        let (component, report) = Component::build(subset, mode, config, service);
                        mine.push((i, component, report));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("component build thread"))
            .collect()
    });
    built.sort_by_key(|(i, _, _)| *i);
    let reports: Vec<BuildReport> = built.iter().map(|(_, _, r)| *r).collect();
    let components = built.into_iter().map(|(_, c, _)| c).collect();
    (components, BuildSummary::from_reports(&reports))
}

/// Generated recommender inputs: what the program is given, and the
/// held-out truth only the benchmark sees.
pub struct RecInputs {
    pub columns: usize,
    /// One train-ratings row per user, in user order.
    pub rows: Vec<SparseRow>,
    /// Evaluation requests (80 % profile → predict the held-out 20 %).
    pub requests: Vec<ActiveUser>,
    /// Held-out ratings, parallel to `requests[i].targets`.
    pub actual: Vec<Vec<f64>>,
    /// Users generated beyond the deployment, as material for updates.
    pub spare_rows: Vec<SparseRow>,
}

/// Generate the recommender inputs for `scale`. `spare` extra users are
/// generated for the update workload and kept out of the matrix.
pub fn rec_inputs(scale: Scale, spare: usize) -> RecInputs {
    let n_users = scale.components * scale.rows_per_component;
    let data = RatingsDataset::generate(RatingsConfig {
        n_users: n_users + spare,
        n_items: scale.columns,
        ratings_per_user: (scale.columns / 3).max(10),
        noise: 0.3,
        seed: DATA_SEED,
        ..RatingsConfig::default()
    });
    let (train, holdout) = data.holdout_split(0.8, DATA_SEED ^ 0x51);

    let mut held: Vec<Vec<(u32, f64)>> = vec![Vec::new(); scale.requests];
    for r in &holdout {
        if let Some(h) = held.get_mut(r.user as usize) {
            h.push((r.item, r.stars));
        }
    }
    let matrix = rating_matrix(n_users + spare, scale.columns, &train);
    let mut rows: Vec<SparseRow> = matrix.ids().map(|id| matrix.row(id).clone()).collect();
    let spare_rows = rows.split_off(n_users);

    let mut requests = Vec::with_capacity(scale.requests);
    let mut actual = Vec::with_capacity(scale.requests);
    for (user, mut h) in held.into_iter().enumerate() {
        let profile = rows[user].clone();
        if h.is_empty() || profile.nnz() < 4 {
            continue;
        }
        h.sort_by_key(|&(item, _)| item);
        requests.push(ActiveUser::new(
            profile,
            h.iter().map(|&(item, _)| item).collect(),
        ));
        actual.push(h.iter().map(|&(_, stars)| stars).collect());
    }
    RecInputs {
        columns: scale.columns,
        rows,
        requests,
        actual,
        spare_rows,
    }
}

/// One timed set-up of the recommender deployment from its inputs.
pub fn build_recommender(
    inputs: &RecInputs,
    scale: Scale,
) -> (FanOutService<CfService>, BuildSummary, Duration) {
    let start = Instant::now();
    let subsets = partition_rows(inputs.columns, inputs.rows.clone(), scale.components)
        .expect("scale has >= 1 component");
    let (components, summary) =
        build_components(subsets, AggregationMode::Mean, synopsis_config(), |_| {
            CfService
        });
    let service = FanOutService::from_components(components);
    (service, summary, start.elapsed())
}

/// Generated search inputs.
pub struct SearchInputs {
    pub vocab: usize,
    pub rows: Vec<SparseRow>,
    pub requests: Vec<SearchRequest>,
}

pub fn search_inputs(scale: Scale) -> SearchInputs {
    let corpus = Corpus::generate(CorpusConfig {
        n_docs: scale.components * scale.rows_per_component,
        vocab: scale.columns * 10,
        n_topics: (scale.columns / 10).clamp(4, 40),
        seed: DATA_SEED,
        ..CorpusConfig::default()
    });
    let rows = corpus
        .docs
        .iter()
        .map(|d| SparseRow::from_pairs(d.terms.clone()))
        .collect();
    let mut generator = QueryGenerator::new(&corpus, DATA_SEED ^ 0x9e);
    // Distinct queries only: the stream's repetition is the zipf draw's
    // job, not an accident of the generator.
    let mut requests: Vec<SearchRequest> = Vec::with_capacity(scale.requests);
    let mut attempts = 0usize;
    while requests.len() < scale.requests && attempts < scale.requests * 20 {
        let req = SearchRequest::from(&generator.next_query(&corpus));
        if !requests.contains(&req) {
            requests.push(req);
        }
        attempts += 1;
    }
    SearchInputs {
        vocab: corpus.config.vocab,
        rows,
        requests,
    }
}

/// One timed set-up of the search deployment from its inputs.
pub fn build_search(
    inputs: &SearchInputs,
    scale: Scale,
) -> (FanOutService<SearchService>, BuildSummary, Duration) {
    let start = Instant::now();
    let subsets = partition_rows(inputs.vocab, inputs.rows.clone(), scale.components)
        .expect("scale has >= 1 component");
    let (components, summary) = build_components(
        subsets,
        AggregationMode::Merge,
        synopsis_config(),
        |subset| SearchService::build(subset, 10),
    );
    let service = FanOutService::from_components(components);
    (service, summary, start.elapsed())
}
