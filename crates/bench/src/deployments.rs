//! Builds the two evaluated service deployments at configurable scale.
//!
//! The paper partitions each service's input data over 108 components.
//! The latency side of every experiment runs in `at-sim` at full 108-
//! component scale; the *accuracy* side replays the simulator's per-
//! component processing budgets against a real (smaller) deployment built
//! here, mapping simulated component `i` onto real component
//! `i % n_components`.

use at_core::{partition_rows, Component, FanOutService};
use at_linalg::svd::SvdConfig;
use at_recommender::{rating_matrix, ActiveUser, CfService};
use at_search::{SearchRequest, SearchService};
use at_synopsis::{AggregationMode, SparseRow, SynopsisConfig};
use at_workloads::{Corpus, CorpusConfig, QueryGenerator, RatingsConfig, RatingsDataset};

/// Scale of the accuracy-side deployment.
#[derive(Clone, Copy, Debug)]
pub struct DeployScale {
    /// Real parallel components.
    pub n_components: usize,
    /// Users (recommender) / pages (search) per component.
    pub rows_per_component: usize,
    /// Items (recommender) / vocabulary (search ÷ 10) columns.
    pub n_columns: usize,
    /// Evaluation requests to generate.
    pub n_requests: usize,
    /// Seed.
    pub seed: u64,
}

impl DeployScale {
    /// Quick scale for tests and `--quick` runs.
    pub fn quick() -> Self {
        DeployScale {
            n_components: 6,
            rows_per_component: 150,
            n_columns: 120,
            n_requests: 24,
            seed: 7,
        }
    }

    /// Fuller scale for the committed `repro` and `sweep` artifacts.
    pub fn full() -> Self {
        DeployScale {
            n_components: 12,
            rows_per_component: 400,
            n_columns: 240,
            n_requests: 60,
            seed: 7,
        }
    }
}

/// A recommender evaluation request with ground truth.
#[derive(Clone, Debug)]
pub struct RecRequest {
    /// The active user (80% profile).
    pub active: ActiveUser,
    /// Actual ratings of the target items (holdout 20%), parallel to
    /// `active.targets`.
    pub actual: Vec<f64>,
}

/// The CF deployment plus its evaluation workload.
pub struct RecDeployment {
    /// The fan-out service (one synopsis per component).
    pub service: FanOutService<CfService>,
    /// Evaluation requests with held-out ground truth.
    pub requests: Vec<RecRequest>,
}

/// Build the recommender deployment: generate MovieLens-like ratings,
/// 80/20-split each evaluation user's ratings, partition all users across
/// components, and run the offline synopsis pipeline on each subset.
pub fn build_recommender(scale: DeployScale) -> RecDeployment {
    let n_users = scale.n_components * scale.rows_per_component;
    let data = RatingsDataset::generate(RatingsConfig {
        n_users,
        n_items: scale.n_columns,
        ratings_per_user: (scale.n_columns / 3).max(10),
        // Lower noise strengthens the CF signal, so skipping components
        // costs real accuracy (the paper's exact CF is far better than the
        // user-mean fallback).
        noise: 0.3,
        seed: scale.seed,
        ..RatingsConfig::default()
    });
    let (train, holdout) = data.holdout_split(0.8, scale.seed ^ 0x51);

    // Evaluation requests: the first n_requests users act as active users;
    // their TRAIN ratings form the profile and their holdout ratings are
    // the prediction targets.
    let mut requests = Vec::with_capacity(scale.n_requests);
    for user in 0..scale.n_requests as u32 {
        let profile: Vec<(u32, f64)> = train
            .iter()
            .filter(|r| r.user == user)
            .map(|r| (r.item, r.stars))
            .collect();
        let mut held: Vec<(u32, f64)> = holdout
            .iter()
            .filter(|r| r.user == user)
            .map(|r| (r.item, r.stars))
            .collect();
        held.sort_by_key(|&(i, _)| i);
        if held.is_empty() || profile.len() < 4 {
            continue;
        }
        let targets: Vec<u32> = held.iter().map(|&(i, _)| i).collect();
        let actual: Vec<f64> = held.iter().map(|&(_, s)| s).collect();
        requests.push(RecRequest {
            active: ActiveUser::new(SparseRow::from_pairs(profile), targets),
            actual,
        });
    }

    // Neighbourhood matrix: every user's TRAIN ratings (the active users'
    // holdout items stay unseen, as in the paper's weight-calculation
    // setup).
    let matrix = rating_matrix(n_users, scale.n_columns, &train);
    let mut rows = Vec::with_capacity(n_users);
    for id in matrix.ids() {
        rows.push(matrix.row(id).clone());
    }
    let subsets = partition_rows(scale.n_columns, rows, scale.n_components)
        .expect("deployment scale has >= 1 component");
    let config = SynopsisConfig {
        svd: SvdConfig::default().with_epochs(30).with_seed(scale.seed),
        size_ratio: 12,
        ..SynopsisConfig::default()
    };
    let service = FanOutService::build(subsets, AggregationMode::Mean, config, || CfService);
    RecDeployment { service, requests }
}

/// The search deployment plus its evaluation workload.
pub struct SearchDeployment {
    /// The fan-out service (one inverted index + synopsis per component).
    pub service: FanOutService<SearchService>,
    /// Evaluation queries.
    pub requests: Vec<SearchRequest>,
}

/// Build the search deployment: generate a Sogou-like corpus, partition
/// pages across components, index each subset, and run the offline
/// synopsis pipeline with merge aggregation.
pub fn build_search(scale: DeployScale) -> SearchDeployment {
    let corpus = Corpus::generate(CorpusConfig {
        n_docs: scale.n_components * scale.rows_per_component,
        vocab: scale.n_columns * 10,
        n_topics: (scale.n_columns / 10).clamp(4, 40),
        seed: scale.seed,
        ..CorpusConfig::default()
    });
    let rows: Vec<SparseRow> = corpus
        .docs
        .iter()
        .map(|d| SparseRow::from_pairs(d.terms.clone()))
        .collect();
    let subsets = partition_rows(corpus.config.vocab, rows, scale.n_components)
        .expect("deployment scale has >= 1 component");
    let config = SynopsisConfig {
        svd: SvdConfig::default().with_epochs(30).with_seed(scale.seed),
        size_ratio: 12,
        ..SynopsisConfig::default()
    };
    let components: Vec<Component<SearchService>> = subsets
        .into_iter()
        .map(|subset| {
            let service = SearchService::build(&subset, 10);
            Component::build(subset, AggregationMode::Merge, config, service).0
        })
        .collect();
    let service = FanOutService::from_components(components);

    let mut generator = QueryGenerator::new(&corpus, scale.seed ^ 0x9e);
    let requests = generator
        .batch(&corpus, scale.n_requests)
        .iter()
        .map(SearchRequest::from)
        .collect();
    SearchDeployment { service, requests }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommender_deployment_shape() {
        let d = build_recommender(DeployScale::quick());
        assert_eq!(d.service.len(), 6);
        assert!(!d.requests.is_empty());
        for r in &d.requests {
            assert_eq!(r.active.targets.len(), r.actual.len());
            assert!(r.actual.iter().all(|s| (1.0..=5.0).contains(s)));
        }
    }

    #[test]
    fn search_deployment_shape() {
        let d = build_search(DeployScale::quick());
        assert_eq!(d.service.len(), 6);
        assert_eq!(d.requests.len(), 24);
        for c in d.service.components() {
            assert!(c.store().synopsis().len() > 1);
        }
    }
}
