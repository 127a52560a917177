//! # accuracytrader
//!
//! A from-scratch Rust reproduction of **AccuracyTrader** (Rui Han, Siguang
//! Huang, Fei Tang, Fugui Chang, Jianfeng Zhan — *AccuracyTrader:
//! Accuracy-aware Approximate Processing for Low Tail Latency and High
//! Result Accuracy in Cloud Online Services*, ICPP 2016).
//!
//! AccuracyTrader trades a *little* result accuracy for a *lot* of tail
//! latency in fan-out online services. Offline, each component compresses
//! its subset of input data into a small **synopsis** of aggregated data
//! points (incremental SVD → R-tree → per-group aggregation). Online, every
//! request is answered from the synopsis first — fast even under heavy load
//! — and then improved with the original data **most correlated with this
//! request's accuracy**, best groups first, until the latency deadline.
//!
//! The online API is policy-driven: an
//! [`ExecutionPolicy`](crate::core::ExecutionPolicy) (`Exact`,
//! `SynopsisOnly`, `Budgeted`, `Deadline`) says how much work one request
//! may spend, and [`FanOutService::serve`](crate::core::FanOutService::serve)
//! runs the whole lifecycle — rayon fan-out over components, composition
//! through the service's [`ComposableService`](crate::core::ComposableService)
//! hook, and aggregated telemetry (per-component coverage, skipped stale
//! sets, wall-clock elapsed) in the returned
//! [`ServiceResponse`](crate::core::ServiceResponse). Request *streams*
//! ride [`FanOutService::serve_batch`](crate::core::FanOutService::serve_batch):
//! one fan-out covers the whole batch, and each component runs the
//! batch's distinct requests through the per-request path in turn
//! (duplicate requests collapsed under clock-free policies, outputs
//! recycled through an [`OutputPool`](crate::core::OutputPool)), provably
//! equivalent to serving the requests one at a time. The async front end
//! ([`server::Server`]) multiplexes thousands of
//! in-flight requests over that machinery: a bounded submission queue
//! stamps each request's submission instant (queue wait counts against
//! `Deadline` policies), a dispatcher thread drains micro-batches, and
//! per-request [`Ticket`](crate::server::Ticket)s deliver responses.
//! Under overload, a pluggable admission controller
//! ([`server::LadderController`]) walks
//! requests down a [`DegradationLadder`](crate::core::DegradationLadder)
//! (`Deadline` → `Budgeted` → `SynopsisOnly`) from sliding-window queue
//! telemetry ([`server::LoadSnapshot`]), so
//! a diurnal peak degrades a fraction of traffic instead of blowing
//! every deadline; responses record the
//! [`policy_applied`](crate::core::ServiceResponse::policy_applied).
//! To scale past one serving loop,
//! [`server::ShardedServer`] runs N workers
//! — each with its own queue, dispatcher, stats, controller, and
//! supervisor — behind a hash-affinity front end: placing equal requests
//! on one worker keeps duplicate-collapse locality, each worker serves
//! only its own queue, and per-worker ladders isolate hot shards.
//!
//! This facade re-exports the whole workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`linalg`] | dense/sparse matrices, incremental (Funk) SVD, Pearson, percentiles |
//! | [`rtree`] | depth-balanced R-tree (insert/delete/bulk-load/levels) |
//! | [`synopsis`] | offline module: synopsis creation, index file, incremental updating |
//! | [`core`] | online module: execution policies, Algorithm 1, components, fan-out services |
//! | [`server`] | async serving front end: bounded queue, micro-batching dispatcher, tickets |
//! | [`recommender`] | user-based CF service + AccuracyTrader adapter |
//! | [`search`] | inverted-index search engine + AccuracyTrader adapter |
//! | [`sim`] | discrete-event cluster simulator (queueing, interference, 4 techniques) |
//! | [`workloads`] | synthetic datasets, query logs, arrival processes, interference traces |
//!
//! ## Quickstart
//!
//! ```
//! use accuracytrader::prelude::*;
//!
//! // 600 users × 40 items of ratings, partitioned over 3 components.
//! let data = RatingsDataset::generate(RatingsConfig {
//!     n_users: 600, n_items: 40, ratings_per_user: 20,
//!     ..RatingsConfig::small()
//! });
//! let matrix = rating_matrix(600, 40, &data.ratings);
//! let rows: Vec<SparseRow> = matrix.ids().map(|id| matrix.row(id).clone()).collect();
//! let subsets = partition_rows(40, rows, 3).expect("n >= 1");
//!
//! // Offline: build every component's synopsis (parallel pipeline).
//! let cfg = SynopsisConfig { size_ratio: 15, ..SynopsisConfig::default() };
//! let service = FanOutService::build(subsets, AggregationMode::Mean, cfg, || CfService);
//!
//! // Online: serve one request end to end under different policies.
//! let active = ActiveUser::new(
//!     SparseRow::from_pairs(vec![(0, 5.0), (1, 3.0), (2, 1.0)]),
//!     vec![5, 7],
//! );
//! // Fast path: answer from the synopses, improve with the 3 best
//! // correlated groups per component.
//! let approx = service.serve(&active, &ExecutionPolicy::budgeted(3));
//! assert_eq!(approx.response.len(), 2); // one prediction per target item
//! assert!(approx.mean_coverage() > 0.0);
//!
//! // Wall-clock production policy: the paper's 100 ms deadline.
//! let timed = service.serve(&active, &ExecutionPolicy::recommender());
//! assert_eq!(timed.response.len(), 2);
//!
//! // Baseline: exact processing over all original data.
//! let exact = service.serve(&active, &ExecutionPolicy::Exact);
//! assert_eq!(exact.min_coverage(), 1.0);
//! ```

pub use at_core as core;
pub use at_linalg as linalg;
pub use at_recommender as recommender;
pub use at_rtree as rtree;
pub use at_search as search;
pub use at_server as server;
pub use at_sim as sim;
pub use at_synopsis as synopsis;
pub use at_workloads as workloads;

/// The most commonly used items in one import.
pub mod prelude {
    pub use at_core::{
        partition_rows, Algorithm1, ApproximateService, BreakerConfig, BreakerState,
        CircuitBreaker, Component, ComponentTelemetry, ComposableService, Correlation, Ctx,
        DegradationLadder, ExecutionPolicy, FanOutService, FaultInjector, FaultKind, FaultRule,
        FaultSite, FaultyService, Outcome, OutputPool, RouteKey, ServiceError, ServiceResponse,
    };
    pub use at_linalg::svd::{IncrementalSvd, SvdConfig};
    pub use at_recommender::{rating_matrix, ActiveUser, CfService, PredictionAcc};
    pub use at_rtree::{RTree, RTreeConfig};
    pub use at_search::{SearchRequest, SearchService, TopK};
    pub use at_server::{
        AdmissionController, ClusterStats, Decision, LadderConfig, LadderController, LoadSnapshot,
        NoControl, Server, ServerConfig, ServerStats, ShardConfig, ShardedServer, SubmitError,
        Ticket,
    };
    pub use at_sim::{simulate, CostModel, SimConfig, Technique};
    pub use at_synopsis::{
        AggregationMode, DataUpdate, Row, RowStore, SparseRow, SynopsisConfig, SynopsisStore,
    };
    pub use at_workloads::{
        Corpus, CorpusConfig, DiurnalPattern, QueryGenerator, RatingsConfig, RatingsDataset,
    };
}
