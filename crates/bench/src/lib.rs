//! # at-bench
//!
//! The paper-reproduction harness of AccuracyTrader: builds the two
//! service deployments, couples the `at-sim` latency simulator with
//! real-service accuracy replay, and regenerates **every table and figure**
//! of the paper's evaluation (§4).
//!
//! * [`deployments`] — recommender/search fan-out deployments + workloads.
//! * [`replay`] — turn simulated per-component budgets into RMSE /
//!   top-10-overlap accuracy numbers by running the real services.
//! * [`experiments`] — one driver per table/figure (Table 1, Table 2,
//!   Figures 3–8, the §4.2 creation overheads, and the §4.3 summary),
//!   each returning a [`Table`].
//! * [`table`] — the one result type: named columns at fixed decimals,
//!   one printer and one JSON writer (an array of row objects).
//! * [`artifact`] — the command line, provenance stamp and write step the
//!   committed `BENCH_*.json` files share.
//!
//! Entry points: `cargo run -p at-bench --bin repro --release -- all`
//! (`--out BENCH_paper.json` commits the deterministic tables) and `--bin
//! sweep` for the two serving sweeps the frozen `benchmark/` does not run
//! (`BENCH_overload.json`, `BENCH_shard.json`). Both print their tables
//! and write them with the same writer. Every other serving measurement
//! is `bash benchmark/run.sh`.

pub mod artifact;
pub mod deployments;
pub mod experiments;
pub mod replay;
pub mod table;

pub use deployments::{
    build_recommender, build_search, DeployScale, RecDeployment, SearchDeployment,
};
pub use experiments::ExpScale;
pub use replay::{rec_accuracy_loss, search_accuracy_loss, Budget};
pub use table::Table;
