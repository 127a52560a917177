//! # at-bench
//!
//! The benchmark harness of the AccuracyTrader reproduction: builds the
//! two service deployments, couples the `at-sim` latency simulator with
//! real-service accuracy replay, and regenerates **every table and figure**
//! of the paper's evaluation (§4).
//!
//! * [`deployments`] — recommender/search fan-out deployments + workloads.
//! * [`replay`] — turn simulated per-component budgets into RMSE /
//!   top-10-overlap accuracy numbers by running the real services.
//! * [`experiments`] — one driver per table/figure (Table 1, Table 2,
//!   Figures 3–8, the §4.2 creation overheads, and the §4.3 summary).
//!
//! Entry points: `cargo run -p at-bench --bin repro --release -- all` or
//! the criterion benches (`cargo bench -p at-bench`).

pub mod deployments;
pub mod experiments;
pub mod replay;

pub use deployments::{
    build_recommender, build_search, DeployScale, RecDeployment, SearchDeployment,
};
pub use experiments::ExpScale;
pub use replay::{rec_accuracy_loss, rec_rmse, search_accuracy_loss, search_overlap, Budget};

/// Nearest-rank p99 of a latency sample, in milliseconds — the one
/// definition shared by every bench binary. Sorts in place; `0.0` for an
/// empty sample.
pub fn p99_latency_ms(latencies: &mut [std::time::Duration]) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_unstable();
    let idx = ((latencies.len() as f64 * 0.99).ceil() as usize).clamp(1, latencies.len()) - 1;
    latencies[idx].as_secs_f64() * 1e3
}
