//! # at-sim
//!
//! Discrete-event cluster simulator for the AccuracyTrader reproduction
//! (Han et al., ICPP 2016) — the substitute for the paper's 30-node Xen /
//! JStorm testbed (substitution rationale in README § "What is simulated,
//! what runs for real").
//!
//! * [`cluster`] — the fan-out + FIFO-queue + heterogeneity + interference
//!   model and the four techniques (Basic, Request reissue, Partial
//!   execution, AccuracyTrader).
//! * [`cost`] — per-request compute costs (paper-plausible defaults or
//!   measured via [`calibrate()`](calibrate())).
//! * [`metrics`] — 99.9th-percentile latency collection and per-minute
//!   series.
//! * [`runner`] — experiment drivers: fixed-rate sweeps (Tables 1–2),
//!   single hours and full days of the diurnal pattern (Figures 5–8).
//!
//! The simulator reports, per sampled request, how many ranked sets each
//! component managed to process (AccuracyTrader) or which components beat
//! the deadline (partial execution); the benchmark harness replays those
//! against the *real* recommender/search implementations to measure
//! accuracy losses.

pub mod calibrate;
pub mod cluster;
pub mod cost;
pub mod metrics;
pub mod runner;

pub use calibrate::calibrate;
pub use cluster::{simulate, RequestSample, SimConfig, SimResult, Technique};
pub use cost::CostModel;
pub use metrics::{BucketedLatencies, LatencyRecorder};
pub use runner::{run_day, run_fixed_rate, run_hour, run_hour_window, sweep_rates};
