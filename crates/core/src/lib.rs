//! # at-core
//!
//! The online accuracy-aware approximate processing engine of the
//! AccuracyTrader reproduction (Han et al., ICPP 2016) — Algorithm 1 and
//! the component/service plumbing around it.
//!
//! * [`ExecutionPolicy`] — first-class request-execution policy: `Exact`,
//!   `SynopsisOnly`, `Budgeted`, or `Deadline` (the paper's `l_spe` /
//!   `i_max` knobs as an API object).
//! * [`ApproximateService`] — the three service-specific hooks (process the
//!   synopsis, improve with one ranked set, exact baseline);
//!   [`ComposableService`] adds the response-composition hook.
//! * [`Algorithm1`] — the engine: estimate correlations, rank aggregated
//!   points, improve the initial result best-sets-first under any policy
//!   via [`Algorithm1::execute`].
//! * [`Component`] / [`FanOutService`] — one subset + synopsis per parallel
//!   component; [`FanOutService::serve`] is the end-to-end request
//!   lifecycle (rayon fan-out → compose → [`ServiceResponse`] telemetry),
//!   [`FanOutService::serve_batch`] the batched equivalent (one fan-out
//!   for a whole request stream, duplicates collapsed, each distinct
//!   request run through the per-request path on every component), and
//!   [`FanOutService::serve_with`] the heterogeneous per-component-policy
//!   variant.
//! * [`OutputPool`] — typed recycling of per-component output buffers, so
//!   a warm service serves batches without steady-state allocation.
//! * [`clock`] — the serving stack's single clock gateway: every wall-clock
//!   read goes through it, making the clock-free-policy contract both
//!   statically lintable (`at-analysis`'s `clock-discipline` rule) and
//!   dynamically observable ([`clock::reads`]).
//!
//! * [`fault`] / [`CircuitBreaker`] / [`containment`] — the failure
//!   plane: deterministic seeded fault injection ([`FaultInjector`],
//!   [`FaultyService`]), per-component circuit breaking, and the single
//!   unwind-containment boundary that turns a panicking component into
//!   one failed fan-out leg ([`ServiceResponse::components_failed`])
//!   instead of a dead batch.
//!
//! Service adapters live in `at-recommender` and `at-search`. The hot-path
//! invariants (no steady-state allocation, clock discipline, panic freedom,
//! lock hygiene, unwind containment) are machine-checked by the
//! `at-analysis` lint pass — see `ANALYSIS.md` at the repository root.

pub mod breaker;
pub mod clock;
pub mod component;
pub mod containment;
pub mod correlation;
pub mod fault;
pub mod outcome;
pub mod policy;
pub mod pool;
pub mod processor;
pub mod route;
pub mod service;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use component::Component;
pub use correlation::{cmp_ranked, rank, rank_top, sections, Correlation, RankedPrefix};
pub use fault::{FaultInjector, FaultKind, FaultRule, FaultSite, FaultyService, InjectedFault};
pub use outcome::Outcome;
pub use policy::{DegradationLadder, ExecutionPolicy};
pub use pool::OutputPool;
pub use processor::{Algorithm1, ApproximateService, ComposableService, Ctx};
pub use route::{fnv1a, Fnv1a, RouteKey};
pub use service::{
    partition_rows, ComponentTelemetry, FanOutService, ServiceError, ServiceResponse,
};
