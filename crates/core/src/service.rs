//! A fan-out online service: request partitioning over parallel components
//! and response composition.
//!
//! Mirrors the paper's deployment (§4.3): one partitioning component, `n`
//! parallel processing components, one composing component. In-process we
//! fan out with rayon (the Storm-topology substitute): the legs of a request
//! run on the calling thread and a persistent, process-wide pool, so no
//! request pays a thread spawn. The latency behaviour of a *distributed*
//! deployment is modelled separately by `at-sim`.
//!
//! [`FanOutService::serve`] is the single request-lifecycle entry point:
//! it fans the request out under one [`ExecutionPolicy`], composes the
//! per-component partial outputs through the service's
//! [`ComposableService::compose`] hook, and returns the response together
//! with aggregated telemetry ([`ServiceResponse`]).
//!
//! Request *streams* go through [`FanOutService::serve_batch`]: one
//! fan-out covers the whole batch, and each component leg runs every
//! distinct request through the per-request path in turn, each keeping its
//! own submission instant, policy accounting, and telemetry — provably
//! identical to serving the requests one at a time under every clock-free
//! policy (live deadlines additionally count time spent waiting behind
//! earlier requests of the batch, like any queueing delay).
//! [`FanOutService::serve_with`] drives heterogeneous per-component
//! policies through the same plumbing. Output buffers are recycled across
//! all of these via the service's [`OutputPool`].

use std::fmt;
use std::time::{Duration, Instant};

use rayon::prelude::*;

use at_synopsis::{AggregationMode, RowStore, SparseRow, SynopsisConfig};

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::clock;
use crate::component::Component;
use crate::containment;
use crate::outcome::Outcome;
use crate::policy::ExecutionPolicy;
use crate::pool::OutputPool;
use crate::processor::{ApproximateService, ComposableService};
use crate::route::RouteKey;

/// Errors from service construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// A partitioning or construction call asked for zero components.
    ZeroComponents,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::ZeroComponents => {
                write!(f, "a fan-out service needs at least one component")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Exact duplicate collapse in O(batch): `firsts[u]` is the original
/// index of unique request `u` (first-appearance order) and `unique_of[i]`
/// the unique index serving original request `i`. Requests are bucketed by
/// [`RouteKey`] in a linear-probed table and every key hit is confirmed
/// with `PartialEq`, so colliding keys cost comparisons, never a merge of
/// two different requests.
fn collapse<R: RouteKey + PartialEq>(reqs: &[R]) -> (Vec<usize>, Vec<usize>) {
    // At most half full, so every probe ends at an empty slot.
    let mask = (reqs.len() * 2).next_power_of_two() - 1;
    let mut table: Vec<Option<(u64, usize)>> = vec![None; mask + 1];
    let mut firsts: Vec<usize> = Vec::new();
    let mut unique_of: Vec<usize> = Vec::with_capacity(reqs.len());
    for (i, req) in reqs.iter().enumerate() {
        let key = req.route_key();
        // FNV-1a's low bits only see its input's low bits: fold the
        // high half in before masking.
        let mut slot = (key ^ (key >> 32)) as usize & mask;
        let unique = loop {
            // lint: allow(panic-freedom) reason=slot <= mask == table.len() - 1
            match &mut table[slot] {
                // lint: allow(panic-freedom) reason=u indexes firsts, which holds indices of reqs
                Some((k, u)) if *k == key && reqs[firsts[*u]] == *req => break *u,
                Some(_) => slot = (slot + 1) & mask,
                empty => {
                    *empty = Some((key, firsts.len()));
                    firsts.push(i);
                    break firsts.len() - 1;
                }
            }
        };
        unique_of.push(unique);
    }
    (firsts, unique_of)
}

/// Split rows round-robin into `n` subsets of a `feature_dim`-column space —
/// the "entire input data is divided into n subsets" step. Round-robin keeps
/// subset sizes within one row of each other.
///
/// Returns [`ServiceError::ZeroComponents`] when `n == 0`.
pub fn partition_rows(
    feature_dim: usize,
    rows: Vec<SparseRow>,
    n: usize,
) -> Result<Vec<RowStore>, ServiceError> {
    if n == 0 {
        return Err(ServiceError::ZeroComponents);
    }
    let mut subsets: Vec<RowStore> = (0..n).map(|_| RowStore::new(feature_dim)).collect();
    for (i, row) in rows.into_iter().enumerate() {
        // lint: allow(panic-freedom) reason=i % n < n == subsets.len()
        subsets[i % n].push_row(row);
    }
    Ok(subsets)
}

/// Per-component processing counters of one served request: an
/// [`Outcome`] stripped of its output (see [`Outcome::stats`]), so the
/// counters and [`coverage`](Outcome::coverage) live in one place.
pub type ComponentTelemetry = Outcome<()>;

/// A composed response plus the request's aggregated telemetry.
#[derive(Clone, Debug)]
pub struct ServiceResponse<R> {
    /// The user-visible composed response.
    pub response: R,
    /// The policy this request actually ran under. Equal to the requested
    /// policy on the direct serving paths; differs when an admission
    /// controller degraded the request on its way through a server, which
    /// is exactly what this field lets callers observe. Heterogeneous
    /// per-component serving ([`FanOutService::serve_with`]) records the
    /// costliest per-component policy ([`ExecutionPolicy::cost_rank`],
    /// ties broken by the larger effective set budget) — an upper bound
    /// on the work any single component spent.
    pub policy_applied: ExecutionPolicy,
    /// Per-component counters, in component order. A component that
    /// failed or was skipped by its breaker still has an entry — all of
    /// its sets counted as skipped, so coverage accounting charges the
    /// failure honestly.
    pub components: Vec<ComponentTelemetry>,
    /// Components (by index) whose fan-out leg did not contribute to
    /// this response: the leg panicked inside the containment boundary,
    /// or its [`CircuitBreaker`] was open and the leg was skipped.
    /// Empty on the healthy path — and deliberately a never-allocated
    /// `Vec::new()` there, so failure telemetry costs the hot path
    /// nothing.
    pub components_failed: Vec<usize>,
    /// Wall-clock time from submission to composed response.
    pub elapsed: Duration,
}

impl<R> ServiceResponse<R> {
    /// Mean per-component coverage of ranked sets, in `[0, 1]`.
    pub fn mean_coverage(&self) -> f64 {
        if self.components.is_empty() {
            return 1.0;
        }
        self.components.iter().map(|c| c.coverage()).sum::<f64>() / self.components.len() as f64
    }

    /// Worst per-component coverage (the straggler), in `[0, 1]`.
    pub fn min_coverage(&self) -> f64 {
        self.components
            .iter()
            .map(|c| c.coverage())
            .fold(1.0, f64::min)
    }

    /// Ranked sets processed, summed over components.
    pub fn sets_processed(&self) -> usize {
        self.components.iter().map(|c| c.sets_processed).sum()
    }

    /// Ranked sets available, summed over components.
    pub fn sets_total(&self) -> usize {
        self.components.iter().map(|c| c.sets_total).sum()
    }

    /// Stale sets skipped, summed over components. Nonzero signals
    /// either index corruption somewhere in the deployment or a failed /
    /// breaker-skipped component (whose whole subset counts as skipped —
    /// see [`components_failed`](Self::components_failed) to tell the
    /// two apart).
    pub fn sets_skipped(&self) -> usize {
        self.components.iter().map(|c| c.sets_skipped).sum()
    }

    /// True when every component contributed (no contained failures, no
    /// open breakers).
    pub fn is_complete(&self) -> bool {
        self.components_failed.is_empty()
    }

    /// Map the response, keeping the telemetry.
    pub fn map<U>(self, f: impl FnOnce(R) -> U) -> ServiceResponse<U> {
        ServiceResponse {
            response: f(self.response),
            policy_applied: self.policy_applied,
            components: self.components,
            components_failed: self.components_failed,
            elapsed: self.elapsed,
        }
    }
}

/// An online service fanned out over parallel components.
///
/// Owns an [`OutputPool`] of per-component output buffers: every serve
/// call checks buffers out for stage 1 and returns them after composing
/// the response, so a **warm** service serves requests and whole batches
/// without allocating outputs (see [`crate::pool`]).
///
/// # Partial failure
///
/// Each fan-out leg of [`serve`](Self::serve) /
/// [`serve_batch`](Self::serve_batch) runs inside the workspace's single unwind
/// containment boundary ([`crate::containment`]) and behind a
/// per-component [`CircuitBreaker`]: a panicking component costs its own
/// coverage (recorded in [`ServiceResponse::components_failed`], its
/// sets counted as skipped) instead of unwinding the whole batch, and a
/// *persistently* failing component trips its breaker and is skipped at
/// ≈ 0 cost until a half-open probe finds it healthy again. `compose`
/// runs over the surviving components' parts, on the caller's thread,
/// **outside** the boundary — a composing-component failure is the
/// caller's to supervise. Every fan-out this service offers is contained.
pub struct FanOutService<S: ApproximateService> {
    components: Vec<Component<S>>,
    breakers: Vec<CircuitBreaker>,
    pool: OutputPool<S::Output>,
}

impl<S> FanOutService<S>
where
    S: ApproximateService + Sync,
    S::Request: Sync,
    S::Output: Send,
{
    /// Build every component from its subset (parallel offline pipeline).
    pub fn build(
        subsets: Vec<RowStore>,
        mode: AggregationMode,
        config: SynopsisConfig,
        make_service: impl Fn() -> S + Sync,
    ) -> Self
    where
        S: Send,
    {
        assert!(!subsets.is_empty(), "service needs >= 1 component");
        let components: Vec<Component<S>> = subsets
            .into_par_iter()
            .map(|subset| Component::build(subset, mode, config, make_service()).0)
            .collect();
        Self::from_components(components)
    }

    /// Wrap pre-built components.
    ///
    /// # Panics
    /// Panics on an empty component list: a zero-component service is a
    /// construction bug, not a runtime condition (data-driven partitioning
    /// reports [`ServiceError::ZeroComponents`] from [`partition_rows`]
    /// before ever reaching a constructor).
    pub fn from_components(components: Vec<Component<S>>) -> Self {
        assert!(!components.is_empty(), "service needs >= 1 component");
        let breakers = components
            .iter()
            .map(|_| CircuitBreaker::new(BreakerConfig::default()))
            .collect();
        FanOutService {
            components,
            breakers,
            pool: OutputPool::new(),
        }
    }

    /// A replicated serving instance over the **same** read-only data:
    /// every component's subset and synopsis are `Arc`-shared with this
    /// service (see [`Component::replica`]), while the mutable serving
    /// state — circuit breakers and the output pool — is fresh, so
    /// replicas fail, recover, and recycle buffers independently.
    ///
    /// This is the scale-out hook behind `at-server`'s replicated
    /// multi-worker deployment: N workers serve N request streams against
    /// one copy of the offline artifacts. Breakers start `Closed` under
    /// the default [`BreakerConfig`]; apply
    /// [`with_breaker_config`](Self::with_breaker_config) per replica to
    /// retune them.
    pub fn replica(&self) -> Self
    where
        S: Clone,
    {
        FanOutService {
            components: self.components.iter().map(Component::replica).collect(),
            breakers: self
                .components
                .iter()
                .map(|_| CircuitBreaker::new(BreakerConfig::default()))
                .collect(),
            pool: OutputPool::new(),
        }
    }

    /// Replace every component's circuit breaker with a fresh one under
    /// `config` (builder style; state resets to `Closed`).
    pub fn with_breaker_config(mut self, config: BreakerConfig) -> Self {
        self.breakers = self
            .components
            .iter()
            .map(|_| CircuitBreaker::new(config))
            .collect();
        self
    }

    /// Per-component circuit breakers, in component order (telemetry:
    /// state, trip counts).
    pub fn breakers(&self) -> &[CircuitBreaker] {
        &self.breakers
    }

    /// Components currently skipped by an open breaker — the service's
    /// fault-induced capacity loss, surfaced through `at-server`'s
    /// `LoadSnapshot` so admission control sees it.
    pub fn open_components(&self) -> usize {
        self.breakers
            .iter()
            .filter(|b| b.state() == BreakerState::Open)
            .count()
    }

    /// The service's output-buffer recycler (telemetry: a warm server's
    /// [`OutputPool::reuses`] grows with every request served).
    pub fn pool(&self) -> &OutputPool<S::Output> {
        &self.pool
    }

    /// Number of parallel components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True when the service has no components (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Borrow the components.
    pub fn components(&self) -> &[Component<S>] {
        &self.components
    }

    /// Mutably borrow the components (for applying data updates).
    pub fn components_mut(&mut self) -> &mut [Component<S>] {
        &mut self.components
    }

    /// Run component `index`'s fan-out leg behind its breaker and inside
    /// the containment boundary. `None` ⇒ the leg was skipped (open
    /// breaker) or failed (contained panic); the caller charges it to
    /// [`ServiceResponse::components_failed`].
    fn leg<T>(&self, index: usize, run: impl FnOnce() -> T) -> Option<T> {
        // get(): breakers are built 1:1 with components, but indexing
        // would still be a panic-freedom finding.
        let breaker = self.breakers.get(index)?;
        if !breaker.should_attempt() {
            return None;
        }
        match containment::contain(run) {
            Ok(out) => {
                breaker.record_success();
                Some(out)
            }
            Err(()) => {
                breaker.record_failure();
                None
            }
        }
    }

    /// The telemetry row of a failed or breaker-skipped leg: zero sets
    /// processed, the component's whole ranked-set inventory skipped, so
    /// [`coverage`](Outcome::coverage) reads 0 and batch-level coverage
    /// accounting charges the loss.
    fn failed_telemetry(component: &Component<S>) -> ComponentTelemetry {
        let total = component.store().synopsis().len();
        Outcome {
            output: (),
            sets_processed: 0,
            sets_total: total,
            sets_skipped: total,
        }
    }

    /// Serve one request end to end: fan out under `policy`, compose the
    /// partial outputs, and aggregate telemetry. The request is treated as
    /// submitted now; use [`serve_at`](Self::serve_at) when upstream
    /// queueing delay must count against a deadline policy.
    ///
    /// The per-component hot path is allocation-free across requests: the
    /// legs run on the calling thread and the persistent rayon pool's
    /// threads, and each of those keeps one thread-local correlation
    /// scratch buffer for the life of the process inside
    /// [`Algorithm1::execute`](crate::Algorithm1::execute), so steady-state
    /// serving performs no per-set allocation (see the hot-path invariants
    /// in [`crate::processor`]).
    pub fn serve(&self, req: &S::Request, policy: &ExecutionPolicy) -> ServiceResponse<S::Response>
    where
        S: ComposableService,
    {
        self.serve_at(req, policy, clock::now())
    }

    /// [`serve`](Self::serve) with an explicit submission instant.
    pub fn serve_at(
        &self,
        req: &S::Request,
        policy: &ExecutionPolicy,
        submitted: Instant,
    ) -> ServiceResponse<S::Response>
    where
        S: ComposableService,
    {
        self.serve_with_at(req, |_| *policy, submitted)
    }

    /// Serve one request with a **per-component** policy: component `i`
    /// executes under `policy_of(i)`. This is how heterogeneous budgets are
    /// driven — e.g. replaying a simulator's per-component set budgets, or
    /// an admission controller degrading only overloaded components.
    /// `serve` is the uniform special case (`policy_of = |_| policy`).
    pub fn serve_with(
        &self,
        req: &S::Request,
        policy_of: impl Fn(usize) -> ExecutionPolicy + Sync + Send,
    ) -> ServiceResponse<S::Response>
    where
        S: ComposableService,
    {
        self.serve_with_at(req, policy_of, clock::now())
    }

    /// [`serve_with`](Self::serve_with) with an explicit submission instant.
    pub fn serve_with_at(
        &self,
        req: &S::Request,
        policy_of: impl Fn(usize) -> ExecutionPolicy + Sync + Send,
        submitted: Instant,
    ) -> ServiceResponse<S::Response>
    where
        S: ComposableService,
    {
        let pool = &self.pool;
        let policy_of = &policy_of;
        let outcomes: Vec<Option<Outcome<S::Output>>> = self
            .components
            .par_iter()
            .enumerate()
            .map(|(i, c)| self.leg(i, || c.execute_pooled(req, &policy_of(i), submitted, pool)))
            .collect();
        // Costliest per-component policy, ties to the larger effective cap;
        // the fold from `policy_of(0)` keeps `>=` so later equal-key
        // policies win, exactly like `max_by_key`, without an `expect` on
        // the (constructor-guaranteed) non-emptiness.
        let key = |p: &ExecutionPolicy| (p.cost_rank(), p.effective_cap(usize::MAX));
        let policy_applied =
            (1..self.components.len())
                .map(policy_of)
                .fold(
                    policy_of(0),
                    |best, p| {
                        if key(&p) >= key(&best) {
                            p
                        } else {
                            best
                        }
                    },
                );
        let mut components: Vec<ComponentTelemetry> = Vec::with_capacity(self.components.len());
        let mut components_failed: Vec<usize> = Vec::new();
        let mut parts: Vec<S::Output> = Vec::with_capacity(self.components.len());
        for ((i, outcome), component) in outcomes.into_iter().enumerate().zip(&self.components) {
            match outcome {
                Some(o) => {
                    components.push(o.stats());
                    parts.push(o.output);
                }
                None => {
                    components.push(Self::failed_telemetry(component));
                    components_failed.push(i);
                }
            }
        }
        // lint: allow(panic-freedom) reason=components nonempty, asserted in from_components
        let response = self.components[0].service().compose(req, &parts);
        for part in parts {
            self.pool.put(part);
        }
        ServiceResponse {
            response,
            policy_applied,
            components,
            components_failed,
            elapsed: clock::elapsed_since(submitted),
        }
    }

    /// Serve a whole **batch** of requests end to end under one policy,
    /// all treated as submitted now. One fan-out covers the entire batch:
    /// each component leg runs the batch's distinct requests one after
    /// another through [`Component::execute_pooled`] (a request is a batch
    /// of one), then each request is composed independently. Under
    /// [clock-free](ExecutionPolicy::is_clock_free) policies (and the
    /// degenerate deadline cases — already expired, or generous enough to
    /// improve everything), responses and telemetry are identical to
    /// mapping [`serve`](Self::serve) over the batch, at a fraction of the
    /// fan-out and allocation cost. A *live* `Deadline` counts the time a
    /// request waits behind earlier requests of its leg against its own
    /// clock: every request keeps its own accounting, but late-in-batch
    /// requests see more elapsed time than they would served alone —
    /// exactly the paper's queueing semantics, where waiting behind a
    /// batch *is* queueing delay. A request waits only for the requests
    /// ahead of it, never for the stage 1 of those behind it.
    ///
    /// Under a [clock-free](ExecutionPolicy::is_clock_free) policy,
    /// duplicate requests in the batch are **collapsed**: services are
    /// deterministic functions of component state and request, so each
    /// distinct request is processed once and its response re-composed per
    /// occurrence. Zipf-skewed query mixes (the paper's workload shape)
    /// repeat hot requests constantly, making this the dominant batching
    /// win at peak load. Duplicates are found exactly and in O(batch):
    /// bucketed by [`RouteKey`], confirmed by `PartialEq`. `Deadline`
    /// batches are never collapsed — each request's outcome legitimately
    /// depends on its own submission instant.
    ///
    /// ```
    /// use at_core::{partition_rows, ApproximateService, ComposableService,
    ///               Correlation, Ctx, ExecutionPolicy, FanOutService};
    /// use at_synopsis::{AggregationMode, SparseRow, SynopsisConfig};
    ///
    /// // A toy service: count the original rows each component processed.
    /// struct CountRows;
    /// impl ApproximateService for CountRows {
    ///     type Row = at_synopsis::SparseRow;
    ///     type Request = ();
    ///     type Output = usize;
    ///     fn process_synopsis(&self, ctx: Ctx<'_>, _r: &(), corr: &mut Vec<Correlation>) -> usize {
    ///         corr.extend(ctx.store.synopsis().iter().map(|p| Correlation {
    ///             node: p.node,
    ///             score: p.member_count as f64,
    ///         }));
    ///         0
    ///     }
    ///     fn improve(&self, _c: Ctx<'_>, _r: &(), out: &mut usize,
    ///                _n: at_rtree::NodeId, members: &[u64]) {
    ///         *out += members.len();
    ///     }
    ///     fn process_exact(&self, ctx: Ctx<'_>, _r: &()) -> usize {
    ///         ctx.dataset.len()
    ///     }
    /// }
    /// impl ComposableService for CountRows {
    ///     type Response = usize;
    ///     fn compose(&self, _r: &(), parts: &[usize]) -> usize {
    ///         parts.iter().sum()
    ///     }
    /// }
    ///
    /// let rows: Vec<SparseRow> = (0..90u32)
    ///     .map(|r| SparseRow::from_pairs((0..6).map(|c| (c, ((r + c) % 4) as f64)).collect()))
    ///     .collect();
    /// let subsets = partition_rows(6, rows, 3).expect("n >= 1");
    /// let cfg = SynopsisConfig { size_ratio: 10, ..SynopsisConfig::default() };
    /// let service = FanOutService::build(subsets, AggregationMode::Mean, cfg, || CountRows);
    ///
    /// // A burst of four equal requests shares one fan-out and is served once.
    /// let batch = vec![(); 4];
    /// let policy = ExecutionPolicy::budgeted(usize::MAX);
    /// let responses = service.serve_batch(&batch, &policy);
    /// assert_eq!(responses.len(), 4);
    /// for resp in &responses {
    ///     assert_eq!(resp.response, 90);
    ///     // Identical to serving the request alone.
    ///     assert_eq!(resp.response, service.serve(&(), &policy).response);
    /// }
    /// ```
    pub fn serve_batch(
        &self,
        reqs: &[S::Request],
        policy: &ExecutionPolicy,
    ) -> Vec<ServiceResponse<S::Response>>
    where
        S: ComposableService,
        S::Request: PartialEq + RouteKey,
    {
        let submitted = vec![clock::now(); reqs.len()];
        self.serve_batch_at(reqs, policy, &submitted)
    }

    /// [`serve_batch`](Self::serve_batch) with one explicit submission
    /// instant per request (from the accept loop), so upstream queueing
    /// delay counts against each request's own deadline.
    ///
    /// # Panics
    /// Panics when `reqs` and `submitted` differ in length.
    pub fn serve_batch_at(
        &self,
        reqs: &[S::Request],
        policy: &ExecutionPolicy,
        submitted: &[Instant],
    ) -> Vec<ServiceResponse<S::Response>>
    where
        S: ComposableService,
        S::Request: PartialEq + RouteKey,
    {
        assert_eq!(
            reqs.len(),
            submitted.len(),
            "serve_batch: one submission instant per request"
        );
        if reqs.is_empty() {
            return Vec::new();
        }
        // Batch-of-one fast path: collapse scanning, unique-index
        // bookkeeping and the regroup/compose passes all exist to share
        // work *between* requests — with one request there is nothing to
        // share, so delegate straight to the single-request path, which
        // runs the same `execute_pooled` per component.
        if reqs.len() == 1 {
            if let (Some(req), Some(&sub)) = (reqs.first(), submitted.first()) {
                return vec![self.serve_at(req, policy, sub)];
            }
        }
        // Collapse duplicate requests (clock-free policies only; see
        // [`collapse`]): a `Deadline` request's outcome depends on its own
        // submission instant, so each is its own unique.
        let (firsts, unique_of) = if policy.is_clock_free() {
            collapse(reqs)
        } else {
            ((0..reqs.len()).collect(), (0..reqs.len()).collect())
        };

        // One fan-out for the whole (collapsed) batch: `per_component[c][u]`
        // is component c's outcome for unique request u — or `None` for
        // the whole leg when component c failed (contained panic) or was
        // skipped by its open breaker. A leg runs its requests in order,
        // so a leg-fatal fault at one request fails the component's whole
        // batch leg, and the requests after it never run: containment is
        // per-leg, not per-request.
        let pool = &self.pool;
        let per_component: Vec<Option<Vec<Outcome<S::Output>>>> = self
            .components
            .par_iter()
            .enumerate()
            .map(|(ci, c)| {
                self.leg(ci, || {
                    // `firsts` holds indices of `reqs`, whose length
                    // `submitted` shares (asserted above): every `get` hits.
                    firsts
                        .iter()
                        .filter_map(|&i| {
                            Some(c.execute_pooled(reqs.get(i)?, policy, *submitted.get(i)?, pool))
                        })
                        .collect()
                })
            })
            .collect();

        // Regroup by unique request, splitting telemetry from outputs.
        // A failed leg contributes a failed-telemetry row to every unique
        // request (the component was down for the whole batch) and no
        // output part: compose sees the survivors only.
        let mut telemetry: Vec<Vec<ComponentTelemetry>> = (0..firsts.len())
            .map(|_| Vec::with_capacity(self.components.len()))
            .collect();
        let mut parts: Vec<Vec<S::Output>> = (0..firsts.len())
            .map(|_| Vec::with_capacity(self.components.len()))
            .collect();
        let mut components_failed: Vec<usize> = Vec::new();
        for ((ci, leg_outcomes), component) in
            per_component.into_iter().enumerate().zip(&self.components)
        {
            match leg_outcomes {
                Some(outcomes) => {
                    // One outcome per unique request, in unique order.
                    for ((outcome, rows), unique_parts) in
                        outcomes.into_iter().zip(&mut telemetry).zip(&mut parts)
                    {
                        rows.push(outcome.stats());
                        unique_parts.push(outcome.output);
                    }
                }
                None => {
                    components_failed.push(ci);
                    for rows in &mut telemetry {
                        rows.push(Self::failed_telemetry(component));
                    }
                }
            }
        }

        // Compose per original request (each from its unique's parts),
        // then recycle every unique request's buffers.
        // lint: allow(panic-freedom) reason=components nonempty, asserted in from_components
        let composer = self.components[0].service();
        let responses = reqs
            .iter()
            .zip(submitted)
            .zip(&unique_of)
            .map(|((req, &sub), &u)| ServiceResponse {
                // lint: allow(panic-freedom) reason=unique_of maps into firsts, so u < firsts.len() == parts.len() == telemetry.len()
                response: composer.compose(req, &parts[u]),
                policy_applied: *policy,
                // lint: allow(panic-freedom) reason=unique_of maps into firsts, so u < firsts.len() == parts.len() == telemetry.len()
                components: telemetry[u].clone(),
                // An empty clone never allocates: failure-free batches
                // pay nothing for the failure channel.
                components_failed: components_failed.clone(),
                elapsed: clock::elapsed_since(sub),
            })
            .collect();
        for unique_parts in parts {
            for part in unique_parts {
                self.pool.put(part);
            }
        }
        responses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::Correlation;
    use crate::processor::Ctx;
    use at_linalg::svd::SvdConfig;

    struct CountService;

    impl ApproximateService for CountService {
        type Row = at_synopsis::SparseRow;
        type Request = ();
        type Output = usize;

        fn process_synopsis(&self, ctx: Ctx<'_>, _r: &(), corr: &mut Vec<Correlation>) -> usize {
            corr.extend(ctx.store.synopsis().iter().map(|p| Correlation {
                node: p.node,
                score: 1.0,
            }));
            0
        }

        fn improve(
            &self,
            _ctx: Ctx<'_>,
            _r: &(),
            out: &mut usize,
            _node: at_rtree::NodeId,
            members: &[u64],
        ) {
            *out += members.len();
        }

        fn process_exact(&self, ctx: Ctx<'_>, _r: &()) -> usize {
            ctx.dataset.len()
        }
    }

    impl ComposableService for CountService {
        type Response = usize;

        fn compose(&self, _r: &(), parts: &[usize]) -> usize {
            parts.iter().sum()
        }
    }

    fn rows(n: usize) -> Vec<SparseRow> {
        (0..n as u32)
            .map(|r| SparseRow::from_pairs((0..6).map(|c| (c, ((r + c) % 4) as f64)).collect()))
            .collect()
    }

    fn quick_build<S>(
        n_rows: usize,
        n_components: usize,
        make_service: impl Fn() -> S + Sync,
    ) -> FanOutService<S>
    where
        S: ApproximateService + Send + Sync,
        S::Request: Sync,
        S::Output: Send,
    {
        let subsets = partition_rows(6, rows(n_rows), n_components).unwrap();
        let cfg = SynopsisConfig {
            svd: SvdConfig::default().with_epochs(8),
            size_ratio: 10,
            ..SynopsisConfig::default()
        };
        FanOutService::build(subsets, AggregationMode::Mean, cfg, make_service)
    }

    fn quick_service(n_rows: usize, n_components: usize) -> FanOutService<CountService> {
        quick_build(n_rows, n_components, || CountService)
    }

    #[test]
    fn partition_is_balanced_and_complete() {
        let subsets = partition_rows(6, rows(103), 10).unwrap();
        assert_eq!(subsets.len(), 10);
        let sizes: Vec<usize> = subsets.iter().map(|s| s.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 103);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn partition_zero_is_an_error() {
        let err = partition_rows(6, vec![], 0).unwrap_err();
        assert_eq!(err, ServiceError::ZeroComponents);
        let msg = ServiceError::ZeroComponents.to_string();
        assert!(msg.contains("at least one component"), "got: {msg}");
    }

    #[test]
    fn serve_covers_all_subsets() {
        let svc = quick_service(120, 4);
        assert_eq!(svc.len(), 4);
        let full = svc.serve(&(), &ExecutionPolicy::budgeted(usize::MAX));
        assert_eq!(
            full.response, 120,
            "all components processed their whole subset"
        );
        assert_eq!(full.components.len(), 4);
        assert_eq!(full.mean_coverage(), 1.0);
        assert_eq!(full.min_coverage(), 1.0);
        assert_eq!(full.sets_skipped(), 0);
        let exact = svc.serve(&(), &ExecutionPolicy::Exact);
        assert_eq!(exact.response, 120);
    }

    #[test]
    fn serve_synopsis_only_touches_nothing() {
        let svc = quick_service(120, 4);
        let r = svc.serve(&(), &ExecutionPolicy::SynopsisOnly);
        assert_eq!(r.response, 0, "no members processed under SynopsisOnly");
        assert_eq!(r.sets_processed(), 0);
        assert!(r.sets_total() > 0);
        assert_eq!(r.mean_coverage(), 0.0);
    }

    #[test]
    fn serve_telemetry_tracks_partial_budgets() {
        let svc = quick_service(160, 4);
        let r = svc.serve(&(), &ExecutionPolicy::budgeted(1));
        assert_eq!(r.components.len(), 4);
        for c in &r.components {
            assert_eq!(c.sets_processed, 1.min(c.sets_total));
        }
        assert!(r.mean_coverage() > 0.0 && r.mean_coverage() < 1.0);
        assert!(r.min_coverage() <= r.mean_coverage());
        assert!(r.elapsed > Duration::ZERO);
    }

    #[test]
    fn serve_expired_deadline_degrades_to_synopsis() {
        let svc = quick_service(120, 3);
        let submitted = Instant::now() - Duration::from_millis(50);
        let r = svc.serve_at(
            &(),
            &ExecutionPolicy::deadline(Duration::from_millis(10)),
            submitted,
        );
        let synopsis_only = svc.serve(&(), &ExecutionPolicy::SynopsisOnly);
        assert_eq!(r.response, synopsis_only.response);
        assert_eq!(r.sets_processed(), 0);
    }

    #[test]
    fn serve_batch_equals_mapped_serve() {
        let svc = quick_service(120, 4);
        let reqs = vec![(); 5];
        for policy in [
            ExecutionPolicy::Exact,
            ExecutionPolicy::SynopsisOnly,
            ExecutionPolicy::budgeted(2),
            ExecutionPolicy::budgeted(usize::MAX),
        ] {
            let submitted = vec![Instant::now(); reqs.len()];
            let batch = svc.serve_batch_at(&reqs, &policy, &submitted);
            assert_eq!(batch.len(), reqs.len());
            for ((req, &sub), got) in reqs.iter().zip(&submitted).zip(&batch) {
                let want = svc.serve_at(req, &policy, sub);
                assert_eq!(got.response, want.response, "{policy:?}");
                assert_eq!(got.components, want.components, "{policy:?}");
            }
        }
    }

    /// `CountService` with an invocation counter on stage 1, to observe
    /// how many requests actually reach the components. The request's
    /// value seeds the output, so serving one request with another's
    /// outcome would show in the response.
    struct MeteredService<R>(
        std::sync::Arc<std::sync::atomic::AtomicUsize>,
        std::marker::PhantomData<fn(R)>,
    );

    impl<R: Copy + Into<u32>> ApproximateService for MeteredService<R> {
        type Row = at_synopsis::SparseRow;
        type Request = R;
        type Output = usize;

        fn process_synopsis(&self, ctx: Ctx<'_>, r: &R, corr: &mut Vec<Correlation>) -> usize {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            corr.extend(ctx.store.synopsis().iter().map(|p| Correlation {
                node: p.node,
                score: 1.0,
            }));
            (*r).into() as usize
        }

        fn improve(
            &self,
            _ctx: Ctx<'_>,
            _r: &R,
            out: &mut usize,
            _node: at_rtree::NodeId,
            members: &[u64],
        ) {
            *out += members.len();
        }

        fn process_exact(&self, ctx: Ctx<'_>, _r: &R) -> usize {
            ctx.dataset.len()
        }
    }

    impl<R: Copy + Into<u32>> ComposableService for MeteredService<R> {
        type Response = usize;

        fn compose(&self, _r: &R, parts: &[usize]) -> usize {
            parts.iter().sum()
        }
    }

    /// Three metered components and the stage-1 call counter they share.
    fn metered_service<R: Copy + Into<u32> + Sync>() -> (
        FanOutService<MeteredService<R>>,
        std::sync::Arc<std::sync::atomic::AtomicUsize>,
    ) {
        let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let svc = quick_build(90, 3, || {
            MeteredService(calls.clone(), std::marker::PhantomData)
        });
        (svc, calls)
    }

    #[test]
    fn duplicate_requests_collapse_only_under_clock_free_policies() {
        let (svc, calls) = metered_service::<u32>();
        let batch = [7u32, 9, 7, 7, 9];

        let responses = svc.serve_batch(&batch, &ExecutionPolicy::budgeted(1));
        assert_eq!(responses.len(), batch.len(), "one response per occurrence");
        assert_eq!(
            calls.load(std::sync::atomic::Ordering::Relaxed),
            2 * svc.len(),
            "clock-free batch computes each distinct request once per component"
        );
        assert_eq!(responses[0].response, responses[2].response);
        assert_eq!(responses[0].components, responses[2].components);

        calls.store(0, std::sync::atomic::Ordering::Relaxed);
        svc.serve_batch(&batch, &ExecutionPolicy::deadline(Duration::from_secs(30)));
        assert_eq!(
            calls.load(std::sync::atomic::Ordering::Relaxed),
            batch.len() * svc.len(),
            "deadline batches are never collapsed"
        );
    }

    #[test]
    fn mostly_unique_batch_still_collapses_its_duplicate_tail() {
        let (svc, calls) = metered_service::<u32>();
        // 48 distinct requests, then 16 duplicates of the first: the
        // collapse is exact however unique the prefix looks.
        let batch: Vec<u32> = (0..48u32).chain(std::iter::repeat_n(0u32, 16)).collect();
        let policy = ExecutionPolicy::budgeted(1);
        let responses = svc.serve_batch(&batch, &policy);
        assert_eq!(
            calls.load(std::sync::atomic::Ordering::Relaxed),
            48 * svc.len(),
            "each distinct request computed once per component"
        );
        assert_eq!(responses.len(), batch.len());
        for (req, got) in batch.iter().zip(&responses) {
            let want = svc.serve(req, &policy);
            assert_eq!(got.response, want.response);
            assert_eq!(got.components, want.components);
        }
    }

    /// Every value hashes to the same key; only `PartialEq` tells them
    /// apart.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct SameKey(u32);

    impl RouteKey for SameKey {
        fn route_key(&self) -> u64 {
            0
        }
    }

    impl From<SameKey> for u32 {
        fn from(r: SameKey) -> u32 {
            r.0
        }
    }

    #[test]
    fn colliding_route_keys_never_merge_distinct_requests() {
        let (svc, calls) = metered_service::<SameKey>();
        let batch: Vec<SameKey> = [3u32, 5, 3, 8, 5, 5, 13, 3].map(SameKey).to_vec();
        let policy = ExecutionPolicy::budgeted(1);
        let responses = svc.serve_batch(&batch, &policy);
        assert_eq!(
            calls.load(std::sync::atomic::Ordering::Relaxed),
            4 * svc.len(),
            "equal requests still collapse under a constant key"
        );
        for (req, got) in batch.iter().zip(&responses) {
            let want = svc.serve(req, &policy);
            assert_eq!(got.response, want.response);
            assert_eq!(got.components, want.components);
        }
        assert_ne!(responses[0].response, responses[1].response);
    }

    thread_local! {
        static EQ_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Counts `PartialEq` calls (per thread, so parallel tests do not mix).
    #[derive(Debug)]
    struct CountedEq(u32);

    impl PartialEq for CountedEq {
        fn eq(&self, other: &Self) -> bool {
            EQ_CALLS.set(EQ_CALLS.get() + 1);
            self.0 == other.0
        }
    }

    impl RouteKey for CountedEq {
        fn route_key(&self) -> u64 {
            self.0.route_key()
        }
    }

    /// `(PartialEq calls, uniques)` of collapsing `ids`, checking the
    /// mapping on the way.
    fn collapse_cost(ids: impl Iterator<Item = u32>) -> (usize, usize) {
        let reqs: Vec<CountedEq> = ids.map(CountedEq).collect();
        EQ_CALLS.set(0);
        let (firsts, unique_of) = collapse(&reqs);
        let calls = EQ_CALLS.get();
        assert_eq!(unique_of.len(), reqs.len());
        for (req, &u) in reqs.iter().zip(&unique_of) {
            assert_eq!(reqs[firsts[u]].0, req.0);
        }
        (calls, firsts.len())
    }

    #[test]
    fn collapse_compares_at_most_once_per_request() {
        // Distinct keys never reach `PartialEq`: hashing alone places them.
        assert_eq!(collapse_cost(0..512), (0, 512));
        // Each repeat is confirmed by exactly one comparison.
        assert_eq!(collapse_cost((0..512).map(|i| i % 7)), (512 - 7, 7));
        assert_eq!(
            collapse_cost((0..48).chain(std::iter::repeat_n(0, 16))),
            (16, 48)
        );
    }

    #[test]
    fn serve_batch_empty_is_empty() {
        let svc = quick_service(60, 2);
        assert!(svc
            .serve_batch(&[], &ExecutionPolicy::budgeted(1))
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "one submission instant per request")]
    fn serve_batch_length_mismatch_panics() {
        let svc = quick_service(60, 2);
        svc.serve_batch_at(&[(), ()], &ExecutionPolicy::budgeted(1), &[Instant::now()]);
    }

    #[test]
    fn serve_batch_deadlines_are_per_request() {
        let svc = quick_service(120, 3);
        let now = Instant::now();
        let Some(past) = now.checked_sub(Duration::from_secs(60)) else {
            return; // monotonic clock younger than the offset (fresh boot)
        };
        // Middle request queued past its whole deadline.
        let submitted = vec![now, past, now];
        let policy = ExecutionPolicy::deadline(Duration::from_secs(30));
        let batch = svc.serve_batch_at(&[(), (), ()], &policy, &submitted);
        assert!(batch[0].mean_coverage() > 0.0);
        assert_eq!(batch[1].sets_processed(), 0, "expired request sheds work");
        assert!(batch[2].mean_coverage() > 0.0);
        assert!(batch[1].elapsed >= Duration::from_secs(60));
    }

    #[test]
    fn warm_service_recycles_output_buffers() {
        let svc = quick_service(120, 4);
        let policy = ExecutionPolicy::budgeted(1);
        let cold = svc.serve(&(), &policy);
        let before = svc.pool().reuses();
        let warm = svc.serve(&(), &policy);
        assert_eq!(cold.response, warm.response);
        assert!(
            svc.pool().reuses() > before,
            "second request must reuse pooled outputs"
        );
        let batch = svc.serve_batch(&[(); 6], &policy);
        assert!(batch.iter().all(|r| r.response == cold.response));
        assert!(svc.pool().idle() > 0, "batch buffers returned to the pool");
    }

    #[test]
    fn serve_with_uniform_policy_equals_serve() {
        let svc = quick_service(120, 4);
        for policy in [
            ExecutionPolicy::Exact,
            ExecutionPolicy::SynopsisOnly,
            ExecutionPolicy::budgeted(2),
        ] {
            let a = svc.serve(&(), &policy);
            let b = svc.serve_with(&(), |_| policy);
            assert_eq!(a.response, b.response);
            assert_eq!(a.components, b.components);
        }
    }

    #[test]
    fn serve_with_heterogeneous_budgets() {
        let svc = quick_service(160, 4);
        // Component i gets budget i: coverage must differ per component.
        let r = svc.serve_with(&(), ExecutionPolicy::budgeted);
        assert_eq!(r.components[0].sets_processed, 0);
        for (i, c) in r.components.iter().enumerate() {
            assert_eq!(c.sets_processed, i.min(c.sets_total));
        }
    }

    #[test]
    fn responses_record_the_policy_applied() {
        let svc = quick_service(120, 4);
        for policy in [
            ExecutionPolicy::Exact,
            ExecutionPolicy::SynopsisOnly,
            ExecutionPolicy::budgeted(2),
        ] {
            assert_eq!(svc.serve(&(), &policy).policy_applied, policy);
            let batch = svc.serve_batch(&[(); 3], &policy);
            assert!(batch.iter().all(|r| r.policy_applied == policy));
        }
        // Heterogeneous serving records the costliest per-component policy.
        let r = svc.serve_with(&(), |i| {
            if i == 2 {
                ExecutionPolicy::Exact
            } else {
                ExecutionPolicy::SynopsisOnly
            }
        });
        assert_eq!(r.policy_applied, ExecutionPolicy::Exact);
        // Equal-rank ties break on the larger budget: the reported policy
        // stays an upper bound on any component's work.
        let r = svc.serve_with(&(), |i| {
            if i == 0 {
                ExecutionPolicy::budgeted(100)
            } else {
                ExecutionPolicy::budgeted(1)
            }
        });
        assert_eq!(r.policy_applied, ExecutionPolicy::budgeted(100));
        // map() keeps it.
        let mapped = svc.serve(&(), &ExecutionPolicy::budgeted(1)).map(|n| n + 1);
        assert_eq!(mapped.policy_applied, ExecutionPolicy::budgeted(1));
    }

    use crate::breaker::BreakerState;
    use crate::fault::{FaultInjector, FaultKind, FaultRule, FaultSite, FaultyService};
    use std::sync::Arc;

    /// A fan-out of `CountService` components, component `i` wrapped
    /// around `injectors[i]` — the canonical chaos-test construction
    /// (one injector per component keeps ordinals deterministic).
    fn chaos_service(
        n_rows: usize,
        injectors: &[Arc<FaultInjector>],
    ) -> FanOutService<FaultyService<CountService>> {
        let subsets = partition_rows(6, rows(n_rows), injectors.len()).unwrap();
        let cfg = SynopsisConfig {
            svd: SvdConfig::default().with_epochs(8),
            size_ratio: 10,
            ..SynopsisConfig::default()
        };
        let components: Vec<_> = subsets
            .into_iter()
            .zip(injectors)
            .map(|(subset, inj)| {
                Component::build(
                    subset,
                    AggregationMode::Mean,
                    cfg,
                    FaultyService::new(CountService, inj.clone()),
                )
                .0
            })
            .collect();
        FanOutService::from_components(components)
    }

    fn injectors(n: usize) -> Vec<Arc<FaultInjector>> {
        (0..n)
            .map(|i| Arc::new(FaultInjector::new(1000 + i as u64)))
            .collect()
    }

    #[test]
    fn transparent_injector_serves_byte_identically() {
        let inj = injectors(3);
        let faulty = chaos_service(90, &inj);
        let plain = quick_service(90, 3);
        let policy = ExecutionPolicy::budgeted(2);
        let a = faulty.serve(&(), &policy);
        let b = plain.serve(&(), &policy);
        assert_eq!(a.response, b.response);
        assert_eq!(a.components, b.components);
        assert!(a.components_failed.is_empty() && a.is_complete());
        let batch_a = faulty.serve_batch(&[(); 5], &policy);
        let batch_b = plain.serve_batch(&[(); 5], &policy);
        for (x, y) in batch_a.iter().zip(&batch_b) {
            assert_eq!(x.response, y.response);
            assert_eq!(x.components, y.components);
        }
    }

    #[test]
    fn panicking_component_is_contained_and_charged() {
        let inj = injectors(3);
        let inj1 = Arc::new(FaultInjector::new(7).with_rule(FaultRule::with_probability(
            FaultSite::Stage1,
            FaultKind::Panic,
            1.0,
        )));
        let svc = chaos_service(90, &[inj[0].clone(), inj1.clone(), inj[2].clone()]);
        let healthy = chaos_service(90, &injectors(3));
        let policy = ExecutionPolicy::budgeted(usize::MAX);

        let r = svc.serve(&(), &policy);
        assert_eq!(r.components_failed, vec![1], "only the faulty leg fails");
        assert!(!r.is_complete());
        assert_eq!(r.components.len(), 3, "failed leg still has telemetry");
        assert_eq!(r.components[1].sets_processed, 0);
        assert_eq!(r.components[1].sets_skipped, r.components[1].sets_total);
        assert_eq!(r.min_coverage(), 0.0, "failure charged as zero coverage");
        assert!(r.sets_skipped() > 0);
        // Survivors compose exactly what they would without the faulty
        // component: the row counts of subsets 0 and 2 alone.
        assert_eq!(
            r.response,
            svc.components()[0].dataset().len() + svc.components()[2].dataset().len()
        );
        assert_eq!(healthy.serve(&(), &policy).response, 90);
        assert_eq!(inj1.injected_panics(), 1);
    }

    #[test]
    fn batch_with_failed_leg_marks_every_request() {
        let inj0 = Arc::new(FaultInjector::new(3).with_rule(FaultRule::with_probability(
            FaultSite::Stage1,
            FaultKind::Error,
            1.0,
        )));
        let rest = injectors(2);
        let svc = chaos_service(90, &[inj0.clone(), rest[0].clone(), rest[1].clone()]);
        let batch = svc.serve_batch(&[(); 4], &ExecutionPolicy::budgeted(usize::MAX));
        assert_eq!(batch.len(), 4);
        for r in &batch {
            assert_eq!(r.components_failed, vec![0]);
            assert_eq!(r.components[0].sets_processed, 0);
            assert!(r.response > 0, "survivors still answer");
        }
        assert!(inj0.injected_errors() >= 1);
    }

    #[test]
    fn corrupted_scores_keep_serving_without_leg_failure() {
        let inj = injectors(3);
        let corrupting = Arc::new(FaultInjector::new(5).with_rule(FaultRule::with_probability(
            FaultSite::Stage1,
            FaultKind::CorruptScores,
            1.0,
        )));
        let svc = chaos_service(90, &[inj[0].clone(), corrupting.clone(), inj[2].clone()]);
        let r = svc.serve(&(), &ExecutionPolicy::budgeted(1));
        assert!(
            r.components_failed.is_empty(),
            "NaN scores degrade ranking, they do not fail the leg"
        );
        // The corrupted component still improves its budgeted set — NaN
        // sinks in `cmp_ranked`, so ranking stays total and serving
        // proceeds, just with a garbage-ordered prefix.
        assert_eq!(
            r.components[1].sets_processed,
            1.min(r.components[1].sets_total)
        );
        assert_eq!(corrupting.injected_corruptions(), 1);
    }

    #[test]
    fn breaker_trips_after_threshold_and_skips_the_leg() {
        let healthy = injectors(2);
        let broken = Arc::new(
            FaultInjector::new(11).with_rule(FaultRule::with_probability(
                FaultSite::Stage1,
                FaultKind::Panic,
                1.0,
            )),
        );
        let svc = chaos_service(
            90,
            &[healthy[0].clone(), broken.clone(), healthy[1].clone()],
        )
        .with_breaker_config(crate::breaker::BreakerConfig {
            failure_threshold: 3,
            cooldown: 2,
        });
        let policy = ExecutionPolicy::budgeted(1);
        for _ in 0..3 {
            let r = svc.serve(&(), &policy);
            assert_eq!(r.components_failed, vec![1]);
        }
        assert_eq!(svc.breakers()[1].state(), BreakerState::Open);
        assert_eq!(svc.open_components(), 1);
        let attempts_when_tripped = broken.calls(FaultSite::Stage1);

        // While open, the leg is skipped: no stage-1 call reaches it,
        // but the response still charges the component as failed.
        let r = svc.serve(&(), &policy);
        assert_eq!(r.components_failed, vec![1]);
        assert_eq!(
            broken.calls(FaultSite::Stage1),
            attempts_when_tripped,
            "open breaker skips the component at zero stage-1 cost"
        );

        // cooldown=2: the next serve is the half-open probe; it fails
        // (the schedule still panics) and the breaker re-opens.
        let _ = svc.serve(&(), &policy);
        assert_eq!(
            broken.calls(FaultSite::Stage1),
            attempts_when_tripped + 1,
            "half-open admits exactly one probe"
        );
        assert_eq!(svc.breakers()[1].state(), BreakerState::Open);
        assert_eq!(svc.breakers()[1].trips(), 2);
    }

    #[test]
    fn breaker_recovers_when_the_component_heals() {
        let healthy = injectors(2);
        // Panics on its first three stage-1 calls, healthy after.
        let flaky = Arc::new(FaultInjector::new(13).with_rule(FaultRule::at_calls(
            FaultSite::Stage1,
            FaultKind::Panic,
            vec![0, 1, 2],
        )));
        let svc = chaos_service(90, &[healthy[0].clone(), flaky.clone(), healthy[1].clone()])
            .with_breaker_config(crate::breaker::BreakerConfig {
                failure_threshold: 3,
                cooldown: 1,
            });
        let policy = ExecutionPolicy::budgeted(usize::MAX);
        for _ in 0..3 {
            let _ = svc.serve(&(), &policy);
        }
        assert_eq!(svc.breakers()[1].state(), BreakerState::Open);
        // cooldown=1 ⇒ next serve probes; ordinal 3 is healthy ⇒ closed,
        // and the response is complete again.
        let r = svc.serve(&(), &policy);
        assert!(r.is_complete(), "healed component contributes again");
        assert_eq!(r.response, 90);
        assert_eq!(svc.breakers()[1].state(), BreakerState::Closed);
        assert_eq!(svc.open_components(), 0);
    }

    #[test]
    fn stalled_component_still_answers() {
        let healthy = injectors(2);
        let slow = Arc::new(FaultInjector::new(17).with_rule(FaultRule::at_calls(
            FaultSite::Stage1,
            FaultKind::Stall(Duration::from_millis(5)),
            vec![0],
        )));
        let svc = chaos_service(90, &[healthy[0].clone(), slow.clone(), healthy[1].clone()]);
        let r = svc.serve(&(), &ExecutionPolicy::budgeted(usize::MAX));
        assert!(r.is_complete(), "a stall is latency, not failure");
        assert_eq!(r.response, 90);
        assert!(r.elapsed >= Duration::from_millis(5));
        assert_eq!(slow.injected_stalls(), 1);
    }
}
