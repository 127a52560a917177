//! Algorithm 1: accuracy-aware approximate processing on a component.
//!
//! The engine is generic over an [`ApproximateService`] that supplies the
//! three service-specific operations (synopsis processing, improvement with
//! one ranked set, and the exact baseline). One driver runs them all:
//!
//! * [`execute`](Algorithm1::execute) — drive a request under any
//!   [`ExecutionPolicy`]: the exact baseline, the synopsis alone, a
//!   deterministic set budget (accuracy evaluations; the simulator converts
//!   deadlines into budgets via its queueing/interference model), or the
//!   literal wall-clock loop of Algorithm 1 (lines 4–10, checking
//!   `l_ela < l_spe` between sets).
//!   [`execute_pooled`](Algorithm1::execute_pooled) is the same run with
//!   its output buffer recycled through an [`OutputPool`].
//!
//! A request is a batch of one: batched serving
//! ([`FanOutService::serve_batch`](crate::FanOutService::serve_batch)) runs
//! each distinct request of a batch through this same per-request path.
//!
//! Ranked sets whose aggregated point has gone stale (present in the
//! synopsis but missing from the index file) are *skipped*, not fatal:
//! they are counted in [`Outcome::sets_skipped`] so operators can alarm on
//! index corruption without the serving path crashing.
//!
//! # Hot-path invariants
//!
//! `execute` is the per-request serving path and holds two invariants:
//!
//! * **No per-set allocation.** The correlation vector is a per-worker
//!   scratch buffer reused across requests: a thread-local, and
//!   [`FanOutService::serve`](crate::FanOutService::serve) runs its legs on
//!   the caller and the persistent rayon pool, so each of those threads
//!   keeps its own for the life of the process;
//!   [`ApproximateService::process_synopsis`] fills it in place.
//!   Weight computation ([`at_linalg::pearson_on_common`]) is a streaming
//!   merge with no intermediate vectors, and neighbour means come from the
//!   [`at_linalg::RowStats`] caches in the stores.
//! * **Sort work proportional to the budget.** Ranking goes through
//!   [`rank_top`]: only the top `bound` ranks
//!   implied by the policy (`i_max`, set budget; full for a live deadline)
//!   are put in order — `O(m + b log b)` instead of `O(m log m)` — and the
//!   prefix extends geometrically only when stale-set skips force the loop
//!   past its initial bound. The eager [`rank`] stays available for the
//!   Figure-4 `sections` analyses, and both orders are identical for every
//!   prefix (same total comparator, [`crate::correlation::cmp_ranked`]).

use std::cell::RefCell;
use std::time::Instant;

use at_synopsis::{Row, RowStore, SparseRow, SynopsisStore};

use crate::clock;
use crate::correlation::{rank, rank_top, Correlation};
use crate::outcome::Outcome;
use crate::policy::ExecutionPolicy;
use crate::pool::OutputPool;

thread_local! {
    /// Per-worker correlation scratch, reused across requests. Capacity
    /// converges to the largest synopsis this worker has served.
    static CORR_SCRATCH: RefCell<Vec<Correlation>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with this worker's cleared correlation scratch buffer. Falls
/// back to a fresh vector under re-entrancy (a service calling back into
/// `execute` on the same thread) so the serving path can never deadlock on
/// its own scratch.
fn with_corr_scratch<R>(f: impl FnOnce(&mut Vec<Correlation>) -> R) -> R {
    CORR_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            buf.clear();
            f(&mut buf)
        }
        Err(_) => f(&mut Vec::new()),
    })
}

/// Read-only view a service implementation gets of a component's state,
/// both halves stored in the service's row layout `R`
/// ([`ApproximateService::Row`]).
pub struct Ctx<'a, R = SparseRow> {
    /// The component's subset of original input data.
    pub dataset: &'a RowStore<R>,
    /// The synopsis store (synopsis + index file + R-tree + reducer).
    pub store: &'a SynopsisStore<R>,
}

// Two shared references: `Copy` whatever `R` is (a derive would demand
// `R: Copy`).
impl<R> Clone for Ctx<'_, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R> Copy for Ctx<'_, R> {}

/// Service-specific request processing hooks.
///
/// Incorporating AccuracyTrader "does not require any modification in the
/// request processing algorithm, but controlling the input dataset fed to
/// the algorithm" (§3.2): `process_synopsis` feeds it the synopsis,
/// `improve` feeds it one ranked set of original points, `process_exact`
/// feeds it everything.
pub trait ApproximateService {
    /// The layout this service's kernels read rows in. A component stores
    /// its subset and synopsis in it — once — so the choice is made per
    /// adapter, at compile time.
    type Row: Row;
    /// Request type (active user + target items; query terms; …).
    type Request;
    /// Per-component result type (rating estimate; top-k heap; …).
    type Output: Clone;

    /// Stage 1: produce the initial approximate result from the synopsis
    /// and estimate each aggregated point's correlation to result accuracy
    /// (Algorithm 1, line 1), pushing one [`Correlation`] per aggregated
    /// point into `corr`.
    ///
    /// `corr` arrives empty; it is a reusable scratch buffer owned by the
    /// driver (per-worker, reused across requests), so implementations must
    /// only push into it — never assume ownership or keep references.
    fn process_synopsis(
        &self,
        ctx: Ctx<'_, Self::Row>,
        req: &Self::Request,
        corr: &mut Vec<Correlation>,
    ) -> Self::Output;

    /// Stage 1 into a **recycled** output buffer: reset `out` in place to
    /// exactly the value [`process_synopsis`](Self::process_synopsis)
    /// would return, filling `corr` identically.
    ///
    /// The default overwrites `out` with a fresh allocation, which is
    /// always correct; services participating in output pooling
    /// ([`OutputPool`]) override this to reuse `out`'s storage so a warm
    /// server allocates nothing for outputs. A recycled buffer may come
    /// from *any* earlier request, so implementations must fully reset it
    /// before accumulating.
    fn process_synopsis_into(
        &self,
        ctx: Ctx<'_, Self::Row>,
        req: &Self::Request,
        corr: &mut Vec<Correlation>,
        out: &mut Self::Output,
    ) {
        *out = self.process_synopsis(ctx, req, corr);
    }

    /// Stage 2: improve the result using the original data points of one
    /// ranked set (Algorithm 1, line 7). `node` identifies the aggregated
    /// point the set came from, so implementations can subtract its
    /// synopsis-estimated contribution before adding the exact one.
    fn improve(
        &self,
        ctx: Ctx<'_, Self::Row>,
        req: &Self::Request,
        out: &mut Self::Output,
        node: at_rtree::NodeId,
        members: &[u64],
    );

    /// Baseline: full computation over the entire input data — what the
    /// paper's Basic / request-reissue / partial-execution techniques run.
    fn process_exact(&self, ctx: Ctx<'_, Self::Row>, req: &Self::Request) -> Self::Output;

    /// The component's data just changed
    /// ([`Component::apply_updates`](crate::Component::apply_updates)):
    /// refresh whatever the service derived from it, reading the updated
    /// subset and synopsis from `ctx`. The default keeps nothing derived,
    /// so it does nothing.
    fn data_updated(&mut self, _ctx: Ctx<'_, Self::Row>) {}
}

/// A fan-out service that can merge ordered per-component partial outputs
/// into the final user-visible response (the paper's composing component,
/// §4.3).
///
/// `parts` arrive in component order, so implementations that namespace
/// results per component (e.g. the search engine's global document ids)
/// can use the slice position.
pub trait ComposableService: ApproximateService {
    /// The user-visible response (predictions per target; merged top-k; …).
    type Response;

    /// Compose per-component outputs into the final response.
    fn compose(&self, req: &Self::Request, parts: &[Self::Output]) -> Self::Response;
}

/// The Algorithm 1 engine bound to one component's state.
pub struct Algorithm1<'a, S: ApproximateService> {
    ctx: Ctx<'a, S::Row>,
    service: &'a S,
}

impl<'a, S: ApproximateService> Algorithm1<'a, S> {
    /// Bind the engine to a component's dataset/synopsis and service hooks.
    pub fn new(
        dataset: &'a RowStore<S::Row>,
        store: &'a SynopsisStore<S::Row>,
        service: &'a S,
    ) -> Self {
        Algorithm1 {
            ctx: Ctx { dataset, store },
            service,
        }
    }

    /// Stage 1 + full eager ranking: initial synopsis result and the ranked
    /// sets, without any improvement (the Figure-4 style effectiveness
    /// analyses, which consume the entire ranking).
    pub fn ranked(&self, req: &S::Request) -> (S::Output, Vec<Correlation>) {
        let mut corr = Vec::new();
        let out = self.service.process_synopsis(self.ctx, req, &mut corr);
        (out, rank(corr))
    }

    /// Run one request under `policy`. `submitted` is the request
    /// submission instant: queueing delay upstream of this call counts
    /// against a [`ExecutionPolicy::Deadline`] exactly as in the paper.
    pub fn execute(
        &self,
        req: &S::Request,
        policy: &ExecutionPolicy,
        submitted: Instant,
    ) -> Outcome<S::Output> {
        self.run(req, policy, submitted, None)
    }

    /// [`execute`](Self::execute), drawing the output buffer from `pool`
    /// when one is available (stage 1 then resets it in place via
    /// [`ApproximateService::process_synopsis_into`]). The caller owns the
    /// returned output and is responsible for returning it to the pool once
    /// composed — [`FanOutService::serve`](crate::FanOutService::serve)
    /// does both ends.
    pub fn execute_pooled(
        &self,
        req: &S::Request,
        policy: &ExecutionPolicy,
        submitted: Instant,
        pool: &OutputPool<S::Output>,
    ) -> Outcome<S::Output> {
        self.run(req, policy, submitted, Some(pool))
    }

    /// The one body behind [`execute`](Self::execute) and
    /// [`execute_pooled`](Self::execute_pooled): stage 1 into a recycled
    /// buffer when `pool` has one, into a fresh output otherwise, then
    /// stage 2.
    fn run(
        &self,
        req: &S::Request,
        policy: &ExecutionPolicy,
        submitted: Instant,
        pool: Option<&OutputPool<S::Output>>,
    ) -> Outcome<S::Output> {
        if let ExecutionPolicy::Exact = policy {
            // The exact baseline rebuilds its output from all original
            // data; it is not the steady-state serving path, so it is not
            // pooled.
            return self.execute_exact(req);
        }
        with_corr_scratch(|corr| {
            let mut out = match pool.and_then(OutputPool::get) {
                Some(mut buf) => {
                    self.service
                        .process_synopsis_into(self.ctx, req, corr, &mut buf);
                    buf
                }
                None => self.service.process_synopsis(self.ctx, req, corr),
            };
            self.improve_best_first(req, policy, submitted, corr, &mut out)
                .map(|()| out)
        })
    }

    /// The exact baseline with uniform full-coverage telemetry. (The sets
    /// count is the synopsis size — stage 1 never runs here, so a service
    /// emitting extra/fewer correlations than synopsis points reports the
    /// canonical count instead.)
    fn execute_exact(&self, req: &S::Request) -> Outcome<S::Output> {
        let total = self.ctx.store.synopsis().len();
        Outcome {
            output: self.service.process_exact(self.ctx, req),
            sets_processed: total,
            sets_total: total,
            sets_skipped: 0,
        }
    }

    /// Stage 2, Algorithm 1 lines 2–10: rank `corr` lazily and improve
    /// `out` best-sets-first within `policy`'s limits.
    fn improve_best_first(
        &self,
        req: &S::Request,
        policy: &ExecutionPolicy,
        submitted: Instant,
        corr: &mut [Correlation],
        out: &mut S::Output,
    ) -> Outcome<()> {
        // Work limits before any sort work: when no set can ever be
        // processed (SynopsisOnly, a zero budget, or a deadline that
        // expired while queueing) the bound is 0 and no sorting happens.
        let (work_cap, deadline) = match *policy {
            ExecutionPolicy::SynopsisOnly => (0, None),
            ExecutionPolicy::Budgeted { sets, .. } => (sets, None),
            ExecutionPolicy::Deadline { l_spe, .. } => {
                if clock::elapsed_since(submitted) >= l_spe {
                    (0, None)
                } else {
                    (usize::MAX, Some(l_spe))
                }
            }
            // lint: allow(panic-freedom) reason=run returns via execute_exact before ranking; reaching here is a driver bug worth crashing on
            ExecutionPolicy::Exact => unreachable!("exact path never ranks"),
        };
        let total = corr.len();
        // `i_max` bounds which *ranks* may ever be considered
        // (Algorithm 1's `i <= i_max` loop condition) — a stale entry
        // inside the cut must not pull in sets beyond it. The set
        // budget bounds *work done*, so skipped (unprocessable) sets do
        // not consume it, and a skip may extend the lazily ranked
        // prefix past the initial bound (never past `rank_bound`).
        let rank_bound = policy.imax().map_or(total, |m| m.min(total));
        let mut ranked = rank_top(corr, work_cap.min(rank_bound));
        let mut processed = 0usize;
        let mut skipped = 0usize;
        let mut i = 0usize;
        while i < rank_bound && processed < work_cap {
            if let Some(l_spe) = deadline {
                if clock::elapsed_since(submitted) >= l_spe {
                    break;
                }
            }
            // `i < rank_bound <= len`, so `get` cannot miss; breaking keeps
            // the serving path panic-free even if that invariant broke.
            let Some(corr) = ranked.get(i) else { break };
            match self.ctx.store.index().members(corr.node) {
                Some(members) => {
                    self.service.improve(self.ctx, req, out, corr.node, members);
                    processed += 1;
                }
                // Stale synopsis entry (e.g. an index-file update raced
                // or was corrupted): degrade gracefully, keep serving.
                None => skipped += 1,
            }
            i += 1;
        }
        Outcome {
            output: (),
            sets_processed: processed,
            sets_total: total,
            sets_skipped: skipped,
        }
    }

    /// The component context (for adapters needing direct access).
    pub fn ctx(&self) -> Ctx<'a, S::Row> {
        self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_linalg::svd::SvdConfig;
    use at_synopsis::{AggregationMode, SparseRow, SynopsisConfig};
    use std::time::Duration;

    /// Toy service: request is a target column; output is the sum of that
    /// column over processed rows. Correlation of an aggregated point = its
    /// aggregated value at the column (higher = more mass there).
    struct SumService;

    impl ApproximateService for SumService {
        type Row = at_synopsis::SparseRow;
        type Request = u32;
        type Output = f64;

        fn process_synopsis(&self, ctx: Ctx<'_>, req: &u32, corr: &mut Vec<Correlation>) -> f64 {
            for p in ctx.store.synopsis().iter() {
                corr.push(Correlation {
                    node: p.node,
                    score: p.info.get(*req).unwrap_or(0.0),
                });
            }
            // Initial estimate: aggregated value × member count, summed.
            ctx.store
                .synopsis()
                .iter()
                .map(|p| p.info.get(*req).unwrap_or(0.0) * p.member_count as f64)
                .sum()
        }

        fn improve(
            &self,
            ctx: Ctx<'_>,
            req: &u32,
            out: &mut f64,
            _node: at_rtree::NodeId,
            members: &[u64],
        ) {
            // "Improvement" here: recompute this group's contribution
            // exactly. The synopsis-estimate contribution is replaced.
            let agg: f64 = ctx
                .dataset
                .aggregate(members, AggregationMode::Mean)
                .get(*req)
                .unwrap_or(0.0)
                * members.len() as f64;
            let exact: f64 = members
                .iter()
                .filter_map(|&m| ctx.dataset.row(m).get(*req))
                .sum();
            *out += exact - agg;
        }

        fn process_exact(&self, ctx: Ctx<'_>, req: &u32) -> f64 {
            (0..ctx.dataset.len() as u64)
                .filter_map(|m| ctx.dataset.row(m).get(*req))
                .sum()
        }
    }

    /// `SumService` that additionally reports one bogus (stale) ranked set
    /// with the highest correlation score.
    struct StaleIndexService;

    impl ApproximateService for StaleIndexService {
        type Row = at_synopsis::SparseRow;
        type Request = u32;
        type Output = f64;

        fn process_synopsis(&self, ctx: Ctx<'_>, req: &u32, corr: &mut Vec<Correlation>) -> f64 {
            let out = SumService.process_synopsis(ctx, req, corr);
            corr.push(Correlation {
                node: at_rtree::NodeId::from_index(u32::MAX),
                score: f64::INFINITY,
            });
            out
        }

        fn improve(
            &self,
            ctx: Ctx<'_>,
            req: &u32,
            out: &mut f64,
            node: at_rtree::NodeId,
            members: &[u64],
        ) {
            SumService.improve(ctx, req, out, node, members);
        }

        fn process_exact(&self, ctx: Ctx<'_>, req: &u32) -> f64 {
            SumService.process_exact(ctx, req)
        }
    }

    fn setup() -> (RowStore, SynopsisStore) {
        let mut data = RowStore::new(12);
        for r in 0..120u32 {
            let base = if r % 2 == 0 { 1.0 } else { 4.0 };
            let pairs: Vec<(u32, f64)> = (0..12)
                .map(|c| (c, base + ((r + c) % 3) as f64 * 0.25))
                .collect();
            data.push_row(SparseRow::from_pairs(pairs));
        }
        let cfg = SynopsisConfig {
            svd: SvdConfig::default().with_epochs(20),
            size_ratio: 10,
            ..SynopsisConfig::default()
        };
        let (store, _) = SynopsisStore::build(&data, AggregationMode::Mean, cfg);
        (data, store)
    }

    fn exact_of(engine: &Algorithm1<'_, SumService>, req: u32) -> f64 {
        engine
            .execute(&req, &ExecutionPolicy::Exact, Instant::now())
            .output
    }

    /// The eager reference driver: full `rank()` sort, then the same
    /// improvement loop — what `execute` ran before lazy ranking. Used to
    /// prove `Outcome` equivalence of the lazy path for every policy.
    fn execute_eager<S: ApproximateService>(
        engine: &Algorithm1<'_, S>,
        req: &S::Request,
        policy: &ExecutionPolicy,
        submitted: Instant,
    ) -> Outcome<S::Output> {
        if let ExecutionPolicy::Exact = policy {
            let total = engine.ctx.store.synopsis().len();
            return Outcome {
                output: engine.service.process_exact(engine.ctx, req),
                sets_processed: total,
                sets_total: total,
                sets_skipped: 0,
            };
        }
        let (mut out, ranked) = engine.ranked(req);
        let total = ranked.len();
        let rank_bound = policy.imax().map_or(total, |m| m.min(total));
        let (work_cap, deadline) = match *policy {
            ExecutionPolicy::SynopsisOnly => (0, None),
            ExecutionPolicy::Budgeted { sets, .. } => (sets, None),
            ExecutionPolicy::Deadline { l_spe, .. } => (usize::MAX, Some(l_spe)),
            ExecutionPolicy::Exact => unreachable!(),
        };
        let mut processed = 0usize;
        let mut skipped = 0usize;
        for corr in ranked.iter().take(rank_bound) {
            if processed >= work_cap {
                break;
            }
            if let Some(l_spe) = deadline {
                if submitted.elapsed() >= l_spe {
                    break;
                }
            }
            match engine.ctx.store.index().members(corr.node) {
                Some(members) => {
                    engine
                        .service
                        .improve(engine.ctx, req, &mut out, corr.node, members);
                    processed += 1;
                }
                None => skipped += 1,
            }
        }
        Outcome {
            output: out,
            sets_processed: processed,
            sets_total: total,
            sets_skipped: skipped,
        }
    }

    #[test]
    fn synopsis_only_returns_synopsis_estimate() {
        let (data, store) = setup();
        let svc = SumService;
        let engine = Algorithm1::new(&data, &store, &svc);
        let o = engine.execute(&3, &ExecutionPolicy::SynopsisOnly, Instant::now());
        assert_eq!(o.sets_processed, 0);
        assert_eq!(o.sets_skipped, 0);
        assert!(o.sets_total > 0);
        // Mean-aggregation estimate of a dense column is exact up to FP.
        assert!((o.output - exact_of(&engine, 3)).abs() < 1e-6);
    }

    #[test]
    fn synopsis_only_equals_zero_budget() {
        let (data, store) = setup();
        let svc = SumService;
        let engine = Algorithm1::new(&data, &store, &svc);
        let a = engine.execute(&3, &ExecutionPolicy::SynopsisOnly, Instant::now());
        let b = engine.execute(&3, &ExecutionPolicy::budgeted(0), Instant::now());
        assert_eq!(a.output, b.output);
        assert_eq!(a.sets_processed, b.sets_processed);
    }

    #[test]
    fn full_budget_equals_exact() {
        let (data, store) = setup();
        let svc = SumService;
        let engine = Algorithm1::new(&data, &store, &svc);
        let o = engine.execute(&5, &ExecutionPolicy::budgeted(usize::MAX), Instant::now());
        assert_eq!(o.sets_processed, o.sets_total);
        let exact = exact_of(&engine, 5);
        assert!((o.output - exact).abs() < 1e-6, "{} vs {exact}", o.output);
    }

    #[test]
    fn exact_policy_reports_full_coverage() {
        let (data, store) = setup();
        let svc = SumService;
        let engine = Algorithm1::new(&data, &store, &svc);
        let o = engine.execute(&5, &ExecutionPolicy::Exact, Instant::now());
        assert_eq!(o.sets_processed, o.sets_total);
        assert_eq!(o.coverage(), 1.0);
    }

    #[test]
    fn imax_caps_processing() {
        let (data, store) = setup();
        let svc = SumService;
        let engine = Algorithm1::new(&data, &store, &svc);
        let o = engine.execute(
            &0,
            &ExecutionPolicy::Budgeted {
                sets: usize::MAX,
                imax: Some(2),
            },
            Instant::now(),
        );
        assert_eq!(o.sets_processed, 2);
    }

    #[test]
    fn budget_caps_processing() {
        let (data, store) = setup();
        let svc = SumService;
        let engine = Algorithm1::new(&data, &store, &svc);
        let o = engine.execute(&0, &ExecutionPolicy::budgeted(3), Instant::now());
        assert_eq!(o.sets_processed, 3.min(o.sets_total));
    }

    #[test]
    fn ranked_sets_processed_best_first() {
        let (data, store) = setup();
        let svc = SumService;
        let engine = Algorithm1::new(&data, &store, &svc);
        let (_, ranked) = engine.ranked(&0);
        for w in ranked.windows(2) {
            assert!(w[0].score >= w[1].score, "ranking not descending");
        }
    }

    #[test]
    fn deadline_already_expired_processes_no_sets() {
        let (data, store) = setup();
        let svc = SumService;
        let engine = Algorithm1::new(&data, &store, &svc);
        let policy = ExecutionPolicy::deadline(Duration::from_millis(10));
        // Request "submitted" well before the deadline window.
        let start = Instant::now() - Duration::from_millis(50);
        let o = engine.execute(&1, &policy, start);
        assert_eq!(
            o.sets_processed, 0,
            "expired deadline must still return the synopsis result"
        );
    }

    #[test]
    fn generous_deadline_processes_everything() {
        let (data, store) = setup();
        let svc = SumService;
        let engine = Algorithm1::new(&data, &store, &svc);
        let policy = ExecutionPolicy::deadline(Duration::from_secs(30));
        let o = engine.execute(&1, &policy, Instant::now());
        assert_eq!(o.sets_processed, o.sets_total);
    }

    #[test]
    fn stale_index_entry_is_skipped_not_fatal() {
        let (data, store) = setup();
        let svc = StaleIndexService;
        let engine = Algorithm1::new(&data, &store, &svc);
        // The bogus set ranks first (infinite correlation); the driver must
        // skip it, process every real set, and still match exact.
        let o = engine.execute(&2, &ExecutionPolicy::budgeted(usize::MAX), Instant::now());
        assert_eq!(o.sets_skipped, 1);
        assert_eq!(o.sets_processed, o.sets_total - 1);
        let exact = engine
            .execute(&2, &ExecutionPolicy::Exact, Instant::now())
            .output;
        assert!((o.output - exact).abs() < 1e-6);
    }

    #[test]
    fn skipped_sets_do_not_consume_budget() {
        let (data, store) = setup();
        let svc = StaleIndexService;
        let engine = Algorithm1::new(&data, &store, &svc);
        let o = engine.execute(&2, &ExecutionPolicy::budgeted(2), Instant::now());
        assert_eq!(o.sets_skipped, 1, "the bogus top-ranked set is skipped");
        assert_eq!(o.sets_processed, 2, "budget buys 2 real sets");
    }

    #[test]
    fn imax_bounds_ranks_not_processed_count() {
        let (data, store) = setup();
        let svc = StaleIndexService;
        let engine = Algorithm1::new(&data, &store, &svc);
        // The bogus set ranks first (infinite correlation). With
        // `i_max = 2`, only ranks 0..2 may ever be considered (Algorithm
        // 1's `i <= i_max`): the skip must not pull in rank 2.
        let o = engine.execute(
            &2,
            &ExecutionPolicy::Budgeted {
                sets: usize::MAX,
                imax: Some(2),
            },
            Instant::now(),
        );
        assert_eq!(o.sets_skipped, 1);
        assert_eq!(
            o.sets_processed, 1,
            "only one real set inside the i_max cut"
        );
    }

    /// The reference oracle: `execute`, and `execute_pooled` on a warm
    /// pool whose recycled buffer holds another request's stale output,
    /// must produce an `Outcome` identical (output bits and every counter)
    /// to the eager full-sort driver under every `ExecutionPolicy`
    /// variant, including with stale sets forcing prefix extension past
    /// the initial bound.
    #[test]
    fn lazy_execute_equals_eager_for_every_policy() {
        let (data, store) = setup();
        let policies = [
            ExecutionPolicy::Exact,
            ExecutionPolicy::SynopsisOnly,
            ExecutionPolicy::budgeted(0),
            ExecutionPolicy::budgeted(2),
            ExecutionPolicy::budgeted(usize::MAX),
            ExecutionPolicy::Budgeted {
                sets: usize::MAX,
                imax: Some(3),
            },
            ExecutionPolicy::Budgeted {
                sets: 1,
                imax: Some(2),
            },
            // Deterministic deadlines only: one generous (processes all),
            // one already expired (processes none).
            ExecutionPolicy::deadline(Duration::from_secs(600)),
            ExecutionPolicy::deadline(Duration::from_nanos(1)),
        ];
        let svc = SumService;
        let stale = StaleIndexService;
        let plain = Algorithm1::new(&data, &store, &svc);
        let staled = Algorithm1::new(&data, &store, &stale);
        fn check<S: ApproximateService<Request = u32, Output = f64>>(
            engine: &Algorithm1<'_, S>,
            pool: &OutputPool<f64>,
            policy: &ExecutionPolicy,
            req: u32,
        ) {
            let submitted = Instant::now();
            let eager = execute_eager(engine, &req, policy, submitted);
            // A dirty buffer left by some other request.
            pool.put(-1.0e300);
            let runs = [
                ("execute", engine.execute(&req, policy, submitted)),
                (
                    "execute_pooled",
                    engine.execute_pooled(&req, policy, submitted, pool),
                ),
            ];
            for (path, got) in runs {
                let what = format!("{} {path} {policy:?} req {req}", std::any::type_name::<S>());
                assert_eq!(got.output.to_bits(), eager.output.to_bits(), "{what}");
                assert_eq!(got.stats(), eager.stats(), "{what}");
            }
        }
        let pool = OutputPool::new();
        for policy in &policies {
            for req in [0u32, 3, 7] {
                check(&plain, &pool, policy, req);
                check(&staled, &pool, policy, req);
            }
        }
        assert!(pool.reuses() > 0, "the warm pool must have served buffers");
    }

    #[test]
    fn scratch_reuse_is_request_isolated() {
        // Back-to-back requests on one thread share the scratch buffer;
        // results must be identical to fresh-buffer execution.
        let (data, store) = setup();
        let svc = SumService;
        let engine = Algorithm1::new(&data, &store, &svc);
        let first = engine.execute(&1, &ExecutionPolicy::budgeted(3), Instant::now());
        for _ in 0..4 {
            let again = engine.execute(&1, &ExecutionPolicy::budgeted(3), Instant::now());
            assert_eq!(first.output, again.output);
            assert_eq!(first.sets_processed, again.sets_processed);
            assert_eq!(first.sets_total, again.sets_total);
        }
    }
}
