//! Property-based equivalence of the batched and sequential serving paths.
//!
//! For every [`ExecutionPolicy`] variant (with deadlines pinned to the
//! deterministic generous/expired extremes), `serve_batch_at` over a batch
//! of requests must produce responses and per-component `Outcome`
//! telemetry identical to mapping `serve_at` over the requests one at a
//! time — including stale-set skips (a service whose top-ranked set has no
//! index entry), tie ordering, and NaN correlation scores. Two fixtures
//! run every case: one service overriding the pooling hook
//! (`process_synopsis_into`, like a production adapter) and one on the
//! trait defaults. A third hashes every request of a given length to the
//! same `RouteKey`, so the duplicate collapse's collision handling runs
//! under every policy too.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use at_core::{
    partition_rows, ApproximateService, ComposableService, Correlation, Ctx, ExecutionPolicy,
    FanOutService, RouteKey,
};
use at_synopsis::{AggregationMode, SparseRow, SynopsisConfig};
use proptest::prelude::*;

/// Toy composable service: a request is a list of target columns; each
/// component sums those columns over its processed rows. Scores inject
/// ties (coarse quantization) and NaN (column 0 of an empty row sum is
/// still finite, so NaN is injected explicitly for one node id pattern).
/// Overrides the pooling hook like a production adapter.
struct ColumnSum;

/// Correlation score of an aggregated point for a request: the point's
/// value at the first target, quantized to force ties, with an injected
/// NaN on every 7th node to exercise hostile-score ordering.
fn score_of(p: &at_synopsis::AggregatedPoint, targets: &[u32]) -> f64 {
    if p.node.index() % 7 == 3 {
        return f64::NAN;
    }
    let raw = targets
        .first()
        .map_or(0.0, |&t| p.info.get(t).unwrap_or(0.0));
    (raw * 4.0).round() / 4.0
}

fn reset_out(out: &mut Vec<f64>, targets: &[u32]) {
    out.clear();
    out.resize(targets.len(), 0.0);
}

fn synopsis_step(
    p: &at_synopsis::AggregatedPoint,
    targets: &[u32],
    corr: &mut Vec<Correlation>,
    out: &mut [f64],
) {
    corr.push(Correlation {
        node: p.node,
        score: score_of(p, targets),
    });
    for (t, o) in targets.iter().zip(out.iter_mut()) {
        *o += p.info.get(*t).unwrap_or(0.0) * p.member_count as f64;
    }
}

impl ApproximateService for ColumnSum {
    type Row = at_synopsis::SparseRow;
    type Request = Vec<u32>;
    type Output = Vec<f64>;

    fn process_synopsis(
        &self,
        ctx: Ctx<'_>,
        req: &Vec<u32>,
        corr: &mut Vec<Correlation>,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        self.process_synopsis_into(ctx, req, corr, &mut out);
        out
    }

    fn process_synopsis_into(
        &self,
        ctx: Ctx<'_>,
        req: &Vec<u32>,
        corr: &mut Vec<Correlation>,
        out: &mut Vec<f64>,
    ) {
        reset_out(out, req);
        for p in ctx.store.synopsis().iter() {
            synopsis_step(p, req, corr, out);
        }
    }

    fn improve(
        &self,
        ctx: Ctx<'_>,
        req: &Vec<u32>,
        out: &mut Vec<f64>,
        node: at_rtree::NodeId,
        members: &[u64],
    ) {
        if let Some(p) = ctx.store.synopsis().point(node) {
            for (t, o) in req.iter().zip(out.iter_mut()) {
                // Replace the aggregated estimate with the exact sum.
                *o -= p.info.get(*t).unwrap_or(0.0) * p.member_count as f64;
            }
        }
        for &m in members {
            let row = ctx.dataset.row(m);
            for (t, o) in req.iter().zip(out.iter_mut()) {
                *o += row.get(*t).unwrap_or(0.0);
            }
        }
    }

    fn process_exact(&self, ctx: Ctx<'_>, req: &Vec<u32>) -> Vec<f64> {
        let mut out = vec![0.0; req.len()];
        for id in ctx.dataset.ids() {
            let row = ctx.dataset.row(id);
            for (t, o) in req.iter().zip(out.iter_mut()) {
                *o += row.get(*t).unwrap_or(0.0);
            }
        }
        out
    }
}

impl ComposableService for ColumnSum {
    type Response = Vec<f64>;

    fn compose(&self, req: &Vec<u32>, parts: &[Vec<f64>]) -> Vec<f64> {
        let mut total = vec![0.0; req.len()];
        for part in parts {
            for (t, p) in total.iter_mut().zip(part) {
                *t += p;
            }
        }
        total
    }
}

/// `ColumnSum` on the **default** trait plumbing, plus one bogus
/// top-ranked stale set (infinite score, no index entry) so every policy
/// exercises skip accounting and lazy-prefix extension.
struct StaleColumnSum;

impl ApproximateService for StaleColumnSum {
    type Row = at_synopsis::SparseRow;
    type Request = Vec<u32>;
    type Output = Vec<f64>;

    fn process_synopsis(
        &self,
        ctx: Ctx<'_>,
        req: &Vec<u32>,
        corr: &mut Vec<Correlation>,
    ) -> Vec<f64> {
        let out = ColumnSum.process_synopsis(ctx, req, corr);
        corr.push(Correlation {
            node: at_rtree::NodeId::from_index(u32::MAX),
            score: f64::INFINITY,
        });
        out
    }

    fn improve(
        &self,
        ctx: Ctx<'_>,
        req: &Vec<u32>,
        out: &mut Vec<f64>,
        node: at_rtree::NodeId,
        members: &[u64],
    ) {
        ColumnSum.improve(ctx, req, out, node, members);
    }

    fn process_exact(&self, ctx: Ctx<'_>, req: &Vec<u32>) -> Vec<f64> {
        ColumnSum.process_exact(ctx, req)
    }
}

impl ComposableService for StaleColumnSum {
    type Response = Vec<f64>;

    fn compose(&self, req: &Vec<u32>, parts: &[Vec<f64>]) -> Vec<f64> {
        ColumnSum.compose(req, parts)
    }
}

/// A `ColumnSum` request whose route key is only its length: distinct
/// requests collide constantly and only `PartialEq` tells them apart.
#[derive(Clone, Debug, PartialEq)]
struct ByLen(Vec<u32>);

impl From<Vec<u32>> for ByLen {
    fn from(targets: Vec<u32>) -> Self {
        ByLen(targets)
    }
}

impl RouteKey for ByLen {
    fn route_key(&self) -> u64 {
        self.0.len() as u64
    }
}

/// `ColumnSum` (default trait plumbing) behind colliding request keys.
struct CollidingColumnSum;

impl ApproximateService for CollidingColumnSum {
    type Row = at_synopsis::SparseRow;
    type Request = ByLen;
    type Output = Vec<f64>;

    fn process_synopsis(&self, ctx: Ctx<'_>, req: &ByLen, corr: &mut Vec<Correlation>) -> Vec<f64> {
        ColumnSum.process_synopsis(ctx, &req.0, corr)
    }

    fn improve(
        &self,
        ctx: Ctx<'_>,
        req: &ByLen,
        out: &mut Vec<f64>,
        node: at_rtree::NodeId,
        members: &[u64],
    ) {
        ColumnSum.improve(ctx, &req.0, out, node, members);
    }

    fn process_exact(&self, ctx: Ctx<'_>, req: &ByLen) -> Vec<f64> {
        ColumnSum.process_exact(ctx, &req.0)
    }
}

impl ComposableService for CollidingColumnSum {
    type Response = Vec<f64>;

    fn compose(&self, req: &ByLen, parts: &[Vec<f64>]) -> Vec<f64> {
        ColumnSum.compose(&req.0, parts)
    }
}

const N_COLUMNS: u32 = 10;

fn build<S: ApproximateService + Send + Sync>(make: impl Fn() -> S + Sync) -> FanOutService<S>
where
    S::Request: Sync,
    S::Output: Send,
{
    let rows: Vec<SparseRow> = (0..130u32)
        .map(|r| {
            SparseRow::from_pairs(
                (0..N_COLUMNS)
                    .map(|c| (c, ((r * 13 + c * 7) % 9) as f64 * 0.5))
                    .collect(),
            )
        })
        .collect();
    let subsets = partition_rows(N_COLUMNS as usize, rows, 3).expect("3 components");
    let cfg = SynopsisConfig {
        svd: at_linalg::svd::SvdConfig::default().with_epochs(8),
        size_ratio: 8,
        ..SynopsisConfig::default()
    };
    FanOutService::build(subsets, AggregationMode::Mean, cfg, &make)
}

fn overridden() -> &'static FanOutService<ColumnSum> {
    static SVC: OnceLock<FanOutService<ColumnSum>> = OnceLock::new();
    SVC.get_or_init(|| build(|| ColumnSum))
}

fn defaulted() -> &'static FanOutService<StaleColumnSum> {
    static SVC: OnceLock<FanOutService<StaleColumnSum>> = OnceLock::new();
    SVC.get_or_init(|| build(|| StaleColumnSum))
}

fn colliding() -> &'static FanOutService<CollidingColumnSum> {
    static SVC: OnceLock<FanOutService<CollidingColumnSum>> = OnceLock::new();
    SVC.get_or_init(|| build(|| CollidingColumnSum))
}

/// One policy per `ExecutionPolicy` variant, with the budget/imax knobs
/// randomized and deadlines pinned to the deterministic extremes.
fn policies() -> impl Strategy<Value = ExecutionPolicy> {
    let imax = (0usize..2, 1usize..6).prop_map(|(some, m)| (some == 1).then_some(m));
    let budgeted = ((0usize..6, 0usize..2), imax).prop_map(|((sets, unbounded), imax)| {
        ExecutionPolicy::Budgeted {
            sets: if unbounded == 1 { usize::MAX } else { sets },
            imax,
        }
    });
    let deadline = (0usize..2, 1usize..6).prop_map(|(some, m)| ExecutionPolicy::Deadline {
        // Generous: far beyond what a toy batch needs; expiry is driven by
        // the per-request submission instants, not the clock during a run.
        l_spe: Duration::from_secs(120),
        imax: (some == 1).then_some(m),
    });
    prop_oneof![
        Just(ExecutionPolicy::Exact),
        Just(ExecutionPolicy::SynopsisOnly),
        budgeted,
        deadline,
    ]
}

/// A batch of requests: each a short target-column list, plus a flag for
/// "queued past the whole deadline" (submission instant in the deep past).
fn batches() -> impl Strategy<Value = Vec<(Vec<u32>, bool)>> {
    prop::collection::vec(
        (prop::collection::vec(0u32..N_COLUMNS, 1..4), 0usize..2)
            .prop_map(|(targets, expired)| (targets, expired == 1)),
        1..6,
    )
}

/// Large batches (up to the biggest micro-batch any bench drives) in the
/// two shapes the duplicate collapse sees: drawn from a small hot pool
/// (almost everything collapses) and all-unique (nothing does).
fn large_batches() -> impl Strategy<Value = Vec<(Vec<u32>, bool)>> {
    let hot_pool = (
        prop::collection::vec(prop::collection::vec(0u32..N_COLUMNS, 1..4), 1..8),
        prop::collection::vec(0usize..8, 1..=512),
    )
        .prop_map(|(pool, picks)| {
            picks
                .into_iter()
                .map(|p| pool[p % pool.len()].clone())
                .collect::<Vec<_>>()
        });
    // The base-10 digits of 0..n: n <= 512 distinct column triples.
    let all_unique = (1u32..=512).prop_map(|n| {
        (0..n)
            .map(|i| vec![i / 100, i / 10 % 10, i % 10])
            .collect::<Vec<_>>()
    });
    prop_oneof![hot_pool, all_unique]
        .prop_map(|reqs| reqs.into_iter().map(|r| (r, false)).collect())
}

/// Submission instants for a batch: 240 s ago for "queued past deadline"
/// requests (expired twice over against the 120 s deadline, a no-op for
/// every clockless policy) and now otherwise. `None` when the monotonic
/// clock is younger than the offset (fresh boot) — callers skip the case.
fn submitted_of(batch: &[(Vec<u32>, bool)]) -> Option<Vec<Instant>> {
    let now = Instant::now();
    let past = now.checked_sub(Duration::from_secs(240))?;
    Some(
        batch
            .iter()
            .map(|(_, expired)| if *expired { past } else { now })
            .collect(),
    )
}

fn assert_batch_equals_sequential<S>(
    service: &FanOutService<S>,
    batch: &[(Vec<u32>, bool)],
    policy: &ExecutionPolicy,
    label: &str,
) -> Result<(), TestCaseError>
where
    S: ComposableService<Output = Vec<f64>, Response = Vec<f64>> + Sync,
    S::Request: From<Vec<u32>> + Clone + PartialEq + RouteKey + Sync,
{
    let reqs: Vec<S::Request> = batch.iter().map(|(t, _)| t.clone().into()).collect();
    let Some(submitted) = submitted_of(batch) else {
        return Ok(());
    };
    let batched = service.serve_batch_at(&reqs, policy, &submitted);
    prop_assert_eq!(
        batched.len(),
        reqs.len(),
        "{}: one response per request",
        label
    );
    for (i, ((req, &sub), got)) in reqs.iter().zip(&submitted).zip(&batched).enumerate() {
        let want = service.serve_at(req, policy, sub);
        prop_assert_eq!(
            &got.response,
            &want.response,
            "{}: response {} under {:?}",
            label,
            i,
            policy
        );
        prop_assert_eq!(
            &got.components,
            &want.components,
            "{}: telemetry {} under {:?}",
            label,
            i,
            policy
        );
        if batch[i].1 && matches!(policy, ExecutionPolicy::Deadline { .. }) {
            prop_assert_eq!(
                got.sets_processed(),
                0,
                "{}: expired request {} must do no improvement work",
                label,
                i
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Batched == sequential for a service overriding the pooling hook
    /// (the production adapter shape).
    #[test]
    fn serve_batch_equals_mapped_serve_overridden_hooks(
        batch in batches(),
        policy in policies(),
    ) {
        assert_batch_equals_sequential(overridden(), &batch, &policy, "overridden")?;
    }

    /// Batched == sequential on the default trait plumbing, with a stale
    /// top-ranked set forcing skip accounting in every improvement loop.
    #[test]
    fn serve_batch_equals_mapped_serve_default_hooks_with_stale_set(
        batch in batches(),
        policy in policies(),
    ) {
        assert_batch_equals_sequential(defaulted(), &batch, &policy, "stale-default")?;
    }

    /// Batched == sequential on large batches, whether the duplicate
    /// collapse merges almost everything or nothing.
    #[test]
    fn serve_batch_equals_mapped_serve_on_large_batches(
        batch in large_batches(),
        policy in policies(),
    ) {
        assert_batch_equals_sequential(overridden(), &batch, &policy, "large")?;
    }

    /// ... and when distinct requests share route keys, so every collapse
    /// decision falls to `PartialEq`.
    #[test]
    fn serve_batch_equals_mapped_serve_under_colliding_route_keys(
        batch in prop_oneof![batches(), large_batches()],
        policy in policies(),
    ) {
        assert_batch_equals_sequential(colliding(), &batch, &policy, "colliding")?;
    }

    /// Pool warmth must never change results: serving the same batch again
    /// (now entirely from recycled buffers) reproduces it bit-for-bit.
    #[test]
    fn warm_pool_reproduces_cold_results(
        batch in batches(),
        policy in policies(),
    ) {
        let service = overridden();
        let reqs: Vec<Vec<u32>> = batch.iter().map(|(t, _)| t.clone()).collect();
        let Some(submitted) = submitted_of(&batch) else {
            return Ok(());
        };
        let cold = service.serve_batch_at(&reqs, &policy, &submitted);
        let warm = service.serve_batch_at(&reqs, &policy, &submitted);
        for (c, w) in cold.iter().zip(&warm) {
            prop_assert_eq!(&c.response, &w.response);
            prop_assert_eq!(&c.components, &w.components);
        }
    }
}
