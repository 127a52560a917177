//! Property-based tests for the sharded-serving front end.
//!
//! * **Hash affinity preserves answers**: routing a duplicate-heavy zipf
//!   stream across N replicated workers produces responses
//!   byte-equivalent to the single-worker batched path — i.e.
//!   to `serve_at` with the same submitted instant — under clock-free
//!   policies. Placement must never change *what* a request answers.
//! * **Delivery is exactly-once**: across worker panics and supervised
//!   restarts, every submitted ticket resolves exactly once — either
//!   with its own request's correct answer or with a cancellation error
//!   — and the cluster's counters conserve (nothing is double-delivered,
//!   nothing vanishes).

use std::time::Instant;

use at_core::{
    partition_rows, ApproximateService, ComposableService, Correlation, Ctx, ExecutionPolicy,
    FanOutService,
};
use at_server::{ServerConfig, ShardConfig, ShardedServer};
use at_synopsis::{AggregationMode, SparseRow, SynopsisConfig};
use proptest::prelude::*;

/// Toy composable service: counts original rows each component processed
/// (the shape used across at-core's and at-server's own tests).
#[derive(Clone)]
struct CountService;

impl ApproximateService for CountService {
    type Row = at_synopsis::SparseRow;
    type Request = u32;
    type Output = usize;

    fn process_synopsis(&self, ctx: Ctx<'_>, r: &u32, corr: &mut Vec<Correlation>) -> usize {
        corr.extend(ctx.store.synopsis().iter().map(|p| Correlation {
            node: p.node,
            score: p.member_count as f64 + (*r % 3) as f64,
        }));
        0
    }

    fn improve(
        &self,
        _ctx: Ctx<'_>,
        _r: &u32,
        out: &mut usize,
        _node: at_rtree::NodeId,
        members: &[u64],
    ) {
        *out += members.len();
    }

    fn process_exact(&self, ctx: Ctx<'_>, _r: &u32) -> usize {
        ctx.dataset.len()
    }
}

impl ComposableService for CountService {
    type Response = usize;

    fn compose(&self, r: &u32, parts: &[usize]) -> usize {
        parts.iter().sum::<usize>() + *r as usize
    }
}

/// Like [`CountService`] but the composer panics on the poison request —
/// the crash arrives *after* sub-operations succeed, which is the worst
/// spot for a thief: the stolen batch dies mid-flight on foreign data.
#[derive(Clone)]
struct PoisonCompose;

const POISON: u32 = 666;

impl ApproximateService for PoisonCompose {
    type Row = at_synopsis::SparseRow;
    type Request = u32;
    type Output = usize;

    fn process_synopsis(&self, _ctx: Ctx<'_>, _r: &u32, _corr: &mut Vec<Correlation>) -> usize {
        0
    }

    fn improve(
        &self,
        _ctx: Ctx<'_>,
        _r: &u32,
        out: &mut usize,
        _node: at_rtree::NodeId,
        members: &[u64],
    ) {
        *out += members.len();
    }

    fn process_exact(&self, ctx: Ctx<'_>, _r: &u32) -> usize {
        ctx.dataset.len()
    }
}

impl ComposableService for PoisonCompose {
    type Response = usize;

    fn compose(&self, r: &u32, parts: &[usize]) -> usize {
        assert!(*r != POISON, "poison request reached the composer");
        parts.iter().sum::<usize>() + *r as usize
    }
}

fn quick_service<S>(make: impl Fn() -> S + Sync) -> FanOutService<S>
where
    S: ComposableService + Send + Sync,
    S::Request: Sync,
    S::Output: Send,
{
    let rows: Vec<SparseRow> = (0..90u32)
        .map(|r| SparseRow::from_pairs((0..6).map(|c| (c, ((r + c) % 4) as f64)).collect()))
        .collect();
    let subsets = partition_rows(6, rows, 3).expect("3 components");
    let cfg = SynopsisConfig {
        svd: at_linalg::svd::SvdConfig::default().with_epochs(8),
        size_ratio: 10,
        ..SynopsisConfig::default()
    };
    FanOutService::build(subsets, AggregationMode::Mean, cfg, make)
}

/// Decode a clock-free policy (outcome independent of wall-clock timing,
/// so sharded-vs-single-worker equivalence is exact).
fn clock_free_policy(code: u8) -> ExecutionPolicy {
    match code % 5 {
        0 => ExecutionPolicy::Exact,
        1 => ExecutionPolicy::SynopsisOnly,
        2 => ExecutionPolicy::budgeted(1),
        3 => ExecutionPolicy::budgeted(usize::MAX),
        _ => ExecutionPolicy::Budgeted {
            sets: 3,
            imax: Some(2),
        },
    }
}

/// Decode a zipf-ish duplicate-heavy request value: low codes collapse
/// onto a handful of hot keys, high codes spread over a cold tail.
fn zipf_request(code: u16) -> u32 {
    match code % 16 {
        0..=7 => 1,                 // hottest key: half the stream
        8..=11 => 2,                // second key: a quarter
        12 | 13 => 3,               // warm
        _ => 4 + (code % 5) as u32, // cold tail
    }
}

proptest! {
    // Each case spins up a real multi-worker cluster; keep counts low.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Routing a duplicate-heavy stream by hash affinity across any
    /// worker count answers every request exactly as the single-worker
    /// batched path does.
    #[test]
    fn hash_affinity_is_byte_equivalent_to_single_worker(
        codes in prop::collection::vec((0u16..64, 0u8..5), 1..48),
        workers in 1usize..5,
        max_batch_code in 0usize..3,
    ) {
        let max_batch = [1usize, 3, 16][max_batch_code];
        let service = quick_service(|| CountService);
        let single = quick_service(|| CountService);
        let cluster = ShardedServer::replicated(
            &service,
            ShardConfig::default()
                .with_workers(workers)
                .with_worker(
                    ServerConfig::default()
                        .with_max_batch(max_batch)
                        .with_queue_capacity(64),
                ),
        );
        let submitted = Instant::now();
        let tickets: Vec<_> = codes
            .iter()
            .map(|&(code, pcode)| {
                let req = zipf_request(code);
                let policy = clock_free_policy(pcode);
                (req, policy, cluster.try_submit_at(req, policy, submitted).expect("room"))
            })
            .collect();
        for (req, policy, ticket) in tickets {
            let got = ticket.wait().expect("no panics, no shedding");
            let want = single.serve_at(&req, &policy, submitted);
            prop_assert_eq!(got.response, want.response, "req {} {:?}", req, policy);
            prop_assert_eq!(got.components, want.components, "req {} {:?}", req, policy);
            prop_assert_eq!(got.policy_applied, policy, "placement must not rewrite policies");
        }
        let stats = cluster.shutdown();
        prop_assert_eq!(stats.completed(), codes.len() as u64);
        prop_assert_eq!(stats.shed(), 0u64);
    }

    /// Poison requests crash dispatchers (in the composer, after the
    /// fan-out succeeded) on several workers at once while supervisors
    /// restart them. Whatever interleaving results,
    /// every ticket resolves exactly once: an `Ok` carries its *own*
    /// request's answer, an `Err` is a cancelled batch — and the counters
    /// conserve.
    #[test]
    fn panic_storm_across_workers_delivers_every_ticket_exactly_once(
        codes in prop::collection::vec(0u16..64, 4..48),
        poison_stride in 3usize..8,
        workers in 2usize..5,
    ) {
        let service = quick_service(|| PoisonCompose);
        let expect_rows = 90usize; // 3 components × 30 rows, all processed
        let cluster = ShardedServer::replicated(
            &service,
            ShardConfig::default()
                .with_workers(workers)
                .with_worker(
                    ServerConfig::default()
                        .with_max_batch(3)
                        .with_queue_capacity(64)
                        .with_max_restarts(64),
                ),
        );
        // Stage the whole stream while paused so queues are deep and
        // uneven when dispatching starts, and crashes on different
        // workers overlap.
        cluster.pause();
        let submitted = Instant::now();
        let policy = ExecutionPolicy::Exact;
        let reqs: Vec<u32> = codes
            .iter()
            .enumerate()
            .map(|(i, &code)| {
                if i % poison_stride == 0 { POISON } else { zipf_request(code) }
            })
            .collect();
        let tickets: Vec<_> = reqs
            .iter()
            .map(|&req| {
                (req, cluster.try_submit_at(req, policy, submitted).expect("room"))
            })
            .collect();
        cluster.resume();

        let mut ok = 0u64;
        let mut cancelled = 0u64;
        for (req, ticket) in tickets {
            // Every ticket must resolve (the regression-tested supervisor
            // wakeups guarantee no submitter or waiter hangs).
            match ticket.wait() {
                Ok(resp) => {
                    prop_assert!(req != POISON, "poison batches always die");
                    prop_assert_eq!(
                        resp.response,
                        expect_rows + req as usize,
                        "a ticket must carry its own request's answer"
                    );
                    ok += 1;
                }
                Err(_) => cancelled += 1,
            }
        }
        prop_assert_eq!(ok + cancelled, reqs.len() as u64, "exactly-once: no ticket dropped");

        let stats = cluster.shutdown();
        // Completions counted by workers are exactly the fulfilled
        // tickets: summing over workers double-counts nothing and loses
        // nothing.
        prop_assert_eq!(stats.completed(), ok);
        prop_assert_eq!(stats.submitted(), reqs.len() as u64);
        prop_assert_eq!(stats.shed(), 0u64);
    }
}
