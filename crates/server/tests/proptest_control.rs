//! Property-based tests for the control plane.
//!
//! * **`NoControl` is a no-op**: for any mix of requests and clock-free
//!   policies, a server with the default controller produces responses
//!   byte-equivalent to the synchronous `serve_at` path with the same
//!   submitted instants — admission control off means *no* behavior
//!   change.
//! * **Hysteresis never oscillates**: for any valid `LadderConfig` and
//!   any constant load signal, the `LadderController`'s level sequence is
//!   monotone until it reaches a fixed point and stays there.

use std::sync::Arc;
use std::time::{Duration, Instant};

use at_core::{
    partition_rows, ApproximateService, ComposableService, Correlation, Ctx, ExecutionPolicy,
    FanOutService,
};
use at_server::{
    AdmissionController, LadderConfig, LadderController, LoadSnapshot, Server, ServerConfig,
};
use at_synopsis::{AggregationMode, SparseRow, SynopsisConfig};
use proptest::prelude::*;

/// Toy composable service: counts original rows each component processed
/// (the shape used across at-core's and at-server's own tests).
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

fn quick_service() -> FanOutService<CountService> {
    let rows: Vec<SparseRow> = (0..90u32)
        .map(|r| SparseRow::from_pairs((0..6).map(|c| (c, ((r + c) % 4) as f64)).collect()))
        .collect();
    let subsets = partition_rows(6, rows, 3).expect("3 components");
    let cfg = SynopsisConfig {
        svd: at_linalg::svd::SvdConfig::default().with_epochs(8),
        size_ratio: 10,
        ..SynopsisConfig::default()
    };
    FanOutService::build(subsets, AggregationMode::Mean, cfg, || CountService)
}

/// Decode a clock-free policy (the variants whose outcome is independent
/// of wall-clock timing, so async-vs-sync equivalence is exact).
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

proptest! {
    // Each case spins up a real server; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Acceptance: with control off (the default `NoControl`), the
    /// dispatcher's responses are byte-equivalent to the pre-control
    /// behavior — i.e. to `serve_at` with the same submitted instants —
    /// for arbitrary request/policy mixes and micro-batch sizes.
    #[test]
    fn no_control_server_is_byte_equivalent_to_serve_at(
        reqs in prop::collection::vec((0u32..6, 0u8..5), 1..48),
        max_batch_code in 0usize..4,
    ) {
        let max_batch = [1usize, 3, 16, 64][max_batch_code];
        let service = Arc::new(quick_service());
        let server = Server::new(
            service.clone(),
            ServerConfig::default()
                .with_max_batch(max_batch)
                .with_stats_window(8),
        );
        let submitted = Instant::now();
        let tickets: Vec<_> = reqs
            .iter()
            .map(|&(req, code)| {
                let policy = clock_free_policy(code);
                (req, policy, server.try_submit_at(req, policy, submitted).expect("room"))
            })
            .collect();
        for (req, policy, ticket) in tickets {
            let got = ticket.wait().expect("NoControl never sheds");
            let want = service.serve_at(&req, &policy, submitted);
            prop_assert_eq!(got.response, want.response, "{:?}", policy);
            prop_assert_eq!(got.components, want.components, "{:?}", policy);
            prop_assert_eq!(got.policy_applied, policy,
                            "NoControl must not rewrite policies");
        }
        let stats = server.shutdown();
        prop_assert_eq!(stats.shed, 0, "NoControl never sheds");
        prop_assert_eq!(stats.completed, reqs.len() as u64);
    }

    /// Satellite: for any valid hysteresis config and any *constant* load
    /// signal, the controller's level sequence is monotone to a fixed
    /// point — it never oscillates (no A→B→A with A != B).
    #[test]
    fn ladder_hysteresis_never_oscillates_on_constant_load(
        enter_wait_frac in 0.1f64..1.0,
        band in 0.0f64..1.0,
        enter_depth in 0.1f64..1.0,
        depth_band in 0.0f64..1.0,
        wait_ms in 0u64..200,
        depth in 0usize..1000,
        max_level in 1u32..8,
    ) {
        let config = LadderConfig {
            wait_budget: Duration::from_millis(100),
            enter_wait_frac,
            exit_wait_frac: enter_wait_frac * band,
            enter_depth,
            exit_depth: enter_depth * depth_band,
            step_fraction: 0.5,
            shed_level: max_level + 1,
            max_level,
        };
        let controller = LadderController::new(config);
        let snapshot = LoadSnapshot {
            queue_depth: depth,
            queue_capacity: 1000,
            sampled: 64,
            mean_queue_wait: Duration::from_millis(wait_ms),
            p99_queue_wait: Duration::from_millis(wait_ms * 2),
            mean_coverage: 0.9,
            components_total: 3,
            components_open: 0,
        };
        let mut levels = Vec::with_capacity(64);
        for _ in 0..64 {
            controller.observe(&snapshot);
            levels.push(controller.level());
        }
        let increased = levels.windows(2).any(|w| w[1] > w[0]);
        let decreased = levels.windows(2).any(|w| w[1] < w[0]);
        prop_assert!(
            !(increased && decreased),
            "level oscillated on a constant signal: {:?}",
            levels
        );
        // And the tail is a fixed point: once stable, stable forever.
        let last = *levels.last().unwrap();
        prop_assert!(
            levels.iter().rev().take(8).all(|&l| l == last),
            "no fixed point reached: {:?}",
            levels
        );
    }
}
