//! Property-based chaos: the serving stack under *arbitrary* seeded
//! fault schedules.
//!
//! * **Liveness**: for any schedule (any mix of errors, panics, stalls,
//!   and score corruption at any site on any component) and any request
//!   mix, every submitted ticket resolves exactly once — fulfilled or
//!   canceled, never hung — and the server shuts down cleanly. Faults
//!   may degrade answers; they may not wedge the pipeline.
//! * **Fault-free transparency**: a deployment wrapped in
//!   [`FaultyService`] with transparent injectors (any seeds, no rules)
//!   is byte-equivalent to the synchronous `serve_at` path on a bare
//!   deployment — the chaos harness itself costs nothing observable.

use std::sync::Arc;
use std::time::{Duration, Instant};

use at_core::{
    partition_rows, ApproximateService, Component, ComposableService, Correlation, Ctx,
    ExecutionPolicy, FanOutService, FaultInjector, FaultKind, FaultRule, FaultSite, FaultyService,
};
use at_server::{Server, ServerConfig};
use at_synopsis::{AggregationMode, RowStore, SparseRow, SynopsisConfig};
use proptest::prelude::*;

const COMPONENTS: usize = 3;

/// Toy composable service (the shape used across at-server's tests).
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

fn subsets() -> Vec<RowStore> {
    let rows: Vec<SparseRow> = (0..90u32)
        .map(|r| SparseRow::from_pairs((0..6).map(|c| (c, ((r + c) % 4) as f64)).collect()))
        .collect();
    partition_rows(6, rows, COMPONENTS).expect("3 components")
}

fn synopsis_config() -> SynopsisConfig {
    SynopsisConfig {
        svd: at_linalg::svd::SvdConfig::default().with_epochs(8),
        size_ratio: 10,
        ..SynopsisConfig::default()
    }
}

fn faulty_service(injectors: &[Arc<FaultInjector>]) -> FanOutService<FaultyService<CountService>> {
    let components = subsets()
        .into_iter()
        .zip(injectors)
        .map(|(subset, inj)| {
            Component::build(
                subset,
                AggregationMode::Mean,
                synopsis_config(),
                FaultyService::new(CountService, inj.clone()),
            )
            .0
        })
        .collect();
    FanOutService::from_components(components)
}

fn bare_service() -> FanOutService<CountService> {
    FanOutService::build(subsets(), AggregationMode::Mean, synopsis_config(), || {
        CountService
    })
}

fn clock_free_policy(code: u8) -> ExecutionPolicy {
    match code % 4 {
        0 => ExecutionPolicy::Exact,
        1 => ExecutionPolicy::SynopsisOnly,
        2 => ExecutionPolicy::budgeted(1),
        _ => ExecutionPolicy::budgeted(3),
    }
}

fn decode_site(code: u8) -> FaultSite {
    match code % 3 {
        0 => FaultSite::Stage1,
        1 => FaultSite::Stage2,
        _ => FaultSite::Compose,
    }
}

fn decode_kind(code: u8) -> FaultKind {
    match code % 4 {
        0 => FaultKind::Error,
        1 => FaultKind::Panic,
        2 => FaultKind::Stall(Duration::from_micros(50)),
        _ => FaultKind::CorruptScores,
    }
}

/// One component's schedule: up to two rules of arbitrary site/kind,
/// firing on arbitrary call ordinals.
fn schedule_strategy() -> impl Strategy<Value = Vec<(u8, u8, Vec<u64>)>> {
    prop::collection::vec(
        (0u8..3, 0u8..4, prop::collection::vec(0u64..48, 0..5)),
        0..3,
    )
}

proptest! {
    // Each case spins up a real server and real synopses; keep it small.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Liveness under arbitrary fault schedules: every ticket resolves
    /// (fulfilled or canceled), failed-component sets are well-formed,
    /// and shutdown completes. Panics at the compose site crash the
    /// dispatcher on purpose — supervised restarts (or, for a hard crash
    /// loop, the terminal stop) must still resolve every ticket.
    #[test]
    fn every_ticket_resolves_under_any_fault_schedule(
        seed in 0u64..1_000_000,
        schedules in prop::collection::vec(schedule_strategy(), COMPONENTS..=COMPONENTS),
        reqs in prop::collection::vec((0u32..6, 0u8..4), 1..24),
        max_batch_code in 0usize..3,
    ) {
        let injectors: Vec<Arc<FaultInjector>> = schedules
            .iter()
            .enumerate()
            .map(|(i, rules)| {
                let mut inj = FaultInjector::new(seed.wrapping_add(i as u64));
                for &(site, kind, ref at) in rules {
                    inj = inj.with_rule(FaultRule::at_calls(
                        decode_site(site),
                        decode_kind(kind),
                        at.clone(),
                    ));
                }
                Arc::new(inj)
            })
            .collect();
        let service = Arc::new(faulty_service(&injectors));
        let server = Server::new(
            service,
            ServerConfig::default()
                .with_max_batch([1usize, 4, 16][max_batch_code])
                .with_restart_backoff(Duration::from_micros(100)),
        );
        server.pause();
        let tickets: Vec<_> = reqs
            .iter()
            .map(|&(req, code)| server.try_submit(req, clock_free_policy(code)).expect("room"))
            .collect();
        server.resume();
        let mut fulfilled = 0u64;
        for ticket in tickets {
            // The property under test: this never hangs.
            if let Ok(got) = ticket.wait() {
                fulfilled += 1;
                prop_assert!(got.components_failed.iter().all(|&c| c < COMPONENTS));
                prop_assert!(
                    got.components_failed.windows(2).all(|w| w[0] < w[1]),
                    "failed set must be sorted and duplicate-free: {:?}",
                    got.components_failed
                );
            }
        }
        let stats = server.shutdown();
        prop_assert_eq!(stats.completed, fulfilled, "completed == fulfilled tickets");
    }

    /// Fault-free transparency: transparent injectors (no rules, any
    /// seeds) leave the async path byte-equivalent to the synchronous
    /// `serve_at` path on a bare deployment.
    #[test]
    fn transparent_injectors_serve_byte_identically(
        seeds in prop::collection::vec(0u64..1_000_000, COMPONENTS..=COMPONENTS),
        reqs in prop::collection::vec((0u32..6, 0u8..4), 1..24),
    ) {
        let injectors: Vec<Arc<FaultInjector>> = seeds
            .iter()
            .map(|&s| Arc::new(FaultInjector::new(s)))
            .collect();
        let service = Arc::new(faulty_service(&injectors));
        let reference = bare_service();
        let server = Server::new(service, ServerConfig::default().with_max_batch(8));
        let submitted = Instant::now();
        let tickets: Vec<_> = reqs
            .iter()
            .map(|&(req, code)| {
                let policy = clock_free_policy(code);
                (req, policy, server.try_submit_at(req, policy, submitted).expect("room"))
            })
            .collect();
        for (req, policy, ticket) in tickets {
            let got = ticket.wait().expect("no faults, no cancellations");
            let want = reference.serve_at(&req, &policy, submitted);
            prop_assert_eq!(got.response, want.response, "{:?}", policy);
            prop_assert_eq!(got.components, want.components, "{:?}", policy);
            prop_assert!(got.components_failed.is_empty());
        }
        for inj in &injectors {
            prop_assert!(inj.is_transparent());
            prop_assert_eq!(inj.injected_total(), 0);
        }
        let stats = server.shutdown();
        prop_assert_eq!(stats.completed, reqs.len() as u64);
        prop_assert_eq!(stats.dispatcher_restarts, 0);
    }
}
