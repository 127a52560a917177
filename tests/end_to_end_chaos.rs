//! End-to-end chaos: seeded fault injection against the full serving
//! stack. A fault storm on one component must not stop the server — the
//! fan-out contains the dying legs, the circuit breaker turns repeated
//! failure into ~zero-cost skips, responses are composed from the
//! survivors **byte-identically** to a deployment that never had the
//! faulty component, and every ticket resolves. Faults that escape
//! containment (a panicking compose, on the dispatcher's own stack) are
//! absorbed by the supervisor: the dispatcher is respawned and queued
//! work survives.

use accuracytrader::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const COMPONENTS: usize = 3;

fn ratings() -> (usize, Vec<SparseRow>, Vec<ActiveUser>) {
    let n_users = 300;
    let n_items = 60;
    let data = RatingsDataset::generate(RatingsConfig {
        n_users,
        n_items,
        ratings_per_user: 30,
        ..RatingsConfig::small()
    });
    let matrix = accuracytrader::recommender::rating_matrix(n_users, n_items, &data.ratings);
    let rows: Vec<SparseRow> = matrix.ids().map(|id| matrix.row(id).clone()).collect();
    let mut pool = Vec::new();
    for user in 0..24u32 {
        let profile: Vec<(u32, f64)> = data
            .ratings
            .iter()
            .filter(|r| r.user == user)
            .map(|r| (r.item, r.stars))
            .collect();
        if profile.len() < 4 {
            continue;
        }
        pool.push(ActiveUser::new(
            SparseRow::from_pairs(profile),
            vec![user % 5, user % 5 + 15, user % 5 + 30],
        ));
    }
    (n_items, rows, pool)
}

fn synopsis_config() -> SynopsisConfig {
    SynopsisConfig {
        svd: SvdConfig::default().with_epochs(10),
        size_ratio: 12,
        ..SynopsisConfig::default()
    }
}

/// The chaos deployment: one fault injector per component (the synopsis
/// build is deterministic, so separately built deployments over the same
/// partition are byte-identical).
fn chaos_service(
    n_items: usize,
    rows: &[SparseRow],
    injectors: &[Arc<FaultInjector>],
) -> FanOutService<FaultyService<CfService>> {
    let subsets = partition_rows(n_items, rows.to_vec(), COMPONENTS).expect("components");
    let components = subsets
        .into_iter()
        .zip(injectors)
        .map(|(subset, inj)| {
            Component::build(
                subset,
                AggregationMode::Mean,
                synopsis_config(),
                FaultyService::new(CfService, inj.clone()),
            )
            .0
        })
        .collect();
    FanOutService::from_components(components)
}

/// The plain reference deployment, optionally without one component —
/// what "serving without the faulty component" returns.
fn plain_service(
    n_items: usize,
    rows: &[SparseRow],
    skip: Option<usize>,
) -> FanOutService<CfService> {
    let subsets = partition_rows(n_items, rows.to_vec(), COMPONENTS).expect("components");
    let components = subsets
        .into_iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != skip)
        .map(|(_, subset)| {
            Component::build(subset, AggregationMode::Mean, synopsis_config(), CfService).0
        })
        .collect();
    FanOutService::from_components(components)
}

fn transparent_injectors() -> Vec<Arc<FaultInjector>> {
    (0..COMPONENTS)
        .map(|i| Arc::new(FaultInjector::new(1000 + i as u64)))
        .collect()
}

/// A stage-1 fault storm on component 0: the server keeps serving, every
/// ticket resolves, the breaker trips, and every partial response is
/// byte-identical to a deployment that never had the faulty component.
#[test]
fn fault_storm_on_one_component_keeps_the_server_serving() {
    let (n_items, rows, pool) = ratings();
    let mut injectors = transparent_injectors();
    injectors[0] = Arc::new(FaultInjector::new(7).with_rule(FaultRule::with_probability(
        FaultSite::Stage1,
        FaultKind::Panic,
        0.6,
    )));
    let storm = injectors[0].clone();
    let chaos = Arc::new(chaos_service(n_items, &rows, &injectors));
    let survivors_ref = plain_service(n_items, &rows, Some(0));
    let full_ref = plain_service(n_items, &rows, None);

    let server = Server::new(chaos.clone(), ServerConfig::default().with_max_batch(8));
    let policy = ExecutionPolicy::budgeted(2);
    let n = 60;
    server.pause();
    let tickets: Vec<_> = (0..n)
        .map(|i| {
            let req = pool[i % pool.len()].clone();
            (req.clone(), server.try_submit(req, policy).expect("room"))
        })
        .collect();
    server.resume();

    let mut partial = 0usize;
    for (req, ticket) in tickets {
        let got = ticket
            .wait()
            .expect("contained faults never cancel tickets");
        if got.is_complete() {
            let want = full_ref.serve(&req, &policy);
            assert_eq!(got.response, want.response, "healthy rounds are exact");
        } else {
            assert_eq!(got.components_failed, vec![0], "only the stormed leg fails");
            partial += 1;
            let want = survivors_ref.serve(&req, &policy);
            assert_eq!(
                got.response, want.response,
                "survivors must be byte-identical to a deployment without the faulty component"
            );
        }
    }
    assert!(
        partial >= n / 2,
        "a 0.6 storm must fail most rounds: {partial}/{n}"
    );
    assert!(storm.injected_panics() > 0, "the storm actually fired");
    assert!(
        chaos.breakers()[0].trips() >= 1,
        "sustained failure must trip the breaker"
    );
    let stats = server.shutdown();
    assert_eq!(stats.completed, n as u64, "every ticket resolved");
    assert_eq!(
        stats.dispatcher_restarts, 0,
        "contained: dispatcher never died"
    );
    assert!(!stats.stopped);
}

/// Faults that escape containment: a compose panic kills the dispatcher
/// thread itself. The supervisor absorbs three of them — queued work
/// survives each restart, only the crashed batches' tickets cancel, and
/// the server stays fully operational afterwards.
#[test]
fn dispatcher_survives_three_compose_panics_via_supervised_restarts() {
    let (n_items, rows, pool) = ratings();
    let mut injectors = transparent_injectors();
    // Compose runs through component 0's service (the fan-out's composer):
    // its first three compose calls panic on the dispatcher's stack.
    injectors[0] = Arc::new(FaultInjector::new(11).with_rule(FaultRule::at_calls(
        FaultSite::Compose,
        FaultKind::Panic,
        vec![0, 1, 2],
    )));
    let poison = injectors[0].clone();
    let chaos = Arc::new(chaos_service(n_items, &rows, &injectors));
    let full_ref = plain_service(n_items, &rows, None);

    let server = Server::new(
        chaos,
        ServerConfig::default()
            .with_max_batch(1)
            .with_restart_backoff(Duration::from_micros(200)),
    );
    let policy = ExecutionPolicy::budgeted(2);
    server.pause();
    let tickets: Vec<_> = (0..6)
        .map(|i| {
            let req = pool[i % pool.len()].clone();
            (req.clone(), server.try_submit(req, policy).expect("room"))
        })
        .collect();
    server.resume();

    for (i, (req, ticket)) in tickets.into_iter().enumerate() {
        if i < 3 {
            assert!(
                ticket.wait().is_err(),
                "request {i} was in a crashed micro-batch: its ticket cancels"
            );
        } else {
            let got = ticket.wait().expect("queued work survives the restarts");
            let want = full_ref.serve(&req, &policy);
            assert_eq!(got.response, want.response, "post-restart rounds are exact");
        }
    }
    assert_eq!(poison.injected_panics(), 3);
    // Still serving after three dispatcher deaths.
    let req = pool[0].clone();
    let got = server
        .try_submit(req.clone(), policy)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(got.response, full_ref.serve(&req, &policy).response);
    let stats = server.shutdown();
    assert_eq!(
        stats.dispatcher_restarts, 3,
        "one supervised respawn per panic"
    );
    assert!(!stats.stopped, "the restart budget was never exhausted");
    assert_eq!(stats.completed, 4);
}

/// Forwards to a shared ladder so the test can keep a handle and read
/// the worker's overload level after shutdown.
struct SharedLadder(Arc<LadderController>);

impl AdmissionController for SharedLadder {
    fn observe(&self, snapshot: &LoadSnapshot) {
        self.0.observe(snapshot);
    }

    fn decide(&self, snapshot: &LoadSnapshot, requested: &ExecutionPolicy) -> Decision {
        self.0.decide(snapshot, requested)
    }
}

/// Hot-shard isolation: a compose-panic storm pinned to one worker of a
/// hash-routed cluster stays that worker's problem. Each worker has its
/// own dispatcher, supervisor, and ladder controller, so the sibling
/// workers lose **nothing**: zero restarts, every ticket fulfilled
/// byte-identically to the reference, policies never rewritten, ladders
/// never climbed.
#[test]
fn compose_panic_storm_on_one_worker_leaves_siblings_unaffected() {
    const WORKERS: usize = 3;
    const PANICS: u64 = 8;
    let (n_items, rows, pool) = ratings();

    // Replicas share their service's injectors, so the composer's first
    // eight calls panic on whichever worker makes them. The storm is
    // pinned to worker 0 by order: only worker-0-homed requests are
    // queued until all eight have fired, and stealing is off.
    let mut injectors = transparent_injectors();
    injectors[0] = Arc::new(FaultInjector::new(17).with_rule(FaultRule::at_calls(
        FaultSite::Compose,
        FaultKind::Panic,
        (0..PANICS).collect(),
    )));
    let storm = injectors[0].clone();
    let chaos = chaos_service(n_items, &rows, &injectors);
    let full_ref = plain_service(n_items, &rows, None);

    // One ladder per worker — hot-shard isolation is per-worker control.
    // A generous wait budget keeps healthy workers deterministically at
    // level 0 on a loaded CI box.
    let ladders: Vec<Arc<LadderController>> = (0..WORKERS)
        .map(|_| {
            Arc::new(LadderController::new(LadderConfig::for_deadline(
                Duration::from_secs(30),
            )))
        })
        .collect();
    let cluster = ShardedServer::replicated_with(
        &chaos,
        ShardConfig::default()
            .with_workers(WORKERS)
            .with_work_stealing(false)
            .with_worker(
                ServerConfig::default()
                    .with_max_batch(1)
                    .with_max_restarts(16)
                    .with_restart_backoff(Duration::from_micros(200)),
            ),
        |i| Box::new(SharedLadder(ladders[i].clone())),
    );

    let policy = ExecutionPolicy::budgeted(2);
    let mut per_home = vec![0u64; WORKERS];

    // Phase 1: the storm. Worker 0's first eight rounds die in the
    // composer while its siblings sit idle.
    let homed_on_0: Vec<_> = pool
        .iter()
        .filter(|req| cluster.home_index(req) == 0)
        .cloned()
        .collect();
    assert!(!homed_on_0.is_empty(), "some request must hash to worker 0");
    cluster.pause();
    let poisoned: Vec<_> = (0..PANICS as usize)
        .map(|i| {
            let req = homed_on_0[i % homed_on_0.len()].clone();
            per_home[0] += 1;
            cluster.submit(req, policy).expect("accepting")
        })
        .collect();
    cluster.resume();
    for ticket in poisoned {
        assert!(
            ticket.wait().is_err(),
            "worker 0's first {PANICS} rounds die in the composer"
        );
    }

    // Phase 2: the mixed stream, after the storm has passed.
    let n = 72;
    // (request, home worker, ticket)
    let tickets: Vec<_> = (0..n)
        .map(|i| {
            let req = pool[i % pool.len()].clone();
            let home = cluster.home_index(&req);
            per_home[home] += 1;
            let ticket = cluster.submit(req.clone(), policy).expect("accepting");
            (req, home, ticket)
        })
        .collect();
    assert!(
        per_home.iter().all(|&c| c > 0),
        "the mix must exercise every worker: homes {per_home:?}"
    );

    for (req, home, ticket) in tickets {
        let got = ticket
            .wait()
            .unwrap_or_else(|_| panic!("sibling/healed round (home {home}) must fulfil"));
        let want = full_ref.serve(&req, &policy);
        assert_eq!(
            got.response, want.response,
            "byte-identical to the reference"
        );
        assert_eq!(
            got.policy_applied, policy,
            "no worker's storm may degrade another worker's traffic"
        );
    }

    assert_eq!(storm.injected_panics(), PANICS, "the storm fired exactly");
    for (i, ladder) in ladders.iter().enumerate() {
        assert_eq!(ladder.level(), 0, "worker {i}'s ladder never climbed");
    }
    let stats = cluster.shutdown();
    assert_eq!(stats.requests_stolen(), 0, "stealing is off");
    for (i, w) in stats.workers.iter().enumerate() {
        assert_eq!(
            w.submitted, per_home[i],
            "hash routing sent each home its keys"
        );
        assert_eq!(w.shed, 0, "nothing shed anywhere");
        assert!(!w.stopped, "no restart budget exhausted");
        if i == 0 {
            assert_eq!(
                w.dispatcher_restarts, PANICS,
                "one supervised respawn per panic, all on the stormed worker"
            );
            assert_eq!(w.completed, per_home[0] - PANICS);
        } else {
            assert_eq!(w.dispatcher_restarts, 0, "sibling {i} never restarted");
            assert_eq!(w.completed, per_home[i], "sibling {i} fulfilled everything");
        }
    }
}

/// Breaker lifecycle end to end: trip after the failure threshold, skip
/// the broken leg at ~zero cost (no stage-1 work) while open, then heal
/// through the half-open probe once the component recovers.
#[test]
fn breaker_trips_skips_at_zero_cost_and_recovers() {
    let (n_items, rows, pool) = ratings();
    let mut injectors = transparent_injectors();
    // Panic on the first three stage-1 passes, healthy forever after.
    injectors[0] = Arc::new(FaultInjector::new(13).with_rule(FaultRule::at_calls(
        FaultSite::Stage1,
        FaultKind::Panic,
        vec![0, 1, 2],
    )));
    let flaky = injectors[0].clone();
    let chaos = Arc::new(chaos_service(n_items, &rows, &injectors));
    let full_ref = plain_service(n_items, &rows, None);

    let server = Server::new(chaos.clone(), ServerConfig::default().with_max_batch(1));
    let policy = ExecutionPolicy::budgeted(2);
    let req = pool[0].clone();

    let mut recovered_at = None;
    for round in 0..25 {
        let got = server
            .try_submit(req.clone(), policy)
            .expect("room")
            .wait()
            .expect("contained faults never cancel");
        if got.is_complete() {
            recovered_at = Some(round);
            break;
        }
        assert_eq!(got.components_failed, vec![0]);
        if round == 5 {
            // Mid-cooldown: the open breaker is visible to the control
            // plane through the load snapshot.
            let load = server.stats().load;
            assert_eq!(load.components_total, COMPONENTS);
            assert_eq!(load.components_open, 1, "the broken leg reads as open");
        }
    }
    let recovered_at = recovered_at.expect("the half-open probe must heal the breaker");
    assert!(
        recovered_at > 3,
        "trip + cooldown must precede recovery, recovered at {recovered_at}"
    );
    assert_eq!(chaos.breakers()[0].trips(), 1, "tripped exactly once");
    assert_eq!(
        flaky.calls(FaultSite::Stage1),
        4,
        "zero-cost skips: only 3 faulted passes + 1 healing probe ran stage 1"
    );
    // Healed: byte-identical to the full reference deployment again.
    let got = server
        .try_submit(req.clone(), policy)
        .unwrap()
        .wait()
        .unwrap();
    assert!(got.is_complete());
    assert_eq!(got.response, full_ref.serve(&req, &policy).response);
    let stats = server.shutdown();
    assert_eq!(stats.dispatcher_restarts, 0);
    assert!(!stats.stopped);
}
