//! End-to-end multi-worker serving: a replicated `ShardedServer` over the
//! real recommender deployment answers a duplicate-heavy mix
//! byte-identically to the single-service reference, aggregates
//! per-worker telemetry into a coherent cluster view, and fails over from
//! a dead worker.

use accuracytrader::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn plain_service(n_items: usize, rows: &[SparseRow]) -> FanOutService<CfService> {
    let subsets = partition_rows(n_items, rows.to_vec(), COMPONENTS).expect("components");
    FanOutService::build(subsets, AggregationMode::Mean, synopsis_config(), || {
        CfService
    })
}

/// A faulty deployment whose replicas share one injector per component:
/// `FanOutService::replica` clones the `FaultyService`, which clones the
/// `Arc<FaultInjector>` — so a replicated cluster draws fault events from
/// a single global call sequence, and `at_calls(_, _, vec![0])` fires on
/// exactly one replica: whichever composes first.
fn faulty_service(
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

/// A duplicate-heavy zipf-ish mix over the request pool: half the stream
/// is the hottest user, a quarter the next, the rest a cold tail.
fn zipf_mix(pool: &[ActiveUser], n: usize) -> Vec<ActiveUser> {
    (0..n)
        .map(|i| {
            let slot = match i % 16 {
                0..=7 => 0,
                8..=11 => 1,
                12 | 13 => 2,
                _ => 3 + i % 7,
            };
            pool[slot % pool.len()].clone()
        })
        .collect()
}

/// The replicated cluster answers every request of a duplicate-heavy mix
/// byte-identically to the single-service reference under every
/// clock-free policy, and the aggregated cluster view is coherent:
/// totals conserve and hash routing spreads the keys over the workers.
#[test]
fn replicated_cluster_matches_reference_and_aggregates() {
    const WORKERS: usize = 3;
    let (n_items, rows, pool) = ratings();
    let service = plain_service(n_items, &rows);
    let reference = plain_service(n_items, &rows);
    let cluster = ShardedServer::replicated(
        &service,
        ShardConfig::default()
            .with_workers(WORKERS)
            .with_worker(ServerConfig::default().with_max_batch(8)),
    );

    let mix = zipf_mix(&pool, 64);
    let policies = [
        ExecutionPolicy::SynopsisOnly,
        ExecutionPolicy::budgeted(2),
        ExecutionPolicy::Exact,
    ];
    let submitted = Instant::now();
    let mut homes_hit = [false; WORKERS];
    let tickets: Vec<_> = mix
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let policy = policies[i % policies.len()];
            homes_hit[cluster.home_index(req)] = true;
            let ticket = cluster
                .try_submit_at(req.clone(), policy, submitted)
                .expect("room");
            (req.clone(), policy, ticket)
        })
        .collect();
    assert!(
        homes_hit.iter().all(|&hit| hit),
        "the mix must exercise every worker"
    );

    for (req, policy, ticket) in tickets {
        let got = ticket.wait().expect("healthy cluster fulfils everything");
        let want = reference.serve_at(&req, &policy, submitted);
        assert_eq!(got.response, want.response, "byte-identical responses");
        assert_eq!(got.components, want.components, "telemetry matches too");
        assert_eq!(got.policy_applied, policy, "no degradation without load");
    }

    let stats = cluster.shutdown();
    assert_eq!(stats.submitted(), mix.len() as u64);
    assert_eq!(stats.completed(), mix.len() as u64);
    assert_eq!(stats.shed(), 0);
    assert_eq!(stats.rejected(), 0);
    assert_eq!(stats.in_flight(), 0);
    let per_worker: u64 = stats.workers.iter().map(|w| w.submitted).sum();
    assert_eq!(per_worker, mix.len() as u64, "worker totals conserve");
    assert!(
        stats.workers.iter().filter(|w| w.submitted > 0).count() >= 2,
        "hash routing spreads a multi-key mix over workers"
    );
}

/// Failover end to end: one replica's composer panics with no restart
/// budget, so its worker terminally stops. The cluster keeps accepting
/// the dead worker's keys — placement spills them to a live sibling —
/// and answers them byte-identically, because replicas serve the same
/// data.
#[test]
fn dead_worker_fails_over_to_live_siblings() {
    const WORKERS: usize = 3;
    let (n_items, rows, pool) = ratings();
    let mut injectors: Vec<Arc<FaultInjector>> = (0..COMPONENTS)
        .map(|i| Arc::new(FaultInjector::new(2000 + i as u64)))
        .collect();
    // The very first compose call across the whole cluster panics; with
    // a zero restart budget that worker stops for good.
    injectors[0] = Arc::new(FaultInjector::new(23).with_rule(FaultRule::at_calls(
        FaultSite::Compose,
        FaultKind::Panic,
        vec![0],
    )));
    let service = faulty_service(n_items, &rows, &injectors);
    let reference = plain_service(n_items, &rows);
    // Stealing off: an idle sibling could otherwise poach the poisoned
    // request and die in the home worker's stead — the death must land
    // deterministically on `home_index(first)` for the assertions below.
    let cluster = ShardedServer::replicated(
        &service,
        ShardConfig::default()
            .with_workers(WORKERS)
            .with_work_stealing(false)
            .with_worker(
                ServerConfig::default()
                    .with_max_batch(1)
                    .with_max_restarts(0),
            ),
    );

    let policy = ExecutionPolicy::budgeted(2);
    let first = pool[0].clone();
    let dead = cluster.home_index(&first);
    let ticket = cluster.submit(first.clone(), policy).expect("accepting");
    assert!(
        ticket.wait().is_err(),
        "the poisoned compose cancels its own ticket"
    );
    // The supervisor marks the worker stopped after cancelling the
    // batch; wait for that (bounded) before testing placement.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cluster.worker(dead).expect("home exists").is_stopped() {
        assert!(Instant::now() < deadline, "worker must stop terminally");
        std::thread::yield_now();
    }

    // Every key — including the dead worker's — is still served, and
    // identically to the reference: replicas hold the same data.
    for req in zipf_mix(&pool, 32) {
        let got = cluster
            .submit(req.clone(), policy)
            .expect("failover accepts the dead worker's keys")
            .wait()
            .expect("live siblings fulfil");
        assert_eq!(got.response, reference.serve(&req, &policy).response);
    }

    let stats = cluster.shutdown();
    assert_eq!(stats.workers_stopped(), 1, "exactly one worker died");
    assert!(stats.workers[dead].stopped);
    assert_eq!(
        stats.workers[dead].completed, 0,
        "the dead worker only ever saw the poisoned round"
    );
    assert_eq!(stats.completed(), 32, "every failover round fulfilled");
}
