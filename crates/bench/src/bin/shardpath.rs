//! Multi-worker sharded serving benchmarks → `BENCH_shard.json`.
//!
//! ```text
//! shardpath [--quick] [--out PATH]
//! ```
//!
//! Replays one zipf-skewed request mix against the recommender deployment
//! under `Budgeted{sets: 5}` through an `at_server::ShardedServer` in
//! *replicated* topology, sweeping worker count ∈ {1, 2, 4, 8} × routing
//! strategy ∈ {hash_affinity, least_loaded}. The submitter keeps a fixed
//! sliding window of in-flight tickets, so every configuration sees the
//! same offered load; latency is `ServiceResponse::elapsed` from the
//! enqueue instant (queue wait included).
//!
//! What hash-affinity routing buys beyond the box's cores is **collapse
//! locality**: it partitions the key space, so each worker's micro-batches
//! draw from `K / W` keys and hold fewer *unique* requests. The duplicate
//! collapse in `serve_batch_at` runs each synopsis/improve pass once per
//! unique, so post-collapse compute per batch shrinks even though total
//! offered load is identical.
//!
//! Least-loaded routing interleaves the stream instead, so every worker
//! sees every hot key and duplicates split across queues — it gains only
//! what extra cores give, which is the point of the contrast.
//!
//! Each entry also carries the analytic prediction from
//! `at_sim::simulate_shards` (per-unique cost calibrated from the measured
//! single-worker run) so the model can be validated against the real
//! server — `speedup_vs_1w` is measured, `model_speedup` is predicted.
//! The model counts unique work only: it has no term for the fixed cost
//! of each extra worker, so it over-predicts once workers outnumber cores
//! (`cores` is recorded in the artifact).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use at_bench::deployments::{build_recommender, DeployScale};
use at_bench::p99_latency_ms as p99_ms;
use at_core::{ExecutionPolicy, RouteKey};
use at_recommender::ActiveUser;
use at_server::{RoutingStrategy, ServerConfig, ShardConfig, ShardedServer};
use at_sim::{pick_strategy, simulate_shards, ShardSimConfig, ShardStrategy};
use at_workloads::Zipf;
use rand::{rngs::SmallRng, SeedableRng};

/// Dispatcher micro-batch cap. Large batches are what make collapse
/// locality visible: at 512 one worker's batch holds most of the hot key
/// set, a hash shard's only its own share of it.
const MAX_BATCH: usize = 512;
/// Sliding window of in-flight tickets — the fixed offered load every
/// configuration sees.
const IN_FLIGHT: usize = 4096;
/// Budgeted sets per request: enough improve work that per-unique compute
/// dominates fixed per-request overhead (enqueue + ticket fulfilment).
const SETS: usize = 5;

struct Entry {
    name: String,
    workers: usize,
    strategy: &'static str,
    throughput_rps: f64,
    p99_ms: f64,
    model_speedup: f64,
}

fn strategy_name(s: RoutingStrategy) -> &'static str {
    match s {
        RoutingStrategy::HashAffinity => "hash_affinity",
        RoutingStrategy::LeastLoaded => "least_loaded",
        RoutingStrategy::RoundRobin => "round_robin",
    }
}

fn to_sim_strategy(s: RoutingStrategy) -> ShardStrategy {
    match s {
        RoutingStrategy::HashAffinity => ShardStrategy::HashAffinity,
        RoutingStrategy::LeastLoaded => ShardStrategy::LeastLoaded,
        RoutingStrategy::RoundRobin => ShardStrategy::RoundRobin,
    }
}

/// Replay `mix` through a fresh sharded server, keeping a sliding window
/// of in-flight tickets, returning (throughput, p99 ms).
fn run_sharded(
    service: &at_core::FanOutService<at_recommender::CfService>,
    mix: &[ActiveUser],
    policy: &ExecutionPolicy,
    workers: usize,
    strategy: RoutingStrategy,
) -> (f64, f64) {
    let config = ShardConfig::default()
        .with_workers(workers)
        .with_routing(strategy)
        .with_work_stealing(true)
        .with_worker(
            ServerConfig::default()
                .with_queue_capacity(IN_FLIGHT * 2)
                .with_max_batch(MAX_BATCH),
        );
    let server = ShardedServer::replicated(service, config);
    let mut latencies = Vec::with_capacity(mix.len());
    let mut window: std::collections::VecDeque<
        at_server::Ticket<at_server::Response<at_recommender::CfService>>,
    > = std::collections::VecDeque::with_capacity(IN_FLIGHT);
    let start = Instant::now();
    for req in mix {
        if window.len() >= IN_FLIGHT {
            let ticket = window.pop_front().unwrap();
            latencies.push(ticket.wait().expect("fulfilled").elapsed);
        }
        window.push_back(server.submit(req.clone(), *policy).expect("accepting"));
    }
    for ticket in window {
        latencies.push(ticket.wait().expect("fulfilled").elapsed);
    }
    let wall = start.elapsed().as_secs_f64();
    server.shutdown();
    (mix.len() as f64 / wall, p99_ms(&mut latencies))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_shard.json".to_string());

    let n_requests = if quick { 4096 } else { 16384 };

    eprintln!("building recommender deployment...");
    // Full runs use the full-size deployment: collapse locality trades
    // per-unique compute against fixed per-request overhead (enqueue,
    // ticket fulfilment), so the effect is honest only when a unique serve
    // costs what production fan-outs cost. The mix is a zipf(1.1) draw
    // over every deployment request — duplicate-heavy traffic over a hot
    // working set is the regime sharding targets.
    let deployment = build_recommender(if quick {
        DeployScale::quick()
    } else {
        DeployScale::full()
    });
    let service = Arc::new(deployment.service);
    let policy = ExecutionPolicy::budgeted(SETS);
    let n_keys = deployment.requests.len();
    let zipf = Zipf::new(n_keys, 1.1);
    let mut rng = SmallRng::seed_from_u64(0x5A4D);
    let mix: Vec<ActiveUser> = (0..n_requests)
        .map(|_| deployment.requests[zipf.sample(&mut rng)].active.clone())
        .collect();
    let keys: Vec<u64> = mix.iter().map(|r| r.route_key()).collect();

    // Warm caches and pools before timing anything.
    for req in mix.iter().take(64) {
        std::hint::black_box(service.serve(req, &policy));
    }

    // Baseline for both the measured speedups and the model calibration:
    // one worker, hash routing (routing is a no-op at W = 1).
    let (base_thr, base_p99) =
        run_sharded(&service, &mix, &policy, 1, RoutingStrategy::HashAffinity);

    // Calibrate the analytic model's per-unique cost from the measured
    // single-worker run: its makespan is the wall time, its unique count
    // comes from replaying the key stream through the same batcher. Only
    // the cost *ratios* matter for predicted speedups.
    let sim_cfg = |workers: usize| {
        let base = simulate_shards(
            &keys,
            ShardStrategy::HashAffinity,
            &ShardSimConfig {
                workers: 1,
                cores: 1,
                max_batch: MAX_BATCH,
                ..ShardSimConfig::default()
            },
        );
        let wall_per_unique = (n_requests as f64 / base_thr)
            / (base.mean_uniques_per_batch * base.batches as f64).max(1.0);
        ShardSimConfig {
            workers,
            cores: 1,
            max_batch: MAX_BATCH,
            pass_s: wall_per_unique * 0.1,
            per_unique_s: wall_per_unique,
            per_request_s: wall_per_unique * 0.01,
            work_stealing: true,
        }
    };
    let model_base = simulate_shards(&keys, ShardStrategy::HashAffinity, &sim_cfg(1));
    let model_pick = pick_strategy(&keys, &sim_cfg(4));
    eprintln!(
        "model picks {} at 4 workers (modelled {:.0} req/s)",
        model_pick.strategy.name(),
        model_pick.throughput_rps
    );

    let mut entries = vec![Entry {
        name: "w1_hash_affinity".into(),
        workers: 1,
        strategy: "hash_affinity",
        throughput_rps: base_thr,
        p99_ms: base_p99,
        model_speedup: 1.0,
    }];

    for workers in [2usize, 4, 8] {
        for &strategy in &[RoutingStrategy::HashAffinity, RoutingStrategy::LeastLoaded] {
            let (thr, p99) = run_sharded(&service, &mix, &policy, workers, strategy);
            let model = simulate_shards(&keys, to_sim_strategy(strategy), &sim_cfg(workers));
            entries.push(Entry {
                name: format!("w{workers}_{}", strategy_name(strategy)),
                workers,
                strategy: strategy_name(strategy),
                throughput_rps: thr,
                p99_ms: p99,
                model_speedup: model_base.makespan_s / model.makespan_s.max(f64::MIN_POSITIVE),
            });
        }
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"shardpath\",\n");
    let _ = writeln!(
        json,
        "  \"scale\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"requests\": {n_requests},");
    let _ = writeln!(json, "  \"max_batch\": {},", MAX_BATCH);
    let _ = writeln!(json, "  \"in_flight\": {},", IN_FLIGHT);
    let _ = writeln!(
        json,
        "  \"model_pick_4w\": \"{}\",",
        model_pick.strategy.name()
    );
    json.push_str("  \"policy\": \"budgeted_5\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"workers\": {}, \"strategy\": \"{}\", \
             \"throughput_rps\": {:.1}, \"p99_ms\": {:.3}, \"speedup_vs_1w\": {:.3}, \
             \"model_speedup\": {:.3}}}",
            e.name,
            e.workers,
            e.strategy,
            e.throughput_rps,
            e.p99_ms,
            e.throughput_rps / base_thr,
            e.model_speedup
        );
        json.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_shard.json");
    println!("{json}");
    eprintln!("wrote {out_path}");

    for e in &entries {
        eprintln!(
            "{:<22} {:>10.0} req/s  p99 {:>9.3} ms  speedup {:>6.2}x  (model {:>5.2}x)",
            e.name,
            e.throughput_rps,
            e.p99_ms,
            e.throughput_rps / base_thr,
            e.model_speedup
        );
    }
}
