//! The two serving sweeps the frozen `benchmark/` does not run →
//! `BENCH_overload.json`, `BENCH_shard.json`.
//!
//! ```text
//! sweep overload|shard [--quick] [--out PATH]
//! ```
//!
//! Both replay one zipf(1.1) mix over every request of the recommender
//! deployment (`DeployScale::full()`, or `quick()` under `--quick`; the
//! artifact's `scale` names the one built) — duplicate-heavy traffic over
//! a hot working set. See [`overload`] and [`shard`] for what each sweeps.
//! Each prints its entries as a table and writes them to the artifact.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use at_bench::artifact::{self, Cli, Fields};
use at_bench::deployments::build_recommender;
use at_bench::Table;
use at_core::{ExecutionPolicy, FanOutService};
use at_recommender::{ActiveUser, CfService};
use at_server::{
    LadderConfig, LadderController, NoControl, Server, ServerConfig, ShardConfig, ShardedServer,
};
use at_workloads::{arrival_delays, poisson_arrivals, DiurnalPattern, Zipf};
use rand::{rngs::SmallRng, SeedableRng};

type Service = FanOutService<CfService>;

fn main() {
    let cli = Cli::parse();
    let which = cli.words.first().map_or("", String::as_str);
    let (default_out, seed, n_mix) = match which {
        "overload" => ("BENCH_overload.json", 0x0AD5, 4096),
        "shard" => ("BENCH_shard.json", 0x5A4D, 16384),
        _ => {
            eprintln!("usage: sweep overload|shard [--quick] [--out PATH]");
            std::process::exit(2);
        }
    };
    let n_mix = if cli.quick { n_mix / 4 } else { n_mix };

    eprintln!("building recommender deployment...");
    let scale = cli.deploy_scale();
    let deployment = build_recommender(scale);
    let zipf = Zipf::new(deployment.requests.len(), 1.1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mix: Vec<ActiveUser> = (0..n_mix)
        .map(|_| deployment.requests[zipf.sample(&mut rng)].active.clone())
        .collect();
    let service = Arc::new(deployment.service);

    let mut fields = artifact::open(which, &cli, &scale);
    match which {
        "overload" => overload(cli.quick, &service, &mix, &mut fields),
        _ => shard(&service, &mix, &mut fields),
    }
    artifact::write(cli.out.as_deref().unwrap_or(default_out), &fields);
}

/// Nearest-rank p99 of a latency sample, in milliseconds. Sorts in place;
/// `0.0` for an empty sample.
fn p99_ms(latencies: &mut [Duration]) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_unstable();
    let idx = ((latencies.len() as f64 * 0.99).ceil() as usize).clamp(1, latencies.len()) - 1;
    latencies[idx].as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------
// overload: none-vs-ladder × trough / shoulder / peak
// ---------------------------------------------------------------------

/// One (load level × controller) run's measurements.
struct LevelRun {
    p99_ms: f64,
    miss_rate: f64,
    mean_coverage: f64,
    shed_rate: f64,
}

/// Replays the diurnal pattern's trough / shoulder / peak as three
/// open-loop load levels under the paper's `Deadline` policy, each level
/// twice: once with `NoControl` and once with a `LadderController`
/// protecting the deadline. Per run:
///
/// * `p99_ms` — p99 response latency (queue wait included) over served
///   requests;
/// * `miss_rate` — share of served requests whose total latency exceeded
///   `l_spe` (the paper's deadline-miss metric);
/// * `mean_coverage` — mean per-request coverage of ranked sets, the
///   accuracy the latency was traded against;
/// * `shed_rate` — share of requests dropped by admission control (always
///   0 under `NoControl`).
///
/// Load levels are calibrated against the deployment's own measured
/// full-work service rate, so "peak" (4×) overloads the dispatcher on any
/// machine: under `NoControl` every deadline request burns its remaining
/// `l_spe` improving while the backlog's queue wait blows the deadline for
/// everyone behind it; the ladder degrades the newest traffic instead
/// (`Deadline` → `Budgeted` → `SynopsisOnly`).
fn overload(quick: bool, service: &Arc<Service>, mix: &[ActiveUser], fields: &mut Fields) {
    // l_spe scaled to the measured full-work service time so queueing is
    // what decides misses, clamped to a realistic band.
    let probe = ExecutionPolicy::deadline(Duration::from_millis(100));
    for req in mix.iter().take(32) {
        std::hint::black_box(service.serve(req, &probe)); // warm pools
    }
    let start = Instant::now();
    for req in mix.iter().take(192) {
        std::hint::black_box(service.serve(req, &probe));
    }
    let full_rps = 192.0 / start.elapsed().as_secs_f64().max(1e-9);
    let service_time = Duration::from_secs_f64(1.0 / full_rps.max(1.0));
    let l_spe = (8 * service_time).clamp(Duration::from_millis(2), Duration::from_millis(100));
    eprintln!(
        "calibrated: {full_rps:.0} req/s sequential full-work, l_spe {:.2} ms",
        l_spe.as_secs_f64() * 1e3
    );

    let diurnal = DiurnalPattern::sogou_like(4.0 * full_rps);
    let (n_requests, max_level_secs) = if quick { (4096, 1.5) } else { (16384, 4.0) };
    // Degrade whole rounds per level: deadline work cannot collapse
    // duplicates, so a half-degraded round is still throughput-bound by
    // its full-price half — all-or-nothing rungs reach the sustainable
    // operating point in one step.
    let ladder = LadderConfig {
        step_fraction: 1.0,
        ..LadderConfig::for_deadline(l_spe)
    };

    let mut runs = Vec::new();
    for (level, hour) in [("trough", 4), ("shoulder", 16), ("peak", 22)] {
        let rate = diurnal.hourly_rate(hour).max(1.0);
        // Cap per-level replay time; overload shows within a few windows.
        let n = n_requests.min((rate * max_level_secs) as usize).max(256);
        for (controller, cfg) in [("none", None), ("ladder", Some(ladder))] {
            runs.push((
                level,
                controller,
                rate,
                run_level(service, mix, l_spe, rate, n, cfg),
            ));
        }
    }
    let each = |f: fn(&LevelRun) -> f64| runs.iter().map(move |r| f(&r.3));
    let entries = Table::new("entries", "overload: NoControl vs ladder per load level")
        .col("level", 0, runs.iter().map(|r| r.0))
        .col("controller", 0, runs.iter().map(|r| r.1))
        .col("offered_rps", 1, runs.iter().map(|r| r.2))
        .col("offered_x", 2, runs.iter().map(|r| r.2 / full_rps))
        .col("p99_ms", 3, each(|e| e.p99_ms))
        .col("miss_rate", 4, each(|e| e.miss_rate))
        .col("mean_coverage", 4, each(|e| e.mean_coverage))
        .col("shed_rate", 4, each(|e| e.shed_rate));
    println!("{entries}");

    fields.push(("l_spe_ms", format!("{:.3}", l_spe.as_secs_f64() * 1e3)));
    fields.push(("calibrated_full_rps", format!("{full_rps:.1}")));
    fields.push((entries.key, entries.to_json()));
    let [.., (.., peak_none), (.., peak_ladder)] = &runs[..] else {
        unreachable!("peak is swept last, none before ladder");
    };
    fields.push((
        "summary",
        format!(
            "{{\"peak_miss_rate_none\": {:.4}, \"peak_miss_rate_ladder\": {:.4}, \
             \"ladder_cuts_peak_miss_rate\": {}, \"peak_coverage_ladder\": {:.4}, \
             \"coverage_above_synopsis_floor\": {}}}",
            peak_none.miss_rate,
            peak_ladder.miss_rate,
            peak_ladder.miss_rate < peak_none.miss_rate,
            peak_ladder.mean_coverage,
            peak_ladder.mean_coverage > 0.0
        ),
    ));
}

/// Replay `mix` open-loop at `rate` req/s (a Poisson trace in real time)
/// through a fresh server under `Deadline{l_spe}` with the given ladder,
/// or `NoControl`.
fn run_level(
    service: &Arc<Service>,
    mix: &[ActiveUser],
    l_spe: Duration,
    rate: f64,
    n_requests: usize,
    ladder: Option<LadderConfig>,
) -> LevelRun {
    let config = ServerConfig::default()
        .with_queue_capacity(1 << 16)
        .with_max_batch(64)
        .with_stats_window(256);
    let server = match ladder {
        Some(cfg) => Server::with_controller(service.clone(), config, LadderController::new(cfg)),
        None => Server::with_controller(service.clone(), config, NoControl),
    };
    let arrivals = poisson_arrivals(rate, n_requests as f64 / rate, 0x0D1E);
    let delays = arrival_delays(&arrivals, 1.0);
    let n = delays.len().min(n_requests);
    let policy = ExecutionPolicy::deadline(l_spe);
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(n);
    for (i, delay) in delays.iter().take(n).enumerate() {
        if let Some(remaining) = delay.checked_sub(start.elapsed()) {
            std::thread::sleep(remaining);
        }
        let req = mix[i % mix.len()].clone();
        tickets.push(
            server
                .try_submit(req, policy)
                .expect("queue sized for peak"),
        );
    }
    let mut latencies = Vec::with_capacity(n);
    let mut coverage_sum = 0.0f64;
    for ticket in tickets {
        // A shed ticket reports `Canceled`.
        if let Ok(resp) = ticket.wait() {
            latencies.push(resp.elapsed);
            coverage_sum += resp.mean_coverage();
        }
    }
    server.shutdown();
    let served = latencies.len();
    let missed = latencies.iter().filter(|&&l| l > l_spe).count();
    LevelRun {
        p99_ms: p99_ms(&mut latencies),
        miss_rate: if served == 0 {
            1.0
        } else {
            missed as f64 / served as f64
        },
        mean_coverage: coverage_sum / served.max(1) as f64,
        shed_rate: (n - served) as f64 / n as f64,
    }
}

// ---------------------------------------------------------------------
// shard: workers {1, 2, 4, 8}
// ---------------------------------------------------------------------

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

/// Replays the mix under `Budgeted{sets: 5}` through a hash-affinity
/// `ShardedServer`, sweeping the worker count. The submitter keeps a
/// fixed sliding window of in-flight tickets, so every configuration
/// sees the same offered load; latency is `ServiceResponse::elapsed`
/// from the enqueue instant.
///
/// What hash affinity buys beyond the box's cores is **collapse
/// locality**: it partitions the key space, so each worker's micro-batches
/// draw from `K / W` keys and hold fewer *unique* requests, and the
/// duplicate collapse in `serve_batch_at` runs each pass once per unique.
/// On a zipf mix that leaves hot and cold workers, and each worker serves
/// exactly the requests hashed to it. The effect is honest only when a
/// unique serve costs what production fan-outs cost, hence the full-size
/// deployment.
fn shard(service: &Service, mix: &[ActiveUser], fields: &mut Fields) {
    let policy = ExecutionPolicy::budgeted(SETS);
    for req in mix.iter().take(64) {
        std::hint::black_box(service.serve(req, &policy)); // warm pools
    }

    let workers = [1usize, 2, 4, 8];
    let runs = workers.map(|w| run_sharded(service, mix, &policy, w));
    let speedup = |r: &ShardRun| r.throughput_rps / runs[0].throughput_rps;
    let entries = Table::new(
        "entries",
        "shard: throughput per hash-affinity worker count",
    )
    .col("name", 0, ["w1", "w2", "w4", "w8"])
    .col("workers", 0, workers)
    .col("throughput_rps", 1, runs.iter().map(|r| r.throughput_rps))
    .col("p99_ms", 3, runs.iter().map(|r| r.p99_ms))
    .col("speedup_vs_1w", 3, runs.iter().map(speedup));
    println!("{entries}");

    fields.push(("requests", mix.len().to_string()));
    fields.push(("max_batch", MAX_BATCH.to_string()));
    fields.push(("in_flight", IN_FLIGHT.to_string()));
    fields.push(("policy", format!("\"budgeted_{SETS}\"")));
    fields.push((entries.key, entries.to_json()));
}

/// What one `run_sharded` replay measured.
struct ShardRun {
    throughput_rps: f64,
    p99_ms: f64,
}

/// Replay `mix` through a fresh sharded server, keeping a sliding window
/// of in-flight tickets.
fn run_sharded(
    service: &Service,
    mix: &[ActiveUser],
    policy: &ExecutionPolicy,
    workers: usize,
) -> ShardRun {
    let config = ShardConfig::default().with_workers(workers).with_worker(
        ServerConfig::default()
            .with_queue_capacity(IN_FLIGHT * 2)
            .with_max_batch(MAX_BATCH),
    );
    let server = ShardedServer::replicated(service, config);
    let mut latencies = Vec::with_capacity(mix.len());
    let mut window: VecDeque<at_server::Ticket<at_server::Response<CfService>>> =
        VecDeque::with_capacity(IN_FLIGHT);
    let start = Instant::now();
    for req in mix {
        if window.len() >= IN_FLIGHT {
            let ticket = window.pop_front().expect("non-empty window");
            latencies.push(ticket.wait().expect("fulfilled").elapsed);
        }
        window.push_back(server.submit(req.clone(), *policy).expect("accepting"));
    }
    for ticket in window {
        latencies.push(ticket.wait().expect("fulfilled").elapsed);
    }
    let wall = start.elapsed().as_secs_f64();
    server.shutdown();
    ShardRun {
        throughput_rps: mix.len() as f64 / wall,
        p99_ms: p99_ms(&mut latencies),
    }
}
