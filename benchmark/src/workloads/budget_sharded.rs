//! `rec_budget_sharded`: the throughput workload. One submitter keeps a
//! fixed window of tickets in flight on a two-worker replicated cluster
//! under a clock-free set budget, so placement, duplicate collapse, the
//! tiled batch stage-1 pass, Pearson-heavy stage 2, compose and bulk
//! ticket fulfilment do the work, while the clock, deadlines and admission
//! control are bypassed. Closed loop: a slower system is offered less.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use at_recommender::{ActiveUser, CfService};
use at_server::{ServerConfig, ShardConfig, ShardedServer};

use super::{build_metrics, replay_layers, stream_metrics, Opts, Outcome, RecBench};
use crate::adapter::{evaluate, fingerprint, Fingerprint};
use crate::gen;
use crate::server_stats::server_metrics;
use crate::trace::Tracer;
use crate::window::{Op, Window};

/// Tickets the submitter keeps in flight.
pub const IN_FLIGHT: usize = 128;
pub const WORKERS: usize = 2;
/// Two to three times the in-order delivery latency this window produces
/// at the measured throughput; `within_limit_share` reads ~1 unless the
/// cluster slows grossly.
pub const LIMIT: Duration = Duration::from_millis(750);
const ZIPF_ALPHA: f64 = 1.1;
/// Stream draws generated up front, per second of run: well above what
/// the cluster serves; the stream wraps if a future speed-up outruns it.
const DRAWS_PER_SECOND: f64 = 8_000.0;

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let RecBench {
        scale,
        inputs,
        service,
        build,
        setups,
        exact,
    } = RecBench::set_up(opts, 0, true);
    let pool: &[ActiveUser] = &inputs.requests;
    let policy = opts.budget();
    let (loss, mean_coverage) = evaluate(
        &service,
        &policy,
        &pool[..exact.len()],
        &inputs.actual[..exact.len()],
        &exact,
    );

    let total = opts.warmup + opts.seconds;
    let stream = gen::zipf_stream(
        pool.len(),
        ZIPF_ALPHA,
        (DRAWS_PER_SECOND * total) as usize,
        opts.seed ^ 0xB1,
    );
    let cluster = ShardedServer::replicated(
        &service,
        ShardConfig::default()
            .with_workers(WORKERS)
            .with_worker(ServerConfig::default().with_max_batch(64)),
    );

    let origin = Instant::now();
    let window_start = origin + Duration::from_secs_f64(opts.warmup);
    let window_end = window_start + Duration::from_secs_f64(opts.seconds);
    let mut window = Window::new(opts.seconds, stream.len());
    let mut seen: Vec<(u32, Fingerprint)> = Vec::new();
    let mut in_flight = VecDeque::with_capacity(IN_FLIGHT);
    let mut stats_at_start = None;
    let mut measured_from = None;
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        let submitting = now < window_end;
        if submitting && in_flight.len() < IN_FLIGHT {
            let measured = now >= window_start;
            if measured && stats_at_start.is_none() {
                stats_at_start = Some(cluster.stats());
                measured_from = Some(next);
            }
            let user = stream[next % stream.len()];
            next += 1;
            let req = pool[user as usize].clone();
            let start = Instant::now();
            let ticket = cluster.submit(req, policy);
            let submitted = opts.traced.then(Instant::now);
            in_flight.push_back((measured, user, start, submitted, ticket));
            continue;
        }
        let Some((measured, user, start, submitted, ticket)) = in_flight.pop_front() else {
            break;
        };
        let resp = ticket.ok().and_then(|t| t.wait().ok());
        let resolved = Instant::now();
        // Throughput counts what came back inside the window, whichever
        // side of its start the request went in.
        if resp.is_some() && resolved >= window_start && resolved < window_end {
            window
                .slice_at(resolved - window_start, opts.seconds)
                .delivered += 1;
        }
        if !measured {
            continue;
        }
        window.attempted += 1;
        let slice = window.slice_at(start - window_start, opts.seconds);
        let Some(resp) = resp else {
            slice.missing += 1;
            window.failed += 1;
            continue;
        };
        slice.record(resolved - start, LIMIT);
        seen.push((user, fingerprint::<CfService>(&resp)));
        if opts.traced {
            window.ops.push(Op {
                start,
                submitted,
                resolved,
                elapsed: resp.elapsed,
            });
        }
    }
    let after = cluster.stats();

    // Sharded ≡ single, batch ≡ per-request: every response must equal
    // what `serve` gives for the same request on the same data.
    let mut golden: Vec<Option<Fingerprint>> = vec![None; pool.len()];
    for (user, got) in &seen {
        let want = golden[*user as usize].get_or_insert_with(|| {
            fingerprint::<CfService>(&service.serve(&pool[*user as usize], &policy))
        });
        if got != want {
            window.wrong += 1;
            window.failed += 1;
        }
    }

    let measured_stream: Vec<u32> = (measured_from.unwrap_or(0)..next)
        .map(|i| stream[i % stream.len()])
        .collect();
    let mut metrics = window.end_to_end(&setups, loss, Some(mean_coverage));
    metrics.extend(build_metrics(&build));
    metrics.extend(stream_metrics(
        &measured_stream,
        window.attempted as f64 / opts.seconds,
    ));
    let before = stats_at_start.ok_or("the warm-up outlasted the run")?;
    metrics.extend(server_metrics(&before.workers, &after.workers));

    let mut tracer = None;
    if opts.traced {
        let mut t = Tracer::new(origin);
        metrics.extend(window.server_spans(&mut t));
        let mut round_trip = |req: &ActiveUser| {
            let ticket = cluster
                .submit(req.clone(), policy)
                .expect("idle cluster accepts");
            let _ = std::hint::black_box(ticket.wait());
        };
        metrics.extend(replay_layers(
            opts,
            &mut t,
            &service,
            policy,
            pool,
            &measured_stream,
            Some(&mut round_trip),
        )?);
        tracer = Some(t);
    }
    cluster.shutdown();

    Ok(Outcome {
        scale,
        correct: window.wrong == 0,
        attempted: window.attempted,
        failed: window.failed,
        metrics,
        tracer,
    })
}
