//! `search_small_seq`: one request in flight (`submit` → `wait`) on the
//! small search deployment, under the paper's search preset (`l_spe`
//! 100 ms never binds, `i_max` = top 40 % of sets decides). The other
//! adapter (no Pearson, top-k merge compose) at the scale where submit →
//! dispatcher wake → per-call fan-out → compose → ticket wake is most of
//! a request; batching, collapse and the blocked layout are bypassed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use at_core::ExecutionPolicy;
use at_search::{SearchRequest, SearchService};
use at_server::{Server, ServerConfig};

use super::{build_metrics, repeat_setup, replay_layers, stream_metrics, Opts, Outcome};
use crate::adapter::{evaluate, exact_responses, fingerprint, Fingerprint};
use crate::deploy::{build_search, search_inputs, Scale};
use crate::gen;
use crate::server_stats::server_metrics;
use crate::trace::Tracer;
use crate::window::{Op, Window};

/// A few times the round trip this deployment gives on two cores.
pub const LIMIT: Duration = Duration::from_millis(1);
const IMAX_FRACTION: f64 = 0.4;
const ZIPF_ALPHA: f64 = 1.1;
const DRAWS_PER_SECOND: f64 = 40_000.0;

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let scale = Scale::SMALL;
    let inputs = search_inputs(scale);
    let ((service, build), setups) = repeat_setup(|| {
        let (service, build, took) = build_search(&inputs, scale);
        ((service, build), took)
    });
    let pool: &[SearchRequest] = &inputs.requests;
    let total_sets = service
        .components()
        .iter()
        .map(|c| c.store().synopsis().len())
        .max()
        .unwrap_or(0);
    let policy = ExecutionPolicy::search(total_sets, IMAX_FRACTION);
    let ExecutionPolicy::Deadline { l_spe, .. } = policy else {
        unreachable!("the search preset is a deadline policy");
    };

    let exact = exact_responses(&service, pool);
    let truths = vec![(); pool.len()];
    let (loss, mean_coverage) = evaluate(&service, &policy, pool, &truths, &exact);
    let golden: Vec<Fingerprint> = pool
        .iter()
        .map(|req| fingerprint::<SearchService>(&service.serve(req, &policy)))
        .collect();

    let total = opts.warmup + opts.seconds;
    let stream = gen::zipf_stream(
        pool.len(),
        ZIPF_ALPHA,
        (DRAWS_PER_SECOND * total) as usize,
        opts.seed ^ 0xC1,
    );
    let service = Arc::new(service);
    let server = Server::new(Arc::clone(&service), ServerConfig::default());

    let origin = Instant::now();
    let window_start = origin + Duration::from_secs_f64(opts.warmup);
    let window_end = window_start + Duration::from_secs_f64(opts.seconds);
    let mut window = Window::new(opts.seconds, stream.len());
    let mut stats_at_start = None;
    let mut measured_from = 0usize;
    let mut next = 0usize;
    loop {
        let start = Instant::now();
        if start >= window_end {
            break;
        }
        let measured = start >= window_start;
        if measured && stats_at_start.is_none() {
            stats_at_start = Some(server.stats());
            measured_from = next;
        }
        let user = stream[next % stream.len()];
        next += 1;
        let ticket = server.submit(pool[user as usize].clone(), policy);
        let submitted = opts.traced.then(Instant::now);
        let resp = ticket.ok().and_then(|t| t.wait().ok());
        let resolved = Instant::now();
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
        slice.delivered += 1;
        slice.record(resolved - start, LIMIT);
        let got = fingerprint::<SearchService>(&resp);
        let want = &golden[user as usize];
        // The deadline is real: a response that took its whole `l_spe`
        // (the box stalled for 100 ms) may legitimately carry less. It has
        // already missed the latency limit; it is not a wrong answer.
        let cut_by_deadline = resp.elapsed >= l_spe && got.sets_processed <= want.sets_processed;
        if got != *want && !cut_by_deadline {
            window.wrong += 1;
            window.failed += 1;
        }
        if opts.traced {
            window.ops.push(Op {
                start,
                submitted,
                resolved,
                elapsed: resp.elapsed,
            });
        }
    }
    let after = server.stats();

    let measured_stream: Vec<u32> = (measured_from..next)
        .map(|i| stream[i % stream.len()])
        .collect();
    let mut metrics = window.end_to_end(&setups, loss, Some(mean_coverage));
    metrics.extend(build_metrics(&build));
    metrics.extend(stream_metrics(
        &measured_stream,
        window.attempted as f64 / opts.seconds,
    ));
    let before = stats_at_start.ok_or("the warm-up outlasted the run")?;
    metrics.extend(server_metrics(&[before], &[after]));

    let mut tracer = None;
    if opts.traced {
        let mut t = Tracer::new(origin);
        metrics.extend(window.server_spans(&mut t));
        let mut round_trip = |req: &SearchRequest| {
            let ticket = server
                .submit(req.clone(), policy)
                .expect("idle server accepts");
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
    server.shutdown();

    Ok(Outcome {
        scale,
        correct: window.wrong == 0,
        attempted: window.attempted,
        failed: window.failed,
        metrics,
        tracer,
    })
}
