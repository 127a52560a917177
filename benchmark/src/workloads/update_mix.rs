//! `rec_update_mix`: reads beside writes on one data layer. The benchmark
//! thread holds the service by value (no server, no replicas, so
//! `apply_updates` never pays a copy-on-write deep copy) and alternates
//! 32 `serve_batch` calls of 8 requests with one stop-the-world update
//! round of 10 rows per component, half added, half changed. A read
//! batch's latency runs from the end of the previous read batch, so an
//! update stall is charged to the read that waited behind it. This is the
//! baseline live synopsis maintenance (ROADMAP item 6) has to beat, and
//! where keeping two row layouts coherent costs something.

use std::time::{Duration, Instant};

use at_core::FanOutService;
use at_recommender::{ActiveUser, CfService};
use at_synopsis::{DataUpdate, SparseRow};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use super::{build_metrics, replay_layers, stream_metrics, Opts, Outcome, RecBench, EVAL};
use crate::adapter::{evaluate, exact_responses, fingerprint};
use crate::gen;
use crate::report::{metric, metric_n};
use crate::trace::Tracer;
use crate::window::Window;

pub const BATCH: usize = 8;
pub const READ_BATCHES: usize = 32;
pub const UPDATES_PER_COMPONENT: usize = 10;
/// Per read batch, update stall included: about twice what the batch
/// behind an update round takes.
pub const LIMIT: Duration = Duration::from_millis(150);
const ZIPF_ALPHA: f64 = 1.1;
/// Generated users kept out of the deployment as material for updates;
/// rounds cycle through them.
const SPARE_ROWS: usize = 1024;
/// Update rounds applied by the end of the run, per second of run, timed
/// or not: accuracy is scored on the data after exactly this many rounds,
/// so it repeats from run to run although the timed loop gets through a
/// slightly different number each time. About twice today's pace.
const FINAL_ROUNDS_PER_SECOND: f64 = 4.0;

/// The seeded source of update rounds.
struct Updates<'a> {
    spare: &'a [SparseRow],
    next_spare: usize,
    rng: SmallRng,
}

impl Updates<'_> {
    fn row(&mut self) -> SparseRow {
        let row = self.spare[self.next_spare % self.spare.len()].clone();
        self.next_spare += 1;
        row
    }

    /// One component's share of a round: half new rows, half changes to
    /// rows it already holds.
    fn for_component(&mut self, rows_held: usize) -> Vec<DataUpdate> {
        let mut updates = Vec::with_capacity(UPDATES_PER_COMPONENT);
        for _ in 0..UPDATES_PER_COMPONENT / 2 {
            updates.push(DataUpdate::Add(self.row()));
        }
        for _ in UPDATES_PER_COMPONENT / 2..UPDATES_PER_COMPONENT {
            let id = self.rng.random_range(0..rows_held) as u64;
            updates.push(DataUpdate::Change {
                id,
                row: self.row(),
            });
        }
        updates
    }
}

#[derive(Default)]
struct UpdateTotals {
    rows: usize,
    regenerated: usize,
    inside: Duration,
    /// `(start, end)` of every `apply_updates` call, for the trace.
    calls: Vec<(Instant, Instant)>,
}

/// One stop-the-world update round over every component, added to
/// `totals`.
fn update_round(
    service: &mut FanOutService<CfService>,
    updates: &mut Updates<'_>,
    totals: &mut UpdateTotals,
) {
    for component in service.components_mut() {
        let batch = updates.for_component(component.dataset().len());
        totals.rows += batch.len();
        let start = Instant::now();
        let report = component.apply_updates(batch);
        let end = Instant::now();
        totals.regenerated += report.regenerated;
        totals.inside += end - start;
        totals.calls.push((start, end));
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let RecBench {
        scale,
        inputs,
        mut service,
        build,
        setups,
        ..
    } = RecBench::set_up(opts, SPARE_ROWS, false);
    let pool: &[ActiveUser] = &inputs.requests;
    let policy = opts.budget();
    let stream = gen::zipf_stream(pool.len(), ZIPF_ALPHA, 1 << 18, opts.seed ^ 0xD1);
    let mut updates = Updates {
        spare: &inputs.spare_rows,
        next_spare: 0,
        rng: SmallRng::seed_from_u64(opts.seed ^ 0xD2),
    };

    let origin = Instant::now();
    let mut window = Window::new(opts.seconds, 1 << 12);
    let mut totals = UpdateTotals::default();
    let mut batch_spans: Vec<(Instant, Instant, Instant)> = Vec::new();
    let (mut warm, mut timed) = (Duration::ZERO, Duration::ZERO);
    let warmup = Duration::from_secs_f64(opts.warmup);
    let seconds = Duration::from_secs_f64(opts.seconds);
    let mut rounds = 0usize;
    let mut next = 0usize;
    let mut measured_from = None;
    let mut mark = Instant::now();
    'run: loop {
        let mut last = None;
        for _ in 0..READ_BATCHES {
            let measured = warm >= warmup;
            if measured && measured_from.is_none() {
                measured_from = Some(next);
            }
            let users: Vec<u32> = (0..BATCH)
                .map(|k| stream[(next + k) % stream.len()])
                .collect();
            next += BATCH;
            let reqs: Vec<ActiveUser> = users.iter().map(|&u| pool[u as usize].clone()).collect();
            let called = Instant::now();
            let resps = service.serve_batch(&reqs, &policy);
            let end = Instant::now();
            let latency = end - mark;
            if measured {
                window.attempted += BATCH as u64;
                let short = (BATCH - resps.len().min(BATCH)) as u64;
                window.wrong += short;
                window.failed += short;
                let slice = window.slice_at(timed, opts.seconds);
                slice.delivered += resps.len() as u64;
                slice.record(latency, LIMIT);
                timed += latency;
                if opts.traced {
                    batch_spans.push((mark, called, end));
                }
            } else {
                warm += latency;
            }
            mark = end;
            last = Some((measured, reqs, resps));
            if timed >= seconds {
                break 'run;
            }
        }
        // Batch ≡ per-request on the data as it is now: the round's last
        // read batch against `serve`, off the clock.
        if let Some((true, reqs, resps)) = last {
            for (req, resp) in reqs.iter().zip(&resps) {
                let want = fingerprint::<CfService>(&service.serve(req, &policy));
                if fingerprint::<CfService>(resp) != want {
                    window.wrong += 1;
                    window.failed += 1;
                }
            }
            mark = Instant::now();
        }
        // Rounds of the warm-up (and, below, of the padding) are applied
        // but not counted.
        let counted = if warm >= warmup {
            &mut totals
        } else {
            &mut UpdateTotals::default()
        };
        update_round(&mut service, &mut updates, counted);
        rounds += 1;
    }
    // Read batches tile the timed span end to end (update stalls
    // included), so a slice is as long as its batches' latencies.
    for slice in &mut window.slices {
        slice.seconds = slice.latencies_ms.iter().sum::<f64>() / 1e3;
    }

    // Bring the data to the same state every run, then score on it.
    let final_rounds = (FINAL_ROUNDS_PER_SECOND * (opts.warmup + opts.seconds)).ceil() as usize;
    if rounds > final_rounds {
        eprintln!(
            "note: {rounds} update rounds ran, more than the {final_rounds} accuracy is pinned to; accuracy_pct is scored after {rounds}"
        );
    }
    while rounds < final_rounds {
        update_round(&mut service, &mut updates, &mut UpdateTotals::default());
        rounds += 1;
    }
    let n = EVAL.min(pool.len());
    let exact = exact_responses(&service, &pool[..n]);
    let (loss, mean_coverage) =
        evaluate(&service, &policy, &pool[..n], &inputs.actual[..n], &exact);

    let measured_stream: Vec<u32> = (measured_from.unwrap_or(0)..next)
        .map(|i| stream[i % stream.len()])
        .collect();
    let mut metrics = window.end_to_end(&setups, loss, Some(mean_coverage));
    metrics.extend(build_metrics(&build));
    let inside = totals.inside.as_secs_f64();
    let rows = totals.rows.max(1) as f64;
    metrics.push(metric_n(
        "synopsis.update.rows_per_s",
        totals.rows as f64 / inside.max(1e-9),
        totals.rows,
    ));
    metrics.push(metric_n(
        "synopsis.update.us_per_row",
        1e6 * inside / rows,
        totals.rows,
    ));
    metrics.push(metric(
        "synopsis.update.regenerated_per_row",
        totals.regenerated as f64 / rows,
    ));
    metrics.extend(stream_metrics(
        &measured_stream,
        window.attempted as f64 / timed.as_secs_f64(),
    ));

    let mut tracer = None;
    if opts.traced {
        let mut t = Tracer::new(origin);
        for &(from, called, end) in &batch_spans {
            let request = t.add("request", None, from, end);
            t.add("core.service.serve_batch", Some(request), called, end);
        }
        for &(start, end) in &totals.calls {
            t.add("core.component.apply_updates", None, start, end);
        }
        // The replay runs on the data as the last update left it, so its
        // `core.engine.sets_skipped_share` is the staleness callers see.
        metrics.extend(replay_layers(
            opts,
            &mut t,
            &service,
            policy,
            pool,
            &measured_stream,
            None,
        )?);
        tracer = Some(t);
    }

    Ok(Outcome {
        scale,
        correct: window.wrong == 0,
        attempted: window.attempted,
        failed: window.failed,
        metrics,
        tracer,
    })
}
