//! `rec_deadline_open`: the paper's headline scenario. Independent users
//! arrive as a Poisson process at a fixed rate above what full processing
//! can sustain; every request carries `Deadline{l_spe}` and the server's
//! admission ladder watches queue wait. The system is meant to hold the
//! tail and give up coverage, so a faster stage 1 or stage 2 shows up as
//! coverage and accuracy at an unchanged latency. Open loop: a request is
//! timed from when it was due, however late the system let it in.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use at_core::{DegradationLadder, ExecutionPolicy, ServiceResponse};
use at_recommender::{ActiveUser, CfService};
use at_server::{
    AdmissionController, Decision, LadderConfig, LadderController, LoadSnapshot, Server,
    ServerConfig, ServerStats, SubmitError, Ticket,
};

use super::{build_metrics, replay_layers, stream_metrics, wait_until, Opts, Outcome, RecBench};
use crate::adapter::{Adapter, RmseScore};
use crate::gen;
use crate::report::{metric, metric_n};
use crate::server_stats::server_metrics;
use crate::stats;
use crate::trace::Tracer;
use crate::window::{Op, Window, SLICES};

pub const L_SPE: Duration = Duration::from_millis(20);
/// The latency limit `within_limit_share` counts against.
pub const LIMIT: Duration = Duration::from_millis(30);
/// Offered load, requests per second: about 1.2x what this deployment
/// sustains at full coverage on two cores, far below synopsis-only
/// capacity.
pub const RATE: f64 = 150.0;
const ZIPF_ALPHA: f64 = 1.1;
/// A generator later than this at its 99th percentile did not offer the
/// schedule it claims, and the window is void. (With both cores saturated
/// by the system under test, a waking generator can wait one 4 ms
/// scheduler tick; the 99th percentile sits near 3.5 ms on a quiet box.)
const MAX_LAG_P99: Duration = Duration::from_millis(5);
/// A void window is offered again, this many windows at most: one stall of
/// the whole machine for a tenth of a second delays 1 % of a window's
/// arrivals and voids it, and that is the box's fault, not the program's.
const MAX_WINDOWS: usize = 3;

/// The deployment's ladder: `for_deadline(l_spe)`, except that it never
/// sheds. Degrading every request to `SynopsisOnly` (level 2 and up)
/// already clears any backlog this load can build, and the only thing that
/// drove the default ladder to its shed level here was the whole box
/// stalling for a tenth of a second, which turned a hiccup of the machine
/// into failed operations of the program.
fn ladder_config() -> LadderConfig {
    let base = LadderConfig::for_deadline(L_SPE);
    LadderConfig {
        shed_level: base.max_level + 1,
        ..base
    }
}

/// What the counting wrapper saw of the ladder.
#[derive(Default)]
struct ControlCounts {
    observe_calls: AtomicU64,
    level_max: AtomicU64,
}

/// The server's `LadderController`, unchanged, with its calls counted.
struct CountingLadder {
    inner: LadderController,
    counts: Arc<ControlCounts>,
}

impl AdmissionController for CountingLadder {
    fn observe(&self, snapshot: &LoadSnapshot) {
        self.inner.observe(snapshot);
        self.counts.observe_calls.fetch_add(1, Ordering::Relaxed);
        self.counts
            .level_max
            .fetch_max(u64::from(self.inner.level()), Ordering::Relaxed);
    }

    fn decide(&self, snapshot: &LoadSnapshot, requested: &ExecutionPolicy) -> Decision {
        self.inner.decide(snapshot, requested)
    }
}

struct Pending {
    /// False during warm-up.
    measured: bool,
    user: u32,
    due: Instant,
    submitted: Option<Instant>,
    ticket: Result<Ticket<ServiceResponse<Vec<f64>>>, SubmitError>,
}

/// What one offered window came to.
struct Offered {
    window: Window,
    responses: u64,
    degraded: u64,
    score: RmseScore,
    lags_ms: Vec<f64>,
    stats_at_start: Option<ServerStats>,
}

struct Traffic<'a> {
    pool: &'a [ActiveUser],
    actual: &'a [Vec<f64>],
    /// `Exact` predictions of the hottest users, the ones scored.
    exact: &'a [Vec<f64>],
    policy: ExecutionPolicy,
    warm: (Vec<f64>, &'a [u32]),
    timed: (Vec<f64>, &'a [u32]),
    warmup: f64,
    seconds: f64,
    traced: bool,
}

/// Offer the warm-up and the timed schedule once, starting at `origin`.
fn offer(server: &Server<CfService>, t: &Traffic<'_>, origin: Instant) -> Offered {
    let ladder = &DegradationLadder::from_policy(t.policy);
    let (tx, rx) = mpsc::channel::<Pending>();
    std::thread::scope(|scope| {
        // The collector takes responses in submission order; the single
        // dispatcher completes them in (micro-batch) order, so waiting in
        // order holds no finished response back by more than its own batch.
        let window_start = origin + Duration::from_secs_f64(t.warmup);
        let collector = scope.spawn(move || {
            let mut c = Offered {
                window: Window::new(t.seconds, t.timed.0.len()),
                responses: 0,
                degraded: 0,
                score: RmseScore::default(),
                lags_ms: Vec::new(),
                stats_at_start: None,
            };
            for p in rx {
                let resp = match p.ticket {
                    Ok(ticket) => ticket.wait().ok(),
                    Err(_) => None,
                };
                let resolved = Instant::now();
                if !p.measured {
                    continue;
                }
                c.window.attempted += 1;
                let slice = c.window.slice_at(p.due - window_start, t.seconds);
                let Some(resp) = resp else {
                    // Rejected, shed or canceled.
                    slice.missing += 1;
                    c.window.failed += 1;
                    continue;
                };
                let coverage = resp.mean_coverage();
                slice.delivered += 1;
                slice.record(resolved - p.due, LIMIT);
                slice.coverage += coverage;
                slice.responses += 1;
                let sound = CfService::valid(&t.pool[p.user as usize], &resp.response)
                    && (0.0..=1.0).contains(&coverage)
                    && ladder.rungs().contains(&resp.policy_applied);
                if !sound {
                    c.window.wrong += 1;
                    c.window.failed += 1;
                }
                c.responses += 1;
                if resp.policy_applied != t.policy {
                    c.degraded += 1;
                }
                if let Some(exact) = t.exact.get(p.user as usize) {
                    let truth = &t.actual[p.user as usize];
                    CfService::score(&mut c.score, truth, exact, &resp.response);
                }
                if t.traced {
                    c.window.ops.push(Op {
                        start: p.due,
                        submitted: p.submitted,
                        resolved,
                        elapsed: resp.elapsed,
                    });
                }
            }
            c
        });

        let mut lags_ms = Vec::with_capacity(t.timed.0.len());
        let mut stats_at_start = None;
        let phases = [(&t.warm, 0.0, false), (&t.timed, t.warmup, true)];
        for ((schedule, users), offset, measured) in phases {
            if measured {
                stats_at_start = Some(server.stats());
            }
            for (&at, &user) in schedule.iter().zip(*users) {
                let due = origin + Duration::from_secs_f64(offset + at);
                let req = t.pool[user as usize].clone();
                wait_until(due);
                if measured {
                    lags_ms.push(due.elapsed().as_secs_f64() * 1e3);
                }
                let ticket = server.try_submit_at(req, t.policy, due);
                let submitted = t.traced.then(Instant::now);
                tx.send(Pending {
                    measured,
                    user,
                    due,
                    submitted,
                    ticket,
                })
                .expect("collector outlives the generator");
            }
        }
        drop(tx);
        let mut offered = collector.join().expect("collector thread");
        stats::sort(&mut lags_ms);
        offered.lags_ms = lags_ms;
        offered.stats_at_start = stats_at_start;
        offered
    })
}

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
    let policy = ExecutionPolicy::deadline(L_SPE);

    let warm = gen::poisson_schedule(RATE, opts.warmup, 1, opts.seed ^ 0xA1);
    let timed = gen::poisson_schedule(RATE, opts.seconds, SLICES, opts.seed ^ 0xA2);
    let stream = gen::zipf_stream(
        pool.len(),
        ZIPF_ALPHA,
        warm.len() + timed.len(),
        opts.seed ^ 0xA3,
    );
    let (warm_users, timed_users) = stream.split_at(warm.len());
    let traffic = Traffic {
        pool,
        actual: &inputs.actual,
        exact: &exact,
        policy,
        warm: (warm, warm_users),
        timed: (timed, timed_users),
        warmup: opts.warmup,
        seconds: opts.seconds,
        traced: opts.traced,
    };

    let service = Arc::new(service);
    let counts = Arc::new(ControlCounts::default());
    let server = Server::with_controller(
        Arc::clone(&service),
        ServerConfig::default().with_max_batch(64),
        CountingLadder {
            inner: LadderController::new(ladder_config()),
            counts: Arc::clone(&counts),
        },
    );

    let limit_ms = MAX_LAG_P99.as_secs_f64() * 1e3;
    let mut windows = 0;
    let (origin, offered, lag_p99) = loop {
        windows += 1;
        let origin = Instant::now() + Duration::from_millis(20);
        let offered = offer(&server, &traffic, origin);
        let lag_p99 = stats::nearest_rank(&offered.lags_ms, 0.99);
        if lag_p99 <= limit_ms {
            break (origin, offered, lag_p99);
        }
        eprintln!("note: window {windows} void, gen.lag_p99_ms {lag_p99:.3} exceeds {limit_ms} ms");
        if windows == MAX_WINDOWS {
            return Err(format!(
                "gen.lag_p99_ms {lag_p99:.3} exceeds {limit_ms} ms in {windows} windows: the generator could not offer its schedule"
            ));
        }
    };
    let Offered {
        mut window,
        responses,
        degraded,
        score,
        lags_ms,
        stats_at_start,
    } = offered;

    // Accuracy sanity for a policy the clock cuts: no worse than never
    // looking at a neighbour at all (each target predicted as the user's
    // own mean rating), and, the loss being floored at 0, no better than
    // exact. (SynopsisOnly is not the ceiling: on this generator loss peaks
    // near 40 % coverage, above the synopsis-only loss; see README.)
    let loss = CfService::loss_pct(&score);
    let mut fallback = RmseScore::default();
    for ((req, truth), exact) in pool.iter().zip(&inputs.actual).zip(&exact) {
        let means = vec![req.mean_rating().clamp(1.0, 5.0); truth.len()];
        CfService::score(&mut fallback, truth, exact, &means);
    }
    let ceiling = CfService::loss_pct(&fallback);
    let accuracy_sane = loss.is_finite() && (0.0..=ceiling).contains(&loss);

    let mut metrics = window.end_to_end(&setups, loss, None);
    metrics.extend(build_metrics(&build));
    metrics.push(metric_n("gen.lag_p99_ms", lag_p99, lags_ms.len()));
    metrics.push(metric("gen.void_windows", (windows - 1) as f64));
    metrics.extend(stream_metrics(
        timed_users,
        traffic.timed.0.len() as f64 / opts.seconds,
    ));

    let after = server.stats();
    let before = stats_at_start.expect("the timed phase ran");
    metrics.extend(server_metrics(&[before], &[after]));
    metrics.push(metric(
        "server.control.degraded_share",
        degraded as f64 / responses.max(1) as f64,
    ));
    metrics.push(metric(
        "server.control.shed_share",
        (after.shed - before.shed) as f64 / window.attempted.max(1) as f64,
    ));
    metrics.push(metric(
        "server.control.level_max",
        counts.level_max.load(Ordering::Relaxed) as f64,
    ));
    metrics.push(metric(
        "server.control.observe_calls",
        counts.observe_calls.load(Ordering::Relaxed) as f64,
    ));

    let mut tracer = None;
    if opts.traced {
        let mut t = Tracer::new(origin);
        metrics.extend(window.server_spans(&mut t));
        let mut round_trip = |req: &ActiveUser| {
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
            timed_users,
            Some(&mut round_trip),
        )?);
        tracer = Some(t);
    }
    server.shutdown();

    Ok(Outcome {
        scale,
        correct: window.wrong == 0 && accuracy_sane,
        attempted: window.attempted,
        failed: window.failed,
        metrics,
        tracer,
    })
}
