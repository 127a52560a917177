//! The four workloads. Each is one process invocation: generate inputs
//! from the seed, set the deployment up (several times, for `setup_s`),
//! warm up, measure for the window, check every response.

use std::time::{Duration, Instant};

use at_core::{ExecutionPolicy, FanOutService};
use at_recommender::CfService;

use crate::adapter::{exact_responses, Adapter};
use crate::deploy::{build_recommender, rec_inputs, BuildSummary, RecInputs, Scale};
use crate::gen;
use crate::replay::{Replay, RoundTrip};
use crate::report::{metric, Metric};
use crate::trace::Tracer;

pub mod budget_sharded;
pub mod deadline_open;
pub mod small_seq;
pub mod update_mix;

/// How one workload run was asked for.
pub struct Opts {
    pub seed: u64,
    /// Timed window.
    pub seconds: f64,
    /// Untimed lead-in on the same traffic: caches fill, the admission
    /// ladder settles, pools and thread-local scratch reach steady size.
    pub warmup: f64,
    pub traced: bool,
    /// Small deployments only; same code paths and checks.
    pub smoke: bool,
}

impl Opts {
    pub fn rec_scale(&self) -> Scale {
        if self.smoke {
            Scale::SMALL
        } else {
            Scale::LARGE
        }
    }

    /// `Budgeted` set budget: about 20 % of a component's ranked sets
    /// (17 of ~84 at `large`, 3 of ~13 at `small`).
    pub fn budget(&self) -> ExecutionPolicy {
        ExecutionPolicy::budgeted(if self.smoke { 3 } else { 17 })
    }
}

/// What a workload hands back for printing.
pub struct Outcome {
    pub scale: Scale,
    /// No response was wrong and every run-level check (accuracy sanity)
    /// held. Shed or rejected requests are `failed`, not incorrect.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub tracer: Option<Tracer>,
}

/// Set the deployment up repeatedly and keep the last: at least three
/// times, and until a second has gone into it (at most 25 times).
/// `setup_s` is the median, so one slow build does not decide it.
pub fn repeat_setup<T>(mut build: impl FnMut() -> (T, Duration)) -> (T, Vec<Duration>) {
    let mut took = Vec::new();
    let mut spent = Duration::ZERO;
    loop {
        let (built, t) = build();
        took.push(t);
        spent += t;
        if took.len() >= 3 && (spent >= Duration::from_secs(1) || took.len() >= 25) {
            return (built, took);
        }
        // Before the next build, so peak memory holds one deployment.
        drop(built);
    }
}

/// Requests (the hottest of the pool, most of a zipf stream's mass) on
/// which accuracy against `Exact` is scored. Exact processing of all 2000
/// would cost more than the timed window.
pub const EVAL: usize = 256;

/// A set-up recommender deployment plus what scoring it needs.
pub struct RecBench {
    pub scale: Scale,
    pub inputs: RecInputs,
    pub service: FanOutService<CfService>,
    pub build: BuildSummary,
    pub setups: Vec<Duration>,
    /// `Exact` predictions of the first [`EVAL`] requests.
    pub exact: Vec<Vec<f64>>,
}

impl RecBench {
    /// Generate inputs and set the deployment up. With `score_exact`, also
    /// take the `Exact` baseline on the unmodified data.
    pub fn set_up(opts: &Opts, spare_rows: usize, score_exact: bool) -> RecBench {
        let scale = opts.rec_scale();
        let inputs = rec_inputs(scale, spare_rows);
        let ((service, build), setups) = repeat_setup(|| {
            let (service, build, took) = build_recommender(&inputs, scale);
            ((service, build), took)
        });
        let n = EVAL.min(inputs.requests.len());
        let exact = if score_exact {
            exact_responses(&service, &inputs.requests[..n])
        } else {
            Vec::new()
        };
        RecBench {
            scale,
            inputs,
            service,
            build,
            setups,
            exact,
        }
    }
}

pub fn build_metrics(b: &BuildSummary) -> Vec<Metric> {
    vec![
        metric("synopsis.build.reduce_s", b.reduce.as_secs_f64()),
        metric("synopsis.build.organize_s", b.organize.as_secs_f64()),
        metric("synopsis.build.aggregate_s", b.aggregate.as_secs_f64()),
        metric("synopsis.points_per_component", b.points_per_component),
        metric("synopsis.mean_group_size", b.mean_group_size),
    ]
}

/// Sleep to within 150 µs of `due`, then spin. Sleeping to `due` itself
/// overshoots by the timer slack; yielding instead of spinning hands the
/// core to the saturated system under test, which returns it a scheduler
/// slice later (measured: median lag 1.9 ms yielding, 1 µs spinning).
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// `gen.*`: what the window offered and how much of it repeats.
pub fn stream_metrics(stream: &[u32], offered_rps: f64) -> Vec<Metric> {
    vec![
        metric("gen.offered_rps", offered_rps),
        metric("gen.distinct_requests", gen::distinct(stream) as f64),
        metric("gen.dup_share", gen::dup_share(stream)),
    ]
}

/// Requests the layer replay takes from the window's stream.
const REPLAY_SAMPLE: usize = 256;

/// The layer replay of a traced run over the stream the window consumed.
pub fn replay_layers<S: Adapter>(
    opts: &Opts,
    tracer: &mut Tracer,
    service: &FanOutService<S>,
    policy: ExecutionPolicy,
    pool: &[S::Request],
    stream: &[u32],
    round_trip: Option<RoundTrip<'_, S>>,
) -> Result<Vec<Metric>, String> {
    Replay {
        service,
        policy,
        pool,
        sample: sample_evenly(stream, REPLAY_SAMPLE),
        stream,
        strict: !opts.smoke,
    }
    .run(tracer, round_trip)
}

/// Every `len/n`-th element: the layer replay's sample of a stream.
fn sample_evenly(stream: &[u32], n: usize) -> Vec<u32> {
    if stream.len() <= n {
        return stream.to_vec();
    }
    (0..n).map(|i| stream[i * stream.len() / n]).collect()
}
