//! What every workload's timed window yields, and how that becomes the
//! end-to-end metrics.
//!
//! The window is cut into [`SLICES`] equal slices, and throughput, p50,
//! p99, the within-limit share and (where it is read off the window's own
//! responses) coverage are each the **median of the slices' values**. On
//! this two-core box a run drifts through slow phases of a second or two
//! (one-in-flight throughput was seen moving between 3.5k and 4.8k req/s
//! inside one window); the median of five slices reports what the program
//! does when the box lets it, where the pooled window reports how noisy the
//! box was.

use std::time::{Duration, Instant};

use crate::report::{metric, metric_n, peak_rss_mb, Metric};
use crate::stats;
use crate::trace::Tracer;

pub const SLICES: usize = 5;

/// One operation as the benchmark saw it from outside the server.
#[derive(Clone, Copy)]
pub struct Op {
    /// When the operation was due (open loop) or handed to `submit`.
    pub start: Instant,
    /// When `submit` returned (taken in traced runs only).
    pub submitted: Option<Instant>,
    /// When the response was in the caller's hands.
    pub resolved: Instant,
    /// The program's own submission-to-composed time, from the response.
    pub elapsed: Duration,
}

/// One fifth of the window.
#[derive(Default)]
pub struct Slice {
    /// Latency of every operation completed (a request; on the update
    /// workload a read batch) that started in this slice, in ms.
    pub latencies_ms: Vec<f64>,
    /// Of those, completed within the workload's latency limit.
    pub within_limit: u64,
    /// Operations started in this slice that never got a response; they
    /// miss the limit.
    pub missing: u64,
    /// Responses (requests, not batches) delivered during this slice.
    pub delivered: u64,
    /// The slice's length in seconds.
    pub seconds: f64,
    /// Sum of `mean_coverage()` over `responses` responses.
    pub coverage: f64,
    pub responses: u64,
}

impl Slice {
    pub fn record(&mut self, latency: Duration, limit: Duration) {
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        if latency <= limit {
            self.within_limit += 1;
        }
    }
}

pub struct Window {
    /// Requests attempted, and those rejected, shed, canceled or answered
    /// wrongly.
    pub attempted: u64,
    pub failed: u64,
    /// The wrongly answered among the failed: the program's output was
    /// checked and found incorrect, which voids the run.
    pub wrong: u64,
    pub slices: Vec<Slice>,
    /// Timestamps per operation, for the request spans of a traced run.
    pub ops: Vec<Op>,
}

impl Window {
    /// A window of `seconds`, expecting about `operations`; the samples
    /// are sized up front so their growth does not show in `peak_rss_mb`
    /// as a doubling.
    pub fn new(seconds: f64, operations: usize) -> Self {
        Window {
            attempted: 0,
            failed: 0,
            wrong: 0,
            slices: (0..SLICES)
                .map(|_| Slice {
                    latencies_ms: Vec::with_capacity(operations / SLICES + 1),
                    seconds: seconds / SLICES as f64,
                    ..Slice::default()
                })
                .collect(),
            ops: Vec::new(),
        }
    }

    /// The slice an instant `offset` into a window of `seconds` falls in.
    pub fn slice_at(&mut self, offset: Duration, seconds: f64) -> &mut Slice {
        let i = (offset.as_secs_f64() / seconds * SLICES as f64) as usize;
        &mut self.slices[i.min(SLICES - 1)]
    }

    /// The end-to-end metrics. `accuracy_loss_pct` is reported as
    /// `accuracy_pct = 100 - loss` so the metric is never 0 and a relative
    /// bound on it means points of accuracy. `mean_coverage` of `None`
    /// reads it off the window's own responses.
    pub fn end_to_end(
        &mut self,
        setups: &[Duration],
        accuracy_loss_pct: f64,
        mean_coverage: Option<f64>,
    ) -> Vec<Metric> {
        let mut setup_s: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
        let (mut throughput, mut p50, mut p99, mut within, mut coverage) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut n, mut delivered) = (0usize, 0usize);
        for slice in &mut self.slices {
            stats::sort(&mut slice.latencies_ms);
            let done = slice.latencies_ms.len();
            n += done;
            delivered += slice.delivered as usize;
            if slice.seconds > 0.0 {
                throughput.push(slice.delivered as f64 / slice.seconds);
            }
            if done > 0 {
                p50.push(stats::nearest_rank(&slice.latencies_ms, 0.5));
                p99.push(stats::nearest_rank(&slice.latencies_ms, 0.99));
            }
            let started = done as u64 + slice.missing;
            within.push(slice.within_limit as f64 / started.max(1) as f64);
            if slice.responses > 0 {
                coverage.push(slice.coverage / slice.responses as f64);
            }
        }
        // The slices themselves, so a reader sees how steady the run was.
        for (name, values) in [
            ("throughput_rps", &throughput),
            ("p50_ms", &p50),
            ("p99_ms", &p99),
            ("within_limit_share", &within),
            ("mean_coverage", &coverage),
        ] {
            if !values.is_empty() {
                let row: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
                println!("# slices {name}: {}", row.join(" "));
            }
        }
        // How much tail the sample supports: a percentile read from fewer
        // than ten samples beyond it is one outlier's opinion.
        let per_slice = self
            .slices
            .iter()
            .map(|s| s.latencies_ms.len())
            .min()
            .unwrap_or(0);
        println!(
            "# a slice's p99 has {} of its {per_slice} samples beyond it; highest percentile with >= 10 beyond: {}",
            stats::samples_beyond(per_slice, 0.99),
            stats::highest_supported_percentile(per_slice)
                .map_or("none".to_string(), |p| format!("p{}", p * 100.0)),
        );
        let median_of = |v: &mut Vec<f64>| {
            if v.is_empty() {
                f64::NAN
            } else {
                stats::median(v)
            }
        };
        vec![
            metric_n("setup_s", stats::median(&mut setup_s), setups.len()),
            metric("peak_rss_mb", peak_rss_mb()),
            metric_n("throughput_rps", median_of(&mut throughput), delivered),
            metric_n("p50_ms", median_of(&mut p50), n),
            metric_n("p99_ms", median_of(&mut p99), n),
            metric_n("within_limit_share", median_of(&mut within), n),
            metric("accuracy_pct", 100.0 - accuracy_loss_pct),
            metric(
                "mean_coverage",
                mean_coverage.unwrap_or_else(|| median_of(&mut coverage)),
            ),
            metric_n(
                "check.failed_share",
                self.failed as f64 / self.attempted.max(1) as f64,
                self.attempted as usize,
            ),
            metric("check.accuracy_loss_pct", accuracy_loss_pct),
        ]
    }

    /// `request` spans with `server.submit` and `server.ticket_wait`
    /// children, plus the two server metrics read off them.
    pub fn server_spans(&self, tracer: &mut Tracer) -> Vec<Metric> {
        let mut submit_us = Vec::new();
        let mut wake_us = Vec::new();
        for op in &self.ops {
            let request = tracer.add("request", None, op.start, op.resolved);
            if let Some(submitted) = op.submitted {
                tracer.add("server.submit", Some(request), op.start, submitted);
                tracer.add("server.ticket_wait", Some(request), submitted, op.resolved);
                submit_us.push((submitted - op.start).as_secs_f64() * 1e6);
            }
            let composed = op.start + op.elapsed;
            wake_us.push(
                op.resolved
                    .saturating_duration_since(composed)
                    .as_secs_f64()
                    * 1e6,
            );
        }
        let n = self.ops.len();
        if n == 0 {
            return Vec::new();
        }
        vec![
            metric_n("server.submit_us", stats::median(&mut submit_us), n),
            metric_n("server.fulfil_wake_us", stats::median(&mut wake_us), n),
        ]
    }
}
