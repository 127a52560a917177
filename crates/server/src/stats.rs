//! Queue-depth and wait-time telemetry — the feedback signals the
//! admission/degradation controller consumes (see [`crate::control`]).
//!
//! Two kinds of signal live here:
//!
//! * **Cumulative counters** (lock-free atomics updated by the accept side
//!   and the dispatcher): lifetime totals for monitoring — submitted,
//!   rejected, completed, shed, batches, high-water marks.
//! * **A sliding window** over the most recent dispatches: per-request
//!   queue waits and response coverage, aggregated into a
//!   [`LoadSnapshot`] (recent depth/capacity ratio, recent mean/p99 queue
//!   wait, recent mean coverage). Control decisions read the snapshot, so
//!   they track *current* load — a cumulative mean over a long-lived
//!   server's whole history would still remember a burst hours after it
//!   subsided.
//!
//! [`ServerStats`] is a consistent-enough snapshot of both for monitoring
//! (individual counters are exact, cross-counter derived values can lag
//! one another by an in-flight request).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The sliding window's raw samples: the most recent `cap` dispatched
/// requests' queue waits (ns) and served requests' mean coverages.
#[derive(Debug)]
struct Window {
    waits_ns: VecDeque<u64>,
    coverages: VecDeque<f64>,
    cap: usize,
}

impl Window {
    fn new(cap: usize) -> Self {
        Window {
            waits_ns: VecDeque::with_capacity(cap),
            coverages: VecDeque::with_capacity(cap),
            cap,
        }
    }

    fn push_wait(&mut self, ns: u64) {
        if self.waits_ns.len() == self.cap {
            self.waits_ns.pop_front();
        }
        self.waits_ns.push_back(ns);
    }

    fn push_coverage(&mut self, coverage: f64) {
        if self.coverages.len() == self.cap {
            self.coverages.pop_front();
        }
        self.coverages.push_back(coverage);
    }
}

/// Live counters shared between the accept side and the dispatcher.
#[derive(Debug)]
pub(crate) struct Counters {
    pub(crate) submitted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) dispatcher_restarts: AtomicU64,
    pub(crate) queue_wait_ns: AtomicU64,
    pub(crate) max_queue_wait_ns: AtomicU64,
    pub(crate) max_queue_depth: AtomicU64,
    /// Recent-samples window (dispatcher writes, snapshots read; the
    /// critical sections are a few ring pushes / one aggregation pass).
    window: Mutex<Window>,
}

impl Default for Counters {
    fn default() -> Self {
        Self::new(crate::ServerConfig::default().stats_window)
    }
}

impl Counters {
    pub(crate) fn new(stats_window: usize) -> Self {
        Counters {
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            dispatcher_restarts: AtomicU64::new(0),
            queue_wait_ns: AtomicU64::new(0),
            max_queue_wait_ns: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            window: Mutex::new(Window::new(stats_window.max(1))),
        }
    }

    fn window(&self) -> std::sync::MutexGuard<'_, Window> {
        // Samples are plain scalars; a poisoned lock is simply taken over.
        self.window
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Record one request leaving the queue after `wait` in it (test
    /// convenience; the dispatcher batches whole rounds through
    /// [`record_dequeues`](Self::record_dequeues)).
    #[cfg(test)]
    pub(crate) fn record_dequeue(&self, wait: Duration) {
        let ns = u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX);
        self.record_dequeues(&[ns]);
    }

    /// Record a whole drained round's queue waits (ns) under **one**
    /// window-lock acquisition. The dispatcher previously took the lock
    /// once per request per round; under multi-worker serving that mutex
    /// is contended cross-thread (every dispatcher and every stats
    /// snapshot), so per-round batching keeps it off the per-request
    /// path.
    pub(crate) fn record_dequeues(&self, waits_ns: &[u64]) {
        if waits_ns.is_empty() {
            return;
        }
        let mut sum: u64 = 0;
        let mut max: u64 = 0;
        for &ns in waits_ns {
            sum = sum.saturating_add(ns);
            max = max.max(ns);
        }
        self.queue_wait_ns.fetch_add(sum, Ordering::Relaxed);
        self.max_queue_wait_ns.fetch_max(max, Ordering::Relaxed);
        let mut window = self.window();
        for &ns in waits_ns {
            window.push_wait(ns);
        }
    }

    /// Record one served response's mean coverage into the window (test
    /// convenience; see [`record_coverages`](Self::record_coverages)).
    #[cfg(test)]
    pub(crate) fn record_coverage(&self, coverage: f64) {
        self.record_coverages(&[coverage]);
    }

    /// Record a served group's coverages under one window-lock
    /// acquisition (the coverage-side counterpart of
    /// [`record_dequeues`](Self::record_dequeues)).
    pub(crate) fn record_coverages(&self, coverages: &[f64]) {
        if coverages.is_empty() {
            return;
        }
        let mut window = self.window();
        for &coverage in coverages {
            window.push_coverage(coverage);
        }
    }

    /// Aggregate the sliding window into a [`LoadSnapshot`].
    /// `components_total`/`components_open` come from the fan-out
    /// service's circuit breakers (see
    /// [`FanOutService::open_components`](at_core::FanOutService::open_components)).
    pub(crate) fn load_snapshot(
        &self,
        queue_depth: usize,
        queue_capacity: usize,
        components_total: usize,
        components_open: usize,
    ) -> LoadSnapshot {
        let window = self.window();
        let sampled = window.waits_ns.len();
        let (mean_ns, p99_ns) = if sampled == 0 {
            (0, 0)
        } else {
            let sum: u128 = window.waits_ns.iter().map(|&ns| u128::from(ns)).sum();
            let mean = u64::try_from(sum / sampled as u128).unwrap_or(u64::MAX);
            // Thin windows report the *max* sample as "p99": with fewer
            // than 100 samples there is no observation beyond the
            // maximum to interpolate toward, and anything short of the
            // max would let a just-(re)started worker exit the ladder on
            // a bogusly low tail estimate. At >= 100 samples this is the
            // standard nearest-rank percentile.
            let p99 = if sampled < 100 {
                window.waits_ns.iter().copied().max().unwrap_or(0)
            } else {
                let mut sorted: Vec<u64> = window.waits_ns.iter().copied().collect();
                sorted.sort_unstable();
                let idx = ((sampled as f64 * 0.99).ceil() as usize).clamp(1, sampled) - 1;
                sorted.get(idx).copied().unwrap_or(u64::MAX)
            };
            (mean, p99)
        };
        let mean_coverage = if window.coverages.is_empty() {
            1.0
        } else {
            window.coverages.iter().sum::<f64>() / window.coverages.len() as f64
        };
        LoadSnapshot {
            queue_depth,
            queue_capacity,
            sampled,
            mean_queue_wait: Duration::from_nanos(mean_ns),
            p99_queue_wait: Duration::from_nanos(p99_ns),
            mean_coverage,
            components_total,
            components_open,
        }
    }

    pub(crate) fn snapshot(
        &self,
        queue_depth: usize,
        queue_capacity: usize,
        components_total: usize,
        components_open: usize,
        stopped: bool,
    ) -> ServerStats {
        let submitted = self.submitted.load(Ordering::Relaxed);
        let completed = self.completed.load(Ordering::Relaxed);
        let shed = self.shed.load(Ordering::Relaxed);
        ServerStats {
            submitted,
            rejected: self.rejected.load(Ordering::Relaxed),
            completed,
            shed,
            in_flight: submitted.saturating_sub(completed).saturating_sub(shed),
            queue_depth,
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            batches_dispatched: self.batches.load(Ordering::Relaxed),
            dispatcher_restarts: self.dispatcher_restarts.load(Ordering::Relaxed),
            steals: 0,
            stolen: 0,
            stopped,
            queue_wait_total: Duration::from_nanos(self.queue_wait_ns.load(Ordering::Relaxed)),
            queue_wait_max: Duration::from_nanos(self.max_queue_wait_ns.load(Ordering::Relaxed)),
            load: self.load_snapshot(
                queue_depth,
                queue_capacity,
                components_total,
                components_open,
            ),
        }
    }
}

/// What the server's recent past looks like: the sliding-window load
/// signals an [`AdmissionController`](crate::AdmissionController) decides
/// on, aggregated over the most recent
/// [`stats_window`](crate::ServerConfig::stats_window) dispatched
/// requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadSnapshot {
    /// Requests waiting in the queue at snapshot time.
    pub queue_depth: usize,
    /// The queue's configured capacity.
    pub queue_capacity: usize,
    /// Queue-wait samples currently in the window (0 on a cold server).
    pub sampled: usize,
    /// Mean queue wait over the window — unlike a cumulative mean, this
    /// *recovers* once a burst subsides and its samples slide out.
    pub mean_queue_wait: Duration,
    /// p99 queue wait over the window.
    pub p99_queue_wait: Duration,
    /// Mean response coverage over the window, in `[0, 1]`; `1.0` on a
    /// cold server (no evidence of degradation yet).
    pub mean_coverage: f64,
    /// Fan-out components behind the service (breaker count).
    pub components_total: usize,
    /// Components whose circuit breaker is currently
    /// [`Open`](at_core::BreakerState::Open) — legs being skipped at
    /// ~zero cost while they cool down. A controller may treat a service
    /// already degraded by failures as closer to its ladder's next rung.
    pub components_open: usize,
}

impl LoadSnapshot {
    /// Queue depth as a fraction of capacity, in `[0, 1]` (1.0 = full).
    pub fn depth_ratio(&self) -> f64 {
        if self.queue_capacity == 0 {
            return 0.0;
        }
        self.queue_depth as f64 / self.queue_capacity as f64
    }
}

/// A telemetry snapshot of one [`Server`](crate::Server).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerStats {
    /// Requests accepted into the queue (including those already served).
    pub submitted: u64,
    /// `try_submit` calls bounced with [`SubmitError::Busy`](crate::SubmitError::Busy).
    pub rejected: u64,
    /// Requests whose ticket has been fulfilled with a response.
    pub completed: u64,
    /// Accepted requests dropped by the admission controller
    /// ([`Decision::Shed`](crate::Decision::Shed)); their tickets report
    /// [`Canceled`](crate::Canceled).
    pub shed: u64,
    /// Accepted requests not yet completed or shed (queued or being
    /// served).
    pub in_flight: u64,
    /// Requests waiting in the queue right now.
    pub queue_depth: usize,
    /// High-water mark of `queue_depth`.
    pub max_queue_depth: u64,
    /// Micro-batches the dispatcher has driven through the service.
    pub batches_dispatched: u64,
    /// Times the supervisor respawned a panicked dispatcher thread
    /// (see [`ServerConfig::max_restarts`](crate::ServerConfig::max_restarts)).
    pub dispatcher_restarts: u64,
    /// Always `0`. Every request is served by the worker it was placed
    /// on (see [`ShardedServer`](crate::ShardedServer)); the field stays
    /// because `benchmark/`'s telemetry reader still reads it.
    pub steals: u64,
    /// Always `0`, like [`steals`](Self::steals).
    pub stolen: u64,
    /// True once the supervisor gave up restarting the dispatcher
    /// (restart budget exhausted): the server is terminally stopped,
    /// queued tickets were canceled, and submissions return
    /// [`SubmitError::Stopped`](crate::SubmitError::Stopped).
    pub stopped: bool,
    /// Total time completed-or-dispatched requests spent queued
    /// (cumulative, lifetime).
    pub queue_wait_total: Duration,
    /// Longest single queue wait observed (lifetime).
    pub queue_wait_max: Duration,
    /// The sliding-window load signals (recent waits, depth ratio,
    /// coverage) — what the admission controller sees.
    pub load: LoadSnapshot,
}

impl ServerStats {
    /// Mean micro-batch size (requests per dispatch); the typed zero
    /// `0.0` — never `NaN` — before the first dispatch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches_dispatched == 0 {
            return 0.0;
        }
        (self.completed + self.shed) as f64 / self.batches_dispatched as f64
    }

    /// Mean queue wait over the recent sliding window (backed by
    /// [`LoadSnapshot::mean_queue_wait`], so a long-lived server's value
    /// tracks *current* load and recovers after a burst); the typed zero
    /// [`Duration::ZERO`] while the window is empty.
    pub fn mean_queue_wait(&self) -> Duration {
        self.load.mean_queue_wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_derives_in_flight_and_means() {
        let c = Counters::new(256);
        c.submitted.store(10, Ordering::Relaxed);
        c.completed.store(5, Ordering::Relaxed);
        c.shed.store(1, Ordering::Relaxed);
        c.batches.store(3, Ordering::Relaxed);
        c.record_dequeue(Duration::from_millis(9));
        c.record_dequeue(Duration::from_millis(3));
        let s = c.snapshot(4, 16, 3, 0, false);
        assert_eq!(s.in_flight, 4, "in flight excludes completed and shed");
        assert_eq!(s.queue_depth, 4);
        assert_eq!(s.mean_batch_size(), 2.0);
        assert_eq!(s.queue_wait_total, Duration::from_millis(12));
        assert_eq!(s.queue_wait_max, Duration::from_millis(9));
        assert_eq!(s.mean_queue_wait(), Duration::from_millis(6));
        assert_eq!(s.load.sampled, 2);
        assert_eq!(s.load.p99_queue_wait, Duration::from_millis(9));
        assert_eq!(s.load.queue_capacity, 16);
        assert_eq!(s.load.depth_ratio(), 0.25);
    }

    #[test]
    fn idle_stats_have_typed_zero_means() {
        // Regression: both mean helpers must return their types' zeros —
        // never NaN — before the first dispatch.
        let s = Counters::new(8).snapshot(0, 8, 3, 0, false);
        assert_eq!(s.mean_batch_size(), 0.0);
        assert!(!s.mean_batch_size().is_nan());
        assert_eq!(s.mean_queue_wait(), Duration::ZERO);
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.load.sampled, 0);
        assert_eq!(s.load.mean_coverage, 1.0, "cold server: no degradation");
    }

    #[test]
    fn windowed_mean_recovers_after_a_burst_subsides() {
        // Regression for the all-time cumulative mean: a long-lived
        // server's mean_queue_wait must reflect current load, so once a
        // burst's samples slide out of the window the mean drops back.
        let c = Counters::new(32);
        for _ in 0..32 {
            c.record_dequeue(Duration::from_millis(80)); // the burst
        }
        let during = c.snapshot(0, 64, 3, 0, false);
        assert_eq!(during.mean_queue_wait(), Duration::from_millis(80));
        for _ in 0..32 {
            c.record_dequeue(Duration::from_micros(50)); // calm again
        }
        let after = c.snapshot(0, 64, 3, 0, false);
        assert_eq!(
            after.mean_queue_wait(),
            Duration::from_micros(50),
            "burst samples slid out of the window"
        );
        // The cumulative total still remembers the burst (monitoring),
        // while the control signal has recovered.
        assert!(after.queue_wait_total > Duration::from_millis(2000));
        assert_eq!(after.queue_wait_max, Duration::from_millis(80));
    }

    #[test]
    fn window_p99_tracks_the_tail() {
        // 50 samples: the nearest-rank p99 index is the largest sample.
        let c = Counters::new(200);
        for _ in 0..49 {
            c.record_dequeue(Duration::from_millis(1));
        }
        c.record_dequeue(Duration::from_millis(100));
        let load = c.load_snapshot(0, 8, 3, 0);
        assert_eq!(load.sampled, 50);
        assert_eq!(load.p99_queue_wait, Duration::from_millis(100));
        assert!(load.mean_queue_wait < Duration::from_millis(3));
    }

    #[test]
    fn thin_window_p99_is_the_max_sample() {
        // Regression: with < 100 samples, nearest-rank indexing short of
        // the tail would report a "p99" *below* the worst observed wait,
        // letting a just-(re)started worker exit the degradation ladder
        // on a bogusly low tail estimate. Thin windows must report the
        // max.
        // Window of 1: the single sample *is* the tail.
        let c = Counters::new(256);
        c.record_dequeue(Duration::from_millis(40));
        assert_eq!(
            c.load_snapshot(0, 8, 3, 0).p99_queue_wait,
            Duration::from_millis(40)
        );

        // Window of 2: the larger sample, never the smaller.
        let c = Counters::new(256);
        c.record_dequeue(Duration::from_millis(1));
        c.record_dequeue(Duration::from_millis(90));
        let load = c.load_snapshot(0, 8, 3, 0);
        assert_eq!(load.sampled, 2);
        assert_eq!(load.p99_queue_wait, Duration::from_millis(90));

        // Window of 99: still below the threshold — max, not rank 98.
        let c = Counters::new(256);
        for ms in 1..=98u64 {
            c.record_dequeue(Duration::from_millis(ms));
        }
        c.record_dequeue(Duration::from_millis(500));
        let load = c.load_snapshot(0, 8, 3, 0);
        assert_eq!(load.sampled, 99);
        assert_eq!(load.p99_queue_wait, Duration::from_millis(500));

        // At 100+ samples the nearest-rank estimate takes over (and with
        // exactly 100 samples rank ⌈0.99·100⌉ is the 99th of 100 — the
        // second-largest).
        c.record_dequeue(Duration::from_millis(700));
        let load = c.load_snapshot(0, 8, 3, 0);
        assert_eq!(load.sampled, 100);
        assert_eq!(load.p99_queue_wait, Duration::from_millis(500));
    }

    #[test]
    fn batched_recording_matches_per_request_recording() {
        // The dispatcher records a whole drained round under one lock;
        // the aggregates must be byte-identical to per-request recording.
        let batched = Counters::new(8);
        let singly = Counters::new(8);
        let waits = [5_000_000u64, 1_000_000, 9_000_000];
        batched.record_dequeues(&waits);
        for &ns in &waits {
            singly.record_dequeue(Duration::from_nanos(ns));
        }
        batched.record_coverages(&[0.5, 1.0]);
        for cov in [0.5, 1.0] {
            singly.record_coverage(cov);
        }
        let b = batched.snapshot(0, 8, 3, 0, false);
        let s = singly.snapshot(0, 8, 3, 0, false);
        assert_eq!(b.queue_wait_total, s.queue_wait_total);
        assert_eq!(b.queue_wait_max, s.queue_wait_max);
        assert_eq!(b.load, s.load);

        // Empty rounds are free: no lock, no samples.
        batched.record_dequeues(&[]);
        batched.record_coverages(&[]);
        assert_eq!(batched.snapshot(0, 8, 3, 0, false).load, b.load);
    }

    #[test]
    fn coverage_window_averages_recent_responses() {
        let c = Counters::new(4);
        for cov in [0.0, 0.0, 1.0, 1.0, 1.0, 1.0] {
            c.record_coverage(cov);
        }
        // Window of 4 keeps only the last four samples.
        let load = c.load_snapshot(0, 8, 3, 0);
        assert_eq!(load.mean_coverage, 1.0);
    }

    #[test]
    fn depth_ratio_handles_zero_capacity() {
        let load = Counters::new(4).load_snapshot(5, 0, 3, 1);
        assert_eq!(load.depth_ratio(), 0.0);
    }
}
