//! Multi-worker sharded serving: N independent [`Server`] workers behind
//! one placement front end.
//!
//! The paper's deployment serves "millions of users" from many parallel
//! components; a single dispatcher thread driving a single
//! [`FanOutService`] caps throughput at one serving loop no matter how
//! many cores exist. [`ShardedServer`] scales the *serving loop* out:
//! each worker owns a full dispatcher stack — bounded queue, dispatcher
//! thread, output pool, sliding-window stats, admission controller, and
//! supervisor — and the front end only decides **placement**.
//!
//! ```text
//!                submissions (any thread)
//!                         │
//!                 route(req.route_key())
//!        ┌────────────────┼────────────────┐
//!        ▼                ▼                ▼
//!    worker 0          worker 1   …    worker N-1
//!   queue+dispatch    queue+dispatch   queue+dispatch
//!   stats+controller  stats+controller stats+controller
//!   supervisor        supervisor       supervisor
//! ```
//!
//! Workers share nothing at serving time: each dispatcher drains only its
//! own queue and parks on its own condvar while that queue is dry.
//!
//! ## Topology and placement
//!
//! Every worker serves a [`FanOutService::replica`] of one service
//! ([`ShardedServer::replicated`]) — same read-only subsets and synopses
//! (`Arc`-shared, no copy), fresh breakers and output pool per worker.
//! Any worker can serve any request, so placement is free to follow
//! locality: the front end places by [`RouteKey::route_key`] (hash
//! affinity). Equal requests land on the same worker, so the duplicate
//! collapse inside the batched serving path keeps seeing its duplicates
//! — on zipf-skewed traffic this cuts the *unique* requests per
//! micro-batch by ~the worker count, which is where the multi-worker
//! throughput win comes from (measured by `at-bench`'s `sweep shard` →
//! `BENCH_shard.json`). A request is served, and admission-controlled,
//! by its hash home; the one exception is a terminally stopped home
//! worker, which fails over to the shallowest live sibling. Hash
//! affinity on a skewed mix leaves hot and cold workers, and nothing
//! rebalances them: like a component in the paper, a worker bounds its
//! tail by what it does with its own input (its admission ladder), not
//! by moving work to its siblings.
//!
//! ## Hot-shard isolation
//!
//! Every worker has its own admission controller (see
//! [`ShardedServer::replicated_with`]) and its own supervisor: a poison
//! storm on one worker climbs *that* worker's degradation ladder and
//! burns *that* worker's restart budget while its siblings' throughput,
//! ladder level, and restart budget stay untouched (chaos-tested in
//! `tests/end_to_end_chaos.rs`). No sibling ever dequeues another
//! worker's requests, so a poison batch never leaves its home worker.

use std::sync::Arc;
use std::time::Instant;

use at_core::{clock, ComposableService, ExecutionPolicy, FanOutService, RouteKey};

use crate::control::{AdmissionController, NoControl};
use crate::stats::{LoadSnapshot, ServerStats};
use crate::{Response, Server, ServerConfig, SubmitError, Ticket};

/// Sizing and placement of a [`ShardedServer`].
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Worker count.
    pub workers: usize,
    /// Per-worker queue/batch/window/supervision sizing.
    pub worker: ServerConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            workers: 2,
            worker: ServerConfig::default(),
        }
    }
}

impl ShardConfig {
    /// Override the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Override the per-worker [`ServerConfig`].
    pub fn with_worker(mut self, worker: ServerConfig) -> Self {
        self.worker = worker;
        self
    }
}

/// N independent serving workers behind a placement front end — see the
/// [module docs](self) for placement.
///
/// Submission takes `&self` (any thread); [`shutdown`](Self::shutdown)
/// or `Drop` drains every worker.
pub struct ShardedServer<S>
where
    S: ComposableService,
{
    workers: Vec<Server<S>>,
}

impl<S> ShardedServer<S>
where
    S: ComposableService + Send + Sync + 'static,
    S::Request: RouteKey + Clone + PartialEq + Send + Sync + 'static,
    S::Output: Send + 'static,
    S::Response: Send + 'static,
{
    /// Start `config.workers` workers, each serving a
    /// [`FanOutService::replica`] of `service` — same `Arc`-shared
    /// read-only subsets and synopses, fresh breakers and output pool per
    /// worker. Admission control defaults to [`NoControl`]; see
    /// [`replicated_with`](Self::replicated_with).
    ///
    /// # Panics
    /// Panics when `config.workers` is zero (a zero-worker cluster is a
    /// construction bug), or on a zero queue capacity / batch cap (see
    /// [`Server::new`]).
    pub fn replicated(service: &FanOutService<S>, config: ShardConfig) -> Self
    where
        S: Clone,
    {
        Self::replicated_with(service, config, |_| Box::new(NoControl))
    }

    /// [`replicated`](Self::replicated) with a per-worker admission
    /// controller factory: `controller_for(i)` builds worker `i`'s
    /// controller, so every worker climbs its own degradation ladder —
    /// the mechanism behind hot-shard isolation.
    ///
    /// # Panics
    /// Panics when `config.workers` is zero, or on a zero queue
    /// capacity / batch cap (see [`Server::new`]).
    pub fn replicated_with(
        service: &FanOutService<S>,
        config: ShardConfig,
        mut controller_for: impl FnMut(usize) -> Box<dyn AdmissionController>,
    ) -> Self
    where
        S: Clone,
    {
        assert!(config.workers > 0, "cluster needs >= 1 worker");
        let workers = (0..config.workers)
            .map(|i| {
                Server::with_controller(
                    Arc::new(service.replica()),
                    config.worker,
                    controller_for(i),
                )
            })
            .collect();
        ShardedServer { workers }
    }

    /// The workers, in placement order (worker `i` is hash home for keys
    /// with `route_key() % len() == i`).
    pub fn workers(&self) -> &[Server<S>] {
        &self.workers
    }

    /// Borrow one worker by index.
    pub fn worker(&self, index: usize) -> Option<&Server<S>> {
        self.workers.get(index)
    }

    /// Worker count.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Always false: construction requires at least one worker.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The hash-affinity home worker index for `req` — which worker
    /// the front end places it on while that worker lives. Exposed so tests
    /// and benches can attribute per-worker telemetry to request keys.
    pub fn home_index(&self, req: &S::Request) -> usize {
        (req.route_key() % self.workers.len() as u64) as usize
    }

    /// Place one submission on its hash-affinity home, failing over from
    /// a terminally stopped home worker to the shallowest live sibling.
    /// Best-effort: a worker that stops *between* placement and enqueue
    /// still bounces the caller with `Stopped`.
    fn place(&self, req: &S::Request) -> Result<&Server<S>, SubmitError> {
        let home = self.home_index(req);
        let worker = self.workers.get(home).ok_or(SubmitError::Stopped)?;
        if !worker.is_stopped() {
            return Ok(worker);
        }
        let mut spill: Option<(&Server<S>, usize)> = None;
        for worker in &self.workers {
            if let Some(depth) = worker.live_depth() {
                if spill.is_none_or(|(_, best)| depth < best) {
                    spill = Some((worker, depth));
                }
            }
        }
        spill.map(|(worker, _)| worker).ok_or(SubmitError::Stopped)
    }

    /// Submit without blocking: place, stamp submitted *now*, enqueue on
    /// the placed worker. [`SubmitError::Busy`] reports that worker's
    /// queue full (other workers may have room — placement follows the
    /// request's key, not queue depth).
    pub fn try_submit(
        &self,
        req: S::Request,
        policy: ExecutionPolicy,
    ) -> Result<Ticket<Response<S>>, SubmitError> {
        self.try_submit_at(req, policy, clock::now())
    }

    /// [`try_submit`](Self::try_submit) with an explicit submission
    /// instant, for replaying recorded streams and deterministic
    /// deadline tests.
    pub fn try_submit_at(
        &self,
        req: S::Request,
        policy: ExecutionPolicy,
        submitted: Instant,
    ) -> Result<Ticket<Response<S>>, SubmitError> {
        self.place(&req)?.try_submit_at(req, policy, submitted)
    }

    /// Submit, blocking while the placed worker's queue is full. Errors
    /// only when that worker is shutting down or terminally stopped.
    pub fn submit(
        &self,
        req: S::Request,
        policy: ExecutionPolicy,
    ) -> Result<Ticket<Response<S>>, SubmitError> {
        self.place(&req)?.submit(req, policy)
    }

    /// Pause every worker's dispatching (see [`Server::pause`]).
    pub fn pause(&self) {
        for worker in &self.workers {
            worker.pause();
        }
    }

    /// Resume every worker's dispatching.
    pub fn resume(&self) {
        for worker in &self.workers {
            worker.resume();
        }
    }

    /// Requests waiting across all worker queues right now.
    pub fn queue_depth(&self) -> usize {
        self.workers.iter().map(Server::queue_depth).sum()
    }

    /// True once **every** worker is terminally stopped (the cluster can
    /// no longer serve anything; it keeps serving — with failover — while
    /// any worker lives).
    pub fn is_stopped(&self) -> bool {
        self.workers.iter().all(Server::is_stopped)
    }

    /// Per-worker telemetry snapshots plus cluster-level aggregation.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            workers: self.workers.iter().map(Server::stats).collect(),
        }
    }

    /// Shut down every worker: stop accepting, drain every queue,
    /// join every dispatcher, and return the final telemetry.
    pub fn shutdown(self) -> ClusterStats {
        ClusterStats {
            workers: self.workers.into_iter().map(Server::shutdown).collect(),
        }
    }
}

/// A telemetry snapshot of a whole [`ShardedServer`]: every worker's
/// [`ServerStats`] in worker order, plus cluster-level sums and an
/// aggregated [`LoadSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterStats {
    /// Per-worker snapshots, in worker order.
    pub workers: Vec<ServerStats>,
}

impl ClusterStats {
    /// Requests accepted across all workers.
    pub fn submitted(&self) -> u64 {
        self.workers.iter().map(|w| w.submitted).sum()
    }

    /// Requests completed across all workers.
    pub fn completed(&self) -> u64 {
        self.workers.iter().map(|w| w.completed).sum()
    }

    /// Requests shed by admission control across all workers.
    pub fn shed(&self) -> u64 {
        self.workers.iter().map(|w| w.shed).sum()
    }

    /// Submissions bounced with `Busy` across all workers.
    pub fn rejected(&self) -> u64 {
        self.workers.iter().map(|w| w.rejected).sum()
    }

    /// Accepted requests not yet completed or shed, cluster-wide.
    pub fn in_flight(&self) -> u64 {
        self.workers.iter().map(|w| w.in_flight).sum()
    }

    /// Micro-batches dispatched across all workers.
    pub fn batches_dispatched(&self) -> u64 {
        self.workers.iter().map(|w| w.batches_dispatched).sum()
    }

    /// Dispatcher respawns across all workers.
    pub fn dispatcher_restarts(&self) -> u64 {
        self.workers.iter().map(|w| w.dispatcher_restarts).sum()
    }

    /// Workers in the terminal stopped state.
    pub fn workers_stopped(&self) -> usize {
        self.workers.iter().filter(|w| w.stopped).count()
    }

    /// A cluster-level [`LoadSnapshot`]: depths, capacities, samples,
    /// and component counts sum across workers; mean wait and coverage
    /// are sample-weighted; the cluster "p99" is the worst worker's p99
    /// (conservative — a cluster is as slow as its hottest shard).
    pub fn load(&self) -> LoadSnapshot {
        let mut agg = LoadSnapshot {
            queue_depth: 0,
            queue_capacity: 0,
            sampled: 0,
            mean_queue_wait: std::time::Duration::ZERO,
            p99_queue_wait: std::time::Duration::ZERO,
            mean_coverage: 1.0,
            components_total: 0,
            components_open: 0,
        };
        let mut wait_weighted_ns: u128 = 0;
        let mut coverage_weighted: f64 = 0.0;
        for w in &self.workers {
            agg.queue_depth += w.load.queue_depth;
            agg.queue_capacity += w.load.queue_capacity;
            agg.sampled += w.load.sampled;
            agg.p99_queue_wait = agg.p99_queue_wait.max(w.load.p99_queue_wait);
            agg.components_total += w.load.components_total;
            agg.components_open += w.load.components_open;
            wait_weighted_ns += w.load.mean_queue_wait.as_nanos() * w.load.sampled as u128;
            coverage_weighted += w.load.mean_coverage * w.load.sampled as f64;
        }
        if agg.sampled > 0 {
            let mean_ns = wait_weighted_ns / agg.sampled as u128;
            agg.mean_queue_wait =
                std::time::Duration::from_nanos(u64::try_from(mean_ns).unwrap_or(u64::MAX));
            agg.mean_coverage = coverage_weighted / agg.sampled as f64;
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn worker_stats(
        submitted: u64,
        completed: u64,
        sampled: usize,
        mean_wait: Duration,
        p99: Duration,
        coverage: f64,
        stopped: bool,
    ) -> ServerStats {
        ServerStats {
            submitted,
            rejected: 1,
            completed,
            shed: 2,
            in_flight: submitted.saturating_sub(completed).saturating_sub(2),
            queue_depth: 3,
            max_queue_depth: 8,
            batches_dispatched: 4,
            dispatcher_restarts: 1,
            steals: 0,
            stolen: 0,
            stopped,
            queue_wait_total: Duration::from_millis(10),
            queue_wait_max: p99,
            load: LoadSnapshot {
                queue_depth: 3,
                queue_capacity: 16,
                sampled,
                mean_queue_wait: mean_wait,
                p99_queue_wait: p99,
                mean_coverage: coverage,
                components_total: 3,
                components_open: 1,
            },
        }
    }

    #[test]
    fn cluster_stats_aggregate_across_workers() {
        let stats = ClusterStats {
            workers: vec![
                worker_stats(
                    100,
                    90,
                    10,
                    Duration::from_millis(2),
                    Duration::from_millis(9),
                    0.5,
                    false,
                ),
                worker_stats(
                    50,
                    40,
                    30,
                    Duration::from_millis(6),
                    Duration::from_millis(40),
                    1.0,
                    true,
                ),
            ],
        };
        assert_eq!(stats.submitted(), 150);
        assert_eq!(stats.completed(), 130);
        assert_eq!(stats.shed(), 4);
        assert_eq!(stats.rejected(), 2);
        assert_eq!(stats.in_flight(), 16);
        assert_eq!(stats.batches_dispatched(), 8);
        assert_eq!(stats.dispatcher_restarts(), 2);
        assert_eq!(stats.workers_stopped(), 1);
        let load = stats.load();
        assert_eq!(load.queue_depth, 6);
        assert_eq!(load.queue_capacity, 32);
        assert_eq!(load.sampled, 40);
        // Sample-weighted mean: (2ms·10 + 6ms·30) / 40 = 5ms.
        assert_eq!(load.mean_queue_wait, Duration::from_millis(5));
        // Cluster p99 is the worst worker's p99.
        assert_eq!(load.p99_queue_wait, Duration::from_millis(40));
        // Sample-weighted coverage: (0.5·10 + 1.0·30) / 40 = 0.875.
        assert!((load.mean_coverage - 0.875).abs() < 1e-12);
        assert_eq!(load.components_total, 6);
        assert_eq!(load.components_open, 2);
    }

    #[test]
    fn empty_window_cluster_load_keeps_typed_zeros() {
        let stats = ClusterStats {
            workers: vec![worker_stats(
                0,
                0,
                0,
                Duration::ZERO,
                Duration::ZERO,
                1.0,
                false,
            )],
        };
        let load = stats.load();
        assert_eq!(load.sampled, 0);
        assert_eq!(load.mean_queue_wait, Duration::ZERO);
        assert_eq!(load.mean_coverage, 1.0, "cold cluster: no degradation");
    }
}
