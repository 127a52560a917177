//! # at-server
//!
//! The asynchronous serving front end of the AccuracyTrader reproduction:
//! a hand-rolled reactor that lets one process multiplex thousands of
//! in-flight requests against a single
//! [`FanOutService`](at_core::FanOutService), with the paper's deadline
//! semantics preserved end to end.
//!
//! Algorithm 1 measures its latency deadline `l_spe` from the request's
//! *submission* instant, so a serving system's queueing delay must count
//! against the deadline — a synchronous `serve` call cannot express that,
//! because callers queue outside the service where no clock is running.
//! [`Server`] closes the gap:
//!
//! * **Bounded submission queue.** [`Server::try_submit`] stamps each
//!   request with its [`Instant`] at enqueue and returns a [`Ticket`]
//!   immediately; a full queue bounces with [`SubmitError::Busy`]
//!   (backpressure), and [`Server::submit`] is the blocking variant.
//! * **Micro-batching dispatcher.** A dedicated thread drains the queue
//!   into micro-batches of at most
//!   [`max_batch`](ServerConfig::max_batch) requests, groups each batch
//!   by [`ExecutionPolicy`], and drives one
//!   [`FanOutService::serve_batch_at`](at_core::FanOutService::serve_batch_at)
//!   call per group — one fan-out for the whole micro-batch, each
//!   component running the group's distinct requests in turn, with
//!   duplicate requests collapsed under clock-free policies.
//! * **Per-request completion handles.** Each submission's [`Ticket`] is
//!   a oneshot: block on it ([`Ticket::wait`]), poll it
//!   ([`Ticket::try_take`]), or `.await` it ([`Ticket`] implements
//!   `Future`), so the number of in-flight requests is limited by the
//!   queue bound, not by caller threads.
//!
//! ## The deadline-accounting contract
//!
//! A request's `submitted` instant is its enqueue instant (or the explicit
//! instant given to [`Server::try_submit_at`], for replay/testing). Every
//! layer below measures `l_spe` from that instant, so **time spent waiting
//! in the submission queue — and behind earlier requests of the same
//! micro-batch — counts against `Deadline` policies** exactly like the
//! paper's queueing delay: a request that waited past its whole deadline
//! degrades to synopsis-only coverage instead of blowing the tail. Under
//! clock-free policies (`Exact`, `SynopsisOnly`, `Budgeted`) responses are
//! *identical* to calling `serve_at` with the same submitted instants;
//! only `ServiceResponse::elapsed` reflects the waiting.
//!
//! ## Telemetry and the control plane
//!
//! [`Server::stats`] exposes queue depth, high-water marks, batch counts,
//! cumulative/max queue wait, and a **sliding-window** [`LoadSnapshot`]
//! (recent mean/p99 queue wait, depth/capacity ratio, recent response
//! coverage) — the feedback signals the admission controller consumes.
//!
//! Every dispatch round flows through the control plane (see
//! [`control`](crate::control) for the controllers):
//!
//! ```text
//!   submission queue ──drain──▶ micro-batch (≤ max_batch, FIFO)
//!                                  │
//!                                  ▼
//!             LoadSnapshot from the sliding window
//!                                  │
//!                   controller.observe(&snapshot)
//!                                  │
//!             per request, newest submission first:
//!              controller.decide(&snapshot, &policy)
//!                 ├─ Admit            keep the requested policy
//!                 ├─ Degrade(rung)    swap in the cheaper rung
//!                 └─ Shed             drop; ticket → Canceled
//!                                  │
//!                                  ▼
//!            group by effective policy (first appearance)
//!                                  │
//!                                  ▼
//!              one serve_batch_at call per policy group
//!                                  │
//!                                  ▼
//!        fulfil tickets; record waits + coverage into window
//! ```
//!
//! The default controller is [`NoControl`] — every request admitted, the
//! exact pre-control dispatcher behavior (proptest-proven). Plug in a
//! [`LadderController`] via [`Server::with_controller`] to get the
//! paper's overload story: under sustained queue pressure it degrades the
//! newest fraction of traffic down the
//! [`DegradationLadder`](at_core::DegradationLadder) (`Deadline` →
//! `Budgeted` → `SynopsisOnly`) instead of letting queue wait blow every
//! deadline, and recovers with hysteresis once the backlog drains.
//!
//! ## Supervision and the terminal stop
//!
//! Most component faults never reach this crate: the fan-out contains a
//! panicking leg at the containment boundary and serves from the
//! survivors (see `at_core::containment`). What *can* still kill the
//! dispatcher thread is a fault on the dispatcher's own stack — above
//! all a panicking `compose`, which runs outside the per-leg boundary. A
//! supervisor thread owns the dispatcher: when it panics, only the
//! in-flight micro-batch's tickets report [`Canceled`] (their senders
//! drop during the unwind); still-queued entries survive untouched, and
//! the supervisor respawns the dispatcher with bounded exponential
//! backoff. A dispatcher that completed requests since the previous
//! crash earns its restart budget back; after
//! [`max_restarts`](ServerConfig::max_restarts) consecutive no-progress
//! crashes the supervisor gives up — the server enters a **terminal
//! stopped state**: queued tickets are canceled and every submission is
//! answered with [`SubmitError::Stopped`] (distinct from the transient
//! [`SubmitError::Busy`], which invites a retry).
//!
//! Orderly [`Server::shutdown`] (and `Drop`) stops accepting, **drains**
//! every queued request, and joins the dispatcher, so no ticket is left
//! dangling; a ticket only reports [`Canceled`] if it was in a crashed
//! micro-batch, if the server stopped terminally — or if the admission
//! controller shed the request under extreme overload (counted in
//! [`ServerStats::shed`]).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use at_core::{
    clock, ComposableService, ExecutionPolicy, FanOutService, RouteKey, ServiceResponse,
};

pub mod control;
pub mod shard;
mod stats;
mod ticket;

pub use control::{AdmissionController, Decision, LadderConfig, LadderController, NoControl};
pub use shard::{ClusterStats, ShardConfig, ShardedServer};
pub use stats::{LoadSnapshot, ServerStats};
pub use ticket::{Canceled, Ticket};

use stats::Counters;
use ticket::TicketSender;

/// Sizing of a [`Server`]'s queue, micro-batches, and telemetry window.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Most requests allowed to wait in the submission queue; beyond it,
    /// [`Server::try_submit`] bounces with [`SubmitError::Busy`].
    pub queue_capacity: usize,
    /// Most requests per dispatched micro-batch. Larger batches amortize
    /// the fan-out further but make late-in-batch `Deadline` requests
    /// wait longer behind their batch.
    pub max_batch: usize,
    /// Samples kept in the sliding telemetry window backing
    /// [`LoadSnapshot`] (and [`ServerStats::mean_queue_wait`]): large
    /// enough to smooth one micro-batch, small enough that a subsided
    /// burst slides out quickly.
    pub stats_window: usize,
    /// Consecutive no-progress dispatcher crashes the supervisor absorbs
    /// before giving up. Each crash inside this budget respawns the
    /// dispatcher (queued work survives; only the in-flight batch's
    /// tickets cancel); completing any request since the previous crash
    /// resets the budget. Exceeding it stops the server terminally:
    /// queued tickets cancel and submissions return
    /// [`SubmitError::Stopped`].
    pub max_restarts: u32,
    /// Base delay before the first respawn; doubles per consecutive
    /// crash (capped), so a hard crash loop cannot spin a core.
    pub restart_backoff: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 4096,
            max_batch: 64,
            stats_window: 256,
            max_restarts: 5,
            restart_backoff: Duration::from_millis(1),
        }
    }
}

impl ServerConfig {
    /// Override the queue capacity.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Override the micro-batch cap.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Override the sliding telemetry window size.
    pub fn with_stats_window(mut self, stats_window: usize) -> Self {
        self.stats_window = stats_window;
        self
    }

    /// Override the supervisor's consecutive-crash restart budget.
    pub fn with_max_restarts(mut self, max_restarts: u32) -> Self {
        self.max_restarts = max_restarts;
        self
    }

    /// Override the base respawn backoff.
    pub fn with_restart_backoff(mut self, restart_backoff: Duration) -> Self {
        self.restart_backoff = restart_backoff;
        self
    }
}

/// Why a submission was not accepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — shed load or retry later.
    Busy,
    /// The server is shutting down and accepts no new requests.
    ShuttingDown,
    /// The supervisor exhausted its restart budget on a crashing
    /// dispatcher and stopped the server terminally (see
    /// [`ServerConfig::max_restarts`]). Unlike [`Busy`](Self::Busy),
    /// retrying cannot succeed.
    Stopped,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy => write!(f, "submission queue full"),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
            SubmitError::Stopped => {
                write!(f, "server stopped: dispatcher restart budget exhausted")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// One queued request.
struct Entry<R, T> {
    req: R,
    policy: ExecutionPolicy,
    /// Deadline-accounting instant (`l_spe` measures from here).
    submitted: Instant,
    /// Actual enqueue instant (queue-wait telemetry measures from here;
    /// equals `submitted` except under `try_submit_at`).
    enqueued: Instant,
    sender: TicketSender<T>,
}

struct QueueState<R, T> {
    entries: VecDeque<Entry<R, T>>,
    paused: bool,
    shutdown: bool,
    /// Terminal: the supervisor gave up restarting the dispatcher.
    stopped: bool,
}

/// State shared between the accept side and the dispatcher thread.
struct SharedQueue<R, T> {
    state: Mutex<QueueState<R, T>>,
    /// Dispatcher wakeup: work arrived, resumed, or shutting down.
    work: Condvar,
    /// Blocking-submitter wakeup: queue space freed, or shutting down.
    space: Condvar,
    counters: Counters,
    capacity: usize,
}

impl<R, T> SharedQueue<R, T> {
    /// Lock the queue state. The state is consistent between operations
    /// (a `VecDeque` plus flags), so a poisoned lock is simply taken over.
    fn state(&self) -> MutexGuard<'_, QueueState<R, T>> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Shorthand for a service's queue-shared state.
type SharedOf<S> = SharedQueue<<S as at_core::ApproximateService>::Request, Response<S>>;

/// Shorthand for a service's queued entries.
type EntryOf<S> = Entry<<S as at_core::ApproximateService>::Request, Response<S>>;

/// The response type a server for service `S` completes tickets with.
pub type Response<S> = ServiceResponse<<S as ComposableService>::Response>;

/// An async serving front end over one [`FanOutService`].
///
/// See the [crate docs](crate) for the micro-batching and
/// deadline-accounting contract. Submission takes `&self`, so one
/// `Server` can be shared across accept threads; [`Server::shutdown`]
/// (or `Drop`) drains the queue and joins the dispatcher.
pub struct Server<S>
where
    S: ComposableService,
{
    service: Arc<FanOutService<S>>,
    shared: Arc<SharedOf<S>>,
    supervisor: Option<JoinHandle<()>>,
}

impl<S> Server<S>
where
    S: ComposableService + Send + Sync + 'static,
    S::Request: Clone + PartialEq + RouteKey + Send + Sync + 'static,
    S::Output: Send + 'static,
    S::Response: Send + 'static,
{
    /// Start a server over `service`, spawning its dispatcher thread.
    /// Admission control defaults to [`NoControl`] (admit everything);
    /// see [`with_controller`](Self::with_controller).
    ///
    /// The service is shared: callers keeping a clone of the [`Arc`] can
    /// still serve synchronously (e.g. to cross-check responses) — the
    /// service's interior state (the output pool) is thread-safe.
    ///
    /// # Panics
    /// Panics when `config.queue_capacity` or `config.max_batch` is zero.
    pub fn new(service: Arc<FanOutService<S>>, config: ServerConfig) -> Self {
        Self::with_controller(service, config, NoControl)
    }

    /// [`new`](Self::new) with an explicit admission controller: the
    /// dispatcher consults it for every request of every micro-batch (see
    /// the [crate docs](crate) decision flow), so a [`LadderController`]
    /// can degrade or shed a fraction of traffic under overload.
    ///
    /// # Panics
    /// Panics when `config.queue_capacity` or `config.max_batch` is zero.
    pub fn with_controller(
        service: Arc<FanOutService<S>>,
        config: ServerConfig,
        controller: impl AdmissionController + 'static,
    ) -> Self {
        assert!(config.queue_capacity > 0, "queue capacity must be >= 1");
        assert!(config.max_batch > 0, "micro-batch cap must be >= 1");
        let shared: Arc<SharedOf<S>> = Arc::new(SharedQueue {
            state: Mutex::new(QueueState {
                entries: VecDeque::new(),
                paused: false,
                shutdown: false,
                stopped: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            counters: Counters::new(config.stats_window),
            capacity: config.queue_capacity,
        });
        let supervisor = {
            let service = service.clone();
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("at-server-supervisor".into())
                .spawn(move || supervise(&service, &shared, config, &controller))
                // lint: allow(panic-freedom) reason=construction-time spawn failure is an unrecoverable environment error, not a serving-path condition
                .expect("spawn supervisor thread")
        };
        Server {
            service,
            shared,
            supervisor: Some(supervisor),
        }
    }

    /// [`new`](Self::new) taking the service by value.
    pub fn from_service(service: FanOutService<S>, config: ServerConfig) -> Self {
        Self::new(Arc::new(service), config)
    }

    /// The served fan-out service.
    pub fn service(&self) -> &Arc<FanOutService<S>> {
        &self.service
    }

    /// Submit a request without blocking: it is stamped submitted *now*
    /// (queue wait from here on counts against a `Deadline` policy) and
    /// queued for the next micro-batch. Errors with [`SubmitError::Busy`]
    /// when the bounded queue is full — the server's backpressure signal.
    pub fn try_submit(
        &self,
        req: S::Request,
        policy: ExecutionPolicy,
    ) -> Result<Ticket<Response<S>>, SubmitError> {
        self.try_submit_at(req, policy, clock::now())
    }

    /// [`try_submit`](Self::try_submit) with an explicit submission
    /// instant, for replaying recorded streams (arrival processes) and for
    /// deterministic deadline tests. Queue-wait *telemetry* still measures
    /// from the actual enqueue instant.
    pub fn try_submit_at(
        &self,
        req: S::Request,
        policy: ExecutionPolicy,
        submitted: Instant,
    ) -> Result<Ticket<Response<S>>, SubmitError> {
        let state = self.shared.state();
        if state.stopped {
            return Err(SubmitError::Stopped);
        }
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if state.entries.len() >= self.shared.capacity {
            self.shared
                .counters
                .rejected
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Err(SubmitError::Busy);
        }
        Ok(self.enqueue(state, req, policy, submitted))
    }

    /// Submit a request, blocking while the queue is full. Errors only
    /// when the server is shutting down or terminally stopped.
    pub fn submit(
        &self,
        req: S::Request,
        policy: ExecutionPolicy,
    ) -> Result<Ticket<Response<S>>, SubmitError> {
        let mut state = self.shared.state();
        loop {
            if state.stopped {
                return Err(SubmitError::Stopped);
            }
            if state.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if state.entries.len() < self.shared.capacity {
                break;
            }
            state = self
                .shared
                .space
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        Ok(self.enqueue(state, req, policy, clock::now()))
    }

    fn enqueue(
        &self,
        mut state: MutexGuard<'_, QueueState<S::Request, Response<S>>>,
        req: S::Request,
        policy: ExecutionPolicy,
        submitted: Instant,
    ) -> Ticket<Response<S>> {
        let (sender, ticket) = ticket::ticket();
        state.entries.push_back(Entry {
            req,
            policy,
            submitted,
            enqueued: clock::now(),
            sender,
        });
        let depth = state.entries.len() as u64;
        drop(state);
        let counters = &self.shared.counters;
        counters
            .submitted
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        counters
            .max_queue_depth
            .fetch_max(depth, std::sync::atomic::Ordering::Relaxed);
        self.shared.work.notify_one();
        ticket
    }

    /// Stop dispatching; queued and new requests wait until
    /// [`resume`](Self::resume). (Shutdown overrides a pause to drain.)
    pub fn pause(&self) {
        self.shared.state().paused = true;
    }

    /// Resume dispatching after [`pause`](Self::pause).
    pub fn resume(&self) {
        self.shared.state().paused = false;
        self.shared.work.notify_all();
    }

    /// Requests waiting in the queue right now.
    pub fn queue_depth(&self) -> usize {
        self.shared.state().entries.len()
    }

    /// Queue depth if the worker is still serving, `None` once terminally
    /// stopped — both read under one lock, for the router's failover
    /// placement.
    pub(crate) fn live_depth(&self) -> Option<usize> {
        let state = self.shared.state();
        if state.stopped {
            None
        } else {
            Some(state.entries.len())
        }
    }

    /// True once the supervisor has given up restarting a crashing
    /// dispatcher and stopped the server terminally (see
    /// [`ServerConfig::max_restarts`]); submissions now return
    /// [`SubmitError::Stopped`].
    pub fn is_stopped(&self) -> bool {
        self.shared.state().stopped
    }

    /// A telemetry snapshot (see [`ServerStats`]).
    pub fn stats(&self) -> ServerStats {
        self.shared.counters.snapshot(
            self.queue_depth(),
            self.shared.capacity,
            self.service.components().len(),
            self.service.open_components(),
            self.is_stopped(),
        )
    }

    /// Shut down: stop accepting, drain every queued request through the
    /// dispatcher (fulfilling all outstanding tickets), join it, and
    /// return the final telemetry. Dropping the server does the same.
    pub fn shutdown(mut self) -> ServerStats {
        self.begin_shutdown();
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        self.stats()
    }
}

impl<S> Server<S>
where
    S: ComposableService,
{
    fn begin_shutdown(&self) {
        self.shared.state().shutdown = true;
        self.shared.work.notify_all();
        self.shared.space.notify_all();
    }
}

impl<S> Drop for Server<S>
where
    S: ComposableService,
{
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

/// The supervisor: run the dispatcher in a scoped thread and, when it
/// panics (a fault escaped the fan-out's per-leg containment — above all
/// a panicking `compose`, which runs on the dispatcher's own stack),
/// respawn it. Only the crashed micro-batch's tickets are lost (their
/// senders drop during the unwind, so waiters see [`Canceled`]);
/// still-queued entries survive the restart untouched.
///
/// The restart budget is per crash *streak*: completing any request
/// since the previous crash resets it, so a long-lived server that hits
/// an occasional poison request keeps serving, while a hard crash loop
/// (every respawn dies without progress) exhausts the budget
/// deterministically. On give-up the server enters the terminal stopped
/// state: queued tickets cancel, blocked submitters wake, and every
/// later submission answers [`SubmitError::Stopped`].
fn supervise<S>(
    service: &FanOutService<S>,
    shared: &SharedOf<S>,
    config: ServerConfig,
    controller: &dyn AdmissionController,
) where
    S: ComposableService + Sync,
    S::Request: Clone + PartialEq + RouteKey + Send + Sync,
    S::Output: Send,
    S::Response: Send,
{
    let mut crash_streak: u32 = 0;
    let mut completed_at_last_crash: u64 = 0;
    loop {
        let run = std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("at-server-dispatcher".into())
                .spawn_scoped(scope, || {
                    dispatch_loop(service, shared, config.max_batch, controller)
                })
                // lint: allow(panic-freedom) reason=spawn failure here is an unrecoverable environment error, and the supervisor thread owns no lock a panic could poison
                .expect("spawn dispatcher thread")
                .join()
        });
        match run {
            Ok(()) => return, // orderly exit: shut down and drained
            Err(payload) => {
                drop(payload); // the fault's payload, not ours to rethrow
                               // The dispatcher can die *between* draining a batch and
                               // notifying `space` — a submitter blocked on a then-full
                               // queue would sleep on freed room until some later
                               // notify (or forever on an otherwise idle server). Wake
                               // both sides now: blocked submitters re-check a queue
                               // with room, and a paused-then-resumed state is
                               // re-observed by the respawned dispatcher.
                shared.space.notify_all();
                shared.work.notify_all();
                let completed = shared
                    .counters
                    .completed
                    .load(std::sync::atomic::Ordering::Relaxed);
                if completed > completed_at_last_crash {
                    crash_streak = 0; // progress since last crash: budget back
                }
                completed_at_last_crash = completed;
                if crash_streak >= config.max_restarts {
                    mark_stopped(shared);
                    return;
                }
                crash_streak += 1;
                shared
                    .counters
                    .dispatcher_restarts
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                // Capped exponential backoff; skipped when a shutdown is
                // already pending so the drain stays prompt.
                let backoff = config
                    .restart_backoff
                    .saturating_mul(1u32 << (crash_streak - 1).min(10));
                if !backoff.is_zero() && !shared.state().shutdown {
                    std::thread::sleep(backoff);
                }
            }
        }
    }
}

/// Enter the terminal stopped state: cancel every queued ticket, and wake
/// the dispatcher waiters and blocked submitters so nobody blocks on a
/// queue that will never drain again.
fn mark_stopped<R, T>(shared: &SharedQueue<R, T>) {
    let mut state = shared.state();
    state.stopped = true;
    state.entries.clear(); // dropping the senders cancels the tickets
    drop(state);
    shared.work.notify_all();
    shared.space.notify_all();
}

/// The dispatcher: drain micro-batches, consult the admission controller
/// per request, group by *effective* policy, serve each group in one
/// batched call, fulfil tickets. Exits once shut down **and** drained.
/// Runs under [`supervise`]; a panic here cancels only the drained
/// batch's tickets and the supervisor respawns the loop.
///
/// The dispatcher only ever drains its own queue and parks on its
/// `work` condvar while that queue is dry or paused: in a
/// [`ShardedServer`] a request is served, and admission-controlled, by
/// the worker it was placed on.
fn dispatch_loop<S>(
    service: &FanOutService<S>,
    shared: &SharedOf<S>,
    max_batch: usize,
    controller: &dyn AdmissionController,
) where
    S: ComposableService + Sync,
    S::Request: Clone + PartialEq + RouteKey + Sync,
    S::Output: Send,
{
    // Per-round scratch, reused across the dispatcher's lifetime: the
    // whole round's waits/coverages flush into the stats window under
    // one lock each (`record_dequeues`/`record_coverages`), instead of
    // one lock acquisition per request.
    let mut waits_scratch: Vec<u64> = Vec::new();
    let mut coverage_scratch: Vec<f64> = Vec::new();
    loop {
        let (batch, backlog) = {
            let mut state = shared.state();
            loop {
                if !state.entries.is_empty() && (!state.paused || state.shutdown) {
                    let depth = state.entries.len();
                    let take = depth.min(max_batch);
                    break (state.entries.drain(..take).collect(), depth);
                }
                if state.shutdown {
                    return; // drained
                }
                state = shared
                    .work
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        shared.space.notify_all();
        serve_round(
            service,
            shared,
            batch,
            backlog,
            controller,
            &mut waits_scratch,
            &mut coverage_scratch,
        );
    }
}

/// Serve one drained round: record the round's queue waits (one window
/// lock), consult the controller, group by effective policy, drive one
/// `serve_batch_at` per group, and fulfil the tickets.
fn serve_round<S>(
    service: &FanOutService<S>,
    shared: &SharedOf<S>,
    batch: Vec<EntryOf<S>>,
    backlog: usize,
    controller: &dyn AdmissionController,
    waits_scratch: &mut Vec<u64>,
    coverage_scratch: &mut Vec<f64>,
) where
    S: ComposableService + Sync,
    S::Request: Clone + PartialEq + RouteKey + Sync,
    S::Output: Send,
{
    let dispatched = clock::now();
    waits_scratch.clear();
    for entry in &batch {
        let wait = dispatched.saturating_duration_since(entry.enqueued);
        waits_scratch.push(u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX));
    }
    shared.counters.record_dequeues(waits_scratch);
    shared
        .counters
        .batches
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);

    // The control plane (see the crate docs' decision flow): one
    // snapshot per round — including this round's just-recorded waits
    // and the backlog depth at drain time — then one decision per
    // request, consulted newest-first so "degrade the newest fraction
    // of traffic first" is what a fractional controller does. The
    // pass-through controller skips all of it: no snapshot, no
    // decisions buffer — the uncontrolled hot path is unchanged.
    let decisions: Option<Vec<Decision>> = if controller.is_pass_through() {
        None
    } else {
        let snapshot = shared.counters.load_snapshot(
            backlog - batch.len(),
            shared.capacity,
            service.components().len(),
            service.open_components(),
        );
        controller.observe(&snapshot);
        let mut decisions = vec![Decision::Admit; batch.len()];
        for (slot, entry) in decisions.iter_mut().zip(&batch).rev() {
            *slot = controller.decide(&snapshot, &entry.policy);
        }
        Some(decisions)
    };
    // Group by effective policy in first-appearance order:
    // `serve_batch_at` drives one policy per call, and mixed-policy
    // streams are the norm (the controller degrades some requests,
    // not all — no batch splitting needed). Shed entries drop here:
    // dropping the sender cancels the ticket, and the shed counter
    // owns the accounting.
    let mut groups: Vec<(ExecutionPolicy, Vec<EntryOf<S>>)> = Vec::new();
    for (i, entry) in batch.into_iter().enumerate() {
        let decision = decisions
            .as_ref()
            .and_then(|d| d.get(i).copied())
            .unwrap_or(Decision::Admit);
        let policy = match decision {
            Decision::Shed => {
                shared
                    .counters
                    .shed
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                continue;
            }
            Decision::Degrade(rung) => rung,
            Decision::Admit => entry.policy,
        };
        match groups.iter_mut().find(|(p, _)| *p == policy) {
            Some((_, group)) => group.push(entry),
            None => groups.push((policy, vec![entry])),
        }
    }
    for (policy, group) in groups {
        let mut reqs = Vec::with_capacity(group.len());
        let mut submitted = Vec::with_capacity(group.len());
        let mut senders = Vec::with_capacity(group.len());
        for entry in group {
            reqs.push(entry.req);
            submitted.push(entry.submitted);
            senders.push(entry.sender);
        }
        let responses = service.serve_batch_at(&reqs, &policy, &submitted);
        coverage_scratch.clear();
        for response in &responses {
            coverage_scratch.push(response.mean_coverage());
        }
        // Coverage lands in the window before any of the group's tickets
        // resolve (one lock per group), preserving the old per-response
        // record-then-fulfil ordering for stats readers.
        shared.counters.record_coverages(coverage_scratch);
        for (sender, response) in senders.into_iter().zip(responses) {
            shared
                .counters
                .completed
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            sender.fulfill(response);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_core::{partition_rows, ApproximateService, Correlation, Ctx};
    use at_synopsis::{AggregationMode, SparseRow, SynopsisConfig};
    use std::time::Duration;

    /// Toy composable service: counts original rows each component
    /// processed (the shape used across at-core's own tests).
    struct CountService;

    impl ApproximateService for CountService {
        type Row = at_synopsis::SparseRow;
        type Request = u32;
        type Output = usize;

        fn process_synopsis(&self, ctx: Ctx<'_>, _r: &u32, corr: &mut Vec<Correlation>) -> usize {
            corr.extend(ctx.store.synopsis().iter().map(|p| Correlation {
                node: p.node,
                score: p.member_count as f64,
            }));
            0
        }

        fn improve(
            &self,
            _ctx: Ctx<'_>,
            _r: &u32,
            out: &mut usize,
            _node: at_rtree::NodeId,
            members: &[u64],
        ) {
            *out += members.len();
        }

        fn process_exact(&self, ctx: Ctx<'_>, _r: &u32) -> usize {
            ctx.dataset.len()
        }
    }

    impl ComposableService for CountService {
        type Response = usize;

        fn compose(&self, _r: &u32, parts: &[usize]) -> usize {
            parts.iter().sum()
        }
    }

    /// A 3-component fan-out over the usual 90-row toy dataset, with the
    /// caller's choice of service (so the chaos tests can plug in
    /// panicking variants).
    fn fanout_of<S>(make: impl Fn() -> S + Sync) -> FanOutService<S>
    where
        S: ApproximateService<Request = u32> + Send + Sync,
        S::Output: Send,
    {
        let rows: Vec<SparseRow> = (0..90u32)
            .map(|r| SparseRow::from_pairs((0..6).map(|c| (c, ((r + c) % 4) as f64)).collect()))
            .collect();
        let subsets = partition_rows(6, rows, 3).expect("3 components");
        let cfg = SynopsisConfig {
            svd: at_linalg::svd::SvdConfig::default().with_epochs(8),
            size_ratio: 10,
            ..SynopsisConfig::default()
        };
        FanOutService::build(subsets, AggregationMode::Mean, cfg, make)
    }

    fn quick_service() -> FanOutService<CountService> {
        fanout_of(|| CountService)
    }

    #[test]
    fn submitted_requests_match_synchronous_serve() {
        let server = Server::from_service(quick_service(), ServerConfig::default());
        let service = server.service().clone();
        let policies = [
            ExecutionPolicy::Exact,
            ExecutionPolicy::SynopsisOnly,
            ExecutionPolicy::budgeted(1),
            ExecutionPolicy::budgeted(usize::MAX),
        ];
        let mut pending = Vec::new();
        for (i, policy) in policies.iter().cycle().take(24).enumerate() {
            let submitted = Instant::now();
            let ticket = server
                .try_submit_at(i as u32 % 3, *policy, submitted)
                .expect("queue has room");
            pending.push((i as u32 % 3, *policy, submitted, ticket));
        }
        for (req, policy, submitted, ticket) in pending {
            let got = ticket.wait().expect("fulfilled");
            let want = service.serve_at(&req, &policy, submitted);
            assert_eq!(got.response, want.response, "{policy:?}");
            assert_eq!(got.components, want.components, "{policy:?}");
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 24);
        assert_eq!(stats.in_flight, 0);
        assert!(stats.batches_dispatched >= 1);
    }

    #[test]
    fn bounded_queue_signals_busy_and_counts_rejections() {
        let server = Server::from_service(
            quick_service(),
            ServerConfig::default()
                .with_queue_capacity(2)
                .with_max_batch(8),
        );
        server.pause();
        let policy = ExecutionPolicy::budgeted(1);
        let a = server.try_submit(0, policy).expect("slot 1");
        let b = server.try_submit(1, policy).expect("slot 2");
        assert_eq!(server.try_submit(2, policy).unwrap_err(), SubmitError::Busy);
        assert_eq!(server.stats().rejected, 1);
        assert_eq!(server.stats().queue_depth, 2);
        server.resume();
        a.wait().expect("served after resume");
        b.wait().expect("served after resume");
    }

    #[test]
    fn queue_wait_counts_against_deadlines() {
        let server = Server::from_service(quick_service(), ServerConfig::default());
        let service = server.service().clone();
        let now = Instant::now();
        let Some(past) = now.checked_sub(Duration::from_secs(60)) else {
            return; // monotonic clock younger than the offset (fresh boot)
        };
        let policy = ExecutionPolicy::deadline(Duration::from_secs(30));
        // Queued past its whole deadline: must degrade to synopsis-only.
        let expired = server.try_submit_at(1, policy, past).unwrap();
        let fresh = server.try_submit_at(1, policy, now).unwrap();
        let expired = expired.wait().unwrap();
        assert_eq!(expired.sets_processed(), 0, "expired request sheds work");
        assert_eq!(
            expired.response,
            service.serve(&1, &ExecutionPolicy::SynopsisOnly).response
        );
        assert!(expired.elapsed >= Duration::from_secs(60));
        let fresh = fresh.wait().unwrap();
        assert!(fresh.sets_processed() > 0, "fresh request improves");
    }

    #[test]
    fn mixed_policy_batches_are_grouped_not_reordered_per_request() {
        let server =
            Server::from_service(quick_service(), ServerConfig::default().with_max_batch(16));
        let service = server.service().clone();
        server.pause(); // force one micro-batch containing all policies
        let submissions: Vec<(u32, ExecutionPolicy)> = (0..12)
            .map(|i| {
                let policy = match i % 3 {
                    0 => ExecutionPolicy::SynopsisOnly,
                    1 => ExecutionPolicy::budgeted(2),
                    _ => ExecutionPolicy::budgeted(usize::MAX),
                };
                (i as u32 % 2, policy)
            })
            .collect();
        let tickets: Vec<_> = submissions
            .iter()
            .map(|&(req, policy)| server.try_submit(req, policy).unwrap())
            .collect();
        server.resume();
        for ((req, policy), ticket) in submissions.iter().zip(tickets) {
            let got = ticket.wait().unwrap();
            let want = service.serve(req, policy);
            assert_eq!(got.response, want.response, "{policy:?}");
            assert_eq!(got.components, want.components, "{policy:?}");
        }
        // All 12 went through one dispatch (three serve_batch_at groups).
        assert_eq!(server.stats().batches_dispatched, 1);
    }

    #[test]
    fn shutdown_drains_queued_requests_without_deadlock() {
        let server = Server::from_service(quick_service(), ServerConfig::default());
        server.pause();
        let tickets: Vec<_> = (0..40)
            .map(|i| {
                server
                    .try_submit(i % 4, ExecutionPolicy::budgeted(1))
                    .unwrap()
            })
            .collect();
        // Shutdown must override the pause and drain all 40.
        let stats = server.shutdown();
        assert_eq!(stats.completed, 40);
        assert_eq!(stats.queue_depth, 0);
        for ticket in tickets {
            assert!(ticket.is_ready());
            ticket.wait().expect("drained, not canceled");
        }
    }

    #[test]
    fn drop_also_drains() {
        let server = Server::from_service(quick_service(), ServerConfig::default());
        server.pause();
        let ticket = server.try_submit(0, ExecutionPolicy::budgeted(1)).unwrap();
        drop(server);
        ticket.wait().expect("drop drains the queue");
    }

    #[test]
    fn telemetry_tracks_queue_waits_and_batches() {
        let server =
            Server::from_service(quick_service(), ServerConfig::default().with_max_batch(4));
        server.pause();
        let tickets: Vec<_> = (0..8)
            .map(|i| server.try_submit(i, ExecutionPolicy::budgeted(1)).unwrap())
            .collect();
        std::thread::sleep(Duration::from_millis(15));
        server.resume();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let stats = server.stats();
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.completed, 8);
        assert!(stats.batches_dispatched >= 2, "max_batch 4 forces >= 2");
        assert!(stats.mean_batch_size() > 1.0);
        assert!(stats.max_queue_depth >= 8);
        assert!(
            stats.queue_wait_max >= Duration::from_millis(15),
            "paused requests measurably waited: {:?}",
            stats.queue_wait_max
        );
        assert!(stats.mean_queue_wait() >= Duration::from_millis(15));
    }

    /// `CountService` whose stage 1 panics on one poison request. Stage 1
    /// runs inside the fan-out's per-leg containment boundary, so this
    /// fault class marks legs failed instead of killing the dispatcher.
    struct PanickyService;

    impl ApproximateService for PanickyService {
        type Row = at_synopsis::SparseRow;
        type Request = u32;
        type Output = usize;

        fn process_synopsis(&self, ctx: Ctx<'_>, r: &u32, corr: &mut Vec<Correlation>) -> usize {
            assert_ne!(*r, 666, "poison request");
            CountService.process_synopsis(ctx, r, corr)
        }

        fn improve(
            &self,
            ctx: Ctx<'_>,
            r: &u32,
            out: &mut usize,
            node: at_rtree::NodeId,
            members: &[u64],
        ) {
            CountService.improve(ctx, r, out, node, members);
        }

        fn process_exact(&self, ctx: Ctx<'_>, r: &u32) -> usize {
            CountService.process_exact(ctx, r)
        }
    }

    impl ComposableService for PanickyService {
        type Response = usize;

        fn compose(&self, _r: &u32, parts: &[usize]) -> usize {
            parts.iter().sum()
        }
    }

    /// `CountService` whose *compose* panics on one poison request.
    /// Compose runs on the dispatcher's own stack, outside the fan-out's
    /// per-leg containment — the fault class that actually kills the
    /// dispatcher thread and exercises the supervisor.
    struct ComposePanicService;

    impl ApproximateService for ComposePanicService {
        type Row = at_synopsis::SparseRow;
        type Request = u32;
        type Output = usize;

        fn process_synopsis(&self, ctx: Ctx<'_>, r: &u32, corr: &mut Vec<Correlation>) -> usize {
            CountService.process_synopsis(ctx, r, corr)
        }

        fn improve(
            &self,
            ctx: Ctx<'_>,
            r: &u32,
            out: &mut usize,
            node: at_rtree::NodeId,
            members: &[u64],
        ) {
            CountService.improve(ctx, r, out, node, members);
        }

        fn process_exact(&self, ctx: Ctx<'_>, r: &u32) -> usize {
            CountService.process_exact(ctx, r)
        }
    }

    impl ComposableService for ComposePanicService {
        type Response = usize;

        fn compose(&self, r: &u32, parts: &[usize]) -> usize {
            assert_ne!(*r, 666, "poison compose");
            parts.iter().sum()
        }
    }

    #[test]
    fn contained_component_panics_keep_the_dispatcher_alive() {
        let server = Server::from_service(
            fanout_of(|| PanickyService),
            ServerConfig::default().with_max_batch(1),
        );
        let service = server.service().clone();
        let policy = ExecutionPolicy::budgeted(1);
        // Every component's stage-1 leg dies on the poison request, but
        // each leg is contained: the ticket resolves with a response
        // composed of zero surviving parts instead of being canceled.
        let got = server
            .try_submit(666, policy)
            .unwrap()
            .wait()
            .expect("fulfilled, not canceled");
        assert_eq!(got.components_failed, vec![0, 1, 2]);
        assert_eq!(got.response, 0, "composed from zero surviving parts");
        assert!(!got.is_complete());
        // The dispatcher never died: the next request serves normally
        // (one failure is below the breaker threshold, so no leg skips).
        let fine = server.try_submit(1, policy).unwrap().wait().unwrap();
        assert!(fine.is_complete());
        assert_eq!(fine.response, service.serve(&1, &policy).response);
        let stats = server.shutdown();
        assert_eq!(stats.dispatcher_restarts, 0, "contained, not crashed");
        assert!(!stats.stopped);
    }

    #[test]
    fn stats_expose_open_breakers() {
        let server = Server::from_service(
            fanout_of(|| PanickyService),
            ServerConfig::default().with_max_batch(1),
        );
        let policy = ExecutionPolicy::budgeted(1);
        // Three consecutive failing rounds reach the default breaker
        // threshold on every component.
        for _ in 0..3 {
            let got = server.try_submit(666, policy).unwrap().wait().unwrap();
            assert_eq!(got.components_failed.len(), 3);
        }
        let load = server.stats().load;
        assert_eq!(load.components_total, 3);
        assert_eq!(
            load.components_open, 3,
            "three consecutive failures trip every breaker"
        );
        server.shutdown();
    }

    #[test]
    fn supervisor_respawns_dispatcher_and_queued_work_survives() {
        let server = Server::from_service(
            fanout_of(|| ComposePanicService),
            ServerConfig::default()
                .with_max_batch(1)
                .with_restart_backoff(Duration::from_micros(100)),
        );
        let service = server.service().clone();
        let policy = ExecutionPolicy::budgeted(1);
        server.pause();
        // Three poison batches interleaved with healthy work: each poison
        // compose kills the dispatcher on its own stack, the supervisor
        // respawns it, and the still-queued entries are served untouched.
        let reqs = [666u32, 1, 666, 2, 666, 0];
        let tickets: Vec<_> = reqs
            .iter()
            .map(|&r| server.try_submit(r, policy).expect("room"))
            .collect();
        server.resume();
        for (&r, ticket) in reqs.iter().zip(tickets) {
            if r == 666 {
                assert!(ticket.wait().is_err(), "poison batch ticket cancels");
            } else {
                let got = ticket.wait().expect("queued work survives restarts");
                assert_eq!(got.response, service.serve(&r, &policy).response);
            }
        }
        // Still fully operational after surviving three dispatcher deaths.
        let got = server.try_submit(2, policy).unwrap().wait().unwrap();
        assert_eq!(got.response, service.serve(&2, &policy).response);
        let stats = server.shutdown();
        assert_eq!(stats.dispatcher_restarts, 3, "one respawn per poison");
        assert!(!stats.stopped);
        assert_eq!(stats.completed, 4);
    }

    #[test]
    fn restart_budget_exhausted_stops_the_server_terminally() {
        let server = Server::from_service(
            fanout_of(|| ComposePanicService),
            ServerConfig::default()
                .with_max_batch(2)
                .with_max_restarts(0),
        );
        let policy = ExecutionPolicy::budgeted(1);
        server.pause();
        // First micro-batch (max_batch 2) carries the poison compose;
        // with a zero restart budget the supervisor gives up on the first
        // crash, cancels the queued rest, and stops terminally.
        let tickets: Vec<_> = [0u32, 666, 1, 2, 3]
            .into_iter()
            .map(|r| server.try_submit(r, policy).expect("room"))
            .collect();
        server.resume();
        for ticket in tickets {
            assert!(
                ticket.wait().is_err(),
                "every ticket is canceled, none blocks forever"
            );
        }
        // The stopped server must refuse work — terminally, not Busy.
        assert_eq!(
            server.try_submit(7, policy).unwrap_err(),
            SubmitError::Stopped
        );
        assert_eq!(
            server.submit(7, policy).unwrap_err(),
            SubmitError::Stopped,
            "blocking submit must not hang on a stopped server"
        );
        assert!(server.is_stopped());
        let stats = server.stats();
        assert!(stats.stopped);
        assert_eq!(stats.dispatcher_restarts, 0, "budget 0: no respawn");
        assert_eq!(server.queue_depth(), 0, "queued entries were cleared");
    }

    /// Regression for the stopped-server wakeup race: the dispatcher can
    /// die *between* draining a batch (freeing queue room) and notifying
    /// `space`. A submitter blocked in `submit` on the then-full queue
    /// would sleep on freed room — and once the supervisor gives up and
    /// stops the server, sleep forever. The supervisor now wakes both
    /// condvars after every crash, so blocked producers promptly observe
    /// either the freed room or the terminal stop.
    #[test]
    fn blocked_submitters_wake_when_the_server_stops() {
        let server = Arc::new(Server::from_service(
            fanout_of(|| ComposePanicService),
            ServerConfig::default()
                .with_queue_capacity(1)
                .with_max_batch(1)
                .with_max_restarts(0),
        ));
        let policy = ExecutionPolicy::budgeted(1);
        server.pause();
        // Fill the single queue slot with the poison request.
        let poison = server.try_submit(666, policy).expect("slot");
        // Block several producers in `submit` on the full queue.
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..4u32 {
            let server = Arc::clone(&server);
            let tx = tx.clone();
            std::thread::spawn(move || {
                let _ = tx.send(server.submit(i, policy));
            });
        }
        drop(tx);
        std::thread::sleep(Duration::from_millis(50)); // let them block
        server.resume();
        // The poison compose kills the dispatcher after the drain; with a
        // zero restart budget the server stops terminally.
        assert!(poison.wait().is_err(), "poison ticket cancels");
        for _ in 0..4 {
            let outcome = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a blocked submitter must wake promptly, not hang");
            match outcome {
                // Woke into the freed slot before the stop landed: its
                // queued ticket is canceled by the stop.
                Ok(ticket) => assert!(ticket.wait().is_err(), "stop cancels queued tickets"),
                Err(e) => assert_eq!(e, SubmitError::Stopped),
            }
        }
        assert!(server.is_stopped());
    }

    #[test]
    #[should_panic(expected = "queue capacity")]
    fn zero_capacity_is_a_construction_bug() {
        let _ = Server::from_service(
            quick_service(),
            ServerConfig::default().with_queue_capacity(0),
        );
    }

    #[test]
    fn responses_report_the_requested_policy_without_control() {
        let server = Server::from_service(quick_service(), ServerConfig::default());
        let policy = ExecutionPolicy::budgeted(2);
        let got = server.try_submit(1, policy).unwrap().wait().unwrap();
        assert_eq!(got.policy_applied, policy);
        assert_eq!(server.stats().shed, 0);
    }

    /// Deterministic overload: pause the server, let a burst wait past the
    /// controller's wait budget, resume — the first rounds must degrade.
    #[test]
    fn ladder_controller_degrades_a_queued_burst_and_recovers() {
        let wait_budget = Duration::from_millis(20);
        let controller = LadderController::new(LadderConfig {
            step_fraction: 1.0, // degrade the whole round while overloaded
            max_level: 3,       // never reach shed_level: degradation only
            ..LadderConfig::for_deadline(wait_budget)
        });
        let server = Server::with_controller(
            Arc::new(quick_service()),
            ServerConfig::default()
                .with_max_batch(16)
                .with_stats_window(32),
            controller,
        );
        let requested = ExecutionPolicy::deadline(Duration::from_secs(30));

        server.pause();
        let tickets: Vec<_> = (0..32)
            .map(|i| server.try_submit(i % 3, requested).unwrap())
            .collect();
        std::thread::sleep(3 * wait_budget); // the queue wait blows the budget
        server.resume();
        let responses: Vec<_> = tickets
            .into_iter()
            .map(|t| t.wait().expect("degraded, not shed at level 1"))
            .collect();
        let degraded = responses
            .iter()
            .filter(|r| r.policy_applied != requested)
            .count();
        assert!(
            degraded > 0,
            "a burst waiting 3x the budget must trip the controller"
        );
        for r in &responses {
            assert!(
                r.policy_applied.cost_rank() <= requested.cost_rank(),
                "control only ever moves down the ladder"
            );
            if r.policy_applied != requested {
                assert!(
                    r.policy_applied.is_clock_free(),
                    "degraded rungs are clock-free: {:?}",
                    r.policy_applied
                );
            }
        }

        // Calm traffic: served one at a time, waits are ~0; once the burst
        // slides out of the 32-sample window the level decays to 0 and
        // requests run under the requested policy again.
        let mut recovered = false;
        for i in 0..64 {
            let got = server.try_submit(i % 3, requested).unwrap().wait().unwrap();
            if got.policy_applied == requested {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "hysteresis must exit once the burst subsides");
        server.shutdown();
    }

    /// At `shed_level`, the degraded fraction is dropped: tickets report
    /// `Canceled`, the shed counter owns them, and in-flight still drains
    /// to zero.
    #[test]
    fn shed_requests_cancel_tickets_and_are_counted() {
        let wait_budget = Duration::from_millis(10);
        let controller = LadderController::new(LadderConfig {
            step_fraction: 1.0,
            shed_level: 1, // shed immediately on the first overloaded round
            ..LadderConfig::for_deadline(wait_budget)
        });
        let server = Server::with_controller(
            Arc::new(quick_service()),
            ServerConfig::default()
                .with_max_batch(64)
                .with_stats_window(64),
            controller,
        );
        server.pause();
        let tickets: Vec<_> = (0..24)
            .map(|i| {
                server
                    .try_submit(i % 3, ExecutionPolicy::budgeted(2))
                    .unwrap()
            })
            .collect();
        std::thread::sleep(4 * wait_budget);
        server.resume();
        let (served, shed): (Vec<_>, Vec<_>) = tickets
            .into_iter()
            .map(Ticket::wait)
            .partition(Result::is_ok);
        assert!(!shed.is_empty(), "the overloaded round must shed");
        let stats = server.shutdown();
        assert_eq!(stats.shed, shed.len() as u64);
        assert_eq!(stats.completed, served.len() as u64);
        assert_eq!(stats.in_flight, 0, "shed requests are not in flight");
        assert_eq!(stats.completed + stats.shed, 24);
    }
}
