//! Deterministic schedule exploration of the control-plane protocols
//! (ISSUE 9, dynamic side; see ANALYSIS.md "Concurrency contracts").
//!
//! The serving stack's dispatcher/supervisor protocols are
//! modeled at small configurations on `at-sched` shims and every
//! interleaving of their synchronization operations is enumerated
//! (DFS, optionally preemption-bounded). Each clean protocol asserts a
//! minimum distinct-interleaving count so a future refactor cannot
//! quietly shrink the explored space to triviality, and two positive
//! controls (a seeded lock-order deadlock and a seeded read-then-remove
//! double-resolve) prove the explorer actually detects the defect
//! classes the static rules exist to prevent.
//!
//! Models mirror `at-server`'s shapes, not its code: a bounded queue
//! drained under a Condvar with a stop flag (dispatch_loop) and the
//! restart-budget supervisor (supervise). A third model mirrors the
//! vendored rayon shim's persistent fan-out pool (publish, claim,
//! complete, wait), with a third positive control of its own: a caller
//! that returns without waiting for its helpers.

use at_sched::{Explorer, Report, Sched, SchedAtomicU64, SchedCondvar, SchedMutex};

/// Bounded-queue submit/drain: two producers race a stopper and a
/// drainer. The drainer waits on a Condvar with the canonical
/// predicate loop; the stopper sets `stopped` under the same lock.
/// Checked across EVERY interleaving:
/// - no lost wakeup / missed stop: exploration finding a deadlock
///   would mean some schedule parks the drainer forever;
/// - conservation: accepted == drained + still-queued, and every
///   submission was either accepted or rejected by the bound.
#[test]
fn bounded_queue_submit_drain_no_lost_wakeup() {
    #[derive(Default)]
    struct QueueState {
        queue: Vec<u32>,
        accepted: u32,
        rejected: u32,
        stopped: bool,
    }
    const CAPACITY: usize = 1;
    const PRODUCERS: u32 = 2;

    let report = Explorer::new().with_max_preemptions(2).explore(|sched| {
        let state = sched.mutex(QueueState::default());
        let work = sched.condvar();
        let drained = sched.atomic(0);
        for item in 0..PRODUCERS {
            let (state, work) = (state.clone(), work.clone());
            sched.thread(move || {
                let mut st = state.lock();
                if st.queue.len() < CAPACITY {
                    st.queue.push(item);
                    st.accepted += 1;
                } else {
                    st.rejected += 1;
                }
                drop(st);
                work.notify_all();
            });
        }
        {
            let (state, work) = (state.clone(), work.clone());
            sched.thread(move || {
                let mut st = state.lock();
                st.stopped = true;
                drop(st);
                work.notify_all();
            });
        }
        {
            let (state, work, drained) = (state.clone(), work.clone(), drained.clone());
            sched.thread(move || {
                let mut st = state.lock();
                loop {
                    if st.queue.pop().is_some() {
                        drop(st);
                        drained.fetch_add(1);
                        st = state.lock();
                        continue;
                    }
                    if st.stopped {
                        // Stopped observed with the queue empty: the
                        // only sanctioned exit.
                        break;
                    }
                    st = work.wait(st);
                }
            });
        }
        let (state, drained) = (state.clone(), drained.clone());
        sched.check(move || {
            let st = state.lock();
            assert!(st.stopped, "drainer exited without observing Stopped");
            assert_eq!(
                u64::from(st.accepted),
                drained.load() + st.queue.len() as u64,
                "accepted work neither drained nor queued"
            );
            assert_eq!(st.accepted + st.rejected, PRODUCERS);
        });
    });
    report.assert_ok();
    assert!(
        report.schedules >= 100,
        "exploration shrank to {} interleavings — not a meaningful check",
        report.schedules
    );
    assert!(!report.capped, "exploration hit the schedule cap");
}

/// Supervisor restart budget, the never-stops-early half: with crashes
/// within budget and progress between them, no interleaving stops the
/// supervisor, and the restart count lands exactly on the crash count
/// (monotone by construction — it only ever increments).
#[test]
fn supervisor_within_budget_never_stops() {
    supervisor_model(2, 2, |restarts, stopped| {
        assert!(!stopped, "supervisor stopped with budget to spare");
        assert_eq!(restarts, 2, "every in-budget crash earns a restart");
    });
}

/// ...and the always-stops half: one crash past the budget trips the
/// stop in EVERY interleaving, with restarts capped at the budget.
#[test]
fn supervisor_beyond_budget_always_stops() {
    supervisor_model(3, 2, |restarts, stopped| {
        assert!(stopped, "budget exceeded but supervisor kept going");
        assert_eq!(restarts, 2, "restarts exceeded the budget");
    });
}

/// Shared supervisor model: a crasher raises `crashes` crash events
/// (notifying after each) and then announces completion; the
/// supervisor handles events in order, restarting while the budget
/// lasts and stopping on the first crash past it.
fn supervisor_model(crashes: u32, budget: u32, verify: fn(u32, bool)) {
    #[derive(Default)]
    struct SupState {
        crashes: u32,
        restarts: u32,
        crasher_done: bool,
        stopped: bool,
    }
    let report = Explorer::new().explore(move |sched| {
        let state = sched.mutex(SupState::default());
        let event = sched.condvar();
        {
            let (state, event) = (state.clone(), event.clone());
            sched.thread(move || {
                for _ in 0..crashes {
                    let mut st = state.lock();
                    st.crashes += 1;
                    drop(st);
                    event.notify_all();
                }
                let mut st = state.lock();
                st.crasher_done = true;
                drop(st);
                event.notify_all();
            });
        }
        {
            let (state, event) = (state.clone(), event.clone());
            sched.thread(move || {
                let mut handled = 0;
                let mut st = state.lock();
                loop {
                    if handled < st.crashes {
                        handled += 1;
                        if st.restarts == budget {
                            st.stopped = true;
                            break;
                        }
                        st.restarts += 1;
                        continue;
                    }
                    if st.crasher_done {
                        break;
                    }
                    st = event.wait(st);
                }
            });
        }
        let state = state.clone();
        sched.check(move || {
            let st = state.lock();
            assert!(
                st.restarts <= budget,
                "restart count {} overran the budget {budget}",
                st.restarts
            );
            verify(st.restarts, st.stopped);
        });
    });
    report.assert_ok();
    assert!(
        report.schedules >= 100,
        "exploration shrank to {} interleavings",
        report.schedules
    );
    assert!(!report.capped, "exploration hit the schedule cap");
}

/// Fan-out pool handoff (`vendor/rayon`), the protocol the shim's one
/// `unsafe` lifetime erasure rests on. Each caller publishes a two-item
/// job on the shared queue (waking as many sleeping helpers as there are
/// items beyond its own), claims items of its own job through the job's
/// atomic index, takes the job back off the queue and parks until no
/// helper is attached. Helpers attach to the front job under the queue
/// lock, claim until the index runs out, unqueue the job and detach,
/// unparking its caller on the last detach. Checked in every
/// interleaving of each configuration:
/// - every item of every job runs exactly once;
/// - a caller returns only with all of its items finished and none still
///   running, so nothing touches the job once its stack frame is gone;
/// - no lost wakeup or deadlock (a parked caller or a sleeping helper
///   left behind fails `assert_ok`);
/// - no job is still queued at the end.
///
/// Two callers and two helpers at two preemptions run past a minute, so
/// the space is covered by three exhaustive slices: one caller and two
/// helpers at two preemptions (the depth at which an early return is
/// reachable; see the positive control below), two callers sharing one
/// helper at two preemptions, and the full two-and-two at one preemption.
#[test]
fn fanout_pool_runs_each_item_once_and_never_outlives_its_caller() {
    for (callers, helpers, preemptions) in [(1, 2, 2), (2, 1, 2), (2, 2, 1)] {
        let report = pool_model(callers, helpers, preemptions, true);
        report.assert_ok();
        assert!(
            report.schedules >= 1000,
            "{callers} callers / {helpers} helpers: exploration shrank to {} interleavings",
            report.schedules
        );
        assert!(!report.capped, "exploration hit the schedule cap");
    }
}

/// Positive control: a caller that returns without waiting for attached
/// helpers can leave a helper running one of its items — the
/// use-after-return the wait exists to rule out. The explorer must find
/// the failing schedule.
#[test]
fn positive_control_caller_skipping_the_wait_is_outlived_by_a_helper() {
    let report = pool_model(1, 2, 2, false);
    assert!(
        !report.failures.is_empty(),
        "seeded early return went undetected: {report:?}"
    );
    assert!(
        report.defect_trace.is_some(),
        "failure reported without a schedule trace"
    );
}

/// Items per job in [`pool_model`].
const POOL_ITEMS: u64 = 2;
/// `finished` of a job whose items each ran to completion exactly once:
/// item `i` adds 1 << 8i when it finishes.
const POOL_ALL_DONE: u64 = 0x0101;

/// One published job of [`pool_model`]. Claiming an index starts its
/// item, so an item is running while it is claimed but not finished.
#[derive(Clone)]
struct PoolJob {
    /// Next unclaimed item index.
    next: SchedAtomicU64,
    /// Helpers holding the job.
    attached: SchedAtomicU64,
    /// Per-item finish counts (see [`POOL_ALL_DONE`]).
    finished: SchedAtomicU64,
    /// The caller's `thread::park` token and the condvar `unpark` signals.
    token: SchedMutex<bool>,
    unparked: SchedCondvar,
}

impl PoolJob {
    fn new(sched: &mut Sched) -> Self {
        PoolJob {
            next: sched.atomic(0),
            attached: sched.atomic(0),
            finished: sched.atomic(0),
            token: sched.mutex(false),
            unparked: sched.condvar(),
        }
    }

    /// `Job::work`: claim and run items until none is left.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1);
            if i >= POOL_ITEMS {
                return;
            }
            self.finished.fetch_add(1 << (8 * i));
        }
    }

    fn unpark(&self) {
        *self.token.lock() = true;
        self.unparked.notify_one();
    }

    fn park(&self) {
        let mut token = self.token.lock();
        while !*token {
            token = self.unparked.wait(token);
        }
        *token = false;
    }
}

#[derive(Default)]
struct PoolQueue {
    /// Published job ids, oldest first.
    jobs: Vec<usize>,
    /// Helpers waiting for work.
    sleeping: u64,
    /// Callers that have not taken their job back yet. Model scaffolding:
    /// the real helpers never exit; these leave once it reaches 0 and the
    /// queue is empty.
    callers_left: usize,
}

fn pool_unqueue(queue: &SchedMutex<PoolQueue>, id: usize) {
    queue.lock().jobs.retain(|&queued| queued != id);
}

/// The pool model, explored with at most `preemptions` preemptions.
/// `caller_waits = false` seeds the defect (the caller skips its park
/// loop).
fn pool_model(callers: usize, helpers: usize, preemptions: usize, caller_waits: bool) -> Report {
    Explorer::new()
        .with_max_preemptions(preemptions)
        .explore(move |sched| {
            let queue = sched.mutex(PoolQueue {
                callers_left: callers,
                ..PoolQueue::default()
            });
            let work = sched.condvar();
            let jobs: Vec<PoolJob> = (0..callers).map(|_| PoolJob::new(sched)).collect();
            for (id, job) in jobs.iter().enumerate() {
                let (queue, work, job) = (queue.clone(), work.clone(), job.clone());
                sched.thread(move || {
                    // Published::new
                    let mut q = queue.lock();
                    q.jobs.push(id);
                    let wake = q.sleeping.min(POOL_ITEMS - 1);
                    drop(q);
                    for _ in 0..wake {
                        work.notify_one();
                    }
                    job.work();
                    // Published::drop: take the job back off the queue, then
                    // park until no helper holds it.
                    let mut q = queue.lock();
                    q.jobs.retain(|&queued| queued != id);
                    q.callers_left -= 1;
                    let last = q.callers_left == 0;
                    drop(q);
                    if last {
                        work.notify_all();
                    }
                    while caller_waits && job.attached.load() != 0 {
                        job.park();
                    }
                    // The caller returns: nothing may reach its job any more.
                    assert_eq!(
                        job.finished.load(),
                        POOL_ALL_DONE,
                        "caller returned with an item unfinished, still running or run twice"
                    );
                });
            }
            for _ in 0..helpers {
                let (queue, work, jobs) = (queue.clone(), work.clone(), jobs.clone());
                sched.thread(move || loop {
                    let mut q = queue.lock();
                    let id = loop {
                        if let Some(&id) = q.jobs.first() {
                            jobs[id].attached.fetch_add(1);
                            break id;
                        }
                        if q.callers_left == 0 {
                            return;
                        }
                        q.sleeping += 1;
                        q = work.wait(q);
                        q.sleeping -= 1;
                    };
                    drop(q);
                    let job = &jobs[id];
                    job.work();
                    pool_unqueue(&queue, id);
                    if job.attached.fetch_sub(1) == 1 {
                        job.unpark();
                    }
                });
            }
            let (queue, jobs) = (queue.clone(), jobs.clone());
            sched.check(move || {
                for job in &jobs {
                    assert_eq!(job.finished.load(), POOL_ALL_DONE);
                }
                assert!(queue.lock().jobs.is_empty(), "a job stayed queued");
            });
        })
}

/// Positive control: the explorer must catch an opposite-order two-lock
/// acquisition as a deadlock — the dynamic twin of the static
/// `lock-order` rule.
#[test]
fn positive_control_opposite_lock_order_deadlocks() {
    let report = Explorer::new().explore(|sched| {
        let a = sched.mutex(());
        let b = sched.mutex(());
        {
            let (a, b) = (a.clone(), b.clone());
            sched.thread(move || {
                let _a = a.lock();
                let _b = b.lock();
            });
        }
        {
            let (a, b) = (a.clone(), b.clone());
            sched.thread(move || {
                let _b = b.lock();
                let _a = a.lock();
            });
        }
    });
    assert_eq!(
        report.deadlocks, 1,
        "seeded deadlock went undetected: {report:?}"
    );
    assert!(
        report.defect_trace.is_some(),
        "deadlock reported without a schedule trace"
    );
}

/// Positive control: a thief that peeks under one guard and removes
/// under another double-resolves a ticket in some interleaving — the
/// defect the drain-under-one-guard idiom exists to rule out. The
/// explorer must find the failing schedule.
#[test]
fn positive_control_read_then_remove_double_resolves() {
    let report = Explorer::new().explore(|sched| {
        let queue = sched.mutex(vec![0u32]);
        let resolved = sched.mutex(vec![0u32; 1]);
        {
            let (queue, resolved) = (queue.clone(), resolved.clone());
            sched.thread(move || loop {
                let mut q = queue.lock();
                let Some(ticket) = q.pop() else { break };
                drop(q);
                let mut r = resolved.lock();
                if let Some(count) = r.get_mut(ticket as usize) {
                    *count += 1;
                }
            });
        }
        {
            let (queue, resolved) = (queue.clone(), resolved.clone());
            sched.thread(move || {
                // BUG under test: snapshot then clear under separate
                // guards — the victim can resolve in between.
                let snapshot: Vec<u32> = queue.lock().clone();
                for ticket in snapshot {
                    let mut r = resolved.lock();
                    if let Some(count) = r.get_mut(ticket as usize) {
                        *count += 1;
                    }
                }
                queue.lock().clear();
            });
        }
        let resolved = resolved.clone();
        sched.check(move || {
            let r = resolved.lock();
            for (ticket, &count) in r.iter().enumerate() {
                assert_eq!(count, 1, "ticket {ticket} resolved {count} times");
            }
        });
    });
    assert!(
        !report.failures.is_empty(),
        "seeded double-resolve went undetected: {report:?}"
    );
    assert!(
        report.defect_trace.is_some(),
        "failure reported without a schedule trace"
    );
}
