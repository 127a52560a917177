//! Typed recycling of per-component `Output` buffers.
//!
//! The per-request hot path stopped allocating correlation vectors in the
//! zero-allocation pass (per-worker scratch in [`crate::processor`]), but
//! every request still allocated its per-component output — a
//! `Vec<PredictionAcc>` for the recommender, a `TopK` heap for the search
//! engine. [`OutputPool`] closes that last steady-state allocation: the
//! fan-out service checks buffers out before stage 1
//! ([`ApproximateService::process_synopsis_into`](crate::ApproximateService::process_synopsis_into)
//! resets them in place) and returns them after composing the response, so
//! a **warm** server serves requests and whole batches without touching the
//! heap for outputs.
//!
//! The pool is deliberately dumb: a mutex around a stack of buffers, with a
//! retention cap so a one-off giant batch cannot pin memory forever. All
//! buffers are interchangeable because every service resets a recycled
//! buffer before use — a pool hit changes *where the storage came from*,
//! never *what the request computes*.
//!
//! # Example
//!
//! ```
//! use at_core::OutputPool;
//!
//! let pool: OutputPool<Vec<f64>> = OutputPool::new();
//! assert!(pool.get().is_none(), "cold pool has nothing to recycle");
//!
//! // A request's output buffer comes back after composition...
//! pool.put(vec![0.25, 0.5]);
//! // ...and the next request reuses its storage instead of allocating.
//! let recycled = pool.get().expect("warm pool serves the buffer back");
//! assert_eq!(recycled.capacity() >= 2, true);
//! assert_eq!(pool.reuses(), 1);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Buffers retained by default; `put` drops beyond this, bounding the
/// memory a burst of huge batches can leave behind.
const DEFAULT_RETAIN: usize = 4096;

/// A typed recycler for request output buffers.
///
/// `get` pops a previously returned buffer (or `None` when cold — the
/// caller then allocates fresh, exactly once per buffer ever in flight);
/// `put` returns a buffer for the next request. Shared across rayon
/// workers (`&OutputPool` is `Sync` for `T: Send`).
#[derive(Debug)]
pub struct OutputPool<T> {
    free: Mutex<Vec<T>>,
    retain: usize,
    reuses: AtomicUsize,
    discarded_on_poison: AtomicUsize,
}

impl<T> Default for OutputPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OutputPool<T> {
    /// An empty pool retaining at most 4096 idle buffers.
    pub fn new() -> Self {
        Self::with_retention(DEFAULT_RETAIN)
    }

    /// An empty pool retaining at most `retain` buffers; `put` beyond that
    /// drops the buffer instead of growing the pool.
    pub fn with_retention(retain: usize) -> Self {
        OutputPool {
            free: Mutex::new(Vec::new()),
            retain,
            reuses: AtomicUsize::new(0),
            discarded_on_poison: AtomicUsize::new(0),
        }
    }

    /// Lock the free list, recovering from a poisoned mutex. A panicking
    /// worker (e.g. one rayon fan-out leg dying mid-request) must not turn
    /// every later serve into a panic cascade: the pooled buffers are only
    /// recycled storage, so recovery is simply discarding the free list —
    /// subsequent requests allocate fresh, exactly like a cold pool. The
    /// buffers thrown away are counted in
    /// [`discarded_on_poison`](Self::discarded_on_poison): silent pool
    /// capacity loss after a contained panic would otherwise read as an
    /// inexplicable allocation-rate regression.
    fn free_list(&self) -> MutexGuard<'_, Vec<T>> {
        match self.free.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.free.clear_poison();
                let mut guard = poisoned.into_inner();
                self.discarded_on_poison
                    .fetch_add(guard.len(), Ordering::Relaxed);
                guard.clear();
                guard
            }
        }
    }

    /// Check a recycled buffer out, if any. The caller owns it until the
    /// matching [`put`](Self::put).
    pub fn get(&self) -> Option<T> {
        let buf = self.free_list().pop();
        if buf.is_some() {
            self.reuses.fetch_add(1, Ordering::Relaxed);
        }
        buf
    }

    /// Return a buffer for reuse; dropped silently once the retention cap
    /// is reached.
    pub fn put(&self, buf: T) {
        let mut free = self.free_list();
        if free.len() < self.retain {
            free.push(buf);
        }
    }

    /// Buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.free_list().len()
    }

    /// True when no buffer is idle (a cold pool, or all checked out).
    pub fn is_empty(&self) -> bool {
        self.idle() == 0
    }

    /// Total buffers ever served back out of the pool. Monotone; a warm
    /// server's reuse count grows with every request. For services that
    /// override `process_synopsis_into` to reset buffers in place this
    /// equals the output allocations avoided; a service on the default
    /// hook overwrites the recycled buffer with a fresh allocation, so
    /// there the count only measures pool traffic.
    pub fn reuses(&self) -> usize {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Idle buffers thrown away while recovering a poisoned free list.
    /// Monotone; nonzero means a worker died holding the pool lock and the
    /// pool restarted cold.
    pub fn discarded_on_poison(&self) -> usize {
        self.discarded_on_poison.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_pool_yields_nothing() {
        let pool: OutputPool<Vec<u8>> = OutputPool::new();
        assert!(pool.get().is_none());
        assert!(pool.is_empty());
        assert_eq!(pool.reuses(), 0);
    }

    #[test]
    fn put_then_get_recycles() {
        let pool = OutputPool::new();
        pool.put(vec![1u8, 2, 3]);
        assert_eq!(pool.idle(), 1);
        let buf = pool.get().unwrap();
        assert_eq!(buf, vec![1, 2, 3]);
        assert_eq!(pool.reuses(), 1);
        assert!(pool.is_empty());
    }

    #[test]
    fn retention_cap_drops_excess() {
        let pool = OutputPool::with_retention(2);
        for i in 0..5u8 {
            pool.put(vec![i]);
        }
        assert_eq!(pool.idle(), 2, "puts beyond the cap are dropped");
    }

    #[test]
    fn poisoned_pool_recovers_by_discarding_free_list() {
        let pool: OutputPool<Vec<u8>> = OutputPool::new();
        pool.put(vec![1]);
        pool.put(vec![2]);
        // A worker dies while holding the pool lock, poisoning the mutex.
        let worker = std::thread::scope(|s| {
            s.spawn(|| {
                // lint: allow(lock-hygiene) reason=deliberately poisons the lock to exercise the recovery path under test
                let _guard = pool.free.lock().unwrap();
                // lint: allow(panic-freedom) reason=the test-harness panic that poisons the lock
                panic!("worker panics with the pool locked");
            })
            .join()
        });
        assert!(worker.is_err(), "the worker must actually have panicked");
        assert!(pool.free.is_poisoned());
        assert_eq!(
            pool.discarded_on_poison(),
            0,
            "nothing discarded until someone touches the poisoned pool"
        );
        // Every later operation recovers instead of cascading the panic:
        // the free list is discarded (cold-pool behaviour)...
        assert!(pool.get().is_none());
        assert_eq!(pool.idle(), 0);
        // ...the two idle buffers lost to recovery are accounted for...
        assert_eq!(pool.discarded_on_poison(), 2);
        // ...and the pool recycles normally from then on.
        assert!(!pool.free.is_poisoned());
        pool.put(vec![3]);
        assert_eq!(pool.get(), Some(vec![3]));
        assert_eq!(pool.reuses(), 1, "only the post-recovery get reused");
        assert_eq!(pool.discarded_on_poison(), 2, "recovery counted once");
    }

    #[test]
    fn shared_across_threads() {
        let pool: OutputPool<Vec<u64>> = OutputPool::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let pool = &pool;
                s.spawn(move || {
                    for i in 0..50 {
                        let mut buf = pool.get().unwrap_or_default();
                        buf.clear();
                        buf.push(t * 1000 + i);
                        pool.put(buf);
                    }
                });
            }
        });
        assert!(pool.idle() <= 4, "at most one buffer per thread in flight");
    }
}
