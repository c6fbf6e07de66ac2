//! A persistent shared worker pool: a scoped parallel-for over indices.
//!
//! [`WorkerPool::run`]`(n, f)` publishes one *fan-out record* — the
//! caller's `f` with its lifetime erased, `n`, a claim cursor and a
//! completion latch (`f`'s results land in per-index slots on the
//! caller's stack) — and the pool's workers and the submitting thread
//! take indices from that cursor, in ascending order, until none is
//! left. A long index occupies the thread that claimed it, never the
//! indices behind it, so no split is guessed up front and no queue has
//! to be rebalanced.
//!
//! Two properties of the dispatch path are there because they were
//! measured (`cargo run --release -p bench --bin pool_dispatch`):
//!
//! - The **submitting thread participates**: it claims indices like any
//!   worker, so a fan-out of a few microsecond-scale jobs usually
//!   finishes on the caller before a parked worker clears its futex
//!   wait, instead of paying a context switch per call.
//! - Idle workers **spin a bounded while** on a lock-free count of open
//!   records before parking, and a submitter notifies only workers that
//!   are actually parked: on para-virtualized hosts a single futex
//!   syscall costs microseconds, more than the fan-outs it would serve.
//!
//! `run` blocks until every index has settled — that wait is what makes
//! lending the caller's stack borrows to the workers sound. Nested
//! fan-outs are detected with a **thread-local in-pool marker** carrying
//! the pool's identity: a job that fans out again *on the same pool*
//! runs the inner indices inline (queue-and-wait from inside a worker
//! could deadlock the fixed-size pool), while fan-outs from foreign
//! threads — e.g. the serving layer's batcher thread — get real
//! parallelism. A submitter carries the marker too for as long as it
//! helps, so a job behaves the same whichever thread runs it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// One [`WorkerPool::run`] call as the pool's threads see it.
struct FanOut {
    /// Runs index `i` and stores its result — or its panic — in the
    /// caller's slot `i`. Borrowed from the caller's frame: the `SAFETY:`
    /// comment in [`WorkerPool::run`] says why it is only ever called
    /// while that frame is alive.
    body: &'static (dyn Fn(usize) + Sync),
    n: usize,
    /// The next index to hand out. A claim ticket only — `fetch_add`
    /// gives each index below `n` to exactly one thread, and results
    /// travel through the slots and the latch — so `Relaxed` suffices.
    next: AtomicUsize,
    /// Counts the indices that have not finished.
    done: Latch,
}

/// Bounded pre-park spin (4,096 `spin_loop`s: tens of microseconds —
/// 62 µs measured on the 2-core recording host): long enough that a
/// steady stream of fan-outs keeps workers hot and entirely
/// syscall-free, short enough that an idle pool parks quickly instead
/// of starving the threads doing real work on hosts with no spare
/// cores.
const SPIN_ROUNDS: u32 = 1 << 12;

struct Shared {
    state: Mutex<State>,
    ready: Condvar,
    /// Lock-free mirror of `state.open.len()`, so idle workers can
    /// spin-poll for work without taking the lock — and without the
    /// submitter paying a futex syscall to wake them. Every condvar
    /// notify here is likewise guarded so the syscall only happens when
    /// a thread is actually parked.
    open_hint: AtomicUsize,
    /// Workers currently parked in `ready.wait` (mutated under the lock;
    /// read by submitters to size their wakeups).
    ready_waiters: AtomicUsize,
    /// Process-unique pool identity for the in-pool thread-local marker.
    id: usize,
}

struct State {
    /// Fan-outs with an index left to claim, oldest first. A record
    /// leaves as soon as its last index is claimed.
    open: Vec<Arc<FanOut>>,
    shutdown: bool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Claims and runs indices of `fan_out` until its cursor passes the
    /// end, then counts them off its latch in one step. Whoever claims
    /// the last index takes the record off the open list first, so idle
    /// threads stop finding it.
    fn work(&self, fan_out: &FanOut) {
        let mut ran = 0;
        loop {
            let i = fan_out.next.fetch_add(1, Ordering::Relaxed);
            if i >= fan_out.n {
                fan_out.done.count_down(ran);
                return;
            }
            if i + 1 == fan_out.n {
                let mut state = self.lock();
                state.open.retain(|open| !std::ptr::eq(&**open, fan_out));
                self.open_hint.store(state.open.len(), Ordering::Release);
            }
            (fan_out.body)(i);
            ran += 1;
        }
    }
}

thread_local! {
    /// The pool id the current thread is running jobs of (0 = none): a
    /// worker for its whole life, a submitter while it helps. A nested
    /// [`WorkerPool::run`] on the *same* pool inlines; runs on other
    /// pools — or from non-pool threads like the serving layer's
    /// batcher — fan out normally.
    static IN_POOL: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Marks the current thread as running jobs of pool `id` until dropped,
/// then puts the previous marker back (also on unwind).
struct InPoolGuard {
    previous: usize,
}

impl InPoolGuard {
    fn enter(id: usize) -> Self {
        Self {
            previous: IN_POOL.with(|pool| pool.replace(id)),
        }
    }
}

impl Drop for InPoolGuard {
    fn drop(&mut self) {
        IN_POOL.with(|pool| pool.set(self.previous));
    }
}

/// Source of process-unique pool ids (0 is reserved for "no pool").
static POOL_IDS: AtomicUsize = AtomicUsize::new(1);

/// A fixed-size pool of long-lived worker threads that run fan-outs
/// index by index from one cursor each.
///
/// Most callers want the process-wide [`global`] pool; dedicated pools
/// are for tests and for isolating workloads with different lifetimes.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
}

impl WorkerPool {
    /// A pool with `workers` threads (at least 1), started immediately.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                open: Vec::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            open_hint: AtomicUsize::new(0),
            ready_waiters: AtomicUsize::new(0),
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
        });
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("vecdb-pool-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawning a pool worker");
        }
        Self { shared, workers }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(0), f(1), …, f(n-1)` on the pool and returns the results
    /// in index order. The workers and the calling thread claim indices
    /// from one cursor in ascending order until none is left; the call
    /// blocks until every index has finished — that wait is what lets
    /// the jobs borrow from the caller's stack.
    ///
    /// Runs inline and in order when `n <= 1` (nothing to fan out) or
    /// when called from inside a job of *this* pool (detected by the
    /// thread-local in-pool marker; blocking a worker on indices queued
    /// behind it could deadlock the fixed-size pool). While the caller
    /// helps it carries the marker, so a job that fans out again on
    /// this pool inlines on the caller just as it does on a worker; the
    /// caller's previous marker is back before `run` returns or unwinds.
    ///
    /// # Panics
    /// Re-raises the panic of the lowest panicking index, after every
    /// index has settled; the pool stays usable.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n <= 1 || IN_POOL.with(std::cell::Cell::get) == self.shared.id {
            return (0..n).map(f).collect();
        }

        type Slot<T> = Mutex<Option<std::thread::Result<T>>>;
        let slots: Vec<Slot<T>> = (0..n).map(|_| Mutex::new(None)).collect();
        let body = |i: usize| {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i)));
            *slots[i]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
        };
        let body: &(dyn Fn(usize) + Sync + '_) = &body;
        // SAFETY: `body` borrows `f` and `slots` from this frame. A thread
        // calls it only for an index it claimed below `n`, and counts that
        // index off `done` after the call has returned; `done.wait()`
        // below returns only once all `n` are counted, and this frame does
        // not end before it. A thread that still holds the record after
        // that reads its cursor and nothing else.
        let body = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync + '_), &'static (dyn Fn(usize) + Sync)>(
                body,
            )
        };
        let fan_out = Arc::new(FanOut {
            body,
            n,
            next: AtomicUsize::new(0),
            done: Latch::new(n),
        });

        let shared = &self.shared;
        let wakes = {
            let mut state = shared.lock();
            state.open.push(Arc::clone(&fan_out));
            shared.open_hint.store(state.open.len(), Ordering::Release);
            // Wake at most n-1 *parked* workers: the caller is about to
            // claim indices itself, and spinning (unparked) idle workers
            // see the hint without a syscall. Read under the lock —
            // parking requires it, so the count cannot grow until we
            // release.
            (n - 1).min(shared.ready_waiters.load(Ordering::Relaxed))
        };
        if wakes >= self.workers {
            shared.ready.notify_all();
        } else {
            for _ in 0..wakes {
                shared.ready.notify_one();
            }
        }
        {
            let _helping = InPoolGuard::enter(shared.id);
            shared.work(&fan_out);
        }
        fan_out.done.wait();

        slots
            .into_iter()
            .map(|slot| {
                let result = slot
                    .into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("latch reached zero with a result missing");
                match result {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.ready.notify_all();
        // Workers finish whatever record is still open, then exit; they
        // hold their own Arc to the shared state, so no join is required
        // for soundness (no index outlives the `run` call that published
        // it).
    }
}

/// A countdown latch: `wait` blocks until `n` indices have been counted
/// off. The count is a plain atomic so the common path — the submitter
/// finishing its own claims, then spinning out the last stragglers —
/// never touches a lock or a futex; the condvar is only armed (and its
/// notify syscall only paid) when the waiter actually parks.
struct Latch {
    /// `remaining << 1 | parked`: the count and the "waiter is parked"
    /// bit share one atomic, so the final `count_down` knows from its own
    /// decrement whether anyone needs a notify.
    state: AtomicUsize,
    parked: Mutex<()>,
    zero: Condvar,
}

impl Latch {
    fn new(n: usize) -> Self {
        Self {
            state: AtomicUsize::new(n << 1),
            parked: Mutex::new(()),
            zero: Condvar::new(),
        }
    }

    /// Whether the count has reached zero (no waiting).
    fn done(&self) -> bool {
        self.state.load(Ordering::Acquire) >> 1 == 0
    }

    fn count_down(&self, k: usize) {
        if k == 0 {
            return;
        }
        let prev = self.state.fetch_sub(k << 1, Ordering::AcqRel);
        if prev >> 1 == k && prev & 1 == 1 {
            // Count reached zero with the waiter parked: holding the
            // mutex across the notify means the waiter is inside
            // `zero.wait`, not between its check and its wait.
            let guard = self
                .parked
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            self.zero.notify_all();
            drop(guard);
        }
    }

    fn wait(&self) {
        for _ in 0..SPIN_ROUNDS {
            if self.done() {
                return;
            }
            std::hint::spin_loop();
        }
        let mut guard = self
            .parked
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Announce the park under the lock. If the count hit zero
        // before the bit landed, the last `count_down` saw the bit unset
        // and will never notify — but then this check sees zero and we
        // never wait. Otherwise that `count_down` is still to come and is
        // guaranteed to see the bit.
        if self.state.fetch_or(1, Ordering::AcqRel) >> 1 == 0 {
            return;
        }
        loop {
            guard = self
                .zero
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if self.done() {
                return;
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    IN_POOL.with(|pool| pool.set(shared.id));
    loop {
        // Find an open record (or exit on shutdown). Spin on the
        // lock-free hint first: under a steady stream of fan-outs the
        // worker picks up the next one without a single futex syscall on
        // either side; only a genuinely idle pool parks.
        let mut spins = SPIN_ROUNDS;
        let fan_out = loop {
            if spins > 0 && shared.open_hint.load(Ordering::Acquire) == 0 {
                spins -= 1;
                std::hint::spin_loop();
                continue;
            }
            let mut state = shared.lock();
            let found = loop {
                if let Some(open) = state.open.first() {
                    break Some(Arc::clone(open));
                }
                if state.shutdown {
                    return;
                }
                if spins > 0 {
                    // Spin budget left: release the lock and go back to
                    // polling the hint instead of parking.
                    break None;
                }
                shared.ready_waiters.fetch_add(1, Ordering::Relaxed);
                state = shared
                    .ready
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                shared.ready_waiters.fetch_sub(1, Ordering::Relaxed);
            };
            if let Some(fan_out) = found {
                break fan_out;
            }
        };
        shared.work(&fan_out);
    }
}

/// The process-wide pool shared by every batch executor: one thread per available core *minus one*, created on
/// first use — the submitting thread claims indices while it waits, so
/// it is itself the remaining thread, and a full complement of workers
/// would only fight it for cores.
pub fn global() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
        WorkerPool::new(cores.saturating_sub(1).max(1))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_returns_results_in_index_order() {
        let pool = WorkerPool::new(4);
        let out = pool.run(16, |i| i * 10);
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn run_borrows_caller_stack() {
        let pool = WorkerPool::new(3);
        let data = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let doubled = pool.run(data.len(), |i| data[i] * 2);
        assert_eq!(doubled, vec![2, 4, 6, 8, 10, 12, 14, 16]);
    }

    #[test]
    fn run_handles_more_jobs_than_workers() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        let out = pool.run(64, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 64);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn nested_run_executes_inline_without_deadlock() {
        let pool = global();
        // Every outer job fans out again on the same pool; the inner
        // fan-outs must inline rather than queue-and-block.
        let out = pool.run(8, |i| pool.run(8, move |j| i * 8 + j).iter().sum::<usize>());
        let expect: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    /// Two jobs that each wait (bounded) for the other to start: true
    /// for both only when they really ran side by side.
    fn rendezvous(pool: &WorkerPool) -> Vec<bool> {
        let arrived = AtomicUsize::new(0);
        pool.run(2, |_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while arrived.load(Ordering::SeqCst) < 2 {
                if std::time::Instant::now() > deadline {
                    return false;
                }
                std::hint::spin_loop();
            }
            true
        })
    }

    #[test]
    fn nested_run_from_the_helping_submitter_inlines() {
        // One worker plus the submitter: the two outer jobs meet, so one
        // of them is on the submitter. That one fans out again while the
        // other keeps the worker busy. Inlined, the nested jobs run in
        // index order on the submitter.
        let pool = WorkerPool::new(1);
        let submitter = std::thread::current().id();
        let arrived = AtomicUsize::new(0);
        let nested_done = std::sync::atomic::AtomicBool::new(false);
        let order = Mutex::new(Vec::new());
        pool.run(2, |_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            while arrived.load(Ordering::SeqCst) < 2 {
                std::hint::spin_loop();
            }
            if std::thread::current().id() == submitter {
                pool.run(4, |j| {
                    order.lock().unwrap().push((j, std::thread::current().id()));
                });
                nested_done.store(true, Ordering::SeqCst);
            } else {
                while !nested_done.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
            }
        });
        let expect: Vec<_> = (0..4).map(|j| (j, submitter)).collect();
        assert_eq!(*order.lock().unwrap(), expect);
        // The marker left with the helping loop: a top-level fan-out
        // from this thread still reaches the workers, after a normal
        // return and after a job's panic unwound through `run`.
        assert_eq!(rendezvous(&pool), [true, true]);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(2, |i| assert_ne!(i, 1, "job 1 exploded"));
        }));
        assert!(panicked.is_err());
        assert_eq!(rendezvous(&pool), [true, true]);
    }

    #[test]
    fn foreign_pool_run_is_not_inlined() {
        // A job of pool A fanning out on pool B must reach B's real
        // execution protocol, not the same-pool inline path: the
        // in-pool marker is per-pool, not a global "in any pool" flag.
        // Proven by rendezvous — the two nested jobs wait for each
        // other, which the inline path's sequential execution could
        // never satisfy. (With the submitter participating, one job may
        // run on the submitting thread itself; that still rendezvouses.)
        let a = WorkerPool::new(2);
        let b = WorkerPool::new(2);
        let met = a.run(2, |i| {
            if i != 0 {
                return vec![true];
            }
            rendezvous(&b)
        });
        assert!(
            met.iter().flatten().all(|&ok| ok),
            "nested foreign fan-out ran sequentially: {met:?}"
        );
    }

    #[test]
    fn run_zero_and_one() {
        let pool = WorkerPool::new(2);
        assert!(pool.run(0, |i| i).is_empty());
        assert_eq!(pool.run(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn panic_in_job_propagates_after_all_jobs_settle() {
        let pool = WorkerPool::new(2);
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == 3 {
                    panic!("job 3 exploded");
                }
                completed.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err());
        assert_eq!(completed.load(Ordering::Relaxed), 7);
        // The pool survives a panicking job.
        assert_eq!(pool.run(4, |i| i).len(), 4);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        assert!(global().workers() >= 1);
        assert!(std::ptr::eq(global(), global()));
    }
}
