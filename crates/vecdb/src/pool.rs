//! A persistent shared worker pool for query fan-out, built around
//! per-worker deques with shard-home affinity and work-stealing.
//!
//! The sharded search layers used to spawn one scoped OS thread per
//! shard per query; at microsecond-scale per-shard work the
//! ~20–50 µs spawn/join cost dominated end-to-end latency
//! (`BENCH_sharding.json` records the curve). The first pool replaced
//! that with long-lived workers fed by **one** shared channel queue —
//! cheap dispatch, but every job landed on whichever worker woke first,
//! so a shard's data migrated across cores on every fan-out and a
//! skewed shard could serialize behind unrelated work.
//!
//! This version gives each worker its **own deque** and makes placement
//! a first-class hint:
//!
//! - [`WorkerPool::run_homed`] enqueues job `i` on the deque of its
//!   *home worker* (`home(i) % workers`). Sharded backends pass the
//!   shard index as the home, so shard `i`'s work lands on the same
//!   worker — and, when the pool is core-bound, the same core — on
//!   every fan-out, keeping that shard's vectors warm in that core's
//!   cache.
//! - Idle workers **steal from the back of the busiest deque**, so a
//!   pathologically skewed shard (or a stalled home worker) never
//!   serializes the batch: affinity is a placement hint, never a
//!   constraint. A global pending-job count makes stealing lossless —
//!   every submitted job is reserved by exactly one worker.
//! - The [`cpu_bind`] seam pins workers to distinct allowed cores on
//!   Linux (`sched_setaffinity` through the already-linked libc — no
//!   new dependency) and degrades to a portable no-op elsewhere or when
//!   the kernel refuses. Set `VECDB_POOL_NO_PIN` to disable pinning.
//! - The **submitting thread participates**: instead of parking on the
//!   completion latch while workers wake up, it reserves and runs jobs
//!   itself through the same protocol. A 2-shard fan-out of
//!   microsecond-scale jobs typically finishes entirely on the caller
//!   before the first worker clears its futex wait — fan-out dispatch
//!   stays in single-digit microseconds instead of paying a context
//!   switch per call (the narrow rows of `BENCH_sharding.json`).
//!
//! [`WorkerPool::run`] keeps the scoped fan-out contract every sharded
//! backend relies on: it blocks until all submitted jobs finish, which
//! is what makes lending the caller's stack borrows to the workers
//! sound. Nested fan-outs are detected with a **thread-local in-pool
//! marker** carrying the pool's identity: a pooled job that fans out
//! again *on the same pool* executes inline (queue-and-wait from inside
//! a worker could deadlock once every worker blocks on jobs stuck
//! behind it), while fan-outs from foreign threads — e.g. the serving
//! layer's batcher thread — enqueue normally and get real parallelism.
//! A submitter carries the marker too for as long as it helps, so a job
//! behaves the same whichever thread runs it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Best-effort CPU core binding for pool workers: the seam the
/// shard-home affinity design pins through, with a portable no-op
/// fallback (non-Linux targets, restricted cpusets, failed syscalls).
pub mod cpu_bind {
    /// Logical cores the current thread is allowed to run on, in
    /// ascending order. Empty when the platform cannot report affinity
    /// (the no-op fallback — callers must treat binding as unavailable).
    #[must_use]
    pub fn allowed_cores() -> Vec<usize> {
        imp::allowed_cores()
    }

    /// Pins the calling thread to the `index`-th *allowed* core
    /// (wrapping), so worker `i` of a pool lands on a distinct core
    /// whenever the cpuset offers one per worker. Returns `false` — and
    /// changes nothing — when binding is unavailable or refused.
    pub fn bind_worker(index: usize) -> bool {
        let cores = imp::allowed_cores();
        if cores.is_empty() {
            return false;
        }
        imp::bind_to_core(cores[index % cores.len()])
    }

    #[cfg(target_os = "linux")]
    mod imp {
        /// 1024-bit cpu set, glibc's `cpu_set_t` default width.
        const WORDS: usize = 1024 / 64;

        // Declared directly against the libc every Rust binary on Linux
        // already links; pid 0 addresses the calling thread.
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        }

        pub fn allowed_cores() -> Vec<usize> {
            let mut mask = [0u64; WORDS];
            let ok = unsafe {
                sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) == 0
            };
            if !ok {
                return Vec::new();
            }
            (0..WORDS * 64)
                .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        }

        pub fn bind_to_core(core: usize) -> bool {
            if core >= WORDS * 64 {
                return false;
            }
            let mut mask = [0u64; WORDS];
            mask[core / 64] |= 1u64 << (core % 64);
            unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
        }
    }

    #[cfg(not(target_os = "linux"))]
    mod imp {
        pub fn allowed_cores() -> Vec<usize> {
            Vec::new()
        }

        pub fn bind_to_core(_core: usize) -> bool {
            false
        }
    }
}

/// A type-erased unit of work. The `'static` bound is satisfied by
/// [`WorkerPool::run`] erasing the caller's lifetime *after* arranging to
/// outwait every job it submits.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared coordination state: how many submitted jobs are not yet
/// reserved by a worker, and shutdown.
/// The deques themselves are per-worker; this counter is what makes
/// work-stealing lossless — a worker *reserves* a job here before
/// hunting for it, so jobs can never be dropped or double-run however
/// the steal race resolves.
struct Control {
    state: Mutex<ControlState>,
    ready: Condvar,
    /// Lock-free mirror of `state.pending`, so idle workers can
    /// spin-poll for work without taking the control lock — and without
    /// the submitter paying a futex syscall to wake them. On
    /// para-virtualized hosts a single no-waiter `notify_one` costs
    /// microseconds of syscall interception, which dominated
    /// microsecond-scale fan-outs (see `BENCH_sharding.json` narrow
    /// rows); every condvar here is therefore guarded so the syscall
    /// only happens when a thread is actually parked.
    pending_hint: AtomicUsize,
    /// Workers currently parked in `ready.wait` (mutated under the
    /// control lock; read by submitters to size their wakeups).
    ready_waiters: AtomicUsize,
}

struct ControlState {
    /// Jobs pushed to some deque but not yet reserved by a worker.
    pending: usize,
    shutdown: bool,
}

/// Bounded pre-park spin (4,096 `spin_loop`s: tens of microseconds —
/// 62 µs measured on the 2-core recording host): long enough that a
/// steady stream of fan-outs keeps workers hot and entirely
/// syscall-free, short enough that an idle pool parks quickly instead
/// of starving the threads doing real work on hosts with no spare
/// cores.
const SPIN_ROUNDS: u32 = 1 << 12;

struct Shared {
    control: Control,
    /// One deque per worker; `run_homed` pushes each job on its home
    /// worker's deque, idle workers steal from the busiest.
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Process-unique pool identity for the in-pool thread-local marker.
    id: usize,
}

thread_local! {
    /// The pool id the current thread is running jobs of (0 = none): a
    /// worker for its whole life, a submitter while it helps. A nested
    /// [`WorkerPool::run`] on the *same* pool inlines; runs on other
    /// pools — or from non-pool threads like the serving layer's
    /// batcher — enqueue normally.
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

/// A fixed-size pool of long-lived worker threads with per-worker
/// deques, shard-home placement, and work-stealing.
///
/// Most callers want the process-wide [`global`] pool; dedicated pools
/// are for tests and for isolating workloads with different lifetimes.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
}

impl WorkerPool {
    /// A pool with `workers` threads (at least 1), started immediately,
    /// with no core binding — the right default for short-lived and
    /// test pools, which would otherwise pile onto the first cores.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self::with_binding(workers, false)
    }

    /// A pool whose workers additionally bind to distinct allowed cores
    /// when `bind_cores` is set (via [`cpu_bind`]; silently a no-op
    /// where binding is unavailable).
    #[must_use]
    pub fn with_binding(workers: usize, bind_cores: bool) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            control: Control {
                state: Mutex::new(ControlState {
                    pending: 0,
                    shutdown: false,
                }),
                ready: Condvar::new(),
                pending_hint: AtomicUsize::new(0),
                ready_waiters: AtomicUsize::new(0),
            },
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
        });
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("vecdb-pool-{i}"))
                .spawn(move || worker_loop(&shared, i, bind_cores))
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
    /// in index order, with job `i` placed on worker `i % workers` —
    /// equivalent to [`WorkerPool::run_homed`] with the identity home
    /// function. Blocks until every job has finished — that wait is
    /// what lets the jobs borrow from the caller's stack.
    ///
    /// Falls back to inline sequential execution when `n <= 1` (nothing
    /// to fan out) or when called from inside a job of *this* pool
    /// (detected by the thread-local in-pool marker; queueing and
    /// blocking from a worker could deadlock the fixed-size pool).
    ///
    /// # Panics
    /// Re-raises the first panic raised by any job, after all jobs have
    /// settled.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_homed(n, |i| i, f)
    }

    /// Like [`WorkerPool::run`], but job `i` is enqueued on the deque of
    /// worker `home(i) % workers` — its *home*. Sharded backends pass
    /// the shard index, so a shard's work lands on the same worker (and
    /// core, when bound) every fan-out while its data is warm there.
    /// Homes are placement hints only: idle workers steal from the
    /// busiest deque, so a skewed home never serializes the batch.
    ///
    /// The calling thread participates while it waits: it reserves and
    /// runs queued jobs through the same lossless protocol as the
    /// workers, so small fan-outs usually complete inline without a
    /// context switch. (A job picked up this way may belong to another
    /// concurrent fan-out on the same pool — executing it early is
    /// always sound.) For as long as it helps, the caller carries the
    /// in-pool marker, so a job that fans out again on this pool inlines
    /// on the caller just as it does on a worker; the caller's previous
    /// marker is back before `run_homed` returns or unwinds.
    ///
    /// # Panics
    /// Re-raises the first panic raised by any job, after all jobs have
    /// settled.
    pub fn run_homed<T, F, H>(&self, n: usize, home: H, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        H: Fn(usize) -> usize,
    {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 || IN_POOL.with(std::cell::Cell::get) == self.shared.id {
            return (0..n).map(f).collect();
        }

        type Slot<T> = Mutex<Option<std::thread::Result<T>>>;
        let slots: Vec<Slot<T>> = (0..n).map(|_| Mutex::new(None)).collect();
        let latch = Latch::new(n);

        {
            // Erase the borrow lifetimes: sound because this block (and
            // the latch wait below) strictly outlives every job — `run`
            // does not return until the latch reaches zero.
            let submit = |i: usize| {
                let f = &f;
                let slots = &slots;
                let latch = &latch;
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i)));
                    *slots[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
                    latch.count_down();
                });
                // SAFETY: the job only borrows `f`, `slots`, and `latch`,
                // all of which live until `latch.wait()` below returns —
                // and the latch is counted down exactly once per job, as
                // the last thing the job does.
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
                job
            };
            for i in 0..n {
                let worker = home(i) % self.workers;
                self.shared.deques[worker]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push_back(submit(i));
            }
            let control = &self.shared.control;
            let wakes = {
                // Publish after all pushes: a worker that reserves one of
                // these jobs is guaranteed to find a job in *some* deque
                // (at most `pending` reservations are ever hunting, and
                // the deques hold at least that many jobs).
                let mut state = control
                    .state
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                state.pending += n;
                control.pending_hint.store(state.pending, Ordering::Release);
                // Wake at most n-1 *parked* workers: the caller is about
                // to help run jobs itself, and spinning (unparked) idle
                // workers see the pending hint without a syscall. Read
                // under the lock — parking requires it, so the count
                // cannot grow until we release.
                (n - 1).min(control.ready_waiters.load(Ordering::Relaxed))
            };
            if wakes >= self.workers {
                control.ready.notify_all();
            } else {
                for _ in 0..wakes {
                    control.ready.notify_one();
                }
            }
            // Help: reserve and run jobs through the workers' own
            // protocol until nothing is left to reserve or our batch is
            // done. Only then park on the latch (covers jobs a worker
            // reserved but has not finished). While helping, this thread
            // is a lane of the pool like any worker: a job that fans out
            // again on this pool inlines here exactly as it would there.
            let helping = InPoolGuard::enter(self.shared.id);
            while !latch.done() {
                let reserved = {
                    let mut state = control
                        .state
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    if state.pending > 0 {
                        state.pending -= 1;
                        control.pending_hint.store(state.pending, Ordering::Release);
                        true
                    } else {
                        false
                    }
                };
                if !reserved {
                    break;
                }
                let job = find_job(&self.shared, None);
                job();
            }
            drop(helping);
            latch.wait();
        }

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
        let mut state = self
            .shared
            .control
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.shutdown = true;
        drop(state);
        self.shared.control.ready.notify_all();
        // Workers reserve and run every still-pending job, then exit;
        // they hold their own Arc to the shared state, so no join is
        // required for soundness (jobs never outlive the `run` call
        // that submitted them).
    }
}

/// A countdown latch: `wait` blocks until `count_down` has been called
/// `n` times. The count is a plain atomic so the common path — the
/// submitter polling while it helps run jobs, then spinning out the
/// last stragglers — never touches a lock or a futex; the condvar is
/// only armed (and its notify syscall only paid) when the waiter
/// actually parks.
struct Latch {
    /// `remaining << 1 | parked`: the job count and the "waiter is
    /// parked" bit share one atomic, which is what makes the teardown
    /// race impossible to lose. The waiter may free the latch the
    /// instant it observes the count at zero, so `count_down` must not
    /// touch `self` after the final decrement — *unless* that same
    /// decrement observed the parked bit, in which case the waiter is
    /// provably inside `zero.wait` (it parks while holding `parked` and
    /// cannot return, let alone free the latch, until the notifier
    /// releases the mutex).
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

    fn count_down(&self) {
        let prev = self.state.fetch_sub(2, Ordering::AcqRel);
        if prev >> 1 == 1 && prev & 1 == 1 {
            // Last job, waiter parked: safe to touch (see `state`), and
            // holding the mutex across the notify pins the waiter in
            // `zero.wait` until we are done with the latch.
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
        // before the bit landed, the last job saw the bit unset and will
        // never notify — but then this check sees zero and we never
        // wait. Otherwise the last job is still outstanding and is
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

/// Pops the next job for `me` (`Some(worker)` for a pool worker, `None`
/// for a participating submitter with no deque of its own): the own
/// deque's front first (home-affine, FIFO within a shard), otherwise
/// the *back* of the busiest other deque (stealing the coldest work of
/// the most loaded worker). The caller has already reserved a job in
/// the control state, so a job is guaranteed to exist in some deque;
/// the loop only spins across momentary races with other hunters
/// mid-pop.
fn find_job(shared: &Shared, me: Option<usize>) -> Job {
    loop {
        if let Some(own) = me {
            if let Some(job) = shared.deques[own]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .pop_front()
            {
                return job;
            }
        }
        let mut busiest: Option<(usize, usize)> = None; // (len, index)
        for (i, deque) in shared.deques.iter().enumerate() {
            if Some(i) == me {
                continue;
            }
            let len = deque
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len();
            if len > 0 && busiest.is_none_or(|(best, _)| len > best) {
                busiest = Some((len, i));
            }
        }
        if let Some((_, victim)) = busiest {
            if let Some(job) = shared.deques[victim]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .pop_back()
            {
                return job;
            }
        }
        std::hint::spin_loop();
    }
}

fn worker_loop(shared: &Shared, me: usize, bind_cores: bool) {
    if bind_cores {
        // Best effort: a refused bind leaves the thread free-floating.
        let _ = cpu_bind::bind_worker(me);
    }
    IN_POOL.with(|pool| pool.set(shared.id));
    let control = &shared.control;
    loop {
        // Reserve one job (or exit on drained shutdown). Spin on the
        // lock-free pending hint first: under a steady stream of
        // fan-outs the worker picks up the next job without a single
        // futex syscall on either side; only a genuinely idle pool
        // parks.
        let mut spins = SPIN_ROUNDS;
        loop {
            if spins > 0 && control.pending_hint.load(Ordering::Acquire) == 0 {
                spins -= 1;
                std::hint::spin_loop();
                continue;
            }
            let mut state = control
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let reserved = loop {
                if state.pending > 0 {
                    state.pending -= 1;
                    control.pending_hint.store(state.pending, Ordering::Release);
                    break true;
                }
                if state.shutdown {
                    return;
                }
                if spins > 0 {
                    // Spin budget left: release the lock and go back to
                    // polling the hint instead of parking.
                    break false;
                }
                control.ready_waiters.fetch_add(1, Ordering::Relaxed);
                state = control
                    .ready
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                control.ready_waiters.fetch_sub(1, Ordering::Relaxed);
            };
            if reserved {
                break;
            }
        }
        // …then go find it: home deque first, steal otherwise.
        let job = find_job(shared, Some(me));
        job();
    }
}

/// The process-wide pool shared by every sharded backend and batch
/// executor: one thread per available core *minus one*, created on
/// first use — the submitting thread participates in execution while it
/// waits, so it is itself the remaining lane, and a full complement of
/// workers would only fight it for cores. Workers bind to distinct
/// cores (see [`cpu_bind`]) unless `VECDB_POOL_NO_PIN` is set; with the
/// sharded layers' index-keyed homes this gives every shard a stable
/// home core.
pub fn global() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
        let bind = std::env::var_os("VECDB_POOL_NO_PIN").is_none();
        WorkerPool::with_binding(cores.saturating_sub(1).max(1), bind)
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
    fn run_homed_single_home_is_rebalanced_by_stealing() {
        // Every job homed on worker 0: without stealing, one worker
        // would run the whole batch while three idle. The results must
        // still come back complete and in index order.
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        let out = pool.run_homed(
            32,
            |_| 0,
            |i| {
                counter.fetch_add(1, Ordering::Relaxed);
                i * 3
            },
        );
        assert_eq!(out, (0..32).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(counter.load(Ordering::Relaxed), 32);
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
        // index order on the submitter; enqueued, the submitter would
        // take them off the back of the worker's deque, last first.
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

    #[test]
    fn cpu_bind_is_safe_to_call() {
        // Either real binding (Linux with an inspectable cpuset) or the
        // portable no-op — both must return without disturbing the
        // thread. Re-bind to every allowed core and end unrestricted
        // among them.
        let cores = cpu_bind::allowed_cores();
        for i in 0..cores.len() {
            cpu_bind::bind_worker(i);
        }
        if let Some(&first) = cores.first() {
            let _ = first;
        }
    }
}
