//! Micro-diagnostic for the worker pool's fan-out dispatch cost.
//!
//! Times `WorkerPool::run` over trivial jobs — so the measurement is
//! pure coordination: publishing the fan-out record, claims from its
//! cursor, participation, wakeups, and the completion latch — and
//! tallies how many jobs ran on the submitting thread versus pool
//! workers. With jobs this short the submitter usually claims nearly
//! every index before a worker reaches the record.
//!
//! Context for the numbers: on para-virtualized hosts (gVisor-style
//! syscall interception) a single futex syscall costs 5–12 µs, so any
//! parked-thread wakeup on the fan-out path dominates microsecond-scale
//! per-shard work. The pool therefore spin-polls a lock-free count of
//! open fan-outs before parking and guards every condvar notify behind a
//! waiter count; this binary is how that stays honest. Expect low single-digit
//! microseconds for `run(2)` on a warm pool; tens of microseconds means
//! a syscall crept back into the steady-state path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

fn main() {
    let pool = vecdb::pool::global();
    let on_client = AtomicUsize::new(0);
    let on_worker = AtomicUsize::new(0);
    let tally = |_i: usize| {
        if std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("vecdb-pool-"))
        {
            on_worker.fetch_add(1, Ordering::Relaxed);
        } else {
            on_client.fetch_add(1, Ordering::Relaxed);
        }
    };
    println!(
        "global pool: {} workers + participating submitter",
        pool.workers()
    );
    for _ in 0..1_000 {
        pool.run(2, tally);
    }
    on_client.store(0, Ordering::Relaxed);
    on_worker.store(0, Ordering::Relaxed);
    for &n in &[2usize, 4, 8] {
        let iters = 20_000;
        let t = Instant::now();
        for _ in 0..iters {
            pool.run(n, tally);
        }
        println!(
            "run({n}) trivial jobs: {:7.2} us/fanout  (ran on submitter {}, on workers {})",
            t.elapsed().as_secs_f64() * 1e6 / f64::from(iters),
            on_client.swap(0, Ordering::Relaxed),
            on_worker.swap(0, Ordering::Relaxed),
        );
    }
}
