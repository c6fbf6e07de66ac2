//! Minimal vendored stand-in for the `criterion` benchmark harness.
//!
//! Supports the API surface the `bench` crate uses: `Criterion`,
//! `benchmark_group` / `bench_function` / `bench_with_input` /
//! `sample_size` / `finish`, `BenchmarkId`, `black_box`, and the
//! `criterion_group!` / `criterion_main!` macros (benches are built with
//! `harness = false`, so `criterion_main!` provides `main`).
//!
//! Measurement is adaptive: each benchmark's closure is warmed up, then
//! iterated until a minimum measurement window passes; the mean
//! wall-clock time per iteration is printed in a criterion-like format.
//! Set `CRITERION_QUICK=1` to shrink the window to 5 ms (CI smoke runs),
//! or `CRITERION_WINDOW_MS=<ms>` to pick the window explicitly (the
//! bench-regression gate uses 25 ms: ~4x faster than the default with
//! far less noise than the 5 ms smoke window).

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Prevents the optimizer from eliding a value or the work producing it.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Identifier of a parameterized benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name plus a parameter value.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Per-iteration timing collector handed to benchmark closures.
pub struct Bencher {
    mean_ns: f64,
    measure_window: Duration,
}

impl Bencher {
    /// Times `f`, adaptively choosing an iteration count.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warmup (also primes caches/allocations).
        black_box(f());
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= self.measure_window || iters >= MAX_ITERS {
                self.mean_ns = elapsed.as_nanos() as f64 / iters as f64;
                return;
            }
            iters = next_iters(iters, elapsed, self.measure_window);
        }
    }

    /// Like [`Bencher::iter`]; real criterion defers dropping the
    /// returned value out of the timing window, while this shim simply
    /// times the closure (drop cost included).
    pub fn iter_with_large_drop<O, F: FnMut() -> O>(&mut self, f: F) {
        self.iter(f);
    }
}

/// The most iterations one timing round runs.
const MAX_ITERS: u64 = 1 << 24;

/// The iterations of the next timing round after `iters` took `elapsed`:
/// aimed straight at the window from what that round saw, at least
/// double, and never past [`MAX_ITERS`] (a fast closure can pass half of
/// it before the window fills).
fn next_iters(iters: u64, elapsed: Duration, window: Duration) -> u64 {
    let per_iter = (elapsed.as_nanos() as f64 / iters as f64).max(1.0);
    let target = window.as_nanos() as f64 / per_iter;
    (target.ceil() as u64).max(iters * 2).min(MAX_ITERS)
}

fn measure_window() -> Duration {
    if let Some(ms) = std::env::var("CRITERION_WINDOW_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        return Duration::from_millis(ms.max(1));
    }
    if std::env::var("CRITERION_QUICK").is_ok_and(|v| v == "1") {
        Duration::from_millis(5)
    } else {
        Duration::from_millis(100)
    }
}

fn run_one(group: Option<&str>, id: &str, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher {
        mean_ns: 0.0,
        measure_window: measure_window(),
    };
    f(&mut b);
    let full = match group {
        Some(g) => format!("{g}/{id}"),
        None => id.to_owned(),
    };
    let (value, unit) = if b.mean_ns >= 1e9 {
        (b.mean_ns / 1e9, "s")
    } else if b.mean_ns >= 1e6 {
        (b.mean_ns / 1e6, "ms")
    } else if b.mean_ns >= 1e3 {
        (b.mean_ns / 1e3, "µs")
    } else {
        (b.mean_ns, "ns")
    };
    println!("{full:<50} time: {value:10.3} {unit}/iter");
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the sample count (accepted for API compatibility; the shim's
    /// adaptive timing ignores it).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Benchmarks a closure under an id.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_one(Some(&self.name), &id.into().id, &mut f);
        self
    }

    /// Benchmarks a closure that receives an input by reference.
    pub fn bench_with_input<I>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        run_one(Some(&self.name), &id.into().id, &mut |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(&mut self) {}
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            _criterion: self,
        }
    }

    /// Benchmarks a closure at the top level.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_one(None, &id.into().id, &mut f);
        self
    }
}

/// Declares a benchmark group function running the listed benchmarks.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running the listed benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_times() {
        std::env::set_var("CRITERION_QUICK", "1");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        let mut count = 0u64;
        group.sample_size(10);
        group.bench_function("inc", |b| {
            b.iter(|| {
                count = count.wrapping_add(1);
                black_box(count)
            });
        });
        group.bench_with_input(BenchmarkId::new("param", 4), &4u64, |b, &x| {
            b.iter(|| black_box(x * 2));
        });
        group.finish();
        assert!(count > 0);
    }

    #[test]
    fn the_iteration_count_stops_at_the_cap() {
        let window = Duration::from_millis(1000);
        // Past half the cap with the window not yet full: the doubling
        // would overshoot, so the cap holds.
        let iters = MAX_ITERS / 2 + 1;
        assert_eq!(
            next_iters(iters, Duration::from_millis(100), window),
            MAX_ITERS
        );
        // Below it: aimed at the window, at least double.
        assert_eq!(next_iters(1000, Duration::from_millis(100), window), 10_000);
        assert_eq!(next_iters(1000, Duration::from_millis(900), window), 2000);
    }
}
