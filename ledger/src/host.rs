//! How fast the host is running, sampled while the benchmark measures.
//!
//! The benchmark's hosts are shared virtual machines whose speed moves by
//! a third for minutes at a time — longer than a run, so no estimator over
//! the slices of one run can see past it (see "Repeatability" in the
//! README for the measurements). The ledger therefore runs a fixed
//! reference computation for two milliseconds of CPU time every fifty,
//! all through an untraced run, and reports every gated timing at the
//! reference host speed: scaled by the reference rate seen while it was
//! taken, over [`NOMINAL_RATE`]. The reference is the ledger's own code
//! and touches nothing of the system under test, so no change to the
//! system moves it. How much a workload slows when the reference slows
//! by one per cent is the workload's *sensitivity*, a measured constant of
//! the workload table (1.0 for most; the README has the measurements).
//!
//! Two drivers share one log of samples. A [`Probe`] runs the bursts on
//! the thread that drives a load loop, between operations — the speed of
//! *that* virtual CPU is what a single-threaded loop depends on, and a
//! thread of its own would sit on the idle one. A [`Sampler`] thread runs
//! them during set-up, which is one long call that keeps every core busy.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Reference iterations per CPU-second on an undisturbed host of the kind
/// the ledger was sized on, so that a speed of 1.0 is that host. A
/// constant of the benchmark: changing it rescales every gated timing.
pub const NOMINAL_RATE: f64 = 290_000.0;

/// CPU time of one burst, and how often one starts.
const BURST: Duration = Duration::from_millis(2);
const PERIOD: Duration = Duration::from_millis(50);

/// CPU time this thread has used. Wall time would charge a burst for
/// every moment the workload's own threads keep it off a core.
#[cfg(target_os = "linux")]
fn thread_cpu_time() -> Duration {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time all threads of this process have used.
#[cfg(target_os = "linux")]
pub fn process_cpu_time() -> Duration {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(target_os = "linux")]
fn cpu_clock(clock: i32) -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // 64-bit Linux) and the clock id is a constant the kernel knows.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock})");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Elsewhere: wall time, which over-charges a burst that was descheduled.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_time() -> Duration {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed()
}

#[cfg(not(target_os = "linux"))]
pub fn process_cpu_time() -> Duration {
    thread_cpu_time()
}

/// The reference computation: per iteration a dot product, a run of
/// scattered reads in a 4 MB table and a byte scan — the kinds of work
/// the system under test spends its time on, in a working set larger
/// than a core's private caches. Fixed before any workload was compared
/// with it; of six single-purpose candidates measured afterwards (README)
/// none tracked the four workloads better.
struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    table: Vec<u64>,
    text: Vec<u8>,
    state: u64,
}

impl Reference {
    fn new() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        Self {
            a: (0..1024).map(|_| (next() % 1000) as f32 / 1000.0).collect(),
            b: (0..1024).map(|_| (next() % 1000) as f32 / 1000.0).collect(),
            table: (0..1 << 19).map(|_| next()).collect(),
            text: (0..2048)
                .map(|_| b"abcdefghij klmnop,qrs.tuv"[(next() % 25) as usize])
                .collect(),
            state: 1,
        }
    }

    fn iteration(&mut self) -> u64 {
        let dot: f32 = self.a.iter().zip(&self.b).map(|(x, y)| x * y).sum();
        let mask = self.table.len() as u64 - 1;
        let mut h = self.state;
        let mut sum = 0u64;
        for _ in 0..64 {
            h = h.wrapping_mul(0xd6e8_feb8_6659_fd93).rotate_left(29);
            sum = sum.wrapping_add(self.table[(h & mask) as usize]);
        }
        self.state = h;
        let mut words = 0u64;
        let mut in_word = false;
        for &c in &self.text {
            let letter = c.is_ascii_lowercase();
            words += u64::from(letter && !in_word);
            in_word = letter;
        }
        sum ^ words ^ u64::from(dot.to_bits())
    }

    /// Iterations per CPU-second over one burst.
    fn burst(&mut self) -> f64 {
        let from = thread_cpu_time();
        let mut iterations = 0u64;
        let mut sink = 0u64;
        loop {
            for _ in 0..8 {
                sink ^= self.iteration();
            }
            iterations += 8;
            let used = thread_cpu_time() - from;
            if used >= BURST {
                std::hint::black_box(sink);
                return iterations as f64 / used.as_secs_f64();
            }
        }
    }
}

/// The log of reference rates, each with the moment it was taken.
#[derive(Clone)]
pub struct HostSpeed {
    samples: Arc<Mutex<Vec<(Instant, f64)>>>,
    /// An untraced run samples; the traced pass reports raw timings.
    enabled: bool,
    /// Exponent [`HostSpeed::between`] raises the sampled speed to.
    sensitivity: f64,
}

impl HostSpeed {
    pub fn new(enabled: bool) -> Self {
        Self {
            samples: Arc::default(),
            enabled,
            sensitivity: 1.0,
        }
    }

    /// The same log, read for work that slows by `sensitivity` per cent
    /// when the reference slows by one.
    pub fn with_sensitivity(&self, sensitivity: f64) -> Self {
        Self {
            sensitivity,
            ..self.clone()
        }
    }

    fn push(&self, rate: f64) {
        self.samples
            .lock()
            .expect("no holder of the sample log panics")
            .push((Instant::now(), rate));
    }

    /// Host speed between two moments as a share of the reference speed:
    /// the median rate sampled in between — or, when a stall left the
    /// interval without a sample, the sample nearest to it — over
    /// [`NOMINAL_RATE`], raised to the sensitivity. 1.0 when nothing was
    /// sampled at all, which is the case when sampling is off.
    pub fn between(&self, from: Instant, to: Instant) -> f64 {
        let samples = self
            .samples
            .lock()
            .expect("no holder of the sample log panics");
        let inside: Vec<f64> = samples
            .iter()
            .filter(|(at, _)| (from..=to).contains(at))
            .map(|&(_, rate)| rate)
            .collect();
        let rate = if inside.is_empty() {
            let distance = |at: Instant| {
                from.saturating_duration_since(at)
                    .max(at.saturating_duration_since(to))
            };
            samples
                .iter()
                .min_by_key(|(at, _)| distance(*at))
                .map(|&(_, rate)| rate)
        } else {
            Some(crate::stats::median(&inside))
        };
        rate.map_or(1.0, |r| (r / NOMINAL_RATE).powf(self.sensitivity))
    }

    /// A probe for the calling thread's load loop.
    pub fn probe(&self) -> Probe {
        Probe {
            log: self.clone(),
            reference: self.enabled.then(Reference::new),
            next: Instant::now(),
        }
    }

    /// Samples from a thread of its own until the guard is dropped.
    pub fn sampler(&self) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = self.enabled.then(|| {
            let (log, stop) = (self.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut reference = Reference::new();
                while !stop.load(Ordering::Relaxed) {
                    log.push(reference.burst());
                    std::thread::sleep(PERIOD - BURST);
                }
            })
        });
        Sampler { stop, thread }
    }
}

/// Runs a burst on the calling thread whenever one is due.
pub struct Probe {
    log: HostSpeed,
    reference: Option<Reference>,
    next: Instant,
}

impl Probe {
    /// Call between operations: a clock read, and every [`PERIOD`] a
    /// burst. Never inside a timed call.
    pub fn tick(&mut self) {
        let Some(reference) = &mut self.reference else {
            return;
        };
        if Instant::now() >= self.next {
            self.log.push(reference.burst());
            self.next = Instant::now() + (PERIOD - BURST);
        }
    }
}

/// The sampler thread; stops and is joined on drop.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            // A sampler that panicked shows as missing samples.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_measures_a_positive_rate() {
        let mut reference = Reference::new();
        let (a, b) = (reference.burst(), reference.burst());
        assert!(a > 0.0 && b > 0.0);
        assert!((a / b) > 0.2 && (a / b) < 5.0, "{a} against {b}");
    }

    #[test]
    fn speed_is_the_median_inside_the_interval_or_the_nearest_sample() {
        let log = HostSpeed::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        assert_eq!(log.between(at(0), at(10)), 1.0);
        for (ms, speed) in [(10, 1.0), (20, 3.0), (30, 2.0), (100, 8.0)] {
            log.samples
                .lock()
                .unwrap()
                .push((at(ms), speed * NOMINAL_RATE));
        }
        assert_eq!(log.between(at(5), at(35)), 2.0);
        assert_eq!(log.between(at(15), at(25)), 3.0);
        // Nothing inside: the nearest sample, before or after.
        assert_eq!(log.between(at(40), at(60)), 2.0);
        assert_eq!(log.between(at(75), at(90)), 8.0);
        assert_eq!(log.between(at(200), at(300)), 8.0);
        let sensitive = log.with_sensitivity(2.0);
        assert_eq!(sensitive.between(at(15), at(25)), 9.0);
    }

    #[test]
    fn a_disabled_log_runs_no_burst() {
        let log = HostSpeed::new(false);
        log.probe().tick();
        drop(log.sampler());
        assert!(log.samples.lock().unwrap().is_empty());
        let now = Instant::now();
        assert_eq!(log.between(now, now), 1.0);
    }

    #[test]
    fn probe_and_sampler_both_log() {
        let log = HostSpeed::new(true);
        log.probe().tick();
        assert_eq!(log.samples.lock().unwrap().len(), 1);
        let sampler = log.sampler();
        while log.samples.lock().unwrap().len() < 2 {
            std::thread::yield_now();
        }
        drop(sampler);
    }
}
