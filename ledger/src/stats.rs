//! Estimators: percentiles, the "ten samples beyond" rule, and
//! median-of-slices summaries of a measured phase.

/// Median of `values` (mean of the two middle ones for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Tail percentiles the ledger reports, highest first.
const TAILS: [usize; 6] = [99, 98, 95, 90, 75, 50];

/// The highest percentile of [`TAILS`] that still has at least ten of
/// `n` samples beyond it: p99 needs 1,000 samples, p98 500, p95 200.
/// Falls back to the median when even p75 has too few.
pub fn supported_tail(n: usize) -> f64 {
    TAILS
        .into_iter()
        .find(|p| n * (100 - p) >= 1000)
        .unwrap_or(50) as f64
}

/// One completed operation: when it completed (seconds from the start
/// of the measured phase) and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at_s: f64,
    pub latency_us: f64,
}

/// A measured phase cut into slices, each read on its own and scaled to
/// the reference host speed, and the slices' readings reduced to their
/// median. Where slices are of several kinds the median is taken within
/// each kind, and the kinds' medians are averaged: every run has the same
/// kinds, so the mean over them uses all of them and is still like for
/// like (a median over four kinds would read two). Within a slice the readings are
/// plain percentiles of the operations' latencies.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Operations completed in whole slices.
    pub samples: usize,
    /// Median over slices of operations per second.
    pub ops_per_s: f64,
    /// Median over slices of the slice's median latency.
    pub p50_us: f64,
    /// Median over slices of the slice's 95th-percentile latency.
    pub p95_us: f64,
    /// Median over slices of the slice's tail latency at `tail_pct`.
    pub tail_us: f64,
    /// The percentile `tail_us` is taken at: 99 when the smallest slice
    /// has 1,000 samples, lower otherwise (see [`supported_tail`]).
    pub tail_pct: f64,
    /// The non-empty slices, latencies ascending — kept so that phases
    /// measured apart (one per set-up) can be summarised as one.
    pub slices: Vec<Slice>,
}

/// One slice of a measured phase: the latencies of the operations that
/// completed in it, and how long it lasted.
#[derive(Debug, Clone)]
pub struct Slice {
    pub latencies_us: Vec<f64>,
    pub duration_s: f64,
    /// Slices of one kind did the same work and compare like with like.
    /// Every time slice is of kind 0. A checkpoint cycle's kind is its
    /// index within its segment, because a write gets slower with every
    /// write before it: the third cycle after a set-up is not the first.
    pub kind: usize,
    /// Host speed while the slice ran, as a share of the reference speed
    /// (`host.rs`); 1.0 where it was not sampled. A slice's readings are
    /// what they would have been at speed 1.0: throughput divided by it,
    /// latencies multiplied by it.
    pub host: f64,
}

impl Default for Slice {
    fn default() -> Self {
        Self {
            latencies_us: Vec::new(),
            duration_s: 0.0,
            kind: 0,
            host: 1.0,
        }
    }
}

/// Cuts `samples` into `slices` slices of `slice_s` seconds each.
/// Samples completing after the last slice are dropped.
pub fn time_slices(samples: &[Sample], slice_s: f64, slices: usize) -> Vec<Slice> {
    let mut out = vec![
        Slice {
            duration_s: slice_s,
            ..Slice::default()
        };
        slices
    ];
    for s in samples {
        let idx = (s.at_s / slice_s) as usize;
        if idx < slices {
            out[idx].latencies_us.push(s.latency_us);
        }
    }
    out
}

/// Summarises a phase: within each kind of slice the median of the
/// slices' readings, then the mean over the kinds. An empty slice (a
/// stall longer than a slice) counts as zero throughput and adds no
/// latency. Returns `None` when some kind holds no sample.
pub fn summarize(mut slices: Vec<Slice>) -> Option<Summary> {
    let samples = slices.iter().map(|s| s.latencies_us.len()).sum();
    let smallest = slices
        .iter()
        .map(|s| s.latencies_us.len())
        .filter(|&n| n > 0)
        .min()?;
    let tail_pct = supported_tail(smallest);
    for slice in &mut slices {
        slice.latencies_us.sort_by(f64::total_cmp);
    }
    let mut kinds: Vec<usize> = slices.iter().map(|s| s.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    // One reading per kind: the median of `read` over the kind's slices
    // (over its non-empty ones for a latency).
    let over_kinds = |read: &dyn Fn(&Slice) -> Option<f64>| {
        let per_kind: Option<Vec<f64>> = kinds
            .iter()
            .map(|&kind| {
                let readings: Vec<f64> = slices
                    .iter()
                    .filter(|s| s.kind == kind)
                    .filter_map(read)
                    .collect();
                (!readings.is_empty()).then(|| median(&readings))
            })
            .collect();
        per_kind.map(|v| v.iter().sum::<f64>() / v.len() as f64)
    };
    let latency = |p: f64| {
        move |s: &Slice| {
            (!s.latencies_us.is_empty()).then(|| percentile(&s.latencies_us, p) * s.host)
        }
    };
    let summary = Summary {
        samples,
        ops_per_s: over_kinds(&|s| Some(s.latencies_us.len() as f64 / s.duration_s / s.host))?,
        p50_us: over_kinds(&latency(50.0))?,
        p95_us: over_kinds(&latency(95.0))?,
        tail_us: over_kinds(&latency(tail_pct))?,
        tail_pct,
        slices: Vec::new(),
    };
    slices.retain(|s| !s.latencies_us.is_empty());
    Some(Summary { slices, ..summary })
}

/// Min / median / max of one metric over `--repeat` repeats, and the
/// spread `max / min - 1`.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub spread: f64,
}

pub fn spread(values: &[f64]) -> Spread {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Spread {
        min,
        median: median(values),
        max,
        spread: if min > 0.0 { max / min - 1.0 } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(1000), 99.0);
        assert_eq!(supported_tail(999), 98.0);
        assert_eq!(supported_tail(500), 98.0);
        assert_eq!(supported_tail(499), 95.0);
        assert_eq!(supported_tail(200), 95.0);
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(40), 75.0);
        assert_eq!(supported_tail(39), 50.0);
        assert_eq!(supported_tail(0), 50.0);
    }

    #[test]
    fn summary_takes_the_median_of_slices_not_of_samples() {
        // Five 1 s slices: 10, 30, 20, 40 and 50 operations with
        // latencies of 100, 300, 200, 400 and 500 µs. Each reading is the
        // median of the slices' own readings, whatever their sample
        // counts (the median sample has 400 µs).
        let mut samples = Vec::new();
        for (slice, (count, latency)) in [
            (10, 100.0),
            (30, 300.0),
            (20, 200.0),
            (40, 400.0),
            (50, 500.0),
        ]
        .iter()
        .enumerate()
        {
            for i in 0..*count {
                samples.push(Sample {
                    at_s: slice as f64 + f64::from(i) / 100.0,
                    latency_us: *latency,
                });
            }
        }
        // Past the last slice: dropped.
        samples.push(Sample {
            at_s: 5.5,
            latency_us: 9e9,
        });
        let s = summarize(time_slices(&samples, 1.0, 5)).unwrap();
        assert_eq!(s.samples, 150);
        assert_eq!(s.slices.len(), 5);
        assert_eq!(s.ops_per_s, 30.0);
        assert_eq!(s.p50_us, 300.0);
        assert_eq!(s.p95_us, 300.0);
        assert_eq!(s.tail_us, 300.0);
        // The smallest slice has ten samples: no tail beyond the median.
        assert_eq!(s.tail_pct, 50.0);
    }

    #[test]
    fn readings_are_scaled_to_the_reference_host_speed() {
        // The same work on a host at 0.8 of the reference speed and on
        // one at 1.25: 80 and 125 operations a second, 1,250 and 800 µs.
        let slice = |host: f64| Slice {
            latencies_us: vec![1000.0 / host; (100.0 * host) as usize],
            duration_s: 1.0,
            host,
            ..Slice::default()
        };
        let s = summarize(vec![slice(0.8), slice(1.25)]).unwrap();
        assert!((s.ops_per_s - 100.0).abs() < 1e-9, "{}", s.ops_per_s);
        assert!((s.p50_us - 1000.0).abs() < 1e-9, "{}", s.p50_us);
        assert!((s.p95_us - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn summary_reports_the_percentile_it_used() {
        let samples: Vec<Sample> = (0..2400)
            .map(|i| Sample {
                at_s: f64::from(i) / 1200.0,
                latency_us: f64::from(i % 1200),
            })
            .collect();
        let s = summarize(time_slices(&samples, 1.0, 2)).unwrap();
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail_us, 1187.0);
        assert_eq!(s.p95_us, 1139.0);
        let s = summarize(time_slices(&samples[..1800], 1.0, 2)).unwrap();
        assert_eq!(s.tail_pct, 98.0);
    }

    #[test]
    fn summary_counts_a_stalled_slice_as_zero_throughput() {
        let samples = [
            Sample {
                at_s: 0.5,
                latency_us: 10.0,
            },
            Sample {
                at_s: 2.5,
                latency_us: 30.0,
            },
        ];
        let s = summarize(time_slices(&samples, 1.0, 3)).unwrap();
        assert_eq!(s.ops_per_s, 1.0);
        assert_eq!(s.p50_us, 20.0);
        assert_eq!(s.slices.len(), 2);
        assert!(summarize(time_slices(&[], 1.0, 3)).is_none());
    }

    #[test]
    fn slices_of_unequal_length_weigh_throughput_by_their_own_duration() {
        // Checkpoint cycles: the same 4 writes take 1 s, 2 s and 4 s.
        let cycle = |duration_s: f64| Slice {
            latencies_us: vec![10.0, 20.0, 30.0, 1e6],
            duration_s,
            ..Slice::default()
        };
        let s = summarize(vec![cycle(1.0), cycle(2.0), cycle(4.0)]).unwrap();
        assert_eq!(s.ops_per_s, 2.0);
        assert_eq!(s.p50_us, 20.0);
        assert_eq!(s.samples, 12);
    }

    #[test]
    fn slices_of_a_kind_compare_with_each_other_only() {
        // Two segments of three checkpoint cycles; a cycle is slower the
        // later it comes after its set-up.
        let cycle = |kind: usize, latency: f64, duration_s: f64| Slice {
            latencies_us: vec![latency; 4],
            duration_s,
            kind,
            ..Slice::default()
        };
        let a = [cycle(0, 2.0, 1.0), cycle(1, 3.0, 2.0), cycle(2, 8.0, 4.0)];
        let b = [cycle(0, 2.5, 2.0), cycle(1, 9.5, 4.0), cycle(2, 9.0, 8.0)];
        let s = summarize([a, b].concat()).unwrap();
        // Per kind the median of the two (2.25, 6.25, 8.5), then their
        // mean: not the 5.5 in the middle of all six.
        assert!((s.p50_us - 17.0 / 3.0).abs() < 1e-12, "{}", s.p50_us);
        // Writes per second per kind: 4, 2 and 1 against 2, 1 and 0.5.
        assert!((s.ops_per_s - 1.75).abs() < 1e-12, "{}", s.ops_per_s);
        assert_eq!(s.slices.len(), 6);
    }

    #[test]
    fn phases_measured_apart_summarise_as_one() {
        let phase = |latency: f64| -> Vec<Sample> {
            (0..40)
                .map(|i| Sample {
                    at_s: f64::from(i) / 10.0,
                    latency_us: latency + f64::from(i / 10),
                })
                .collect()
        };
        let a = summarize(time_slices(&phase(100.0), 1.0, 4)).unwrap();
        let b = summarize(time_slices(&phase(200.0), 1.0, 4)).unwrap();
        let both = summarize([a.slices, b.slices].concat()).unwrap();
        assert_eq!(both.samples, 80);
        assert_eq!(both.slices.len(), 8);
        // Eight slice medians 100..103, 200..203.
        assert_eq!(both.p50_us, 151.5);
    }

    #[test]
    fn spread_is_max_over_min() {
        let s = spread(&[100.0, 110.0, 105.0]);
        assert_eq!((s.min, s.median, s.max), (100.0, 105.0, 110.0));
        assert!((s.spread - 0.1).abs() < 1e-12);
    }
}
