//! Distance metrics, plus the one scoring kernel every hot path bottoms
//! out in.
//!
//! Every comparison in the crate — HNSW insert, re-selection and search, the
//! exact scan, the quantized coarse pass, the rerank — is a sum of
//! per-element terms over two equal-length slices. `lane_sum` is the
//! only place such a sum is accumulated: `L` independent partial sums
//! over the full `L`-element chunks, a sequential tail, a fixed halving
//! reduction. A single `f32` add chain may not be reordered by the
//! compiler and runs at add latency; `L` independent chains are plain
//! safe Rust that it vectorizes. That order — lanes, halving, then tail
//! — is the **canonical accumulation order** of the crate: there is no
//! second kernel for results to be bit-identical *to*.
//!
//! Collection data is immutable once inserted, so the L2 norm of every
//! stored vector is known at insert time. [`inv_norm`] computes the
//! cached inverse norm; [`Distance::distance_normed`] consumes it, which
//! for [`Distance::Cosine`] turns every comparison into a single dot
//! product (no per-comparison `sqrt`, no re-summing the stored vector's
//! squares). [`Distance::score_batch`] scores one stored vector against
//! M query vectors while it is hot in L1.

use serde::{Deserialize, Serialize};

/// Lane count of the kernel for `f32 × f32` operands. At 256-d one
/// chain measures ~145 ns a comparison, 4 lanes ~49, 8 or 16 lanes ~40,
/// 32 lanes ~50 (`kernel/f32-256` in `cargo bench --bench hnsw`).
const F32_LANES: usize = 16;

/// The crate's one accumulation loop: `Σ term(a[i], b[i])` over the
/// common prefix of `a` and `b`, summed as `L` independent lanes
/// (element `i` of each full `L`-chunk goes to lane `i % L`), reduced by
/// halving (`acc[l] += acc[l + w]` for `w = L/2, L/4, …, 1`), with the
/// `len % L` tail elements summed sequentially and added last. `L` must
/// be a power of two.
///
/// The tail is a scalar sum of its own on purpose: folding tail
/// elements into `acc[l]` by a run-time lane index turns the vector
/// loop into shuffles. The loops are `while` over fixed-size windows
/// rather than iterator adapters because optimized builds compile both
/// to the same vector loop, while unoptimized ones — every test that
/// builds an index — run this form about 2.7x faster.
#[inline(always)]
pub(crate) fn lane_sum<const L: usize, A: Copy, B: Copy>(
    a: &[A],
    b: &[B],
    term: impl Fn(A, B) -> f32,
) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let full = n - n % L;
    let mut acc = [0.0f32; L];
    let mut i = 0;
    while i < full {
        let (ca, cb) = (&a[i..i + L], &b[i..i + L]);
        let mut l = 0;
        while l < L {
            acc[l] += term(ca[l], cb[l]);
            l += 1;
        }
        i += L;
    }
    let mut tail = 0.0f32;
    while i < n {
        tail += term(a[i], b[i]);
        i += 1;
    }
    let mut width = L / 2;
    while width > 0 {
        for l in 0..width {
            acc[l] += acc[l + width];
        }
        width /= 2;
    }
    acc[0] + tail
}

/// Dot product `Σ aᵢ·bᵢ` in the canonical order.
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    lane_sum::<F32_LANES, _, _>(a, b, |x, y| x * y)
}

/// Squared Euclidean distance `Σ (aᵢ−bᵢ)²` in the canonical order.
#[inline]
fn sq_euclid(a: &[f32], b: &[f32]) -> f32 {
    lane_sum::<F32_LANES, _, _>(a, b, |x, y| {
        let d = x - y;
        d * d
    })
}

/// `1/√n` for a squared norm `n`, `0.0` for `n == 0` — which makes the
/// cosine distance degrade to the conventional "zero vector is
/// maximally far" answer.
#[inline]
pub(crate) fn inv_sqrt_or_zero(n: f32) -> f32 {
    if n == 0.0 {
        0.0
    } else {
        1.0 / n.sqrt()
    }
}

/// Inverse L2 norm of a vector (`1 / ‖v‖`), the quantity cached per
/// stored point so cosine scoring needs only a dot product. Returns
/// `0.0` for the zero vector.
#[must_use]
pub fn inv_norm(v: &[f32]) -> f32 {
    inv_sqrt_or_zero(dot(v, v))
}

/// Software-prefetches the first cache lines of `v` into L1, for use
/// just before scoring the *next* stored vector while the current one
/// is still being processed. No-op on targets without a stable prefetch
/// intrinsic; prefetching is a pure hint either way (never faults).
#[inline]
pub fn prefetch_slice(v: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint: it performs no architectural
    // load, cannot fault and changes no program-visible state whatever
    // address it is given, so the first call is sound even for an empty
    // slice (whose pointer is dangling but non-null and aligned). SSE,
    // which provides it, is part of the x86_64 baseline. `ptr.add(64)`
    // is 64 bytes = 16 `f32`s past the start, and is only formed when
    // `v.len() > 16`, so it stays inside the slice's allocation as
    // `pointer::add` requires.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let ptr = v.as_ptr().cast::<i8>();
        _mm_prefetch(ptr, _MM_HINT_T0);
        if v.len() > 16 {
            _mm_prefetch(ptr.add(64), _MM_HINT_T0);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = v;
    }
}

/// Supported vector distance metrics (Qdrant's set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Distance {
    /// Cosine distance `1 - cos(a, b)`. The paper's setting (OpenAI
    /// embeddings are compared by cosine).
    #[default]
    Cosine,
    /// Negative dot product (for already-normalized vectors this equals
    /// cosine up to an affine transform).
    Dot,
    /// Squared Euclidean distance.
    Euclid,
}

impl Distance {
    /// Distance between two vectors; **lower is closer** for every
    /// metric.
    #[must_use]
    pub fn distance(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Distance::Cosine => {
                let denom = (dot(a, a) * dot(b, b)).sqrt();
                if denom == 0.0 {
                    1.0
                } else {
                    1.0 - dot(a, b) / denom
                }
            }
            Distance::Dot => -dot(a, b),
            Distance::Euclid => sq_euclid(a, b),
        }
    }

    /// Distance between two vectors with both inverse norms already
    /// known (**lower is closer**). For [`Distance::Cosine`] this is the
    /// norm-cached fast path: one dot product, `1 - dot·inv_a·inv_b`.
    /// The other metrics ignore the norms and match
    /// [`Distance::distance`] exactly.
    ///
    /// Passing `inv_norm(a)` / `inv_norm(b)` reproduces
    /// [`Distance::distance`] up to floating-point rounding of the
    /// `1/sqrt` factorization.
    #[must_use]
    pub fn distance_normed(self, a: &[f32], inv_a: f32, b: &[f32], inv_b: f32) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Distance::Cosine => {
                if inv_a == 0.0 || inv_b == 0.0 {
                    return 1.0;
                }
                1.0 - dot(a, b) * inv_a * inv_b
            }
            Distance::Dot | Distance::Euclid => self.distance(a, b),
        }
    }

    /// Scores one stored vector against `queries.len()` query vectors,
    /// writing one distance per query into `out` (**lower is closer**).
    ///
    /// This *is* a loop of [`Distance::distance_normed`] over the
    /// queries, so `out[m]` is **bit-identical** to
    /// `distance_normed(queries[m], query_inv_norms[m], stored,
    /// stored_inv)` by construction. What the batch form buys is
    /// locality: the stored vector is fetched from memory once and stays
    /// in L1 for all M comparisons.
    ///
    /// `query_inv_norms[m]` must be `inv_norm(queries[m])` and
    /// `stored_inv` must be `inv_norm(stored)`; both are ignored by the
    /// non-cosine metrics.
    ///
    /// # Panics
    /// If `out` or `query_inv_norms` are shorter than `queries`.
    pub fn score_batch(
        self,
        queries: &[&[f32]],
        query_inv_norms: &[f32],
        stored: &[f32],
        stored_inv: f32,
        out: &mut [f32],
    ) {
        assert!(out.len() >= queries.len());
        assert!(query_inv_norms.len() >= queries.len());
        for ((q, &q_inv), d) in queries.iter().zip(query_inv_norms).zip(out) {
            *d = self.distance_normed(q, q_inv, stored, stored_inv);
        }
    }

    /// Converts a distance back into a similarity score (**higher is
    /// closer**), the form reported to API users.
    #[must_use]
    pub fn similarity_from_distance(self, d: f32) -> f32 {
        match self {
            Distance::Cosine => 1.0 - d,
            Distance::Dot => -d,
            Distance::Euclid => -d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_identical_is_zero() {
        let a = [0.6f32, 0.8];
        assert!(Distance::Cosine.distance(&a, &a).abs() < 1e-6);
    }

    #[test]
    fn cosine_orthogonal_is_one() {
        assert!((Distance::Cosine.distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_max() {
        assert_eq!(Distance::Cosine.distance(&[0.0, 0.0], &[1.0, 0.0]), 1.0);
    }

    #[test]
    fn euclid_matches_manual() {
        let d = Distance::Euclid.distance(&[0.0, 0.0], &[3.0, 4.0]);
        assert!((d - 25.0).abs() < 1e-6);
    }

    #[test]
    fn dot_lower_is_closer() {
        let q = [1.0f32, 0.0];
        let near = [0.9f32, 0.1];
        let far = [0.1f32, 0.9];
        assert!(Distance::Dot.distance(&q, &near) < Distance::Dot.distance(&q, &far));
    }

    #[test]
    fn similarity_roundtrip() {
        let d = Distance::Cosine.distance(&[1.0, 0.0], &[0.7, 0.7]);
        let s = Distance::Cosine.similarity_from_distance(d);
        assert!((s - 0.7f32 / (0.98f32).sqrt()).abs() < 1e-3);
    }

    /// Deterministic pseudo-random vector in `[-1, 1)` (hash-mix, no
    /// RNG state).
    fn pseudo(seed: u64, dim: usize) -> Vec<f32> {
        (0..dim)
            .map(|i| {
                let h = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64)
                    .wrapping_mul(0xff51_afd7_ed55_8ccd);
                ((h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
            })
            .collect()
    }

    #[test]
    fn normed_distance_matches_plain_within_rounding() {
        for metric in [Distance::Cosine, Distance::Dot, Distance::Euclid] {
            for seed in 0..20u64 {
                let a = pseudo(seed, 24);
                let b = pseudo(seed + 100, 24);
                let plain = metric.distance(&a, &b);
                let normed = metric.distance_normed(&a, inv_norm(&a), &b, inv_norm(&b));
                assert!(
                    (plain - normed).abs() < 1e-5,
                    "{metric:?}: {plain} vs {normed}"
                );
            }
        }
    }

    #[test]
    fn normed_zero_vector_is_max_cosine() {
        let z = [0.0f32, 0.0];
        let v = [1.0f32, 0.0];
        assert_eq!(inv_norm(&z), 0.0);
        assert_eq!(
            Distance::Cosine.distance_normed(&z, inv_norm(&z), &v, inv_norm(&v)),
            1.0
        );
    }

    #[test]
    fn score_batch_matches_per_query_normed_distance() {
        let stored = pseudo(999, 24);
        let stored_inv = inv_norm(&stored);
        let queries: Vec<Vec<f32>> = (0..7).map(|s| pseudo(s, 24)).collect();
        let q_refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let q_invs: Vec<f32> = queries.iter().map(|q| inv_norm(q)).collect();
        for metric in [Distance::Cosine, Distance::Dot, Distance::Euclid] {
            let mut out = vec![0.0f32; queries.len()];
            metric.score_batch(&q_refs, &q_invs, &stored, stored_inv, &mut out);
            for (m, q) in queries.iter().enumerate() {
                let single = metric.distance_normed(q, q_invs[m], &stored, stored_inv);
                assert_eq!(out[m], single, "{metric:?} query {m} diverged from single");
            }
        }
    }

    #[test]
    fn wide_kernels_are_bit_identical_to_scalar() {
        // Every batch size from one query to past two 8-query groups:
        // each `score_batch` lane is exactly the single-query distance,
        // on a dimension with full chunks and a tail.
        let stored = pseudo(4242, 99);
        let stored_inv = inv_norm(&stored);
        let queries: Vec<Vec<f32>> = (0..17).map(|s| pseudo(s + 500, 99)).collect();
        let q_refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let q_invs: Vec<f32> = queries.iter().map(|q| inv_norm(q)).collect();
        for metric in [Distance::Cosine, Distance::Dot, Distance::Euclid] {
            for m in 1..=17 {
                let mut out = vec![f32::NAN; m];
                metric.score_batch(&q_refs[..m], &q_invs[..m], &stored, stored_inv, &mut out);
                for (lane, q) in queries[..m].iter().enumerate() {
                    let single = metric.distance_normed(q, q_invs[lane], &stored, stored_inv);
                    assert_eq!(
                        out[lane].to_bits(),
                        single.to_bits(),
                        "{metric:?} M={m} lane {lane}"
                    );
                }
            }
        }
    }

    /// Dimensions around the chunk boundaries of both lane widths,
    /// including the empty and the tail-only inputs.
    const BOUNDARY_DIMS: [usize; 11] = [0, 1, 15, 16, 17, 31, 32, 33, 255, 256, 257];

    #[test]
    fn lane_kernel_matches_f64_reference_at_chunk_boundaries() {
        for dim in BOUNDARY_DIMS {
            let a = pseudo(7, dim);
            let b = pseudo(8, dim);
            let pairs = || {
                a.iter()
                    .zip(&b)
                    .map(|(&x, &y)| (f64::from(x), f64::from(y)))
            };
            let ref_dot: f64 = pairs().map(|(x, y)| x * y).sum();
            let ref_euclid: f64 = pairs().map(|(x, y)| (x - y) * (x - y)).sum();
            // Relative to the sum of magnitudes, the scale rounding
            // error lives on (a dot product may cancel to near zero).
            let magnitude: f64 = pairs().map(|(x, y)| (x * y).abs()).sum();
            let close =
                |got: f32, want: f64, scale: f64| (f64::from(got) - want).abs() <= 1e-5 * scale;
            assert!(close(dot(&a, &b), ref_dot, magnitude), "dot, dim {dim}");
            assert!(
                close(sq_euclid(&a, &b), ref_euclid, ref_euclid),
                "euclid, dim {dim}"
            );
            assert_eq!(Distance::Dot.distance(&a, &b), -dot(&a, &b));
            assert_eq!(Distance::Euclid.distance(&a, &b), sq_euclid(&a, &b));
        }
    }

    #[test]
    fn inv_norm_is_the_kernels_own_dot() {
        for dim in BOUNDARY_DIMS {
            let v = pseudo(31, dim);
            let n = dot(&v, &v);
            let want = if n == 0.0 { 0.0 } else { 1.0 / n.sqrt() };
            assert_eq!(inv_norm(&v).to_bits(), want.to_bits(), "dim {dim}");
        }
        assert_eq!(inv_norm(&[0.0; 40]), 0.0);
    }

    #[test]
    fn zero_norm_conventions_hold_at_every_width() {
        for dim in [2, 16, 40, 256] {
            let z = vec![0.0f32; dim];
            let v = pseudo(3, dim);
            assert_eq!(Distance::Cosine.distance(&z, &v), 1.0);
            assert_eq!(Distance::Cosine.distance(&z, &z), 1.0);
            assert_eq!(
                Distance::Cosine.distance_normed(&z, inv_norm(&z), &v, inv_norm(&v)),
                1.0
            );
            let mut out = [0.0f32];
            Distance::Cosine.score_batch(&[&z], &[0.0], &v, inv_norm(&v), &mut out);
            assert_eq!(out[0], 1.0);
        }
        // The prefetch hint is callable on any slice.
        prefetch_slice(&[]);
        prefetch_slice(&pseudo(1, 200));
    }
}
