//! Distance metrics, plus the one scoring kernel every hot path bottoms
//! out in.
//!
//! Every comparison in the crate — HNSW insert, re-selection and search, the
//! exact scan, the quantized coarse pass, the rerank — is a sum of
//! per-element terms over two equal-length slices. `lanes` is the only
//! place such a sum is accumulated and `halve` the only place it is
//! reduced (`lane_sum` is the two in a row; `f32_lane_sums` puts a
//! codegen fence between them): `L` independent partial sums
//! over the full `L`-element chunks, a sequential tail, a fixed halving
//! reduction. A single `f32` add chain may not be reordered by the
//! compiler and runs at add latency; `L` independent chains are plain
//! safe Rust that it vectorizes. That order — lanes, halving, then tail
//! — is the **canonical accumulation order** of the crate: there is no
//! second kernel for results to be bit-identical *to*.
//!
//! `lanes` takes `R` rows against one operand. The one-row call is
//! `R = 1`; [`Distance::distance_normed_rows`] is `R = ROWS`, which reads
//! each chunk of the shared operand (an HNSW search's query) once for
//! four stored rows. Row `r` has accumulators and a tail of its own, fed
//! in the one-row order, so each of its results is the one-row call's,
//! bit for bit — the same source with more rows, not a second kernel.
//!
//! That one source is compiled twice. The kernels built on it — the
//! `f32` dot product and squared distance (one row or `ROWS`), and the
//! dot product of an `f32` query with `u8` codes — exist once for the target's baseline
//! features (the portable build, and the only one off x86-64) and once
//! more, on x86-64, under `#[target_feature(enable = "avx2")]`; each call
//! takes the AVX2 build when `is_x86_feature_detected!("avx2")` says the
//! CPU has it. The two builds add the same terms in the same lane and
//! halving order with no fused multiply-add (AVX2 alone has none to
//! offer), so they return the same bits — the build changes how many
//! lanes one instruction adds, never what is added to what.
//!
//! Collection data is immutable once inserted, so the L2 norm of every
//! stored vector is known at insert time. [`inv_norm`] computes the
//! cached inverse norm; [`Distance::distance_normed`] consumes it, which
//! for [`Distance::Cosine`] turns every comparison into a single dot
//! product (no per-comparison `sqrt`, no re-summing the stored vector's
//! squares). `Distance::score_batch` scores one stored vector against
//! M query vectors while it is hot in L1.

/// Lane count of the kernel for `f32 × f32` operands. One L1-hot 256-d
/// comparison (best of 30 rounds, 2-core x86-64 host with AVX2), baseline
/// / AVX2 build: one chain ~150 / 150 ns, 4 lanes ~48 / 50, 8 lanes
/// ~29 / 28, 16 lanes ~24 / 20, 32 lanes ~25 / 21, 64 lanes ~31 / 25
/// (`kernel/f32-256` in `cargo bench --bench hnsw` times the one in use).
const F32_LANES: usize = 16;

/// Lane count of the kernel for `f32 × u8` operands. Wider than the
/// `f32` kernel's 16 because the codes are widened on the fly; measured
/// as [`F32_LANES`] is, baseline / AVX2: 4 to 16 lanes ~140–150 / 125 ns
/// a comparison, 32 lanes ~63 / 32, 64 lanes no better
/// (`kernel/u8-256` in `cargo bench --bench hnsw`).
pub(crate) const U8_LANES: usize = 32;

/// Rows one [`Distance::distance_normed_rows`] call scores: four 16-lane
/// accumulators of the `f32` kernel fill half of AVX2's sixteen vector
/// registers, leaving the rest for the operands.
pub(crate) const ROWS: usize = 4;

/// The crate's one accumulation loop: `Σ term(a[i], b[i])` over the
/// common prefix of `a` and `b`, summed as `L` independent lanes
/// (element `i` of each full `L`-chunk goes to lane `i % L`), reduced by
/// halving (`acc[l] += acc[l + w]` for `w = L/2, L/4, …, 1`), with the
/// `len % L` tail elements summed sequentially and added last. `L` must
/// be a power of two.
#[inline(always)]
pub(crate) fn lane_sum<const L: usize, A: Copy, B: Copy>(
    a: &[A],
    b: &[B],
    term: impl Fn(A, B) -> f32,
) -> f32 {
    let ([acc], [tail]) = lanes::<L, 1, _, _>(a, [b], term);
    halve(acc) + tail
}

/// [`lane_sum`] for the `f32` kernels, of `a` against each of the `R`
/// rows of `b`: the same lanes, each row's handed to the same halving
/// through [`std::hint::black_box`] — the same sums, bit for bit. The
/// fence is for the vectorizer: with the reduction inlined, it packs the
/// lanes in pairs to match the halving's last steps and the loop runs
/// two `f32`s an instruction; behind the fence it runs 4 (baseline) or 8
/// (AVX2), and a 256-d comparison takes about two thirds (baseline) or
/// half (AVX2) the time. The `u8` kernel vectorizes at full width either
/// way and is a few percent faster without it. There is one fence per
/// row: one around all `R` rows' lanes changed how the one-row kernel's
/// callers inline, and made a one-row comparison ~10 ns slower.
#[inline(always)]
fn f32_lane_sums<const R: usize>(
    a: &[f32],
    b: [&[f32]; R],
    term: impl Fn(f32, f32) -> f32,
) -> [f32; R] {
    let (acc, tail) = lanes::<F32_LANES, R, _, _>(a, b, term);
    std::array::from_fn(|r| halve(std::hint::black_box(acc[r])) + tail[r])
}

/// The lanes and the tail of [`lane_sum`], before the halving, for `a`
/// against each of the `R` rows of `b` over the prefix all of them
/// share. Each chunk of `a` is read once for all rows, and row `r`
/// alone feeds `acc[r]` and `tail[r]`: each row's terms are added in
/// the order `R = 1` adds them — the multi-row form is this loop with
/// more rows, not a second kernel.
///
/// The tail is a scalar sum of its own on purpose: folding tail
/// elements into `acc[l]` by a run-time lane index turns the vector
/// loop into shuffles. The loops are `while` over fixed-size windows
/// rather than iterator adapters because optimized builds compile both
/// to the same vector loop, while unoptimized ones — every test that
/// builds an index — run this form about 2.7x faster.
#[inline(always)]
fn lanes<const L: usize, const R: usize, A: Copy, B: Copy>(
    a: &[A],
    b: [&[B]; R],
    term: impl Fn(A, B) -> f32,
) -> ([[f32; L]; R], [f32; R]) {
    let n = b.iter().fold(a.len(), |n, row| n.min(row.len()));
    let (a, b) = (&a[..n], b.map(|row| &row[..n]));
    let full = n - n % L;
    let mut acc = [[0.0f32; L]; R];
    let mut i = 0;
    while i < full {
        let ca = &a[i..i + L];
        let mut r = 0;
        while r < R {
            let cb = &b[r][i..i + L];
            let mut l = 0;
            while l < L {
                acc[r][l] += term(ca[l], cb[l]);
                l += 1;
            }
            r += 1;
        }
        i += L;
    }
    let mut tail = [0.0f32; R];
    let mut r = 0;
    while r < R {
        let mut j = full;
        while j < n {
            tail[r] += term(a[j], b[r][j]);
            j += 1;
        }
        r += 1;
    }
    (acc, tail)
}

/// The halving reduction of [`lane_sum`]: `acc[l] += acc[l + w]` for
/// `w = L/2, L/4, …, 1`, then `acc[0]`.
#[inline(always)]
fn halve<const L: usize>(mut acc: [f32; L]) -> f32 {
    let mut width = L / 2;
    while width > 0 {
        for l in 0..width {
            acc[l] += acc[l + width];
        }
        width /= 2;
    }
    acc[0]
}

/// The kernels' one source, compiled for the target's baseline features.
mod portable {
    use super::{f32_lane_sums, lane_sum, U8_LANES};

    /// The dot product (or, with `EUCLID`, the squared distance) of `a`
    /// with each row of `b`.
    #[inline(always)]
    pub(super) fn rows<const EUCLID: bool, const R: usize>(a: &[f32], b: [&[f32]; R]) -> [f32; R] {
        if EUCLID {
            f32_lane_sums(a, b, |x, y| {
                let d = x - y;
                d * d
            })
        } else {
            f32_lane_sums(a, b, |x, y| x * y)
        }
    }

    #[inline(always)]
    pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
        let [d] = rows::<false, 1>(a, [b]);
        d
    }

    #[inline(always)]
    pub(super) fn sq_euclid(a: &[f32], b: &[f32]) -> f32 {
        let [d] = rows::<true, 1>(a, [b]);
        d
    }

    #[inline(always)]
    pub(super) fn code_dot(q: &[f32], codes: &[u8], min: f32, scale: f32) -> f32 {
        lane_sum::<U8_LANES, _, _>(q, codes, |x, c| x * (min + scale * f32::from(c)))
    }
}

/// The same source compiled a second time with AVX2 enabled: each
/// function here is its `portable` namesake inlined into an AVX2 body.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{portable, ROWS};

    #[target_feature(enable = "avx2")]
    pub(super) fn rows<const EUCLID: bool>(a: &[f32], b: [&[f32]; ROWS]) -> [f32; ROWS] {
        portable::rows::<EUCLID, ROWS>(a, b)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
        portable::dot(a, b)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn sq_euclid(a: &[f32], b: &[f32]) -> f32 {
        portable::sq_euclid(a, b)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn code_dot(q: &[f32], codes: &[u8], min: f32, scale: f32) -> f32 {
        portable::code_dot(q, codes, min, scale)
    }
}

/// Whether this CPU runs the AVX2 build (the detection is cached by
/// `std` after the first call).
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Dot product `Σ aᵢ·bᵢ` in the canonical order.
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `has_avx2()` is `is_x86_feature_detected!("avx2")`,
        // so this CPU executes the AVX2 instructions the body uses.
        return unsafe { avx2::dot(a, b) };
    }
    portable::dot(a, b)
}

/// Squared Euclidean distance `Σ (aᵢ−bᵢ)²` in the canonical order.
#[inline]
fn sq_euclid(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `has_avx2()` is `is_x86_feature_detected!("avx2")`,
        // so this CPU executes the AVX2 instructions the body uses.
        return unsafe { avx2::sq_euclid(a, b) };
    }
    portable::sq_euclid(a, b)
}

/// [`dot`] (or, with `EUCLID`, [`sq_euclid`]) of `a` with each of
/// [`ROWS`] rows, each bit for bit the one-row call's.
#[inline]
fn rows<const EUCLID: bool>(a: &[f32], b: [&[f32]; ROWS]) -> [f32; ROWS] {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `has_avx2()` is `is_x86_feature_detected!("avx2")`,
        // so this CPU executes the AVX2 instructions the body uses.
        return unsafe { avx2::rows::<EUCLID>(a, b) };
    }
    portable::rows::<EUCLID, ROWS>(a, b)
}

/// `Σ qᵢ·(min + scale·codesᵢ)` in the canonical order at
/// [`U8_LANES`] — the dot product of a query with a vector stored as
/// `u8` codes of the affine codebook `(min, scale)`, which are widened
/// inside the loop and never materialized as `f32`s.
#[inline]
pub(crate) fn code_dot(q: &[f32], codes: &[u8], min: f32, scale: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `has_avx2()` is `is_x86_feature_detected!("avx2")`,
        // so this CPU executes the AVX2 instructions the body uses.
        return unsafe { avx2::code_dot(q, codes, min, scale) };
    }
    portable::code_dot(q, codes, min, scale)
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

/// Supported vector distance metrics (Qdrant's set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

    /// [`Distance::distance_normed`] of `a` against `ROWS` vectors in
    /// one call: `out[r]` is `distance_normed(a, inv_a, b[r], inv_b[r])`
    /// bit for bit, and each chunk of `a` is loaded once for all rows.
    #[must_use]
    pub fn distance_normed_rows(
        self,
        a: &[f32],
        inv_a: f32,
        b: [&[f32]; ROWS],
        inv_b: [f32; ROWS],
    ) -> [f32; ROWS] {
        debug_assert!(b.iter().all(|row| row.len() == a.len()));
        match self {
            Distance::Cosine => {
                let dots = rows::<false>(a, b);
                std::array::from_fn(|r| {
                    if inv_a == 0.0 || inv_b[r] == 0.0 {
                        1.0
                    } else {
                        1.0 - dots[r] * inv_a * inv_b[r]
                    }
                })
            }
            Distance::Dot => rows::<false>(a, b).map(|d| -d),
            Distance::Euclid => rows::<true>(a, b),
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
    pub(crate) fn score_batch(
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
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// The multi-row kernel is [`ROWS`] one-row calls, bit for bit:
        /// through `Distance::distance_normed_rows` for every metric, and
        /// build by build — the portable rows against the portable
        /// one-row kernels (what a CPU without AVX2 runs), and the AVX2
        /// rows against them too. Rows repeat, include the query itself
        /// and the zero vector, and the query is sometimes zero.
        #[test]
        fn row_kernel_is_one_row_calls_bit_for_bit(
            seed in 0u64..u64::MAX,
            scale in -30i32..30,
            picks in (0usize..5, 0usize..5, 0usize..5, 0usize..5),
            zero_query in 0u8..5,
        ) {
            for dim in [1usize, 15, 16, 17, 255, 256, 300] {
                let unit = 2f32.powi(scale);
                let a: Vec<f32> = pseudo(seed, dim).iter().map(|x| x * unit).collect();
                let zero = vec![0.0f32; dim];
                let pool = [
                    pseudo(seed ^ 1, dim),
                    pseudo(seed ^ 2, dim),
                    a.clone(),
                    zero.clone(),
                    pseudo(seed ^ 1, dim),
                ];
                let q = if zero_query == 0 { &zero } else { &a };
                let rows: [&[f32]; ROWS] =
                    [picks.0, picks.1, picks.2, picks.3].map(|i| pool[i].as_slice());
                let invs = rows.map(inv_norm);
                let q_inv = inv_norm(q);
                for metric in [Distance::Cosine, Distance::Dot, Distance::Euclid] {
                    let got = metric.distance_normed_rows(q, q_inv, rows, invs);
                    for r in 0..ROWS {
                        let one = metric.distance_normed(q, q_inv, rows[r], invs[r]);
                        proptest::prop_assert_eq!(
                            got[r].to_bits(), one.to_bits(), "{:?}, dim {}, row {}", metric, dim, r
                        );
                    }
                }
                let builds = [
                    portable::rows::<false, ROWS>(q, rows),
                    portable::rows::<true, ROWS>(q, rows),
                ];
                #[cfg(target_arch = "x86_64")]
                let builds: Vec<[f32; ROWS]> = if has_avx2() {
                    // SAFETY: `has_avx2()` returned true, so this CPU
                    // executes the AVX2 builds.
                    let avx2 = unsafe { [avx2::rows::<false>(q, rows), avx2::rows::<true>(q, rows)] };
                    builds.into_iter().chain(avx2).collect()
                } else {
                    builds.to_vec()
                };
                for (i, build) in builds.iter().enumerate() {
                    for r in 0..ROWS {
                        let one = if i % 2 == 0 {
                            portable::dot(q, rows[r])
                        } else {
                            portable::sq_euclid(q, rows[r])
                        };
                        proptest::prop_assert_eq!(
                            build[r].to_bits(), one.to_bits(), "build {}, dim {}, row {}", i, dim, r
                        );
                    }
                }
            }
        }
    }

    /// `dim` codes drawn from `seed`, half of them at the ends of the
    /// code range.
    fn codes(seed: u64, dim: usize) -> Vec<u8> {
        pseudo(seed, dim)
            .iter()
            .map(|&x| match x {
                x if x < -0.5 => 0,
                x if x > 0.5 => 255,
                x => ((x + 0.5) * 255.0) as u8,
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        /// Both builds of every kernel return the same bits at every
        /// dimension through 300 — every tail length of the 16- and
        /// 32-lane loops — on random, zero and self-paired operands.
        /// The three metrics are made of `dot` (cosine: `a·b`, `a·a`,
        /// `b·b`; dot) and `sq_euclid` (Euclid) alone.
        #[test]
        fn avx2_kernels_are_bit_identical_to_portable(
            seed in 0u64..u64::MAX,
            scale in -30i32..30,
            min in -2.0f32..2.0,
            step in 0.0f32..0.05,
        ) {
            #[cfg(target_arch = "x86_64")]
            {
                if !has_avx2() {
                    println!("this CPU lacks AVX2: only the portable build runs here");
                    return Ok(());
                }
                let unit = 2f32.powi(scale);
                for dim in 0..=300usize {
                    let a: Vec<f32> = pseudo(seed, dim).iter().map(|x| x * unit).collect();
                    let b = pseudo(seed ^ 0x5bd1_e995, dim);
                    let zero = vec![0.0f32; dim];
                    for (x, y) in [(&a, &b), (&a, &a), (&b, &b), (&zero, &b)] {
                        // SAFETY: `has_avx2()` returned true above, so this
                        // CPU executes the AVX2 builds.
                        let (dot, euclid) = unsafe { (avx2::dot(x, y), avx2::sq_euclid(x, y)) };
                        proptest::prop_assert_eq!(
                            dot.to_bits(), portable::dot(x, y).to_bits(), "dot, dim {}", dim
                        );
                        proptest::prop_assert_eq!(
                            euclid.to_bits(),
                            portable::sq_euclid(x, y).to_bits(),
                            "sq_euclid, dim {}", dim
                        );
                    }
                    let c = codes(seed.wrapping_add(1), dim);
                    for (q, c) in [(&a, &c), (&zero, &c), (&a, &vec![0u8; dim]), (&b, &vec![255u8; dim])] {
                        // SAFETY: as above, `has_avx2()` returned true.
                        let got = unsafe { avx2::code_dot(q, c, min, step) };
                        proptest::prop_assert_eq!(
                            got.to_bits(),
                            portable::code_dot(q, c, min, step).to_bits(),
                            "code_dot, dim {}", dim
                        );
                    }
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                let _ = (seed, scale, min, step);
                println!("not an x86-64 target: only the portable build exists here");
            }
        }
    }
}
