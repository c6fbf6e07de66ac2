//! Scalar quantization (f32 → u8) with rescoring.
//!
//! Qdrant's memory-saving technique: store 8-bit codes (4× smaller than
//! f32), search over the codes, then *rescore* a small oversampled
//! candidate set with the original vectors to recover accuracy. The
//! store here holds the codes; the two passes are the collection's exact
//! scan under [`ScoringTier::Quantized`] (`Collection::top_k_scored`).
//!
//! Every sum over codes — the asymmetric distances and the cached norms
//! of the dequantized vectors — runs through the crate's one scoring
//! kernel, [`crate::distance`]'s lane-strided reduction, at 32 lanes
//! (`U8_LANES`); the per-element formula `min + scale · code` is applied
//! inside it, so codes are never materialized as `f32`s. The coarse
//! pass's dot product is `distance::code_dot`, the build of that
//! reduction selected by CPU feature.

use crate::codec::{corrupt, Reader, Writer};
use crate::distance::{code_dot, inv_norm, inv_sqrt_or_zero, lane_sum, Distance, U8_LANES};
use crate::error::VecDbError;
use crate::rows::Rows;

/// Which representation the exact-scan scoring paths read.
///
/// `Auto` (the default) turns quantized-first scoring on once a
/// collection is large enough for memory traffic to dominate scan cost;
/// small collections keep full-precision scoring, so modest workloads —
/// and the existing parity suites — see bit-identical results without
/// opting out. `Full` is the explicit escape hatch; `Quantized` forces
/// the tier on at any size with a chosen rerank budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoringTier {
    /// Quantized-first above [`crate::collection::AUTO_QUANT_THRESHOLD`]
    /// points, full precision below.
    #[default]
    Auto,
    /// Always score at full precision (bit-identical to the
    /// pre-quantization engine).
    Full,
    /// Always score over u8 codes, then rescore the best
    /// `rerank_factor × k` survivors at full precision.
    Quantized {
        /// Oversampling multiple for the full-precision rescoring pass.
        rerank_factor: usize,
    },
}

impl ScoringTier {
    /// The rerank oversampling factor used when the tier is active
    /// without an explicit choice.
    pub const DEFAULT_RERANK_FACTOR: usize = 4;
}

/// A set of scalar-quantized vectors (one global affine codebook).
#[derive(Debug, Clone)]
pub struct QuantizedVectors {
    codes: Vec<u8>,
    dim: usize,
    len: usize,
    /// Dequantized value = `min + scale * code`.
    min: f32,
    scale: f32,
    /// Cached inverse L2 norm of each *dequantized* vector, computed at
    /// encode time — the same norm-caching strategy as the
    /// full-precision [`crate::Collection`], so the quantized cosine
    /// path never re-sums a stored vector's squares per comparison.
    inv_norms: Vec<f32>,
}

impl QuantizedVectors {
    /// Quantizes every row of `rows` into u8 codes under one affine
    /// codebook spanning their values.
    ///
    /// Returns an empty store for empty input.
    #[must_use]
    pub fn encode(rows: Rows<'_>) -> Self {
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &x in rows.as_flat() {
            min = min.min(x);
            max = max.max(x);
        }
        if !min.is_finite() || !max.is_finite() || min >= max {
            min = 0.0;
            max = 1.0;
        }
        let scale = (max - min) / 255.0;
        let mut store = Self {
            codes: Vec::with_capacity(rows.as_flat().len()),
            dim: rows.dim(),
            len: 0,
            min,
            scale,
            inv_norms: Vec::with_capacity(rows.len()),
        };
        for v in rows.iter() {
            store.push(v);
        }
        store
    }

    /// Appends the store to a snapshot section: `dim` and `len` (`u64`),
    /// the codebook's `min` and `scale`, the `len × dim` codes, then the
    /// `len` cached inverse norms — stored, never re-derived, so a
    /// restored store scores bit-identically.
    pub(crate) fn pack(&self, w: &mut Writer) {
        w.u64(self.dim as u64);
        w.u64(self.len as u64);
        w.f32(self.min);
        w.f32(self.scale);
        w.bytes(&self.codes);
        w.f32s(&self.inv_norms);
    }

    /// Reads back what [`QuantizedVectors::pack`] wrote; the section
    /// must hold exactly `len × dim` codes and `len` norms.
    pub(crate) fn unpack(mut r: Reader<'_>) -> Result<Self, VecDbError> {
        let dim = r.len64()?;
        let len = r.len64()?;
        let min = r.f32()?;
        let scale = r.f32()?;
        let code_bytes = len
            .checked_mul(dim)
            .ok_or_else(|| corrupt(format!("{len} x {dim} codes overflow")))?;
        let codes = r.take(code_bytes)?.to_vec();
        let inv_norms = r.f32s(len)?;
        r.finish()?;
        if !inv_norms
            .iter()
            .chain([&min, &scale])
            .all(|x| x.is_finite())
        {
            return Err(VecDbError::NonFiniteVector);
        }
        Ok(Self {
            codes,
            dim,
            len,
            min,
            scale,
            inv_norms,
        })
    }

    /// Appends one vector using the **frozen** codebook (the global
    /// `min`/`scale` chosen at encode time). Values outside the trained
    /// range clamp to the nearest code — callers that grow a store
    /// substantially should re-[`QuantizedVectors::encode`] so the
    /// codebook tracks the data (the collection does this when its
    /// point count doubles).
    pub fn push(&mut self, v: &[f32]) {
        debug_assert_eq!(v.len(), self.dim);
        let start = self.codes.len();
        self.codes.extend(
            v.iter()
                .map(|&x| ((x - self.min) / self.scale).round().clamp(0.0, 255.0) as u8),
        );
        let codes = &self.codes[start..];
        let sq_norm = lane_sum::<U8_LANES, _, _>(codes, codes, |a, b| {
            self.dequantize(a) * self.dequantize(b)
        });
        self.inv_norms.push(inv_sqrt_or_zero(sq_norm));
        self.len += 1;
    }

    /// Dequantized value of one code.
    #[inline(always)]
    fn dequantize(&self, c: u8) -> f32 {
        self.min + self.scale * f32::from(c)
    }

    /// Number of stored vectors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Vector dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Bytes used by the codes (≈ 1/4 of the f32 original).
    #[must_use]
    pub(crate) fn memory_bytes(&self) -> usize {
        self.codes.len()
    }

    /// Reconstructs (dequantizes) vector `i`.
    #[must_use]
    pub fn decode(&self, i: usize) -> Vec<f32> {
        let start = i * self.dim;
        self.codes[start..start + self.dim]
            .iter()
            .map(|&c| self.dequantize(c))
            .collect()
    }

    /// Asymmetric distance between a full-precision query and the
    /// quantized vector `i`. Derives the query's inverse norm on every
    /// call; scans should precompute it once via
    /// [`crate::distance::inv_norm`] and use
    /// [`QuantizedVectors::distance_with_query_inv`].
    #[must_use]
    pub fn distance(&self, metric: Distance, q: &[f32], i: usize) -> f32 {
        self.distance_with_query_inv(metric, q, inv_norm(q), i)
    }

    /// Asymmetric distance with the query's inverse norm already known.
    /// The stored side uses the inverse norm cached at encode time, so
    /// the cosine path is one fused dot product over the dequantized
    /// codes — consistent with the full-precision
    /// [`Distance::distance_normed`] fast path.
    #[must_use]
    pub fn distance_with_query_inv(
        &self,
        metric: Distance,
        q: &[f32],
        q_inv: f32,
        i: usize,
    ) -> f32 {
        debug_assert_eq!(q.len(), self.dim);
        let start = i * self.dim;
        let codes = &self.codes[start..start + self.dim];
        let dot = || code_dot(q, codes, self.min, self.scale);
        match metric {
            Distance::Cosine => {
                if q_inv == 0.0 || self.inv_norms[i] == 0.0 {
                    return 1.0;
                }
                1.0 - dot() * q_inv * self.inv_norms[i]
            }
            Distance::Dot => -dot(),
            Distance::Euclid => lane_sum::<U8_LANES, _, _>(q, codes, |x, c| {
                let d = x - self.dequantize(c);
                d * d
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn vectors(n: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..n).map(|i| pseudo(i as u64 + 1, dim)).collect()
    }

    /// [`QuantizedVectors::encode`] over `vs` laid out as one arena.
    fn encode(vs: &[Vec<f32>], dim: usize) -> QuantizedVectors {
        QuantizedVectors::encode(Rows::new(&vs.concat(), dim))
    }

    #[test]
    fn decode_is_close_to_original() {
        let vs = vectors(50, 16);
        let q = encode(&vs, 16);
        for (i, v) in vs.iter().enumerate() {
            let d = q.decode(i);
            for (a, b) in v.iter().zip(&d) {
                assert!(
                    (a - b).abs() < 0.01,
                    "quantization error too large: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn memory_is_quarter_of_f32() {
        let vs = vectors(100, 64);
        let q = encode(&vs, 64);
        assert_eq!(q.memory_bytes(), 100 * 64);
        assert_eq!(q.memory_bytes() * 4, 100 * 64 * 4); // vs f32 bytes
    }

    #[test]
    fn quantized_search_recall_high_with_rescore() {
        // The collection's two passes: a coarse top-30 over the codes,
        // rescored at full precision.
        let vs = vectors(500, 32);
        let mut c = crate::Collection::new(crate::CollectionConfig {
            distance: Distance::Euclid,
            scoring_tier: ScoringTier::Quantized { rerank_factor: 3 },
            ..crate::CollectionConfig::new(32)
        });
        for (i, v) in vs.iter().enumerate() {
            c.insert(i as u64, v.clone(), (0.0, 0.0)).unwrap();
        }
        let query = pseudo(9999, 32);
        let mut truth: Vec<(usize, f32)> = vs
            .iter()
            .enumerate()
            .map(|(i, v)| (i, Distance::Euclid.distance(&query, v)))
            .collect();
        truth.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let truth_ids: Vec<u64> = truth[..10].iter().map(|x| x.0 as u64).collect();

        let exact = crate::SearchParams::top_k(10);
        let rescored = c.search(&query, &exact).unwrap();
        let hits = rescored
            .iter()
            .filter(|p| truth_ids.contains(&p.id))
            .count();
        assert!(hits >= 9, "rescored recall {hits}/10");
        // Rescored distances are the exact full-precision ones.
        for p in &rescored {
            let full = Distance::Euclid.distance(&query, &vs[p.id as usize]);
            assert_eq!(p.score, -full);
        }
    }

    #[test]
    fn quantized_only_search_is_decent() {
        let vs = vectors(300, 32);
        let q = encode(&vs, 32);
        let query = pseudo(777, 32);
        let top10 = |d: &dyn Fn(usize) -> f32| {
            let mut all: Vec<(usize, f32)> = (0..vs.len()).map(|i| (i, d(i))).collect();
            all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            all[..10].iter().map(|x| x.0).collect::<Vec<usize>>()
        };
        let raw = top10(&|i| q.distance(Distance::Cosine, &query, i));
        let truth_ids = top10(&|i| Distance::Cosine.distance(&query, &vs[i]));
        let hits = raw.iter().filter(|i| truth_ids.contains(i)).count();
        assert!(hits >= 7, "unrescored recall {hits}/10");
    }

    #[test]
    fn quantized_cosine_agrees_with_full_precision_within_tolerance() {
        // The quantized path (cached dequantized-code norms) and the
        // full-precision path (cached vector norms) must agree to within
        // the quantization error at 8 bits — pins the two scoring paths
        // to the same norm-caching semantics.
        let vs = vectors(200, 32);
        let q = encode(&vs, 32);
        let query = pseudo(4242, 32);
        let q_inv = crate::distance::inv_norm(&query);
        for (i, v) in vs.iter().enumerate() {
            let quantized = q.distance(Distance::Cosine, &query, i);
            let full =
                Distance::Cosine.distance_normed(&query, q_inv, v, crate::distance::inv_norm(v));
            assert!(
                (quantized - full).abs() < 0.02,
                "vector {i}: quantized {quantized} vs full {full}"
            );
            // And the query-inv variant is exactly the public entry point.
            assert_eq!(
                quantized,
                q.distance_with_query_inv(Distance::Cosine, &query, q_inv, i)
            );
        }
    }

    #[test]
    fn code_kernel_matches_f64_reference_and_the_f32_kernel_over_decode() {
        // Chunk boundaries of the 32-lane code kernel and the 16-lane
        // f32 kernel and tail-only inputs (the empty sum is the kernel
        // parity test's: no store has dimension 0).
        for dim in [1usize, 15, 16, 17, 31, 32, 33, 255, 256, 257] {
            let vs = vectors(3, dim);
            let q = encode(&vs, dim);
            let query = pseudo(4242, dim);
            let q_inv = inv_norm(&query);
            for i in 0..vs.len() {
                let decoded = q.decode(i);
                let pairs = || {
                    query
                        .iter()
                        .zip(&decoded)
                        .map(|(&x, &y)| (f64::from(x), f64::from(y)))
                };
                let ref_dot: f64 = pairs().map(|(x, y)| x * y).sum();
                let magnitude: f64 = pairs().map(|(x, y)| (x * y).abs()).sum();
                let ref_euclid: f64 = pairs().map(|(x, y)| (x - y) * (x - y)).sum();
                let dot = q.distance_with_query_inv(Distance::Dot, &query, q_inv, i);
                let euclid = q.distance_with_query_inv(Distance::Euclid, &query, q_inv, i);
                assert!(
                    (f64::from(-dot) - ref_dot).abs() <= 1e-5 * magnitude,
                    "dot, dim {dim}"
                );
                assert!(
                    (f64::from(euclid) - ref_euclid).abs() <= 1e-5 * ref_euclid,
                    "euclid, dim {dim}"
                );
                // Same sums through the f32 kernel over the decoded
                // vector; the cached norm is the decoded vector's.
                for metric in [Distance::Cosine, Distance::Dot, Distance::Euclid] {
                    let over_codes = q.distance_with_query_inv(metric, &query, q_inv, i);
                    let over_decoded =
                        metric.distance_normed(&query, q_inv, &decoded, inv_norm(&decoded));
                    let scale = over_decoded.abs().max(1.0);
                    assert!(
                        (over_codes - over_decoded).abs() <= 1e-5 * scale,
                        "{metric:?}, dim {dim}: {over_codes} vs {over_decoded}"
                    );
                }
            }
        }
    }

    #[test]
    fn push_matches_bulk_encode() {
        let vs = vectors(120, 16);
        let bulk = encode(&vs, 16);
        // Re-encode the first 100, then push the remaining 20 with the
        // frozen codebook: identical codes because bulk encoding uses
        // one global codebook anyway.
        let mut grown = encode(&vs, 16);
        let mut grown_from_prefix = {
            let mut q = encode(&vs[..100], 16);
            for v in &vs[100..] {
                q.push(v);
            }
            q
        };
        // Codebooks may differ (prefix min/max vs full min/max), but the
        // decoded vectors must stay within quantization error.
        for i in 0..120 {
            let a = grown.decode(i);
            let b = grown_from_prefix.decode(i);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 0.05, "vector {i}: {x} vs {y}");
            }
        }
        assert_eq!(grown_from_prefix.len(), bulk.len());
        // Keep `grown` used (parity of lengths with the bulk store).
        grown.push(&vs[0]);
        assert_eq!(grown.len(), 121);
        grown_from_prefix.push(&vs[0]);
        assert_eq!(grown_from_prefix.decode(120).len(), grown.decode(120).len());
    }

    #[test]
    fn degenerate_inputs() {
        let empty = QuantizedVectors::encode(Rows::new(&[], 8));
        assert!(empty.is_empty());
        assert_eq!(empty.dim(), 8);
        // Constant vectors (min == max) still encode without NaNs.
        let constant = vec![vec![0.5f32; 8]; 3];
        let q = encode(&constant, 8);
        let d = q.decode(0);
        assert!(d.iter().all(|x| x.is_finite()));
    }
}
