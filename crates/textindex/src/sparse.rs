//! Sorted sparse vectors with dot product and cosine similarity.

/// A sparse vector: parallel `(index, value)` arrays sorted by index.
///
/// Used for TF-IDF document vectors, where dimensionality equals the
/// vocabulary size but documents touch only dozens of terms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVector {
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl SparseVector {
    /// An all-zero vector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a vector from unsorted `(index, value)` pairs, summing
    /// duplicates and dropping zeros.
    #[must_use]
    pub fn from_pairs(mut pairs: Vec<(u32, f32)>) -> Self {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if let Some(&last) = indices.last() {
                if last == i {
                    *values.last_mut().expect("parallel arrays") += v;
                    continue;
                }
            }
            indices.push(i);
            values.push(v);
        }
        // Drop explicit zeros (possible after duplicate summing).
        let mut out_i = Vec::with_capacity(indices.len());
        let mut out_v = Vec::with_capacity(values.len());
        for (i, v) in indices.into_iter().zip(values) {
            if v != 0.0 {
                out_i.push(i);
                out_v.push(v);
            }
        }
        Self {
            indices: out_i,
            values: out_v,
        }
    }

    /// Whether the vector is all-zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterates `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Euclidean norm.
    #[must_use]
    pub fn norm(&self) -> f32 {
        self.values.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Scales the vector so its norm is 1 (no-op for the zero vector).
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            for v in &mut self.values {
                *v /= n;
            }
        }
    }

    /// Sparse dot product via sorted-merge.
    #[must_use]
    pub fn dot(&self, other: &SparseVector) -> f32 {
        let (mut i, mut j) = (0usize, 0usize);
        let mut acc = 0.0f32;
        while i < self.indices.len() && j < other.indices.len() {
            match self.indices[i].cmp(&other.indices[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.values[i] * other.values[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Cosine similarity in `[-1, 1]`; 0 if either vector is zero.
    #[must_use]
    pub fn cosine(&self, other: &SparseVector) -> f32 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            self.dot(other) / denom
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_sums() {
        let v = SparseVector::from_pairs(vec![(5, 1.0), (2, 2.0), (5, 3.0)]);
        let entries: Vec<_> = v.iter().collect();
        assert_eq!(entries, vec![(2, 2.0), (5, 4.0)]);
    }

    #[test]
    fn from_pairs_drops_cancelled_zeros() {
        let v = SparseVector::from_pairs(vec![(1, 1.0), (1, -1.0), (2, 3.0)]);
        assert_eq!(v.iter().count(), 1);
    }

    #[test]
    fn dot_of_disjoint_is_zero() {
        let a = SparseVector::from_pairs(vec![(0, 1.0), (2, 1.0)]);
        let b = SparseVector::from_pairs(vec![(1, 1.0), (3, 1.0)]);
        assert_eq!(a.dot(&b), 0.0);
    }

    #[test]
    fn dot_overlapping() {
        let a = SparseVector::from_pairs(vec![(0, 1.0), (2, 2.0), (7, 3.0)]);
        let b = SparseVector::from_pairs(vec![(2, 4.0), (7, 0.5)]);
        assert_eq!(a.dot(&b), 8.0 + 1.5);
    }

    #[test]
    fn cosine_of_identical_is_one() {
        let a = SparseVector::from_pairs(vec![(0, 3.0), (2, 4.0)]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_with_zero_vector_is_zero() {
        let a = SparseVector::from_pairs(vec![(0, 3.0)]);
        let z = SparseVector::new();
        assert_eq!(a.cosine(&z), 0.0);
        assert_eq!(z.cosine(&z), 0.0);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut a = SparseVector::from_pairs(vec![(0, 3.0), (1, 4.0)]);
        a.normalize();
        assert!((a.norm() - 1.0).abs() < 1e-6);
    }
}
