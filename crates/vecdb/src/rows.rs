//! The one layout of stored vectors: a row-major `f32` arena.

/// `len` vectors of dimension `dim` in one row-major array: row `i` is
/// `data[i * dim..(i + 1) * dim]`. This is how a [`crate::Collection`]
/// stores its vectors, and the one view through which
/// [`crate::HnswIndex`] and [`crate::QuantizedVectors::encode`] read
/// them — a row is a slice of one allocation, so consecutive offsets are
/// consecutive memory and a scan is one stream.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    data: &'a [f32],
    dim: usize,
}

impl<'a> Rows<'a> {
    /// Views `data` as rows of `dim` values.
    ///
    /// # Panics
    /// If `dim` is 0 or does not divide `data.len()`.
    #[must_use]
    pub fn new(data: &'a [f32], dim: usize) -> Self {
        assert!(
            dim > 0 && data.len().is_multiple_of(dim),
            "{} values are not rows of dimension {dim}",
            data.len()
        );
        Self { data, dim }
    }

    /// Row `i`.
    ///
    /// # Panics
    /// If `i >= self.len()`.
    #[inline]
    #[must_use]
    pub fn row(self, i: usize) -> &'a [f32] {
        &self.data[i * self.dim..][..self.dim]
    }

    /// The dimension of every row.
    #[must_use]
    pub fn dim(self) -> usize {
        self.dim
    }

    /// Number of rows.
    #[must_use]
    pub fn len(self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether there are no rows.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.data.is_empty()
    }

    /// The rows in order.
    pub fn iter(self) -> impl Iterator<Item = &'a [f32]> {
        self.data.chunks_exact(self.dim)
    }

    /// Every value, row after row.
    #[must_use]
    pub(crate) fn as_flat(self) -> &'a [f32] {
        self.data
    }
}
