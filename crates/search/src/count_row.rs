//! The search engine's stored row layout: a page's term ids and their
//! occurrence counts, both as `u32`.
//!
//! Pages and merged (aggregated) pages hold term *counts*, whole numbers
//! that the interchange [`SparseRow`] keeps as `f64`. Stored as `u32` they
//! take 8 B per entry instead of 12, and `f64::from` gives every stored
//! value back exactly, so every score computed from a [`CountRow`] is bit
//! for bit the score computed from the `SparseRow` it encodes.

use at_synopsis::{Row, SparseRow};

/// One page as the search kernels read it: `nnz` ascending term ids
/// followed by their `nnz` counts, in one allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CountRow {
    entries: Box<[u32]>,
}

/// A term count as a `u32`. Counts are whole numbers; anything else
/// would not survive the `u32` round trip bit for bit.
///
/// # Panics
/// If `c` is fractional, negative or above `u32::MAX` (`op` names the
/// caller in the message).
pub(crate) fn whole_count(op: &str, c: f64) -> u32 {
    assert!(
        c >= 0.0 && c.fract() == 0.0 && c <= f64::from(u32::MAX),
        "{op}: term count {c} is not a whole number in u32 range"
    );
    c as u32
}

impl CountRow {
    /// Number of stored terms.
    fn nnz(&self) -> usize {
        self.entries.len() / 2
    }

    /// Term ids, strictly ascending.
    pub fn cols(&self) -> &[u32] {
        &self.entries[..self.nnz()]
    }

    /// Occurrence counts, parallel to [`cols`](Self::cols).
    pub fn counts(&self) -> &[u32] {
        &self.entries[self.nnz()..]
    }
}

impl Row for CountRow {
    /// # Panics
    /// If a value is not a whole number in `u32` range.
    fn encode(row: SparseRow) -> Self {
        let mut entries = Vec::with_capacity(2 * row.nnz());
        entries.extend_from_slice(&row.cols);
        entries.extend(row.vals.iter().map(|&v| whole_count("CountRow::encode", v)));
        CountRow {
            entries: entries.into_boxed_slice(),
        }
    }

    fn decode(&self) -> SparseRow {
        SparseRow {
            cols: self.cols().to_vec(),
            vals: self.counts().iter().map(|&c| f64::from(c)).collect(),
        }
    }

    fn for_each(&self, mut f: impl FnMut(u32, f64)) {
        for (&t, &c) in self.cols().iter().zip(self.counts()) {
            f(t, f64::from(c));
        }
    }
}
