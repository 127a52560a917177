//! CSR sparse matrix for user-item rating data.
//!
//! A CF rating matrix is extremely sparse (the paper's subsets hold ~0.27 M
//! ratings over 4 000 users × 1 000 items ≈ 6.8 % density). CSR keeps each
//! user's ratings contiguous, which is the access pattern of both Pearson
//! weight computation (iterate two users' common items) and incremental SVD
//! training (iterate all observed cells).

/// Compressed sparse row matrix of `f64` values.
///
/// Rows are users / documents; columns are items / terms. Column indices
/// within a row are kept sorted so that two rows can be intersected with a
/// linear merge.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[r]..row_ptr[r+1]` indexes `col_idx` / `values` for row `r`.
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterate over `(col, value)` pairs of row `r`, sorted by column.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (s, e) = self.row_range(r);
        self.col_idx[s..e]
            .iter()
            .copied()
            .zip(self.values[s..e].iter().copied())
    }

    /// Column indices of row `r` (sorted ascending).
    #[inline]
    pub fn row_cols(&self, r: usize) -> &[u32] {
        let (s, e) = self.row_range(r);
        &self.col_idx[s..e]
    }

    /// Values of row `r`, parallel to [`Self::row_cols`].
    #[inline]
    pub fn row_values(&self, r: usize) -> &[f64] {
        let (s, e) = self.row_range(r);
        &self.values[s..e]
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        let (s, e) = self.row_range(r);
        e - s
    }

    /// Value at `(r, c)` if stored.
    pub fn get(&self, r: usize, c: u32) -> Option<f64> {
        let (s, e) = self.row_range(r);
        let cols = &self.col_idx[s..e];
        cols.binary_search(&c).ok().map(|i| self.values[s + i])
    }

    /// Mean of the stored values of row `r`, or `None` when the row is empty.
    pub fn row_mean(&self, r: usize) -> Option<f64> {
        let vals = self.row_values(r);
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Assemble from CSR arrays: row `r` is `col_idx` / `values` over
    /// `row_ptr[r]..row_ptr[r + 1]`. For callers that already hold rows in
    /// order with sorted columns, this skips the builder's staging, sort
    /// and dedup copies (about four times the matrix, transient).
    ///
    /// # Panics
    /// If `row_ptr` does not hold `rows + 1` non-decreasing offsets from 0
    /// to `nnz`, `col_idx` and `values` differ in length, or a row's
    /// columns are not strictly ascending below `cols`.
    pub fn from_csr(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "from_csr: row_ptr length");
        assert_eq!(
            col_idx.len(),
            values.len(),
            "from_csr: col_idx and values differ in length"
        );
        assert_eq!(
            row_ptr.first(),
            Some(&0),
            "from_csr: row_ptr must start at 0"
        );
        assert_eq!(
            row_ptr.last(),
            Some(&col_idx.len()),
            "from_csr: row_ptr must end at nnz"
        );
        for w in row_ptr.windows(2) {
            assert!(w[0] <= w[1], "from_csr: row_ptr decreases");
            let row = &col_idx[w[0]..w[1]];
            assert!(
                row.windows(2).all(|c| c[0] < c[1])
                    && row.last().is_none_or(|&c| (c as usize) < cols),
                "from_csr: a row's columns are not strictly ascending below {cols}"
            );
        }
        SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Iterate over all stored `(row, col, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32, f64)> + '_ {
        (0..self.rows).flat_map(move |r| self.row(r).map(move |(c, v)| (r, c, v)))
    }

    /// The CSR index: row `r`'s entries sit at `row_ptr[r]..row_ptr[r + 1]`
    /// of `col_idx`, and that position is also the entry's place in
    /// [`Self::iter`] order.
    pub(crate) fn csr_index(&self) -> (&[usize], &[u32]) {
        (&self.row_ptr, &self.col_idx)
    }

    #[inline]
    fn row_range(&self, r: usize) -> (usize, usize) {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        (self.row_ptr[r], self.row_ptr[r + 1])
    }
}

/// Incremental builder for a [`SparseMatrix`].
///
/// Entries may be pushed in any order; `build` sorts and deduplicates
/// (last write wins), matching how a rating stream updates a matrix.
#[derive(Clone, Debug, Default)]
pub struct SparseMatrixBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, u32, f64)>,
}

impl SparseMatrixBuilder {
    /// Create a builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        SparseMatrixBuilder {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Stage entry `(r, c) = v`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    pub fn push(&mut self, r: usize, c: u32, v: f64) {
        assert!(r < self.rows, "push: row {r} out of bounds");
        assert!((c as usize) < self.cols, "push: col {c} out of bounds");
        self.entries.push((r, c, v));
    }

    /// Number of staged entries (before dedup).
    pub fn staged(&self) -> usize {
        self.entries.len()
    }

    /// Finalize into CSR form. Duplicate coordinates keep the value staged
    /// last, so replaying an update stream gives the stream's final state.
    pub fn build(mut self) -> SparseMatrix {
        // Stable sort keeps duplicate coordinates in push order; the dedup
        // pass below then keeps the last pushed value.
        self.entries.sort_by_key(|&(r, c, _)| (r, c));
        let mut dedup: Vec<(usize, u32, f64)> = Vec::with_capacity(self.entries.len());
        for e in self.entries {
            match dedup.last_mut() {
                Some(last) if last.0 == e.0 && last.1 == e.1 => last.2 = e.2,
                _ => dedup.push(e),
            }
        }

        let mut row_ptr = vec![0usize; self.rows + 1];
        for &(r, _, _) in &dedup {
            row_ptr[r + 1] += 1;
        }
        for r in 0..self.rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let col_idx = dedup.iter().map(|&(_, c, _)| c).collect();
        let values = dedup.iter().map(|&(_, _, v)| v).collect();
        SparseMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseMatrix {
        let mut b = SparseMatrixBuilder::new(3, 4);
        b.push(0, 0, 1.0);
        b.push(0, 2, 2.0);
        b.push(2, 3, 3.0);
        b.push(2, 1, 4.0);
        b.build()
    }

    #[test]
    fn shape_and_nnz() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn rows_are_sorted_by_column() {
        let m = sample();
        assert_eq!(m.row_cols(2), &[1, 3]);
        assert_eq!(m.row_values(2), &[4.0, 3.0]);
    }

    #[test]
    fn empty_row_has_no_entries() {
        let m = sample();
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row_mean(1), None);
    }

    #[test]
    fn get_hits_and_misses() {
        let m = sample();
        assert_eq!(m.get(0, 2), Some(2.0));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.get(2, 1), Some(4.0));
    }

    #[test]
    fn duplicate_push_last_wins() {
        let mut b = SparseMatrixBuilder::new(1, 2);
        b.push(0, 1, 5.0);
        b.push(0, 1, 9.0);
        let m = b.build();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 1), Some(9.0));
    }

    #[test]
    fn row_mean_averages_stored_values() {
        let m = sample();
        assert_eq!(m.row_mean(0), Some(1.5));
    }

    #[test]
    fn iter_visits_all_triples_in_row_major_order() {
        let m = sample();
        let triples: Vec<_> = m.iter().collect();
        assert_eq!(
            triples,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 1, 4.0), (2, 3, 3.0)]
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut b = SparseMatrixBuilder::new(1, 1);
        b.push(0, 5, 1.0);
    }

    #[test]
    fn empty_matrix() {
        let m = SparseMatrixBuilder::new(0, 0).build();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn from_csr_equals_builder() {
        let m = SparseMatrix::from_csr(
            3,
            4,
            vec![0, 2, 2, 4],
            vec![0, 2, 1, 3],
            vec![1.0, 2.0, 4.0, 3.0],
        );
        assert_eq!(m, sample());
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn from_csr_unsorted_row_panics() {
        SparseMatrix::from_csr(1, 4, vec![0, 2], vec![2, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "not strictly ascending below 4")]
    fn from_csr_out_of_range_column_panics() {
        SparseMatrix::from_csr(1, 4, vec![0, 1], vec![4], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "row_ptr must end at nnz")]
    fn from_csr_short_row_ptr_panics() {
        SparseMatrix::from_csr(1, 4, vec![0, 1], vec![0, 1], vec![1.0, 1.0]);
    }
}
