//! Dense row-major matrix.
//!
//! Used for the low-dimensional output of the SVD step (step 1 of synopsis
//! creation): a `u × v` input dataset is reduced to a `u × j` dense matrix
//! (`j` ≈ 3) whose rows are then spatially indexed by the R-tree.

use std::fmt;

/// A dense row-major `rows × cols` matrix of `f64`.
///
/// Row-major layout keeps each data point's feature vector contiguous, which
/// is what the R-tree construction and distance kernels iterate over.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} != {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

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

    /// Borrow row `r` as a contiguous slice.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Iterate over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// Flat row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_get_set() {
        let mut m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        m.set(1, 1, 9.0);
        assert_eq!(m.get(1, 1), 9.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_wrong_len_panics() {
        Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn row_mut_mutates_in_place() {
        let mut m = Matrix::zeros(2, 3);
        m.row_mut(1).copy_from_slice(&[7.0, 8.0, 9.0]);
        assert_eq!(m.row(1), &[7.0, 8.0, 9.0]);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn iter_rows_yields_all_rows() {
        let m = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let rows: Vec<_> = m.iter_rows().collect();
        assert_eq!(rows, vec![&[1.0][..], &[2.0][..], &[3.0][..]]);
    }

    #[test]
    fn empty_matrix_iter_rows() {
        let m = Matrix::zeros(0, 0);
        assert_eq!(m.iter_rows().count(), 0);
    }
}
