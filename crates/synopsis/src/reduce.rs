//! Step 1 of synopsis creation: dimensionality reduction.
//!
//! Wraps the incremental SVD of `at-linalg` behind a [`Reducer`] that owns
//! the fitted latent space, so that synopsis *updating* can project new or
//! changed points into the same space via fold-in (without re-fitting).

use crate::dataset::{Row, RowStore, SparseRow};
use at_linalg::svd::{IncrementalSvd, SvdConfig, SvdModel};
use at_linalg::Matrix;

/// A fitted dimensionality reducer (the paper's incremental SVD, step 1).
#[derive(Clone, Debug)]
pub struct Reducer {
    model: SvdModel,
    /// Fold-in epochs for projecting new rows (cheap; independent of the
    /// dataset size, which is the property the paper cites).
    fold_in_epochs: usize,
}

impl Reducer {
    /// Fit the reducer over every row of `dataset`.
    pub fn fit<R: Row>(dataset: &RowStore<R>, config: SvdConfig) -> Self {
        let csr = dataset.to_csr();
        let model = IncrementalSvd::new(config).fit(&csr);
        Reducer {
            model,
            fold_in_epochs: config.epochs_per_dim,
        }
    }

    /// Dimensionality of the reduced space.
    pub fn dims(&self) -> usize {
        self.model.row_factors().cols()
    }

    /// Reduced vector of training row `id`.
    pub fn reduced(&self, id: u64) -> &[f64] {
        self.model.row_vector(id as usize)
    }

    /// Project new or changed rows into the latent space (fold-in): row
    /// `i` of the result is the reduced vector of `rows[i]`. Each row's
    /// projection depends on that row alone, so a batch projects exactly
    /// as its rows would one at a time; a single row is a batch of one.
    pub fn project(&self, rows: &[&SparseRow]) -> Matrix {
        let rows: Vec<(&[u32], &[f64])> = rows
            .iter()
            .map(|r| (r.cols.as_slice(), r.vals.as_slice()))
            .collect();
        self.model.fold_in_rows(&rows, self.fold_in_epochs)
    }

    /// Borrow the underlying SVD model.
    pub fn model(&self) -> &SvdModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SparseRow;

    fn dataset() -> RowStore {
        let mut s = RowStore::new(8);
        for r in 0..24u32 {
            let base = if r < 12 { 1.0 } else { 4.0 };
            let pairs: Vec<(u32, f64)> = (0..8)
                .map(|c| (c, base + ((r + c) % 3) as f64 * 0.1))
                .collect();
            s.push_row(SparseRow::from_pairs(pairs));
        }
        s
    }

    #[test]
    fn fit_shapes() {
        let d = dataset();
        let r = Reducer::fit(&d, SvdConfig::default().with_dims(3).with_epochs(30));
        assert_eq!(r.dims(), 3);
        assert_eq!(r.model().row_factors().rows(), 24);
        assert_eq!(r.reduced(0).len(), 3);
    }

    #[test]
    fn projection_of_training_row_predicts_like_training_vector() {
        let d = dataset();
        let r = Reducer::fit(&d, SvdConfig::default().with_dims(2).with_epochs(150));
        let row = d.row(3).clone();
        let projected = r.project(&[&row]);
        let proj = projected.row(0);
        // Compare prediction error of the projection vs. the fitted vector.
        let m = r.model();
        let mut err_proj = 0.0;
        let mut err_fit = 0.0;
        for (c, v) in row.iter() {
            let pp =
                m.global_mean() + at_linalg::vector::dot(proj, m.col_factors().row(c as usize));
            let pf = m.predict(3, c as usize);
            err_proj += (pp - v) * (pp - v);
            err_fit += (pf - v) * (pf - v);
        }
        assert!(
            err_proj <= err_fit * 4.0 + 0.05,
            "fold-in far worse than fit: proj={err_proj} fit={err_fit}"
        );
    }
}
