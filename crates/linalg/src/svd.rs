//! Incremental (gradient-descent) SVD.
//!
//! Step 1 of the paper's synopsis creation uses "the incremental SVD \[17\]
//! whose execution time is independent of the dataset size": latent factors
//! are trained **one dimension at a time** by stochastic gradient descent
//! over the observed cells (Gorrell's generalized Hebbian algorithm; the
//! implementation the paper links is Simon Funk's). With `j` dimensions and
//! `i` epochs per dimension the cost is `O(j × i × nnz)` — in the paper's
//! accounting, `O(j × i)` passes.
//!
//! The trained **row factors** form the `u × j` low-dimensional dataset fed
//! to the R-tree; the model also supports *folding in* new rows against the
//! frozen column factors, which is how synopsis updating projects newly
//! arrived data points into the existing latent space without retraining.
//!
//! Each SGD step depends on the one before it through a row factor or a
//! column factor, so one chain of steps runs at the latency of one step.
//! Both the fit and the fold-in therefore step several rows in lockstep,
//! and both keep every factor's update order exactly, so their results
//! are bit for bit those of the one-step-at-a-time loop. Unlike DSGD
//! (Gemulla et al., KDD 2011), which reorders the updates into independent
//! strata, nothing is reordered: the fit lets a row take a column only once
//! every earlier row in its window has passed that column (see
//! [`IncrementalSvd::fit`]).

use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Rows [`SvdModel::fold_in_rows`] steps in lockstep: enough independent
/// SGD chains to cover one chain's latency.
const FOLD_IN_LANES: usize = 8;

/// One SGD step of a fold-in while dimension `d` trains: the entry's
/// prediction from the frozen dimensions `0..d`, its column factor in
/// `d`, and its observed value.
struct FoldInStep {
    base: f64,
    col: f64,
    val: f64,
}

/// Rows [`IncrementalSvd::fit`] steps in lockstep: enough independent
/// SGD chains to cover one step's latency (six and eight lanes were no
/// faster on a 1 000-row CF component).
const FIT_LANES: usize = 4;

/// One row in [`IncrementalSvd::fit`]'s lockstep window: its next
/// unprocessed entry `at` (a CSR position, which indexes the residuals
/// too), the end of its entries, and its factor in the dimension being
/// trained.
#[derive(Clone, Copy, Default)]
struct FitLane {
    row: usize,
    at: usize,
    end: usize,
    next_col: u64,
    u: f64,
}

/// [`FitLane::next_col`] of a lane with no entry left.
const DONE: u64 = u64::MAX;

/// Train dimension `d` of [`IncrementalSvd::fit`] for
/// `cfg.epochs_per_dim` row-major epochs over the non-empty `rows` of
/// `data`, in the lockstep the fit describes: column `d` of
/// `row_factors`, and `col_d`, the column factors' `d` values.
/// `residuals` holds each cell's residual after dimensions `0..d`, in CSR
/// order. The window never holds one row twice (it is at most `rows`
/// wide), so a lane's `u` is the row's factor for as long as the lane
/// lives.
///
/// Kept out of line: inlined into `fit`, the lane loop measured about
/// 10 % slower on a 1 000-row CF component.
#[inline(never)]
fn fit_dimension(
    cfg: &SvdConfig,
    d: usize,
    data: &SparseMatrix,
    rows: &[usize],
    residuals: &[f64],
    row_factors: &mut Matrix,
    col_d: &mut [f64],
) {
    let (row_ptr, cols) = data.csr_index();
    let (lr, reg) = (cfg.learning_rate, cfg.regularization);
    let window = FIT_LANES.min(rows.len());
    // Oldest first.
    let mut lanes = [FitLane::default(); FIT_LANES];
    let mut live = 0;
    let (mut next, mut epochs_left) = (0, cfg.epochs_per_dim);
    loop {
        while live < window && epochs_left > 0 {
            let row = rows[next];
            let at = row_ptr[row];
            lanes[live] = FitLane {
                row,
                at,
                end: row_ptr[row + 1],
                next_col: u64::from(cols[at]),
                u: row_factors.get(row, d),
            };
            live += 1;
            next += 1;
            if next == rows.len() {
                next = 0;
                epochs_left -= 1;
            }
        }
        if live == 0 {
            return;
        }
        // One step per lane, oldest first. `limit` is the lowest column
        // the older lanes held when this step began; a row's columns
        // ascend, so any older lane holding a column below it has
        // already stepped that column.
        let mut limit = DONE;
        for lane in &mut lanes[..live] {
            let c = lane.next_col;
            if c < limit {
                limit = c;
                let k = lane.at;
                let v = &mut col_d[c as usize];
                let err = residuals[k] - lane.u * *v;
                let ru = lane.u;
                lane.u += lr * (err * *v - reg * lane.u);
                *v += lr * (err * ru - reg * *v);
                lane.at = k + 1;
                lane.next_col = if k + 1 < lane.end {
                    u64::from(cols[k + 1])
                } else {
                    DONE
                };
            }
        }
        while live > 0 && lanes[0].next_col == DONE {
            row_factors.set(lanes[0].row, d, lanes[0].u);
            lanes.copy_within(1.., 0);
            live -= 1;
        }
    }
}

/// Hyper-parameters for [`IncrementalSvd`].
#[derive(Clone, Copy, Debug)]
pub struct SvdConfig {
    /// Number of latent dimensions `j` (the paper uses 3).
    pub dims: usize,
    /// Gradient-descent epochs per dimension (the paper uses 100).
    pub epochs_per_dim: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub regularization: f64,
    /// Magnitude of the random factor initialization.
    pub init_scale: f64,
    /// RNG seed for factor initialization (fully deterministic fits).
    pub seed: u64,
}

impl Default for SvdConfig {
    fn default() -> Self {
        SvdConfig {
            dims: 3,
            epochs_per_dim: 100,
            learning_rate: 0.005,
            regularization: 0.02,
            init_scale: 0.1,
            seed: 0x5eed_5eed,
        }
    }
}

impl SvdConfig {
    /// Config matching the paper's synopsis-creation setting: 3 dimensions,
    /// 100 iterations per dimension.
    pub fn paper() -> Self {
        SvdConfig::default()
    }

    /// Builder-style override of the dimension count.
    pub fn with_dims(mut self, dims: usize) -> Self {
        self.dims = dims;
        self
    }

    /// Builder-style override of epochs per dimension.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs_per_dim = epochs;
        self
    }

    /// Builder-style override of the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A fitted factor model: `value(r, c) ≈ global_mean + U[r] · V[c]`.
#[derive(Clone, Debug)]
pub struct SvdModel {
    /// `rows × dims` row factors — the reduced dataset.
    row_factors: Matrix,
    /// `cols × dims` column factors.
    col_factors: Matrix,
    /// Mean of all observed values (baseline predictor).
    global_mean: f64,
    config: SvdConfig,
}

impl SvdModel {
    /// The `u × j` reduced dataset (row factor vectors).
    pub fn row_factors(&self) -> &Matrix {
        &self.row_factors
    }

    /// The `v × j` column factor matrix.
    pub fn col_factors(&self) -> &Matrix {
        &self.col_factors
    }

    /// Mean of the observed training values.
    pub fn global_mean(&self) -> f64 {
        self.global_mean
    }

    /// Reduced feature vector of row `r`.
    pub fn row_vector(&self, r: usize) -> &[f64] {
        self.row_factors.row(r)
    }

    /// Reconstruct cell `(r, c)`.
    pub fn predict(&self, r: usize, c: usize) -> f64 {
        self.global_mean + crate::vector::dot(self.row_factors.row(r), self.col_factors.row(c))
    }

    /// Project new rows, each given as a sparse `(cols, vals)` pair, into
    /// the latent space by training only their factor vectors against the
    /// frozen column factors: the incremental "fold-in" synopsis updating
    /// uses for added and changed data points. Row `i` of the result is
    /// the projection of `rows[i]`; a single row is a batch of one, and an
    /// empty row keeps its initial factors.
    ///
    /// Each row runs the same SGD chain it would run alone, bit for bit.
    /// Up to eight rows step in lockstep so their independent chains
    /// overlap, and while dimension `d` trains the dimensions below it are
    /// frozen, so each entry's `global_mean + Σ_{k<d} f_k·c_k` is summed
    /// once per dimension (in the same order) instead of once per epoch.
    pub fn fold_in_rows(&self, rows: &[(&[u32], &[f64])], epochs: usize) -> Matrix {
        debug_assert!(rows.iter().all(|(cols, vals)| cols.len() == vals.len()));
        let mut factors = Matrix::filled(rows.len(), self.config.dims, self.config.init_scale);
        // Longest first, so the rows of one group run out at similar steps
        // and the rows still running at any step are a prefix of the group.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&r| std::cmp::Reverse(rows[r].0.len()));
        let mut steps = Vec::new();
        for group in order.chunks(FOLD_IN_LANES) {
            self.fold_in_group(rows, group, epochs, &mut factors, &mut steps);
        }
        factors
    }

    /// Train the rows `group` (at most [`FOLD_IN_LANES`], longest first)
    /// of `rows` in lockstep, one dimension at a time, into `factors`.
    fn fold_in_group(
        &self,
        rows: &[(&[u32], &[f64])],
        group: &[usize],
        epochs: usize,
        factors: &mut Matrix,
        steps: &mut Vec<FoldInStep>,
    ) {
        let lens: Vec<usize> = group.iter().map(|&r| rows[r].0.len()).collect();
        let longest = lens[0];
        let lr = self.config.learning_rate;
        let reg = self.config.regularization;
        for d in 0..self.config.dims {
            // Entry position i of every row still running there, in lane
            // order, with its frozen prefix prediction.
            steps.clear();
            for i in 0..longest {
                for (&r, _) in group.iter().zip(&lens).filter(|&(_, &len)| len > i) {
                    let (cols, vals) = rows[r];
                    let col = self.col_factors.row(cols[i] as usize);
                    let frozen = &factors.row(r)[..d];
                    let mut base = self.global_mean;
                    for (f, c) in frozen.iter().zip(col) {
                        base += f * c;
                    }
                    steps.push(FoldInStep {
                        base,
                        col: col[d],
                        val: vals[i],
                    });
                }
            }
            let mut f = [0.0; FOLD_IN_LANES];
            for (lane, &r) in group.iter().enumerate() {
                f[lane] = factors.get(r, d);
            }
            for _ in 0..epochs {
                let mut running = group.len();
                let mut at = 0;
                for i in 0..longest {
                    while lens[running - 1] <= i {
                        running -= 1;
                    }
                    for (fl, step) in f.iter_mut().zip(&steps[at..at + running]) {
                        let err = step.val - (step.base + *fl * step.col);
                        *fl += lr * (err * step.col - reg * *fl);
                    }
                    at += running;
                }
            }
            for (lane, &r) in group.iter().enumerate() {
                factors.set(r, d, f[lane]);
            }
        }
    }

    /// RMSE of the model over all observed cells of `data` — the measure
    /// that "minimizing the difference (distance) between the two datasets"
    /// refers to.
    pub fn reconstruction_rmse(&self, data: &SparseMatrix) -> f64 {
        let mut se = 0.0;
        let mut n = 0usize;
        for (r, c, v) in data.iter() {
            let e = v - self.predict(r, c as usize);
            se += e * e;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            (se / n as f64).sqrt()
        }
    }
}

/// Trainer for the incremental SVD.
pub struct IncrementalSvd {
    config: SvdConfig,
}

impl IncrementalSvd {
    /// Create a trainer with the given configuration.
    pub fn new(config: SvdConfig) -> Self {
        IncrementalSvd { config }
    }

    /// Fit the factor model over the observed cells of `data`.
    ///
    /// Dimensions are trained sequentially: dimension `d` descends on the
    /// residual left by dimensions `0..d`, exactly as in the
    /// Funk/Gorrell incremental scheme. Each epoch visits the cells in
    /// row-major order, and each step is `err = res − u·v` followed by the
    /// two regularised updates of `u_r` and `v_c`.
    ///
    /// Up to four consecutive rows of the epoch stream (row `r` of epoch
    /// `e` is entry `e × rows + r`) step in lockstep, so their chains
    /// overlap. The oldest row retires when it is done, and the next row
    /// joins as the newest. A row takes its next column `c` only when `c`
    /// is below the next unprocessed column of *every* older row in the
    /// window; checking the neighbouring row alone is not enough, since a
    /// row can pass a column that a row further back still holds. So each
    /// `u_r` sees its columns and each `v_c` its rows in exactly the
    /// row-major order, every step computes the same expression on the same
    /// operands, and the factors are bit-identical to the sequential loop's.
    ///
    /// # Panics
    /// Panics if `config.dims == 0`.
    pub fn fit(&self, data: &SparseMatrix) -> SvdModel {
        let cfg = self.config;
        assert!(cfg.dims > 0, "IncrementalSvd: dims must be >= 1");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut row_factors = Matrix::zeros(data.rows(), cfg.dims);
        let mut col_factors = Matrix::zeros(data.cols(), cfg.dims);
        for r in 0..data.rows() {
            for v in row_factors.row_mut(r) {
                *v = rng.random_range(-cfg.init_scale..cfg.init_scale);
            }
        }
        for c in 0..data.cols() {
            for v in col_factors.row_mut(c) {
                *v = rng.random_range(-cfg.init_scale..cfg.init_scale);
            }
        }

        let nnz = data.nnz();
        let global_mean = if nnz == 0 {
            0.0
        } else {
            data.iter().map(|(_, _, v)| v).sum::<f64>() / nnz as f64
        };

        // residual[k] caches v - (mean + sum_{d' < d} U[r][d']·V[c][d']) so
        // each dimension's epochs touch only two factor entries per cell.
        let mut residuals: Vec<f64> = data.iter().map(|(_, _, v)| v - global_mean).collect();
        // An empty row takes no step, so the window never holds one.
        let rows: Vec<usize> = (0..data.rows()).filter(|&r| data.row_nnz(r) > 0).collect();
        let mut col_d = vec![0.0; data.cols()];

        for d in 0..cfg.dims {
            for (c, v) in col_d.iter_mut().enumerate() {
                *v = col_factors.get(c, d);
            }
            fit_dimension(
                &cfg,
                d,
                data,
                &rows,
                &residuals,
                &mut row_factors,
                &mut col_d,
            );
            for (c, &v) in col_d.iter().enumerate() {
                col_factors.set(c, d, v);
            }
            // Fold dimension d into the residuals before training d+1.
            let mut k = 0usize;
            for r in 0..data.rows() {
                let rf = row_factors.row(r);
                for (c, _v) in data.row(r) {
                    residuals[k] -= rf[d] * col_factors.get(c as usize, d);
                    k += 1;
                }
            }
        }

        SvdModel {
            row_factors,
            col_factors,
            global_mean,
            config: cfg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseMatrixBuilder;

    /// A matrix that is exactly `mean + a_r * b_c` with centred factors, so
    /// the mean-plus-rank-1 model class can reconstruct it perfectly.
    fn rank1_matrix(rows: usize, cols: usize) -> SparseMatrix {
        let mut b = SparseMatrixBuilder::new(rows, cols);
        for r in 0..rows {
            let a = (r as f64) / rows as f64 - 0.5;
            for c in 0..cols {
                let bc = (c as f64) / cols as f64 - 0.5;
                b.push(r, c as u32, 3.0 + a * bc);
            }
        }
        b.build()
    }

    #[test]
    fn learns_rank1_structure() {
        let data = rank1_matrix(20, 10);
        let model = IncrementalSvd::new(SvdConfig {
            dims: 1,
            epochs_per_dim: 800,
            learning_rate: 0.02,
            ..SvdConfig::default()
        })
        .fit(&data);
        let rmse = model.reconstruction_rmse(&data);
        assert!(rmse < 0.05, "rank-1 reconstruction rmse too high: {rmse}");
    }

    #[test]
    fn more_dims_reduce_reconstruction_error() {
        // rank-2 data: mean + a*b + c*d
        let mut b = SparseMatrixBuilder::new(30, 15);
        for r in 0..30 {
            for c in 0..15 {
                let v = 3.0
                    + (0.3 + r as f64 / 30.0) * (c as f64 / 15.0)
                    + ((r % 3) as f64 - 1.0) * ((c % 4) as f64 / 4.0 - 0.5);
                b.push(r, c as u32, v);
            }
        }
        let data = b.build();
        let cfg1 = SvdConfig {
            dims: 1,
            epochs_per_dim: 250,
            ..SvdConfig::default()
        };
        let cfg3 = SvdConfig {
            dims: 3,
            epochs_per_dim: 250,
            ..SvdConfig::default()
        };
        let e1 = IncrementalSvd::new(cfg1)
            .fit(&data)
            .reconstruction_rmse(&data);
        let e3 = IncrementalSvd::new(cfg3)
            .fit(&data)
            .reconstruction_rmse(&data);
        assert!(
            e3 < e1 * 0.8,
            "3 dims should fit rank-2 data much better: e1={e1} e3={e3}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let data = rank1_matrix(10, 8);
        let cfg = SvdConfig::default().with_epochs(50);
        let m1 = IncrementalSvd::new(cfg).fit(&data);
        let m2 = IncrementalSvd::new(cfg).fit(&data);
        assert_eq!(m1.row_factors().as_slice(), m2.row_factors().as_slice());
    }

    #[test]
    fn different_seeds_differ() {
        let data = rank1_matrix(10, 8);
        let m1 = IncrementalSvd::new(SvdConfig::default().with_epochs(5)).fit(&data);
        let m2 = IncrementalSvd::new(SvdConfig::default().with_epochs(5).with_seed(99)).fit(&data);
        assert_ne!(m1.row_factors().as_slice(), m2.row_factors().as_slice());
    }

    #[test]
    fn reduced_dataset_has_requested_shape() {
        let data = rank1_matrix(12, 6);
        let model = IncrementalSvd::new(SvdConfig::paper().with_epochs(10)).fit(&data);
        assert_eq!(model.row_factors().rows(), 12);
        assert_eq!(model.row_factors().cols(), 3);
        assert_eq!(model.col_factors().rows(), 6);
    }

    #[test]
    fn similar_rows_stay_similar_after_reduction() {
        // Paper, Figure 2: "data points with similar feature attributes in t
        // still have similar attributes in t'". Build two groups of near-
        // duplicate rows and check within-group distances are smaller than
        // between-group distances in the reduced space.
        let mut b = SparseMatrixBuilder::new(20, 12);
        for r in 0..20 {
            let group_high = r < 10;
            for c in 0..12 {
                let base = if group_high ^ (c < 6) { 4.5 } else { 1.5 };
                let jitter = ((r * 7 + c * 13) % 5) as f64 * 0.05;
                b.push(r, c as u32, base + jitter);
            }
        }
        let data = b.build();
        let model = IncrementalSvd::new(SvdConfig {
            dims: 2,
            epochs_per_dim: 300,
            ..SvdConfig::default()
        })
        .fit(&data);
        let rf = model.row_factors();
        let within = crate::vector::euclidean(rf.row(0), rf.row(5));
        let between = crate::vector::euclidean(rf.row(0), rf.row(15));
        assert!(
            within < between,
            "reduction broke similarity: within={within} between={between}"
        );
    }

    /// The one-row fold-in `fold_in_rows` replaced, kept as its oracle:
    /// one row at a time, the prediction re-summed over every trained
    /// dimension on every step.
    fn fold_in_row_oracle(model: &SvdModel, cols: &[u32], vals: &[f64], epochs: usize) -> Vec<f64> {
        let cfg = model.config;
        let mut factors = vec![cfg.init_scale; cfg.dims];
        if cols.is_empty() {
            return factors;
        }
        for d in 0..cfg.dims {
            for _ in 0..epochs {
                for (&c, &v) in cols.iter().zip(vals) {
                    let col = model.col_factors.row(c as usize);
                    let mut pred = model.global_mean;
                    for k in 0..=d {
                        pred += factors[k] * col[k];
                    }
                    let err = v - pred;
                    factors[d] +=
                        cfg.learning_rate * (err * col[d] - cfg.regularization * factors[d]);
                }
            }
        }
        factors
    }

    #[test]
    fn fold_in_rows_reconstructs_its_values() {
        // The point of fold-in is that the projected vector, combined with
        // the frozen column factors, predicts the new row's observed values.
        let data = rank1_matrix(20, 10);
        let model = IncrementalSvd::new(SvdConfig {
            dims: 2,
            epochs_per_dim: 400,
            learning_rate: 0.02,
            ..SvdConfig::default()
        })
        .fit(&data);
        let cols: Vec<u32> = data.row_cols(7).to_vec();
        let vals: Vec<f64> = data.row_values(7).to_vec();
        let projected = model.fold_in_rows(&[(&cols, &vals)], 400);
        let v = projected.row(0);
        let mut se = 0.0;
        for (&c, &actual) in cols.iter().zip(&vals) {
            let pred =
                model.global_mean() + crate::vector::dot(v, model.col_factors().row(c as usize));
            se += (pred - actual) * (pred - actual);
        }
        let rmse = (se / vals.len() as f64).sqrt();
        assert!(rmse < 0.08, "fold-in prediction rmse too high: {rmse}");
    }

    #[test]
    fn fold_in_empty_row_returns_init() {
        let data = rank1_matrix(5, 5);
        let model = IncrementalSvd::new(SvdConfig::default().with_epochs(5)).fit(&data);
        let v = model.fold_in_rows(&[(&[], &[])], 50);
        assert_eq!((v.rows(), v.cols()), (1, 3));
        assert_eq!(v.row(0), &[0.1; 3]);
    }

    #[test]
    fn fold_in_rows_matches_one_row_oracle_bit_for_bit() {
        // Uneven rows, some empty, at batch sizes around the lockstep
        // width: every row must come out exactly as it would alone.
        let mut b = SparseMatrixBuilder::new(30, 40);
        for r in 0..30 {
            for c in (0..40u32).filter(|c| !(r as u32 * 7 + c).is_multiple_of(3)) {
                b.push(r, c, 1.0 + ((r as u32 * 5 + c * 3) % 9) as f64 * 0.5);
            }
        }
        let model = IncrementalSvd::new(SvdConfig::default().with_epochs(30)).fit(&b.build());
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1, 7, 8, 9, 20] {
            let rows: Vec<(Vec<u32>, Vec<f64>)> = (0..n)
                .map(|i| {
                    let len = if i % 5 == 3 {
                        0
                    } else {
                        rng.random_range(1..40usize)
                    };
                    let mut cols: Vec<u32> = (0..40).collect();
                    for j in 0..40 {
                        cols.swap(j, rng.random_range(j..40));
                    }
                    cols.truncate(len);
                    cols.sort_unstable();
                    let vals = cols.iter().map(|_| rng.random_range(0.5..5.0)).collect();
                    (cols, vals)
                })
                .collect();
            let batch: Vec<(&[u32], &[f64])> = rows
                .iter()
                .map(|(c, v)| (c.as_slice(), v.as_slice()))
                .collect();
            let projected = model.fold_in_rows(&batch, 25);
            assert_eq!(projected.rows(), n);
            for (i, (cols, vals)) in rows.iter().enumerate() {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(projected.row(i)),
                    bits(&fold_in_row_oracle(&model, cols, vals, 25)),
                    "batch of {n}, row {i} ({} entries)",
                    cols.len()
                );
            }
        }
    }

    #[test]
    fn empty_matrix_fit_is_safe() {
        let data = SparseMatrixBuilder::new(0, 0).build();
        let model = IncrementalSvd::new(SvdConfig::default().with_epochs(1)).fit(&data);
        assert_eq!(model.global_mean(), 0.0);
        assert_eq!(model.reconstruction_rmse(&data), 0.0);
    }

    #[test]
    fn global_mean_is_mean_of_observed() {
        let mut b = SparseMatrixBuilder::new(2, 2);
        b.push(0, 0, 2.0);
        b.push(1, 1, 4.0);
        let data = b.build();
        let model = IncrementalSvd::new(SvdConfig::default().with_epochs(1)).fit(&data);
        assert_eq!(model.global_mean(), 3.0);
    }
}
