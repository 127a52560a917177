//! Property-based tests for the numeric substrate.

use at_linalg::stats::{mean, percentile, variance, Percentiles, StreamingStats};
use at_linalg::{
    for_each_target_slot, pearson, pearson_on_common, pearson_on_common_alloc,
    pearson_on_common_indexed, BlockedRow, IncrementalSvd, IndexedRow, IndexedSet, Matrix,
    SparseMatrix, SparseMatrixBuilder, SvdConfig, LANES,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Build one sorted sparse row from a dense mask: entry `i` is present when
/// `mask[i]` is true, with value `vals[i]`.
fn sparse_row(mask: &[bool], vals: &[f64]) -> (Vec<u32>, Vec<f64>) {
    let mut cols = Vec::new();
    let mut out = Vec::new();
    for (i, (&m, &v)) in mask.iter().zip(vals).enumerate() {
        if m {
            cols.push(i as u32);
            out.push(v);
        }
    }
    (cols, out)
}

/// The row-major loop `IncrementalSvd::fit` ran before its rows stepped
/// in lockstep, kept as its oracle: one cell at a time, every epoch in
/// row order, then the dimension folded into the residuals. Returns the
/// row factors, the column factors and the global mean.
fn fit_oracle(cfg: SvdConfig, data: &SparseMatrix) -> (Matrix, Matrix, f64) {
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
    let mut residuals: Vec<f64> = data.iter().map(|(_, _, v)| v - global_mean).collect();
    for d in 0..cfg.dims {
        for _ in 0..cfg.epochs_per_dim {
            let mut k = 0usize;
            for r in 0..data.rows() {
                let rf = row_factors.row_mut(r);
                for (c, _v) in data.row(r) {
                    let cf = col_factors.row_mut(c as usize);
                    let err = residuals[k] - rf[d] * cf[d];
                    let ru = rf[d];
                    rf[d] += cfg.learning_rate * (err * cf[d] - cfg.regularization * rf[d]);
                    cf[d] += cfg.learning_rate * (err * ru - cfg.regularization * cf[d]);
                    k += 1;
                }
            }
        }
        let mut k = 0usize;
        for r in 0..data.rows() {
            let rf = row_factors.row(r);
            for (c, _v) in data.row(r) {
                residuals[k] -= rf[d] * col_factors.get(c as usize, d);
                k += 1;
            }
        }
    }
    (row_factors, col_factors, global_mean)
}

/// Largest side [`shaped_matrix`] draws.
const MAX_SIDE: usize = 12;

/// A `rows × cols` matrix whose cell `(r, c)` takes `cells[r * MAX_SIDE +
/// c]`'s value when the shape keeps it:
/// - 0: sparse (a quarter of the cells), so empty and one-entry rows are
///   common;
/// - 1: dense (three quarters of the cells);
/// - 2: every cell, so every row holds the same columns and each step
///   conflicts with the row before it;
/// - 3: column `c` in row `c % rows` only, so rows share no column.
fn shaped_matrix(shape: u32, rows: usize, cols: usize, cells: &[(u32, f64)]) -> SparseMatrix {
    let mut b = SparseMatrixBuilder::new(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            let (draw, v) = cells[r * MAX_SIDE + c];
            let keep = match shape {
                0 => draw == 0,
                1 => draw != 0,
                2 => true,
                _ => c % rows == r,
            };
            if keep {
                b.push(r, c as u32, v);
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn svd_fit_bit_matches_row_major_oracle(
        shape in 0u32..4,
        rows in 0usize..=MAX_SIDE,
        cols in 1usize..=MAX_SIDE,
        cells in prop::collection::vec((0u32..4, 0.5f64..5.0), MAX_SIDE * MAX_SIDE),
        dims in 1usize..=4,
        epochs in 0usize..=3,
        seed in 0u64..1_000,
    ) {
        let data = shaped_matrix(shape, rows, cols, &cells);
        let cfg = SvdConfig::default().with_dims(dims).with_epochs(epochs).with_seed(seed);
        let model = IncrementalSvd::new(cfg).fit(&data);
        let (row_factors, col_factors, global_mean) = fit_oracle(cfg, &data);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(model.row_factors()), bits(&row_factors), "row factors");
        prop_assert_eq!(bits(model.col_factors()), bits(&col_factors), "column factors");
        prop_assert_eq!(model.global_mean().to_bits(), global_mean.to_bits());
    }

    #[test]
    fn percentile_is_monotone_in_p(xs in prop::collection::vec(-1e6f64..1e6, 1..200),
                                   p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(percentile(&xs, lo) <= percentile(&xs, hi) + 1e-9);
    }

    #[test]
    fn percentile_bounded_by_min_max(xs in prop::collection::vec(-1e6f64..1e6, 1..200),
                                     p in 0.0f64..100.0) {
        let v = percentile(&xs, p);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
    }

    #[test]
    fn percentiles_struct_agrees_with_function(xs in prop::collection::vec(-1e3f64..1e3, 1..100),
                                               p in 0.0f64..100.0) {
        let s = Percentiles::new(xs.clone());
        prop_assert!((s.get(p) - percentile(&xs, p)).abs() < 1e-9);
    }

    #[test]
    fn streaming_stats_match_batch(xs in prop::collection::vec(-1e3f64..1e3, 2..200)) {
        let mut s = StreamingStats::new();
        for &x in &xs {
            s.push(x);
        }
        prop_assert!((s.mean() - mean(&xs)).abs() < 1e-6);
        prop_assert!((s.variance() - variance(&xs)).abs() < 1e-4 * (1.0 + variance(&xs)));
    }

    #[test]
    fn streaming_merge_is_order_independent(xs in prop::collection::vec(-1e3f64..1e3, 2..100),
                                            cut in 1usize..99) {
        let cut = cut.min(xs.len() - 1);
        let mut a = StreamingStats::new();
        let mut b = StreamingStats::new();
        for &x in &xs[..cut] { a.push(x); }
        for &x in &xs[cut..] { b.push(x); }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-6);
        prop_assert_eq!(ab.count(), ba.count());
    }

    #[test]
    fn pearson_is_symmetric_and_bounded(pairs in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 2..60)) {
        let (a, b): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let ab = pearson(&a, &b);
        let ba = pearson(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((-1.0..=1.0).contains(&ab));
    }

    #[test]
    fn pearson_invariant_to_affine_transform(pairs in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..60),
                                             scale in 0.1f64..10.0, shift in -50.0f64..50.0) {
        let (a, b): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let a2: Vec<f64> = a.iter().map(|x| x * scale + shift).collect();
        let r1 = pearson(&a, &b);
        let r2 = pearson(&a2, &b);
        prop_assert!((r1 - r2).abs() < 1e-6, "{} vs {}", r1, r2);
    }

    #[test]
    fn streaming_pearson_equals_allocating_on_random_sparse_rows(
        entries in prop::collection::vec((0u32..2, 0u32..2, 0.5f64..5.0, 0.5f64..5.0), 0..80),
    ) {
        // Random presence masks produce arbitrary partial overlap between
        // the two rows (including empty and single-item intersections).
        let mask_a: Vec<bool> = entries.iter().map(|e| e.0 == 1).collect();
        let mask_b: Vec<bool> = entries.iter().map(|e| e.1 == 1).collect();
        let vals_a: Vec<f64> = entries.iter().map(|e| e.2).collect();
        let vals_b: Vec<f64> = entries.iter().map(|e| e.3).collect();
        let (ca, va) = sparse_row(&mask_a, &vals_a);
        let (cb, vb) = sparse_row(&mask_b, &vals_b);
        let (w_stream, n_stream) = pearson_on_common(&ca, &va, &cb, &vb);
        let (w_alloc, n_alloc) = pearson_on_common_alloc(&ca, &va, &cb, &vb);
        prop_assert_eq!(n_stream, n_alloc);
        prop_assert!((w_stream - w_alloc).abs() < 1e-9,
                     "streaming {} vs allocating {}", w_stream, w_alloc);
    }

    #[test]
    fn streaming_pearson_bounded_and_symmetric(
        entries in prop::collection::vec((0u32..2, 0u32..2, -100.0f64..100.0, -100.0f64..100.0), 0..60),
    ) {
        let mask_a: Vec<bool> = entries.iter().map(|e| e.0 == 1).collect();
        let mask_b: Vec<bool> = entries.iter().map(|e| e.1 == 1).collect();
        let vals_a: Vec<f64> = entries.iter().map(|e| e.2).collect();
        let vals_b: Vec<f64> = entries.iter().map(|e| e.3).collect();
        let (ca, va) = sparse_row(&mask_a, &vals_a);
        let (cb, vb) = sparse_row(&mask_b, &vals_b);
        let (ab, n1) = pearson_on_common(&ca, &va, &cb, &vb);
        let (ba, n2) = pearson_on_common(&cb, &vb, &ca, &va);
        prop_assert_eq!(n1, n2);
        prop_assert!((-1.0..=1.0).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn sparse_pearson_equals_dense_on_full_overlap(vals in prop::collection::vec((0.0f64..5.0, 0.0f64..5.0), 2..40)) {
        let cols: Vec<u32> = (0..vals.len() as u32).collect();
        let (a, b): (Vec<f64>, Vec<f64>) = vals.into_iter().unzip();
        let (w, common) = pearson_on_common(&cols, &a, &cols, &b);
        prop_assert_eq!(common, cols.len());
        prop_assert!((w - pearson(&a, &b)).abs() < 1e-12);
    }

    // ---- blocked / lane-chunked kernel differentials ------------------------
    //
    // Every vectorized variant must be *bit*-identical (`to_bits`) to the
    // allocating oracle, which the streaming kernel is itself pinned to.
    // Column gaps of 1..6 walk intersections across `LANES`-wide block
    // boundaries at every alignment; `dense` (one draw in four) instead lays
    // both rows over consecutive columns from 0, so a long draw fills whole
    // blocks on both sides. A one-sided tail runs either row past the
    // other's last block (the indexed walk's early stop); `empty_a` empties
    // the indexed side; `zero_var_a` forces constant (zero-variance) rows
    // and `nan_at` injects a NaN score to pin NaN propagation.

    #[test]
    fn blocked_and_lane_kernels_bit_match_oracle(
        entries in prop::collection::vec((0u32..2, 0u32..2, 1u32..6, 0.5f64..5.0, 0.5f64..5.0), 0..120),
        tail in prop::collection::vec((1u32..20, 0.5f64..5.0), 0..12),
        tail_on_a in 0u32..2,
        empty_a in 0u32..8,
        zero_var_a in 0u32..2,
        // Indices >= 120 never match an entry, so half the draws inject no NaN.
        nan_at in 0usize..240,
        dense in 0u32..4,
    ) {
        let mut col = 0u32;
        let (mut ca, mut va) = (Vec::new(), Vec::new());
        let (mut cb, mut vb) = (Vec::new(), Vec::new());
        for (i, &(pa, pb, gap, x, y)) in entries.iter().enumerate() {
            let (pa, pb, gap) = if dense == 0 { (1, 1, u32::from(i > 0)) } else { (pa, pb, gap) };
            col += gap;
            let mut x = if zero_var_a == 1 { 2.5 } else { x };
            if nan_at == i {
                x = f64::NAN;
            }
            if pa == 1 {
                ca.push(col);
                va.push(x);
            }
            if pb == 1 {
                cb.push(col);
                vb.push(y);
            }
        }
        for &(gap, v) in &tail {
            col += gap;
            let (c, vs) = if tail_on_a == 1 { (&mut ca, &mut va) } else { (&mut cb, &mut vb) };
            c.push(col);
            vs.push(if zero_var_a == 1 && tail_on_a == 1 { 2.5 } else { v });
        }
        if empty_a == 0 {
            ca.clear();
            va.clear();
        }
        let a = IndexedRow::from_sorted(&ca, &va);
        let b = BlockedRow::from_sorted(&cb, &vb);
        let (w_oracle, n_oracle) = pearson_on_common_alloc(&ca, &va, &cb, &vb);
        let variants = [
            ("streaming", pearson_on_common(&ca, &va, &cb, &vb)),
            ("indexed", pearson_on_common_indexed(&a, &b)),
        ];
        for (name, (w, n)) in variants {
            prop_assert_eq!(n, n_oracle, "{}: common count", name);
            prop_assert_eq!(w.to_bits(), w_oracle.to_bits(),
                            "{}: {} vs oracle {}", name, w, w_oracle);
        }
    }

    #[test]
    fn empty_and_disjoint_intersections_are_exactly_zero(
        cols_a in prop::collection::vec(1u32..6, 0..40),
        cols_b in prop::collection::vec(1u32..6, 0..40),
        // Shifts one side by whole blocks, so either can start past the
        // other's last block.
        shift in 0u32..24,
        shift_a in 0u32..2,
    ) {
        // Make the rows provably disjoint: evens for `a`, odds for `b`.
        let (sa, sb) = if shift_a == 1 { (shift * LANES as u32, 0) } else { (0, shift * LANES as u32) };
        let mut col = 0u32;
        let ca: Vec<u32> = cols_a.iter().map(|&g| { col += g; col * 2 + sa }).collect();
        let mut col = 0u32;
        let cb: Vec<u32> = cols_b.iter().map(|&g| { col += g; col * 2 + 1 + sb }).collect();
        let va = vec![1.5; ca.len()];
        let vb = vec![2.5; cb.len()];
        let a = IndexedRow::from_sorted(&ca, &va);
        let b = BlockedRow::from_sorted(&cb, &vb);
        let (w, n) = pearson_on_common_indexed(&a, &b);
        prop_assert_eq!(n, 0);
        prop_assert_eq!(w.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn blocked_row_round_trips_sorted_pairs(
        entries in prop::collection::vec((1u32..9, -100.0f64..100.0), 0..100),
    ) {
        let mut col = 0u32;
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for &(gap, v) in &entries {
            col += gap;
            cols.push(col);
            vals.push(v);
        }
        let row = BlockedRow::from_sorted(&cols, &vals);
        prop_assert_eq!(row.nnz(), cols.len());
        let (rc, rv) = row.to_sorted();
        prop_assert_eq!(rc, cols);
        for (got, want) in rv.iter().zip(&vals) {
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn common_slot_merge_matches_two_pointer_reference(
        entries in prop::collection::vec((0u32..2, 0u32..2, 1u32..6, -10.0f64..10.0), 0..100),
        tail in prop::collection::vec((1u32..20, -10.0f64..10.0), 0..12),
        tail_on_row in 0u32..2,
        // One draw in four lays both sides over consecutive columns from 0,
        // so a long draw fills whole blocks.
        dense in 0u32..4,
    ) {
        let mut col = 0u32;
        let (mut cr, mut vr) = (Vec::new(), Vec::new());
        let mut ct = Vec::new();
        for (i, &(pr, pt, gap, v)) in entries.iter().enumerate() {
            let (pr, pt, gap) = if dense == 0 { (1, 1, u32::from(i > 0)) } else { (pr, pt, gap) };
            col += gap;
            if pr == 1 {
                cr.push(col);
                vr.push(v);
            }
            if pt == 1 {
                ct.push(col);
            }
        }
        // Run one side past the other's last block.
        for &(gap, v) in &tail {
            col += gap;
            if tail_on_row == 1 {
                cr.push(col);
                vr.push(v);
            } else {
                ct.push(col);
            }
        }
        let row = BlockedRow::from_sorted(&cr, &vr);
        let set = IndexedSet::from_sorted(&ct);
        // Reference: classic two-pointer merge over the sorted CSR views.
        let mut want: Vec<(usize, u64)> = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < cr.len() && j < ct.len() {
            match cr[i].cmp(&ct[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    want.push((j, vr[i].to_bits()));
                    i += 1;
                    j += 1;
                }
            }
        }
        let mut got: Vec<(usize, u64)> = Vec::new();
        for_each_target_slot(&row, &set, |slot, v| got.push((slot, v.to_bits())));
        prop_assert_eq!(got, want);
    }
}
