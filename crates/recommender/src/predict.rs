//! User-based collaborative filtering (paper §3.2).
//!
//! Step 1: the weight between the active user and a neighbour is Pearson's
//! correlation over their co-rated items. Step 2: the prediction of user
//! `u`'s rating on item `i` is `u`'s mean rating plus the weighted average
//! of the neighbours' mean-centred ratings of `i` — the classic formulation
//! from the CF survey the paper cites.

use at_linalg::pearson::pearson_on_common;
use at_linalg::{
    for_each_target_slot, pearson_on_common_indexed, BlockedRow, IndexedRow, IndexedSet,
};
use at_synopsis::{Row, SparseRow};

use crate::ratings::ActiveUser;

/// Minimum co-rated items for a weight to count (below this, Pearson is
/// noise; with <2 items it is undefined and treated as 0).
pub const MIN_COMMON_ITEMS: usize = 2;

/// Accumulating numerator/denominator of a weighted-average prediction for
/// one target item. Partial sums from different components/groups add.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PredictionAcc {
    /// Σ w(u,v) · (r_{v,i} − r̄_v) (optionally scaled by member counts).
    pub num: f64,
    /// Σ |w(u,v)| (same scaling).
    pub den: f64,
}

impl PredictionAcc {
    /// Merge another partial sum.
    pub fn merge(&mut self, other: &PredictionAcc) {
        self.num += other.num;
        self.den += other.den;
    }

    /// Final prediction: `user_mean + num/den`, clamped to the 1–5 star
    /// scale; falls back to `user_mean` when no neighbour rated the item.
    pub fn predict(&self, user_mean: f64) -> f64 {
        if self.den > 1e-12 {
            (user_mean + self.num / self.den).clamp(1.0, 5.0)
        } else {
            user_mean.clamp(1.0, 5.0)
        }
    }
}

/// The Pearson weight between the active user and one neighbour row.
/// Returns `(weight, common_items)`; weight is 0 below [`MIN_COMMON_ITEMS`].
pub fn user_weight(active: &SparseRow, neighbor: &SparseRow) -> (f64, usize) {
    let (w, common) = pearson_on_common(&active.cols, &active.vals, &neighbor.cols, &neighbor.vals);
    if common < MIN_COMMON_ITEMS {
        (0.0, common)
    } else {
        (w, common)
    }
}

/// Block-id-indexed [`user_weight`]: the serving-path variant (profile
/// from [`ActiveUser::profile`], neighbour straight out of the blocked
/// `RowStore`/`Synopsis`). Walks the neighbour's occupied blocks and looks
/// each up in the profile by id. **Bit-identical** to [`user_weight`] —
/// the kernel folds the same intersection through the same Welford
/// recurrence in the same order; only the intersection *discovery* is
/// block-parallel.
pub fn user_weight_indexed(active: &IndexedRow, neighbor: &BlockedRow) -> (f64, usize) {
    let (w, common) = pearson_on_common_indexed(active, neighbor);
    if common < MIN_COMMON_ITEMS {
        (0.0, common)
    } else {
        (w, common)
    }
}

/// Fold one neighbour's ratings into the per-target accumulators.
///
/// `weight` is the precomputed Pearson weight of this neighbour (from
/// [`user_weight`]) and `neighbor_mean` its precomputed mean rating (from a
/// [`at_linalg::RowStats`] cache) — callers that already weighed the
/// neighbour for correlation ranking pass both in, so the hot path computes
/// each weight **exactly once** and never rescans the neighbour's values.
///
/// `multiplier` scales the contribution (1 for an original user; the member
/// count when the "neighbour" is an aggregated user standing in for many).
/// `acc` is parallel to `active.targets` (sorted ascending); the
/// neighbour's targets are found by one linear merge over its sorted
/// columns instead of a binary search per target.
pub fn accumulate_neighbor(
    active: &ActiveUser,
    neighbor: &SparseRow,
    weight: f64,
    neighbor_mean: f64,
    multiplier: f64,
    acc: &mut [PredictionAcc],
) {
    debug_assert_eq!(acc.len(), active.targets.len());
    // The merge below requires sorted targets — guaranteed by
    // `ActiveUser::new`, but `targets` is a public field.
    debug_assert!(
        active.targets.windows(2).all(|w| w[0] < w[1]),
        "accumulate_neighbor: active.targets must be sorted and deduplicated"
    );
    if weight == 0.0 {
        return;
    }
    // Both `targets` and `cols` are sorted ascending: advance whichever is
    // behind (galloping through `cols` once instead of per-target binary
    // searches).
    let cols = &neighbor.cols;
    let (mut t, mut j) = (0usize, 0usize);
    while t < active.targets.len() && j < cols.len() {
        match cols[j].cmp(&active.targets[t]) {
            std::cmp::Ordering::Less => j += 1,
            std::cmp::Ordering::Greater => t += 1,
            std::cmp::Ordering::Equal => {
                let a = &mut acc[t];
                a.num += weight * (neighbor.vals[j] - neighbor_mean) * multiplier;
                a.den += weight.abs() * multiplier;
                t += 1;
                j += 1;
            }
        }
    }
}

/// Block-id-indexed [`accumulate_neighbor`]: the neighbour's blocked row
/// is walked once, each block finds the active user's cached target block
/// by id ([`ActiveUser::target_set`]), one mask AND picks the targets it
/// rated, and the accumulator slot comes from a branch-free rank instead
/// of a per-column compare loop.
///
/// **Bit-identical** to the scalar merge: matches arrive in the same
/// ascending column order and the per-match arithmetic is the exact
/// expression of [`accumulate_neighbor`], unreassociated.
pub fn accumulate_neighbor_indexed(
    targets: &IndexedSet,
    neighbor: &BlockedRow,
    weight: f64,
    neighbor_mean: f64,
    multiplier: f64,
    acc: &mut [PredictionAcc],
) {
    debug_assert_eq!(acc.len(), targets.len());
    if weight == 0.0 {
        return;
    }
    for_each_target_slot(neighbor, targets, |t, v| {
        let a = &mut acc[t];
        a.num += weight * (v - neighbor_mean) * multiplier;
        a.den += weight.abs() * multiplier;
    });
}

/// Weigh one neighbour against the active user and fold it into the
/// accumulators: the one-off convenience wrapper around [`user_weight`] +
/// [`accumulate_neighbor`] for callers without a stats cache.
pub fn weigh_and_accumulate(
    active: &ActiveUser,
    neighbor: &SparseRow,
    multiplier: f64,
    acc: &mut [PredictionAcc],
) {
    let (w, _) = user_weight(&active.profile().decode(), neighbor);
    if w == 0.0 {
        return;
    }
    let mean = at_linalg::RowStats::of(&neighbor.vals).mean();
    accumulate_neighbor(active, neighbor, w, mean, multiplier, acc);
}

/// Full user-based CF over a set of neighbour rows: returns one prediction
/// accumulator per target (compose across components by merging).
pub fn predict_partial(
    active: &ActiveUser,
    neighbors: impl Iterator<Item = impl std::borrow::Borrow<SparseRow>>,
) -> Vec<PredictionAcc> {
    let mut acc = vec![PredictionAcc::default(); active.targets.len()];
    for n in neighbors {
        weigh_and_accumulate(active, n.borrow(), 1.0, &mut acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(pairs: Vec<(u32, f64)>) -> SparseRow {
        SparseRow::from_pairs(pairs)
    }

    #[test]
    fn weight_requires_common_items() {
        let a = row(vec![(0, 5.0), (1, 3.0)]);
        let b = row(vec![(2, 4.0), (3, 1.0)]);
        assert_eq!(user_weight(&a, &b), (0.0, 0));
    }

    #[test]
    fn weight_of_agreeing_users_is_positive() {
        let a = row(vec![(0, 5.0), (1, 3.0), (2, 1.0)]);
        let b = row(vec![(0, 4.0), (1, 3.0), (2, 2.0)]);
        let (w, common) = user_weight(&a, &b);
        assert_eq!(common, 3);
        assert!(w > 0.9, "agreeing users should correlate strongly: {w}");
    }

    #[test]
    fn weight_of_opposite_users_is_negative() {
        let a = row(vec![(0, 5.0), (1, 3.0), (2, 1.0)]);
        let b = row(vec![(0, 1.0), (1, 3.0), (2, 5.0)]);
        let (w, _) = user_weight(&a, &b);
        assert!(w < -0.9);
    }

    #[test]
    fn prediction_follows_positive_neighbor() {
        // Active user mean 3; a strongly-agreeing neighbour rated target
        // item 9 one star above *their* mean -> prediction ≈ 4.
        let active = ActiveUser::new(row(vec![(0, 5.0), (1, 3.0), (2, 1.0)]), vec![9]);
        let neighbor = row(vec![(0, 5.0), (1, 3.0), (2, 1.0), (9, 4.0)]);
        let acc = predict_partial(&active, std::iter::once(&neighbor));
        // neighbour mean = 3.25, delta = 0.75, w ≈ 1.
        let p = acc[0].predict(active.mean_rating());
        assert!((p - 3.75).abs() < 0.05, "prediction {p}");
    }

    #[test]
    fn no_neighbors_falls_back_to_user_mean() {
        let active = ActiveUser::new(row(vec![(0, 4.0), (1, 4.0)]), vec![5]);
        let acc = predict_partial(&active, std::iter::empty::<&SparseRow>());
        assert_eq!(acc[0].predict(active.mean_rating()), 4.0);
    }

    #[test]
    fn prediction_clamped_to_star_scale() {
        let acc = PredictionAcc {
            num: 100.0,
            den: 1.0,
        };
        assert_eq!(acc.predict(3.0), 5.0);
        let acc = PredictionAcc {
            num: -100.0,
            den: 1.0,
        };
        assert_eq!(acc.predict(3.0), 1.0);
    }

    #[test]
    fn merge_equals_joint_computation() {
        let active = ActiveUser::new(row(vec![(0, 5.0), (1, 1.0), (2, 3.0)]), vec![7]);
        let n1 = row(vec![(0, 4.0), (1, 2.0), (7, 5.0)]);
        let n2 = row(vec![(0, 5.0), (1, 1.0), (2, 3.0), (7, 1.0)]);
        let joint = predict_partial(&active, [&n1, &n2].into_iter());
        let mut a = predict_partial(&active, std::iter::once(&n1));
        let b = predict_partial(&active, std::iter::once(&n2));
        a[0].merge(&b[0]);
        assert!((a[0].num - joint[0].num).abs() < 1e-12);
        assert!((a[0].den - joint[0].den).abs() < 1e-12);
    }

    #[test]
    fn multiplier_scales_contribution() {
        let active = ActiveUser::new(row(vec![(0, 5.0), (1, 1.0)]), vec![7]);
        let n = row(vec![(0, 4.0), (1, 2.0), (7, 5.0)]);
        let mut one = vec![PredictionAcc::default()];
        weigh_and_accumulate(&active, &n, 1.0, &mut one);
        let mut ten = vec![PredictionAcc::default()];
        weigh_and_accumulate(&active, &n, 10.0, &mut ten);
        assert!((ten[0].num - 10.0 * one[0].num).abs() < 1e-12);
        // Prediction itself is scale-invariant for a single neighbour.
        assert!((ten[0].predict(3.0) - one[0].predict(3.0)).abs() < 1e-12);
    }

    #[test]
    fn indexed_kernels_are_bit_identical_to_scalar() {
        // Columns are drawn in eighths of a block and then stretched by
        // `spread`: at spread 1 every case sits in block 0, at `LANES / 8`
        // the profiles and targets end before, inside and after the
        // neighbour's last block as drawn.
        for spread in [1, at_linalg::LANES as u32 / 8] {
            let at =
                |pairs: &[(u32, f64)]| row(pairs.iter().map(|&(c, v)| (c * spread, v)).collect());
            let neighbor = at(&[
                (0, 4.0),
                (1, 2.0),
                (4, 1.0),
                (5, 5.0),
                (8, 3.5),
                (9, 2.0),
                (16, 1.0),
                (17, 2.0),
            ]);
            // The profile ends before, inside and after the neighbour's
            // last block, or is empty; the targets do the same.
            let profiles: [&[(u32, f64)]; 4] = [
                &[(0, 5.0), (1, 1.0), (2, 3.0), (8, 2.0), (17, 4.0)],
                &[(0, 5.0), (1, 1.0), (5, 3.0)],
                &[(1, 2.0), (9, 4.0), (17, 1.0), (40, 5.0)],
                &[],
            ];
            let target_lists: [&[u32]; 4] = [&[3, 5, 7, 9, 16, 24], &[1, 4], &[], &[8, 17, 63]];
            let nb = BlockedRow::from_sorted(&neighbor.cols, &neighbor.vals);
            let mean = at_linalg::RowStats::of(&neighbor.vals).mean();
            for (profile, targets) in profiles.iter().zip(&target_lists) {
                let targets = targets.iter().map(|&c| c * spread).collect();
                let active = ActiveUser::new(at(profile), targets);
                let (ws, cs) = user_weight(&active.profile().decode(), &neighbor);
                let (wi, ci) = user_weight_indexed(active.profile(), &nb);
                assert_eq!(cs, ci);
                assert_eq!(ws.to_bits(), wi.to_bits());
                // A nonzero weight even when the profile gives none, so the
                // target fold always runs.
                let w = if ws == 0.0 { 0.75 } else { ws };
                let mut scalar = vec![PredictionAcc::default(); active.targets.len()];
                accumulate_neighbor(&active, &neighbor, w, mean, 2.0, &mut scalar);
                let mut indexed = vec![PredictionAcc::default(); active.targets.len()];
                accumulate_neighbor_indexed(active.target_set(), &nb, w, mean, 2.0, &mut indexed);
                for (s, i) in scalar.iter().zip(&indexed) {
                    assert_eq!(s.num.to_bits(), i.num.to_bits());
                    assert_eq!(s.den.to_bits(), i.den.to_bits());
                }
            }
        }
    }

    #[test]
    fn precomputed_weight_path_matches_wrapper() {
        // Multiple targets interleaved with non-target columns exercise the
        // linear merge; it must agree with the weigh-and-accumulate wrapper
        // (which itself recomputes weight and mean from scratch).
        let active = ActiveUser::new(row(vec![(0, 5.0), (1, 1.0), (2, 3.0)]), vec![3, 5, 7, 9]);
        let n = row(vec![(0, 4.0), (1, 2.0), (4, 1.0), (5, 5.0), (9, 2.0)]);
        let mut via_wrapper = vec![PredictionAcc::default(); 4];
        weigh_and_accumulate(&active, &n, 2.0, &mut via_wrapper);
        let (w, _) = user_weight(&active.profile().decode(), &n);
        let mean = at_linalg::RowStats::of(&n.vals).mean();
        let mut via_precomputed = vec![PredictionAcc::default(); 4];
        accumulate_neighbor(&active, &n, w, mean, 2.0, &mut via_precomputed);
        assert_eq!(via_wrapper, via_precomputed);
        // Target 5 and 9 are rated; 3 and 7 are not.
        assert!(via_precomputed[1].den > 0.0 && via_precomputed[3].den > 0.0);
        assert_eq!(via_precomputed[0], PredictionAcc::default());
        assert_eq!(via_precomputed[2], PredictionAcc::default());
    }
}
