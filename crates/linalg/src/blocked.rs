//! Blocked sparse row layout and block-aligned correlation kernels.
//!
//! The streaming kernels in [`crate::pearson`] walk two sorted column lists
//! element-at-a-time: every merge step is a data-dependent three-way branch,
//! so the CPU mispredicts its way through the intersection. This module
//! re-buckets a sparse row into fixed-width **column blocks** of
//! [`LANES`] = 8 columns: per block a `u8` occupancy mask plus a dense
//! `[f64; 8]` value lane array (absent lanes hold `0.0`). Intersection then
//! becomes a merge over *block ids* — 8× fewer merge steps — and within a
//! matching block a single `mask_a & mask_b` AND replaces up to eight
//! compare-branches; matched lanes are walked in ascending bit order, or via
//! a fixed-trip unrolled loop when both blocks are full.
//!
//! # Bit-identity contract
//!
//! Every kernel here folds matched pairs through the **same Welford
//! recurrence, in the same ascending-column order, with the same finish
//! conventions** as [`crate::pearson_on_common`] (shared
//! [`WelfordPair`]). Block layout changes how intersections are *found*,
//! never the floating-point operation sequence — so the blocked kernels are
//! drop-in bit-identical replacements for the scalar ones, and the
//! allocating oracle [`crate::pearson_on_common_alloc`] proves them equal
//! byte-for-byte in the differential proptests.
//!
//! The Welford recurrence itself is a serial dependence (`mean` feeds the
//! next delta), so lanes cannot legally parallelise the *fold* without
//! reassociating — which would break bit-identity. Lane width is therefore
//! spent where it is free: gathering, masking and selecting candidate pairs
//! in fixed-width chunks the autovectorizer can keep in vector registers.
//! Everything is stable, `unsafe`-free Rust (the workspace forbids
//! `unsafe`); there are no intrinsics to audit.

use crate::pearson::WelfordPair;

/// Lanes per column block. A block covers columns
/// `[id * LANES, (id + 1) * LANES)`.
pub const LANES: usize = 8;

/// A sparse row re-bucketed into fixed-width column blocks.
///
/// Parallel arrays, one entry per *occupied* block (ascending block id):
/// `ids[k]` is the block id (`col / LANES`), `masks[k]` the occupancy bitmap
/// (bit `j` set ⇔ column `id * LANES + j` is stored), `lanes[k]` the dense
/// value lanes (absent lanes `0.0`). Empty blocks are not stored, so a row
/// with clustered columns stays compact while a fully dense row costs
/// `9/8`ths of its CSR values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlockedRow {
    ids: Vec<u32>,
    masks: Vec<u8>,
    lanes: Vec<[f64; LANES]>,
}

impl BlockedRow {
    /// Build from parallel `(cols, vals)` with `cols` strictly ascending
    /// (the [`crate::SparseMatrix`] / `SparseRow` invariant). The three
    /// vectors are sized exactly: a stored row carries no growth slack.
    ///
    /// # Panics
    /// Panics if the lengths differ or `cols` is not strictly ascending —
    /// descending block ids would make the block merges skip intersections
    /// silently, and this may be the only stored copy of the row.
    pub fn from_sorted(cols: &[u32], vals: &[f64]) -> Self {
        assert_eq!(cols.len(), vals.len(), "cols/vals length mismatch");
        // First pass: count occupied blocks (and check the order the
        // second pass relies on).
        let mut blocks = usize::from(!cols.is_empty());
        for w in cols.windows(2) {
            assert!(w[0] < w[1], "cols not strictly ascending");
            blocks += usize::from(w[0] / LANES as u32 != w[1] / LANES as u32);
        }
        let mut row = BlockedRow {
            ids: Vec::with_capacity(blocks),
            masks: Vec::with_capacity(blocks),
            lanes: Vec::with_capacity(blocks),
        };
        for (&c, &v) in cols.iter().zip(vals) {
            let id = c / LANES as u32;
            let lane = (c % LANES as u32) as usize;
            if row.ids.last() != Some(&id) {
                row.ids.push(id);
                row.masks.push(0);
                row.lanes.push([0.0; LANES]);
            }
            let k = row.ids.len() - 1;
            row.masks[k] |= 1 << lane;
            row.lanes[k][lane] = v;
        }
        row
    }

    /// Number of stored entries (total set mask bits).
    pub fn nnz(&self) -> usize {
        self.masks.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Number of occupied blocks.
    pub fn num_blocks(&self) -> usize {
        self.ids.len()
    }

    /// True when the row stores no entries.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Decode back to sorted `(cols, vals)` — the CSR round-trip view
    /// (construction/compat path; allocates, offline use only).
    pub fn to_sorted(&self) -> (Vec<u32>, Vec<f64>) {
        let mut cols = Vec::with_capacity(self.nnz());
        let mut vals = Vec::with_capacity(self.nnz());
        self.for_each(|c, v| {
            cols.push(c);
            vals.push(v);
        });
        (cols, vals)
    }

    /// Visit stored `(col, val)` pairs in ascending column order.
    pub fn for_each(&self, mut f: impl FnMut(u32, f64)) {
        for ((&id, &mask), lanes) in self.ids.iter().zip(&self.masks).zip(&self.lanes) {
            let mut m = mask;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                f(id * LANES as u32 + lane as u32, lanes[lane]);
                m &= m - 1;
            }
        }
    }
}

/// A blocked *membership + rank* set over a sorted column list — the target
/// side of the weighted linear merge ([`for_each_common_slot`]).
///
/// Same block bucketing as [`BlockedRow`] but values are replaced by a rank
/// prefix: `base[k]` counts the set bits in `masks[..k]`, so the position of
/// a member column inside the original sorted list is recovered branch-free
/// as `base[k] + popcount(mask & (bit - 1))`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlockedSet {
    ids: Vec<u32>,
    masks: Vec<u8>,
    base: Vec<u32>,
    len: usize,
}

impl BlockedSet {
    /// Build from a strictly ascending column list.
    pub fn from_sorted(cols: &[u32]) -> Self {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "cols not sorted");
        let mut set = BlockedSet {
            ids: Vec::new(),
            masks: Vec::new(),
            base: Vec::new(),
            len: cols.len(),
        };
        for (rank, &c) in cols.iter().enumerate() {
            let id = c / LANES as u32;
            let lane = (c % LANES as u32) as usize;
            if set.ids.last() != Some(&id) {
                set.ids.push(id);
                set.masks.push(0);
                set.base.push(rank as u32);
            }
            let k = set.ids.len() - 1;
            set.masks[k] |= 1 << lane;
        }
        set
    }

    /// Number of member columns.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Visit every `(slot, value)` where a column of `row` is a member of
/// `set`, in ascending column order; `slot` is the column's rank (position)
/// in the sorted list `set` was built from.
///
/// This is the block-aligned form of the two-pointer scan in the
/// recommender's `accumulate_neighbor`: the caller owns the per-slot
/// arithmetic, so the floating-point operation sequence — and thus
/// bit-identity with the scalar merge — is entirely in the caller's hands.
pub fn for_each_common_slot(row: &BlockedRow, set: &BlockedSet, mut f: impl FnMut(usize, f64)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < row.ids.len() && j < set.ids.len() {
        match row.ids[i].cmp(&set.ids[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let smask = set.masks[j];
                let base = set.base[j] as usize;
                let vals = &row.lanes[i];
                let mut m = row.masks[i] & smask;
                if m == 0xFF {
                    // Both blocks full: ranks are consecutive, trip count
                    // fixed — the loop unrolls and the gather vectorizes.
                    for (lane, &v) in vals.iter().enumerate() {
                        f(base + lane, v);
                    }
                } else {
                    while m != 0 {
                        let lane = m.trailing_zeros() as usize;
                        let below = smask & ((1u8 << lane) - 1);
                        f(base + below.count_ones() as usize, vals[lane]);
                        m &= m - 1;
                    }
                }
                i += 1;
                j += 1;
            }
        }
    }
}

/// Block-aligned [`crate::pearson_on_common`]: Pearson correlation over the
/// intersection of two blocked rows. Returns `(weight, common)`.
///
/// Bit-identical to the scalar streaming kernel (see the module docs): the
/// merge runs over block ids, matched lanes come from one mask AND, and the
/// shared [`WelfordPair`] folds them in the scalar kernel's exact order.
pub fn pearson_on_common_blocked(a: &BlockedRow, b: &BlockedRow) -> (f64, usize) {
    let mut w = WelfordPair::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.ids.len() && j < b.ids.len() {
        match a.ids[i].cmp(&b.ids[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let m = a.masks[i] & b.masks[j];
                let (xs, ys) = (&a.lanes[i], &b.lanes[j]);
                if m == 0xFF {
                    // Full block on both sides: fixed-trip unrolled fold.
                    for lane in 0..LANES {
                        w.push(xs[lane], ys[lane]);
                    }
                } else {
                    let mut m = m;
                    while m != 0 {
                        let lane = m.trailing_zeros() as usize;
                        w.push(xs[lane], ys[lane]);
                        m &= m - 1;
                    }
                }
                i += 1;
                j += 1;
            }
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pearson::{pearson_on_common, pearson_on_common_alloc};

    fn row(pairs: &[(u32, f64)]) -> (Vec<u32>, Vec<f64>) {
        (
            pairs.iter().map(|&(c, _)| c).collect(),
            pairs.iter().map(|&(_, v)| v).collect(),
        )
    }

    #[test]
    fn from_sorted_roundtrips() {
        let (cols, vals) = row(&[(0, 1.0), (3, 2.0), (7, 3.0), (8, 4.0), (31, 5.0)]);
        let b = BlockedRow::from_sorted(&cols, &vals);
        assert_eq!(b.nnz(), 5);
        assert_eq!(b.num_blocks(), 3); // blocks 0, 1, 3
        assert_eq!(b.to_sorted(), (cols, vals));
    }

    #[test]
    fn from_sorted_sizes_exactly() {
        // 48 occupied blocks: doubling growth would leave capacity 64.
        let cols: Vec<u32> = (0..48).map(|b| b * LANES as u32 + b % 3).collect();
        let b = BlockedRow::from_sorted(&cols, &vec![1.0; 48]);
        assert_eq!(b.num_blocks(), 48);
        assert_eq!(b.ids.capacity(), 48);
        assert_eq!(b.masks.capacity(), 48);
        assert_eq!(b.lanes.capacity(), 48);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_rejects_descending_cols() {
        BlockedRow::from_sorted(&[9, 1], &[1.0, 2.0]);
    }

    #[test]
    fn empty_row_is_empty() {
        let b = BlockedRow::from_sorted(&[], &[]);
        assert!(b.is_empty());
        assert_eq!(b.nnz(), 0);
        assert_eq!(b.to_sorted(), (vec![], vec![]));
    }

    #[test]
    fn blocked_pearson_is_bit_identical_to_scalar() {
        let (ca, va) = row(&[(0, 1.0), (2, 4.5), (3, 2.0), (5, 5.0), (8, 3.0), (9, 0.5)]);
        let (cb, vb) = row(&[(1, 2.0), (2, 1.0), (3, 4.0), (4, 9.0), (5, 2.0), (9, 4.5)]);
        let a = BlockedRow::from_sorted(&ca, &va);
        let b = BlockedRow::from_sorted(&cb, &vb);
        let (ws, ns) = pearson_on_common(&ca, &va, &cb, &vb);
        let (wb, nb) = pearson_on_common_blocked(&a, &b);
        assert_eq!(ns, nb);
        assert_eq!(ws.to_bits(), wb.to_bits());
    }

    #[test]
    fn full_block_fast_path_is_bit_identical() {
        // Two rows dense over the same 16 columns: every block merge takes
        // the m == 0xFF unrolled path.
        let ca: Vec<u32> = (0..16).collect();
        let va: Vec<f64> = (0..16).map(|i| (i % 5) as f64 + 1.0).collect();
        let vb: Vec<f64> = (0..16).map(|i| 5.0 - (i % 4) as f64).collect();
        let a = BlockedRow::from_sorted(&ca, &va);
        let b = BlockedRow::from_sorted(&ca, &vb);
        let (ws, ns) = pearson_on_common(&ca, &va, &ca, &vb);
        let (wb, nb) = pearson_on_common_blocked(&a, &b);
        assert_eq!(ns, nb);
        assert_eq!(ws.to_bits(), wb.to_bits());
    }

    #[test]
    fn blocked_agrees_with_allocating_oracle() {
        let (ca, va) = row(&[(0, 1.0), (2, 4.5), (3, 2.0), (5, 5.0), (8, 3.0)]);
        let (cb, vb) = row(&[(2, 1.0), (3, 4.0), (5, 2.0), (8, 4.5), (12, 7.0)]);
        let a = BlockedRow::from_sorted(&ca, &va);
        let b = BlockedRow::from_sorted(&cb, &vb);
        let (wb, nb) = pearson_on_common_blocked(&a, &b);
        let (wo, no) = pearson_on_common_alloc(&ca, &va, &cb, &vb);
        assert_eq!(nb, no);
        assert_eq!(wb.to_bits(), wo.to_bits());
    }

    #[test]
    fn empty_intersection_gives_zero() {
        let a = BlockedRow::from_sorted(&[0, 1], &[1.0, 2.0]);
        let b = BlockedRow::from_sorted(&[64, 65], &[1.0, 2.0]);
        assert_eq!(pearson_on_common_blocked(&a, &b), (0.0, 0));
    }

    #[test]
    fn blocked_set_ranks_match_positions() {
        let cols = [2u32, 5, 7, 8, 16, 17, 30];
        let set = BlockedSet::from_sorted(&cols);
        assert_eq!(set.len(), 7);
        let vals: Vec<f64> = cols.iter().map(|&c| c as f64).collect();
        let rowb = BlockedRow::from_sorted(&cols, &vals);
        let mut seen = Vec::new();
        for_each_common_slot(&rowb, &set, |slot, v| seen.push((slot, v)));
        let expect: Vec<(usize, f64)> = vals.iter().enumerate().map(|(i, &v)| (i, v)).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn common_slot_merge_matches_two_pointer_scan() {
        let targets = [1u32, 3, 6, 9, 14, 22];
        let (rc, rv) = row(&[(0, 0.5), (3, 1.5), (6, 2.5), (10, 3.5), (22, 4.5)]);
        let set = BlockedSet::from_sorted(&targets);
        let rowb = BlockedRow::from_sorted(&rc, &rv);
        let mut got = Vec::new();
        for_each_common_slot(&rowb, &set, |slot, v| got.push((slot, v)));
        // Reference: plain two-pointer merge over the sorted lists.
        let mut expect = Vec::new();
        let (mut i, mut t) = (0usize, 0usize);
        while i < rc.len() && t < targets.len() {
            match rc[i].cmp(&targets[t]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => t += 1,
                std::cmp::Ordering::Equal => {
                    expect.push((t, rv[i]));
                    i += 1;
                    t += 1;
                }
            }
        }
        assert_eq!(got, expect);
    }
}
