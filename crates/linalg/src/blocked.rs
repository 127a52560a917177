//! Blocked sparse row layouts and block-aligned correlation kernels.
//!
//! The streaming kernels in [`crate::pearson`](mod@crate::pearson) walk two sorted column lists
//! element-at-a-time: every merge step is a data-dependent three-way branch,
//! so the CPU mispredicts its way through the intersection. This module
//! re-buckets a sparse row into fixed-width **column blocks** of
//! [`LANES`] = 8 columns: per block a `u8` occupancy mask plus a dense
//! `[f64; 8]` value lane array (absent lanes hold `0.0`). Within a matching
//! block a single `mask_a & mask_b` AND replaces up to eight
//! compare-branches; matched lanes are walked in ascending bit order, or via
//! a fixed-trip unrolled loop when both blocks are full.
//!
//! Two forms, one per side of a CF kernel:
//!
//! * [`BlockedRow`] — the **stored** form: occupied blocks only, each with
//!   its block id. Every neighbour row in a store or synopsis is one.
//! * [`IndexedRow`] / [`IndexedSet`] — the **active** form: one entry per
//!   block id from 0 to the last occupied block, so a block is found by id.
//!   An active user's profile and target set are built once per request.
//!
//! A kernel walks the neighbour's occupied blocks only and looks each one up
//! on the active side by id ([`pearson_on_common_indexed`],
//! [`for_each_target_slot`]). There is no two-list merge: a neighbour
//! block costs one bounds-checked load, and the walk stops at the first
//! block past the active side's last.
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
    /// descending block ids would make the kernels' early stop skip
    /// intersections silently, and this may be the only stored copy of the
    /// row.
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

/// A sparse row indexed by block id — the active side of every CF kernel.
///
/// Where [`BlockedRow`] stores only its occupied blocks, this form stores
/// **every** block id from 0 to the row's last occupied block: `masks[id]`
/// is the occupancy bitmap of block `id` (0 for an empty block) and
/// `lanes[id]` its dense value lanes (absent lanes `0.0`). A kernel that
/// walks a neighbour's [`BlockedRow`] then finds the matching active block
/// by one bounds-checked lookup, `masks.get(id)`, instead of merging two
/// block-id lists. The size follows the last column, not the entry count,
/// so the form suits one short-lived row over a compact column range (a
/// request's rating profile), not a store of long sparse rows.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IndexedRow {
    masks: Vec<u8>,
    lanes: Vec<[f64; LANES]>,
}

impl IndexedRow {
    /// Build from parallel `(cols, vals)` with `cols` strictly ascending.
    /// Both vectors are sized exactly (one entry per block id up to the
    /// last occupied block), with no growth slack.
    ///
    /// # Panics
    /// Panics if the lengths differ or `cols` is not strictly ascending.
    pub fn from_sorted(cols: &[u32], vals: &[f64]) -> Self {
        assert_eq!(cols.len(), vals.len(), "cols/vals length mismatch");
        assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "cols not strictly ascending"
        );
        let blocks = cols.last().map_or(0, |&c| c as usize / LANES + 1);
        let mut row = IndexedRow {
            masks: vec![0; blocks],
            lanes: vec![[0.0; LANES]; blocks],
        };
        for (&c, &v) in cols.iter().zip(vals) {
            let (id, lane) = (c as usize / LANES, c as usize % LANES);
            row.masks[id] |= 1 << lane;
            row.lanes[id][lane] = v;
        }
        row
    }

    /// Number of stored entries (total set mask bits).
    pub fn nnz(&self) -> usize {
        self.masks.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Number of indexed blocks: the last occupied block id + 1, or 0.
    pub fn num_blocks(&self) -> usize {
        self.masks.len()
    }

    /// Decode back to sorted `(cols, vals)` (allocates; offline use only).
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
        for (id, (&mask, lanes)) in self.masks.iter().zip(&self.lanes).enumerate() {
            let mut m = mask;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                f((id * LANES + lane) as u32, lanes[lane]);
                m &= m - 1;
            }
        }
    }
}

/// A sorted column set indexed by block id, with ranks — the target side of
/// the weighted fold ([`for_each_target_slot`]).
///
/// One `u32` per block id from 0 to the last member's block:
/// `slots[id] = base << 8 | mask`, where `mask` is the block's membership
/// bitmap and `base` counts the members in all earlier blocks. A member
/// column's position in the sorted list is then recovered branch-free as
/// `base + popcount(mask & (bit - 1))`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IndexedSet {
    slots: Vec<u32>,
}

impl IndexedSet {
    /// Build from a strictly ascending column list; `slots` is sized
    /// exactly, with no growth slack.
    ///
    /// # Panics
    /// Panics if `cols` is not strictly ascending or holds `2^24` or more
    /// members (the base rank must fit above the 8-bit mask).
    pub fn from_sorted(cols: &[u32]) -> Self {
        assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "cols not strictly ascending"
        );
        assert!(cols.len() < 1 << 24, "too many members for a 24-bit rank");
        let blocks = cols.last().map_or(0, |&c| c as usize / LANES + 1);
        let mut slots = vec![0u32; blocks];
        for (rank, &c) in cols.iter().enumerate() {
            let (id, lane) = (c as usize / LANES, c as usize % LANES);
            if slots[id] == 0 {
                slots[id] = (rank as u32) << 8;
            }
            slots[id] |= 1 << lane;
        }
        IndexedSet { slots }
    }

    /// Number of member columns: the last block's base rank plus its
    /// members.
    pub fn len(&self) -> usize {
        self.slots
            .last()
            .map_or(0, |&s| (s >> 8) as usize + (s as u8).count_ones() as usize)
    }

    /// True when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of indexed blocks: the last member's block id + 1, or 0.
    pub fn num_blocks(&self) -> usize {
        self.slots.len()
    }
}

/// Visit every `(slot, value)` where a column of `row` is a member of
/// `set`, in ascending column order; `slot` is the column's rank (position)
/// in the sorted list `set` was built from.
///
/// Only `row`'s occupied blocks are walked; each looks its block up in
/// `set` by id, and the walk stops at the first block past `set`'s last.
/// The caller owns the per-slot arithmetic, so the floating-point operation
/// sequence — and thus bit-identity with the scalar two-pointer merge — is
/// entirely in the caller's hands.
pub fn for_each_target_slot(row: &BlockedRow, set: &IndexedSet, mut f: impl FnMut(usize, f64)) {
    for ((&id, &rmask), vals) in row.ids.iter().zip(&row.masks).zip(&row.lanes) {
        let Some(&slot) = set.slots.get(id as usize) else {
            break;
        };
        let smask = slot as u8;
        let mut m = rmask & smask;
        if m == 0 {
            continue;
        }
        let base = (slot >> 8) as usize;
        if m == 0xFF {
            // Both blocks full: ranks are consecutive, trip count fixed —
            // the loop unrolls and the gather vectorizes.
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
    }
}

/// Pearson correlation over the co-rated columns of an indexed active row
/// `a` and a stored row `b`: the block-id-indexed form of
/// [`crate::pearson_on_common`]. Returns `(weight, common)`.
///
/// Only `b`'s occupied blocks are walked; each finds `a`'s block by id, and
/// the walk stops at the first block past `a`'s last. Matched lanes come
/// from one mask AND and fold through the shared [`WelfordPair`] as
/// `(a, b)` pairs in ascending column order, so the result is bit-identical
/// to the scalar kernel (see the module docs).
pub fn pearson_on_common_indexed(a: &IndexedRow, b: &BlockedRow) -> (f64, usize) {
    let mut w = WelfordPair::new();
    for ((&id, &bmask), ys) in b.ids.iter().zip(&b.masks).zip(&b.lanes) {
        let id = id as usize;
        let (Some(&amask), Some(xs)) = (a.masks.get(id), a.lanes.get(id)) else {
            break;
        };
        let m = amask & bmask;
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
    fn indexed_row_roundtrips() {
        let (cols, vals) = row(&[(0, 1.0), (3, 2.0), (7, 3.0), (8, 4.0), (31, 5.0)]);
        let a = IndexedRow::from_sorted(&cols, &vals);
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.num_blocks(), 4); // block ids 0..=3, block 2 empty
        assert_eq!(a.to_sorted(), (cols, vals));
        let empty = IndexedRow::from_sorted(&[], &[]);
        assert_eq!(empty.num_blocks(), 0);
        assert_eq!(empty.to_sorted(), (vec![], vec![]));
    }

    #[test]
    fn indexed_forms_size_exactly() {
        // 48 block ids: doubling growth would leave capacity 64.
        let cols: Vec<u32> = (0..48).map(|b| b * LANES as u32 + b % 3).collect();
        let a = IndexedRow::from_sorted(&cols, &vec![1.0; 48]);
        assert_eq!(a.num_blocks(), 48);
        assert_eq!(a.masks.capacity(), 48);
        assert_eq!(a.lanes.capacity(), 48);
        let set = IndexedSet::from_sorted(&cols);
        assert_eq!(set.num_blocks(), 48);
        assert_eq!(set.slots.capacity(), 48);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn indexed_row_rejects_descending_cols() {
        IndexedRow::from_sorted(&[9, 1], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn indexed_set_rejects_descending_cols() {
        IndexedSet::from_sorted(&[9, 1]);
    }

    #[test]
    fn indexed_pearson_is_bit_identical_to_scalar() {
        let (ca, va) = row(&[(0, 1.0), (2, 4.5), (3, 2.0), (5, 5.0), (8, 3.0), (9, 0.5)]);
        let (cb, vb) = row(&[(1, 2.0), (2, 1.0), (3, 4.0), (4, 9.0), (5, 2.0), (9, 4.5)]);
        let a = IndexedRow::from_sorted(&ca, &va);
        let b = BlockedRow::from_sorted(&cb, &vb);
        let (ws, ns) = pearson_on_common(&ca, &va, &cb, &vb);
        let (wi, ni) = pearson_on_common_indexed(&a, &b);
        assert_eq!(ns, ni);
        assert_eq!(ws.to_bits(), wi.to_bits());
    }

    #[test]
    fn full_block_fast_path_is_bit_identical() {
        // Two rows dense over the same 16 columns: every block takes the
        // m == 0xFF unrolled path.
        let ca: Vec<u32> = (0..16).collect();
        let va: Vec<f64> = (0..16).map(|i| (i % 5) as f64 + 1.0).collect();
        let vb: Vec<f64> = (0..16).map(|i| 5.0 - (i % 4) as f64).collect();
        let a = IndexedRow::from_sorted(&ca, &va);
        let b = BlockedRow::from_sorted(&ca, &vb);
        let (ws, ns) = pearson_on_common(&ca, &va, &ca, &vb);
        let (wi, ni) = pearson_on_common_indexed(&a, &b);
        assert_eq!(ns, ni);
        assert_eq!(ws.to_bits(), wi.to_bits());
    }

    #[test]
    fn indexed_agrees_with_allocating_oracle() {
        // The neighbour runs two blocks past the active row's last one.
        let (ca, va) = row(&[(0, 1.0), (2, 4.5), (3, 2.0), (5, 5.0), (8, 3.0)]);
        let (cb, vb) = row(&[(2, 1.0), (3, 4.0), (5, 2.0), (8, 4.5), (12, 7.0), (30, 1.0)]);
        let a = IndexedRow::from_sorted(&ca, &va);
        let b = BlockedRow::from_sorted(&cb, &vb);
        let (wi, ni) = pearson_on_common_indexed(&a, &b);
        let (wo, no) = pearson_on_common_alloc(&ca, &va, &cb, &vb);
        assert_eq!(ni, no);
        assert_eq!(wi.to_bits(), wo.to_bits());
    }

    #[test]
    fn empty_intersection_gives_zero() {
        let a = IndexedRow::from_sorted(&[0, 1], &[1.0, 2.0]);
        let b = BlockedRow::from_sorted(&[64, 65], &[1.0, 2.0]);
        assert_eq!(pearson_on_common_indexed(&a, &b), (0.0, 0));
        let empty = IndexedRow::from_sorted(&[], &[]);
        assert_eq!(pearson_on_common_indexed(&empty, &b), (0.0, 0));
    }

    #[test]
    fn indexed_set_ranks_match_positions() {
        let cols = [2u32, 5, 7, 8, 16, 17, 30];
        let set = IndexedSet::from_sorted(&cols);
        assert_eq!(set.len(), 7);
        assert_eq!(IndexedSet::from_sorted(&[]).len(), 0);
        let vals: Vec<f64> = cols.iter().map(|&c| c as f64).collect();
        let rowb = BlockedRow::from_sorted(&cols, &vals);
        let mut seen = Vec::new();
        for_each_target_slot(&rowb, &set, |slot, v| seen.push((slot, v)));
        let expect: Vec<(usize, f64)> = vals.iter().enumerate().map(|(i, &v)| (i, v)).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn target_slots_match_two_pointer_scan() {
        // The row runs past the set's last block and skips its block 1.
        let targets = [1u32, 3, 6, 9, 14, 22];
        let (rc, rv) = row(&[(0, 0.5), (3, 1.5), (6, 2.5), (22, 4.5), (40, 5.0)]);
        let set = IndexedSet::from_sorted(&targets);
        let rowb = BlockedRow::from_sorted(&rc, &rv);
        let mut got = Vec::new();
        for_each_target_slot(&rowb, &set, |slot, v| got.push((slot, v)));
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
