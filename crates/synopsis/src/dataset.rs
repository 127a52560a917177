//! Datasets as the synopsis pipeline sees them.
//!
//! Both of the paper's services reduce to the same shape: a component's
//! subset of input data is a collection of **sparse feature rows** —
//! a user's item→rating vector in the recommender, a web page's term→count
//! vector in the search engine (the paper's step 1 explicitly converts text
//! to such numeric vectors). [`RowStore`] stores those rows mutably so that
//! synopsis *updating* can add and change points in place.
//!
//! Each row is stored **once**, in the layout its adapter's kernels read
//! (the [`Row`] parameter: [`SparseRow`] for the search engine's term
//! merges, [`BlockedRow`] for the recommender's block-aligned Pearson
//! kernels). [`SparseRow`] is also the interchange form: rows enter a store
//! (construction, updates) and leave it ([`Row::decode`]) as `SparseRow`s
//! whatever the stored layout is.

use at_linalg::sparse::SparseMatrix;
use at_linalg::{BlockedRow, IndexedRow, RowStats};

/// How a group of original rows is folded into one aggregated data point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregationMode {
    /// Numeric datasets: per-column mean over the rows that have the column
    /// (paper: an aggregated user's rating on item *i* is the average rating
    /// of its members who rated *i*).
    Mean,
    /// Text datasets: merge — per-column sum (paper: an aggregated web page
    /// "contains all the contents" of its member pages).
    Merge,
}

/// A mutable collection of sparse feature rows, keyed by dense point ids
/// `0..len` (u64 for R-tree compatibility).
///
/// Rows are held in the layout `R` and nowhere else. Each row's
/// [`RowStats`] (sum/mean/nnz) is cached alongside it and kept current by
/// [`push_row`](RowStore::push_row) / [`replace_row`](RowStore::replace_row),
/// so the per-request serving path reads a neighbour's mean in `O(1)`
/// instead of rescanning its values.
#[derive(Clone, Debug)]
pub struct RowStore<R = SparseRow> {
    feature_dim: usize,
    rows: Vec<R>,
    stats: Vec<RowStats>,
}

/// The stored layout of a sparse row: how a [`RowStore`] or
/// [`Synopsis`](crate::Synopsis) keeps each row it owns. An adapter fixes
/// the layout at compile time (`ApproximateService::Row` in `at-core`);
/// everything else goes through the [`SparseRow`] interchange form.
pub trait Row: Clone + std::fmt::Debug + Send + Sync + 'static {
    /// Encode a row whose `cols` are strictly ascending and parallel to
    /// `vals` (what [`RowStore::push_row`] has checked).
    fn encode(row: SparseRow) -> Self;

    /// Decode back to the interchange form; `R::encode(r).decode() == r`.
    fn decode(&self) -> SparseRow;

    /// Visit the stored `(col, val)` pairs in ascending column order.
    fn for_each(&self, f: impl FnMut(u32, f64));
}

/// One sparse row: parallel `(cols, vals)` with `cols` sorted ascending.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseRow {
    pub cols: Vec<u32>,
    pub vals: Vec<f64>,
}

impl SparseRow {
    /// Build from unsorted pairs; sorts and keeps the last duplicate.
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_by_key(|&(c, _)| c);
        let mut cols = Vec::with_capacity(pairs.len());
        let mut vals = Vec::with_capacity(pairs.len());
        for (c, v) in pairs {
            if cols.last() == Some(&c) {
                *vals.last_mut().expect("parallel vecs") = v;
            } else {
                cols.push(c);
                vals.push(v);
            }
        }
        SparseRow { cols, vals }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Value at column `c`, if stored.
    pub fn get(&self, c: u32) -> Option<f64> {
        self.cols.binary_search(&c).ok().map(|i| self.vals[i])
    }

    /// Iterate `(col, val)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.cols.iter().copied().zip(self.vals.iter().copied())
    }
}

impl Row for SparseRow {
    fn encode(row: SparseRow) -> Self {
        row
    }

    fn decode(&self) -> SparseRow {
        self.clone()
    }

    fn for_each(&self, mut f: impl FnMut(u32, f64)) {
        for (c, v) in self.iter() {
            f(c, v);
        }
    }
}

impl Row for BlockedRow {
    fn encode(row: SparseRow) -> Self {
        BlockedRow::from_sorted(&row.cols, &row.vals)
    }

    fn decode(&self) -> SparseRow {
        let (cols, vals) = self.to_sorted();
        SparseRow { cols, vals }
    }

    fn for_each(&self, f: impl FnMut(u32, f64)) {
        BlockedRow::for_each(self, f);
    }
}

/// The recommender's active-user form. No store keeps rows in it (its
/// size follows the last column); it is a `Row` so a request's profile
/// decodes and visits like any stored row.
impl Row for IndexedRow {
    fn encode(row: SparseRow) -> Self {
        IndexedRow::from_sorted(&row.cols, &row.vals)
    }

    fn decode(&self) -> SparseRow {
        let (cols, vals) = self.to_sorted();
        SparseRow { cols, vals }
    }

    fn for_each(&self, f: impl FnMut(u32, f64)) {
        IndexedRow::for_each(self, f);
    }
}

impl RowStore {
    /// Empty store whose rows index columns `0..feature_dim`. Stores start
    /// out in the interchange layout; [`into_layout`](Self::into_layout)
    /// re-encodes one for an adapter.
    pub fn new(feature_dim: usize) -> Self {
        RowStore {
            feature_dim,
            rows: Vec::new(),
            stats: Vec::new(),
        }
    }

    /// Re-encode every row into layout `R`, consuming the store (each
    /// interchange row is freed as it is encoded; a move when `R` is
    /// [`SparseRow`]). The cached stats carry over unchanged.
    pub fn into_layout<R: Row>(self) -> RowStore<R> {
        RowStore {
            feature_dim: self.feature_dim,
            rows: self.rows.into_iter().map(R::encode).collect(),
            stats: self.stats,
        }
    }
}

impl<R: Row> RowStore<R> {
    /// Check a row entering the store: `cols` strictly ascending, in
    /// range, and parallel to `vals`. The kernels assume all three and
    /// `SparseRow`'s fields are public, so this is the boundary.
    pub(crate) fn check(&self, op: &str, row: &SparseRow) {
        assert_eq!(
            row.cols.len(),
            row.vals.len(),
            "{op}: cols and vals differ in length"
        );
        let mut prev = None;
        for &c in &row.cols {
            assert!(
                (c as usize) < self.feature_dim,
                "{op}: column {c} >= feature_dim {}",
                self.feature_dim
            );
            assert!(prev < Some(c), "{op}: cols not strictly ascending at {c}");
            prev = Some(c);
        }
    }

    /// Number of rows (data points).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Feature-space dimensionality (number of columns).
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Append a row, returning its id.
    ///
    /// # Panics
    /// Panics if a column is out of range, `cols` is not strictly
    /// ascending, or `cols` and `vals` differ in length.
    pub fn push_row(&mut self, row: SparseRow) -> u64 {
        self.check("push_row", &row);
        self.stats.push(RowStats::of(&row.vals));
        self.rows.push(R::encode(row));
        (self.rows.len() - 1) as u64
    }

    /// Replace row `id` in place (a data point whose "feature attributes or
    /// contents change", paper §2.2).
    ///
    /// # Panics
    /// Panics if `id` is out of range or the row is malformed (see
    /// [`push_row`](Self::push_row)).
    pub fn replace_row(&mut self, id: u64, row: SparseRow) {
        self.check("replace_row", &row);
        let slot = self
            .rows
            .get_mut(id as usize)
            .unwrap_or_else(|| panic!("replace_row: id {id} out of range"));
        self.stats[id as usize] = RowStats::of(&row.vals);
        *slot = R::encode(row);
    }

    /// Borrow row `id` in the stored layout — what the serving kernels
    /// read, with nothing rebuilt ([`Row::decode`] gives the interchange
    /// form).
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn row(&self, id: u64) -> &R {
        &self.rows[id as usize]
    }

    /// Cached stats (sum/mean/nnz) of row `id`, maintained by
    /// [`push_row`](Self::push_row) / [`replace_row`](Self::replace_row).
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn row_stats(&self, id: u64) -> RowStats {
        self.stats[id as usize]
    }

    /// All row ids (`0..len`).
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        0..self.rows.len() as u64
    }

    /// Convert to CSR for SVD training. Rows are visited in id order and
    /// each in ascending column order, so the arrays are filled in place,
    /// sized exactly from the cached entry counts.
    pub fn to_csr(&self) -> SparseMatrix {
        let nnz = self.stats.iter().map(|s| s.nnz).sum();
        let mut row_ptr = Vec::with_capacity(self.rows.len() + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for row in &self.rows {
            row.for_each(|c, v| {
                col_idx.push(c);
                values.push(v);
            });
            row_ptr.push(col_idx.len());
        }
        SparseMatrix::from_csr(self.rows.len(), self.feature_dim, row_ptr, col_idx, values)
    }

    /// Aggregate `members`' rows into one row under `mode`. Column order of
    /// the result is sorted ascending; empty member list gives an empty row.
    ///
    /// Sums go into a dense `(sum, count)` slot per column, members folded
    /// in the order given, so each column's value is the same sequence of
    /// additions whatever the stored layout; pass members sorted to match
    /// a fresh build over the same group.
    pub fn aggregate(&self, members: &[u64], mode: AggregationMode) -> SparseRow {
        let mut acc = vec![(0.0f64, 0u32); self.feature_dim];
        for &id in members {
            self.rows[id as usize].for_each(|c, v| {
                let e = &mut acc[c as usize];
                e.0 += v;
                e.1 += 1;
            });
        }
        // Sized exactly: a `SparseRow`-layout synopsis keeps this row as is.
        let nnz = acc.iter().filter(|e| e.1 > 0).count();
        let mut cols = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        for (c, &(sum, count)) in acc.iter().enumerate().filter(|(_, e)| e.1 > 0) {
            cols.push(c as u32);
            vals.push(match mode {
                AggregationMode::Mean => sum / count as f64,
                AggregationMode::Merge => sum,
            });
        }
        SparseRow { cols, vals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The `BTreeMap` merge `aggregate` replaced, kept as its oracle.
    fn aggregate_oracle<R: Row>(
        store: &RowStore<R>,
        members: &[u64],
        mode: AggregationMode,
    ) -> SparseRow {
        let mut acc: BTreeMap<u32, (f64, u32)> = BTreeMap::new();
        for &id in members {
            store.row(id).for_each(|c, v| {
                let e = acc.entry(c).or_insert((0.0, 0));
                e.0 += v;
                e.1 += 1;
            });
        }
        let mut row = SparseRow::default();
        for (c, (sum, count)) in acc {
            row.cols.push(c);
            row.vals.push(match mode {
                AggregationMode::Mean => sum / count as f64,
                AggregationMode::Merge => sum,
            });
        }
        row
    }

    /// A row down to the bit: `f64` equality would let `-0.0 == 0.0` through.
    fn bits(row: &SparseRow) -> Vec<(u32, u64)> {
        row.iter().map(|(c, v)| (c, v.to_bits())).collect()
    }

    fn store() -> RowStore {
        let mut s = RowStore::new(5);
        s.push_row(SparseRow::from_pairs(vec![(0, 4.0), (2, 2.0)]));
        s.push_row(SparseRow::from_pairs(vec![(0, 2.0), (1, 3.0)]));
        s.push_row(SparseRow::from_pairs(vec![(2, 4.0), (4, 1.0)]));
        s
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut s = RowStore::new(3);
        assert_eq!(s.push_row(SparseRow::default()), 0);
        assert_eq!(s.push_row(SparseRow::default()), 1);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn from_pairs_sorts_and_dedups() {
        let r = SparseRow::from_pairs(vec![(3, 1.0), (1, 2.0), (3, 9.0)]);
        assert_eq!(r.cols, vec![1, 3]);
        assert_eq!(r.vals, vec![2.0, 9.0]);
        assert_eq!(r.get(3), Some(9.0));
        assert_eq!(r.get(0), None);
    }

    #[test]
    fn row_stats_cache_tracks_mutations() {
        let mut s = store();
        let st = s.row_stats(0);
        assert_eq!(st.nnz, 2);
        assert_eq!(st.sum, 6.0);
        assert_eq!(st.mean(), 3.0);
        s.replace_row(0, SparseRow::from_pairs(vec![(1, 9.0)]));
        let st = s.row_stats(0);
        assert_eq!((st.nnz, st.sum), (1, 9.0));
        let id = s.push_row(SparseRow::from_pairs(vec![(0, 1.0), (3, 2.0), (4, 3.0)]));
        assert_eq!(s.row_stats(id).mean(), 2.0);
    }

    #[test]
    fn replace_row_updates_in_place() {
        let mut s = store();
        s.replace_row(1, SparseRow::from_pairs(vec![(4, 9.0)]));
        assert_eq!(s.row(1).get(4), Some(9.0));
        assert_eq!(s.row(1).nnz(), 1);
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn replace_missing_row_panics() {
        let mut s = store();
        s.replace_row(99, SparseRow::default());
    }

    #[test]
    #[should_panic(expected = "feature_dim")]
    fn push_out_of_range_column_panics() {
        let mut s = RowStore::new(2);
        s.push_row(SparseRow::from_pairs(vec![(5, 1.0)]));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn push_descending_cols_panics() {
        let mut s = RowStore::new(16).into_layout::<BlockedRow>();
        s.push_row(SparseRow {
            cols: vec![9, 1],
            vals: vec![1.0, 2.0],
        });
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn replace_with_ragged_row_panics() {
        let mut s = store();
        s.replace_row(
            0,
            SparseRow {
                cols: vec![1, 2],
                vals: vec![1.0],
            },
        );
    }

    #[test]
    fn aggregate_mean_averages_present_values() {
        let s = store();
        // col 0: rows 0 and 1 -> mean(4, 2) = 3; col 2: rows 0 and 2 -> 3.
        let agg = s.aggregate(&[0, 1, 2], AggregationMode::Mean);
        assert_eq!(agg.get(0), Some(3.0));
        assert_eq!(agg.get(1), Some(3.0)); // only row 1
        assert_eq!(agg.get(2), Some(3.0));
        assert_eq!(agg.get(4), Some(1.0));
    }

    #[test]
    fn aggregate_merge_sums() {
        let s = store();
        let agg = s.aggregate(&[0, 2], AggregationMode::Merge);
        assert_eq!(agg.get(2), Some(6.0));
        assert_eq!(agg.get(0), Some(4.0));
        assert_eq!(agg.get(4), Some(1.0));
    }

    #[test]
    fn aggregate_empty_members() {
        let s = store();
        let agg = s.aggregate(&[], AggregationMode::Mean);
        assert_eq!(agg.nnz(), 0);
    }

    #[test]
    fn to_csr_roundtrip() {
        let s = store();
        let m = s.to_csr();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 5);
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.get(0, 2), Some(2.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `to_csr` fills the CSR in place; it equals staging every entry
        /// through the sorting, deduplicating builder, in both layouts.
        #[test]
        fn to_csr_matches_the_staging_builder(
            rows in prop::collection::vec(
                prop::collection::vec((0u32..70, -5.0f64..5.0), 0..30),
                0..24,
            ),
        ) {
            let mut sparse = RowStore::new(70);
            for pairs in rows {
                sparse.push_row(SparseRow::from_pairs(pairs));
            }
            let mut b = at_linalg::SparseMatrixBuilder::new(sparse.len(), 70);
            for id in sparse.ids() {
                for (c, v) in sparse.row(id).iter() {
                    b.push(id as usize, c, v);
                }
            }
            let want = b.build();
            prop_assert_eq!(&sparse.to_csr(), &want);
            prop_assert_eq!(&sparse.into_layout::<BlockedRow>().to_csr(), &want);
        }

        #[test]
        fn aggregate_matches_btreemap_oracle_bit_for_bit(
            rows in prop::collection::vec(
                prop::collection::vec((0u32..70, -5.0f64..5.0), 0..30),
                1..24,
            ),
            picks in prop::collection::vec(0usize..64, 0..40),
        ) {
            let mut sparse = RowStore::new(70);
            for pairs in rows {
                sparse.push_row(SparseRow::from_pairs(pairs));
            }
            let blocked = sparse.clone().into_layout::<BlockedRow>();
            // In the order given, repeats allowed, as well as the edge
            // cases: nobody, one member, everyone.
            let n = sparse.len() as u64;
            let some: Vec<u64> = picks.iter().map(|&p| p as u64 % n).collect();
            let everyone: Vec<u64> = (0..n).collect();
            for members in [&[][..], &[n - 1][..], &everyone[..], &some[..]] {
                for mode in [AggregationMode::Mean, AggregationMode::Merge] {
                    let expect = bits(&aggregate_oracle(&sparse, members, mode));
                    prop_assert_eq!(bits(&sparse.aggregate(members, mode)), expect.clone());
                    prop_assert_eq!(bits(&blocked.aggregate(members, mode)), expect);
                }
            }
        }
    }
}
