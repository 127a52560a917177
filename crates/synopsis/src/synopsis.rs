//! The synopsis itself: the set of aggregated data points.

use crate::dataset::{AggregationMode, Row, SparseRow};
use at_linalg::RowStats;
use at_rtree::NodeId;

/// One aggregated data point: the folded information of a group of similar
/// original data points (one R-tree node at the synopsis depth).
#[derive(Clone, Debug)]
pub struct AggregatedPoint<R = SparseRow> {
    /// The R-tree node this point was cut from (the index-file key).
    pub node: NodeId,
    /// Aggregated information (mean or merged sparse row), in layout `R`.
    pub info: R,
    /// How many original points it aggregates.
    pub member_count: usize,
}

/// A component's synopsis: aggregated data points keyed by R-tree node.
///
/// Paper §2.1: "The synopsis consists of multiple aggregated data points,
/// each aggregates the information of multiple similar data points in the
/// subset." It is deliberately small (≈100× smaller than the subset) so a
/// component can always process it quickly.
///
/// Each point's [`RowStats`] (sum/mean/nnz of its aggregated row) is cached
/// at [`upsert`](Synopsis::upsert) time — the per-request path reads the
/// aggregated neighbour's mean in `O(1)` instead of rescanning its values,
/// and incremental synopsis updates refresh the cache automatically because
/// they go through `upsert`/`remove`. Like a [`RowStore`](crate::RowStore),
/// a synopsis stores each aggregated row once, in the layout `R` of the
/// adapter that reads it.
///
/// Storage is a `Vec` kept sorted by node id: the per-request path iterates
/// every point once per component, so [`iter`](Synopsis::iter) /
/// [`iter_with_stats`](Synopsis::iter_with_stats) must be allocation- and
/// sort-free. Mutation (binary search + shift on upsert/remove) pays the
/// `O(m)` cost instead, on the offline/update path where it belongs.
#[derive(Clone, Debug)]
pub struct Synopsis<R = SparseRow> {
    mode: AggregationMode,
    /// `(point, stats)` entries sorted ascending by `point.node`.
    points: Vec<(AggregatedPoint<R>, RowStats)>,
}

/// Encode an interchange-form point into layout `R`.
fn encode_point<R: Row>(point: AggregatedPoint) -> AggregatedPoint<R> {
    AggregatedPoint {
        node: point.node,
        info: R::encode(point.info),
        member_count: point.member_count,
    }
}

impl Synopsis {
    /// Re-encode every aggregated row into layout `R`, consuming the
    /// synopsis (a move when `R` is [`SparseRow`]); the cached stats
    /// carry over unchanged.
    pub fn into_layout<R: Row>(self) -> Synopsis<R> {
        let points = self.points.into_iter();
        Synopsis {
            mode: self.mode,
            points: points.map(|(p, s)| (encode_point(p), s)).collect(),
        }
    }
}

impl<R: Row> Synopsis<R> {
    /// Empty synopsis with the given aggregation mode.
    pub fn new(mode: AggregationMode) -> Self {
        Synopsis {
            mode,
            points: Vec::new(),
        }
    }

    fn position(&self, node: NodeId) -> Result<usize, usize> {
        self.points.binary_search_by_key(&node, |(p, _)| p.node)
    }

    /// Aggregation mode (mean for numeric data, merge for text).
    pub fn mode(&self) -> AggregationMode {
        self.mode
    }

    /// Number of aggregated data points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the synopsis holds no aggregated points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The aggregated point cut from `node`, if present.
    pub fn point(&self, node: NodeId) -> Option<&AggregatedPoint<R>> {
        self.position(node).ok().map(|i| &self.points[i].0)
    }

    /// The aggregated point of `node` together with its cached row stats.
    pub fn point_with_stats(&self, node: NodeId) -> Option<(&AggregatedPoint<R>, RowStats)> {
        self.position(node).ok().map(|i| {
            let (p, s) = &self.points[i];
            (p, *s)
        })
    }

    /// Insert or replace the aggregated point for `node` (given in the
    /// interchange form), encoding its row and refreshing its cached stats.
    pub fn upsert(&mut self, point: AggregatedPoint) {
        let stats = RowStats::of(&point.info.vals);
        let entry = (encode_point(point), stats);
        match self.position(entry.0.node) {
            Ok(i) => self.points[i] = entry,
            Err(i) => self.points.insert(i, entry),
        }
    }

    /// Remove the point of a node that no longer exists at the synopsis
    /// depth; returns whether it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        match self.position(node) {
            Ok(i) => {
                self.points.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterate aggregated points in deterministic (node-id) order.
    /// Allocation-free: this runs once per request per component.
    pub fn iter(&self) -> impl Iterator<Item = &AggregatedPoint<R>> {
        self.points.iter().map(|(p, _)| p)
    }

    /// Iterate aggregated points with their cached row stats, in
    /// deterministic (node-id) order. Allocation-free, like [`iter`](Self::iter).
    pub fn iter_with_stats(&self) -> impl Iterator<Item = (&AggregatedPoint<R>, RowStats)> {
        self.points.iter().map(|(p, s)| (p, *s))
    }

    /// The batch-iteration hook: every aggregated point with its cached
    /// stats as one contiguous slice (node-id order).
    ///
    /// Batched serving makes **one** pass over this slice per component
    /// per batch, sharing each point (and its hot cache lines) across all
    /// requests of the batch; contiguous indexed access also lets callers
    /// chunk the pass (e.g. blocking points × requests) where the
    /// streaming iterators above can only run front to back once.
    pub fn points_with_stats(&self) -> &[(AggregatedPoint<R>, RowStats)] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(i: u32, count: usize) -> AggregatedPoint {
        AggregatedPoint {
            node: NodeId::from_index(i),
            info: SparseRow::from_pairs(vec![(0, i as f64)]),
            member_count: count,
        }
    }

    #[test]
    fn upsert_and_lookup() {
        let mut s = Synopsis::<SparseRow>::new(AggregationMode::Mean);
        s.upsert(pt(3, 10));
        assert_eq!(s.len(), 1);
        assert_eq!(s.point(NodeId::from_index(3)).unwrap().member_count, 10);
        s.upsert(pt(3, 20));
        assert_eq!(s.len(), 1, "upsert replaces");
        assert_eq!(s.point(NodeId::from_index(3)).unwrap().member_count, 20);
    }

    #[test]
    fn remove_reports_presence() {
        let mut s = Synopsis::<SparseRow>::new(AggregationMode::Merge);
        s.upsert(pt(1, 1));
        assert!(s.remove(NodeId::from_index(1)));
        assert!(!s.remove(NodeId::from_index(1)));
        assert!(s.is_empty());
    }

    #[test]
    fn iter_is_sorted_by_node() {
        let mut s = Synopsis::<SparseRow>::new(AggregationMode::Mean);
        for i in [5u32, 1, 9, 3] {
            s.upsert(pt(i, 1));
        }
        let order: Vec<u32> = s.iter().map(|p| p.node.index()).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
    }

    #[test]
    fn upsert_refreshes_cached_stats() {
        let mut s = Synopsis::<SparseRow>::new(AggregationMode::Mean);
        s.upsert(AggregatedPoint {
            node: NodeId::from_index(7),
            info: SparseRow::from_pairs(vec![(0, 2.0), (1, 4.0)]),
            member_count: 3,
        });
        let (_, stats) = s.point_with_stats(NodeId::from_index(7)).unwrap();
        assert_eq!((stats.nnz, stats.sum), (2, 6.0));
        assert_eq!(stats.mean(), 3.0);
        // Replacing the point must replace the cached stats with it.
        s.upsert(AggregatedPoint {
            node: NodeId::from_index(7),
            info: SparseRow::from_pairs(vec![(2, 9.0)]),
            member_count: 1,
        });
        let (_, stats) = s.point_with_stats(NodeId::from_index(7)).unwrap();
        assert_eq!((stats.nnz, stats.sum), (1, 9.0));
        let with_stats: Vec<_> = s.iter_with_stats().collect();
        assert_eq!(with_stats.len(), 1);
        assert_eq!(with_stats[0].1.mean(), 9.0);
    }

    #[test]
    fn points_with_stats_matches_streaming_iteration() {
        let mut s = Synopsis::<SparseRow>::new(AggregationMode::Mean);
        for i in [8u32, 2, 5] {
            s.upsert(pt(i, i as usize));
        }
        let slice = s.points_with_stats();
        assert_eq!(slice.len(), s.len());
        for ((p_it, st_it), (p_sl, st_sl)) in s.iter_with_stats().zip(slice) {
            assert_eq!(p_it.node, p_sl.node);
            assert_eq!(st_it.sum, st_sl.sum);
            assert_eq!(st_it.nnz, st_sl.nnz);
        }
    }
}
