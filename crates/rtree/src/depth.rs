//! Depth-level utilities — the bridge between the R-tree and synopses.
//!
//! Paper §2.2 step 2: the synopsis takes **all nodes at one depth** of the
//! tree as aggregated data points, choosing "a depth such that it contains a
//! sufficient number of R-tree nodes … much smaller (e.g. 100 times smaller)
//! than the number of data points in the subset". Because the tree is
//! depth-balanced, every node of one level approximates the data at the same
//! granularity.

use crate::node::{NodeId, NodeKind};
use crate::tree::RTree;

impl RTree {
    /// All node ids at `depth` (root = 0, leaves = `height() - 1`), in
    /// deterministic left-to-right order.
    ///
    /// Returns an empty vector when `depth >= height()`.
    pub fn nodes_at_depth(&self, depth: usize) -> Vec<NodeId> {
        if depth >= self.height() {
            return Vec::new();
        }
        let mut level = vec![self.root()];
        for _ in 0..depth {
            level = self.children_of(&level);
        }
        level
    }

    /// The next level down: every child of `level`'s nodes, in order.
    fn children_of(&self, level: &[NodeId]) -> Vec<NodeId> {
        let mut next = Vec::new();
        for &id in level {
            if let NodeKind::Internal(children) = &self.node(id).kind {
                next.extend(children.iter().copied());
            }
        }
        next
    }

    /// Pick the depth whose node count is (geometrically) closest to
    /// `target_aggregated` — the paper wants a level with "a sufficient
    /// number of R-tree nodes to enable the fine-grained differentiation"
    /// while staying "much smaller than the number of data points". Level
    /// widths jump by roughly the fanout between depths, so we minimize
    /// `|ln(count / target)|`; ties prefer the deeper (finer) level.
    pub fn select_depth(&self, target_aggregated: usize) -> usize {
        let target = target_aggregated.max(1) as f64;
        let mut best = 0usize;
        let mut best_dist = f64::INFINITY;
        let mut level = vec![self.root()];
        let mut depth = 0usize;
        while !level.is_empty() {
            let dist = (level.len() as f64 / target).ln().abs();
            if dist <= best_dist {
                best = depth;
                best_dist = dist;
            }
            level = self.children_of(&level);
            depth += 1;
        }
        best
    }

    /// All original item ids stored in leaves beneath `node`, in
    /// deterministic order.
    ///
    /// # Panics
    /// Panics on a dangling id.
    pub fn items_under(&self, node: NodeId) -> Vec<u64> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(id) = stack.pop() {
            match &self.node(id).kind {
                NodeKind::Leaf(entries) => out.extend(entries.iter().map(|e| e.item)),
                NodeKind::Internal(children) => {
                    // Push reversed for left-to-right emission order.
                    stack.extend(children.iter().rev().copied());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::tree::{RTree, RTreeConfig};

    fn tree(n: usize) -> RTree {
        let pts: Vec<(u64, Vec<f64>)> = (0..n)
            .map(|i| {
                let f = i as f64;
                (i as u64, vec![(f * 0.11).sin(), (f * 0.31).cos()])
            })
            .collect();
        RTree::bulk_load(
            2,
            RTreeConfig {
                max_entries: 8,
                min_entries: 3,
            },
            pts,
        )
    }

    /// Node counts per depth, root first.
    fn level_sizes(t: &RTree) -> Vec<usize> {
        (0..t.height()).map(|d| t.nodes_at_depth(d).len()).collect()
    }

    #[test]
    fn levels_widen_from_one_root() {
        let t = tree(300);
        let sizes = level_sizes(&t);
        assert_eq!(sizes[0], 1, "exactly one root");
        for w in sizes.windows(2) {
            assert!(w[1] > w[0], "levels must widen: {sizes:?}");
        }
        assert!(t.nodes_at_depth(t.height()).is_empty());
    }

    #[test]
    fn items_under_root_is_everything() {
        let t = tree(120);
        let mut all = t.items_under(t.root());
        all.sort_unstable();
        assert_eq!(all, (0..120u64).collect::<Vec<_>>());
    }

    #[test]
    fn items_partition_across_a_level() {
        let t = tree(200);
        let depth = t.height() / 2;
        let mut all: Vec<u64> = Vec::new();
        for id in t.nodes_at_depth(depth) {
            let items = t.items_under(id);
            assert!(!items.is_empty());
            all.extend(items);
        }
        all.sort_unstable();
        assert_eq!(
            all,
            (0..200u64).collect::<Vec<_>>(),
            "level must partition items"
        );
    }

    #[test]
    fn select_depth_is_geometrically_closest() {
        let t = tree(1000);
        let sizes = level_sizes(&t);
        for target in [1usize, 4, 20, 100, 100_000] {
            let d = t.select_depth(target);
            let dist = |count: usize| (count as f64 / target.max(1) as f64).ln().abs();
            let best = sizes.iter().map(|&c| dist(c)).fold(f64::INFINITY, f64::min);
            assert_eq!(
                dist(sizes[d]),
                best,
                "target {target}: {sizes:?} -> depth {d} not closest"
            );
        }
    }

    #[test]
    fn select_depth_prefers_finer_on_tie() {
        // A single-leaf tree: every target maps to depth 0.
        let t = tree(5);
        assert_eq!(t.select_depth(1), t.height() - 1.min(t.height()));
    }

    #[test]
    fn empty_tree_levels() {
        let t = RTree::new(2, RTreeConfig::default());
        assert_eq!(level_sizes(&t), vec![1]);
        assert_eq!(t.select_depth(100), 0);
        assert!(t.items_under(t.root()).is_empty());
    }
}
