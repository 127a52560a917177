//! # at-rtree
//!
//! Depth-balanced R-tree for the AccuracyTrader reproduction (Han et al.,
//! ICPP 2016). The paper chooses an R-tree as the synopsis backbone for
//! three properties (§2.2), all implemented here:
//!
//! 1. **Similarity grouping** — points close in feature space share nodes
//!    (Guttman insertion with quadratic split; STR bulk loading).
//! 2. **Depth balance** — all leaves sit at the same depth, so the nodes of
//!    any one level form aggregated data points of uniform granularity
//!    ([`RTree::nodes_at_depth`], [`RTree::select_depth`]).
//! 3. **Dynamic updates** — leaf insertion/deletion with condense-and-
//!    reinsert keeps the structure valid as input data changes, enabling
//!    incremental synopsis updating.
//!
//! ```
//! use at_rtree::{RTree, RTreeConfig};
//!
//! let points: Vec<(u64, Vec<f64>)> =
//!     (0..200).map(|i| (i, vec![(i % 20) as f64, (i / 20) as f64])).collect();
//! let tree = RTree::bulk_load(2, RTreeConfig::default(), points);
//!
//! // Pick the level whose nodes will become aggregated data points.
//! let depth = tree.select_depth(tree.len() / 10);
//! for node in tree.nodes_at_depth(depth) {
//!     let _original_items = tree.items_under(node);
//! }
//! assert!(tree.validate().is_ok());
//! ```

pub mod bulk;
pub mod depth;
pub mod node;
pub mod rect;
pub mod tree;
pub mod validate;

pub use node::{LeafEntry, Node, NodeId, NodeKind};
pub use rect::Rect;
pub use tree::{RTree, RTreeConfig};
