//! Property-based tests: the R-tree's structural invariants must survive
//! arbitrary interleavings of inserts, removals, and re-positions, and its
//! per-depth grouping must partition the items.

use at_rtree::{RTree, RTreeConfig};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum Op {
    Insert(u64, [f64; 2]),
    Remove(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..60, prop::array::uniform2(-100.0f64..100.0)).prop_map(|(id, p)| Op::Insert(id, p)),
        1 => (0u64..60).prop_map(Op::Remove),
    ]
}

fn cfg_strategy() -> impl Strategy<Value = RTreeConfig> {
    (4usize..=12).prop_flat_map(|max| {
        (2usize..=(max / 2)).prop_map(move |min| RTreeConfig {
            max_entries: max,
            min_entries: min,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invariants_hold_under_random_ops(cfg in cfg_strategy(), ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut tree = RTree::new(2, cfg);
        let mut model: HashMap<u64, [f64; 2]> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(id, p) => {
                    tree.insert(id, &p);
                    model.insert(id, p);
                }
                Op::Remove(id) => {
                    let was = tree.remove(id);
                    prop_assert_eq!(was, model.remove(&id).is_some());
                }
            }
            tree.validate().map_err(TestCaseError::fail)?;
            prop_assert_eq!(tree.len(), model.len());
        }
        // Every modelled item is findable and still sits at its own point.
        for (&id, p) in &model {
            prop_assert!(tree.contains_item(id));
            let leaf = tree.leaf_of(id).expect("a live item has a leaf");
            let stored = tree
                .node(leaf)
                .entries()
                .iter()
                .find(|e| e.item == id)
                .map(|e| e.point.as_slice());
            prop_assert_eq!(stored, Some(&p[..]), "own point must be stored in its leaf");
        }
    }

    #[test]
    fn bulk_load_equals_incremental_contents(points in prop::collection::vec((0u64..500, prop::array::uniform3(-50.0f64..50.0)), 0..300)) {
        let cfg = RTreeConfig::default();
        let pts: Vec<(u64, Vec<f64>)> = points.iter().map(|(id, p)| (*id, p.to_vec())).collect();
        let bulk = RTree::bulk_load(3, cfg, pts.clone());
        bulk.validate().map_err(TestCaseError::fail)?;

        let mut inc = RTree::new(3, cfg);
        for (id, p) in &pts {
            inc.insert(*id, p);
        }
        inc.validate().map_err(TestCaseError::fail)?;

        prop_assert_eq!(bulk.len(), inc.len());
        let mut a: Vec<u64> = bulk.items().map(|(i, _)| i).collect();
        let mut b: Vec<u64> = inc.items().map(|(i, _)| i).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn levels_partition_items(points in prop::collection::vec((0u64..400, prop::array::uniform2(-10.0f64..10.0)), 30..200)) {
        let pts: Vec<(u64, Vec<f64>)> = points.iter().map(|(id, p)| (*id, p.to_vec())).collect();
        let tree = RTree::bulk_load(2, RTreeConfig::default(), pts);
        for depth in 0..tree.height() {
            let mut all: Vec<u64> = Vec::new();
            for node in tree.nodes_at_depth(depth) {
                all.extend(tree.items_under(node));
            }
            all.sort_unstable();
            let mut want: Vec<u64> = tree.items().map(|(i, _)| i).collect();
            want.sort_unstable();
            prop_assert_eq!(all, want, "depth {} does not partition", depth);
        }
    }
}
