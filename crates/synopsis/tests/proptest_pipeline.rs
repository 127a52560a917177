//! Property-based tests: the synopsis store's consistency invariants must
//! survive arbitrary sequences of additions and changes, and aggregation
//! must be exact at all times.

use at_linalg::svd::SvdConfig;
use at_linalg::BlockedRow;
use at_synopsis::{
    AggregationMode, DataUpdate, Row, RowStore, SparseRow, SynopsisConfig, SynopsisStore,
};
use proptest::prelude::*;

fn base_dataset(n: usize) -> RowStore {
    let mut s = RowStore::new(16);
    for r in 0..n as u32 {
        let base = if r % 2 == 0 { 1.0 } else { 4.0 };
        s.push_row(SparseRow::from_pairs(
            (0..16)
                .filter(|c| (r + c) % 5 != 0)
                .map(|c| (c, base + ((r + c) % 3) as f64 * 0.3))
                .collect(),
        ));
    }
    s
}

fn quick_config() -> SynopsisConfig {
    SynopsisConfig {
        svd: SvdConfig::default().with_epochs(8),
        size_ratio: 12,
        ..SynopsisConfig::default()
    }
}

/// A randomly generated update against a dataset of (at least) `n` rows.
#[derive(Clone, Debug)]
enum Op {
    Add(Vec<(u8, u8)>),
    Change(u16, Vec<(u8, u8)>),
}

fn row_strategy() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..16, 1u8..=5), 1..12)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        row_strategy().prop_map(Op::Add),
        (0u16..150, row_strategy()).prop_map(|(id, row)| Op::Change(id, row)),
    ]
}

/// A row down to the bit: `f64` equality would let `-0.0 == 0.0` through.
fn bits(row: &SparseRow) -> Vec<(u32, u64)> {
    row.iter().map(|(c, v)| (c, v.to_bits())).collect()
}

fn to_row(pairs: &[(u8, u8)]) -> SparseRow {
    SparseRow::from_pairs(pairs.iter().map(|&(c, v)| (c as u32, v as f64)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn store_stays_consistent_under_random_updates(ops in prop::collection::vec(op_strategy(), 1..25)) {
        let mut data = base_dataset(150);
        let (mut store, _) = SynopsisStore::build(&data, AggregationMode::Mean, quick_config());
        let updates: Vec<DataUpdate> = ops
            .iter()
            .map(|op| match op {
                Op::Add(pairs) => DataUpdate::Add(to_row(pairs)),
                Op::Change(id, pairs) => DataUpdate::Change {
                    id: *id as u64 % 150,
                    row: to_row(pairs),
                },
            })
            .collect();
        store.apply_updates(&mut data, updates);
        store.validate().map_err(TestCaseError::fail)?;

        // Membership partitions the updated id space exactly.
        let mut all: Vec<u64> = store
            .index()
            .iter()
            .flat_map(|(_, m)| m.iter().copied())
            .collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..data.len() as u64).collect::<Vec<_>>());

        // Aggregated info is exact for every group.
        for p in store.synopsis().iter() {
            let members = store.index().members(p.node).expect("indexed");
            prop_assert_eq!(&p.info, &data.aggregate(members, AggregationMode::Mean));
        }
    }

    #[test]
    fn batched_and_oneshot_updates_agree_on_membership(ops in prop::collection::vec(op_strategy(), 2..16)) {
        // Applying updates in one batch or one at a time must end in the
        // same store down to the bit: dataset, tree leaves, index members
        // and synopsis rows. A `Change` may name a row the batch added.
        let mut rows = 100;
        let updates: Vec<DataUpdate> = ops
            .iter()
            .map(|op| match op {
                Op::Add(pairs) => {
                    rows += 1;
                    DataUpdate::Add(to_row(pairs))
                }
                Op::Change(id, pairs) => DataUpdate::Change {
                    id: *id as u64 % rows,
                    row: to_row(pairs),
                },
            })
            .collect();

        let mut data_a = base_dataset(100);
        let (mut store_a, _) = SynopsisStore::build(&data_a, AggregationMode::Mean, quick_config());
        store_a.apply_updates(&mut data_a, updates.clone());
        store_a.validate().map_err(TestCaseError::fail)?;

        let mut data_b = base_dataset(100);
        let (mut store_b, _) = SynopsisStore::build(&data_b, AggregationMode::Mean, quick_config());
        for u in updates {
            store_b.apply_updates(&mut data_b, vec![u]);
        }
        store_b.validate().map_err(TestCaseError::fail)?;

        prop_assert_eq!(data_a.len(), data_b.len());
        for id in data_a.ids() {
            prop_assert_eq!(bits(data_a.row(id)), bits(data_b.row(id)), "row {} diverged", id);
        }
        let leaves = |store: &SynopsisStore| {
            let mut leaves: Vec<(u64, at_rtree::NodeId, Vec<u64>)> = Vec::new();
            for (item, leaf) in store.tree().items() {
                let at_rtree::NodeKind::Leaf(entries) = &store.tree().node(leaf).kind else {
                    unreachable!("items() names leaves");
                };
                let entry = entries.iter().find(|e| e.item == item).expect("item in its leaf");
                leaves.push((item, leaf, entry.point.iter().map(|x| x.to_bits()).collect()));
            }
            leaves.sort();
            leaves
        };
        prop_assert_eq!(leaves(&store_a), leaves(&store_b));
        let points_a = store_a.synopsis().points_with_stats();
        let points_b = store_b.synopsis().points_with_stats();
        prop_assert_eq!(points_a.len(), points_b.len());
        for ((p, stats), (q, stats_q)) in points_a.iter().zip(points_b) {
            prop_assert_eq!((p.node, p.member_count), (q.node, q.member_count));
            prop_assert_eq!(store_a.index().members(p.node), store_b.index().members(q.node));
            prop_assert_eq!(bits(&p.info), bits(&q.info), "point {:?}", p.node);
            prop_assert_eq!(stats, stats_q);
        }
    }

    #[test]
    fn stored_layouts_round_trip(
        ops in prop::collection::vec(op_strategy(), 1..25),
        direct in 0usize..25,
    ) {
        // The layout law: a store is a function of the interchange rows
        // put into it, whatever layout it keeps them in. The first
        // `direct` ops go through push/replace, the rest through
        // `apply_updates`, on a CSR and a blocked store side by side.
        let mut csr = base_dataset(40);
        let mut blocked = base_dataset(40).into_layout::<BlockedRow>();
        let direct = direct.min(ops.len());
        for op in &ops[..direct] {
            match op {
                Op::Add(pairs) => {
                    prop_assert_eq!(csr.push_row(to_row(pairs)), blocked.push_row(to_row(pairs)));
                }
                Op::Change(id, pairs) => {
                    csr.replace_row(*id as u64 % 40, to_row(pairs));
                    blocked.replace_row(*id as u64 % 40, to_row(pairs));
                }
            }
        }
        let (mut store_csr, _) = SynopsisStore::build(&csr, AggregationMode::Mean, quick_config());
        let (mut store_blocked, _) =
            SynopsisStore::build(&blocked, AggregationMode::Mean, quick_config());
        let updates: Vec<DataUpdate> = ops[direct..]
            .iter()
            .map(|op| match op {
                Op::Add(pairs) => DataUpdate::Add(to_row(pairs)),
                Op::Change(id, pairs) => DataUpdate::Change {
                    id: *id as u64 % 40,
                    row: to_row(pairs),
                },
            })
            .collect();
        store_csr.apply_updates(&mut csr, updates.clone());
        store_blocked.apply_updates(&mut blocked, updates);
        store_blocked.validate().map_err(TestCaseError::fail)?;

        prop_assert_eq!(csr.len(), blocked.len());
        for id in csr.ids() {
            prop_assert_eq!(bits(csr.row(id)), bits(&blocked.row(id).decode()), "row {}", id);
            prop_assert_eq!(csr.row_stats(id), blocked.row_stats(id));
        }
        let everyone: Vec<u64> = csr.ids().collect();
        for mode in [AggregationMode::Mean, AggregationMode::Merge] {
            prop_assert_eq!(
                bits(&csr.aggregate(&everyone, mode)),
                bits(&blocked.aggregate(&everyone, mode))
            );
        }

        prop_assert_eq!(store_csr.index().len(), store_blocked.index().len());
        let csr_points = store_csr.synopsis().points_with_stats();
        let blocked_points = store_blocked.synopsis().points_with_stats();
        prop_assert_eq!(csr_points.len(), blocked_points.len());
        for ((p, stats), (q, stats_q)) in csr_points.iter().zip(blocked_points) {
            prop_assert_eq!((p.node, p.member_count), (q.node, q.member_count));
            prop_assert_eq!(store_csr.index().members(p.node), store_blocked.index().members(q.node));
            prop_assert_eq!(bits(&p.info), bits(&q.info.decode()), "point {:?}", p.node);
            prop_assert_eq!(stats, stats_q);
        }
        // Re-encoding the finished CSR store lands on the same blocked rows.
        let converted = store_csr.into_layout::<BlockedRow>();
        for ((p, stats), (q, stats_q)) in
            converted.synopsis().points_with_stats().iter().zip(blocked_points)
        {
            prop_assert_eq!((&p.info, stats), (&q.info, stats_q));
        }
    }
}
