//! Incremental synopsis updating (paper §2.2, evaluated in Figure 3).
//!
//! Two situations of input-data change are supported:
//!
//! 1. **Additions** — new data points arrive: project them into the latent
//!    space (fold-in), insert new R-tree leaves.
//! 2. **Changes** — existing points' features change: delete their leaves,
//!    re-project, insert fresh leaves (which is why the paper finds change
//!    updates slower than pure additions — exactly reproducible here).
//!
//! A batch runs in three phases. It is checked whole first, so a bad
//! update panics before anything is touched. Then every row is projected,
//! the batch split across the rayon pool's threads: a projection reads
//! only the frozen latent space, so it needs nothing the batch mutates.
//! Last, the updates are applied in order. After the tree is updated, only
//! the aggregated points whose membership changed, or one of whose member
//! rows changed, are re-generated; the rest of the synopsis is kept
//! verbatim.

use std::time::{Duration, Instant};

use at_linalg::Matrix;
use rayon::prelude::*;

use crate::build::SynopsisStore;
use crate::dataset::{Row, RowStore, SparseRow};
use crate::synopsis::AggregatedPoint;

/// One input-data change.
#[derive(Clone, Debug)]
pub enum DataUpdate {
    /// A brand-new data point.
    Add(SparseRow),
    /// An existing point whose features/contents changed.
    Change {
        /// Id of the existing point.
        id: u64,
        /// Its new feature row.
        row: SparseRow,
    },
}

/// What one `apply_updates` batch did (Figure 3 reports its duration).
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdateReport {
    /// Points added.
    pub added: usize,
    /// Points changed.
    pub changed: usize,
    /// Aggregated points re-generated.
    pub regenerated: usize,
    /// Aggregated points dropped (their node vanished from the cut level).
    pub removed_groups: usize,
    /// Aggregated points in the synopsis after the batch.
    pub group_count: usize,
    /// Wall-clock duration of the whole batch.
    pub duration: Duration,
}

impl DataUpdate {
    /// The feature row this update brings in.
    fn row(&self) -> &SparseRow {
        match self {
            DataUpdate::Add(row) | DataUpdate::Change { row, .. } => row,
        }
    }
}

impl<R: Row> SynopsisStore<R> {
    /// Apply a batch of input-data changes, updating `dataset`, the R-tree,
    /// the index file, and (incrementally) the synopsis.
    ///
    /// Every row is projected before anything is mutated, the batch split
    /// across the pool's threads; the updates are then applied in order, so
    /// the result is the same as applying them one batch each (a `Change`
    /// may name a row an earlier `Add` of the same batch created).
    ///
    /// # Panics
    /// Panics, before `dataset` or the store is touched, if a `Change`
    /// references an id not present in `dataset` (counting the batch's
    /// earlier `Add`s) or a row is malformed (see [`RowStore::push_row`]).
    pub fn apply_updates(
        &mut self,
        dataset: &mut RowStore<R>,
        updates: Vec<DataUpdate>,
    ) -> UpdateReport {
        let start = Instant::now();
        let mut report = UpdateReport::default();

        let mut len = dataset.len();
        for update in &updates {
            match update {
                DataUpdate::Add(row) => {
                    dataset.check("apply_updates", row);
                    len += 1;
                }
                DataUpdate::Change { id, row } => {
                    assert!((*id as usize) < len, "Change references unknown id {id}");
                    dataset.check("apply_updates", row);
                }
            }
        }

        let rows: Vec<&SparseRow> = updates.iter().map(DataUpdate::row).collect();
        let per_thread = rows.len().div_ceil(rayon::current_num_threads()).max(1);
        let chunks: Vec<&[&SparseRow]> = rows.chunks(per_thread).collect();
        let reducer = &self.reducer;
        let projected: Vec<Matrix> = chunks
            .par_iter()
            .map(|chunk| reducer.project(chunk))
            .collect();

        let mut changed = Vec::new();
        let reduced = projected.iter().flat_map(Matrix::iter_rows);
        for (update, reduced) in updates.into_iter().zip(reduced) {
            match update {
                DataUpdate::Add(row) => {
                    let id = dataset.push_row(row);
                    self.tree.insert(id, reduced);
                    report.added += 1;
                }
                DataUpdate::Change { id, row } => {
                    dataset.replace_row(id, row);
                    // Delete-then-insert of the leaf entry, per the paper.
                    self.tree.remove(id);
                    self.tree.insert(id, reduced);
                    changed.push(id);
                    report.changed += 1;
                }
            }
        }

        // Reconcile the cut level: re-generate only groups whose membership
        // or member rows changed, drop groups whose node vanished, add new
        // nodes' groups.
        let depth = self.depth();
        let nodes = self.tree.nodes_at_depth(depth);
        let current: std::collections::HashSet<_> = nodes.iter().copied().collect();

        let stale: Vec<_> = self
            .index
            .nodes()
            .filter(|n| !current.contains(n))
            .collect();
        for n in stale {
            self.index.remove(n);
            self.synopsis.remove(n);
            report.removed_groups += 1;
        }

        let mut dirty: Vec<(at_rtree::NodeId, Vec<u64>)> = Vec::new();
        for n in nodes {
            let mut members = self.tree.items_under(n);
            // Sorted order keeps aggregation summation identical to a fresh
            // build over the same group (float addition is order-sensitive).
            members.sort_unstable();
            let moved = self.index.set_members(n, members.clone());
            // A changed row that landed back in its own group moves no
            // membership, but the group's aggregate still holds its old
            // values.
            if moved || changed.iter().any(|id| members.binary_search(id).is_ok()) {
                dirty.push((n, members));
            }
        }
        let mode = self.mode;
        let regenerated: Vec<AggregatedPoint> = dirty
            .par_iter()
            .map(|(node, members)| AggregatedPoint {
                node: *node,
                info: dataset.aggregate(members, mode),
                member_count: members.len(),
            })
            .collect();
        report.regenerated = regenerated.len();
        for p in regenerated {
            self.synopsis.upsert(p);
        }

        report.group_count = self.synopsis.len();
        report.duration = start.elapsed();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{SynopsisConfig, SynopsisStore};
    use crate::dataset::{AggregationMode, RowStore};
    use at_linalg::svd::SvdConfig;
    use at_rtree::RTreeConfig;

    fn dataset(n: usize) -> RowStore {
        let mut s = RowStore::new(30);
        for r in 0..n {
            let base = if r % 2 == 0 { 1.5 } else { 4.5 };
            let pairs: Vec<(u32, f64)> = (0..30u32)
                .filter(|c| !(r + *c as usize).is_multiple_of(4))
                .map(|c| (c, base + ((r as u32 + c) % 3) as f64 * 0.1))
                .collect();
            s.push_row(crate::dataset::SparseRow::from_pairs(pairs));
        }
        s
    }

    fn cfg() -> SynopsisConfig {
        SynopsisConfig {
            svd: SvdConfig::default().with_dims(3).with_epochs(20),
            rtree: RTreeConfig::default(),
            size_ratio: 20,
        }
    }

    fn new_row(seed: u32) -> SparseRow {
        SparseRow::from_pairs(
            (0..30u32)
                .filter(|c| !(c + seed).is_multiple_of(3))
                .map(|c| (c, 3.0 + ((c + seed) % 5) as f64 * 0.2))
                .collect(),
        )
    }

    #[test]
    fn additions_keep_store_consistent() {
        let mut data = dataset(200);
        let (mut store, _) = SynopsisStore::build(&data, AggregationMode::Mean, cfg());
        let updates: Vec<DataUpdate> = (0..20).map(|i| DataUpdate::Add(new_row(i))).collect();
        let report = store.apply_updates(&mut data, updates);
        assert_eq!(report.added, 20);
        assert_eq!(report.changed, 0);
        assert_eq!(data.len(), 220);
        store.validate().expect("consistent after additions");
    }

    #[test]
    fn changes_keep_store_consistent() {
        let mut data = dataset(200);
        let (mut store, _) = SynopsisStore::build(&data, AggregationMode::Mean, cfg());
        let updates: Vec<DataUpdate> = (0..20u64)
            .map(|id| DataUpdate::Change {
                id: id * 7,
                row: new_row(id as u32),
            })
            .collect();
        let report = store.apply_updates(&mut data, updates);
        assert_eq!(report.changed, 20);
        assert_eq!(data.len(), 200);
        store.validate().expect("consistent after changes");
    }

    #[test]
    fn update_touches_only_affected_groups() {
        let mut data = dataset(400);
        let (mut store, _) = SynopsisStore::build(&data, AggregationMode::Mean, cfg());
        let before = store.synopsis().len();
        // One single addition: far fewer groups regenerated than exist.
        let report = store.apply_updates(&mut data, vec![DataUpdate::Add(new_row(1))]);
        assert!(
            report.regenerated < before / 2 + 2,
            "one insert regenerated {}/{} groups",
            report.regenerated,
            before
        );
        store.validate().unwrap();
    }

    #[test]
    fn noop_batch_regenerates_nothing() {
        let mut data = dataset(150);
        let (mut store, _) = SynopsisStore::build(&data, AggregationMode::Mean, cfg());
        let report = store.apply_updates(&mut data, vec![]);
        assert_eq!(report.regenerated, 0);
        assert_eq!(report.added + report.changed, 0);
        store.validate().unwrap();
    }

    #[test]
    fn change_rewrite_same_values_may_move_point() {
        // Changing a point to identical features must at minimum keep the
        // store consistent (the leaf is removed and re-inserted).
        let mut data = dataset(100);
        let (mut store, _) = SynopsisStore::build(&data, AggregationMode::Mean, cfg());
        let row = data.row(5).clone();
        store.apply_updates(&mut data, vec![DataUpdate::Change { id: 5, row }]);
        store.validate().unwrap();
        assert!(store.tree().contains_item(5));
    }

    #[test]
    fn synopsis_info_correct_after_updates() {
        let mut data = dataset(200);
        let (mut store, _) = SynopsisStore::build(&data, AggregationMode::Mean, cfg());
        let updates: Vec<DataUpdate> = (0..10)
            .map(|i| DataUpdate::Add(new_row(i)))
            .chain((0..10u64).map(|id| DataUpdate::Change {
                id: id * 3 + 1,
                row: new_row(100 + id as u32),
            }))
            .collect();
        store.apply_updates(&mut data, updates);
        // Every aggregated point's info must equal a fresh aggregation of
        // its (updated) members.
        for p in store.synopsis().iter() {
            let members = store.index().members(p.node).unwrap();
            let expect = data.aggregate(members, AggregationMode::Mean);
            assert_eq!(p.info, expect, "stale aggregated info for {:?}", p.node);
        }
    }

    #[test]
    fn incremental_matches_full_rebuild_membership() {
        // After updates, the incremental index must partition exactly the
        // updated id space (0..len).
        let mut data = dataset(250);
        let (mut store, _) = SynopsisStore::build(&data, AggregationMode::Mean, cfg());
        let updates: Vec<DataUpdate> = (0..30).map(|i| DataUpdate::Add(new_row(i))).collect();
        store.apply_updates(&mut data, updates);
        let mut all: Vec<u64> = store
            .index()
            .iter()
            .flat_map(|(_, m)| m.iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..280u64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "unknown id")]
    fn change_unknown_id_panics() {
        let mut data = dataset(50);
        let (mut store, _) = SynopsisStore::build(&data, AggregationMode::Mean, cfg());
        store.apply_updates(
            &mut data,
            vec![DataUpdate::Change {
                id: 999,
                row: new_row(0),
            }],
        );
    }

    #[test]
    fn change_that_stays_in_its_group_regenerates_it() {
        // A nudged row usually lands back in its own group: no membership
        // moves, but the group's aggregate must still take the new values.
        let mut data = dataset(200);
        let (mut store, _) = SynopsisStore::build(&data, AggregationMode::Mean, cfg());
        let group_of = |store: &SynopsisStore, id: u64| {
            let (node, members) = store
                .index()
                .iter()
                .find(|(_, m)| m.contains(&id))
                .expect("every row is in a group");
            (node, members.to_vec())
        };
        let mut stayed = 0;
        for id in 0..40u64 {
            let before = group_of(&store, id);
            let row = data.row(id);
            let nudged = SparseRow::from_pairs(row.iter().map(|(c, v)| (c, v + 0.001)).collect());
            store.apply_updates(&mut data, vec![DataUpdate::Change { id, row: nudged }]);
            stayed += usize::from(group_of(&store, id) == before);
            for p in store.synopsis().iter() {
                let members = store.index().members(p.node).unwrap();
                let expect = data.aggregate(members, AggregationMode::Mean);
                assert_eq!(p.info, expect, "row {id}: stale aggregate for {:?}", p.node);
            }
        }
        assert!(
            stayed > 0,
            "no change stayed in its group; the test proves nothing"
        );
    }

    #[test]
    fn change_may_name_a_row_added_earlier_in_the_batch() {
        let mut data = dataset(100);
        let (mut store, _) = SynopsisStore::build(&data, AggregationMode::Mean, cfg());
        let report = store.apply_updates(
            &mut data,
            vec![
                DataUpdate::Add(new_row(1)),
                DataUpdate::Change {
                    id: 100,
                    row: new_row(2),
                },
            ],
        );
        assert_eq!((report.added, report.changed), (1, 1));
        assert_eq!(data.row(100), &new_row(2));
        store.validate().unwrap();
    }

    #[test]
    fn bad_change_panics_before_touching_the_store() {
        // The bad id comes after two additions and a good change: none of
        // them may have landed when the batch panics. The caller that
        // survives the panic observes it across a thread join.
        let mut data = dataset(200);
        let (mut store, _) = SynopsisStore::build(&data, AggregationMode::Mean, cfg());
        let groups = store.synopsis().len();
        let outcome = std::thread::scope(|s| {
            s.spawn(|| {
                store.apply_updates(
                    &mut data,
                    vec![
                        DataUpdate::Add(new_row(1)),
                        DataUpdate::Add(new_row(2)),
                        DataUpdate::Change {
                            id: 3,
                            row: new_row(3),
                        },
                        DataUpdate::Change {
                            id: 202,
                            row: new_row(4),
                        },
                    ],
                )
            })
            .join()
        });
        assert!(outcome.is_err(), "id 202 is past the two additions");
        assert_eq!(data.len(), 200);
        assert_eq!(store.tree().len(), 200);
        assert_eq!(store.synopsis().len(), groups);
        assert_ne!(data.row(3), &new_row(3));
        store.validate().expect("consistent after a refused batch");
    }
}
