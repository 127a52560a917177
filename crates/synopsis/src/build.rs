//! Synopsis creation: the paper's three offline steps.
//!
//! 1. **Dimensionality reduction** — incremental SVD to a `j`-dimensional
//!    dense dataset ([`crate::reduce::Reducer`]).
//! 2. **Similar-points organization** — bulk-load an R-tree over the
//!    reduced points and select a depth whose node count makes the synopsis
//!    roughly `size_ratio` times smaller than the subset.
//! 3. **Information aggregation** — fold each node's original (unreduced)
//!    member rows into an aggregated data point (`O(k × v)`; the paper
//!    runs it on Spark).
//!
//! One build runs on the thread that called it, so everything a component
//! keeps is allocated there; deployments parallelise *across* components,
//! one build per thread. Short-lived helper threads inside step 3 sped up
//! ~7 % of one build and left behind malloc arenas that a later rebuild
//! might or might not reuse — a process that rebuilt a deployment held
//! 0–2 stale copies of it, by thread-exit timing.

use std::time::{Duration, Instant};

use at_linalg::svd::SvdConfig;
use at_rtree::{RTree, RTreeConfig};

use crate::dataset::{AggregationMode, Row, RowStore, SparseRow};
use crate::index_file::IndexFile;
use crate::reduce::Reducer;
use crate::synopsis::{AggregatedPoint, Synopsis};

/// Configuration of the synopsis pipeline.
#[derive(Clone, Copy, Debug)]
pub struct SynopsisConfig {
    /// Step-1 SVD hyper-parameters (paper: 3 dims, 100 epochs each).
    pub svd: SvdConfig,
    /// Step-2 R-tree fanout bounds.
    pub rtree: RTreeConfig,
    /// Target size ratio: the synopsis should hold about
    /// `subset_size / size_ratio` aggregated points (paper: ~100).
    pub size_ratio: usize,
}

impl Default for SynopsisConfig {
    fn default() -> Self {
        SynopsisConfig {
            svd: SvdConfig::default(),
            rtree: RTreeConfig::default(),
            size_ratio: 100,
        }
    }
}

/// Wall-clock costs and shape of one synopsis build (the paper reports
/// per-step overheads in §4.2).
#[derive(Clone, Copy, Debug)]
pub struct BuildReport {
    /// Step-1 (SVD) time.
    pub reduce_time: Duration,
    /// Step-2 (R-tree + depth selection) time.
    pub organize_time: Duration,
    /// Step-3 (aggregation) time.
    pub aggregate_time: Duration,
    /// Points in the subset.
    pub n_points: usize,
    /// Aggregated points in the synopsis.
    pub n_aggregated: usize,
    /// Mean original points per aggregated point (the paper's 133.01 /
    /// 42.55 figures).
    pub mean_group_size: f64,
}

impl BuildReport {
    /// Total creation time.
    pub fn total_time(&self) -> Duration {
        self.reduce_time + self.organize_time + self.aggregate_time
    }
}

/// Everything the offline module persists for one component: the latent
/// space, the R-tree, the index file, and the synopsis. §3.1: "Once the
/// synopsis is generated, the R-tree and the index file are stored and they
/// can be used as the starting point of synopsis updating."
#[derive(Clone, Debug)]
pub struct SynopsisStore<R = SparseRow> {
    pub(crate) config: SynopsisConfig,
    pub(crate) mode: AggregationMode,
    pub(crate) reducer: Reducer,
    pub(crate) tree: RTree,
    /// Synopsis level expressed as height above the leaves, so it survives
    /// tree height changes during incremental updates.
    pub(crate) level_above_leaves: usize,
    pub(crate) index: IndexFile,
    pub(crate) synopsis: Synopsis<R>,
}

impl SynopsisStore {
    /// Re-encode the aggregated rows into layout `R` (the counterpart of
    /// [`RowStore::into_layout`] for pre-built state).
    pub fn into_layout<R: Row>(self) -> SynopsisStore<R> {
        SynopsisStore {
            config: self.config,
            mode: self.mode,
            reducer: self.reducer,
            tree: self.tree,
            level_above_leaves: self.level_above_leaves,
            index: self.index,
            synopsis: self.synopsis.into_layout(),
        }
    }
}

impl<R: Row> SynopsisStore<R> {
    /// Run the full three-step creation pipeline over `dataset`; the
    /// synopsis is stored in the dataset's layout.
    pub fn build(
        dataset: &RowStore<R>,
        mode: AggregationMode,
        config: SynopsisConfig,
    ) -> (Self, BuildReport) {
        // Step 1: dimensionality reduction.
        let t0 = Instant::now();
        let reducer = Reducer::fit(dataset, config.svd);
        let reduce_time = t0.elapsed();

        // Step 2: organize similar points with an R-tree; cut a depth.
        let t1 = Instant::now();
        let points: Vec<(u64, Vec<f64>)> = dataset
            .ids()
            .map(|id| (id, reducer.reduced(id).to_vec()))
            .collect();
        let tree = RTree::bulk_load(reducer.dims().max(1), config.rtree, points);
        let budget = (dataset.len() / config.size_ratio.max(1)).max(1);
        let depth = tree.select_depth(budget);
        let index = IndexFile::new(
            depth,
            tree.nodes_at_depth(depth)
                .into_iter()
                .map(|n| (n, tree.items_under(n))),
        );
        let organize_time = t1.elapsed();

        // Step 3: aggregate original information per group, on the calling
        // thread (see the module docs).
        let t2 = Instant::now();
        let mut synopsis = Synopsis::new(mode);
        for (node, members) in index.iter() {
            synopsis.upsert(AggregatedPoint {
                node,
                info: dataset.aggregate(members, mode),
                member_count: members.len(),
            });
        }
        let aggregate_time = t2.elapsed();

        let report = BuildReport {
            reduce_time,
            organize_time,
            aggregate_time,
            n_points: dataset.len(),
            n_aggregated: synopsis.len(),
            mean_group_size: index.mean_group_size(),
        };
        let level_above_leaves = tree.height() - 1 - depth;
        (
            SynopsisStore {
                config,
                mode,
                reducer,
                tree,
                level_above_leaves,
                index,
                synopsis,
            },
            report,
        )
    }

    /// The synopsis (aggregated data points).
    pub fn synopsis(&self) -> &Synopsis<R> {
        &self.synopsis
    }

    /// The index file (aggregated point → original point ids).
    pub fn index(&self) -> &IndexFile {
        &self.index
    }

    /// The underlying R-tree.
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// The fitted dimensionality reducer.
    pub fn reducer(&self) -> &Reducer {
        &self.reducer
    }

    /// The depth currently cut for the synopsis.
    pub fn depth(&self) -> usize {
        self.tree
            .height()
            .saturating_sub(1 + self.level_above_leaves)
    }

    /// Aggregation mode.
    pub fn mode(&self) -> AggregationMode {
        self.mode
    }

    /// Pipeline configuration.
    pub fn config(&self) -> SynopsisConfig {
        self.config
    }

    /// Consistency check between tree, index file, and synopsis — every
    /// node at the synopsis depth must have matching index membership and
    /// an aggregated point, and nothing extra may linger.
    pub fn validate(&self) -> Result<(), String> {
        self.tree.validate()?;
        let nodes = self.tree.nodes_at_depth(self.depth());
        if nodes.len() != self.index.len() {
            return Err(format!(
                "index has {} groups but depth {} has {} nodes",
                self.index.len(),
                self.depth(),
                nodes.len()
            ));
        }
        if nodes.len() != self.synopsis.len() {
            return Err(format!(
                "synopsis has {} points but depth has {} nodes",
                self.synopsis.len(),
                nodes.len()
            ));
        }
        for n in nodes {
            let mut members = self.tree.items_under(n);
            members.sort_unstable();
            match self.index.members(n) {
                None => return Err(format!("node {n:?} missing from index file")),
                Some(m) if m != members.as_slice() => {
                    return Err(format!("node {n:?} membership stale in index file"))
                }
                _ => {}
            }
            match self.synopsis.point(n) {
                None => return Err(format!("node {n:?} missing from synopsis")),
                Some(p) if p.member_count != members.len() => {
                    return Err(format!("node {n:?} member_count stale in synopsis"))
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SparseRow;

    /// Two latent "taste" groups of users over 40 items.
    pub(crate) fn two_group_dataset(n: usize) -> RowStore {
        let mut s = RowStore::new(40);
        for r in 0..n {
            let high_first = r % 2 == 0;
            let pairs: Vec<(u32, f64)> = (0..40u32)
                .filter(|c| !(r + *c as usize).is_multiple_of(3)) // ~2/3 density
                .map(|c| {
                    let base = if high_first ^ (c < 20) { 1.5 } else { 4.5 };
                    (c, base + ((r as u32 + c) % 4) as f64 * 0.1)
                })
                .collect();
            s.push_row(SparseRow::from_pairs(pairs));
        }
        s
    }

    fn quick_config(ratio: usize) -> SynopsisConfig {
        SynopsisConfig {
            svd: SvdConfig::default().with_dims(3).with_epochs(25),
            rtree: RTreeConfig::default(),
            size_ratio: ratio,
        }
    }

    #[test]
    fn build_produces_consistent_store() {
        let data = two_group_dataset(300);
        let (store, report) = SynopsisStore::build(&data, AggregationMode::Mean, quick_config(20));
        store.validate().expect("store consistent after build");
        assert_eq!(report.n_points, 300);
        assert!(report.n_aggregated >= 1);
        // Depth selection is geometric-closest: the aggregated count may
        // overshoot the target (300/20 = 15) by up to ~the tree fanout's
        // square root, but must stay within a small constant factor and
        // remain much smaller than the subset.
        let target = 300 / 20;
        assert!(
            report.n_aggregated <= target * 4 && report.n_aggregated >= target / 4,
            "synopsis size {} far from target {target}",
            report.n_aggregated
        );
        assert!(report.mean_group_size >= 5.0);
    }

    #[test]
    fn synopsis_much_smaller_than_subset() {
        let data = two_group_dataset(500);
        let (store, _) = SynopsisStore::build(&data, AggregationMode::Mean, quick_config(50));
        assert!(store.synopsis().len() * 25 <= data.len());
    }

    #[test]
    fn groups_partition_the_dataset() {
        let data = two_group_dataset(250);
        let (store, _) = SynopsisStore::build(&data, AggregationMode::Mean, quick_config(25));
        let mut all: Vec<u64> = store
            .index()
            .iter()
            .flat_map(|(_, m)| m.iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..250u64).collect::<Vec<_>>());
    }

    #[test]
    fn aggregated_info_reflects_members() {
        let data = two_group_dataset(200);
        let (store, _) = SynopsisStore::build(&data, AggregationMode::Mean, quick_config(20));
        // For each aggregated point, its info at any column must be the mean
        // of the members having that column.
        for p in store.synopsis().iter() {
            let members = store.index().members(p.node).unwrap();
            let expect = data.aggregate(members, AggregationMode::Mean);
            assert_eq!(p.info, expect, "node {:?}", p.node);
        }
    }

    #[test]
    fn grouping_respects_taste_clusters() {
        // Members of one aggregated point should be predominantly from one
        // taste group (even ids vs odd ids in two_group_dataset).
        let data = two_group_dataset(400);
        // Small ratio -> many groups, so taste purity is actually testable
        // (with only 2-3 coarse groups one of them must straddle).
        let (store, _) = SynopsisStore::build(&data, AggregationMode::Mean, quick_config(10));
        let mut pure = 0usize;
        let mut total = 0usize;
        for (_, members) in store.index().iter() {
            let even = members.iter().filter(|&&m| m % 2 == 0).count();
            let frac = even as f64 / members.len() as f64;
            if !(0.25..=0.75).contains(&frac) {
                pure += 1;
            }
            total += 1;
        }
        assert!(
            pure * 10 >= total * 7,
            "only {pure}/{total} groups are taste-dominant"
        );
    }

    #[test]
    fn merge_mode_sums_contents() {
        let data = two_group_dataset(100);
        let (store, _) = SynopsisStore::build(&data, AggregationMode::Merge, quick_config(10));
        for p in store.synopsis().iter() {
            let members = store.index().members(p.node).unwrap();
            let expect = data.aggregate(members, AggregationMode::Merge);
            assert_eq!(p.info, expect);
        }
    }

    #[test]
    fn report_times_are_populated() {
        let data = two_group_dataset(150);
        let (_, report) = SynopsisStore::build(&data, AggregationMode::Mean, quick_config(15));
        // Durations are non-zero in aggregate (individual steps may be fast).
        assert!(report.total_time() > Duration::ZERO);
    }

    #[test]
    fn tiny_dataset_single_group() {
        let data = two_group_dataset(6);
        let (store, report) = SynopsisStore::build(&data, AggregationMode::Mean, quick_config(100));
        store.validate().unwrap();
        assert_eq!(report.n_aggregated, 1, "6 points / ratio 100 -> one group");
    }
}
