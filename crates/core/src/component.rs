//! A service component: one subset of input data plus its synopsis.
//!
//! The paper deploys 108 parallel components, each processing one subset.
//! A [`Component`] owns the subset ([`RowStore`]), the offline artifacts
//! ([`SynopsisStore`]), and the service hooks; it exposes one online entry
//! point — [`execute`](Component::execute) under an [`ExecutionPolicy`] —
//! plus incremental data updating.

use std::sync::Arc;
use std::time::Instant;

use at_synopsis::{
    AggregationMode, DataUpdate, RowStore, SynopsisConfig, SynopsisStore, UpdateReport,
};

use crate::outcome::Outcome;
use crate::policy::ExecutionPolicy;
use crate::pool::OutputPool;
use crate::processor::{Algorithm1, ApproximateService, Ctx};

/// The shareable read-only half of a [`Component`]: the input subset and
/// its offline artifacts. Replicated serving workers (see
/// [`FanOutService::replica`](crate::FanOutService::replica)) hold one
/// `Arc` of this each — N workers, one copy of the data.
#[derive(Clone, Debug)]
struct ComponentData<R> {
    dataset: RowStore<R>,
    store: SynopsisStore<R>,
}

/// One parallel component of an online service.
///
/// The data half (subset + synopsis) lives behind an [`Arc`], so
/// [`replica`](Self::replica) can stamp out additional serving instances
/// over the *same* read-only data at the cost of a pointer copy.
/// Mutation ([`apply_updates`](Self::apply_updates)) is copy-on-write:
/// a component whose data is currently shared first un-shares it, so an
/// updated instance diverges from its replicas instead of racing them.
pub struct Component<S: ApproximateService> {
    data: Arc<ComponentData<S::Row>>,
    service: S,
}

impl<S: ApproximateService> Component<S> {
    /// Build a component: re-encodes `dataset` into the service's row
    /// layout (once; a move when that is the interchange layout) and runs
    /// the offline synopsis-creation pipeline over it.
    pub fn build(
        dataset: RowStore,
        mode: AggregationMode,
        config: SynopsisConfig,
        service: S,
    ) -> (Self, at_synopsis::BuildReport) {
        let dataset = dataset.into_layout();
        let (store, report) = SynopsisStore::build(&dataset, mode, config);
        (
            Component {
                data: Arc::new(ComponentData { dataset, store }),
                service,
            },
            report,
        )
    }

    /// Wrap pre-built state (used by tests and the simulator's calibration).
    pub fn from_parts(dataset: RowStore, store: SynopsisStore, service: S) -> Self {
        Component {
            data: Arc::new(ComponentData {
                dataset: dataset.into_layout(),
                store: store.into_layout(),
            }),
            service,
        }
    }

    /// A serving replica over the **same** read-only data: the subset and
    /// synopsis are `Arc`-shared (no copy), only the service hooks are
    /// cloned. The scale-out primitive behind
    /// [`FanOutService::replica`](crate::FanOutService::replica).
    pub fn replica(&self) -> Self
    where
        S: Clone,
    {
        Component {
            data: Arc::clone(&self.data),
            service: self.service.clone(),
        }
    }

    /// The subset of input data.
    pub fn dataset(&self) -> &RowStore<S::Row> {
        &self.data.dataset
    }

    /// The offline artifacts (synopsis, index file, R-tree, reducer).
    pub fn store(&self) -> &SynopsisStore<S::Row> {
        &self.data.store
    }

    /// The service hooks.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Read-only processing context.
    pub fn ctx(&self) -> Ctx<'_, S::Row> {
        Ctx {
            dataset: &self.data.dataset,
            store: &self.data.store,
        }
    }

    /// Process one request under `policy`. `submitted` is the request
    /// submission instant, so upstream queueing delay counts against a
    /// deadline policy exactly as in the paper.
    pub fn execute(
        &self,
        req: &S::Request,
        policy: &ExecutionPolicy,
        submitted: Instant,
    ) -> Outcome<S::Output> {
        Algorithm1::new(&self.data.dataset, &self.data.store, &self.service)
            .execute(req, policy, submitted)
    }

    /// [`execute`](Self::execute) with the output buffer drawn from (and
    /// eventually returned to) `pool` by the caller.
    pub fn execute_pooled(
        &self,
        req: &S::Request,
        policy: &ExecutionPolicy,
        submitted: Instant,
        pool: &OutputPool<S::Output>,
    ) -> Outcome<S::Output> {
        Algorithm1::new(&self.data.dataset, &self.data.store, &self.service)
            .execute_pooled(req, policy, submitted, pool)
    }

    /// Apply input-data changes, incrementally update the synopsis, then
    /// let the service refresh what it derived from the data
    /// ([`ApproximateService::data_updated`]).
    ///
    /// Copy-on-write with respect to [`replica`](Self::replica): when the
    /// data is currently shared, it is deep-copied first, so replicas keep
    /// serving the pre-update snapshot (refresh them by taking new
    /// replicas after the update).
    pub fn apply_updates(&mut self, updates: Vec<DataUpdate>) -> UpdateReport {
        let data = Arc::make_mut(&mut self.data);
        let report = data.store.apply_updates(&mut data.dataset, updates);
        self.service.data_updated(Ctx {
            dataset: &data.dataset,
            store: &data.store,
        });
        report
    }

    /// Consistency check of the offline artifacts.
    pub fn validate(&self) -> Result<(), String> {
        self.data.store.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::Correlation;
    use at_linalg::svd::SvdConfig;
    use at_synopsis::SparseRow;

    struct CountService;

    impl ApproximateService for CountService {
        type Row = at_synopsis::SparseRow;
        type Request = ();
        type Output = usize;

        fn process_synopsis(&self, ctx: Ctx<'_>, _req: &(), corr: &mut Vec<Correlation>) -> usize {
            corr.extend(ctx.store.synopsis().iter().map(|p| Correlation {
                node: p.node,
                score: p.member_count as f64,
            }));
            0
        }

        fn improve(
            &self,
            _ctx: Ctx<'_>,
            _req: &(),
            out: &mut usize,
            _node: at_rtree::NodeId,
            members: &[u64],
        ) {
            *out += members.len();
        }

        fn process_exact(&self, ctx: Ctx<'_>, _req: &()) -> usize {
            ctx.dataset.len()
        }
    }

    /// Records the dataset size every `data_updated` call saw.
    #[derive(Default)]
    struct Reindexing {
        seen: Vec<usize>,
    }

    impl ApproximateService for Reindexing {
        type Row = at_synopsis::SparseRow;
        type Request = ();
        type Output = usize;

        fn process_synopsis(&self, _: Ctx<'_>, _: &(), _: &mut Vec<Correlation>) -> usize {
            0
        }

        fn improve(&self, _: Ctx<'_>, _: &(), _: &mut usize, _: at_rtree::NodeId, _: &[u64]) {}

        fn process_exact(&self, _: Ctx<'_>, _: &()) -> usize {
            0
        }

        fn data_updated(&mut self, ctx: Ctx<'_>) {
            self.seen.push(ctx.dataset.len());
        }
    }

    fn data(n: usize) -> RowStore {
        let mut s = RowStore::new(8);
        for r in 0..n as u32 {
            s.push_row(SparseRow::from_pairs(
                (0..8).map(|c| (c, ((r + c) % 5) as f64)).collect(),
            ));
        }
        s
    }

    fn quick() -> SynopsisConfig {
        SynopsisConfig {
            svd: SvdConfig::default().with_epochs(10),
            size_ratio: 15,
            ..SynopsisConfig::default()
        }
    }

    #[test]
    fn build_and_process() {
        let (c, report) = Component::build(data(150), AggregationMode::Mean, quick(), CountService);
        assert_eq!(report.n_points, 150);
        c.validate().unwrap();
        // Full budget processes every member exactly once.
        let o = c.execute(&(), &ExecutionPolicy::budgeted(usize::MAX), Instant::now());
        assert_eq!(o.output, 150);
        let exact = c.execute(&(), &ExecutionPolicy::Exact, Instant::now());
        assert_eq!(exact.output, 150);
    }

    #[test]
    fn updated_data_reaches_the_service_through_a_fault_wrapper() {
        let service = crate::FaultyService::new(
            Reindexing::default(),
            Arc::new(crate::FaultInjector::new(7)),
        );
        let (mut c, _) = Component::build(data(100), AggregationMode::Mean, quick(), service);
        assert!(
            c.service().inner().seen.is_empty(),
            "build is not an update"
        );
        let row = SparseRow::from_pairs((0..8).map(|x| (x, 1.0)).collect());
        c.apply_updates(vec![DataUpdate::Add(row)]);
        assert_eq!(
            c.service().inner().seen,
            [101],
            "called once, after the store update"
        );
    }

    #[test]
    fn updates_flow_through() {
        let (mut c, _) = Component::build(data(100), AggregationMode::Mean, quick(), CountService);
        let row = SparseRow::from_pairs((0..8).map(|x| (x, 1.0)).collect());
        let rep = c.apply_updates(vec![DataUpdate::Add(row)]);
        assert_eq!(rep.added, 1);
        c.validate().expect("component consistent after update");
        assert_eq!(
            c.execute(&(), &ExecutionPolicy::Exact, Instant::now())
                .output,
            101
        );
        let o = c.execute(&(), &ExecutionPolicy::budgeted(usize::MAX), Instant::now());
        assert_eq!(o.output, 101);
    }
}
