//! Cost-model calibration against the *real* implementations.
//!
//! The simulator's [`CostModel`] can be measured instead of assumed: time
//! the actual synopsis pass, per-set improvement, and exact processing of a
//! built component over a batch of requests, then rescale to paper-sized
//! subsets with [`CostModel::scaled_to_exact`]. This grounds the latency
//! simulation in the very code whose accuracy is being evaluated.

use std::time::Instant;

use at_core::{Algorithm1, ApproximateService, Component, ExecutionPolicy};

use crate::cost::CostModel;

/// Measure mean costs of a component's three processing operations over
/// `requests`. Jitter sigma is kept from `base` (measurement noise on a
/// busy laptop is not the variance we want to model).
pub fn calibrate<S: ApproximateService>(
    component: &Component<S>,
    requests: &[S::Request],
    base: CostModel,
) -> CostModel {
    assert!(!requests.is_empty(), "calibrate: need at least one request");
    let n_sets = component.store().synopsis().len().max(1);

    // Synopsis pass (stage 1 + ranking).
    let t0 = Instant::now();
    for req in requests {
        let engine = Algorithm1::new(component.dataset(), component.store(), component.service());
        std::hint::black_box(engine.ranked(req));
    }
    let synopsis_s = t0.elapsed().as_secs_f64() / requests.len() as f64;

    // Full improvement (synopsis + every set) — per-set cost by difference.
    let t1 = Instant::now();
    for req in requests {
        std::hint::black_box(component.execute(
            req,
            &ExecutionPolicy::budgeted(usize::MAX),
            Instant::now(),
        ));
    }
    let full_s = t1.elapsed().as_secs_f64() / requests.len() as f64;

    // Exact baseline.
    let t2 = Instant::now();
    for req in requests {
        std::hint::black_box(component.execute(req, &ExecutionPolicy::Exact, Instant::now()));
    }
    let exact_s = t2.elapsed().as_secs_f64() / requests.len() as f64;

    let per_set_s = ((full_s - synopsis_s) / n_sets as f64).max(1e-9);
    CostModel {
        exact_s: exact_s.max(synopsis_s * 1.5).max(1e-9),
        synopsis_s: synopsis_s.max(1e-9),
        per_set_s,
        n_sets,
        jitter_sigma: base.jitter_sigma,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_core::{Correlation, Ctx};
    use at_linalg::svd::SvdConfig;
    use at_synopsis::{AggregationMode, RowStore, SparseRow, SynopsisConfig};

    struct SumService;

    impl ApproximateService for SumService {
        type Row = at_synopsis::SparseRow;
        type Request = u32;
        type Output = f64;

        fn process_synopsis(&self, ctx: Ctx<'_>, req: &u32, corr: &mut Vec<Correlation>) -> f64 {
            corr.extend(ctx.store.synopsis().iter().map(|p| Correlation {
                node: p.node,
                score: p.info.get(*req).unwrap_or(0.0),
            }));
            0.0
        }

        fn improve(
            &self,
            ctx: Ctx<'_>,
            req: &u32,
            out: &mut f64,
            _node: at_rtree::NodeId,
            members: &[u64],
        ) {
            for &m in members {
                *out += ctx.dataset.row(m).get(*req).unwrap_or(0.0);
            }
        }

        fn process_exact(&self, ctx: Ctx<'_>, req: &u32) -> f64 {
            (0..ctx.dataset.len() as u64)
                .map(|m| ctx.dataset.row(m).get(*req).unwrap_or(0.0))
                .sum()
        }
    }

    #[test]
    fn calibration_yields_valid_model() {
        let mut data = RowStore::new(16);
        for r in 0..600u32 {
            data.push_row(SparseRow::from_pairs(
                (0..16).map(|c| (c, ((r + c) % 7) as f64)).collect(),
            ));
        }
        let cfg = SynopsisConfig {
            svd: SvdConfig::default().with_epochs(10),
            size_ratio: 20,
            ..SynopsisConfig::default()
        };
        let (component, _) = Component::build(data, AggregationMode::Mean, cfg, SumService);
        let requests: Vec<u32> = (0..8).collect();
        let measured = calibrate(&component, &requests, CostModel::default());
        measured.validate().expect("measured model is coherent");
        assert_eq!(measured.n_sets, component.store().synopsis().len());
        // Scaling to paper-sized work preserves the structure.
        let scaled = measured.scaled_to_exact(0.018);
        scaled.validate().unwrap();
        assert!((scaled.exact_s - 0.018).abs() < 1e-12);
    }
}
