//! AccuracyTrader adapter for the CF recommender.
//!
//! Maps the paper's recommender semantics onto the [`ApproximateService`]
//! hooks:
//!
//! * **Correlation estimate** `c_i` — the Pearson weight between the active
//!   user and an *aggregated user* (ranked by magnitude: the paper calls an
//!   original user highly related when its weight is > 0.8 or < −0.8).
//! * **Initial result** — the weighted-average prediction computed over the
//!   aggregated users, each standing in for `member_count` originals.
//! * **Improvement** — replace one aggregated user's estimated contribution
//!   with the exact contributions of its member users.

use at_core::{ApproximateService, ComposableService, Correlation, Ctx};
use at_linalg::BlockedRow;
use at_rtree::NodeId;

use crate::predict::{accumulate_neighbor_indexed, user_weight_indexed, PredictionAcc};
use crate::ratings::ActiveUser;

/// The user-based CF service, AccuracyTrader-enabled.
///
/// The per-request path computes each neighbour's Pearson weight **exactly
/// once** (it serves both as the correlation estimate and the prediction
/// weight) and reads neighbour means from the stores' cached
/// [`at_linalg::RowStats`] — no per-neighbour allocation or value rescans.
/// Both kernels run block-aligned ([`user_weight_indexed`] /
/// [`accumulate_neighbor_indexed`]): the service's stored layout is
/// [`BlockedRow`], which the stores hold their rows in and nowhere else,
/// and the request keeps its profile and targets indexed by block id, so
/// every stage-1, `improve`, exact and analysis call walks only the
/// neighbour's occupied blocks and looks the active side up by id. The
/// kernels are bit-identical to the scalar merges, so the layout is purely
/// a perf decision.
///
/// `process_synopsis_into` resets recycled accumulator buffers in place,
/// so pooled serving allocates nothing for outputs.
#[derive(Clone, Copy, Debug, Default)]
pub struct CfService;

impl ApproximateService for CfService {
    type Row = BlockedRow;
    type Request = ActiveUser;
    type Output = Vec<PredictionAcc>;

    fn process_synopsis(
        &self,
        ctx: Ctx<'_, BlockedRow>,
        req: &ActiveUser,
        corr: &mut Vec<Correlation>,
    ) -> Self::Output {
        // lint: allow(hot-path-alloc) reason=cold entry point; the warm path is process_synopsis_into on a pooled buffer
        let mut acc = Vec::new();
        self.process_synopsis_into(ctx, req, corr, &mut acc);
        acc
    }

    fn process_synopsis_into(
        &self,
        ctx: Ctx<'_, BlockedRow>,
        req: &ActiveUser,
        corr: &mut Vec<Correlation>,
        out: &mut Self::Output,
    ) {
        // A recycled buffer may hold any earlier request's sums.
        out.clear();
        out.resize(req.targets.len(), PredictionAcc::default());
        let synopsis = ctx.store.synopsis();
        corr.reserve(synopsis.len());
        for (p, stats) in synopsis.points_with_stats() {
            // One weight per aggregated user: it is both the correlation
            // estimate c_i and the prediction weight.
            let (w, _) = user_weight_indexed(req.profile(), &p.info);
            corr.push(Correlation {
                node: p.node,
                score: w.abs(),
            });
            accumulate_neighbor_indexed(
                req.target_set(),
                &p.info,
                w,
                stats.mean(),
                p.member_count as f64,
                out,
            );
        }
    }

    fn improve(
        &self,
        ctx: Ctx<'_, BlockedRow>,
        req: &ActiveUser,
        out: &mut Self::Output,
        node: NodeId,
        members: &[u64],
    ) {
        // Back out the aggregated user's estimated contribution...
        if let Some((p, stats)) = ctx.store.synopsis().point_with_stats(node) {
            let (w, _) = user_weight_indexed(req.profile(), &p.info);
            accumulate_neighbor_indexed(
                req.target_set(),
                &p.info,
                w,
                stats.mean(),
                -(p.member_count as f64),
                out,
            );
        }
        // ...and put in the exact contributions of its original users.
        for &m in members {
            let rb = ctx.dataset.row(m);
            let (w, _) = user_weight_indexed(req.profile(), rb);
            accumulate_neighbor_indexed(
                req.target_set(),
                rb,
                w,
                ctx.dataset.row_stats(m).mean(),
                1.0,
                out,
            );
        }
    }

    fn process_exact(&self, ctx: Ctx<'_, BlockedRow>, req: &ActiveUser) -> Self::Output {
        let mut acc = vec![PredictionAcc::default(); req.targets.len()];
        for id in ctx.dataset.ids() {
            let rb = ctx.dataset.row(id);
            let (w, _) = user_weight_indexed(req.profile(), rb);
            accumulate_neighbor_indexed(
                req.target_set(),
                rb,
                w,
                ctx.dataset.row_stats(id).mean(),
                1.0,
                &mut acc,
            );
        }
        acc
    }
}

impl ComposableService for CfService {
    type Response = Vec<f64>;

    /// Merge per-component partial sums into final predictions (one per
    /// target), using the active user's mean as the baseline — the paper's
    /// composing component for the recommender.
    fn compose(&self, req: &ActiveUser, parts: &[Vec<PredictionAcc>]) -> Vec<f64> {
        let mut total = vec![PredictionAcc::default(); req.targets.len()];
        for part in parts {
            assert_eq!(part.len(), total.len(), "component output arity mismatch");
            for (t, p) in total.iter_mut().zip(part) {
                t.merge(p);
            }
        }
        let mean = req.mean_rating();
        total.iter().map(|a| a.predict(mean)).collect()
    }
}

/// Figure 4(a) analysis: rank aggregated users by |weight| to `req`, split
/// into `n_sections`, and return each section's percentage of *original*
/// users that are highly related (|weight| > `threshold`, paper: 0.8).
pub fn section_relatedness(
    ctx: Ctx<'_, BlockedRow>,
    req: &ActiveUser,
    threshold: f64,
    n_sections: usize,
) -> Vec<f64> {
    let service = CfService;
    let mut corr = Vec::new();
    service.process_synopsis(ctx, req, &mut corr);
    let ranked = at_core::rank(corr);
    let sections = at_core::sections(&ranked, n_sections);
    sections
        .iter()
        .map(|sec| {
            let mut related = 0usize;
            let mut total = 0usize;
            for c in *sec {
                let members = ctx.store.index().members(c.node).expect("indexed node");
                for &m in members {
                    let (w, _) = user_weight_indexed(req.profile(), ctx.dataset.row(m));
                    if w.abs() > threshold {
                        related += 1;
                    }
                    total += 1;
                }
            }
            if total == 0 {
                0.0
            } else {
                related as f64 / total as f64 * 100.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratings::rating_matrix;
    use at_core::{Component, ExecutionPolicy};
    use at_linalg::svd::SvdConfig;
    use at_synopsis::{AggregationMode, SparseRow, SynopsisConfig};
    use at_workloads::{RatingsConfig, RatingsDataset};
    use std::time::Instant;

    fn component() -> (Component<CfService>, RatingsDataset) {
        let data = RatingsDataset::generate(RatingsConfig {
            n_users: 300,
            n_items: 80,
            ratings_per_user: 30,
            ..RatingsConfig::small()
        });
        let matrix = rating_matrix(300, 80, &data.ratings);
        let cfg = SynopsisConfig {
            svd: SvdConfig::default().with_epochs(25),
            size_ratio: 15,
            ..SynopsisConfig::default()
        };
        let (c, _) = Component::build(matrix, AggregationMode::Mean, cfg, CfService);
        (c, data)
    }

    fn compose(req: &ActiveUser, parts: &[Vec<PredictionAcc>]) -> Vec<f64> {
        CfService.compose(req, parts)
    }

    fn active(data: &RatingsDataset, user: u32, targets: Vec<u32>) -> ActiveUser {
        let pairs: Vec<(u32, f64)> = data
            .ratings
            .iter()
            .filter(|r| r.user == user && !targets.contains(&r.item))
            .map(|r| (r.item, r.stars))
            .collect();
        ActiveUser::new(SparseRow::from_pairs(pairs), targets)
    }

    #[test]
    fn full_budget_matches_exact() {
        let (c, data) = component();
        let req = active(&data, 3, vec![1, 5, 9]);
        let approx = c.execute(&req, &ExecutionPolicy::budgeted(usize::MAX), Instant::now());
        let exact = c.execute(&req, &ExecutionPolicy::Exact, Instant::now());
        let pa = compose(&req, &[approx.output]);
        let pe = compose(&req, &[exact.output]);
        for (a, e) in pa.iter().zip(&pe) {
            assert!(
                (a - e).abs() < 1e-6,
                "fully-improved approx must equal exact: {a} vs {e}"
            );
        }
    }

    #[test]
    fn zero_budget_predictions_are_plausible() {
        let (c, data) = component();
        let req = active(&data, 10, vec![2, 4]);
        let o = c.execute(&req, &ExecutionPolicy::SynopsisOnly, Instant::now());
        let preds = compose(&req, &[o.output]);
        for p in preds {
            assert!((1.0..=5.0).contains(&p));
        }
    }

    #[test]
    fn more_budget_reduces_error_vs_exact() {
        let (c, data) = component();
        // Average |approx - exact| over several users and targets must not
        // increase with budget.
        let mut err_by_budget = Vec::new();
        for budget in [0usize, 2, usize::MAX] {
            let mut err = 0.0;
            let mut n = 0;
            for user in [1u32, 7, 21, 40] {
                let req = active(&data, user, vec![0, 3, 6]);
                let approx = compose(
                    &req,
                    &[
                        c.execute(&req, &ExecutionPolicy::budgeted(budget), Instant::now())
                            .output,
                    ],
                );
                let exact = compose(
                    &req,
                    &[c.execute(&req, &ExecutionPolicy::Exact, Instant::now())
                        .output],
                );
                for (a, e) in approx.iter().zip(&exact) {
                    err += (a - e).abs();
                    n += 1;
                }
            }
            err_by_budget.push(err / n as f64);
        }
        assert!(
            err_by_budget[2] <= err_by_budget[0] + 1e-9,
            "error must shrink with budget: {err_by_budget:?}"
        );
        assert!(err_by_budget[2] < 1e-9, "full budget must be exact");
    }

    #[test]
    fn correlations_are_weight_magnitudes() {
        let (c, data) = component();
        let req = active(&data, 5, vec![0]);
        let svc = CfService;
        let mut corr = Vec::new();
        svc.process_synopsis(c.ctx(), &req, &mut corr);
        assert_eq!(corr.len(), c.store().synopsis().len());
        for cr in &corr {
            assert!((0.0..=1.0).contains(&cr.score), "|w| out of range");
        }
    }

    #[test]
    fn section_relatedness_decreases_with_rank() {
        // Needs a fine-grained synopsis: with only ~3 aggregated points,
        // sections would be degenerate. size_ratio 6 -> ~26 groups here.
        let data = RatingsDataset::generate(RatingsConfig {
            n_users: 300,
            n_items: 80,
            ratings_per_user: 30,
            ..RatingsConfig::small()
        });
        let matrix = rating_matrix(300, 80, &data.ratings);
        let cfg = SynopsisConfig {
            svd: SvdConfig::default().with_epochs(25),
            size_ratio: 6,
            ..SynopsisConfig::default()
        };
        let (c, _) = Component::build(matrix, AggregationMode::Mean, cfg, CfService);
        assert!(c.store().synopsis().len() >= 12, "need enough groups");
        // Average over several active users like the paper's 1000.
        let mut first = 0.0;
        let mut last = 0.0;
        let mut n = 0;
        for user in (0..60u32).step_by(5) {
            let req = active(&data, user, vec![0]);
            let sec = section_relatedness(c.ctx(), &req, 0.5, 4);
            first += sec[0];
            last += sec[3];
            n += 1;
        }
        first /= n as f64;
        last /= n as f64;
        assert!(
            first > last,
            "top-ranked sections must hold more related users: first {first}% vs last {last}%"
        );
    }

    #[test]
    fn stage1_into_a_dirty_buffer_is_bit_identical_to_fresh() {
        let (c, data) = component();
        let svc = CfService;
        for (user, targets) in [(3u32, vec![1, 5]), (10, vec![2]), (21, vec![0, 3, 6])] {
            let req = active(&data, user, targets);
            let mut want_corr = Vec::new();
            let want_out = svc.process_synopsis(c.ctx(), &req, &mut want_corr);
            // A recycled buffer with another request's stale sums.
            let mut out = vec![PredictionAcc { num: 9.0, den: 9.0 }; 7];
            let mut corr = Vec::new();
            svc.process_synopsis_into(c.ctx(), &req, &mut corr, &mut out);
            assert_eq!(corr.len(), want_corr.len());
            for (a, b) in corr.iter().zip(&want_corr) {
                assert_eq!(a.node, b.node);
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "scores must be bit-identical"
                );
            }
            assert_eq!(out.len(), want_out.len());
            for (a, b) in out.iter().zip(&want_out) {
                assert_eq!(a.num.to_bits(), b.num.to_bits());
                assert_eq!(a.den.to_bits(), b.den.to_bits());
            }
        }
    }

    #[test]
    fn compose_merges_components() {
        let (c, data) = component();
        let req = active(&data, 2, vec![1]);
        let exact = c
            .execute(&req, &ExecutionPolicy::Exact, Instant::now())
            .output;
        // Splitting one component's output into two halves then composing
        // must equal composing the whole.
        let whole = compose(&req, std::slice::from_ref(&exact));
        let half: Vec<PredictionAcc> = exact
            .iter()
            .map(|a| PredictionAcc {
                num: a.num / 2.0,
                den: a.den / 2.0,
            })
            .collect();
        let split = compose(&req, &[half.clone(), half]);
        assert!((whole[0] - split[0]).abs() < 1e-9);
    }
}
