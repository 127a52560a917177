//! What the benchmark needs to know about each service adapter to check
//! its responses and score their accuracy: a response digest, a validity
//! test, and the paper's accuracy measure against the `Exact` response.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

use at_core::{ComposableService, ExecutionPolicy, FanOutService, RouteKey, ServiceResponse};
use at_recommender::rmse::accuracy_loss_pct;
use at_recommender::{ActiveUser, CfService};
use at_search::accuracy::topk_overlap;
use at_search::{SearchRequest, SearchService};

pub trait Adapter:
    ComposableService<
        Request: Clone + PartialEq + RouteKey + Send + Sync + 'static,
        Output: Send + 'static,
        Response: Clone + Send + 'static,
    > + Clone
    + Send
    + Sync
    + 'static
{
    /// Held-out ground truth of one request (nothing, for search: its
    /// truth *is* the exact response).
    type Truth: Sync;
    /// Running accuracy over many responses.
    type Score: Default;

    fn digest(resp: &Self::Response, into: &mut DefaultHasher);

    /// A response a user could be shown: right arity, finite, in range.
    fn valid(req: &Self::Request, resp: &Self::Response) -> bool;

    fn score(
        score: &mut Self::Score,
        truth: &Self::Truth,
        exact: &Self::Response,
        approx: &Self::Response,
    );

    /// Accuracy loss in percent versus `Exact` (paper §4.1).
    fn loss_pct(score: &Self::Score) -> f64;
}

/// Squared prediction errors against the held-out ratings.
#[derive(Default)]
pub struct RmseScore {
    exact_sq: f64,
    approx_sq: f64,
    n: u64,
}

impl Adapter for CfService {
    type Truth = Vec<f64>;
    type Score = RmseScore;

    fn digest(resp: &Vec<f64>, into: &mut DefaultHasher) {
        for &p in resp {
            into.write_u64(p.to_bits());
        }
    }

    fn valid(req: &ActiveUser, resp: &Vec<f64>) -> bool {
        resp.len() == req.targets.len() && resp.iter().all(|p| (1.0..=5.0).contains(p))
    }

    fn score(score: &mut RmseScore, truth: &Vec<f64>, exact: &Vec<f64>, approx: &Vec<f64>) {
        for ((t, e), a) in truth.iter().zip(exact).zip(approx) {
            score.exact_sq += (e - t) * (e - t);
            score.approx_sq += (a - t) * (a - t);
            score.n += 1;
        }
    }

    fn loss_pct(score: &RmseScore) -> f64 {
        let n = score.n.max(1) as f64;
        accuracy_loss_pct((score.exact_sq / n).sqrt(), (score.approx_sq / n).sqrt())
    }
}

/// Top-10 overlap with the exact result list, averaged over queries.
#[derive(Default)]
pub struct OverlapScore {
    overlap: f64,
    n: u64,
}

impl Adapter for SearchService {
    type Truth = ();
    type Score = OverlapScore;

    fn digest(resp: &at_search::TopK, into: &mut DefaultHasher) {
        for hit in resp.sorted() {
            into.write_u64(hit.doc);
            into.write_u64(hit.score.to_bits());
        }
    }

    fn valid(_req: &SearchRequest, resp: &at_search::TopK) -> bool {
        resp.len() <= resp.k() && resp.sorted().iter().all(|h| h.score.is_finite())
    }

    fn score(
        score: &mut OverlapScore,
        _truth: &(),
        exact: &at_search::TopK,
        approx: &at_search::TopK,
    ) {
        score.overlap += topk_overlap(&exact.doc_ids(), &approx.doc_ids());
        score.n += 1;
    }

    fn loss_pct(score: &OverlapScore) -> f64 {
        100.0 * (1.0 - score.overlap / score.n.max(1) as f64)
    }
}

/// Everything about a response that must repeat when the same request is
/// served again on the same data under a policy the clock cannot cut.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fingerprint {
    digest: u64,
    policy: ExecutionPolicy,
    pub sets_processed: usize,
}

pub fn fingerprint<S: Adapter>(resp: &ServiceResponse<S::Response>) -> Fingerprint {
    let mut h = DefaultHasher::new();
    S::digest(&resp.response, &mut h);
    for c in &resp.components {
        h.write_u64(c.sets_processed as u64);
        h.write_u64(c.sets_total as u64);
        h.write_u64(c.sets_skipped as u64);
    }
    for &failed in &resp.components_failed {
        h.write_u64(failed as u64);
    }
    Fingerprint {
        digest: h.finish(),
        policy: resp.policy_applied,
        sets_processed: resp.sets_processed(),
    }
}

/// Accuracy and coverage of `policy` over `reqs` against their `Exact`
/// responses: `(loss_pct, mean_coverage)`.
pub fn evaluate<S: Adapter>(
    service: &FanOutService<S>,
    policy: &ExecutionPolicy,
    reqs: &[S::Request],
    truths: &[S::Truth],
    exact: &[S::Response],
) -> (f64, f64) {
    let mut score = S::Score::default();
    let mut coverage = 0.0;
    for ((req, truth), exact) in reqs.iter().zip(truths).zip(exact) {
        let resp = service.serve(req, policy);
        S::score(&mut score, truth, exact, &resp.response);
        coverage += resp.mean_coverage();
    }
    (S::loss_pct(&score), coverage / reqs.len().max(1) as f64)
}

pub fn exact_responses<S: Adapter>(
    service: &FanOutService<S>,
    reqs: &[S::Request],
) -> Vec<S::Response> {
    reqs.iter()
        .map(|req| service.serve(req, &ExecutionPolicy::Exact).response)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{build_recommender, build_search, rec_inputs, search_inputs, Scale};
    use at_server::{ServerConfig, ShardConfig, ShardedServer};

    const TINY: Scale = Scale {
        name: "tiny",
        components: 3,
        rows_per_component: 60,
        columns: 40,
        requests: 24,
    };

    /// `serve`, `serve_batch` (with duplicates to collapse) and a sharded
    /// cluster must all give the same fingerprint for the same request.
    fn all_paths_agree<S: Adapter>(
        service: &FanOutService<S>,
        pool: &[S::Request],
        policy: ExecutionPolicy,
    ) {
        let golden: Vec<Fingerprint> = pool
            .iter()
            .map(|r| fingerprint::<S>(&service.serve(r, &policy)))
            .collect();
        assert!(golden.iter().any(|g| g != &golden[0]), "requests differ");

        let order: Vec<usize> = (0..pool.len()).chain([0, 0, 3, 3, 1]).collect();
        let batch: Vec<S::Request> = order.iter().map(|&i| pool[i].clone()).collect();
        for (&i, resp) in order.iter().zip(service.serve_batch(&batch, &policy)) {
            assert_eq!(
                fingerprint::<S>(&resp),
                golden[i],
                "serve_batch, request {i}"
            );
        }

        let cluster = ShardedServer::replicated(
            service,
            ShardConfig::default()
                .with_workers(2)
                .with_worker(ServerConfig::default().with_max_batch(8)),
        );
        let tickets: Vec<_> = order
            .iter()
            .map(|&i| {
                (
                    i,
                    cluster.submit(pool[i].clone(), policy).expect("accepted"),
                )
            })
            .collect();
        for (i, ticket) in tickets {
            let resp = ticket.wait().expect("served");
            assert_eq!(fingerprint::<S>(&resp), golden[i], "sharded, request {i}");
        }
        cluster.shutdown();
    }

    #[test]
    fn recommender_serve_batch_and_sharded_equal_serve() {
        let inputs = rec_inputs(TINY, 0);
        let (service, _, _) = build_recommender(&inputs, TINY);
        assert!(inputs.requests.len() >= 8);
        all_paths_agree(&service, &inputs.requests, ExecutionPolicy::budgeted(2));
    }

    #[test]
    fn search_serve_batch_and_sharded_equal_serve() {
        let inputs = search_inputs(TINY);
        let (service, _, _) = build_search(&inputs, TINY);
        assert!(inputs.requests.len() >= 8);
        all_paths_agree(&service, &inputs.requests, ExecutionPolicy::budgeted(2));
    }

    #[test]
    fn scores_follow_the_papers_definitions() {
        let mut rmse = RmseScore::default();
        CfService::score(&mut rmse, &vec![3.0, 4.0], &vec![3.0, 4.0], &vec![4.0, 4.0]);
        // Exact is perfect here, so any approximate error is a full loss.
        assert_eq!(CfService::loss_pct(&rmse), 100.0);
        let mut rmse = RmseScore::default();
        CfService::score(&mut rmse, &vec![3.0, 5.0], &vec![4.0, 4.0], &vec![4.0, 3.0]);
        // RMSE 1 exact vs sqrt(2.5) approximate.
        assert!((CfService::loss_pct(&rmse) - (2.5f64.sqrt() - 1.0) * 100.0).abs() < 1e-9);
    }
}
