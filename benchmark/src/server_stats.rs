//! `ServerStats` / `ClusterStats` deltas over the timed window, as
//! per-layer metrics. One entry per worker; a plain `Server` is a
//! one-worker cluster.

use at_server::ServerStats;

use crate::report::{metric, Metric};

pub fn server_metrics(before: &[ServerStats], after: &[ServerStats]) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&ServerStats) -> u64| -> f64 {
        after
            .iter()
            .zip(before)
            .map(|(a, b)| f(a) - f(b))
            .sum::<u64>() as f64
    };
    let dispatched = sum(&|s| s.completed + s.shed);
    let batches = sum(&|s| s.batches_dispatched);
    let wait_s: f64 = after
        .iter()
        .zip(before)
        .map(|(a, b)| (a.queue_wait_total - b.queue_wait_total).as_secs_f64())
        .sum();
    let wait_max = after
        .iter()
        .map(|s| s.queue_wait_max)
        .max()
        .unwrap_or_default();
    let depth_max = after.iter().map(|s| s.max_queue_depth).max().unwrap_or(0);
    let mut out = vec![
        metric(
            "server.queue_wait_mean_ms",
            1e3 * wait_s / dispatched.max(1.0),
        ),
        metric("server.queue_wait_max_ms", 1e3 * wait_max.as_secs_f64()),
        metric("server.mean_batch_size", dispatched / batches.max(1.0)),
        metric("server.batches_dispatched", batches),
        metric("server.max_queue_depth", depth_max as f64),
        metric("server.rejected", sum(&|s| s.rejected)),
        metric("server.shed", sum(&|s| s.shed)),
        metric(
            "server.dispatcher_restarts",
            sum(&|s| s.dispatcher_restarts),
        ),
    ];
    if after.len() > 1 {
        // `completed` follows the queue a request was routed to; what a
        // worker actually served adds its steals and drops what siblings
        // took from it.
        let per_worker = |f: &dyn Fn(&ServerStats) -> u64| -> Vec<f64> {
            after
                .iter()
                .zip(before)
                .map(|(a, b)| (f(a) - f(b)) as f64)
                .collect()
        };
        let max_over_mean = |v: &[f64]| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().cloned().fold(0.0, f64::max) / mean.max(1e-9)
        };
        let served = per_worker(&|s| s.completed + s.steals - s.stolen);
        let homed = per_worker(&|s| s.submitted);
        out.push(metric(
            "server.shard.stolen_share",
            sum(&|s| s.stolen) / sum(&|s| s.completed).max(1.0),
        ));
        out.push(metric("server.shard.imbalance", max_over_mean(&served)));
        out.push(metric("server.shard.home_skew", max_over_mean(&homed)));
    }
    out
}
