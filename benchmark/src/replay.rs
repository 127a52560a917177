//! The layer replay of a traced run: after the timed window, one thread
//! takes a sample of the workload's own request stream down through the
//! layers one level at a time, timing each public entry point from
//! outside — `FanOutService::serve`, then every `Component::execute`,
//! then the hooks `execute` is made of — so each layer gets a number and
//! the levels can be reconciled against each other.

use std::time::Instant;

use at_core::{clock, rank_top, ApproximateService, Correlation, ExecutionPolicy, FanOutService};

use crate::adapter::Adapter;
use crate::alloc;
use crate::gen;
use crate::report::{metric, metric_n, Metric};
use crate::stats;
use crate::trace::Tracer;

/// Requests of the sample that also run the (slow) exact baseline.
const EXACT_SAMPLE: usize = 32;

/// `core.engine.reconcile_ratio` outside this range means the stage
/// timings do not add up to the `execute` they were cut from, and none of
/// the per-layer numbers can be trusted.
pub const RECONCILE_RANGE: std::ops::RangeInclusive<f64> = 0.85..=1.15;

pub struct Replay<'a, S: Adapter> {
    pub service: &'a FanOutService<S>,
    pub policy: ExecutionPolicy,
    /// The request pool the stream indexes into.
    pub pool: &'a [S::Request],
    /// Pool indices to replay, drawn from the workload's stream.
    pub sample: Vec<u32>,
    /// The stream itself, for the batches that keep its duplicates.
    pub stream: &'a [u32],
    /// Refuse a reconcile ratio outside [`RECONCILE_RANGE`]. Off in smoke
    /// runs: a small component's `execute` takes ~10 µs, of which the
    /// engine's own bookkeeping around the hooks is a sixth, so the ratio
    /// sits at the edge of the range for a reason that is not an error.
    pub strict: bool,
}

/// Sends one request through the workload's server and waits for it.
pub type RoundTrip<'a, S> = &'a mut dyn FnMut(&<S as ApproximateService>::Request);

/// How many ranked sets `policy` lets stage 2 order up front (the bound
/// `Algorithm1` passes to `rank_top`), which is also how many it processes
/// when no deadline cuts the request short and no set is stale.
fn rank_bound(policy: &ExecutionPolicy, total: usize) -> usize {
    let imax = policy.imax().map_or(total, |m| m.min(total));
    let work = match *policy {
        ExecutionPolicy::SynopsisOnly => 0,
        ExecutionPolicy::Budgeted { sets, .. } => sets,
        ExecutionPolicy::Deadline { .. } | ExecutionPolicy::Exact => usize::MAX,
    };
    work.min(imax)
}

impl<S: Adapter> Replay<'_, S> {
    fn requests(&self) -> impl Iterator<Item = &S::Request> + '_ {
        self.sample.iter().map(|&i| &self.pool[i as usize])
    }

    /// Run the replay. `round_trip` sends one request through the
    /// workload's server with nothing else in flight and waits for it.
    pub fn run(
        &self,
        tracer: &mut Tracer,
        round_trip: Option<RoundTrip<'_, S>>,
    ) -> Result<Vec<Metric>, String> {
        let n = self.sample.len();
        if n == 0 {
            return Err("layer replay needs a non-empty sample".into());
        }
        let components = self.service.components();
        // Warm pools, thread-local scratch and caches the way the window
        // left them before anything is timed.
        for req in self.requests().take(8) {
            self.service.serve(req, &self.policy);
        }

        let mut serve_us = Vec::with_capacity(n);
        let mut execute_sum_us = Vec::with_capacity(n);
        let mut execute_max_us = Vec::with_capacity(n);
        let mut stage1_us = Vec::with_capacity(n);
        let mut rank_us = Vec::with_capacity(n);
        let mut stage2_us = Vec::with_capacity(n);
        let mut compose_us = Vec::with_capacity(n);
        let mut exact_us = Vec::new();
        let mut sets_ranked = Vec::with_capacity(n);
        let mut stage2_sets = Vec::with_capacity(n);
        let mut stage2_rows = Vec::with_capacity(n);
        let (mut skipped, mut offered) = (0usize, 0usize);
        let mut corr: Vec<Correlation> = Vec::new();

        let reads_before = clock::reads();
        let reuses_before = self.service.pool().reuses();
        let (allocs_before, bytes_before) = alloc::snapshot();
        // Level A on its own pass, so its clock, pool and allocator deltas
        // belong to `serve` alone.
        for req in self.requests() {
            let root = tracer.open("replay.request", None);
            let (_, us) = tracer.timed("core.service.serve", Some(root), || {
                self.service.serve(req, &self.policy)
            });
            tracer.close(root);
            serve_us.push(us);
        }
        let reads = clock::reads() - reads_before;
        let reuses = self.service.pool().reuses() - reuses_before;
        let (allocs_after, bytes_after) = alloc::snapshot();

        for (k, req) in self.requests().enumerate() {
            let root = tracer.open("replay.layers", None);
            let mut parts: Vec<S::Output> = Vec::with_capacity(components.len());
            // Levels B and C are compared against each other, and whichever
            // runs second finds the request's rows warm: take turns.
            let order = if k % 2 == 0 {
                [true, false]
            } else {
                [false, true]
            };
            for whole_execute in order {
                if whole_execute {
                    // Level B: each component's whole `execute`.
                    let level = tracer.open("replay.components", Some(root));
                    let (mut sum, mut max) = (0.0f64, 0.0f64);
                    for c in components {
                        let (outcome, us) =
                            tracer.timed("core.component.execute", Some(level), || {
                                c.execute(req, &self.policy, Instant::now())
                            });
                        sum += us;
                        max = max.max(us);
                        skipped += outcome.sets_skipped;
                        offered += outcome.sets_total;
                        parts.push(outcome.output);
                    }
                    tracer.close(level);
                    execute_sum_us.push(sum);
                    execute_max_us.push(max);
                    continue;
                }
                // Level C: the hooks `execute` is made of, over the sets the
                // policy admits when nothing cuts the request short.
                let level = tracer.open("replay.stages", Some(root));
                let (mut s1, mut rk, mut s2) = (0.0, 0.0, 0.0);
                let (mut ranked_n, mut sets, mut rows) = (0usize, 0usize, 0usize);
                for c in components {
                    let ctx = c.ctx();
                    let hooks = c.service();
                    corr.clear();
                    let (mut out, us) =
                        tracer.timed("adapter.process_synopsis", Some(level), || {
                            hooks.process_synopsis(ctx, req, &mut corr)
                        });
                    s1 += us;
                    let admit = rank_bound(&self.policy, corr.len());
                    let start = Instant::now();
                    let mut ranked = rank_top(&mut corr, admit);
                    rk += tracer.since("core.rank_top", Some(level), start);
                    ranked_n += admit;
                    let ((), us) = tracer.timed("adapter.improve", Some(level), || {
                        let (mut i, mut done) = (0usize, 0usize);
                        while done < admit {
                            let Some(next) = ranked.get(i) else { break };
                            if let Some(members) = ctx.store.index().members(next.node) {
                                hooks.improve(ctx, req, &mut out, next.node, members);
                                rows += members.len();
                                done += 1;
                            }
                            i += 1;
                        }
                        sets += done;
                    });
                    s2 += us;
                    std::hint::black_box(&out);
                }
                tracer.close(level);
                stage1_us.push(s1);
                rank_us.push(rk);
                stage2_us.push(s2);
                sets_ranked.push(ranked_n as f64);
                stage2_sets.push(sets as f64);
                stage2_rows.push(rows as f64);
            }

            if k < EXACT_SAMPLE {
                let mut sum = 0.0;
                for c in components {
                    let (out, us) = tracer.timed("adapter.process_exact", Some(root), || {
                        c.service().process_exact(c.ctx(), req)
                    });
                    std::hint::black_box(&out);
                    sum += us;
                }
                exact_us.push(sum);
            }

            let (resp, us) = tracer.timed("adapter.compose", Some(root), || {
                components[0].service().compose(req, &parts)
            });
            std::hint::black_box(&resp);
            compose_us.push(us);
            tracer.close(root);
        }

        let total = |v: &[f64]| v.iter().sum::<f64>();
        let reconcile =
            (total(&stage1_us) + total(&rank_us) + total(&stage2_us)) / total(&execute_sum_us);
        let ns_per_row = 1e3 * total(&stage2_us) / total(&stage2_rows).max(1.0);

        // What fan-out costs beyond the work it fans out: `serve` against
        // its legs spread perfectly over the cores, plus compose.
        let serve = stats::median(&mut serve_us);
        let execute_sum = stats::median(&mut execute_sum_us);
        let compose = stats::median(&mut compose_us);
        let lanes = crate::cores().min(components.len()).max(1) as f64;
        let ideal = execute_sum / lanes + compose;

        let mut metrics = vec![
            metric_n("core.service.serve_us", serve, n),
            metric("core.service.fanout_overhead_us", serve - ideal),
            metric("core.service.fanout_efficiency", ideal / serve),
            metric_n("core.component.execute_sum_us", execute_sum, n),
            metric_n(
                "core.component.execute_max_us",
                stats::median(&mut execute_max_us),
                n,
            ),
            metric_n("adapter.stage1_us", stats::median(&mut stage1_us), n),
            metric_n("core.rank.us", stats::median(&mut rank_us), n),
            metric_n("adapter.stage2_us", stats::median(&mut stage2_us), n),
            metric_n("adapter.stage2_ns_per_row", ns_per_row, n),
            metric_n("adapter.compose_us", compose, n),
            metric_n(
                "adapter.exact_us",
                stats::median(&mut exact_us),
                exact_us.len(),
            ),
            metric_n("core.rank.sets_ranked", stats::median(&mut sets_ranked), n),
            metric_n(
                "core.engine.stage2_sets",
                stats::median(&mut stage2_sets),
                n,
            ),
            metric_n(
                "core.engine.stage2_rows",
                stats::median(&mut stage2_rows),
                n,
            ),
            metric(
                "core.engine.sets_skipped_share",
                skipped as f64 / offered.max(1) as f64,
            ),
            metric("core.engine.reconcile_ratio", reconcile),
            metric(
                "core.pool.reuse_share",
                reuses as f64 / (n * components.len()) as f64,
            ),
            metric("core.clock.reads_per_req", reads as f64 / n as f64),
            metric(
                "proc.alloc_count_per_req",
                (allocs_after - allocs_before) as f64 / n as f64,
            ),
            metric(
                "proc.alloc_bytes_per_req",
                (bytes_after - bytes_before) as f64 / n as f64,
            ),
        ];

        metrics.extend(self.batches(tracer));

        if let Some(round_trip) = round_trip {
            let mut trips = Vec::with_capacity(n);
            for req in self.requests() {
                let ((), us) = tracer.timed("server.round_trip", None, || round_trip(req));
                trips.push(us);
            }
            metrics.push(metric_n(
                "server.overhead_us",
                stats::median(&mut trips) - serve,
                n,
            ));
        }

        if self.strict && !RECONCILE_RANGE.contains(&reconcile) {
            return Err(format!(
                "core.engine.reconcile_ratio {reconcile:.3} outside {RECONCILE_RANGE:?}: stage timings do not add up to execute"
            ));
        }
        Ok(metrics)
    }

    /// Level D: what batching buys, per request, at width 8 and at width
    /// 64 with and without the stream's duplicates.
    fn batches(&self, tracer: &mut Tracer) -> Vec<Metric> {
        let pick = |idx: &[u32]| -> Vec<S::Request> {
            idx.iter().map(|&i| self.pool[i as usize].clone()).collect()
        };
        let mut time = |name: &'static str, batches: Vec<Vec<S::Request>>| -> (f64, usize) {
            let mut per_req = Vec::with_capacity(batches.len());
            for batch in &batches {
                let (resps, us) =
                    tracer.timed(name, None, || self.service.serve_batch(batch, &self.policy));
                std::hint::black_box(&resps);
                per_req.push(us / batch.len() as f64);
            }
            let n = per_req.len();
            (stats::median(&mut per_req), n)
        };

        let eights: Vec<Vec<S::Request>> = self.stream.chunks_exact(8).take(16).map(pick).collect();
        let distinct: Vec<u32> = (0..self.pool.len().min(256) as u32).collect();
        let uniques: Vec<Vec<S::Request>> = distinct.chunks_exact(64).map(pick).collect();
        let dup_idx: Vec<&[u32]> = self.stream.chunks_exact(64).take(4).collect();
        let dup_share = stats::mean(
            &dup_idx
                .iter()
                .map(|c| gen::dup_share(c))
                .collect::<Vec<_>>(),
        );
        let dups: Vec<Vec<S::Request>> = dup_idx.into_iter().map(pick).collect();

        let mut out = Vec::new();
        for (name, span, batches) in [
            (
                "core.service.serve_batch8_us_per_req",
                "core.service.serve_batch8",
                eights,
            ),
            (
                "core.service.serve_batch64_unique_us_per_req",
                "core.service.serve_batch64_unique",
                uniques,
            ),
            (
                "core.service.serve_batch64_dup_us_per_req",
                "core.service.serve_batch64_dup",
                dups,
            ),
        ] {
            if batches.is_empty() {
                continue;
            }
            let (us, n) = time(span, batches);
            out.push(metric_n(name, us, n));
        }
        out.push(metric("core.service.batch_dup_share", dup_share));
        out
    }
}
