//! The discrete-event cluster simulator.
//!
//! Substitution note (README § "What is simulated, what runs for real"):
//! stands in for the paper's 30-node Xen cluster running 110 VMs under
//! JStorm with co-located Hadoop jobs. The model keeps exactly the
//! mechanisms the paper identifies as the sources of component tail
//! latency:
//!
//! * **fan-out** — every request spawns one sub-operation on each of the
//!   `n_components` parallel components;
//! * **queueing** — each component instance is a FIFO queue + server
//!   ("performance variance is significantly amplified by request queueing
//!   delays");
//! * **heterogeneity** — per-instance speed factors (hardware/software
//!   variance across VMs);
//! * **interference** — a time-varying slowdown per node driven by the
//!   SWIM-like MapReduce trace ("frequently changing performance
//!   interference from co-located workloads").
//!
//! Service times come from the [`CostModel`]; what work a technique does
//! per sub-operation is encoded in [`Technique`].

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use at_workloads::zipf::normal;
use at_workloads::{InterferenceTrace, MapReduceConfig};

use crate::cost::CostModel;
use crate::metrics::{BucketedLatencies, LatencyRecorder};

/// Tail-latency mitigation technique under test (§4.1 "compared
/// techniques").
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Technique {
    /// No mitigation: exact processing, plain FIFO.
    Basic,
    /// Request reissue: when a sub-operation has been outstanding longer
    /// than the `trigger_percentile` of its class's expected latency, a
    /// replica is dispatched to the partition's backup instance and the
    /// quicker of the two is used.
    Reissue {
        /// Percentile of expected latency that triggers the replica
        /// (paper: 95.0).
        trigger_percentile: f64,
    },
    /// Partial execution: exact processing, but the composer only waits
    /// `deadline_s`; sub-operations finishing later are skipped.
    Partial {
        /// Composer deadline in seconds (paper: 0.1).
        deadline_s: f64,
    },
    /// AccuracyTrader: process the synopsis, then improve with ranked sets
    /// while the deadline allows (Algorithm 1 under the cost model).
    AccuracyTrader {
        /// `l_spe` in seconds (paper: 0.1).
        deadline_s: f64,
        /// `i_max` (None = all sets).
        imax: Option<usize>,
    },
}

/// Cluster-level simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Parallel processing components (paper: 108).
    pub n_components: usize,
    /// Physical nodes the instances map onto (paper: 30).
    pub n_nodes: usize,
    /// Log-normal sigma of per-instance hardware speed factors.
    pub hetero_sigma: f64,
    /// Unloaded compute costs.
    pub cost: CostModel,
    /// Co-located MapReduce interference configuration.
    pub interference: MapReduceConfig,
    /// Record detailed per-request state every k-th request (0 = never);
    /// the accuracy evaluations replay these against the real services.
    pub sample_every: usize,
    /// Width of the latency-series buckets (s); Figure 5 uses one-minute
    /// sessions, compressed windows use proportionally smaller buckets.
    pub bucket_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n_components: 108,
            n_nodes: 30,
            hetero_sigma: 0.15,
            cost: CostModel::default(),
            interference: MapReduceConfig::default(),
            sample_every: 0,
            bucket_s: 60.0,
            seed: 0xC10C,
        }
    }
}

/// Detailed state of one sampled request, for accuracy replay.
#[derive(Clone, Debug)]
pub struct RequestSample {
    /// Index into the arrival vector.
    pub request_idx: usize,
    /// Submission time (s).
    pub arrival_s: f64,
    /// AccuracyTrader: ranked sets processed per component.
    pub sets_processed: Option<Vec<usize>>,
    /// Partial execution: whether each component beat the deadline.
    pub made_deadline: Option<Vec<bool>>,
}

/// What one simulation run produced.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Every sub-operation's latency (min over replicas for reissue).
    pub latencies: LatencyRecorder,
    /// The same latencies bucketed per minute of the run.
    pub bucketed: BucketedLatencies,
    /// Sampled per-request detail (per [`SimConfig::sample_every`]).
    pub samples: Vec<RequestSample>,
    /// Requests simulated.
    pub n_requests: usize,
}

/// Pending sub-operation arrival event.
#[derive(Clone, Copy, Debug)]
struct Event {
    time: f64,
    seq: u64,
    request: u32,
    component: u32,
    is_replica: bool,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("NaN event time")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Simulate one run: `arrivals` are request submission times (seconds,
/// sorted ascending); every request fans out to all components.
///
/// # Panics
/// Panics if the config is inconsistent or arrivals are unsorted.
pub fn simulate(arrivals: &[f64], technique: Technique, cfg: &SimConfig) -> SimResult {
    assert!(cfg.n_components > 0 && cfg.n_nodes > 0, "empty cluster");
    cfg.cost.validate().expect("invalid cost model");
    assert!(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "arrivals must be sorted"
    );
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    let horizon = arrivals.last().copied().unwrap_or(0.0) + 3600.0;
    let interference = InterferenceTrace::generate(
        MapReduceConfig {
            n_nodes: cfg.n_nodes,
            ..cfg.interference
        },
        horizon,
    );

    // Instance layout: primaries 0..n, backups n..2n (reissue targets).
    let n = cfg.n_components;
    let n_instances = 2 * n;
    let instance_node = |inst: usize| -> usize {
        if inst < n {
            inst % cfg.n_nodes
        } else {
            (inst - n + cfg.n_nodes / 2) % cfg.n_nodes
        }
    };
    let hetero: Vec<f64> = (0..n_instances)
        .map(|_| normal(&mut rng, 0.0, cfg.hetero_sigma).exp())
        .collect();

    // Reissue trigger: the p-th percentile of the sub-op latency class,
    // estimated from unloaded service-time draws (queueing excluded, as
    // "expected latency" is a per-class constant in the paper's setup).
    let trigger_delay = match technique {
        Technique::Reissue { trigger_percentile } => {
            let mut draws = Vec::with_capacity(4000);
            for i in 0..4000usize {
                let inst = i % n;
                let t = (i as f64 * 0.137) % horizon.max(1.0);
                let slow = interference.slowdown(instance_node(inst), t)
                    * hetero[inst]
                    * normal(&mut rng, 0.0, cfg.cost.jitter_sigma).exp();
                draws.push(cfg.cost.exact_s * slow);
            }
            Some(at_linalg::stats::percentile(&draws, trigger_percentile))
        }
        _ => None,
    };

    let mut heap: BinaryHeap<Event> = BinaryHeap::new();
    let mut seq = 0u64;
    for (req, &a) in arrivals.iter().enumerate() {
        for comp in 0..n as u32 {
            heap.push(Event {
                time: a,
                seq,
                request: req as u32,
                component: comp,
                is_replica: false,
            });
            seq += 1;
        }
    }

    let duration = arrivals.last().copied().unwrap_or(0.0).max(cfg.bucket_s);
    let mut server_free = vec![0.0f64; n_instances];
    let mut latencies = LatencyRecorder::new();
    let mut bucketed = BucketedLatencies::new(
        cfg.bucket_s,
        (duration / cfg.bucket_s).ceil().max(1.0) as usize,
    );
    // (request, component) -> primary completion, for reissue mins.
    let mut primary_done: HashMap<(u32, u32), f64> = HashMap::new();

    let sampled_idx: std::collections::HashSet<usize> = if cfg.sample_every > 0 {
        (0..arrivals.len()).step_by(cfg.sample_every).collect()
    } else {
        Default::default()
    };
    let mut sample_map: HashMap<usize, RequestSample> = sampled_idx
        .iter()
        .map(|&i| {
            (
                i,
                RequestSample {
                    request_idx: i,
                    arrival_s: arrivals[i],
                    sets_processed: match technique {
                        Technique::AccuracyTrader { .. } => Some(vec![0; n]),
                        _ => None,
                    },
                    made_deadline: match technique {
                        Technique::Partial { .. } => Some(vec![false; n]),
                        _ => None,
                    },
                },
            )
        })
        .collect();

    while let Some(ev) = heap.pop() {
        let a = arrivals[ev.request as usize];
        let inst = if ev.is_replica {
            n + ev.component as usize
        } else {
            ev.component as usize
        };
        let start = server_free[inst].max(ev.time);
        let slowdown = interference.slowdown(instance_node(inst), start)
            * hetero[inst]
            * normal(&mut rng, 0.0, cfg.cost.jitter_sigma).exp();

        let (service, sets) = match technique {
            Technique::Basic | Technique::Reissue { .. } | Technique::Partial { .. } => {
                (cfg.cost.exact_s * slowdown, 0usize)
            }
            Technique::AccuracyTrader { deadline_s, imax } => {
                // Wall-clock budget left once service begins; the synopsis
                // pass always runs (the "slightly longer than required"
                // floor of §4.3).
                let wall_budget = (a + deadline_s - start).max(0.0);
                let mut k = cfg.cost.sets_within(wall_budget / slowdown);
                if let Some(m) = imax {
                    k = k.min(m);
                }
                (cfg.cost.accuracy_trader_s(k) * slowdown, k)
            }
        };
        let completion = start + service;
        server_free[inst] = completion;
        let latency = completion - a;

        match technique {
            Technique::Reissue { .. } => {
                let key = (ev.request, ev.component);
                if ev.is_replica {
                    let primary = primary_done
                        .remove(&key)
                        .expect("replica without pending primary");
                    let final_latency = latency.min(primary - a);
                    latencies.record(final_latency);
                    bucketed.record(a, final_latency);
                } else {
                    let trigger = trigger_delay.expect("reissue has a trigger");
                    if latency > trigger {
                        // Straggler: dispatch the replica at the trigger
                        // instant; the final latency is the quicker one.
                        primary_done.insert(key, completion);
                        heap.push(Event {
                            time: a + trigger,
                            seq,
                            request: ev.request,
                            component: ev.component,
                            is_replica: true,
                        });
                        seq += 1;
                    } else {
                        latencies.record(latency);
                        bucketed.record(a, latency);
                    }
                }
            }
            _ => {
                latencies.record(latency);
                bucketed.record(a, latency);
            }
        }

        if let Some(sample) = sample_map.get_mut(&(ev.request as usize)) {
            if !ev.is_replica {
                if matches!(technique, Technique::AccuracyTrader { .. }) {
                    if let Some(v) = sample.sets_processed.as_mut() {
                        v[ev.component as usize] = sets;
                    }
                }
                if let (Technique::Partial { deadline_s }, Some(v)) =
                    (technique, sample.made_deadline.as_mut())
                {
                    v[ev.component as usize] = latency <= deadline_s;
                }
            }
        }
    }

    let mut samples: Vec<RequestSample> = sample_map.into_values().collect();
    samples.sort_by_key(|s| s.request_idx);
    SimResult {
        latencies,
        bucketed,
        samples,
        n_requests: arrivals.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_workloads::poisson_arrivals;

    fn small_cfg(seed: u64) -> SimConfig {
        SimConfig {
            n_components: 24,
            n_nodes: 8,
            sample_every: 50,
            seed,
            ..SimConfig::default()
        }
    }

    fn arrivals(rate: f64) -> Vec<f64> {
        poisson_arrivals(rate, 60.0, 42)
    }

    #[test]
    fn basic_light_load_is_fast() {
        let r = simulate(&arrivals(5.0), Technique::Basic, &small_cfg(1));
        assert!(!r.latencies.is_empty());
        // Light load: median near the unloaded exact cost.
        let med = r.latencies.percentile_ms(50.0);
        assert!(med < 150.0, "median {med} ms too slow for light load");
    }

    #[test]
    fn basic_saturates_under_heavy_load() {
        let light = simulate(&arrivals(5.0), Technique::Basic, &small_cfg(1));
        let heavy = simulate(&arrivals(90.0), Technique::Basic, &small_cfg(1));
        assert!(
            heavy.latencies.p999_ms() > light.latencies.p999_ms() * 20.0,
            "heavy {} vs light {}",
            heavy.latencies.p999_ms(),
            light.latencies.p999_ms()
        );
    }

    #[test]
    fn reissue_beats_basic_at_light_load() {
        let basic = simulate(&arrivals(5.0), Technique::Basic, &small_cfg(3));
        let reissue = simulate(
            &arrivals(5.0),
            Technique::Reissue {
                trigger_percentile: 95.0,
            },
            &small_cfg(3),
        );
        assert!(
            reissue.latencies.p999_ms() < basic.latencies.p999_ms(),
            "reissue {} !< basic {}",
            reissue.latencies.p999_ms(),
            basic.latencies.p999_ms()
        );
    }

    #[test]
    fn accuracy_trader_tail_stays_near_deadline() {
        for rate in [5.0, 60.0, 100.0] {
            let r = simulate(
                &arrivals(rate),
                Technique::AccuracyTrader {
                    deadline_s: 0.1,
                    imax: None,
                },
                &small_cfg(4),
            );
            let p999 = r.latencies.p999_ms();
            assert!(
                p999 < 300.0,
                "rate {rate}: AT tail {p999} ms should stay near the 100 ms deadline"
            );
        }
    }

    #[test]
    fn accuracy_trader_beats_basic_under_load() {
        let basic = simulate(&arrivals(80.0), Technique::Basic, &small_cfg(5));
        let at = simulate(
            &arrivals(80.0),
            Technique::AccuracyTrader {
                deadline_s: 0.1,
                imax: None,
            },
            &small_cfg(5),
        );
        assert!(
            at.latencies.p999_ms() * 10.0 < basic.latencies.p999_ms(),
            "AT {} vs basic {}",
            at.latencies.p999_ms(),
            basic.latencies.p999_ms()
        );
    }

    #[test]
    fn at_processes_fewer_sets_under_load() {
        let cfg = small_cfg(6);
        let mean_sets = |rate: f64| {
            let r = simulate(
                &arrivals(rate),
                Technique::AccuracyTrader {
                    deadline_s: 0.1,
                    imax: None,
                },
                &cfg,
            );
            let mut total = 0usize;
            let mut count = 0usize;
            for s in &r.samples {
                for &k in s.sets_processed.as_ref().unwrap() {
                    total += k;
                    count += 1;
                }
            }
            total as f64 / count as f64
        };
        let light = mean_sets(5.0);
        let heavy = mean_sets(100.0);
        assert!(
            heavy < light,
            "heavier load must leave budget for fewer sets: light {light} heavy {heavy}"
        );
        assert!(light > 0.0);
    }

    #[test]
    fn partial_misses_more_deadlines_under_load() {
        let cfg = small_cfg(7);
        let made_frac = |rate: f64| {
            let r = simulate(
                &arrivals(rate),
                Technique::Partial { deadline_s: 0.1 },
                &cfg,
            );
            let mut made = 0usize;
            let mut total = 0usize;
            for s in &r.samples {
                for &m in s.made_deadline.as_ref().unwrap() {
                    made += usize::from(m);
                    total += 1;
                }
            }
            made as f64 / total as f64
        };
        let light = made_frac(5.0);
        let heavy = made_frac(100.0);
        assert!(
            light > heavy,
            "deadline hit rate must fall with load: {light} -> {heavy}"
        );
        assert!(
            light > 0.5,
            "light load should mostly make the deadline: {light}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate(&arrivals(20.0), Technique::Basic, &small_cfg(9));
        let b = simulate(&arrivals(20.0), Technique::Basic, &small_cfg(9));
        assert_eq!(a.latencies.samples(), b.latencies.samples());
    }

    #[test]
    fn every_subop_recorded() {
        let arr = arrivals(10.0);
        let cfg = small_cfg(10);
        let r = simulate(&arr, Technique::Basic, &cfg);
        assert_eq!(r.latencies.len(), arr.len() * cfg.n_components);
        let r = simulate(
            &arr,
            Technique::Reissue {
                trigger_percentile: 95.0,
            },
            &cfg,
        );
        // Reissue still records exactly one latency per (request, component).
        assert_eq!(r.latencies.len(), arr.len() * cfg.n_components);
    }

    #[test]
    fn empty_arrivals() {
        let r = simulate(&[], Technique::Basic, &small_cfg(11));
        assert_eq!(r.n_requests, 0);
        assert!(r.latencies.is_empty());
    }
}
