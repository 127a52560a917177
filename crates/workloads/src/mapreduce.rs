//! Co-located MapReduce interference trace (SWIM / BigDataBench-MT
//! substitute).
//!
//! Substitution note (README § "What is simulated, what runs for real"):
//! the paper co-locates the service with Hadoop jobs replayed from a
//! Facebook trace — CPU-intensive WordCount and I/O-intensive Sort, input
//! sizes 1 MB–10 GB, mostly short-running. We generate an equivalent
//! synthetic trace: per-node Poisson job arrivals, log-uniform input sizes,
//! duration and slowdown derived from size and kind. The simulator
//! multiplies a component's service time by the active slowdown of its node
//! — the same mechanism ("frequently changing performance interference")
//! that produces the paper's latency variance.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::zipf::exponential;

/// Kind of co-located batch job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// WordCount-like: burns CPU, strong interference.
    CpuIntensive,
    /// Sort-like: I/O bound, milder CPU interference.
    IoIntensive,
}

/// One batch job occupying a node for a time interval.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// Node the job runs on.
    pub node: usize,
    /// Job kind.
    pub kind: JobKind,
    /// Input size in MB (1..=10_240, log-uniform).
    pub input_mb: f64,
    /// Start time (s).
    pub start: f64,
    /// Duration (s).
    pub duration: f64,
    /// Multiplicative service-time slowdown while active (> 1).
    pub slowdown: f64,
}

/// Interference-trace generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct MapReduceConfig {
    /// Nodes in the cluster.
    pub n_nodes: usize,
    /// Mean batch-job arrivals per node per minute.
    pub jobs_per_node_minute: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MapReduceConfig {
    fn default() -> Self {
        MapReduceConfig {
            n_nodes: 30,
            jobs_per_node_minute: 1.0,
            seed: 0x5A1D,
        }
    }
}

/// A generated trace: per-node job intervals, queryable for the total
/// slowdown at any instant.
#[derive(Clone, Debug)]
pub struct InterferenceTrace {
    duration: f64,
    /// Per node, jobs sorted by start time.
    per_node: Vec<Vec<Job>>,
}

impl InterferenceTrace {
    /// Generate a trace covering `[0, duration)` seconds.
    pub fn generate(config: MapReduceConfig, duration: f64) -> Self {
        assert!(config.n_nodes > 0, "need >= 1 node");
        assert!(duration >= 0.0);
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let rate_per_sec = config.jobs_per_node_minute / 60.0;
        let mut per_node = Vec::with_capacity(config.n_nodes);
        for node in 0..config.n_nodes {
            let mut jobs = Vec::new();
            if rate_per_sec > 0.0 {
                let mut t = 0.0;
                loop {
                    t += exponential(&mut rng, rate_per_sec);
                    if t >= duration {
                        break;
                    }
                    jobs.push(Self::sample_job(&mut rng, node, t));
                }
            }
            per_node.push(jobs);
        }
        InterferenceTrace { duration, per_node }
    }

    fn sample_job(rng: &mut SmallRng, node: usize, start: f64) -> Job {
        let kind = if rng.random::<f64>() < 0.5 {
            JobKind::CpuIntensive
        } else {
            JobKind::IoIntensive
        };
        // Log-uniform input size: 1 MB .. 10 GB.
        let log_mb = rng.random_range(0.0..4.01); // 10^0 .. 10^4 MB
        let input_mb = 10f64.powf(log_mb);
        // Duration grows sublinearly with input (parallel map tasks):
        // 1 MB ≈ 2 s, 10 GB ≈ 250 s — "short-running" batch jobs.
        let duration = 2.0 * (input_mb).powf(0.52);
        // Slowdown: CPU jobs interfere more; bigger inputs slightly more.
        let base = match kind {
            JobKind::CpuIntensive => 1.18,
            JobKind::IoIntensive => 1.08,
        };
        let slowdown = base + 0.03 * log_mb + rng.random_range(0.0..0.08);
        Job {
            node,
            kind,
            input_mb,
            start,
            duration,
            slowdown,
        }
    }

    /// Trace horizon in seconds.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.per_node.len()
    }

    /// All jobs of `node`, sorted by start.
    pub fn jobs(&self, node: usize) -> &[Job] {
        &self.per_node[node]
    }

    /// Multiplicative slowdown on `node` at time `t`: the product of all
    /// active jobs' slowdowns, capped at 1.4× (a node can only get so slow
    /// before the OS scheduler's fair time-slicing bounds the damage).
    pub fn slowdown(&self, node: usize, t: f64) -> f64 {
        let jobs = &self.per_node[node];
        // Jobs are sorted by start; only those with start <= t can be live.
        let hi = jobs.partition_point(|j| j.start <= t);
        let mut s = 1.0;
        for j in &jobs[..hi] {
            if t < j.start + j.duration {
                s *= j.slowdown;
            }
        }
        s.min(1.4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> InterferenceTrace {
        InterferenceTrace::generate(MapReduceConfig::default(), 3600.0)
    }

    #[test]
    fn jobs_are_sorted_and_bounded() {
        let t = trace();
        assert_eq!(t.n_nodes(), 30);
        for node in 0..30 {
            let jobs = t.jobs(node);
            for w in jobs.windows(2) {
                assert!(w[0].start <= w[1].start);
            }
            for j in jobs {
                assert!((0.0..3600.0).contains(&j.start));
                assert!(j.duration > 0.0);
                assert!(j.slowdown > 1.0);
                assert!((1.0..=10_240.0).contains(&j.input_mb));
            }
        }
    }

    #[test]
    fn arrival_rate_roughly_matches() {
        let t = trace();
        let total: usize = (0..30).map(|n| t.jobs(n).len()).sum();
        // 1 job/node/minute * 60 minutes * 30 nodes = 1800 expected.
        assert!(
            (total as f64 - 1800.0).abs() < 1800.0 * 0.15,
            "total jobs {total}"
        );
    }

    #[test]
    fn slowdown_at_least_one_and_capped() {
        let t = trace();
        for node in [0usize, 7, 29] {
            for i in 0..100 {
                let s = t.slowdown(node, i as f64 * 36.0);
                assert!((1.0..=1.4).contains(&s), "slowdown {s}");
            }
        }
    }

    #[test]
    fn slowdown_reflects_active_jobs() {
        let t = trace();
        // Find a job and probe inside/outside its interval.
        let job = t.jobs(0).first().expect("node 0 has jobs");
        let inside = t.slowdown(0, job.start + job.duration * 0.5);
        assert!(inside >= job.slowdown.min(1.4) - 1e-9);
        let before = t.slowdown(0, (job.start - 1.0).max(0.0));
        // Before the first job of the node, nothing is active.
        if job.start >= 1.0 {
            assert_eq!(before, 1.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = trace();
        let b = trace();
        assert_eq!(a.jobs(3).len(), b.jobs(3).len());
        let c = InterferenceTrace::generate(
            MapReduceConfig {
                seed: 77,
                ..MapReduceConfig::default()
            },
            3600.0,
        );
        // Different seed, almost surely different job count on some node.
        let differs = (0..30).any(|n| a.jobs(n).len() != c.jobs(n).len());
        assert!(differs);
    }

    #[test]
    fn zero_rate_trace_is_quiet() {
        let t = InterferenceTrace::generate(
            MapReduceConfig {
                jobs_per_node_minute: 0.0,
                ..MapReduceConfig::default()
            },
            100.0,
        );
        for node in 0..t.n_nodes() {
            assert_eq!(t.slowdown(node, 50.0), 1.0);
        }
    }
}
