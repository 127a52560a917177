//! Metric names, units and bounds (the one table `BENCHMARK.json` is
//! generated from), the run stamp, and how a run's numbers are printed.

use std::fmt::Write as _;
use std::path::Path;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Bounds are set from the run-to-run spread measured on the 2-core box
/// this was written on (see README, Results): each is at least three
/// times the spread of a quiet spell and above that of a noisy one.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.10),
    e2e("throughput_rps", "1/s", true, 0.25),
    e2e("p50_ms", "ms", false, 0.25),
    e2e("p99_ms", "ms", false, 0.25),
    e2e("within_limit_share", "share", true, 0.15),
    e2e("accuracy_pct", "%", true, 0.01),
    e2e("mean_coverage", "share", true, 0.25),
];

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// A per-layer metric `(name, unit, higher_is_better)`. Every traced run
/// reports all of them; one that a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    // at-synopsis (build includes at-rtree)
    ("synopsis.build.reduce_s", "s", false),
    ("synopsis.build.organize_s", "s", false),
    ("synopsis.build.aggregate_s", "s", false),
    ("synopsis.points_per_component", "count", false),
    ("synopsis.mean_group_size", "count", false),
    ("synopsis.update.rows_per_s", "1/s", true),
    ("synopsis.update.us_per_row", "us", false),
    ("synopsis.update.regenerated_per_row", "count", false),
    // at-recommender / at-search hooks (at-linalg kernels read through them)
    ("adapter.stage1_us", "us", false),
    ("adapter.stage2_us", "us", false),
    ("adapter.stage2_ns_per_row", "ns", false),
    ("adapter.exact_us", "us", false),
    ("adapter.compose_us", "us", false),
    // at-core engine and ranking
    ("core.engine.stage2_sets", "count", false),
    ("core.engine.stage2_rows", "count", false),
    ("core.engine.sets_skipped_share", "share", false),
    ("core.engine.reconcile_ratio", "ratio", false),
    ("core.rank.us", "us", false),
    ("core.rank.sets_ranked", "count", false),
    // at-core component and fan-out service
    ("core.component.execute_sum_us", "us", false),
    ("core.component.execute_max_us", "us", false),
    ("core.service.serve_us", "us", false),
    ("core.service.fanout_overhead_us", "us", false),
    ("core.service.fanout_efficiency", "share", true),
    ("core.service.serve_batch8_us_per_req", "us", false),
    ("core.service.serve_batch64_unique_us_per_req", "us", false),
    ("core.service.serve_batch64_dup_us_per_req", "us", false),
    ("core.service.batch_dup_share", "share", true),
    // at-core pool and clock, and the process
    ("core.pool.reuse_share", "share", true),
    ("core.clock.reads_per_req", "count", false),
    ("proc.alloc_count_per_req", "count", false),
    ("proc.alloc_bytes_per_req", "B", false),
    // at-server
    ("server.submit_us", "us", false),
    ("server.fulfil_wake_us", "us", false),
    ("server.overhead_us", "us", false),
    ("server.queue_wait_mean_ms", "ms", false),
    ("server.queue_wait_max_ms", "ms", false),
    ("server.mean_batch_size", "count", true),
    ("server.batches_dispatched", "count", false),
    ("server.max_queue_depth", "count", false),
    ("server.rejected", "count", false),
    ("server.shed", "count", false),
    ("server.dispatcher_restarts", "count", false),
    // at-server admission control
    ("server.control.degraded_share", "share", false),
    ("server.control.shed_share", "share", false),
    ("server.control.level_max", "count", false),
    ("server.control.observe_calls", "count", false),
    // at-server sharding
    ("server.shard.stolen_share", "share", false),
    ("server.shard.imbalance", "ratio", false),
    ("server.shard.home_skew", "ratio", false),
    // checks, generator validity and tracing cost
    ("check.failed_share", "share", false),
    ("check.accuracy_loss_pct", "%", false),
    ("gen.lag_p99_ms", "ms", false),
    ("gen.void_windows", "count", false),
    ("gen.offered_rps", "1/s", false),
    ("gen.distinct_requests", "count", false),
    ("gen.dup_share", "share", false),
    ("trace.overhead_pct", "%", false),
];

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "rec_deadline_open",
        "open-loop Poisson at 1.2x full-work capacity under Deadline{20ms} + admission ladder: the paper's scenario, where faster code should buy accuracy at an unchanged tail",
    ),
    (
        "rec_budget_sharded",
        "closed loop, 128 in flight on 2 hash-affinity workers under Budgeted{17}: throughput path (routing, collapse, tiled batch stage 1, Pearson stage 2); clock and admission bypassed",
    ),
    (
        "search_small_seq",
        "one request in flight on the small search deployment: the other adapter at the scale where submit, wake and per-call fan-out are most of the time; batching and collapse bypassed",
    ),
    (
        "rec_update_mix",
        "32 read batches of 8 alternating with a stop-the-world update round on a service held by value: writes beside reads on the same data layer, the baseline live maintenance must beat",
    ),
];

/// The `BENCHMARK.json` this table describes; a unit test holds the
/// committed file to it.
pub fn benchmark_json(run_seconds: u64) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, higher)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better(*higher)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// One measured number. `samples` is how many observations it summarises.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: Option<usize>,
}

pub fn metric(name: &'static str, value: f64) -> Metric {
    Metric {
        name,
        value,
        samples: None,
    }
}

pub fn metric_n(name: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        value,
        samples: Some(samples),
    }
}

/// Where and how a run was made; printed with, and written into, every
/// output so no number travels without its machine and scale.
#[derive(Clone, Debug)]
pub struct Stamp {
    pub workload: String,
    pub traced: bool,
    pub cores: usize,
    pub commit: String,
    pub rustc: String,
    pub scale: String,
    pub seed: u64,
    pub window_s: f64,
}

impl Stamp {
    pub fn json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"traced\": {}, \"cores\": {}, \"commit\": \"{}\", \"rustc\": \"{}\", \"scale\": \"{}\", \"seed\": {}, \"window_s\": {}}}",
            self.workload, self.traced, self.cores, self.commit, self.rustc, self.scale, self.seed, self.window_s
        )
    }
}

/// First line of `program args...`'s standard output, or "unknown" (the
/// driver's checkout is not a git repository, for one).
pub fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A finished run, ready to print.
pub struct Results {
    pub stamp: Stamp,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Results {
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Everything measured, in table order, as `(name, unit, value,
    /// samples, end_to_end)`. A traced run lists every per-layer metric,
    /// reading 0 where the workload does not exercise the layer.
    fn rows(&self) -> Result<Vec<Row>, String> {
        let mut out = Vec::new();
        for spec in END_TO_END {
            let m = self
                .get(spec.name)
                .ok_or_else(|| format!("end-to-end metric {} was not measured", spec.name))?;
            out.push((spec.name, spec.unit, m.value, m.samples, true));
        }
        for &(name, unit, _) in PER_LAYER {
            match self.get(name) {
                Some(m) => out.push((name, unit, m.value, m.samples, false)),
                None if self.stamp.traced => out.push((name, unit, 0.0, None, false)),
                None => {}
            }
        }
        if let Some(m) = self
            .metrics
            .iter()
            .find(|m| !out.iter().any(|r| r.0 == m.name))
        {
            return Err(format!("metric {} is not in the metric table", m.name));
        }
        if let Some((name, ..)) = out.iter().find(|r| !r.2.is_finite()) {
            return Err(format!("metric {name} is not a finite number"));
        }
        Ok(out)
    }

    /// Print the stamped, human-readable summary and then the driver's
    /// one-line JSON object (every end-to-end metric untraced, every
    /// per-layer metric traced); also leave the full result in `out_dir`.
    pub fn emit(&self, out_dir: &Path) -> Result<(), String> {
        let rows = self.rows()?;
        println!("# {}", self.stamp.json());
        println!(
            "# correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        let mut line = String::new();
        let mut file = String::new();
        for (name, unit, value, samples, end_to_end) in &rows {
            let n = samples.map_or(String::new(), |n| format!("n={n}"));
            println!("{name:<48} {value:>16.6} {unit:<6} {n}");
            if *end_to_end != self.stamp.traced {
                let sep = if line.is_empty() { "" } else { ", " };
                let _ = write!(
                    line,
                    "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                );
            }
            let sep = if file.is_empty() { "" } else { "," };
            let samples = samples.map_or("null".to_string(), |n| n.to_string());
            let _ = write!(
                file,
                "{sep}\n    \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\", \"samples\": {samples}}}"
            );
        }
        let head = format!(
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}",
            self.correct, self.attempted, self.failed
        );
        let kind = if self.stamp.traced { "layers" } else { "e2e" };
        let path = out_dir.join(format!("{}.{kind}.json", self.stamp.workload));
        let body = format!(
            "{{\n  \"stamp\": {},\n  {head},\n  \"metrics\": {{{file}\n  }}\n}}\n",
            self.stamp.json()
        );
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("{{{head}, \"metrics\": {{{line}}}}}");
        Ok(())
    }
}

type Row = (&'static str, &'static str, f64, Option<usize>, bool);

/// Read one metric's value back out of a result file written by
/// [`Results::emit`] (the only JSON this program ever parses is its own).
pub fn read_metric(text: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &text[text.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Read a stamp field (`seed`, `window_s`, ...) back as text.
pub fn read_stamp_field(text: &str, field: &str) -> Option<String> {
    let key = format!("\"{field}\": ");
    let rest = &text[text.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"').to_string())
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_metric_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let seconds: u64 = read_stamp_field(&committed, "run_seconds")
            .and_then(|s| s.parse().ok())
            .expect("run_seconds");
        assert_eq!(committed, benchmark_json(seconds));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    }

    #[test]
    fn results_round_trip_through_their_own_file_format() {
        let text = "{\n  \"stamp\": {\"workload\": \"w\", \"seed\": 7, \"window_s\": 10},\n  \"metrics\": {\n    \"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\", \"samples\": 3},\n    \"p99_ms\": {\"value\": 9, \"unit\": \"ms\", \"samples\": null}\n  }\n}\n";
        assert_eq!(read_metric(text, "p50_ms"), Some(1.25));
        assert_eq!(read_metric(text, "p99_ms"), Some(9.0));
        assert_eq!(read_metric(text, "absent"), None);
        assert_eq!(read_stamp_field(text, "seed").as_deref(), Some("7"));
        assert_eq!(read_stamp_field(text, "workload").as_deref(), Some("w"));
    }
}
