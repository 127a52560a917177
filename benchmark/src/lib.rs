//! The repository's benchmark: four workloads over AccuracyTrader's
//! serving stack, each reporting latency *with* its accuracy cost, plus a
//! traced re-run that breaks a request down layer by layer from outside.
//! See `README.md` beside this crate for names, bounds and how to run.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

pub mod adapter;
pub mod alloc;
pub mod deploy;
pub mod gen;
pub mod replay;
pub mod report;
pub mod server_stats;
pub mod stats;
pub mod trace;
pub mod window;
pub mod workloads;

use report::{read_metric, read_stamp_field, Results, Stamp, END_TO_END, WORKLOADS};
use workloads::{Opts, Outcome};

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

const USAGE: &str = "usage: run.sh [--workload <name>|all] [--seed <u64>] [--seconds <n>] \
[--trace 0|1] [--smoke] [--repeat <n>] [--out <dir>]
  with --workload <name>: one run, as the driver calls it; the last stdout line is the result JSON
  without (or 'all'): every workload untraced then traced; --repeat 2 runs the set twice and
  compares each end-to-end metric against its bound; --smoke uses 2 s windows on small deployments";

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    repeat: usize,
    out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        seed: 1,
        seconds: 15.0,
        traced: false,
        smoke: false,
        repeat: 1,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |what: &str, v: &str| format!("{what}: cannot read {v:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| bad("--seed", v))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = v.parse().map_err(|_| bad("--seconds", v))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err(bad("--seconds", v));
                }
            }
            "--trace" => {
                let v = value()?;
                cli.traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace", v)),
                };
            }
            "--repeat" => {
                let v = value()?;
                cli.repeat = v.parse().map_err(|_| bad("--repeat", v))?;
            }
            "--out" => cli.out_dir = PathBuf::from(value()?),
            "--smoke" => cli.smoke = true,
            "--print-benchmark-json" => {
                // How the committed BENCHMARK.json was written.
                print!("{}", report::benchmark_json(cli.seconds as u64));
                std::process::exit(0);
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    if cli.smoke {
        cli.seconds = 2.0;
    }
    Ok(cli)
}

/// Entry point of both binaries. `counting_allocator` says whether this
/// binary installed [`alloc::CountingAlloc`]; only that one may trace.
pub fn main(counting_allocator: bool) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = if cli.workload == "all" {
        run_all(&cli)
    } else if cli.traced && !counting_allocator {
        Err("--trace 1 needs the bench_traced binary (benchmark/run.sh picks it)".to_string())
    } else {
        run_one(&cli)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            // No result line: a void run must not look like a measurement.
            eprintln!("benchmark refused to report: {msg}");
            ExitCode::from(1)
        }
    }
}

fn run_one(cli: &Cli) -> Result<(), String> {
    std::fs::create_dir_all(&cli.out_dir)
        .map_err(|e| format!("create {}: {e}", cli.out_dir.display()))?;
    let opts = Opts {
        seed: cli.seed,
        seconds: cli.seconds,
        warmup: if cli.smoke { 0.5 } else { 2.0 },
        traced: cli.traced,
        smoke: cli.smoke,
    };
    let Outcome {
        scale,
        correct,
        attempted,
        failed,
        mut metrics,
        tracer,
    } = match cli.workload.as_str() {
        "rec_deadline_open" => workloads::deadline_open::run(&opts),
        "rec_budget_sharded" => workloads::budget_sharded::run(&opts),
        "search_small_seq" => workloads::small_seq::run(&opts),
        "rec_update_mix" => workloads::update_mix::run(&opts),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    }?;
    if attempted == 0 {
        return Err("the window attempted nothing".into());
    }
    if !correct {
        return Err(format!(
            "a correctness check failed: wrong responses or an accuracy outside its sane range ({failed} of {attempted} operations failed)"
        ));
    }
    if let Some(tracer) = &tracer {
        let path = cli.out_dir.join(format!("{}.trace.jsonl", cli.workload));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "# spans ({}): name, count, total ms, self ms",
            path.display()
        );
        for (name, count, total_ns, self_ns) in tracer.summary() {
            println!(
                "#   {name:<36} {count:>8} {:>12.3} {:>12.3}",
                total_ns as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
        metrics.push(report::metric(
            "trace.overhead_pct",
            trace_overhead_pct(cli, &metrics),
        ));
    }
    let results = Results {
        stamp: Stamp {
            workload: cli.workload.clone(),
            traced: cli.traced,
            cores: cores(),
            commit: report::first_line_of("git", &["rev-parse", "--short", "HEAD"]),
            rustc: report::first_line_of("rustc", &["--version"]),
            scale: scale.label(),
            seed: cli.seed,
            window_s: cli.seconds,
        },
        correct,
        attempted,
        failed,
        metrics,
    };
    results.emit(&cli.out_dir)
}

/// How much slower the traced run's median latency is than the untraced
/// run of the same workload, seed and window left in the same directory;
/// 0 when there is no such run to compare with.
fn trace_overhead_pct(cli: &Cli, traced: &[report::Metric]) -> f64 {
    let path = cli.out_dir.join(format!("{}.e2e.json", cli.workload));
    let Ok(text) = std::fs::read_to_string(&path) else {
        return 0.0;
    };
    let same = read_stamp_field(&text, "seed") == Some(cli.seed.to_string())
        && read_stamp_field(&text, "window_s") == Some(cli.seconds.to_string());
    let untraced = read_metric(&text, "p50_ms");
    let traced = traced.iter().find(|m| m.name == "p50_ms").map(|m| m.value);
    match (same, untraced, traced) {
        (true, Some(u), Some(t)) if u > 0.0 => 100.0 * (t - u) / u,
        _ => 0.0,
    }
}

/// The sibling binary `name` next to the running one.
fn sibling(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = me.with_file_name(name);
    if path.exists() {
        Ok(path)
    } else {
        Err(format!(
            "{} is not built; run through benchmark/run.sh",
            path.display()
        ))
    }
}

/// Every workload untraced then traced, each its own process; with
/// `--repeat n`, n such sets, compared metric by metric at the end.
fn run_all(cli: &Cli) -> Result<(), String> {
    let bins = [(sibling("bench")?, "0"), (sibling("bench_traced")?, "1")];
    let mut sets = Vec::new();
    for set in 1..=cli.repeat.max(1) {
        let dir = if cli.repeat > 1 {
            cli.out_dir.join(format!("set{set}"))
        } else {
            cli.out_dir.clone()
        };
        for (workload, _) in WORKLOADS {
            for (bin, trace) in &bins {
                println!("\n== set {set}: {workload} --trace {trace}");
                let mut cmd = Command::new(bin);
                cmd.args(["--workload", workload, "--trace", trace])
                    .args(["--seed", &cli.seed.to_string()])
                    .args(["--seconds", &cli.seconds.to_string()])
                    .arg("--out")
                    .arg(&dir);
                if cli.smoke {
                    cmd.arg("--smoke");
                }
                let status = cmd
                    .status()
                    .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
                if !status.success() {
                    return Err(format!("{workload} --trace {trace} exited with {status}"));
                }
            }
        }
        sets.push(dir);
    }
    if let [first, .., last] = sets.as_slice() {
        compare_sets(first, last, cli.smoke)?;
    }
    Ok(())
}

/// Print, per workload and end-to-end metric, both sets' values, their
/// difference as a share of the first, the bound, and PASS or FAIL.
fn compare_sets(a: &Path, b: &Path, smoke: bool) -> Result<(), String> {
    println!("\n== repeatability: {} vs {}", a.display(), b.display());
    println!(
        "{:<20} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut failures = 0;
    for (workload, _) in WORKLOADS {
        let read = |dir: &Path| {
            let path = dir.join(format!("{workload}.e2e.json"));
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))
        };
        let (ta, tb) = (read(a)?, read(b)?);
        for spec in END_TO_END {
            let (Some(va), Some(vb)) = (read_metric(&ta, spec.name), read_metric(&tb, spec.name))
            else {
                return Err(format!(
                    "{workload}: {} missing from a result file",
                    spec.name
                ));
            };
            let diff = (vb - va).abs() / va.abs().max(f64::MIN_POSITIVE);
            let pass = diff <= spec.bound;
            if !pass {
                failures += 1;
            }
            println!(
                "{workload:<20} {:<20} {va:>14.5} {vb:>14.5} {:>8.2}% {:>6.1}% {}",
                spec.name,
                100.0 * diff,
                100.0 * spec.bound,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    if failures > 0 && !smoke {
        return Err(format!(
            "{failures} metric(s) did not repeat within their bound"
        ));
    }
    Ok(())
}
