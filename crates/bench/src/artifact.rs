//! What the committed `BENCH_*.json` artifacts share: the command line of
//! the binaries that write them, the provenance stamp, and the write step.
//! The JSON is hand-written (no serializer in the vendored dependency set).

use std::fmt::Write as _;

use crate::deployments::DeployScale;

/// `[--quick] [--out PATH] [word...]` — the command line of `sweep` and
/// `repro`.
pub struct Cli {
    /// Test-sized scale (seconds) instead of the committed full scale.
    pub quick: bool,
    /// Where to write the artifact.
    pub out: Option<String>,
    /// Positional arguments (subcommand / experiment names), in order.
    pub words: Vec<String>,
}

impl Cli {
    /// Parse the process arguments; an unknown `--flag` is a usage error.
    pub fn parse() -> Cli {
        let mut cli = Cli {
            quick: false,
            out: None,
            words: Vec::new(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--out" => cli.out = Some(args.next().expect("--out takes a path")),
                flag if flag.starts_with("--") => {
                    eprintln!("unknown flag {flag}; usage: [--quick] [--out PATH] [word...]");
                    std::process::exit(2);
                }
                _ => cli.words.push(arg),
            }
        }
        cli
    }

    /// `"quick"` or `"full"`.
    pub fn scale_name(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }

    /// The accuracy-side deployment scale the flag selects.
    pub fn deploy_scale(&self) -> DeployScale {
        if self.quick {
            DeployScale::quick()
        } else {
            DeployScale::full()
        }
    }
}

/// Open the artifact's JSON object with its stamp: `bench`, a `scale`
/// naming the deployment `built` (`name:CxRxK/Nreq`, as `benchmark/`
/// prints it), `cores`, `commit` and `rustc`. The caller appends its own
/// fields and the closing brace.
pub fn open(bench: &str, cli: &Cli, built: &DeployScale) -> String {
    let mut json = String::new();
    let _ = writeln!(json, "{{\n  \"bench\": \"{bench}\",");
    let _ = writeln!(
        json,
        "  \"scale\": \"{}:{}x{}x{}/{}req\",",
        cli.scale_name(),
        built.n_components,
        built.rows_per_component,
        built.n_columns,
        built.n_requests
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let _ = writeln!(json, "  \"cores\": {cores},");
    // `--dirty`: an artifact regenerated before its commit exists says so.
    let commit = first_line_of("git", &["describe", "--always", "--dirty"]);
    let _ = writeln!(json, "  \"commit\": \"{commit}\",");
    let rustc = first_line_of("rustc", &["--version"]);
    let _ = writeln!(json, "  \"rustc\": \"{rustc}\",");
    json
}

/// First line of `program args...`'s standard output, or "unknown" (not a
/// git checkout, for one).
fn first_line_of(program: &str, args: &[&str]) -> String {
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

/// Write the finished artifact to `path`.
pub fn write(path: &str, json: &str) {
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}
