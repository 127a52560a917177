//! What the committed `BENCH_*.json` artifacts share: the command line of
//! the binaries that write them, the provenance stamp, and the write step.
//! Their tables are [`Table`](crate::Table)s; the enclosing object is
//! assembled here (no serializer in the vendored dependency set).

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

/// An artifact's fields in write order: `(key, value already in JSON)`.
pub type Fields = Vec<(&'static str, String)>;

/// The stamp every artifact opens with: `bench`, a `scale` naming the
/// deployment `built` (`name:CxRxK/Nreq`, as `benchmark/` prints it),
/// `cores`, `commit` and `rustc`. The caller appends its own fields.
pub fn open(bench: &str, cli: &Cli, built: &DeployScale) -> Fields {
    let scale = format!(
        "{}:{}x{}x{}/{}req",
        cli.scale_name(),
        built.n_components,
        built.rows_per_component,
        built.n_columns,
        built.n_requests
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // `--dirty`: an artifact regenerated before its commit exists says so.
    let commit = first_line_of("git", &["describe", "--always", "--dirty"]);
    let rustc = first_line_of("rustc", &["--version"]);
    vec![
        ("bench", format!("\"{bench}\"")),
        ("scale", format!("\"{scale}\"")),
        ("cores", cores.to_string()),
        ("commit", format!("\"{commit}\"")),
        ("rustc", format!("\"{rustc}\"")),
    ]
}

/// Write `fields` to `path` as one JSON object, a field per line; a
/// table's value is its [`Table::to_json`](crate::Table::to_json).
pub fn write(path: &str, fields: &[(&'static str, String)]) {
    let lines: Vec<String> = fields
        .iter()
        .map(|(key, json)| format!("  \"{key}\": {json}"))
        .collect();
    let json = format!("{{\n{}\n}}\n", lines.join(",\n"));
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
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
