//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--out PATH] [experiment...]
//!
//! experiments: creation fig3 fig4a fig4b table1 table2 fig5 fig6 fig7 fig8
//!              summary all          (default: all)
//! --quick: test-sized scale (seconds); default is the fuller scale
//!          (under a minute).
//! --out:   also write Figures 4a/4b, Tables 1–2, Figures 6–8 and the §4.3
//!          summary as one JSON artifact (the committed `BENCH_paper.json`),
//!          each table an array of row objects under its key; runs those
//!          eight whether or not they were named.
//! ```
//!
//! Each named experiment prints as one table; the creation costs and
//! Figure 3 are wall-clock timings, so only they differ between runs.

use at_bench::artifact::{self, Cli};
use at_bench::experiments::{self as exp, DRIVERS, SUMMARY_INPUTS};
use at_bench::{ExpScale, Table};

fn main() {
    let cli = Cli::parse();
    let scale = if cli.quick {
        ExpScale::quick()
    } else {
        ExpScale::full()
    };
    let want =
        |name: &str| cli.words.is_empty() || cli.words.iter().any(|w| w == name || w == "all");

    println!("AccuracyTrader reproduction — scale: {}", cli.scale_name());
    println!();

    let mut ran: Vec<(&str, bool, Table)> = Vec::new();
    for (name, committed, driver) in DRIVERS {
        let needed = want(name)
            || (committed && cli.out.is_some())
            || (want("summary") && SUMMARY_INPUTS.contains(&name));
        if !needed {
            continue;
        }
        let start = std::time::Instant::now();
        let table = driver(&scale);
        eprintln!("[{name} took {:.1?}]", start.elapsed());
        if want(name) {
            println!("{table}");
        }
        ran.push((name, committed, table));
    }
    let ran_table = |name: &str| ran.iter().find(|(n, ..)| *n == name).map(|(.., t)| t);
    let [Some(t1), Some(t2), Some(f7), Some(f8)] = SUMMARY_INPUTS.map(ran_table) else {
        return;
    };
    let summary = exp::summary(t1, t2, f7, f8);
    if want("summary") {
        println!("{summary}");
    }
    let Some(path) = &cli.out else {
        return;
    };
    let mut fields = artifact::open("paper", &cli, &scale.deploy);
    fields.push(("seed", scale.seed.to_string()));
    let committed = ran.iter().filter(|(_, committed, _)| *committed);
    for table in committed.map(|(.., t)| t).chain([&summary]) {
        fields.push((table.key, table.to_json()));
    }
    artifact::write(path, &fields);
}
