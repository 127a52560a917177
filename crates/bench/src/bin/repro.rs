//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--out PATH] [experiment...]
//!
//! experiments: creation fig3 fig4a fig4b table1 table2 fig5 fig6 fig7 fig8
//!              summary all          (default: all)
//! --quick: test-sized scale (seconds); default is the fuller scale
//!          (under a minute).
//! --out:   also write Tables 1–2, Figures 6–8 and the §4.3 summary as one
//!          JSON artifact (the committed `BENCH_paper.json`); runs those
//!          six whether or not they were named.
//! ```

use std::fmt::Write as _;

use at_bench::artifact::{self, Cli};
use at_bench::experiments as exp;
use at_bench::ExpScale;

/// Run one experiment, reporting how long it took on stderr.
fn timed<T>(name: &str, run: impl FnOnce() -> T) -> T {
    let t = std::time::Instant::now();
    let v = run();
    eprintln!("[{name} took {:.1?}]", t.elapsed());
    v
}

fn main() {
    let cli = Cli::parse();
    let scale = if cli.quick {
        ExpScale::quick()
    } else {
        ExpScale::full()
    };
    let want =
        |name: &str| cli.words.is_empty() || cli.words.iter().any(|w| w == name || w == "all");
    // The summary is computed from these four; the artifact adds fig6.
    let need = |name: &str| want(name) || want("summary") || cli.out.is_some();

    println!("AccuracyTrader reproduction — scale: {}", cli.scale_name());
    println!();

    if want("creation") {
        exp::print_creation(&timed("creation", || exp::creation_overheads(&scale)));
        println!();
    }
    if want("fig3") {
        exp::print_fig3(&timed("fig3", || exp::fig3(&scale)));
        println!();
    }
    if want("fig4a") {
        exp::print_fig4("(a) recommender", &timed("fig4a", || exp::fig4a(&scale)));
        println!();
    }
    if want("fig4b") {
        exp::print_fig4("(b) search", &timed("fig4b", || exp::fig4b(&scale)));
        println!();
    }
    let t1 = need("table1").then(|| timed("table1", || exp::table1(&scale)));
    if let (Some(t1), true) = (&t1, want("table1")) {
        exp::print_table1(t1);
        println!();
    }
    let t2 = need("table2").then(|| timed("table2", || exp::table2(&scale)));
    if let (Some(t2), true) = (&t2, want("table2")) {
        exp::print_table2(t2);
        println!();
    }
    if want("fig5") {
        exp::print_fig5(&timed("fig5", || exp::fig5(&scale)));
        println!();
    }
    let f6 = (want("fig6") || cli.out.is_some()).then(|| timed("fig6", || exp::fig6(&scale)));
    if let (Some(f6), true) = (&f6, want("fig6")) {
        exp::print_fig6(f6);
        println!();
    }
    let f7 = need("fig7").then(|| timed("fig7", || exp::fig7(&scale)));
    if let (Some(f7), true) = (&f7, want("fig7")) {
        exp::print_fig7(f7);
        println!();
    }
    let f8 = need("fig8").then(|| timed("fig8", || exp::fig8(&scale)));
    if let (Some(f8), true) = (&f8, want("fig8")) {
        exp::print_fig8(f8);
        println!();
    }
    let (Some(t1), Some(t2), Some(f7), Some(f8)) = (&t1, &t2, &f7, &f8) else {
        return;
    };
    let summary = exp::summary(t1, t2, f7, f8);
    if want("summary") {
        exp::print_summary(&summary);
    }
    let (Some(path), Some(f6)) = (&cli.out, &f6) else {
        return;
    };

    let series = |name: &str, values: &[f64]| {
        let cells: Vec<String> = values.iter().map(|v| format!("{v:.2}")).collect();
        format!("\"{name}\": [{}]", cells.join(", "))
    };
    // (partial, AccuracyTrader) loss pairs as two named rows.
    let loss_rows = |pairs: &[(f64, f64)], sep: &str| {
        let (partial, at): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
        [series("partial", &partial), series("accuracy_trader", &at)].join(sep)
    };
    let mut json = artifact::open("paper", &cli, &scale.deploy);
    let _ = writeln!(json, "  \"seed\": {},", scale.seed);
    let _ = writeln!(
        json,
        "  \"table1_p999_ms\": {{{}, {}, {}, {}}},",
        series("rates", &t1.rates),
        series("basic", &t1.basic),
        series("reissue", &t1.reissue),
        series("accuracy_trader", &t1.accuracy_trader)
    );
    let _ = writeln!(
        json,
        "  \"table2_loss_pct\": {{{}, {}, {}}},",
        series("rates", &t2.rates),
        series("partial", &t2.partial),
        series("accuracy_trader", &t2.accuracy_trader)
    );
    let hours: Vec<String> = f6
        .iter()
        .map(|h| format!("{{\"hour\": {}, {}}}", h.hour, loss_rows(&h.bins, ", ")))
        .collect();
    let _ = writeln!(
        json,
        "  \"fig6_loss_pct\": [\n    {}\n  ],",
        hours.join(",\n    ")
    );
    let techniques: Vec<String> = f7
        .series
        .iter()
        .zip(["basic", "reissue", "accuracy_trader"])
        .map(|((_, row), key)| series(key, row))
        .collect();
    let _ = writeln!(
        json,
        "  \"fig7_p999_ms\": {{\n    {},\n    {}\n  }},",
        series("hourly_rps", &f7.hourly_rates),
        techniques.join(",\n    ")
    );
    let _ = writeln!(
        json,
        "  \"fig8_loss_pct\": {{\n    {}\n  }},",
        loss_rows(&f8.hours, ",\n    ")
    );
    let rows: Vec<String> = summary
        .iter()
        .map(|r| {
            format!(
                "{{\"name\": \"{}\", \"value\": {:.2}, \"paper\": {}, \"unit\": \"{}\"}}",
                r.name, r.value, r.paper, r.unit
            )
        })
        .collect();
    let _ = writeln!(
        json,
        "  \"summary\": [\n    {}\n  ]\n}}",
        rows.join(",\n    ")
    );
    artifact::write(path, &json);
}
