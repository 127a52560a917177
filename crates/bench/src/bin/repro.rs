//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [experiment...]
//!
//! experiments: creation fig3 fig4a fig4b table1 table2 fig5 fig6 fig7 fig8
//!              summary all          (default: all)
//! --quick: test-sized scale (seconds); default is the fuller scale
//!          (minutes).
//! ```

use at_bench::experiments as exp;
use at_bench::ExpScale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick {
        ExpScale::quick()
    } else {
        ExpScale::full()
    };
    let mut wanted: Vec<String> = args.into_iter().filter(|a| !a.starts_with("--")).collect();
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }
    let want = |name: &str| wanted.iter().any(|w| w == name || w == "all");
    let needs_summary = want("summary");

    println!(
        "AccuracyTrader reproduction — scale: {}",
        if quick { "quick" } else { "full" }
    );
    println!();

    if want("creation") {
        let t = std::time::Instant::now();
        exp::print_creation(&exp::creation_overheads(&scale));
        eprintln!("[creation took {:.1?}]", t.elapsed());
        println!();
    }
    if want("fig3") {
        let t = std::time::Instant::now();
        exp::print_fig3(&exp::fig3(&scale));
        eprintln!("[fig3 took {:.1?}]", t.elapsed());
        println!();
    }
    if want("fig4a") {
        let t = std::time::Instant::now();
        exp::print_fig4("(a) recommender", &exp::fig4a(&scale));
        eprintln!("[fig4a took {:.1?}]", t.elapsed());
        println!();
    }
    if want("fig4b") {
        let t = std::time::Instant::now();
        exp::print_fig4("(b) search", &exp::fig4b(&scale));
        eprintln!("[fig4b took {:.1?}]", t.elapsed());
        println!();
    }

    let mut t1 = None;
    let mut t2 = None;
    let mut f7 = None;
    let mut f8 = None;

    if want("table1") || needs_summary {
        let t = std::time::Instant::now();
        let v = exp::table1(&scale);
        if want("table1") {
            exp::print_table1(&v);
            println!();
        }
        eprintln!("[table1 took {:.1?}]", t.elapsed());
        t1 = Some(v);
    }
    if want("table2") || needs_summary {
        let t = std::time::Instant::now();
        let v = exp::table2(&scale);
        if want("table2") {
            exp::print_table2(&v);
            println!();
        }
        eprintln!("[table2 took {:.1?}]", t.elapsed());
        t2 = Some(v);
    }
    if want("fig5") {
        let t = std::time::Instant::now();
        exp::print_fig5(&exp::fig5(&scale));
        eprintln!("[fig5 took {:.1?}]", t.elapsed());
        println!();
    }
    if want("fig6") {
        let t = std::time::Instant::now();
        exp::print_fig6(&exp::fig6(&scale));
        eprintln!("[fig6 took {:.1?}]", t.elapsed());
        println!();
    }
    if want("fig7") || needs_summary {
        let t = std::time::Instant::now();
        let v = exp::fig7(&scale);
        if want("fig7") {
            exp::print_fig7(&v);
            println!();
        }
        eprintln!("[fig7 took {:.1?}]", t.elapsed());
        f7 = Some(v);
    }
    if want("fig8") || needs_summary {
        let t = std::time::Instant::now();
        let v = exp::fig8(&scale);
        if want("fig8") {
            exp::print_fig8(&v);
            println!();
        }
        eprintln!("[fig8 took {:.1?}]", t.elapsed());
        f8 = Some(v);
    }
    if needs_summary {
        let s = exp::summary(
            t1.as_ref().expect("table1 ran"),
            t2.as_ref().expect("table2 ran"),
            f7.as_ref().expect("fig7 ran"),
            f8.as_ref().expect("fig8 ran"),
        );
        exp::print_summary(&s);
    }
}
