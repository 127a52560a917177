//! Shape checks on the paper drivers behind `BENCH_paper.json`, at
//! `ExpScale::quick()`: the artifact is only worth committing if the
//! drivers are deterministic and reproduce the paper's orderings.

use std::sync::OnceLock;

use at_bench::experiments::{summary, DRIVERS, SUMMARY_INPUTS};
use at_bench::{ExpScale, Table};

/// Every table `repro --out` commits, in artifact order: the committed
/// drivers' tables, then the summary.
fn run() -> Vec<Table> {
    let scale = ExpScale::quick();
    let ran: Vec<(&str, Table)> = DRIVERS
        .iter()
        .filter(|(_, committed, _)| *committed)
        .map(|&(name, _, driver)| (name, driver(&scale)))
        .collect();
    let input = |name| &ran.iter().find(|(n, _)| *n == name).expect("committed").1;
    let [t1, t2, f7, f8] = SUMMARY_INPUTS.map(input);
    let s = summary(t1, t2, f7, f8);
    ran.into_iter().map(|(_, t)| t).chain([s]).collect()
}

/// One shared run; `drivers_are_deterministic` makes the second.
fn first_run() -> &'static [Table] {
    static RUN: OnceLock<Vec<Table>> = OnceLock::new();
    RUN.get_or_init(run)
}

fn table(key: &str) -> &'static Table {
    first_run()
        .iter()
        .find(|t| t.key == key)
        .unwrap_or_else(|| panic!("no table {key}"))
}

#[test]
fn table1_accuracy_trader_holds_the_deadline_while_basic_grows() {
    let t = table("table1_p999_ms");
    for (rate, p999) in t.column("rate").iter().zip(t.column("accuracy_trader")) {
        assert!(
            p999 <= 1.05 * 100.0,
            "AccuracyTrader p99.9 {p999} ms at {rate} req/s overshoots the 100 ms deadline"
        );
    }
    let basic = t.column("basic");
    assert!(
        basic.windows(2).all(|w| w[0] <= w[1]),
        "Basic's tail must not shrink as the rate grows: {basic:?}"
    );
}

#[test]
fn table2_accuracy_trader_loses_less_than_partial_execution_under_load() {
    let t = table("table2_loss_pct");
    let (rates, partial, at) = (
        t.column("rate"),
        t.column("partial"),
        t.column("accuracy_trader"),
    );
    for ((rate, partial), at) in rates.iter().zip(&partial).zip(&at) {
        if *rate >= 60.0 {
            assert!(at < partial, "{rate} req/s: AT {at}% vs partial {partial}%");
            assert!(*at < 10.0, "{rate} req/s: AT loses {at}%");
        }
    }
}

#[test]
fn summary_ratios_are_finite_and_positive() {
    let t = table("summary");
    let values = t.column("value");
    assert_eq!(values.len(), 5, "{t}");
    for value in values {
        assert!(value.is_finite() && value > 0.0, "{t}");
    }
}

#[test]
fn drivers_are_deterministic() {
    let again = run();
    let keys: Vec<&str> = again.iter().map(|t| t.key).collect();
    assert_eq!(
        keys,
        [
            "fig4a_related_pct",
            "fig4b_top10_pct",
            "table1_p999_ms",
            "table2_loss_pct",
            "fig6_loss_pct",
            "fig7_p999_ms",
            "fig8_loss_pct",
            "summary"
        ]
    );
    for (first, second) in first_run().iter().zip(&again) {
        assert_eq!(first, second, "{} differs between runs", first.key);
    }
}

#[test]
fn fig4_higher_ranked_sections_hold_more_related_points() {
    for (key, column) in [
        ("fig4a_related_pct", "related_pct"),
        ("fig4b_top10_pct", "top10_pct"),
    ] {
        let pct = table(key).column(column);
        assert!(
            pct.windows(2).all(|w| w[0] >= w[1]),
            "{key}: a lower-ranked section holds more: {pct:?}"
        );
    }
}
