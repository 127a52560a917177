//! Shape checks on the paper drivers behind `BENCH_paper.json`, at
//! `ExpScale::quick()`: the artifact is only worth committing if the
//! drivers are deterministic and reproduce the paper's orderings.

use std::sync::OnceLock;

use at_bench::experiments::{fig7, fig8, summary, table1, table2, Fig7, Fig8, Table1, Table2};
use at_bench::ExpScale;

type Drivers = (Table1, Table2, Fig7, Fig8);

fn run() -> Drivers {
    let scale = ExpScale::quick();
    (table1(&scale), table2(&scale), fig7(&scale), fig8(&scale))
}

/// One shared run; `drivers_are_deterministic` makes the second.
fn first_run() -> &'static Drivers {
    static RUN: OnceLock<Drivers> = OnceLock::new();
    RUN.get_or_init(run)
}

#[test]
fn table1_accuracy_trader_holds_the_deadline_while_basic_grows() {
    let t = &first_run().0;
    for (rate, p999) in t.rates.iter().zip(&t.accuracy_trader) {
        assert!(
            *p999 <= 1.05 * 100.0,
            "AccuracyTrader p99.9 {p999} ms at {rate} req/s overshoots the 100 ms deadline"
        );
    }
    assert!(
        t.basic.windows(2).all(|w| w[0] <= w[1]),
        "Basic's tail must not shrink as the rate grows: {:?}",
        t.basic
    );
}

#[test]
fn table2_accuracy_trader_loses_less_than_partial_execution_under_load() {
    let t = &first_run().1;
    for ((rate, partial), at) in t.rates.iter().zip(&t.partial).zip(&t.accuracy_trader) {
        if *rate >= 60.0 {
            assert!(at < partial, "{rate} req/s: AT {at}% vs partial {partial}%");
            assert!(*at < 10.0, "{rate} req/s: AT loses {at}%");
        }
    }
}

#[test]
fn summary_ratios_are_finite_and_positive() {
    let (t1, t2, f7, f8) = first_run();
    for row in summary(t1, t2, f7, f8) {
        assert!(
            row.value.is_finite() && row.value > 0.0,
            "{}: {}",
            row.name,
            row.value
        );
    }
}

#[test]
fn drivers_are_deterministic() {
    let (t1, t2, f7, f8) = first_run();
    let again = run();
    assert_eq!((t1, t2, f7, f8), (&again.0, &again.1, &again.2, &again.3));
    assert_eq!(
        summary(t1, t2, f7, f8),
        summary(&again.0, &again.1, &again.2, &again.3)
    );
}
