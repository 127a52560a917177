//! The paper's qualitative results must hold in the simulator: who wins,
//! where the crossovers fall, and how the techniques degrade (Tables 1–2,
//! Figures 5–8 shapes).

use accuracytrader::prelude::*;
use accuracytrader::workloads::poisson_arrivals;

fn cfg() -> SimConfig {
    SimConfig {
        n_components: 36,
        n_nodes: 12,
        sample_every: 50,
        ..SimConfig::default()
    }
}

fn p999(rate: f64, technique: Technique) -> f64 {
    let arrivals = poisson_arrivals(rate, 30.0, 11);
    simulate(&arrivals, technique, &cfg()).latencies.p999_ms()
}

const REISSUE: Technique = Technique::Reissue {
    trigger_percentile: 95.0,
};
const AT: Technique = Technique::AccuracyTrader {
    deadline_s: 0.1,
    imax: None,
};

#[test]
fn reissue_wins_at_light_load() {
    // Paper Table 1, rate 20: reissue < basic < AccuracyTrader.
    let basic = p999(20.0, Technique::Basic);
    let reissue = p999(20.0, REISSUE);
    let at = p999(20.0, AT);
    assert!(reissue < basic, "reissue {reissue} !< basic {basic}");
    assert!(
        at >= basic * 0.5,
        "AT ({at}) should not be dramatically faster than basic ({basic}) when load is light"
    );
}

#[test]
fn accuracy_trader_wins_under_heavy_load_by_a_large_factor() {
    // Paper §4.3: >40x tail reduction vs reissue under load.
    let reissue = p999(80.0, REISSUE);
    let at = p999(80.0, AT);
    assert!(
        reissue > at * 20.0,
        "expected a large reduction: reissue {reissue} vs AT {at}"
    );
}

#[test]
fn accuracy_trader_tail_is_flat_across_loads() {
    // Paper: "consistent low tail latencies by requiring each component
    // completing processing within 100ms" (actual slightly longer).
    let tails: Vec<f64> = [20.0, 60.0, 100.0].iter().map(|&r| p999(r, AT)).collect();
    for t in &tails {
        assert!(
            (50.0..=250.0).contains(t),
            "AT tail must hug the 100 ms deadline: {tails:?}"
        );
    }
    let spread = tails.iter().cloned().fold(0.0, f64::max)
        - tails.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 100.0, "AT tail must be flat: {tails:?}");
}

#[test]
fn basic_explodes_past_the_cliff() {
    // Paper Table 1: basic grows by orders of magnitude from 40 to 60+.
    let light = p999(20.0, Technique::Basic);
    let heavy = p999(80.0, Technique::Basic);
    assert!(
        heavy > light * 30.0,
        "saturation cliff missing: light {light}, heavy {heavy}"
    );
}

#[test]
fn partial_skips_grow_with_load() {
    let frac_made = |rate: f64| {
        let arrivals = poisson_arrivals(rate, 30.0, 3);
        let r = simulate(&arrivals, Technique::Partial { deadline_s: 0.1 }, &cfg());
        let made: usize = r
            .samples
            .iter()
            .flat_map(|s| s.made_deadline.as_ref().expect("mask"))
            .map(|&m| usize::from(m))
            .sum();
        let total: usize = r
            .samples
            .iter()
            .map(|s| s.made_deadline.as_ref().expect("mask").len())
            .sum();
        made as f64 / total as f64
    };
    let light = frac_made(20.0);
    let mid = frac_made(60.0);
    let heavy = frac_made(100.0);
    assert!(
        light > 0.95,
        "light load should make nearly all deadlines: {light}"
    );
    assert!(
        heavy < mid && mid < light,
        "skips must grow: {light} {mid} {heavy}"
    );
    assert!(heavy < 0.5, "heavy load must skip most components: {heavy}");
}

#[test]
fn accuracy_trader_budget_shrinks_with_load_but_never_dies() {
    let mean_sets = |rate: f64| {
        let arrivals = poisson_arrivals(rate, 30.0, 3);
        let r = simulate(&arrivals, AT, &cfg());
        let total: usize = r
            .samples
            .iter()
            .flat_map(|s| s.sets_processed.as_ref().expect("sets"))
            .sum();
        let n: usize = r
            .samples
            .iter()
            .map(|s| s.sets_processed.as_ref().expect("sets").len())
            .sum();
        total as f64 / n as f64
    };
    let light = mean_sets(20.0);
    let heavy = mean_sets(100.0);
    assert!(light > heavy, "budget must shrink: {light} -> {heavy}");
    assert!(
        light > 0.6 * CostModel::default().n_sets as f64,
        "light load should process most sets: {light}"
    );
    assert!(
        heavy > 0.0,
        "even saturated, the synopsis floor guarantees ranking"
    );
}

#[test]
fn diurnal_day_reproduces_figure7_ordering() {
    let pattern = DiurnalPattern::sogou_like(60.0);
    let cfg = cfg();
    let hour_tail = |hour: usize, technique: Technique| {
        accuracytrader::sim::run_hour_window(&pattern, hour, 60.0, technique, &cfg)
            .latencies
            .p999_ms()
    };
    // Quiet hour 4: reissue best.
    let b4 = hour_tail(4, Technique::Basic);
    let r4 = hour_tail(4, REISSUE);
    assert!(r4 <= b4, "hour 4: reissue {r4} !<= basic {b4}");
    // Busy hour 22: AT far ahead of both.
    let b22 = hour_tail(22, Technique::Basic);
    let r22 = hour_tail(22, REISSUE);
    let a22 = hour_tail(22, AT);
    assert!(a22 < r22 && a22 < b22, "hour 22: AT {a22} vs {r22}/{b22}");
    assert!(
        b22 > b4 * 5.0,
        "hour 22 must be much worse than hour 4 for basic"
    );
}
