//! Dynamic half of the **clock-discipline** invariant (static half:
//! `cargo run -p at-analysis -- --check`; see ANALYSIS.md).
//!
//! Every serving-stack clock read routes through `at_core::clock`, whose
//! relaxed read counter makes the clock-free contract observable. This
//! probe pins the exact read counts:
//!
//! * component-level `execute` under a clock-free policy performs
//!   **zero** reads — policy decisions cannot depend on wall time, which
//!   is what makes duplicate collapsing and deterministic replay sound;
//! * `serve_batch_at` under a clock-free policy reads exactly once per
//!   response (the `elapsed` telemetry stamp) and `serve_batch` adds one
//!   shared submission stamp — telemetry only, nothing steering;
//! * a live `Deadline` policy reads more (positive control: the counter
//!   actually observes the deadline checks).
//!
//! ONE `#[test]` in this file: the counter is global, so no sibling test
//! thread may tick it mid-measurement. One component keeps the rayon
//! shim inline and the counts exact.

use std::hint::black_box;
use std::time::{Duration, Instant};

use at_bench::deployments::{build_recommender, DeployScale};
use at_core::{clock, ExecutionPolicy};
use at_recommender::ActiveUser;

#[test]
fn clock_free_policies_never_read_the_clock() {
    let dep = build_recommender(DeployScale {
        n_components: 1,
        rows_per_component: 150,
        n_columns: 120,
        n_requests: 80,
        seed: 7,
    });
    let service = &dep.service;
    let batch: Vec<ActiveUser> = dep
        .requests
        .iter()
        .cycle()
        .take(64)
        .map(|r| r.active.clone())
        .collect();
    let submitted: Vec<Instant> = vec![Instant::now(); batch.len()];

    // --- Component level: zero reads under every clock-free policy. ---
    let comp = &service.components()[0];
    for policy in [
        ExecutionPolicy::SynopsisOnly,
        ExecutionPolicy::budgeted(5),
        ExecutionPolicy::Budgeted {
            sets: usize::MAX,
            imax: None,
        },
    ] {
        let r = clock::reads();
        for (req, &sub) in batch.iter().zip(&submitted) {
            black_box(comp.execute(req, &policy, sub));
        }
        assert_eq!(
            clock::reads() - r,
            0,
            "{policy:?} is clock-free but execute read the clock — \
             a clock-discipline regression the static pass missed"
        );
    }

    // --- Serve level: telemetry stamps only, in exact numbers. --------
    let r = clock::reads();
    let responses = service.serve_batch_at(&batch, &ExecutionPolicy::SynopsisOnly, &submitted);
    assert_eq!(
        clock::reads() - r,
        responses.len() as u64,
        "serve_batch_at under a clock-free policy must read exactly once \
         per response (the elapsed telemetry stamp)"
    );

    let r = clock::reads();
    let responses = service.serve_batch(&batch, &ExecutionPolicy::budgeted(5));
    assert_eq!(
        clock::reads() - r,
        1 + responses.len() as u64,
        "serve_batch adds exactly one shared submission stamp on top of \
         the per-response elapsed stamps"
    );

    // --- Positive control: a live deadline really ticks the counter. --
    let deadline = ExecutionPolicy::Deadline {
        l_spe: Duration::from_millis(100),
        imax: None,
    };
    let r = clock::reads();
    let responses = service.serve_batch(&batch, &deadline);
    assert!(
        clock::reads() - r > 1 + responses.len() as u64,
        "a live Deadline policy must check the clock while improving — \
         if this fails the counter is no longer observing the hot path"
    );
}
