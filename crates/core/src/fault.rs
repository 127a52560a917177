//! Deterministic, schedule-driven fault injection for the serving plane.
//!
//! Robustness claims held by convention rot; robustness claims held by a
//! **seeded, replayable fault harness** stay true. This module is that
//! harness: a [`FaultInjector`] decides — purely from a seed, a schedule,
//! and per-site call ordinals — when a component's stage 1, stage 2, or
//! compose hook fails with an error, panics, stalls for a configured
//! latency, or returns corrupted (NaN) synopsis scores. A
//! [`FaultyService`] threads those decisions through the *production*
//! hook surface ([`ApproximateService`] / [`ComposableService`]), so
//! chaos tests exercise the real `FanOutService` fan-out, pooling,
//! collapse, and containment paths rather than mocks of them.
//!
//! # Determinism
//!
//! Every injection decision is a pure function of `(seed, site,
//! ordinal)`, where the ordinal counts that site's calls on *this*
//! injector. Give each component its own injector (sharing one across
//! rayon-parallel components would interleave ordinals racily) and a
//! schedule replays bit-identically: same seed, same faults, same
//! victims. Probabilistic rules hash the ordinal through the vendored
//! xorshift generator ([`rand::Xoshiro256PlusPlus`]) instead of drawing
//! from a stateful stream, so decision `n` never depends on how many
//! decisions preceded it.
//!
//! The hot path allocates nothing: schedules are sorted at construction
//! and consulted by binary search; ordinals are relaxed atomics; the
//! per-decision hash is a few shifts and xors on the stack.
//!
//! # Fault channels
//!
//! The service hooks return values, not `Result`s — by design, the
//! paper's serving plane has no per-request error channel. Both
//! [`FaultKind::Error`] and [`FaultKind::Panic`] therefore travel as
//! unwinds and are caught at the fan-out containment boundary
//! ([`crate::containment`]), where an erroring component and a crashing
//! one are the same event: one failed leg. The two kinds stay
//! distinguishable by payload (`Error` carries a typed [`InjectedFault`];
//! `Panic` a plain message), which is exactly what a debugger or panic
//! hook sees from a real component failure of either class.
//! [`FaultKind::Stall`] models a slow — not failed — component;
//! [`FaultKind::CorruptScores`] models a component whose synopsis went
//! bad, returning `NaN` for every stage-1 correlation score.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::{Rng, SeedableRng, Xoshiro256PlusPlus};

use crate::correlation::Correlation;
use crate::processor::{ApproximateService, ComposableService, Ctx};

/// Where in a component's request lifecycle a fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// The stage-1 synopsis pass (`process_synopsis*` / `process_exact`),
    /// inside the fan-out containment boundary. Ordinals count requests,
    /// in the order a leg runs them: a batch leg ticks one ordinal per
    /// distinct request, and a leg-fatal fault at one request ends the
    /// leg, so the requests after it take no ordinal.
    Stage1,
    /// One stage-2 `improve` call (per candidate set), also contained.
    Stage2,
    /// The composing component's `compose` call — which runs on the
    /// *caller's* thread, **outside** the containment boundary, so a
    /// compose fault escalates to whoever drives the service (this is
    /// how the dispatcher-supervision tests kill a dispatcher).
    Compose,
}

/// What happens when a fault fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The component fails the request: an unwind carrying a typed
    /// [`InjectedFault`] payload (see the module docs on why errors
    /// travel as unwinds).
    Error,
    /// The component crashes: a plain `panic!`.
    Panic,
    /// The component stalls for the given latency, then serves normally.
    Stall(Duration),
    /// Stage 1 completes but every correlation score it produced is
    /// overwritten with `NaN` (a corrupted synopsis). Meaningful at
    /// [`FaultSite::Stage1`] only; a no-op elsewhere.
    CorruptScores,
}

/// The typed panic payload carried by [`FaultKind::Error`] unwinds.
#[derive(Clone, Copy, Debug)]
pub struct InjectedFault {
    /// The site whose hook reported the error.
    pub site: FaultSite,
}

/// One line of a fault schedule: fire `kind` at `site` on the listed
/// call ordinals and/or with a per-call probability.
#[derive(Clone, Debug)]
pub struct FaultRule {
    site: FaultSite,
    kind: FaultKind,
    /// Sorted, deduplicated call ordinals (0-based) that always fire.
    at: Vec<u64>,
    /// Additional per-call probability in `[0, 1]`.
    probability: f64,
}

impl FaultRule {
    /// Fire `kind` exactly at the given `site` call ordinals (0-based).
    pub fn at_calls(site: FaultSite, kind: FaultKind, mut at: Vec<u64>) -> Self {
        at.sort_unstable();
        at.dedup();
        FaultRule {
            site,
            kind,
            at,
            probability: 0.0,
        }
    }

    /// Fire `kind` at each `site` call independently with `probability`.
    ///
    /// # Panics
    /// Panics when `probability` is outside `[0, 1]`.
    pub fn with_probability(site: FaultSite, kind: FaultKind, probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "fault probability must be in [0, 1]"
        );
        FaultRule {
            site,
            kind,
            at: Vec::new(),
            probability,
        }
    }
}

/// The seeded, schedule-driven injector; see the module docs. One
/// injector belongs to one component — construct via [`new`](Self::new)
/// and [`with_rule`](Self::with_rule), share with the test through an
/// [`Arc`], and hand it to a [`FaultyService`].
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    rules: Vec<FaultRule>,
    stage1_calls: AtomicU64,
    stage2_calls: AtomicU64,
    compose_calls: AtomicU64,
    injected_errors: AtomicU64,
    injected_panics: AtomicU64,
    injected_stalls: AtomicU64,
    injected_corruptions: AtomicU64,
}

impl FaultInjector {
    /// An injector with no rules: fully transparent until
    /// [`with_rule`](Self::with_rule) adds a schedule.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            seed,
            rules: Vec::new(),
            stage1_calls: AtomicU64::new(0),
            stage2_calls: AtomicU64::new(0),
            compose_calls: AtomicU64::new(0),
            injected_errors: AtomicU64::new(0),
            injected_panics: AtomicU64::new(0),
            injected_stalls: AtomicU64::new(0),
            injected_corruptions: AtomicU64::new(0),
        }
    }

    /// Add one schedule line (builder style). Rules are consulted in
    /// insertion order; the first match fires.
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// True when the injector has no rules and can never fire.
    pub fn is_transparent(&self) -> bool {
        self.rules.is_empty()
    }

    fn ordinals(&self, site: FaultSite) -> &AtomicU64 {
        match site {
            FaultSite::Stage1 => &self.stage1_calls,
            FaultSite::Stage2 => &self.stage2_calls,
            FaultSite::Compose => &self.compose_calls,
        }
    }

    /// Calls observed at `site` so far (telemetry).
    pub fn calls(&self, site: FaultSite) -> u64 {
        // lint: allow(atomic-discipline) reason=telemetry read of a monotone ordinal; staleness only undercounts a progress report
        self.ordinals(site).load(Ordering::Relaxed)
    }

    /// Error faults fired so far.
    pub fn injected_errors(&self) -> u64 {
        self.injected_errors.load(Ordering::Relaxed)
    }

    /// Panic faults fired so far.
    pub fn injected_panics(&self) -> u64 {
        self.injected_panics.load(Ordering::Relaxed)
    }

    /// Stall faults fired so far.
    pub fn injected_stalls(&self) -> u64 {
        self.injected_stalls.load(Ordering::Relaxed)
    }

    /// Score corruptions fired so far.
    pub fn injected_corruptions(&self) -> u64 {
        self.injected_corruptions.load(Ordering::Relaxed)
    }

    /// Faults of every kind fired so far.
    pub fn injected_total(&self) -> u64 {
        self.injected_errors()
            + self.injected_panics()
            + self.injected_stalls()
            + self.injected_corruptions()
    }

    /// The fault planned for `(site, ordinal)`, if any — a pure function
    /// of the injector's seed and schedule.
    fn planned(&self, site: FaultSite, ordinal: u64) -> Option<FaultKind> {
        for rule in &self.rules {
            if rule.site != site {
                continue;
            }
            if rule.at.binary_search(&ordinal).is_ok() {
                return Some(rule.kind);
            }
            if rule.probability > 0.0 && draw(self.seed, site, ordinal) < rule.probability {
                return Some(rule.kind);
            }
        }
        None
    }

    /// Fire a planned fault: count it, then stall, unwind, or request
    /// score corruption (`true` return) from the caller.
    fn fire(&self, site: FaultSite, kind: FaultKind) -> bool {
        match kind {
            FaultKind::Stall(latency) => {
                self.injected_stalls.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(latency);
                false
            }
            FaultKind::CorruptScores => {
                self.injected_corruptions.fetch_add(1, Ordering::Relaxed);
                true
            }
            FaultKind::Error => {
                self.injected_errors.fetch_add(1, Ordering::Relaxed);
                // lint: allow(panic-freedom) reason=the injected error itself — unwinds are the error channel, see module docs
                std::panic::panic_any(InjectedFault { site })
            }
            FaultKind::Panic => {
                self.injected_panics.fetch_add(1, Ordering::Relaxed);
                // lint: allow(panic-freedom) reason=the injected crash itself, caught at the containment boundary or by the supervisor
                panic!("fault injection: deliberate component crash")
            }
        }
    }

    /// Tick one `site` ordinal and fire its planned fault, if any.
    /// Returns `true` when the caller must corrupt the scores it is
    /// about to produce.
    fn trip(&self, site: FaultSite) -> bool {
        // lint: allow(atomic-discipline) reason=ordinal claims only need atomicity of the RMW itself; the schedule is a pure function of (seed, ordinal), no cross-field publication
        let ordinal = self.ordinals(site).fetch_add(1, Ordering::Relaxed);
        match self.planned(site, ordinal) {
            Some(kind) => self.fire(site, kind),
            None => false,
        }
    }
}

/// Uniform draw in `[0, 1)` for decision `(seed, site, ordinal)` —
/// stateless, so decisions are position-independent (see module docs).
fn draw(seed: u64, site: FaultSite, ordinal: u64) -> f64 {
    let salt: u64 = match site {
        FaultSite::Stage1 => 0xA076_1D64_78BD_642F,
        FaultSite::Stage2 => 0xE703_7ED1_A0B4_28DB,
        FaultSite::Compose => 0x8EBC_6AF0_9C88_C6E3,
    };
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(
        seed ^ salt ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    // 53 high bits → the unit interval, the standard f64 construction.
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Overwrite every stage-1 score with `NaN` (a corrupted synopsis).
fn corrupt_scores(corr: &mut [Correlation]) {
    for c in corr {
        c.score = f64::NAN;
    }
}

/// An [`ApproximateService`] wrapper that injects its
/// [`FaultInjector`]'s schedule around the wrapped service's hooks —
/// the test/bench-facing way to make *production* serving paths fail on
/// demand. Transparent (bit-identical to the wrapped service) when the
/// injector has no rules.
///
/// Clones share the injector (the `Arc` is cloned, not the schedule), so
/// replicated deployments built from one faulty service draw fault
/// events from a single global call sequence.
#[derive(Clone)]
pub struct FaultyService<S> {
    inner: S,
    injector: Arc<FaultInjector>,
}

impl<S> FaultyService<S> {
    /// Wrap `inner`, injecting per `injector`'s schedule.
    pub fn new(inner: S, injector: Arc<FaultInjector>) -> Self {
        FaultyService { inner, injector }
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// This component's injector (telemetry: calls seen, faults fired).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }
}

impl<S: ApproximateService> ApproximateService for FaultyService<S> {
    type Row = S::Row;
    type Request = S::Request;
    type Output = S::Output;

    fn process_synopsis(
        &self,
        ctx: Ctx<'_, S::Row>,
        req: &Self::Request,
        corr: &mut Vec<Correlation>,
    ) -> Self::Output {
        let corrupt = self.injector.trip(FaultSite::Stage1);
        let out = self.inner.process_synopsis(ctx, req, corr);
        if corrupt {
            corrupt_scores(corr);
        }
        out
    }

    fn process_synopsis_into(
        &self,
        ctx: Ctx<'_, S::Row>,
        req: &Self::Request,
        corr: &mut Vec<Correlation>,
        out: &mut Self::Output,
    ) {
        let corrupt = self.injector.trip(FaultSite::Stage1);
        self.inner.process_synopsis_into(ctx, req, corr, out);
        if corrupt {
            corrupt_scores(corr);
        }
    }

    fn improve(
        &self,
        ctx: Ctx<'_, S::Row>,
        req: &Self::Request,
        out: &mut Self::Output,
        node: at_rtree::NodeId,
        members: &[u64],
    ) {
        // CorruptScores is a stage-1 concept; at stage 2 the returned
        // corruption flag has nothing to corrupt and is dropped.
        let _ = self.injector.trip(FaultSite::Stage2);
        self.inner.improve(ctx, req, out, node, members);
    }

    fn process_exact(&self, ctx: Ctx<'_, S::Row>, req: &Self::Request) -> Self::Output {
        // The exact path is the component's stage-1 ingress too.
        let _ = self.injector.trip(FaultSite::Stage1);
        self.inner.process_exact(ctx, req)
    }

    /// Offline maintenance, not a serving site: forwarded, never faulted.
    fn data_updated(&mut self, ctx: Ctx<'_, S::Row>) {
        self.inner.data_updated(ctx);
    }
}

impl<S: ComposableService> ComposableService for FaultyService<S> {
    type Response = S::Response;

    fn compose(&self, req: &Self::Request, parts: &[Self::Output]) -> Self::Response {
        let _ = self.injector.trip(FaultSite::Compose);
        self.inner.compose(req, parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_ordinals_fire_exactly() {
        let inj = FaultInjector::new(7).with_rule(FaultRule::at_calls(
            FaultSite::Stage1,
            FaultKind::CorruptScores,
            vec![2, 5, 2],
        ));
        let fired: Vec<bool> = (0..8).map(|_| inj.trip(FaultSite::Stage1)).collect();
        assert_eq!(
            fired,
            [false, false, true, false, false, true, false, false]
        );
        assert_eq!(inj.injected_corruptions(), 2);
        assert_eq!(inj.calls(FaultSite::Stage1), 8);
        assert_eq!(inj.calls(FaultSite::Stage2), 0);
    }

    #[test]
    fn probability_draws_are_deterministic_and_position_independent() {
        let a = FaultInjector::new(42).with_rule(FaultRule::with_probability(
            FaultSite::Stage2,
            FaultKind::CorruptScores,
            0.3,
        ));
        let b = FaultInjector::new(42).with_rule(FaultRule::with_probability(
            FaultSite::Stage2,
            FaultKind::CorruptScores,
            0.3,
        ));
        let plan_a: Vec<Option<FaultKind>> =
            (0..64).map(|n| a.planned(FaultSite::Stage2, n)).collect();
        let plan_b: Vec<Option<FaultKind>> =
            (0..64).map(|n| b.planned(FaultSite::Stage2, n)).collect();
        assert_eq!(plan_a, plan_b, "same seed ⇒ same schedule");
        let fired = plan_a.iter().filter(|p| p.is_some()).count();
        assert!(
            fired > 5 && fired < 35,
            "p=0.3 over 64 draws fired {fired} times — draw() looks broken"
        );
        // A different seed disagrees somewhere.
        let c = FaultInjector::new(43).with_rule(FaultRule::with_probability(
            FaultSite::Stage2,
            FaultKind::CorruptScores,
            0.3,
        ));
        let plan_c: Vec<Option<FaultKind>> =
            (0..64).map(|n| c.planned(FaultSite::Stage2, n)).collect();
        assert_ne!(plan_a, plan_c);
    }

    #[test]
    fn sites_draw_independently() {
        let inj = FaultInjector::new(9).with_rule(FaultRule::at_calls(
            FaultSite::Stage1,
            FaultKind::CorruptScores,
            vec![0],
        ));
        assert_eq!(
            inj.planned(FaultSite::Stage1, 0),
            Some(FaultKind::CorruptScores)
        );
        assert_eq!(inj.planned(FaultSite::Stage2, 0), None);
        assert_eq!(inj.planned(FaultSite::Compose, 0), None);
    }

    #[test]
    fn error_fault_unwinds_with_a_typed_payload() {
        let inj = Arc::new(FaultInjector::new(1).with_rule(FaultRule::at_calls(
            FaultSite::Compose,
            FaultKind::Error,
            vec![0],
        )));
        let victim = Arc::clone(&inj);
        let payload = std::thread::spawn(move || victim.trip(FaultSite::Compose))
            .join()
            .expect_err("rule must fire"); // lint: allow(panic-freedom) reason=asserting on the deliberate unwind in a test
        let fault = payload
            .downcast_ref::<InjectedFault>()
            .expect("typed payload"); // lint: allow(panic-freedom) reason=asserting on the deliberate unwind in a test
        assert_eq!(fault.site, FaultSite::Compose);
        assert_eq!(inj.injected_errors(), 1);
    }

    #[test]
    fn no_rules_means_transparent() {
        let inj = FaultInjector::new(123);
        assert!(inj.is_transparent());
        for _ in 0..100 {
            assert!(!inj.trip(FaultSite::Stage1));
        }
        assert_eq!(inj.injected_total(), 0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_probability_is_a_construction_bug() {
        FaultRule::with_probability(FaultSite::Stage1, FaultKind::Panic, 1.5);
    }
}
