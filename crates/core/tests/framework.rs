//! Framework behaviour tests: managers on crafted TPI series, dynamic
//! clock accounting, adaptive-structure round trips, and cross-checks
//! between the pattern predictor and the figure-13 machinery.

use cap_core::clock::DynamicClock;
use cap_core::experiments::{ExecPolicy, ExperimentScale, IntervalExperiment, QueueExperiment};
use cap_core::manager::{ConfidencePolicy, ManagerDecision};
use cap_core::pattern::PatternPredictor;
use cap_core::policy::{ConfigPolicy, PolicyConfig, PolicyKind};
use cap_core::power::{queue_frontier, PowerModel};
use cap_core::structure::{AdaptiveStructure, CacheStructure, QueueStructure};
use cap_timing::cacti::CacheTimingModel;
use cap_timing::queue::QueueTimingModel;
use cap_timing::units::Ns;
use cap_timing::Technology;
use cap_workloads::App;
use proptest::prelude::*;

/// The confidence manager over `n` configurations, no re-sampling.
fn manager(n: usize, gating: ConfidencePolicy) -> Box<dyn ConfigPolicy> {
    PolicyConfig::new(PolicyKind::Confidence)
        .with_explore_period(0)
        .with_confidence(gating)
        .build(n, cap_obs::noop(), None)
        .unwrap()
}

#[test]
fn manager_follows_a_phase_change() {
    // Config 0 is best for a while, then config 1 becomes much better.
    let mut m = manager(2, ConfidencePolicy { threshold: 1, hysteresis: 0.02 });
    let mut at = 0usize;
    // Exploration.
    for _ in 0..2 {
        if let ManagerDecision::SwitchTo(c) = m.observe(at, if at == 0 { 1.0 } else { 2.0 }) {
            at = c;
        }
    }
    // Settle on 0.
    for _ in 0..10 {
        if let ManagerDecision::SwitchTo(c) = m.observe(at, if at == 0 { 1.0 } else { 2.0 }) {
            at = c;
        }
    }
    assert_eq!(at, 0, "settled on the better configuration");
    // Phase change: config 0 degrades badly; the manager has a stale
    // estimate of config 1 (2.0) and should move once 0's EWMA crosses.
    for _ in 0..20 {
        if let ManagerDecision::SwitchTo(c) = m.observe(at, if at == 0 { 5.0 } else { 2.0 }) {
            at = c;
        }
    }
    assert_eq!(at, 1, "followed the phase change");
}

#[test]
fn manager_never_switches_on_flat_series() {
    let mut m = manager(4, ConfidencePolicy::default_policy());
    let mut at = 0usize;
    let mut switches_after_explore = 0;
    for i in 0..60 {
        match m.observe(at, 1.0) {
            ManagerDecision::SwitchTo(c) => {
                if i >= 4 {
                    switches_after_explore += 1;
                }
                at = c;
            }
            ManagerDecision::Stay => {}
        }
    }
    assert_eq!(switches_after_explore, 0, "identical configs never justify a switch");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The clock's total penalty equals the sum of per-switch penalties,
    /// and reselecting is always free.
    #[test]
    fn clock_accounting(periods in prop::collection::vec(0.2f64..2.0, 2..6), selections in prop::collection::vec(0usize..6, 0..30)) {
        let n = periods.len();
        let mut clock = DynamicClock::new(periods.iter().map(|&p| Ns(p)).collect(), 30).unwrap();
        let mut expected = 0.0;
        let mut switches = 0;
        for &sel in selections.iter().filter(|&&s| s < n) {
            let before = clock.period();
            let penalty = clock.select(sel).unwrap();
            if sel == clock.selected() && penalty == Ns(0.0) && before == clock.period() {
                // re-selection: free
            }
            if penalty > Ns(0.0) {
                switches += 1;
                expected += 30.0 * before.value().max(clock.period().value());
            }
        }
        prop_assert_eq!(clock.switches(), switches);
        prop_assert!((clock.total_penalty().value() - expected).abs() < 1e-9);
    }

    /// Structure reconfiguration round-trips: after any sequence of
    /// reconfigurations the reported config matches the last request and
    /// the clock table is stable.
    #[test]
    fn structure_roundtrip(seq in prop::collection::vec(0usize..8, 1..20)) {
        let mut q = QueueStructure::isca98(QueueTimingModel::default(), 0).unwrap();
        let table = q.period_table().unwrap();
        for &i in &seq {
            q.reconfigure(i).unwrap();
            prop_assert_eq!(q.current(), i);
        }
        prop_assert_eq!(q.period_table().unwrap(), table);

        let mut c = CacheStructure::isca98(
            CacheTimingModel::isca98(Technology::isca98_evaluation()),
            0,
        )
        .unwrap();
        for &i in &seq {
            c.reconfigure(i).unwrap();
            prop_assert_eq!(c.current(), i);
            prop_assert_eq!(c.cache().boundary().l1_kb(), (i + 1) * 8);
        }
    }

    /// The pattern predictor is exactly right on strictly periodic
    /// winner sequences once the history holds two periods.
    #[test]
    fn predictor_exact_on_periodic(half in 2usize..12, configs in 2usize..4) {
        let period = half * configs;
        let winners: Vec<usize> = (0..6 * period).map(|i| (i / half) % configs).collect();
        let mut p = PatternPredictor::new(64.max(2 * period + 2));
        let warm = 3 * period;
        for &w in &winners[..warm] {
            p.record(w);
        }
        let mut correct = 0;
        let mut total = 0;
        for &w in &winners[warm..] {
            let pred = p.predict().unwrap();
            if pred.config == w {
                correct += 1;
            }
            total += 1;
            p.record(w);
        }
        prop_assert_eq!(correct, total, "periodic sequences must be fully predictable");
    }
}

#[test]
fn fig13_winners_feed_the_predictor() {
    // The whole §6 chain: figure-13 snapshot (a) -> winner sequence ->
    // pattern predictor -> confident, accurate predictions.
    let fig = IntervalExperiment::new().figure13(&ExecPolicy::serial()).expect("valid configuration");
    let (a, b) = fig.pattern_predictability(0.8);
    assert!(a.coverage() > 0.5, "regular snapshot coverage {}", a.coverage());
    assert!(a.accuracy() > 0.8, "regular snapshot accuracy {}", a.accuracy());
    assert!(b.coverage() < a.coverage(), "irregular snapshot must see more abstention");
}

#[test]
fn power_frontier_is_pareto_nontrivial() {
    // At least three distinct non-dominated (tpi, power) points: the
    // paper's claim of "several performance/power design points".
    let exp = QueueExperiment::new(ExperimentScale::Smoke);
    let frontier = queue_frontier(&exp.sweep(App::Perl).unwrap(), PowerModel::typical());
    let pareto: Vec<_> = frontier
        .iter()
        .filter(|p| {
            !frontier
                .iter()
                .any(|q| q.tpi_ns < p.tpi_ns - 1e-12 && q.power < p.power - 1e-12)
        })
        .collect();
    assert!(pareto.len() >= 3, "got {} pareto points", pareto.len());
}

#[test]
fn managed_runs_respect_the_clock_table() {
    // Every interval of a managed run must be charged at one of the
    // structure's table periods (or the max of two adjacent ones during
    // a transition).
    use cap_core::manager::{run_managed_lanes, QueueLane};
    let timing = QueueTimingModel::default();
    let structure = QueueStructure::isca98(timing, 0).unwrap();
    let table = structure.period_table().unwrap();
    let clock = DynamicClock::new(table.clone(), 30).unwrap();
    let policy = manager(8, ConfidencePolicy::default_policy());
    let mut lanes = [QueueLane { structure, policy, clock, injector: None }];
    let stream = App::Gcc.ilp_profile().build(13);
    let run = run_managed_lanes(stream, &mut lanes, &[(30, 1000)]).unwrap().remove(0);
    assert_eq!(run.run.intervals.len(), 30);
    for rec in &run.run.intervals {
        let ok = table.iter().any(|&p| (p - rec.period).value().abs() < 1e-12);
        assert!(ok, "period {} not in table", rec.period);
    }
}
