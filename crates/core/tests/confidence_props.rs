//! Property tests for the confidence-gated predictor: switches never
//! fire before the threshold of consecutive wins, sub-hysteresis gains
//! never build confidence, and corrupted monitoring samples (the fault
//! harness's NaN/dropped classes) cannot fabricate confidence either.

use cap_core::faults::{FaultInjector, FaultSpec};
use cap_core::manager::{ConfidencePolicy, ManagerDecision, ResiliencePolicy};
use cap_core::policy::{ConfigPolicy, PolicyConfig, PolicyKind};
use cap_obs::{Event, RingRecorder};
use proptest::prelude::*;
use std::sync::Arc;

/// The confidence manager over two configurations, no re-sampling,
/// tracing its decisions to the returned ring.
fn manager(
    gating: ConfidencePolicy,
    resilience: ResiliencePolicy,
) -> (Box<dyn ConfigPolicy>, Arc<RingRecorder>) {
    let ring = Arc::new(RingRecorder::new());
    let m = PolicyConfig::new(PolicyKind::Confidence)
        .with_explore_period(0)
        .with_confidence(gating)
        .with_resilience(resilience)
        .build(2, ring.clone(), None)
        .unwrap();
    (m, ring)
}

/// The configuration the last traced decision predicted.
fn predicted(ring: &RingRecorder) -> Option<usize> {
    match ring.events().pop() {
        Some(Event::Decision(d)) => d.predicted,
        other => panic!("the last event is not a decision: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A prediction must win exactly `threshold + 1` consecutive
    /// intervals before a switch fires — never earlier, always then.
    #[test]
    fn no_switch_before_threshold_consecutive_wins(threshold in 1u32..6) {
        let (mut m, _) = manager(ConfidencePolicy { threshold, hysteresis: 0.0 }, ResiliencePolicy::legacy());
        // Exploration: both configurations sampled once.
        prop_assert_eq!(m.observe(0, 5.0), ManagerDecision::SwitchTo(1));
        prop_assert_eq!(m.observe(1, 1.0), ManagerDecision::Stay);
        // Config 1 beats config 0 every interval; the switch must wait
        // out the full confidence build-up.
        for _win in 1..=threshold {
            prop_assert_eq!(m.observe(0, 5.0), ManagerDecision::Stay);
        }
        prop_assert_eq!(m.observe(0, 5.0), ManagerDecision::SwitchTo(1));
    }

    /// An interrupted win streak resets confidence: after a losing
    /// interval the predictor starts over and again needs the full
    /// streak.
    #[test]
    fn broken_streaks_reset_confidence(threshold in 2u32..6, partial in 1u32..6) {
        let (mut m, _) = manager(ConfidencePolicy { threshold, hysteresis: 0.0 }, ResiliencePolicy::legacy());
        let _ = m.observe(0, 5.0);
        let _ = m.observe(1, 1.0);
        // A partial win streak, strictly short of the threshold.
        for _ in 0..partial.min(threshold - 1) {
            prop_assert_eq!(m.observe(0, 5.0), ManagerDecision::Stay);
        }
        // An interval at the predicted config itself: it cannot beat
        // itself, so no win is scored and confidence resets.
        prop_assert_eq!(m.observe(1, 1.0), ManagerDecision::Stay);
        // The full streak is required all over again.
        for _ in 1..=threshold {
            prop_assert_eq!(m.observe(0, 5.0), ManagerDecision::Stay);
        }
        prop_assert_eq!(m.observe(0, 5.0), ManagerDecision::SwitchTo(1));
    }

    /// Gains strictly below the hysteresis margin never build confidence
    /// and never switch — even with dropped monitoring samples
    /// interleaved.
    #[test]
    fn sub_hysteresis_gains_never_build_confidence(
        hysteresis in 0.02f64..0.5,
        frac in 0.0f64..0.95,
        drop_mask in 0u32..u32::MAX,
    ) {
        // Config 1 is better than config 0, but by strictly less than
        // the hysteresis margin.
        let gain = hysteresis * frac;
        let better = 1.0 - gain;
        let (mut m, ring) = manager(ConfidencePolicy { threshold: 0, hysteresis }, ResiliencePolicy::legacy());
        let _ = m.observe(0, 1.0);
        let _ = m.observe(1, better);
        for i in 0..32 {
            // Some intervals report a dropped sample (negative sentinel,
            // as the fault injector produces); the estimates must not
            // move and confidence must not build either way.
            let v = if drop_mask & (1 << i) != 0 { -1.0 } else { 1.0 };
            prop_assert_eq!(m.observe(0, v), ManagerDecision::Stay);
            prop_assert_eq!(predicted(&ring), None, "sub-hysteresis gain built confidence");
        }
    }

    /// On identical true TPIs, NaN and dropped samples injected into the
    /// monitoring path can never fabricate a winning prediction: after
    /// exploration the manager holds position with no predicted best.
    #[test]
    fn corrupted_samples_never_fabricate_confidence(seed in 0u64..512) {
        let spec = FaultSpec {
            sample_nan_prob: 0.3,
            sample_drop_prob: 0.3,
            ..FaultSpec::disabled()
        };
        let mut inj = FaultInjector::new(spec, seed, 2).unwrap();
        let (mut m, ring) =
            manager(ConfidencePolicy { threshold: 1, hysteresis: 0.02 }, ResiliencePolicy::hardened());
        let mut at = 0usize;
        for _ in 0..200 {
            let explored = m.estimates_snapshot().iter().all(|e| e.is_some());
            match m.observe(at, inj.corrupt_tpi(1.0)) {
                ManagerDecision::SwitchTo(c) => {
                    prop_assert!(!explored, "switched on equal TPIs after exploration");
                    at = c;
                }
                ManagerDecision::Stay => {}
            }
            prop_assert_eq!(predicted(&ring), None);
        }
        let s = inj.stats();
        prop_assert_eq!(s.samples_corrupted_outlier, 0);
        prop_assert_eq!(s.transient_switch_faults + s.permanent_switch_faults, 0);
    }
}
