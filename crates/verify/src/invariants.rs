//! Metamorphic and bounding invariants the policies and curve math must
//! satisfy regardless of inputs.
//!
//! Where the differential oracle ([`crate::diff`]) pins each policy to
//! a reference *implementation*, these properties pin the system to
//! reference *mathematics*:
//!
//! * no online policy ever beats the offline per-interval oracle over
//!   its own landscape (a hard lower bound, checked with no tolerance —
//!   the comparison is pointwise before summation, so float rounding
//!   cannot produce a false failure);
//! * `interval-greedy` is exactly the `confidence` policy with its
//!   knobs zeroed (threshold 0, hysteresis 0, re-exploration off);
//! * a curve's `best()` equals a naive O(n) scan, and is invariant
//!   under point permutation and exact power-of-two TPI scaling;
//! * a leg journal written, reopened and replayed returns every value
//!   bit-for-bit (the crash-safety contract the resume machinery is
//!   built on);
//! * the experiment layer's offline optima (process-level and oracle
//!   TPI) equal a from-scratch recomputation over the public
//!   per-interval series.

use crate::reference::RefPolicy;
use crate::rng::Rng;
use crate::scenario::Scenario;
use cap_core::experiments::{ExecPolicy, IntervalExperiment, QueueCurve, QueuePoint};
use cap_core::manager::{ConfidencePolicy, ManagerDecision, SwitchOutcome};
use cap_core::policy::{PolicyConfig, PolicyKind};
use cap_par::{Journal, JournalHeader};
use cap_timing::queue::PAPER_SIZES;
use cap_workloads::App;
use std::path::Path;

/// Drives the production policy over the clean landscape (honouring
/// every decision, all switches succeed) and checks it never beats the
/// offline per-interval oracle.
///
/// Sound with zero tolerance: at every step the policy's true TPI is
/// `>=` that step's row minimum, and both sums accumulate one term per
/// step in the same order, so the partial sums stay ordered under
/// round-to-nearest.
pub fn oracle_bound(sc: &Scenario) -> Result<(), String> {
    if sc.is_faulty() {
        return Err("oracle bound only applies to clean scenarios".to_string());
    }
    let mut policy = PolicyConfig::new(sc.policy)
        .build(sc.num_configs, cap_obs::noop(), None)
        .map_err(|e| format!("policy construction failed: {e}"))?;
    let mut at = 0usize;
    let mut achieved = 0.0f64;
    let mut oracle = 0.0f64;
    for row in &sc.landscape {
        achieved += row[at];
        let mut lo = f64::INFINITY;
        for &v in row {
            if v < lo {
                lo = v;
            }
        }
        oracle += lo;
        if let ManagerDecision::SwitchTo(c) = policy.observe(at, row[at]) {
            if c != at {
                policy.record_switch_outcome(c, SwitchOutcome::Succeeded);
                at = c;
            }
        }
    }
    if achieved >= oracle {
        Ok(())
    } else {
        Err(format!(
            "policy {} beat the offline oracle: achieved {achieved} < oracle {oracle}",
            sc.policy
        ))
    }
}

/// Drives `interval-greedy` and a knob-degenerate `confidence` policy
/// (threshold 0, hysteresis 0, re-exploration off) in lockstep over the
/// clean landscape; their decision streams must be identical.
///
/// Returns `Ok(false)` (skipped, not checked) when two estimates become
/// bit-equal: on an exact tie greedy switches to the lower index while
/// degenerate confidence needs a strict win, a documented and intended
/// difference, so such cases prove nothing either way.
pub fn greedy_equals_degenerate_confidence(sc: &Scenario) -> Result<bool, String> {
    if sc.is_faulty() {
        return Err("the equivalence is only claimed for clean streams".to_string());
    }
    let mut greedy = PolicyConfig::new(PolicyKind::IntervalGreedy)
        .build(sc.num_configs, cap_obs::noop(), None)
        .map_err(|e| format!("greedy construction failed: {e}"))?;
    let mut conf = PolicyConfig::new(PolicyKind::Confidence)
        .with_explore_period(0)
        .with_confidence(ConfidencePolicy::none())
        .build(sc.num_configs, cap_obs::noop(), None)
        .map_err(|e| format!("confidence construction failed: {e}"))?;
    let mut at = 0usize;
    for (t, row) in sc.landscape.iter().enumerate() {
        let dg = greedy.observe(at, row[at]);
        let dc = conf.observe(at, row[at]);
        let est = greedy.estimates_snapshot();
        let mut bits: Vec<u64> = est.iter().filter_map(|e| e.map(f64::to_bits)).collect();
        bits.sort_unstable();
        if bits.windows(2).any(|w| w[0] == w[1]) {
            return Ok(false);
        }
        if dg != dc {
            return Err(format!(
                "step {t}: greedy {dg:?} vs degenerate-confidence {dc:?} (repro: {})",
                sc.to_json()
            ));
        }
        if let ManagerDecision::SwitchTo(c) = dg {
            if c != at {
                greedy.record_switch_outcome(c, SwitchOutcome::Succeeded);
                conf.record_switch_outcome(c, SwitchOutcome::Succeeded);
                at = c;
            }
        }
    }
    Ok(true)
}

/// The same bound as [`oracle_bound`], enforced over the *reference*
/// policy so the bound and the differential can't share a bug.
pub fn reference_oracle_bound(sc: &Scenario) -> Result<(), String> {
    if sc.is_faulty() {
        return Err("oracle bound only applies to clean scenarios".to_string());
    }
    let mut policy = RefPolicy::new(sc.policy, sc.num_configs);
    let mut at = 0usize;
    let mut achieved = 0.0f64;
    let mut oracle = 0.0f64;
    for row in &sc.landscape {
        achieved += row[at];
        let mut lo = f64::INFINITY;
        for &v in row {
            if v < lo {
                lo = v;
            }
        }
        oracle += lo;
        if let ManagerDecision::SwitchTo(c) = policy.observe(at, row[at]) {
            if c != at {
                policy.record_switch_outcome(c, SwitchOutcome::Succeeded);
                at = c;
            }
        }
    }
    if achieved >= oracle {
        Ok(())
    } else {
        Err(format!("reference {} beat the offline oracle", sc.policy))
    }
}

/// A random synthetic queue curve (the curve invariants are about the
/// container math, not the simulator, so synthetic points suffice).
fn random_curve(rng: &mut Rng) -> QueueCurve {
    let n = rng.range(1, 12) as usize;
    let points = (0..n)
        .map(|i| QueuePoint {
            entries: 16 * (i + 1),
            cycle_ns: 0.5 + rng.unit(),
            ipc: 0.5 + rng.unit() * 3.0,
            tpi_ns: 0.2 + rng.unit() * 5.0,
        })
        .collect();
    QueueCurve { app: "synthetic".to_string(), integer_panel: true, points }
}

/// `best()` == naive scan, and the best TPI is invariant under point
/// permutation (reversal) and exact power-of-two scaling.
pub fn curve_best_invariants(rng: &mut Rng) -> Result<(), String> {
    let curve = random_curve(rng);

    let naive = curve
        .points
        .iter()
        .map(|p| p.tpi_ns)
        .fold(f64::INFINITY, |m, v| if v < m { v } else { m });
    let best = curve.best().tpi_ns;
    if best.to_bits() != naive.to_bits() {
        return Err(format!("best() {best} != naive scan {naive}"));
    }

    let mut reversed = curve.clone();
    reversed.points.reverse();
    if reversed.best().tpi_ns.to_bits() != best.to_bits() {
        return Err("best TPI changed under point reversal".to_string());
    }

    // Powers of two rescale every mantissa exactly, so the argmin set
    // and the scaled minimum are exact.
    let scale = [0.25f64, 0.5, 2.0, 4.0, 8.0][rng.below(5) as usize];
    let mut scaled = curve.clone();
    for p in &mut scaled.points {
        p.tpi_ns *= scale;
    }
    if scaled.best().tpi_ns.to_bits() != (best * scale).to_bits() {
        return Err(format!("best TPI not equivariant under exact scaling by {scale}"));
    }
    if scaled.best().entries != curve.best().entries {
        return Err("argmin moved under exact scaling".to_string());
    }
    Ok(())
}

/// Writes a journal of random float legs, reopens it in resume mode and
/// checks every value replays bit-for-bit; then appends one more leg
/// and re-verifies, exercising the compact-on-resume path.
pub fn journal_replay_roundtrip(rng: &mut Rng, dir: &Path, tag: u64) -> Result<(), String> {
    let path = dir.join(format!("verify-journal-{tag}.jsonl"));
    let header = JournalHeader {
        experiment: "verify-roundtrip".to_string(),
        seed: rng.next_u64(),
        scale: "smoke".to_string(),
        policy: None,
        results_version: 1,
    };
    let legs: Vec<(String, Vec<f64>)> = (0..rng.range(1, 6))
        .map(|i| {
            let row: Vec<f64> = (0..rng.range(1, 8)).map(|_| rng.unit() * 100.0).collect();
            (format!("leg-{i}"), row)
        })
        .collect();

    let run = || -> Result<(), String> {
        {
            let mut j = Journal::begin(&path, header.clone(), false)?;
            for (leg, row) in &legs {
                j.append(leg, row)?;
            }
        }
        let reopened = Journal::begin(&path, header.clone(), true)?;
        if reopened.replayed() != legs.len() || reopened.dropped() != 0 {
            return Err(format!(
                "resume replayed {} legs (dropped {}), wrote {}",
                reopened.replayed(),
                reopened.dropped(),
                legs.len()
            ));
        }
        for (leg, row) in &legs {
            let value = reopened.lookup(leg).ok_or_else(|| format!("{leg} missing on replay"))?;
            let got: Option<Vec<u64>> = value
                .as_array()
                .map(|vs| vs.iter().filter_map(|v| v.as_f64().map(f64::to_bits)).collect());
            let want: Vec<u64> = row.iter().map(|v| v.to_bits()).collect();
            if got.as_deref() != Some(&want[..]) {
                return Err(format!("{leg} replayed with different bits"));
            }
        }
        Ok(())
    };
    let result = run();
    let _ = std::fs::remove_file(&path);
    // Every writer is gone, so the scratch journal's lock goes too.
    let _ = std::fs::remove_file(dir.join(format!("verify-journal-{tag}.jsonl.lock")));
    result
}

/// Recomputes the Section 6 offline optima (best fixed window and the
/// per-interval oracle envelope) from the public per-interval series
/// and checks the experiment layer reports the identical bits.
///
/// Also asserts the published ordering `oracle <= process-level` — the
/// prescient envelope can never lose to a fixed configuration drawn
/// from the same series.
pub fn offline_optima_match_series(app: App, intervals: u64) -> Result<(), String> {
    let exp = IntervalExperiment::new();
    let series: Vec<Vec<f64>> = PAPER_SIZES
        .iter()
        .map(|&w| exp.interval_series(app, w, intervals, &ExecPolicy::serial()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("interval series failed: {e}"))?;
    // Recompute exactly as documented: totals per window, then min;
    // per-interval min across windows, then sum.
    let totals: Vec<f64> = series.iter().map(|s| s.iter().sum::<f64>()).collect();
    let process_level = totals.iter().cloned().fold(f64::INFINITY, f64::min) / intervals as f64;
    let oracle = (0..intervals as usize)
        .map(|i| series.iter().map(|s| s[i]).fold(f64::INFINITY, f64::min))
        .sum::<f64>()
        / intervals as f64;

    let cmp = exp
        .policy_comparison(app, intervals, &[PolicyConfig::new(PolicyKind::Confidence)], &ExecPolicy::serial())
        .map_err(|e| format!("policy comparison failed: {e}"))?
        .remove(0);
    if cmp.process_level_tpi.to_bits() != process_level.to_bits() {
        return Err(format!(
            "process-level optimum diverged: reported {} vs recomputed {process_level}",
            cmp.process_level_tpi
        ));
    }
    if cmp.oracle_tpi.to_bits() != oracle.to_bits() {
        return Err(format!(
            "oracle optimum diverged: reported {} vs recomputed {oracle}",
            cmp.oracle_tpi
        ));
    }
    // NaN on either side must fail the bound, so compare via partial_cmp
    // rather than `oracle > process_level` (false for NaN).
    use std::cmp::Ordering::{Equal, Less};
    if !matches!(oracle.partial_cmp(&process_level), Some(Less | Equal)) {
        return Err(format!("oracle {oracle} > process-level {process_level}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::StreamKind;

    #[test]
    fn oracle_bound_holds_on_a_quick_sample() {
        let mut rng = Rng::for_case(1, "oracle-unit", 0);
        for kind in [StreamKind::Queue, StreamKind::Cache] {
            for policy in PolicyKind::ALL {
                let sc = Scenario::generate(&mut rng, policy, kind, false);
                oracle_bound(&sc).unwrap();
                reference_oracle_bound(&sc).unwrap();
            }
        }
    }

    #[test]
    fn greedy_equivalence_holds_on_a_quick_sample() {
        let mut rng = Rng::for_case(1, "equiv-unit", 0);
        let mut checked = 0;
        for case in 0..20 {
            let kind = if case % 2 == 0 { StreamKind::Queue } else { StreamKind::Cache };
            let sc = Scenario::generate(&mut rng, PolicyKind::IntervalGreedy, kind, false);
            if greedy_equals_degenerate_confidence(&sc).unwrap() {
                checked += 1;
            }
        }
        assert!(checked > 0, "every case skipped as a tie — generator broken");
    }

    #[test]
    fn curve_invariants_hold_on_a_quick_sample() {
        let mut rng = Rng::for_case(1, "curve-unit", 0);
        for _ in 0..50 {
            curve_best_invariants(&mut rng).unwrap();
        }
    }

    #[test]
    fn journal_roundtrip_holds() {
        let dir = std::env::temp_dir();
        let mut rng = Rng::for_case(1, "journal-unit", 0);
        for tag in 0..5 {
            journal_replay_roundtrip(&mut rng, &dir, 0xABC0 + tag).unwrap();
        }
    }
}
