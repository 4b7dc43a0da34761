//! The lockstep differential driver: production policy vs reference
//! model over one [`Scenario`].
//!
//! Both sides see the identical observed-TPI stream, the identical
//! switch-outcome plan and the identical retirement mask. After every
//! interval the driver compares everything a policy makes visible —
//! the decision itself, the interval counter, safe mode, the
//! quarantine census and the raw bit pattern of every TPI estimate —
//! and at the end of the stream the cumulative decision and resilience
//! tallies. The first mismatch becomes a [`Divergence`] naming the
//! step, the field and both values.

use crate::reference::RefPolicy;
use crate::scenario::{Scenario, SwitchPlan};
use cap_core::manager::{ManagerDecision, ResiliencePolicy, SwitchOutcome};
use cap_core::policy::PolicyConfig;
use std::fmt;

/// Which production tuning a differential run builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resilience {
    /// `PolicyConfig::new(kind)`: default knobs, legacy resilience.
    Legacy,
    /// The fault campaign's tuning: explore period 25 and
    /// [`ResiliencePolicy::hardened`] (outlier clamping, probation,
    /// thrash watchdog).
    Hardened,
}

/// The first observable difference between the production policy and
/// its reference model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Interval index at which the models disagreed (`steps()` for
    /// end-of-stream tally mismatches).
    pub step: usize,
    /// Which observable field disagreed.
    pub field: &'static str,
    /// The production policy's value, rendered.
    pub production: String,
    /// The reference model's value, rendered.
    pub reference: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "step {}: {} diverged: production {} vs reference {}",
            self.step, self.field, self.production, self.reference
        )
    }
}

fn render(d: ManagerDecision) -> String {
    match d {
        ManagerDecision::Stay => "stay".to_string(),
        ManagerDecision::SwitchTo(c) => format!("switch-to {c}"),
    }
}

/// Estimates as raw bit patterns, so "same number printed two ways"
/// can never mask a drift.
fn estimate_bits(estimates: &[Option<f64>]) -> Vec<Option<u64>> {
    estimates.iter().map(|e| e.map(f64::to_bits)).collect()
}

/// Runs the scenario through the production policy and the reference
/// model, both built with `resilience`, in lockstep. `Ok(())` means
/// every observable agreed at every step; `Err` carries the first
/// divergence.
///
/// Construction failures (which the generator never produces) are
/// reported as a step-0 divergence rather than a panic, so hand-edited
/// repro files stay safe to replay.
pub fn run_differential(sc: &Scenario, resilience: Resilience) -> Result<(), Divergence> {
    let (config, mut reference) = match resilience {
        Resilience::Legacy => (PolicyConfig::new(sc.policy), RefPolicy::new(sc.policy, sc.num_configs)),
        Resilience::Hardened => (
            PolicyConfig::new(sc.policy)
                .with_explore_period(25)
                .with_resilience(ResiliencePolicy::hardened()),
            RefPolicy::hardened(sc.policy, sc.num_configs),
        ),
    };
    let mut prod = match config.build(sc.num_configs, cap_obs::noop(), None) {
        Ok(p) => p,
        Err(e) => {
            return Err(Divergence {
                step: 0,
                field: "construction",
                production: format!("error: {e}"),
                reference: "a policy".to_string(),
            })
        }
    };

    let mut at = 0usize;
    let mut attempts = 0usize;
    for t in 0..sc.steps() {
        if let Some((step, masks)) = &sc.mask_at {
            if *step == t {
                let pr = prod.mask_unavailable(masks);
                let rr = reference.mask_unavailable(masks);
                if pr.is_err() != rr.is_err() {
                    return Err(Divergence {
                        step: t,
                        field: "mask_unavailable",
                        production: format!("err={}", pr.is_err()),
                        reference: format!("err={}", rr.is_err()),
                    });
                }
                if pr.is_err() {
                    // Nothing viable remains; a real runner would abort
                    // here, and both sides agreed that it must.
                    return Ok(());
                }
            }
        }

        let tpi = sc.sample(t, at);
        let dp = prod.observe(at, tpi);
        let dr = reference.observe(at, tpi);
        if dp != dr {
            return Err(Divergence {
                step: t,
                field: "decision",
                production: render(dp),
                reference: render(dr),
            });
        }
        let checks: [(&'static str, String, String); 4] = [
            ("intervals_seen", prod.intervals_seen().to_string(), reference.intervals_seen().to_string()),
            ("in_safe_mode", prod.in_safe_mode().to_string(), reference.in_safe_mode().to_string()),
            (
                "quarantined_count",
                prod.quarantined_count().to_string(),
                reference.quarantined_count().to_string(),
            ),
            (
                "estimates",
                format!("{:?}", estimate_bits(&prod.estimates_snapshot())),
                format!("{:?}", estimate_bits(reference.estimates())),
            ),
        ];
        for (field, production, reference) in checks {
            if production != reference {
                return Err(Divergence { step: t, field, production, reference });
            }
        }

        if let ManagerDecision::SwitchTo(next) = dp {
            if next != at {
                let outcome = match sc.fault_for(attempts) {
                    SwitchPlan::Succeed => SwitchOutcome::Succeeded,
                    SwitchPlan::Transient => SwitchOutcome::TransientFailure,
                    SwitchPlan::Permanent => SwitchOutcome::PermanentFailure,
                };
                attempts += 1;
                prod.record_switch_outcome(next, outcome);
                reference.record_switch_outcome(next, outcome);
                if outcome == SwitchOutcome::Succeeded {
                    at = next;
                }
            }
        }
    }

    let end = sc.steps();
    let (pc, rc) = (prod.decision_counts(), reference.decision_counts());
    if pc != rc {
        return Err(Divergence {
            step: end,
            field: "decision_counts",
            production: format!("{pc:?}"),
            reference: format!("{rc:?}"),
        });
    }
    let (ps, rs) = (prod.resilience_stats(), reference.resilience_stats());
    if ps != rs {
        return Err(Divergence {
            step: end,
            field: "resilience_stats",
            production: format!("{ps:?}"),
            reference: format!("{rs:?}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::scenario::StreamKind;
    use cap_core::policy::PolicyKind;

    #[test]
    fn every_policy_matches_its_reference_on_a_quick_sample() {
        for (p, policy) in PolicyKind::ALL.into_iter().enumerate() {
            for (k, kind) in [StreamKind::Queue, StreamKind::Cache].into_iter().enumerate() {
                for faulty in [false, true] {
                    let mut rng = Rng::for_case(0xD1FF, "diff-unit", (p * 4 + k * 2) as u64 + faulty as u64);
                    for _ in 0..25 {
                        let sc = Scenario::generate(&mut rng, policy, kind, faulty);
                        for resilience in [Resilience::Legacy, Resilience::Hardened] {
                            if let Err(d) = run_differential(&sc, resilience) {
                                panic!("{policy} ({resilience:?}) diverged: {d}\nrepro: {}", sc.to_json());
                            }
                        }
                    }
                }
            }
        }
    }
}
