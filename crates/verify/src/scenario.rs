//! Fuzz scenarios: randomized interval streams a policy is driven over.
//!
//! A [`Scenario`] is the complete, self-contained input of one
//! differential or metamorphic check: the policy under test, a synthetic
//! TPI landscape (`steps × configs`, the "true" TPI each configuration
//! would deliver in each interval), plus an optional fault plan —
//! corrupted telemetry samples, switch failures, and mid-run hardware
//! retirement. Scenarios serialize to JSON with every `f64` stored as
//! its raw bit pattern, so a repro file replays **byte-for-byte**: the
//! replayed run performs the exact same float arithmetic as the run
//! that failed.

use crate::rng::Rng;
use cap_core::policy::PolicyKind;
use serde::Serialize;
use serde_json::{FromJson, Value};

/// Repro-file / scenario format version.
pub const SCENARIO_FORMAT: u32 = 1;

/// Which structure family the stream is shaped after.
///
/// The landscapes are synthetic either way (that is what makes 10k-case
/// fuzzing affordable), but their *shape* follows the two adaptive
/// structures: queue streams have a convex TPI-vs-configuration curve
/// with a phase-dependent sweet spot (Figure 10), cache streams a
/// monotone ramp that phase changes can invert (Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Issue-queue-shaped: convex, interior optimum.
    Queue,
    /// Cache-boundary-shaped: ramps that invert across phases.
    Cache,
}

impl StreamKind {
    /// Stable lowercase name used in property names and repro files.
    pub fn name(self) -> &'static str {
        match self {
            StreamKind::Queue => "queue",
            StreamKind::Cache => "cache",
        }
    }

    /// Parses [`StreamKind::name`].
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "queue" => Some(StreamKind::Queue),
            "cache" => Some(StreamKind::Cache),
            _ => None,
        }
    }
}

/// Planned outcome of the k-th switch attempt (attempts past the end of
/// the plan succeed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchPlan {
    /// The switch completes.
    Succeed,
    /// The switch fails transiently.
    Transient,
    /// The switch fails permanently (broken configuration).
    Permanent,
}

impl SwitchPlan {
    const ALL: [SwitchPlan; 3] = [SwitchPlan::Succeed, SwitchPlan::Transient, SwitchPlan::Permanent];

    /// The letter a repro file writes for this outcome.
    fn letter(self) -> char {
        match self {
            SwitchPlan::Succeed => 's',
            SwitchPlan::Transient => 't',
            SwitchPlan::Permanent => 'p',
        }
    }
}

/// One complete fuzz-case input.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The policy under differential test.
    pub policy: PolicyKind,
    /// The structure family the stream is shaped after.
    pub kind: StreamKind,
    /// Configurations under management.
    pub num_configs: usize,
    /// `landscape[t][c]`: the true TPI (ns) configuration `c` delivers in
    /// interval `t`.
    pub landscape: Vec<Vec<f64>>,
    /// Per-interval telemetry corruption: when `Some`, the policy
    /// observes this raw value instead of the landscape value (NaN,
    /// negative, zero, absurdly large, ...). The landscape value still
    /// defines the oracle.
    pub corrupt: Vec<Option<f64>>,
    /// Outcome plan for switch attempts, in attempt order.
    pub switch_faults: Vec<SwitchPlan>,
    /// Configurations retired by the hardware before observing the given
    /// step (never all of them).
    pub mask_at: Option<(usize, Vec<usize>)>,
}

impl Scenario {
    /// Number of intervals in the stream.
    pub fn steps(&self) -> usize {
        self.landscape.len()
    }

    /// Whether the scenario carries any fault-plan entries at all.
    pub fn is_faulty(&self) -> bool {
        self.corrupt.iter().any(Option::is_some)
            || self.switch_faults.iter().any(|f| *f != SwitchPlan::Succeed)
            || self.mask_at.is_some()
    }

    /// The raw sample the policy observes for interval `t` run at
    /// `config`: the corrupted telemetry if the fault plan says so, the
    /// true landscape value otherwise.
    pub fn sample(&self, t: usize, config: usize) -> f64 {
        self.corrupt[t].unwrap_or(self.landscape[t][config])
    }

    /// Planned outcome of switch attempt number `attempt`.
    pub fn fault_for(&self, attempt: usize) -> SwitchPlan {
        self.switch_faults.get(attempt).copied().unwrap_or(SwitchPlan::Succeed)
    }

    /// Generates one scenario from the deterministic stream.
    pub fn generate(rng: &mut Rng, policy: PolicyKind, kind: StreamKind, faulty: bool) -> Self {
        let num_configs = rng.range(2, 8) as usize;
        let steps = rng.range(20, 120) as usize;

        // Piecewise-constant phases: each phase rescales every
        // configuration, moving the optimum around.
        let phases = rng.range(1, 3) as usize;
        let mut boundaries: Vec<usize> = (0..phases - 1)
            .map(|_| rng.below(steps as u64) as usize)
            .collect();
        boundaries.sort_unstable();

        let base: Vec<f64> = match kind {
            StreamKind::Queue => {
                // Convex in the configuration index, optimum inside.
                let argmin = rng.below(num_configs as u64) as f64;
                let floor = 0.5 + rng.unit() * 2.0;
                let bend = 0.05 + rng.unit() * 0.4;
                (0..num_configs)
                    .map(|c| floor + bend * (c as f64 - argmin) * (c as f64 - argmin))
                    .collect()
            }
            StreamKind::Cache => {
                // A ramp; the sign decides which end wins before phases
                // start inverting it.
                let floor = 0.5 + rng.unit() * 2.0;
                let slope = (rng.unit() - 0.5) * 0.8;
                (0..num_configs).map(|c| (floor + slope * c as f64).max(0.1)).collect()
            }
        };
        let mult: Vec<Vec<f64>> = (0..phases)
            .map(|_| (0..num_configs).map(|_| 0.6 + rng.unit()).collect())
            .collect();

        let landscape: Vec<Vec<f64>> = (0..steps)
            .map(|t| {
                let phase = boundaries.iter().filter(|&&b| b <= t).count();
                (0..num_configs)
                    .map(|c| base[c] * mult[phase][c] * (1.0 + 0.02 * (rng.unit() - 0.5)))
                    .collect()
            })
            .collect();

        let corrupt: Vec<Option<f64>> = (0..steps)
            .map(|_| {
                if faulty && rng.chance(0.08) {
                    Some(*rng.pick(&[
                        f64::NAN,
                        f64::INFINITY,
                        f64::NEG_INFINITY,
                        -1.0,
                        0.0,
                        -0.0,
                        1.0e300,
                        1.0e-300,
                    ]))
                } else {
                    None
                }
            })
            .collect();

        let switch_faults: Vec<SwitchPlan> = if faulty {
            (0..32)
                .map(|_| {
                    if rng.chance(0.20) {
                        SwitchPlan::Transient
                    } else if rng.chance(0.03) {
                        SwitchPlan::Permanent
                    } else {
                        SwitchPlan::Succeed
                    }
                })
                .collect()
        } else {
            Vec::new()
        };

        let mask_at = if faulty && rng.chance(0.3) {
            let step = rng.below(steps as u64) as usize;
            let count = rng.range(1, num_configs as u64 - 1) as usize;
            let mut configs: Vec<usize> = Vec::new();
            while configs.len() < count {
                let c = rng.below(num_configs as u64) as usize;
                if !configs.contains(&c) {
                    configs.push(c);
                }
            }
            configs.sort_unstable();
            Some((step, configs))
        } else {
            None
        };

        Scenario { policy, kind, num_configs, landscape, corrupt, switch_faults, mask_at }
    }

    /// Serializes to the byte-exact repro JSON (floats as raw bits).
    pub fn to_json(&self) -> String {
        let doc = ScenarioDoc {
            cap_verify_scenario: SCENARIO_FORMAT,
            policy: self.policy.name().to_string(),
            kind: self.kind.name().to_string(),
            configs: self.num_configs,
            landscape: self
                .landscape
                .iter()
                .map(|row| row.iter().map(|v| v.to_bits()).collect())
                .collect(),
            corrupt: self.corrupt.iter().map(|v| v.map(f64::to_bits)).collect(),
            switch_faults: self.switch_faults.iter().map(|f| f.letter()).collect(),
            mask_at: self.mask_at.clone(),
        };
        serde_json::to_string(&doc).expect("vendored serializer is infallible")
    }

    /// Parses and validates a repro JSON. Every structural deviation is a
    /// clean error: replay must never panic on a hand-edited file.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc: Value =
            serde_json::from_str(text).map_err(|e| format!("repro is not valid JSON: {e:?}"))?;
        let format = doc
            .get("cap_verify_scenario")
            .and_then(Value::as_u64)
            .ok_or("not a cap-verify repro file")?;
        if format != u64::from(SCENARIO_FORMAT) {
            return Err(format!(
                "repro format v{format}, this binary replays v{SCENARIO_FORMAT}"
            ));
        }
        let doc = ScenarioDoc::from_json(&doc)
            .ok_or("repro lacks a field, or a field has the wrong type")?;
        let policy = PolicyKind::parse(&doc.policy).ok_or("repro names an unknown policy")?;
        let kind = StreamKind::parse(&doc.kind).ok_or("repro names an unknown stream kind")?;
        let num_configs = doc.configs;
        if num_configs == 0 {
            return Err("repro has zero configurations".into());
        }
        if doc.landscape.is_empty() {
            return Err("repro has an empty landscape".into());
        }
        if doc.landscape.iter().any(|row| row.len() != num_configs) {
            return Err("landscape row width differs from the config count".into());
        }
        if doc.corrupt.len() != doc.landscape.len() {
            return Err("corrupt plan length differs from the landscape".into());
        }
        let switch_faults: Vec<SwitchPlan> = doc
            .switch_faults
            .chars()
            .map(|c| SwitchPlan::ALL.into_iter().find(|p| p.letter() == c))
            .collect::<Option<_>>()
            .ok_or("switch-fault plan has an unknown outcome letter")?;
        if let Some((_, configs)) = &doc.mask_at {
            if configs.iter().any(|&c| c >= num_configs) || configs.len() >= num_configs {
                return Err("mask plan retires out-of-range or all configurations".into());
            }
        }
        Ok(Scenario {
            policy,
            kind,
            num_configs,
            landscape: doc
                .landscape
                .into_iter()
                .map(|row| row.into_iter().map(f64::from_bits).collect())
                .collect(),
            corrupt: doc.corrupt.into_iter().map(|v| v.map(f64::from_bits)).collect(),
            switch_faults,
            mask_at: doc.mask_at,
        })
    }
}

/// A [`Scenario`]'s repro-file form: every `f64` as its raw bits, the
/// switch plan as one letter per attempt, `mask_at` as `[step, configs]`.
#[derive(Serialize, FromJson)]
struct ScenarioDoc {
    cap_verify_scenario: u32,
    policy: String,
    kind: String,
    configs: usize,
    landscape: Vec<Vec<u64>>,
    corrupt: Vec<Option<u64>>,
    switch_faults: String,
    mask_at: Option<(usize, Vec<usize>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_is_bit_exact() {
        let mut rng = Rng::for_case(9, "scenario-roundtrip", 0);
        for (case, (kind, faulty)) in [
            (StreamKind::Queue, false),
            (StreamKind::Cache, true),
            (StreamKind::Queue, true),
        ]
        .into_iter()
        .enumerate()
        {
            let sc = Scenario::generate(&mut rng, PolicyKind::ALL[case % 4], kind, faulty);
            let back = Scenario::from_json(&sc.to_json()).expect("round trip");
            assert_eq!(sc, back);
            // And the serialized form itself is stable.
            assert_eq!(sc.to_json(), back.to_json());
        }
    }

    #[test]
    fn faulty_streams_eventually_carry_every_fault_flavor() {
        let mut rng = Rng::for_case(3, "scenario-faults", 0);
        let (mut saw_corrupt, mut saw_switch, mut saw_mask) = (false, false, false);
        for _ in 0..50 {
            let sc = Scenario::generate(&mut rng, PolicyKind::Confidence, StreamKind::Cache, true);
            saw_corrupt |= sc.corrupt.iter().any(Option::is_some);
            saw_switch |= sc.switch_faults.iter().any(|f| *f != SwitchPlan::Succeed);
            saw_mask |= sc.mask_at.is_some();
        }
        assert!(saw_corrupt && saw_switch && saw_mask);
    }

    #[test]
    fn clean_streams_carry_no_faults() {
        let mut rng = Rng::for_case(3, "scenario-clean", 0);
        for _ in 0..20 {
            let sc = Scenario::generate(&mut rng, PolicyKind::Hysteresis, StreamKind::Queue, false);
            assert!(!sc.is_faulty());
            assert!(sc.landscape.iter().flatten().all(|v| v.is_finite() && *v > 0.0));
        }
    }

    #[test]
    fn malformed_repro_files_error_cleanly() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"cap_verify_scenario\":99}",
            "{\"cap_verify_scenario\":1,\"policy\":\"optimal\"}",
        ] {
            assert!(Scenario::from_json(bad).is_err(), "{bad:?}");
        }
    }
}
