//! The verification engine behind `capsim verify`: enumerates every
//! property, drives the seeded case stream through each, shrinks any
//! failure to a minimal repro file, and replays repro files
//! byte-for-byte.
//!
//! Property names are stable identifiers (`diff/confidence/queue/faulty`,
//! `oracle/hysteresis/cache`, `curve/best-invariants`, ...) — they seed
//! the per-case RNG, appear in repro files and select the replay path,
//! so renaming one invalidates old repros and is a breaking change.

use crate::diff::{run_differential, Resilience};
use crate::invariants::{
    curve_best_invariants, greedy_equals_degenerate_confidence, journal_replay_roundtrip,
    offline_optima_match_series, oracle_bound, reference_oracle_bound,
};
use crate::faults::faults_lanes_vs_serial;
use crate::joint::joint_lane_vs_core;
use crate::json::derive_roundtrip;
use crate::multisweep::{
    bpred_fused_vs_per_size, cache_one_pass_vs_legacy, core_run_vs_scan, core_vs_scan_reference,
    interval_lanes_vs_core, managed_lanes_vs_core, queue_lanes_vs_legacy,
    queue_lanes_vs_legacy_shapes, tlb_one_pass_vs_splits,
};
use crate::packed::packed_vs_inst;
use crate::rng::Rng;
use crate::scenario::{Scenario, StreamKind};
use crate::shrink::{shrink, DEFAULT_SHRINK_BUDGET};
use cap_core::policy::PolicyKind;
use cap_workloads::App;
use serde_json::Value;
use std::path::{Path, PathBuf};

/// Cap on journal-roundtrip cases: each writes and re-reads a real
/// file, so the filesystem — not the property — dominates past this.
const JOURNAL_CASE_CAP: u64 = 200;
/// Intervals for the offline-optima differential (one deterministic
/// case; the managed simulation makes it the costliest single check).
const OFFLINE_INTERVALS: u64 = 12;
/// Cap on the sweep-engine differentials: every case runs real
/// simulators over all 8 paper configurations twice, so past this the
/// simulators — not the property — dominate run time.
const SWEEP_CASE_CAP: u64 = 150;

/// One verification run's tuning.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Fuzz cases per property.
    pub cases: u64,
    /// Root seed; the whole run is a pure function of `(seed, cases)`.
    pub seed: u64,
    /// Directory repro files are written to (and journal scratch lives
    /// under).
    pub out_dir: PathBuf,
}

/// One property's outcome.
#[derive(Debug, Clone)]
pub struct PropertyReport {
    /// Stable property name.
    pub name: String,
    /// Cases actually checked.
    pub cases_run: u64,
    /// Cases skipped by a documented guard (e.g. exact-tie streams).
    pub skipped: u64,
    /// The first failure, already shrunk, if any.
    pub failure: Option<FailureReport>,
}

/// A shrunk property failure.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// Case index (under this run's seed) that first failed.
    pub case: u64,
    /// The failure rendered after shrinking.
    pub message: String,
    /// Repro file path, when one could be written.
    pub repro_path: Option<PathBuf>,
}

/// A whole verification run.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Root seed the run used.
    pub seed: u64,
    /// Per-property outcomes, in execution order.
    pub properties: Vec<PropertyReport>,
}

impl VerifyReport {
    /// Whether any property failed.
    pub fn failed(&self) -> bool {
        self.properties.iter().any(|p| p.failure.is_some())
    }
}

/// `Ok(true)`: checked and passed. `Ok(false)`: skipped by a guard.
/// `Err`: the property failed with this message.
type Check = dyn Fn(&Scenario) -> Result<bool, String>;

fn write_repro(out_dir: &Path, name: &str, body: &str) -> Option<PathBuf> {
    let file = format!("cap-verify-repro-{}.json", name.replace('/', "-"));
    let path = out_dir.join(file);
    match std::fs::write(&path, body) {
        Ok(()) => Some(path),
        Err(_) => None,
    }
}

/// A scenario repro: the scenario's own byte-exact JSON with the
/// property identity spliced in (extra keys are ignored on parse).
fn scenario_repro_json(property: &str, case: u64, sc: &Scenario) -> String {
    let body = sc.to_json();
    format!(
        "{{\"cap_verify_repro\":1,\"property\":\"{property}\",\"case\":{case},{}",
        body.strip_prefix('{').unwrap_or(&body)
    )
}

/// An RNG-replayable repro for properties whose cases are not
/// scenarios (curve and journal checks).
fn seeded_repro_json(property: &str, seed: u64, case: u64) -> String {
    format!("{{\"cap_verify_repro\":1,\"property\":\"{property}\",\"seed\":{seed},\"case\":{case}}}")
}

/// Runs one scenario-generated property over `cases` cases.
fn run_scenario_property(
    name: &str,
    cfg: &VerifyConfig,
    generate: &dyn Fn(&mut Rng) -> Scenario,
    check: &Check,
) -> PropertyReport {
    let mut report =
        PropertyReport { name: name.to_string(), cases_run: 0, skipped: 0, failure: None };
    for case in 0..cfg.cases {
        let mut rng = Rng::for_case(cfg.seed, name, case);
        let sc = generate(&mut rng);
        match check(&sc) {
            Ok(true) => report.cases_run += 1,
            Ok(false) => report.skipped += 1,
            Err(_) => {
                let small = shrink(&sc, |s| check(s).is_err(), DEFAULT_SHRINK_BUDGET);
                let message = match check(&small) {
                    Err(m) => m,
                    Ok(_) => unreachable!("shrink preserves failure"),
                };
                let repro = scenario_repro_json(name, case, &small);
                report.failure = Some(FailureReport {
                    case,
                    message,
                    repro_path: write_repro(&cfg.out_dir, name, &repro),
                });
                return report;
            }
        }
    }
    report
}

/// Runs one RNG-seeded (non-scenario) property.
fn run_seeded_property(
    name: &str,
    cfg: &VerifyConfig,
    cases: u64,
    check: &dyn Fn(&mut Rng, u64) -> Result<(), String>,
) -> PropertyReport {
    let mut report =
        PropertyReport { name: name.to_string(), cases_run: 0, skipped: 0, failure: None };
    for case in 0..cases {
        let mut rng = Rng::for_case(cfg.seed, name, case);
        if let Err(message) = check(&mut rng, case) {
            report.failure = Some(FailureReport {
                case,
                message,
                repro_path: write_repro(
                    &cfg.out_dir,
                    name,
                    &seeded_repro_json(name, cfg.seed, case),
                ),
            });
            return report;
        }
        report.cases_run += 1;
    }
    report
}

/// Checks a diff property: bit-lockstep against the reference model.
fn diff_check(sc: &Scenario, resilience: Resilience) -> Result<bool, String> {
    run_differential(sc, resilience).map(|()| true).map_err(|d| d.to_string())
}

/// The resilience a diff property runs under, named by its second path
/// segment: `diff/confidence-hardened/...` is hardened, every other
/// `diff/<policy>/...` legacy.
fn diff_resilience(property: &str) -> Resilience {
    match property.split('/').nth(1) {
        Some(policy) if policy.ends_with("-hardened") => Resilience::Hardened,
        _ => Resilience::Legacy,
    }
}

/// Checks an oracle property on both the production policy and the
/// reference model, so the bound and the differential can't share a
/// blind spot.
fn oracle_check(sc: &Scenario) -> Result<bool, String> {
    oracle_bound(sc)?;
    reference_oracle_bound(sc)?;
    Ok(true)
}

/// Runs the full verification suite. `progress` is called once per
/// completed property (the CLI prints a line per call).
pub fn run_verify(cfg: &VerifyConfig, progress: &mut dyn FnMut(&PropertyReport)) -> VerifyReport {
    let mut properties = Vec::new();
    let mut push = |report: PropertyReport, progress: &mut dyn FnMut(&PropertyReport)| {
        progress(&report);
        properties.push(report);
    };

    // Differential oracle: every policy × stream shape × fault flavor.
    for policy in PolicyKind::ALL {
        for kind in [StreamKind::Queue, StreamKind::Cache] {
            for faulty in [false, true] {
                let name = format!(
                    "diff/{}/{}/{}",
                    policy.name(),
                    kind.name(),
                    if faulty { "faulty" } else { "clean" }
                );
                let r = run_scenario_property(
                    &name,
                    cfg,
                    &move |rng| Scenario::generate(rng, policy, kind, faulty),
                    &|sc| diff_check(sc, Resilience::Legacy),
                );
                push(r, progress);
            }
        }
    }

    // The fault campaign's hardened confidence manager: outlier
    // clamping, probation and the thrash watchdog under faulty streams.
    for kind in [StreamKind::Queue, StreamKind::Cache] {
        let name = format!("diff/confidence-hardened/{}/faulty", kind.name());
        let r = run_scenario_property(
            &name,
            cfg,
            &move |rng| Scenario::generate(rng, PolicyKind::Confidence, kind, true),
            &|sc| diff_check(sc, Resilience::Hardened),
        );
        push(r, progress);
    }

    // Offline-optimum bound: clean streams only.
    for policy in PolicyKind::ALL {
        for kind in [StreamKind::Queue, StreamKind::Cache] {
            let name = format!("oracle/{}/{}", policy.name(), kind.name());
            let r = run_scenario_property(
                &name,
                cfg,
                &move |rng| Scenario::generate(rng, policy, kind, false),
                &oracle_check,
            );
            push(r, progress);
        }
    }

    // Metamorphic equivalence: greedy == knob-degenerate confidence.
    for kind in [StreamKind::Queue, StreamKind::Cache] {
        let name = format!("equiv/greedy-confidence/{}", kind.name());
        let r = run_scenario_property(
            &name,
            cfg,
            &move |rng| Scenario::generate(rng, PolicyKind::IntervalGreedy, kind, false),
            &greedy_equals_degenerate_confidence,
        );
        push(r, progress);
    }

    // Curve math invariants.
    let r = run_seeded_property("curve/best-invariants", cfg, cfg.cases, &|rng, _| {
        curve_best_invariants(rng)
    });
    push(r, progress);

    // Journal crash-safety round trip (filesystem-bound; capped).
    let scratch = cfg.out_dir.clone();
    let journal_cases = cfg.cases.min(JOURNAL_CASE_CAP);
    let r = run_seeded_property("journal/replay-roundtrip", cfg, journal_cases, &|rng, case| {
        journal_replay_roundtrip(rng, &scratch, case)
    });
    push(r, progress);

    // Offline optima vs public per-interval series: one deterministic
    // differential against the real simulator.
    let r = run_seeded_property("offline/optima-vs-series", cfg, 1, &|_, _| {
        offline_optima_match_series(App::Compress, OFFLINE_INTERVALS)
    });
    push(r, progress);

    // Single-pass sweep engines: each fast path pinned bit-for-bit to
    // its per-configuration reference (simulator-bound; capped).
    let sweep_cases = cfg.cases.min(SWEEP_CASE_CAP);
    let r = run_seeded_property("sweep/cache/one-pass-vs-legacy", cfg, sweep_cases, &|rng, _| {
        cache_one_pass_vs_legacy(rng)
    });
    push(r, progress);
    let r = run_seeded_property("sweep/queue/tape-vs-legacy", cfg, sweep_cases, &|rng, _| {
        queue_lanes_vs_legacy(rng)
    });
    push(r, progress);
    let r =
        run_seeded_property("sweep/queue/lanes-vs-legacy-shapes", cfg, sweep_cases, &|rng, _| {
            queue_lanes_vs_legacy_shapes(rng)
        });
    push(r, progress);
    let r = run_seeded_property("sweep/ooo/core-vs-scan", cfg, sweep_cases, &|rng, _| {
        core_vs_scan_reference(rng)
    });
    push(r, progress);
    let r = run_seeded_property("sweep/ooo/run-vs-scan", cfg, sweep_cases, &|rng, _| {
        core_run_vs_scan(rng)
    });
    push(r, progress);
    let r = run_seeded_property("sweep/bpred/fused-vs-per-size", cfg, sweep_cases, &|rng, _| {
        bpred_fused_vs_per_size(rng)
    });
    push(r, progress);
    let r = run_seeded_property("sweep/tlb/one-pass-vs-splits", cfg, sweep_cases, &|rng, _| {
        tlb_one_pass_vs_splits(rng)
    });
    push(r, progress);
    let r = run_seeded_property("managed/queue/lanes-vs-core", cfg, sweep_cases, &|rng, _| {
        managed_lanes_vs_core(rng)
    });
    push(r, progress);
    let r = run_seeded_property("interval/fixed/lanes-vs-core", cfg, sweep_cases, &|rng, _| {
        interval_lanes_vs_core(rng)
    });
    push(r, progress);
    let r = run_seeded_property("faults/lanes-vs-serial", cfg, sweep_cases, &|rng, _| {
        faults_lanes_vs_serial(rng)
    });
    push(r, progress);
    let r = run_seeded_property("extended/joint-lane-vs-core", cfg, sweep_cases, &|rng, _| {
        joint_lane_vs_core(rng)
    });
    push(r, progress);

    // The generators' native packed path against packing `next_inst`.
    let r = run_seeded_property("trace/packed-vs-inst", cfg, cfg.cases, &packed_vs_inst);
    push(r, progress);

    // Every derived JSON decoder against its derived encoder.
    let r = run_seeded_property("json/derive-roundtrip", cfg, cfg.cases, &|rng, _| {
        derive_roundtrip(rng)
    });
    push(r, progress);

    VerifyReport { seed: cfg.seed, properties }
}

/// The outcome of replaying a repro file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// The repro still fails, with this message — the expected result
    /// when replaying a freshly shrunk failure.
    Reproduced(String),
    /// The repro passes now (the bug is fixed, or the repro is stale).
    Clean,
}

/// Replays a repro file produced by [`run_verify`]. Deterministic: the
/// same file yields the same outcome and message on every machine.
pub fn replay(text: &str, scratch: &Path) -> Result<ReplayOutcome, String> {
    let doc: Value =
        serde_json::from_str(text).map_err(|e| format!("repro is not valid JSON: {e:?}"))?;
    if doc.get("cap_verify_repro").and_then(Value::as_u64) != Some(1) {
        return Err("not a cap-verify repro file".to_string());
    }
    let property = doc
        .get("property")
        .and_then(Value::as_str)
        .ok_or("repro names no property")?
        .to_string();

    let outcome_of = |result: Result<bool, String>| match result {
        Ok(_) => Ok(ReplayOutcome::Clean),
        Err(m) => Ok(ReplayOutcome::Reproduced(format!("{property}: {m}"))),
    };

    if property.starts_with("diff/") {
        let sc = Scenario::from_json(text)?;
        return outcome_of(diff_check(&sc, diff_resilience(&property)));
    }
    if property.starts_with("oracle/") {
        let sc = Scenario::from_json(text)?;
        return outcome_of(oracle_check(&sc));
    }
    if property.starts_with("equiv/") {
        let sc = Scenario::from_json(text)?;
        return outcome_of(greedy_equals_degenerate_confidence(&sc));
    }
    if property.starts_with("selfcheck/") {
        let sc = Scenario::from_json(text)?;
        return outcome_of(crate::selfcheck::planted_bug_check(&sc));
    }

    // RNG-seeded repros replay by regenerating the exact case.
    let seed = doc.get("seed").and_then(Value::as_u64).ok_or("repro lacks a seed")?;
    let case = doc.get("case").and_then(Value::as_u64).ok_or("repro lacks a case index")?;
    let mut rng = Rng::for_case(seed, &property, case);
    match property.as_str() {
        "curve/best-invariants" => outcome_of(curve_best_invariants(&mut rng).map(|()| true)),
        "journal/replay-roundtrip" => {
            outcome_of(journal_replay_roundtrip(&mut rng, scratch, case).map(|()| true))
        }
        "offline/optima-vs-series" => {
            outcome_of(offline_optima_match_series(App::Compress, OFFLINE_INTERVALS).map(|()| true))
        }
        "sweep/cache/one-pass-vs-legacy" => {
            outcome_of(cache_one_pass_vs_legacy(&mut rng).map(|()| true))
        }
        "sweep/queue/tape-vs-legacy" => outcome_of(queue_lanes_vs_legacy(&mut rng).map(|()| true)),
        "sweep/queue/lanes-vs-legacy-shapes" => {
            outcome_of(queue_lanes_vs_legacy_shapes(&mut rng).map(|()| true))
        }
        "sweep/ooo/core-vs-scan" => outcome_of(core_vs_scan_reference(&mut rng).map(|()| true)),
        "sweep/ooo/run-vs-scan" => outcome_of(core_run_vs_scan(&mut rng).map(|()| true)),
        "sweep/bpred/fused-vs-per-size" => {
            outcome_of(bpred_fused_vs_per_size(&mut rng).map(|()| true))
        }
        "sweep/tlb/one-pass-vs-splits" => {
            outcome_of(tlb_one_pass_vs_splits(&mut rng).map(|()| true))
        }
        "managed/queue/lanes-vs-core" => outcome_of(managed_lanes_vs_core(&mut rng).map(|()| true)),
        "interval/fixed/lanes-vs-core" => outcome_of(interval_lanes_vs_core(&mut rng).map(|()| true)),
        "faults/lanes-vs-serial" => outcome_of(faults_lanes_vs_serial(&mut rng).map(|()| true)),
        "extended/joint-lane-vs-core" => outcome_of(joint_lane_vs_core(&mut rng).map(|()| true)),
        "trace/packed-vs-inst" => outcome_of(packed_vs_inst(&mut rng, case).map(|()| true)),
        "json/derive-roundtrip" => outcome_of(derive_roundtrip(&mut rng).map(|()| true)),
        other => Err(format!("repro names an unknown property {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_cfg(cases: u64) -> VerifyConfig {
        let dir = std::env::temp_dir().join(format!("cap-verify-engine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        VerifyConfig { cases, seed: 0x15CA_1998, out_dir: dir }
    }

    #[test]
    fn a_small_full_run_passes_every_property() {
        let cfg = tmp_cfg(15);
        let mut lines = 0;
        let report = run_verify(&cfg, &mut |_| lines += 1);
        for p in &report.properties {
            assert!(p.failure.is_none(), "{} failed: {:?}", p.name, p.failure);
        }
        assert!(!report.failed());
        assert_eq!(lines, report.properties.len());
        // 16 diff + 2 hardened diff + 8 oracle + 2 equiv + curve
        // + journal + offline + 7 sweep-engine differentials + managed
        // lanes + fixed-window interval lanes + fault-campaign lanes + the
        // joint run's lane + the packed generator path + the JSON round
        // trip.
        assert_eq!(report.properties.len(), 44);
    }

    #[test]
    fn scenario_repros_replay_to_the_same_outcome() {
        let cfg = tmp_cfg(1);
        let mut rng = Rng::for_case(3, "repro-unit", 0);
        let sc = Scenario::generate(
            &mut rng,
            PolicyKind::Confidence,
            StreamKind::Queue,
            true,
        );
        for property in ["diff/confidence/queue/faulty", "diff/confidence-hardened/queue/faulty"] {
            let text = scenario_repro_json(property, 0, &sc);
            let a = replay(&text, &cfg.out_dir).unwrap();
            let b = replay(&text, &cfg.out_dir).unwrap();
            assert_eq!(a, b);
            assert_eq!(a, ReplayOutcome::Clean, "{property}: production matches its reference");
        }
        assert_eq!(diff_resilience("diff/confidence/queue/faulty"), Resilience::Legacy);
        assert_eq!(diff_resilience("diff/confidence-hardened/cache/faulty"), Resilience::Hardened);
    }

    #[test]
    fn malformed_repros_error_cleanly() {
        let dir = std::env::temp_dir();
        for bad in ["", "{}", "{\"cap_verify_repro\":1}", "{\"cap_verify_repro\":2,\"property\":\"x\"}"] {
            assert!(replay(bad, &dir).is_err(), "{bad:?}");
        }
    }
}
