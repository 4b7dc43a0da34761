//! End-to-end reproduction checks (DESIGN.md experiments E-1..E-4): the
//! paper's headline claims must hold *qualitatively* — direction, rough
//! factor, and crossover structure — when the full pipeline (workloads →
//! simulators → timing → managers) runs at smoke scale.

use cap::core::experiments::{
    CacheExperiment, ExecPolicy, ExperimentScale, IntervalExperiment, QueueExperiment,
};
use cap::core::manager::ConfidencePolicy;
use cap::core::policy::{PolicyConfig, PolicyKind};
use cap::workloads::App;

fn cache() -> CacheExperiment {
    CacheExperiment::new(ExperimentScale::Smoke).expect("valid geometry")
}

fn queue() -> QueueExperiment {
    QueueExperiment::new(ExperimentScale::Smoke)
}

/// The Section 6 confidence manager (explore period 40) at the given
/// gating.
fn confidence(gating: ConfidencePolicy) -> PolicyConfig {
    PolicyConfig::new(PolicyKind::Confidence).with_confidence(gating)
}

#[test]
fn e1_cache_headline_directions() {
    let h = cache().headline(&ExecPolicy::serial()).expect("valid sweep");
    // Paper: TPImiss -26 %, TPI -9 % on average; stereo -46 %/-65 %;
    // appcg -22 %; compress TPImiss -43 %. Accept generous bands around
    // the paper's numbers, but the directions and rough factors must
    // hold.
    assert!(h.tpimiss_reduction > 0.08, "mean TPImiss reduction {:.3}", h.tpimiss_reduction);
    assert!(h.tpi_reduction > 0.03, "mean TPI reduction {:.3}", h.tpi_reduction);
    assert!(h.tpi_reduction < h.tpimiss_reduction, "TPI gains are diluted by base time");
    assert!((0.25..=0.60).contains(&h.stereo_tpi_reduction), "stereo TPI {:.3}", h.stereo_tpi_reduction);
    assert!((0.40..=0.80).contains(&h.stereo_tpimiss_reduction), "stereo TPImiss {:.3}", h.stereo_tpimiss_reduction);
    assert!((0.10..=0.40).contains(&h.appcg_tpi_reduction), "appcg TPI {:.3}", h.appcg_tpi_reduction);
    assert!(h.compress_tpimiss_reduction > 0.3, "compress TPImiss {:.3}", h.compress_tpimiss_reduction);
}

#[test]
fn e1_stereo_dominates_the_cache_study() {
    let f9 = cache().figure9(&ExecPolicy::serial()).expect("valid sweep");
    let best = f9.best_improvement().expect("nonempty");
    assert_eq!(best.app, "stereo", "stereo is the headline cache win");
}

#[test]
fn e2_queue_headline_directions() {
    let h = queue().headline(&ExecPolicy::serial()).expect("valid sweep");
    // Paper: mean -7 %; appcg -28 %, fpppp -21 %, radar -10 %,
    // compress -8 %.
    assert!((0.02..=0.20).contains(&h.tpi_reduction), "mean {:.3}", h.tpi_reduction);
    assert!((0.15..=0.35).contains(&h.appcg_tpi_reduction), "appcg {:.3}", h.appcg_tpi_reduction);
    assert!(h.fpppp_tpi_reduction > 0.10, "fpppp {:.3}", h.fpppp_tpi_reduction);
    assert!(h.radar_tpi_reduction > 0.05, "radar {:.3}", h.radar_tpi_reduction);
    assert!(h.compress_tpi_reduction > 0.04, "compress {:.3}", h.compress_tpi_reduction);
}

#[test]
fn e3_diversity_structure() {
    // Fig 7: most apps best at 8-16 KB; the named exceptions are not.
    let curves = cache().figure7(&ExecPolicy::serial()).expect("valid sweep");
    let small = curves.iter().filter(|c| c.best().l1_kb <= 16).count();
    assert!(small >= 13, "only {small} of {} apps prefer a small L1", curves.len());
    let by_name = |n: &str| curves.iter().find(|c| c.app == n).expect("app in suite");
    assert!(by_name("stereo").best().l1_kb >= 48);
    assert!(by_name("appcg").best().l1_kb >= 56);
    assert!(by_name("compress").best().l1_kb > 16);

    // Fig 10: most apps best at 64 entries; compress at 128; the three
    // recurrence-bound apps at 16.
    let curves = queue().figure10(&ExecPolicy::serial()).expect("valid sweep");
    let at64 = curves.iter().filter(|c| c.best().entries == 64).count();
    assert!(at64 >= 12, "only {at64} of {} apps peak at 64 entries", curves.len());
    let by_name = |n: &str| curves.iter().find(|c| c.app == n).expect("app in suite");
    assert!(by_name("compress").best().entries >= 112);
    for n in ["radar", "fpppp", "appcg"] {
        assert_eq!(by_name(n).best().entries, 16, "{n}");
    }
}

#[test]
fn e3_adaptive_never_loses_at_process_level() {
    // By construction the process-level adaptive scheme picks the argmin
    // of the same sweep the conventional configuration belongs to, so no
    // application may regress in TPI.
    let f9 = cache().figure9(&ExecPolicy::serial()).expect("valid sweep");
    for b in &f9.bars {
        assert!(b.adaptive <= b.conventional + 1e-12, "{}: {} > {}", b.app, b.adaptive, b.conventional);
    }
    let f11 = queue().figure11(&ExecPolicy::serial()).expect("valid sweep");
    for b in &f11.bars {
        assert!(b.adaptive <= b.conventional + 1e-12, "{}", b.app);
    }
}

#[test]
fn e1_adaptive_tpimiss_may_regress() {
    // Paper §5.2.3: "The TPImiss of the adaptive approach is in some
    // cases higher than that of the conventional design" — optimizing
    // overall TPI sometimes picks a faster clock over fewer misses.
    let f8 = cache().figure8(&ExecPolicy::serial()).expect("valid sweep");
    let regressions = f8.bars.iter().filter(|b| b.adaptive > b.conventional).count();
    assert!(regressions >= 1, "expected at least one TPImiss regression (applu-style)");
}

#[test]
fn e4_interval_snapshots() {
    let exp = IntervalExperiment::new();

    // Fig 12: turb3d has long one-sided stretches.
    let f12 = exp.figure12(&ExecPolicy::serial()).expect("valid configuration");
    let (a64, a128) = f12.snapshot_a_wins();
    let (b64, b128) = f12.snapshot_b_wins();
    assert!(a64 > 3 * a128, "snapshot a must favor 64 entries: {a64} vs {a128}");
    assert!(b128 > 3 * b64, "snapshot b must favor 128 entries: {b64} vs {b128}");

    // Fig 13: vortex alternates regularly in (a).
    let f13 = exp.figure13(&ExecPolicy::serial()).expect("valid configuration");
    let (s16, s64) = f13.snapshot_a_wins();
    assert!(s16 >= 15 && s64 >= 15, "both configs win long stretches: {s16} vs {s64}");
}

#[test]
fn e4_interval_manager_between_fixed_and_oracle() {
    let exp = IntervalExperiment::new();
    let cmp = exp
        .policy_comparison(App::Turb3d, 500, &[confidence(ConfidencePolicy::default_policy())], &ExecPolicy::serial())
        .expect("valid configuration")
        .remove(0);
    // The oracle bounds everything from below.
    assert!(cmp.oracle_tpi <= cmp.process_level_tpi + 1e-9);
    assert!(cmp.oracle_tpi <= cmp.managed_tpi + 1e-9);
    // The manager must be sane: within 25 % of the best fixed config
    // even while paying exploration and switch penalties.
    assert!(
        cmp.managed_tpi <= cmp.process_level_tpi * 1.25,
        "managed {:.3} vs process {:.3}",
        cmp.managed_tpi,
        cmp.process_level_tpi
    );
    assert!(cmp.switches > 0, "a phased app must trigger reconfigurations");
}

#[test]
fn e4_confidence_reduces_thrash_on_irregular_phases() {
    let exp = IntervalExperiment::new();
    let configs = [confidence(ConfidencePolicy::default_policy()), confidence(ConfidencePolicy::none())];
    let [confident, eager] = <[_; 2]>::try_from(
        exp.policy_comparison(App::Vortex, 400, &configs, &ExecPolicy::serial()).expect("valid configuration"),
    )
    .expect("one comparison per config");
    assert!(
        confident.switches < eager.switches,
        "confidence gating must suppress switches: {} vs {}",
        confident.switches,
        eager.switches
    );
}
