//! Graceful degradation under injected faults.
//!
//! The acceptance bar for the fault harness: under all three fault
//! classes (switch failures, corrupted samples, dead cache increments)
//! a managed run never panics and always ends on a usable
//! configuration — either one the manager still trusts, or the
//! designated safe static fallback.

use cap::core::experiments::DEFAULT_SEED;
use cap::core::faults::{FaultCampaign, FaultSpec};
use cap::core::policy::PolicyKind;
use cap::core::report::degradation_table;
use cap::workloads::App;
use std::path::Path;

fn assert_leg_survived(leg: &cap::core::faults::LegReport) {
    assert!(leg.faulty_tpi_ns > 0.0, "{}: faulted run produced no work", leg.structure);
    assert!(leg.faulty_tpi_ns.is_finite(), "{}: TPI must stay finite", leg.structure);
    // The run must end on a configuration the manager still trusts, or
    // on the safe fallback (config 0) when everything else went dark.
    assert!(
        !leg.final_config_quarantined || leg.final_config == 0,
        "{}: ended on quarantined config {} ({})",
        leg.structure,
        leg.final_config,
        leg.final_config_label
    );
}

#[test]
fn standard_campaigns_survive_across_seeds() {
    for seed in [0u64, 1, 2, 17, 0x15CA_1998] {
        let report = FaultCampaign::new(App::Radar, seed)
            .with_lengths(60, 60)
            .run()
            .expect("campaign must not error");
        assert_leg_survived(&report.queue);
        assert_leg_survived(&report.cache);
    }
}

#[test]
fn faults_are_actually_injected() {
    let report = FaultCampaign::new(App::Vortex, 3).run().expect("campaign runs");
    let total_injected = |l: &cap::core::faults::LegReport| {
        l.faults.transient_switch_faults
            + l.faults.permanent_switch_faults
            + l.faults.samples_corrupted_nan
            + l.faults.samples_dropped
            + l.faults.samples_corrupted_outlier
    };
    assert!(
        total_injected(&report.queue) + total_injected(&report.cache) > 0,
        "the standard spec must inject something over 240 intervals"
    );
}

#[test]
fn aggressive_faults_degrade_gracefully() {
    // Much harsher than standard: half of all switches fail, a third of
    // the configuration space is broken, a fifth of samples corrupted.
    let spec = FaultSpec {
        transient_switch_prob: 0.5,
        permanent_config_prob: 0.35,
        sample_nan_prob: 0.08,
        sample_outlier_prob: 0.08,
        sample_drop_prob: 0.04,
        outlier_scale: 1000.0,
        max_dead_increments: 14,
    };
    for seed in 0..4u64 {
        let report = FaultCampaign::new(App::Compress, seed)
            .with_spec(spec)
            .with_lengths(80, 80)
            .run()
            .expect("even aggressive campaigns must not error");
        assert_leg_survived(&report.queue);
        assert_leg_survived(&report.cache);
    }
}

#[test]
fn disabled_spec_matches_clean_run() {
    let report = FaultCampaign::new(App::Radar, 9)
        .with_spec(FaultSpec::disabled())
        .with_lengths(50, 50)
        .run()
        .expect("campaign runs");
    for leg in [&report.queue, &report.cache] {
        assert_eq!(leg.clean_tpi_ns, leg.faulty_tpi_ns, "{}: no faults, no difference", leg.structure);
        assert_eq!(leg.clean_switches, leg.faulty_switches);
        assert_eq!(leg.switch_failures, 0);
        assert_eq!(leg.retries, 0);
        assert_eq!(leg.quarantined_configs, 0);
        assert!(!leg.safe_mode);
    }
}

/// `results/faults.txt` locks the turb3d campaign at the default seed
/// under every policy: the `capsim faults turb3d --policy <kind>` bytes
/// (degradation table + JSON report), in `PolicyKind::ALL` order. The
/// campaign asks every policy for hardened resilience, so the simple
/// policies' rows also pin that they ignore it. Regenerate after an
/// intentional change with `UPDATE_GOLDENS=1 cargo test --test faults`.
#[test]
fn turb3d_campaign_under_every_policy_matches_its_golden() {
    let mut text = String::new();
    for kind in PolicyKind::ALL {
        let report = FaultCampaign::new(App::Turb3d, DEFAULT_SEED)
            .with_policy(kind)
            .run()
            .expect("campaign runs");
        text.push_str(&degradation_table(&report));
        text.push_str(&report.to_json());
        text.push('\n');
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/faults.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &text).expect("golden must be writable");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    if text != want {
        let line = text.lines().zip(want.lines()).position(|(a, b)| a != b);
        let (got_line, want_line) = match line {
            Some(i) => (text.lines().nth(i).unwrap_or(""), want.lines().nth(i).unwrap_or("")),
            None => ("<line-count differs>", "<line-count differs>"),
        };
        panic!(
            "fault campaigns drifted from {} at line {}:\n  golden: {want_line}\n  now:    {got_line}\n\
             If the change is intentional, regenerate with:\n  \
             UPDATE_GOLDENS=1 cargo test --test faults",
            path.display(),
            line.map_or(0, |i| i + 1),
        );
    }
}
