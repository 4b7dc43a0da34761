//! Reproducibility: every experiment is a pure function of its seed.

use cap::core::experiments::{
    CacheExperiment, ExecPolicy, ExperimentScale, IntervalExperiment, QueueExperiment,
};
use cap::core::policy::{PolicyConfig, PolicyKind};
use cap::workloads::App;

#[test]
fn cache_experiments_reproduce_exactly() {
    let run = || {
        CacheExperiment::new(ExperimentScale::Smoke)
            .expect("valid geometry")
            .sweep(App::Swim)
            .expect("valid sweep")
    };
    assert_eq!(run(), run());
}

#[test]
fn queue_experiments_reproduce_exactly() {
    let run = || QueueExperiment::new(ExperimentScale::Smoke).sweep(App::Vortex).expect("valid sweep");
    assert_eq!(run(), run());
}

#[test]
fn interval_experiments_reproduce_exactly() {
    let run = || IntervalExperiment::new().figure13(&ExecPolicy::serial()).expect("valid configuration");
    assert_eq!(run(), run());
}

#[test]
fn managed_runs_reproduce_exactly() {
    let run = || {
        let config = PolicyConfig::new(PolicyKind::Confidence).with_explore_period(30);
        IntervalExperiment::new()
            .policy_comparison(App::Vortex, 150, &[config], &ExecPolicy::serial())
            .expect("valid configuration")
    };
    assert_eq!(run(), run());
}

#[test]
fn seeds_actually_matter() {
    let a = QueueExperiment::new(ExperimentScale::Smoke).sweep(App::Go).expect("valid sweep");
    let b = QueueExperiment::new(ExperimentScale::Smoke).with_seed(99).sweep(App::Go).expect("valid sweep");
    assert_ne!(a, b);
}

#[test]
fn fault_campaigns_reproduce_byte_for_byte() {
    use cap::core::faults::FaultCampaign;
    let run = |seed: u64| {
        FaultCampaign::new(App::Radar, seed)
            .with_lengths(60, 60)
            .run()
            .expect("campaign runs")
            .to_json()
    };
    assert_eq!(run(7), run(7), "same seed, byte-identical report");
    assert_ne!(run(7), run(8), "different seeds diverge");
}
