//! Ablation (DESIGN.md §7): confidence gating on versus off for the
//! Section 6 predictor. On vortex's irregular phases, the eager policy
//! thrashes the clock; confidence suppresses needless reconfiguration —
//! the paper's own caution in §6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cap_core::clock::{DynamicClock, DEFAULT_SWITCH_PENALTY_CYCLES};
use cap_core::manager::{run_managed, ConfidencePolicy, QueueIntervalSim, SwitchRetryPolicy};
use cap_core::policy::{PolicyConfig, PolicyKind};
use cap_core::structure::{AdaptiveStructure, QueueStructure};
use cap_timing::queue::QueueTimingModel;
use cap_workloads::App;
use std::hint::black_box;

fn run_policy(policy: ConfidencePolicy) -> (f64, u64) {
    let timing = QueueTimingModel::default();
    let mut structure = QueueStructure::isca98(timing, 0).unwrap();
    let table = structure.period_table().unwrap();
    let mut clock = DynamicClock::new(table, DEFAULT_SWITCH_PENALTY_CYCLES).unwrap();
    let mut manager = PolicyConfig::new(PolicyKind::Confidence)
        .with_explore_period(40)
        .with_confidence(policy)
        .build(8, cap_obs::noop(), None)
        .unwrap();
    let mut stream = App::Vortex.ilp_profile().build(3);
    let mut sim = QueueIntervalSim::new(&mut structure, &mut stream, 2_000).unwrap();
    let run = run_managed(&mut sim, &mut *manager, &mut clock, 300, None, SwitchRetryPolicy::default())
        .unwrap()
        .run;
    (run.average_tpi().value(), run.switches)
}

fn bench(c: &mut Criterion) {
    let confident = run_policy(ConfidencePolicy::default_policy());
    let eager = run_policy(ConfidencePolicy::none());
    eprintln!(
        "[confidence] confident: TPI {:.3} ns / {} switches; eager: TPI {:.3} ns / {} switches",
        confident.0, confident.1, eager.0, eager.1
    );
    let mut group = c.benchmark_group("confidence");
    group.sample_size(10);
    for (name, policy) in [
        ("confident", ConfidencePolicy::default_policy()),
        ("eager", ConfidencePolicy::none()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &policy, |b, p| {
            b.iter(|| black_box(run_policy(*p)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
