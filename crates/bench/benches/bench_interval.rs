//! Ablation (DESIGN.md §7): sensitivity of the Section 6 interval
//! manager to the interval length — reconfiguration overhead versus
//! responsiveness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cap_core::clock::{DynamicClock, DEFAULT_SWITCH_PENALTY_CYCLES};
use cap_core::manager::{run_managed, QueueIntervalSim, SwitchRetryPolicy};
use cap_core::policy::{PolicyConfig, PolicyKind};
use cap_core::structure::{AdaptiveStructure, QueueStructure};
use cap_timing::queue::QueueTimingModel;
use cap_workloads::App;
use std::hint::black_box;

fn managed_tpi(interval_len: u64) -> (f64, u64) {
    let timing = QueueTimingModel::default();
    let mut structure = QueueStructure::isca98(timing, 0).unwrap();
    let table = structure.period_table().unwrap();
    let mut clock = DynamicClock::new(table, DEFAULT_SWITCH_PENALTY_CYCLES).unwrap();
    let mut manager = PolicyConfig::new(PolicyKind::Confidence)
        .with_explore_period(50)
        .build(8, cap_obs::noop(), None)
        .unwrap();
    let mut stream = App::Vortex.ilp_profile().build(3);
    let budget: u64 = 400_000;
    let mut sim = QueueIntervalSim::new(&mut structure, &mut stream, interval_len).unwrap();
    let run = run_managed(
        &mut sim,
        &mut *manager,
        &mut clock,
        budget / interval_len,
        None,
        SwitchRetryPolicy::default(),
    )
    .unwrap()
    .run;
    (run.average_tpi().value(), run.switches)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_length");
    group.sample_size(10);
    for len in [500u64, 2_000, 8_000] {
        let (tpi, switches) = managed_tpi(len);
        eprintln!("[interval] len={len}: managed TPI {tpi:.3} ns, {switches} switches");
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, &len| {
            b.iter(|| black_box(managed_tpi(len)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
