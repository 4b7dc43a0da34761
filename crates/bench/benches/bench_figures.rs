//! End-to-end figure regeneration at smoke scale: how long each paper
//! artifact takes to reproduce.

use criterion::{criterion_group, criterion_main, Criterion};
use cap_core::experiments::{
    CacheExperiment, ExecPolicy, ExperimentScale, IntervalExperiment, QueueExperiment,
};
use cap_workloads::App;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    group.bench_function("fig7_one_app", |b| {
        let exp = CacheExperiment::new(ExperimentScale::Smoke).unwrap();
        b.iter(|| black_box(exp.sweep(App::Stereo).unwrap()))
    });
    group.bench_function("fig10_one_app", |b| {
        let exp = QueueExperiment::new(ExperimentScale::Smoke);
        b.iter(|| black_box(exp.sweep(App::Compress).unwrap()))
    });
    group.bench_function("fig13_snapshots", |b| {
        let exp = IntervalExperiment::new();
        b.iter(|| black_box(exp.figure13(&ExecPolicy::serial()).unwrap()))
    });
    group.finish();

    let mut group = c.benchmark_group("extended");
    group.sample_size(10);
    group.bench_function("tlb_sweep_one_app", |b| {
        use cap_cache::tlb;
        use cap_timing::cam::CamTimingModel;
        use cap_timing::units::Ns;
        use cap_timing::Technology;
        let cam = CamTimingModel::tlb(Technology::isca98_evaluation());
        let profile = App::Gcc.memory_profile();
        let pristine = profile.build(21);
        b.iter(|| {
            black_box(
                tlb::sweep(|| pristine.clone(), 20_000, &cam, Ns(0.593), profile.insts_per_ref)
                    .unwrap(),
            )
        })
    });
    group.bench_function("bpred_sweep_one_app", |b| {
        use cap_ooo::bpred;
        use cap_timing::units::Ns;
        let profile = App::Gcc.branch_profile();
        b.iter(|| {
            black_box(
                bpred::sweep(|| profile.build(22), 20_000, Ns(0.805), profile.branch_frac).unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
