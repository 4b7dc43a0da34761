//! Throughput of the out-of-order core (committed instructions per
//! second) at several window sizes, fed by the generator and replaying a
//! recorded tape as a sweep does, and of the instruction generator on
//! its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cap_ooo::config::{CoreConfig, WindowSize};
use cap_ooo::core::OooCore;
use cap_ooo::interval::PAPER_INTERVAL_INSTS;
use cap_ooo::multisweep::multisweep;
use cap_timing::queue::QueueTimingModel;
use cap_timing::Technology;
use cap_workloads::App;
use cap_trace::inst::InstStream;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ooo_commit");
    const N: u64 = 30_000;
    group.throughput(Throughput::Elements(N));
    for w in [16usize, 64, 128] {
        group.bench_with_input(BenchmarkId::new("window", w), &w, |b, &w| {
            b.iter(|| {
                let mut core = OooCore::new(CoreConfig::isca98(w).unwrap());
                let mut stream = App::Gcc.ilp_profile().build(5);
                black_box(core.run(&mut stream, N))
            })
        });
    }
    group.finish();

    // A queue curve: one tape recorded, then replayed at all eight window
    // sizes. Throughput counts the instructions committed over the curve.
    let mut group = c.benchmark_group("tape_replay");
    let windows: Vec<WindowSize> = WindowSize::paper_sweep().collect();
    group.throughput(Throughput::Elements(N * windows.len() as u64));
    let timing = QueueTimingModel::new(Technology::isca98_evaluation());
    group.bench_function("multisweep_gcc", |b| {
        b.iter(|| {
            let stream = App::Gcc.ilp_profile().build(5);
            black_box(multisweep(stream, N, windows.iter().copied(), &timing).unwrap())
        })
    });
    group.finish();

    // Keep the stream generator itself honest: it must be far cheaper
    // than the core that consumes it.
    let mut group = c.benchmark_group("inst_gen");
    group.throughput(Throughput::Elements(N));
    group.bench_function("segment_ilp", |b| {
        b.iter(|| {
            let mut s = App::Gcc.ilp_profile().build(5);
            for _ in 0..N {
                black_box(s.next_inst());
            }
        })
    });
    group.finish();

    // The managed-run hot path: the packed instructions of one 400-interval
    // turb3d run, read as the core reads them.
    let mut group = c.benchmark_group("generator");
    const MANAGED: u64 = 400 * PAPER_INTERVAL_INSTS;
    group.throughput(Throughput::Elements(MANAGED));
    group.bench_function("turb3d_next_packed", |b| {
        b.iter(|| {
            let mut s = App::Turb3d.ilp_profile().build(5);
            for _ in 0..MANAGED {
                black_box(s.next_packed());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
