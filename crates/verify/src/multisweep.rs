//! Differential properties for the single-pass sweep engines.
//!
//! The sweep engine has two fast paths, each replacing a
//! run-per-configuration loop with one traversal:
//!
//! * the cache sweep classifies each reference by stack distance once
//!   and derives every boundary's counters from the shared profile
//!   ([`cap_cache::multisweep`]);
//! * the queue sweep reads the generated instruction stream once and
//!   schedules every window size in lock step, one lane per window
//!   ([`cap_ooo::multisweep`]), with the recurrence of a core that
//!   schedules each instruction once, at dispatch, rather than scanning
//!   the window every cycle ([`cap_ooo::core::OooCore`] vs
//!   [`cap_ooo::reference::ScanCore`]). The lanes are checked against a
//!   core per window on the suite's streams and on dependence shapes the
//!   suite never produces; the core against the scan, both cycle by
//!   cycle and over the interval-sized `run` calls of a managed run — the
//!   latter also with the production core reading a tape's packed
//!   records;
//! * the same lanes run managed cores, each lane with its own policy,
//!   window, dispatch floor and interval ends
//!   ([`cap_core::manager::run_managed_lanes`]), against
//!   [`run_managed`] on a core per lane ([`managed_lanes_vs_core`]);
//! * and they record fixed-window interval series
//!   ([`cap_ooo::multisweep::interval_lanes`]), against
//!   [`core_interval_series`], a core per window
//!   ([`interval_lanes_vs_core`]);
//! * the branch-predictor sweep reads its branch stream once and trains
//!   every PHT size on each event ([`cap_ooo::bpred::sweep`]), against
//!   [`per_size_bpred_sweep`], which regenerates the stream per size.
//!
//! Each fast path is claimed *bit-identical* to its reference — that is
//! what lets the goldens stay byte-for-byte stable across the engine
//! swap. These properties keep the claim checked under fuzzing: random
//! workload apps × seeds × trace lengths, counters compared as integers
//! and every derived time as `f64::to_bits`.

use crate::faults::{same_events, same_run};
use crate::rng::Rng;
use cap_cache::config::Boundary;
use cap_cache::perf::PerfParams;
use cap_cache::sim::SweepPoint;
use cap_core::clock::DynamicClock;
use cap_core::manager::{
    run_managed, run_managed_lanes, ConfidencePolicy, QueueIntervalSim, QueueLane,
    ResiliencePolicy, SwitchRetryPolicy,
};
use cap_core::policy::{PolicyConfig, PolicyKind};
use cap_core::structure::{AdaptiveStructure, QueueStructure};
use cap_obs::{Recorder, RingRecorder};
use cap_ooo::bpred::{BpredSweepPoint, Gshare, PhtConfig, MISPREDICT_PENALTY_CYCLES};
use cap_ooo::config::{CoreConfig, WindowSize};
use cap_ooo::core::{OooCore, RunStats};
use cap_ooo::interval::{IntervalSample, PAPER_INTERVAL_INSTS};
use cap_ooo::multisweep::{interval_lanes, multisweep, LANES};
use cap_ooo::perf::QueueSweepPoint;
use cap_ooo::reference::ScanCore;
use cap_timing::cacti::CacheTimingModel;
use cap_timing::queue::QueueTimingModel;
use cap_timing::units::Ns;
use cap_timing::Technology;
use cap_trace::branch::BranchStream;
use cap_trace::inst::{Inst, InstStream};
use cap_trace::tape::InstTape;
use cap_workloads::App;
use std::sync::Arc;

/// One fuzzed cache case: a random suite application, seed and trace
/// length, swept over every paper boundary by both engines.
///
/// # Errors
///
/// Returns a message naming the first diverging boundary and field.
pub fn cache_one_pass_vs_legacy(rng: &mut Rng) -> Result<(), String> {
    let apps: Vec<App> = App::cache_suite().collect();
    let app = *rng.pick(&apps);
    let seed = rng.next_u64();
    let refs = rng.range(1_000, 6_000);
    let profile = app.memory_profile();
    let params = PerfParams::isca98(profile.insts_per_ref);
    let timing = CacheTimingModel::isca98(Technology::isca98_evaluation());
    let legacy = cap_cache::sim::sweep(
        || profile.build(seed),
        refs,
        Boundary::paper_sweep(),
        &timing,
        params,
    )
    .map_err(|e| format!("legacy sweep failed: {e}"))?;
    let one_pass = cap_cache::multisweep::multisweep(
        profile.build(seed),
        refs,
        Boundary::paper_sweep(),
        &timing,
        params,
    )
    .map_err(|e| format!("one-pass sweep failed: {e}"))?;
    let ctx = format!("app {} seed {seed} refs {refs}", app.name());
    compare_cache_points(&ctx, &legacy, &one_pass)
}

fn compare_cache_points(
    ctx: &str,
    legacy: &[SweepPoint],
    one_pass: &[SweepPoint],
) -> Result<(), String> {
    if legacy.len() != one_pass.len() {
        return Err(format!(
            "{ctx}: point counts differ (legacy {} vs one-pass {})",
            legacy.len(),
            one_pass.len()
        ));
    }
    for (l, o) in legacy.iter().zip(one_pass) {
        let b = l.boundary;
        if o.boundary != b {
            return Err(format!("{ctx}: boundary order diverged at {b} vs {}", o.boundary));
        }
        let counters = [
            ("refs", l.stats.refs, o.stats.refs),
            ("l1_hits", l.stats.l1_hits, o.stats.l1_hits),
            ("l2_hits", l.stats.l2_hits, o.stats.l2_hits),
            ("misses", l.stats.misses, o.stats.misses),
            ("writebacks", l.stats.writebacks, o.stats.writebacks),
        ];
        for (name, lv, ov) in counters {
            if lv != ov {
                return Err(format!("{ctx} boundary {b}: {name} {lv} (legacy) != {ov} (one-pass)"));
            }
        }
        let times = [
            ("cycle", l.tpi.cycle.value(), o.tpi.cycle.value()),
            ("base_tpi", l.tpi.base_tpi.value(), o.tpi.base_tpi.value()),
            ("miss_tpi", l.tpi.miss_tpi.value(), o.tpi.miss_tpi.value()),
            ("total_tpi", l.tpi.total_tpi().value(), o.tpi.total_tpi().value()),
            ("instructions", l.tpi.instructions, o.tpi.instructions),
        ];
        for (name, lv, ov) in times {
            if lv.to_bits() != ov.to_bits() {
                return Err(format!(
                    "{ctx} boundary {b}: {name} bits differ — {lv} (legacy) vs {ov} (one-pass)"
                ));
            }
        }
    }
    Ok(())
}

/// One fuzzed queue case (`sweep/queue/tape-vs-legacy`, an ID kept from
/// an earlier engine): a random suite application, seed and run length,
/// swept over every paper window size by both engines. The legacy path
/// regenerates the stream and runs a core per window; the lane sweep
/// reads the stream once and schedules all windows in lock step.
///
/// # Errors
///
/// Returns a message naming the first diverging window and field.
pub fn queue_lanes_vs_legacy(rng: &mut Rng) -> Result<(), String> {
    let apps: Vec<App> = App::queue_suite().collect();
    let app = *rng.pick(&apps);
    let seed = rng.next_u64();
    let insts = rng.range(1_000, 4_000);
    let profile = app.ilp_profile();
    let timing = QueueTimingModel::new(Technology::isca98_evaluation());
    let legacy =
        cap_ooo::perf::sweep(|| profile.build(seed), insts, WindowSize::paper_sweep(), &timing)
            .map_err(|e| format!("legacy sweep failed: {e}"))?;
    let lanes =
        cap_ooo::multisweep::multisweep(profile.build(seed), insts, WindowSize::paper_sweep(), &timing)
            .map_err(|e| format!("lane sweep failed: {e}"))?;
    let ctx = format!("app {} seed {seed} insts {insts}", app.name());
    compare_queue_points(&ctx, &legacy, &lanes)
}

/// A dependence shape the workload profiles never produce.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Producers lie up to this many instructions back: past the lanes'
    /// 512-instruction ring, and before the stream's first instruction.
    reach: u64,
    /// Chances in 256 of a first and of a second operand.
    operand_chance: [u64; 2],
    /// Chance in 256 that the second operand repeats the first's
    /// producer.
    same_chance: u64,
    /// The latencies drawn from, zero and long ones included.
    latencies: [u32; 4],
    /// The seq of the stream's first instruction.
    first_seq: u64,
}

impl Shape {
    fn random(rng: &mut Rng) -> Self {
        let mut latency = || match rng.below(4) {
            0 => 0,
            1 => rng.range(1, 4) as u32,
            2 => rng.range(5, 40) as u32,
            _ => rng.range(100, 1_000) as u32,
        };
        let latencies = [latency(), latency(), latency(), latency()];
        Shape {
            reach: *rng.pick(&[8, 64, 300, 1_200]),
            operand_chance: [rng.below(257), rng.below(257)],
            same_chance: *rng.pick(&[0, 128, 256]),
            latencies,
            first_seq: *rng.pick(&[0, 0, 1_000]),
        }
    }
}

/// The instructions of a [`Shape`], a pure function of the shape and a
/// seed.
struct ShapeStream {
    shape: Shape,
    rng: Rng,
    next: u64,
}

impl ShapeStream {
    fn new(shape: Shape, seed: u64) -> Self {
        ShapeStream { shape, rng: Rng::new(seed), next: shape.first_seq }
    }

    fn producer(&mut self, seq: u64, chance: u64) -> Option<u64> {
        let age = self.rng.range(1, self.shape.reach);
        (self.rng.below(256) < chance).then(|| seq.checked_sub(age)).flatten()
    }
}

impl InstStream for ShapeStream {
    fn next_inst(&mut self) -> Inst {
        let seq = self.next;
        self.next += 1;
        let [first, second] = self.shape.operand_chance;
        let dep1 = self.producer(seq, first);
        let dep2 = if dep1.is_some() && self.rng.below(256) < self.shape.same_chance {
            dep1
        } else {
            self.producer(seq, second)
        };
        let latency = *self.rng.pick(&self.shape.latencies);
        Inst { seq, dep1, dep2, latency }
    }
}

/// One fuzzed queue case on a stream of a random dependence shape: long and
/// zero latencies, far producers and second operands, swept over one to
/// eight random window sizes of 16–256 entries by the lane sweep and by
/// the legacy per-window cores.
///
/// # Errors
///
/// Returns a message naming the first diverging window and field.
pub fn queue_lanes_vs_legacy_shapes(rng: &mut Rng) -> Result<(), String> {
    let shape = Shape::random(rng);
    let seed = rng.next_u64();
    let insts = rng.range(1, 3_000);
    let windows = (0..rng.range(1, LANES as u64))
        .map(|_| WindowSize::new(16 * rng.range(1, 16) as usize))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("window construction failed: {e}"))?;
    let timing = QueueTimingModel::new(Technology::isca98_evaluation());
    let legacy =
        cap_ooo::perf::sweep(|| ShapeStream::new(shape, seed), insts, windows.clone(), &timing)
            .map_err(|e| format!("legacy sweep failed: {e}"))?;
    let lanes = multisweep(ShapeStream::new(shape, seed), insts, windows.clone(), &timing)
        .map_err(|e| format!("lane sweep failed: {e}"))?;
    let sizes: Vec<usize> = windows.iter().map(|w| w.entries()).collect();
    let ctx = format!("{shape:?} seed {seed} insts {insts} windows {sizes:?}");
    compare_queue_points(&ctx, &legacy, &lanes)
}

fn compare_queue_points(
    ctx: &str,
    legacy: &[QueueSweepPoint],
    lanes: &[QueueSweepPoint],
) -> Result<(), String> {
    if legacy.len() != lanes.len() {
        return Err(format!(
            "{ctx}: point counts differ (legacy {} vs lanes {})",
            legacy.len(),
            lanes.len()
        ));
    }
    for (l, t) in legacy.iter().zip(lanes) {
        let w = l.window;
        if t.window != w {
            return Err(format!("{ctx}: window order diverged at {w} vs {}", t.window));
        }
        if l.stats.cycles != t.stats.cycles || l.stats.committed != t.stats.committed {
            return Err(format!(
                "{ctx} window {w}: stats {:?} (legacy) != {:?} (lanes)",
                l.stats, t.stats
            ));
        }
        if l.cycle.value().to_bits() != t.cycle.value().to_bits() {
            return Err(format!("{ctx} window {w}: cycle bits differ"));
        }
        if l.tpi.value().to_bits() != t.tpi.value().to_bits() {
            return Err(format!(
                "{ctx} window {w}: tpi bits differ — {} (legacy) vs {}",
                l.tpi, t.tpi
            ));
        }
    }
    Ok(())
}

/// A random policy of a random kind, with random valid knobs where the
/// kind takes any.
fn random_policy(rng: &mut Rng) -> PolicyConfig {
    let kind = *rng.pick(&PolicyKind::ALL);
    if kind != PolicyKind::Confidence {
        return PolicyConfig::new(kind);
    }
    let gating = ConfidencePolicy {
        threshold: rng.range(0, 4) as u32,
        hysteresis: *rng.pick(&[0.0, 0.01, 0.03, 0.1]),
    };
    let mut config = PolicyConfig::new(kind)
        .with_explore_period(*rng.pick(&[0, 1, 7, 40]))
        .with_confidence(gating);
    if rng.chance(0.5) {
        config = config.with_resilience(ResiliencePolicy::hardened());
    }
    if rng.chance(0.3) {
        config = config.with_pattern(rng.range(8, 24) as usize, rng.unit());
    }
    config
}

/// One managed lane: the queue at configuration `initial`, its clock
/// charging `penalty` cycles a switch, and `config`'s policy tracing to
/// a fresh ring.
fn managed_lane(
    app: App,
    config: &PolicyConfig,
    initial: usize,
    penalty: u64,
) -> Result<(QueueLane, Arc<RingRecorder>), String> {
    let err = |e: cap_core::CapError| format!("building a lane failed: {e}");
    let timing = QueueTimingModel::new(Technology::isca98_evaluation());
    let structure = QueueStructure::isca98(timing, initial).map_err(err)?;
    let clock = DynamicClock::for_structure(&structure, penalty).map_err(err)?;
    let ring = Arc::new(RingRecorder::new());
    let recorder: Arc<dyn Recorder> = ring.clone();
    let policy = config
        .build(structure.num_configs(), recorder, Some(app.name().to_string()))
        .map_err(err)?;
    Ok((QueueLane { structure, policy, clock, injector: None }, ring))
}

/// One fuzzed managed-lanes case (`managed/queue/lanes-vs-core`): one to
/// eight lanes over a random suite application and seed, each with a
/// random policy kind and knobs, initial configuration and switch
/// penalty, and its own run length: one to forty intervals of one
/// instruction, `CW - 1`, an odd count or 500–32000 instructions. Each
/// lane's [`FaultedRun`](cap_core::manager::FaultedRun) (every
/// interval's configuration, sample, period and TPI, the switch counts
/// and penalties, as bits) and trace events must be those of
/// [`run_managed`] over a [`QueueIntervalSim`] of the same lane reading
/// its own copy of the stream: every decision, sample and clock-switch
/// event. The first interval must be charged the period of the lane's
/// initial configuration.
///
/// # Errors
///
/// Returns a message naming the first diverging lane and field.
pub fn managed_lanes_vs_core(rng: &mut Rng) -> Result<(), String> {
    let apps: Vec<App> = App::queue_suite().collect();
    let app = *rng.pick(&apps);
    let seed = rng.next_u64();
    let lanes: Vec<(PolicyConfig, usize, u64, (u64, u64))> = (0..rng.range(1, LANES as u64))
        .map(|_| {
            let (odd, long) = (2 * rng.range(1, 500) + 1, rng.range(500, 32_000));
            let length = (rng.range(1, 40), *rng.pick(&[1, 7, odd, long]));
            (random_policy(rng), rng.below(8) as usize, *rng.pick(&[0, 30, 100]), length)
        })
        .collect();
    let ctx = format!("app {} seed {seed}", app.name());
    let stream = || app.ilp_profile().build(seed);

    let mut under_test = Vec::new();
    let mut rings = Vec::new();
    for (config, initial, penalty, _) in &lanes {
        let (lane, ring) = managed_lane(app, config, *initial, *penalty)?;
        under_test.push(lane);
        rings.push(ring);
    }
    let lengths: Vec<(u64, u64)> = lanes.iter().map(|lane| lane.3).collect();
    let runs = run_managed_lanes(stream(), &mut under_test, &lengths).map_err(|e| format!("{ctx}: lanes failed: {e}"))?;
    for (l, ((config, initial, penalty, (intervals, interval_len)), (run, ring))) in
        lanes.iter().zip(runs.iter().zip(&rings)).enumerate()
    {
        let ctx = format!("{ctx}, lane {l} ({} from config {initial}, {intervals}x{interval_len} insts)", config.kind().name());
        let (mut lane, reference_ring) = managed_lane(app, config, *initial, *penalty)?;
        let mut stream = stream();
        let mut sim = QueueIntervalSim::new(&mut lane.structure, &mut stream, *interval_len)
            .map_err(|e| format!("{ctx}: {e}"))?;
        let reference = run_managed(&mut sim, &mut *lane.policy, &mut lane.clock, *intervals, None, SwitchRetryPolicy::default())
            .map_err(|e| format!("{ctx}: core run failed: {e}"))?;
        same_run(&ctx, &reference, run)?;
        let initial_period = lane.structure.cycle_time(*initial).map_err(|e| format!("{ctx}: {e}"))?;
        if run.run.intervals.first().is_some_and(|first| first.period != initial_period) {
            return Err(format!(
                "{ctx}: the first interval is charged {} but the structure starts at {initial_period}",
                run.run.intervals[0].period
            ));
        }
        let events = |ring: &RingRecorder| ring.events().iter().map(|e| e.to_json()).collect::<Vec<_>>();
        same_events(&ctx, &events(&reference_ring), &events(ring))?;
    }
    Ok(())
}

/// The reference fixed-window interval series: a fresh core of `window`
/// reading `stream`, one chained [`OooCore::run`] of `interval_len`
/// instructions per sample, indexed from 0.
///
/// # Errors
///
/// Returns a message if the core cannot be built.
pub fn core_interval_series<S: InstStream>(
    mut stream: S,
    window: WindowSize,
    intervals: u64,
    interval_len: u64,
) -> Result<Vec<IntervalSample>, String> {
    let config = CoreConfig::isca98(window.entries()).map_err(|e| format!("config construction failed: {e}"))?;
    let mut core = OooCore::try_new(config).map_err(|e| format!("production core rejected config: {e}"))?;
    Ok((0..intervals)
        .map(|index| {
            let stats = core.run(&mut stream, interval_len);
            IntervalSample { index, cycles: stats.cycles, insts: stats.committed }
        })
        .collect())
}

/// One fuzzed fixed-window interval case (`interval/fixed/lanes-vs-core`):
/// one to eight windows of 16–256 entries, in any order and with
/// duplicates, over a random suite application's stream or a stream of a
/// random dependence shape, at one interval length — one instruction,
/// `CW - 1`, an odd count or the paper's 2000 — for one or more
/// intervals. Each lane of [`interval_lanes`] must equal
/// [`core_interval_series`] of its window, sample by sample.
///
/// # Errors
///
/// Returns a message naming the first diverging lane and interval.
pub fn interval_lanes_vs_core(rng: &mut Rng) -> Result<(), String> {
    let odd = 2 * rng.range(1, 500) + 1;
    let interval_len = *rng.pick(&[1, 7, odd, PAPER_INTERVAL_INSTS]);
    let intervals = rng.range(1, (40_000 / interval_len).clamp(2, 60));
    let mut windows = (0..rng.range(1, LANES as u64))
        .map(|_| WindowSize::new(16 * rng.range(1, 16) as usize))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("window construction failed: {e}"))?;
    if windows.len() > 1 && rng.chance(0.5) {
        let (from, to) = (rng.below(windows.len() as u64) as usize, rng.below(windows.len() as u64) as usize);
        windows[to] = windows[from];
    }
    let sizes: Vec<usize> = windows.iter().map(|w| w.entries()).collect();
    let seed = rng.next_u64();
    if rng.chance(0.5) {
        let apps: Vec<App> = App::queue_suite().collect();
        let app = *rng.pick(&apps);
        let ctx = format!("app {} seed {seed} windows {sizes:?} {intervals}x{interval_len} insts", app.name());
        compare_interval_lanes(&ctx, || app.ilp_profile().build(seed), &windows, intervals, interval_len)
    } else {
        let shape = Shape::random(rng);
        let ctx = format!("{shape:?} seed {seed} windows {sizes:?} {intervals}x{interval_len} insts");
        compare_interval_lanes(&ctx, || ShapeStream::new(shape, seed), &windows, intervals, interval_len)
    }
}

/// The lanes of `windows` over `stream()` against a core per window, each
/// reading its own `stream()`.
fn compare_interval_lanes<S: InstStream>(
    ctx: &str,
    stream: impl Fn() -> S,
    windows: &[WindowSize],
    intervals: u64,
    interval_len: u64,
) -> Result<(), String> {
    let lanes = interval_lanes(stream(), windows, intervals, interval_len)
        .map_err(|e| format!("{ctx}: lanes failed: {e}"))?;
    if lanes.len() != windows.len() {
        return Err(format!("{ctx}: {} lanes for {} windows", lanes.len(), windows.len()));
    }
    for (l, (series, &w)) in lanes.iter().zip(windows).enumerate() {
        let core = core_interval_series(stream(), w, intervals, interval_len)?;
        if let Some(k) = (0..core.len().max(series.len())).find(|&k| core.get(k) != series.get(k)) {
            return Err(format!(
                "{ctx}, lane {l} ({w}): interval {k} differs — {:?} (core) vs {:?} (lanes)",
                core.get(k),
                series.get(k)
            ));
        }
    }
    Ok(())
}

/// The reference branch-predictor sweep: one fresh stream and one
/// [`Gshare`] per PHT size, run to `branches` events each.
/// `make_stream` must return an identical pristine stream each call.
pub fn per_size_bpred_sweep<S, F>(
    mut make_stream: F,
    branches: u64,
    cycle: Ns,
    branch_frac: f64,
) -> Vec<BpredSweepPoint>
where
    S: BranchStream,
    F: FnMut() -> S,
{
    let mut out = Vec::new();
    for config in PhtConfig::sweep() {
        let mut predictor = Gshare::new(config);
        let mut stream = make_stream();
        let mut correct = 0u64;
        let mut taken = 0u64;
        for _ in 0..branches {
            let e = stream.next_branch();
            if predictor.update(e) {
                correct += 1;
            }
            if e.taken {
                taken += 1;
            }
        }
        let accuracy = correct as f64 / branches as f64;
        let taken_ratio = taken as f64 / branches as f64;
        let latency = config.latency_cycles(cycle);
        let stalls = (1.0 - accuracy) * MISPREDICT_PENALTY_CYCLES as f64
            + taken_ratio * (latency - 1) as f64;
        let tpi_ns = cycle.value() * branch_frac * stalls;
        out.push(BpredSweepPoint {
            config,
            accuracy,
            taken_ratio,
            latency_cycles: latency,
            tpi_ns,
        });
    }
    out
}

/// One fuzzed branch-predictor case: a random suite application, seed,
/// branch count and machine clock (one of the paper windows' clocks),
/// swept over every PHT size by the one-stream sweep and by
/// [`per_size_bpred_sweep`].
///
/// # Errors
///
/// Returns a message naming the first diverging table size and field.
pub fn bpred_fused_vs_per_size(rng: &mut Rng) -> Result<(), String> {
    let apps: Vec<App> = App::queue_suite().collect();
    let app = *rng.pick(&apps);
    let seed = rng.next_u64();
    let branches = rng.range(1, 8_000);
    let windows: Vec<WindowSize> = WindowSize::paper_sweep().collect();
    let window = *rng.pick(&windows);
    let cycle = QueueTimingModel::new(Technology::isca98_evaluation())
        .cycle_time(window.entries())
        .map_err(|e| format!("queue clock failed: {e}"))?;
    let profile = app.branch_profile();
    let reference =
        per_size_bpred_sweep(|| profile.build(seed), branches, cycle, profile.branch_frac);
    let fused = cap_ooo::bpred::sweep(profile.build(seed), branches, cycle, profile.branch_frac)
        .map_err(|e| format!("fused sweep failed: {e}"))?;
    let ctx = format!("app {} seed {seed} branches {branches} window {window}", app.name());
    if reference.len() != fused.len() {
        return Err(format!(
            "{ctx}: point counts differ (per-size {} vs fused {})",
            reference.len(),
            fused.len()
        ));
    }
    for (r, f) in reference.iter().zip(&fused) {
        let c = r.config;
        if f.config != c || f.latency_cycles != r.latency_cycles {
            return Err(format!("{ctx}: {c} diverged — {r:?} (per-size) vs {f:?} (fused)"));
        }
        let values = [
            ("accuracy", r.accuracy, f.accuracy),
            ("taken_ratio", r.taken_ratio, f.taken_ratio),
            ("tpi_ns", r.tpi_ns, f.tpi_ns),
        ];
        for (name, rv, fv) in values {
            if rv.to_bits() != fv.to_bits() {
                return Err(format!(
                    "{ctx} {c}: {name} bits differ — {rv} (per-size) vs {fv} (fused)"
                ));
            }
        }
    }
    Ok(())
}

/// One fuzzed core case: the production core (which schedules each
/// instruction once, at dispatch) and the full-scan reference stepped in
/// lockstep over the same generated
/// stream, including a mid-run window resize, comparing every observable
/// each cycle.
///
/// # Errors
///
/// Returns a message naming the first diverging cycle and observable.
pub fn core_vs_scan_reference(rng: &mut Rng) -> Result<(), String> {
    let apps: Vec<App> = App::queue_suite().collect();
    let app = *rng.pick(&apps);
    let seed = rng.next_u64();
    let sizes: Vec<WindowSize> = WindowSize::paper_sweep().collect();
    let physical = *sizes.last().expect("paper sweep is non-empty");
    let initial = *rng.pick(&sizes);
    let steps = rng.range(400, 1_600);
    let resize_at = rng.below(steps);
    let resize_to = *rng.pick(&sizes);

    let config = CoreConfig::isca98(physical.entries())
        .map_err(|e| format!("config construction failed: {e}"))?;
    let mut fast =
        OooCore::try_new(config).map_err(|e| format!("production core rejected config: {e}"))?;
    let mut scan =
        ScanCore::try_new(config).map_err(|e| format!("reference core rejected config: {e}"))?;
    fast.request_resize(initial).map_err(|e| format!("production initial resize failed: {e}"))?;
    scan.request_resize(initial).map_err(|e| format!("reference initial resize failed: {e}"))?;

    let mut fast_stream = app.ilp_profile().build(seed);
    let mut scan_stream = app.ilp_profile().build(seed);
    let ctx = format!(
        "app {} seed {seed} window {initial}->{resize_to}@{resize_at}",
        app.name()
    );
    for t in 0..steps {
        if t == resize_at {
            let f = fast.request_resize(resize_to);
            let s = scan.request_resize(resize_to);
            if f.is_ok() != s.is_ok() {
                return Err(format!("{ctx} cycle {t}: resize outcomes differ ({f:?} vs {s:?})"));
            }
        }
        let cf = fast.step(&mut fast_stream);
        let cs = scan.step(&mut scan_stream);
        let observables = [
            ("retired", cf as u64, cs as u64),
            ("cycles", fast.cycles(), scan.cycles()),
            ("committed", fast.committed(), scan.committed()),
            ("occupancy", fast.occupancy() as u64, scan.occupancy() as u64),
            ("active_window", fast.active_window() as u64, scan.active_window() as u64),
            ("resize_pending", u64::from(fast.resize_pending()), u64::from(scan.resize_pending())),
        ];
        for (name, fv, sv) in observables {
            if fv != sv {
                return Err(format!(
                    "{ctx} cycle {t}: {name} diverged — {fv} (production) vs {sv} (scan)"
                ));
            }
        }
    }
    Ok(())
}

/// One fuzzed case of the managed-run call pattern: [`OooCore::run`]
/// over intervals of [`PAPER_INTERVAL_INSTS`], with random window
/// requests between them. Some requests land on a shrink that is still
/// draining — back to back, or after a short run that stops mid-drain —
/// and supersede it. After every run the production core's [`RunStats`],
/// active window and pending flag must equal the reference's, stepped to
/// the same commit target. The reference always reads the generator; in
/// half the cases the production core reads the packed records of an
/// [`InstTape`] through a lazy cursor instead, after another cursor has
/// recorded a random prefix: the core replays that prefix, then records
/// the rest itself. (Sweeps schedule their windows in lanes instead;
/// [`queue_lanes_vs_legacy`] and [`queue_lanes_vs_legacy_shapes`] cover
/// that path.)
///
/// # Errors
///
/// Returns a message naming the first diverging run and observable.
pub fn core_run_vs_scan(rng: &mut Rng) -> Result<(), String> {
    let apps: Vec<App> = App::queue_suite().collect();
    let app = *rng.pick(&apps);
    let seed = rng.next_u64();
    let intervals = rng.range(2, 6);
    let taped = rng.chance(0.5);
    let scan_stream = app.ilp_profile().build(seed);
    if taped {
        let tape = InstTape::new(app.ilp_profile().build(seed));
        let recorded = rng.below(intervals * PAPER_INTERVAL_INSTS);
        let mut leader = tape.cursor();
        for _ in 0..recorded {
            leader.next_packed();
        }
        let ctx = format!("app {} seed {seed}, core on a tape of {recorded}:", app.name());
        run_vs_scan(rng, intervals, &mut tape.cursor(), scan_stream, ctx)
    } else {
        let ctx = format!("app {} seed {seed}:", app.name());
        run_vs_scan(rng, intervals, &mut app.ilp_profile().build(seed), scan_stream, ctx)
    }
}

/// The body of [`core_run_vs_scan`], with the production core reading
/// `fast_stream`.
fn run_vs_scan<S: InstStream>(
    rng: &mut Rng,
    intervals: u64,
    fast_stream: &mut S,
    mut scan_stream: impl InstStream,
    mut ctx: String,
) -> Result<(), String> {
    let sizes: Vec<WindowSize> = WindowSize::paper_sweep().collect();
    let physical = *sizes.last().expect("paper sweep is non-empty");
    let config = CoreConfig::isca98(physical.entries())
        .map_err(|e| format!("config construction failed: {e}"))?;
    let mut fast =
        OooCore::try_new(config).map_err(|e| format!("production core rejected config: {e}"))?;
    let mut scan =
        ScanCore::try_new(config).map_err(|e| format!("reference core rejected config: {e}"))?;

    let compare = |ctx: &str, fast: &OooCore, scan: &ScanCore, runs: (RunStats, RunStats)| {
        let observables = [
            ("run cycles", runs.0.cycles, runs.1.cycles),
            ("run committed", runs.0.committed, runs.1.committed),
            ("cycles", fast.cycles(), scan.cycles()),
            ("occupancy", fast.occupancy() as u64, scan.occupancy() as u64),
            ("active_window", fast.active_window() as u64, scan.active_window() as u64),
            ("resize_pending", u64::from(fast.resize_pending()), u64::from(scan.resize_pending())),
        ];
        for (name, fv, sv) in observables {
            if fv != sv {
                return Err(format!("{ctx} {name} diverged — {fv} (production) vs {sv} (scan)"));
            }
        }
        Ok(())
    };
    for _ in 0..intervals {
        for request in 0..rng.range(1, 3) {
            if request > 0 && rng.chance(0.5) {
                let insts = rng.range(1, 16);
                ctx.push_str(&format!(" run {insts}"));
                let runs = (fast.run(fast_stream, insts), scan.run(&mut scan_stream, insts));
                compare(&ctx, &fast, &scan, runs)?;
            }
            let w = *rng.pick(&sizes);
            ctx.push_str(&format!(" resize {}", w.entries()));
            let (f, s) = (fast.request_resize(w), scan.request_resize(w));
            if f.is_ok() != s.is_ok() {
                return Err(format!("{ctx}: resize outcomes differ ({f:?} vs {s:?})"));
            }
            compare(&ctx, &fast, &scan, (RunStats::default(), RunStats::default()))?;
        }
        ctx.push_str(&format!(" run {PAPER_INTERVAL_INSTS}"));
        let runs = (
            fast.run(fast_stream, PAPER_INTERVAL_INSTS),
            scan.run(&mut scan_stream, PAPER_INTERVAL_INSTS),
        );
        compare(&ctx, &fast, &scan, runs)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_engines_agree_on_a_quick_sample() {
        let mut rng = Rng::for_case(1, "cache-sweep-unit", 0);
        for _ in 0..8 {
            cache_one_pass_vs_legacy(&mut rng).unwrap();
        }
    }

    #[test]
    fn queue_engines_agree_on_a_quick_sample() {
        let mut rng = Rng::for_case(1, "queue-sweep-unit", 0);
        for _ in 0..8 {
            queue_lanes_vs_legacy(&mut rng).unwrap();
        }
    }

    #[test]
    fn queue_engines_agree_on_unprofiled_shapes() {
        let mut rng = Rng::for_case(1, "queue-shapes-unit", 0);
        for _ in 0..24 {
            queue_lanes_vs_legacy_shapes(&mut rng).unwrap();
        }
    }

    #[test]
    fn bpred_sweeps_agree_on_a_quick_sample() {
        let mut rng = Rng::for_case(1, "bpred-sweep-unit", 0);
        for _ in 0..8 {
            bpred_fused_vs_per_size(&mut rng).unwrap();
        }
    }

    #[test]
    fn interval_lanes_agree_on_a_quick_sample() {
        let mut rng = Rng::for_case(1, "interval-lanes-unit", 0);
        for _ in 0..8 {
            interval_lanes_vs_core(&mut rng).unwrap();
        }
    }

    #[test]
    fn interval_runs_agree_on_a_quick_sample() {
        let mut rng = Rng::for_case(1, "run-diff-unit", 0);
        for _ in 0..8 {
            core_run_vs_scan(&mut rng).unwrap();
        }
    }

    #[test]
    fn cores_agree_on_a_quick_sample() {
        let mut rng = Rng::for_case(1, "scan-diff-unit", 0);
        for _ in 0..8 {
            core_vs_scan_reference(&mut rng).unwrap();
        }
    }
}
