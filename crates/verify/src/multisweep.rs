//! Differential properties for the single-pass sweep engines.
//!
//! The sweep engine has two fast paths, each replacing a
//! run-per-configuration loop with one traversal:
//!
//! * the cache sweep classifies each reference by stack distance once
//!   and derives every boundary's counters from the shared profile
//!   ([`cap_cache::multisweep`]);
//! * the queue sweep records the generated instruction stream once, in
//!   bulk, and replays the record slice at every window size
//!   ([`cap_ooo::multisweep`]), on a core that schedules each
//!   instruction once, at dispatch, rather than scanning the window
//!   every cycle ([`cap_ooo::core::OooCore`] vs
//!   [`cap_ooo::reference::ScanCore`]), checked both cycle by cycle and
//!   over the interval-sized `run` calls of a managed run — the latter
//!   also with the production core reading the tape's packed records;
//! * the branch-predictor sweep reads its branch stream once and trains
//!   every PHT size on each event ([`cap_ooo::bpred::sweep`]), against
//!   [`per_size_bpred_sweep`], which regenerates the stream per size.
//!
//! Each fast path is claimed *bit-identical* to its reference — that is
//! what lets the goldens stay byte-for-byte stable across the engine
//! swap. These properties keep the claim checked under fuzzing: random
//! workload apps × seeds × trace lengths, counters compared as integers
//! and every derived time as `f64::to_bits`.

use crate::rng::Rng;
use cap_cache::config::Boundary;
use cap_cache::perf::PerfParams;
use cap_cache::sim::SweepPoint;
use cap_ooo::bpred::{BpredSweepPoint, Gshare, PhtConfig, MISPREDICT_PENALTY_CYCLES};
use cap_ooo::config::{CoreConfig, WindowSize};
use cap_ooo::core::{OooCore, RunStats};
use cap_ooo::interval::PAPER_INTERVAL_INSTS;
use cap_ooo::perf::QueueSweepPoint;
use cap_ooo::reference::ScanCore;
use cap_timing::cacti::CacheTimingModel;
use cap_timing::queue::QueueTimingModel;
use cap_timing::units::Ns;
use cap_timing::Technology;
use cap_trace::branch::BranchStream;
use cap_trace::inst::InstStream;
use cap_trace::tape::InstTape;
use cap_workloads::App;

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

/// One fuzzed queue case: a random suite application, seed and run
/// length, swept over every paper window size by both engines (the
/// legacy path regenerates the stream per window; the fast path replays
/// one bulk-recorded record slice).
///
/// # Errors
///
/// Returns a message naming the first diverging window and field.
pub fn queue_tape_vs_legacy(rng: &mut Rng) -> Result<(), String> {
    let apps: Vec<App> = App::queue_suite().collect();
    let app = *rng.pick(&apps);
    let seed = rng.next_u64();
    let insts = rng.range(1_000, 4_000);
    let profile = app.ilp_profile();
    let timing = QueueTimingModel::new(Technology::isca98_evaluation());
    let legacy =
        cap_ooo::perf::sweep(|| profile.build(seed), insts, WindowSize::paper_sweep(), &timing)
            .map_err(|e| format!("legacy sweep failed: {e}"))?;
    let tape =
        cap_ooo::multisweep::multisweep(profile.build(seed), insts, WindowSize::paper_sweep(), &timing)
            .map_err(|e| format!("tape sweep failed: {e}"))?;
    let ctx = format!("app {} seed {seed} insts {insts}", app.name());
    compare_queue_points(&ctx, &legacy, &tape)
}

fn compare_queue_points(
    ctx: &str,
    legacy: &[QueueSweepPoint],
    tape: &[QueueSweepPoint],
) -> Result<(), String> {
    if legacy.len() != tape.len() {
        return Err(format!(
            "{ctx}: point counts differ (legacy {} vs tape {})",
            legacy.len(),
            tape.len()
        ));
    }
    for (l, t) in legacy.iter().zip(tape) {
        let w = l.window;
        if t.window != w {
            return Err(format!("{ctx}: window order diverged at {w} vs {}", t.window));
        }
        if l.stats.cycles != t.stats.cycles || l.stats.committed != t.stats.committed {
            return Err(format!(
                "{ctx} window {w}: stats {:?} (legacy) != {:?} (tape)",
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
/// the rest itself. (A sweep's cores read a bulk-recorded record slice;
/// [`queue_tape_vs_legacy`] covers that path.)
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
            queue_tape_vs_legacy(&mut rng).unwrap();
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
