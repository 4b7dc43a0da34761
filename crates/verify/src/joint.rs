//! The joint (cache + queue) managed run's lane against its serial
//! reference.
//!
//! `extended`'s online joint study ([`run_managed_combined`]) runs its
//! queue as one lane of [`cap_ooo::multisweep::run_intervals`], whose
//! interval ends simulate the cache half and let both managers decide.
//! [`core_managed_combined`] is the same run as a plain loop over a
//! serial [`OooCore`], one `run` call per interval;
//! [`joint_lane_vs_core`] holds the two bit-identical under fuzzing.

use crate::rng::Rng;
use cap_cache::config::Boundary;
use cap_cache::hierarchy::AdaptiveCacheHierarchy;
use cap_core::clock::DEFAULT_SWITCH_PENALTY_CYCLES;
use cap_core::experiments::ExecPolicy;
use cap_core::extended::{run_managed_combined, ManagedCombined};
use cap_core::manager::{ConfidencePolicy, ManagerDecision};
use cap_core::policy::{PolicyConfig, PolicyKind};
use cap_core::CapError;
use cap_ooo::config::{CoreConfig, WindowSize};
use cap_ooo::core::OooCore;
use cap_ooo::interval::PAPER_INTERVAL_INSTS;
use cap_timing::cacti::{CacheTimingModel, L1_LATENCY_CYCLES, MISS_LATENCY_NS};
use cap_timing::queue::QueueTimingModel;
use cap_timing::units::Ns;
use cap_timing::Technology;
use cap_trace::mem::AddressStream;
use cap_workloads::App;

/// The reference joint managed run of `app`: each interval runs the
/// core for [`PAPER_INTERVAL_INSTS`] instructions at the current window
/// and the D-cache for the corresponding references at the current
/// boundary; the joint clock is the slower structure's, and both
/// confidence managers (exploring every 31 and 37 intervals, gated by
/// `policy`) observe the joint TPI at their own configuration. A switch
/// costs [`DEFAULT_SWITCH_PENALTY_CYCLES`] at the interval's clock; a
/// window switch resizes the core before the next interval.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn core_managed_combined(
    app: App,
    intervals: u64,
    seed: u64,
    policy: ConfidencePolicy,
) -> Result<ManagedCombined, CapError> {
    let tech = Technology::isca98_evaluation();
    let cache_timing = CacheTimingModel::isca98(tech);
    let queue_timing = QueueTimingModel::new(tech);
    let boundaries: Vec<Boundary> = Boundary::paper_sweep().collect();
    let windows: Vec<usize> = WindowSize::paper_sweep().map(|w| w.entries()).collect();

    let mem = app.memory_profile();
    let mut mem_stream = mem.build(seed ^ app.seed_salt());
    let mut inst_stream = app.ilp_profile().build(seed ^ app.seed_salt());

    let mut cache = AdaptiveCacheHierarchy::try_with_geometry(*cache_timing.geometry(), boundaries[0])?;
    // The physical window is the largest catalog size; the core starts
    // shrunk to windows[0] (immediate: the window is empty).
    let largest = *windows.last().expect("paper sweep is non-empty");
    let mut core = OooCore::try_new(CoreConfig::isca98(largest)?)?;
    core.request_resize(WindowSize::new(windows[0])?)?;
    let manager = |explore_period, num_configs| {
        PolicyConfig::new(PolicyKind::Confidence)
            .with_explore_period(explore_period)
            .with_confidence(policy)
            .build(num_configs, cap_obs::noop(), None)
    };
    let mut cache_mgr = manager(31, boundaries.len())?;
    let mut queue_mgr = manager(37, windows.len())?;
    let mut cache_cfg = 0usize;
    let mut queue_cfg = 0usize;
    let mut switches = 0u64;
    let mut total_time = 0.0f64;
    let mut total_insts = 0u64;
    let refs_per_interval = (PAPER_INTERVAL_INSTS as f64 / mem.insts_per_ref).ceil() as u64;

    for _ in 0..intervals {
        let run = core.run(&mut inst_stream, PAPER_INTERVAL_INSTS);
        let before = cache.stats();
        for _ in 0..refs_per_interval {
            let r = mem_stream.next_ref();
            cache.access(r);
        }
        let after = cache.stats();
        let k = boundaries[cache_cfg].increments();
        let cycle = cache_timing.cycle_time(k)?.max(queue_timing.cycle_time(windows[queue_cfg])?);
        let l2_extra = ((cache_timing.l2_access(k)? / cycle).ceil() as u64)
            .saturating_sub(u64::from(L1_LATENCY_CYCLES));
        let mem_extra = l2_extra + (Ns(MISS_LATENCY_NS) / cycle).ceil() as u64;
        let l2_hits = after.l2_hits - before.l2_hits;
        let misses = after.misses - before.misses;
        let stall_cpi = (l2_hits as f64 * l2_extra as f64 + misses as f64 * mem_extra as f64)
            / run.committed as f64;
        let cpi = run.cycles as f64 / run.committed as f64 + stall_cpi;
        let tpi = cycle.value() * cpi;
        total_time += tpi * run.committed as f64;
        total_insts += run.committed;

        if let ManagerDecision::SwitchTo(next) = cache_mgr.observe(cache_cfg, tpi) {
            if next != cache_cfg {
                cache.set_boundary(boundaries[next]);
                cache_cfg = next;
                switches += 1;
                total_time += DEFAULT_SWITCH_PENALTY_CYCLES as f64 * cycle.value();
            }
        }
        if let ManagerDecision::SwitchTo(next) = queue_mgr.observe(queue_cfg, tpi) {
            if next != queue_cfg {
                core.request_resize(WindowSize::new(windows[next])?)?;
                queue_cfg = next;
                switches += 1;
                total_time += DEFAULT_SWITCH_PENALTY_CYCLES as f64 * cycle.value();
            }
        }
    }

    Ok(ManagedCombined {
        app: app.name().to_string(),
        intervals,
        avg_tpi: total_time / total_insts as f64,
        switches,
        final_l1_kb: boundaries[cache_cfg].l1_kb(),
        final_entries: windows[queue_cfg],
    })
}

/// One fuzzed joint run (`extended/joint-lane-vs-core`): a random
/// application from all 22, seed and one to sixty intervals, under the
/// default confidence gating or none. The production run
/// ([`run_managed_combined`], serial and uncached) must equal
/// [`core_managed_combined`] field by field, its average TPI as bits.
///
/// # Errors
///
/// Returns a message naming the case and both results.
pub fn joint_lane_vs_core(rng: &mut Rng) -> Result<(), String> {
    let app = *rng.pick(&App::ALL);
    let seed = rng.next_u64();
    let intervals = rng.range(1, 60);
    let (gating, policy) = *rng.pick(&[
        ("default gating", ConfidencePolicy::default_policy()),
        ("no gating", ConfidencePolicy::none()),
    ]);
    let ctx = format!("{} seed {seed:#x} {intervals} intervals, {gating}", app.name());
    let want = core_managed_combined(app, intervals, seed, policy).map_err(|e| format!("{ctx}: the core run failed: {e}"))?;
    let got = run_managed_combined(app, intervals, seed, policy, &ExecPolicy::serial())
        .map_err(|e| format!("{ctx}: the lane failed: {e}"))?;
    let fields = |r: &ManagedCombined| {
        (r.app.clone(), r.intervals, r.avg_tpi.to_bits(), r.switches, r.final_l1_kb, r.final_entries)
    };
    if fields(&want) != fields(&got) {
        return Err(format!("{ctx}: {want:?} (core) vs {got:?} (lane)"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_few_joint_runs_match_their_core_reference() {
        for case in 0..6 {
            joint_lane_vs_core(&mut Rng::for_case(7, "extended/joint-lane-vs-core", case)).unwrap();
        }
    }
}
