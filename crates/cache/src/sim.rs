//! Simulation drivers: run an address stream through the hierarchy.
//!
//! The paper fixes the boundary for an application's whole run
//! (process-level adaptivity) and re-runs the trace at each boundary
//! position. [`run`] drives one hierarchy over a stream; production
//! sweeps answer every boundary from one traversal in
//! [`crate::multisweep`], which returns these [`SweepPoint`]s, and
//! `cap-verify` keeps the one-hierarchy-per-boundary reference.

use crate::config::Boundary;
use crate::hierarchy::AdaptiveCacheHierarchy;
use crate::perf::TpiBreakdown;
use crate::stats::CacheStats;
use cap_obs::{CacheSimEvent, Event, Recorder};
use cap_trace::mem::AddressStream;

/// Runs `refs` references from `stream` through `cache`, returning the
/// counters for exactly that span (pre-existing counters are not
/// disturbed; the returned value is the delta).
pub fn run<S: AddressStream>(mut stream: S, refs: u64, cache: &mut AdaptiveCacheHierarchy) -> CacheStats {
    let before = cache.stats();
    for _ in 0..refs {
        let r = stream.next_ref();
        cache.access(r);
    }
    cache.stats() - before
}

/// Traces one interval's hit/miss counters as a [`cap_obs::CacheSimEvent`],
/// numbered `interval` so a managed cache run's simulator events line up
/// with its decision events.
pub fn record_stats(recorder: &dyn Recorder, label: Option<&str>, interval: u64, stats: &CacheStats) {
    if recorder.enabled() {
        recorder.record(&Event::CacheSim(CacheSimEvent {
            app: label.map(str::to_string),
            interval,
            refs: stats.refs,
            l1_hits: stats.l1_hits,
            l2_hits: stats.l2_hits,
            misses: stats.misses,
        }));
    }
}

/// One point of a boundary sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The fixed boundary simulated.
    pub boundary: Boundary,
    /// Raw counters.
    pub stats: CacheStats,
    /// The TPI decomposition at this boundary.
    pub tpi: TpiBreakdown,
}

/// The sweep point with the lowest total TPI (the process-level adaptive
/// choice for this application).
///
/// Returns `None` for an empty sweep. Ties break toward the smaller
/// boundary (faster clock), matching the paper's preference for the
/// less-complex configuration when performance is equal.
pub fn best_point(points: &[SweepPoint]) -> Option<&SweepPoint> {
    points.iter().min_by(|a, b| {
        let (ta, tb) = (a.tpi.total_tpi().value(), b.tpi.total_tpi().value());
        ta.total_cmp(&tb).then(a.boundary.cmp(&b.boundary))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multisweep::multisweep;
    use crate::perf::PerfParams;
    use cap_timing::cacti::CacheTimingModel;
    use cap_timing::Technology;
    use cap_trace::mem::{Region, RegionMix};

    fn timing() -> CacheTimingModel {
        CacheTimingModel::isca98(Technology::isca98_evaluation())
    }

    fn loop_stream(bytes: u64) -> RegionMix {
        RegionMix::builder(5)
            .region(Region::sequential_loop(0, bytes, 32), 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn run_counts_exactly_n_refs() {
        let mut cache = AdaptiveCacheHierarchy::isca98(Boundary::new(2).unwrap());
        let s = run(loop_stream(4096), 1000, &mut cache);
        assert_eq!(s.refs, 1000);
        assert!(s.is_consistent());
    }

    #[test]
    fn run_returns_delta_not_cumulative() {
        let mut cache = AdaptiveCacheHierarchy::isca98(Boundary::new(2).unwrap());
        let _ = run(loop_stream(4096), 500, &mut cache);
        let second = run(loop_stream(4096), 300, &mut cache);
        assert_eq!(second.refs, 300);
    }

    /// The paper sweep of `refs` references of `stream`.
    fn paper_sweep(stream: RegionMix, refs: u64) -> Vec<SweepPoint> {
        multisweep(stream, refs, Boundary::paper_sweep(), &timing(), PerfParams::isca98(3.0)).unwrap()
    }

    #[test]
    fn sweep_visits_all_boundaries() {
        let points = paper_sweep(loop_stream(32 * 1024), 60_000);
        assert_eq!(points.len(), 8);
        for p in &points {
            assert_eq!(p.stats.refs, 60_000);
        }
        // A 32 KB loop fits from the 4-increment boundary onward: those
        // configurations see (almost) no steady-state L1 misses.
        let small = &points[0]; // 8 KB L1: loop thrashes it
        let big = &points[4]; // 40 KB L1: loop resident
        assert!(small.stats.l1_miss_ratio() > 0.9);
        assert!(big.stats.l1_miss_ratio() < 0.05);
    }

    #[test]
    fn best_point_trades_clock_against_misses() {
        // A hot working set that fits everywhere plus a stream that misses
        // everywhere: the miss time is clock-independent, so the fastest
        // clock (smallest boundary) wins on the base component.
        let mixed = RegionMix::builder(6)
            .region(Region::sequential_loop(0, 4 * 1024, 32), 9.0)
            .region(Region::random(1 << 30, 4 << 20), 1.0)
            .build()
            .unwrap();
        let points = paper_sweep(mixed, 30_000);
        let best = best_point(&points).unwrap();
        assert!(best.boundary.l1_kb() <= 16, "best was {}", best.boundary);

        // For a 48 KB working set, a boundary that captures it wins
        // despite the slower clock.
        let points = paper_sweep(loop_stream(48 * 1024), 60_000);
        let best = best_point(&points).unwrap();
        assert!(best.boundary.l1_kb() >= 48, "best was {}", best.boundary);
    }

    #[test]
    fn best_point_empty_is_none() {
        assert!(best_point(&[]).is_none());
    }

    #[test]
    fn sweep_points_expose_tpi_decomposition() {
        for p in &paper_sweep(loop_stream(8 * 1024), 5_000) {
            assert!(p.tpi.total_tpi() >= p.tpi.base_tpi);
            assert!(p.tpi.ipc() <= crate::perf::BASE_IPC + 1e-9);
        }
    }
}
