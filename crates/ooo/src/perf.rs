//! TPI evaluation for the instruction-queue study.
//!
//! The paper's Figure 10 methodology: run each application at every window
//! size 16–128, with the clock set by that size's wakeup+select delay, and
//! report `TPI = cycle time / IPC`. The sweep itself runs every window in
//! one pass ([`crate::multisweep::multisweep`]); `cap-verify` keeps the
//! one-core-per-window reference.

use crate::config::WindowSize;
use crate::core::RunStats;
use crate::error::OooError;
use cap_timing::queue::QueueTimingModel;
use cap_timing::units::Ns;

/// One point of a window sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueSweepPoint {
    /// The fixed window size simulated.
    pub window: WindowSize,
    /// Measured cycles and instructions.
    pub stats: RunStats,
    /// Cycle time at this window size.
    pub cycle: Ns,
    /// Average time per instruction.
    pub tpi: Ns,
}

/// Computes TPI from a run at a given window size.
///
/// # Errors
///
/// Returns an error if the timing model rejects the window size.
pub fn tpi(window: WindowSize, stats: RunStats, timing: &QueueTimingModel) -> Result<(Ns, Ns), OooError> {
    let cycle = timing
        .cycle_time(window.entries())
        .map_err(|_| OooError::InvalidWindow { entries: window.entries() })?;
    let ipc = stats.ipc();
    let t = if ipc > 0.0 { cycle / ipc } else { Ns(f64::INFINITY) };
    Ok((cycle, t))
}

/// The sweep point of a run at `window`.
pub(crate) fn point(
    window: WindowSize,
    stats: RunStats,
    timing: &QueueTimingModel,
) -> Result<QueueSweepPoint, OooError> {
    let (cycle, t) = tpi(window, stats, timing)?;
    Ok(QueueSweepPoint { window, stats, cycle, tpi: t })
}

/// The sweep point with the lowest TPI (the process-level adaptive choice
/// for this application). Ties break toward the smaller window.
pub fn best_point(points: &[QueueSweepPoint]) -> Option<&QueueSweepPoint> {
    points.iter().min_by(|a, b| {
        a.tpi.value().total_cmp(&b.tpi.value()).then(a.window.cmp(&b.window))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multisweep::multisweep;
    use cap_timing::Technology;
    use cap_trace::inst::{IlpParams, SegmentIlp};

    fn timing() -> QueueTimingModel {
        QueueTimingModel::new(Technology::isca98_evaluation())
    }

    /// The paper sweep of `insts` instructions of `params` at seed 4.
    fn paper_sweep(params: IlpParams, insts: u64) -> Vec<QueueSweepPoint> {
        let stream = SegmentIlp::new(params, 4).unwrap();
        multisweep(stream, insts, WindowSize::paper_sweep(), &timing()).unwrap()
    }

    #[test]
    fn sweep_visits_all_sizes() {
        let params = IlpParams::balanced();
        let points = paper_sweep(params, 20_000);
        assert_eq!(points.len(), 8);
        for p in &points {
            assert!((20_000..20_008).contains(&p.stats.committed));
            assert!(p.tpi.value() > 0.0);
        }
    }

    #[test]
    fn low_ilp_stream_favors_small_window() {
        // Fully serialized chains: IPC is flat, so the fastest clock wins.
        let params = IlpParams {
            chain_len: 8,
            burst_len: 2,
            chain_latency: 2,
            burst_latency: 1,
            cross_dep_prob: 1.0,
            burst_chain_len: 1,
            far_dep_prob: 0.0,
            jitter: 0.0,
        };
        let points = paper_sweep(params, 30_000);
        assert_eq!(best_point(&points).unwrap().window.entries(), 16);
    }

    #[test]
    fn window_scaled_ilp_favors_large_window() {
        // Long independent segments: IPC keeps growing through 128.
        let params = IlpParams {
            chain_len: 16,
            burst_len: 16,
            chain_latency: 2,
            burst_latency: 1,
            cross_dep_prob: 0.0,
            burst_chain_len: 16,
            far_dep_prob: 0.0,
            jitter: 0.0,
        };
        let points = paper_sweep(params, 60_000);
        let best = best_point(&points).unwrap();
        assert!(best.window.entries() >= 96, "best was {}", best.window);
    }

    #[test]
    fn tpi_is_cycle_over_ipc() {
        let stats = RunStats { cycles: 1000, committed: 4000 };
        let (cycle, t) = tpi(WindowSize::new(64).unwrap(), stats, &timing()).unwrap();
        assert!((t.value() - cycle.value() / 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_run_gives_infinite_tpi() {
        let (_, t) = tpi(WindowSize::new(64).unwrap(), RunStats::default(), &timing()).unwrap();
        assert!(t.value().is_infinite());
    }

    #[test]
    fn best_point_empty_is_none() {
        assert!(best_point(&[]).is_none());
    }
}
