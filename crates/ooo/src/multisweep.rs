//! Single-pass window sweeps over a shared instruction tape.
//!
//! The reference sweep ([`crate::perf::sweep`], which `cap-verify` diffs
//! against) re-synthesizes the instruction stream for every window
//! size: eight configurations mean eight full generator runs over
//! ~identical prefixes. This module records the stream once and replays
//! it to every configuration, so generation cost is paid a single time
//! per sweep and the cores spend their cycles simulating.
//!
//! Unlike the cache multisweep — where one traversal literally computes
//! all boundaries at once from stack distances — the window simulations
//! cannot be fused: IPC at window `W` depends on the full scheduling
//! dynamics at that size. What *is* shared is the input. Each
//! configuration still runs on its own [`crate::core::OooCore`], fed
//! exactly the instructions a pristine generator would have produced,
//! so every [`QueueSweepPoint`] is bit-identical to the reference
//! sweep's (the tests and `cap-verify` hold this as an invariant).
//!
//! The sweep runs in two phases:
//!
//! 1. **Record.** Each window's core can read at most
//!    [`OooCore::run_reach`] instructions (`insts + W + CW - 1` for a
//!    fresh core; see there for the derivation). The sweep takes the
//!    furthest reach over its windows and records that many
//!    instructions with [`InstTape::into_records`], in one tight loop,
//!    with every record checked.
//! 2. **Replay.** Each core runs over the record slice with
//!    [`OooCore::run_records`], whose position in the slice lives in a
//!    local. The slice-fed driver shares its per-instruction schedule
//!    with the stream-fed one that managed runs use.
//!
//! Peak memory is one 12-byte record per instruction of the reach:
//! 3.6 MB for a 300 k-instruction curve, replayed once per window.
//!
//! [`OooCore::run_reach`]: crate::core::OooCore::run_reach
//! [`OooCore::run_records`]: crate::core::OooCore::run_records

use crate::config::WindowSize;
use crate::error::OooError;
use crate::perf::{point, window_core, QueueSweepPoint};
use cap_timing::queue::QueueTimingModel;
use cap_trace::inst::InstStream;
use cap_trace::tape::InstTape;

/// Simulates every window size over one shared recorded instruction
/// stream (Figure 10 methodology, single-generation).
///
/// Results are bit-identical to [`crate::perf::sweep`] called with a
/// fresh clone of `gen` per window.
///
/// # Errors
///
/// Propagates core-configuration and timing-model errors in window
/// order, exactly as the reference sweep does.
pub fn multisweep<S: InstStream>(
    gen: S,
    insts: u64,
    windows: impl IntoIterator<Item = WindowSize>,
    timing: &QueueTimingModel,
) -> Result<Vec<QueueSweepPoint>, OooError> {
    let cores: Vec<_> = windows.into_iter().map(|w| (w, window_core(w))).collect();
    let reach = cores
        .iter()
        .filter_map(|(_, core)| Some(core.as_ref().ok()?.run_reach(insts)))
        .max()
        .unwrap_or(0);
    let reach = usize::try_from(reach).expect("a sweep's reach fits in memory");
    let records = InstTape::new(gen).into_records(reach);
    cores
        .into_iter()
        .map(|(w, core)| point(w, core?.run_records(&records, insts), timing))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{sweep, sweep_point};
    use cap_timing::Technology;
    use cap_trace::inst::{IlpParams, SegmentIlp};

    fn timing() -> QueueTimingModel {
        QueueTimingModel::new(Technology::isca98_evaluation())
    }

    #[test]
    fn matches_legacy_sweep_bit_for_bit() {
        for seed in [2u64, 19] {
            let params = IlpParams::balanced();
            let legacy = sweep(
                || SegmentIlp::new(params, seed).unwrap(),
                30_000,
                WindowSize::paper_sweep(),
                &timing(),
            )
            .unwrap();
            let single = multisweep(
                SegmentIlp::new(params, seed).unwrap(),
                30_000,
                WindowSize::paper_sweep(),
                &timing(),
            )
            .unwrap();
            assert_eq!(legacy.len(), single.len());
            for (a, b) in legacy.iter().zip(&single) {
                assert_eq!(a.window, b.window);
                assert_eq!(a.stats, b.stats);
                assert_eq!(a.cycle.value().to_bits(), b.cycle.value().to_bits());
                assert_eq!(a.tpi.value().to_bits(), b.tpi.value().to_bits());
            }
        }
    }

    #[test]
    fn tape_generates_once_for_all_windows() {
        let gen = SegmentIlp::new(IlpParams::balanced(), 5).unwrap();
        let tape = InstTape::new(gen);
        let points: Vec<_> = WindowSize::paper_sweep()
            .map(|w| sweep_point(tape.cursor(), 10_000, w, &timing()).unwrap())
            .collect();
        assert_eq!(points.len(), 8);
        // The hungriest configuration reads target + commit overshoot +
        // window occupancy; everything else reuses its prefix.
        let generated = tape.generated();
        assert!(generated >= 10_000);
        assert!(generated < 10_000 + 8 + 129, "over-generated: {generated}");
    }

    #[test]
    fn slice_replay_matches_sweep_point_within_the_reach() {
        let params = IlpParams::balanced();
        let insts = 20_000;
        let cores: Vec<_> =
            WindowSize::paper_sweep().map(|w| (w, window_core(w).unwrap())).collect();
        let reach = cores.iter().map(|(_, core)| core.run_reach(insts)).max().unwrap();
        assert_eq!(reach, insts + 128 + 8 - 1, "the 128-entry core reaches furthest");
        let tape = InstTape::new(SegmentIlp::new(params, 12).unwrap());
        let records = tape.into_records(reach as usize);
        for (w, mut core) in cores {
            let own_reach = core.run_reach(insts);
            // A slice cut at the window's own reach is long enough.
            let stats = core.run_records(&records[..own_reach as usize], insts);
            let fresh = sweep_point(SegmentIlp::new(params, 12).unwrap(), insts, w, &timing());
            assert_eq!(stats, fresh.unwrap().stats, "window {w}");
            let read = core.committed() + core.occupancy() as u64;
            assert!(read <= own_reach, "window {w} read {read}, past its reach {own_reach}");
        }
    }

    #[test]
    fn single_window_multisweep_matches_sweep_point() {
        let params = IlpParams::balanced();
        let w = WindowSize::new(96).unwrap();
        let a = multisweep(SegmentIlp::new(params, 8).unwrap(), 5_000, [w], &timing()).unwrap();
        let b =
            sweep_point(SegmentIlp::new(params, 8).unwrap(), 5_000, w, &timing()).unwrap();
        assert_eq!(a, vec![b]);
    }
}
