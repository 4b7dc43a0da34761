//! Single-pass window sweeps over a shared instruction tape.
//!
//! The reference sweep ([`crate::perf::sweep`], which `cap-verify` diffs
//! against) re-synthesizes the instruction stream for every window
//! size: eight configurations mean eight full generator runs over
//! ~identical prefixes. This module records the stream once in a
//! [`cap_trace::tape::InstTape`] and replays an independent cursor per
//! configuration, so generation cost is paid a single time per sweep
//! and the cores spend their cycles simulating.
//!
//! Unlike the cache multisweep — where one traversal literally computes
//! all boundaries at once from stack distances — the window simulations
//! cannot be fused: IPC at window `W` depends on the full scheduling
//! dynamics at that size. What *is* shared is the input. Each
//! configuration still runs on its own [`crate::core::OooCore`], driven
//! by a cursor that replays exactly the instructions a pristine
//! generator would have produced, so every [`QueueSweepPoint`] is
//! bit-identical to the reference sweep's (the tests and `cap-verify`
//! hold this as an invariant). The cores read the tape's packed records
//! as they are, with no conversion back to [`cap_trace::Inst`].
//!
//! The tape is lazy and grows only as far as the hungriest configuration
//! reads (a core fetches roughly `insts + occupancy` instructions), so
//! peak memory is one 12-byte record per simulated instruction: 3.6 MB
//! for a 300 k-instruction curve, replayed once per window.

use crate::config::WindowSize;
use crate::error::OooError;
use crate::perf::{sweep_point, QueueSweepPoint};
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
/// Propagates timing-model errors, exactly as the reference sweep does.
pub fn multisweep<S: InstStream>(
    gen: S,
    insts: u64,
    windows: impl IntoIterator<Item = WindowSize>,
    timing: &QueueTimingModel,
) -> Result<Vec<QueueSweepPoint>, OooError> {
    let tape = InstTape::new(gen);
    windows.into_iter().map(|w| sweep_point(tape.cursor(), insts, w, timing)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::sweep;
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
    fn single_window_multisweep_matches_sweep_point() {
        let params = IlpParams::balanced();
        let w = WindowSize::new(96).unwrap();
        let a = multisweep(SegmentIlp::new(params, 8).unwrap(), 5_000, [w], &timing()).unwrap();
        let b =
            sweep_point(SegmentIlp::new(params, 8).unwrap(), 5_000, w, &timing()).unwrap();
        assert_eq!(a, vec![b]);
    }
}
