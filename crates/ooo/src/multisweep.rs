//! The fixed-window sweep: every window size in one pass over the
//! stream, scheduled in lock step.
//!
//! The paper's Figure 10 method runs each application at all eight
//! window sizes. The reference sweep ([`crate::perf::sweep`], which
//! `cap-verify` diffs against) builds one [`OooCore`] per window and
//! re-generates the stream for each. [`multisweep`] reads the generator
//! once, and schedules each instruction in up to [`LANES`] lanes, one per
//! window, with the core's recurrence (see [`crate::core`]). Every
//! [`QueueSweepPoint`] is bit-identical to the reference sweep's; the
//! tests and `cap-verify` hold this as an invariant.
//!
//! # Lanes
//!
//! The lanes keep `[u32; LANES]` rows of dispatch, completion and commit
//! cycles, in one ring over the most recent instructions that is longer
//! than the largest window. Every window runs the isca98 widths, so the
//! fetch and commit-width lookbacks and both producer lookups load whole
//! rows, and each maximum of the recurrence is one lane-wise maximum. Only
//! the entry-free lookback, `R_{i-W}`, reads a different row in each lane.
//! A ring longer than a lane's window changes nothing: a producer more
//! than `W` back has committed before instruction `i` dispatches, so its
//! completion never binds. Each lane has its own issue-slot ring, with
//! the core's exact semantics.
//!
//! The lanes are `u32` rather than `u64` so that, on a target with AVX2,
//! each row maximum compiles to one vector instruction; AVX2 has no
//! unsigned 64-bit maximum. Instruction `i`'s cycles are at most
//! `1 + Σ_{j≤i} (latency_j + W_max + 2)`: it dispatches at most a cycle
//! after the previous instruction's cycles, and issues at most `W - 1`
//! cycles after it is ready, as only the `W - 1` older instructions still
//! in the window can hold those slots. The sweep keeps that sum and
//! returns [`OooError::SweepCycleOverflow`] once it passes `u32::MAX`,
//! rather than wrapping. A full-scale curve of 1.5 M instructions stays
//! near 2·10⁸.
//!
//! # Run length
//!
//! [`OooCore::run`] of `insts` instructions ends in the cycle
//! `R_{insts-1}` in which the last of them commits, and counts every
//! instruction committed by then: commit retires up to `CW` a cycle, so
//! up to `CW - 1` more. The sweep therefore schedules `insts + CW - 1`
//! instructions and counts, per lane, those with `R_j <= R_{insts-1}`.
//!
//! [`OooCore`]: crate::core::OooCore
//! [`OooCore::run`]: crate::core::OooCore::run

use crate::config::{CoreConfig, WindowSize};
use crate::core::{read_contiguous, IssueSlots, RunStats};
use crate::error::OooError;
use crate::perf::{point, QueueSweepPoint};
use cap_timing::queue::{QueueTimingModel, MAX_ENTRIES};
use cap_trace::inst::InstStream;

/// The most window sizes one sweep runs: the paper's eight.
pub const LANES: usize = 8;

/// Initial span of each lane's issue-count ring, in cycles: long enough
/// that long latencies seldom have to extend it.
const ISSUE_SPAN: usize = 1024;

/// Instructions in the lanes' ring: longer than the largest window.
const RING: usize = 2 * MAX_ENTRIES;

/// One cycle per lane.
type Row = [u32; LANES];

/// One instruction's cycles, in every lane.
#[derive(Debug, Clone, Copy, Default)]
struct Rows {
    dispatch: Row,
    complete: Row,
    commit: Row,
}

#[inline(always)]
fn max(a: Row, b: Row) -> Row {
    std::array::from_fn(|l| a[l].max(b[l]))
}

#[inline(always)]
fn plus(a: Row, k: u32) -> Row {
    a.map(|x| x + k)
}

/// Simulates every window size over one pass of `gen` (Figure 10
/// methodology).
///
/// Results are bit-identical to [`crate::perf::sweep`] called with a
/// fresh clone of `gen` per window.
///
/// # Errors
///
/// * [`OooError::TooManyWindows`] for more than [`LANES`] windows;
/// * [`OooError::SweepCycleOverflow`] if the run's cycle counts could
///   pass `u32::MAX`;
/// * otherwise the reference sweep's timing-model errors, in window
///   order.
///
/// # Panics
///
/// Panics if the stream's seqs are not contiguous.
pub fn multisweep<S: InstStream>(
    mut gen: S,
    insts: u64,
    windows: impl IntoIterator<Item = WindowSize>,
    timing: &QueueTimingModel,
) -> Result<Vec<QueueSweepPoint>, OooError> {
    let windows: Vec<WindowSize> = windows.into_iter().collect();
    if windows.len() > LANES {
        return Err(OooError::TooManyWindows { windows: windows.len() });
    }
    let stats = if windows.is_empty() || insts == 0 {
        [RunStats::default(); LANES]
    } else {
        schedule(&mut gen, insts, &windows)?
    };
    windows.iter().zip(stats).map(|(&w, stats)| point(w, stats, timing)).collect()
}

/// The fetch, issue and commit widths of a fresh core at `window`,
/// capped at the window as the core caps them.
fn widths(window: WindowSize) -> Result<(u64, u32, u64), OooError> {
    let config = CoreConfig::isca98(window.entries())?;
    config.validate()?;
    let cap = |width: usize| width.min(window.entries());
    let (fetch, issue, commit) = (config.fetch_width, config.issue_width, config.commit_width);
    Ok((cap(fetch) as u64, cap(issue) as u32, cap(commit) as u64))
}

/// The [`RunStats`] of a fresh core's `run(stream, insts)` at each of
/// `windows` (one to [`LANES`] of them), in lane order. Lanes past the
/// last window repeat it.
fn schedule<S: InstStream>(
    stream: &mut S,
    insts: u64,
    windows: &[WindowSize],
) -> Result<[RunStats; LANES], OooError> {
    let (fetch_width, issue_width, commit_width) = widths(windows[0])?;
    for &w in windows {
        assert_eq!(widths(w)?, (fetch_width, issue_width, commit_width), "lanes share widths");
    }
    let window: [u64; LANES] =
        std::array::from_fn(|l| windows[l.min(windows.len() - 1)].entries() as u64);
    let max_window = window.into_iter().max().unwrap_or(0);
    let mask = RING - 1;
    let mut ring = vec![Rows::default(); RING];
    // As an array, so that no masked index needs a bounds check.
    let rows: &mut [Rows; RING] = ring.as_mut_slice().try_into().expect("the ring has RING rows");
    let at = |rows: &[Rows; RING], index: u64| rows[index as usize & mask];
    let mut issues: [IssueSlots; LANES] = std::array::from_fn(|_| IssueSlots::new(ISSUE_SPAN));
    let count = insts + commit_width - 1;
    // The carried previous instruction, as in the core; a fresh core's
    // floor is cycle 1.
    let mut prev = Rows { dispatch: [1; LANES], ..Rows::default() };
    let mut bound = 1u64;
    let mut first_seq = 0;
    for i in 0..count {
        let inst = read_contiguous(stream, &mut first_seq, i);
        bound += u64::from(inst.latency) + max_window + 2;
        if bound > u64::from(u32::MAX) {
            return Err(OooError::SweepCycleOverflow { inst: i });
        }
        let fetch = plus(at(rows, i.wrapping_sub(fetch_width)).dispatch, 1);
        let entry_free: Row =
            std::array::from_fn(|l| at(rows, i.wrapping_sub(window[l])).commit[l]);
        let dispatch = max(max(fetch, entry_free), prev.dispatch);
        // As in the core: producers older than the ring, or before the
        // stream, constrain nothing, and a producer one back is `prev`.
        let operand = |dist: u32| {
            if dist == 1 {
                return prev.complete;
            }
            let age = u64::from(dist);
            let complete = at(rows, i.wrapping_sub(age)).complete;
            if age.wrapping_sub(1) < mask as u64 { complete } else { [0; LANES] }
        };
        let ready = max(max(plus(dispatch, 1), operand(inst.dist[0])), operand(inst.dist[1]));
        // Most instructions issue when ready in every lane. Checking all
        // lanes first keeps that case's issue row the ready row; only an
        // instruction that some lane must delay runs the claim loop.
        let mut room = true;
        for (slots, &t) in issues.iter().zip(&ready) {
            room &= slots.has_room(u64::from(t), issue_width);
        }
        let issue = if room {
            for (slots, &t) in issues.iter_mut().zip(&ready) {
                slots.take(u64::from(t));
            }
            ready
        } else {
            std::array::from_fn(|l| {
                let live = u64::from(dispatch[l]) + 1;
                issues[l].claim(u64::from(ready[l]), live, issue_width) as u32
            })
        };
        let complete = plus(issue, inst.latency);
        let commit_room = plus(at(rows, i.wrapping_sub(commit_width)).commit, 1);
        let commit = max(max(max(complete, plus(issue, 1)), commit_room), prev.commit);
        prev = Rows { dispatch, complete, commit };
        rows[i as usize & mask] = prev;
    }
    let end = at(rows, insts - 1).commit;
    Ok(std::array::from_fn(|l| {
        let late = (insts..count).filter(|&j| at(rows, j).commit[l] <= end[l]).count();
        RunStats { cycles: u64::from(end[l]), committed: insts + late as u64 }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{sweep, sweep_point};
    use crate::testing::{Shape, ShapeStream, BASE};
    use cap_timing::Technology;
    use cap_trace::inst::{IlpParams, Inst, SegmentIlp};
    use cap_trace::tape::InstTape;

    fn timing() -> QueueTimingModel {
        QueueTimingModel::new(Technology::isca98_evaluation())
    }

    /// The lane sweep of a shape against a fresh `sweep_point` per window.
    fn assert_matches_sweep_points(shape: Shape, seed: u64, insts: u64, windows: &[WindowSize]) {
        let lanes = multisweep(ShapeStream::new(shape, seed), insts, windows.to_vec(), &timing());
        let lanes = lanes.unwrap();
        assert_eq!(lanes.len(), windows.len());
        for (p, &w) in lanes.iter().zip(windows) {
            let fresh = sweep_point(ShapeStream::new(shape, seed), insts, w, &timing()).unwrap();
            assert_eq!(*p, fresh, "seed {seed}, {insts} insts, window {w}");
        }
    }

    fn paper() -> Vec<WindowSize> {
        WindowSize::paper_sweep().collect()
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
    fn overshooting_commit_groups_are_counted() {
        // Independent instructions commit eight a cycle, so a target that
        // is not a multiple of eight ends mid-group.
        let shape = Shape { dep_chance: 0, latencies: &[1], ..BASE };
        let points = multisweep(ShapeStream::new(shape, 1), 1_003, paper(), &timing()).unwrap();
        assert!(points.iter().all(|p| p.stats.committed > 1_003), "{points:?}");
        assert_matches_sweep_points(shape, 1, 1_003, &paper());
        assert_matches_sweep_points(BASE, 4, 2_001, &paper());
    }

    #[test]
    fn long_latencies_grow_the_issue_rings() {
        // Chains of latency 100..900 push ready cycles far past the live
        // cycle, beyond half a 1024-cycle issue ring.
        let shape = Shape { dep_chance: 220, latencies: &[1, 100, 300, 900], ..BASE };
        for seed in 0..3 {
            assert_matches_sweep_points(shape, seed, 3_000, &paper());
        }
    }

    #[test]
    fn far_producers_and_second_operands_match() {
        let shapes = [
            // Producers beyond the 512-instruction ring, and before the
            // stream.
            Shape { reach: 700, dep_chance: 200, ..BASE },
            Shape { reach: 200, dep_chance: 220, first_seq: 1_000, ..BASE },
            // `dep2` repeating `dep1`'s producer, and zero latencies.
            Shape { same_chance: 128, latencies: &[0, 0, 1, 3], ..BASE },
        ];
        for shape in shapes {
            for seed in 0..3 {
                assert_matches_sweep_points(shape, seed, 4_000, &paper());
            }
        }
    }

    #[test]
    fn one_window_and_eight_windows_match() {
        for w in paper() {
            assert_matches_sweep_points(BASE, 8, 1_500, &[w]);
        }
        let mut reversed = paper();
        reversed.reverse();
        assert_matches_sweep_points(BASE, 9, 1_500, &reversed);
        let mut repeated = vec![WindowSize::new(48).unwrap(); 8];
        repeated[3] = WindowSize::new(256).unwrap();
        let stats = |w| {
            let mut core = crate::perf::window_core(w).unwrap();
            core.run(&mut ShapeStream::new(BASE, 2), 1_500)
        };
        let got = schedule(&mut ShapeStream::new(BASE, 2), 1_500, &repeated).unwrap();
        assert!(got.iter().zip(&repeated).all(|(s, &w)| *s == stats(w)), "{got:?}");
    }

    #[test]
    fn empty_sweeps_read_nothing() {
        let mut stream = ShapeStream::new(BASE, 1);
        assert_eq!(multisweep(&mut stream, 1_000, [], &timing()).unwrap(), vec![]);
        let points = multisweep(&mut stream, 0, paper(), &timing()).unwrap();
        assert!(points.iter().all(|p| p.stats == RunStats::default()));
        assert_eq!(stream.reads, 0);
    }

    #[test]
    fn more_windows_than_lanes_is_an_error() {
        let nine = paper().into_iter().chain([WindowSize::new(144).unwrap()]);
        let err = multisweep(ShapeStream::new(BASE, 1), 100, nine, &timing()).unwrap_err();
        assert_eq!(err, OooError::TooManyWindows { windows: 9 });
    }

    #[test]
    fn huge_latencies_return_the_overflow_error() {
        // Independent instructions, so that no issue ring has to span the
        // latencies.
        let shape = Shape { dep_chance: 0, latencies: &[u32::MAX / 4], ..BASE };
        let err = multisweep(ShapeStream::new(shape, 1), 100, paper(), &timing()).unwrap_err();
        assert_eq!(err, OooError::SweepCycleOverflow { inst: 3 });
        // Just inside the range, the lanes agree with the core.
        let shape = Shape { dep_chance: 0, latencies: &[u32::MAX / 64], ..BASE };
        assert_matches_sweep_points(shape, 1, 40, &paper());
    }

    /// The listed instructions, in order.
    struct ListStream(std::vec::IntoIter<Inst>);

    impl InstStream for ListStream {
        fn next_inst(&mut self) -> Inst {
            self.0.next().expect("list exhausted")
        }
    }

    #[test]
    #[should_panic(expected = "instruction stream must be contiguous")]
    fn a_gap_in_the_stream_panics() {
        let list = [0, 1, 2, 4, 5].map(Inst::independent).to_vec();
        let _ = multisweep(ListStream(list.into_iter()), 3, paper(), &timing());
    }
}
