//! The lock-step lanes: several schedules of one instruction stream in
//! one pass, each lane with its own window.
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
//! [`run_intervals`] runs the same lanes as managed cores: each lane
//! commits consecutive intervals, as chained [`OooCore::run`] calls
//! would, and may resize its window between two of them, as
//! [`OooCore::request_resize`] would. So each lane has its own window,
//! dispatch floor and interval target, and one generator pass serves
//! several managed runs of one stream.
//!
//! [`interval_lanes`] is the fixed-window counterpart of [`multisweep`]:
//! each lane's first interval sets its window, which no interval end
//! changes, so one generator pass yields the interval series of up to
//! [`LANES`] fixed windows, each as a fresh core of its window records it.
//!
//! # Lanes
//!
//! The lanes keep `[u32; L]` rows of dispatch, completion and commit
//! cycles, in one ring over the most recent instructions that is longer
//! than the largest window. Every lane runs the same widths, so the
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
//! after the previous instructions' cycles, and issues at most `W - 1`
//! cycles after it is ready, as only the `W - 1` older instructions still
//! in the window can hold those slots. The lanes keep that sum and
//! return [`OooError::SweepCycleOverflow`] once it passes `u32::MAX`,
//! rather than wrapping. A full-scale curve of 1.5 M instructions stays
//! near 2·10⁸, and 400 managed intervals of 2000 instructions near
//! 1.2·10⁸.
//!
//! # Run length
//!
//! [`OooCore::run`] of `insts` instructions ends in the cycle
//! `R_{insts-1}` in which the last of them commits, and counts every
//! instruction committed by then: commit retires up to `CW` a cycle, so
//! up to `CW - 1` more. The sweep therefore schedules `insts + CW - 1`
//! instructions and counts, per lane, those with `R_j <= R_{insts-1}`.
//!
//! # Interval ends
//!
//! In [`run_intervals`], a lane's interval with target instruction `t`
//! ends in cycle `R_t`, as chained `run` calls end it. The instructions
//! with `D <= R_t` were read within it, under its window, and the
//! interval counts every instruction with `R <= R_t`; the next target
//! counts on from that total, so it may be an instruction already
//! scheduled. The first instruction with `D > R_t` is the lane's first
//! after the boundary. The lanes test for it once its dispatch row is
//! known and before any issue slot is claimed (a dispatch cycle has no
//! side effects; a claim has). Then the lane's hook returns the next
//! interval; a resize sets the lane's window and raises that
//! instruction's dispatch to the floor `R_t + 1`, as
//! [`OooCore::request_resize`] does, whether the window grows or
//! shrinks: a draining shrink changes only the core's bookkeeping, not
//! its schedule. The fixed-window sweep has no interval ends, and its
//! lanes compile every test for one away.
//!
//! [`OooCore`]: crate::core::OooCore
//! [`OooCore::run`]: crate::core::OooCore::run
//! [`OooCore::request_resize`]: crate::core::OooCore::request_resize

use crate::config::{CoreConfig, WindowSize};
use crate::core::{read_contiguous, IssueSlots, RunStats};
use crate::error::OooError;
use crate::interval::IntervalSample;
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

/// One instruction's cycles, in every lane.
#[derive(Debug, Clone, Copy)]
struct Rows<const L: usize> {
    dispatch: [u32; L],
    complete: [u32; L],
    commit: [u32; L],
}

impl<const L: usize> Rows<L> {
    const ZERO: Self = Rows { dispatch: [0; L], complete: [0; L], commit: [0; L] };
}

/// The lanes' ring of rows, as an array, so that no masked index needs a
/// bounds check.
type Ring<const L: usize> = [Rows<L>; RING];

#[inline(always)]
fn at<const L: usize>(rows: &Ring<L>, index: u64) -> Rows<L> {
    rows[index as usize & (RING - 1)]
}

#[inline(always)]
fn max<const L: usize>(a: [u32; L], b: [u32; L]) -> [u32; L] {
    std::array::from_fn(|l| a[l].max(b[l]))
}

#[inline(always)]
fn plus<const L: usize>(a: [u32; L], k: u32) -> [u32; L] {
    a.map(|x| x + k)
}

/// The fetch, issue and commit widths every lane runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Widths {
    fetch: u64,
    issue: u32,
    commit: u64,
}

impl Widths {
    /// The widths of a core built with `config`, capped at its window as
    /// the core caps them.
    fn of(config: &CoreConfig) -> Result<Self, OooError> {
        config.validate()?;
        let cap = |width: usize| width.min(config.window.entries());
        Ok(Widths {
            fetch: cap(config.fetch_width) as u64,
            issue: cap(config.issue_width) as u32,
            commit: cap(config.commit_width) as u64,
        })
    }
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

/// The [`RunStats`] of a fresh core's `run(stream, insts)` at each of
/// `windows` (one to [`LANES`] of them), in lane order. Lanes past the
/// last window repeat it.
fn schedule<S: InstStream>(
    stream: &mut S,
    insts: u64,
    windows: &[WindowSize],
) -> Result<[RunStats; LANES], OooError> {
    let widths = Widths::of(&CoreConfig::isca98(windows[0].entries())?)?;
    for &w in windows {
        assert_eq!(Widths::of(&CoreConfig::isca98(w.entries())?)?, widths, "lanes share widths");
    }
    let window: [u64; LANES] =
        std::array::from_fn(|l| windows[l.min(windows.len() - 1)].entries() as u64);
    let max_window = window.into_iter().max().unwrap_or(0);
    let count = insts + widths.commit - 1;
    let ring = lock_step(stream, widths, window, max_window, count, &mut ())?;
    let rows: &Ring<LANES> = ring.as_slice().try_into().expect("the ring has RING rows");
    let end = at(rows, insts - 1).commit;
    Ok(std::array::from_fn(|l| {
        let late = (insts..count).filter(|&j| at(rows, j).commit[l] <= end[l]).count();
        RunStats { cycles: u64::from(end[l]), committed: insts + late as u64 }
    }))
}

/// A lane's next interval, chosen when its current one ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextInterval {
    /// Instructions the interval commits at least, as the argument of
    /// [`OooCore::run`](crate::core::OooCore::run); must be positive.
    pub insts: u64,
    /// The window to resize to first, as
    /// [`OooCore::request_resize`](crate::core::OooCore::request_resize)
    /// does between two `run` calls: instructions not yet dispatched run
    /// under it, and none of them dispatches before the cycle after the
    /// interval's end. `None` keeps the window.
    pub resize: Option<WindowSize>,
}

/// What each lane of [`run_intervals`] does when one of its intervals
/// ends.
pub trait IntervalEnds {
    /// The error an interval end can return; it ends the run.
    type Error: From<OooError>;

    /// Lane `lane` has ended an interval, with the [`RunStats`] that
    /// [`OooCore::run`](crate::core::OooCore::run) would return for it.
    /// Returns the lane's next interval, or `None` to stop the lane.
    ///
    /// # Errors
    ///
    /// Whatever the caller's bookkeeping returns; the run stops with it.
    fn end(&mut self, lane: usize, stats: RunStats) -> Result<Option<NextInterval>, Self::Error>;
}

/// Runs managed cores, one lane per entry of `first`, over one pass of
/// `stream`, in lock step.
///
/// Each lane is a fresh core built with `config` whose first interval is
/// `first[lane]`; its `resize`, if any, applies before anything is read.
/// At each of a lane's interval ends, `ends` receives the lane's
/// [`RunStats`] and returns its next interval. Each lane's intervals are
/// bit-identical to a fresh [`OooCore`](crate::core::OooCore) reading its
/// own copy of the stream, calling `run` once per interval and
/// `request_resize` between intervals as the hook says. The run stops
/// once every lane has stopped; it may read one instruction past the
/// last one any lane's core would read.
///
/// # Errors
///
/// * [`OooError::TooManyWindows`] for more than [`LANES`] lanes;
/// * [`OooError::InvalidWidth`] if `config` has a zero width;
/// * [`OooError::ZeroIntervalLength`] for an interval of no instructions;
/// * [`OooError::InvalidWindow`] for a window larger than `config`'s;
/// * [`OooError::SweepCycleOverflow`] if the cycle counts could pass
///   `u32::MAX`;
/// * the hook's own errors.
///
/// # Panics
///
/// Panics if the stream's seqs are not contiguous.
pub fn run_intervals<S: InstStream, H: IntervalEnds>(
    stream: S,
    config: CoreConfig,
    first: &[NextInterval],
    ends: &mut H,
) -> Result<(), H::Error> {
    match first.len() {
        0 => Ok(Widths::of(&config).map(drop)?),
        1 => lanes::<S, H, 1>(stream, config, first, ends),
        2 => lanes::<S, H, 2>(stream, config, first, ends),
        3 => lanes::<S, H, 3>(stream, config, first, ends),
        4 => lanes::<S, H, 4>(stream, config, first, ends),
        5 => lanes::<S, H, 5>(stream, config, first, ends),
        6 => lanes::<S, H, 6>(stream, config, first, ends),
        7 => lanes::<S, H, 7>(stream, config, first, ends),
        8 => lanes::<S, H, 8>(stream, config, first, ends),
        windows => Err(OooError::TooManyWindows { windows }.into()),
    }
}

/// [`run_intervals`] over exactly `L` lanes.
fn lanes<S: InstStream, H: IntervalEnds, const L: usize>(
    mut stream: S,
    config: CoreConfig,
    first: &[NextInterval],
    ends: &mut H,
) -> Result<(), H::Error> {
    let first: [NextInterval; L] = first.try_into().expect("one first interval per lane");
    let widths = Widths::of(&config)?;
    let physical = config.window.entries() as u64;
    let mut window = [physical; L];
    for (w, next) in window.iter_mut().zip(&first) {
        *w = checked_window(next, physical)?.unwrap_or(physical);
    }
    let mut bounds = Bounds {
        ends,
        physical,
        end: [u32::MAX; L],
        target: first.map(|next| next.insts - 1),
        next_target: first.iter().map(|next| next.insts - 1).min().unwrap_or(u64::MAX),
        last: first.map(|next| next.insts - 1),
        start: [(0, 0); L],
        live: L,
    };
    lock_step(&mut stream, widths, window, physical, u64::MAX, &mut bounds)?;
    Ok(())
}

/// The fixed-window interval series of each of `windows`, as
/// [`run_intervals`]' lanes over one pass of `stream`: lane `l` holds the
/// samples of `intervals` chained
/// [`OooCore::run`](crate::core::OooCore::run) calls of
/// `interval_len` instructions on a fresh core of `windows[l]`.
///
/// # Errors
///
/// [`OooError::ZeroIntervalLength`], [`OooError::TooManyWindows`] for
/// more than [`LANES`] windows, and [`OooError::SweepCycleOverflow`].
///
/// # Panics
///
/// Panics if the stream's seqs are not contiguous.
pub fn interval_lanes<S: InstStream>(
    stream: S,
    windows: &[WindowSize],
    intervals: u64,
    interval_len: u64,
) -> Result<Vec<Vec<IntervalSample>>, OooError> {
    if interval_len == 0 {
        return Err(OooError::ZeroIntervalLength);
    }
    if windows.len() > LANES {
        return Err(OooError::TooManyWindows { windows: windows.len() });
    }
    let mut series = FixedSeries { intervals, interval_len, samples: vec![Vec::new(); windows.len()] };
    if let Some(largest) = windows.iter().max().filter(|_| intervals > 0) {
        let first: Vec<_> = windows.iter().map(|&w| NextInterval { insts: interval_len, resize: Some(w) }).collect();
        run_intervals(stream, CoreConfig::isca98(largest.entries())?, &first, &mut series)?;
    }
    Ok(series.samples)
}

/// The interval ends of [`interval_lanes`]: each keeps its sample, and
/// the lane runs on at its window until it has `intervals` of them.
struct FixedSeries {
    intervals: u64,
    interval_len: u64,
    samples: Vec<Vec<IntervalSample>>,
}

impl IntervalEnds for FixedSeries {
    type Error = OooError;

    fn end(&mut self, lane: usize, stats: RunStats) -> Result<Option<NextInterval>, OooError> {
        let samples = &mut self.samples[lane];
        samples.push(IntervalSample { index: samples.len() as u64, cycles: stats.cycles, insts: stats.committed });
        let more = (samples.len() as u64) < self.intervals;
        Ok(more.then_some(NextInterval { insts: self.interval_len, resize: None }))
    }
}

/// `next`'s window, if it resizes, checked against the physical window
/// (and its length checked positive).
fn checked_window(next: &NextInterval, physical: u64) -> Result<Option<u64>, OooError> {
    if next.insts == 0 {
        return Err(OooError::ZeroIntervalLength);
    }
    match next.resize {
        Some(w) if w.entries() as u64 > physical => Err(OooError::InvalidWindow { entries: w.entries() }),
        resize => Ok(resize.map(|w| w.entries() as u64)),
    }
}

/// The interval ends the lock-step kernel watches for: none in the
/// fixed-window sweep (`()`, whose `false` [`Ends::ACTIVE`] compiles
/// every test away), each lane's own in [`run_intervals`] ([`Bounds`]).
trait Ends<const L: usize> {
    /// Whether there are interval ends at all.
    const ACTIVE: bool;
    /// The error an interval end can return.
    type Error: From<OooError>;

    /// The least instruction whose commit ends some lane's interval and
    /// is not yet scheduled.
    fn next_target(&self) -> u64;

    /// Whether `dispatch` passes some lane's known interval end.
    fn passed(&self, dispatch: &[u32; L]) -> bool;

    /// Ends every interval that instruction `i`'s `dispatch` row passes,
    /// updating the row and `window` for the lanes that resize. Returns
    /// whether some lane still runs.
    fn cross(
        &mut self,
        rows: &Ring<L>,
        i: u64,
        fetch: [u32; L],
        prev_dispatch: [u32; L],
        window: &mut [u64; L],
        dispatch: &mut [u32; L],
    ) -> Result<bool, Self::Error>;

    /// Instruction `i`, just scheduled with `commit`, is the target of
    /// [`Ends::next_target`]'s lanes.
    fn reach(&mut self, i: u64, commit: &[u32; L]);
}

impl<const L: usize> Ends<L> for () {
    const ACTIVE: bool = false;
    type Error = OooError;

    fn next_target(&self) -> u64 {
        u64::MAX
    }

    fn passed(&self, _: &[u32; L]) -> bool {
        false
    }

    fn cross(
        &mut self,
        _: &Ring<L>,
        _: u64,
        _: [u32; L],
        _: [u32; L],
        _: &mut [u64; L],
        _: &mut [u32; L],
    ) -> Result<bool, OooError> {
        Ok(true)
    }

    fn reach(&mut self, _: u64, _: &[u32; L]) {}
}

/// Each lane's current interval in [`run_intervals`].
struct Bounds<'h, H, const L: usize> {
    ends: &'h mut H,
    physical: u64,
    /// The cycle the interval ends in, once its target is scheduled;
    /// `u32::MAX` before, and once the lane has stopped.
    end: [u32; L],
    /// The interval's target instruction while it is not yet scheduled;
    /// `u64::MAX` after.
    target: [u64; L],
    /// The least of `target`.
    next_target: u64,
    /// The interval's target instruction.
    last: [u64; L],
    /// The cycle and committed count the interval started from.
    start: [(u64, u64); L],
    /// Lanes not yet stopped.
    live: usize,
}

impl<H: IntervalEnds, const L: usize> Ends<L> for Bounds<'_, H, L> {
    const ACTIVE: bool = true;
    type Error = H::Error;

    #[inline(always)]
    fn next_target(&self) -> u64 {
        self.next_target
    }

    #[inline(always)]
    fn passed(&self, dispatch: &[u32; L]) -> bool {
        dispatch.iter().zip(&self.end).fold(false, |passed, (d, end)| passed | (d > end))
    }

    #[cold]
    #[inline(never)]
    fn cross(
        &mut self,
        rows: &Ring<L>,
        i: u64,
        fetch: [u32; L],
        prev_dispatch: [u32; L],
        window: &mut [u64; L],
        dispatch: &mut [u32; L],
    ) -> Result<bool, H::Error> {
        for l in 0..L {
            while dispatch[l] > self.end[l] {
                let end = self.end[l];
                // Commit is in order, so the instructions committed by
                // `end` are a prefix; all of them were read before `i`.
                let mut committed = self.last[l] + 1;
                while committed < i && at(rows, committed).commit[l] <= end {
                    committed += 1;
                }
                let (cycle, before) = self.start[l];
                let stats = RunStats { cycles: u64::from(end) - cycle, committed: committed - before };
                self.start[l] = (u64::from(end), committed);
                let Some(next) = self.ends.end(l, stats)? else {
                    self.end[l] = u32::MAX;
                    self.live -= 1;
                    break;
                };
                if let Some(w) = checked_window(&next, self.physical)? {
                    window[l] = w;
                    let entry_free = at(rows, i.wrapping_sub(w)).commit[l];
                    dispatch[l] = fetch[l].max(entry_free).max(prev_dispatch[l]).max(end + 1);
                }
                let last = committed + next.insts - 1;
                self.last[l] = last;
                if last < i {
                    // Already scheduled: the interval's end is known, and
                    // the loop tests `i` against it at once.
                    self.end[l] = at(rows, last).commit[l];
                } else {
                    self.end[l] = u32::MAX;
                    self.target[l] = last;
                    self.next_target = self.next_target.min(last);
                }
            }
        }
        Ok(self.live > 0)
    }

    #[cold]
    #[inline(never)]
    fn reach(&mut self, i: u64, commit: &[u32; L]) {
        for ((end, target), &commit) in self.end.iter_mut().zip(&mut self.target).zip(commit) {
            if *target == i {
                *end = commit;
                *target = u64::MAX;
            }
        }
        self.next_target = self.target.into_iter().min().unwrap_or(u64::MAX);
    }
}

/// Schedules up to `count` instructions of `stream` in `L` lanes of
/// `widths` and initial windows `window`, none larger than `max_window`,
/// stopping early once `ends` has no lane left. Returns the ring of rows.
fn lock_step<S: InstStream, E: Ends<L>, const L: usize>(
    stream: &mut S,
    widths: Widths,
    mut window: [u64; L],
    max_window: u64,
    count: u64,
    ends: &mut E,
) -> Result<Vec<Rows<L>>, E::Error> {
    let Widths { fetch: fetch_width, issue: issue_width, commit: commit_width } = widths;
    let mask = RING - 1;
    let mut ring = vec![Rows::ZERO; RING];
    let rows: &mut Ring<L> = ring.as_mut_slice().try_into().expect("the ring has RING rows");
    let mut issues: [IssueSlots; L] = std::array::from_fn(|_| IssueSlots::new(ISSUE_SPAN));
    // The carried previous instruction, as in the core; a fresh core's
    // floor is cycle 1.
    let mut prev = Rows { dispatch: [1; L], ..Rows::ZERO };
    let mut bound = 1u64;
    let mut first_seq = 0;
    for i in 0..count {
        let inst = read_contiguous(stream, &mut first_seq, i);
        bound += u64::from(inst.latency) + max_window + 2;
        if bound > u64::from(u32::MAX) {
            return Err(OooError::SweepCycleOverflow { inst: i }.into());
        }
        let fetch = plus(at(rows, i.wrapping_sub(fetch_width)).dispatch, 1);
        let entry_free: [u32; L] =
            std::array::from_fn(|l| at(rows, i.wrapping_sub(window[l])).commit[l]);
        let mut dispatch = max(max(fetch, entry_free), prev.dispatch);
        if E::ACTIVE
            && ends.passed(&dispatch)
            && !ends.cross(rows, i, fetch, prev.dispatch, &mut window, &mut dispatch)?
        {
            break;
        }
        // As in the core: producers older than the ring, or before the
        // stream, constrain nothing, and a producer one back is `prev`.
        let operand = |dist: u32| {
            if dist == 1 {
                return prev.complete;
            }
            let age = u64::from(dist);
            let complete = at(rows, i.wrapping_sub(age)).complete;
            if age.wrapping_sub(1) < mask as u64 { complete } else { [0; L] }
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
        if E::ACTIVE && i == ends.next_target() {
            ends.reach(i, &commit);
        }
    }
    Ok(ring)
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

    /// Runs each lane's script of intervals: the first interval, then
    /// one per interval end, recording the stats of each.
    struct Script {
        intervals: Vec<Vec<NextInterval>>,
        stats: Vec<Vec<RunStats>>,
    }

    impl IntervalEnds for Script {
        type Error = OooError;

        fn end(&mut self, lane: usize, stats: RunStats) -> Result<Option<NextInterval>, OooError> {
            self.stats[lane].push(stats);
            Ok(self.intervals[lane].get(self.stats[lane].len()).copied())
        }
    }

    fn next(insts: u64, resize: Option<usize>) -> NextInterval {
        NextInterval { insts, resize: resize.map(|w| WindowSize::new(w).unwrap()) }
    }

    /// A fresh core's `run` per interval of `script`, resizing before an
    /// interval as it says, and the instructions the core read.
    fn core_intervals(
        config: CoreConfig,
        shape: Shape,
        seed: u64,
        script: &[NextInterval],
    ) -> (Vec<RunStats>, u64) {
        let mut core = crate::core::OooCore::new(config);
        let mut stream = ShapeStream::new(shape, seed);
        let stats = script
            .iter()
            .map(|next| {
                if let Some(w) = next.resize {
                    core.request_resize(w).unwrap();
                }
                core.run(&mut stream, next.insts)
            })
            .collect();
        (stats, stream.reads)
    }

    /// The lanes of `scripts` against a core per script, interval by
    /// interval; the lanes read one instruction past the most any core
    /// read, the one that ends the last lane's last interval.
    fn assert_lanes_match_cores<const L: usize>(
        config: CoreConfig,
        shape: Shape,
        seed: u64,
        scripts: [Vec<NextInterval>; L],
    ) {
        let mut script = Script { intervals: scripts.to_vec(), stats: vec![Vec::new(); L] };
        let mut stream = ShapeStream::new(shape, seed);
        let first: [NextInterval; L] = std::array::from_fn(|l| scripts[l][0]);
        run_intervals(&mut stream, config, &first, &mut script).unwrap();
        let mut most = 0;
        for (l, intervals) in scripts.iter().enumerate() {
            let (want, reads) = core_intervals(config, shape, seed, intervals);
            assert_eq!(script.stats[l], want, "seed {seed}, lane {l}");
            most = most.max(reads);
        }
        assert_eq!(stream.reads, most + 1, "seed {seed}");
    }

    fn isca(window: usize) -> CoreConfig {
        CoreConfig::isca98(window).unwrap()
    }

    #[test]
    fn intervals_end_mid_commit_group() {
        // Independent instructions commit eight a cycle, so targets that
        // are not multiples of eight end mid-group, and the next target
        // counts on from the whole group.
        let shape = Shape { dep_chance: 0, latencies: &[1], ..BASE };
        for len in [1u64, 5, 7, 13, 1_003] {
            let script = vec![next(len, None); 9];
            assert_lanes_match_cores(isca(64), shape, 1, [script.clone()]);
            assert_lanes_match_cores(isca(128), BASE, 3, [script, vec![next(len + 2, None); 6]]);
        }
    }

    #[test]
    fn grows_and_draining_shrinks_at_boundaries() {
        // A slow chain fills the window, so each shrink to 16 drains.
        let chain = Shape { dep_chance: 250, reach: 2, latencies: &[3, 8], ..BASE };
        let resizes = [Some(32), Some(128), Some(16), None, Some(112), Some(16), Some(16), Some(48)];
        let script = |len: u64| resizes.iter().map(|&w| next(len, w)).collect::<Vec<_>>();
        for seed in 0..3 {
            assert_lanes_match_cores(
                isca(128),
                chain,
                seed,
                [script(1), script(7), script(300), script(41)],
            );
            let wide = Shape { latencies: &[1, 100, 300], dep_chance: 220, ..BASE };
            assert_lanes_match_cores(isca(128), wide, seed, [script(500), script(9)]);
        }
    }

    #[test]
    fn a_boundary_on_the_last_instruction_read() {
        // One-instruction intervals: each next target is an instruction
        // already scheduled, so several intervals can end at one
        // instruction, the last of them at the last instruction read.
        let script = |w: usize| vec![next(1, Some(w)), next(1, Some(128)), next(1, Some(16)), next(1, None)];
        for seed in 0..4 {
            assert_lanes_match_cores(isca(128), BASE, seed, [script(16), script(64), script(128)]);
            assert_lanes_match_cores(isca(128), BASE, seed, [vec![next(1, None)]]);
        }
    }

    #[test]
    fn fixed_windows_match_the_sweep() {
        // A lane whose window never changes is a sweep lane.
        let windows = paper();
        let want = schedule(&mut ShapeStream::new(BASE, 5), 2_500, &windows).unwrap();
        let first: [NextInterval; LANES] =
            std::array::from_fn(|l| NextInterval { insts: 2_500, resize: Some(windows[l]) });
        let mut script = Script { intervals: first.iter().map(|&n| vec![n]).collect(), stats: vec![Vec::new(); LANES] };
        run_intervals(ShapeStream::new(BASE, 5), isca(256), &first, &mut script).unwrap();
        for (l, stats) in script.stats.iter().enumerate() {
            assert_eq!(stats, &[want[l]], "window {}", windows[l]);
        }
    }

    #[test]
    fn one_lane_is_the_core_run_in_chunks() {
        let chunks = [1u64, 700, 3, 2_000, 8, 15, 64, 9, 1];
        let script: Vec<_> = chunks.iter().map(|&n| next(n, None)).collect();
        for (shape, seed) in [(BASE, 1), (Shape { reach: 700, dep_chance: 200, ..BASE }, 2)] {
            assert_lanes_match_cores(isca(48), shape, seed, [script.clone()]);
            assert_lanes_match_cores(isca(256), shape, seed, [script.clone()]);
        }
    }

    #[test]
    fn bad_intervals_are_errors() {
        let mut script = Script { intervals: vec![vec![next(5, None), next(0, None)]], stats: vec![Vec::new()] };
        let err = run_intervals(ShapeStream::new(BASE, 1), isca(64), &[next(0, None)], &mut script);
        assert_eq!(err.unwrap_err(), OooError::ZeroIntervalLength);
        let err = run_intervals(ShapeStream::new(BASE, 1), isca(64), &[next(5, None)], &mut script);
        assert_eq!(err.unwrap_err(), OooError::ZeroIntervalLength);
        let err = run_intervals(ShapeStream::new(BASE, 1), isca(64), &[next(5, Some(128))], &mut script);
        assert_eq!(err.unwrap_err(), OooError::InvalidWindow { entries: 128 });
        let huge = Shape { dep_chance: 0, latencies: &[u32::MAX / 4], ..BASE };
        let err = run_intervals(ShapeStream::new(huge, 1), isca(64), &[next(50, None)], &mut script);
        assert_eq!(err.unwrap_err(), OooError::SweepCycleOverflow { inst: 3 });
        let mut none = Script { intervals: Vec::new(), stats: Vec::new() };
        let mut stream = ShapeStream::new(BASE, 1);
        run_intervals(&mut stream, isca(64), &[], &mut none).unwrap();
        assert_eq!(stream.reads, 0);
        let nine = [next(5, None); LANES + 1];
        let err = run_intervals(&mut stream, isca(64), &nine, &mut none);
        assert_eq!(err.unwrap_err(), OooError::TooManyWindows { windows: 9 });
        assert_eq!(stream.reads, 0);
    }

    fn window(entries: usize) -> WindowSize {
        WindowSize::new(entries).unwrap()
    }

    /// A fresh core of `window`'s chained `run(interval_len)` calls.
    fn core_series(shape: Shape, seed: u64, window: WindowSize, intervals: u64, interval_len: u64) -> Vec<IntervalSample> {
        let mut core = crate::core::OooCore::new(isca(window.entries()));
        let mut stream = ShapeStream::new(shape, seed);
        (0..intervals)
            .map(|index| {
                let stats = core.run(&mut stream, interval_len);
                IntervalSample { index, cycles: stats.cycles, insts: stats.committed }
            })
            .collect()
    }

    #[test]
    fn interval_lanes_match_chained_cores() {
        // Unsorted, with a duplicate, and with the largest window not first.
        let windows = [window(48), window(16), window(128), window(48), window(96)];
        let far = Shape { reach: 700, dep_chance: 200, ..BASE };
        for (shape, seed) in [(BASE, 1), (far, 2)] {
            for (intervals, len) in [(1, 1), (40, 7), (9, 333), (3, 2_000)] {
                let lanes = interval_lanes(ShapeStream::new(shape, seed), &windows, intervals, len).unwrap();
                for (series, &w) in lanes.iter().zip(&windows) {
                    assert_eq!(*series, core_series(shape, seed, w, intervals, len), "{w}, {intervals}x{len}");
                }
            }
        }
    }

    #[test]
    fn bad_interval_lanes_are_errors() {
        let err = interval_lanes(ShapeStream::new(BASE, 1), &[window(64)], 3, 0).unwrap_err();
        assert_eq!(err, OooError::ZeroIntervalLength);
        let nine: Vec<WindowSize> = paper().into_iter().chain([window(144)]).collect();
        let err = interval_lanes(ShapeStream::new(BASE, 1), &nine, 3, 100).unwrap_err();
        assert_eq!(err, OooError::TooManyWindows { windows: 9 });
    }

    #[test]
    fn zero_intervals_give_empty_lanes() {
        let mut stream = ShapeStream::new(BASE, 1);
        let lanes = interval_lanes(&mut stream, &paper(), 0, 2_000).unwrap();
        assert_eq!(lanes, vec![Vec::new(); LANES]);
        assert_eq!(interval_lanes(&mut stream, &[], 5, 2_000).unwrap(), Vec::<Vec<IntervalSample>>::new());
        assert_eq!(stream.reads, 0);
    }

    #[test]
    fn one_window_is_its_lane_of_eight() {
        let eight = interval_lanes(ShapeStream::new(BASE, 6), &paper(), 12, 500).unwrap();
        for (series, w) in eight.iter().zip(paper()) {
            let one = interval_lanes(ShapeStream::new(BASE, 6), &[w], 12, 500).unwrap();
            assert_eq!(one, std::slice::from_ref(series), "{w}");
        }
    }
}
