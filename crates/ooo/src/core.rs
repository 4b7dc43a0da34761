//! The out-of-order engine.
//!
//! A unified RUU-style window models dispatch, wakeup, select, execute and
//! in-order commit. Each cycle, in order:
//!
//! 1. **commit** — up to `commit_width` completed instructions retire from
//!    the window head, in program order;
//! 2. **wakeup + select + issue** — the oldest `issue_width` ready
//!    instructions begin execution (oldest-first selection, matching the
//!    priority-encoder tree whose delay the timing model charges). An
//!    instruction is ready when both producers have completed; a producer
//!    completing in cycle `t + latency` can feed a consumer issuing that
//!    same cycle, giving back-to-back issue of dependent single-cycle
//!    instructions — the property the atomic wakeup+select loop exists to
//!    provide;
//! 3. **dispatch** — up to `fetch_width` new instructions enter the window
//!    if entries are free (perfect frontend: the stream never starves).
//!
//! Progress is guaranteed: the window head's producers are always already
//! committed, so the head is always issuable.
//!
//! # Scheduling at dispatch
//!
//! The engine does not simulate the cycles one by one. Select is
//! oldest-first, so a younger instruction can never delay an older one:
//! it cannot take an issue slot the older one wanted, cannot hold a
//! window entry the older one needs (entries free in order), and cannot
//! retire first. An instruction's whole lifetime therefore depends only
//! on older instructions, and is computed once, when it dispatches.
//!
//! Number instructions `i` in dispatch order and cycles from 1. With
//! fetch, issue and commit widths `F`, `IW`, `CW` and window `W`:
//!
//! * dispatch `D_i = max(D_{i-1}, D_{i-F} + 1, R_{i-W}, floor)` — in
//!   order, at most `F` per cycle, and only once instruction `i - W` has
//!   freed its entry;
//! * ready `= max(D_i + 1, C_p)` over the producers `p` still in the
//!   window (a committed producer completed before `i` dispatched);
//! * issue `I_i` = the first cycle at or after ready in which fewer than
//!   `IW` older instructions issue;
//! * completion `C_i = I_i + latency`;
//! * commit `R_i = max(C_i, I_i + 1, R_{i-1}, R_{i-CW} + 1)` — commit
//!   precedes issue within a cycle, so even a zero-latency instruction
//!   commits after the cycle it issues in.
//!
//! [`OooCore::step`] and [`OooCore::run`] read from the stream exactly
//! the instructions with `D_i` at or before the current cycle, so a
//! stream is consumed precisely as a cycle-stepped machine would consume
//! it. A resize between calls changes `W` and raises `floor` to the next
//! cycle for the instructions not yet dispatched. A draining shrink needs
//! no special case in the schedule: with `W` already at the new size, the
//! first undispatched instruction cannot dispatch before the shrink has
//! drained. [`crate::reference::ScanCore`] keeps the naive cycle-stepped
//! full scan alive, and `cap-verify` diffs the two at scale.
//!
//! `D`, `C` and `R` live in a ring over the most recent instructions,
//! long enough for every lookback above, and the previous instruction's
//! are also carried in locals through the dispatch loop; issue counts
//! live in a ring of cycles that grows when a long latency outruns it.
//! Since `D` is monotone, `floor` is folded once per call into the
//! carried `D_{i-1}`, and bounds every instruction of the call from
//! there.
//!
//! # Two drivers, one schedule
//!
//! The schedule above is written once, as an `#[inline(always)]` loop
//! body, and two drivers inline it:
//!
//! * the **stream-fed** driver ([`OooCore::step`], [`OooCore::run`])
//!   reads instructions in packed form ([`InstStream::next_packed`]),
//!   with producers as distances back, and asserts that their seqs are
//!   contiguous. Managed runs use it, reading straight from a generator;
//! * the **slice-fed** driver ([`OooCore::run_records`]) reads
//!   instruction `i` from a slice of tape [`Record`]s, with `i` held in
//!   a local. Positions imply seqs, and the tape checked them when it
//!   recorded them, so there is nothing to assert. Window sweeps use it.
//!
//! [`OooCore::run_reach`] bounds how far a run reads, so a sweep can
//! record every instruction its windows need before any of them runs.

use crate::config::{CoreConfig, WindowSize};
use crate::error::OooError;
use cap_trace::inst::InstStream;
use cap_trace::tape::Record;

/// Initial span of the issue-count ring, in cycles. Far beyond the
/// latencies the workload profiles generate; [`IssueSlots`] grows past it
/// on demand.
const ISSUE_SPAN: usize = 64;

/// One scheduled instruction's cycles.
#[derive(Debug, Clone, Copy, Default)]
struct Sched {
    dispatch: u64,
    complete: u64,
    commit: u64,
}

/// Per-cycle issue counts, as a ring. Every cycle before `horizon` owns
/// its slot; the ring is extended half a ring at a time, zeroing the
/// slots of cycles that have left the window of live cycles. A cycle is
/// live from the latest dispatch + 1 on: no instruction dispatched later
/// can issue before it.
#[derive(Debug, Clone)]
struct IssueSlots {
    counts: Vec<u32>,
    horizon: u64,
}

impl IssueSlots {
    fn new(len: usize) -> Self {
        IssueSlots { counts: vec![0; len], horizon: len as u64 }
    }

    /// Claims an issue slot in the first cycle at or after `ready` with
    /// fewer than `width` issues. `live` is the first live cycle.
    #[inline]
    fn claim(&mut self, ready: u64, live: u64, width: u32) -> u64 {
        let mut t = ready;
        loop {
            if t >= self.horizon {
                self.extend(t, live);
            }
            let mask = self.counts.len() - 1;
            let count = &mut self.counts[t as usize & mask];
            if *count < width {
                *count += 1;
                return t;
            }
            t += 1;
        }
    }

    /// Moves `horizon` past `t`, to at most `t` + half a ring. The slots
    /// it takes over belonged to the cycles a ring earlier, before
    /// `t` - half a ring; when live cycles reach back that far, the ring
    /// first grows, keeping them.
    #[cold]
    fn extend(&mut self, t: u64, live: u64) {
        if t - live > (self.counts.len() / 2) as u64 {
            let len = (2 * (t - live + 1)).next_power_of_two() as usize;
            let old = std::mem::replace(&mut self.counts, vec![0; len]);
            for c in live..self.horizon {
                self.counts[c as usize & (len - 1)] = old[c as usize & (old.len() - 1)];
            }
        }
        let (half, mask) = ((self.counts.len() / 2) as u64, self.counts.len() - 1);
        while t >= self.horizon {
            for c in self.horizon..self.horizon + half {
                self.counts[c as usize & mask] = 0;
            }
            self.horizon += half;
        }
    }
}

/// Aggregate results of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Cycles elapsed.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
}

impl RunStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// The out-of-order core.
///
/// See the [crate documentation](crate) for the modelling assumptions.
#[derive(Debug, Clone)]
pub struct OooCore {
    config: CoreConfig,
    active_window: usize,
    /// A draining shrink: the requested size and the committed count at
    /// which the window has drained to it.
    pending_shrink: Option<(usize, u64)>,
    /// The window that governs instructions not yet dispatched: the
    /// latest requested size, draining or not.
    dispatch_window: u64,
    /// No instruction not yet dispatched may dispatch before this cycle.
    floor: u64,
    /// The widths, capped at the physical window: wider limits never
    /// bind, as the window holds no more instructions.
    fetch_width: u64,
    issue_width: u32,
    commit_width: u64,
    /// Ring of the most recent instructions' schedules, by dispatch index.
    sched: Vec<Sched>,
    mask: usize,
    issues: IssueSlots,
    cycle: u64,
    committed: u64,
    dispatched: u64,
    /// The seq of the first instruction dispatched, once one has been:
    /// instruction `i` must carry `first_seq + i`.
    first_seq: u64,
}

impl OooCore {
    /// Creates a core. The configured window is the *physical* size: the
    /// entries that exist in hardware, which is both the initial active
    /// size and the largest size [`OooCore::request_resize`] accepts.
    ///
    /// # Errors
    ///
    /// Returns [`OooError::InvalidWidth`] if the configuration fails
    /// [`CoreConfig::validate`].
    pub fn try_new(config: CoreConfig) -> Result<Self, OooError> {
        config.validate()?;
        let physical = config.window.entries();
        let ring = (physical + 1).next_power_of_two();
        Ok(OooCore {
            config,
            active_window: physical,
            pending_shrink: None,
            dispatch_window: physical as u64,
            floor: 1,
            fetch_width: config.fetch_width.min(physical) as u64,
            issue_width: config.issue_width.min(physical) as u32,
            commit_width: config.commit_width.min(physical) as u64,
            sched: vec![Sched::default(); ring],
            mask: ring - 1,
            issues: IssueSlots::new(ISSUE_SPAN),
            cycle: 0,
            committed: 0,
            dispatched: 0,
            first_seq: 0,
        })
    }

    /// Creates a core, panicking on an invalid configuration — a
    /// convenience wrapper over [`OooCore::try_new`] for the common case
    /// of a configuration produced by [`CoreConfig::isca98`], which is
    /// already validated.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreConfig::validate`].
    pub fn new(config: CoreConfig) -> Self {
        Self::try_new(config).expect("invalid core configuration")
    }

    /// The static configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// The number of currently active window entries.
    pub fn active_window(&self) -> usize {
        self.active_window
    }

    /// Whether a shrink is still draining.
    pub fn resize_pending(&self) -> bool {
        self.pending_shrink.is_some()
    }

    /// Cycles elapsed since construction.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Instructions committed since construction.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Current window occupancy.
    pub fn occupancy(&self) -> usize {
        (self.dispatched - self.committed) as usize
    }

    /// Requests a window reconfiguration. Growth takes effect
    /// immediately; a shrink stalls dispatch until the entries beyond the
    /// new size have drained (paper §5.1), then takes effect — if the
    /// window is already within the new size, it takes effect at once.
    /// A newer request supersedes a still-draining shrink.
    ///
    /// # Errors
    ///
    /// Returns [`OooError::InvalidWindow`] if `new` exceeds the physical
    /// window the core was built with (`config().window`) — the adaptive
    /// structure can disable fabricated entries, never add ones that do
    /// not exist. The core's state is unchanged on error.
    pub fn request_resize(&mut self, new: WindowSize) -> Result<(), OooError> {
        let n = new.entries();
        if n > self.config.window.entries() {
            return Err(OooError::InvalidWindow { entries: n });
        }
        if n >= self.active_window || self.occupancy() <= n {
            self.active_window = n;
            self.pending_shrink = None;
        } else {
            self.pending_shrink = Some((n, self.dispatched - n as u64));
        }
        self.dispatch_window = n as u64;
        self.floor = self.cycle + 1;
        Ok(())
    }

    #[inline]
    fn at(&self, index: u64) -> &Sched {
        &self.sched[index as usize & self.mask]
    }

    /// Dispatches instructions, each in its cycle `D_i` (see the module
    /// documentation), scheduling its issue, completion and commit.
    /// Keeps going while fewer than `count` instructions have dispatched
    /// or the next one is due by cycle `through`. `read(i)` supplies
    /// instruction `i`, and is called once per instruction, in order.
    ///
    /// This is the one copy of the schedule; both drivers inline it.
    /// Lookbacks before the first instruction land on never-written zero
    /// slots, which constrain nothing. The previous instruction's
    /// schedule is carried in a local rather than reloaded from the slot
    /// just written, since that store-to-load round trip would sit on the
    /// recurrence's serial chain; it enters each maximum last, so the
    /// chain passes through one comparison.
    #[inline(always)]
    fn dispatch_with(&mut self, count: u64, through: u64, mut read: impl FnMut(u64) -> Record) {
        let (mask, width) = (self.mask, self.issue_width);
        let (fetch_width, window, commit_width) =
            (self.fetch_width, self.dispatch_window, self.commit_width);
        // Sliced to `mask + 1` entries, so that no masked index needs a
        // bounds check.
        let (sched, issues) = (&mut self.sched[..=mask], &mut self.issues);
        let at = |sched: &[Sched], index: u64| sched[index as usize & mask];
        let mut i = self.dispatched;
        let mut prev = at(sched, i.wrapping_sub(1));
        // Dispatch is monotone, so the floor, folded once into the
        // carried dispatch, bounds every instruction of this call.
        prev.dispatch = prev.dispatch.max(self.floor);
        loop {
            let fetch = at(sched, i.wrapping_sub(fetch_width)).dispatch + 1;
            let entry_free = at(sched, i.wrapping_sub(window)).commit;
            let dispatch = fetch.max(entry_free).max(prev.dispatch);
            if i >= count && dispatch > through {
                break;
            }
            let inst = read(i);
            // Producers older than the ring have committed; so have those
            // before the stream, whose slots were never written. A
            // producer one back is `prev`.
            let operand = |dist: u32| {
                if dist == 1 {
                    return prev.complete;
                }
                let age = u64::from(dist);
                let complete = at(sched, i.wrapping_sub(age)).complete;
                if age.wrapping_sub(1) < mask as u64 { complete } else { 0 }
            };
            let ready = (dispatch + 1).max(operand(inst.dist[0])).max(operand(inst.dist[1]));
            let issue = issues.claim(ready, dispatch + 1, width);
            let complete = issue + u64::from(inst.latency);
            let commit = complete
                .max(issue + 1)
                .max(at(sched, i.wrapping_sub(commit_width)).commit + 1)
                .max(prev.commit);
            prev = Sched { dispatch, complete, commit };
            sched[i as usize & mask] = prev;
            i += 1;
        }
        self.dispatched = i;
    }

    /// The stream-fed driver: [`OooCore::dispatch_with`] reading
    /// `stream`, whose seqs must be contiguous.
    fn dispatch_until<S: InstStream>(&mut self, stream: &mut S, count: u64, through: u64) {
        let mut first_seq = self.first_seq;
        self.dispatch_with(count, through, |i| {
            let inst = stream.next_packed();
            // The assertion borrows a copy of the seq, not `inst`: a
            // borrowed `inst` would be stored to the stack and its
            // distances reloaded as one wider word, which the store
            // buffer cannot forward.
            let seq = inst.seq;
            if i == 0 {
                first_seq = seq;
            }
            let expect = first_seq.wrapping_add(i);
            assert_eq!(seq, expect, "instruction stream must be contiguous");
            Record { dist: inst.dist, latency: inst.latency }
        });
        self.first_seq = first_seq;
    }

    /// The slice-fed driver: [`OooCore::dispatch_with`] reading
    /// instruction `i` from `records[i]`. Positions imply seqs, and the
    /// tape checked their contiguity when it recorded them.
    fn dispatch_records(&mut self, records: &[Record], count: u64, through: u64) {
        self.dispatch_with(count, through, |i| match records.get(i as usize) {
            Some(&record) => record,
            None => panic!("record slice of {} ends before instruction {i}", records.len()),
        });
    }

    /// Counts the instructions committed by the end of cycle `t`.
    #[inline]
    fn retire_through(&mut self, t: u64) {
        while self.committed < self.dispatched && self.at(self.committed).commit <= t {
            self.committed += 1;
        }
    }

    /// Applies a shrink whose entries have drained.
    #[inline]
    fn settle_shrink(&mut self) {
        if let Some((n, drained_at)) = self.pending_shrink {
            if self.committed >= drained_at {
                self.active_window = n;
                self.pending_shrink = None;
            }
        }
    }

    /// Advances the machine one cycle, dispatching from `stream` as window
    /// space allows. Returns the number of instructions committed this
    /// cycle.
    pub fn step<S: InstStream>(&mut self, stream: &mut S) -> usize {
        self.cycle += 1;
        let before = self.committed;
        self.retire_through(self.cycle);
        self.settle_shrink();
        self.dispatch_until(stream, 0, self.cycle);
        (self.committed - before) as usize
    }

    /// Runs until at least `insts` further instructions have committed,
    /// returning the cycles and instructions of exactly that span. Because
    /// commit retires up to `commit_width` instructions per cycle, the
    /// span may overshoot the target by up to `commit_width - 1`.
    ///
    /// Equivalent to calling [`OooCore::step`] until the target is met,
    /// without visiting the cycles in between.
    pub fn run<S: InstStream>(&mut self, stream: &mut S, insts: u64) -> RunStats {
        self.run_span(insts, |core, count, through| core.dispatch_until(stream, count, through))
    }

    /// [`OooCore::run`], reading instruction `k` of the core's stream
    /// from `records[k]`: the slice holds the stream from the core's
    /// first instruction on, as [`InstTape::into_records`] returns it. The
    /// results are those of [`OooCore::run`] over the same instructions.
    /// A core reads either streams or one slice, never both.
    ///
    /// # Panics
    ///
    /// Panics if the run reads past the end of `records`; a slice of
    /// [`OooCore::run_reach`] records is long enough.
    ///
    /// [`InstTape::into_records`]: cap_trace::tape::InstTape::into_records
    pub fn run_records(&mut self, records: &[Record], insts: u64) -> RunStats {
        self.run_span(insts, |core, count, through| core.dispatch_records(records, count, through))
    }

    /// The most instructions the core will have read from its stream
    /// once [`OooCore::run`] of `insts` returns.
    ///
    /// The span's last instruction `t - 1`, with `t` = committed +
    /// `insts`, commits in cycle `R_{t-1}`, and the run reads every
    /// instruction due to dispatch by then. Commit takes at most `CW`
    /// instructions a cycle, so `R_{t-1+CW} > R_{t-1}`; an instruction
    /// `i >= t - 1 + CW + W` waits for `R_{i-W} >= R_{t-1+CW}`, after
    /// the span. So the run reads at most `t - 1 + CW + W` instructions
    /// in all, with `W` the window governing dispatch and `CW` the commit
    /// width capped at the physical window. For a fresh 128-entry isca98
    /// core that is `insts + 135`.
    pub fn run_reach(&self, insts: u64) -> u64 {
        if insts == 0 {
            return self.dispatched;
        }
        let reach = self.committed + insts + self.dispatch_window + self.commit_width - 1;
        reach.max(self.dispatched)
    }

    /// The body of a run; `dispatch(core, count, through)` is the
    /// driver's [`OooCore::dispatch_with`].
    #[inline(always)]
    fn run_span(&mut self, insts: u64, mut dispatch: impl FnMut(&mut Self, u64, u64)) -> RunStats {
        let (c0, i0) = (self.cycle, self.committed);
        let target = i0 + insts;
        if insts > 0 {
            dispatch(self, target, 0);
            // The span ends when its last instruction commits; everything
            // due to dispatch by then is read, as a stepped run would.
            let end = self.at(target - 1).commit;
            dispatch(self, 0, end);
            self.cycle = end;
            self.committed = target;
            self.retire_through(end);
            self.settle_shrink();
        }
        RunStats { cycles: self.cycle - c0, committed: self.committed - i0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ScanCore;
    use cap_trace::inst::{IlpParams, Inst, PackedInst, SegmentIlp};
    use cap_trace::tape::InstTape;

    /// A fixed list of instructions, then independent filler.
    struct ListStream {
        list: Vec<Inst>,
        next: u64,
    }

    impl ListStream {
        fn new(list: Vec<Inst>) -> Self {
            ListStream { list, next: 0 }
        }
    }

    impl InstStream for ListStream {
        fn next_inst(&mut self) -> Inst {
            let seq = self.next;
            self.next += 1;
            self.list.get(seq as usize).copied().unwrap_or(Inst::independent(seq))
        }
    }

    fn chain(n: u64, latency: u32) -> Vec<Inst> {
        (0..n)
            .map(|i| Inst { seq: i, dep1: if i > 0 { Some(i - 1) } else { None }, dep2: None, latency })
            .collect()
    }

    #[test]
    fn independent_stream_saturates_width() {
        let mut core = OooCore::new(CoreConfig::isca98(64).unwrap());
        let mut s = ListStream::new(vec![]);
        let stats = core.run(&mut s, 80_000);
        let ipc = stats.ipc();
        assert!(ipc > 7.8 && ipc <= 8.0, "got {ipc}");
    }

    #[test]
    fn serial_chain_runs_at_one_over_latency() {
        let mut core = OooCore::new(CoreConfig::isca98(64).unwrap());
        let mut s = ListStream::new(chain(200_000, 1));
        let stats = core.run(&mut s, 50_000);
        let ipc = stats.ipc();
        assert!((ipc - 1.0).abs() < 0.01, "unit-latency chain must run at 1 IPC, got {ipc}");

        let mut core = OooCore::new(CoreConfig::isca98(64).unwrap());
        let mut s = ListStream::new(chain(200_000, 3));
        let ipc = core.run(&mut s, 30_000).ipc();
        assert!((ipc - 1.0 / 3.0).abs() < 0.01, "latency-3 chain must run at 1/3 IPC, got {ipc}");
    }

    #[test]
    fn ipc_never_exceeds_width() {
        let mut core = OooCore::new(CoreConfig::isca98(128).unwrap());
        let mut s = SegmentIlp::new(IlpParams::balanced(), 3).unwrap();
        let ipc = core.run(&mut s, 50_000).ipc();
        assert!(ipc <= 8.0 + 1e-12);
    }

    #[test]
    fn bigger_window_never_hurts_ipc() {
        let mut params = IlpParams::balanced();
        params.cross_dep_prob = 0.05;
        let mut prev = 0.0;
        for w in [16usize, 32, 64, 128] {
            let mut core = OooCore::new(CoreConfig::isca98(w).unwrap());
            let mut s = SegmentIlp::new(params, 7).unwrap();
            let ipc = core.run(&mut s, 60_000).ipc();
            assert!(ipc >= prev - 0.02, "window {w}: {ipc} < {prev}");
            prev = ipc;
        }
        assert!(prev > 4.0, "a mostly parallel stream should reach high IPC, got {prev}");
    }

    #[test]
    fn window_limits_overlap() {
        // Segments of ~32 instructions with independent chains: a 16-entry
        // window cannot overlap two segments, a 128-entry window can.
        let params = IlpParams {
            chain_len: 16,
            burst_len: 16,
            chain_latency: 2,
            burst_latency: 1,
            cross_dep_prob: 0.0,
            burst_chain_len: 8,
            far_dep_prob: 0.0,
            jitter: 0.0,
        };
        let run = |w: usize| {
            let mut core = OooCore::new(CoreConfig::isca98(w).unwrap());
            let mut s = SegmentIlp::new(params, 11).unwrap();
            core.run(&mut s, 60_000).ipc()
        };
        let small = run(16);
        let large = run(128);
        assert!(large > small * 1.8, "16-entry {small} vs 128-entry {large}");
    }

    #[test]
    fn grow_is_immediate_shrink_drains() {
        // Physical window 128: start small, grow within the physical
        // range, then shrink and watch the drain.
        let mut core = OooCore::new(CoreConfig::isca98(128).unwrap());
        core.request_resize(WindowSize::new(32).unwrap()).unwrap();
        assert_eq!(core.active_window(), 32, "empty window shrinks at once");
        assert!(!core.resize_pending());
        core.request_resize(WindowSize::new(128).unwrap()).unwrap();
        assert_eq!(core.active_window(), 128);
        assert!(!core.resize_pending());

        // Fill the window with a slow chain, then shrink.
        let mut s = ListStream::new(chain(1_000_000, 4));
        for _ in 0..40 {
            core.step(&mut s);
        }
        assert!(core.occupancy() > 16);
        core.request_resize(WindowSize::new(16).unwrap()).unwrap();
        assert!(core.resize_pending());
        assert_eq!(core.active_window(), 128, "old size active until drained");
        while core.resize_pending() {
            core.step(&mut s);
        }
        assert_eq!(core.active_window(), 16);
        assert!(core.occupancy() <= 16);
        // And the machine keeps committing afterwards.
        let stats = core.run(&mut s, 1000);
        assert_eq!(stats.committed, 1000);
    }

    #[test]
    fn resize_beyond_physical_window_rejected() {
        // The docs promised OooError::InvalidWindow; the body used to be
        // infallible. Regression: growing past the fabricated entries
        // must fail and leave the core untouched.
        let mut core = OooCore::new(CoreConfig::isca98(64).unwrap());
        let err = core.request_resize(WindowSize::new(128).unwrap()).unwrap_err();
        assert_eq!(err, OooError::InvalidWindow { entries: 128 });
        assert_eq!(core.active_window(), 64);
        assert!(!core.resize_pending());
        // The physical maximum itself is legal.
        core.request_resize(WindowSize::new(64).unwrap()).unwrap();
        assert_eq!(core.active_window(), 64);
    }

    #[test]
    fn grow_during_pending_shrink_cancels_it() {
        let mut core = OooCore::new(CoreConfig::isca98(128).unwrap());
        let mut s = ListStream::new(chain(1_000_000, 4));
        for _ in 0..40 {
            core.step(&mut s);
        }
        assert!(core.occupancy() > 64);
        core.request_resize(WindowSize::new(16).unwrap()).unwrap();
        assert!(core.resize_pending());
        // Growing back (to anything >= the still-active size) cancels the
        // drain; dispatch resumes immediately.
        core.request_resize(WindowSize::new(128).unwrap()).unwrap();
        assert!(!core.resize_pending());
        assert_eq!(core.active_window(), 128);
        // A *smaller* target during a drain supersedes the old one.
        core.request_resize(WindowSize::new(16).unwrap()).unwrap();
        core.request_resize(WindowSize::new(64).unwrap()).unwrap();
        assert!(core.resize_pending(), "occupancy still above 64");
        while core.resize_pending() {
            core.step(&mut s);
        }
        assert_eq!(core.active_window(), 64, "latest request wins");
        // An invalid request during a drain changes nothing.
        core.request_resize(WindowSize::new(16).unwrap()).unwrap();
        let before = core.active_window();
        assert!(core.request_resize(WindowSize::new(256).unwrap()).is_err());
        assert_eq!(core.active_window(), before);
        assert!(core.resize_pending());
    }

    #[test]
    fn try_new_rejects_zero_widths() {
        let mut c = CoreConfig::isca98(64).unwrap();
        c.issue_width = 0;
        assert_eq!(OooCore::try_new(c).unwrap_err(), OooError::InvalidWidth { what: "issue" });
        assert!(OooCore::try_new(CoreConfig::isca98(64).unwrap()).is_ok());
    }

    #[test]
    fn back_to_back_dependent_issue() {
        // A unit-latency chain of W instructions must take ~W cycles, not
        // ~2W: wakeup+select turnaround is a single cycle.
        let mut core = OooCore::new(CoreConfig::isca98(64).unwrap());
        let mut s = ListStream::new(chain(10_000, 1));
        let stats = core.run(&mut s, 5_000);
        assert!(stats.cycles <= 5_010, "took {} cycles", stats.cycles);
    }

    #[test]
    fn run_counts_are_deltas() {
        let mut core = OooCore::new(CoreConfig::isca98(64).unwrap());
        let mut s = ListStream::new(vec![]);
        let a = core.run(&mut s, 1000);
        let b = core.run(&mut s, 500);
        assert!((1000..1008).contains(&a.committed));
        assert!((500..508).contains(&b.committed));
        assert!(core.committed() >= 1500);
    }

    #[test]
    fn occupancy_bounded_by_active_window() {
        let mut core = OooCore::new(CoreConfig::isca98(16).unwrap());
        let mut s = ListStream::new(chain(100_000, 8));
        for _ in 0..200 {
            core.step(&mut s);
            assert!(core.occupancy() <= 16);
        }
    }

    #[test]
    fn matches_reference_scan_core_cycle_for_cycle() {
        // The schedule-at-dispatch engine against the naive full-scan
        // reference, compared at every step over diverse dependence
        // structures (cap-verify fuzzes the same pairing at scale).
        let mut cases: Vec<(IlpParams, u64)> = Vec::new();
        for seed in 0..4u64 {
            cases.push((IlpParams::balanced(), seed));
        }
        let mut serial = IlpParams::balanced();
        serial.cross_dep_prob = 1.0;
        serial.burst_chain_len = 1;
        cases.push((serial, 5));
        let mut sparse = IlpParams::balanced();
        sparse.cross_dep_prob = 0.0;
        sparse.far_dep_prob = 0.5;
        cases.push((sparse, 6));
        for (params, seed) in cases {
            for w in [16usize, 48, 128] {
                let mut fast = OooCore::new(CoreConfig::isca98(w).unwrap());
                let mut slow = ScanCore::new(CoreConfig::isca98(w).unwrap());
                let mut s1 = SegmentIlp::new(params, seed).unwrap();
                let mut s2 = SegmentIlp::new(params, seed).unwrap();
                for step in 0..3000 {
                    let a = fast.step(&mut s1);
                    let b = slow.step(&mut s2);
                    assert_eq!(a, b, "retire count diverged at step {step} (w={w}, seed={seed})");
                    assert_eq!(fast.committed(), slow.committed());
                    assert_eq!(fast.occupancy(), slow.occupancy());
                }
            }
        }
    }

    #[test]
    fn matches_reference_across_resizes() {
        let mut fast = OooCore::new(CoreConfig::isca98(128).unwrap());
        let mut slow = ScanCore::new(CoreConfig::isca98(128).unwrap());
        let mut s1 = SegmentIlp::new(IlpParams::balanced(), 9).unwrap();
        let mut s2 = SegmentIlp::new(IlpParams::balanced(), 9).unwrap();
        let sizes = [16usize, 128, 64, 32, 128, 48];
        for (round, &n) in sizes.iter().enumerate() {
            let w = WindowSize::new(n).unwrap();
            fast.request_resize(w).unwrap();
            slow.request_resize(w).unwrap();
            assert_eq!(fast.active_window(), slow.active_window(), "round {round}");
            assert_eq!(fast.resize_pending(), slow.resize_pending(), "round {round}");
            for _ in 0..500 {
                assert_eq!(fast.step(&mut s1), slow.step(&mut s2));
            }
            assert_eq!(fast.cycles(), slow.cycles());
            assert_eq!(fast.committed(), slow.committed());
        }
    }

    #[test]
    #[should_panic(expected = "instruction stream must be contiguous")]
    fn a_gap_in_the_stream_panics() {
        let mut list = chain(10, 1);
        list[5].seq = 6;
        let mut core = OooCore::new(CoreConfig::isca98(64).unwrap());
        core.run(&mut ListStream::new(list), 8);
    }

    #[test]
    fn empty_stats_ipc_is_zero() {
        assert_eq!(RunStats::default().ipc(), 0.0);
    }

    /// Counts the instructions a core has read, and how many of them it
    /// read unpacked.
    struct Counted<S> {
        inner: S,
        reads: u64,
        unpacked: u64,
    }

    impl<S> Counted<S> {
        fn new(inner: S) -> Self {
            Counted { inner, reads: 0, unpacked: 0 }
        }
    }

    impl<S: InstStream> InstStream for Counted<S> {
        fn next_inst(&mut self) -> Inst {
            self.reads += 1;
            self.unpacked += 1;
            self.inner.next_inst()
        }

        fn next_packed(&mut self) -> PackedInst {
            self.reads += 1;
            self.inner.next_packed()
        }
    }

    /// A dependence shape the workload profiles never generate.
    #[derive(Clone, Copy)]
    struct Shape {
        /// Operands depend on one of the previous `reach` instructions.
        reach: u64,
        /// Chance in 256 that an operand has a producer.
        dep_chance: u64,
        /// Chance in 256 that `dep2` repeats `dep1`'s producer.
        same_chance: u64,
        latencies: &'static [u32],
        first_seq: u64,
    }

    /// Pseudo-random instructions of a [`Shape`] (SplitMix64).
    struct ShapeStream {
        shape: Shape,
        state: u64,
        next: u64,
    }

    impl ShapeStream {
        fn new(shape: Shape, seed: u64) -> Counted<Self> {
            Counted::new(ShapeStream { shape, state: seed, next: shape.first_seq })
        }

        fn draw(&mut self, below: u64) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % below
        }

        fn producer(&mut self, seq: u64) -> Option<u64> {
            // Producers may precede the stream's first instruction.
            let age = 1 + self.draw(self.shape.reach);
            (self.draw(256) < self.shape.dep_chance)
                .then(|| seq.saturating_sub(age))
                .filter(|&p| p < seq)
        }
    }

    impl InstStream for ShapeStream {
        fn next_inst(&mut self) -> Inst {
            let seq = self.next;
            self.next += 1;
            let dep1 = self.producer(seq);
            let dep2 = if dep1.is_some() && self.draw(256) < self.shape.same_chance {
                dep1
            } else {
                self.producer(seq)
            };
            let lats = self.shape.latencies;
            let latency = lats[self.draw(lats.len() as u64) as usize];
            Inst { seq, dep1, dep2, latency }
        }
    }

    const BASE: Shape =
        Shape { reach: 24, dep_chance: 160, same_chance: 0, latencies: &[1, 2], first_seq: 0 };

    /// `(name, core config, shape)` for every shape the profiles miss.
    fn unprofiled_shapes() -> Vec<(&'static str, CoreConfig, Shape)> {
        let isca = |w| CoreConfig::isca98(w).unwrap();
        let mut narrow = isca(48);
        (narrow.fetch_width, narrow.issue_width, narrow.commit_width) = (3, 2, 5);
        let mut narrow_issue = isca(128);
        narrow_issue.issue_width = 2;
        let mut wide = isca(32);
        (wide.fetch_width, wide.issue_width, wide.commit_width) = (200, 6, 100);
        vec![
            ("zero-latency producers", isca(64), Shape { latencies: &[0, 0, 1, 3], ..BASE }),
            ("dep2 on dep1's producer", isca(64), Shape { same_chance: 128, ..BASE }),
            ("dep2, far producers", isca(128), Shape { reach: 200, dep_chance: 220, ..BASE }),
            ("latency >= 100", isca(128), Shape { latencies: &[1, 100, 170, 400], ..BASE }),
            ("latency >= 100, issue 2", narrow_issue, Shape { latencies: &[1, 150, 300], ..BASE }),
            ("fetch 3 issue 2 commit 5", narrow, BASE),
            ("widths beyond the window", wide, Shape { latencies: &[0, 1, 4], ..BASE }),
            ("first seq 1000", isca(32), Shape { first_seq: 1000, ..BASE }),
        ]
    }

    /// The core has read exactly the instructions it committed or holds,
    /// as did the reference, and both agree on the window state.
    fn assert_reads_match<S, T>(
        core: &OooCore,
        reads: &Counted<S>,
        scan: &ScanCore,
        scan_reads: &Counted<T>,
        ctx: &str,
    ) {
        assert_eq!(reads.reads, core.committed() + core.occupancy() as u64, "{ctx}: core reads");
        assert_eq!(reads.reads, scan_reads.reads, "{ctx}: reads differ from the reference");
        assert_eq!(core.active_window(), scan.active_window(), "{ctx}: active window");
        assert_eq!(core.resize_pending(), scan.resize_pending(), "{ctx}: resize pending");
    }

    /// Steps a core reading `s1` and the reference reading a fresh
    /// `shape` stream in lockstep, with resizes, comparing every step.
    fn assert_steps_match_reference<S: InstStream>(
        name: &str,
        config: CoreConfig,
        shape: Shape,
        seed: u64,
        s1: &mut Counted<S>,
    ) {
        let mut fast = OooCore::new(config);
        let mut slow = ScanCore::new(config);
        let mut s2 = ShapeStream::new(shape, seed);
        for step in 0..4000 {
            if step % 700 == 699 {
                let sizes = config.window.entries() / 16;
                let w = WindowSize::new(16 * (1 + (step / 700 + seed as usize) % sizes));
                let w = w.unwrap();
                fast.request_resize(w).unwrap();
                slow.request_resize(w).unwrap();
            }
            let ctx = format!("{name}, seed {seed}, step {step}");
            assert_eq!(fast.step(s1), slow.step(&mut s2), "{ctx}: retired");
            assert_eq!(fast.committed(), slow.committed(), "{ctx}");
            assert_eq!(fast.occupancy(), slow.occupancy(), "{ctx}");
            assert_reads_match(&fast, s1, &slow, &s2, &ctx);
        }
        assert!(fast.committed() > 100, "{name}: the shape must make progress");
    }

    #[test]
    fn unprofiled_shapes_match_reference_cycle_for_cycle() {
        for (name, config, shape) in unprofiled_shapes() {
            for seed in 0..3u64 {
                let mut stream = ShapeStream::new(shape, seed);
                assert_steps_match_reference(name, config, shape, seed, &mut stream);
            }
        }
    }

    #[test]
    fn tape_fed_core_matches_reference_cycle_for_cycle() {
        // The reference reads the generator; the core reads the packed
        // records of a tape, including the shape that starts at seq 1000
        // with producers before the stream's first instruction. Another
        // cursor has read ahead, so the core reads sealed blocks, then
        // the open block, then records it generates itself.
        for (name, config, shape) in unprofiled_shapes() {
            for seed in 0..3u64 {
                let tape = InstTape::new(ShapeStream::new(shape, seed));
                let _ = tape.cursor().take_insts(1500 * seed as usize);
                let mut cursor = Counted::new(tape.cursor());
                assert_steps_match_reference(name, config, shape, seed, &mut cursor);
                assert_eq!(cursor.unpacked, 0, "{name}: the core reads records as they are");
            }
        }
    }

    #[test]
    fn run_through_a_reborrowed_cursor_matches_a_direct_run() {
        for (name, config, shape) in unprofiled_shapes() {
            let tape = InstTape::new(ShapeStream::new(shape, 4));
            let (mut a, mut b) = (Counted::new(tape.cursor()), Counted::new(tape.cursor()));
            let (mut direct, mut reborrowed) = (OooCore::new(config), OooCore::new(config));
            for span in [1u64, 700, 3, 2000] {
                let stats = reborrowed.run(&mut &mut b, span);
                assert_eq!(direct.run(&mut a, span), stats, "{name}: span {span}");
                assert_eq!(a.reads, b.reads, "{name}: span {span}");
            }
            assert_eq!((a.unpacked, b.unpacked), (0, 0), "{name}: `&mut` forwards packed reads");
        }
    }

    #[test]
    fn run_matches_stepped_reference_across_resizes() {
        // Spans end mid-drain, and requests supersede draining shrinks.
        let spans = [1u64, 7, 2000, 3, 500, 1, 2000, 64, 9];
        let sizes = [16usize, 128, 32, 16, 112, 48, 16, 64, 128];
        for (name, config, shape) in unprofiled_shapes() {
            let physical = config.window.entries();
            let mut fast = OooCore::new(config);
            let mut slow = ScanCore::new(config);
            let mut s1 = ShapeStream::new(shape, 11);
            let mut s2 = ShapeStream::new(shape, 11);
            for (round, (&span, &n)) in spans.iter().zip(&sizes).enumerate() {
                let ctx = format!("{name}, round {round}");
                let a = fast.run(&mut s1, span);
                let b = slow.run(&mut s2, span);
                assert_eq!(a, b, "{ctx}: run stats");
                assert_eq!(fast.cycles(), slow.cycles(), "{ctx}");
                assert_eq!(fast.occupancy(), slow.occupancy(), "{ctx}");
                assert_reads_match(&fast, &s1, &slow, &s2, &ctx);
                let w = WindowSize::new(n.min(physical)).unwrap();
                fast.request_resize(w).unwrap();
                slow.request_resize(w).unwrap();
                assert_reads_match(&fast, &s1, &slow, &s2, &ctx);
            }
        }
    }

    #[test]
    fn slice_fed_runs_match_stream_fed_runs_across_resizes() {
        // The same spans and resizes as the stepped-reference test, with
        // one core reading the stream and one the recorded slice. Each
        // span reads no further than the reach computed before it.
        let spans = [1u64, 7, 2000, 3, 500, 1, 2000, 64, 9];
        let sizes = [16usize, 128, 32, 16, 112, 48, 16, 64, 128];
        for (name, config, shape) in unprofiled_shapes() {
            let physical = config.window.entries();
            let tape = InstTape::new(ShapeStream::new(shape, 11));
            let records = tape.into_records(spans.iter().sum::<u64>() as usize + 2 * physical + 200);
            let mut stream = ShapeStream::new(shape, 11);
            let (mut fed, mut sliced) = (OooCore::new(config), OooCore::new(config));
            for (round, (&span, &n)) in spans.iter().zip(&sizes).enumerate() {
                let ctx = format!("{name}, round {round}");
                let reach = sliced.run_reach(span);
                let b = sliced.run_records(&records[..reach as usize], span);
                assert_eq!(fed.run(&mut stream, span), b, "{ctx}: run stats");
                assert_eq!(fed.cycles(), sliced.cycles(), "{ctx}");
                assert_eq!(fed.occupancy(), sliced.occupancy(), "{ctx}");
                assert_eq!(stream.reads, sliced.committed() + sliced.occupancy() as u64, "{ctx}");
                assert!(stream.reads <= reach, "{ctx}: read {} past the reach {reach}", stream.reads);
                let w = WindowSize::new(n.min(physical)).unwrap();
                fed.request_resize(w).unwrap();
                sliced.request_resize(w).unwrap();
            }
        }
    }

    #[test]
    #[should_panic(expected = "record slice of 100 ends before instruction 100")]
    fn a_slice_shorter_than_the_run_panics() {
        let records = InstTape::new(ShapeStream::new(BASE, 3)).into_records(100);
        OooCore::new(CoreConfig::isca98(64).unwrap()).run_records(&records, 100);
    }

    #[test]
    fn issue_slots_keep_live_counts_across_far_claims() {
        let mut slots = IssueSlots::new(4);
        assert_eq!(slots.claim(3, 2, 1), 3);
        // A claim far past the ring while cycle 3 is still live must not
        // reuse cycle 3's slot.
        assert_eq!(slots.claim(20, 3, 1), 20);
        assert_eq!(slots.claim(3, 3, 1), 4, "cycle 3 is still full");
        assert_eq!(slots.claim(20, 4, 1), 21, "cycle 20 is still full");
    }

    #[test]
    fn run_of_nothing_is_a_no_op() {
        let mut core = OooCore::new(CoreConfig::isca98(64).unwrap());
        let mut s = ShapeStream::new(BASE, 1);
        assert_eq!(core.run(&mut s, 0), RunStats::default());
        assert_eq!((core.cycles(), s.reads), (0, 0));
        core.run(&mut s, 100);
        let (cycles, reads) = (core.cycles(), s.reads);
        assert_eq!(core.run(&mut s, 0), RunStats::default());
        assert_eq!((core.cycles(), s.reads), (cycles, reads));
    }
}
