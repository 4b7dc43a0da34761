//! The naive full-scan reference core.
//!
//! [`ScanCore`] is the original [`OooCore`](cap_ooo::core::OooCore)
//! implementation, kept verbatim: it steps the pipeline one cycle at a
//! time, and every cycle it re-examines the whole window to find ready
//! instructions, recomputing each entry's producer status from scratch.
//! That is O(occupancy · issue-scan) per cycle — simple to audit, slow
//! for large windows.
//!
//! The production core visits no cycles: it computes each instruction's
//! issue, completion and commit cycles once, at dispatch, from a
//! recurrence over older instructions that is exact because select is
//! oldest-first. This module exists so that claim stays *checked*
//! rather than believed: its tests lock the two engines together
//! cycle-for-cycle on fixed inputs, and the `sweep/ooo/core-vs-scan` and
//! `sweep/ooo/run-vs-scan` properties ([`crate::multisweep`]) fuzz the
//! pairing across generators, seeds, window sizes and `run` intervals.
//! If the fast path ever drifts, the drift is attributable here.
//!
//! The resize API mirrors the production core exactly (including
//! [`OooError::InvalidWindow`] on requests beyond the physical window)
//! so differential runs can exercise reconfiguration too.

use cap_ooo::config::{CoreConfig, WindowSize};
use cap_ooo::core::RunStats;
use cap_ooo::error::OooError;
use cap_trace::inst::{Inst, InstStream};
use std::collections::VecDeque;

const NOT_ISSUED: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct Entry {
    inst: Inst,
    dispatch_cycle: u64,
    /// Cycle at which the result becomes available; `NOT_ISSUED` before
    /// issue.
    done_cycle: u64,
}

/// The full-scan out-of-order core, for differential testing only.
///
/// Semantics are identical to [`OooCore`](cap_ooo::core::OooCore); see its
/// documentation. Prefer the production core everywhere else — this one
/// does O(window) work per cycle.
#[derive(Debug, Clone)]
pub struct ScanCore {
    config: CoreConfig,
    active_window: usize,
    pending_shrink: Option<usize>,
    window: VecDeque<Entry>,
    cycle: u64,
    committed: u64,
    next_seq: Option<u64>,
}

impl ScanCore {
    /// Creates a core; the configured window is the physical size.
    ///
    /// # Errors
    ///
    /// Returns [`OooError::InvalidWidth`] if the configuration fails
    /// [`CoreConfig::validate`].
    pub fn try_new(config: CoreConfig) -> Result<Self, OooError> {
        config.validate()?;
        Ok(ScanCore {
            config,
            active_window: config.window.entries(),
            pending_shrink: None,
            window: VecDeque::with_capacity(config.window.entries()),
            cycle: 0,
            committed: 0,
            next_seq: None,
        })
    }

    /// Creates a core, panicking on an invalid configuration.
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
        self.window.len()
    }

    /// Requests a window reconfiguration; same contract as
    /// [`OooCore::request_resize`](cap_ooo::core::OooCore::request_resize).
    ///
    /// # Errors
    ///
    /// Returns [`OooError::InvalidWindow`] if `new` exceeds the physical
    /// window.
    pub fn request_resize(&mut self, new: WindowSize) -> Result<(), OooError> {
        let n = new.entries();
        if n > self.config.window.entries() {
            return Err(OooError::InvalidWindow { entries: n });
        }
        if n >= self.active_window || self.window.len() <= n {
            self.active_window = n;
            self.pending_shrink = None;
        } else {
            self.pending_shrink = Some(n);
        }
        Ok(())
    }

    fn producer_done(&self, dep: u64, now: u64) -> bool {
        match self.window.front() {
            None => true,
            Some(front) if dep < front.inst.seq => true,
            Some(front) => {
                let idx = (dep - front.inst.seq) as usize;
                // Producers always precede consumers, so the index is in
                // range for any dep of a windowed instruction.
                self.window[idx].done_cycle <= now
            }
        }
    }

    fn ready(&self, e: &Entry, now: u64) -> bool {
        e.done_cycle == NOT_ISSUED
            && e.dispatch_cycle < now
            && e.inst.deps().all(|d| self.producer_done(d, now))
    }

    /// Advances the machine one cycle; same contract as
    /// [`OooCore::step`](cap_ooo::core::OooCore::step).
    pub fn step<S: InstStream>(&mut self, stream: &mut S) -> usize {
        self.cycle += 1;
        let now = self.cycle;

        // 1. Commit.
        let mut retired = 0;
        while retired < self.config.commit_width {
            match self.window.front() {
                Some(e) if e.done_cycle != NOT_ISSUED && e.done_cycle <= now => {
                    self.window.pop_front();
                    self.committed += 1;
                    retired += 1;
                }
                _ => break,
            }
        }

        // 2. Wakeup + select + issue, oldest first.
        let mut issued = 0;
        for i in 0..self.window.len() {
            if issued == self.config.issue_width {
                break;
            }
            let e = self.window[i];
            if e.done_cycle == NOT_ISSUED && self.ready(&e, now) {
                self.window[i].done_cycle = now + u64::from(e.inst.latency);
                issued += 1;
            }
        }

        // 3. Apply a drained shrink, then dispatch.
        if let Some(n) = self.pending_shrink {
            if self.window.len() <= n {
                self.active_window = n;
                self.pending_shrink = None;
            }
        }
        if self.pending_shrink.is_none() {
            let mut fetched = 0;
            while fetched < self.config.fetch_width && self.window.len() < self.active_window {
                let inst = stream.next_inst();
                if let Some(expect) = self.next_seq {
                    assert_eq!(inst.seq, expect, "instruction stream must be contiguous");
                }
                self.next_seq = Some(inst.seq + 1);
                self.window.push_back(Entry { inst, dispatch_cycle: now, done_cycle: NOT_ISSUED });
                fetched += 1;
            }
        }

        retired
    }

    /// Runs until at least `insts` further instructions have committed;
    /// same contract as [`OooCore::run`](cap_ooo::core::OooCore::run).
    pub fn run<S: InstStream>(&mut self, stream: &mut S, insts: u64) -> RunStats {
        let c0 = self.cycle;
        let i0 = self.committed;
        let target = i0 + insts;
        while self.committed < target {
            self.step(stream);
        }
        RunStats { cycles: self.cycle - c0, committed: self.committed - i0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multisweep::{Shape, ShapeStream};
    use cap_ooo::core::OooCore;
    use cap_trace::inst::{IlpParams, PackedInst, SegmentIlp};
    use cap_trace::tape::InstTape;

    /// Counts the instructions a core has read, and how many of them it
    /// read unpacked. A copy of cap-ooo's test-only counter, which this
    /// crate cannot reach.
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

    /// A generated stream of `shape`, counted.
    fn shape_stream(shape: Shape, seed: u64) -> Counted<ShapeStream> {
        Counted::new(ShapeStream::new(shape, seed))
    }

    /// Short unit-latency-ish dependences.
    const BASE: Shape =
        Shape { reach: 24, operand_chance: [160, 160], same_chance: 0, latencies: [1, 2, 1, 2], first_seq: 0 };

    /// `(name, core config, shape)` for every shape the profiles miss.
    ///
    /// The table mirrors the one in cap-ooo's `core` tests (a dev
    /// dependency on cap-verify would make a crate cycle). `Shape`
    /// draws from exactly four latencies, so the 2- and 3-entry lists
    /// there are padded here: `[1, 2]` repeats to keep its even odds,
    /// while `[1, 150, 300]` and `[0, 1, 4]` repeat one entry, which
    /// makes that latency twice as likely as the others.
    fn unprofiled_shapes() -> Vec<(&'static str, CoreConfig, Shape)> {
        let isca = |w| CoreConfig::isca98(w).unwrap();
        let mut narrow = isca(48);
        (narrow.fetch_width, narrow.issue_width, narrow.commit_width) = (3, 2, 5);
        let mut narrow_issue = isca(128);
        narrow_issue.issue_width = 2;
        let mut wide = isca(32);
        (wide.fetch_width, wide.issue_width, wide.commit_width) = (200, 6, 100);
        vec![
            ("zero-latency producers", isca(64), Shape { latencies: [0, 0, 1, 3], ..BASE }),
            ("dep2 on dep1's producer", isca(64), Shape { same_chance: 128, ..BASE }),
            ("dep2, far producers", isca(128), Shape { reach: 200, operand_chance: [220, 220], ..BASE }),
            ("latency >= 100", isca(128), Shape { latencies: [1, 100, 170, 400], ..BASE }),
            ("latency >= 100, issue 2", narrow_issue, Shape { latencies: [1, 150, 300, 300], ..BASE }),
            ("fetch 3 issue 2 commit 5", narrow, BASE),
            ("widths beyond the window", wide, Shape { latencies: [0, 1, 4, 1], ..BASE }),
            ("first seq 1000", isca(32), Shape { first_seq: 1000, ..BASE }),
        ]
    }

    #[test]
    fn scan_core_basics() {
        let mut core = ScanCore::new(CoreConfig::isca98(64).unwrap());
        let mut s = SegmentIlp::new(IlpParams::balanced(), 1).unwrap();
        let stats = core.run(&mut s, 10_000);
        assert!(stats.committed >= 10_000);
        assert!(stats.ipc() > 0.0 && stats.ipc() <= 8.0);
    }

    #[test]
    fn scan_core_rejects_resize_beyond_physical() {
        let mut core = ScanCore::new(CoreConfig::isca98(32).unwrap());
        assert_eq!(
            core.request_resize(WindowSize::new(64).unwrap()).unwrap_err(),
            OooError::InvalidWindow { entries: 64 },
        );
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
        let mut s2 = shape_stream(shape, seed);
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
                let mut stream = shape_stream(shape, seed);
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
    fn run_matches_stepped_reference_across_resizes() {
        // Spans end mid-drain, and requests supersede draining shrinks.
        let spans = [1u64, 7, 2000, 3, 500, 1, 2000, 64, 9];
        let sizes = [16usize, 128, 32, 16, 112, 48, 16, 64, 128];
        for (name, config, shape) in unprofiled_shapes() {
            let physical = config.window.entries();
            let mut fast = OooCore::new(config);
            let mut slow = ScanCore::new(config);
            let mut s1 = shape_stream(shape, 11);
            let mut s2 = shape_stream(shape, 11);
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
}
