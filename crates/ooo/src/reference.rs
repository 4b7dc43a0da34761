//! The naive full-scan reference engine.
//!
//! [`ScanCore`] is the original [`OooCore`](crate::core::OooCore)
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
//! rather than believed: `cap-ooo`'s tests lock the two engines together
//! cycle-for-cycle, and `cap-verify` fuzzes the pairing across
//! generators, seeds, window sizes and `run` intervals. If the fast path
//! ever drifts, the drift is attributable here.
//!
//! The resize API mirrors the production core exactly (including
//! [`OooError::InvalidWindow`] on requests beyond the physical window)
//! so differential runs can exercise reconfiguration too.

use crate::config::{CoreConfig, WindowSize};
use crate::core::RunStats;
use crate::error::OooError;
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
/// Semantics are identical to [`OooCore`](crate::core::OooCore); see its
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
    /// [`OooCore::request_resize`](crate::core::OooCore::request_resize).
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
    /// [`OooCore::step`](crate::core::OooCore::step).
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
    /// same contract as [`OooCore::run`](crate::core::OooCore::run).
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
    use cap_trace::inst::{IlpParams, SegmentIlp};

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
}
