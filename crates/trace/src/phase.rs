//! Phase schedules: time-varying generator behaviour.
//!
//! The paper's Section 6 studies *intra-application* diversity — turb3d
//! alternates between long stretches favouring a 64- versus a 128-entry
//! window (Figure 12), and vortex alternates its best configuration every
//! ~15 intervals of 2000 instructions in a regular pattern, with other
//! stretches that are irregular (Figure 13). This module provides the
//! machinery to synthesize such behaviour: a [`PhasedIlp`] instruction
//! stream that switches [`IlpParams`] on an instruction-count schedule,
//! and a [`PhasedMem`] address stream that switches between prebuilt
//! region mixtures.

use crate::error::TraceError;
use crate::inst::{IlpParams, Inst, InstStream, PackedInst, SegmentIlp};
use crate::mem::{AddressStream, MemRef, RegionMix};

/// One phase of a schedule: parameters plus a duration in events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase<P> {
    /// Generator parameters during the phase.
    pub params: P,
    /// Phase duration, in events (instructions or references).
    pub len: u64,
}

impl<P> Phase<P> {
    /// Creates a phase.
    pub fn new(params: P, len: u64) -> Self {
        Phase { params, len }
    }
}

/// An instruction stream whose ILP parameters follow a repeating schedule.
///
/// # Example
///
/// ```
/// use cap_trace::inst::IlpParams;
/// use cap_trace::phase::{Phase, PhasedIlp};
/// use cap_trace::InstStream;
///
/// let mut low = IlpParams::balanced();
/// low.cross_dep_prob = 1.0;
/// let schedule = vec![
///     Phase::new(IlpParams::balanced(), 30_000),
///     Phase::new(low, 30_000),
/// ];
/// let mut gen = PhasedIlp::new(schedule, 11)?;
/// let _first = gen.next_inst();
/// assert_eq!(gen.current_phase(), 0);
/// # Ok::<(), cap_trace::TraceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PhasedIlp {
    schedule: Vec<Phase<IlpParams>>,
    gen: SegmentIlp,
    phase_idx: usize,
    remaining: u64,
}

impl PhasedIlp {
    /// Creates a phased stream. The schedule repeats forever.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] for an empty schedule and
    /// [`TraceError::InvalidParameter`] if any phase has zero length or
    /// invalid parameters.
    pub fn new(schedule: Vec<Phase<IlpParams>>, seed: u64) -> Result<Self, TraceError> {
        if schedule.is_empty() {
            return Err(TraceError::Empty { what: "phase schedule" });
        }
        for p in &schedule {
            p.params.validate()?;
            if p.len == 0 {
                return Err(TraceError::InvalidParameter { what: "phase length must be positive" });
            }
        }
        let gen = SegmentIlp::new(schedule[0].params, seed)?;
        let remaining = schedule[0].len;
        Ok(PhasedIlp { schedule, gen, phase_idx: 0, remaining })
    }

    /// Index of the phase the *next* instruction belongs to.
    pub fn current_phase(&self) -> usize {
        self.phase_idx
    }

    /// The schedule's total period, in instructions.
    pub fn period(&self) -> u64 {
        self.schedule.iter().map(|p| p.len).sum()
    }
}

impl PhasedIlp {
    /// Counts the next instruction against the current phase, switching
    /// phase first if it is used up.
    #[inline]
    fn tick(&mut self) {
        if self.remaining == 0 {
            self.next_phase();
        }
        self.remaining -= 1;
    }

    #[cold]
    #[inline(never)]
    fn next_phase(&mut self) {
        self.phase_idx = (self.phase_idx + 1) % self.schedule.len();
        self.remaining = self.schedule[self.phase_idx].len;
        self.gen
            .set_params(self.schedule[self.phase_idx].params)
            .expect("schedule parameters were validated at construction");
    }
}

impl InstStream for PhasedIlp {
    #[inline]
    fn next_inst(&mut self) -> Inst {
        self.tick();
        self.gen.next_inst()
    }

    #[inline]
    fn next_packed(&mut self) -> PackedInst {
        self.tick();
        self.gen.next_packed()
    }
}

/// An address stream that rotates among prebuilt region mixtures on a
/// reference-count schedule. Each mixture keeps its own sweep state across
/// revisits, so returning to a phase resumes where it left off.
#[derive(Debug, Clone)]
pub struct PhasedMem {
    phases: Vec<(RegionMix, u64)>,
    phase_idx: usize,
    remaining: u64,
}

impl PhasedMem {
    /// Creates a phased address stream. The schedule repeats forever.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] for an empty schedule and
    /// [`TraceError::InvalidParameter`] for a zero-length phase.
    pub fn new(phases: Vec<(RegionMix, u64)>) -> Result<Self, TraceError> {
        if phases.is_empty() {
            return Err(TraceError::Empty { what: "phase schedule" });
        }
        if phases.iter().any(|(_, len)| *len == 0) {
            return Err(TraceError::InvalidParameter { what: "phase length must be positive" });
        }
        let remaining = phases[0].1;
        Ok(PhasedMem { phases, phase_idx: 0, remaining })
    }

    /// Index of the phase the *next* reference belongs to.
    pub fn current_phase(&self) -> usize {
        self.phase_idx
    }
}

impl AddressStream for PhasedMem {
    fn next_ref(&mut self) -> MemRef {
        if self.remaining == 0 {
            self.phase_idx = (self.phase_idx + 1) % self.phases.len();
            self.remaining = self.phases[self.phase_idx].1;
        }
        self.remaining -= 1;
        self.phases[self.phase_idx].0.next_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Region;

    fn serial() -> IlpParams {
        let mut p = IlpParams::balanced();
        p.cross_dep_prob = 1.0;
        p.jitter = 0.0;
        p
    }

    fn parallel() -> IlpParams {
        let mut p = IlpParams::balanced();
        p.cross_dep_prob = 0.0;
        p.jitter = 0.0;
        p
    }

    #[test]
    fn phases_advance_and_wrap() {
        let mut g = PhasedIlp::new(
            vec![Phase::new(serial(), 10), Phase::new(parallel(), 5)],
            1,
        )
        .unwrap();
        assert_eq!(g.period(), 15);
        for _ in 0..10 {
            assert_eq!(g.current_phase(), 0);
            let _ = g.next_inst();
        }
        let _ = g.next_inst();
        assert_eq!(g.current_phase(), 1);
        for _ in 0..4 {
            let _ = g.next_inst();
        }
        let _ = g.next_inst();
        assert_eq!(g.current_phase(), 0, "schedule wraps");
    }

    #[test]
    fn seq_continuous_across_phases() {
        let mut g = PhasedIlp::new(
            vec![Phase::new(serial(), 7), Phase::new(parallel(), 7)],
            1,
        )
        .unwrap();
        for (i, inst) in g.take_insts(50).into_iter().enumerate() {
            assert_eq!(inst.seq, i as u64);
        }
    }

    #[test]
    fn validation() {
        assert!(PhasedIlp::new(vec![], 0).is_err());
        assert!(PhasedIlp::new(vec![Phase::new(serial(), 0)], 0).is_err());
        let mut bad = serial();
        bad.chain_len = 0;
        assert!(PhasedIlp::new(vec![Phase::new(bad, 5)], 0).is_err());
    }

    #[test]
    fn phased_mem_switches_streams() {
        let a = RegionMix::builder(1)
            .region(Region::sequential_loop(0, 4096, 32), 1.0)
            .build()
            .unwrap();
        let b = RegionMix::builder(2)
            .region(Region::sequential_loop(0x1000_0000, 4096, 32), 1.0)
            .build()
            .unwrap();
        let mut g = PhasedMem::new(vec![(a, 3), (b, 3)]).unwrap();
        let refs = g.take_refs(12);
        assert!(refs[0..3].iter().all(|r| r.addr < 0x1000_0000));
        assert!(refs[3..6].iter().all(|r| r.addr >= 0x1000_0000));
        assert!(refs[6..9].iter().all(|r| r.addr < 0x1000_0000));
        // Phase A resumes its sweep where it paused.
        assert_eq!(refs[6].addr, 96);
    }

    #[test]
    fn phased_mem_validation() {
        assert!(PhasedMem::new(vec![]).is_err());
        let a = RegionMix::builder(1)
            .region(Region::random(0, 64), 1.0)
            .build()
            .unwrap();
        assert!(PhasedMem::new(vec![(a, 0)]).is_err());
    }
}
