//! Synthetic dependency-annotated instruction streams.
//!
//! With the paper's idealizations for the instruction-queue study (perfect
//! branch prediction, perfect caches, plentiful functional units), the IPC
//! of an out-of-order core is a function *only* of the stream's dependence
//! structure versus the window size. This module synthesizes that
//! structure from a two-knob **segment model**:
//!
//! A program is a sequence of segments, each a **serial chain** of
//! [`IlpParams::chain_len`] instructions (each depending on its
//! predecessor, with latency [`IlpParams::chain_latency`]) followed by a
//! **burst** of [`IlpParams::burst_len`] instructions organized into
//! serial sub-chains of [`IlpParams::burst_chain_len`]. With probability
//! [`IlpParams::cross_dep_prob`] a chain's head depends on the previous
//! chain's tail, serializing consecutive segments (set to 1.0 this forms a
//! loop-carried *backbone* — each segment is one loop iteration).
//!
//! * The **burst sub-chain length** sets the *window scale*: a window of
//!   `W` entries holds about `W / burst_chain_len` concurrently
//!   executable sub-chains, so IPC rises roughly as
//!   `min(width, W / (burst_chain_len · burst_latency))` — the knee lands
//!   near `W* = width · burst_chain_len · burst_latency`.
//! * The **chain share** (`chain_len · chain_latency` versus segment
//!   size) sets the *IPC asymptote*: the backbone recurrence is the part
//!   no window can parallelize.
//!
//! These knobs let `cap-workloads` place each application's
//! TPI-versus-window minimum where the paper's Figure 10 places it.

use crate::error::TraceError;
use crate::rng::TraceRng;

/// One dynamic instruction with its data dependences.
///
/// Dependences are *absolute* producer indices in the dynamic stream
/// (instruction 0 is the first produced). A dependence on an instruction
/// that has already committed is satisfied immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// This instruction's index in the dynamic stream.
    pub seq: u64,
    /// First source operand's producer, if any.
    pub dep1: Option<u64>,
    /// Second source operand's producer, if any.
    pub dep2: Option<u64>,
    /// Execution latency in cycles (at least 1).
    pub latency: u32,
}

impl Inst {
    /// An instruction with no dependences and unit latency.
    pub fn independent(seq: u64) -> Self {
        Inst { seq, dep1: None, dep2: None, latency: 1 }
    }

    /// Returns the producer indices as an iterator (0, 1 or 2 items).
    pub fn deps(&self) -> impl Iterator<Item = u64> {
        self.dep1.into_iter().chain(self.dep2)
    }
}

/// An instruction with its producers given as distances back from it:
/// the form an out-of-order core consumes.
///
/// A distance of 0 means no producer; producer `p` of instruction `seq`
/// is at distance `seq - p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedInst {
    /// This instruction's index in the dynamic stream.
    pub seq: u64,
    /// Distances back to the two operands' producers (0 = none).
    pub dist: [u32; 2],
    /// Execution latency in cycles.
    pub latency: u32,
}

impl PackedInst {
    /// Packs `inst`, saturating each distance at `u32::MAX`. A producer
    /// at or after `inst` packs to distance 0 or a saturated distance;
    /// like any producer further back than a core's window, both read as
    /// already committed.
    #[inline]
    pub fn saturating(inst: Inst) -> Self {
        let dist = |dep: Option<u64>| {
            dep.map_or(0, |p| u32::try_from(inst.seq.wrapping_sub(p)).unwrap_or(u32::MAX))
        };
        PackedInst {
            seq: inst.seq,
            dist: [dist(inst.dep1), dist(inst.dep2)],
            latency: inst.latency,
        }
    }
}

/// An infinite stream of instructions.
pub trait InstStream {
    /// Produces the next instruction.
    fn next_inst(&mut self) -> Inst;

    /// Produces the next instruction in packed form. The default packs
    /// [`InstStream::next_inst`] with [`PackedInst::saturating`]; a
    /// stream that already holds packed instructions returns them as
    /// they are.
    #[inline]
    fn next_packed(&mut self) -> PackedInst {
        PackedInst::saturating(self.next_inst())
    }

    /// Collects the next `n` instructions (convenience for tests).
    fn take_insts(&mut self, n: usize) -> Vec<Inst>
    where
        Self: Sized,
    {
        (0..n).map(|_| self.next_inst()).collect()
    }
}

impl<S: InstStream + ?Sized> InstStream for &mut S {
    #[inline]
    fn next_inst(&mut self) -> Inst {
        (**self).next_inst()
    }

    #[inline]
    fn next_packed(&mut self) -> PackedInst {
        (**self).next_packed()
    }
}

/// Parameters of the segment ILP model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IlpParams {
    /// Serial-chain length per segment (instructions).
    pub chain_len: u64,
    /// Independent-burst length per segment (instructions).
    pub burst_len: u64,
    /// Latency of chain instructions, in cycles.
    pub chain_latency: u32,
    /// Latency of burst instructions, in cycles.
    pub burst_latency: u32,
    /// Probability that a chain head depends on the previous chain's tail.
    pub cross_dep_prob: f64,
    /// Burst sub-chain length: burst instructions form serial sub-chains
    /// of this many instructions (1 = fully independent burst). This is
    /// the knob that makes IPC *window-sensitive*: a window of `W` entries
    /// holds about `W / burst_chain_len` concurrently executable
    /// sub-chains, so burst throughput is `min(width, W / (len · lat))`.
    pub burst_chain_len: u64,
    /// Probability that a burst sub-chain head carries an extra far-back
    /// dependence (realism noise; usually satisfied by commit).
    pub far_dep_prob: f64,
    /// Multiplicative jitter applied to segment lengths (0 = none).
    pub jitter: f64,
}

impl IlpParams {
    /// A balanced default: ILP saturating around a 64-entry window with an
    /// asymptote near 5 IPC — the behaviour of "most applications" in the
    /// paper's Figure 10.
    pub fn balanced() -> Self {
        IlpParams {
            chain_len: 4,
            burst_len: 56,
            chain_latency: 2,
            burst_latency: 1,
            cross_dep_prob: 1.0,
            burst_chain_len: 8,
            far_dep_prob: 0.05,
            jitter: 0.25,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] when a length or latency is
    /// zero, or a probability / jitter is outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.chain_len == 0 || self.burst_len == 0 {
            return Err(TraceError::InvalidParameter { what: "segment lengths must be positive" });
        }
        if self.chain_latency == 0 || self.burst_latency == 0 {
            return Err(TraceError::InvalidParameter { what: "latencies must be at least 1 cycle" });
        }
        if self.burst_chain_len == 0 {
            return Err(TraceError::InvalidParameter { what: "burst sub-chain length must be at least 1" });
        }
        for p in [self.cross_dep_prob, self.far_dep_prob, self.jitter] {
            if !(0.0..=1.0).contains(&p) {
                return Err(TraceError::InvalidParameter {
                    what: "probabilities and jitter must be in [0,1]",
                });
            }
        }
        Ok(())
    }
}

impl Default for IlpParams {
    fn default() -> Self {
        Self::balanced()
    }
}

/// The segment-model instruction generator.
///
/// # Example
///
/// ```
/// use cap_trace::inst::{IlpParams, SegmentIlp};
/// use cap_trace::InstStream;
///
/// let mut gen = SegmentIlp::new(IlpParams::balanced(), 7)?;
/// let i0 = gen.next_inst();
/// let i1 = gen.next_inst();
/// assert_eq!(i0.seq, 0);
/// // The second chain instruction depends on the first.
/// assert_eq!(i1.dep1, Some(0));
/// # Ok::<(), cap_trace::TraceError>(())
/// ```
///
/// # Hot and cold paths
///
/// Most instructions depend on their predecessor, draw no random number
/// and end nothing, so one private `step` handles them with two
/// countdowns and inlines into the caller of
/// [`InstStream::next_packed`]. The rest leave that path for `#[cold]`
/// out-of-line functions: a chain or burst sub-chain head, which may
/// draw a producer, and the end of a chain or burst, which draws the
/// next part's jittered length. The draws come in the order the
/// segment model in the module documentation makes them.
#[derive(Debug, Clone)]
pub struct SegmentIlp {
    params: IlpParams,
    rng: TraceRng,
    idx: u64,
    /// Whether the current part is a burst (else a chain).
    in_burst: bool,
    /// Instructions left in the current part.
    left: u64,
    /// Instructions until the next head: 0 means the next instruction
    /// heads a chain or burst sub-chain. Within a chain, after its head,
    /// it never reaches 0.
    to_head: u64,
    /// The latency of the current part's instructions.
    latency: u32,
    last_chain_tail: Option<u64>,
}

impl SegmentIlp {
    /// Creates a generator with the given parameters and seed.
    ///
    /// # Errors
    ///
    /// Returns an error if the parameters fail [`IlpParams::validate`].
    pub fn new(params: IlpParams, seed: u64) -> Result<Self, TraceError> {
        params.validate()?;
        let mut gen = SegmentIlp {
            params,
            rng: TraceRng::seeded(seed),
            idx: 0,
            in_burst: false,
            left: 0,
            to_head: 0,
            latency: 0,
            last_chain_tail: None,
        };
        gen.start_chain();
        Ok(gen)
    }

    /// Replaces the parameters mid-stream (used by phase schedules). The
    /// instruction index keeps counting; dependence chains are cut at the
    /// switch point.
    ///
    /// # Errors
    ///
    /// Returns an error if the new parameters fail [`IlpParams::validate`].
    pub fn set_params(&mut self, params: IlpParams) -> Result<(), TraceError> {
        params.validate()?;
        self.params = params;
        self.start_chain();
        self.last_chain_tail = None;
        Ok(())
    }

    /// The current parameters.
    pub fn params(&self) -> &IlpParams {
        &self.params
    }

    /// The index the next instruction will carry.
    pub fn position(&self) -> u64 {
        self.idx
    }

    /// Produces the next instruction as `(seq, distance back to its
    /// producer or 0, latency)`. Only heads and part ends leave the
    /// inlined path.
    #[inline]
    fn step(&mut self) -> (u64, u64, u32) {
        let seq = self.idx;
        self.idx += 1;
        let dist = if self.to_head > 0 {
            self.to_head -= 1;
            1
        } else {
            self.head(seq)
        };
        let latency = self.latency;
        self.left -= 1;
        if self.left == 0 {
            self.end_part(seq);
        }
        (seq, dist, latency)
    }

    /// The producer distance of a head at `seq`. A chain head depends on
    /// the previous chain's tail with probability `cross_dep_prob`; a
    /// burst sub-chain head carries a far-back dependence with
    /// probability `far_dep_prob`.
    #[cold]
    #[inline(never)]
    fn head(&mut self, seq: u64) -> u64 {
        let p = &self.params;
        if !self.in_burst {
            // No further head in this chain.
            self.to_head = u64::MAX;
            return match self.last_chain_tail {
                Some(t) if self.rng.chance(p.cross_dep_prob) => seq - t,
                _ => 0,
            };
        }
        self.to_head = p.burst_chain_len - 1;
        if self.rng.chance(p.far_dep_prob) && seq > 0 {
            // Usually already committed.
            let span = (8 * (p.chain_len + p.burst_len)).min(seq);
            self.rng.between(1, span.max(1))
        } else {
            0
        }
    }

    /// Ends the chain or burst whose last instruction is `seq` and starts
    /// the other.
    #[cold]
    #[inline(never)]
    fn end_part(&mut self, seq: u64) {
        if self.in_burst {
            self.start_chain();
        } else {
            self.last_chain_tail = Some(seq);
            self.in_burst = true;
            self.left = self.rng.jitter(self.params.burst_len, self.params.jitter);
            self.to_head = 0;
            self.latency = self.params.burst_latency;
        }
    }

    fn start_chain(&mut self) {
        self.in_burst = false;
        self.left = self.rng.jitter(self.params.chain_len, self.params.jitter);
        self.to_head = 0;
        self.latency = self.params.chain_latency;
    }
}

impl InstStream for SegmentIlp {
    #[inline]
    fn next_inst(&mut self) -> Inst {
        let (seq, dist, latency) = self.step();
        let dep1 = (dist > 0).then(|| seq - dist);
        Inst { seq, dep1, dep2: None, latency }
    }

    #[inline]
    fn next_packed(&mut self) -> PackedInst {
        let (seq, dist, latency) = self.step();
        let dist = u32::try_from(dist).unwrap_or(u32::MAX);
        PackedInst { seq, dist: [dist, 0], latency }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::{Phase, PhasedIlp};

    fn no_jitter(chain: u64, burst: u64, q: f64) -> IlpParams {
        IlpParams {
            chain_len: chain,
            burst_len: burst,
            chain_latency: 2,
            burst_latency: 1,
            cross_dep_prob: q,
            burst_chain_len: 1,
            far_dep_prob: 0.0,
            jitter: 0.0,
        }
    }

    #[test]
    fn deps_point_backwards() {
        let mut g = SegmentIlp::new(IlpParams::balanced(), 3).unwrap();
        for inst in g.take_insts(10_000) {
            for d in inst.deps() {
                assert!(d < inst.seq, "dep {d} not before {}", inst.seq);
            }
        }
    }

    #[test]
    fn seq_is_contiguous() {
        let mut g = SegmentIlp::new(IlpParams::balanced(), 3).unwrap();
        for (i, inst) in g.take_insts(1000).into_iter().enumerate() {
            assert_eq!(inst.seq, i as u64);
        }
    }

    #[test]
    fn chain_structure_without_jitter() {
        let mut g = SegmentIlp::new(no_jitter(3, 2, 0.0), 1).unwrap();
        let v = g.take_insts(10);
        // chain: 0,1,2 — burst: 3,4 — chain: 5,6,7 — burst: 8,9
        assert_eq!(v[0].dep1, None);
        assert_eq!(v[1].dep1, Some(0));
        assert_eq!(v[2].dep1, Some(1));
        assert_eq!(v[3].dep1, None);
        assert_eq!(v[4].dep1, None);
        assert_eq!(v[5].dep1, None, "independent chains when q = 0");
        assert_eq!(v[6].dep1, Some(5));
        assert_eq!(v[7].dep1, Some(6));
    }

    #[test]
    fn fully_serialized_chains_when_q_is_one() {
        let mut g = SegmentIlp::new(no_jitter(3, 2, 1.0), 1).unwrap();
        let v = g.take_insts(10);
        // Second chain's head (index 5) must depend on first chain's tail (2).
        assert_eq!(v[5].dep1, Some(2));
    }

    #[test]
    fn latencies_assigned_by_role() {
        let mut g = SegmentIlp::new(no_jitter(3, 2, 0.0), 1).unwrap();
        let v = g.take_insts(5);
        assert_eq!(v[0].latency, 2);
        assert_eq!(v[2].latency, 2);
        assert_eq!(v[3].latency, 1);
        assert_eq!(v[4].latency, 1);
    }

    #[test]
    fn packing_saturates_distances() {
        let pack = |seq, dep1, dep2| PackedInst::saturating(Inst { seq, dep1, dep2, latency: 3 });
        assert_eq!(pack(10, Some(7), None), PackedInst { seq: 10, dist: [3, 0], latency: 3 });
        assert_eq!(pack(1 << 40, Some(0), Some((1 << 40) - 1)).dist, [u32::MAX, 1]);
        // A producer at or after its consumer packs as committed.
        assert_eq!(pack(5, Some(5), Some(6)).dist, [0, u32::MAX]);
        let mut g = SegmentIlp::new(IlpParams::balanced(), 3).unwrap();
        let mut h = g.clone();
        for _ in 0..1000 {
            assert_eq!(g.next_packed(), PackedInst::saturating(h.next_inst()));
        }
        // Across phase switches, with heads on every burst instruction.
        let mut p = IlpParams::balanced();
        p.burst_chain_len = 1;
        p.far_dep_prob = 0.5;
        let schedule = vec![Phase::new(IlpParams::balanced(), 70), Phase::new(p, 130)];
        let mut g = PhasedIlp::new(schedule, 3).unwrap();
        let mut h = g.clone();
        for _ in 0..1000 {
            assert_eq!(g.next_packed(), PackedInst::saturating(h.next_inst()));
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = SegmentIlp::new(IlpParams::balanced(), 9).unwrap().take_insts(2000);
        let b = SegmentIlp::new(IlpParams::balanced(), 9).unwrap().take_insts(2000);
        assert_eq!(a, b);
    }

    #[test]
    fn set_params_cuts_chains() {
        let mut g = SegmentIlp::new(no_jitter(100, 2, 1.0), 1).unwrap();
        let _ = g.take_insts(10);
        g.set_params(no_jitter(4, 4, 0.0)).unwrap();
        let next = g.next_inst();
        assert_eq!(next.seq, 10);
        assert_eq!(next.dep1, None, "chain cut at phase switch");
    }

    #[test]
    fn validation_rejects_bad_params() {
        let mut p = IlpParams::balanced();
        p.chain_len = 0;
        assert!(SegmentIlp::new(p, 0).is_err());
        let mut p = IlpParams::balanced();
        p.burst_latency = 0;
        assert!(SegmentIlp::new(p, 0).is_err());
        let mut p = IlpParams::balanced();
        p.cross_dep_prob = 1.5;
        assert!(SegmentIlp::new(p, 0).is_err());
        let mut p = IlpParams::balanced();
        p.jitter = -0.1;
        assert!(SegmentIlp::new(p, 0).is_err());
    }

    #[test]
    fn independent_constructor() {
        let i = Inst::independent(5);
        assert_eq!(i.deps().count(), 0);
        assert_eq!(i.latency, 1);
    }

    #[test]
    fn far_deps_are_bounded() {
        let mut p = IlpParams::balanced();
        p.far_dep_prob = 1.0;
        let mut g = SegmentIlp::new(p, 5).unwrap();
        for inst in g.take_insts(5000) {
            if let Some(d) = inst.dep1 {
                assert!(inst.seq - d <= 8 * (p.chain_len + p.burst_len) + 1);
            }
        }
    }
}
