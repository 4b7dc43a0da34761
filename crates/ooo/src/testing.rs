//! Instruction streams for the unit tests: dependence shapes the
//! workload profiles never generate, and a read counter.

use cap_trace::inst::{Inst, InstStream, PackedInst};

/// Counts the instructions a core has read, and how many of them it
/// read unpacked.
pub(crate) struct Counted<S> {
    inner: S,
    pub(crate) reads: u64,
    pub(crate) unpacked: u64,
}

impl<S> Counted<S> {
    pub(crate) fn new(inner: S) -> Self {
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
pub(crate) struct Shape {
    /// Operands depend on one of the previous `reach` instructions.
    pub(crate) reach: u64,
    /// Chance in 256 that an operand has a producer.
    pub(crate) dep_chance: u64,
    /// Chance in 256 that `dep2` repeats `dep1`'s producer.
    pub(crate) same_chance: u64,
    /// Latencies, drawn uniformly.
    pub(crate) latencies: &'static [u32],
    /// The seq of the first instruction.
    pub(crate) first_seq: u64,
}

/// Pseudo-random instructions of a [`Shape`] (SplitMix64).
pub(crate) struct ShapeStream {
    shape: Shape,
    state: u64,
    next: u64,
}

impl ShapeStream {
    pub(crate) fn new(shape: Shape, seed: u64) -> Counted<Self> {
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

/// Short unit-latency-ish dependences, one operand at a time.
pub(crate) const BASE: Shape =
    Shape { reach: 24, dep_chance: 160, same_chance: 0, latencies: &[1, 2], first_seq: 0 };
