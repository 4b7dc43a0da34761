//! A recorded instruction tape, replayed by many readers.
//!
//! Several simulations sometimes need the *same* instruction stream.
//! Rather than re-synthesize it per reader, [`InstTape`] records the
//! generator's output once, and independent [`TapeCursor`]s replay it.
//! The tape generates only as far as its furthest cursor has read.
//! Readers that stop at different points (a core fetches `committed +
//! occupancy` instructions, which differs by window size) leave the tape
//! holding the longest prefix any of them needed: no over-generation, no
//! truncation.
//!
//! Production window sweeps do not need a tape: they schedule every
//! window in one pass over the generator (`cap-ooo`'s `multisweep`).
//! Tapes serve tests and measurement that drive separate cores from one
//! stream.
//!
//! # Record layout
//!
//! Each instruction is one 12-byte `Record` of three `u32`s: the distance
//! back to its first producer, the distance back to its second, and its
//! latency. A distance of 0 means no producer. The seq is not stored: it
//! is the first recorded seq plus the record's position; 300 k
//! instructions take 3.6 MB.
//!
//! Recording checks that the packed form is exact, and panics if the
//! generator breaks it:
//!
//! * each seq must follow the previous one;
//! * each producer must come before its consumer;
//! * each producer must lie at most `u32::MAX` instructions back.
//!
//! [`TapeCursor::next_packed`](InstStream::next_packed) returns a record
//! as it is, in the form the out-of-order core consumes;
//! [`TapeCursor::next_inst`](InstStream::next_inst) rebuilds the
//! generator's [`Inst`] exactly.
//!
//! Records are kept in fixed-size blocks. A full block is sealed and
//! shared: a cursor behind the frontier takes a handle to a whole block
//! under one borrow of the tape, then reads it without touching the tape
//! again. Only reads in the open block at the frontier go through the
//! tape one instruction at a time.
//!
//! Cursors borrow the tape immutably and may be created freely; the
//! recorded instructions are identical to what the wrapped generator
//! would have produced, so a simulation driven by a cursor is
//! bit-identical to one driven by a fresh generator clone.

use crate::inst::{Inst, InstStream, PackedInst};
use std::cell::RefCell;
use std::sync::Arc;

/// Instructions per sealed block.
const BLOCK: usize = 1024;

/// One recorded instruction, with its seq implied by its position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    /// Distances back to the two operands' producers (0 = none).
    dist: [u32; 2],
    /// Execution latency in cycles.
    latency: u32,
}

const _: () = assert!(std::mem::size_of::<Record>() == 12);

impl Record {
    /// Packs `inst`, which must be the instruction at `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not at `seq`, or a producer is not before it
    /// and at most `u32::MAX` instructions back.
    #[inline]
    fn new(inst: Inst, seq: u64) -> Self {
        assert_eq!(inst.seq, seq, "instruction tape: the stream's seqs must be contiguous");
        let dist = |dep: Option<u64>| {
            let Some(p) = dep else { return 0 };
            assert!(
                p < seq,
                "instruction tape: instruction {seq} depends on {p}, not an older one"
            );
            u32::try_from(seq - p).unwrap_or_else(|_| {
                panic!("instruction tape: instruction {seq}'s producer {p} is over u32::MAX back")
            })
        };
        Record { dist: [dist(inst.dep1), dist(inst.dep2)], latency: inst.latency }
    }

    #[inline]
    fn packed(self, seq: u64) -> PackedInst {
        PackedInst { seq, dist: self.dist, latency: self.latency }
    }
}

struct TapeInner<S> {
    gen: S,
    /// The seq of the first recorded instruction.
    first: u64,
    /// Full blocks, in stream order. `Arc` rather than `Rc` keeps the
    /// tape `Send`.
    sealed: Vec<Arc<[Record]>>,
    /// The records after the last sealed block (fewer than [`BLOCK`]).
    open: Vec<Record>,
}

impl<S: InstStream> TapeInner<S> {
    fn len(&self) -> usize {
        self.sealed.len() * BLOCK + self.open.len()
    }

    /// Generates, checks and records the next instruction.
    #[inline]
    fn record(&mut self) -> Record {
        let inst = self.gen.next_inst();
        let pos = self.len();
        if pos == 0 {
            self.first = inst.seq;
        }
        let record = Record::new(inst, self.first + pos as u64);
        self.open.push(record);
        if self.open.len() == BLOCK {
            self.sealed.push(Arc::from(&self.open[..]));
            self.open.clear();
        }
        record
    }
}

/// A recorded instruction stream that many cursors can replay.
///
/// # Example
///
/// ```
/// use cap_trace::inst::{IlpParams, SegmentIlp};
/// use cap_trace::tape::InstTape;
/// use cap_trace::InstStream;
///
/// let tape = InstTape::new(SegmentIlp::new(IlpParams::balanced(), 7)?);
/// let a: Vec<_> = tape.cursor().take_insts(100);
/// let b: Vec<_> = tape.cursor().take_insts(100);
/// assert_eq!(a, b, "every cursor replays the same prefix");
/// assert_eq!(tape.generated(), 100, "generated once, not twice");
/// # Ok::<(), cap_trace::TraceError>(())
/// ```
pub struct InstTape<S> {
    inner: RefCell<TapeInner<S>>,
}

impl<S: InstStream> InstTape<S> {
    /// Wraps a generator. Nothing is generated until a cursor reads.
    pub fn new(gen: S) -> Self {
        let open = Vec::with_capacity(BLOCK);
        InstTape { inner: RefCell::new(TapeInner { gen, first: 0, sealed: Vec::new(), open }) }
    }

    /// A new cursor positioned at the start of the stream.
    pub fn cursor(&self) -> TapeCursor<'_, S> {
        TapeCursor { tape: self, block: Arc::new([]), next: 0, pos: 0, first: 0 }
    }

    /// How many instructions have been materialized so far.
    pub fn generated(&self) -> usize {
        self.inner.borrow().len()
    }
}

/// An [`InstStream`] replaying an [`InstTape`] from the beginning.
pub struct TapeCursor<'a, S> {
    tape: &'a InstTape<S>,
    /// The sealed block being read; exhausted while reading the open
    /// block.
    block: Arc<[Record]>,
    /// Index in `block` of the next instruction.
    next: usize,
    /// Stream position of the next instruction.
    pos: usize,
    /// The tape's first seq, once this cursor has read.
    first: u64,
}

impl<S: InstStream> InstStream for TapeCursor<'_, S> {
    fn next_inst(&mut self) -> Inst {
        let p = self.next_packed();
        let dep = |d: u32| (d > 0).then(|| p.seq - u64::from(d));
        Inst { seq: p.seq, dep1: dep(p.dist[0]), dep2: dep(p.dist[1]), latency: p.latency }
    }

    #[inline]
    fn next_packed(&mut self) -> PackedInst {
        if let Some(&record) = self.block.get(self.next) {
            self.next += 1;
            let seq = self.first + self.pos as u64;
            self.pos += 1;
            return record.packed(seq);
        }
        self.read_tape()
    }
}

impl<S: InstStream> TapeCursor<'_, S> {
    /// Reads past the exhausted current block, under one borrow of the
    /// tape: takes the next sealed block, or one record from the open
    /// block — generating it if no cursor has read that far. Kept out of
    /// line so that the fast path of [`InstStream::next_packed`] inlines
    /// into the core's dispatch loop.
    #[inline(never)]
    fn read_tape(&mut self) -> PackedInst {
        let mut inner = self.tape.inner.borrow_mut();
        let pos = self.pos;
        self.pos += 1;
        let record = if let Some(block) = inner.sealed.get(pos / BLOCK) {
            self.block = Arc::clone(block);
            self.next = pos % BLOCK + 1;
            self.block[pos % BLOCK]
        } else if let Some(&record) = inner.open.get(pos % BLOCK) {
            record
        } else {
            inner.record()
        };
        self.first = inner.first;
        record.packed(self.first + pos as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{IlpParams, SegmentIlp};

    fn gen(seed: u64) -> SegmentIlp {
        SegmentIlp::new(IlpParams::balanced(), seed).unwrap()
    }

    #[test]
    fn cursor_replays_generator_exactly() {
        let direct = gen(3).take_insts(5000);
        let tape = InstTape::new(gen(3));
        let replayed = tape.cursor().take_insts(5000);
        assert_eq!(direct, replayed);
    }

    #[test]
    fn interleaved_cursors_agree() {
        let tape = InstTape::new(gen(9));
        let mut a = tape.cursor();
        let mut b = tape.cursor();
        for i in 0..1000u64 {
            // b trails a by one instruction; both must see the same seqs.
            let x = a.next_inst();
            assert_eq!(x.seq, i);
            if i > 0 {
                assert_eq!(b.next_inst().seq, i - 1);
            }
        }
    }

    #[test]
    fn cursors_agree_across_block_boundaries() {
        let n = 3 * BLOCK + 17;
        let direct = gen(4).take_insts(n);
        let tape = InstTape::new(gen(4));
        // `b` trails `a` by a few instructions, so it reads the open
        // block until `a` seals it, then switches to the sealed copy.
        let (mut a, mut b) = (tape.cursor(), tape.cursor());
        let mut from_b = Vec::new();
        for (i, want) in direct.iter().enumerate() {
            assert_eq!(a.next_inst(), *want);
            if i >= 3 {
                from_b.push(b.next_inst());
            }
            assert_eq!(tape.generated(), i + 1, "only the leader generates");
        }
        from_b.extend(b.take_insts(3));
        assert_eq!(from_b, direct);
        assert_eq!(tape.cursor().take_insts(n), direct, "a late cursor replays sealed blocks");
        assert_eq!(tape.generated(), n);
    }

    /// The listed instructions, in order.
    struct ListStream(std::vec::IntoIter<Inst>);

    impl InstStream for ListStream {
        fn next_inst(&mut self) -> Inst {
            self.0.next().expect("list exhausted")
        }
    }

    fn list_tape(list: Vec<Inst>) -> InstTape<ListStream> {
        InstTape::new(ListStream(list.into_iter()))
    }

    fn inst(seq: u64, dep1: Option<u64>, dep2: Option<u64>) -> Inst {
        Inst { seq, dep1, dep2, latency: 2 }
    }

    #[test]
    fn packed_reads_match_the_generator() {
        let tape = InstTape::new(gen(6));
        let mut direct = gen(6);
        let mut cursor = tape.cursor();
        for _ in 0..2 * BLOCK + 5 {
            assert_eq!(cursor.next_packed(), PackedInst::saturating(direct.next_inst()));
        }
    }

    #[test]
    fn replays_offset_streams_with_producers_before_the_start() {
        let mut list = vec![inst(1000, Some(0), Some(999)), inst(1001, None, Some(1000))];
        list.extend((1002..1002 + 2 * BLOCK as u64).map(|s| inst(s, Some(s - 3), None)));
        let tape = list_tape(list.clone());
        assert_eq!(tape.cursor().take_insts(list.len()), list);
        assert_eq!(tape.cursor().take_insts(list.len()), list, "replayed from sealed blocks");
        // The furthest producer a record holds.
        let furthest = inst(u64::from(u32::MAX), Some(0), None);
        let tape = list_tape(vec![furthest]);
        assert_eq!(tape.cursor().next_packed().dist, [u32::MAX, 0]);
        assert_eq!(tape.cursor().next_inst(), furthest);
    }

    #[test]
    #[should_panic(expected = "seqs must be contiguous")]
    fn recording_rejects_a_gap_in_seq() {
        let tape = list_tape(vec![inst(5, None, None), inst(7, Some(5), None)]);
        let _ = tape.cursor().take_insts(2);
    }

    #[test]
    #[should_panic(expected = "instruction 4 depends on 4, not an older one")]
    fn recording_rejects_a_producer_at_its_consumer() {
        let tape = list_tape(vec![inst(3, None, None), inst(4, Some(3), Some(4))]);
        let _ = tape.cursor().take_insts(2);
    }

    #[test]
    #[should_panic(expected = "instruction 3 depends on 9, not an older one")]
    fn recording_rejects_a_producer_after_its_consumer() {
        let _ = list_tape(vec![inst(3, Some(9), None)]).cursor().next_inst();
    }

    #[test]
    #[should_panic(expected = "is over u32::MAX back")]
    fn recording_rejects_a_distance_past_u32() {
        let seq = u64::from(u32::MAX) + 1;
        let _ = list_tape(vec![inst(seq, None, Some(0))]).cursor().next_packed();
    }

    #[test]
    fn tape_grows_to_furthest_reader_only() {
        let tape = InstTape::new(gen(1));
        let _ = tape.cursor().take_insts(10);
        assert_eq!(tape.generated(), 10);
        let _ = tape.cursor().take_insts(300);
        assert_eq!(tape.generated(), 300);
        let _ = tape.cursor().take_insts(50);
        assert_eq!(tape.generated(), 300, "shorter reads reuse the buffer");
    }
}
