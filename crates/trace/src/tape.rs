//! A shared, lazily materialized instruction tape.
//!
//! A window sweep replays the *same* instruction stream at every window
//! size. The legacy path re-synthesizes the stream per configuration by
//! cloning a pristine generator; [`InstTape`] instead records the
//! generator's output once and hands out independent [`TapeCursor`]s, so
//! the synthesis cost is paid a single time per sweep.
//!
//! The tape is lazy: it generates only as far as its furthest cursor has
//! read. Different window sizes drain slightly different prefixes (a
//! core fetches `committed + occupancy` instructions), so the tape ends
//! up holding the longest prefix any configuration needed — no
//! over-generation, no truncation.
//!
//! Recorded instructions are kept in fixed-size blocks. A full block is
//! sealed and shared: a cursor behind the frontier takes a handle to a
//! whole block under one borrow of the tape, then reads it without
//! touching the tape again. Only reads in the open block at the
//! frontier go through the tape one instruction at a time.
//!
//! Cursors borrow the tape immutably and may be created freely; the
//! recorded instructions are identical to what the wrapped generator
//! would have produced, so a simulation driven by a cursor is
//! bit-identical to one driven by a fresh generator clone.

use crate::inst::{Inst, InstStream};
use std::cell::RefCell;
use std::sync::Arc;

/// Instructions per sealed block.
const BLOCK: usize = 1024;

struct TapeInner<S> {
    gen: S,
    /// Full blocks, in stream order. `Arc` rather than `Rc` keeps the
    /// tape `Send`.
    sealed: Vec<Arc<Vec<Inst>>>,
    /// The instructions after the last sealed block (fewer than
    /// [`BLOCK`]).
    open: Vec<Inst>,
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
        InstTape { inner: RefCell::new(TapeInner { gen, sealed: Vec::new(), open }) }
    }

    /// A new cursor positioned at the start of the stream.
    pub fn cursor(&self) -> TapeCursor<'_, S> {
        TapeCursor { tape: self, block: Arc::default(), next: 0, pos: 0 }
    }

    /// How many instructions have been materialized so far.
    pub fn generated(&self) -> usize {
        let inner = self.inner.borrow();
        inner.sealed.len() * BLOCK + inner.open.len()
    }
}

/// An [`InstStream`] replaying an [`InstTape`] from the beginning.
pub struct TapeCursor<'a, S> {
    tape: &'a InstTape<S>,
    /// The sealed block being read; exhausted while reading the open
    /// block.
    block: Arc<Vec<Inst>>,
    /// Index in `block` of the next instruction.
    next: usize,
    /// Stream position of the next instruction.
    pos: usize,
}

impl<S: InstStream> InstStream for TapeCursor<'_, S> {
    #[inline]
    fn next_inst(&mut self) -> Inst {
        if let Some(&inst) = self.block.get(self.next) {
            self.next += 1;
            self.pos += 1;
            return inst;
        }
        self.read_tape()
    }
}

impl<S: InstStream> TapeCursor<'_, S> {
    /// Reads past the exhausted current block, under one borrow of the
    /// tape: takes the next sealed block, or one instruction from the
    /// open block — generating it if no cursor has read that far.
    #[inline]
    fn read_tape(&mut self) -> Inst {
        let mut inner = self.tape.inner.borrow_mut();
        let pos = self.pos;
        self.pos += 1;
        if let Some(block) = inner.sealed.get(pos / BLOCK) {
            self.block = Arc::clone(block);
            self.next = pos % BLOCK + 1;
            return self.block[self.next - 1];
        }
        let offset = pos % BLOCK;
        if offset < inner.open.len() {
            return inner.open[offset];
        }
        let inst = inner.gen.next_inst();
        inner.open.push(inst);
        if inner.open.len() == BLOCK {
            let full = std::mem::replace(&mut inner.open, Vec::with_capacity(BLOCK));
            inner.sealed.push(Arc::new(full));
        }
        inst
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
