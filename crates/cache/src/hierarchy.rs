//! The adaptive exclusive two-level cache structure.
//!
//! Physical model: every set spans all sixteen increments — 32 ways for
//! the paper's geometry (16 increments × 2 ways). The boundary assigns the
//! first `2k` *way positions* to L1 and the rest to L2, mirroring the
//! physical layout of Figure 6 where increments closest to the cache port
//! are L1. Moving the boundary therefore re-labels ways without touching
//! their contents, which is exactly why the paper's design can reconfigure
//! "without having to invalidate or transfer data".
//!
//! Exclusion is maintained operationally: a block is inserted into L1 on a
//! miss; an L2 hit *swaps* the block with an L1 victim; an L1 victim
//! displaced by a fill is demoted into L2, possibly evicting the L2 LRU
//! block. At no point can a tag appear twice in a set — an invariant
//! checked by [`AdaptiveCacheHierarchy::check_exclusive`] and exercised by
//! property tests.
//!
//! # Degraded operation
//!
//! The fault model in `cap-core` can retire trailing increments (e.g. a
//! manufacturing defect or an in-field failure takes a bus segment out of
//! service). [`AdaptiveCacheHierarchy::retire_increments`] drops the blocks
//! they held and shrinks the usable way range; the structure keeps serving
//! references from the surviving increments, and boundaries that would
//! reach into the dead region are clamped (the effective L1 never exceeds
//! the usable increments, and the L2 region may become empty, in which
//! case demoted victims are simply discarded).

use crate::config::Boundary;
use crate::error::CacheError;
use crate::stats::{AccessOutcome, CacheStats};
use cap_timing::cacti::CacheGeometry;
use cap_trace::mem::{AccessKind, MemRef};

/// Which level a block currently resides in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// An increment on the L1 side of the boundary.
    L1,
    /// An increment on the L2 side of the boundary.
    L2,
}

/// Splits an address into its set index and tag:
/// `block = addr / block_bytes`, set `block % sets`, tag `block / sets`.
/// Both cache engines index sets through it, so they agree by
/// construction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SetIndex {
    /// Block size and set count are powers of two, as in every paper
    /// geometry: shifts and a mask.
    Pow2 { block_shift: u32, set_shift: u32, set_mask: u64 },
    /// Anything else: the exact divisions.
    Div { block_bytes: u64, sets: u64 },
}

impl SetIndex {
    pub(crate) fn new(geometry: &CacheGeometry) -> Self {
        let (block_bytes, sets) = (geometry.block_bytes as u64, geometry.sets() as u64);
        if block_bytes.is_power_of_two() && sets.is_power_of_two() {
            SetIndex::Pow2 {
                block_shift: block_bytes.trailing_zeros(),
                set_shift: sets.trailing_zeros(),
                set_mask: sets - 1,
            }
        } else {
            SetIndex::Div { block_bytes, sets }
        }
    }

    /// The set index and tag of `addr`.
    #[inline]
    pub(crate) fn split(self, addr: u64) -> (usize, u64) {
        match self {
            SetIndex::Pow2 { block_shift, set_shift, set_mask } => {
                let block = addr >> block_shift;
                ((block & set_mask) as usize, block >> set_shift)
            }
            SetIndex::Div { block_bytes, sets } => {
                let block = addr / block_bytes;
                ((block % sets) as usize, block / sets)
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    tag: u64,
    dirty: bool,
    recency: u64,
}

#[derive(Debug, Clone, Default)]
struct CacheSet {
    ways: Vec<Option<Block>>,
}

/// The complexity-adaptive two-level D-cache hierarchy.
///
/// See the [module documentation](self) for the model; see
/// [`crate::perf`] for turning its [`CacheStats`] into TPI.
#[derive(Debug, Clone)]
pub struct AdaptiveCacheHierarchy {
    geometry: CacheGeometry,
    index: SetIndex,
    boundary: Boundary,
    sets: Vec<CacheSet>,
    clock: u64,
    stats: CacheStats,
    /// Hits per physical way position (for the §4.1 asynchronous-design
    /// analysis: accesses served by near increments are faster).
    way_hits: Vec<u64>,
    /// Trailing increments taken out of service (fault model); their way
    /// positions hold no blocks and are never filled.
    dead_increments: usize,
}

impl AdaptiveCacheHierarchy {
    /// Creates the paper's 128 KB / 16-increment structure with the given
    /// initial boundary.
    pub fn isca98(boundary: Boundary) -> Self {
        Self::with_geometry(CacheGeometry::isca98(), boundary)
    }

    /// Creates a hierarchy over an arbitrary geometry, validating it
    /// first.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::Timing`] if the geometry fails
    /// [`CacheGeometry::validate`].
    pub fn try_with_geometry(
        geometry: CacheGeometry,
        boundary: Boundary,
    ) -> Result<Self, CacheError> {
        geometry.validate()?;
        let total_ways = geometry.increments * geometry.increment_assoc;
        let sets = (0..geometry.sets())
            .map(|_| CacheSet { ways: vec![None; total_ways] })
            .collect();
        Ok(AdaptiveCacheHierarchy {
            geometry,
            index: SetIndex::new(&geometry),
            boundary,
            sets,
            clock: 0,
            stats: CacheStats::new(),
            way_hits: vec![0; total_ways],
            dead_increments: 0,
        })
    }

    /// Creates a hierarchy over an arbitrary (validated) geometry — a
    /// convenience wrapper over
    /// [`AdaptiveCacheHierarchy::try_with_geometry`] for geometries known
    /// valid, such as [`CacheGeometry::isca98`].
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`CacheGeometry::validate`] — callers
    /// constructing custom geometries should prefer the fallible variant.
    pub fn with_geometry(geometry: CacheGeometry, boundary: Boundary) -> Self {
        Self::try_with_geometry(geometry, boundary).expect("invalid cache geometry")
    }

    /// The structure's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// The current L1/L2 boundary.
    pub fn boundary(&self) -> Boundary {
        self.boundary
    }

    /// Moves the L1/L2 boundary. Contents are untouched: blocks in
    /// re-labelled increments simply change level, per the paper's
    /// exclusive mapping rule. If increments have been retired, the
    /// effective L1 is clamped to the usable range (see
    /// [`AdaptiveCacheHierarchy::try_set_boundary`] for the checked
    /// variant).
    pub fn set_boundary(&mut self, boundary: Boundary) {
        self.boundary = boundary;
    }

    /// Moves the L1/L2 boundary, rejecting positions that would leave no
    /// usable L2 increment after dead increments are excluded.
    ///
    /// With no retired increments this accepts every valid [`Boundary`]
    /// and behaves exactly like
    /// [`AdaptiveCacheHierarchy::set_boundary`].
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidBoundary`] (with `increments` set to
    /// the usable count) if `boundary` needs more increments than remain
    /// in service.
    pub fn try_set_boundary(&mut self, boundary: Boundary) -> Result<(), CacheError> {
        let usable = self.usable_increments();
        if boundary.increments() >= usable {
            return Err(CacheError::InvalidBoundary { requested: boundary.increments(), increments: usable });
        }
        self.boundary = boundary;
        Ok(())
    }

    /// Takes the trailing `n` increments out of service, discarding any
    /// blocks they held (their data is lost — this models a hardware
    /// fault, not an orderly writeback). At least one increment always
    /// stays in service. Returns the number of usable increments left.
    ///
    /// Calling this again with a larger `n` retires more increments;
    /// a smaller `n` does not bring retired increments back.
    pub fn retire_increments(&mut self, n: usize) -> usize {
        let n = n.min(self.geometry.increments - 1);
        if n > self.dead_increments {
            self.dead_increments = n;
            let usable_ways = self.usable_ways();
            for set in &mut self.sets {
                for w in &mut set.ways[usable_ways..] {
                    *w = None;
                }
            }
        }
        self.usable_increments()
    }

    /// Increments currently in service.
    pub fn usable_increments(&self) -> usize {
        self.geometry.increments - self.dead_increments
    }

    /// Increments retired by [`AdaptiveCacheHierarchy::retire_increments`].
    pub fn dead_increments(&self) -> usize {
        self.dead_increments
    }

    fn usable_ways(&self) -> usize {
        self.usable_increments() * self.geometry.increment_assoc
    }

    /// Counters accumulated since construction or the last
    /// [`AdaptiveCacheHierarchy::reset_stats`].
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears the counters (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
        self.way_hits = vec![0; self.way_hits.len()];
    }

    /// Hits per physical way position since the last reset.
    ///
    /// Way `w` belongs to increment `w / increment_assoc`; increments
    /// closer to the cache port have shorter bus delays, which is what
    /// the paper's §4.1 asynchronous-design argument exploits.
    pub fn way_hit_histogram(&self) -> &[u64] {
        &self.way_hits
    }

    /// Hits per increment since the last reset (sums the way histogram).
    pub fn increment_hit_histogram(&self) -> Vec<u64> {
        self.way_hits
            .chunks(self.geometry.increment_assoc)
            .map(|c| c.iter().sum())
            .collect()
    }

    fn l1_ways(&self) -> usize {
        // The effective L1 never extends into retired increments.
        self.boundary.increments().min(self.usable_increments()) * self.geometry.increment_assoc
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Chooses the victim way within `ways[lo..hi]`: an empty way if one
    /// exists, else the least recently used.
    fn victim_in(set: &CacheSet, lo: usize, hi: usize) -> usize {
        let mut lru = lo;
        let mut lru_rec = u64::MAX;
        for (i, w) in set.ways[lo..hi].iter().enumerate() {
            match w {
                None => return lo + i,
                Some(b) if b.recency < lru_rec => {
                    lru_rec = b.recency;
                    lru = lo + i;
                }
                Some(_) => {}
            }
        }
        lru
    }

    /// Performs one reference and returns where it was satisfied.
    ///
    /// Stores mark the block dirty; dirty blocks evicted from the L2 side
    /// count as writebacks.
    pub fn access(&mut self, r: MemRef) -> AccessOutcome {
        let (set_idx, tag) = self.index.split(r.addr);
        let l1_ways = self.l1_ways();
        let dirty = r.kind == AccessKind::Write;

        let hit_way = self.sets[set_idx]
            .ways
            .iter()
            .position(|w| matches!(w, Some(b) if b.tag == tag));

        if let Some(w) = hit_way {
            self.way_hits[w] += 1;
        }
        let outcome = match hit_way {
            Some(w) if w < l1_ways => {
                let now = self.tick();
                let b = self.sets[set_idx].ways[w].as_mut().expect("hit way is occupied");
                b.recency = now;
                b.dirty |= dirty;
                AccessOutcome::L1Hit
            }
            Some(w) => {
                // L2 hit: swap with an L1 victim (exclusive promotion).
                let demote_rec = self.tick();
                let promote_rec = self.tick();
                let victim = Self::victim_in(&self.sets[set_idx], 0, l1_ways);
                let set = &mut self.sets[set_idx];
                let mut promoted = set.ways[w].take().expect("hit way is occupied");
                promoted.recency = promote_rec;
                promoted.dirty |= dirty;
                // The freed L2 slot receives the demoted L1 victim (if any).
                if let Some(mut demoted) = set.ways[victim].take() {
                    demoted.recency = demote_rec;
                    set.ways[w] = Some(demoted);
                }
                set.ways[victim] = Some(promoted);
                AccessOutcome::L2Hit
            }
            None => {
                // Miss: fill into L1, demoting the L1 victim into L2 and
                // possibly evicting the L2 LRU block. With every usable
                // increment labelled L1 (possible only in degraded
                // operation), the victim is evicted outright instead.
                let demote_rec = self.tick();
                let fill_rec = self.tick();
                let victim = Self::victim_in(&self.sets[set_idx], 0, l1_ways);
                let usable = self.usable_ways();
                let set = &mut self.sets[set_idx];
                if let Some(mut demoted) = set.ways[victim].take() {
                    if l1_ways < usable {
                        demoted.recency = demote_rec;
                        let slot = Self::victim_in(set, l1_ways, usable);
                        if let Some(evicted) = set.ways[slot].replace(demoted) {
                            if evicted.dirty {
                                self.stats.writebacks += 1;
                            }
                        }
                    } else if demoted.dirty {
                        self.stats.writebacks += 1;
                    }
                }
                set.ways[victim] = Some(Block { tag, dirty, recency: fill_rec });
                AccessOutcome::Miss
            }
        };
        self.stats.record(outcome);
        outcome
    }

    /// Looks up an address without disturbing replacement state.
    pub fn probe(&self, addr: u64) -> Option<Level> {
        let (set_idx, tag) = self.index.split(addr);
        let l1_ways = self.l1_ways();
        self.sets[set_idx]
            .ways
            .iter()
            .position(|w| matches!(w, Some(b) if b.tag == tag))
            .map(|w| if w < l1_ways { Level::L1 } else { Level::L2 })
    }

    /// Verifies the exclusion invariant: no tag appears twice in a set.
    pub fn check_exclusive(&self) -> bool {
        self.sets.iter().all(|set| {
            let mut tags: Vec<u64> = set.ways.iter().flatten().map(|b| b.tag).collect();
            let before = tags.len();
            tags.sort_unstable();
            tags.dedup();
            tags.len() == before
        })
    }

    /// A canonical snapshot of the resident blocks: sorted
    /// `(set, tag, dirty)` triples. Used to verify that boundary moves
    /// preserve contents exactly.
    pub fn contents_snapshot(&self) -> Vec<(usize, u64, bool)> {
        let mut v: Vec<(usize, u64, bool)> = self
            .sets
            .iter()
            .enumerate()
            .flat_map(|(i, set)| set.ways.iter().flatten().map(move |b| (i, b.tag, b.dirty)))
            .collect();
        v.sort_unstable();
        v
    }

    /// Number of resident blocks.
    pub fn resident_blocks(&self) -> usize {
        self.sets.iter().map(|s| s.ways.iter().flatten().count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_trace::mem::AccessKind::{Read, Write};

    fn rd(addr: u64) -> MemRef {
        MemRef { addr, kind: Read }
    }

    #[test]
    fn set_index_shifts_agree_with_the_divisions() {
        for geometry in [
            CacheGeometry::isca98(),
            CacheGeometry { block_bytes: 64, increment_bytes: 4096, ..CacheGeometry::isca98() },
        ] {
            let (block_bytes, sets) = (geometry.block_bytes as u64, geometry.sets() as u64);
            let fast = SetIndex::new(&geometry);
            assert!(matches!(fast, SetIndex::Pow2 { .. }));
            let exact = SetIndex::Div { block_bytes, sets };
            let mut addr = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..10_000 {
                addr = addr.rotate_left(7) ^ addr.wrapping_mul(0x2545_F491_4F6C_DD1D);
                assert_eq!(fast.split(addr), exact.split(addr), "address {addr:#x}");
            }
            assert_eq!(fast.split(u64::MAX), exact.split(u64::MAX));
        }
    }

    fn wr(addr: u64) -> MemRef {
        MemRef { addr, kind: Write }
    }

    fn cache(k: usize) -> AdaptiveCacheHierarchy {
        AdaptiveCacheHierarchy::isca98(Boundary::new(k).unwrap())
    }

    #[test]
    fn miss_then_l1_hit() {
        let mut c = cache(2);
        assert_eq!(c.access(rd(0x1000)), AccessOutcome::Miss);
        assert_eq!(c.access(rd(0x1000)), AccessOutcome::L1Hit);
        assert_eq!(c.access(rd(0x101F)), AccessOutcome::L1Hit, "same 32B block");
        assert_eq!(c.access(rd(0x1020)), AccessOutcome::Miss, "next block");
        assert_eq!(c.probe(0x1000), Some(Level::L1));
    }

    #[test]
    fn l1_eviction_demotes_to_l2_and_l2_hit_promotes() {
        let mut c = cache(1); // L1: 2 ways per set
        // Three blocks mapping to the same set (stride = sets * block = 4096).
        let a = 0x0000;
        let b = 0x1000;
        let d = 0x2000;
        c.access(rd(a));
        c.access(rd(b));
        c.access(rd(d)); // evicts LRU (a) from L1 into L2
        assert_eq!(c.probe(a), Some(Level::L2));
        assert_eq!(c.probe(b), Some(Level::L1));
        assert_eq!(c.probe(d), Some(Level::L1));
        // Touch a again: L2 hit, swaps with the L1 LRU (b).
        assert_eq!(c.access(rd(a)), AccessOutcome::L2Hit);
        assert_eq!(c.probe(a), Some(Level::L1));
        assert_eq!(c.probe(b), Some(Level::L2));
        assert!(c.check_exclusive());
    }

    #[test]
    fn lru_within_l1_respected() {
        let mut c = cache(1);
        let a = 0x0000;
        let b = 0x1000;
        c.access(rd(a));
        c.access(rd(b));
        c.access(rd(a)); // a is now MRU
        c.access(rd(0x2000)); // must evict b, not a
        assert_eq!(c.probe(a), Some(Level::L1));
        assert_eq!(c.probe(b), Some(Level::L2));
    }

    #[test]
    fn boundary_move_preserves_contents() {
        let mut c = cache(4);
        for i in 0..4000u64 {
            c.access(rd(i * 32 * 7 % (1 << 20)));
        }
        let before = c.contents_snapshot();
        c.set_boundary(Boundary::new(1).unwrap());
        assert_eq!(c.contents_snapshot(), before);
        c.set_boundary(Boundary::new(8).unwrap());
        assert_eq!(c.contents_snapshot(), before);
        assert!(c.check_exclusive());
    }

    #[test]
    fn boundary_move_relabels_levels() {
        let mut c = cache(1);
        let a = 0x0000;
        let b = 0x1000;
        let d = 0x2000;
        c.access(rd(a));
        c.access(rd(b));
        c.access(rd(d)); // a demoted to an L2 way
        assert_eq!(c.probe(a), Some(Level::L2));
        // Growing L1 to cover that way re-labels the block as L1.
        c.set_boundary(Boundary::new(8).unwrap());
        assert_eq!(c.probe(a), Some(Level::L1));
    }

    #[test]
    fn exclusion_holds_under_stress() {
        let mut c = cache(2);
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for i in 0..50_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Confine to 256 KB so the 128 KB structure churns.
            let addr = (x >> 16) % (256 * 1024);
            if i % 997 == 0 {
                let k = 1 + (x as usize % 15);
                c.set_boundary(Boundary::new(k).unwrap());
            }
            c.access(if x & 1 == 0 { rd(addr) } else { wr(addr) });
            if i % 4096 == 0 {
                assert!(c.check_exclusive());
            }
        }
        assert!(c.check_exclusive());
        assert!(c.stats().is_consistent());
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = cache(2);
        for i in 0..20_000u64 {
            c.access(rd(i * 32));
        }
        let max_blocks = 16 * 8 * 1024 / 32;
        assert!(c.resident_blocks() <= max_blocks);
        assert_eq!(c.resident_blocks(), max_blocks, "sweep should fill the structure");
    }

    #[test]
    fn writebacks_counted_on_dirty_eviction() {
        let mut c = cache(1);
        // Fill one set far beyond total ways (32) with writes.
        for i in 0..64u64 {
            c.access(wr(i * 4096));
        }
        assert!(c.stats().writebacks > 0);
        // Clean fills never write back.
        let mut c2 = cache(1);
        for i in 0..64u64 {
            c2.access(rd(i * 4096));
        }
        assert_eq!(c2.stats().writebacks, 0);
    }

    #[test]
    fn working_set_within_l1_eventually_all_hits() {
        let mut c = cache(2); // 16 KB L1
        let blocks = 8 * 1024 / 32; // 8 KB working set
        for _ in 0..2 {
            for i in 0..blocks {
                c.access(rd(i as u64 * 32));
            }
        }
        c.reset_stats();
        for _ in 0..3 {
            for i in 0..blocks {
                c.access(rd(i as u64 * 32));
            }
        }
        assert_eq!(c.stats().l1_hits, c.stats().refs, "resident set must hit");
    }

    #[test]
    fn working_set_fitting_l2_but_not_l1() {
        let mut c = cache(1); // 8 KB L1, 120 KB L2
        let blocks = 64 * 1024 / 32; // 64 KB working set, random-ish order
        for round in 0..6u64 {
            for i in 0..blocks {
                let j = (i * 17 + round as usize) % blocks;
                c.access(rd(j as u64 * 32));
            }
        }
        c.reset_stats();
        for i in 0..blocks {
            c.access(rd(((i * 29) % blocks) as u64 * 32));
        }
        let s = c.stats();
        assert_eq!(s.misses, 0, "64 KB set fits in the 128 KB structure");
        assert!(s.l2_hits > 0, "but not in the 8 KB L1");
    }

    #[test]
    fn retiring_increments_shrinks_capacity_and_drops_blocks() {
        let mut c = cache(2);
        for i in 0..20_000u64 {
            c.access(rd(i * 32));
        }
        let full = 16 * 8 * 1024 / 32;
        assert_eq!(c.resident_blocks(), full);
        assert_eq!(c.retire_increments(4), 12);
        assert_eq!(c.dead_increments(), 4);
        assert_eq!(c.resident_blocks(), 12 * 8 * 1024 / 32);
        assert!(c.check_exclusive());
        // The survivors keep serving; refills never use dead ways.
        for i in 0..20_000u64 {
            c.access(rd(i * 32));
        }
        assert!(c.resident_blocks() <= 12 * 8 * 1024 / 32);
        // Retiring fewer is a no-op; retiring everything leaves one.
        assert_eq!(c.retire_increments(2), 12);
        assert_eq!(c.retire_increments(100), 1);
    }

    #[test]
    fn boundary_clamps_to_usable_increments() {
        let mut c = cache(8); // nominal 64 KB L1
        c.retire_increments(12); // 4 increments (8 ways) survive
        let a = 0x0000;
        c.access(rd(a));
        // 9 distinct conflicting blocks overflow the 8 usable ways even
        // though the nominal L1 alone holds 16; the effective L1 covers
        // all 4 usable increments, so the victim is evicted outright.
        for i in 1..=8u64 {
            c.access(rd(i * 4096));
        }
        assert_eq!(c.probe(a), None, "evicted despite a nominal 16-way L1");
        assert!(c.check_exclusive());
    }

    #[test]
    fn degraded_demotion_counts_dirty_writebacks() {
        let mut c = cache(8);
        c.retire_increments(8); // usable 8 == boundary 8: L2 region empty
        for i in 0..32u64 {
            c.access(wr(i * 4096)); // one set, dirty fills far beyond 16 ways
        }
        assert!(c.stats().writebacks > 0, "discarded dirty victims must write back");
        assert!(c.check_exclusive());
    }

    #[test]
    fn try_set_boundary_respects_usable_range() {
        let mut c = cache(2);
        assert!(c.try_set_boundary(Boundary::new(15).unwrap()).is_ok());
        c.retire_increments(8);
        assert!(c.try_set_boundary(Boundary::new(7).unwrap()).is_ok());
        let err = c.try_set_boundary(Boundary::new(8).unwrap()).unwrap_err();
        assert!(matches!(err, CacheError::InvalidBoundary { requested: 8, increments: 8 }));
        assert_eq!(c.boundary().increments(), 7, "rejected move leaves boundary unchanged");
    }

    #[test]
    fn reset_stats_clears_counts_only() {
        let mut c = cache(2);
        c.access(rd(0));
        let before = c.contents_snapshot();
        c.reset_stats();
        assert_eq!(c.stats().refs, 0);
        assert_eq!(c.contents_snapshot(), before);
    }
}
