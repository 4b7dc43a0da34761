//! A complexity-adaptive TLB with primary and backup sections: the cache
//! hierarchy's one-set geometry.
//!
//! The paper names TLBs as prime complexity-adaptive candidates and
//! sketches their organization (§4.2): instead of disabling elements,
//! the structure "may consist of single and two cycle lookup elements" —
//! a fast **primary** section sized to the cycle budget, backed by the
//! remaining entries as a slower **backup** section. The boundary
//! between the sections is movable, and entries keep their contents when
//! the split moves.
//!
//! That is the exclusive L1/L2 structure of [`crate::hierarchy`] with a
//! single set. [`geometry`] lays the 128 entries out as 8 increments of
//! 16 ways with page-sized blocks, so the primary section is the L1 and
//! the backup section is the L2:
//!
//! * a hit in the primary section costs the pipelined single-cycle (or
//!   however many cycles the primary's CAM delay needs at the current
//!   clock) lookup;
//! * a hit in the backup section costs a second, full-length lookup and
//!   swaps the entry with the primary's LRU entry (exclusive promotion);
//! * a miss costs a page walk, and demotes the primary's LRU entry to
//!   the backup.
//!
//! [`AdaptiveCacheHierarchy`](crate::hierarchy::AdaptiveCacheHierarchy)
//! on [`geometry`] is therefore the TLB, at every split that leaves a
//! backup section. [`sweep`] reproduces, for the TLB, the same
//! process-level adaptive study the paper runs for the cache and the
//! queue: one stack-distance pass over that geometry
//! ([`stack_profile`]) answers every split, including the all-primary
//! one, which is a plain 128-entry LRU TLB.

use crate::error::CacheError;
use crate::multisweep::stack_profile;
use crate::stats::CacheStats;
use cap_timing::cacti::CacheGeometry;
use cap_timing::cam::CamTimingModel;
use cap_timing::units::Ns;
use cap_trace::mem::AddressStream;
use std::fmt;

/// Bytes per page.
pub const PAGE_BYTES: u64 = 4096;

/// Total entries in the adaptive TLB structure.
pub const TOTAL_ENTRIES: usize = 128;

/// The section increment: the primary/backup split moves in steps of 16
/// entries (the repeater-isolated group size).
pub const ENTRY_INCREMENT: usize = 16;

/// Page-walk latency on a full miss, in cycles.
pub const WALK_CYCLES: u64 = 30;

/// The TLB as a cache geometry: one set of [`TOTAL_ENTRIES`] ways, in
/// increments of [`ENTRY_INCREMENT`] ways, with one page per block.
pub fn geometry() -> CacheGeometry {
    let page_bytes = PAGE_BYTES as usize;
    CacheGeometry {
        increments: TOTAL_ENTRIES / ENTRY_INCREMENT,
        increment_bytes: ENTRY_INCREMENT * page_bytes,
        increment_assoc: ENTRY_INCREMENT,
        banks: 1,
        block_bytes: page_bytes,
    }
}

/// The primary/backup split: the number of entries in the fast primary
/// section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TlbConfig(usize);

impl TlbConfig {
    /// Creates a split with the given number of primary entries.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidBoundary`] unless the size is a
    /// positive multiple of 16 no larger than the full structure.
    pub fn new(primary_entries: usize) -> Result<Self, CacheError> {
        if primary_entries == 0
            || !primary_entries.is_multiple_of(ENTRY_INCREMENT)
            || primary_entries > TOTAL_ENTRIES
        {
            return Err(CacheError::InvalidBoundary {
                requested: primary_entries,
                increments: TOTAL_ENTRIES / ENTRY_INCREMENT,
            });
        }
        Ok(TlbConfig(primary_entries))
    }

    /// Entries in the primary (fast) section.
    pub fn primary(self) -> usize {
        self.0
    }

    /// Entries in the backup section.
    pub fn backup(self) -> usize {
        TOTAL_ENTRIES - self.0
    }

    /// All legal splits (16, 32, ..., 128 primary entries).
    pub fn sweep() -> impl Iterator<Item = TlbConfig> {
        (1..=TOTAL_ENTRIES / ENTRY_INCREMENT).map(|i| TlbConfig(i * ENTRY_INCREMENT))
    }
}

impl fmt::Display for TlbConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{} TLB", self.primary(), self.backup())
    }
}

/// The TLB's contribution to TPI at a given split, clock and reference
/// density.
///
/// The primary lookup is pipelined; its baseline single cycle is part of
/// the load pipeline, so only *extra* cycles are charged: a primary
/// lookup that no longer fits one cycle charges the overflow on every
/// access, a backup hit charges a second (full-structure) lookup, and a
/// miss charges the walk on top.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TlbTpi {
    /// Cycles a primary lookup takes at this split and clock.
    pub primary_cycles: u64,
    /// Cycles a backup hit takes in total.
    pub backup_cycles: u64,
    /// The TLB-induced time per instruction (ns).
    pub tpi_ns: f64,
}

/// Evaluates [`TlbTpi`] from the counters of a run over [`geometry`]:
/// `refs` are the lookups, L1 hits the primary section's hits and L2
/// hits the backup section's.
///
/// # Errors
///
/// Propagates CAM-timing errors.
pub fn evaluate(
    stats: &CacheStats,
    config: TlbConfig,
    cam: &CamTimingModel,
    cycle: Ns,
    insts_per_ref: f64,
) -> Result<TlbTpi, CacheError> {
    let primary_cycles = (cam.lookup_delay(config.primary())? / cycle).ceil().max(1.0) as u64;
    let full_cycles = (cam.lookup_delay(TOTAL_ENTRIES)? / cycle).ceil().max(1.0) as u64;
    let backup_cycles = primary_cycles + full_cycles;
    let extra_per_access = (primary_cycles - 1) as f64;
    let total_extra = stats.refs as f64 * extra_per_access
        + stats.l2_hits as f64 * full_cycles as f64
        + stats.misses as f64 * (full_cycles + WALK_CYCLES) as f64;
    let instructions = stats.refs as f64 * insts_per_ref;
    let tpi_ns = if instructions > 0.0 { cycle.value() * total_extra / instructions } else { 0.0 };
    Ok(TlbTpi { primary_cycles, backup_cycles, tpi_ns })
}

/// One point of a TLB split sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TlbSweepPoint {
    /// The split simulated.
    pub config: TlbConfig,
    /// Counters: L1 is the primary section, L2 the backup.
    pub stats: CacheStats,
    /// The TLB TPI contribution.
    pub tpi: TlbTpi,
}

/// Runs one reference stream at every split (process-level adaptive
/// methodology, applied to the TLB), from one stack-distance pass over
/// [`geometry`].
///
/// # Errors
///
/// Propagates CAM-timing errors.
pub fn sweep<S: AddressStream>(
    stream: S,
    refs: u64,
    cam: &CamTimingModel,
    cycle: Ns,
    insts_per_ref: f64,
) -> Result<Vec<TlbSweepPoint>, CacheError> {
    let profile = stack_profile(stream, refs, &geometry());
    TlbConfig::sweep()
        .map(|config| {
            let stats = profile.stats_at(config.primary());
            let tpi = evaluate(&stats, config, cam, cycle, insts_per_ref)?;
            Ok(TlbSweepPoint { config, stats, tpi })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Boundary;
    use crate::hierarchy::AdaptiveCacheHierarchy;
    use crate::stats::AccessOutcome;
    use cap_timing::Technology;
    use cap_trace::mem::{AccessKind, MemRef, Region, RegionMix};

    fn cam() -> CamTimingModel {
        CamTimingModel::tlb(Technology::isca98_evaluation())
    }

    fn page(p: u64) -> MemRef {
        MemRef { addr: p * PAGE_BYTES, kind: AccessKind::Read }
    }

    fn one_page_mix(seed: u64, pages: u64) -> RegionMix {
        RegionMix::builder(seed).region(Region::random(0, pages * PAGE_BYTES), 1.0).build().unwrap()
    }

    fn best(points: &[TlbSweepPoint]) -> &TlbSweepPoint {
        points.iter().min_by(|a, b| a.tpi.tpi_ns.total_cmp(&b.tpi.tpi_ns)).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(TlbConfig::new(0).is_err());
        assert!(TlbConfig::new(8).is_err());
        assert!(TlbConfig::new(144).is_err());
        let c = TlbConfig::new(32).unwrap();
        assert_eq!(c.primary(), 32);
        assert_eq!(c.backup(), 96);
        assert_eq!(TlbConfig::sweep().count(), 8);
        assert_eq!(c.to_string(), "32+96 TLB");
    }

    #[test]
    fn geometry_is_one_set_of_every_entry() {
        let g = geometry();
        assert!(g.validate().is_ok());
        assert_eq!(g.sets(), 1);
        assert_eq!(g.increments * g.increment_assoc, TOTAL_ENTRIES);
        assert_eq!(g.l1_assoc(2), 32, "two increments are a 32-entry primary");
    }

    #[test]
    fn hit_miss_promote() {
        let mut tlb = AdaptiveCacheHierarchy::with_geometry(
            geometry(),
            Boundary::for_geometry(1, &geometry()).unwrap(),
        );
        assert_eq!(tlb.access(page(1)), AccessOutcome::Miss);
        let same_page = MemRef { addr: 0x1FFF, kind: AccessKind::Read };
        assert_eq!(tlb.access(same_page), AccessOutcome::L1Hit, "same page");
        // Fill the 16-entry primary with other pages; page 1 is demoted
        // to the backup, then promoted on re-access.
        for p in 2..=17u64 {
            tlb.access(page(p));
        }
        assert_eq!(tlb.access(page(1)), AccessOutcome::L2Hit);
        assert_eq!(tlb.access(page(1)), AccessOutcome::L1Hit);
        assert!(tlb.check_exclusive());
    }

    #[test]
    fn small_working_set_prefers_small_primary() {
        // 12 hot pages: they fit any primary; a small primary keeps the
        // single-cycle lookup fast.
        let points = sweep(one_page_mix(1, 12), 30_000, &cam(), Ns(0.60), 3.0).unwrap();
        let best = best(&points);
        assert!(best.config.primary() <= 32, "best was {}", best.config);
    }

    #[test]
    fn wide_working_set_prefers_large_primary() {
        // ~100 hot pages at a fast clock: a big primary avoids constant
        // backup swapping; the extra primary lookup cycles are cheap
        // relative to the second lookup on every backup hit.
        let points = sweep(one_page_mix(2, 100), 60_000, &cam(), Ns(0.60), 3.0).unwrap();
        let best = best(&points);
        assert!(best.config.primary() >= 64, "best was {}", best.config);
        // And the small split is measurably worse.
        let small = &points[0];
        assert!(small.tpi.tpi_ns > best.tpi.tpi_ns * 1.3);
    }

    #[test]
    fn working_set_under_one_increment_misses_only_cold() {
        // 12 pages fit the smallest primary: after the 12 cold misses,
        // every split serves every lookup from its primary.
        let points = sweep(one_page_mix(3, 12), 20_000, &cam(), Ns(0.60), 3.0).unwrap();
        assert_eq!(points.len(), 8);
        for p in &points {
            let s = p.stats;
            assert_eq!(s.misses, 12, "{}", p.config);
            assert_eq!(s.l2_hits, 0, "{}", p.config);
            assert_eq!(s.l1_hits, 20_000 - 12, "{}", p.config);
        }
    }

    #[test]
    fn all_primary_split_is_a_128_entry_lru() {
        // 200 pages cycle through a 128-entry structure: with no backup
        // section, every lookup is a primary hit or a page walk, and the
        // walks are the same as at every other split.
        let points = sweep(one_page_mix(4, 200), 40_000, &cam(), Ns(0.60), 3.0).unwrap();
        let all = points.last().unwrap();
        assert_eq!(all.config.primary(), TOTAL_ENTRIES);
        assert_eq!(all.stats.l2_hits, 0);
        assert!(all.stats.misses > 200, "capacity misses occur");
        for p in &points {
            assert_eq!(p.stats.misses, all.stats.misses, "{}", p.config);
            assert_eq!(p.stats.l1_hits + p.stats.l2_hits, all.stats.l1_hits, "{}", p.config);
        }
    }

    #[test]
    fn evaluate_charges_the_right_components() {
        let cam = cam();
        let cycle = Ns(0.60);
        let stats = CacheStats { refs: 1000, l1_hits: 900, l2_hits: 80, misses: 20, writebacks: 0 };
        let t = evaluate(&stats, TlbConfig::new(16).unwrap(), &cam, cycle, 3.0).unwrap();
        assert!(t.primary_cycles >= 1);
        assert!(t.backup_cycles > t.primary_cycles);
        assert!(t.tpi_ns > 0.0);
        // No backup hits, no misses, one-cycle primary => zero extra.
        let clean = CacheStats { refs: 1000, l1_hits: 1000, l2_hits: 0, misses: 0, writebacks: 0 };
        let t = evaluate(&clean, TlbConfig::new(16).unwrap(), &cam, Ns(1.2), 3.0).unwrap();
        assert_eq!(t.tpi_ns, 0.0);
    }
}
