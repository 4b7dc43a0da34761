//! Single-pass multi-boundary sweeps (Mattson stack-distance counting).
//!
//! The paper's method replays the same address stream once per
//! boundary — 8 full traversals for Figure 7. But the
//! adaptive structure's replacement discipline makes every boundary's
//! counters recoverable from **one** traversal:
//!
//! Per set, the hierarchy maintains a true-LRU stack over all resident
//! blocks, *independent of where the boundary sits*:
//!
//! * the L1 region always holds the `2k` most recently referenced blocks
//!   of the set (an L1 hit refreshes recency; an L2 hit promotes the
//!   referenced block and demotes the L1's LRU; a miss fills over the L1's
//!   LRU, demoting it),
//! * blocks in the L2 region are never referenced while resident (a
//!   reference immediately promotes them out), so their recency order is
//!   exactly their demotion order — and blocks are demoted in global LRU
//!   order, so the L2-region victim chosen on a full-set miss is the
//!   set's globally least-recently-used block,
//! * a set evicts if and only if it is full (the L1 fills before any
//!   demotion can populate the L2 region), which depends only on the
//!   number of distinct blocks mapped to the set — not on the boundary,
//! * a block's dirty bit means "stored to since it entered the structure",
//!   which is likewise boundary-independent.
//!
//! Consequently a reference's outcome at boundary `k` is a pure function
//! of its **stack distance** `d` (its block's 1-based position in the
//! set's recency order, counted over all ways): an L1 hit when
//! `d <= 2k`, an L2 hit when `2k < d <= ways`, and a miss when the block
//! is not resident at all — the same classification for every boundary at
//! once. Misses, writebacks and total references are shared outright.
//! One traversal therefore yields bit-identical [`CacheStats`] — and,
//! via the shared [`evaluate`] arithmetic, bit-identical TPI — for every
//! boundary, which is what the differential properties in `cap-verify`
//! assert at scale.
//!
//! **Where the argument holds.** The reasoning above needs (a) a freshly
//! constructed, non-degraded structure — true for every sweep, which
//! builds a pristine hierarchy per leg — and (b) boundaries that leave at
//! least one increment of L2 (`k < increments`), so the per-boundary
//! simulator's degraded-operation clamp never fires
//! ([`one_pass_supported`]). A boundary outside (b) is possible only when
//! a 16-increment [`Boundary`] is applied to a smaller custom geometry,
//! and there both engines return the same error: the timing model's
//! cycle time rejects the boundary whatever the counters are. Counters
//! outside [`SweepPoint`] — the per-way hit histograms used by the §4.1
//! asynchronous-design analysis — are tied to physical way positions and
//! cannot be recovered from stack distances; callers needing them must
//! run the per-boundary path.

use crate::config::Boundary;
use crate::error::CacheError;
use crate::hierarchy::SetIndex;
use crate::perf::{evaluate, PerfParams};
use crate::sim::SweepPoint;
use crate::stats::CacheStats;
use cap_timing::cacti::{CacheGeometry, CacheTimingModel};
use cap_trace::mem::{AccessKind, AddressStream};

#[derive(Debug, Clone, Copy)]
struct StackBlock {
    tag: u64,
    dirty: bool,
}

/// The outcome-relevant record of one traversal: per-depth hit counts
/// plus the boundary-independent counters.
///
/// `depth_hits[d - 1]` counts references that hit at stack distance `d`
/// (1-based, over all ways of the set). [`StackProfile::stats_at`] folds
/// the histogram into the [`CacheStats`] of any L1 way count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackProfile {
    geometry: CacheGeometry,
    depth_hits: Vec<u64>,
    refs: u64,
    misses: u64,
    writebacks: u64,
}

impl StackProfile {
    /// Total references traversed.
    pub fn refs(&self) -> u64 {
        self.refs
    }

    /// The counters a per-boundary simulation with `l1_ways` L1 way
    /// positions would have produced.
    pub fn stats_at(&self, l1_ways: usize) -> CacheStats {
        let split = l1_ways.min(self.depth_hits.len());
        let l1_hits: u64 = self.depth_hits[..split].iter().sum();
        let l2_hits: u64 = self.depth_hits[split..].iter().sum();
        CacheStats {
            refs: self.refs,
            l1_hits,
            l2_hits,
            misses: self.misses,
            writebacks: self.writebacks,
        }
    }

    /// The sweep point of every boundary, evaluated with `timing`: the
    /// counters of [`StackProfile::stats_at`] at each boundary's L1 ways,
    /// priced by the shared [`evaluate`] arithmetic.
    ///
    /// One profile serves any number of timing models, such as one per
    /// technology node, as long as they share the geometry it was
    /// traversed with.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::GeometryMismatch`] if `timing` models a
    /// different geometry from the profile's, and propagates timing-model
    /// errors for out-of-range boundaries.
    pub fn points(
        &self,
        boundaries: impl IntoIterator<Item = Boundary>,
        timing: &CacheTimingModel,
        params: PerfParams,
    ) -> Result<Vec<SweepPoint>, CacheError> {
        let geometry = timing.geometry();
        if *geometry != self.geometry {
            return Err(CacheError::GeometryMismatch);
        }
        boundaries
            .into_iter()
            .map(|boundary| {
                let l1_ways =
                    boundary.increments().min(geometry.increments) * geometry.increment_assoc;
                let stats = self.stats_at(l1_ways);
                let tpi = evaluate(&stats, boundary, timing, params)?;
                Ok(SweepPoint { boundary, stats, tpi })
            })
            .collect()
    }
}

/// Runs `refs` references through per-set LRU stacks, producing the
/// stack-distance histogram and the boundary-independent counters.
///
/// One call replaces one full-trace simulation per boundary; the result
/// answers every boundary via [`StackProfile::stats_at`].
pub fn stack_profile<S: AddressStream>(
    mut stream: S,
    refs: u64,
    geometry: &CacheGeometry,
) -> StackProfile {
    let total_ways = geometry.increments * geometry.increment_assoc;
    let index = SetIndex::new(geometry);
    let mut stacks: Vec<Vec<StackBlock>> =
        (0..geometry.sets()).map(|_| Vec::with_capacity(total_ways)).collect();
    let mut profile = StackProfile {
        geometry: *geometry,
        depth_hits: vec![0; total_ways],
        refs,
        misses: 0,
        writebacks: 0,
    };

    for _ in 0..refs {
        let r = stream.next_ref();
        let (set, tag) = index.split(r.addr);
        let stack = &mut stacks[set];
        let dirty = r.kind == AccessKind::Write;
        match stack.iter().position(|b| b.tag == tag) {
            Some(depth) => {
                profile.depth_hits[depth] += 1;
                stack[..=depth].rotate_right(1);
                stack[0].dirty |= dirty;
            }
            None => {
                profile.misses += 1;
                if stack.len() == total_ways {
                    let evicted = stack.pop().expect("full stack pops its LRU");
                    if evicted.dirty {
                        profile.writebacks += 1;
                    }
                }
                stack.insert(0, StackBlock { tag, dirty });
            }
        }
    }
    profile
}

/// Whether the one-pass engine classifies every requested boundary the
/// way the per-boundary simulator does: each boundary must leave at least
/// one increment on the L2 side of this geometry (see the
/// [module documentation](self) for why the clamped regime is excluded;
/// there both engines return the timing model's error instead of points).
pub fn one_pass_supported(geometry: &CacheGeometry, boundaries: &[Boundary]) -> bool {
    boundaries.iter().all(|b| b.increments() < geometry.increments)
}

/// Simulates every boundary from a single traversal of `stream` — the
/// one-pass equivalent of a fresh hierarchy per boundary, bit-identical
/// on every [`SweepPoint`], and the same error where that returns one.
///
/// # Errors
///
/// Propagates timing-model errors for out-of-range boundaries.
pub fn multisweep<S: AddressStream>(
    stream: S,
    refs: u64,
    boundaries: impl IntoIterator<Item = Boundary>,
    timing: &CacheTimingModel,
    params: PerfParams,
) -> Result<Vec<SweepPoint>, CacheError> {
    stack_profile(stream, refs, timing.geometry()).points(boundaries, timing, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::AdaptiveCacheHierarchy;
    use crate::sim::run;
    use cap_timing::Technology;
    use cap_trace::mem::{Region, RegionMix};

    fn timing() -> CacheTimingModel {
        CacheTimingModel::isca98(Technology::isca98_evaluation())
    }

    /// The per-boundary reference: a fresh hierarchy per boundary, each
    /// reading a clone of `pristine`.
    fn sweep(
        pristine: &RegionMix,
        refs: u64,
        boundaries: Vec<Boundary>,
        timing: &CacheTimingModel,
        params: PerfParams,
    ) -> Result<Vec<SweepPoint>, CacheError> {
        let point = |boundary| {
            let mut cache = AdaptiveCacheHierarchy::try_with_geometry(*timing.geometry(), boundary)?;
            let stats = run(pristine.clone(), refs, &mut cache);
            Ok(SweepPoint { boundary, stats, tpi: evaluate(&stats, boundary, timing, params)? })
        };
        boundaries.into_iter().map(point).collect()
    }

    fn mixed_stream(seed: u64) -> RegionMix {
        RegionMix::builder(seed)
            .region(Region::sequential_loop(0, 24 * 1024, 32), 3.0)
            .region(Region::random(1 << 22, 192 * 1024), 2.0)
            .region(Region::pointer_chase(1 << 24, 64 * 1024), 1.0)
            .build()
            .unwrap()
    }

    fn all_boundaries() -> Vec<Boundary> {
        (1..16).map(|k| Boundary::new(k).unwrap()).collect()
    }

    #[test]
    fn matches_legacy_sweep_bit_for_bit_on_all_16_boundaries() {
        let pristine = mixed_stream(11);
        let refs = 60_000;
        let params = PerfParams::isca98(3.0);
        let legacy = sweep(&pristine, refs, all_boundaries(), &timing(), params).unwrap();
        let onepass =
            multisweep(pristine.clone(), refs, all_boundaries(), &timing(), params).unwrap();
        assert_eq!(legacy.len(), onepass.len());
        for (a, b) in legacy.iter().zip(&onepass) {
            assert_eq!(a.boundary, b.boundary);
            assert_eq!(a.stats, b.stats, "counters differ at {}", a.boundary);
            assert_eq!(
                a.tpi.total_tpi().value().to_bits(),
                b.tpi.total_tpi().value().to_bits(),
                "TPI bits differ at {}",
                a.boundary
            );
            assert_eq!(a.tpi.miss_tpi.value().to_bits(), b.tpi.miss_tpi.value().to_bits());
        }
    }

    #[test]
    fn matches_legacy_on_write_heavy_thrashing_stream() {
        // Heavy capacity pressure with many stores exercises the shared
        // writeback counter.
        let pristine = RegionMix::builder(5)
            .region(Region::random(0, 512 * 1024).with_write_frac(0.9), 1.0)
            .build()
            .unwrap();
        let params = PerfParams::isca98(2.5);
        let legacy = sweep(&pristine, 40_000, all_boundaries(), &timing(), params).unwrap();
        let onepass =
            multisweep(pristine.clone(), 40_000, all_boundaries(), &timing(), params).unwrap();
        for (a, b) in legacy.iter().zip(&onepass) {
            assert_eq!(a.stats, b.stats, "counters differ at {}", a.boundary);
            assert!(a.stats.writebacks > 0, "stress stream must write back");
        }
    }

    #[test]
    fn stack_profile_counters_are_consistent() {
        let p = stack_profile(mixed_stream(3), 30_000, &CacheGeometry::isca98());
        assert_eq!(p.refs(), 30_000);
        let hits: u64 = p.depth_hits.iter().sum();
        assert_eq!(hits + p.misses, 30_000);
        for l1_ways in [2usize, 16, 30] {
            assert!(p.stats_at(l1_ways).is_consistent());
        }
    }

    #[test]
    fn deeper_split_never_decreases_l1_hits() {
        let p = stack_profile(mixed_stream(9), 30_000, &CacheGeometry::isca98());
        let mut prev = 0;
        for l1_ways in 1..=32 {
            let s = p.stats_at(l1_ways);
            assert!(s.l1_hits >= prev, "l1 hits must be monotone in the split");
            assert_eq!(s.l1_hits + s.l2_hits, 30_000 - s.misses);
            prev = s.l1_hits;
        }
    }

    #[test]
    fn profile_agrees_with_one_simulated_boundary() {
        // Cross-check stats_at against an actual hierarchy run, not just
        // the sweep wrapper.
        let geometry = CacheGeometry::isca98();
        let p = stack_profile(mixed_stream(7), 50_000, &geometry);
        for k in [1usize, 4, 8, 15] {
            let boundary = Boundary::new(k).unwrap();
            let mut cache = AdaptiveCacheHierarchy::with_geometry(geometry, boundary);
            let simulated = run(mixed_stream(7), 50_000, &mut cache);
            assert_eq!(p.stats_at(k * 2), simulated, "boundary {k}");
        }
    }

    #[test]
    fn non_power_of_two_sets_match_the_hierarchy_at_every_boundary() {
        // Three ways per increment give 85 sets, so both engines take the
        // exact division path; they must still agree at every boundary.
        let geometry = CacheGeometry { increment_assoc: 3, ..CacheGeometry::isca98() };
        assert_eq!(geometry.sets(), 85);
        assert!(matches!(SetIndex::new(&geometry), SetIndex::Div { .. }));
        let p = stack_profile(mixed_stream(4), 30_000, &geometry);
        for k in 1..geometry.increments {
            let boundary = Boundary::for_geometry(k, &geometry).unwrap();
            let mut cache = AdaptiveCacheHierarchy::with_geometry(geometry, boundary);
            let simulated = run(mixed_stream(4), 30_000, &mut cache);
            assert_eq!(p.stats_at(k * 3), simulated, "boundary {k}");
        }
        assert!(p.misses > 0 && p.misses < 30_000);
    }

    #[test]
    fn clamped_custom_geometry_errs_like_the_per_boundary_sweep() {
        // A 16-increment boundary applied to a 4-increment geometry
        // reaches the per-boundary simulator's clamped regime. There the
        // one-pass engine must return the same timing-model rejection.
        let mut geometry = CacheGeometry::isca98();
        geometry.increments = 4;
        let timing = CacheTimingModel::new(geometry, Technology::isca98_evaluation()).unwrap();
        let boundaries = vec![Boundary::new(2).unwrap(), Boundary::new(6).unwrap()];
        assert!(!one_pass_supported(&geometry, &boundaries));
        let pristine = mixed_stream(2);
        let params = PerfParams::isca98(3.0);
        let legacy =
            sweep(&pristine, 20_000, boundaries.clone(), &timing, params).unwrap_err();
        let onepass =
            multisweep(pristine.clone(), 20_000, boundaries, &timing, params).unwrap_err();
        assert_eq!(legacy, onepass);

        // In-range boundaries on the same custom geometry match the
        // per-boundary counters.
        let ok = vec![Boundary::for_geometry(1, &geometry).unwrap(), Boundary::for_geometry(3, &geometry).unwrap()];
        assert!(one_pass_supported(&geometry, &ok));
        let legacy = sweep(&pristine, 20_000, ok.clone(), &timing, params).unwrap();
        let onepass = multisweep(pristine.clone(), 20_000, ok, &timing, params).unwrap();
        assert_eq!(legacy, onepass);
    }

    #[test]
    fn points_reject_a_timing_model_of_another_geometry() {
        let p = stack_profile(mixed_stream(6), 5_000, &CacheGeometry::isca98());
        let mut geometry = CacheGeometry::isca98();
        geometry.increments = 8;
        let other = CacheTimingModel::new(geometry, Technology::isca98_evaluation()).unwrap();
        let params = PerfParams::isca98(3.0);
        assert_eq!(
            p.points(Boundary::paper_sweep(), &other, params),
            Err(CacheError::GeometryMismatch)
        );
        assert_eq!(p.points(Boundary::paper_sweep(), &timing(), params).unwrap().len(), 8);
    }

    #[test]
    fn one_pass_supported_accepts_paper_setup() {
        let boundaries: Vec<Boundary> = Boundary::paper_sweep().collect();
        assert!(one_pass_supported(&CacheGeometry::isca98(), &boundaries));
        assert!(one_pass_supported(&CacheGeometry::isca98(), &all_boundaries()));
    }

    #[test]
    fn multisweep_matches_sweep_point_per_leg() {
        let pristine = mixed_stream(13);
        let params = PerfParams::isca98(3.0);
        let points =
            multisweep(pristine.clone(), 30_000, Boundary::paper_sweep(), &timing(), params)
                .unwrap();
        assert_eq!(points.len(), 8);
        for p in &points {
            let legacy = &sweep(&pristine, 30_000, vec![p.boundary], &timing(), params).unwrap()[0];
            assert_eq!(p.stats, legacy.stats);
            assert_eq!(
                p.tpi.total_tpi().value().to_bits(),
                legacy.tpi.total_tpi().value().to_bits()
            );
        }
    }
}
