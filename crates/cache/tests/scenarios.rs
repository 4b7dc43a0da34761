//! Directed scenario tests of the exclusive adaptive hierarchy: access
//! patterns with fully analyzable outcomes, plus property tests of the
//! structural invariants.

use cap_cache::config::Boundary;
use cap_cache::hierarchy::{AdaptiveCacheHierarchy, Level};
use cap_cache::stats::AccessOutcome;
use cap_cache::tlb::{self, PAGE_BYTES, TOTAL_ENTRIES};
use cap_trace::mem::{AccessKind, MemRef};
use proptest::prelude::*;

fn rd(addr: u64) -> MemRef {
    MemRef { addr, kind: AccessKind::Read }
}

fn wr(addr: u64) -> MemRef {
    MemRef { addr, kind: AccessKind::Write }
}

/// Addresses mapping to set 0: multiples of sets*block = 128*32 = 4096.
fn set0(way: u64) -> u64 {
    way * 4096
}

#[test]
fn exclusive_swap_chain() {
    // Fill L1 (2 ways at boundary 1), then walk a chain of L2
    // promotions: every re-access of a demoted block must (a) hit in L2,
    // (b) land it in L1, (c) demote exactly one other block.
    let mut c = AdaptiveCacheHierarchy::isca98(Boundary::new(1).unwrap());
    for i in 0..8 {
        assert_eq!(c.access(rd(set0(i))), AccessOutcome::Miss);
    }
    // 8 blocks live: 2 in L1, 6 in L2 (capacity 32 ways total in set 0).
    assert_eq!(c.resident_blocks(), 8);
    let l1_count = (0..8).filter(|&i| c.probe(set0(i)) == Some(Level::L1)).count();
    assert_eq!(l1_count, 2);
    for round in 0..20 {
        let target = set0(round % 8);
        let outcome = c.access(rd(target));
        assert_ne!(outcome, AccessOutcome::Miss, "round {round}: blocks never leave the set");
        assert_eq!(c.probe(target), Some(Level::L1), "accessed block is now L1");
        let l1_count = (0..8).filter(|&i| c.probe(set0(i)) == Some(Level::L1)).count();
        assert_eq!(l1_count, 2, "L1 way count is invariant");
        assert!(c.check_exclusive());
    }
}

#[test]
fn associativity_grows_with_boundary() {
    // 6 conflicting blocks: at boundary 1 (2-way L1) they churn through
    // L2; at boundary 3 (6-way L1) they all fit as L1 hits.
    let run = |k: usize| {
        let mut c = AdaptiveCacheHierarchy::isca98(Boundary::new(k).unwrap());
        for _ in 0..5 {
            for i in 0..6 {
                c.access(rd(set0(i)));
            }
        }
        c.reset_stats();
        for _ in 0..5 {
            for i in 0..6 {
                c.access(rd(set0(i)));
            }
        }
        c.stats()
    };
    let narrow = run(1);
    let wide = run(3);
    assert_eq!(wide.l1_hits, wide.refs, "6 blocks fit a 6-way L1");
    assert!(narrow.l2_hits > 0, "but churn a 2-way L1");
    assert_eq!(narrow.misses, 0, "all stay within the structure");
}

#[test]
fn writeback_only_for_dirty_evictions() {
    let mut c = AdaptiveCacheHierarchy::isca98(Boundary::new(1).unwrap());
    // 32 ways per set: the 33rd distinct block evicts the LRU.
    for i in 0..33 {
        c.access(rd(set0(i)));
    }
    assert_eq!(c.stats().writebacks, 0, "clean evictions are silent");

    let mut c = AdaptiveCacheHierarchy::isca98(Boundary::new(1).unwrap());
    c.access(wr(set0(0)));
    for i in 1..33 {
        c.access(rd(set0(i)));
    }
    assert_eq!(c.stats().writebacks, 1, "the dirty block was evicted last");
}

#[test]
fn boundary_shrink_then_grow_roundtrip_preserves_hits() {
    // Train at a large boundary, bounce to a small one and back: the
    // working set is still resident and hits immediately.
    let mut c = AdaptiveCacheHierarchy::isca98(Boundary::new(8).unwrap());
    for i in 0..256u64 {
        c.access(rd(i * 32));
    }
    c.set_boundary(Boundary::new(1).unwrap());
    c.set_boundary(Boundary::new(8).unwrap());
    c.reset_stats();
    for i in 0..256u64 {
        c.access(rd(i * 32));
    }
    assert_eq!(c.stats().l1_hits, 256);
}

/// The adaptive TLB: the hierarchy over the TLB's one-set geometry,
/// with `k` increments of 16 entries in the primary section.
fn tlb_at(k: usize) -> AdaptiveCacheHierarchy {
    AdaptiveCacheHierarchy::try_with_geometry(tlb::geometry(), tlb_split(k)).unwrap()
}

fn tlb_split(k: usize) -> Boundary {
    Boundary::for_geometry(k, &tlb::geometry()).unwrap()
}

#[test]
fn tlb_backup_section_behaves_like_l2() {
    let mut t = tlb_at(1);
    // 20 pages: 16 in primary, 4 demoted.
    for p in 0..20u64 {
        assert_eq!(t.access(rd(p * PAGE_BYTES)), AccessOutcome::Miss);
    }
    assert_eq!(t.resident_blocks(), 20);
    let s0 = t.stats();
    assert_eq!(s0.misses, 20);
    // Touch everything again: no page walk may occur.
    for p in 0..20u64 {
        let o = t.access(rd(p * PAGE_BYTES));
        assert_ne!(o, AccessOutcome::Miss, "page {p}");
    }
    assert_eq!(t.stats().misses, 20, "no new walks");
    assert!(t.stats().l2_hits >= 4, "the demoted pages came from backup");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any single-set access sequence, the set never holds more
    /// blocks than its total ways, exclusion holds, and outcomes are
    /// deterministic under replay.
    #[test]
    fn single_set_invariants(ways in prop::collection::vec(0u64..64, 50..300), k in 1usize..16) {
        let run = || {
            let mut c = AdaptiveCacheHierarchy::isca98(Boundary::new(k).unwrap());
            let outs: Vec<AccessOutcome> = ways.iter().map(|&w| c.access(rd(set0(w)))).collect();
            (outs, c.contents_snapshot(), c.stats())
        };
        let (outs_a, snap_a, stats_a) = run();
        let (outs_b, snap_b, stats_b) = run();
        prop_assert_eq!(outs_a, outs_b);
        prop_assert_eq!(snap_a.clone(), snap_b);
        prop_assert_eq!(stats_a, stats_b);
        prop_assert!(snap_a.len() <= 32);
        prop_assert!(stats_a.is_consistent());
    }

    /// TLB exclusion and capacity hold for arbitrary page streams and
    /// split moves (every split that leaves a backup section).
    #[test]
    fn tlb_invariants(
        pages in prop::collection::vec(0u64..400, 100..500),
        splits in prop::collection::vec(1usize..8, 1..4),
    ) {
        let mut t = tlb_at(4);
        let chunk = (pages.len() / splits.len()).max(1);
        for (i, &p) in pages.iter().enumerate() {
            if i % chunk == 0 {
                t.set_boundary(tlb_split(splits[(i / chunk) % splits.len()]));
            }
            t.access(rd(p * PAGE_BYTES));
        }
        prop_assert!(t.check_exclusive());
        prop_assert!(t.resident_blocks() <= TOTAL_ENTRIES);
        let s = t.stats();
        prop_assert_eq!(s.refs as usize, pages.len());
        prop_assert!(s.is_consistent());
    }

    /// A second touch of the same address is always an L1 hit, at any
    /// boundary, regardless of history.
    #[test]
    fn immediate_reuse_hits(history in prop::collection::vec(0u64..100_000, 0..200), addr in 0u64..100_000, k in 1usize..16) {
        let mut c = AdaptiveCacheHierarchy::isca98(Boundary::new(k).unwrap());
        for &h in &history {
            c.access(rd(h * 32));
        }
        c.access(rd(addr * 32));
        prop_assert_eq!(c.access(rd(addr * 32)), AccessOutcome::L1Hit);
    }
}
