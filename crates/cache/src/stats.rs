//! Access-outcome accounting for the cache hierarchy.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Where a reference was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// Hit in an L1 increment.
    L1Hit,
    /// Missed L1, hit in an L2 increment (block swapped up).
    L2Hit,
    /// Missed both levels (fetched from the board-level cache / memory).
    Miss,
}

/// Counters accumulated while simulating an address stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total references observed.
    pub refs: u64,
    /// References that hit in L1.
    pub l1_hits: u64,
    /// References that missed L1 but hit in L2.
    pub l2_hits: u64,
    /// References that missed both levels.
    pub misses: u64,
    /// Dirty blocks evicted from the structure (writebacks to memory).
    pub writebacks: u64,
}

impl CacheStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one outcome.
    pub fn record(&mut self, outcome: AccessOutcome) {
        self.refs += 1;
        match outcome {
            AccessOutcome::L1Hit => self.l1_hits += 1,
            AccessOutcome::L2Hit => self.l2_hits += 1,
            AccessOutcome::Miss => self.misses += 1,
        }
    }

    /// L1 miss ratio: references not satisfied by L1.
    pub fn l1_miss_ratio(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            (self.l2_hits + self.misses) as f64 / self.refs as f64
        }
    }

    /// Global miss ratio: references satisfied by neither level.
    pub fn global_miss_ratio(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.misses as f64 / self.refs as f64
        }
    }

    /// Local L2 miss ratio: L1 misses that also missed L2.
    pub fn l2_local_miss_ratio(&self) -> f64 {
        let l1m = self.l2_hits + self.misses;
        if l1m == 0 {
            0.0
        } else {
            self.misses as f64 / l1m as f64
        }
    }

    /// Internal consistency: counters partition the references.
    pub fn is_consistent(&self) -> bool {
        self.l1_hits + self.l2_hits + self.misses == self.refs
    }
}

impl Add for CacheStats {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        CacheStats {
            refs: self.refs + rhs.refs,
            l1_hits: self.l1_hits + rhs.l1_hits,
            l2_hits: self.l2_hits + rhs.l2_hits,
            misses: self.misses + rhs.misses,
            writebacks: self.writebacks + rhs.writebacks,
        }
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

/// The counters accrued between an earlier snapshot `rhs` and `self`.
impl Sub for CacheStats {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        CacheStats {
            refs: self.refs - rhs.refs,
            l1_hits: self.l1_hits - rhs.l1_hits,
            l2_hits: self.l2_hits - rhs.l2_hits,
            misses: self.misses - rhs.misses,
            writebacks: self.writebacks - rhs.writebacks,
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refs={} l1_miss={:.3} global_miss={:.4} writebacks={}",
            self.refs,
            self.l1_miss_ratio(),
            self.global_miss_ratio(),
            self.writebacks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_partitions_refs() {
        let mut s = CacheStats::new();
        s.record(AccessOutcome::L1Hit);
        s.record(AccessOutcome::L2Hit);
        s.record(AccessOutcome::Miss);
        s.record(AccessOutcome::L1Hit);
        assert_eq!(s.refs, 4);
        assert!(s.is_consistent());
        assert!((s.l1_miss_ratio() - 0.5).abs() < 1e-12);
        assert!((s.global_miss_ratio() - 0.25).abs() < 1e-12);
        assert!((s.l2_local_miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_ratios() {
        let s = CacheStats::new();
        assert_eq!(s.l1_miss_ratio(), 0.0);
        assert_eq!(s.global_miss_ratio(), 0.0);
        assert_eq!(s.l2_local_miss_ratio(), 0.0);
        assert!(s.is_consistent());
    }

    #[test]
    fn add_combines_counters() {
        let mut a = CacheStats::new();
        a.record(AccessOutcome::L1Hit);
        let mut b = CacheStats::new();
        b.record(AccessOutcome::Miss);
        b.writebacks = 3;
        let c = a + b;
        assert_eq!(c.refs, 2);
        assert_eq!(c.writebacks, 3);
        assert!(c.is_consistent());
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn display_mentions_ratios() {
        let mut s = CacheStats::new();
        s.record(AccessOutcome::Miss);
        let text = s.to_string();
        assert!(text.contains("refs=1"));
        assert!(text.contains("global_miss"));
    }
}
