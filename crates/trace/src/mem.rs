//! Synthetic memory-reference streams.
//!
//! A stream is a weighted mixture of [`Region`]s, each modelling one data
//! structure of the application:
//!
//! * [`Region::sequential_loop`] — a repeated sequential sweep (arrays in
//!   scientific loop nests). Under LRU this is all-hit when the region
//!   fits in cache and all-miss when it does not, producing the sharp
//!   working-set knees the paper observes (appcg's drop past 48 KB).
//! * [`Region::random`] — uniform random touches (hash tables, heaps).
//!   Produces gradual miss-ratio curves: hit ratio ≈ capacity / region.
//! * [`Region::pointer_chase`] — a deterministic pseudo-random walk
//!   (linked structures); like `random` but with a fixed revisit sequence.
//! * [`Region::strided`] — a sweep touching every `stride` bytes, for
//!   large-stride array accesses that waste block capacity.
//!
//! The per-application mixtures live in `cap-workloads`; this module only
//! provides the machinery.

use crate::error::TraceError;
use crate::rng::TraceRng;

/// Whether a reference reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// One data-cache reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Byte address.
    pub addr: u64,
    /// Load or store.
    pub kind: AccessKind,
}

/// An infinite stream of data-cache references.
pub trait AddressStream {
    /// Produces the next reference.
    fn next_ref(&mut self) -> MemRef;

    /// Collects the next `n` references into a vector (convenience for
    /// tests and small experiments; simulators should pull one at a time).
    fn take_refs(&mut self, n: usize) -> Vec<MemRef>
    where
        Self: Sized,
    {
        (0..n).map(|_| self.next_ref()).collect()
    }
}

impl<S: AddressStream + ?Sized> AddressStream for &mut S {
    fn next_ref(&mut self) -> MemRef {
        (**self).next_ref()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Pattern {
    SequentialLoop { stride: u64 },
    Strided { stride: u64 },
    Random,
    PointerChase,
}

/// One synthetic data structure: a contiguous address range with an access
/// pattern and a write fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    base: u64,
    size: u64,
    pattern: Pattern,
    write_frac: f64,
}

impl Region {
    /// A repeated sequential sweep over `size` bytes touching every
    /// `stride` bytes. All-hit once resident; all-miss (under LRU) when the
    /// region exceeds its cache share.
    pub fn sequential_loop(base: u64, size: u64, stride: u64) -> Self {
        Region { base, size, pattern: Pattern::SequentialLoop { stride }, write_frac: 0.25 }
    }

    /// A strided sweep (alias of [`Region::sequential_loop`] semantics but
    /// kept distinct for self-documenting workload definitions).
    pub fn strided(base: u64, size: u64, stride: u64) -> Self {
        Region { base, size, pattern: Pattern::Strided { stride }, write_frac: 0.25 }
    }

    /// Uniform random touches over `size` bytes.
    pub fn random(base: u64, size: u64) -> Self {
        Region { base, size, pattern: Pattern::Random, write_frac: 0.25 }
    }

    /// A deterministic pseudo-random pointer chase over `size` bytes.
    pub fn pointer_chase(base: u64, size: u64) -> Self {
        Region { base, size, pattern: Pattern::PointerChase, write_frac: 0.05 }
    }

    /// Overrides the fraction of references that are stores (default 0.25,
    /// 0.05 for pointer chases).
    ///
    /// # Panics
    ///
    /// Panics if `frac` is not in `[0, 1]`.
    pub fn with_write_frac(mut self, frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "write fraction must be in [0,1]");
        self.write_frac = frac;
        self
    }

    /// The region's base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The region's size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    fn validate(&self) -> Result<(), TraceError> {
        if self.size == 0 {
            return Err(TraceError::InvalidParameter { what: "region size must be positive" });
        }
        match self.pattern {
            Pattern::SequentialLoop { stride } | Pattern::Strided { stride } => {
                if stride == 0 || stride > self.size {
                    return Err(TraceError::InvalidParameter {
                        what: "stride must be positive and no larger than the region",
                    });
                }
            }
            Pattern::Random | Pattern::PointerChase => {}
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct RegionState {
    region: Region,
    /// Current offset for sweeps; current position for chases.
    cursor: u64,
}

impl RegionState {
    #[inline]
    fn next_addr(&mut self, rng: &mut TraceRng) -> u64 {
        let r = &self.region;
        match r.pattern {
            Pattern::SequentialLoop { stride } | Pattern::Strided { stride } => {
                let addr = r.base + self.cursor;
                self.cursor += stride;
                if self.cursor >= r.size {
                    self.cursor = 0;
                }
                addr
            }
            Pattern::Random => r.base + rng.below(r.size),
            Pattern::PointerChase => {
                // A full-period LCG walk over the region's 16-byte nodes:
                // deterministic "next pointer" with no spatial locality.
                let nodes = (r.size / 16).max(1);
                self.cursor = (self.cursor.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407)) % nodes;
                r.base + self.cursor * 16
            }
        }
    }
}

/// A weighted mixture of regions: the concrete [`AddressStream`] used by
/// every synthetic workload.
///
/// # Example
///
/// ```
/// use cap_trace::mem::{Region, RegionMix};
/// use cap_trace::AddressStream;
///
/// let mut gen = RegionMix::builder(1)
///     .region(Region::sequential_loop(0, 4096, 32), 1.0)
///     .build()?;
/// // A lone sequential loop just sweeps.
/// assert_eq!(gen.next_ref().addr, 0);
/// assert_eq!(gen.next_ref().addr, 32);
/// # Ok::<(), cap_trace::TraceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RegionMix {
    states: Vec<RegionState>,
    weights: Vec<f64>,
    /// `weights.iter().sum()`, computed once at build time.
    total: f64,
    rng: TraceRng,
}

impl RegionMix {
    /// Starts building a mixture; `seed` makes the stream reproducible.
    pub fn builder(seed: u64) -> RegionMixBuilder {
        RegionMixBuilder { regions: Vec::new(), seed }
    }

    /// The number of regions in the mixture.
    pub fn num_regions(&self) -> usize {
        self.states.len()
    }

    /// The total footprint (sum of region sizes) in bytes.
    pub fn footprint(&self) -> u64 {
        self.states.iter().map(|s| s.region.size).sum()
    }
}

impl AddressStream for RegionMix {
    #[inline]
    fn next_ref(&mut self) -> MemRef {
        let i = if self.states.len() == 1 {
            0
        } else {
            self.rng.weighted(&self.weights, self.total)
        };
        let write_frac = self.states[i].region.write_frac;
        let addr = self.states[i].next_addr(&mut self.rng);
        let kind = if self.rng.chance(write_frac) { AccessKind::Write } else { AccessKind::Read };
        MemRef { addr, kind }
    }
}

/// Builder for [`RegionMix`].
#[derive(Debug, Clone)]
pub struct RegionMixBuilder {
    regions: Vec<(Region, f64)>,
    seed: u64,
}

impl RegionMixBuilder {
    /// Adds a region with a relative access weight.
    pub fn region(mut self, region: Region, weight: f64) -> Self {
        self.regions.push((region, weight));
        self
    }

    /// Builds the mixture.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] if no regions were added, or
    /// [`TraceError::InvalidParameter`] if any region is degenerate or any
    /// weight is non-positive or non-finite.
    pub fn build(self) -> Result<RegionMix, TraceError> {
        if self.regions.is_empty() {
            return Err(TraceError::Empty { what: "region mix" });
        }
        for (r, w) in &self.regions {
            r.validate()?;
            if !w.is_finite() || *w <= 0.0 {
                return Err(TraceError::InvalidParameter { what: "region weight must be positive and finite" });
            }
        }
        let (regions, weights): (Vec<_>, Vec<_>) = self.regions.into_iter().unzip();
        Ok(RegionMix {
            states: regions.into_iter().map(|region| RegionState { region, cursor: 0 }).collect(),
            total: weights.iter().sum(),
            weights,
            rng: TraceRng::seeded(self.seed),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(mix: &mut RegionMix, n: usize) -> Vec<MemRef> {
        mix.take_refs(n)
    }

    #[test]
    fn sequential_loop_wraps() {
        let mut m = RegionMix::builder(0)
            .region(Region::sequential_loop(100, 96, 32), 1.0)
            .build()
            .unwrap();
        let addrs: Vec<u64> = collect(&mut m, 7).iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![100, 132, 164, 100, 132, 164, 100]);
    }

    #[test]
    fn random_stays_in_region() {
        let mut m = RegionMix::builder(1)
            .region(Region::random(0x4000, 0x1000), 1.0)
            .build()
            .unwrap();
        for r in collect(&mut m, 2000) {
            assert!((0x4000..0x5000).contains(&r.addr));
        }
    }

    #[test]
    fn pointer_chase_stays_in_region_and_varies() {
        let mut m = RegionMix::builder(2)
            .region(Region::pointer_chase(0x8000, 0x2000), 1.0)
            .build()
            .unwrap();
        let refs = collect(&mut m, 1000);
        let distinct: std::collections::HashSet<u64> = refs.iter().map(|r| r.addr).collect();
        assert!(distinct.len() > 100);
        for r in refs {
            assert!((0x8000..0xA000).contains(&r.addr));
        }
    }

    #[test]
    fn deterministic_across_builds() {
        let build = || {
            RegionMix::builder(42)
                .region(Region::random(0, 1 << 20), 1.0)
                .region(Region::sequential_loop(1 << 24, 1 << 16, 32), 2.0)
                .build()
                .unwrap()
        };
        let a = collect(&mut build(), 500);
        let b = collect(&mut build(), 500);
        assert_eq!(a, b);
    }

    #[test]
    fn weights_bias_region_selection() {
        let mut m = RegionMix::builder(3)
            .region(Region::random(0, 0x1000), 9.0)
            .region(Region::random(0x1_0000_0000, 0x1000), 1.0)
            .build()
            .unwrap();
        let refs = collect(&mut m, 20_000);
        let hot = refs.iter().filter(|r| r.addr < 0x1000).count();
        let frac = hot as f64 / refs.len() as f64;
        assert!((frac - 0.9).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn write_fraction_respected() {
        let mut m = RegionMix::builder(4)
            .region(Region::random(0, 0x10000).with_write_frac(0.5), 1.0)
            .build()
            .unwrap();
        let refs = collect(&mut m, 20_000);
        let writes = refs.iter().filter(|r| r.kind == AccessKind::Write).count();
        let frac = writes as f64 / refs.len() as f64;
        assert!((frac - 0.5).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn builder_validation() {
        assert!(RegionMix::builder(0).build().is_err());
        assert!(RegionMix::builder(0)
            .region(Region::sequential_loop(0, 0, 32), 1.0)
            .build()
            .is_err());
        assert!(RegionMix::builder(0)
            .region(Region::sequential_loop(0, 64, 0), 1.0)
            .build()
            .is_err());
        assert!(RegionMix::builder(0)
            .region(Region::random(0, 64), 0.0)
            .build()
            .is_err());
        assert!(RegionMix::builder(0)
            .region(Region::random(0, 64), f64::NAN)
            .build()
            .is_err());
    }

    #[test]
    #[should_panic(expected = "write fraction")]
    fn write_frac_out_of_range_panics() {
        let _ = Region::random(0, 64).with_write_frac(1.5);
    }

    #[test]
    fn footprint_sums_regions() {
        let m = RegionMix::builder(0)
            .region(Region::random(0, 1000), 1.0)
            .region(Region::random(4096, 500), 1.0)
            .build()
            .unwrap();
        assert_eq!(m.footprint(), 1500);
        assert_eq!(m.num_regions(), 2);
    }

    #[test]
    fn stream_by_mut_reference() {
        let mut m = RegionMix::builder(5)
            .region(Region::random(0, 0x1000), 1.0)
            .build()
            .unwrap();
        fn consume<S: AddressStream>(mut s: S) -> MemRef {
            s.next_ref()
        }
        let _ = consume(&mut m);
        let _ = m.next_ref();
    }
}
