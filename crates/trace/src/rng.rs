//! Deterministic random-number generation for trace synthesis.
//!
//! Every generator in this crate derives all of its randomness from a
//! [`TraceRng`] seeded with a caller-supplied `u64`, so any trace —
//! billions of events long — is exactly reproducible from its seed. The
//! wrapper also centralizes the handful of distributions the generators
//! need (weighted choice, geometric, bounded uniform) so they are
//! implemented once and tested once.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A small, fast, deterministic RNG for trace generation.
///
/// # Example
///
/// ```
/// use cap_trace::TraceRng;
///
/// let mut a = TraceRng::seeded(7);
/// let mut b = TraceRng::seeded(7);
/// assert_eq!(a.below(1000), b.below(1000));
/// ```
#[derive(Debug, Clone)]
pub struct TraceRng {
    inner: SmallRng,
}

impl TraceRng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn seeded(seed: u64) -> Self {
        TraceRng { inner: SmallRng::seed_from_u64(seed) }
    }

    /// Derives an independent child generator; useful for giving each
    /// region or phase its own stream while keeping a single root seed.
    pub fn fork(&mut self, salt: u64) -> Self {
        let s = self.inner.gen::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        TraceRng::seeded(s)
    }

    /// A uniform integer in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.inner.gen_range(0..bound)
    }

    /// A uniform integer in `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        self.inner.gen_range(lo..=hi)
    }

    /// A uniform float in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// A Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// A geometric variate with the given mean (support `1, 2, 3, ...`).
    ///
    /// Returns 1 when `mean <= 1`.
    #[inline]
    pub fn geometric(&mut self, mean: f64) -> u64 {
        if mean <= 1.0 {
            return 1;
        }
        // Success probability p = 1/mean; inverse-CDF sampling.
        let p = 1.0 / mean;
        let u = self.unit().max(f64::MIN_POSITIVE);
        let v = (u.ln() / (1.0 - p).ln()).floor() as u64 + 1;
        v.max(1)
    }

    /// Chooses an index according to the given non-negative weights,
    /// whose sum `total` the caller computes once, as
    /// `weights.iter().sum()`, rather than on every draw.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or `total` is not positive.
    #[inline]
    pub fn weighted(&mut self, weights: &[f64], total: f64) -> usize {
        assert!(!weights.is_empty() && total > 0.0, "weights must be nonempty with positive sum");
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Jitters `value` multiplicatively by up to `frac` in either
    /// direction, never returning less than 1.
    #[inline]
    pub fn jitter(&mut self, value: u64, frac: f64) -> u64 {
        if frac <= 0.0 || value == 0 {
            return value.max(1);
        }
        let f = 1.0 + (self.unit() * 2.0 - 1.0) * frac;
        ((value as f64 * f).round() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = TraceRng::seeded(123);
        let mut b = TraceRng::seeded(123);
        for _ in 0..100 {
            assert_eq!(a.below(1_000_000), b.below(1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = TraceRng::seeded(1);
        let mut b = TraceRng::seeded(2);
        let same = (0..32).filter(|_| a.below(u64::MAX) == b.below(u64::MAX)).count();
        assert!(same < 2);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut root1 = TraceRng::seeded(9);
        let mut root2 = TraceRng::seeded(9);
        let mut c1 = root1.fork(5);
        let mut c2 = root2.fork(5);
        assert_eq!(c1.below(1000), c2.below(1000));
        let mut c3 = root1.fork(6);
        // Extremely unlikely to match a differently salted child.
        assert!((0..16).any(|_| c1.below(u64::MAX) != c3.below(u64::MAX)));
    }

    #[test]
    fn below_and_between_bounds() {
        let mut r = TraceRng::seeded(4);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let v = r.between(5, 7);
            assert!((5..=7).contains(&v));
        }
    }

    #[test]
    fn geometric_mean_is_close() {
        let mut r = TraceRng::seeded(11);
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| r.geometric(8.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 8.0).abs() < 0.3, "got {mean}");
    }

    #[test]
    fn geometric_degenerate() {
        let mut r = TraceRng::seeded(3);
        assert_eq!(r.geometric(0.5), 1);
        assert_eq!(r.geometric(1.0), 1);
    }

    #[test]
    fn weighted_respects_weights() {
        let mut r = TraceRng::seeded(8);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[r.weighted(&[1.0, 2.0, 7.0], 10.0)] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let frac2 = counts[2] as f64 / 30_000.0;
        assert!((frac2 - 0.7).abs() < 0.03, "got {frac2}");
    }

    #[test]
    fn weighted_zero_weight_never_chosen() {
        let mut r = TraceRng::seeded(8);
        for _ in 0..5_000 {
            assert_ne!(r.weighted(&[1.0, 0.0, 1.0], 2.0), 1);
        }
    }

    #[test]
    #[should_panic(expected = "weights must be nonempty")]
    fn weighted_rejects_empty() {
        TraceRng::seeded(0).weighted(&[], 0.0);
    }

    #[test]
    fn jitter_stays_near_value() {
        let mut r = TraceRng::seeded(2);
        for _ in 0..1000 {
            let v = r.jitter(100, 0.25);
            assert!((75..=125).contains(&v), "got {v}");
        }
        assert_eq!(r.jitter(100, 0.0), 100);
        assert_eq!(r.jitter(0, 0.5), 1);
    }

    #[test]
    fn unit_in_range_and_chance_extremes() {
        let mut r = TraceRng::seeded(5);
        for _ in 0..100 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.chance(1.0));
            assert!(!r.chance(0.0));
        }
    }
}
