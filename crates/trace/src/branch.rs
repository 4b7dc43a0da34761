//! Synthetic conditional-branch outcome streams.
//!
//! The paper names branch predictor tables as prime complexity-adaptive
//! candidates but evaluates only caches and queues; the branch-predictor
//! study in this reproduction (see `cap-ooo::bpred`) is the paper's
//! future-work extension. These generators provide its inputs: streams
//! of `(pc, taken)` events from a weighted population of static branches,
//! each with one of the classic behaviours:
//!
//! * [`BranchBehavior::Biased`] — taken with a fixed probability
//!   (data-dependent branches; the hard-to-predict tail);
//! * [`BranchBehavior::Loop`] — `n-1` taken iterations then one
//!   not-taken exit, repeating (backward loop branches; trivially
//!   predictable by any counter scheme);
//! * [`BranchBehavior::Correlated`] — outcome is a parity function of
//!   the recent *global* outcome history (if/else chains whose tests
//!   share operands; predictable only when the predictor's history and
//!   table are large enough to separate the contexts).
//!
//! The mix of behaviours controls how much a bigger predictor table
//! helps, which is exactly the knob the adaptive study needs.

use crate::error::TraceError;
use crate::rng::TraceRng;

/// One dynamic conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchEvent {
    /// The static branch's address.
    pub pc: u64,
    /// The resolved direction.
    pub taken: bool,
}

/// An infinite stream of branch outcomes.
pub trait BranchStream {
    /// Produces the next branch event.
    fn next_branch(&mut self) -> BranchEvent;

    /// Collects the next `n` events (convenience for tests).
    fn take_branches(&mut self, n: usize) -> Vec<BranchEvent>
    where
        Self: Sized,
    {
        (0..n).map(|_| self.next_branch()).collect()
    }
}

impl<S: BranchStream + ?Sized> BranchStream for &mut S {
    fn next_branch(&mut self) -> BranchEvent {
        (**self).next_branch()
    }
}

/// The behaviour of one static branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BranchBehavior {
    /// Taken with probability `p` independently each time.
    Biased(f64),
    /// `n-1` taken, then one not taken, repeating.
    Loop(u32),
    /// Taken iff the parity of the last `k` *global* outcomes is even.
    Correlated(u32),
}

impl BranchBehavior {
    fn validate(&self) -> Result<(), TraceError> {
        match self {
            BranchBehavior::Biased(p) if !(0.0..=1.0).contains(p) => {
                Err(TraceError::InvalidParameter { what: "branch bias must be in [0,1]" })
            }
            BranchBehavior::Loop(n) if *n < 2 => {
                Err(TraceError::InvalidParameter { what: "loop trip count must be at least 2" })
            }
            BranchBehavior::Correlated(k) if *k == 0 || *k > 16 => {
                Err(TraceError::InvalidParameter { what: "correlation depth must be 1-16" })
            }
            _ => Ok(()),
        }
    }
}

#[derive(Debug, Clone)]
struct StaticBranch {
    pc: u64,
    behavior: BranchBehavior,
    /// Loop position.
    phase: u32,
}

/// A weighted population of static branches producing a global outcome
/// stream.
///
/// # Example
///
/// ```
/// use cap_trace::branch::{BranchBehavior, BranchStream, SyntheticBranches};
///
/// let mut gen = SyntheticBranches::builder(7)
///     .branch(BranchBehavior::Loop(10), 3.0)
///     .branch(BranchBehavior::Biased(0.5), 1.0)
///     .build()?;
/// let e = gen.next_branch();
/// assert!(e.pc > 0);
/// # Ok::<(), cap_trace::TraceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticBranches {
    branches: Vec<StaticBranch>,
    weights: Vec<f64>,
    /// `weights.iter().sum()`, computed once at build time.
    total: f64,
    rng: TraceRng,
    /// Global history of recent outcomes (bit 0 = most recent).
    global_history: u64,
}

impl SyntheticBranches {
    /// Starts building a population; `seed` makes the stream
    /// reproducible.
    pub fn builder(seed: u64) -> SyntheticBranchesBuilder {
        SyntheticBranchesBuilder { behaviors: Vec::new(), seed }
    }

    /// The number of static branches.
    pub fn num_branches(&self) -> usize {
        self.branches.len()
    }
}

impl BranchStream for SyntheticBranches {
    fn next_branch(&mut self) -> BranchEvent {
        let i = if self.branches.len() == 1 {
            0
        } else {
            self.rng.weighted(&self.weights, self.total)
        };
        let b = &mut self.branches[i];
        let taken = match b.behavior {
            BranchBehavior::Biased(p) => self.rng.chance(p),
            BranchBehavior::Loop(n) => {
                b.phase = (b.phase + 1) % n;
                b.phase != 0
            }
            BranchBehavior::Correlated(k) => {
                let mask = (1u64 << k) - 1;
                (self.global_history & mask).count_ones().is_multiple_of(2)
            }
        };
        self.global_history = (self.global_history << 1) | u64::from(taken);
        BranchEvent { pc: b.pc, taken }
    }
}

/// Builder for [`SyntheticBranches`].
#[derive(Debug, Clone)]
pub struct SyntheticBranchesBuilder {
    behaviors: Vec<(BranchBehavior, f64)>,
    seed: u64,
}

impl SyntheticBranchesBuilder {
    /// Adds a static branch with a relative execution weight.
    pub fn branch(mut self, behavior: BranchBehavior, weight: f64) -> Self {
        self.behaviors.push((behavior, weight));
        self
    }

    /// Adds `count` copies of a behaviour, each a distinct static branch
    /// sharing one total weight (models a population of similar
    /// branches spread across the predictor's table).
    pub fn branch_group(mut self, behavior: BranchBehavior, count: usize, total_weight: f64) -> Self {
        for _ in 0..count {
            self.behaviors.push((behavior, total_weight / count.max(1) as f64));
        }
        self
    }

    /// Builds the population.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] with no branches, or
    /// [`TraceError::InvalidParameter`] for invalid behaviours/weights.
    pub fn build(self) -> Result<SyntheticBranches, TraceError> {
        if self.behaviors.is_empty() {
            return Err(TraceError::Empty { what: "branch population" });
        }
        for (b, w) in &self.behaviors {
            b.validate()?;
            if !w.is_finite() || *w <= 0.0 {
                return Err(TraceError::InvalidParameter { what: "branch weight must be positive and finite" });
            }
        }
        let mut rng = TraceRng::seeded(self.seed);
        let branches = self
            .behaviors
            .iter()
            .enumerate()
            .map(|(i, (behavior, _))| StaticBranch {
                // Spread PCs so different branches index different table
                // slots (4-byte instruction granularity, pseudo-random
                // placement).
                pc: 0x40_0000 + (i as u64) * 4 + (rng.below(1 << 16) << 6),
                behavior: *behavior,
                phase: 0,
            })
            .collect();
        let weights: Vec<f64> = self.behaviors.iter().map(|(_, w)| *w).collect();
        let total = weights.iter().sum();
        Ok(SyntheticBranches { branches, weights, total, rng, global_history: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_branch_pattern() {
        let mut g = SyntheticBranches::builder(1)
            .branch(BranchBehavior::Loop(4), 1.0)
            .build()
            .unwrap();
        let taken: Vec<bool> = g.take_branches(8).iter().map(|e| e.taken).collect();
        assert_eq!(taken, vec![true, true, true, false, true, true, true, false]);
    }

    #[test]
    fn biased_branch_frequency() {
        let mut g = SyntheticBranches::builder(2)
            .branch(BranchBehavior::Biased(0.8), 1.0)
            .build()
            .unwrap();
        let taken = g.take_branches(20_000).iter().filter(|e| e.taken).count();
        let frac = taken as f64 / 20_000.0;
        assert!((frac - 0.8).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn correlated_branch_is_deterministic_in_history() {
        // With only the correlated branch in the population, its own
        // outcomes feed the global history: the sequence is a fixed
        // orbit, perfectly predictable given enough history.
        let mut g = SyntheticBranches::builder(3)
            .branch(BranchBehavior::Correlated(3), 1.0)
            .build()
            .unwrap();
        let a: Vec<bool> = g.take_branches(64).iter().map(|e| e.taken).collect();
        let mut g2 = SyntheticBranches::builder(99)
            .branch(BranchBehavior::Correlated(3), 1.0)
            .build()
            .unwrap();
        let b: Vec<bool> = g2.take_branches(64).iter().map(|e| e.taken).collect();
        assert_eq!(a, b, "correlated outcomes do not depend on the seed");
    }

    #[test]
    fn distinct_pcs_per_static_branch() {
        let g = SyntheticBranches::builder(4)
            .branch_group(BranchBehavior::Biased(0.6), 50, 1.0)
            .build()
            .unwrap();
        assert_eq!(g.num_branches(), 50);
        let mut g = g;
        let pcs: std::collections::HashSet<u64> =
            g.take_branches(5000).iter().map(|e| e.pc).collect();
        assert!(pcs.len() >= 40, "most static branches appear: {}", pcs.len());
    }

    #[test]
    fn deterministic_for_seed() {
        let build = || {
            SyntheticBranches::builder(11)
                .branch(BranchBehavior::Loop(7), 2.0)
                .branch(BranchBehavior::Biased(0.3), 1.0)
                .branch(BranchBehavior::Correlated(4), 1.0)
                .build()
                .unwrap()
        };
        assert_eq!(build().take_branches(2000), build().take_branches(2000));
    }

    #[test]
    fn validation() {
        assert!(SyntheticBranches::builder(0).build().is_err());
        assert!(SyntheticBranches::builder(0)
            .branch(BranchBehavior::Biased(1.5), 1.0)
            .build()
            .is_err());
        assert!(SyntheticBranches::builder(0)
            .branch(BranchBehavior::Loop(1), 1.0)
            .build()
            .is_err());
        assert!(SyntheticBranches::builder(0)
            .branch(BranchBehavior::Correlated(0), 1.0)
            .build()
            .is_err());
        assert!(SyntheticBranches::builder(0)
            .branch(BranchBehavior::Biased(0.5), 0.0)
            .build()
            .is_err());
    }
}
