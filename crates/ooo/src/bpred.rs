//! A complexity-adaptive gshare branch predictor.
//!
//! The paper names branch predictor tables alongside TLBs as prime
//! candidates for complexity adaptivity but leaves them to future work
//! (§7: "as well as other structures such as TLBs and branch
//! predictors"); this module is that extension, built with the same
//! discipline as the evaluated structures:
//!
//! * the pattern history table (PHT) is sized in powers of two from 1 K
//!   to 16 K two-bit counters; shrinking simply masks the index (and
//!   shortens the global history to match), so — like every CAS —
//!   reconfiguration preserves contents;
//! * prediction is on the fetch critical path: the PHT read delay at the
//!   current table size, converted at the machine cycle, gives the
//!   predictor's latency. A multi-cycle predictor costs a fetch bubble
//!   on every *taken* branch (the paper's §3.1 "vary the latency instead
//!   of the clock" option);
//! * a misprediction costs a fixed pipeline refill.
//!
//! Bigger tables alias less (higher accuracy, more IPC); smaller tables
//! predict in a single cycle. [`sweep`] runs the process-level adaptive
//! study over that tradeoff.

use crate::error::OooError;
use cap_timing::units::Ns;
use cap_trace::branch::{BranchEvent, BranchStream};
use std::fmt;

/// Smallest supported PHT, in counters.
pub const MIN_ENTRIES: usize = 1024;

/// Largest supported PHT, in counters.
pub const MAX_ENTRIES: usize = 16 * 1024;

/// Pipeline refill cost of a misprediction, in cycles.
pub const MISPREDICT_PENALTY_CYCLES: u64 = 6;

// PHT read delay at 0.18 um: decode-dominated RAM access,
// base + slope per doubling.
const PHT_BASE_NS: f64 = 0.30;
const PHT_PER_DOUBLING_NS: f64 = 0.045;

/// A validated PHT size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhtConfig(usize);

impl PhtConfig {
    /// Creates a PHT size.
    ///
    /// # Errors
    ///
    /// Returns [`OooError::InvalidWindow`] unless `entries` is a power of
    /// two in `1K..=16K`.
    pub fn new(entries: usize) -> Result<Self, OooError> {
        if !entries.is_power_of_two() || !(MIN_ENTRIES..=MAX_ENTRIES).contains(&entries) {
            return Err(OooError::InvalidWindow { entries });
        }
        Ok(PhtConfig(entries))
    }

    /// The number of two-bit counters.
    pub fn entries(self) -> usize {
        self.0
    }

    /// Global-history bits XORed into the index: a fixed 3, independent
    /// of table size. Keeping the history fixed means every doubling of
    /// the table is spent on separating static branches (less
    /// destructive aliasing) — the capacity effect the adaptive study
    /// trades against lookup delay.
    pub fn history_bits(self) -> u32 {
        3
    }

    /// All supported sizes, ascending (1 K, 2 K, 4 K, 8 K, 16 K).
    pub fn sweep() -> impl Iterator<Item = PhtConfig> {
        (0..5).map(|i| PhtConfig(MIN_ENTRIES << i))
    }

    /// The PHT read delay at this size (0.18 µm constants).
    pub fn read_delay(self) -> Ns {
        Ns(PHT_BASE_NS + PHT_PER_DOUBLING_NS * f64::from(self.0.trailing_zeros()))
    }

    /// Prediction latency in cycles at a given machine cycle time.
    pub fn latency_cycles(self, cycle: Ns) -> u64 {
        (self.read_delay() / cycle).ceil().max(1.0) as u64
    }
}

impl fmt::Display for PhtConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}K-entry PHT", self.0 / 1024)
    }
}

/// The resizable gshare predictor.
#[derive(Debug, Clone)]
pub struct Gshare {
    counters: Vec<u8>,
    config: PhtConfig,
    history: u64,
}

impl Gshare {
    /// Creates a predictor with all counters weakly not-taken.
    pub fn new(config: PhtConfig) -> Self {
        Gshare { counters: vec![1; MAX_ENTRIES], config, history: 0 }
    }

    /// The active table size.
    pub fn config(&self) -> PhtConfig {
        self.config
    }

    /// Resizes the active table. Counters are preserved: growing exposes
    /// previously trained state, shrinking masks it (no flush — the CAS
    /// property).
    pub fn set_config(&mut self, config: PhtConfig) {
        self.config = config;
    }

    fn index(&self, pc: u64) -> usize {
        let mask = (self.config.entries() - 1) as u64;
        let hist = self.history & ((1u64 << self.config.history_bits()) - 1);
        (((pc >> 2) ^ hist) & mask) as usize
    }

    /// Predicts the direction of a branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Trains on a resolved branch and returns whether the prediction
    /// was correct.
    pub fn update(&mut self, event: BranchEvent) -> bool {
        let idx = self.index(event.pc);
        let predicted = self.counters[idx] >= 2;
        let c = &mut self.counters[idx];
        if event.taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = (self.history << 1) | u64::from(event.taken);
        predicted == event.taken
    }
}

/// Result of measuring one PHT size on a branch stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BpredSweepPoint {
    /// The table size measured.
    pub config: PhtConfig,
    /// Fraction of branches predicted correctly.
    pub accuracy: f64,
    /// Fraction of branches that were taken.
    pub taken_ratio: f64,
    /// Prediction latency at the supplied machine cycle.
    pub latency_cycles: u64,
    /// Branch-induced time per instruction (ns).
    pub tpi_ns: f64,
}

/// Measures accuracy and the branch-induced TPI of every PHT size on the
/// same stream (process-level adaptive methodology, applied to the
/// predictor).
///
/// The stream is read once: every event trains all five table sizes,
/// one [`Gshare`] each. A predictor's state depends only on the event
/// sequence, so each size sees exactly what a run of its own would.
///
/// `branch_frac` is the fraction of instructions that are conditional
/// branches; `cycle` the machine cycle time set by the rest of the core.
///
/// # Errors
///
/// Returns [`OooError::InvalidWidth`] if `branches` is zero (there is no
/// accuracy to measure) or `branch_frac` is outside `(0, 1]` (a zero
/// branch fraction makes the study meaningless).
pub fn sweep<S: BranchStream>(
    mut stream: S,
    branches: u64,
    cycle: Ns,
    branch_frac: f64,
) -> Result<Vec<BpredSweepPoint>, OooError> {
    if branches == 0 {
        return Err(OooError::InvalidWidth { what: "branch count must be positive" });
    }
    if !(branch_frac > 0.0 && branch_frac <= 1.0) {
        return Err(OooError::InvalidWidth { what: "branch fraction must be in (0,1]" });
    }
    let mut predictors: Vec<Gshare> = PhtConfig::sweep().map(Gshare::new).collect();
    let mut correct = vec![0u64; predictors.len()];
    let mut taken = 0u64;
    for _ in 0..branches {
        let e = stream.next_branch();
        for (predictor, correct) in predictors.iter_mut().zip(&mut correct) {
            *correct += u64::from(predictor.update(e));
        }
        taken += u64::from(e.taken);
    }
    let taken_ratio = taken as f64 / branches as f64;
    Ok(predictors
        .iter()
        .zip(correct)
        .map(|(predictor, correct)| {
            let config = predictor.config();
            let accuracy = correct as f64 / branches as f64;
            let latency = config.latency_cycles(cycle);
            // Stall cycles per branch: refill on a miss, plus the fetch
            // bubble of a multi-cycle predictor on every taken branch.
            let stalls = (1.0 - accuracy) * MISPREDICT_PENALTY_CYCLES as f64
                + taken_ratio * (latency - 1) as f64;
            let tpi_ns = cycle.value() * branch_frac * stalls;
            BpredSweepPoint { config, accuracy, taken_ratio, latency_cycles: latency, tpi_ns }
        })
        .collect())
}

/// The sweep point with the lowest branch-induced TPI; ties break toward
/// the smaller table.
pub fn best_point(points: &[BpredSweepPoint]) -> Option<&BpredSweepPoint> {
    points.iter().min_by(|a, b| {
        a.tpi_ns.total_cmp(&b.tpi_ns).then(a.config.cmp(&b.config))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_trace::branch::{BranchBehavior, SyntheticBranches};

    #[test]
    fn config_validation() {
        assert!(PhtConfig::new(0).is_err());
        assert!(PhtConfig::new(512).is_err());
        assert!(PhtConfig::new(3000).is_err());
        assert!(PhtConfig::new(32 * 1024).is_err());
        let c = PhtConfig::new(4096).unwrap();
        assert_eq!(c.history_bits(), 3);
        assert_eq!(PhtConfig::sweep().count(), 5);
        assert_eq!(c.to_string(), "4K-entry PHT");
    }

    #[test]
    fn read_delay_grows_with_size() {
        let sizes: Vec<PhtConfig> = PhtConfig::sweep().collect();
        for w in sizes.windows(2) {
            assert!(w[0].read_delay() < w[1].read_delay());
        }
        // At a 0.8 ns machine cycle the small tables are single-cycle
        // and the largest is not.
        assert_eq!(sizes[0].latency_cycles(Ns(0.8)), 1);
        assert_eq!(sizes[4].latency_cycles(Ns(0.8)), 2);
    }

    #[test]
    fn learns_a_loop_branch_quickly() {
        let mut g = Gshare::new(PhtConfig::new(1024).unwrap());
        let mut stream = SyntheticBranches::builder(1)
            .branch(BranchBehavior::Loop(4), 1.0)
            .build()
            .unwrap();
        // Warm up, then measure.
        for _ in 0..2000 {
            let e = stream.next_branch();
            g.update(e);
        }
        let mut correct = 0;
        for _ in 0..4000 {
            let e = stream.next_branch();
            if g.update(e) {
                correct += 1;
            }
        }
        let acc = correct as f64 / 4000.0;
        assert!(acc > 0.95, "got {acc}");
    }

    #[test]
    fn unbiased_branch_is_unpredictable() {
        let mut g = Gshare::new(PhtConfig::new(16 * 1024).unwrap());
        let mut stream = SyntheticBranches::builder(2)
            .branch(BranchBehavior::Biased(0.5), 1.0)
            .build()
            .unwrap();
        let mut correct = 0;
        for _ in 0..20_000 {
            let e = stream.next_branch();
            if g.update(e) {
                correct += 1;
            }
        }
        let acc = correct as f64 / 20_000.0;
        assert!((0.42..0.58).contains(&acc), "got {acc}");
    }

    #[test]
    fn bigger_tables_reduce_aliasing() {
        // Thousands of well-behaved static branches: a 1K table aliases
        // them destructively, a 16K table separates them.
        let build = || {
            SyntheticBranches::builder(3)
                .branch_group(BranchBehavior::Biased(0.95), 500, 2.0)
                .branch_group(BranchBehavior::Biased(0.05), 500, 2.0)
                .branch_group(BranchBehavior::Loop(6), 150, 1.0)
                .build()
                .unwrap()
        };
        let points = sweep(build(), 60_000, Ns(0.8), 0.15).unwrap();
        let small = points.first().unwrap();
        let large = points.last().unwrap();
        assert!(large.accuracy > small.accuracy + 0.03, "{} vs {}", small.accuracy, large.accuracy);
    }

    #[test]
    fn loop_dominated_stream_prefers_small_single_cycle_table() {
        let build = || {
            SyntheticBranches::builder(4)
                .branch_group(BranchBehavior::Loop(10), 30, 1.0)
                .build()
                .unwrap()
        };
        let points = sweep(build(), 40_000, Ns(0.8), 0.15).unwrap();
        let best = best_point(&points).unwrap();
        assert!(best.config.entries() <= 8192, "best was {}", best.config);
        assert_eq!(best.latency_cycles, 1, "a loop app never pays the 2-cycle table");
    }

    #[test]
    fn alias_heavy_stream_prefers_large_table_despite_latency() {
        let build = || {
            SyntheticBranches::builder(5)
                .branch_group(BranchBehavior::Biased(0.95), 700, 2.0)
                .branch_group(BranchBehavior::Biased(0.05), 700, 2.0)
                .build()
                .unwrap()
        };
        // At a 0.9 ns machine cycle everything up to 8K is single-cycle:
        // the aliasing relief decides, and the big table wins.
        let points = sweep(build(), 80_000, Ns(0.9), 0.2).unwrap();
        let best = best_point(&points).unwrap();
        assert!(best.config.entries() >= 8192, "best was {}", best.config);
        // For this heavily aliased population the accuracy gap dwarfs the
        // fetch-bubble tax, so even at a fast clock where only the 1K
        // table is single-cycle, the big table stays worthwhile — the
        // mirror image of the loop-dominated case below.
        let fast = sweep(build(), 80_000, Ns(0.76), 0.2).unwrap();
        let fast_best = best_point(&fast).unwrap();
        assert!(fast_best.accuracy > points[0].accuracy + 0.05);
    }

    #[test]
    fn resize_preserves_training() {
        let mut g = Gshare::new(PhtConfig::new(16 * 1024).unwrap());
        let mut stream = SyntheticBranches::builder(6)
            .branch(BranchBehavior::Loop(4), 1.0)
            .build()
            .unwrap();
        for _ in 0..5000 {
            let e = stream.next_branch();
            g.update(e);
        }
        // Shrink and grow back: state not flushed, accuracy immediately
        // high again at the original size.
        g.set_config(PhtConfig::new(1024).unwrap());
        g.set_config(PhtConfig::new(16 * 1024).unwrap());
        let mut correct = 0;
        for _ in 0..2000 {
            let e = stream.next_branch();
            if g.update(e) {
                correct += 1;
            }
        }
        assert!(correct as f64 / 2000.0 > 0.9);
    }

    #[test]
    fn sweep_validation() {
        let build = || {
            SyntheticBranches::builder(7)
                .branch(BranchBehavior::Loop(4), 1.0)
                .build()
                .unwrap()
        };
        assert!(sweep(build(), 100, Ns(0.8), 0.0).is_err());
        assert!(sweep(build(), 100, Ns(0.8), 1.5).is_err());
    }

    #[test]
    fn sweep_rejects_zero_branches() {
        let stream = SyntheticBranches::builder(8)
            .branch(BranchBehavior::Loop(4), 1.0)
            .build()
            .unwrap();
        assert_eq!(
            sweep(stream, 0, Ns(0.8), 0.15).unwrap_err(),
            OooError::InvalidWidth { what: "branch count must be positive" }
        );
    }
}
