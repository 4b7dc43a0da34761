//! Palacharla-style instruction-queue (issue-window) timing.
//!
//! The paper assumes the queue's **wakeup + select** loop is on the critical
//! timing path for every configuration, and that the combined operation is
//! atomic in one cycle so dependent instructions can issue back-to-back.
//! Delay values follow Palacharla, Jouppi & Smith's complexity analysis:
//!
//! * **wakeup** = tag drive + tag match + match OR. Operand tag lines are
//!   repeater-buffered between each group of [`ENTRY_INCREMENT`] = 16
//!   entries (the paper's configuration increment), which makes tag-drive
//!   delay essentially linear in the number of active groups with only a
//!   small residual quadratic term;
//! * **select** = a tree of 4-bit priority encoders over the active
//!   entries; its delay grows with the tree height `ceil(log4(entries))`.
//!   Encoders for inactive window entries are disabled and the height and
//!   root of the tree vary with the active size (paper §5.1).
//!
//! Constants are calibrated at 0.18 µm so that the resulting cycle times,
//! divided by the IPCs of an 8-way core, land on the paper's Figure 10 TPI
//! axes; they scale linearly with feature size.
//!
//! # Example
//!
//! ```
//! use cap_timing::{QueueTimingModel, Technology};
//!
//! let q = QueueTimingModel::new(Technology::isca98_evaluation());
//! // Shrinking the active window raises the attainable clock rate.
//! assert!(q.cycle_time(16)? < q.cycle_time(64)?);
//! # Ok::<(), cap_timing::TimingError>(())
//! ```

use crate::error::TimingError;
use crate::tech::Technology;
use crate::units::Ns;

/// The queue configuration increment, in entries: operand tag lines are
/// buffered between groups of this many entries, so the window can grow or
/// shrink in steps of 16 with no delay penalty.
pub const ENTRY_INCREMENT: usize = 16;

/// The largest window size the model is calibrated for.
pub const MAX_ENTRIES: usize = 256;

/// The window sizes the paper sweeps in Figures 10–11 (16–128 entries in
/// 16-entry increments).
pub const PAPER_SIZES: [usize; 8] = [16, 32, 48, 64, 80, 96, 112, 128];

// Wakeup constants at 0.18 um (g = active entries / 16):
// wakeup = (TAG_DRIVE_BASE + TAG_DRIVE_PER_GROUP*g + TAG_DRIVE_QUAD*g^2)
//          + TAG_MATCH + MATCH_OR.
const TAG_DRIVE_BASE_NS: f64 = 0.10;
const TAG_DRIVE_PER_GROUP_NS: f64 = 0.018;
const TAG_DRIVE_QUAD_NS: f64 = 0.0008;
const TAG_MATCH_NS: f64 = 0.07;
const MATCH_OR_NS: f64 = 0.05;

// Select constants at 0.18 um: select = ROOT + PER_LEVEL * ceil(log4(n)).
const SELECT_ROOT_NS: f64 = 0.05;
const SELECT_PER_LEVEL_NS: f64 = 0.15;

/// Breakdown of the wakeup delay for a given active window size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WakeupComponents {
    /// Driving the result tags across the buffered tag lines of the active
    /// groups.
    pub tag_drive: Ns,
    /// CAM tag comparison in each entry.
    pub tag_match: Ns,
    /// ORing the per-operand match lines into a ready signal.
    pub match_or: Ns,
}

impl WakeupComponents {
    /// The total wakeup delay.
    pub fn total(&self) -> Ns {
        self.tag_drive + self.tag_match + self.match_or
    }
}

/// Timing model for a complexity-adaptive instruction queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueTimingModel {
    tech: Technology,
}

impl QueueTimingModel {
    /// Creates the model at the given technology point.
    pub fn new(tech: Technology) -> Self {
        QueueTimingModel { tech }
    }

    /// The technology operating point.
    pub fn technology(&self) -> Technology {
        self.tech
    }

    fn check(entries: usize) -> Result<usize, TimingError> {
        if entries == 0 || !entries.is_multiple_of(ENTRY_INCREMENT) || entries > MAX_ENTRIES {
            return Err(TimingError::InvalidQueueSize { entries });
        }
        Ok(entries / ENTRY_INCREMENT)
    }

    /// The wakeup-delay breakdown for `entries` active window entries.
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::InvalidQueueSize`] unless `entries` is a
    /// positive multiple of 16 at most [`MAX_ENTRIES`].
    pub fn wakeup_components(&self, entries: usize) -> Result<WakeupComponents, TimingError> {
        let g = Self::check(entries)? as f64;
        let at018 = |ns: f64| self.tech.scale_from_018(Ns(ns));
        Ok(WakeupComponents {
            tag_drive: at018(TAG_DRIVE_BASE_NS + TAG_DRIVE_PER_GROUP_NS * g + TAG_DRIVE_QUAD_NS * g * g),
            tag_match: at018(TAG_MATCH_NS),
            match_or: at018(MATCH_OR_NS),
        })
    }

    /// The total wakeup delay for `entries` active entries.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QueueTimingModel::wakeup_components`].
    pub fn wakeup_delay(&self, entries: usize) -> Result<Ns, TimingError> {
        Ok(self.wakeup_components(entries)?.total())
    }

    /// The height of the selection tree of 4-bit priority encoders over
    /// `entries` active entries: `ceil(log4(entries))`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QueueTimingModel::wakeup_components`].
    pub fn selection_tree_height(&self, entries: usize) -> Result<u32, TimingError> {
        Self::check(entries)?;
        let mut height = 0u32;
        let mut span = 1usize;
        while span < entries {
            span *= 4;
            height += 1;
        }
        Ok(height)
    }

    /// The selection-logic delay for `entries` active entries.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QueueTimingModel::wakeup_components`].
    pub fn select_delay(&self, entries: usize) -> Result<Ns, TimingError> {
        let levels = f64::from(self.selection_tree_height(entries)?);
        Ok(self.tech.scale_from_018(Ns(SELECT_ROOT_NS + SELECT_PER_LEVEL_NS * levels)))
    }

    /// The processor cycle time with `entries` active window entries:
    /// the atomic wakeup + select operation sets the clock.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QueueTimingModel::wakeup_components`].
    pub fn cycle_time(&self, entries: usize) -> Result<Ns, TimingError> {
        Ok(self.wakeup_delay(entries)? + self.select_delay(entries)?)
    }
}

impl Default for QueueTimingModel {
    /// Defaults to the paper's 0.18 µm evaluation generation.
    fn default() -> Self {
        Self::new(Technology::isca98_evaluation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> QueueTimingModel {
        QueueTimingModel::default()
    }

    #[test]
    fn rejects_invalid_sizes() {
        for bad in [0, 1, 15, 17, 24, 300] {
            assert!(q().cycle_time(bad).is_err(), "size {bad} should be rejected");
        }
        for good in PAPER_SIZES {
            assert!(q().cycle_time(good).is_ok());
        }
    }

    #[test]
    fn wakeup_monotone_in_entries() {
        let mut prev = Ns(0.0);
        for n in PAPER_SIZES {
            let w = q().wakeup_delay(n).unwrap();
            assert!(w > prev);
            prev = w;
        }
    }

    #[test]
    fn selection_height_steps() {
        assert_eq!(q().selection_tree_height(16).unwrap(), 2);
        assert_eq!(q().selection_tree_height(32).unwrap(), 3);
        assert_eq!(q().selection_tree_height(64).unwrap(), 3);
        assert_eq!(q().selection_tree_height(80).unwrap(), 4);
        assert_eq!(q().selection_tree_height(128).unwrap(), 4);
        assert_eq!(q().selection_tree_height(256).unwrap(), 4);
    }

    #[test]
    fn cycle_time_monotone_nondecreasing() {
        let mut prev = Ns(0.0);
        for n in PAPER_SIZES {
            let c = q().cycle_time(n).unwrap();
            assert!(c >= prev, "cycle time must not decrease with window size");
            prev = c;
        }
    }

    #[test]
    fn calibrated_values_at_018() {
        // See DESIGN.md: cycle(16) ~ 0.59 ns, cycle(64) ~ 0.80 ns,
        // cycle(128) ~ 1.07 ns.
        let c16 = q().cycle_time(16).unwrap();
        let c64 = q().cycle_time(64).unwrap();
        let c128 = q().cycle_time(128).unwrap();
        assert!((c16.value() - 0.589).abs() < 0.02, "got {c16}");
        assert!((c64.value() - 0.805).abs() < 0.02, "got {c64}");
        assert!((c128.value() - 1.065).abs() < 0.02, "got {c128}");
    }

    #[test]
    fn growth_ratio_supports_paper_argmins() {
        // A 128-entry window must cost < 2x the 16-entry clock, or nothing
        // would ever favor the big window (compress does in the paper);
        // and it must cost enough that low-ILP apps favor 16 entries.
        let r = q().cycle_time(128).unwrap() / q().cycle_time(16).unwrap();
        assert!(r > 1.3 && r < 2.0, "got {r}");
    }

    #[test]
    fn components_sum_to_wakeup() {
        let c = q().wakeup_components(64).unwrap();
        assert_eq!(c.total(), q().wakeup_delay(64).unwrap());
        assert!(c.tag_drive > Ns(0.0) && c.tag_match > Ns(0.0) && c.match_or > Ns(0.0));
    }

    #[test]
    fn scales_linearly_with_feature_size() {
        let a = QueueTimingModel::new(Technology::um(0.18));
        let b = QueueTimingModel::new(Technology::um(0.09));
        let ra = a.cycle_time(64).unwrap();
        let rb = b.cycle_time(64).unwrap();
        assert!((ra / rb - 2.0).abs() < 1e-9);
    }
}
