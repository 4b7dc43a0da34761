//! The complexity-adaptive structure abstraction.
//!
//! A CAS (paper Figure 5) exposes a small discrete configuration space;
//! every configuration has a clock period predetermined by worst-case
//! timing analysis. The [`AdaptiveStructure`] trait gives configuration
//! managers a uniform, index-based view of any such structure, and this
//! module provides the two structures the paper evaluates:
//! [`QueueStructure`] (an out-of-order core whose window resizes) and
//! [`CacheStructure`] (the movable-boundary cache hierarchy).

use crate::error::CapError;
use cap_cache::config::Boundary;
use cap_cache::hierarchy::AdaptiveCacheHierarchy;
use cap_ooo::config::{CoreConfig, WindowSize};
use cap_timing::cacti::CacheTimingModel;
use cap_timing::queue::QueueTimingModel;
use cap_timing::units::Ns;

/// A runtime-reconfigurable hardware structure with per-configuration
/// clock periods.
///
/// Configurations are dense indices `0..num_configs()`, ordered from the
/// smallest (fastest clock) to the largest (highest IPC potential) — the
/// natural order of the paper's sweeps.
pub trait AdaptiveStructure {
    /// Number of selectable configurations.
    fn num_configs(&self) -> usize;

    /// Index of the active configuration.
    fn current(&self) -> usize;

    /// Requests a reconfiguration (structures may drain before a shrink
    /// takes effect; see the implementations).
    ///
    /// # Errors
    ///
    /// Returns [`CapError::UnknownConfiguration`] for an out-of-range
    /// index.
    fn reconfigure(&mut self, index: usize) -> Result<(), CapError>;

    /// The clock period of a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::UnknownConfiguration`] for an out-of-range
    /// index.
    fn cycle_time(&self, index: usize) -> Result<Ns, CapError>;

    /// A short human-readable label for a configuration (e.g.
    /// `"64-entry"` or `"L1=16KB/4-way"`).
    fn describe(&self, index: usize) -> String;

    /// The clock-period table for all configurations, in index order.
    fn period_table(&self) -> Result<Vec<Ns>, CapError> {
        (0..self.num_configs()).map(|i| self.cycle_time(i)).collect()
    }
}

/// The complexity-adaptive instruction queue: the out-of-order core's
/// configuration, its window table and the wakeup/select timing model.
/// It holds no core: the lanes of [`crate::manager::run_managed_lanes`]
/// schedule it, and [`crate::manager::QueueIntervalSim`] builds the
/// serial reference core.
#[derive(Debug, Clone)]
pub struct QueueStructure {
    config: CoreConfig,
    sizes: Vec<WindowSize>,
    timing: QueueTimingModel,
    current: usize,
}

impl QueueStructure {
    /// Creates the paper's 8-way core with the 16–128-entry configuration
    /// space, initially at `initial` (an index into the paper sweep).
    ///
    /// # Errors
    ///
    /// Returns [`CapError::UnknownConfiguration`] if `initial` is out of
    /// range.
    pub fn isca98(timing: QueueTimingModel, initial: usize) -> Result<Self, CapError> {
        let sizes: Vec<WindowSize> = WindowSize::paper_sweep().collect();
        if initial >= sizes.len() {
            return Err(CapError::UnknownConfiguration { index: initial, available: sizes.len() });
        }
        // The physical window must cover every configuration the manager
        // can select, so the core is built at the largest catalog size.
        let largest = *sizes.last().expect("paper sweep is non-empty");
        let config = CoreConfig::isca98(largest.entries())?;
        Ok(QueueStructure { config, sizes, timing, current: initial })
    }

    /// The physical core every configuration runs on: its window is the
    /// largest configuration's.
    pub fn core_config(&self) -> &CoreConfig {
        &self.config
    }

    /// The active configuration's window size.
    pub fn window(&self) -> WindowSize {
        self.sizes[self.current]
    }

    /// The window size at a configuration index.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::UnknownConfiguration`] if out of range.
    pub fn window_at(&self, index: usize) -> Result<WindowSize, CapError> {
        self.sizes
            .get(index)
            .copied()
            .ok_or(CapError::UnknownConfiguration { index, available: self.sizes.len() })
    }
}

impl AdaptiveStructure for QueueStructure {
    fn num_configs(&self) -> usize {
        self.sizes.len()
    }

    fn current(&self) -> usize {
        self.current
    }

    fn reconfigure(&mut self, index: usize) -> Result<(), CapError> {
        self.window_at(index)?;
        self.current = index;
        Ok(())
    }

    fn cycle_time(&self, index: usize) -> Result<Ns, CapError> {
        let w = self.window_at(index)?;
        Ok(self.timing.cycle_time(w.entries())?)
    }

    fn describe(&self, index: usize) -> String {
        self.window_at(index).map(|w| w.to_string()).unwrap_or_else(|_| format!("<invalid {index}>"))
    }
}

/// The complexity-adaptive cache hierarchy: the movable-boundary
/// structure plus its CACTI-style timing model.
#[derive(Debug, Clone)]
pub struct CacheStructure {
    cache: AdaptiveCacheHierarchy,
    boundaries: Vec<Boundary>,
    timing: CacheTimingModel,
    current: usize,
}

impl CacheStructure {
    /// Creates the paper's 128 KB structure with the 8–64 KB L1 sweep,
    /// initially at `initial` (an index into the paper sweep).
    ///
    /// # Errors
    ///
    /// Returns [`CapError::UnknownConfiguration`] if `initial` is out of
    /// range.
    pub fn isca98(timing: CacheTimingModel, initial: usize) -> Result<Self, CapError> {
        let boundaries: Vec<Boundary> = Boundary::paper_sweep().collect();
        if initial >= boundaries.len() {
            return Err(CapError::UnknownConfiguration { index: initial, available: boundaries.len() });
        }
        let cache =
            AdaptiveCacheHierarchy::try_with_geometry(*timing.geometry(), boundaries[initial])?;
        Ok(CacheStructure { cache, boundaries, timing, current: initial })
    }

    /// The underlying hierarchy (for driving references).
    pub fn cache_mut(&mut self) -> &mut AdaptiveCacheHierarchy {
        &mut self.cache
    }

    /// The underlying hierarchy, read-only.
    pub fn cache(&self) -> &AdaptiveCacheHierarchy {
        &self.cache
    }

    /// The timing model in use.
    pub fn timing(&self) -> &CacheTimingModel {
        &self.timing
    }

    /// The boundary at a configuration index.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::UnknownConfiguration`] if out of range.
    pub fn boundary_at(&self, index: usize) -> Result<Boundary, CapError> {
        self.boundaries
            .get(index)
            .copied()
            .ok_or(CapError::UnknownConfiguration { index, available: self.boundaries.len() })
    }

    /// Retires the last `n` increments of the underlying hierarchy
    /// (degraded operation; see
    /// [`AdaptiveCacheHierarchy::retire_increments`]) and returns the
    /// configuration indices whose boundaries no longer fit the usable
    /// range. If the active configuration is among them, the structure
    /// drops to the largest boundary that still fits.
    pub fn retire_increments(&mut self, n: usize) -> Vec<usize> {
        let usable = self.cache.retire_increments(n);
        let unavailable: Vec<usize> = self
            .boundaries
            .iter()
            .enumerate()
            .filter(|(_, b)| b.increments() >= usable)
            .map(|(i, _)| i)
            .collect();
        if unavailable.contains(&self.current) {
            if let Some(fallback) = (0..self.boundaries.len())
                .rev()
                .find(|i| !unavailable.contains(i))
            {
                if self.cache.try_set_boundary(self.boundaries[fallback]).is_ok() {
                    self.current = fallback;
                }
            }
        }
        unavailable
    }
}

impl AdaptiveStructure for CacheStructure {
    fn num_configs(&self) -> usize {
        self.boundaries.len()
    }

    fn current(&self) -> usize {
        self.current
    }

    fn reconfigure(&mut self, index: usize) -> Result<(), CapError> {
        let b = self.boundary_at(index)?;
        self.cache.try_set_boundary(b)?;
        self.current = index;
        Ok(())
    }

    fn cycle_time(&self, index: usize) -> Result<Ns, CapError> {
        let b = self.boundary_at(index)?;
        Ok(self.timing.cycle_time(b.increments())?)
    }

    fn describe(&self, index: usize) -> String {
        self.boundary_at(index).map(|b| b.to_string()).unwrap_or_else(|_| format!("<invalid {index}>"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_timing::Technology;

    fn queue() -> QueueStructure {
        QueueStructure::isca98(QueueTimingModel::new(Technology::isca98_evaluation()), 3).unwrap()
    }

    fn cache() -> CacheStructure {
        CacheStructure::isca98(CacheTimingModel::isca98(Technology::isca98_evaluation()), 1).unwrap()
    }

    #[test]
    fn queue_config_space_matches_paper() {
        let q = queue();
        assert_eq!(q.num_configs(), 8);
        assert_eq!(q.current(), 3);
        assert_eq!(q.describe(3), "64-entry");
        assert_eq!(q.window_at(3).unwrap().entries(), 64);
        assert_eq!(q.core_config().window.entries(), 128);
    }

    #[test]
    fn queue_reconfigure_selects_the_window() {
        let mut q = queue();
        q.reconfigure(7).unwrap();
        assert_eq!(q.window_at(q.current()).unwrap().entries(), 128);
        assert_eq!(q.current(), 7);
        assert!(q.reconfigure(8).is_err());
    }

    #[test]
    fn queue_periods_monotone() {
        let q = queue();
        let table = q.period_table().unwrap();
        assert_eq!(table.len(), 8);
        for w in table.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn cache_config_space_matches_paper() {
        let c = cache();
        assert_eq!(c.num_configs(), 8);
        assert_eq!(c.describe(1), "L1=16KB/4-way");
        assert_eq!(c.cache().boundary().l1_kb(), 16);
    }

    #[test]
    fn cache_reconfigure_moves_boundary_preserving_content() {
        let mut c = cache();
        use cap_trace::mem::{AccessKind, MemRef};
        for i in 0..2000u64 {
            c.cache_mut().access(MemRef { addr: i * 32, kind: AccessKind::Read });
        }
        let snapshot = c.cache().contents_snapshot();
        c.reconfigure(5).unwrap();
        assert_eq!(c.cache().boundary().l1_kb(), 48);
        assert_eq!(c.cache().contents_snapshot(), snapshot);
    }

    #[test]
    fn invalid_initial_rejected() {
        assert!(QueueStructure::isca98(QueueTimingModel::default(), 8).is_err());
        let t = CacheTimingModel::isca98(Technology::isca98_evaluation());
        assert!(CacheStructure::isca98(t, 8).is_err());
    }

    #[test]
    fn retiring_increments_masks_large_boundaries() {
        let mut c = cache();
        // 16 increments total; retiring 10 leaves 6 usable, so boundaries
        // of 6+ increments (configs 5..8) become unavailable.
        let unavailable = c.retire_increments(10);
        assert_eq!(unavailable, vec![5, 6, 7]);
        assert!(c.reconfigure(5).is_err());
        assert!(c.reconfigure(4).is_ok());
        assert_eq!(c.current(), 4);
    }

    #[test]
    fn retiring_under_active_boundary_falls_back() {
        let mut c = cache();
        c.reconfigure(7).unwrap();
        let unavailable = c.retire_increments(10);
        assert!(unavailable.contains(&7));
        assert_eq!(c.current(), 4, "largest boundary that still fits");
        assert_eq!(c.cache().boundary().increments(), 5);
    }

    #[test]
    fn trait_object_usable() {
        let mut q = queue();
        let s: &mut dyn AdaptiveStructure = &mut q;
        s.reconfigure(0).unwrap();
        assert_eq!(s.current(), 0);
        assert!(s.cycle_time(0).unwrap() < s.cycle_time(7).unwrap());
    }
}
