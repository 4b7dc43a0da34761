//! The dynamic clocking model (paper §4, §4.1).
//!
//! A CAP carries one clock distribution tree but several selectable clock
//! sources — one period per combination of structure configurations,
//! predetermined by worst-case timing analysis. Switching sources requires
//! reliably pausing the active clock and starting the new one, which the
//! paper estimates at **tens of cycles**; the model charges
//! [`DynamicClock::switch_penalty_cycles`] cycles (at the *slower* of the
//! two periods, a conservative accounting) per reconfiguration.

use crate::error::CapError;
use crate::structure::AdaptiveStructure;
use cap_timing::units::Ns;

/// The default clock-switch penalty, in cycles ("the need to reliably
/// switch clock sources may require tens of cycles").
pub const DEFAULT_SWITCH_PENALTY_CYCLES: u64 = 30;

/// A selectable-source dynamic clock.
///
/// # Example
///
/// ```
/// use cap_core::DynamicClock;
/// use cap_timing::units::Ns;
///
/// let mut clock = DynamicClock::new(vec![Ns(0.6), Ns(0.8)], 30)?;
/// assert_eq!(clock.period(), Ns(0.6));
/// let penalty = clock.select(1)?;
/// assert_eq!(clock.period(), Ns(0.8));
/// // 30 cycles at the slower (0.8 ns) period.
/// assert!((penalty.value() - 24.0).abs() < 1e-9);
/// # Ok::<(), cap_core::CapError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicClock {
    periods: Vec<Ns>,
    current: usize,
    switch_penalty_cycles: u64,
    switches: u64,
    total_penalty: Ns,
}

impl DynamicClock {
    /// Creates a clock with one period per configuration; configuration 0
    /// is initially selected.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::InvalidParameter`] if `periods` is empty or
    /// contains a non-positive or non-finite period.
    pub fn new(periods: Vec<Ns>, switch_penalty_cycles: u64) -> Result<Self, CapError> {
        if periods.is_empty() {
            return Err(CapError::InvalidParameter { what: "clock needs at least one period" });
        }
        if periods.iter().any(|p| !p.is_valid() || p.value() == 0.0) {
            return Err(CapError::InvalidParameter { what: "clock periods must be positive and finite" });
        }
        Ok(DynamicClock { periods, current: 0, switch_penalty_cycles, switches: 0, total_penalty: Ns(0.0) })
    }

    /// Creates the clock that times `structure`: one period per
    /// configuration, with the structure's active configuration
    /// selected, so the clock and its structure agree from the first
    /// interval.
    ///
    /// # Errors
    ///
    /// Propagates the structure's period-table errors and
    /// [`DynamicClock::new`]'s.
    pub fn for_structure<S: AdaptiveStructure + ?Sized>(
        structure: &S,
        switch_penalty_cycles: u64,
    ) -> Result<Self, CapError> {
        let mut clock = Self::new(structure.period_table()?, switch_penalty_cycles)?;
        clock.current = structure.current();
        Ok(clock)
    }

    /// The currently selected period.
    pub fn period(&self) -> Ns {
        self.periods[self.current]
    }

    /// The currently selected configuration index.
    pub fn selected(&self) -> usize {
        self.current
    }

    /// The full period table.
    pub fn periods(&self) -> &[Ns] {
        &self.periods
    }

    /// The per-switch penalty in cycles.
    pub fn switch_penalty_cycles(&self) -> u64 {
        self.switch_penalty_cycles
    }

    /// Selects a configuration, returning the wall-clock time lost to the
    /// switch (zero when re-selecting the current configuration).
    ///
    /// # Errors
    ///
    /// Returns [`CapError::UnknownConfiguration`] for an out-of-range
    /// index.
    pub fn select(&mut self, index: usize) -> Result<Ns, CapError> {
        if index >= self.periods.len() {
            return Err(CapError::UnknownConfiguration { index, available: self.periods.len() });
        }
        if index == self.current {
            return Ok(Ns(0.0));
        }
        let slower = self.periods[self.current].max(self.periods[index]);
        let penalty = slower * self.switch_penalty_cycles as f64;
        self.current = index;
        self.switches += 1;
        self.total_penalty += penalty;
        Ok(penalty)
    }

    /// The wall-clock cost of `cycles` penalty cycles charged at the
    /// slower of the current period and configuration `index`'s period —
    /// the same conservative accounting as
    /// [`DynamicClock::select`]. Used to charge retry/backoff cycles for
    /// reconfiguration attempts that fail before the switch completes;
    /// the selection itself is untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::UnknownConfiguration`] for an out-of-range
    /// index.
    pub fn penalty_at(&self, index: usize, cycles: u64) -> Result<Ns, CapError> {
        let target = self
            .periods
            .get(index)
            .ok_or(CapError::UnknownConfiguration { index, available: self.periods.len() })?;
        Ok(self.period().max(*target) * cycles as f64)
    }

    /// Adds externally accounted penalty time (retry/backoff cycles from
    /// failed switch attempts) to the running total.
    pub fn charge_extra_penalty(&mut self, penalty: Ns) {
        self.total_penalty += penalty;
    }

    /// The number of completed switches.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Total wall-clock time charged to switching so far.
    pub fn total_penalty(&self) -> Ns {
        self.total_penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> DynamicClock {
        DynamicClock::new(vec![Ns(0.5), Ns(1.0), Ns(0.75)], 30).unwrap()
    }

    #[test]
    fn starts_at_first_configuration() {
        let c = clock();
        assert_eq!(c.selected(), 0);
        assert_eq!(c.period(), Ns(0.5));
        assert_eq!(c.switches(), 0);
    }

    #[test]
    fn select_charges_slower_period() {
        let mut c = clock();
        let p = c.select(1).unwrap();
        assert!((p.value() - 30.0).abs() < 1e-9, "30 cycles at 1.0 ns");
        let p = c.select(0).unwrap();
        assert!((p.value() - 30.0).abs() < 1e-9, "still the slower of the pair");
        assert_eq!(c.switches(), 2);
        assert!((c.total_penalty().value() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn reselect_is_free() {
        let mut c = clock();
        assert_eq!(c.select(0).unwrap(), Ns(0.0));
        assert_eq!(c.switches(), 0);
    }

    #[test]
    fn rejects_out_of_range() {
        let mut c = clock();
        assert!(matches!(c.select(3), Err(CapError::UnknownConfiguration { index: 3, available: 3 })));
    }

    #[test]
    fn rejects_bad_tables() {
        assert!(DynamicClock::new(vec![], 30).is_err());
        assert!(DynamicClock::new(vec![Ns(0.0)], 30).is_err());
        assert!(DynamicClock::new(vec![Ns(-1.0)], 30).is_err());
        assert!(DynamicClock::new(vec![Ns(f64::NAN)], 30).is_err());
    }

    #[test]
    fn penalty_at_charges_slower_period_without_switching() {
        let mut c = clock();
        let p = c.penalty_at(1, 10).unwrap();
        assert!((p.value() - 10.0).abs() < 1e-9, "10 cycles at the slower 1.0 ns");
        assert_eq!(c.selected(), 0, "no switch happened");
        assert!(c.penalty_at(3, 1).is_err());
        assert_eq!(c.total_penalty(), Ns(0.0));
        c.charge_extra_penalty(p);
        assert!((c.total_penalty().value() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn structure_clock_starts_at_the_structure_configuration() {
        use crate::structure::QueueStructure;
        use cap_timing::queue::QueueTimingModel;
        let structure = QueueStructure::isca98(QueueTimingModel::default(), 3).unwrap();
        let c = DynamicClock::for_structure(&structure, 30).unwrap();
        assert_eq!(c.selected(), 3);
        assert_eq!(c.period(), structure.cycle_time(3).unwrap());
        assert_eq!(c.periods(), structure.period_table().unwrap());
        assert_eq!(c.switches(), 0);
    }

    #[test]
    fn zero_penalty_clock_switches_free() {
        let mut c = DynamicClock::new(vec![Ns(0.5), Ns(1.0)], 0).unwrap();
        assert_eq!(c.select(1).unwrap(), Ns(0.0));
        assert_eq!(c.switches(), 1);
    }
}
