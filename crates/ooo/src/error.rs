//! Error type for the out-of-order core.

use std::error::Error;
use std::fmt;

/// Errors produced when configuring the core.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OooError {
    /// An unusable window size was requested: not a positive multiple of
    /// 16 within the modelled range, or larger than the physical window
    /// a core was built with.
    InvalidWindow {
        /// The requested number of entries.
        entries: usize,
    },
    /// A pipeline width was zero.
    InvalidWidth {
        /// Which width was invalid.
        what: &'static str,
    },
    /// An interval recording was requested with a zero interval length.
    ZeroIntervalLength,
    /// A window sweep was given more window sizes than it has lanes
    /// ([`crate::multisweep::LANES`]).
    TooManyWindows {
        /// The number of window sizes given.
        windows: usize,
    },
    /// A window sweep's cycle counts could pass `u32::MAX`, the range of
    /// its lanes.
    SweepCycleOverflow {
        /// The index of the instruction at which the bound passed it.
        inst: u64,
    },
}

impl fmt::Display for OooError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OooError::InvalidWindow { entries } => {
                write!(
                    f,
                    "window size {entries} is not usable here (must be a positive multiple of \
                     16 within 16..=256 and at most the core's physical window)"
                )
            }
            OooError::InvalidWidth { what } => write!(f, "pipeline width must be positive: {what}"),
            OooError::ZeroIntervalLength => write!(f, "interval length must be positive"),
            OooError::TooManyWindows { windows } => write!(
                f,
                "a window sweep runs at most {} window sizes, got {windows}",
                crate::multisweep::LANES
            ),
            OooError::SweepCycleOverflow { inst } => write!(
                f,
                "window sweep: cycle counts may pass u32::MAX by instruction {inst}; \
                 run fewer or shorter-latency instructions"
            ),
        }
    }
}

impl Error for OooError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        assert!(!OooError::InvalidWindow { entries: 5 }.to_string().is_empty());
        assert!(!OooError::InvalidWidth { what: "fetch" }.to_string().is_empty());
        assert!(OooError::ZeroIntervalLength.to_string().contains("interval length"));
        let many = OooError::TooManyWindows { windows: 9 }.to_string();
        assert!(many.contains("at most 8") && many.contains("got 9"), "{many}");
        assert!(OooError::SweepCycleOverflow { inst: 3 }.to_string().contains("u32::MAX"));
    }
}
