//! Error type for the cache crate.

use std::error::Error;
use std::fmt;

/// Errors produced when configuring the adaptive cache hierarchy.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CacheError {
    /// A boundary position outside `1..increments` was requested.
    InvalidBoundary {
        /// The requested boundary (increments assigned to L1).
        requested: usize,
        /// The total number of increments in the structure.
        increments: usize,
    },
    /// The underlying timing model rejected the geometry.
    Timing(cap_timing::TimingError),
    /// A stack profile was priced with a timing model of a different
    /// geometry from the one it was traversed with.
    GeometryMismatch,
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::InvalidBoundary { requested, increments } => write!(
                f,
                "boundary {requested} must leave at least one of {increments} increments on each side"
            ),
            CacheError::Timing(e) => write!(f, "timing model error: {e}"),
            CacheError::GeometryMismatch => {
                write!(f, "the timing model's geometry differs from the stack profile's")
            }
        }
    }
}

impl Error for CacheError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CacheError::Timing(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<cap_timing::TimingError> for CacheError {
    fn from(e: cap_timing::TimingError) -> Self {
        CacheError::Timing(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CacheError::InvalidBoundary { requested: 16, increments: 16 };
        assert!(e.to_string().contains("16"));
        assert!(e.source().is_none());
        let t = CacheError::Timing(cap_timing::TimingError::InvalidQueueSize { entries: 3 });
        assert!(t.source().is_some());
    }
}
