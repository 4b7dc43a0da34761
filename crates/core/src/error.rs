//! Error type for the CAP framework.

use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Errors produced by the framework and experiment drivers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CapError {
    /// A configuration index outside the clock's table was selected.
    UnknownConfiguration {
        /// The requested configuration index.
        index: usize,
        /// The number of configurations in the table.
        available: usize,
    },
    /// A manager or experiment was constructed with invalid parameters.
    InvalidParameter {
        /// Human-readable description.
        what: &'static str,
    },
    /// An underlying timing model rejected a request.
    Timing(cap_timing::TimingError),
    /// The cache substrate rejected a request.
    Cache(cap_cache::CacheError),
    /// The out-of-order substrate rejected a request.
    Ooo(cap_ooo::OooError),
    /// An injected fault prevented the operation from completing (only
    /// produced under the [`crate::faults`] harness).
    FaultInjected {
        /// What the fault prevented.
        what: &'static str,
    },
    /// Every configuration is quarantined or unavailable, including the
    /// designated safe fallback — the managed run cannot proceed.
    NoViableConfiguration,
    /// The process environment is unusable: a malformed control variable
    /// (e.g. `CAP_JOBS=abc`) or an uncreatable trace path. Reported
    /// instead of silently falling back so a typo cannot change a run's
    /// meaning.
    Environment {
        /// Human-readable description naming the variable and value.
        message: String,
    },
    /// A leg was still computing at its deadline (`--leg-timeout` /
    /// `CAP_LEG_TIMEOUT`) and was abandoned. The campaign reports the
    /// leg instead of hanging on it.
    LegTimedOut {
        /// The canonical key of the abandoned leg.
        leg: String,
        /// The deadline it missed.
        timeout: Duration,
    },
    /// The campaign stopped at a leg boundary after a graceful drain
    /// (SIGINT/SIGTERM). Completed legs are committed to the journal;
    /// rerunning with `--resume` replays them and continues.
    Interrupted,
    /// An internal invariant failed to hold. Campaign infrastructure
    /// (the plan executor, the campaign service) reports broken
    /// invariants as this structured error instead of panicking, so one
    /// bad request can never take down a server handling others.
    Internal {
        /// Which invariant broke.
        what: String,
    },
}

impl fmt::Display for CapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapError::UnknownConfiguration { index, available } => {
                write!(f, "configuration {index} is out of range (table has {available})")
            }
            CapError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            CapError::Timing(e) => write!(f, "timing model error: {e}"),
            CapError::Cache(e) => write!(f, "cache substrate error: {e}"),
            CapError::Ooo(e) => write!(f, "out-of-order substrate error: {e}"),
            CapError::FaultInjected { what } => write!(f, "injected fault: {what}"),
            CapError::NoViableConfiguration => {
                write!(f, "no viable configuration remains (all quarantined or unavailable)")
            }
            CapError::Environment { message } => write!(f, "{message}"),
            CapError::LegTimedOut { leg, timeout } => {
                write!(f, "leg `{leg}` timed out: no result within its {timeout:?} deadline")
            }
            CapError::Interrupted => {
                write!(f, "interrupted at a leg boundary (completed legs are journaled; rerun with --resume)")
            }
            CapError::Internal { what } => write!(f, "internal error: {what}"),
        }
    }
}

impl Error for CapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CapError::Timing(e) => Some(e),
            CapError::Cache(e) => Some(e),
            CapError::Ooo(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<cap_timing::TimingError> for CapError {
    fn from(e: cap_timing::TimingError) -> Self {
        CapError::Timing(e)
    }
}

#[doc(hidden)]
impl From<cap_cache::CacheError> for CapError {
    fn from(e: cap_cache::CacheError) -> Self {
        CapError::Cache(e)
    }
}

#[doc(hidden)]
impl From<cap_ooo::OooError> for CapError {
    fn from(e: cap_ooo::OooError) -> Self {
        CapError::Ooo(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CapError::UnknownConfiguration { index: 9, available: 3 };
        assert!(e.to_string().contains('9'));
        assert!(e.source().is_none());
        let t: CapError = cap_timing::TimingError::InvalidQueueSize { entries: 1 }.into();
        assert!(t.source().is_some());
        let c: CapError = cap_cache::CacheError::InvalidBoundary { requested: 0, increments: 16 }.into();
        assert!(c.source().is_some());
        let o: CapError = cap_ooo::OooError::InvalidWindow { entries: 3 }.into();
        assert!(o.source().is_some());
        let fi = CapError::FaultInjected { what: "clock switch" };
        assert!(fi.to_string().contains("clock switch"));
        assert!(fi.source().is_none());
        assert!(CapError::NoViableConfiguration.to_string().contains("no viable"));
        let env = CapError::Environment { message: "CAP_JOBS must be a positive integer, got `abc`".into() };
        assert!(env.to_string().contains("CAP_JOBS"));
        assert!(env.source().is_none());
        let to = CapError::LegTimedOut {
            leg: "queue-sweep|gcc|point=3".into(),
            timeout: Duration::from_millis(50),
        };
        assert!(to.to_string().contains("timed out: no result within its 50ms deadline"));
        assert!(to.to_string().contains("queue-sweep|gcc|point=3"));
        assert!(CapError::Interrupted.to_string().contains("--resume"));
        let internal = CapError::Internal { what: "leg `x` neither resolved nor errored".into() };
        assert!(internal.to_string().contains("internal error"));
        assert!(internal.to_string().contains("leg `x`"));
        assert!(internal.source().is_none());
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CapError>();
    }
}
