//! Observability layer for the CAP reproduction.
//!
//! The interval-adaptive manager of §6 makes one decision per interval —
//! sample, sanitize, EWMA update, prediction, confidence bookkeeping,
//! switch/quarantine/watchdog outcome — and until this crate existed all of
//! that was invisible: only the final TPI survived. `cap-obs` defines a
//! structured [`Event`] vocabulary for those decisions (plus clock switches,
//! simulator samples and sweep-engine counters) and a [`Recorder`] trait that
//! the rest of the workspace threads through its hot paths.
//!
//! Guarantees:
//!
//! - **Zero cost when off.** The default sink is [`NoopRecorder`], whose
//!   [`Recorder::enabled`] returns `false`; every emission site guards event
//!   construction behind `enabled()`, so a disabled trace allocates nothing
//!   and the golden figure outputs stay byte-identical.
//! - **One line per event.** [`JsonlRecorder`] writes each event as a single
//!   JSON object terminated by `\n`, flushed as it is written, so a trace
//!   file is valid JSONL even if the process is killed mid-run.
//! - **Deterministic content.** Events carry only simulation-domain values
//!   (interval numbers, configs, TPI nanoseconds) — no wall-clock timestamps,
//!   thread ids or other sources of nondeterminism, so same-seed runs emit
//!   identical decision streams. The only exception is the per-batch pool
//!   counters, whose per-worker split depends on scheduling; they are confined to
//!   [`Event::PoolBatch`] and never embedded in reports.
//!
//! The crate is dependency-free beyond the vendored `serde`/`serde_json`
//! already used by the workspace (std only).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod metrics;
mod sink;
pub mod summary;

pub use event::{
    CacheProbeEvent, CacheQuarantineEvent, CacheSimEvent, CacheStoreEvent, ClockSwitchEvent,
    DecisionEvent, Event, JournalLegEvent, LegDedupEvent, LegTimeoutEvent, PatternEvent,
    PoolBatchEvent, ProbationEvent, QuarantineEvent, SafeModeEvent, SampleEvent,
    ServeRequestEvent, SwitchResultEvent,
};
pub use metrics::DecisionCounts;
pub use sink::{resolve_recorder, JsonlRecorder, RingRecorder};

use std::sync::Arc;

/// A sink for structured trace events.
///
/// Implementations must be cheap to share across threads (the sweep pool
/// records from every worker). Emission sites are expected to guard event
/// construction behind [`Recorder::enabled`] so that a disabled recorder
/// costs one virtual call and nothing else.
pub trait Recorder: std::fmt::Debug + Send + Sync {
    /// Whether events should be built and recorded at all.
    ///
    /// Defaults to `true`; only [`NoopRecorder`] returns `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event. Must not panic on I/O failure (log-and-drop).
    fn record(&self, event: &Event);
}

/// The default recorder: drops everything, reports itself disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: &Event) {}
}

/// A shared handle to the disabled recorder.
#[must_use]
pub fn noop() -> Arc<dyn Recorder> {
    Arc::new(NoopRecorder)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled() {
        let r = noop();
        assert!(!r.enabled());
        r.record(&Event::Probation(ProbationEvent {
            app: None,
            interval: 1,
            config: 0,
        }));
    }
}
