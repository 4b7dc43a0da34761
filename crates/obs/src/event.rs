//! The structured event vocabulary and its JSONL encoding.
//!
//! Every event serializes to a single-line JSON object whose first field is
//! `"ev"`, a stable kind tag (`"decision"`, `"clock-switch"`, …), followed
//! by its payload struct's fields in declaration order. Each payload
//! derives `Serialize`; the vendored derive does not support enums, so
//! [`Event::write_json`] writes the tag and splices the payload's fields
//! in after it.

use serde::Serialize;

/// One per-interval decision by the interval-adaptive manager.
///
/// Captures the full §6 control-loop pipeline for the interval: the raw
/// sample, what the sanitizer kept of it, the EWMA estimate after folding it
/// in, the pattern predictor's current output, the confidence counter, and
/// the decision the manager returned (with the driving `reason`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DecisionEvent {
    /// Run label (usually the application name), if one was attached.
    pub app: Option<String>,
    /// 1-based interval number within the managed run.
    pub interval: u64,
    /// Configuration the structure was in when the sample was taken.
    pub config: usize,
    /// Raw observed TPI for the interval, in nanoseconds (may be NaN/∞
    /// under fault injection; non-finite values encode as `null`).
    pub raw_tpi_ns: f64,
    /// The sample after sanitize/clamp; `None` means it was rejected.
    pub sanitized_tpi_ns: Option<f64>,
    /// EWMA TPI estimate for `config` after this interval.
    pub estimate_ns: Option<f64>,
    /// Pattern predictor's pre-switch candidate, if it has one.
    pub predicted: Option<usize>,
    /// Confidence counter value after this interval.
    pub confidence: u32,
    /// Why the manager decided what it decided (stable lowercase tag).
    pub reason: &'static str,
    /// Name of the configuration policy that made the decision
    /// (`"confidence"`, `"process-level"`, …).
    pub policy: &'static str,
    /// Switch target if the decision was `SwitchTo`; `None` for `Stay`.
    pub target: Option<usize>,
}

/// The pattern predictor detecting a periodic phase and pre-switching.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PatternEvent {
    /// Run label, if one was attached.
    pub app: Option<String>,
    /// 1-based interval number at which the pattern fired.
    pub interval: u64,
    /// The configuration the pattern names for the next interval.
    pub config: usize,
    /// The predictor's confidence in the detection (0–1).
    pub confidence: f64,
    /// The detected period, in intervals.
    pub period: usize,
}

/// Outcome of an attempted reconfiguration, as reported back to the manager.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SwitchResultEvent {
    /// Run label, if one was attached.
    pub app: Option<String>,
    /// 1-based interval number at which the attempt resolved.
    pub interval: u64,
    /// Configuration the switch targeted.
    pub target: usize,
    /// `"succeeded"`, `"transient-failure"` or `"permanent-failure"`.
    pub outcome: &'static str,
}

/// A completed clock switch, with the penalty the dynamic clock charged.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClockSwitchEvent {
    /// Run label, if one was attached.
    pub app: Option<String>,
    /// 1-based interval number at which the switch happened.
    pub interval: u64,
    /// Configuration index before the switch.
    pub from: usize,
    /// Configuration index after the switch.
    pub to: usize,
    /// Switch penalty charged, in nanoseconds.
    pub penalty_ns: f64,
    /// Clock period after the switch, in nanoseconds.
    pub period_ns: f64,
}

/// A configuration entering quarantine after repeated switch failures.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuarantineEvent {
    /// Run label, if one was attached.
    pub app: Option<String>,
    /// 1-based interval number at which quarantine began.
    pub interval: u64,
    /// The quarantined configuration.
    pub config: usize,
    /// Whether the configuration is permanently dead (no probation).
    pub permanent: bool,
}

/// A quarantined configuration being released for a probation re-probe.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProbationEvent {
    /// Run label, if one was attached.
    pub app: Option<String>,
    /// 1-based interval number at which probation was granted.
    pub interval: u64,
    /// The configuration released from quarantine.
    pub config: usize,
}

/// The thrash watchdog (or total quarantine) forcing safe-mode fallback.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SafeModeEvent {
    /// Run label, if one was attached.
    pub app: Option<String>,
    /// 1-based interval number at which safe mode engaged.
    pub interval: u64,
    /// The configuration the manager parks in.
    pub safe_config: usize,
}

/// One raw instruction-interval sample from the out-of-order core model.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SampleEvent {
    /// Run label, if one was attached.
    pub app: Option<String>,
    /// 1-based interval number within the managed run.
    pub interval: u64,
    /// Cycles the core spent on the interval.
    pub cycles: u64,
    /// Instructions committed in the interval.
    pub insts: u64,
}

/// One cache-hierarchy simulation interval.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CacheSimEvent {
    /// Run label, if one was attached.
    pub app: Option<String>,
    /// 1-based interval number within the managed run.
    pub interval: u64,
    /// References simulated in the interval.
    pub refs: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Misses to memory.
    pub misses: u64,
}

/// Per-batch counters from one `Pool::run` dispatch.
///
/// The only event whose content depends on OS scheduling (the per-worker
/// split varies run to run); it is emitted for tuning the pool and
/// deliberately kept out of every report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PoolBatchEvent {
    /// Worker threads the batch ran on.
    pub jobs: usize,
    /// Tasks in the batch.
    pub tasks: u64,
    /// Tasks executed by each worker, indexed by worker id.
    pub executed: Vec<u64>,
}

/// A result-cache lookup by the sweep engine.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CacheProbeEvent {
    /// Experiment kind (cache-curve, queue-curve, interval-series, …).
    pub kind: String,
    /// Application the probe was for.
    pub app: String,
    /// `"hit"`, `"miss"`, `"invalid"` (corrupt entry) or `"collision"`.
    pub outcome: &'static str,
}

/// A result-cache store by the sweep engine.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CacheStoreEvent {
    /// Experiment kind.
    pub kind: String,
    /// Application the entry was computed for.
    pub app: String,
    /// Whether the atomic write succeeded.
    pub ok: bool,
}

/// A leg-journal interaction: a completed leg committed to the journal,
/// or a journaled leg replayed instead of recomputed (`--resume`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JournalLegEvent {
    /// The leg's canonical key.
    pub leg: String,
    /// `"appended"` (committed after computing) or `"replayed"`.
    pub action: &'static str,
}

/// A cache entry moved to `quarantine/` after failing verification.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CacheQuarantineEvent {
    /// Experiment kind the probe was for.
    pub kind: String,
    /// Application the probe was for.
    pub app: String,
    /// Why the entry was quarantined: `"invalid"` or `"corrupt"`.
    pub outcome: &'static str,
}

/// A leg abandoned by the watchdog when its deadline passed.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LegTimeoutEvent {
    /// The leg's canonical key.
    pub leg: String,
    /// The per-leg deadline, in milliseconds.
    pub timeout_ms: u64,
}

/// A campaign-request lifecycle transition inside `capsim serve`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeRequestEvent {
    /// Server-assigned request id (monotonic per server process).
    pub id: u64,
    /// The submitted campaign, as its space-joined argument list.
    pub campaign: String,
    /// `"accepted"`, `"done"`, `"failed"` or `"rejected"`.
    pub action: &'static str,
}

/// A leg served from another in-flight campaign's computation instead
/// of being recomputed (single-flight deduplication).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LegDedupEvent {
    /// The leg's canonical key.
    pub leg: String,
}

/// A structured trace event.
///
/// Serialized via [`Event::write_json`] as one JSON object per line, tagged
/// by the `"ev"` field (see [`Event::kind`] for the tag values).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Per-interval manager decision.
    Decision(DecisionEvent),
    /// Switch attempt outcome reported to the manager.
    SwitchResult(SwitchResultEvent),
    /// Completed clock switch with charged penalty.
    ClockSwitch(ClockSwitchEvent),
    /// Configuration quarantined.
    Quarantine(QuarantineEvent),
    /// Configuration released on probation.
    Probation(ProbationEvent),
    /// Safe-mode fallback engaged.
    SafeMode(SafeModeEvent),
    /// Periodic pattern detected and acted on.
    Pattern(PatternEvent),
    /// Raw core interval sample.
    Sample(SampleEvent),
    /// Cache-hierarchy interval simulated.
    CacheSim(CacheSimEvent),
    /// Pool batch counters.
    PoolBatch(PoolBatchEvent),
    /// Result-cache probe.
    CacheProbe(CacheProbeEvent),
    /// Result-cache store.
    CacheStore(CacheStoreEvent),
    /// Leg journal append or replay.
    JournalLeg(JournalLegEvent),
    /// Cache entry quarantined.
    CacheQuarantine(CacheQuarantineEvent),
    /// Leg abandoned as timed out.
    LegTimeout(LegTimeoutEvent),
    /// Campaign-service request transition.
    ServeRequest(ServeRequestEvent),
    /// Leg shared via single-flight deduplication.
    LegDedup(LegDedupEvent),
}

impl Event {
    /// Stable kind tag written as the `"ev"` field.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Decision(_) => "decision",
            Event::SwitchResult(_) => "switch-result",
            Event::ClockSwitch(_) => "clock-switch",
            Event::Quarantine(_) => "quarantine",
            Event::Probation(_) => "probation",
            Event::SafeMode(_) => "safe-mode",
            Event::Pattern(_) => "pattern-detect",
            Event::Sample(_) => "sample",
            Event::CacheSim(_) => "cache-sim",
            Event::PoolBatch(_) => "pool-batch",
            Event::CacheProbe(_) => "result-cache-probe",
            Event::CacheStore(_) => "result-cache-store",
            Event::JournalLeg(_) => "journal-leg",
            Event::CacheQuarantine(_) => "cache-quarantine",
            Event::LegTimeout(_) => "leg-timeout",
            Event::ServeRequest(_) => "serve-request",
            Event::LegDedup(_) => "leg-dedup",
        }
    }

    /// Append this event as a single-line JSON object (no trailing newline).
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"ev\":");
        serde::write_json_string(out, self.kind());
        let payload: &dyn Serialize = match self {
            Event::Decision(e) => e,
            Event::SwitchResult(e) => e,
            Event::ClockSwitch(e) => e,
            Event::Quarantine(e) => e,
            Event::Probation(e) => e,
            Event::SafeMode(e) => e,
            Event::Pattern(e) => e,
            Event::Sample(e) => e,
            Event::CacheSim(e) => e,
            Event::PoolBatch(e) => e,
            Event::CacheProbe(e) => e,
            Event::CacheStore(e) => e,
            Event::JournalLeg(e) => e,
            Event::CacheQuarantine(e) => e,
            Event::LegTimeout(e) => e,
            Event::ServeRequest(e) => e,
            Event::LegDedup(e) => e,
        };
        // The payload's opening brace becomes the comma after the tag.
        let start = out.len();
        payload.json_into(out);
        out.replace_range(start..=start, ",");
    }

    /// This event as a single-line JSON string.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_event_round_trips_through_vendored_parser() {
        let ev = Event::Decision(DecisionEvent {
            app: Some("radar".into()),
            interval: 7,
            config: 2,
            raw_tpi_ns: 1.25,
            sanitized_tpi_ns: Some(1.25),
            estimate_ns: Some(1.5),
            predicted: None,
            confidence: 3,
            reason: "hold",
            policy: "confidence",
            target: None,
        });
        let line = ev.to_json();
        let v = serde_json::from_str(&line).expect("event JSON parses");
        assert_eq!(v.get("ev").and_then(|x| x.as_str()), Some("decision"));
        assert_eq!(v.get("app").and_then(|x| x.as_str()), Some("radar"));
        assert_eq!(v.get("interval").and_then(|x| x.as_u64()), Some(7));
        assert_eq!(v.get("confidence").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(v.get("raw_tpi_ns").and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(v.get("policy").and_then(|x| x.as_str()), Some("confidence"));
        assert!(v.get("target").is_some());
    }

    #[test]
    fn non_finite_samples_encode_as_null() {
        let ev = Event::Decision(DecisionEvent {
            app: None,
            interval: 1,
            config: 0,
            raw_tpi_ns: f64::NAN,
            sanitized_tpi_ns: None,
            estimate_ns: None,
            predicted: None,
            confidence: 0,
            reason: "hold",
            policy: "confidence",
            target: None,
        });
        let line = ev.to_json();
        assert!(line.contains("\"raw_tpi_ns\":null"), "{line}");
        serde_json::from_str(&line).expect("still valid JSON");
    }

    #[test]
    fn every_kind_serializes_to_parseable_json() {
        let events = vec![
            Event::SwitchResult(SwitchResultEvent {
                app: Some("a".into()),
                interval: 1,
                target: 2,
                outcome: "succeeded",
            }),
            Event::ClockSwitch(ClockSwitchEvent {
                app: Some("a".into()),
                interval: 1,
                from: 0,
                to: 2,
                penalty_ns: 10.0,
                period_ns: 4.0,
            }),
            Event::Quarantine(QuarantineEvent {
                app: None,
                interval: 3,
                config: 1,
                permanent: false,
            }),
            Event::Probation(ProbationEvent {
                app: None,
                interval: 9,
                config: 1,
            }),
            Event::SafeMode(SafeModeEvent {
                app: None,
                interval: 4,
                safe_config: 0,
            }),
            Event::Pattern(PatternEvent {
                app: Some("a".into()),
                interval: 12,
                config: 3,
                confidence: 0.9,
                period: 6,
            }),
            Event::Sample(SampleEvent {
                app: Some("a".into()),
                interval: 2,
                cycles: 100,
                insts: 250,
            }),
            Event::CacheSim(CacheSimEvent {
                app: Some("a".into()),
                interval: 2,
                refs: 1000,
                l1_hits: 800,
                l2_hits: 150,
                misses: 50,
            }),
            Event::PoolBatch(PoolBatchEvent {
                jobs: 4,
                tasks: 12,
                executed: vec![3, 3, 3, 3],
            }),
            Event::CacheProbe(CacheProbeEvent {
                kind: "cache-curve".into(),
                app: "radar".into(),
                outcome: "hit",
            }),
            Event::CacheStore(CacheStoreEvent {
                kind: "cache-curve".into(),
                app: "radar".into(),
                ok: true,
            }),
            Event::JournalLeg(JournalLegEvent {
                leg: "cache-sweep|radar|smoke|seed=0x1|L1 8..64KB x8|v1".into(),
                action: "replayed",
            }),
            Event::CacheQuarantine(CacheQuarantineEvent {
                kind: "cache-curve".into(),
                app: "radar".into(),
                outcome: "corrupt",
            }),
            Event::LegTimeout(LegTimeoutEvent {
                leg: "queue-sweep|gcc|point=3".into(),
                timeout_ms: 500,
            }),
            Event::ServeRequest(ServeRequestEvent {
                id: 3,
                campaign: "sweep all --seed 7".into(),
                action: "accepted",
            }),
            Event::LegDedup(LegDedupEvent {
                leg: "cache-sweep|radar|smoke|seed=0x1|L1 8..64KB x8|v1".into(),
            }),
        ];
        for ev in events {
            let line = ev.to_json();
            let v = serde_json::from_str(&line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            assert_eq!(v.get("ev").and_then(|x| x.as_str()), Some(ev.kind()));
            assert!(!line.contains('\n'));
        }
    }
}
