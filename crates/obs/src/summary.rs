//! Trace reduction: fold a JSONL event stream back into run-level metrics.
//!
//! The `capsim trace-summary <file>` subcommand parses every line of a trace
//! produced by [`crate::JsonlRecorder`] and prints, per application label:
//! decision counts grouped by reason, clock switches with the total charged
//! penalty, switch-attempt outcomes, quarantine/probation/safe-mode episode
//! counts and a time-in-configuration histogram — plus the global sweep-engine
//! counters (pool batches and result-cache probes/stores).
//!
//! The reducer is strict: a line that is not valid JSON, or a known event
//! kind missing a required field, is an error naming the line number. That
//! turns schema drift into a loud CI failure instead of silently skewed
//! summaries. The single exception is a *final* line with no trailing
//! newline — the signature of a run killed mid-write. The torn record is
//! dropped, [`TraceSummary::truncated`] is set so the report can warn,
//! and every complete line still contributes to the totals.

use serde_json::{FromJson, Value};
use std::collections::BTreeMap;

/// Key used for events that carry no `app` label.
const UNLABELED: &str = "(unlabeled)";

/// Aggregated per-application trace statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppSummary {
    /// Total manager decisions (one per observed interval).
    pub decisions: u64,
    /// Decision counts keyed by the stable `reason` tag.
    pub reasons: BTreeMap<String, u64>,
    /// Completed clock switches.
    pub clock_switches: u64,
    /// Total switch penalty charged, in nanoseconds.
    pub switch_penalty_ns: f64,
    /// Switch-attempt outcomes keyed by the stable `outcome` tag.
    pub switch_results: BTreeMap<String, u64>,
    /// Quarantine episodes (transient and permanent).
    pub quarantines: u64,
    /// Probation releases from quarantine.
    pub probations: u64,
    /// Safe-mode engagements.
    pub safe_mode_entries: u64,
    /// Periodic-pattern detections the manager acted on.
    pub pattern_detections: u64,
    /// Intervals spent in each configuration (from decision events).
    pub time_in_config: BTreeMap<usize, u64>,
}

/// Aggregated whole-trace statistics, as folded by [`TraceSummary::from_jsonl`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Events parsed from the trace.
    pub events: u64,
    /// Per-application aggregates, keyed by run label.
    pub apps: BTreeMap<String, AppSummary>,
    /// Pool batches dispatched.
    pub pool_batches: u64,
    /// Tasks executed across all pool batches.
    pub pool_tasks: u64,
    /// Result-cache probe outcomes keyed by the stable `outcome` tag.
    pub cache_probes: BTreeMap<String, u64>,
    /// Result-cache stores that succeeded.
    pub cache_stores_ok: u64,
    /// Result-cache stores that failed.
    pub cache_stores_failed: u64,
    /// Journal legs replayed from a resumed run.
    pub journal_replayed: u64,
    /// Journal legs appended after computing.
    pub journal_appended: u64,
    /// Cache entries moved to quarantine.
    pub cache_quarantines: u64,
    /// Legs abandoned by the watchdog.
    pub leg_timeouts: u64,
    /// Campaign-service request transitions keyed by the stable `action`
    /// tag (`accepted` / `done` / `failed` / `rejected`).
    pub serve_requests: BTreeMap<String, u64>,
    /// Legs shared via single-flight deduplication instead of recomputed.
    pub legs_deduped: u64,
    /// Whether the trace ended in a torn (truncated) final line that was
    /// dropped — the signature of a crashed run.
    pub truncated: bool,
}

fn field<T: FromJson>(v: &Value, key: &str, line: usize) -> Result<T, String> {
    serde_json::field(v, key).ok_or_else(|| format!("line {line}: missing or mistyped field `{key}`"))
}

fn app_label(v: &Value) -> String {
    v.get("app")
        .and_then(Value::as_str)
        .unwrap_or(UNLABELED)
        .to_string()
}

impl TraceSummary {
    /// Fold a JSONL trace (the full file contents) into a summary.
    ///
    /// Empty lines are ignored. Unknown `ev` tags are counted but otherwise
    /// skipped, so a newer trace still summarizes under an older binary.
    ///
    /// # Errors
    /// Returns a message naming the first offending line if a line is not a
    /// JSON object, lacks the `ev` tag, or a known event is missing a field.
    /// Exception: a final line with no trailing newline (a torn write from a
    /// crashed run) is dropped and flagged via [`TraceSummary::truncated`].
    pub fn from_jsonl(text: &str) -> Result<TraceSummary, String> {
        let mut sum = TraceSummary::default();
        let ends_with_newline = text.ends_with('\n');
        let lines: Vec<&str> = text.lines().collect();
        let total = lines.len();
        for (idx, raw) in lines.into_iter().enumerate() {
            let line = idx + 1;
            if raw.trim().is_empty() {
                continue;
            }
            let torn_candidate = line == total && !ends_with_newline;
            // Snapshot so a half-applied torn record cannot skew totals.
            let snapshot = torn_candidate.then(|| sum.clone());
            match sum.apply_line(raw, line) {
                Ok(()) => {}
                Err(_) if torn_candidate => {
                    sum = snapshot.expect("snapshot taken for torn candidates");
                    sum.truncated = true;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(sum)
    }

    fn apply_line(&mut self, raw: &str, line: usize) -> Result<(), String> {
        let sum = self;
        {
            let v: Value = serde_json::from_str(raw)
                .map_err(|e| format!("line {line}: not valid JSON ({e:?})"))?;
            let kind = field::<String>(&v, "ev", line)?;
            sum.events += 1;
            match kind.as_str() {
                "decision" => {
                    let app = sum.apps.entry(app_label(&v)).or_default();
                    app.decisions += 1;
                    let reason = field::<String>(&v, "reason", line)?;
                    *app.reasons.entry(reason).or_insert(0) += 1;
                    let config = field::<usize>(&v, "config", line)?;
                    *app.time_in_config.entry(config).or_insert(0) += 1;
                }
                "clock-switch" => {
                    let app = sum.apps.entry(app_label(&v)).or_default();
                    app.clock_switches += 1;
                    app.switch_penalty_ns +=
                        v.get("penalty_ns").and_then(Value::as_f64).unwrap_or(0.0);
                }
                "switch-result" => {
                    let app = sum.apps.entry(app_label(&v)).or_default();
                    let outcome = field::<String>(&v, "outcome", line)?;
                    *app.switch_results.entry(outcome).or_insert(0) += 1;
                }
                "quarantine" => {
                    sum.apps.entry(app_label(&v)).or_default().quarantines += 1;
                }
                "probation" => {
                    sum.apps.entry(app_label(&v)).or_default().probations += 1;
                }
                "safe-mode" => {
                    sum.apps.entry(app_label(&v)).or_default().safe_mode_entries += 1;
                }
                "pattern-detect" => {
                    sum.apps.entry(app_label(&v)).or_default().pattern_detections += 1;
                }
                "sample" | "cache-sim" => {
                    // Raw simulator intervals; the decision stream already
                    // carries the per-interval story, so nothing to add.
                    sum.apps.entry(app_label(&v)).or_default();
                }
                "pool-batch" => {
                    sum.pool_batches += 1;
                    sum.pool_tasks += field::<u64>(&v, "tasks", line)?;
                }
                "result-cache-probe" => {
                    let outcome = field::<String>(&v, "outcome", line)?;
                    *sum.cache_probes.entry(outcome).or_insert(0) += 1;
                }
                "result-cache-store" => {
                    let ok = v.get("ok").and_then(Value::as_bool).unwrap_or(false);
                    if ok {
                        sum.cache_stores_ok += 1;
                    } else {
                        sum.cache_stores_failed += 1;
                    }
                }
                "journal-leg" => match field::<String>(&v, "action", line)?.as_str() {
                    "replayed" => sum.journal_replayed += 1,
                    _ => sum.journal_appended += 1,
                },
                "cache-quarantine" => {
                    field::<String>(&v, "outcome", line)?;
                    sum.cache_quarantines += 1;
                }
                "leg-timeout" => {
                    field::<String>(&v, "leg", line)?;
                    sum.leg_timeouts += 1;
                }
                "serve-request" => {
                    field::<u64>(&v, "id", line)?;
                    let action = field::<String>(&v, "action", line)?;
                    *sum.serve_requests.entry(action).or_insert(0) += 1;
                }
                "leg-dedup" => {
                    field::<String>(&v, "leg", line)?;
                    sum.legs_deduped += 1;
                }
                _ => {} // forward compatibility: count it, skip the payload
            }
        }
        Ok(())
    }

    /// Render the summary as the plain-text report printed by
    /// `capsim trace-summary`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.truncated {
            out.push_str("warning: trace ends mid-record (crashed run?); dropped the torn final line\n");
        }
        out.push_str(&format!("trace summary: {} events\n", self.events));
        for (app, s) in &self.apps {
            out.push_str(&format!("\napp {app}\n"));
            out.push_str(&format!("  decisions:      {}\n", s.decisions));
            for (reason, n) in &s.reasons {
                out.push_str(&format!("    {reason:<14} {n}\n"));
            }
            out.push_str(&format!(
                "  clock switches: {}  (penalty {:.3} ns)\n",
                s.clock_switches, s.switch_penalty_ns
            ));
            for (outcome, n) in &s.switch_results {
                out.push_str(&format!("    {outcome:<14} {n}\n"));
            }
            out.push_str(&format!(
                "  quarantines: {}  probations: {}  safe-mode entries: {}\n",
                s.quarantines, s.probations, s.safe_mode_entries
            ));
            if s.pattern_detections > 0 {
                out.push_str(&format!("  pattern detections: {}\n", s.pattern_detections));
            }
            if !s.time_in_config.is_empty() {
                out.push_str("  time in config:\n");
                for (config, n) in &s.time_in_config {
                    out.push_str(&format!("    config {config}: {n} intervals\n"));
                }
            }
        }
        if self.pool_batches > 0 {
            out.push_str(&format!(
                "\npool: {} batches, {} tasks\n",
                self.pool_batches, self.pool_tasks
            ));
        }
        if !self.cache_probes.is_empty() || self.cache_stores_ok + self.cache_stores_failed > 0 {
            out.push_str("\nresult-cache:\n");
            for (outcome, n) in &self.cache_probes {
                out.push_str(&format!("  probe {outcome:<10} {n}\n"));
            }
            out.push_str(&format!(
                "  stores ok {}  failed {}\n",
                self.cache_stores_ok, self.cache_stores_failed
            ));
        }
        if self.journal_replayed + self.journal_appended > 0 {
            out.push_str(&format!(
                "\njournal: {} legs replayed, {} appended\n",
                self.journal_replayed, self.journal_appended
            ));
        }
        if self.cache_quarantines > 0 {
            out.push_str(&format!("quarantined cache entries: {}\n", self.cache_quarantines));
        }
        if self.leg_timeouts > 0 {
            out.push_str(&format!("timed-out legs: {}\n", self.leg_timeouts));
        }
        if !self.serve_requests.is_empty() {
            out.push_str("\nserve requests:\n");
            for (action, n) in &self.serve_requests {
                out.push_str(&format!("  {action:<10} {n}\n"));
            }
        }
        if self.legs_deduped > 0 {
            out.push_str(&format!("deduped legs (single-flight): {}\n", self.legs_deduped));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CacheProbeEvent, ClockSwitchEvent, DecisionEvent, Event, PatternEvent, PoolBatchEvent,
        QuarantineEvent,
    };

    fn decision(interval: u64, config: usize, reason: &'static str) -> Event {
        Event::Decision(DecisionEvent {
            app: Some("radar".into()),
            interval,
            config,
            raw_tpi_ns: 1.0,
            sanitized_tpi_ns: Some(1.0),
            estimate_ns: Some(1.0),
            predicted: None,
            confidence: 0,
            reason,
            policy: "confidence",
            target: None,
        })
    }

    fn jsonl(events: &[Event]) -> String {
        let mut text = String::new();
        for e in events {
            text.push_str(&e.to_json());
            text.push('\n');
        }
        text
    }

    #[test]
    fn summary_counts_decisions_switches_and_configs() {
        let text = jsonl(&[
            decision(1, 0, "explore"),
            decision(2, 1, "hold"),
            decision(3, 1, "hold"),
            Event::ClockSwitch(ClockSwitchEvent {
                app: Some("radar".into()),
                interval: 1,
                from: 0,
                to: 1,
                penalty_ns: 12.5,
                period_ns: 4.0,
            }),
            Event::Quarantine(QuarantineEvent {
                app: Some("radar".into()),
                interval: 3,
                config: 2,
                permanent: false,
            }),
            Event::PoolBatch(PoolBatchEvent {
                jobs: 2,
                tasks: 8,
                executed: vec![5, 3],
            }),
            Event::CacheProbe(CacheProbeEvent {
                kind: "cache-curve".into(),
                app: "radar".into(),
                outcome: "miss",
            }),
            Event::Pattern(PatternEvent {
                app: Some("radar".into()),
                interval: 3,
                config: 1,
                confidence: 0.9,
                period: 6,
            }),
        ]);
        let sum = TraceSummary::from_jsonl(&text).expect("summarizes");
        assert_eq!(sum.events, 8);
        let app = sum.apps.get("radar").expect("radar summarized");
        assert_eq!(app.decisions, 3);
        assert_eq!(app.reasons.get("hold"), Some(&2));
        assert_eq!(app.clock_switches, 1);
        assert!((app.switch_penalty_ns - 12.5).abs() < 1e-12);
        assert_eq!(app.quarantines, 1);
        assert_eq!(app.time_in_config.get(&1), Some(&2));
        assert_eq!(sum.pool_batches, 1);
        assert_eq!(sum.pool_tasks, 8);
        assert_eq!(sum.cache_probes.get("miss"), Some(&1));
        assert_eq!(app.pattern_detections, 1);
        let text = sum.render();
        assert!(text.contains("clock switches: 1"), "{text}");
        assert!(text.contains("config 1: 2 intervals"), "{text}");
        assert!(text.contains("pattern detections: 1"), "{text}");
    }

    #[test]
    fn invalid_line_is_an_error_naming_the_line() {
        let err = TraceSummary::from_jsonl("{\"ev\":\"decision\"}\nnot json\n")
            .expect_err("second line must fail");
        // Line 1 fails first: a decision without its fields is schema drift.
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn empty_lines_and_unknown_kinds_are_tolerated() {
        let sum = TraceSummary::from_jsonl("\n{\"ev\":\"future-kind\",\"x\":1}\n\n")
            .expect("unknown kinds are skipped");
        assert_eq!(sum.events, 1);
        assert!(sum.apps.is_empty());
    }

    #[test]
    fn torn_final_line_is_dropped_with_a_warning_not_an_error() {
        // A crashed run's trace: complete lines, then a record cut mid-write
        // (no trailing newline). Totals cover the complete prefix only.
        let text = format!("{}\n{}\n{{\"ev\":\"decis", decision(1, 0, "hold").to_json(), decision(2, 1, "hold").to_json());
        let sum = TraceSummary::from_jsonl(&text).expect("torn tail tolerated");
        assert!(sum.truncated);
        assert_eq!(sum.events, 2);
        assert_eq!(sum.apps.get("radar").unwrap().decisions, 2);
        let report = sum.render();
        assert!(report.starts_with("warning:"), "{report}");
        assert!(report.contains("trace summary: 2 events"), "{report}");

        // The same malformed text *with* a trailing newline is still a hard
        // error: only a torn final line gets the tolerance.
        let err = TraceSummary::from_jsonl(&format!("{text}\n")).expect_err("strict");
        assert!(err.contains("line 3"), "{err}");
    }

    #[test]
    fn journal_quarantine_and_timeout_events_are_counted() {
        let text = jsonl(&[
            Event::JournalLeg(crate::JournalLegEvent { leg: "a".into(), action: "replayed" }),
            Event::JournalLeg(crate::JournalLegEvent { leg: "b".into(), action: "appended" }),
            Event::JournalLeg(crate::JournalLegEvent { leg: "c".into(), action: "appended" }),
            Event::CacheQuarantine(crate::CacheQuarantineEvent {
                kind: "cache-curve".into(),
                app: "radar".into(),
                outcome: "corrupt",
            }),
            Event::LegTimeout(crate::LegTimeoutEvent {
                leg: "queue-curve|gcc".into(),
                timeout_ms: 250,
            }),
        ]);
        let sum = TraceSummary::from_jsonl(&text).expect("summarizes");
        assert_eq!(sum.journal_replayed, 1);
        assert_eq!(sum.journal_appended, 2);
        assert_eq!(sum.cache_quarantines, 1);
        assert_eq!(sum.leg_timeouts, 1);
        assert!(!sum.truncated);
        let report = sum.render();
        assert!(report.contains("journal: 1 legs replayed, 2 appended"), "{report}");
        assert!(report.contains("quarantined cache entries: 1"), "{report}");
        assert!(report.contains("timed-out legs: 1"), "{report}");
        assert!(!report.contains("warning:"), "{report}");
    }

    #[test]
    fn serve_and_dedup_events_are_counted() {
        let text = jsonl(&[
            Event::ServeRequest(crate::ServeRequestEvent {
                id: 1,
                campaign: "sweep all".into(),
                action: "accepted",
            }),
            Event::ServeRequest(crate::ServeRequestEvent {
                id: 2,
                campaign: "sweep all".into(),
                action: "accepted",
            }),
            Event::ServeRequest(crate::ServeRequestEvent {
                id: 1,
                campaign: "sweep all".into(),
                action: "done",
            }),
            Event::ServeRequest(crate::ServeRequestEvent {
                id: 3,
                campaign: "headline".into(),
                action: "rejected",
            }),
            Event::LegDedup(crate::LegDedupEvent { leg: "cache-curve|radar".into() }),
            Event::LegDedup(crate::LegDedupEvent { leg: "cache-curve|gcc".into() }),
        ]);
        let sum = TraceSummary::from_jsonl(&text).expect("summarizes");
        assert_eq!(sum.serve_requests.get("accepted"), Some(&2));
        assert_eq!(sum.serve_requests.get("done"), Some(&1));
        assert_eq!(sum.serve_requests.get("rejected"), Some(&1));
        assert_eq!(sum.legs_deduped, 2);
        let report = sum.render();
        assert!(report.contains("serve requests:"), "{report}");
        assert!(report.contains("deduped legs (single-flight): 2"), "{report}");
    }
}
