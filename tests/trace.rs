//! Tracing contract tests: the observability layer must describe the
//! managed run exactly (one decision event per interval, one clock-switch
//! event per counted switch) and must never perturb it (traced and
//! untraced runs produce identical reports).

mod common;

use cap::core::experiments::{CacheExperiment, ExecPolicy, ExperimentScale, IntervalExperiment};
use cap::core::policy::{PolicyConfig, PolicyKind};
use cap::obs::summary::TraceSummary;
use cap::obs::{Event, JsonlRecorder, RingRecorder};
use cap::workloads::App;
use std::sync::Arc;

const INTERVALS: u64 = 200;

fn traced_comparison(app: App) -> (cap::core::experiments::AdaptiveComparison, Vec<Event>) {
    let ring = Arc::new(RingRecorder::new());
    let exec = ExecPolicy::serial().with_recorder(ring.clone());
    let cmp = IntervalExperiment::new()
        .policy_comparison(app, INTERVALS, &PolicyConfig::new(PolicyKind::Confidence), &exec)
        .unwrap();
    let events = ring.events();
    (cmp, events)
}

#[test]
fn managed_run_emits_one_decision_per_interval() {
    let (cmp, events) = traced_comparison(App::Radar);
    let decisions: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Decision(d) => Some(d),
            _ => None,
        })
        .collect();
    assert_eq!(decisions.len() as u64, cmp.intervals);
    // Intervals are numbered 1..=N in order, all labeled with the app.
    for (i, d) in decisions.iter().enumerate() {
        assert_eq!(d.interval, i as u64 + 1);
        assert_eq!(d.app.as_deref(), Some("radar"));
        assert!(d.raw_tpi_ns.is_finite());
    }
    // The per-interval raw samples ride along, one per interval.
    let samples = events.iter().filter(|e| matches!(e, Event::Sample(_))).count();
    assert_eq!(samples as u64, cmp.intervals);
}

#[test]
fn clock_switch_events_match_the_reported_switch_count() {
    let (cmp, events) = traced_comparison(App::Radar);
    let switches = events.iter().filter(|e| matches!(e, Event::ClockSwitch(_))).count();
    assert!(cmp.switches > 0, "radar's managed run switches at least once");
    assert_eq!(switches as u64, cmp.switches);
}

#[test]
fn tracing_does_not_perturb_the_managed_run() {
    let (traced, _) = traced_comparison(App::Gcc);
    let untraced = IntervalExperiment::new()
        .policy_comparison(App::Gcc, INTERVALS, &PolicyConfig::new(PolicyKind::Confidence), &ExecPolicy::serial())
        .unwrap();
    assert_eq!(traced.switches, untraced.switches);
    assert_eq!(traced.managed_tpi.to_bits(), untraced.managed_tpi.to_bits());
    assert_eq!(traced.process_level_tpi.to_bits(), untraced.process_level_tpi.to_bits());
    assert_eq!(traced.oracle_tpi.to_bits(), untraced.oracle_tpi.to_bits());
}

#[test]
fn tracing_does_not_perturb_a_cache_sweep() {
    let exp = CacheExperiment::new(ExperimentScale::Smoke).unwrap();
    let plain = exp.figure7(&ExecPolicy::serial()).unwrap();
    let ring = Arc::new(RingRecorder::new());
    let traced = exp.figure7(&ExecPolicy::serial().with_recorder(ring)).unwrap();
    assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
}

#[test]
fn jsonl_trace_round_trips_through_the_summary_reducer() {
    let dir = common::tmp_dir("trace-jsonl");
    let path = dir.join("managed.jsonl");
    let recorder = Arc::new(JsonlRecorder::create(&path).unwrap());
    let exec = ExecPolicy::serial().with_recorder(recorder);
    let cmp = IntervalExperiment::new()
        .policy_comparison(App::Radar, INTERVALS, &PolicyConfig::new(PolicyKind::Confidence), &exec)
        .unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')), "JSONL shape");
    let summary = TraceSummary::from_jsonl(&text).unwrap();
    let app = summary.apps.get("radar").expect("radar appears in the trace");
    assert_eq!(app.decisions, cmp.intervals);
    assert_eq!(app.clock_switches, cmp.switches);
    assert_eq!(app.time_in_config.values().sum::<u64>(), cmp.intervals);
    let _ = std::fs::remove_dir_all(&dir);
}
