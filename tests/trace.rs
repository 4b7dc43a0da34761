//! Tracing contract tests: the observability layer must describe the
//! managed run exactly (one decision event per interval, one clock-switch
//! event per counted switch), must never perturb it (traced and
//! untraced runs produce identical reports), and must trace each
//! computed leg of a comparison as one contiguous run.

mod common;

use cap::core::experiments::{
    CacheExperiment, ExecPolicy, ExperimentScale, IntervalExperiment, DEFAULT_SEED,
    SWEEP_RESULTS_VERSION,
};
use cap::core::policy::{PolicyConfig, PolicyKind};
use cap::obs::summary::TraceSummary;
use cap::obs::{Event, JsonlRecorder, RingRecorder};
use cap::ooo::interval::PAPER_INTERVAL_INSTS;
use cap::par::{CacheKey, ResultCache};
use cap::workloads::App;
use std::sync::Arc;

const INTERVALS: u64 = 200;

fn traced_comparison(app: App) -> (cap::core::experiments::AdaptiveComparison, Vec<Event>) {
    let ring = Arc::new(RingRecorder::new());
    let exec = ExecPolicy::serial().with_recorder(ring.clone());
    let cmp = IntervalExperiment::new()
        .policy_comparison(app, INTERVALS, &[PolicyConfig::new(PolicyKind::Confidence)], &exec)
        .unwrap()
        .remove(0);
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
        .policy_comparison(App::Gcc, INTERVALS, &[PolicyConfig::new(PolicyKind::Confidence)], &ExecPolicy::serial())
        .unwrap()
        .remove(0);
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
        .policy_comparison(App::Radar, INTERVALS, &[PolicyConfig::new(PolicyKind::Confidence)], &exec)
        .unwrap()
        .remove(0);

    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')), "JSONL shape");
    let summary = TraceSummary::from_jsonl(&text).unwrap();
    let app = summary.apps.get("radar").expect("radar appears in the trace");
    assert_eq!(app.decisions, cmp.intervals);
    assert_eq!(app.clock_switches, cmp.switches);
    assert_eq!(app.time_in_config.values().sum::<u64>(), cmp.intervals);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One managed run's events in a trace: its policy, and its decision and
/// clock-switch counts.
#[derive(Debug)]
struct RunBlock {
    policy: String,
    decisions: u64,
    clock_switches: u64,
}

/// The raw text of field `name` in one JSONL event line, for the numbers
/// and comma-free strings of the run events.
fn field<'a>(line: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\":");
    let start = line.find(&key).unwrap_or_else(|| panic!("no {name} in {line}")) + key.len();
    let rest = &line[start..];
    rest[..rest.find([',', '}']).unwrap()].trim_matches('"')
}

/// Splits a JSONL trace into its managed runs, asserting that each run's
/// events are contiguous: a run opens with the sample of interval 1,
/// holds nothing but its own sample, decision, switch-result and
/// clock-switch events, numbers its decisions 1, 2, ... and names one
/// policy in all of them.
fn run_blocks(text: &str) -> Vec<RunBlock> {
    const RUN_EVENTS: [&str; 4] = ["sample", "decision", "switch-result", "clock-switch"];
    let mut blocks: Vec<RunBlock> = Vec::new();
    let mut open = false;
    for line in text.lines() {
        let ev = field(line, "ev");
        if !RUN_EVENTS.contains(&ev) {
            open = false;
            continue;
        }
        let interval: u64 = field(line, "interval").parse().unwrap();
        if ev == "sample" && interval == 1 {
            blocks.push(RunBlock { policy: String::new(), decisions: 0, clock_switches: 0 });
            open = true;
        }
        assert!(open, "a {ev} event outside its managed run: {line}");
        let block = blocks.last_mut().unwrap();
        match ev {
            "decision" => {
                block.decisions += 1;
                assert_eq!(interval, block.decisions, "{line}");
                if block.policy.is_empty() {
                    block.policy = field(line, "policy").to_string();
                }
                assert_eq!(block.policy, field(line, "policy"), "{line}");
            }
            "clock-switch" => block.clock_switches += 1,
            _ => {}
        }
    }
    blocks
}

#[test]
fn compare_policies_traces_each_computed_leg_as_one_block() {
    let dir = common::tmp_dir("trace-compare");
    let exp = IntervalExperiment::new();
    let traced = |name: &str, exec: ExecPolicy| {
        let path = dir.join(name);
        let exec = exec.with_recorder(Arc::new(JsonlRecorder::create(&path).unwrap()));
        let cmp = exp.compare_policies_with(App::Radar, INTERVALS, &exec).unwrap();
        (cmp, run_blocks(&std::fs::read_to_string(&path).unwrap()))
    };
    let policies = |blocks: &[RunBlock]| blocks.iter().map(|b| b.policy.clone()).collect::<Vec<_>>();

    // Serially, every leg computes its run and traces it whole, in
    // catalog order.
    let (cold, blocks) = traced("cold.jsonl", ExecPolicy::serial());
    let catalog: Vec<String> = PolicyKind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(policies(&blocks), catalog);
    for (block, row) in blocks.iter().zip(&cold.rows) {
        assert_eq!(block.decisions, INTERVALS, "{}", row.policy);
        assert_eq!(block.clock_switches, row.switches, "{}", row.policy);
    }

    // With two legs in the result cache, only the other two trace.
    let cache = ResultCache::at(dir.join("cache"));
    for (kind, row) in PolicyKind::ALL.iter().zip(&cold.rows).step_by(2) {
        let key = CacheKey {
            kind: "managed-policy".to_string(),
            app: "radar".to_string(),
            scale: format!("{INTERVALS}x{PAPER_INTERVAL_INSTS}insts"),
            seed: DEFAULT_SEED,
            config_range: "W isca98".to_string(),
            version: SWEEP_RESULTS_VERSION,
            policy: Some(kind.name().to_string()),
        };
        assert!(cache.store(&key, row));
    }
    let (warm, blocks) = traced("warm.jsonl", ExecPolicy::serial().cached(cache));
    assert_eq!(warm, cold);
    assert_eq!(policies(&blocks), [catalog[1].clone(), catalog[3].clone()]);
    let _ = std::fs::remove_dir_all(&dir);
}
