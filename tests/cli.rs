//! Process-level CLI contract tests for `capsim`: bad input exits
//! non-zero with usage text, and the documented happy paths run.

mod common;

use common::{assert_usage_failure, capsim, Capsim};
use std::process::Command;

#[test]
fn unknown_subcommand_fails_with_usage() {
    assert_usage_failure(&[]);
    assert_usage_failure(&["frobnicate"]);
    assert_usage_failure(&["sweep", "frobnicate"]);
}

#[test]
fn malformed_jobs_flag_fails_with_usage() {
    assert_usage_failure(&["sweep", "cache", "--jobs"]);
    assert_usage_failure(&["sweep", "cache", "--jobs", "0"]);
    assert_usage_failure(&["sweep", "cache", "--jobs", "many"]);
    assert_usage_failure(&["faults", "radar", "--jobs", "-2"]);
}

#[test]
fn malformed_seed_flag_fails_with_usage() {
    assert_usage_failure(&["sweep", "queue", "--seed"]);
    assert_usage_failure(&["sweep", "queue", "--seed", "-1"]);
    assert_usage_failure(&["faults", "radar", "--seed", "nope"]);
    assert_usage_failure(&["faults", "radar", "--seed", "0x"]);
    assert_usage_failure(&["faults", "radar", "--seed", "0xfg"]);
}

#[test]
fn hex_and_decimal_seeds_print_identical_bytes() {
    let hex = capsim(&["faults", "radar", "--seed", "0x15ca1998"]);
    assert!(hex.status.success(), "{}", String::from_utf8_lossy(&hex.stderr));
    let dec = capsim(&["faults", "radar", "--seed", "365566360"]);
    assert!(dec.status.success(), "{}", String::from_utf8_lossy(&dec.stderr));
    assert_eq!(hex.stdout, dec.stdout);
}

#[test]
fn sweep_happy_path_prints_both_panels_and_bests() {
    let out = capsim(&["sweep", "all", "--jobs", "2", "--seed", "7"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cache sweep"), "{text}");
    assert!(text.contains("queue sweep"), "{text}");
    assert!(text.contains("(a) integer benchmarks"), "{text}");
    assert!(text.contains("(b) floating point"), "{text}");
    assert!(text.contains("best"), "{text}");
    assert!(text.contains("seed 0x7"), "the banner names the seed:\n{text}");
}

#[test]
fn figure_binary_rejects_malformed_jobs() {
    // The bench figure binaries share the same `--jobs` contract.
    let out = Command::new(env!("CARGO_BIN_EXE_capsim"))
        .args(["sweep", "cache", "--jobs", "1", "--jobs", "bad"])
        .env("CAP_SCALE", "smoke")
        .output()
        .expect("capsim spawns");
    assert!(!out.status.success(), "later malformed --jobs must still be rejected");
}

#[test]
fn malformed_cap_jobs_env_is_rejected_with_a_clear_error() {
    for bad in ["abc", "0", "-3", "1.5"] {
        let out = Capsim::new(&["sweep", "cache"]).env("CAP_JOBS", bad).run();
        assert!(!out.status.success(), "CAP_JOBS={bad} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("CAP_JOBS"), "CAP_JOBS={bad} stderr names the variable:\n{stderr}");
        assert!(stderr.contains(bad), "CAP_JOBS={bad} stderr echoes the value:\n{stderr}");
        assert!(!stderr.contains("panicked"), "CAP_JOBS={bad} must not panic:\n{stderr}");
    }
}

#[test]
fn unknown_cap_scale_is_rejected_with_a_clear_error() {
    for bad in ["ful", "SMOKE", "1"] {
        let out = Capsim::new(&["sweep", "cache"]).env("CAP_SCALE", bad).run();
        assert!(!out.status.success(), "CAP_SCALE={bad} must be rejected, not fall back");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("CAP_SCALE"), "CAP_SCALE={bad} stderr names the variable:\n{stderr}");
        assert!(stderr.contains(bad), "CAP_SCALE={bad} stderr echoes the value:\n{stderr}");
        assert!(!stderr.contains("panicked"), "CAP_SCALE={bad} must not panic:\n{stderr}");
    }
}

#[test]
fn malformed_leg_timeout_fails_with_usage() {
    assert_usage_failure(&["sweep", "queue", "--leg-timeout"]);
    assert_usage_failure(&["sweep", "queue", "--leg-timeout", "0"]);
    assert_usage_failure(&["sweep", "queue", "--leg-timeout", "soon"]);
    assert_usage_failure(&["faults", "radar", "--leg-timeout", "-1"]);
}

#[test]
fn campaign_flags_are_rejected_on_non_campaign_commands() {
    let out = capsim(&["managed", "radar", "--resume"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("campaign commands"), "{stderr}");
    let out = capsim(&["managed", "radar", "--leg-timeout", "2"]);
    assert!(!out.status.success());
}

#[test]
fn campaign_flags_are_accepted_uniformly_on_every_campaign_command() {
    // Satellite of the plan/execute refactor: sweep, faults and
    // compare-policies route through one plan-builder path, so the
    // journal/watchdog flags parse (and work) on all three.
    let dir = common::tmp_dir("cli-campaign-flags");
    let journal = dir.join("journal");
    for cmd in [
        &["sweep", "cache", "--leg-timeout", "30"][..],
        &["faults", "radar", "--leg-timeout", "30"][..],
        &["compare-policies", "radar", "--leg-timeout", "30"][..],
    ] {
        let out = Capsim::new(cmd).journal(&journal).run();
        assert!(out.status.success(), "{cmd:?}: {}", String::from_utf8_lossy(&out.stderr));
        let mut resume: Vec<&str> = cmd.to_vec();
        resume.push("--resume");
        let again = Capsim::new(&resume).journal(&journal).run();
        assert!(again.status.success(), "{resume:?}: {}", String::from_utf8_lossy(&again.stderr));
        assert_eq!(out.stdout, again.stdout, "{cmd:?} --resume must replay byte-identically");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `capsim args --leg-timeout 0.05` under a 60 s stall on every
/// leg, with the result cache in `cache` if given: it must fail fast,
/// and the timed-out line must name a leg of `kind`.
fn assert_times_out_on(args: &[&str], cache: Option<&std::path::Path>, kind: &str) {
    let mut args = args.to_vec();
    args.extend(["--leg-timeout", "0.05"]);
    let mut capsim = Capsim::new(&args).env("CAP_CHAOS_STALL", "100:1:60000");
    if let Some(dir) = cache {
        capsim = capsim.cache(dir);
    }
    let started = std::time::Instant::now();
    let out = capsim.run();
    let elapsed = started.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} must fail under a stall:\n{stderr}");
    assert!(elapsed < std::time::Duration::from_secs(10), "{args:?} took {elapsed:?}");
    let timed_out = stderr
        .lines()
        .find(|l| l.contains("timed out"))
        .unwrap_or_else(|| panic!("{args:?}: no timed-out leg in:\n{stderr}"));
    assert!(timed_out.contains(&format!("leg `{kind}|")), "{args:?}: {timed_out}");
}

#[test]
fn every_leg_kind_is_bounded_by_its_deadline() {
    // The deadline is the executor's, so it holds for every leg kind,
    // although no leg polls anything while it stalls.
    assert_times_out_on(&["compare-policies", "radar"], None, "managed-policy");
    assert_times_out_on(&["faults", "radar"], None, "fault-campaign");
    // The figures plan computes its curve legs first. Warm the result
    // cache with them, so the stalled run computes only its
    // interval-series legs.
    let dir = common::tmp_dir("cli-leg-deadline");
    let warm = Capsim::new(&["sweep", "all"]).cache(&dir).run();
    assert!(warm.status.success(), "{}", String::from_utf8_lossy(&warm.stderr));
    assert_times_out_on(&["plan", "figures"], Some(&dir), "interval-series");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn headline_and_its_plan_print_identical_bytes() {
    // `capsim headline` runs the same plan `capsim plan headline` does.
    let direct = capsim(&["headline"]);
    assert!(direct.status.success(), "{}", String::from_utf8_lossy(&direct.stderr));
    let planned = capsim(&["plan", "headline"]);
    assert!(planned.status.success(), "{}", String::from_utf8_lossy(&planned.stderr));
    assert_eq!(direct.stdout, planned.stdout);
    assert!(String::from_utf8_lossy(&direct.stdout).starts_with("metric"));
}

#[test]
fn plan_dry_run_prints_the_leg_graph_without_side_effects() {
    let dir = common::tmp_dir("cli-plan-dry");
    let journal = dir.join("journal");
    let out = Capsim::new(&["plan", "faults", "radar", "--dry-run"]).journal(&journal).run();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("plan: faults"), "{text}");
    assert!(text.contains("[miss       ]"), "{text}");
    assert!(text.contains("reduce: degradation-report"), "{text}");
    assert!(text.contains("total: 2 leg(s), 0 journal-hit, 0 cache-hit, 2 miss"), "{text}");
    assert!(!journal.exists(), "a dry run must not create journal state");
    assert_usage_failure(&["plan"]);
    assert_usage_failure(&["plan", "frobnicate", "--dry-run"]);
    assert_usage_failure(&["plan", "sweep", "cache", "--dry-run", "--resume"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn doctor_scans_an_empty_directory_cleanly() {
    let dir = common::tmp_dir("cli-doctor");
    let out = capsim(&["doctor", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("scanned:          0"), "{text}");
    assert!(text.contains("quarantine total: 0"), "{text}");
    assert_usage_failure(&["doctor", "a", "b"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_rejects_bad_targets_and_flags() {
    assert_usage_failure(&["chaos"]);
    let out = capsim(&["chaos", "frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("chaos target"));
    let out = capsim(&["chaos", "queue", "--resume"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("only --seed"));
}

#[test]
fn unknown_policy_is_rejected_with_usage() {
    assert_usage_failure(&["managed", "radar", "--policy", "optimal"]);
    assert_usage_failure(&["managed", "radar", "--policy"]);
    assert_usage_failure(&["managed", "radar", "--eager", "--policy", "hysteresis"]);
    assert_usage_failure(&["managed", "radar", "--pattern", "--policy", "interval-greedy"]);
    assert_usage_failure(&["compare-policies", "radar", "--policy", "confidence"]);
}

#[test]
fn managed_policy_flag_names_the_policy_in_the_report() {
    for policy in ["process-level", "interval-greedy", "confidence", "hysteresis"] {
        let out = capsim(&["managed", "radar", "--policy", policy]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(policy), "--policy {policy} report:\n{text}");
        assert!(text.contains("managed:"), "{text}");
    }
}

#[test]
fn compare_policies_lists_the_whole_catalog() {
    let out = capsim(&["compare-policies", "radar"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    for policy in ["process-level", "interval-greedy", "confidence", "hysteresis"] {
        assert!(text.contains(policy), "missing {policy}:\n{text}");
    }
    assert!(text.contains("switches"), "{text}");
}

#[test]
fn trace_flag_round_trips_through_trace_summary() {
    let dir = common::tmp_dir("trace-cli");
    let trace = dir.join("managed.jsonl");
    let trace_arg = trace.to_str().unwrap();

    let out = capsim(&["managed", "radar", "--trace", trace_arg]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let report = String::from_utf8_lossy(&out.stdout).to_string();
    // "managed:       1.234 ns (N switches)"
    let switches: u64 = report
        .lines()
        .find(|l| l.starts_with("managed:"))
        .and_then(|l| l.split('(').nth(1))
        .and_then(|tail| tail.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("managed report names its switch count");

    let raw = std::fs::read_to_string(&trace).unwrap();
    assert!(!raw.is_empty(), "--trace writes events");
    assert!(raw.lines().all(|l| l.starts_with('{')), "trace is JSON Lines");

    let out = capsim(&["trace-summary", trace_arg]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let summary = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(summary.contains("app radar"), "{summary}");
    assert!(
        summary.contains(&format!("clock switches: {switches}  (")),
        "summary switch count must equal the run's:\n{summary}\nwant {switches}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_summary_rejects_missing_and_malformed_input() {
    let out = capsim(&["trace-summary", "/nonexistent/trace.jsonl"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let dir = common::tmp_dir("badtrace");
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "{\"ev\":\"future-event-kind\"}\nnot json\n").unwrap();
    let out = capsim(&["trace-summary", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "error names the offending line:\n{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_trace_path_fails_cleanly() {
    let out = capsim(&["managed", "radar", "--trace", "/nonexistent/dir/trace.jsonl"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--trace"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
