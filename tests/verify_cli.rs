//! Process-level contract tests for `capsim verify`: the differential
//! oracle suite runs deterministically, the self-check detects its
//! planted bug, and `--replay` reproduces failures byte-for-byte.

mod common;

use common::{assert_usage_failure, Capsim};

/// A minimal hand-written scenario: two configurations, one interval,
/// no faults, with `landscape = [[1.0, 2.0]]` stored as raw f64 bits.
/// Small enough that every divergence is obvious by inspection.
const TINY_SCENARIO_BODY: &str = "\"cap_verify_scenario\":1,\"policy\":\"interval-greedy\",\
\"kind\":\"queue\",\"configs\":2,\"landscape\":[[4607182418800017408,4611686018427387904]],\
\"corrupt\":[null],\"switch_faults\":\"\",\"mask_at\":null}";

fn verify_in(dir: &std::path::Path, args: &[&str]) -> std::process::Output {
    Capsim::new(args).env("CAP_VERIFY_DIR", dir.to_str().unwrap()).run()
}

#[test]
fn verify_run_is_deterministic_and_reports_every_property() {
    let dir = common::tmp_dir("verify-run");
    let a = verify_in(&dir, &["verify", "--cases", "3", "--seed", "5"]);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("43 properties passed"), "{text}");
    assert!(text.contains("seed 5"), "{text}");
    let progress = String::from_utf8_lossy(&a.stderr);
    assert!(progress.contains("diff/confidence/queue/faulty"), "{progress}");
    assert!(progress.contains("oracle/hysteresis/cache"), "{progress}");
    assert!(progress.contains("equiv/greedy-confidence/queue"), "{progress}");

    let b = verify_in(&dir, &["verify", "--cases", "3", "--seed", "5"]);
    assert_eq!(a.stdout, b.stdout, "a verify run is a pure function of (cases, seed)");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_self_check_detects_the_planted_bug() {
    let dir = common::tmp_dir("verify-selfcheck");
    let out = verify_in(&dir, &["verify", "--self-check"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("planted off-by-one detected"), "{text}");
    assert!(text.contains("byte-identical"), "{text}");
    // The transient repro is cleaned up after a successful self-check.
    assert!(!dir.join("cap-verify-repro-selfcheck.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_replay_reproduces_a_failure_deterministically() {
    // The self-check property pits production interval-greedy against
    // the planted-bug shadow, and those two *always* diverge on a
    // two-configuration stream (production explores the last config,
    // the shadow never does) — so this repro must reproduce, exit
    // non-zero, and print the identical divergence on every run.
    let dir = common::tmp_dir("verify-replay-repro");
    let repro = dir.join("repro.json");
    std::fs::write(
        &repro,
        format!(
            "{{\"cap_verify_repro\":1,\"property\":\"selfcheck/planted-explore-bug\",\"case\":0,{TINY_SCENARIO_BODY}"
        ),
    )
    .unwrap();
    let a = verify_in(&dir, &["verify", "--replay", repro.to_str().unwrap()]);
    assert_eq!(a.status.code(), Some(2), "{}", String::from_utf8_lossy(&a.stderr));
    let stderr = String::from_utf8_lossy(&a.stderr);
    assert!(stderr.contains("REPRODUCED"), "{stderr}");
    assert!(stderr.contains("step 0"), "{stderr}");
    let b = verify_in(&dir, &["verify", "--replay", repro.to_str().unwrap()]);
    assert_eq!(a.stderr, b.stderr, "replay output is deterministic");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_replay_reports_clean_when_the_property_passes() {
    // The same tiny scenario under a `diff/` property passes (production
    // matches its reference), so replay reports the repro as stale.
    let dir = common::tmp_dir("verify-replay-clean");
    let repro = dir.join("repro.json");
    std::fs::write(
        &repro,
        format!(
            "{{\"cap_verify_repro\":1,\"property\":\"diff/interval-greedy/queue/clean\",\"case\":0,{TINY_SCENARIO_BODY}"
        ),
    )
    .unwrap();
    let out = verify_in(&dir, &["verify", "--replay", repro.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_replay_rejects_broken_files() {
    let dir = common::tmp_dir("verify-replay-bad");
    let out = verify_in(&dir, &["verify", "--replay", "/nonexistent/repro.json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"cap_verify_repro\":1}").unwrap();
    let out = verify_in(&dir, &["verify", "--replay", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("property"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_rejects_malformed_flags() {
    assert_usage_failure(&["verify", "--cases"]);
    assert_usage_failure(&["verify", "--cases", "0"]);
    assert_usage_failure(&["verify", "--seed", "nope"]);
    assert_usage_failure(&["verify", "--jobs", "2"]);
    assert_usage_failure(&["verify", "--replay", "x", "--self-check"]);
}
