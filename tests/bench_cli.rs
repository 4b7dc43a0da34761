//! Process-level tests for `capsim bench`: the sweep-timing harness
//! must time a cold and a warm sweep, write the JSON summary where
//! asked, and reject malformed flags with usage text.

mod common;

use common::{assert_usage_failure, tmp_dir, Capsim};

#[test]
fn bench_quick_writes_summary_json() {
    let dir = tmp_dir("bench");
    let out_path = dir.join("BENCH_sweep.json");
    let out = Capsim::new(&["bench", "--quick", "--seed", "7", "--out", out_path.to_str().unwrap()])
        .run();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sweep bench"), "{text}");
    assert!(text.contains("cold: cache"), "{text}");
    assert!(text.contains("warm (result cache)"), "{text}");

    let json = std::fs::read_to_string(&out_path).unwrap();
    for key in ["\"single-pass\"", "cache_cold_s", "queue_cold_s", "total_cold_s", "warm_s"] {
        assert!(json.contains(key), "summary lacks {key}:\n{json}");
    }
    for gone in ["legacy", "cold_speedup"] {
        assert!(!json.contains(gone), "summary still reports {gone}:\n{json}");
    }
    // The summary must be machine-readable; a quick structural check
    // without pulling a JSON parser into the test.
    assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_rejects_malformed_flags() {
    assert_usage_failure(&["bench", "--seed"]);
    assert_usage_failure(&["bench", "--seed", "soon"]);
    assert_usage_failure(&["bench", "--out"]);
    assert_usage_failure(&["bench", "--frobnicate"]);
}
