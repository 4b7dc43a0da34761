//! Process-level contract tests for the plan/execute kernel behind the
//! campaign commands: deduped shared legs must change nothing about the
//! bytes, warm plans must classify shared curve legs as cache hits, and
//! a chaos-killed plan must resume byte-identically.

mod common;

use common::{Capsim, KILL_EXIT};

fn stdout(out: &std::process::Output) -> String {
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout.clone()).expect("capsim output is UTF-8")
}

/// `sweep all` executes one deduped plan whose two reduces share no legs
/// with each other but cover exactly the legs of `sweep cache` plus
/// `sweep queue`; its bytes must equal the two independent commands
/// concatenated — across `--jobs {1,4}` and cold/warm result cache.
#[test]
fn deduped_plan_execution_matches_independent_commands() {
    let dir = common::tmp_dir("plan-dedup");
    let journal = dir.join("journal");
    for jobs in ["1", "4"] {
        // Fresh caches per jobs level; the second (warm) pass replays
        // every leg from the cache and must not change a byte.
        let cache_all = dir.join(format!("cache-all-{jobs}"));
        let cache_ind = dir.join(format!("cache-ind-{jobs}"));
        let mut cold = None;
        for pass in ["cold", "warm"] {
            let all = stdout(
                &Capsim::new(&["sweep", "all", "--jobs", jobs]).cache(&cache_all).journal(&journal).run(),
            );
            let cache = stdout(
                &Capsim::new(&["sweep", "cache", "--jobs", jobs])
                    .cache(&cache_ind)
                    .journal(&journal)
                    .run(),
            );
            let queue = stdout(
                &Capsim::new(&["sweep", "queue", "--jobs", jobs])
                    .cache(&cache_ind)
                    .journal(&journal)
                    .run(),
            );
            assert_eq!(all, format!("{cache}{queue}"), "jobs={jobs} pass={pass}");
            match &cold {
                None => cold = Some(all),
                Some(first) => assert_eq!(first, &all, "warm pass drifted at jobs={jobs}"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The figures leg graph is a contract: `results/plan_figures.txt` holds
/// the cold default-scale dry run, in the same environment the CI
/// golden-drift job regenerates it with. A changed leg key, leg kind or
/// plan shape shows up here as a byte diff.
#[test]
fn figures_dry_run_matches_the_checked_in_leg_graph() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/plan_figures.txt");
    let golden = std::fs::read_to_string(golden_path).expect("results/plan_figures.txt is checked in");
    let out = Capsim::new(&["plan", "figures", "--dry-run"]).env("CAP_SCALE", "default").run();
    assert_eq!(stdout(&out), golden, "the figures leg graph drifted from {golden_path}");
}

/// The acceptance criterion of the plan IR: after `sweep all` has warmed
/// the result cache, `plan figures --dry-run` classifies 100 % of the
/// shared curve legs as cache hits (only the figure12/13 interval legs
/// remain misses — no sweep computes those).
#[test]
fn warm_figures_plan_classifies_every_curve_leg_as_cache_hit() {
    let dir = common::tmp_dir("plan-warm");
    let cache = dir.join("cache");
    let journal = dir.join("journal");
    stdout(&Capsim::new(&["sweep", "all", "--jobs", "4"]).cache(&cache).journal(&journal).run());
    let text = stdout(
        &Capsim::new(&["plan", "figures", "--dry-run"]).cache(&cache).journal(&journal).run(),
    );
    assert!(text.starts_with("plan: figures"), "{text}");
    for kind in ["cache-sweep", "queue-sweep"] {
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("{kind}:")))
            .unwrap_or_else(|| panic!("no {kind} summary line:\n{text}"));
        assert!(line.ends_with("0 miss"), "warm {kind} legs must all hit: {line}");
        assert!(line.contains("0 journal-hit"), "{line}");
    }
    // The interval legs belong to no sweep, so they are the only misses.
    let interval = text
        .lines()
        .find(|l| l.trim_start().starts_with("interval-series:"))
        .expect("interval-series summary line");
    assert!(interval.ends_with("4 miss"), "{interval}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `capsim plan <cmd>` without `--dry-run` executes the same plan the
/// direct command runs: stdout must match byte-for-byte (the resolved
/// leg graph goes to stderr).
#[test]
fn plan_execute_wrapper_is_byte_identical_to_the_direct_command() {
    let dir = common::tmp_dir("plan-wrapper");
    let journal = dir.join("journal");
    for cmd in [
        &["compare-policies", "radar"][..],
        &["faults", "radar", "--seed", "9"][..],
        &["sweep", "cache"][..],
    ] {
        let direct = stdout(&Capsim::new(cmd).journal(&journal).run());
        let mut via_plan = vec!["plan"];
        via_plan.extend_from_slice(cmd);
        let out = Capsim::new(&via_plan).journal(&journal).run();
        let planned = stdout(&out);
        assert_eq!(direct, planned, "{cmd:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("summary:"), "plan execute prints the graph on stderr:\n{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Chaos kill + `--resume` through the new executor: a compare-policies
/// campaign killed after two committed legs exits with the chaos code,
/// then resumes to bytes identical to an uninterrupted run.
#[test]
fn chaos_killed_compare_policies_resumes_byte_identically() {
    let dir = common::tmp_dir("plan-chaos");
    let journal_a = dir.join("journal-clean");
    let journal_b = dir.join("journal-killed");
    let clean = stdout(&Capsim::new(&["compare-policies", "gcc"]).journal(&journal_a).run());

    let killed = Capsim::new(&["compare-policies", "gcc"]).journal(&journal_b).kill_after(2).run();
    assert_eq!(killed.status.code(), Some(KILL_EXIT), "chaos kill must use the reserved exit code");

    let resumed = stdout(
        &Capsim::new(&["compare-policies", "gcc", "--resume"]).journal(&journal_b).run(),
    );
    assert_eq!(clean, resumed, "resume after chaos kill must replay byte-identically");
    let _ = std::fs::remove_dir_all(&dir);
}
