//! End-to-end protocol tests for the campaign service: concurrent
//! submissions must render byte-identically to the direct CLI with the
//! shared legs computed exactly once (proven by the status counters),
//! a drained server must journal its in-flight legs so `--resume`
//! completes byte-identically, admission control must reject with a
//! structured busy error, and client-side failures must be loud.
#![cfg(unix)]

mod common;

use common::{assert_usage_failure, tmp_dir, Capsim};
use std::path::Path;
use std::process::Child;
use std::time::{Duration, Instant};

/// Reads the server's bound address out of its `--addr-file`.
fn wait_for_addr(path: &Path, server: &mut Child) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(body) = std::fs::read_to_string(path) {
            let trimmed = body.trim();
            if !trimmed.is_empty() {
                return trimmed.to_string();
            }
        }
        if let Some(status) = server.try_wait().expect("server poll") {
            panic!("server exited before binding: {status:?}");
        }
        assert!(Instant::now() < deadline, "server never wrote its address file");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn sigterm(child: &Child) {
    let status = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill spawns");
    assert!(status.success(), "kill -TERM failed");
}

/// Kills the server on drop so a failed assertion can't leak a
/// listening process into the rest of the test run.
struct ServerGuard(Option<Child>);

impl ServerGuard {
    fn child(&mut self) -> &mut Child {
        self.0.as_mut().expect("server still held")
    }

    /// SIGTERM + wait: the graceful-drain exit must be code 0.
    fn drain(mut self) -> std::process::Output {
        let child = self.0.take().expect("server still held");
        sigterm(&child);
        let out = child.wait_with_output().expect("server exits");
        assert_eq!(
            out.status.code(),
            Some(0),
            "drain must exit 0:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The leg total of a campaign, read from `plan ... --dry-run`.
fn leg_total(campaign: &[&str]) -> u64 {
    let mut args = vec!["plan"];
    args.extend_from_slice(campaign);
    args.push("--dry-run");
    let out = Capsim::new(&args).run();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("total: "))
        .unwrap_or_else(|| panic!("no total line in:\n{text}"));
    line.trim_start()
        .strip_prefix("total: ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparseable total line: {line}"))
}

/// One counter out of the `capsim status` legs line, e.g.
/// `legs: 24 computed, 24 deduped, 0 cache hit(s), 0 journal hit(s)`.
fn legs_counter(status_text: &str, which: &str) -> u64 {
    let line = status_text
        .lines()
        .find(|l| l.starts_with("legs: "))
        .unwrap_or_else(|| panic!("no legs line in:\n{status_text}"));
    line.trim_start_matches("legs: ")
        .split(", ")
        .find_map(|part| part.strip_suffix(&format!(" {which}")))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no `{which}` counter in: {line}"))
}

fn status_text(addr: &str) -> String {
    let out = Capsim::new(&["status", "--addr", addr]).run();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8_lossy(&out.stdout).to_string()
}

/// Polls `status` until the predicate holds (the server is concurrent;
/// tests must observe, not assume, its in-flight state).
fn wait_for_status(addr: &str, what: &str, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let text = status_text(addr);
        if pred(&text) {
            return text;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}; last status:\n{text}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Two concurrent `submit sweep all` requests must both render the
/// exact bytes of the direct CLI run, with every shared leg computed
/// once (single-flight) — and SIGTERM must then drain the idle server
/// with exit code 0.
#[test]
fn concurrent_submits_are_byte_identical_and_share_legs() {
    let dir = tmp_dir("serve-dedup");
    let reference = Capsim::new(&["sweep", "all"]).run();
    assert!(reference.status.success(), "{}", String::from_utf8_lossy(&reference.stderr));
    let total = leg_total(&["sweep", "all"]);
    assert!(total > 0);

    let addr_file = dir.join("addr");
    let mut server = ServerGuard(Some(
        Capsim::new(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--jobs",
            "2",
        ])
        .journal(&dir.join("journal"))
        .cache(&dir.join("cache"))
        .spawn(),
    ));
    let addr = wait_for_addr(&addr_file, server.child());

    let submits: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || Capsim::new(&["submit", "sweep", "all", "--addr", &addr]).run())
        })
        .collect();
    for submit in submits {
        let out = submit.join().expect("submit thread");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(
            out.stdout, reference.stdout,
            "submitted campaign must render the direct CLI bytes"
        );
    }

    // 2 requests x `total` legs each, but every distinct leg computed
    // exactly once across the server: the other request's copies all
    // came from single-flight sharing, the shared result cache or the
    // shared journal.
    let status = status_text(&addr);
    assert!(status.contains("serve status: 0 campaign(s) in flight"), "{status}");
    assert!(status.contains("2 done"), "{status}");
    assert_eq!(legs_counter(&status, "computed"), total, "{status}");
    let shared = legs_counter(&status, "deduped")
        + legs_counter(&status, "cache hit(s)")
        + legs_counter(&status, "journal hit(s)");
    assert_eq!(shared, total, "{status}");

    let out = server.drain();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("serve: drained"), "{stdout}");
    assert!(stdout.contains("2 done"), "{stdout}");
}

/// SIGTERM while a campaign is executing: the server stops at a leg
/// boundary, journals completed legs, exits 0 — and a direct
/// `--resume` over the same journal completes byte-identically.
#[test]
fn drain_under_load_journals_for_byte_identical_resume() {
    let dir = tmp_dir("serve-drain");
    let journal = dir.join("journal");
    let reference = Capsim::new(&["sweep", "all"]).run();
    assert!(reference.status.success(), "{}", String::from_utf8_lossy(&reference.stderr));

    let addr_file = dir.join("addr");
    let mut server = ServerGuard(Some(
        Capsim::new(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--jobs",
            "2",
        ])
        .journal(&journal)
        // Every leg stalls 80ms so the drain lands mid-campaign.
        .env("CAP_CHAOS_STALL", "100:1:80")
        .spawn(),
    ));
    let addr = wait_for_addr(&addr_file, server.child());

    let submit = {
        let addr = addr.clone();
        std::thread::spawn(move || Capsim::new(&["submit", "sweep", "all", "--addr", &addr]).run())
    };
    wait_for_status(&addr, "the campaign to be admitted", |text| {
        text.contains("1 campaign(s) in flight")
    });
    let out = server.drain();
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("serve: drained"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // The client saw either a completed report (the drain can land
    // after the last leg) or the structured interrupted error.
    let submitted = submit.join().expect("submit thread");
    if submitted.status.success() {
        assert_eq!(submitted.stdout, reference.stdout);
    } else {
        let stderr = String::from_utf8_lossy(&submitted.stderr);
        assert!(stderr.contains("interrupted"), "{stderr}");
    }

    // The journal the server left behind resumes to the reference
    // bytes on the direct CLI path.
    let resumed = Capsim::new(&["sweep", "all", "--resume"]).journal(&journal).run();
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    assert_eq!(resumed.stdout, reference.stdout, "resume must complete byte-identically");
}

/// `--max-inflight 1`: a second campaign submitted while the first is
/// executing gets the structured busy rejection, and the first still
/// completes with the direct CLI bytes.
#[test]
fn admission_control_rejects_with_a_structured_busy_error() {
    let dir = tmp_dir("serve-busy");
    let reference = Capsim::new(&["sweep", "cache"]).run();
    assert!(reference.status.success(), "{}", String::from_utf8_lossy(&reference.stderr));

    let addr_file = dir.join("addr");
    let mut server = ServerGuard(Some(
        Capsim::new(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--jobs",
            "1",
            "--max-inflight",
            "1",
        ])
        .journal(&dir.join("journal"))
        .env("CAP_CHAOS_STALL", "100:1:120")
        .spawn(),
    ));
    let addr = wait_for_addr(&addr_file, server.child());

    let first = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            Capsim::new(&["submit", "sweep", "cache", "--addr", &addr]).run()
        })
    };
    wait_for_status(&addr, "the first campaign to be admitted", |text| {
        text.contains("1 campaign(s) in flight")
    });

    let busy = Capsim::new(&["submit", "sweep", "queue", "--addr", &addr]).run();
    assert!(!busy.status.success(), "the second submission must be rejected");
    let stderr = String::from_utf8_lossy(&busy.stderr);
    assert!(stderr.contains("busy") && stderr.contains("capacity"), "{stderr}");

    let out = first.join().expect("submit thread");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.stdout, reference.stdout);

    let status = wait_for_status(&addr, "the rejection counter", |text| {
        text.contains("1 rejected")
    });
    assert!(status.contains("1 done"), "{status}");
    server.drain();
}

/// A leg stalled past the server's deadline fails its request with a
/// structured error naming the leg; the server keeps answering, and a
/// drain exits at once although the abandoned stall still sleeps.
#[test]
fn a_leg_past_its_deadline_fails_the_request_not_the_server() {
    let dir = tmp_dir("serve-deadline");
    let addr_file = dir.join("addr");
    let mut server = ServerGuard(Some(
        Capsim::new(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--jobs",
            "1",
        ])
        .journal(&dir.join("journal"))
        .env("CAP_LEG_TIMEOUT", "0.05")
        .env("CAP_CHAOS_STALL", "100:1:60000")
        .spawn(),
    ));
    let addr = wait_for_addr(&addr_file, server.child());

    let out = Capsim::new(&["submit", "compare-policies", "radar", "--addr", &addr]).run();
    assert!(!out.status.success(), "a stalled leg must fail the request");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed"), "{stderr}");
    assert!(stderr.contains("leg `managed-policy|radar|") && stderr.contains("timed out"), "{stderr}");

    let status = status_text(&addr);
    assert!(status.contains("serve status: 0 campaign(s) in flight"), "{status}");
    assert!(status.contains("1 accepted, 0 done, 1 failed"), "{status}");

    let started = Instant::now();
    let out = server.drain();
    assert!(started.elapsed() < Duration::from_secs(20), "drain took {:?}", started.elapsed());
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 failed"));
}

/// Client-side failure modes: no server, server-owned flags, unknown
/// campaigns and malformed subcommands all fail loudly and precisely.
#[test]
fn submit_failures_are_structured_and_loud() {
    // Nothing listens on a reserved port: the connect error says so.
    let dead = Capsim::new(&["submit", "sweep", "all", "--addr", "127.0.0.1:1"]).run();
    assert!(!dead.status.success());
    let stderr = String::from_utf8_lossy(&dead.stderr);
    assert!(stderr.contains("cannot connect"), "{stderr}");

    let dir = tmp_dir("serve-errors");
    let addr_file = dir.join("addr");
    let mut server = ServerGuard(Some(
        Capsim::new(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
        ])
        .journal(&dir.join("journal"))
        .spawn(),
    ));
    let addr = wait_for_addr(&addr_file, server.child());

    // Server-owned flags are rejected before compilation.
    let owned = Capsim::new(&["submit", "sweep", "all", "--resume", "--addr", &addr]).run();
    assert!(!owned.status.success());
    let stderr = String::from_utf8_lossy(&owned.stderr);
    assert!(stderr.contains("server-owned"), "{stderr}");

    // Unknown campaigns surface the compiler's own message.
    let unknown = Capsim::new(&["submit", "frobnicate", "--addr", &addr]).run();
    assert!(!unknown.status.success());
    let stderr = String::from_utf8_lossy(&unknown.stderr);
    assert!(stderr.contains("invalid"), "{stderr}");
    assert!(stderr.contains("submit wants a campaign"), "{stderr}");
    // The service sends the one-line reason, not the CLI's usage text.
    assert!(!stderr.contains("usage: capsim"), "{stderr}");

    let status = status_text(&addr);
    assert!(status.contains("2 rejected"), "{status}");
    assert!(status.contains("0 accepted"), "{status}");
    server.drain();

    // Argument validation happens before any connection is made.
    assert_usage_failure(&["serve", "--jobs", "0"]);
    assert_usage_failure(&["serve", "--frobnicate"]);
    assert_usage_failure(&["submit"]);
    assert_usage_failure(&["status", "extra"]);
}
