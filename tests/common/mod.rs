//! Shared helpers for the integration tests that spawn the `capsim`
//! binary. Every spawn goes through [`Capsim`], which scrubs the
//! environment (smoke scale, no memo cache, a private journal
//! directory, all chaos/trace/watchdog knobs cleared) so tests cannot
//! leak state into each other or inherit it from the developer's shell.
//!
//! Not every test file uses every helper, hence the file-wide
//! `dead_code` allowance.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

/// Mirror of `cap::par::CHAOS_KILL_EXIT`, asserted here so a drifting
/// constant fails loudly instead of masking a real crash.
pub const KILL_EXIT: i32 = 86;

/// Environment variables scrubbed from every spawn; a test that needs
/// one sets it explicitly via [`Capsim::env`].
const SCRUBBED: [&str; 10] = [
    "CAP_JOBS",
    "CAP_CACHE_DIR",
    "CAP_NO_CACHE",
    "CAP_LEG_TIMEOUT",
    "CAP_TRACE",
    "CAP_VERIFY_DIR",
    "CAP_CHAOS_PANIC",
    "CAP_CHAOS_STALL",
    "CAP_CHAOS_KILL_AFTER_LEG",
    "RUST_BACKTRACE",
];

/// A fresh, empty temp directory namespaced by test tag and pid.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("capsim-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Counter making each spawn's default journal directory unique: the
/// journal writer lock means two concurrent spawns sharing a journal
/// directory would contend, so tests that don't pin one get their own.
static NEXT_JOURNAL: AtomicU64 = AtomicU64::new(0);

/// Builder for one `capsim` subprocess run in a scrubbed environment.
pub struct Capsim {
    args: Vec<String>,
    journal: Option<PathBuf>,
    cache: Option<PathBuf>,
    envs: Vec<(String, String)>,
}

impl Capsim {
    pub fn new(args: &[&str]) -> Self {
        Capsim {
            args: args.iter().map(|s| (*s).to_string()).collect(),
            journal: None,
            cache: None,
            envs: Vec::new(),
        }
    }

    /// Journal directory (`CAP_JOURNAL_DIR`). Defaults to a shared
    /// per-process temp directory.
    pub fn journal(mut self, dir: &Path) -> Self {
        self.journal = Some(dir.to_path_buf());
        self
    }

    /// Memoization cache directory (`CAP_CACHE_DIR`). Without this the
    /// spawn runs with `CAP_NO_CACHE=1`.
    pub fn cache(mut self, dir: &Path) -> Self {
        self.cache = Some(dir.to_path_buf());
        self
    }

    /// Simulated crash after the given committed leg
    /// (`CAP_CHAOS_KILL_AFTER_LEG`); the process exits [`KILL_EXIT`].
    pub fn kill_after(self, legs: u64) -> Self {
        self.env("CAP_CHAOS_KILL_AFTER_LEG", &legs.to_string())
    }

    /// Sets one environment variable, overriding the scrubbed default.
    pub fn env(mut self, key: &str, value: &str) -> Self {
        self.envs.push((key.to_string(), value.to_string()));
        self
    }

    /// The configured `Command`, scrubbed environment applied.
    fn command(&self) -> Command {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_capsim"));
        cmd.args(&self.args);
        for var in SCRUBBED {
            cmd.env_remove(var);
        }
        cmd.env("CAP_SCALE", "smoke");
        let default_journal = std::env::temp_dir().join(format!(
            "capsim-test-journal-{}-{}",
            std::process::id(),
            NEXT_JOURNAL.fetch_add(1, Ordering::Relaxed)
        ));
        cmd.env("CAP_JOURNAL_DIR", self.journal.as_deref().unwrap_or(&default_journal));
        match &self.cache {
            Some(dir) => {
                cmd.env("CAP_CACHE_DIR", dir);
            }
            None => {
                cmd.env("CAP_NO_CACHE", "1");
            }
        }
        for (key, value) in &self.envs {
            cmd.env(key, value);
        }
        cmd
    }

    /// Spawns the binary and waits for it.
    pub fn run(&self) -> Output {
        self.command().output().expect("capsim spawns")
    }

    /// Spawns the binary without waiting (stdout/stderr piped) — for
    /// long-lived processes like `capsim serve` that the test signals
    /// or joins later.
    pub fn spawn(&self) -> Child {
        self.command()
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("capsim spawns")
    }
}

/// One-shot spawn with the default scrubbed environment.
pub fn capsim(args: &[&str]) -> Output {
    Capsim::new(args).run()
}

/// Asserts that `capsim args` fails and prints usage text.
pub fn assert_usage_failure(args: &[&str]) {
    let out = capsim(args);
    assert!(!out.status.success(), "capsim {args:?} should fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "capsim {args:?} stderr lacks usage text:\n{stderr}");
}
