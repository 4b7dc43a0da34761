//! A per-leg deadline.
//!
//! A stalled leg (a livelocked simulation bug, an injected chaos stall,
//! an NFS hiccup under the cache) must not hang the whole pool. With a
//! deadline set, [`WatchdogPolicy::run`] moves the leg's compute onto a
//! thread of its own and waits for its result with `recv_timeout`. When
//! the deadline passes first, the caller gets [`TimedOut`] at once and
//! the thread is left to finish: safe Rust cannot kill a thread, and no
//! leg needs to poll anything for the deadline to hold. Whatever the
//! compute owns — its worker-gate permit included — is released only
//! when the abandoned thread ends. A leg is deterministic, so there is
//! no retry: a second attempt would stall the same way.
//!
//! A compute that panics before its deadline is re-raised on the
//! caller's thread (`join` + `resume_unwind`), so the pool's per-task
//! panic containment sees it exactly as it would a direct call. An
//! abandoned thread is never joined: its leg has already failed, so a
//! later panic there is reported only by the default panic hook.
//!
//! With no timeout configured ([`WatchdogPolicy::none`], the default)
//! the guard is a direct call: no thread, no channel on the leg path.

use std::panic::resume_unwind;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// The deadline passed before the compute returned. Holds the deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedOut(pub Duration);

/// The per-leg deadline policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchdogPolicy {
    /// Per-leg deadline; `None` disables the watchdog entirely.
    pub timeout: Option<Duration>,
}

impl WatchdogPolicy {
    /// No deadline: `run` is a plain call with zero overhead.
    #[must_use]
    pub fn none() -> Self {
        WatchdogPolicy { timeout: None }
    }

    /// A watchdog with the given per-leg deadline.
    #[must_use]
    pub fn with_timeout(timeout: Duration) -> Self {
        WatchdogPolicy { timeout: Some(timeout) }
    }

    /// Parses `CAP_LEG_TIMEOUT` (fractional seconds, > 0). Unset means
    /// no deadline.
    ///
    /// # Errors
    /// A set-but-invalid value is a hard error naming the variable, so a
    /// typo cannot silently disable the watchdog.
    pub fn from_env() -> Result<Self, String> {
        let Some(raw) = std::env::var_os("CAP_LEG_TIMEOUT") else {
            return Ok(WatchdogPolicy::none());
        };
        let text = raw.to_string_lossy();
        match parse_timeout_seconds(&text) {
            Some(d) => Ok(WatchdogPolicy::with_timeout(d)),
            None => Err(format!(
                "CAP_LEG_TIMEOUT must be a positive number of seconds, got `{text}`"
            )),
        }
    }

    /// Resolves the effective policy: an explicit CLI `--leg-timeout`
    /// (already parsed to a duration) wins over `CAP_LEG_TIMEOUT`.
    ///
    /// # Errors
    /// Propagates the [`WatchdogPolicy::from_env`] error.
    pub fn resolve(cli_timeout: Option<Duration>) -> Result<Self, String> {
        match cli_timeout {
            Some(d) => Ok(WatchdogPolicy::with_timeout(d)),
            None => WatchdogPolicy::from_env(),
        }
    }

    /// Runs `compute` under this policy: directly without a deadline,
    /// otherwise on a spawned thread that is abandoned (left to finish
    /// on its own) once the deadline passes.
    ///
    /// # Errors
    /// [`TimedOut`] when the deadline passed first.
    ///
    /// # Panics
    /// Re-raises a panic of `compute` on the calling thread, and panics
    /// if the OS refuses to spawn the thread.
    pub fn run<T: Send + 'static>(
        &self,
        compute: impl FnOnce() -> T + Send + 'static,
    ) -> Result<T, TimedOut> {
        let Some(timeout) = self.timeout else {
            return Ok(compute());
        };
        let (tx, rx) = mpsc::sync_channel(1);
        let thread = std::thread::Builder::new()
            .name("cap-leg".to_string())
            .spawn(move || {
                // The receiver is gone only if the caller already timed out.
                let _ = tx.send(compute());
            })
            .expect("spawn a leg thread");
        match rx.recv_timeout(timeout) {
            Ok(value) => Ok(value),
            Err(RecvTimeoutError::Timeout) => Err(TimedOut(timeout)),
            // The sender dropped without sending: `compute` panicked.
            Err(RecvTimeoutError::Disconnected) => match thread.join() {
                Err(payload) => resume_unwind(payload),
                Ok(()) => unreachable!("a leg thread that returned has sent its value"),
            },
        }
    }
}

/// Parses a strictly positive, finite fractional-seconds string.
pub fn parse_timeout_seconds(text: &str) -> Option<Duration> {
    let secs: f64 = text.trim().parse().ok()?;
    if secs.is_finite() && secs > 0.0 {
        Some(Duration::from_secs_f64(secs))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn no_timeout_is_a_direct_call() {
        let caller = std::thread::current().id();
        let out = WatchdogPolicy::none().run(move || std::thread::current().id() == caller);
        assert_eq!(out, Ok(true), "no deadline runs on the caller's thread");
    }

    #[test]
    fn fast_compute_completes_under_a_deadline() {
        let out = WatchdogPolicy::with_timeout(Duration::from_secs(5)).run(|| 7u32);
        assert_eq!(out, Ok(7));
    }

    #[test]
    fn a_compute_that_never_polls_is_bounded_by_the_deadline() {
        let started = Instant::now();
        let out = WatchdogPolicy::with_timeout(Duration::from_millis(50)).run(|| {
            // Sleeps through its deadline without checking anything.
            std::thread::sleep(Duration::from_secs(5));
            9u32
        });
        assert_eq!(out, Err(TimedOut(Duration::from_millis(50))));
        assert!(started.elapsed() < Duration::from_secs(1), "took {:?}", started.elapsed());
    }

    #[test]
    fn a_panicking_compute_re_raises_on_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            WatchdogPolicy::with_timeout(Duration::from_secs(5))
                .run(|| -> u32 { panic!("leg exploded") })
        });
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"leg exploded"));
    }

    #[test]
    fn timeout_parsing_is_strict() {
        assert_eq!(parse_timeout_seconds("0.5"), Some(Duration::from_millis(500)));
        assert_eq!(parse_timeout_seconds("2"), Some(Duration::from_secs(2)));
        for bad in ["0", "-1", "abc", "", "inf", "nan"] {
            assert_eq!(parse_timeout_seconds(bad), None, "{bad}");
        }
    }

    // The sole test that mutates CAP_LEG_TIMEOUT, to avoid env races.
    #[test]
    fn cap_leg_timeout_env_is_validated_strictly() {
        std::env::set_var("CAP_LEG_TIMEOUT", "1.5");
        let policy = WatchdogPolicy::from_env().expect("valid");
        assert_eq!(policy.timeout, Some(Duration::from_millis(1500)));
        // An explicit CLI value wins over the environment.
        let cli = WatchdogPolicy::resolve(Some(Duration::from_millis(250))).expect("valid");
        assert_eq!(cli.timeout, Some(Duration::from_millis(250)));
        for bad in ["0", "forever", "-2"] {
            std::env::set_var("CAP_LEG_TIMEOUT", bad);
            let err = WatchdogPolicy::from_env().expect_err(bad);
            assert!(err.contains("CAP_LEG_TIMEOUT"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
        std::env::remove_var("CAP_LEG_TIMEOUT");
        assert_eq!(WatchdogPolicy::from_env().expect("unset is fine").timeout, None);
    }
}
