//! Deterministic harness-level fault injection.
//!
//! PR 1's fault harness perturbs the *simulated hardware*; this module
//! perturbs the *campaign engine itself* — the thing `capsim chaos`
//! exists to prove crash-safe. Three fault kinds are supported, all
//! chosen deterministically from a seed and the leg's canonical key so
//! the same faults fire regardless of `--jobs` or scheduling:
//!
//! * **panics** (`CAP_CHAOS_PANIC=pct:seed`) — the leg panics before
//!   computing, exercising the pool's containment and the journal's
//!   resumability;
//! * **stalls** (`CAP_CHAOS_STALL=pct:seed:ms`) — the leg sleeps for
//!   `ms` milliseconds before computing, polling nothing, exercising
//!   the per-leg deadline ([`crate::watchdog`]);
//! * **kills** (`CAP_CHAOS_KILL_AFTER_LEG=n`, handled by the journal) —
//!   the process exits abruptly after the `n`-th journal append,
//!   simulating preemption at a leg boundary.
//!
//! The knobs are environment variables (not CLI flags) on purpose: the
//! `capsim chaos` orchestrator injects them into child processes, and
//! they flow through every layer without widening any API.

use crate::cache::fnv64;
use std::time::Duration;

/// A seeded injector of harness-level faults, built from the
/// environment. Probabilities are per-leg percentages keyed by the
/// leg's canonical key, so outcomes are independent of worker
/// scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosInjector {
    panic_pct: Option<(u8, u64)>,
    stall: Option<(u8, u64, u64)>,
}

/// Parses `pct:seed`, with `pct` in `0..=100`.
fn parse_pct_seed(text: &str) -> Option<(u8, u64)> {
    let (pct, seed) = text.split_once(':')?;
    let pct: u8 = pct.parse().ok()?;
    let seed: u64 = seed.parse().ok()?;
    (pct <= 100).then_some((pct, seed))
}

impl ChaosInjector {
    /// The injector described by `CAP_CHAOS_PANIC` / `CAP_CHAOS_STALL`,
    /// or `None` when neither is set.
    ///
    /// # Errors
    /// A malformed value is a hard error naming the variable — a typo
    /// must not silently run the campaign un-chaosed.
    pub fn from_env() -> Result<Option<Self>, String> {
        let panic_pct = match std::env::var_os("CAP_CHAOS_PANIC") {
            None => None,
            Some(raw) => {
                let text = raw.to_string_lossy();
                Some(parse_pct_seed(&text).ok_or(format!(
                    "CAP_CHAOS_PANIC must be `pct:seed` with pct 0..=100, got `{text}`"
                ))?)
            }
        };
        let stall = match std::env::var_os("CAP_CHAOS_STALL") {
            None => None,
            Some(raw) => {
                let text = raw.to_string_lossy();
                let parsed = text.rsplit_once(':').and_then(|(head, ms)| {
                    let (pct, seed) = parse_pct_seed(head)?;
                    let ms: u64 = ms.parse().ok()?;
                    Some((pct, seed, ms))
                });
                Some(parsed.ok_or(format!(
                    "CAP_CHAOS_STALL must be `pct:seed:ms` with pct 0..=100, got `{text}`"
                ))?)
            }
        };
        if panic_pct.is_none() && stall.is_none() {
            return Ok(None);
        }
        Ok(Some(ChaosInjector { panic_pct, stall }))
    }

    /// Deterministic per-leg roll: true for `pct`% of keys under `seed`.
    fn roll(kind: &str, pct: u8, seed: u64, leg: &str) -> bool {
        let h = fnv64(&format!("{kind}|{seed:#x}|{leg}"));
        (h % 100) < u64::from(pct)
    }

    /// Whether this leg is chosen to panic.
    pub fn should_panic(&self, leg: &str) -> bool {
        self.panic_pct
            .is_some_and(|(pct, seed)| Self::roll("panic", pct, seed, leg))
    }

    /// Sleeps through the leg's injected stall, if it was chosen for
    /// one. The sleep polls nothing: only the executor's deadline can
    /// bound it.
    pub fn stall(&self, leg: &str) {
        if let Some((pct, seed, ms)) = self.stall {
            if Self::roll("stall", pct, seed, leg) {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(panic_pct: Option<(u8, u64)>, stall: Option<(u8, u64, u64)>) -> ChaosInjector {
        ChaosInjector { panic_pct, stall }
    }

    #[test]
    fn rolls_are_deterministic_and_label_keyed() {
        let c = injector(Some((40, 7)), None);
        let a = c.should_panic("cache-sweep|gcc|point=3");
        for _ in 0..10 {
            assert_eq!(c.should_panic("cache-sweep|gcc|point=3"), a);
        }
        // Across many labels roughly pct% fire — sanity, not statistics.
        let fired = (0..200).filter(|i| c.should_panic(&format!("leg-{i}"))).count();
        assert!((40..=120).contains(&fired), "fired {fired}/200 at 40%");
    }

    #[test]
    fn zero_and_full_percent_are_exact() {
        let never = injector(Some((0, 1)), None);
        let always = injector(Some((100, 1)), None);
        for i in 0..50 {
            let leg = format!("leg-{i}");
            assert!(!never.should_panic(&leg));
            assert!(always.should_panic(&leg));
        }
    }

    #[test]
    fn stalls_sleep_only_on_chosen_legs() {
        let started = std::time::Instant::now();
        injector(None, Some((0, 3, 60_000))).stall("any-leg");
        assert!(started.elapsed() < Duration::from_secs(5), "an un-chosen leg never stalls");
        injector(None, Some((100, 3, 20))).stall("leg");
        assert!(started.elapsed() >= Duration::from_millis(20), "a chosen leg sleeps its stall");
    }

    #[test]
    fn spec_parsing_is_strict() {
        assert_eq!(parse_pct_seed("30:12"), Some((30, 12)));
        for bad in ["", "30", "101:4", "-1:4", "a:b", "30:"] {
            assert_eq!(parse_pct_seed(bad), None, "{bad}");
        }
    }

    // The sole test mutating the chaos env vars, to avoid races.
    #[test]
    fn chaos_env_is_validated_strictly() {
        std::env::remove_var("CAP_CHAOS_PANIC");
        std::env::remove_var("CAP_CHAOS_STALL");
        assert_eq!(ChaosInjector::from_env(), Ok(None));

        std::env::set_var("CAP_CHAOS_PANIC", "25:9");
        let c = ChaosInjector::from_env().expect("valid").expect("present");
        assert_eq!(c, injector(Some((25, 9)), None));

        std::env::set_var("CAP_CHAOS_STALL", "100:9:250");
        let c = ChaosInjector::from_env().expect("valid").expect("present");
        assert_eq!(c, injector(Some((25, 9)), Some((100, 9, 250))));

        for (var, bad) in [("CAP_CHAOS_PANIC", "200:1"), ("CAP_CHAOS_STALL", "10:2")] {
            std::env::set_var(var, bad);
            let err = ChaosInjector::from_env().expect_err(bad);
            assert!(err.contains(var), "{err}");
            assert!(err.contains(bad), "{err}");
            std::env::remove_var(var);
        }
        std::env::remove_var("CAP_CHAOS_PANIC");
        std::env::remove_var("CAP_CHAOS_STALL");
    }
}
