//! Naive reference models of every [`cap_core`] configuration policy.
//!
//! Each model re-implements one policy's decision rule from its
//! *documented* semantics — straight-line code, plain loops, no shared
//! machinery with `cap-core` beyond the public decision types. The
//! differential driver ([`crate::diff`]) runs a reference model in
//! lockstep with the production policy over the same interval stream
//! and flags the first step where anything visible differs: the
//! decision, the interval counter, the quarantine set, safe mode, the
//! bit pattern of any TPI estimate, or the final decision/resilience
//! tallies.
//!
//! The arithmetic here intentionally uses the *same float expressions*
//! the documentation pins down (`prev + 0.5 * (tpi - prev)`,
//! `best < cur * (1.0 - gain)`): the oracle demands bit-equality, so
//! the reference must specify the arithmetic exactly, not merely
//! approximately.

use cap_core::manager::{ManagerDecision, ResilienceStats, SwitchOutcome};
use cap_core::policy::PolicyKind;
use cap_obs::DecisionCounts;
use std::cmp::Ordering;

/// EWMA weight every policy uses.
const ALPHA: f64 = 0.5;
/// Confidence defaults (`ConfidencePolicy::default_policy`).
const CONF_THRESHOLD: u32 = 2;
const CONF_HYSTERESIS: f64 = 0.03;
/// Hysteresis-policy defaults.
const HYST_MIN_GAIN: f64 = 0.05;
const HYST_SUSTAIN: u32 = 3;
const HYST_DWELL: u64 = 10;

/// The confidence manager's re-exploration period and degradation
/// knobs, spelled out field by field (see `ResiliencePolicy`).
#[derive(Debug, Clone, Copy)]
struct Tuning {
    explore_period: u64,
    /// Samples beyond this factor of the estimate are clamped to it
    /// (`<= 1.0`: no clamping).
    outlier_factor: f64,
    quarantine_after: u32,
    /// 0: no probation.
    probation_period: u64,
    thrash_window: u64,
    /// 0: no watchdog.
    thrash_limit: u32,
    safe_config: usize,
}

/// `PolicyConfig::new(kind)`: explore period 40 and legacy resilience —
/// no clamping, quarantine after three failures, no probation, no
/// watchdog. The simple policies always run with these knobs.
const DEFAULT_TUNING: Tuning = Tuning {
    explore_period: 40,
    outlier_factor: 0.0,
    quarantine_after: 3,
    probation_period: 0,
    thrash_window: 0,
    thrash_limit: 0,
    safe_config: 0,
};

/// The fault campaign's confidence tuning: explore period 25 and
/// `ResiliencePolicy::hardened()`.
const HARDENED_TUNING: Tuning = Tuning {
    explore_period: 25,
    outlier_factor: 16.0,
    quarantine_after: 2,
    probation_period: 40,
    thrash_window: 30,
    thrash_limit: 10,
    safe_config: 0,
};

/// Estimate/mask state shared by all four reference models.
#[derive(Debug, Clone)]
struct RefBase {
    estimates: Vec<Option<f64>>,
    masked: Vec<bool>,
    dead: Vec<bool>,
    fail_counts: Vec<u32>,
    intervals_seen: u64,
    counts: DecisionCounts,
    stats: ResilienceStats,
}

impl RefBase {
    fn new(n: usize) -> Self {
        RefBase {
            estimates: vec![None; n],
            masked: vec![false; n],
            dead: vec![false; n],
            fail_counts: vec![0; n],
            intervals_seen: 0,
            counts: DecisionCounts::default(),
            stats: ResilienceStats::default(),
        }
    }

    /// Reject invalid samples, clamp outliers to `factor` times (or a
    /// `factor`-th of) the current estimate when `factor > 1`, and fold
    /// survivors into the EWMA.
    fn update(&mut self, config: usize, tpi_ns: f64, factor: f64) {
        if !tpi_ns.is_finite() || tpi_ns <= 0.0 {
            self.stats.samples_rejected += 1;
            return;
        }
        let mut v = tpi_ns;
        if factor > 1.0 {
            if let Some(est) = self.estimates[config] {
                if v > est * factor {
                    v = est * factor;
                    self.stats.samples_clamped += 1;
                } else if v < est / factor {
                    v = est / factor;
                    self.stats.samples_clamped += 1;
                }
            }
        }
        self.estimates[config] = Some(match self.estimates[config] {
            Some(prev) => prev + ALPHA * (v - prev),
            None => v,
        });
    }

    /// First never-sampled unmasked configuration, in index order.
    fn first_unseen(&self) -> Option<usize> {
        (0..self.estimates.len()).find(|&i| self.estimates[i].is_none() && !self.masked[i])
    }

    /// Unmasked configuration with the lowest estimate; first index wins
    /// ties (total float order, so NaN estimates — impossible after
    /// sanitation — would still order deterministically).
    fn best(&self) -> Option<usize> {
        let mut win: Option<(usize, f64)> = None;
        for i in 0..self.estimates.len() {
            if self.masked[i] {
                continue;
            }
            if let Some(e) = self.estimates[i] {
                let better = match win {
                    None => true,
                    Some((_, w)) => e.total_cmp(&w) == Ordering::Less,
                };
                if better {
                    win = Some((i, e));
                }
            }
        }
        win.map(|(i, _)| i)
    }

    fn tally(&mut self, reason: &str) {
        self.counts.intervals += 1;
        match reason {
            "hold" => self.counts.stays += 1,
            "explore" => self.counts.explore_switches += 1,
            "resample" => self.counts.resample_switches += 1,
            "predicted" => self.counts.predicted_switches += 1,
            "pattern" => self.counts.pattern_switches += 1,
            "return-home" => self.counts.home_returns += 1,
            _ => self.counts.safe_mode_holds += 1,
        }
    }

    /// Switch-outcome handling every policy shares (no predictor
    /// bookkeeping): `quarantine_after` consecutive transient failures
    /// or one permanent failure mask the target.
    fn outcome(&mut self, target: usize, outcome: SwitchOutcome, quarantine_after: u32) {
        match outcome {
            SwitchOutcome::Succeeded => self.fail_counts[target] = 0,
            SwitchOutcome::TransientFailure => {
                self.fail_counts[target] = self.fail_counts[target].saturating_add(1);
                if self.fail_counts[target] >= quarantine_after && !self.masked[target] {
                    self.masked[target] = true;
                    self.stats.quarantines += 1;
                }
            }
            SwitchOutcome::PermanentFailure => {
                if !self.masked[target] {
                    self.masked[target] = true;
                    self.stats.quarantines += 1;
                }
                self.dead[target] = true;
            }
        }
    }

    /// Hardware retirement; `Err(())` when nothing viable remains.
    fn mask_unavailable(&mut self, configs: &[usize]) -> Result<(), ()> {
        for &i in configs {
            if i < self.masked.len() {
                self.masked[i] = true;
                self.dead[i] = true;
            }
        }
        if self.dead.iter().all(|&d| d) {
            Err(())
        } else {
            Ok(())
        }
    }
}

/// A reference re-implementation of one policy's decision rule.
#[derive(Debug, Clone)]
pub struct RefPolicy {
    kind: PolicyKind,
    tuning: Tuning,
    base: RefBase,
    /// `process-level`: the chosen-forever configuration.
    settled: Option<usize>,
    /// `hysteresis` streak state.
    candidate: Option<usize>,
    streak: u32,
    cooldown: u64,
    /// `confidence` predictor state.
    predicted: Option<usize>,
    confidence: u32,
    sampling_home: Option<usize>,
    safe_mode: bool,
    /// Round-robin start of the next probation search.
    probe_cursor: usize,
    /// Intervals at which recent predictor switches were issued.
    switch_times: Vec<u64>,
}

impl RefPolicy {
    /// A reference model over `num_configs` configurations, tuned exactly
    /// like `PolicyConfig::new(kind)` (default knobs, legacy resilience).
    pub fn new(kind: PolicyKind, num_configs: usize) -> Self {
        Self::tuned(kind, num_configs, DEFAULT_TUNING)
    }

    /// A reference model tuned like the fault campaign's
    /// `PolicyConfig::new(kind).with_explore_period(25)
    /// .with_resilience(ResiliencePolicy::hardened())`. Only the
    /// confidence manager reads those knobs; the simple policies keep
    /// their fixed behaviour.
    pub fn hardened(kind: PolicyKind, num_configs: usize) -> Self {
        let tuning = if kind == PolicyKind::Confidence { HARDENED_TUNING } else { DEFAULT_TUNING };
        Self::tuned(kind, num_configs, tuning)
    }

    fn tuned(kind: PolicyKind, num_configs: usize, tuning: Tuning) -> Self {
        RefPolicy {
            kind,
            tuning,
            base: RefBase::new(num_configs),
            settled: None,
            candidate: None,
            streak: 0,
            cooldown: 0,
            predicted: None,
            confidence: 0,
            sampling_home: None,
            safe_mode: false,
            probe_cursor: 0,
            switch_times: Vec::new(),
        }
    }

    /// Intervals observed so far.
    pub fn intervals_seen(&self) -> u64 {
        self.base.intervals_seen
    }

    /// Decision tally, field-compatible with the production policies.
    pub fn decision_counts(&self) -> DecisionCounts {
        self.base.counts
    }

    /// Resilience tally, field-compatible with the production policies.
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.base.stats
    }

    /// Currently quarantined configurations.
    pub fn quarantined_count(&self) -> usize {
        self.base.masked.iter().filter(|&&m| m).count()
    }

    /// Whether the watchdog (confidence only) has locked onto the safe
    /// configuration.
    pub fn in_safe_mode(&self) -> bool {
        self.safe_mode
    }

    /// Per-configuration estimate bits.
    pub fn estimates(&self) -> &[Option<f64>] {
        &self.base.estimates
    }

    /// Feeds one finished interval; returns the decision for the next.
    pub fn observe(&mut self, config: usize, tpi_ns: f64) -> ManagerDecision {
        if config >= self.base.estimates.len() {
            return ManagerDecision::Stay;
        }
        self.base.intervals_seen += 1;
        self.base.update(config, tpi_ns, self.tuning.outlier_factor);
        let (decision, reason) = match self.kind {
            PolicyKind::ProcessLevel => self.decide_process_level(config),
            PolicyKind::IntervalGreedy => self.decide_greedy(config),
            PolicyKind::Hysteresis => self.decide_hysteresis(config),
            PolicyKind::Confidence => self.decide_confidence(config),
        };
        self.base.tally(reason);
        decision
    }

    fn decide_process_level(&mut self, config: usize) -> (ManagerDecision, &'static str) {
        if let Some(u) = self.base.first_unseen() {
            return (ManagerDecision::SwitchTo(u), "explore");
        }
        let stale = match self.settled {
            None => true,
            Some(s) => self.base.masked[s],
        };
        if stale {
            self.settled = self.base.best();
        }
        match self.settled {
            Some(s) if s != config => (ManagerDecision::SwitchTo(s), "predicted"),
            _ => (ManagerDecision::Stay, "hold"),
        }
    }

    fn decide_greedy(&mut self, config: usize) -> (ManagerDecision, &'static str) {
        if let Some(u) = self.base.first_unseen() {
            return (ManagerDecision::SwitchTo(u), "explore");
        }
        match self.base.best() {
            Some(b) if b != config => (ManagerDecision::SwitchTo(b), "predicted"),
            _ => (ManagerDecision::Stay, "hold"),
        }
    }

    fn decide_hysteresis(&mut self, config: usize) -> (ManagerDecision, &'static str) {
        if let Some(u) = self.base.first_unseen() {
            return (ManagerDecision::SwitchTo(u), "explore");
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            self.candidate = None;
            self.streak = 0;
            return (ManagerDecision::Stay, "hold");
        }
        let cur = self.base.estimates[config].unwrap_or(f64::INFINITY);
        let best = self.base.best();
        let wins = match best {
            Some(b) if b != config => match self.base.estimates[b] {
                Some(e) => e < cur * (1.0 - HYST_MIN_GAIN),
                None => false,
            },
            _ => false,
        };
        if wins {
            if self.candidate == best {
                self.streak = self.streak.saturating_add(1);
            } else {
                self.candidate = best;
                self.streak = 1;
            }
        } else {
            self.candidate = None;
            self.streak = 0;
        }
        if wins && self.streak >= HYST_SUSTAIN {
            if let Some(b) = self.candidate {
                self.candidate = None;
                self.streak = 0;
                self.cooldown = HYST_DWELL;
                return (ManagerDecision::SwitchTo(b), "predicted");
            }
        }
        (ManagerDecision::Stay, "hold")
    }

    fn decide_confidence(&mut self, config: usize) -> (ManagerDecision, &'static str) {
        if self.safe_mode {
            return (self.safe_decision(config), "safe-mode-hold");
        }
        // Probation: every `probation_period` intervals, release the
        // first transiently quarantined configuration at or after the
        // cursor, one failure short of re-quarantine and unsampled.
        let period = self.tuning.probation_period;
        if period > 0 && self.base.intervals_seen.is_multiple_of(period) {
            let n = self.base.estimates.len();
            for off in 0..n {
                let i = (self.probe_cursor + off) % n;
                if self.base.masked[i] && !self.base.dead[i] {
                    self.base.masked[i] = false;
                    self.base.fail_counts[i] = self.tuning.quarantine_after - 1;
                    self.base.estimates[i] = None;
                    self.base.stats.probations += 1;
                    self.probe_cursor = (i + 1) % n;
                    break;
                }
            }
        }
        if let Some(u) = self.base.first_unseen() {
            return (ManagerDecision::SwitchTo(u), "explore");
        }
        let home = self.sampling_home.take();
        let Some(best) = self.base.best() else {
            // Every candidate quarantined: park on the safe config.
            return (self.enter_safe_mode(config), "all-quarantined");
        };
        let anchor = home.unwrap_or(config);
        let explore = self.tuning.explore_period;
        if explore > 0 && self.base.intervals_seen.is_multiple_of(explore) && home.is_none() {
            let mut runner_up: Option<(usize, f64)> = None;
            for i in 0..self.base.estimates.len() {
                if i == config || self.base.masked[i] {
                    continue;
                }
                if let Some(e) = self.base.estimates[i] {
                    let better = match runner_up {
                        None => true,
                        Some((_, w)) => e.total_cmp(&w) == Ordering::Less,
                    };
                    if better {
                        runner_up = Some((i, e));
                    }
                }
            }
            if let Some((r, _)) = runner_up {
                self.sampling_home = Some(config);
                return (ManagerDecision::SwitchTo(r), "resample");
            }
        }
        let cur = self.base.estimates[anchor].unwrap_or(f64::INFINITY);
        let Some(best_est) = self.base.estimates[best] else {
            return (ManagerDecision::Stay, "hold");
        };
        let wins = best != anchor && best_est < cur * (1.0 - CONF_HYSTERESIS);
        if wins {
            if self.predicted == Some(best) {
                self.confidence = self.confidence.saturating_add(1);
            } else {
                self.predicted = Some(best);
                self.confidence = 1;
            }
        } else {
            self.predicted = None;
            self.confidence = 0;
        }
        if wins && self.confidence > CONF_THRESHOLD {
            self.confidence = 0;
            self.predicted = None;
            // Thrash watchdog: more than `thrash_limit` predictor
            // switches within the last `thrash_window` intervals
            // (inclusive of this one) trips safe mode instead.
            let (window, limit) = (self.tuning.thrash_window, self.tuning.thrash_limit);
            if window > 0 && limit > 0 {
                let now = self.base.intervals_seen;
                let mut recent: Vec<u64> = Vec::new();
                for &t in &self.switch_times {
                    if t + window > now {
                        recent.push(t);
                    }
                }
                recent.push(now);
                self.switch_times = recent;
                if self.switch_times.len() > limit as usize {
                    return (self.enter_safe_mode(config), "watchdog");
                }
            }
            (ManagerDecision::SwitchTo(best), "predicted")
        } else if let Some(h) = home {
            if h == config {
                (ManagerDecision::Stay, "return-home")
            } else {
                (ManagerDecision::SwitchTo(h), "return-home")
            }
        } else {
            (ManagerDecision::Stay, "hold")
        }
    }

    /// Locks onto the safe configuration for good.
    fn enter_safe_mode(&mut self, config: usize) -> ManagerDecision {
        self.safe_mode = true;
        self.base.stats.safe_mode_entries += 1;
        self.predicted = None;
        self.confidence = 0;
        self.sampling_home = None;
        self.safe_decision(config)
    }

    /// Safe-mode holding pattern: sit on the safe configuration,
    /// redirected to the first live one when it is permanently dead.
    fn safe_decision(&self, config: usize) -> ManagerDecision {
        let mut safe = self.tuning.safe_config;
        if self.base.dead[safe] {
            if let Some(i) = (0..self.base.dead.len()).find(|&i| !self.base.dead[i]) {
                safe = i;
            }
        }
        if safe == config || self.base.dead[safe] {
            ManagerDecision::Stay
        } else {
            ManagerDecision::SwitchTo(safe)
        }
    }

    /// Reports how a requested switch ended.
    pub fn record_switch_outcome(&mut self, target: usize, outcome: SwitchOutcome) {
        if target >= self.base.estimates.len() {
            return;
        }
        self.base.outcome(target, outcome, self.tuning.quarantine_after);
        if self.kind == PolicyKind::Confidence && outcome != SwitchOutcome::Succeeded {
            // Predictor bookkeeping only the confidence manager has.
            if self.predicted == Some(target) {
                self.predicted = None;
                self.confidence = 0;
            }
            if self.sampling_home == Some(target) {
                self.sampling_home = None;
            }
        }
    }

    /// Retires configurations; `Err(())` when nothing viable remains.
    /// The unit error deliberately mirrors the production policies'
    /// error-or-not shape so the differential driver compares `is_err()`
    /// without inventing error semantics the reference doesn't model.
    #[allow(clippy::result_unit_err)]
    pub fn mask_unavailable(&mut self, configs: &[usize]) -> Result<(), ()> {
        self.base.mask_unavailable(configs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the reference like a runner would; return the visit path.
    fn drive(p: &mut RefPolicy, tpi: impl Fn(usize, u64) -> f64, steps: u64) -> Vec<usize> {
        let mut at = 0usize;
        let mut visits = Vec::new();
        for t in 0..steps {
            visits.push(at);
            if let ManagerDecision::SwitchTo(c) = p.observe(at, tpi(at, t)) {
                if c != at {
                    p.record_switch_outcome(c, SwitchOutcome::Succeeded);
                    at = c;
                }
            }
        }
        visits
    }

    #[test]
    fn reference_process_level_settles_on_the_best() {
        let mut p = RefPolicy::new(PolicyKind::ProcessLevel, 3);
        let visits = drive(&mut p, |c, _| [3.0, 1.0, 2.0][c], 30);
        assert_eq!(&visits[..4], &[0, 1, 2, 1]);
        assert!(visits[4..].iter().all(|&c| c == 1));
    }

    #[test]
    fn reference_confidence_needs_three_consecutive_wins() {
        let mut p = RefPolicy::new(PolicyKind::Confidence, 2);
        let _ = p.observe(0, 5.0);
        let _ = p.observe(1, 1.0);
        assert_eq!(p.observe(0, 5.0), ManagerDecision::Stay);
        assert_eq!(p.observe(0, 5.0), ManagerDecision::Stay);
        assert_eq!(p.observe(0, 5.0), ManagerDecision::SwitchTo(1));
    }

    #[test]
    fn reference_rejects_invalid_samples() {
        for kind in PolicyKind::ALL {
            let mut p = RefPolicy::new(kind, 2);
            let _ = p.observe(0, f64::NAN);
            let _ = p.observe(0, -1.0);
            assert_eq!(p.resilience_stats().samples_rejected, 2, "{kind}");
            assert_eq!(p.estimates()[0], None, "{kind}");
        }
    }
}
