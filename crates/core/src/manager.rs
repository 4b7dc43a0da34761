//! Configuration management (paper §4 and §6).
//!
//! The paper evaluates a **process-level** scheme — one configuration per
//! application, chosen by an oracle sweep (implemented in
//! [`crate::experiments`]) — and sketches the finer-grained scheme its
//! Section 6 motivates: *"adaptive control hardware may read the
//! performance monitoring hardware at regular intervals at runtime,
//! analyze the performance information, predict the configuration which
//! will perform best over the next interval ..., and switch
//! configurations as appropriate"*, with a **confidence level assigned to
//! each prediction ... to avoid needless reconfiguration overhead"*.
//!
//! [`IntervalManager`] implements that sketch:
//!
//! 1. an initial **exploration** round samples every configuration for
//!    one interval to seed TPI estimates;
//! 2. each interval, the current configuration's estimate is updated with
//!    an exponentially weighted moving average (the "performance
//!    monitoring hardware");
//! 3. periodically, the best *other* configuration is re-sampled for one
//!    interval so stale estimates can track phase changes;
//! 4. the **predictor** proposes the configuration with the lowest
//!    estimate; a switch is issued only after the prediction has beaten
//!    the current configuration by at least
//!    [`ConfidencePolicy::hysteresis`] for
//!    [`ConfidencePolicy::threshold`] consecutive intervals.
//!
//! [`run_managed`] drives any structure — a [`QueueStructure`] through
//! [`QueueIntervalSim`], a [`CacheStructure`] through
//! [`CacheIntervalSim`] — under any manager, charging reconfigurations
//! with the dynamic clock's switch penalty and the slower period during
//! transition intervals.
//!
//! # Hardening
//!
//! Real adaptive hardware must survive misbehaving monitoring hardware
//! and reconfiguration machinery. The manager therefore:
//!
//! * **sanitizes** every sample before the EWMA — non-finite or
//!   non-positive TPIs are rejected outright, and (under a
//!   [`ResiliencePolicy`] with an outlier factor) wildly implausible
//!   values are clamped toward the configuration's current estimate;
//! * **quarantines** configurations whose reconfigurations keep failing
//!   (reported via [`IntervalManager::record_switch_outcome`]), masking
//!   them out of exploration and prediction, with periodic **probation**
//!   re-probes so a transiently failing configuration can return;
//! * runs a **watchdog** that detects estimate thrashing (too many
//!   predictor-driven switches in a window) or an empty candidate set and
//!   falls back to a designated **safe static configuration** instead of
//!   oscillating or panicking.
//!
//! [`run_managed`] with a [`FaultInjector`] adds the runner half:
//! transient reconfiguration failures are retried
//! with bounded exponential backoff (charged as extra switch-penalty
//! cycles at the conservative slower-of-two period), and exhausted or
//! permanent failures are reported to the manager, which quarantines the
//! target and keeps the run going on the current configuration.

use crate::clock::DynamicClock;
use crate::error::CapError;
use crate::faults::{FaultInjector, SwitchFault};
use crate::policy::ConfigPolicy;
use crate::structure::{AdaptiveStructure, CacheStructure, QueueStructure};
use cap_obs::{
    ClockSwitchEvent, DecisionCounts, DecisionEvent, Event, PatternEvent, ProbationEvent,
    QuarantineEvent, Recorder, SafeModeEvent, SwitchResultEvent,
};
use cap_ooo::interval::IntervalSample;
use cap_timing::units::Ns;
use cap_trace::inst::InstStream;
use serde::Serialize;
use std::sync::Arc;

/// The manager's verdict for the next interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagerDecision {
    /// Keep the current configuration.
    Stay,
    /// Reconfigure to the given configuration index.
    SwitchTo(usize),
}

/// Confidence gating for the next-configuration predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidencePolicy {
    /// Consecutive intervals a prediction must win before a switch.
    pub threshold: u32,
    /// Minimum fractional TPI gain (e.g. 0.03 = 3 %) a prediction must
    /// promise; smaller gains never build confidence.
    pub hysteresis: f64,
}

impl ConfidencePolicy {
    /// A reasonable default: two consecutive wins of at least 3 %.
    pub fn default_policy() -> Self {
        ConfidencePolicy { threshold: 2, hysteresis: 0.03 }
    }

    /// No gating at all: switch to the predicted best immediately. Used
    /// by the ablation benches to demonstrate reconfiguration thrash on
    /// irregular phases (the paper's Figure 13b caution).
    pub fn none() -> Self {
        ConfidencePolicy { threshold: 0, hysteresis: 0.0 }
    }
}

impl Default for ConfidencePolicy {
    fn default() -> Self {
        Self::default_policy()
    }
}

/// Degradation-handling knobs for an [`IntervalManager`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Samples further than this factor from the configuration's current
    /// estimate are clamped to the factor (values `<= 1.0` disable
    /// clamping; non-finite and non-positive samples are always
    /// rejected).
    pub outlier_factor: f64,
    /// Failed switches toward a configuration before it is quarantined
    /// (must be at least 1).
    pub quarantine_threshold: u32,
    /// Intervals between probation re-probes of quarantined
    /// configurations (0 disables probation; permanent failures are
    /// never re-probed).
    pub probation_period: u64,
    /// Window, in intervals, over which the thrash watchdog counts
    /// predictor-driven switches.
    pub thrash_window: u64,
    /// Predictor-driven switches tolerated inside the window before the
    /// watchdog falls back to the safe configuration (0 disables the
    /// watchdog).
    pub thrash_limit: u32,
    /// The designated safe static configuration for fallback.
    pub safe_config: usize,
}

impl ResiliencePolicy {
    /// The pre-hardening behaviour: reject invalid samples but never
    /// clamp, quarantine after three failures, no probation, no
    /// watchdog. This is the default, so fault-free runs behave exactly
    /// as before.
    pub fn legacy() -> Self {
        ResiliencePolicy {
            outlier_factor: 0.0,
            quarantine_threshold: 3,
            probation_period: 0,
            thrash_window: 0,
            thrash_limit: 0,
            safe_config: 0,
        }
    }

    /// The fault-campaign posture: clamp outliers, quarantine quickly,
    /// re-probe periodically, and arm the thrash watchdog.
    pub fn hardened() -> Self {
        ResiliencePolicy {
            outlier_factor: 16.0,
            quarantine_threshold: 2,
            probation_period: 40,
            thrash_window: 30,
            thrash_limit: 10,
            safe_config: 0,
        }
    }
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        Self::legacy()
    }
}

/// Counters for the manager's degradation handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct ResilienceStats {
    /// Samples rejected outright (non-finite or non-positive TPI).
    pub samples_rejected: u64,
    /// Samples clamped to the outlier envelope.
    pub samples_clamped: u64,
    /// Configurations quarantined after repeated switch failures.
    pub quarantines: u64,
    /// Probation re-probes of quarantined configurations.
    pub probations: u64,
    /// Times the watchdog fell back to the safe configuration.
    pub safe_mode_entries: u64,
}

/// How a requested reconfiguration ended, as reported by the runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchOutcome {
    /// The switch completed.
    Succeeded,
    /// The switch failed transiently and the retry budget ran out.
    TransientFailure,
    /// The switch can never complete (broken configuration).
    PermanentFailure,
}

/// The Section 6 interval-based configuration manager.
#[derive(Debug, Clone)]
pub struct IntervalManager {
    estimates: Vec<Option<f64>>,
    alpha: f64,
    explore_period: u64,
    intervals_seen: u64,
    confidence: u32,
    predicted: Option<usize>,
    policy: ConfidencePolicy,
    /// When sampling, where the manager should return afterwards.
    sampling_home: Option<usize>,
    /// Optional proactive phase predictor over per-interval winners.
    pattern: Option<crate::pattern::PatternPredictor>,
    /// Confidence a pattern prediction needs before pre-switching.
    pattern_min_confidence: f64,
    /// Degradation-handling knobs.
    resilience: ResiliencePolicy,
    /// Configurations masked out of exploration and prediction.
    quarantined: Vec<bool>,
    /// Quarantined configurations that must never be re-probed.
    permanently_dead: Vec<bool>,
    /// Consecutive failed switches toward each configuration.
    fail_counts: Vec<u32>,
    /// Round-robin cursor for probation re-probes.
    probe_cursor: usize,
    /// Interval stamps of recent predictor-driven switches (watchdog).
    switch_times: Vec<u64>,
    /// Once set, the manager holds the safe static configuration.
    safe_mode: bool,
    stats: ResilienceStats,
    /// Trace sink; the no-op recorder by default (zero cost when off).
    recorder: Arc<dyn Recorder>,
    /// Run label attached to every emitted event (usually the app name).
    label: Option<String>,
    /// Per-reason decision tally, maintained even with tracing off.
    counts: DecisionCounts,
}

impl IntervalManager {
    /// Creates a manager over `num_configs` configurations.
    ///
    /// `explore_period` is the number of intervals between re-samples of
    /// the best non-current configuration (0 disables re-exploration).
    ///
    /// # Errors
    ///
    /// Returns [`CapError::InvalidParameter`] if `num_configs` is zero or
    /// the policy's hysteresis is negative or not finite.
    pub fn new(num_configs: usize, explore_period: u64, policy: ConfidencePolicy) -> Result<Self, CapError> {
        if num_configs == 0 {
            return Err(CapError::InvalidParameter { what: "manager needs at least one configuration" });
        }
        if !policy.hysteresis.is_finite() || policy.hysteresis < 0.0 {
            return Err(CapError::InvalidParameter { what: "hysteresis must be non-negative and finite" });
        }
        Ok(IntervalManager {
            estimates: vec![None; num_configs],
            alpha: 0.5,
            explore_period,
            intervals_seen: 0,
            confidence: 0,
            predicted: None,
            policy,
            sampling_home: None,
            pattern: None,
            pattern_min_confidence: 0.85,
            resilience: ResiliencePolicy::legacy(),
            quarantined: vec![false; num_configs],
            permanently_dead: vec![false; num_configs],
            fail_counts: vec![0; num_configs],
            probe_cursor: 0,
            switch_times: Vec::new(),
            safe_mode: false,
            stats: ResilienceStats::default(),
            recorder: cap_obs::noop(),
            label: None,
            counts: DecisionCounts::default(),
        })
    }

    /// Attaches a trace recorder and an optional run label (conventionally
    /// the application name). Every subsequent decision, switch outcome,
    /// quarantine, probation and safe-mode transition is emitted as a
    /// structured [`cap_obs::Event`].
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>, label: Option<String>) -> Self {
        self.recorder = recorder;
        self.label = label;
        self
    }

    /// The per-reason decision tally accumulated so far. Derived solely
    /// from the deterministic decision stream, so it is identical across
    /// worker counts and safe to embed in reports.
    pub fn decision_counts(&self) -> DecisionCounts {
        self.counts
    }

    /// Replaces the degradation-handling policy.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::InvalidParameter`] if the outlier factor is
    /// not finite, the quarantine threshold is zero, or the safe
    /// configuration is out of range.
    pub fn with_resilience(mut self, resilience: ResiliencePolicy) -> Result<Self, CapError> {
        if !resilience.outlier_factor.is_finite() || resilience.outlier_factor < 0.0 {
            return Err(CapError::InvalidParameter { what: "outlier factor must be non-negative and finite" });
        }
        if resilience.quarantine_threshold == 0 {
            return Err(CapError::InvalidParameter { what: "quarantine threshold must be at least 1" });
        }
        if resilience.safe_config >= self.estimates.len() {
            return Err(CapError::InvalidParameter { what: "safe configuration is out of range" });
        }
        self.resilience = resilience;
        Ok(self)
    }

    /// Enables proactive phase prediction (paper §6: "regular patterns
    /// can potentially be detected and exploited by a dynamic hardware
    /// predictor"). Each interval's estimated-best configuration feeds a
    /// [`crate::pattern::PatternPredictor`]; when it detects a periodic
    /// pattern with at least `min_confidence`, the manager switches to
    /// the predicted next winner *before* the reactive path would.
    pub fn with_pattern_detection(mut self, history: usize, min_confidence: f64) -> Self {
        self.pattern = Some(crate::pattern::PatternPredictor::new(history));
        self.pattern_min_confidence = min_confidence.clamp(0.0, 1.0);
        self
    }

    /// Current TPI estimates (ns), `None` where never sampled.
    pub fn estimates(&self) -> &[Option<f64>] {
        &self.estimates
    }

    /// The configuration the predictor currently favours, if any.
    pub fn predicted_best(&self) -> Option<usize> {
        self.predicted
    }

    fn best_estimate(&self) -> Option<usize> {
        self.estimates
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.quarantined[*i])
            .filter_map(|(i, e)| e.map(|v| (i, v)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i)
    }

    /// Rejects invalid samples and clamps outliers toward the
    /// configuration's current estimate. Returns `None` when the sample
    /// must not touch the EWMA.
    fn sanitize(&mut self, config: usize, tpi_ns: f64) -> Option<f64> {
        if !tpi_ns.is_finite() || tpi_ns <= 0.0 {
            self.stats.samples_rejected += 1;
            return None;
        }
        let f = self.resilience.outlier_factor;
        if f > 1.0 {
            if let Some(est) = self.estimates[config] {
                if tpi_ns > est * f {
                    self.stats.samples_clamped += 1;
                    return Some(est * f);
                }
                if tpi_ns < est / f {
                    self.stats.samples_clamped += 1;
                    return Some(est / f);
                }
            }
        }
        Some(tpi_ns)
    }

    /// The safe configuration, redirected past permanent failures.
    fn effective_safe(&self) -> usize {
        let safe = self.resilience.safe_config;
        if !self.permanently_dead.get(safe).copied().unwrap_or(true) {
            return safe;
        }
        (0..self.permanently_dead.len()).find(|&i| !self.permanently_dead[i]).unwrap_or(safe)
    }

    /// Locks the manager onto the safe static configuration.
    fn enter_safe_mode(&mut self, config: usize) -> ManagerDecision {
        self.safe_mode = true;
        self.stats.safe_mode_entries += 1;
        self.predicted = None;
        self.confidence = 0;
        self.sampling_home = None;
        if self.recorder.enabled() {
            self.recorder.record(&Event::SafeMode(SafeModeEvent {
                app: self.label.clone(),
                interval: self.intervals_seen,
                safe_config: self.effective_safe(),
            }));
        }
        self.safe_mode_decision(config)
    }

    fn safe_mode_decision(&self, config: usize) -> ManagerDecision {
        let safe = self.effective_safe();
        if safe == config || self.permanently_dead[safe] {
            ManagerDecision::Stay
        } else {
            ManagerDecision::SwitchTo(safe)
        }
    }

    /// Stamps a predictor-driven switch for the thrash watchdog; trips to
    /// safe mode when the window overflows.
    fn issue_switch(&mut self, config: usize, to: usize) -> ManagerDecision {
        let window = self.resilience.thrash_window;
        let limit = self.resilience.thrash_limit;
        if limit > 0 && window > 0 {
            let cutoff = self.intervals_seen.saturating_sub(window);
            self.switch_times.retain(|&t| t > cutoff);
            self.switch_times.push(self.intervals_seen);
            if self.switch_times.len() as u32 > limit {
                return self.enter_safe_mode(config);
            }
        }
        ManagerDecision::SwitchTo(to)
    }

    /// Periodically lifts one transient quarantine (round-robin) and
    /// clears its estimate so the exploration phase re-probes it.
    fn maybe_probation(&mut self) {
        let period = self.resilience.probation_period;
        if period == 0 || !self.intervals_seen.is_multiple_of(period) {
            return;
        }
        let n = self.estimates.len();
        for off in 0..n {
            let i = (self.probe_cursor + off) % n;
            if self.quarantined[i] && !self.permanently_dead[i] {
                self.quarantined[i] = false;
                // One more failure re-quarantines immediately.
                self.fail_counts[i] = self.resilience.quarantine_threshold - 1;
                self.estimates[i] = None;
                self.stats.probations += 1;
                self.probe_cursor = (i + 1) % n;
                if self.recorder.enabled() {
                    self.recorder.record(&Event::Probation(ProbationEvent {
                        app: self.label.clone(),
                        interval: self.intervals_seen,
                        config: i,
                    }));
                }
                return;
            }
        }
    }

    /// Feeds the interval just finished (which ran at `config` with the
    /// given TPI) and returns the decision for the next interval.
    ///
    /// Invalid samples (non-finite or non-positive TPI) never reach the
    /// EWMA; out-of-range `config` indices are ignored. This method
    /// never panics.
    pub fn observe(&mut self, config: usize, tpi_ns: f64) -> ManagerDecision {
        if config >= self.estimates.len() {
            return ManagerDecision::Stay;
        }
        self.intervals_seen += 1;
        let sanitized = self.sanitize(config, tpi_ns);
        if let Some(v) = sanitized {
            self.estimates[config] = Some(match self.estimates[config] {
                Some(prev) => prev + self.alpha * (v - prev),
                None => v,
            });
        }

        let (decision, reason) = self.decide(config);

        self.counts.intervals += 1;
        match reason {
            "hold" => self.counts.stays += 1,
            "explore" => self.counts.explore_switches += 1,
            "resample" => self.counts.resample_switches += 1,
            "predicted" => self.counts.predicted_switches += 1,
            "pattern" => self.counts.pattern_switches += 1,
            "return-home" => self.counts.home_returns += 1,
            // "safe-mode-hold", "all-quarantined", "watchdog": every
            // interval spent parked in (or falling into) safe mode.
            _ => self.counts.safe_mode_holds += 1,
        }

        if self.recorder.enabled() {
            self.recorder.record(&Event::Decision(DecisionEvent {
                app: self.label.clone(),
                interval: self.intervals_seen,
                config,
                raw_tpi_ns: tpi_ns,
                sanitized_tpi_ns: sanitized,
                estimate_ns: self.estimates[config],
                predicted: self.predicted,
                confidence: self.confidence,
                reason,
                policy: "confidence",
                target: match decision {
                    ManagerDecision::SwitchTo(t) => Some(t),
                    ManagerDecision::Stay => None,
                },
            }));
        }

        decision
    }

    /// The decision logic of [`IntervalManager::observe`], after sample
    /// sanitation and the EWMA update. Returns the decision plus the
    /// stable lowercase reason tag used in trace events and counters.
    fn decide(&mut self, config: usize) -> (ManagerDecision, &'static str) {
        // Safe mode is terminal: hold the safe static configuration.
        if self.safe_mode {
            return (self.safe_mode_decision(config), "safe-mode-hold");
        }

        self.maybe_probation();

        // Phase 1: exploration — visit every non-quarantined
        // configuration once.
        if let Some(unseen) =
            (0..self.estimates.len()).find(|&i| self.estimates[i].is_none() && !self.quarantined[i])
        {
            return (ManagerDecision::SwitchTo(unseen), "explore");
        }

        // Returning from a one-interval re-sample: go home (unless the
        // sample itself now looks best; the predictor below handles it).
        let home = self.sampling_home.take();

        let Some(best) = self.best_estimate() else {
            // Every candidate is quarantined: fall back to the safe
            // static configuration rather than oscillating or panicking.
            return (self.enter_safe_mode(config), "all-quarantined");
        };
        let anchor = home.unwrap_or(config);

        // Proactive phase prediction: feed the estimated winner of the
        // finished interval, and pre-switch when a confident periodic
        // pattern names a different configuration for the next one.
        if let Some(p) = self.pattern.as_mut() {
            p.record(best);
            if let Some(pred) = p.predict() {
                if pred.confidence >= self.pattern_min_confidence
                    && pred.config != anchor
                    && home.is_none()
                    && !self.quarantined.get(pred.config).copied().unwrap_or(true)
                {
                    if self.recorder.enabled() {
                        self.recorder.record(&Event::Pattern(PatternEvent {
                            app: self.label.clone(),
                            interval: self.intervals_seen,
                            config: pred.config,
                            confidence: pred.confidence,
                            period: pred.period,
                        }));
                    }
                    self.confidence = 0;
                    self.predicted = None;
                    let decision = self.issue_switch(config, pred.config);
                    return (decision, if self.safe_mode { "watchdog" } else { "pattern" });
                }
            }
        }

        // Phase 3: periodic re-exploration of the best non-current
        // estimate, so it can't go stale.
        if self.explore_period > 0 && self.intervals_seen.is_multiple_of(self.explore_period) && home.is_none() {
            let runner_up = self
                .estimates
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != config && !self.quarantined[*i])
                .filter_map(|(i, e)| e.map(|v| (i, v)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(i, _)| i);
            if let Some(r) = runner_up {
                self.sampling_home = Some(config);
                return (ManagerDecision::SwitchTo(r), "resample");
            }
        }

        // Phase 4: prediction with confidence.
        let cur_est = self.estimates[anchor].unwrap_or(f64::INFINITY);
        let Some(best_est) = self.estimates[best] else {
            return (ManagerDecision::Stay, "hold");
        };
        let wins = best != anchor && best_est < cur_est * (1.0 - self.policy.hysteresis);
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

        if wins && self.confidence > self.policy.threshold {
            self.confidence = 0;
            self.predicted = None;
            let decision = self.issue_switch(config, best);
            (decision, if self.safe_mode { "watchdog" } else { "predicted" })
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

    /// Reports how a switch the manager requested actually ended. Runners
    /// call this after every reconfiguration attempt; repeated failures
    /// quarantine the target.
    pub fn record_switch_outcome(&mut self, target: usize, outcome: SwitchOutcome) {
        if target >= self.estimates.len() {
            return;
        }
        if self.recorder.enabled() {
            self.recorder.record(&Event::SwitchResult(SwitchResultEvent {
                app: self.label.clone(),
                interval: self.intervals_seen,
                target,
                outcome: match outcome {
                    SwitchOutcome::Succeeded => "succeeded",
                    SwitchOutcome::TransientFailure => "transient-failure",
                    SwitchOutcome::PermanentFailure => "permanent-failure",
                },
            }));
        }
        match outcome {
            SwitchOutcome::Succeeded => {
                self.fail_counts[target] = 0;
            }
            SwitchOutcome::TransientFailure => {
                self.fail_counts[target] = self.fail_counts[target].saturating_add(1);
                if self.fail_counts[target] >= self.resilience.quarantine_threshold && !self.quarantined[target]
                {
                    self.quarantined[target] = true;
                    self.stats.quarantines += 1;
                    self.emit_quarantine(target, false);
                }
                self.switch_failed_bookkeeping(target);
            }
            SwitchOutcome::PermanentFailure => {
                if !self.quarantined[target] {
                    self.quarantined[target] = true;
                    self.stats.quarantines += 1;
                    self.emit_quarantine(target, true);
                }
                self.permanently_dead[target] = true;
                self.switch_failed_bookkeeping(target);
            }
        }
    }

    fn emit_quarantine(&self, config: usize, permanent: bool) {
        if self.recorder.enabled() {
            self.recorder.record(&Event::Quarantine(QuarantineEvent {
                app: self.label.clone(),
                interval: self.intervals_seen,
                config,
                permanent,
            }));
        }
    }

    fn switch_failed_bookkeeping(&mut self, target: usize) {
        if self.predicted == Some(target) {
            self.predicted = None;
            self.confidence = 0;
        }
        if self.sampling_home == Some(target) {
            self.sampling_home = None;
        }
    }

    /// Permanently masks configurations the hardware can no longer
    /// provide (e.g. cache boundaries reaching into retired increments).
    ///
    /// # Errors
    ///
    /// Returns [`CapError::NoViableConfiguration`] if this would leave no
    /// configuration available.
    pub fn mask_unavailable(&mut self, configs: &[usize]) -> Result<(), CapError> {
        for &i in configs {
            if let Some(q) = self.quarantined.get_mut(i) {
                *q = true;
                self.permanently_dead[i] = true;
            }
        }
        if self.permanently_dead.iter().all(|&d| d) {
            return Err(CapError::NoViableConfiguration);
        }
        Ok(())
    }

    /// Whether a configuration is currently quarantined (out-of-range
    /// indices report `true`).
    pub fn is_quarantined(&self, config: usize) -> bool {
        self.quarantined.get(config).copied().unwrap_or(true)
    }

    /// Number of currently quarantined configurations.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.iter().filter(|&&q| q).count()
    }

    /// Whether the watchdog has locked the manager onto the safe
    /// configuration.
    pub fn in_safe_mode(&self) -> bool {
        self.safe_mode
    }

    /// The designated safe static configuration (after redirection past
    /// permanent failures).
    pub fn safe_config(&self) -> usize {
        self.effective_safe()
    }

    /// Degradation-handling counters accumulated so far.
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.stats
    }
}

/// The [`IntervalManager`] is the `"confidence"` policy — the default
/// everywhere. The trait methods delegate to the inherent ones, so
/// existing call sites are untouched.
impl ConfigPolicy for IntervalManager {
    fn name(&self) -> &'static str {
        "confidence"
    }

    fn num_configs(&self) -> usize {
        self.estimates.len()
    }

    fn intervals_seen(&self) -> u64 {
        self.intervals_seen
    }

    fn observe(&mut self, config: usize, tpi_ns: f64) -> ManagerDecision {
        IntervalManager::observe(self, config, tpi_ns)
    }

    fn record_switch_outcome(&mut self, target: usize, outcome: SwitchOutcome) {
        IntervalManager::record_switch_outcome(self, target, outcome);
    }

    fn mask_unavailable(&mut self, configs: &[usize]) -> Result<(), CapError> {
        IntervalManager::mask_unavailable(self, configs)
    }

    fn decision_counts(&self) -> DecisionCounts {
        self.counts
    }

    fn resilience_stats(&self) -> ResilienceStats {
        self.stats
    }

    fn quarantined_count(&self) -> usize {
        IntervalManager::quarantined_count(self)
    }

    fn is_quarantined(&self, config: usize) -> bool {
        IntervalManager::is_quarantined(self, config)
    }

    fn in_safe_mode(&self) -> bool {
        self.safe_mode
    }

    fn recorder(&self) -> Arc<dyn Recorder> {
        self.recorder.clone()
    }

    fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    fn estimates_snapshot(&self) -> Vec<Option<f64>> {
        self.estimates.clone()
    }
}

/// One interval of a managed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagedInterval {
    /// Configuration index the interval ran at.
    pub config: usize,
    /// The recorded cycles/instructions.
    pub sample: IntervalSample,
    /// The clock period charged for the interval.
    pub period: Ns,
}

impl ManagedInterval {
    /// The interval's TPI.
    pub fn tpi(&self) -> Ns {
        self.sample.tpi(self.period)
    }
}

/// Outcome of a managed run.
#[derive(Debug, Clone, PartialEq)]
pub struct ManagedRun {
    /// Per-interval records.
    pub intervals: Vec<ManagedInterval>,
    /// Number of reconfigurations performed.
    pub switches: u64,
    /// Wall-clock time lost to clock switching.
    pub switch_penalty: Ns,
}

impl ManagedRun {
    /// Total wall-clock time including switch penalties.
    pub fn total_time(&self) -> Ns {
        self.intervals.iter().map(|i| i.period * i.sample.cycles as f64).sum::<Ns>() + self.switch_penalty
    }

    /// Total instructions committed.
    pub fn instructions(&self) -> u64 {
        self.intervals.iter().map(|i| i.sample.insts).sum()
    }

    /// Average TPI over the run (switch penalties included).
    pub fn average_tpi(&self) -> Ns {
        let insts = self.instructions();
        if insts == 0 {
            Ns(0.0)
        } else {
            self.total_time() / insts as f64
        }
    }
}

/// Retry policy for reconfigurations that fail transiently.
///
/// Attempt `k` (zero-based) that fails charges
/// `backoff_base_cycles << k` extra switch-penalty cycles at the
/// conservative slower-of-two period before the next try; after
/// `max_retries` retries the switch is abandoned and reported to the
/// manager as a [`SwitchOutcome::TransientFailure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchRetryPolicy {
    /// Retries after the first failed attempt.
    pub max_retries: u32,
    /// Backoff charge for the first failed attempt, in cycles.
    pub backoff_base_cycles: u64,
}

impl SwitchRetryPolicy {
    /// Three retries starting at eight cycles (8, 16, 32, 64).
    pub fn default_policy() -> Self {
        SwitchRetryPolicy { max_retries: 3, backoff_base_cycles: 8 }
    }
}

impl Default for SwitchRetryPolicy {
    fn default() -> Self {
        Self::default_policy()
    }
}

/// A [`ManagedRun`] plus the fault-handling costs the runner accrued.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedRun {
    /// The managed run itself (switch penalties include retry backoff).
    pub run: ManagedRun,
    /// Transient switch failures that were retried.
    pub retries: u64,
    /// Wall-clock time charged to retry backoff.
    pub retry_penalty: Ns,
    /// Switch attempts abandoned (retry budget exhausted or permanent).
    pub switch_failures: u64,
}

/// Executes one policy-requested switch, injecting faults and retrying
/// transient failures with bounded exponential backoff. Returns the
/// transition period when the switch completed, `None` when it was
/// abandoned (the run continues on the current configuration).
fn execute_switch(
    structure: &mut dyn AdaptiveStructure,
    clock: &mut DynamicClock,
    policy: &mut dyn ConfigPolicy,
    next: usize,
    injector: &mut Option<&mut FaultInjector>,
    retry: SwitchRetryPolicy,
    out: &mut FaultedRun,
) -> Result<Option<Ns>, CapError> {
    let mut attempt: u32 = 0;
    loop {
        let fault = match injector.as_deref_mut() {
            Some(inj) => inj.on_switch_attempt(next),
            None => None,
        };
        match fault {
            None => {
                let old_period = clock.period();
                let from = structure.current();
                if structure.reconfigure(next).is_err() {
                    // The hardware cannot provide this configuration
                    // (e.g. retired cache increments): treat it as a
                    // permanent failure and keep running.
                    out.switch_failures += 1;
                    policy.record_switch_outcome(next, SwitchOutcome::PermanentFailure);
                    return Ok(None);
                }
                let penalty = clock.select(next)?;
                out.run.switch_penalty += penalty;
                out.run.switches += 1;
                let recorder = policy.recorder();
                if recorder.enabled() {
                    recorder.record(&Event::ClockSwitch(ClockSwitchEvent {
                        app: policy.label().map(str::to_string),
                        interval: policy.intervals_seen(),
                        from,
                        to: next,
                        penalty_ns: penalty.value(),
                        period_ns: clock.period().value(),
                    }));
                }
                policy.record_switch_outcome(next, SwitchOutcome::Succeeded);
                return Ok(Some(old_period.max(clock.period())));
            }
            Some(SwitchFault::Permanent) => {
                out.switch_failures += 1;
                policy.record_switch_outcome(next, SwitchOutcome::PermanentFailure);
                return Ok(None);
            }
            Some(SwitchFault::Transient) => {
                let cycles = retry.backoff_base_cycles << attempt.min(16);
                let penalty = clock.penalty_at(next, cycles)?;
                clock.charge_extra_penalty(penalty);
                out.run.switch_penalty += penalty;
                out.retry_penalty += penalty;
                if attempt >= retry.max_retries {
                    out.switch_failures += 1;
                    policy.record_switch_outcome(next, SwitchOutcome::TransientFailure);
                    return Ok(None);
                }
                attempt += 1;
                out.retries += 1;
            }
        }
    }
}

/// One interval of structure-specific simulation inside the generic
/// managed-run kernel.
///
/// An implementation owns an adaptive structure plus whatever stream and
/// model it needs to turn "run interval `index`" into an
/// [`IntervalSample`] (cycles and instructions at the structure's
/// *current* configuration). The kernel handles everything else: clock
/// periods, policy decisions, switch execution, fault injection and
/// accounting.
pub trait IntervalSim {
    /// The adaptive structure under management.
    fn structure(&mut self) -> &mut dyn AdaptiveStructure;

    /// Simulates interval `index` at the current configuration. `None`
    /// means the substrate produced no sample (the kernel skips the
    /// interval).
    ///
    /// # Errors
    ///
    /// Propagates substrate configuration or timing-model errors.
    fn simulate(
        &mut self,
        index: u64,
        recorder: &dyn Recorder,
        label: Option<&str>,
    ) -> Result<Option<IntervalSample>, CapError>;
}

/// [`IntervalSim`] over a [`QueueStructure`]: each interval commits
/// `interval_len` instructions on the out-of-order core.
pub struct QueueIntervalSim<'a, S: InstStream> {
    structure: &'a mut QueueStructure,
    stream: &'a mut S,
    interval_len: u64,
}

impl<'a, S: InstStream> QueueIntervalSim<'a, S> {
    /// Binds the simulation to a structure and instruction stream.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::InvalidParameter`] if `interval_len` is zero.
    pub fn new(
        structure: &'a mut QueueStructure,
        stream: &'a mut S,
        interval_len: u64,
    ) -> Result<Self, CapError> {
        if interval_len == 0 {
            return Err(CapError::InvalidParameter { what: "interval length must be positive" });
        }
        Ok(QueueIntervalSim { structure, stream, interval_len })
    }
}

impl<S: InstStream> IntervalSim for QueueIntervalSim<'_, S> {
    fn structure(&mut self) -> &mut dyn AdaptiveStructure {
        self.structure
    }

    fn simulate(
        &mut self,
        index: u64,
        recorder: &dyn Recorder,
        label: Option<&str>,
    ) -> Result<Option<IntervalSample>, CapError> {
        Ok(cap_ooo::interval::record_interval_observed(
            self.structure.core_mut(),
            self.stream,
            self.interval_len,
            index,
            recorder,
            label,
        )?)
    }
}

/// [`IntervalSim`] over a [`CacheStructure`]: each interval simulates
/// `refs_per_interval` D-cache references and evaluates the §5.1
/// blocking TPI model at the current boundary, quantized into the
/// whole-cycle counters an interval recorder would have seen. Moving the
/// L1/L2 boundary needs no drain (contents are preserved), so a switch
/// costs only the dynamic clock's penalty.
pub struct CacheIntervalSim<'a, S: cap_trace::mem::AddressStream> {
    structure: &'a mut CacheStructure,
    stream: &'a mut S,
    refs_per_interval: u64,
    params: cap_cache::perf::PerfParams,
    insts_per_ref: f64,
}

impl<'a, S: cap_trace::mem::AddressStream> CacheIntervalSim<'a, S> {
    /// Binds the simulation to a structure and reference stream.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::InvalidParameter`] if `refs_per_interval` is
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `insts_per_ref < 1` (a reference is itself an
    /// instruction), like [`cap_cache::perf::PerfParams::isca98`].
    pub fn new(
        structure: &'a mut CacheStructure,
        stream: &'a mut S,
        refs_per_interval: u64,
        insts_per_ref: f64,
    ) -> Result<Self, CapError> {
        if refs_per_interval == 0 {
            return Err(CapError::InvalidParameter { what: "interval length must be positive" });
        }
        let params = cap_cache::perf::PerfParams::isca98(insts_per_ref);
        Ok(CacheIntervalSim { structure, stream, refs_per_interval, params, insts_per_ref })
    }
}

impl<S: cap_trace::mem::AddressStream> IntervalSim for CacheIntervalSim<'_, S> {
    fn structure(&mut self) -> &mut dyn AdaptiveStructure {
        self.structure
    }

    fn simulate(
        &mut self,
        index: u64,
        recorder: &dyn Recorder,
        label: Option<&str>,
    ) -> Result<Option<IntervalSample>, CapError> {
        let config = self.structure.current();
        let boundary = self.structure.boundary_at(config)?;
        let timing = *self.structure.timing();
        let stats = cap_cache::sim::run_observed(
            &mut *self.stream,
            self.refs_per_interval,
            self.structure.cache_mut(),
            recorder,
            label,
            index + 1,
        );
        let tpi = cap_cache::perf::evaluate(&stats, boundary, &timing, self.params)?;
        let (cycles, insts) = tpi.interval_counts(stats.refs, self.insts_per_ref);
        Ok(Some(IntervalSample { index, cycles, insts }))
    }
}

/// The one generic managed-run kernel: drives any [`IntervalSim`] under
/// any [`ConfigPolicy`] for `intervals` intervals, charging
/// reconfigurations with the dynamic clock's switch penalty and the
/// slower period during transition intervals. Fault injection and retry
/// are an optional layer: with `injector` `None` the kernel is the
/// clean-run path, bit for bit.
///
/// The fault layer corrupts the monitoring path only (the physical run
/// is unaffected — only the TPI the manager sees) and fails switch
/// attempts, which are retried per `retry` and reported to the manager.
/// Transition intervals are charged at the slower of the two periods
/// (the new clock cannot start faster before the old domain drains).
///
/// # Errors
///
/// Propagates configuration errors from the structure or clock.
pub fn run_managed(
    sim: &mut dyn IntervalSim,
    policy: &mut dyn ConfigPolicy,
    clock: &mut DynamicClock,
    intervals: u64,
    mut injector: Option<&mut FaultInjector>,
    retry: SwitchRetryPolicy,
) -> Result<FaultedRun, CapError> {
    let mut out = FaultedRun {
        run: ManagedRun { intervals: Vec::with_capacity(intervals as usize), switches: 0, switch_penalty: Ns(0.0) },
        retries: 0,
        retry_penalty: Ns(0.0),
        switch_failures: 0,
    };
    let recorder = policy.recorder();
    let label = policy.label().map(str::to_string);
    let mut transition_period: Option<Ns> = None;
    for index in 0..intervals {
        let config = sim.structure().current();
        let period = transition_period.take().unwrap_or(clock.period());
        let Some(sample) = sim.simulate(index, &*recorder, label.as_deref())? else {
            continue;
        };
        let record = ManagedInterval { config, sample, period };
        let tpi = record.tpi();
        out.run.intervals.push(record);

        let observed = match injector.as_deref_mut() {
            Some(inj) => inj.corrupt_tpi(tpi.value()),
            None => tpi.value(),
        };
        match policy.observe(config, observed) {
            ManagerDecision::Stay => {}
            ManagerDecision::SwitchTo(next) if next == config => {}
            ManagerDecision::SwitchTo(next) => {
                if let Some(p) =
                    execute_switch(sim.structure(), clock, policy, next, &mut injector, retry, &mut out)?
                {
                    transition_period = Some(p);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(n: usize, policy: ConfidencePolicy) -> IntervalManager {
        IntervalManager::new(n, 0, policy).unwrap()
    }

    #[test]
    fn explores_every_configuration_first() {
        let mut m = manager(3, ConfidencePolicy::default_policy());
        assert_eq!(m.observe(0, 1.0), ManagerDecision::SwitchTo(1));
        assert_eq!(m.observe(1, 2.0), ManagerDecision::SwitchTo(2));
        // After the last unseen configuration reports, prediction begins.
        let d = m.observe(2, 3.0);
        // Config 0 is best (1.0 < 3.0 by far) but confidence must build.
        assert_eq!(d, ManagerDecision::Stay);
    }

    #[test]
    fn confidence_gates_switching() {
        let mut m = manager(2, ConfidencePolicy { threshold: 2, hysteresis: 0.03 });
        let _ = m.observe(0, 5.0);
        let _ = m.observe(1, 1.0); // exploration done; now at config 1... pretend we stayed at 0
        // Feed intervals at config 0 that keep losing to config 1.
        assert_eq!(m.observe(0, 5.0), ManagerDecision::Stay, "confidence 2 of 3");
        assert_eq!(m.observe(0, 5.0), ManagerDecision::Stay);
        assert_eq!(m.observe(0, 5.0), ManagerDecision::SwitchTo(1));
    }

    #[test]
    fn no_confidence_switches_immediately() {
        let mut m = manager(2, ConfidencePolicy::none());
        let _ = m.observe(0, 5.0);
        let _ = m.observe(1, 1.0);
        assert_eq!(m.observe(0, 5.0), ManagerDecision::SwitchTo(1));
    }

    #[test]
    fn hysteresis_ignores_marginal_gains() {
        let mut m = manager(2, ConfidencePolicy { threshold: 0, hysteresis: 0.10 });
        let _ = m.observe(0, 1.0);
        let _ = m.observe(1, 0.95); // only 5 % better: below hysteresis
        assert_eq!(m.observe(1, 0.95), ManagerDecision::Stay);
        assert_eq!(m.predicted_best(), None);
    }

    #[test]
    fn estimates_track_with_ewma() {
        let mut m = manager(1, ConfidencePolicy::none());
        let _ = m.observe(0, 1.0);
        let _ = m.observe(0, 3.0);
        let e = m.estimates()[0].unwrap();
        assert!((e - 2.0).abs() < 1e-12, "alpha 0.5: got {e}");
    }

    #[test]
    fn re_exploration_samples_and_returns() {
        let mut m = IntervalManager::new(2, 3, ConfidencePolicy { threshold: 10, hysteresis: 0.0 }).unwrap();
        let _ = m.observe(0, 1.0);
        let _ = m.observe(1, 5.0); // exploration done (at config 1 now)
        // Make config 0 current and clearly best so no switch fires (high
        // threshold); on the 3rd/6th/... interval it samples config 1.
        let mut sampled = false;
        let mut cfg = 0;
        for _ in 0..8 {
            match m.observe(cfg, if cfg == 0 { 1.0 } else { 5.0 }) {
                ManagerDecision::SwitchTo(c) => {
                    if cfg == 0 && c == 1 {
                        sampled = true;
                    }
                    cfg = c;
                }
                ManagerDecision::Stay => {}
            }
        }
        assert!(sampled, "re-exploration should sample the runner-up");
        assert_eq!(cfg, 0, "and return home afterwards");
    }

    #[test]
    fn rejects_invalid_construction() {
        assert!(IntervalManager::new(0, 0, ConfidencePolicy::default_policy()).is_err());
        assert!(IntervalManager::new(2, 0, ConfidencePolicy { threshold: 1, hysteresis: -1.0 }).is_err());
        assert!(IntervalManager::new(2, 0, ConfidencePolicy { threshold: 1, hysteresis: f64::NAN }).is_err());
    }

    #[test]
    fn invalid_samples_are_rejected_not_fatal() {
        let mut m = manager(2, ConfidencePolicy::none());
        // NaN, infinite and non-positive samples never reach the EWMA.
        assert_eq!(m.observe(0, f64::NAN), ManagerDecision::SwitchTo(0));
        assert_eq!(m.observe(0, f64::INFINITY), ManagerDecision::SwitchTo(0));
        assert_eq!(m.observe(0, -3.0), ManagerDecision::SwitchTo(0));
        assert_eq!(m.estimates()[0], None);
        assert_eq!(m.resilience_stats().samples_rejected, 3);
        let _ = m.observe(0, 1.5);
        assert_eq!(m.estimates()[0], Some(1.5));
        // Out-of-range config indices are ignored entirely.
        assert_eq!(m.observe(99, 1.0), ManagerDecision::Stay);
    }

    #[test]
    fn outlier_samples_are_clamped_toward_estimate() {
        let mut m = manager(1, ConfidencePolicy::none())
            .with_resilience(ResiliencePolicy { outlier_factor: 4.0, ..ResiliencePolicy::hardened() })
            .unwrap();
        let _ = m.observe(0, 1.0);
        let _ = m.observe(0, 1000.0); // clamped to 4.0, EWMA -> 2.5
        let e = m.estimates()[0].unwrap();
        assert!((e - 2.5).abs() < 1e-12, "got {e}");
        assert_eq!(m.resilience_stats().samples_clamped, 1);
        let _ = m.observe(0, 1e-9); // clamped to 2.5/4
        assert_eq!(m.resilience_stats().samples_clamped, 2);
    }

    #[test]
    fn repeated_switch_failures_quarantine_and_probation_reprobes() {
        let mut m = IntervalManager::new(2, 0, ConfidencePolicy::none())
            .unwrap()
            .with_resilience(ResiliencePolicy {
                quarantine_threshold: 1,
                probation_period: 10,
                ..ResiliencePolicy::hardened()
            })
            .unwrap();
        assert_eq!(m.observe(0, 5.0), ManagerDecision::SwitchTo(1));
        m.record_switch_outcome(1, SwitchOutcome::TransientFailure);
        assert!(m.is_quarantined(1));
        assert_eq!(m.resilience_stats().quarantines, 1);
        // While quarantined, the unsampled config is never proposed.
        for _ in 0..8 {
            assert_eq!(m.observe(0, 5.0), ManagerDecision::Stay);
        }
        // The 10th interval lifts the quarantine and re-probes it.
        assert_eq!(m.observe(0, 5.0), ManagerDecision::SwitchTo(1));
        assert_eq!(m.resilience_stats().probations, 1);
        assert!(!m.is_quarantined(1));
        m.record_switch_outcome(1, SwitchOutcome::Succeeded);
        let _ = m.observe(1, 1.0);
        // Fully rehabilitated: predictions may target it again.
        assert_eq!(m.observe(0, 5.0), ManagerDecision::SwitchTo(1));
    }

    #[test]
    fn permanent_failures_are_never_reprobed() {
        let mut m = IntervalManager::new(2, 0, ConfidencePolicy::none())
            .unwrap()
            .with_resilience(ResiliencePolicy { probation_period: 2, ..ResiliencePolicy::hardened() })
            .unwrap();
        let _ = m.observe(0, 5.0);
        m.record_switch_outcome(1, SwitchOutcome::PermanentFailure);
        for _ in 0..20 {
            assert_eq!(m.observe(0, 5.0), ManagerDecision::Stay);
        }
        assert_eq!(m.resilience_stats().probations, 0);
        assert!(m.is_quarantined(1));
    }

    #[test]
    fn thrash_watchdog_falls_back_to_safe_config() {
        let mut m = IntervalManager::new(2, 0, ConfidencePolicy::none())
            .unwrap()
            .with_resilience(ResiliencePolicy {
                thrash_window: 20,
                thrash_limit: 3,
                outlier_factor: 0.0,
                ..ResiliencePolicy::hardened()
            })
            .unwrap();
        let _ = m.observe(0, 1.0);
        let _ = m.observe(1, 1.0);
        // Ever-worsening reports at the current configuration make the
        // other one look better every interval: an eager policy thrashes.
        let mut at = 1usize;
        let mut v = 10.0;
        for _ in 0..20 {
            if let ManagerDecision::SwitchTo(c) = m.observe(at, v) {
                at = c;
            }
            v *= 3.0;
            if m.in_safe_mode() {
                break;
            }
        }
        assert!(m.in_safe_mode(), "watchdog must trip");
        assert_eq!(m.resilience_stats().safe_mode_entries, 1);
        assert_eq!(m.safe_config(), 0);
        // Safe mode is terminal and static.
        assert_eq!(m.observe(0, 1.0), ManagerDecision::Stay);
        assert_eq!(m.observe(0, 99.0), ManagerDecision::Stay);
    }

    #[test]
    fn masking_everything_is_an_error() {
        let mut m = manager(3, ConfidencePolicy::default_policy());
        assert!(m.mask_unavailable(&[1]).is_ok());
        assert!(m.is_quarantined(1));
        assert!(matches!(m.mask_unavailable(&[0, 2]), Err(CapError::NoViableConfiguration)));
    }

    #[test]
    fn rejects_invalid_resilience() {
        let m = || manager(2, ConfidencePolicy::default_policy());
        assert!(m().with_resilience(ResiliencePolicy { outlier_factor: f64::NAN, ..ResiliencePolicy::legacy() }).is_err());
        assert!(m().with_resilience(ResiliencePolicy { quarantine_threshold: 0, ..ResiliencePolicy::legacy() }).is_err());
        assert!(m().with_resilience(ResiliencePolicy { safe_config: 2, ..ResiliencePolicy::legacy() }).is_err());
        assert!(m().with_resilience(ResiliencePolicy::hardened()).is_ok());
    }

    #[test]
    fn managed_run_accounting() {
        let run = ManagedRun {
            intervals: vec![
                ManagedInterval {
                    config: 0,
                    sample: IntervalSample { index: 0, cycles: 1000, insts: 2000 },
                    period: Ns(0.5),
                },
                ManagedInterval {
                    config: 1,
                    sample: IntervalSample { index: 1, cycles: 500, insts: 2000 },
                    period: Ns(1.0),
                },
            ],
            switches: 1,
            switch_penalty: Ns(30.0),
        };
        assert_eq!(run.instructions(), 4000);
        assert!((run.total_time().value() - 1030.0).abs() < 1e-9);
        assert!((run.average_tpi().value() - 1030.0 / 4000.0).abs() < 1e-12);
    }

    #[test]
    fn managed_queue_run_end_to_end() {
        use crate::structure::QueueStructure;
        use cap_timing::queue::QueueTimingModel;
        use cap_trace::inst::{IlpParams, SegmentIlp};

        let timing = QueueTimingModel::default();
        let mut structure = QueueStructure::isca98(timing, 0).unwrap();
        let table = structure.period_table().unwrap();
        let mut clock = DynamicClock::new(table, 30).unwrap();
        let mut manager = IntervalManager::new(8, 0, ConfidencePolicy::default_policy()).unwrap();
        let mut stream = SegmentIlp::new(IlpParams::balanced(), 9).unwrap();
        let mut sim = QueueIntervalSim::new(&mut structure, &mut stream, 2000).unwrap();
        let run = run_managed(&mut sim, &mut manager, &mut clock, 40, None, SwitchRetryPolicy::default())
            .unwrap()
            .run;
        assert_eq!(run.intervals.len(), 40);
        // Exploration alone forces several switches.
        assert!(run.switches >= 7, "got {}", run.switches);
        assert!(run.total_time() > Ns(0.0));
        // The balanced stream favours the 64-entry configuration; after
        // exploring, the manager should settle on a mid-to-large window.
        let final_cfg = run.intervals.last().unwrap().config;
        assert!(final_cfg >= 2, "settled on config {final_cfg}");
    }

    #[test]
    fn pattern_mode_preswitches_on_periodic_series() {
        // Two configs whose best alternates every 6 intervals, strictly.
        // The reactive manager needs the EWMA to cross + confidence; the
        // pattern manager, once trained, switches exactly at the flips.
        let tpi = |cfg: usize, t: u64| {
            let phase = (t / 6).is_multiple_of(2);
            match (cfg, phase) {
                (0, true) | (1, false) => 1.0,
                _ => 2.0,
            }
        };
        let run = |mut m: IntervalManager| {
            let mut at = 0usize;
            let mut lost = 0u64;
            for t in 0..240 {
                let v = tpi(at, t);
                if v > 1.5 {
                    lost += 1;
                }
                if let ManagerDecision::SwitchTo(c) = m.observe(at, v) {
                    at = c;
                }
            }
            lost
        };
        // Both re-sample every 4 intervals so the off-configuration's
        // estimate can track the phases at all.
        let reactive = run(IntervalManager::new(2, 4, ConfidencePolicy { threshold: 1, hysteresis: 0.02 }).unwrap());
        let proactive = run(
            IntervalManager::new(2, 4, ConfidencePolicy { threshold: 1, hysteresis: 0.02 })
                .unwrap()
                .with_pattern_detection(64, 0.8),
        );
        assert!(
            proactive < reactive,
            "pattern mode must lose fewer intervals: {proactive} vs {reactive}"
        );
    }

    #[test]
    fn pattern_mode_stays_quiet_on_stationary_series() {
        let mut m = IntervalManager::new(3, 0, ConfidencePolicy::default_policy())
            .unwrap()
            .with_pattern_detection(32, 0.85);
        let mut at = 0usize;
        let mut switches_after_explore = 0;
        for i in 0..80 {
            let v = if at == 0 { 1.0 } else { 3.0 };
            match m.observe(at, v) {
                ManagerDecision::SwitchTo(c) => {
                    if i > 6 && c != at {
                        switches_after_explore += 1;
                    }
                    at = c;
                }
                ManagerDecision::Stay => {}
            }
        }
        // It must settle on config 0 and then hold it.
        assert_eq!(at, 0);
        assert!(switches_after_explore <= 2, "got {switches_after_explore}");
    }

    #[test]
    fn managed_cache_run_follows_memory_phases() {
        use crate::structure::CacheStructure;
        use cap_timing::cacti::CacheTimingModel;
        use cap_timing::Technology;
        use cap_trace::mem::{Region, RegionMix};
        use cap_trace::phase::PhasedMem;

        // Phase A: a 4 KB hot set (small L1 is ideal). Phase B: a 36 KB
        // sweep that thrashes small boundaries (a 48 KB L1 is ideal).
        let small = RegionMix::builder(1)
            .region(Region::sequential_loop(0, 4 * 1024, 32), 1.0)
            .build()
            .unwrap();
        let big = RegionMix::builder(2)
            .region(Region::sequential_loop(1 << 30, 36 * 1024, 32), 1.0)
            .build()
            .unwrap();
        let mut stream = PhasedMem::new(vec![(small, 120_000), (big, 120_000)]).unwrap();

        let timing = CacheTimingModel::isca98(Technology::isca98_evaluation());
        let mut structure = CacheStructure::isca98(timing, 0).unwrap();
        let table = structure.period_table().unwrap();
        let mut clock = DynamicClock::new(table, 30).unwrap();
        let mut manager =
            IntervalManager::new(structure.num_configs(), 25, ConfidencePolicy::default_policy()).unwrap();
        let mut sim = CacheIntervalSim::new(&mut structure, &mut stream, 4_000, 3.0).unwrap();
        let run = run_managed(&mut sim, &mut manager, &mut clock, 120, None, SwitchRetryPolicy::default())
            .unwrap()
            .run;
        assert_eq!(run.intervals.len(), 120);
        assert!(run.switches >= 8, "exploration + phase tracking, got {}", run.switches);
        // During the second phase the manager must spend most intervals at
        // a boundary large enough to hold the 36 KB sweep (>= 40 KB = cfg 4).
        let second_phase = &run.intervals[40..60];
        let large = second_phase.iter().filter(|r| r.config >= 4).count();
        assert!(large >= 12, "only {large}/20 intervals at a large boundary");
        // And during the first phase (after exploration) small boundaries.
        let first_phase = &run.intervals[20..30];
        let small_cfgs = first_phase.iter().filter(|r| r.config <= 2).count();
        assert!(small_cfgs >= 6, "only {small_cfgs}/10 intervals at a small boundary");
    }

    #[test]
    fn managed_cache_rejects_zero_interval() {
        use crate::structure::CacheStructure;
        use cap_timing::cacti::CacheTimingModel;
        use cap_timing::Technology;
        use cap_trace::mem::{Region, RegionMix};

        let timing = CacheTimingModel::isca98(Technology::isca98_evaluation());
        let mut structure = CacheStructure::isca98(timing, 0).unwrap();
        let mut stream = RegionMix::builder(1).region(Region::random(0, 4096), 1.0).build().unwrap();
        assert!(CacheIntervalSim::new(&mut structure, &mut stream, 0, 3.0).is_err());
    }
}
