//! Pluggable configuration-management policies (paper §5 vs §6).
//!
//! The paper evaluates two families of Configuration Managers: the
//! **process-level** scheme of §5 — one configuration per application,
//! chosen after an exploration sweep — and the **interval-based** scheme
//! its Section 6 motivates, with a next-configuration predictor and a
//! confidence counter. Both run the same control loop: read the
//! monitors, update the estimates, decide. This module makes the
//! decision a first-class axis:
//!
//! * [`ConfigPolicy`] — the object-safe trait every manager implements.
//!   The generic managed-run kernel ([`crate::manager::run_managed`])
//!   drives any policy over any [`crate::structure::AdaptiveStructure`].
//! * One core holds everything the policies share: per-configuration
//!   TPI estimates (samples sanitized, outliers optionally clamped, then
//!   an EWMA with weight 0.5), quarantine of configurations whose
//!   switches keep failing, the per-reason decision tally and trace
//!   emission, all under one [`ResiliencePolicy`].
//! * Four decision rules run over that core, one per [`PolicyKind`].
//!   Each first explores every configuration once, in index order, then:
//!   - `process-level` settles on the best estimate and holds it for
//!     good (the §5 methodology, online);
//!   - `interval-greedy` chases the lowest estimate every interval with
//!     no gating (the §6 strawman; thrash-prone on irregular phases, the
//!     paper's Figure 13b caution);
//!   - `confidence` (the **default** everywhere) re-samples the
//!     runner-up every `explore_period` intervals and switches only
//!     after a prediction has won [`ConfidencePolicy::threshold`]
//!     consecutive times by [`ConfidencePolicy::hysteresis`]; it alone
//!     runs the optional pattern predictor and the probation, thrash
//!     watchdog and safe-mode halves of its [`ResiliencePolicy`];
//!   - `hysteresis` switches only on a *sustained* predicted gain, with
//!     a post-switch dwell.
//!
//! [`PolicyConfig::build`] is the only constructor. The simple rules
//! have fixed constants and run under [`ResiliencePolicy::legacy`], so
//! their names fully identify their behaviour.
//!
//! # Determinism rules
//!
//! A policy's decision sequence must be a pure function of the observed
//! `(config, tpi)` sequence: no wall-clock time, no ambient randomness,
//! no dependence on tracing (recorders only observe). This is what lets
//! result caches key on the policy *name* and lets CI assert that the
//! default policy reproduces every golden byte-for-byte.

use crate::error::CapError;
use crate::manager::{ConfidencePolicy, ManagerDecision, ResiliencePolicy, ResilienceStats, SwitchOutcome};
use crate::pattern::PatternPredictor;
use cap_obs::{
    DecisionCounts, DecisionEvent, Event, PatternEvent, ProbationEvent, QuarantineEvent, Recorder,
    SafeModeEvent, SwitchResultEvent,
};
use std::sync::Arc;

/// An interval-granular Configuration Manager.
///
/// The managed-run kernel feeds one finished interval at a time via
/// [`ConfigPolicy::observe`] and obeys the returned decision; switch
/// outcomes flow back via [`ConfigPolicy::record_switch_outcome`]. All
/// remaining methods are introspection used by reports and fault
/// campaigns.
pub trait ConfigPolicy {
    /// Stable lowercase policy name (`"confidence"`, `"hysteresis"`, …)
    /// used in trace events, result-cache keys and report tables.
    fn name(&self) -> &'static str;

    /// Number of configurations under management.
    fn num_configs(&self) -> usize;

    /// Intervals observed so far.
    fn intervals_seen(&self) -> u64;

    /// Feeds the interval just finished (which ran at `config` with the
    /// given TPI) and returns the decision for the next interval. Must
    /// never panic: invalid samples are rejected internally and
    /// out-of-range `config` indices are ignored.
    fn observe(&mut self, config: usize, tpi_ns: f64) -> ManagerDecision;

    /// Reports how a switch this policy requested actually ended.
    fn record_switch_outcome(&mut self, target: usize, outcome: SwitchOutcome);

    /// Permanently masks configurations the hardware can no longer
    /// provide.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::NoViableConfiguration`] if this would leave no
    /// configuration available.
    fn mask_unavailable(&mut self, configs: &[usize]) -> Result<(), CapError>;

    /// The per-reason decision tally accumulated so far.
    fn decision_counts(&self) -> DecisionCounts;

    /// Degradation-handling counters accumulated so far.
    fn resilience_stats(&self) -> ResilienceStats;

    /// Number of currently quarantined configurations.
    fn quarantined_count(&self) -> usize;

    /// Whether a configuration is currently quarantined (out-of-range
    /// indices report `true`).
    fn is_quarantined(&self, config: usize) -> bool;

    /// Whether the policy has fallen back to a safe static configuration
    /// (always `false` for policies without a watchdog).
    fn in_safe_mode(&self) -> bool;

    /// The trace sink decisions are emitted to (the no-op recorder by
    /// default).
    fn recorder(&self) -> Arc<dyn Recorder>;

    /// The run label attached to emitted events (usually the app name).
    fn label(&self) -> Option<&str>;

    /// Snapshot of the per-configuration TPI estimates, in configuration
    /// order (`None` where never sampled). Exists for the `cap-verify`
    /// differential oracle, which compares estimate state bit-for-bit
    /// against a reference model after every observed interval; not part
    /// of the stable policy contract.
    #[doc(hidden)]
    fn estimates_snapshot(&self) -> Vec<Option<f64>> {
        Vec::new()
    }
}

/// EWMA weight every estimate is updated with.
const ALPHA: f64 = 0.5;

/// The one policy core: sanitized EWMA estimates, failure-driven
/// quarantine, decision tallies and trace emission, under one
/// [`ResiliencePolicy`]. Every [`Rule`] decides over this state; none
/// keeps a copy of it.
#[derive(Debug, Clone)]
struct PolicyBase {
    estimates: Vec<Option<f64>>,
    intervals_seen: u64,
    /// Configurations masked out of exploration and prediction.
    quarantined: Vec<bool>,
    /// Quarantined configurations that must never return.
    dead: Vec<bool>,
    /// Consecutive failed switches toward each configuration.
    fail_counts: Vec<u32>,
    /// Per-reason decision tally, maintained even with tracing off.
    counts: DecisionCounts,
    stats: ResilienceStats,
    resilience: ResiliencePolicy,
    /// Trace sink; the no-op recorder costs one virtual call per event.
    recorder: Arc<dyn Recorder>,
    /// Run label attached to every emitted event (usually the app name).
    label: Option<String>,
}

impl PolicyBase {
    /// Rejects invalid samples, clamps outliers toward the
    /// configuration's current estimate (when the resilience policy has
    /// an outlier factor above 1), and folds the survivor into the EWMA.
    /// Returns the sample the EWMA saw, `None` when it was rejected.
    fn sanitize_update(&mut self, config: usize, tpi_ns: f64) -> Option<f64> {
        if !tpi_ns.is_finite() || tpi_ns <= 0.0 {
            self.stats.samples_rejected += 1;
            return None;
        }
        let mut v = tpi_ns;
        let f = self.resilience.outlier_factor;
        if f > 1.0 {
            if let Some(est) = self.estimates[config] {
                if v > est * f {
                    self.stats.samples_clamped += 1;
                    v = est * f;
                } else if v < est / f {
                    self.stats.samples_clamped += 1;
                    v = est / f;
                }
            }
        }
        self.estimates[config] = Some(match self.estimates[config] {
            Some(prev) => prev + ALPHA * (v - prev),
            None => v,
        });
        Some(v)
    }

    /// The first never-sampled, unquarantined configuration, in index
    /// order.
    fn first_unseen(&self) -> Option<usize> {
        (0..self.estimates.len()).find(|&i| self.estimates[i].is_none() && !self.quarantined[i])
    }

    /// The unquarantined configuration other than `except` with the
    /// lowest estimate (the first index wins ties), with that estimate.
    fn best(&self, except: Option<usize>) -> Option<(usize, f64)> {
        self.estimates
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.quarantined[i] && Some(i) != except)
            .filter_map(|(i, e)| e.map(|v| (i, v)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// The resilience policy's safe configuration, redirected past
    /// permanent failures.
    fn effective_safe(&self) -> usize {
        let safe = self.resilience.safe_config;
        if !self.dead[safe] {
            return safe;
        }
        (0..self.dead.len()).find(|&i| !self.dead[i]).unwrap_or(safe)
    }

    /// Holds (or heads for) the safe configuration.
    fn safe_decision(&self, config: usize) -> ManagerDecision {
        let safe = self.effective_safe();
        if safe == config || self.dead[safe] {
            ManagerDecision::Stay
        } else {
            ManagerDecision::SwitchTo(safe)
        }
    }

    /// Records the event `event(label, interval)` builds, building it
    /// only when the recorder is enabled.
    fn emit(&self, event: impl FnOnce(Option<String>, u64) -> Event) {
        if self.recorder.enabled() {
            self.recorder.record(&event(self.label.clone(), self.intervals_seen));
        }
    }

    fn quarantine(&mut self, config: usize, permanent: bool) {
        self.quarantined[config] = true;
        self.stats.quarantines += 1;
        self.emit(|app, interval| Event::Quarantine(QuarantineEvent { app, interval, config, permanent }));
    }

    /// Counts a switch outcome toward quarantine: `quarantine_threshold`
    /// consecutive transient failures or one permanent failure.
    fn note_outcome(&mut self, target: usize, outcome: SwitchOutcome) {
        let tag = match outcome {
            SwitchOutcome::Succeeded => "succeeded",
            SwitchOutcome::TransientFailure => "transient-failure",
            SwitchOutcome::PermanentFailure => "permanent-failure",
        };
        self.emit(|app, interval| {
            Event::SwitchResult(SwitchResultEvent { app, interval, target, outcome: tag })
        });
        match outcome {
            SwitchOutcome::Succeeded => self.fail_counts[target] = 0,
            SwitchOutcome::TransientFailure => {
                self.fail_counts[target] = self.fail_counts[target].saturating_add(1);
                let threshold = self.resilience.quarantine_threshold;
                if self.fail_counts[target] >= threshold && !self.quarantined[target] {
                    self.quarantine(target, false);
                }
            }
            SwitchOutcome::PermanentFailure => {
                if !self.quarantined[target] {
                    self.quarantine(target, true);
                }
                self.dead[target] = true;
            }
        }
    }
}

/// What differs between the catalog's policies: the decision taken once
/// every configuration has been explored, plus the state it keeps.
#[derive(Debug, Clone)]
enum Rule {
    /// The paper's §5 methodology, run online: settle on the best
    /// explored configuration and hold it for the rest of the process
    /// (re-settling only if the choice is later quarantined).
    ProcessLevel { settled: Option<usize> },
    /// No gating: every interval, switch straight to the lowest
    /// estimate. The §6 strawman the confidence mechanism exists to fix.
    IntervalGreedy { chasing: Option<usize> },
    /// Switch only when a candidate beats the current estimate by
    /// [`HYSTERESIS_MIN_GAIN`] for [`HYSTERESIS_SUSTAIN`] consecutive
    /// intervals; every switch starts a [`HYSTERESIS_DWELL`] refractory.
    Hysteresis { candidate: Option<usize>, streak: u32, cooldown: u64 },
    /// The §6 confidence manager (the default).
    Confidence(Confidence),
}

/// The §6 confidence manager's state: periodic re-sampling of the
/// runner-up, confidence-gated prediction, optional proactive pattern
/// prediction, and the probation, watchdog and safe-mode halves of the
/// [`ResiliencePolicy`].
#[derive(Debug, Clone)]
struct Confidence {
    gating: ConfidencePolicy,
    /// Intervals between re-samples of the best non-current
    /// configuration (0: never).
    explore_period: u64,
    predicted: Option<usize>,
    confidence: u32,
    /// While re-sampling, the configuration to return to.
    sampling_home: Option<usize>,
    /// Phase predictor over per-interval winners and the confidence a
    /// prediction needs before pre-switching.
    pattern: Option<(PatternPredictor, f64)>,
    /// Round-robin cursor for probation re-probes.
    probe_cursor: usize,
    /// Interval stamps of recent predictor-driven switches (watchdog).
    switch_times: Vec<u64>,
    /// Once set, the manager holds the safe static configuration.
    safe_mode: bool,
}

impl Rule {
    fn name(&self) -> &'static str {
        match self {
            Rule::ProcessLevel { .. } => PolicyKind::ProcessLevel.name(),
            Rule::IntervalGreedy { .. } => PolicyKind::IntervalGreedy.name(),
            Rule::Hysteresis { .. } => PolicyKind::Hysteresis.name(),
            Rule::Confidence(_) => PolicyKind::Confidence.name(),
        }
    }

    /// The decision for the next interval and its stable reason tag.
    /// Every rule first explores each unquarantined configuration once,
    /// in index order.
    fn decide(&mut self, base: &mut PolicyBase, config: usize) -> (ManagerDecision, &'static str) {
        if let Rule::Confidence(c) = self {
            if c.safe_mode {
                return (base.safe_decision(config), "safe-mode-hold");
            }
            c.maybe_probation(base);
        }
        if let Some(unseen) = base.first_unseen() {
            return (ManagerDecision::SwitchTo(unseen), "explore");
        }
        match self {
            Rule::ProcessLevel { settled } => {
                if settled.is_none_or(|s| base.quarantined[s]) {
                    *settled = base.best(None).map(|(b, _)| b);
                }
                match *settled {
                    Some(s) if s != config => (ManagerDecision::SwitchTo(s), "predicted"),
                    _ => (ManagerDecision::Stay, "hold"),
                }
            }
            Rule::IntervalGreedy { chasing } => {
                *chasing = base.best(None).map(|(b, _)| b);
                match *chasing {
                    Some(b) if b != config => (ManagerDecision::SwitchTo(b), "predicted"),
                    _ => (ManagerDecision::Stay, "hold"),
                }
            }
            Rule::Hysteresis { candidate, streak, cooldown } => {
                if *cooldown > 0 {
                    *cooldown -= 1;
                    *candidate = None;
                    *streak = 0;
                    return (ManagerDecision::Stay, "hold");
                }
                let cur_est = base.estimates[config].unwrap_or(f64::INFINITY);
                let best = base.best(None);
                let wins =
                    best.is_some_and(|(b, e)| b != config && e < cur_est * (1.0 - HYSTERESIS_MIN_GAIN));
                if !wins {
                    *candidate = None;
                    *streak = 0;
                    return (ManagerDecision::Stay, "hold");
                }
                let best = best.map(|(b, _)| b);
                if *candidate == best {
                    *streak = streak.saturating_add(1);
                } else {
                    *candidate = best;
                    *streak = 1;
                }
                match *candidate {
                    Some(b) if *streak >= HYSTERESIS_SUSTAIN => {
                        *candidate = None;
                        *streak = 0;
                        *cooldown = HYSTERESIS_DWELL;
                        (ManagerDecision::SwitchTo(b), "predicted")
                    }
                    _ => (ManagerDecision::Stay, "hold"),
                }
            }
            Rule::Confidence(c) => c.exploit(base, config),
        }
    }

    /// The `predicted` and `confidence` fields of the decision event.
    fn trace_fields(&self) -> (Option<usize>, u32) {
        match self {
            Rule::ProcessLevel { settled } => (*settled, 0),
            Rule::IntervalGreedy { chasing } => (*chasing, 0),
            Rule::Hysteresis { candidate, streak, .. } => (*candidate, *streak),
            Rule::Confidence(c) => (c.predicted, c.confidence),
        }
    }
}

impl Confidence {
    /// Periodically lifts one transient quarantine (round-robin) and
    /// clears its estimate so exploration re-probes it; one more failure
    /// re-quarantines it immediately.
    fn maybe_probation(&mut self, base: &mut PolicyBase) {
        let period = base.resilience.probation_period;
        if period == 0 || !base.intervals_seen.is_multiple_of(period) {
            return;
        }
        let n = base.estimates.len();
        let Some(i) =
            (0..n).map(|off| (self.probe_cursor + off) % n).find(|&i| base.quarantined[i] && !base.dead[i])
        else {
            return;
        };
        base.quarantined[i] = false;
        base.fail_counts[i] = base.resilience.quarantine_threshold - 1;
        base.estimates[i] = None;
        base.stats.probations += 1;
        self.probe_cursor = (i + 1) % n;
        base.emit(|app, interval| Event::Probation(ProbationEvent { app, interval, config: i }));
    }

    /// The decision once every configuration has an estimate: pattern
    /// pre-switch, periodic re-sample, or confidence-gated prediction.
    fn exploit(&mut self, base: &mut PolicyBase, config: usize) -> (ManagerDecision, &'static str) {
        // Returning from a one-interval re-sample: go home (unless the
        // sample itself now looks best; the predictor below handles it).
        let home = self.sampling_home.take();
        let Some((best, best_est)) = base.best(None) else {
            // Every candidate is quarantined: fall back to the safe
            // static configuration rather than oscillating or panicking.
            return (self.enter_safe_mode(base, config), "all-quarantined");
        };
        let anchor = home.unwrap_or(config);

        // Proactive phase prediction: feed the estimated winner of the
        // finished interval, and pre-switch when a confident periodic
        // pattern names a different configuration for the next one.
        if let Some((p, min_confidence)) = self.pattern.as_mut() {
            p.record(best);
            if let Some(pred) = p.predict() {
                if pred.confidence >= *min_confidence
                    && pred.config != anchor
                    && home.is_none()
                    && !base.quarantined.get(pred.config).copied().unwrap_or(true)
                {
                    base.emit(|app, interval| {
                        Event::Pattern(PatternEvent {
                            app,
                            interval,
                            config: pred.config,
                            confidence: pred.confidence,
                            period: pred.period,
                        })
                    });
                    self.confidence = 0;
                    self.predicted = None;
                    return self.issue_switch(base, config, pred.config, "pattern");
                }
            }
        }

        // Periodic re-exploration of the best non-current estimate, so it
        // can't go stale.
        if self.explore_period > 0
            && base.intervals_seen.is_multiple_of(self.explore_period)
            && home.is_none()
        {
            if let Some((r, _)) = base.best(Some(config)) {
                self.sampling_home = Some(config);
                return (ManagerDecision::SwitchTo(r), "resample");
            }
        }

        // Prediction with confidence.
        let cur_est = base.estimates[anchor].unwrap_or(f64::INFINITY);
        let wins = best != anchor && best_est < cur_est * (1.0 - self.gating.hysteresis);
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

        if wins && self.confidence > self.gating.threshold {
            self.confidence = 0;
            self.predicted = None;
            self.issue_switch(base, config, best, "predicted")
        } else if let Some(h) = home {
            (if h == config { ManagerDecision::Stay } else { ManagerDecision::SwitchTo(h) }, "return-home")
        } else {
            (ManagerDecision::Stay, "hold")
        }
    }

    /// Stamps a predictor-driven switch for the thrash watchdog; trips to
    /// safe mode when the window overflows.
    fn issue_switch(
        &mut self,
        base: &mut PolicyBase,
        config: usize,
        to: usize,
        reason: &'static str,
    ) -> (ManagerDecision, &'static str) {
        let ResiliencePolicy { thrash_window: window, thrash_limit: limit, .. } = base.resilience;
        if limit > 0 && window > 0 {
            let cutoff = base.intervals_seen.saturating_sub(window);
            self.switch_times.retain(|&t| t > cutoff);
            self.switch_times.push(base.intervals_seen);
            if self.switch_times.len() as u32 > limit {
                return (self.enter_safe_mode(base, config), "watchdog");
            }
        }
        (ManagerDecision::SwitchTo(to), reason)
    }

    /// Locks the manager onto the safe static configuration.
    fn enter_safe_mode(&mut self, base: &mut PolicyBase, config: usize) -> ManagerDecision {
        self.safe_mode = true;
        base.stats.safe_mode_entries += 1;
        self.predicted = None;
        self.confidence = 0;
        self.sampling_home = None;
        let safe_config = base.effective_safe();
        base.emit(|app, interval| Event::SafeMode(SafeModeEvent { app, interval, safe_config }));
        base.safe_decision(config)
    }

    /// Drops predictor state that points at a configuration whose switch
    /// just failed.
    fn switch_failed(&mut self, target: usize) {
        if self.predicted == Some(target) {
            self.predicted = None;
            self.confidence = 0;
        }
        if self.sampling_home == Some(target) {
            self.sampling_home = None;
        }
    }
}

/// A configuration manager: the shared core plus one decision rule.
/// [`PolicyConfig::build`] is its only constructor.
#[derive(Debug, Clone)]
struct Policy {
    base: PolicyBase,
    rule: Rule,
}

impl ConfigPolicy for Policy {
    fn name(&self) -> &'static str {
        self.rule.name()
    }

    fn num_configs(&self) -> usize {
        self.base.estimates.len()
    }

    fn intervals_seen(&self) -> u64 {
        self.base.intervals_seen
    }

    fn observe(&mut self, config: usize, tpi_ns: f64) -> ManagerDecision {
        let base = &mut self.base;
        if config >= base.estimates.len() {
            return ManagerDecision::Stay;
        }
        base.intervals_seen += 1;
        let sanitized = base.sanitize_update(config, tpi_ns);
        let (decision, reason) = self.rule.decide(base, config);

        let counts = &mut base.counts;
        counts.intervals += 1;
        match reason {
            "hold" => counts.stays += 1,
            "explore" => counts.explore_switches += 1,
            "resample" => counts.resample_switches += 1,
            "predicted" => counts.predicted_switches += 1,
            "pattern" => counts.pattern_switches += 1,
            "return-home" => counts.home_returns += 1,
            // "safe-mode-hold", "all-quarantined", "watchdog": every
            // interval spent parked in (or falling into) safe mode.
            _ => counts.safe_mode_holds += 1,
        }
        let rule = &self.rule;
        base.emit(|app, interval| {
            let (predicted, confidence) = rule.trace_fields();
            Event::Decision(DecisionEvent {
                app,
                interval,
                config,
                raw_tpi_ns: tpi_ns,
                sanitized_tpi_ns: sanitized,
                estimate_ns: base.estimates[config],
                predicted,
                confidence,
                reason,
                policy: rule.name(),
                target: match decision {
                    ManagerDecision::SwitchTo(t) => Some(t),
                    ManagerDecision::Stay => None,
                },
            })
        });
        decision
    }

    fn record_switch_outcome(&mut self, target: usize, outcome: SwitchOutcome) {
        if target >= self.base.estimates.len() {
            return;
        }
        self.base.note_outcome(target, outcome);
        if outcome != SwitchOutcome::Succeeded {
            if let Rule::Confidence(c) = &mut self.rule {
                c.switch_failed(target);
            }
        }
    }

    fn mask_unavailable(&mut self, configs: &[usize]) -> Result<(), CapError> {
        for &i in configs {
            if let Some(q) = self.base.quarantined.get_mut(i) {
                *q = true;
                self.base.dead[i] = true;
            }
        }
        if self.base.dead.iter().all(|&d| d) {
            return Err(CapError::NoViableConfiguration);
        }
        Ok(())
    }

    fn decision_counts(&self) -> DecisionCounts {
        self.base.counts
    }

    fn resilience_stats(&self) -> ResilienceStats {
        self.base.stats
    }

    fn quarantined_count(&self) -> usize {
        self.base.quarantined.iter().filter(|&&q| q).count()
    }

    fn is_quarantined(&self, config: usize) -> bool {
        self.base.quarantined.get(config).copied().unwrap_or(true)
    }

    fn in_safe_mode(&self) -> bool {
        matches!(&self.rule, Rule::Confidence(c) if c.safe_mode)
    }

    fn recorder(&self) -> Arc<dyn Recorder> {
        self.base.recorder.clone()
    }

    fn label(&self) -> Option<&str> {
        self.base.label.as_deref()
    }

    fn estimates_snapshot(&self) -> Vec<Option<f64>> {
        self.base.estimates.clone()
    }
}

/// The policy catalog: one variant per decision rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Explore once, settle forever (paper §5).
    ProcessLevel,
    /// Explore once, then chase the lowest estimate, no gating.
    IntervalGreedy,
    /// Confidence-gated prediction with resampling (paper §6; the
    /// default).
    Confidence,
    /// Sustained-gain gating with a post-switch dwell.
    Hysteresis,
}

impl PolicyKind {
    /// Every policy, in the canonical comparison-table order.
    pub const ALL: [PolicyKind; 4] =
        [PolicyKind::ProcessLevel, PolicyKind::IntervalGreedy, PolicyKind::Confidence, PolicyKind::Hysteresis];

    /// The stable lowercase name used on the CLI, in trace events and in
    /// result-cache keys.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::ProcessLevel => "process-level",
            PolicyKind::IntervalGreedy => "interval-greedy",
            PolicyKind::Confidence => "confidence",
            PolicyKind::Hysteresis => "hysteresis",
        }
    }

    /// Parses a CLI policy name.
    pub fn parse(name: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A buildable policy selection: the kind plus the tuning knobs the
/// experiment layer threads through.
///
/// `explore_period`, `confidence`, `resilience` and `pattern` only
/// affect the [`PolicyKind::Confidence`] kind; the simple policies have
/// fixed constants and legacy resilience, so their names fully identify
/// their behaviour.
#[derive(Debug, Clone)]
pub struct PolicyConfig {
    kind: PolicyKind,
    explore_period: u64,
    confidence: ConfidencePolicy,
    resilience: Option<ResiliencePolicy>,
    pattern: Option<(usize, f64)>,
}

/// `hysteresis` policy: candidates must promise a 5 % gain.
pub const HYSTERESIS_MIN_GAIN: f64 = 0.05;
/// `hysteresis` policy: three consecutive winning intervals.
pub const HYSTERESIS_SUSTAIN: u32 = 3;
/// `hysteresis` policy: ten-interval post-switch dwell.
pub const HYSTERESIS_DWELL: u64 = 10;

impl PolicyConfig {
    /// A policy selection with the default knobs (explore period 40,
    /// [`ConfidencePolicy::default_policy`], no resilience override, no
    /// pattern detection).
    pub fn new(kind: PolicyKind) -> Self {
        PolicyConfig {
            kind,
            explore_period: 40,
            confidence: ConfidencePolicy::default_policy(),
            resilience: None,
            pattern: None,
        }
    }

    /// The selected kind.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Overrides the confidence manager's re-exploration period (0
    /// disables re-sampling).
    #[must_use]
    pub fn with_explore_period(mut self, period: u64) -> Self {
        self.explore_period = period;
        self
    }

    /// Overrides the confidence gating.
    #[must_use]
    pub fn with_confidence(mut self, confidence: ConfidencePolicy) -> Self {
        self.confidence = confidence;
        self
    }

    /// Arms the confidence manager's degradation handling.
    #[must_use]
    pub fn with_resilience(mut self, resilience: ResiliencePolicy) -> Self {
        self.resilience = Some(resilience);
        self
    }

    /// Enables the confidence manager's proactive phase prediction
    /// (paper §6: "regular patterns can potentially be detected and
    /// exploited by a dynamic hardware predictor"). Each interval's
    /// estimated-best configuration feeds a [`PatternPredictor`]
    /// remembering `history` intervals; when it detects a periodic
    /// pattern with at least `min_confidence` (clamped to `0..=1`), the
    /// manager switches to the predicted next winner *before* the
    /// reactive path would.
    #[must_use]
    pub fn with_pattern(mut self, history: usize, min_confidence: f64) -> Self {
        self.pattern = Some((history, min_confidence));
        self
    }

    /// Builds the policy over `num_configs` configurations, attaching the
    /// trace recorder and run label.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::InvalidParameter`] if `num_configs` is zero or
    /// a knob is invalid for the selected kind: for
    /// [`PolicyKind::Confidence`], a negative or non-finite hysteresis, a
    /// negative or non-finite outlier factor, a zero quarantine
    /// threshold, an out-of-range safe configuration, a pattern history
    /// under 8 intervals or a non-finite pattern confidence.
    pub fn build(
        &self,
        num_configs: usize,
        recorder: Arc<dyn Recorder>,
        label: Option<String>,
    ) -> Result<Box<dyn ConfigPolicy>, CapError> {
        if num_configs == 0 {
            return Err(CapError::InvalidParameter { what: "manager needs at least one configuration" });
        }
        let (rule, resilience) = match self.kind {
            PolicyKind::ProcessLevel => (Rule::ProcessLevel { settled: None }, ResiliencePolicy::legacy()),
            PolicyKind::IntervalGreedy => {
                (Rule::IntervalGreedy { chasing: None }, ResiliencePolicy::legacy())
            }
            PolicyKind::Hysteresis => {
                (Rule::Hysteresis { candidate: None, streak: 0, cooldown: 0 }, ResiliencePolicy::legacy())
            }
            PolicyKind::Confidence => {
                (Rule::Confidence(self.confidence_rule()?), self.checked_resilience(num_configs)?)
            }
        };
        let base = PolicyBase {
            estimates: vec![None; num_configs],
            intervals_seen: 0,
            quarantined: vec![false; num_configs],
            dead: vec![false; num_configs],
            fail_counts: vec![0; num_configs],
            counts: DecisionCounts::default(),
            stats: ResilienceStats::default(),
            resilience,
            recorder,
            label,
        };
        Ok(Box::new(Policy { base, rule }))
    }

    /// The confidence rule's initial state, with its knobs checked.
    fn confidence_rule(&self) -> Result<Confidence, CapError> {
        let gating = self.confidence;
        if !gating.hysteresis.is_finite() || gating.hysteresis < 0.0 {
            return Err(CapError::InvalidParameter { what: "hysteresis must be non-negative and finite" });
        }
        let pattern = match self.pattern {
            None => None,
            Some((history, _)) if history < 8 => {
                return Err(CapError::InvalidParameter {
                    what: "pattern history must hold at least 8 intervals",
                })
            }
            Some((_, min_confidence)) if !min_confidence.is_finite() => {
                return Err(CapError::InvalidParameter { what: "pattern confidence must be finite" })
            }
            Some((history, min_confidence)) => {
                Some((PatternPredictor::new(history), min_confidence.clamp(0.0, 1.0)))
            }
        };
        Ok(Confidence {
            gating,
            explore_period: self.explore_period,
            predicted: None,
            confidence: 0,
            sampling_home: None,
            pattern,
            probe_cursor: 0,
            switch_times: Vec::new(),
            safe_mode: false,
        })
    }

    /// The confidence manager's resilience (legacy unless overridden),
    /// checked against `num_configs`.
    fn checked_resilience(&self, num_configs: usize) -> Result<ResiliencePolicy, CapError> {
        let r = self.resilience.unwrap_or_default();
        if !r.outlier_factor.is_finite() || r.outlier_factor < 0.0 {
            return Err(CapError::InvalidParameter {
                what: "outlier factor must be non-negative and finite",
            });
        }
        if r.quarantine_threshold == 0 {
            return Err(CapError::InvalidParameter { what: "quarantine threshold must be at least 1" });
        }
        if r.safe_config >= num_configs {
            return Err(CapError::InvalidParameter { what: "safe configuration is out of range" });
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_obs::RingRecorder;

    fn build(kind: PolicyKind, n: usize) -> Box<dyn ConfigPolicy> {
        PolicyConfig::new(kind).build(n, cap_obs::noop(), None).unwrap()
    }

    /// The confidence manager with re-sampling every `explore` intervals.
    fn confidence(explore: u64, gating: ConfidencePolicy) -> PolicyConfig {
        PolicyConfig::new(PolicyKind::Confidence).with_explore_period(explore).with_confidence(gating)
    }

    fn manager(n: usize, gating: ConfidencePolicy) -> Box<dyn ConfigPolicy> {
        confidence(0, gating).build(n, cap_obs::noop(), None).unwrap()
    }

    fn hardened(n: usize, resilience: ResiliencePolicy) -> Box<dyn ConfigPolicy> {
        confidence(0, ConfidencePolicy::none())
            .with_resilience(resilience)
            .build(n, cap_obs::noop(), None)
            .unwrap()
    }

    fn feed(p: &mut dyn ConfigPolicy, series: &[(usize, f64)]) -> Vec<ManagerDecision> {
        series.iter().map(|&(c, v)| p.observe(c, v)).collect()
    }

    /// Drives the policy like a runner would: honours every decision,
    /// reports each switch as succeeded, and returns the visit sequence.
    fn drive(p: &mut dyn ConfigPolicy, tpi: impl Fn(usize, u64) -> f64, steps: u64) -> Vec<usize> {
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
    fn process_level_explores_then_settles_forever() {
        let mut p = build(PolicyKind::ProcessLevel, 3);
        let visits = drive(&mut *p, |c, _| [3.0, 1.0, 2.0][c], 30);
        assert_eq!(&visits[..4], &[0, 1, 2, 1], "index-order exploration, then the best");
        assert!(visits[4..].iter().all(|&c| c == 1), "settled forever: {visits:?}");
        let counts = p.decision_counts();
        assert_eq!(counts.intervals, 30);
        assert_eq!(counts.explore_switches, 2);
        assert_eq!(counts.predicted_switches, 1);
        assert_eq!(counts.stays, 27);
    }

    #[test]
    fn process_level_ignores_later_phase_changes() {
        // After settling, even a dramatic inversion must not move it —
        // that is the defining difference from the interval policies.
        let mut p = build(PolicyKind::ProcessLevel, 2);
        let tpi = |c: usize, t: u64| {
            if t < 10 {
                [1.0, 5.0][c]
            } else {
                [5.0, 1.0][c]
            }
        };
        let visits = drive(&mut *p, tpi, 40);
        assert!(visits[10..].iter().all(|&c| c == 0), "{visits:?}");
    }

    #[test]
    fn greedy_chases_the_best_estimate_every_interval() {
        let mut p = build(PolicyKind::IntervalGreedy, 2);
        let _ = feed(&mut *p, &[(0, 5.0), (1, 1.0)]);
        // 1 % better is enough: no hysteresis, no confidence.
        assert_eq!(p.observe(0, 5.0), ManagerDecision::SwitchTo(1));
        p.record_switch_outcome(1, SwitchOutcome::Succeeded);
        assert_eq!(p.observe(1, 1.0), ManagerDecision::Stay);
    }

    #[test]
    fn hysteresis_needs_sustained_wins_and_dwells_after_switching() {
        let mut p = build(PolicyKind::Hysteresis, 2);
        let _ = feed(&mut *p, &[(0, 5.0), (1, 1.0)]);
        // Back at 0: three consecutive winning intervals required.
        assert_eq!(p.observe(0, 5.0), ManagerDecision::Stay, "streak 1");
        assert_eq!(p.observe(0, 5.0), ManagerDecision::Stay, "streak 2");
        assert_eq!(p.observe(0, 5.0), ManagerDecision::SwitchTo(1), "streak 3");
        p.record_switch_outcome(1, SwitchOutcome::Succeeded);
        // Dwell: even if 0 suddenly looks better, hold for ten intervals.
        for i in 0..HYSTERESIS_DWELL {
            assert_eq!(p.observe(1, 9.0), ManagerDecision::Stay, "dwell interval {i}");
        }
        // Out of dwell, the streak must rebuild from scratch.
        assert_eq!(p.observe(1, 9.0), ManagerDecision::Stay, "streak 1 again");
    }

    #[test]
    fn hysteresis_ignores_marginal_gains() {
        let mut p = build(PolicyKind::Hysteresis, 2);
        let _ = feed(&mut *p, &[(0, 1.0), (1, 0.96)]);
        // 4 % is below the 5 % bar, forever.
        for _ in 0..10 {
            assert_eq!(p.observe(0, 1.0), ManagerDecision::Stay);
        }
    }

    #[test]
    fn invalid_samples_never_reach_estimates() {
        for kind in PolicyKind::ALL {
            let mut p = build(kind, 2);
            let _ = p.observe(0, f64::NAN);
            let _ = p.observe(0, f64::NEG_INFINITY);
            let _ = p.observe(0, 0.0);
            assert_eq!(p.resilience_stats().samples_rejected, 3, "{kind}");
            assert_eq!(p.estimates_snapshot()[0], None, "{kind}");
            let _ = p.observe(0, 1.5);
            assert_eq!(p.estimates_snapshot()[0], Some(1.5), "{kind}");
            // Out-of-range configs are ignored without panicking.
            assert_eq!(p.observe(99, 1.0), ManagerDecision::Stay, "{kind}");
            assert_eq!(p.intervals_seen(), 4, "{kind}");
        }
    }

    #[test]
    fn repeated_transient_failures_mask_the_target() {
        let mut p = build(PolicyKind::IntervalGreedy, 2);
        let _ = feed(&mut *p, &[(0, 5.0), (1, 1.0)]);
        for _ in 0..ResiliencePolicy::legacy().quarantine_threshold {
            assert_eq!(p.observe(0, 5.0), ManagerDecision::SwitchTo(1));
            p.record_switch_outcome(1, SwitchOutcome::TransientFailure);
        }
        assert!(p.is_quarantined(1));
        assert_eq!(p.resilience_stats().quarantines, 1);
        assert_eq!(p.observe(0, 5.0), ManagerDecision::Stay, "masked targets are never proposed");
    }

    #[test]
    fn permanent_failure_unsettles_process_level() {
        let mut p = build(PolicyKind::ProcessLevel, 3);
        let visits = drive(&mut *p, |c, _| [3.0, 1.0, 2.0][c], 5);
        assert_eq!(*visits.last().unwrap(), 1);
        p.record_switch_outcome(1, SwitchOutcome::PermanentFailure);
        // The settled choice died: re-settle on the next-best survivor.
        assert_eq!(p.observe(0, 3.0), ManagerDecision::SwitchTo(2));
    }

    #[test]
    fn masking_everything_is_an_error() {
        for kind in PolicyKind::ALL {
            let mut p = build(kind, 3);
            assert!(p.mask_unavailable(&[1]).is_ok());
            assert!(p.is_quarantined(1));
            assert!(matches!(p.mask_unavailable(&[0, 2]), Err(CapError::NoViableConfiguration)), "{kind}");
        }
    }

    #[test]
    fn kind_names_parse_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("confidenc"), None);
        assert_eq!(PolicyKind::parse("CONFIDENCE"), None);
    }

    #[test]
    fn build_produces_the_named_policy() {
        for kind in PolicyKind::ALL {
            let p = build(kind, 8);
            assert_eq!(p.name(), kind.name());
            assert_eq!(p.num_configs(), 8);
            assert_eq!(p.intervals_seen(), 0);
            assert!(!p.in_safe_mode());
            assert!(PolicyConfig::new(kind).build(0, cap_obs::noop(), None).is_err(), "{kind}");
        }
    }

    #[test]
    fn build_rejects_invalid_confidence_knobs() {
        let build = |config: PolicyConfig| config.build(2, cap_obs::noop(), None);
        let base = || PolicyConfig::new(PolicyKind::Confidence);
        let gating = |hysteresis| ConfidencePolicy { threshold: 1, hysteresis };
        assert!(build(base().with_confidence(gating(-1.0))).is_err());
        assert!(build(base().with_confidence(gating(f64::NAN))).is_err());
        let legacy = ResiliencePolicy::legacy();
        assert!(
            build(base().with_resilience(ResiliencePolicy { outlier_factor: f64::NAN, ..legacy })).is_err()
        );
        assert!(
            build(base().with_resilience(ResiliencePolicy { quarantine_threshold: 0, ..legacy })).is_err()
        );
        assert!(build(base().with_resilience(ResiliencePolicy { safe_config: 2, ..legacy })).is_err());
        assert!(build(base().with_resilience(ResiliencePolicy::hardened())).is_ok());
    }

    #[test]
    fn build_rejects_invalid_pattern_knobs_instead_of_panicking() {
        let build = |history, min_confidence| {
            PolicyConfig::new(PolicyKind::Confidence).with_pattern(history, min_confidence).build(
                2,
                cap_obs::noop(),
                None,
            )
        };
        assert!(matches!(build(4, 0.9), Err(CapError::InvalidParameter { .. })));
        assert!(matches!(build(7, 0.9), Err(CapError::InvalidParameter { .. })));
        assert!(matches!(build(64, f64::NAN), Err(CapError::InvalidParameter { .. })));
        assert!(matches!(build(64, f64::INFINITY), Err(CapError::InvalidParameter { .. })));
        assert!(build(8, 0.9).is_ok());
        assert!(build(64, 7.0).is_ok(), "finite confidences are clamped, not rejected");
    }

    #[test]
    fn decision_stream_is_deterministic() {
        for kind in PolicyKind::ALL {
            let run = || {
                let mut p = build(kind, 4);
                drive(&mut *p, |c, t| [4.0, 2.0, 1.0, 3.0][c] * (1.0 + 0.1 * ((t % 7) as f64)), 100)
            };
            assert_eq!(run(), run(), "{kind}");
        }
    }

    #[test]
    fn confidence_explores_every_configuration_first() {
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
    fn confidence_hysteresis_ignores_marginal_gains() {
        let ring = Arc::new(RingRecorder::new());
        let mut m = confidence(0, ConfidencePolicy { threshold: 0, hysteresis: 0.10 })
            .build(2, ring.clone(), None)
            .unwrap();
        let _ = m.observe(0, 1.0);
        let _ = m.observe(1, 0.95); // only 5 % better: below hysteresis
        assert_eq!(m.observe(1, 0.95), ManagerDecision::Stay);
        let Some(Event::Decision(last)) = ring.events().pop() else { panic!("a decision was traced") };
        assert_eq!(last.predicted, None, "no prediction builds on a sub-hysteresis gain");
    }

    #[test]
    fn estimates_track_with_ewma() {
        let mut m = manager(1, ConfidencePolicy::none());
        let _ = m.observe(0, 1.0);
        let _ = m.observe(0, 3.0);
        let e = m.estimates_snapshot()[0].unwrap();
        assert!((e - 2.0).abs() < 1e-12, "alpha 0.5: got {e}");
    }

    #[test]
    fn re_exploration_samples_and_returns() {
        let mut m = confidence(3, ConfidencePolicy { threshold: 10, hysteresis: 0.0 })
            .build(2, cap_obs::noop(), None)
            .unwrap();
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
    fn confidence_rejects_invalid_samples_without_advancing() {
        let mut m = manager(2, ConfidencePolicy::none());
        // NaN, infinite and non-positive samples never reach the EWMA;
        // exploration keeps asking for the unsampled configuration.
        assert_eq!(m.observe(0, f64::NAN), ManagerDecision::SwitchTo(0));
        assert_eq!(m.observe(0, f64::INFINITY), ManagerDecision::SwitchTo(0));
        assert_eq!(m.observe(0, -3.0), ManagerDecision::SwitchTo(0));
        assert_eq!(m.resilience_stats().samples_rejected, 3);
    }

    #[test]
    fn outlier_samples_are_clamped_toward_estimate() {
        let mut m = hardened(1, ResiliencePolicy { outlier_factor: 4.0, ..ResiliencePolicy::hardened() });
        let _ = m.observe(0, 1.0);
        let _ = m.observe(0, 1000.0); // clamped to 4.0, EWMA -> 2.5
        let e = m.estimates_snapshot()[0].unwrap();
        assert!((e - 2.5).abs() < 1e-12, "got {e}");
        assert_eq!(m.resilience_stats().samples_clamped, 1);
        let _ = m.observe(0, 1e-9); // clamped to 2.5/4
        assert_eq!(m.resilience_stats().samples_clamped, 2);
    }

    #[test]
    fn repeated_switch_failures_quarantine_and_probation_reprobes() {
        let mut m = hardened(
            2,
            ResiliencePolicy {
                quarantine_threshold: 1,
                probation_period: 10,
                ..ResiliencePolicy::hardened()
            },
        );
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
        let mut m = hardened(2, ResiliencePolicy { probation_period: 2, ..ResiliencePolicy::hardened() });
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
        let ring = Arc::new(RingRecorder::new());
        let mut m = confidence(0, ConfidencePolicy::none())
            .with_resilience(ResiliencePolicy {
                thrash_window: 20,
                thrash_limit: 3,
                outlier_factor: 0.0,
                ..ResiliencePolicy::hardened()
            })
            .build(2, ring.clone(), None)
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
        let safe: Vec<usize> = ring
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::SafeMode(s) => Some(s.safe_config),
                _ => None,
            })
            .collect();
        assert_eq!(safe, [0]);
        // Safe mode is terminal and static.
        assert_eq!(m.observe(0, 1.0), ManagerDecision::Stay);
        assert_eq!(m.observe(0, 99.0), ManagerDecision::Stay);
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
        let run = |config: PolicyConfig| {
            let mut m = config.build(2, cap_obs::noop(), None).unwrap();
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
        let gating = ConfidencePolicy { threshold: 1, hysteresis: 0.02 };
        let reactive = run(confidence(4, gating));
        let proactive = run(confidence(4, gating).with_pattern(64, 0.8));
        assert!(proactive < reactive, "pattern mode must lose fewer intervals: {proactive} vs {reactive}");
    }

    #[test]
    fn pattern_mode_stays_quiet_on_stationary_series() {
        let mut m = confidence(0, ConfidencePolicy::default_policy())
            .with_pattern(32, 0.85)
            .build(3, cap_obs::noop(), None)
            .unwrap();
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
}
