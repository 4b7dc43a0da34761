//! Deterministic fault injection and degradation campaigns.
//!
//! Adaptive hardware earns its keep only if it degrades gracefully when
//! its own machinery misbehaves. This module injects three fault classes
//! into a managed run — all seeded through [`cap_trace::TraceRng`], so a
//! campaign is exactly reproducible from its seed and never touches the
//! wall clock:
//!
//! * **switch faults** — a reconfiguration attempt fails transiently
//!   (retried with backoff by the runner) or permanently (the
//!   configuration is broken for the whole run and ends up quarantined);
//! * **sample corruption** — the TPI the monitoring hardware reports is
//!   occasionally NaN, dropped, or scaled into an outlier. Only the
//!   *observation* is corrupted; the physical interval is unaffected;
//! * **dead cache increments** — trailing increments of the
//!   [movable-boundary hierarchy](cap_cache::hierarchy) are retired,
//!   shrinking the usable L1/L2 boundary range and masking the largest
//!   boundary configurations out of the manager's space.
//!
//! [`FaultCampaign`] packages the whole experiment: one clean and one
//! faulty run per structure (same seeds, same streams), compared in a
//! serializable [`DegradationReport`] — the data behind `capsim faults`.

use crate::clock::{DynamicClock, DEFAULT_SWITCH_PENALTY_CYCLES};
use crate::error::CapError;
use crate::manager::{
    run_managed, CacheIntervalSim, FaultedRun, QueueIntervalSim, ResiliencePolicy,
    ResilienceStats, SwitchRetryPolicy,
};
use crate::policy::{ConfigPolicy, PolicyConfig, PolicyKind};
use crate::structure::{AdaptiveStructure, CacheStructure, QueueStructure};
use cap_obs::{DecisionCounts, Recorder};
use cap_timing::cacti::CacheTimingModel;
use cap_timing::queue::QueueTimingModel;
use cap_timing::Technology;
use cap_trace::TraceRng;
use cap_workloads::App;
use serde::Serialize;
use serde_json::FromJson;
use std::sync::Arc;

/// What an injected switch fault did to a reconfiguration attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchFault {
    /// The attempt failed; a retry may succeed.
    Transient,
    /// The target configuration is broken for the whole run.
    Permanent,
}

/// Probabilities and magnitudes of the injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultSpec {
    /// Per-attempt probability a switch fails transiently.
    pub transient_switch_prob: f64,
    /// Per-configuration probability (drawn once per campaign) the
    /// configuration is permanently broken.
    pub permanent_config_prob: f64,
    /// Per-sample probability the monitored TPI reads as NaN.
    pub sample_nan_prob: f64,
    /// Per-sample probability the monitored TPI is scaled into an
    /// outlier (multiplied or divided by [`FaultSpec::outlier_scale`]).
    pub sample_outlier_prob: f64,
    /// Per-sample probability the sample is dropped entirely.
    pub sample_drop_prob: f64,
    /// The outlier magnitude (must be at least 1).
    pub outlier_scale: f64,
    /// Upper bound on retired cache increments (the draw is uniform in
    /// `0..=max`, further capped so at least two increments survive).
    pub max_dead_increments: usize,
}

impl FaultSpec {
    /// All fault classes off; a campaign with this spec is a clean run.
    pub fn disabled() -> Self {
        FaultSpec {
            transient_switch_prob: 0.0,
            permanent_config_prob: 0.0,
            sample_nan_prob: 0.0,
            sample_outlier_prob: 0.0,
            sample_drop_prob: 0.0,
            outlier_scale: 1.0,
            max_dead_increments: 0,
        }
    }

    /// The default campaign posture: noticeable but survivable faults in
    /// every class.
    pub fn standard() -> Self {
        FaultSpec {
            transient_switch_prob: 0.15,
            permanent_config_prob: 0.10,
            sample_nan_prob: 0.02,
            sample_outlier_prob: 0.05,
            sample_drop_prob: 0.02,
            outlier_scale: 50.0,
            max_dead_increments: 10,
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::InvalidParameter`] if any probability is
    /// outside `[0, 1]`, the three sample probabilities sum past 1, or
    /// the outlier scale is below 1 or not finite.
    pub fn validate(&self) -> Result<(), CapError> {
        let probs = [
            self.transient_switch_prob,
            self.permanent_config_prob,
            self.sample_nan_prob,
            self.sample_outlier_prob,
            self.sample_drop_prob,
        ];
        if probs.iter().any(|p| !p.is_finite() || !(0.0..=1.0).contains(p)) {
            return Err(CapError::InvalidParameter { what: "fault probabilities must be in [0, 1]" });
        }
        if self.sample_nan_prob + self.sample_drop_prob + self.sample_outlier_prob > 1.0 {
            return Err(CapError::InvalidParameter { what: "sample fault probabilities must sum to at most 1" });
        }
        if !self.outlier_scale.is_finite() || self.outlier_scale < 1.0 {
            return Err(CapError::InvalidParameter { what: "outlier scale must be finite and at least 1" });
        }
        Ok(())
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::standard()
    }
}

/// Counters of faults actually injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, FromJson)]
pub struct FaultStats {
    /// Switch attempts failed transiently.
    pub transient_switch_faults: u64,
    /// Switch attempts refused because the target is broken.
    pub permanent_switch_faults: u64,
    /// Samples corrupted to NaN.
    pub samples_corrupted_nan: u64,
    /// Samples scaled into outliers.
    pub samples_corrupted_outlier: u64,
    /// Samples dropped.
    pub samples_dropped: u64,
    /// Cache increments retired.
    pub dead_increments: usize,
    /// Configurations drawn as permanently broken.
    pub broken_configs: usize,
}

/// A seeded source of injected faults for one run.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    spec: FaultSpec,
    rng: TraceRng,
    broken: Vec<bool>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector over `num_configs` configurations. The set of
    /// permanently broken configurations is drawn here, once.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::InvalidParameter`] if the spec is invalid (see
    /// [`FaultSpec::validate`]) or `num_configs` is zero.
    pub fn new(spec: FaultSpec, seed: u64, num_configs: usize) -> Result<Self, CapError> {
        spec.validate()?;
        if num_configs == 0 {
            return Err(CapError::InvalidParameter { what: "injector needs at least one configuration" });
        }
        let mut rng = TraceRng::seeded(seed);
        let broken: Vec<bool> =
            (0..num_configs).map(|_| rng.chance(spec.permanent_config_prob)).collect();
        let stats = FaultStats { broken_configs: broken.iter().filter(|&&b| b).count(), ..FaultStats::default() };
        Ok(FaultInjector { spec, rng, broken, stats })
    }

    /// Rolls the fault (if any) for one switch attempt toward `target`.
    pub fn on_switch_attempt(&mut self, target: usize) -> Option<SwitchFault> {
        if self.broken.get(target).copied().unwrap_or(false) {
            self.stats.permanent_switch_faults += 1;
            return Some(SwitchFault::Permanent);
        }
        if self.rng.chance(self.spec.transient_switch_prob) {
            self.stats.transient_switch_faults += 1;
            return Some(SwitchFault::Transient);
        }
        None
    }

    /// Passes a monitored TPI through the corruption model. Dropped
    /// samples come back as a negative sentinel, which the manager's
    /// sanitizer rejects — exactly what monitoring hardware that missed
    /// an interval would produce.
    pub fn corrupt_tpi(&mut self, tpi_ns: f64) -> f64 {
        let r = self.rng.unit();
        let nan = self.spec.sample_nan_prob;
        let drop = self.spec.sample_drop_prob;
        let outlier = self.spec.sample_outlier_prob;
        if r < nan {
            self.stats.samples_corrupted_nan += 1;
            f64::NAN
        } else if r < nan + drop {
            self.stats.samples_dropped += 1;
            -1.0
        } else if r < nan + drop + outlier {
            self.stats.samples_corrupted_outlier += 1;
            if self.rng.chance(0.5) {
                tpi_ns * self.spec.outlier_scale
            } else {
                tpi_ns / self.spec.outlier_scale
            }
        } else {
            tpi_ns
        }
    }

    /// Draws the number of cache increments to retire out of `total`,
    /// leaving at least two alive.
    pub fn draw_dead_increments(&mut self, total: usize) -> usize {
        let cap = self.spec.max_dead_increments.min(total.saturating_sub(2));
        if cap == 0 {
            return 0;
        }
        let n = self.rng.below(cap as u64 + 1) as usize;
        self.stats.dead_increments = n;
        n
    }

    /// Which configurations were drawn as permanently broken.
    pub fn broken_configs(&self) -> &[bool] {
        &self.broken
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

/// One structure's clean-vs-faulty comparison.
#[derive(Debug, Clone, PartialEq, Serialize, FromJson)]
pub struct LegReport {
    /// Which structure ran ("queue" or "cache").
    pub structure: String,
    /// Average TPI of the clean run (ns).
    pub clean_tpi_ns: f64,
    /// Average TPI of the faulted run (ns).
    pub faulty_tpi_ns: f64,
    /// Fractional TPI degradation (0.08 = 8 % slower under faults).
    pub tpi_degradation: f64,
    /// Reconfigurations completed in the clean run.
    pub clean_switches: u64,
    /// Reconfigurations completed in the faulted run.
    pub faulty_switches: u64,
    /// Transient switch failures that were retried.
    pub retries: u64,
    /// Wall-clock time charged to retry backoff (ns).
    pub retry_penalty_ns: f64,
    /// Switch attempts abandoned after retries or permanent faults.
    pub switch_failures: u64,
    /// Faults injected into the faulted run.
    pub faults: FaultStats,
    /// The manager's degradation-handling counters.
    pub resilience: ResilienceStats,
    /// Per-reason decision tally of the faulted run's manager. Derived
    /// from the deterministic decision stream only, so it is identical
    /// across `--jobs` settings.
    pub decisions: DecisionCounts,
    /// Configurations quarantined at the end of the run.
    pub quarantined_configs: usize,
    /// Whether the watchdog fell back to the safe configuration.
    pub safe_mode: bool,
    /// The configuration the faulted run ended on.
    pub final_config: usize,
    /// Its human-readable label.
    pub final_config_label: String,
    /// Whether the run ended on a quarantined configuration (it must
    /// not, unless that is the safe fallback itself).
    pub final_config_quarantined: bool,
}

/// The full campaign result: both structures, clean vs faulted.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DegradationReport {
    /// The application profile driving both legs.
    pub app: String,
    /// The campaign's root seed.
    pub seed: u64,
    /// The configuration-management policy both legs ran under.
    pub policy: String,
    /// The fault spec in force.
    pub spec: FaultSpec,
    /// The instruction-queue leg.
    pub queue: LegReport,
    /// The cache-boundary leg.
    pub cache: LegReport,
}

impl DegradationReport {
    /// Pretty-printed JSON for machine consumption.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| String::from("{}"))
    }
}

/// A reproducible fault campaign over one application.
///
/// # Example
///
/// ```
/// use cap_core::faults::FaultCampaign;
/// use cap_workloads::App;
///
/// let report = FaultCampaign::new(App::Radar, 42).run()?;
/// assert!(report.queue.clean_tpi_ns > 0.0);
/// # Ok::<(), cap_core::CapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FaultCampaign {
    app: App,
    seed: u64,
    spec: FaultSpec,
    policy: PolicyKind,
    queue_intervals: u64,
    interval_len: u64,
    cache_intervals: u64,
    refs_per_interval: u64,
}

impl FaultCampaign {
    /// Creates a campaign with the standard spec, the default
    /// (confidence) policy and moderate run lengths (120 intervals per
    /// leg).
    pub fn new(app: App, seed: u64) -> Self {
        FaultCampaign {
            app,
            seed,
            spec: FaultSpec::standard(),
            policy: PolicyKind::Confidence,
            queue_intervals: 120,
            interval_len: 1000,
            cache_intervals: 120,
            refs_per_interval: 4000,
        }
    }

    /// Overrides the fault spec.
    pub fn with_spec(mut self, spec: FaultSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Overrides the configuration-management policy both legs run
    /// under (fault injection is a property of the kernel, so every
    /// policy in the catalog survives it).
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the per-leg run lengths.
    pub fn with_lengths(mut self, queue_intervals: u64, cache_intervals: u64) -> Self {
        self.queue_intervals = queue_intervals;
        self.cache_intervals = cache_intervals;
        self
    }

    fn manager(
        &self,
        num_configs: usize,
        recorder: &Arc<dyn Recorder>,
        leg: &str,
    ) -> Result<Box<dyn ConfigPolicy>, CapError> {
        PolicyConfig::new(self.policy)
            .with_explore_period(25)
            .with_resilience(ResiliencePolicy::hardened())
            .build(num_configs, recorder.clone(), Some(format!("{}:{leg}", self.app.name())))
    }

    fn leg_report(
        structure_name: &str,
        clean: &FaultedRun,
        faulty: &FaultedRun,
        faults: FaultStats,
        manager: &dyn ConfigPolicy,
        structure: &dyn AdaptiveStructure,
    ) -> LegReport {
        let clean_tpi = clean.run.average_tpi().value();
        let faulty_tpi = faulty.run.average_tpi().value();
        let final_config = structure.current();
        LegReport {
            structure: structure_name.to_string(),
            clean_tpi_ns: clean_tpi,
            faulty_tpi_ns: faulty_tpi,
            tpi_degradation: crate::metrics::degradation(clean_tpi, faulty_tpi),
            clean_switches: clean.run.switches,
            faulty_switches: faulty.run.switches,
            retries: faulty.retries,
            retry_penalty_ns: faulty.retry_penalty.value(),
            switch_failures: faulty.switch_failures,
            faults,
            resilience: manager.resilience_stats(),
            decisions: manager.decision_counts(),
            quarantined_configs: manager.quarantined_count(),
            safe_mode: manager.in_safe_mode(),
            final_config,
            final_config_label: structure.describe(final_config),
            final_config_quarantined: manager.is_quarantined(final_config),
        }
    }

    fn queue_leg(&self, recorder: &Arc<dyn Recorder>) -> Result<LegReport, CapError> {
        let timing = QueueTimingModel::new(Technology::isca98_evaluation());
        let retry = SwitchRetryPolicy::default_policy();
        let stream_seed = self.seed ^ self.app.seed_salt();

        let mut clean_structure = QueueStructure::isca98(timing, 0)?;
        let mut clock = DynamicClock::for_structure(&clean_structure, DEFAULT_SWITCH_PENALTY_CYCLES)?;
        let mut manager = self.manager(clean_structure.num_configs(), recorder, "queue:clean")?;
        let mut stream = self.app.ilp_profile().build(stream_seed);
        let clean = run_managed(
            &mut QueueIntervalSim::new(&mut clean_structure, &mut stream, self.interval_len)?,
            &mut *manager,
            &mut clock,
            self.queue_intervals,
            None,
            retry,
        )?;

        let mut structure = QueueStructure::isca98(timing, 0)?;
        let mut clock = DynamicClock::for_structure(&structure, DEFAULT_SWITCH_PENALTY_CYCLES)?;
        let mut manager = self.manager(structure.num_configs(), recorder, "queue:faulty")?;
        let mut injector = FaultInjector::new(self.spec, self.seed ^ 0xFA17_0001, structure.num_configs())?;
        let mut stream = self.app.ilp_profile().build(stream_seed);
        let faulty = run_managed(
            &mut QueueIntervalSim::new(&mut structure, &mut stream, self.interval_len)?,
            &mut *manager,
            &mut clock,
            self.queue_intervals,
            Some(&mut injector),
            retry,
        )?;

        Ok(Self::leg_report("queue", &clean, &faulty, injector.stats(), &*manager, &structure))
    }

    fn cache_leg(&self, recorder: &Arc<dyn Recorder>) -> Result<LegReport, CapError> {
        let timing = CacheTimingModel::isca98(Technology::isca98_evaluation());
        let retry = SwitchRetryPolicy::default_policy();
        let profile = self.app.memory_profile();
        let stream_seed = self.seed ^ self.app.seed_salt();

        let mut clean_structure = CacheStructure::isca98(timing, 0)?;
        let mut clock = DynamicClock::for_structure(&clean_structure, DEFAULT_SWITCH_PENALTY_CYCLES)?;
        let mut manager = self.manager(clean_structure.num_configs(), recorder, "cache:clean")?;
        let mut stream = profile.build(stream_seed);
        let clean = run_managed(
            &mut CacheIntervalSim::new(
                &mut clean_structure,
                &mut stream,
                self.refs_per_interval,
                profile.insts_per_ref,
            )?,
            &mut *manager,
            &mut clock,
            self.cache_intervals,
            None,
            retry,
        )?;

        let mut structure = CacheStructure::isca98(timing, 0)?;
        let mut clock = DynamicClock::for_structure(&structure, DEFAULT_SWITCH_PENALTY_CYCLES)?;
        let mut manager = self.manager(structure.num_configs(), recorder, "cache:faulty")?;
        let mut injector = FaultInjector::new(self.spec, self.seed ^ 0xFA17_0002, structure.num_configs())?;
        // Dead increments shrink the usable boundary range up front; the
        // manager learns which boundaries the hardware can no longer
        // provide before the run starts, as configuration firmware would.
        let total_increments = structure.timing().geometry().increments;
        let dead = injector.draw_dead_increments(total_increments);
        let unavailable = structure.retire_increments(dead);
        if !unavailable.is_empty() {
            manager.mask_unavailable(&unavailable)?;
        }
        let mut stream = profile.build(stream_seed);
        let faulty = run_managed(
            &mut CacheIntervalSim::new(
                &mut structure,
                &mut stream,
                self.refs_per_interval,
                profile.insts_per_ref,
            )?,
            &mut *manager,
            &mut clock,
            self.cache_intervals,
            Some(&mut injector),
            retry,
        )?;

        Ok(Self::leg_report("cache", &clean, &faulty, injector.stats(), &*manager, &structure))
    }

    /// Runs both legs serially and assembles the report. The legs are
    /// independent (separate structures, managers and streams; injector
    /// seeds derived per leg); [`FaultCampaign::plan`] runs them under
    /// any execution policy, with journaling, resume and the per-leg
    /// deadline.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors; returns
    /// [`CapError::NoViableConfiguration`] if dead increments leave no
    /// boundary at all (cannot happen with at least two increments
    /// alive).
    pub fn run(&self) -> Result<DegradationReport, CapError> {
        let legs = [self.plan_leg(true), self.plan_leg(false)];
        let serial = crate::experiments::ExecPolicy::serial();
        self.assemble(crate::plan::run_legs("fault-campaign", legs, &serial)?)
    }

    /// The journal identity of one campaign leg: every knob that can
    /// change the leg's result is in the key (the fault spec enters as
    /// a digest of its serialized form), so a resumed campaign can only
    /// replay legs of the identical experiment.
    fn leg_key(&self, leg: &str) -> String {
        let spec_digest = cap_par::fnv64(
            &serde_json::to_string(&self.spec).unwrap_or_default(),
        );
        format!(
            "fault-campaign|{}|seed={:#018x}|{}|leg={leg}|q{}x{}|c{}x{}|spec={spec_digest:016x}|v{}",
            self.app.name(),
            self.seed,
            self.policy.name(),
            self.queue_intervals,
            self.interval_len,
            self.cache_intervals,
            self.refs_per_interval,
            crate::experiments::SWEEP_RESULTS_VERSION,
        )
    }

    /// One campaign leg (queue or cache) as a journaled plan leg. Fault
    /// legs are journal-only: their results are campaign-specific, so
    /// they carry no result-cache key.
    pub(crate) fn plan_leg(&self, queue: bool) -> crate::plan::Leg {
        let key = self.leg_key(if queue { "queue" } else { "cache" });
        let me = self.clone();
        crate::plan::Leg::journaled(key, "fault-campaign", move |exec| {
            if queue {
                me.queue_leg(exec.recorder())
            } else {
                me.cache_leg(exec.recorder())
            }
        })
    }

    /// Assembles the campaign report from the decoded `[queue, cache]`
    /// leg reports.
    fn assemble(&self, legs: Vec<LegReport>) -> Result<DegradationReport, CapError> {
        let [queue, cache] = <[LegReport; 2]>::try_from(legs).map_err(|legs| CapError::Internal {
            what: format!("a fault campaign has 2 legs, got {}", legs.len()),
        })?;
        Ok(DegradationReport {
            app: self.app.name().to_string(),
            seed: self.seed,
            policy: self.policy.name().to_string(),
            spec: self.spec,
            queue,
            cache,
        })
    }

    /// The campaign as a declarative plan with its report reduce: the
    /// builder behind `capsim faults` and `capsim plan faults`. The
    /// reduce renders the exact CLI bytes (degradation table + JSON
    /// line).
    pub fn plan(&self) -> crate::plan::ExperimentSpec {
        let mut spec = crate::plan::ExperimentSpec::new("faults");
        let queue_id = spec.leg(self.plan_leg(true));
        let cache_id = spec.leg(self.plan_leg(false));
        let me = self.clone();
        spec.reduce("degradation-report", vec![queue_id, cache_id], move |deps| {
            let report = me.assemble(crate::plan::decode_all(deps)?)?;
            Ok(format!("{}{}\n", crate::report::degradation_table(&report), report.to_json()))
        });
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation() {
        assert!(FaultSpec::disabled().validate().is_ok());
        assert!(FaultSpec::standard().validate().is_ok());
        assert!(FaultSpec { transient_switch_prob: 1.5, ..FaultSpec::disabled() }.validate().is_err());
        assert!(FaultSpec { sample_nan_prob: -0.1, ..FaultSpec::disabled() }.validate().is_err());
        assert!(FaultSpec { outlier_scale: 0.5, ..FaultSpec::disabled() }.validate().is_err());
        assert!(FaultSpec { outlier_scale: f64::NAN, ..FaultSpec::disabled() }.validate().is_err());
        let oversum = FaultSpec {
            sample_nan_prob: 0.5,
            sample_drop_prob: 0.4,
            sample_outlier_prob: 0.3,
            ..FaultSpec::disabled()
        };
        assert!(oversum.validate().is_err());
    }

    #[test]
    fn disabled_spec_injects_nothing() {
        let mut inj = FaultInjector::new(FaultSpec::disabled(), 7, 8).unwrap();
        for i in 0..8 {
            assert_eq!(inj.on_switch_attempt(i), None);
        }
        for _ in 0..100 {
            assert_eq!(inj.corrupt_tpi(1.25), 1.25);
        }
        assert_eq!(inj.draw_dead_increments(16), 0);
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let roll = |seed: u64| {
            let mut inj = FaultInjector::new(FaultSpec::standard(), seed, 8).unwrap();
            let faults: Vec<Option<SwitchFault>> = (0..64).map(|i| inj.on_switch_attempt(i % 8)).collect();
            let tpis: Vec<u64> = (0..64).map(|_| inj.corrupt_tpi(2.0).to_bits()).collect();
            (inj.broken_configs().to_vec(), faults, tpis)
        };
        assert_eq!(roll(99), roll(99));
        assert_ne!(roll(99), roll(100));
    }

    #[test]
    fn broken_configs_always_fault_permanently() {
        // With probability 1 every configuration is broken.
        let spec = FaultSpec { permanent_config_prob: 1.0, ..FaultSpec::disabled() };
        let mut inj = FaultInjector::new(spec, 3, 4).unwrap();
        assert_eq!(inj.stats().broken_configs, 4);
        for i in 0..4 {
            assert_eq!(inj.on_switch_attempt(i), Some(SwitchFault::Permanent));
        }
        assert_eq!(inj.stats().permanent_switch_faults, 4);
    }

    #[test]
    fn corruption_frequencies_track_spec() {
        let spec = FaultSpec {
            sample_nan_prob: 0.2,
            sample_drop_prob: 0.2,
            sample_outlier_prob: 0.2,
            outlier_scale: 10.0,
            ..FaultSpec::disabled()
        };
        let mut inj = FaultInjector::new(spec, 11, 1).unwrap();
        let n = 20_000;
        for _ in 0..n {
            let v = inj.corrupt_tpi(1.0);
            assert!(v.is_nan() || v == -1.0 || v == 1.0 || v == 10.0 || (v - 0.1).abs() < 1e-12);
        }
        let s = inj.stats();
        for (label, count) in [
            ("nan", s.samples_corrupted_nan),
            ("drop", s.samples_dropped),
            ("outlier", s.samples_corrupted_outlier),
        ] {
            let frac = count as f64 / n as f64;
            assert!((frac - 0.2).abs() < 0.02, "{label}: {frac}");
        }
    }

    #[test]
    fn dead_increments_leave_two_alive() {
        let spec = FaultSpec { max_dead_increments: 100, ..FaultSpec::disabled() };
        for seed in 0..32 {
            let mut inj = FaultInjector::new(spec, seed, 1).unwrap();
            assert!(inj.draw_dead_increments(16) <= 14);
        }
    }

    #[test]
    fn campaign_produces_complete_report() {
        let report = FaultCampaign::new(App::Radar, 5).with_lengths(40, 40).run().unwrap();
        assert_eq!(report.app, "radar");
        for leg in [&report.queue, &report.cache] {
            assert!(leg.clean_tpi_ns > 0.0, "{}: clean TPI", leg.structure);
            assert!(leg.faulty_tpi_ns > 0.0, "{}: faulty TPI", leg.structure);
            assert!(leg.tpi_degradation.is_finite());
        }
        let json = report.to_json();
        assert!(json.contains("\"queue\""));
        assert!(json.contains("\"tpi_degradation\""));
    }
}
