//! Configuration management (paper §4 and §6): the decision types and
//! knobs every manager shares, and the managed-run kernel.
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
//! The managers themselves are [`crate::policy`]'s decision rules over
//! one shared estimate/quarantine/trace core, built by
//! [`crate::policy::PolicyConfig::build`]. This module holds what they
//! decide with and what drives them:
//!
//! * [`ManagerDecision`] and [`SwitchOutcome`], the two directions of
//!   the manager–runner protocol;
//! * [`ConfidencePolicy`], the confidence manager's gating: a switch is
//!   issued only after the prediction has beaten the current
//!   configuration by at least [`ConfidencePolicy::hysteresis`] for more
//!   than [`ConfidencePolicy::threshold`] consecutive intervals;
//! * [`ResiliencePolicy`] and [`ResilienceStats`], the degradation
//!   handling knobs and counters;
//! * [`run_managed`], which drives any structure — a [`QueueStructure`]
//!   through [`QueueIntervalSim`], a [`CacheStructure`] through
//!   [`CacheIntervalSim`] — under any manager, charging reconfigurations
//!   with the dynamic clock's switch penalty and the slower period during
//!   transition intervals — the serial reference the lanes are held to;
//! * [`run_managed_lanes`] and [`run_managed_cache_lanes`], which run
//!   several managed runs of one stream — clean or under their own
//!   [`FaultInjector`], each queue lane at its own length — as lanes of
//!   one pass over it, each interval end running the same per-interval
//!   step as [`run_managed`].
//!
//! # Hardening
//!
//! Real adaptive hardware must survive misbehaving monitoring hardware
//! and reconfiguration machinery. Every manager therefore:
//!
//! * **sanitizes** every sample before the EWMA — non-finite or
//!   non-positive TPIs are rejected outright, and (under a
//!   [`ResiliencePolicy`] with an outlier factor) wildly implausible
//!   values are clamped toward the configuration's current estimate;
//! * **quarantines** configurations whose reconfigurations keep failing
//!   (reported via [`ConfigPolicy::record_switch_outcome`]), masking
//!   them out of exploration and prediction.
//!
//! The confidence manager adds periodic **probation** re-probes, so a
//! transiently failing configuration can return, and a **watchdog** that
//! detects estimate thrashing (too many predictor-driven switches in a
//! window) or an empty candidate set and falls back to a designated
//! **safe static configuration** instead of oscillating or panicking.
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
use cap_cache::perf::PerfParams;
use cap_cache::stats::CacheStats;
use cap_obs::{ClockSwitchEvent, Event, Recorder, RingRecorder};
use cap_ooo::core::{OooCore, RunStats};
use cap_ooo::interval::{record_sample, IntervalSample};
use cap_ooo::multisweep::{run_intervals, IntervalEnds, NextInterval, LANES};
use cap_timing::units::Ns;
use cap_trace::inst::InstStream;
use cap_trace::mem::AddressStream;
use serde::Serialize;
use serde_json::FromJson;
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
    /// by the `ablation` binary to demonstrate reconfiguration thrash on
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

/// Degradation-handling knobs. Sanitation and quarantine apply to every
/// policy; probation, the watchdog and the safe configuration only to
/// the confidence manager, and only the confidence manager takes knobs
/// other than [`ResiliencePolicy::legacy`].
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, FromJson)]
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
/// `interval_len` instructions on a serial [`OooCore`], the reference
/// that [`run_managed_lanes`] is held to.
pub struct QueueIntervalSim<'a, S: InstStream> {
    structure: &'a mut QueueStructure,
    stream: &'a mut S,
    interval_len: u64,
    core: OooCore,
    /// The configuration the core's window was last resized to.
    resized_to: usize,
}

impl<'a, S: InstStream> QueueIntervalSim<'a, S> {
    /// Binds the simulation to a structure and instruction stream, on a
    /// fresh core at the structure's current configuration.
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
        let mut core = OooCore::try_new(*structure.core_config())?;
        core.request_resize(structure.window())?;
        Ok(QueueIntervalSim { resized_to: structure.current(), structure, stream, interval_len, core })
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
        // The core idles between intervals, so resizing it as the next
        // one starts is resizing it at the switch.
        if self.structure.current() != self.resized_to {
            self.core.request_resize(self.structure.window())?;
            self.resized_to = self.structure.current();
        }
        Ok(cap_ooo::interval::record_interval_observed(
            &mut self.core,
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
pub struct CacheIntervalSim<'a, S: AddressStream> {
    structure: &'a mut CacheStructure,
    stream: &'a mut S,
    refs_per_interval: u64,
    params: PerfParams,
}

impl<'a, S: AddressStream> CacheIntervalSim<'a, S> {
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
    /// instruction), like [`PerfParams::isca98`].
    pub fn new(
        structure: &'a mut CacheStructure,
        stream: &'a mut S,
        refs_per_interval: u64,
        insts_per_ref: f64,
    ) -> Result<Self, CapError> {
        if refs_per_interval == 0 {
            return Err(CapError::InvalidParameter { what: "interval length must be positive" });
        }
        let params = PerfParams::isca98(insts_per_ref);
        Ok(CacheIntervalSim { structure, stream, refs_per_interval, params })
    }
}

impl<S: AddressStream> IntervalSim for CacheIntervalSim<'_, S> {
    fn structure(&mut self) -> &mut dyn AdaptiveStructure {
        self.structure
    }

    fn simulate(
        &mut self,
        index: u64,
        recorder: &dyn Recorder,
        label: Option<&str>,
    ) -> Result<Option<IntervalSample>, CapError> {
        let stats = cap_cache::sim::run(&mut *self.stream, self.refs_per_interval, self.structure.cache_mut());
        cache_sample(self.structure, &stats, index, self.params, recorder, label).map(Some)
    }
}

/// The sample of cache interval `index`, whose references `structure`
/// counted as `stats`: the counters are traced as the
/// [`cap_obs::CacheSimEvent`] numbered `index + 1`, and the §5.1 blocking
/// TPI model at the current boundary is quantized into whole cycles.
fn cache_sample(
    structure: &CacheStructure,
    stats: &CacheStats,
    index: u64,
    params: PerfParams,
    recorder: &dyn Recorder,
    label: Option<&str>,
) -> Result<IntervalSample, CapError> {
    cap_cache::sim::record_stats(recorder, label, index + 1, stats);
    let boundary = structure.boundary_at(structure.current())?;
    let tpi = cap_cache::perf::evaluate(stats, boundary, structure.timing(), params)?;
    let (cycles, insts) = tpi.interval_counts(stats.refs, params.insts_per_ref);
    Ok(IntervalSample { index, cycles, insts })
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
    let mut state = ManagedState::new(intervals);
    let recorder = policy.recorder();
    let label = policy.label().map(str::to_string);
    for index in 0..intervals {
        let Some(sample) = sim.simulate(index, &*recorder, label.as_deref())? else {
            continue;
        };
        state.interval(sim.structure(), policy, clock, sample, &mut injector, retry)?;
    }
    Ok(state.out)
}

/// A managed run between its intervals: what it has recorded, and the
/// period a completed switch charges the next interval.
struct ManagedState {
    out: FaultedRun,
    transition_period: Option<Ns>,
}

impl ManagedState {
    fn new(intervals: u64) -> Self {
        ManagedState {
            out: FaultedRun {
                run: ManagedRun {
                    intervals: Vec::with_capacity(intervals as usize),
                    switches: 0,
                    switch_penalty: Ns(0.0),
                },
                retries: 0,
                retry_penalty: Ns(0.0),
                switch_failures: 0,
            },
            transition_period: None,
        }
    }

    /// Books one simulated interval's `sample`, taken at the structure's
    /// current configuration, lets the policy observe it, and executes
    /// the switch it asks for: the body of every managed run's loop.
    fn interval(
        &mut self,
        structure: &mut dyn AdaptiveStructure,
        policy: &mut dyn ConfigPolicy,
        clock: &mut DynamicClock,
        sample: IntervalSample,
        injector: &mut Option<&mut FaultInjector>,
        retry: SwitchRetryPolicy,
    ) -> Result<(), CapError> {
        let config = structure.current();
        let period = self.transition_period.take().unwrap_or(clock.period());
        let record = ManagedInterval { config, sample, period };
        let tpi = record.tpi();
        self.out.run.intervals.push(record);

        let observed = match injector.as_deref_mut() {
            Some(inj) => inj.corrupt_tpi(tpi.value()),
            None => tpi.value(),
        };
        match policy.observe(config, observed) {
            ManagerDecision::Stay => {}
            ManagerDecision::SwitchTo(next) if next == config => {}
            ManagerDecision::SwitchTo(next) => {
                if let Some(p) = execute_switch(structure, clock, policy, next, injector, retry, &mut self.out)? {
                    self.transition_period = Some(p);
                }
            }
        }
        Ok(())
    }
}

/// One lane of a managed lanes pass: a structure under its own policy,
/// clock and, for a faulty run, fault injector.
pub struct ManagedLane<S> {
    /// The structure under management.
    pub structure: S,
    /// The lane's manager.
    pub policy: Box<dyn ConfigPolicy>,
    /// The lane's dynamic clock.
    pub clock: DynamicClock,
    /// The lane's fault injector; `None` makes the lane a clean run.
    pub injector: Option<FaultInjector>,
}

/// A lane of [`run_managed_lanes`]. Its structure's current
/// configuration sets the lane's first window.
pub type QueueLane = ManagedLane<QueueStructure>;

/// A lane of [`run_managed_cache_lanes`]. Its structure's hierarchy is
/// the one the lane's references access.
pub type CacheLane = ManagedLane<CacheStructure>;

/// Trace buffers for `n` lanes of one pass: each lane's recorder (its
/// own [`RingRecorder`] if `traced`, else the no-op recorder) and the
/// buffers. Replaying the buffers' events in lane order after the pass
/// makes the trace read as if the lanes had run one after another.
pub fn lane_recorders(n: usize, traced: bool) -> (Vec<Arc<dyn Recorder>>, Vec<Arc<RingRecorder>>) {
    let buffers: Vec<Arc<RingRecorder>> = (0..n).map(|_| Arc::new(RingRecorder::new())).collect();
    let recorders = buffers
        .iter()
        .map(|buffer| -> Arc<dyn Recorder> { if traced { buffer.clone() } else { cap_obs::noop() } })
        .collect();
    (recorders, buffers)
}

/// Rejects a lane of no intervals or empty intervals, and a lanes pass of
/// more than [`LANES`] lanes.
fn check_lanes(lanes: usize, intervals: u64, interval_len: u64) -> Result<(), CapError> {
    if intervals == 0 {
        return Err(CapError::InvalidParameter { what: "a managed run needs at least one interval" });
    }
    if interval_len == 0 {
        return Err(CapError::InvalidParameter { what: "interval length must be positive" });
    }
    if lanes > LANES {
        return Err(CapError::InvalidParameter { what: "too many managed lanes" });
    }
    Ok(())
}

/// Managed queue runs of one stream, one per lane, over one pass of
/// `stream`. Lane `l` runs `lengths[l].0` intervals of `lengths[l].1`
/// instructions. Each lane's [`FaultedRun`] and trace events are
/// bit-identical to [`run_managed`] over a [`QueueIntervalSim`] of the
/// lane's structure reading its own copy of the stream, with the lane's
/// injector and the default [`SwitchRetryPolicy`]. The lanes are
/// [`cap_ooo::multisweep::run_intervals`]'s; each interval end runs the
/// same per-interval step as [`run_managed`].
///
/// # Errors
///
/// * [`CapError::InvalidParameter`] for a lane of zero intervals or a
///   zero interval length, more than [`LANES`] lanes, or not one length
///   pair per lane;
/// * the lanes' cycle-overflow error, and the structures' and clocks'
///   configuration errors.
pub fn run_managed_lanes<S: InstStream>(
    stream: S,
    lanes: &mut [QueueLane],
    lengths: &[(u64, u64)],
) -> Result<Vec<FaultedRun>, CapError> {
    if lengths.len() != lanes.len() {
        return Err(CapError::InvalidParameter { what: "managed lanes need one (intervals, length) pair each" });
    }
    for &(intervals, interval_len) in lengths {
        check_lanes(lanes.len(), intervals, interval_len)?;
    }
    // Every queue structure is built on the same physical core.
    let Some(config) = lanes.first().map(|lane| *lane.structure.core_config()) else {
        return Ok(Vec::new());
    };
    let first: Vec<NextInterval> =
        lanes.iter().zip(lengths).map(|(lane, &(_, insts))| NextInterval { insts, resize: Some(lane.structure.window()) }).collect();
    let states = lengths.iter().map(|&(intervals, _)| ManagedState::new(intervals)).collect();
    let mut ends = ManagedLanes { lanes, states, lengths };
    run_intervals(stream, config, &first, &mut ends)?;
    Ok(ends.states.into_iter().map(|state| state.out).collect())
}

/// The interval ends of [`run_managed_lanes`]: each is one managed-run
/// step of its lane.
struct ManagedLanes<'a> {
    lanes: &'a mut [QueueLane],
    states: Vec<ManagedState>,
    lengths: &'a [(u64, u64)],
}

impl IntervalEnds for ManagedLanes<'_> {
    type Error = CapError;

    fn end(&mut self, lane: usize, stats: RunStats) -> Result<Option<NextInterval>, CapError> {
        let (state, QueueLane { structure, policy, clock, injector }) = (&mut self.states[lane], &mut self.lanes[lane]);
        let index = state.out.run.intervals.len() as u64;
        let sample = IntervalSample { index, cycles: stats.cycles, insts: stats.committed };
        record_sample(&*policy.recorder(), policy.label(), index + 1, &sample);
        let config = structure.current();
        state.interval(structure, &mut **policy, clock, sample, &mut injector.as_mut(), SwitchRetryPolicy::default())?;
        let (intervals, interval_len) = self.lengths[lane];
        if index + 1 == intervals {
            return Ok(None);
        }
        // Only a completed switch resizes, and it always changes the
        // configuration.
        let resize = (structure.current() != config).then(|| structure.window());
        Ok(Some(NextInterval { insts: interval_len, resize }))
    }
}

/// Managed cache runs of one reference stream, one per lane, over one
/// pass of `stream`: each reference is drawn once and accessed on every
/// lane's hierarchy in turn, and each interval end runs the same
/// per-interval step as [`run_managed`]. Each lane's [`FaultedRun`] and
/// trace events are bit-identical to [`run_managed`] over a
/// [`CacheIntervalSim`] of the lane's structure reading its own copy of
/// the stream, with the lane's injector and the default
/// [`SwitchRetryPolicy`].
///
/// # Errors
///
/// * [`CapError::InvalidParameter`] for zero intervals, zero
///   `refs_per_interval` or more than [`LANES`] lanes;
/// * the structures', clocks' and timing model's configuration errors.
///
/// # Panics
///
/// Panics if `insts_per_ref < 1`, like [`CacheIntervalSim::new`].
pub fn run_managed_cache_lanes<S: AddressStream>(
    mut stream: S,
    lanes: &mut [CacheLane],
    intervals: u64,
    refs_per_interval: u64,
    insts_per_ref: f64,
) -> Result<Vec<FaultedRun>, CapError> {
    check_lanes(lanes.len(), intervals, refs_per_interval)?;
    let params = PerfParams::isca98(insts_per_ref);
    let mut states: Vec<ManagedState> = lanes.iter().map(|_| ManagedState::new(intervals)).collect();
    for index in 0..intervals {
        let before: Vec<CacheStats> = lanes.iter().map(|lane| lane.structure.cache().stats()).collect();
        for _ in 0..refs_per_interval {
            let r = stream.next_ref();
            for lane in lanes.iter_mut() {
                lane.structure.cache_mut().access(r);
            }
        }
        for ((lane, state), before) in lanes.iter_mut().zip(&mut states).zip(before) {
            let CacheLane { structure, policy, clock, injector } = lane;
            let stats = structure.cache().stats() - before;
            let sample = cache_sample(structure, &stats, index, params, &*policy.recorder(), policy.label())?;
            state.interval(structure, &mut **policy, clock, sample, &mut injector.as_mut(), SwitchRetryPolicy::default())?;
        }
    }
    Ok(states.into_iter().map(|state| state.out).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSpec;
    use crate::policy::{PolicyConfig, PolicyKind};
    use crate::structure::{CacheStructure, QueueStructure};
    use cap_obs::RingRecorder;
    use cap_timing::cacti::CacheTimingModel;
    use cap_timing::queue::QueueTimingModel;
    use cap_timing::Technology;
    use cap_trace::inst::{IlpParams, SegmentIlp};
    use cap_trace::mem::{Region, RegionMix};
    use std::sync::Arc;

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
        let timing = QueueTimingModel::default();
        let mut structure = QueueStructure::isca98(timing, 0).unwrap();
        let table = structure.period_table().unwrap();
        let mut clock = DynamicClock::new(table, 30).unwrap();
        let mut manager = PolicyConfig::new(PolicyKind::Confidence)
            .with_explore_period(0)
            .build(8, cap_obs::noop(), None)
            .unwrap();
        let mut stream = SegmentIlp::new(IlpParams::balanced(), 9).unwrap();
        let mut sim = QueueIntervalSim::new(&mut structure, &mut stream, 2000).unwrap();
        let run = run_managed(&mut sim, &mut *manager, &mut clock, 40, None, SwitchRetryPolicy::default())
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

    fn queue_lane(recorder: Arc<dyn Recorder>) -> QueueLane {
        let structure = QueueStructure::isca98(QueueTimingModel::default(), 0).unwrap();
        let clock = DynamicClock::new(structure.period_table().unwrap(), 30).unwrap();
        let policy = PolicyConfig::new(PolicyKind::Confidence).build(8, recorder, None).unwrap();
        QueueLane { structure, policy, clock, injector: None }
    }

    fn ilp_stream() -> SegmentIlp {
        SegmentIlp::new(IlpParams::balanced(), 9).unwrap()
    }

    fn rejects(result: Result<Vec<FaultedRun>, CapError>) {
        assert!(matches!(result, Err(CapError::InvalidParameter { .. })), "{result:?}");
    }

    #[test]
    fn managed_lanes_reject_bad_runs() {
        let lane = || queue_lane(cap_obs::noop());
        rejects(run_managed_lanes(ilp_stream(), &mut [lane(), lane()], &[(10, 2000), (0, 2000)]));
        rejects(run_managed_lanes(ilp_stream(), &mut [lane()], &[(10, 0)]));
        rejects(run_managed_lanes(ilp_stream(), &mut (0..9).map(|_| lane()).collect::<Vec<_>>(), &[(10, 2000); 9]));
        rejects(run_managed_lanes(ilp_stream(), &mut [lane(), lane()], &[(10, 2000)]));
        assert_eq!(run_managed_lanes(ilp_stream(), &mut [], &[]).unwrap(), Vec::new());

        // One lane is the generator-fed run.
        let runs = run_managed_lanes(ilp_stream(), &mut [lane()], &[(40, 2000)]).unwrap();
        assert_eq!(runs, [serial_queue_run(&mut lane(), 40, 2000)]);
    }

    /// `lane` run alone by [`run_managed`] over a [`QueueIntervalSim`],
    /// with its own stream.
    fn serial_queue_run(lane: &mut QueueLane, intervals: u64, interval_len: u64) -> FaultedRun {
        let QueueLane { structure, policy, clock, injector } = lane;
        let mut stream = ilp_stream();
        let mut sim = QueueIntervalSim::new(structure, &mut stream, interval_len).unwrap();
        run_managed(&mut sim, &mut **policy, clock, intervals, injector.as_mut(), SwitchRetryPolicy::default())
            .unwrap()
    }

    #[test]
    fn lanes_of_their_own_lengths_and_windows_are_each_their_own_run() {
        let lengths = [(200, 500), (50, 2000), (13, 7777), (1, 32_000)];
        let lane = |initial: usize| {
            let mut lane = queue_lane(cap_obs::noop());
            lane.structure.reconfigure(initial).unwrap();
            lane.clock = DynamicClock::for_structure(&lane.structure, 30).unwrap();
            lane
        };
        let mut lanes: Vec<QueueLane> = (0..lengths.len()).map(|l| lane(2 * l + 1)).collect();
        let runs = run_managed_lanes(ilp_stream(), &mut lanes, &lengths).unwrap();
        for (l, (run, &(intervals, len))) in runs.iter().zip(&lengths).enumerate() {
            assert_eq!(*run, serial_queue_run(&mut lane(2 * l + 1), intervals, len), "{intervals}x{len}");
            assert_eq!(run.run.intervals.len() as u64, intervals);
            assert_eq!(run.run.intervals[0].config, 2 * l + 1);
        }
        assert!(runs[0].run.switches > 0);
    }

    #[test]
    fn a_queue_lane_with_an_injector_is_the_faulted_run() {
        let spec = FaultSpec { sample_nan_prob: 0.1, ..FaultSpec::standard() };
        let injector = || FaultInjector::new(spec, 77, 8).unwrap();
        let (ring, lane_ring) = (Arc::new(RingRecorder::new()), Arc::new(RingRecorder::new()));
        let mut lanes = [queue_lane(cap_obs::noop()), queue_lane(lane_ring.clone())];
        lanes[1].injector = Some(injector());
        let runs = run_managed_lanes(ilp_stream(), &mut lanes, &[(60, 1000); 2]).unwrap();

        let mut reference = QueueLane { injector: Some(injector()), ..queue_lane(ring.clone()) };
        let run = serial_queue_run(&mut reference, 60, 1000);
        assert_eq!(runs[1], run);
        assert_ne!(runs[0], run, "the injector must reach its lane only");
        let stats = reference.injector.unwrap().stats();
        assert_eq!(lanes[1].injector.as_ref().unwrap().stats(), stats);
        assert!(stats.transient_switch_faults + stats.samples_corrupted_nan > 0);
        // Corrupted samples trace as NaN, so events compare as JSON.
        assert_eq!(json_events(&lane_ring), json_events(&ring));
    }

    fn json_events(ring: &RingRecorder) -> Vec<String> {
        ring.events().iter().map(Event::to_json).collect()
    }

    fn cache_lane(recorder: Arc<dyn Recorder>) -> CacheLane {
        let structure = CacheStructure::isca98(CacheTimingModel::isca98(Technology::isca98_evaluation()), 0).unwrap();
        let clock = DynamicClock::for_structure(&structure, 30).unwrap();
        let policy = PolicyConfig::new(PolicyKind::Confidence)
            .with_explore_period(25)
            .build(structure.num_configs(), recorder, Some("lane".into()))
            .unwrap();
        CacheLane { structure, policy, clock, injector: None }
    }

    fn mem_stream() -> RegionMix {
        RegionMix::builder(4)
            .region(Region::sequential_loop(0, 24 * 1024, 32), 3.0)
            .region(Region::random(1 << 30, 256 * 1024), 1.0)
            .build()
            .unwrap()
    }

    /// `lane` run alone by [`run_managed`] over a [`CacheIntervalSim`],
    /// with its own stream.
    fn serial_cache_run(lane: &mut CacheLane, intervals: u64, refs: u64) -> FaultedRun {
        let CacheLane { structure, policy, clock, injector } = lane;
        let mut stream = mem_stream();
        let mut sim = CacheIntervalSim::new(structure, &mut stream, refs, 2.5).unwrap();
        run_managed(&mut sim, &mut **policy, clock, intervals, injector.as_mut(), SwitchRetryPolicy::default())
            .unwrap()
    }

    #[test]
    fn one_cache_lane_is_the_generator_fed_run() {
        let (ring, lane_ring) = (Arc::new(RingRecorder::new()), Arc::new(RingRecorder::new()));
        let mut lanes = [cache_lane(lane_ring.clone())];
        let runs = run_managed_cache_lanes(mem_stream(), &mut lanes, 50, 700, 2.5).unwrap();
        let run = serial_cache_run(&mut cache_lane(ring.clone()), 50, 700);
        assert_eq!(runs, [run]);
        assert!(runs[0].run.switches > 0);
        assert_eq!(json_events(&lane_ring), json_events(&ring));
        assert!(ring.events().iter().any(|e| matches!(e, Event::CacheSim(_))));
    }

    #[test]
    fn a_lane_with_retired_increments_runs_beside_a_pristine_lane() {
        let spec = FaultSpec { max_dead_increments: 10, ..FaultSpec::standard() };
        let lanes = || {
            let mut faulty = cache_lane(cap_obs::noop());
            let mut injector = FaultInjector::new(spec, 5, faulty.structure.num_configs()).unwrap();
            let dead = injector.draw_dead_increments(faulty.structure.timing().geometry().increments);
            let unavailable = faulty.structure.retire_increments(dead);
            assert!(!unavailable.is_empty(), "seed 5 retires {dead} increments");
            faulty.policy.mask_unavailable(&unavailable).unwrap();
            faulty.injector = Some(injector);
            [cache_lane(cap_obs::noop()), faulty]
        };
        let mut together = lanes();
        let runs = run_managed_cache_lanes(mem_stream(), &mut together, 80, 500, 2.5).unwrap();
        let mut apart = lanes();
        let reference: Vec<FaultedRun> = apart.iter_mut().map(|lane| serial_cache_run(lane, 80, 500)).collect();
        assert_eq!(runs, reference);
        assert_ne!(runs[0], runs[1]);
        for (lane, alone) in together.iter().zip(&apart) {
            assert_eq!(lane.structure.cache().stats(), alone.structure.cache().stats());
            assert_eq!(lane.structure.current(), alone.structure.current());
        }
        let stats = |lanes: &[CacheLane; 2]| lanes[1].injector.as_ref().unwrap().stats();
        assert_eq!(stats(&together), stats(&apart));
    }

    #[test]
    fn managed_cache_lanes_reject_bad_runs() {
        let lane = || cache_lane(cap_obs::noop());
        rejects(run_managed_cache_lanes(mem_stream(), &mut [lane()], 0, 500, 2.5));
        rejects(run_managed_cache_lanes(mem_stream(), &mut [lane()], 10, 0, 2.5));
        let mut many: Vec<CacheLane> = (0..=LANES).map(|_| lane()).collect();
        rejects(run_managed_cache_lanes(mem_stream(), &mut many, 10, 500, 2.5));
        assert_eq!(run_managed_cache_lanes(mem_stream(), &mut [], 10, 500, 2.5).unwrap(), Vec::new());
    }

    #[test]
    fn managed_cache_run_follows_memory_phases() {
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
        let mut manager = PolicyConfig::new(PolicyKind::Confidence)
            .with_explore_period(25)
            .build(structure.num_configs(), cap_obs::noop(), None)
            .unwrap();
        let mut sim = CacheIntervalSim::new(&mut structure, &mut stream, 4_000, 3.0).unwrap();
        let run = run_managed(&mut sim, &mut *manager, &mut clock, 120, None, SwitchRetryPolicy::default())
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
        let timing = CacheTimingModel::isca98(Technology::isca98_evaluation());
        let mut structure = CacheStructure::isca98(timing, 0).unwrap();
        let mut stream = RegionMix::builder(1).region(Region::random(0, 4096), 1.0).build().unwrap();
        assert!(CacheIntervalSim::new(&mut structure, &mut stream, 0, 3.0).is_err());
    }
}
