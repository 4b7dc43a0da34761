//! One driver per paper artifact.
//!
//! | driver | paper artifact |
//! |---|---|
//! | [`CacheExperiment::figure7`] | Fig 7(a,b): TPI vs L1 size per app |
//! | [`CacheExperiment::figure8`] | Fig 8: TPImiss, conventional vs adaptive |
//! | [`CacheExperiment::figure9`] | Fig 9: TPI, conventional vs adaptive |
//! | [`QueueExperiment::figure10`] | Fig 10(a,b): TPI vs window size per app |
//! | [`QueueExperiment::figure11`] | Fig 11: TPI, conventional vs adaptive |
//! | [`IntervalExperiment::figure12`] | Fig 12(a,b): turb3d interval snapshots |
//! | [`IntervalExperiment::figure13`] | Fig 13(a,b): vortex interval snapshots |
//! | [`CacheExperiment::headline`], [`QueueExperiment::headline`] | §5 headline reductions |
//! | [`IntervalExperiment::policy_comparison`] | §6 extension: interval manager vs process level vs oracle |
//!
//! Each experiment has one entry point, which takes the [`ExecPolicy`]
//! it runs under as its last argument (`&ExecPolicy::serial()` for the
//! plain serial run). Three keep a policy-free form: the single-curve
//! `sweep`s, and [`IntervalExperiment::compare_policies`] next to
//! [`IntervalExperiment::compare_policies_with`].
//!
//! All result types are `serde::Serialize` so the bench binaries can emit
//! machine-readable records alongside their tables.

use crate::clock::{DynamicClock, DEFAULT_SWITCH_PENALTY_CYCLES};
use crate::error::CapError;
use crate::manager::{lane_recorders, run_managed_lanes, ManagedRun, QueueLane};
use crate::metrics::{BarChart, BarPair};
use crate::plan::{run_leg, run_legs, Leg};
use crate::policy::{PolicyConfig, PolicyKind};
use crate::structure::{AdaptiveStructure, QueueStructure};
use cap_cache::config::Boundary;
use cap_cache::perf::PerfParams;
use cap_ooo::config::WindowSize;
use cap_ooo::interval::PAPER_INTERVAL_INSTS;
use cap_ooo::multisweep::interval_lanes;
use cap_obs::{
    CacheProbeEvent, CacheQuarantineEvent, CacheStoreEvent, Event, JournalLegEvent, Recorder,
};
use cap_par::{
    CacheKey, ChaosInjector, Gate, GatePermit, Journal, Pool, ResultCache, SingleFlight,
    WatchdogPolicy,
};
use cap_timing::cacti::CacheTimingModel;
use cap_timing::queue::QueueTimingModel;
use cap_timing::Technology;
use cap_workloads::App;
use serde::Serialize;
use serde_json::{FromJson, Value};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// How much work each experiment simulates.
///
/// The paper runs 100 M references / instructions per application; the
/// scaled tiers keep every experiment's *structure* (workloads are
/// stationary by construction, so the curves converge quickly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// CI-sized: ~60 k events per configuration.
    Smoke,
    /// Bench default: ~400 k events per configuration.
    Default,
    /// Long runs for the recorded EXPERIMENTS.md numbers.
    Full,
}

impl ExperimentScale {
    /// D-cache references per application per configuration.
    pub fn cache_refs(self) -> u64 {
        match self {
            ExperimentScale::Smoke => 60_000,
            ExperimentScale::Default => 400_000,
            ExperimentScale::Full => 2_000_000,
        }
    }

    /// Instructions per application per configuration.
    pub fn queue_insts(self) -> u64 {
        match self {
            ExperimentScale::Smoke => 60_000,
            ExperimentScale::Default => 300_000,
            ExperimentScale::Full => 1_500_000,
        }
    }

    /// Reads `CAP_SCALE` (`smoke` / `default` / `full`). Unset means
    /// `Default`; anything else is rejected loudly — a typo like
    /// `CAP_SCALE=ful` silently falling back to the default tier would
    /// change what a run means without saying so.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::Environment`] naming `CAP_SCALE` for any
    /// value that is not exactly one of the three tier names.
    pub fn from_env() -> Result<Self, CapError> {
        match std::env::var("CAP_SCALE") {
            Err(std::env::VarError::NotPresent) => Ok(ExperimentScale::Default),
            Err(std::env::VarError::NotUnicode(_)) => Err(CapError::Environment {
                message: "CAP_SCALE is not valid UTF-8 (expected smoke, default or full)"
                    .to_string(),
            }),
            Ok(value) => match value.as_str() {
                "smoke" => Ok(ExperimentScale::Smoke),
                "default" => Ok(ExperimentScale::Default),
                "full" => Ok(ExperimentScale::Full),
                other => Err(CapError::Environment {
                    message: format!(
                        "CAP_SCALE={other:?} is not a known scale (expected smoke, default or full)"
                    ),
                }),
            },
        }
    }

    /// The tier's canonical name (used in result-cache keys).
    pub fn name(self) -> &'static str {
        match self {
            ExperimentScale::Smoke => "smoke",
            ExperimentScale::Default => "default",
            ExperimentScale::Full => "full",
        }
    }
}

/// The deterministic root seed used by all experiments unless overridden.
pub const DEFAULT_SEED: u64 = 0x15CA_1998;

/// Bump whenever simulator, workload, or timing semantics change: it is
/// baked into every result-cache key, so old cached sweeps stop
/// replaying the moment the physics moves.
pub const SWEEP_RESULTS_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Execution policy: how many legs in flight, and whether results memoize
// ---------------------------------------------------------------------------

/// The run options a command line may set. Each one that is present
/// wins over its environment variable, which [`ExecPolicy::from_env`]
/// then never reads.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RunFlags {
    /// `--jobs`: the worker count (else `CAP_JOBS`).
    pub jobs: Option<usize>,
    /// `--trace`: the JSONL trace path (else `CAP_TRACE`).
    pub trace: Option<PathBuf>,
    /// `--leg-timeout`: the per-leg deadline (else `CAP_LEG_TIMEOUT`).
    pub leg_timeout: Option<Duration>,
}

/// How an experiment executes: worker count for the leg pool, an
/// optional persistent result cache, an optional write-ahead leg
/// journal, a per-leg watchdog, and the single-flight table and worker
/// gate that every clone of the policy shares — so executors running
/// under clones (the campaign service's requests) compute each distinct
/// leg once, and compute at most `jobs` legs at a time between them.
///
/// Every sweep leg is a pure function of
/// `(experiment kind, app, scale, seed, config range)`, so none of these
/// knobs can change results — only wall-clock (and, for the journal,
/// what survives a crash). The default is the serial policy.
#[derive(Debug, Clone)]
pub struct ExecPolicy {
    jobs: usize,
    cache: Option<ResultCache>,
    recorder: Arc<dyn Recorder>,
    journal: Option<Arc<Mutex<Journal>>>,
    watchdog: WatchdogPolicy,
    chaos: Option<ChaosInjector>,
    flight: Arc<LegFlight>,
    gate: Arc<Gate>,
}

/// The single-flight table every executor holding one policy (or a
/// clone of it) shares. The published value is the leg value plus
/// whether the leader found it in the result cache rather than
/// computing it.
pub type LegFlight = SingleFlight<Result<(Value, bool), CapError>>;

impl ExecPolicy {
    /// One leg at a time, no memoization — the reference path.
    pub fn serial() -> Self {
        Self::with_jobs(1)
    }

    /// A policy with `jobs` workers, a gate of as many permits, and no
    /// memoization.
    pub fn with_jobs(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        ExecPolicy {
            jobs,
            cache: None,
            recorder: cap_obs::noop(),
            journal: None,
            watchdog: WatchdogPolicy::none(),
            chaos: None,
            flight: Arc::new(LegFlight::new()),
            gate: Arc::new(Gate::new(jobs)),
        }
    }

    /// Attaches a persistent result cache.
    pub fn cached(mut self, cache: ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a trace recorder. The pool, the result cache and every
    /// managed run driven under this policy report into it.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches a write-ahead leg journal: completed legs are committed
    /// to it and replayed on `--resume` instead of recomputed. Clones of
    /// the policy share the journal (appends are serialized by its
    /// mutex and idempotent per leg key).
    #[must_use]
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = Some(Arc::new(Mutex::new(journal)));
        self
    }

    /// Attaches a per-leg watchdog policy (the deadline every computed
    /// leg runs under).
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: WatchdogPolicy) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// The policy a run asks for: each option in `flags` wins, and its
    /// environment variable is read only when the flag is absent.
    /// `--jobs` falls back to `CAP_JOBS`, then to the machine's
    /// parallelism; `--trace` to `CAP_TRACE` (a JSONL output path);
    /// `--leg-timeout` to `CAP_LEG_TIMEOUT`. The cache comes from
    /// `CAP_CACHE_DIR` unless `CAP_NO_CACHE` is set, chaos injection from
    /// `CAP_CHAOS_PANIC` / `CAP_CHAOS_STALL`.
    ///
    /// A cache directory named by `CAP_CACHE_DIR` is probed for
    /// writability up front, so a campaign fails before its first leg —
    /// not hours in, when the first store is attempted.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::Environment`] for a malformed control
    /// variable or an unusable cache/trace path — loud failure instead
    /// of a silent fallback that would change what the run means.
    pub fn from_env(flags: &RunFlags) -> Result<Self, CapError> {
        let env = |message| CapError::Environment { message };
        let jobs = cap_par::effective_jobs(flags.jobs).map_err(env)?;
        let recorder = cap_obs::resolve_recorder(flags.trace.as_deref())
            .map_err(env)?
            .unwrap_or_else(cap_obs::noop);
        let watchdog = WatchdogPolicy::resolve(flags.leg_timeout).map_err(env)?;
        let chaos = ChaosInjector::from_env().map_err(env)?;
        let cache = ResultCache::from_env();
        if let Some(cache) = &cache {
            cache.ensure_writable().map_err(|e| env(format!("CAP_CACHE_DIR is unusable: {e}")))?;
        }
        Ok(ExecPolicy { cache, recorder, watchdog, chaos, ..Self::with_jobs(jobs) })
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The attached result cache, if any.
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_ref()
    }

    /// The attached trace recorder (the no-op recorder by default).
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// The attached leg journal, if any.
    pub fn journal(&self) -> Option<&Arc<Mutex<Journal>>> {
        self.journal.as_ref()
    }

    /// The per-leg watchdog policy.
    pub fn watchdog(&self) -> &WatchdogPolicy {
        &self.watchdog
    }

    /// The attached chaos injector, if any.
    pub(crate) fn chaos(&self) -> Option<&ChaosInjector> {
        self.chaos.as_ref()
    }

    pub(crate) fn pool(&self) -> Pool {
        Pool::new(self.jobs).with_recorder(self.recorder.clone())
    }

    /// The single-flight table shared by every clone of this policy.
    pub(crate) fn flight(&self) -> &LegFlight {
        &self.flight
    }

    /// Claims a slot from the worker gate shared by every clone of this
    /// policy. The permit travels with a leg's compute and is freed when
    /// the compute ends — never held while waiting on a single-flight
    /// slot.
    pub(crate) fn acquire_worker(&self) -> GatePermit {
        self.gate.acquire()
    }

    /// Journal lookup with a `journal-leg` replay event. Returns the
    /// committed value if this leg already completed in a prior run.
    pub(crate) fn journal_lookup(&self, leg: &str) -> Option<Value> {
        let journal = self.journal.as_ref()?;
        let hit = journal.lock().unwrap_or_else(PoisonError::into_inner).lookup(leg)?;
        if self.recorder.enabled() {
            self.recorder.record(&Event::JournalLeg(JournalLegEvent {
                leg: leg.to_string(),
                action: "replayed",
            }));
        }
        Some(hit)
    }

    /// Commits one completed leg to the journal (atomic rewrite). A
    /// journal write failure is reported to stderr and the run
    /// continues — losing resumability must not lose the campaign.
    pub(crate) fn journal_append<T: Serialize>(&self, leg: &str, value: &T) {
        let Some(journal) = self.journal.as_ref() else {
            return;
        };
        let result =
            journal.lock().unwrap_or_else(PoisonError::into_inner).append(leg, value);
        if let Err(e) = result {
            eprintln!("warning: journal append failed for leg `{leg}`: {e}");
            return;
        }
        if self.recorder.enabled() {
            self.recorder.record(&Event::JournalLeg(JournalLegEvent {
                leg: leg.to_string(),
                action: "appended",
            }));
        }
    }

    /// Result-cache lookup with probe classification emitted to the
    /// recorder. Returns the decoded value on a clean hit.
    pub(crate) fn probe_cache(&self, key: &CacheKey) -> Option<Value> {
        let cache = self.cache.as_ref()?;
        let (value, outcome) = cache.probe(key);
        if self.recorder.enabled() {
            self.recorder.record(&Event::CacheProbe(CacheProbeEvent {
                kind: key.kind.clone(),
                app: key.app.clone(),
                outcome: outcome.tag(),
            }));
            if outcome.quarantines() {
                self.recorder.record(&Event::CacheQuarantine(CacheQuarantineEvent {
                    kind: key.kind.clone(),
                    app: key.app.clone(),
                    outcome: outcome.tag(),
                }));
            }
        }
        value
    }

    /// Result-cache store with the write result emitted to the recorder.
    pub(crate) fn store_cache<T: Serialize>(&self, key: &CacheKey, value: &T) {
        if let Some(cache) = &self.cache {
            let ok = cache.store(key, value);
            if self.recorder.enabled() {
                self.recorder.record(&Event::CacheStore(CacheStoreEvent {
                    kind: key.kind.clone(),
                    app: key.app.clone(),
                    ok,
                }));
            }
        }
    }

}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self::serial()
    }
}

// ---------------------------------------------------------------------------
// Cache study (Figures 7, 8, 9)
// ---------------------------------------------------------------------------

/// One point of a Figure 7 curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, FromJson)]
pub struct CachePoint {
    /// L1 capacity in KB.
    pub l1_kb: usize,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// Cycle time at this boundary (ns).
    pub cycle_ns: f64,
    /// Average TPI (ns).
    pub tpi_ns: f64,
    /// Average TPImiss (ns).
    pub tpi_miss_ns: f64,
    /// L1 miss ratio.
    pub l1_miss_ratio: f64,
    /// Global (both-level) miss ratio.
    pub global_miss_ratio: f64,
}

/// One application's Figure 7 series.
#[derive(Debug, Clone, PartialEq, Serialize, FromJson)]
pub struct CacheCurve {
    /// Application name.
    pub app: String,
    /// Whether the paper plots it in the integer panel (a).
    pub integer_panel: bool,
    /// TPI versus L1 size, ascending.
    pub points: Vec<CachePoint>,
}

impl CacheCurve {
    /// The best (lowest-TPI) point; ties break toward the faster clock.
    pub fn best(&self) -> &CachePoint {
        self.points
            .iter()
            .min_by(|a, b| a.tpi_ns.total_cmp(&b.tpi_ns))
            .expect("curves are nonempty")
    }

    /// The point at the paper's best conventional boundary (16 KB 4-way).
    pub fn conventional(&self) -> &CachePoint {
        self.points
            .iter()
            .find(|p| p.l1_kb == Boundary::best_conventional().l1_kb())
            .expect("the conventional boundary is part of the sweep")
    }
}

/// Headline numbers of the cache study (paper §5.2.3).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CacheHeadline {
    /// Average TPImiss reduction (paper: 26 %).
    pub tpimiss_reduction: f64,
    /// Average TPI reduction (paper: 9 %).
    pub tpi_reduction: f64,
    /// stereo's TPI reduction (paper: 46 %).
    pub stereo_tpi_reduction: f64,
    /// stereo's TPImiss reduction (paper: 65 %).
    pub stereo_tpimiss_reduction: f64,
    /// appcg's TPI reduction (paper: 22 %).
    pub appcg_tpi_reduction: f64,
    /// compress's TPImiss reduction (paper: 43 %).
    pub compress_tpimiss_reduction: f64,
}

/// Driver for the cache study.
#[derive(Debug, Clone)]
pub struct CacheExperiment {
    timing: CacheTimingModel,
    scale: ExperimentScale,
    seed: u64,
}

impl CacheExperiment {
    /// Creates the driver at the paper's 0.18 µm evaluation point.
    ///
    /// # Errors
    ///
    /// Currently infallible; `Result` is kept for future geometry
    /// parameters.
    pub fn new(scale: ExperimentScale) -> Result<Self, CapError> {
        Ok(CacheExperiment {
            timing: CacheTimingModel::isca98(Technology::isca98_evaluation()),
            scale,
            seed: DEFAULT_SEED,
        })
    }

    /// Overrides the root seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The timing model in use.
    pub fn timing(&self) -> &CacheTimingModel {
        &self.timing
    }

    /// The whole curve in one traversal: every reference is classified
    /// by stack distance once and all boundaries are answered from the
    /// histogram ([`cap_cache::multisweep`]). `cap-verify` holds it
    /// bit-identical to the per-boundary reference
    /// [`cap_cache::sim::sweep_point`].
    fn curve_points(&self, app: App) -> Result<Vec<CachePoint>, CapError> {
        let profile = app.memory_profile();
        let points = cap_cache::multisweep::multisweep(
            profile.build(self.seed ^ app.seed_salt()),
            self.scale.cache_refs(),
            Boundary::paper_sweep(),
            &self.timing,
            PerfParams::isca98(profile.insts_per_ref),
        )?;
        Ok(points
            .into_iter()
            .map(|p| CachePoint {
                l1_kb: p.boundary.l1_kb(),
                l1_assoc: p.boundary.l1_assoc(),
                cycle_ns: p.tpi.cycle.value(),
                tpi_ns: p.tpi.total_tpi().value(),
                tpi_miss_ns: p.tpi.miss_tpi.value(),
                l1_miss_ratio: p.stats.l1_miss_ratio(),
                global_miss_ratio: p.stats.global_miss_ratio(),
            })
            .collect())
    }

    /// The result-cache identity of one application's curve.
    fn curve_key(&self, app: App) -> CacheKey {
        let boundaries: Vec<Boundary> = Boundary::paper_sweep().collect();
        CacheKey {
            kind: "cache-sweep".to_string(),
            app: app.name().to_string(),
            scale: self.scale.name().to_string(),
            seed: self.seed,
            config_range: format!(
                "L1 {}..{}KB x{} @{}refs",
                boundaries.first().map_or(0, |b| b.l1_kb()),
                boundaries.last().map_or(0, |b| b.l1_kb()),
                boundaries.len(),
                self.scale.cache_refs()
            ),
            version: SWEEP_RESULTS_VERSION,
            policy: None,
        }
    }

    fn assemble_curve(app: App, points: Vec<CachePoint>) -> CacheCurve {
        CacheCurve {
            app: app.name().to_string(),
            integer_panel: app.in_integer_panel(),
            points,
        }
    }

    /// One application's curve as a content-addressed plan leg.
    pub(crate) fn curve_leg(&self, app: App) -> Leg {
        let me = self.clone();
        Leg::cached(self.curve_key(app), move |_| Ok(Self::assemble_curve(app, me.curve_points(app)?)))
    }

    /// Sweeps every boundary for one application (one Figure 7 curve),
    /// serially and without memoization.
    ///
    /// # Errors
    ///
    /// Propagates timing-model errors.
    pub fn sweep(&self, app: App) -> Result<CacheCurve, CapError> {
        let serial = ExecPolicy::serial();
        run_leg("cache-sweep", self.curve_leg(app), &serial)
    }

    /// All 21 Figure 7 curves: a plan of one content-addressed curve leg
    /// per application, executed by the one [`Executor`](crate::plan::Executor) kernel — curves
    /// already journaled or cached replay, the rest run as one pool
    /// batch, and completed curves are committed even when another leg
    /// fails or the batch drains, so `--resume` replays finished work
    /// instead of recomputing it.
    ///
    /// # Errors
    ///
    /// Propagates timing-model errors.
    pub fn figure7(&self, exec: &ExecPolicy) -> Result<Vec<CacheCurve>, CapError> {
        let legs = App::cache_suite().map(|app| self.curve_leg(app));
        run_legs("figure7", legs, exec)
    }

    /// The Figure 8/9 bar chart derived purely from already-swept
    /// curves (the reduce step shared by the figure wrappers and the
    /// plan builders).
    pub(crate) fn chart_from_curves(
        curves: &[CacheCurve],
        metric: impl Fn(&CachePoint) -> f64,
    ) -> BarChart {
        let mut bars = Vec::new();
        for curve in curves {
            let best = curve.best();
            let conv = curve.conventional();
            bars.push(BarPair {
                app: curve.app.clone(),
                conventional: metric(conv),
                adaptive: metric(best),
                chosen: format!("L1={}KB/{}-way", best.l1_kb, best.l1_assoc),
            });
        }
        BarChart { bars }
    }

    fn bar_chart(&self, exec: &ExecPolicy, metric: impl Fn(&CachePoint) -> f64) -> Result<BarChart, CapError> {
        Ok(Self::chart_from_curves(&self.figure7(exec)?, metric))
    }

    /// Figure 8: TPImiss, best conventional versus process-level adaptive.
    ///
    /// # Errors
    ///
    /// Propagates timing-model errors.
    pub fn figure8(&self, exec: &ExecPolicy) -> Result<BarChart, CapError> {
        // The adaptive column fixes the *TPI-optimal* configuration per
        // app (the paper optimizes overall TPI, which is why adaptive
        // TPImiss is occasionally higher than conventional).
        self.bar_chart(exec, |p| p.tpi_miss_ns)
    }

    /// Figure 9: TPI, best conventional versus process-level adaptive.
    ///
    /// # Errors
    ///
    /// Propagates timing-model errors.
    pub fn figure9(&self, exec: &ExecPolicy) -> Result<BarChart, CapError> {
        self.bar_chart(exec, |p| p.tpi_ns)
    }

    /// The §5.2.3 headline numbers (one curve sweep; both charts reduce
    /// from the same curves).
    ///
    /// # Errors
    ///
    /// Propagates timing-model errors.
    pub fn headline(&self, exec: &ExecPolicy) -> Result<CacheHeadline, CapError> {
        Ok(Self::headline_from_curves(&self.figure7(exec)?))
    }

    /// The §5.2.3 headline numbers as a pure reduction over curves.
    pub(crate) fn headline_from_curves(curves: &[CacheCurve]) -> CacheHeadline {
        let f8 = Self::chart_from_curves(curves, |p| p.tpi_miss_ns);
        let f9 = Self::chart_from_curves(curves, |p| p.tpi_ns);
        let get = |c: &BarChart, app: &str| c.bar(app).map(|b| b.reduction()).unwrap_or(0.0);
        CacheHeadline {
            tpimiss_reduction: f8.average_reduction(),
            tpi_reduction: f9.average_reduction(),
            stereo_tpi_reduction: get(&f9, "stereo"),
            stereo_tpimiss_reduction: get(&f8, "stereo"),
            appcg_tpi_reduction: get(&f9, "appcg"),
            compress_tpimiss_reduction: get(&f8, "compress"),
        }
    }
}

// ---------------------------------------------------------------------------
// Queue study (Figures 10, 11)
// ---------------------------------------------------------------------------

/// One point of a Figure 10 curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, FromJson)]
pub struct QueuePoint {
    /// Window entries.
    pub entries: usize,
    /// Cycle time at this window size (ns).
    pub cycle_ns: f64,
    /// Measured IPC.
    pub ipc: f64,
    /// Average TPI (ns).
    pub tpi_ns: f64,
}

/// One application's Figure 10 series.
#[derive(Debug, Clone, PartialEq, Serialize, FromJson)]
pub struct QueueCurve {
    /// Application name.
    pub app: String,
    /// Whether the paper plots it in the integer panel (a).
    pub integer_panel: bool,
    /// TPI versus window size, ascending.
    pub points: Vec<QueuePoint>,
}

impl QueueCurve {
    /// The best (lowest-TPI) point.
    pub fn best(&self) -> &QueuePoint {
        self.points
            .iter()
            .min_by(|a, b| a.tpi_ns.total_cmp(&b.tpi_ns))
            .expect("curves are nonempty")
    }

    /// The point at the paper's best conventional window (64 entries).
    pub fn conventional(&self) -> &QueuePoint {
        self.points
            .iter()
            .find(|p| p.entries == WindowSize::best_conventional().entries())
            .expect("the conventional window is part of the sweep")
    }
}

/// Headline numbers of the queue study (paper §5.3).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QueueHeadline {
    /// Average TPI reduction (paper: 7 %).
    pub tpi_reduction: f64,
    /// appcg's TPI reduction (paper: 28 %).
    pub appcg_tpi_reduction: f64,
    /// fpppp's TPI reduction (paper: 21 %).
    pub fpppp_tpi_reduction: f64,
    /// radar's TPI reduction (paper: 10 %).
    pub radar_tpi_reduction: f64,
    /// compress's TPI reduction (paper: 8 %).
    pub compress_tpi_reduction: f64,
}

/// Driver for the instruction-queue study.
#[derive(Debug, Clone)]
pub struct QueueExperiment {
    timing: QueueTimingModel,
    scale: ExperimentScale,
    seed: u64,
}

impl QueueExperiment {
    /// Creates the driver at the paper's 0.18 µm evaluation point.
    pub fn new(scale: ExperimentScale) -> Self {
        QueueExperiment {
            timing: QueueTimingModel::new(Technology::isca98_evaluation()),
            scale,
            seed: DEFAULT_SEED,
        }
    }

    /// Overrides the root seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The timing model in use.
    pub fn timing(&self) -> &QueueTimingModel {
        &self.timing
    }

    /// The whole curve from one pass over the generated stream: every
    /// window size is scheduled in lock step ([`cap_ooo::multisweep`]).
    /// `cap-verify` holds it bit-identical to the per-window reference
    /// [`cap_ooo::perf::sweep_point`].
    fn curve_points(&self, app: App) -> Result<Vec<QueuePoint>, CapError> {
        let stream = app.ilp_profile().build(self.seed ^ app.seed_salt());
        let points = cap_ooo::multisweep::multisweep(
            stream,
            self.scale.queue_insts(),
            WindowSize::paper_sweep(),
            &self.timing,
        )?;
        Ok(points
            .into_iter()
            .map(|p| QueuePoint {
                entries: p.window.entries(),
                cycle_ns: p.cycle.value(),
                ipc: p.stats.ipc(),
                tpi_ns: p.tpi.value(),
            })
            .collect())
    }

    /// The result-cache identity of one application's curve.
    fn curve_key(&self, app: App) -> CacheKey {
        let windows: Vec<WindowSize> = WindowSize::paper_sweep().collect();
        CacheKey {
            kind: "queue-sweep".to_string(),
            app: app.name().to_string(),
            scale: self.scale.name().to_string(),
            seed: self.seed,
            config_range: format!(
                "W {}..{} x{} @{}insts",
                windows.first().map_or(0, |w| w.entries()),
                windows.last().map_or(0, |w| w.entries()),
                windows.len(),
                self.scale.queue_insts()
            ),
            version: SWEEP_RESULTS_VERSION,
            policy: None,
        }
    }

    fn assemble_curve(app: App, points: Vec<QueuePoint>) -> QueueCurve {
        QueueCurve {
            app: app.name().to_string(),
            integer_panel: app.in_integer_panel(),
            points,
        }
    }

    /// One application's curve as a content-addressed plan leg (see
    /// [`CacheExperiment::curve_leg`]).
    pub(crate) fn curve_leg(&self, app: App) -> Leg {
        let me = self.clone();
        Leg::cached(self.curve_key(app), move |_| Ok(Self::assemble_curve(app, me.curve_points(app)?)))
    }

    /// Sweeps every window size for one application (one Figure 10
    /// curve), serially and without memoization.
    ///
    /// # Errors
    ///
    /// Propagates timing-model errors.
    pub fn sweep(&self, app: App) -> Result<QueueCurve, CapError> {
        let serial = ExecPolicy::serial();
        run_leg("queue-sweep", self.curve_leg(app), &serial)
    }

    /// All 22 Figure 10 curves: one plan leg per application, deduped
    /// and batched by the [`Executor`](crate::plan::Executor).
    ///
    /// # Errors
    ///
    /// Propagates timing-model errors.
    pub fn figure10(&self, exec: &ExecPolicy) -> Result<Vec<QueueCurve>, CapError> {
        let legs = App::queue_suite().map(|app| self.curve_leg(app));
        run_legs("figure10", legs, exec)
    }

    /// Figure 11: TPI, best conventional (64-entry) versus process-level
    /// adaptive.
    ///
    /// # Errors
    ///
    /// Propagates timing-model errors.
    pub fn figure11(&self, exec: &ExecPolicy) -> Result<BarChart, CapError> {
        Ok(Self::chart_from_curves(&self.figure10(exec)?))
    }

    /// The Figure 11 bar chart as a pure reduction over Figure 10 curves.
    pub(crate) fn chart_from_curves(curves: &[QueueCurve]) -> BarChart {
        let mut bars = Vec::new();
        for curve in curves {
            let best = curve.best();
            let conv = curve.conventional();
            bars.push(BarPair {
                app: curve.app.clone(),
                conventional: conv.tpi_ns,
                adaptive: best.tpi_ns,
                chosen: format!("{}-entry", best.entries),
            });
        }
        BarChart { bars }
    }

    /// The §5.3 headline numbers.
    ///
    /// # Errors
    ///
    /// Propagates timing-model errors.
    pub fn headline(&self, exec: &ExecPolicy) -> Result<QueueHeadline, CapError> {
        Ok(Self::headline_from_curves(&self.figure10(exec)?))
    }

    /// The §5.3 headline as a pure reduction over Figure 10 curves.
    pub(crate) fn headline_from_curves(curves: &[QueueCurve]) -> QueueHeadline {
        let f11 = Self::chart_from_curves(curves);
        let get = |app: &str| f11.bar(app).map(|b| b.reduction()).unwrap_or(0.0);
        QueueHeadline {
            tpi_reduction: f11.average_reduction(),
            appcg_tpi_reduction: get("appcg"),
            fpppp_tpi_reduction: get("fpppp"),
            radar_tpi_reduction: get("radar"),
            compress_tpi_reduction: get("compress"),
        }
    }
}

// ---------------------------------------------------------------------------
// Section 6: interval snapshots (Figures 12, 13) and the adaptive manager
// ---------------------------------------------------------------------------

/// One interval of a two-configuration snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SnapshotPoint {
    /// Interval index (2000-instruction intervals from run start).
    pub interval: u64,
    /// TPI of the smaller configuration (ns).
    pub tpi_small: f64,
    /// TPI of the larger configuration (ns).
    pub tpi_large: f64,
}

/// The windows and interval ranges of one Figure 12/13 snapshot pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SnapshotWindows {
    /// The figure's name (`"figure12"`).
    pub(crate) name: &'static str,
    /// The application traced.
    pub(crate) app: App,
    /// The smaller window, in entries.
    pub(crate) small: usize,
    /// The larger window, in entries.
    pub(crate) large: usize,
    /// Snapshot (a)'s intervals.
    pub(crate) range_a: std::ops::Range<u64>,
    /// Snapshot (b)'s intervals.
    pub(crate) range_b: std::ops::Range<u64>,
}

/// Figures 12 and 13, as run by [`IntervalExperiment::figure12`] and
/// [`IntervalExperiment::figure13`] and planned by
/// [`crate::plan::figures_plan`].
pub(crate) const SNAPSHOT_FIGURES: [SnapshotWindows; 2] = [
    // turb3d's phases are 760k + 440k instructions = 380 + 220
    // intervals: (a) falls in a 64-preferring phase, (b) in a
    // 128-preferring one.
    SnapshotWindows {
        name: "figure12",
        app: App::Turb3d,
        small: 64,
        large: 128,
        range_a: 60..260,
        range_b: 420..540,
    },
    // vortex: (a) is the first 3 regular alternations (90 intervals),
    // (b) the irregular micro-phase tail at 180k..220k instructions.
    SnapshotWindows {
        name: "figure13",
        app: App::Vortex,
        small: 16,
        large: 64,
        range_a: 0..90,
        range_b: 90..110,
    },
];

/// A Figure 12/13-style pair of execution snapshots.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IntervalFigure {
    /// Application name.
    pub app: String,
    /// Label of the smaller configuration (e.g. `"64 entries"`).
    pub small_label: String,
    /// Label of the larger configuration.
    pub large_label: String,
    /// Snapshot (a).
    pub snapshot_a: Vec<SnapshotPoint>,
    /// Snapshot (b).
    pub snapshot_b: Vec<SnapshotPoint>,
}

impl IntervalFigure {
    /// The per-interval winner sequence of a snapshot (0 = the smaller
    /// configuration, 1 = the larger) — the input to the Section 6
    /// pattern predictor.
    pub fn winners(points: &[SnapshotPoint]) -> Vec<usize> {
        points.iter().map(|p| usize::from(p.tpi_small >= p.tpi_large)).collect()
    }

    /// Evaluates the Section 6 pattern predictor on both snapshots: on
    /// the regular snapshot it should achieve high coverage and accuracy,
    /// on the irregular one the confidence threshold should make it
    /// abstain (paper: "a confidence level should be assigned to
    /// predictions to avoid unnecessary reconfiguration overhead").
    pub fn pattern_predictability(&self, min_confidence: f64) -> (crate::pattern::PatternEvaluation, crate::pattern::PatternEvaluation) {
        let a = crate::pattern::PatternPredictor::evaluate(&Self::winners(&self.snapshot_a), 64, min_confidence);
        let b = crate::pattern::PatternPredictor::evaluate(&Self::winners(&self.snapshot_b), 64, min_confidence);
        (a, b)
    }

    fn wins(points: &[SnapshotPoint]) -> (usize, usize) {
        let small = points.iter().filter(|p| p.tpi_small < p.tpi_large).count();
        (small, points.len() - small)
    }

    /// `(small_wins, large_wins)` over snapshot (a).
    pub fn snapshot_a_wins(&self) -> (usize, usize) {
        Self::wins(&self.snapshot_a)
    }

    /// `(small_wins, large_wins)` over snapshot (b).
    pub fn snapshot_b_wins(&self) -> (usize, usize) {
        Self::wins(&self.snapshot_b)
    }
}

/// §6 extension result: the interval-adaptive manager versus the
/// process-level choice and the per-interval oracle.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdaptiveComparison {
    /// Application name.
    pub app: String,
    /// Average TPI of the best fixed configuration (process level), ns.
    pub process_level_tpi: f64,
    /// Average TPI under the interval manager, ns.
    pub managed_tpi: f64,
    /// Average TPI of the per-interval oracle envelope (switching free
    /// and prescient), ns.
    pub oracle_tpi: f64,
    /// Reconfigurations the manager performed.
    pub switches: u64,
    /// Intervals simulated.
    pub intervals: u64,
}

/// One configuration-management policy's line of a comparison table.
#[derive(Debug, Clone, PartialEq, Serialize, FromJson)]
pub struct PolicyRow {
    /// Policy name (see [`PolicyKind::name`]).
    pub policy: String,
    /// Average TPI under this policy, ns.
    pub tpi_ns: f64,
    /// Reconfigurations the policy performed.
    pub switches: u64,
}

/// One application's managed run repeated under every policy in the
/// catalog, on identical interval streams.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PolicyComparison {
    /// Application name.
    pub app: String,
    /// Intervals simulated per policy.
    pub intervals: u64,
    /// One row per [`PolicyKind`], in [`PolicyKind::ALL`] order.
    pub rows: Vec<PolicyRow>,
}

/// Driver for the Section 6 experiments.
#[derive(Debug, Clone)]
pub struct IntervalExperiment {
    timing: QueueTimingModel,
    seed: u64,
}

impl IntervalExperiment {
    /// Creates the driver at the paper's 0.18 µm evaluation point.
    pub fn new() -> Self {
        IntervalExperiment { timing: QueueTimingModel::new(Technology::isca98_evaluation()), seed: DEFAULT_SEED }
    }

    /// Overrides the root seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Per-interval TPI of one application under a fixed window size, as
    /// one plan leg: the policy contributes memoization, not fan-out.
    ///
    /// # Errors
    ///
    /// [`CapError::InvalidParameter`] for zero intervals; otherwise
    /// propagates timing-model errors.
    pub fn interval_series(
        &self,
        app: App,
        window: usize,
        intervals: u64,
        exec: &ExecPolicy,
    ) -> Result<Vec<f64>, CapError> {
        check_intervals(intervals)?;
        run_leg("interval-series", self.series_legs(app, &[window], intervals).remove(0), exec)
    }

    /// The cache key of a `kind` leg over `intervals` of `app`'s stream.
    fn interval_key(&self, kind: &str, app: App, intervals: u64, config_range: String, policy: Option<&str>) -> CacheKey {
        CacheKey {
            kind: kind.to_string(),
            app: app.name().to_string(),
            scale: format!("{intervals}x{PAPER_INTERVAL_INSTS}insts"),
            seed: self.seed,
            config_range,
            version: SWEEP_RESULTS_VERSION,
            policy: policy.map(str::to_string),
        }
    }

    /// One fixed-window interval series leg per window (at most eight), in
    /// `windows` order. The legs share one computation ([`Leg::shared`]):
    /// every window's series is a lane of one pass ([`interval_lanes`]).
    pub(crate) fn series_legs(&self, app: App, windows: &[usize], intervals: u64) -> Vec<Leg> {
        let keys = windows.iter().map(|w| self.interval_key("interval-series", app, intervals, format!("W {w}"), None));
        let (me, windows) = (self.clone(), windows.to_vec());
        let compute = move |_: &ExecPolicy| {
            let cycles = windows.iter().map(|&w| me.timing.cycle_time(w)).collect::<Result<Vec<_>, _>>()?;
            let sizes = windows.iter().map(|&w| WindowSize::new(w)).collect::<Result<Vec<_>, _>>()?;
            let lanes = interval_lanes(me.stream(app), &sizes, intervals, PAPER_INTERVAL_INSTS)?;
            Ok(lanes
                .iter()
                .zip(cycles)
                .map(|(samples, cycle)| samples.iter().map(|s| s.tpi(cycle).value()).collect())
                .collect())
        };
        Leg::shared(keys.collect(), compute, |series: &Vec<f64>, _| series.clone())
    }

    /// The two fixed-window series legs one snapshot figure slices:
    /// `[small, large]`, each long enough for both snapshots.
    pub(crate) fn snapshot_legs(&self, fig: &SnapshotWindows) -> Vec<Leg> {
        let total = fig.range_a.end.max(fig.range_b.end);
        self.series_legs(fig.app, &[fig.small, fig.large], total)
    }

    /// Slices the two fixed-window series of [`Self::snapshot_legs`] into
    /// a Figure 12/13-style pair of snapshots (a pure reduction).
    pub(crate) fn assemble_figure(fig: &SnapshotWindows, s: &[f64], l: &[f64]) -> IntervalFigure {
        let slice = |r: &std::ops::Range<u64>| {
            r.clone()
                .map(|i| SnapshotPoint {
                    interval: i,
                    tpi_small: s[i as usize],
                    tpi_large: l[i as usize],
                })
                .collect()
        };
        IntervalFigure {
            app: fig.app.name().to_string(),
            small_label: format!("{} entries", fig.small),
            large_label: format!("{} entries", fig.large),
            snapshot_a: slice(&fig.range_a),
            snapshot_b: slice(&fig.range_b),
        }
    }

    fn snapshot(&self, fig: &SnapshotWindows, exec: &ExecPolicy) -> Result<IntervalFigure, CapError> {
        let series: Vec<Vec<f64>> = run_legs("interval-snapshot", self.snapshot_legs(fig), exec)?;
        Ok(Self::assemble_figure(fig, &series[0], &series[1]))
    }

    /// Intra-application ILP variation at a fixed 128-entry window:
    /// `(min, max, max/min)` of the per-interval IPC.
    ///
    /// The paper's introduction motivates CAPs with Wall's observation
    /// that "the amount of ILP within an individual application varied
    /// during execution by up to a factor of three"; this measures the
    /// same quantity on the synthetic workloads.
    ///
    /// # Errors
    ///
    /// [`CapError::InvalidParameter`] for zero intervals; otherwise
    /// propagates timing-model errors.
    pub fn ilp_variation(&self, app: App, intervals: u64) -> Result<(f64, f64, f64), CapError> {
        check_intervals(intervals)?;
        let samples = interval_lanes(self.stream(app), &[WindowSize::new(128)?], intervals, PAPER_INTERVAL_INSTS)?.remove(0);
        let ipcs: Vec<f64> = samples.iter().map(|s| s.insts as f64 / s.cycles as f64).collect();
        let min = ipcs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ipcs.iter().cloned().fold(0.0f64, f64::max);
        Ok((min, max, max / min))
    }

    /// Figure 12: turb3d under 64- and 128-entry windows. Snapshot (a)
    /// falls in a 64-preferring phase, snapshot (b) in a 128-preferring
    /// phase. The two window series are two lanes of one pass.
    ///
    /// # Errors
    ///
    /// Propagates timing-model errors.
    pub fn figure12(&self, exec: &ExecPolicy) -> Result<IntervalFigure, CapError> {
        self.snapshot(&SNAPSHOT_FIGURES[0], exec)
    }

    /// Figure 13: vortex under 16- and 64-entry windows. Snapshot (a)
    /// covers the regular ~15-interval alternation; snapshot (b) covers
    /// the irregular micro-phase stretch. The two window series are two
    /// lanes of one pass.
    ///
    /// # Errors
    ///
    /// Propagates timing-model errors.
    pub fn figure13(&self, exec: &ExecPolicy) -> Result<IntervalFigure, CapError> {
        self.snapshot(&SNAPSHOT_FIGURES[1], exec)
    }

    /// The offline references every managed run is judged against: the
    /// best fixed configuration (process level) and the per-interval
    /// oracle envelope, both averaged over `intervals`.
    fn offline_optima(&self, app: App, intervals: u64, exec: &ExecPolicy) -> Result<(f64, f64), CapError> {
        // Fixed runs at every configuration (for process level + oracle).
        let windows: Vec<usize> = WindowSize::paper_sweep().map(WindowSize::entries).collect();
        let series: Vec<Vec<f64>> = run_legs("offline-optima", self.series_legs(app, &windows, intervals), exec)?;
        let totals: Vec<f64> = series.iter().map(|s| s.iter().sum::<f64>()).collect();
        let process_level = totals.iter().cloned().fold(f64::INFINITY, f64::min) / intervals as f64;
        let oracle = (0..intervals as usize)
            .map(|i| series.iter().map(|s| s[i]).fold(f64::INFINITY, f64::min))
            .sum::<f64>()
            / intervals as f64;
        Ok((process_level, oracle))
    }

    /// A fresh managed queue, clock and `config` policy tracing to
    /// `recorder`, as every managed run of `app` starts.
    fn managed_lane(
        &self,
        app: App,
        config: &PolicyConfig,
        recorder: Arc<dyn Recorder>,
    ) -> Result<QueueLane, CapError> {
        let structure = QueueStructure::isca98(self.timing, 0)?;
        let clock = DynamicClock::for_structure(&structure, DEFAULT_SWITCH_PENALTY_CYCLES)?;
        let policy = config.build(structure.num_configs(), recorder, Some(app.name().to_string()))?;
        Ok(QueueLane { structure, policy, clock, injector: None })
    }

    /// `app`'s instruction stream under this driver's seed.
    fn stream(&self, app: App) -> impl cap_trace::inst::InstStream {
        app.ilp_profile().build(self.seed ^ app.seed_salt())
    }

    /// Runs the §6 interval-adaptive manager — or any other
    /// [`PolicyConfig`] in the catalog — on an application and compares
    /// it with the process-level choice and the per-interval oracle: one
    /// [`AdaptiveComparison`] per config, in `configs` order. The
    /// fixed-configuration reference series are one leg per window size,
    /// computed once as the lanes of one pass; the managed runs, one per
    /// config (at most eight), are the lanes of another. Traced, each
    /// run's events are replayed in `configs` order, as if the runs were
    /// made one after another.
    ///
    /// # Errors
    ///
    /// [`CapError::InvalidParameter`] for zero intervals or more than
    /// eight configs; otherwise propagates configuration errors.
    pub fn policy_comparison(
        &self,
        app: App,
        intervals: u64,
        configs: &[PolicyConfig],
        exec: &ExecPolicy,
    ) -> Result<Vec<AdaptiveComparison>, CapError> {
        check_intervals(intervals)?;
        let (process_level, oracle) = self.offline_optima(app, intervals, exec)?;
        let runs = self.managed_runs(app, configs, intervals, exec.recorder().enabled())?;
        Ok(runs
            .into_iter()
            .map(|(run, events)| {
                for event in &events {
                    exec.recorder().record(event);
                }
                AdaptiveComparison {
                    app: app.name().to_string(),
                    process_level_tpi: process_level,
                    managed_tpi: run.average_tpi().value(),
                    oracle_tpi: oracle,
                    switches: run.switches,
                    intervals,
                }
            })
            .collect())
    }

    /// One managed run of `app` per config, as the lanes of one pass
    /// over its stream ([`run_managed_lanes`]), each with the trace
    /// events it emitted if `traced`.
    fn managed_runs(
        &self,
        app: App,
        configs: &[PolicyConfig],
        intervals: u64,
        traced: bool,
    ) -> Result<Vec<(ManagedRun, Vec<Event>)>, CapError> {
        let (recorders, buffers) = lane_recorders(configs.len(), traced);
        let mut lanes = configs
            .iter()
            .zip(recorders)
            .map(|(config, recorder)| self.managed_lane(app, config, recorder))
            .collect::<Result<Vec<_>, _>>()?;
        let runs = run_managed_lanes(self.stream(app), &mut lanes, &vec![(intervals, PAPER_INTERVAL_INSTS); configs.len()])?;
        Ok(runs.into_iter().zip(buffers).map(|(run, buffer)| (run.run, buffer.events())).collect())
    }

    /// Runs one application under every policy in [`PolicyKind::ALL`]
    /// (each at its default knobs, on identically seeded streams) and
    /// tabulates TPI and switch counts.
    ///
    /// # Errors
    ///
    /// [`CapError::InvalidParameter`] for zero intervals; otherwise
    /// propagates configuration errors.
    pub fn compare_policies(&self, app: App, intervals: u64) -> Result<PolicyComparison, CapError> {
        self.compare_policies_with(app, intervals, &ExecPolicy::serial())
    }

    /// One plan leg per policy in [`PolicyKind::ALL`], in that order:
    /// each a default-knob managed run, cacheable, keyed by the policy
    /// name on top of the usual leg identity. Only default-knob runs are
    /// plan legs: custom [`PolicyConfig`] knobs are not part of the cache
    /// key, so [`IntervalExperiment::policy_comparison`] stays off-plan.
    ///
    /// The legs share one computation ([`Leg::shared`]). The first of
    /// them to run simulates every policy as a lane of one pass over the
    /// stream ([`run_managed_lanes`]), buffering each lane's trace events;
    /// each leg then replays its own lane's events as it takes its row,
    /// so a leg traces what its run alone would have, and a leg taken
    /// from the cache or the journal traces nothing.
    pub(crate) fn policy_legs(&self, app: App, intervals: u64) -> Vec<Leg> {
        let key = |kind: &PolicyKind| self.interval_key("managed-policy", app, intervals, "W isca98".into(), Some(kind.name()));
        let keys = PolicyKind::ALL.iter().map(key).collect();
        let me = self.clone();
        let compute = move |exec: &ExecPolicy| me.policy_lanes(app, intervals, exec.recorder().enabled());
        Leg::shared(keys, compute, |PolicyLane { row, events }, exec| {
            for event in events {
                exec.recorder().record(event);
            }
            row.clone()
        })
    }

    /// Every policy in [`PolicyKind::ALL`] at its default knobs, as
    /// lanes of one managed pass over `app`'s stream, with each lane's
    /// trace events if `traced`.
    fn policy_lanes(&self, app: App, intervals: u64, traced: bool) -> Result<Vec<PolicyLane>, CapError> {
        let configs: Vec<PolicyConfig> = PolicyKind::ALL.iter().map(|&kind| PolicyConfig::new(kind)).collect();
        let runs = self.managed_runs(app, &configs, intervals, traced)?;
        Ok(PolicyKind::ALL
            .iter()
            .zip(runs)
            .map(|(kind, (run, events))| PolicyLane {
                row: PolicyRow {
                    policy: kind.name().to_string(),
                    tpi_ns: run.average_tpi().value(),
                    switches: run.switches,
                },
                events,
            })
            .collect())
    }

    /// [`IntervalExperiment::compare_policies`] under an execution
    /// policy: one plan leg per policy in [`PolicyKind::ALL`].
    ///
    /// # Errors
    ///
    /// [`CapError::InvalidParameter`] for zero intervals; otherwise
    /// propagates configuration errors.
    pub fn compare_policies_with(
        &self,
        app: App,
        intervals: u64,
        exec: &ExecPolicy,
    ) -> Result<PolicyComparison, CapError> {
        check_intervals(intervals)?;
        let rows = run_legs("compare-policies", self.policy_legs(app, intervals), exec)?;
        Ok(PolicyComparison { app: app.name().to_string(), intervals, rows })
    }
}

/// One policy's lane of [`IntervalExperiment::policy_legs`]: its row and
/// the trace events its run emitted.
#[derive(Debug)]
struct PolicyLane {
    row: PolicyRow,
    events: Vec<Event>,
}

/// [`CapError::InvalidParameter`] unless a run covers some intervals:
/// averages over none are not numbers.
fn check_intervals(intervals: u64) -> Result<(), CapError> {
    if intervals == 0 {
        return Err(CapError::InvalidParameter { what: "a run needs at least one interval" });
    }
    Ok(())
}

impl Default for IntervalExperiment {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{run_managed, ConfidencePolicy, QueueIntervalSim, SwitchRetryPolicy};
    use cap_obs::RingRecorder;

    #[test]
    fn scale_tiers_are_ordered() {
        assert!(ExperimentScale::Smoke.cache_refs() < ExperimentScale::Default.cache_refs());
        assert!(ExperimentScale::Default.queue_insts() < ExperimentScale::Full.queue_insts());
    }

    #[test]
    fn cache_sweep_structure() {
        let exp = CacheExperiment::new(ExperimentScale::Smoke).unwrap();
        let curve = exp.sweep(App::Stereo).unwrap();
        assert_eq!(curve.points.len(), 8);
        assert_eq!(curve.points[0].l1_kb, 8);
        assert_eq!(curve.points[7].l1_kb, 64);
        assert!(!curve.integer_panel);
        assert!(curve.best().tpi_ns <= curve.conventional().tpi_ns);
    }

    #[test]
    fn queue_sweep_structure() {
        let exp = QueueExperiment::new(ExperimentScale::Smoke);
        let curve = exp.sweep(App::Appcg).unwrap();
        assert_eq!(curve.points.len(), 8);
        assert_eq!(curve.best().entries, 16);
        assert!(curve.best().tpi_ns < curve.conventional().tpi_ns);
    }

    #[test]
    fn experiments_are_seed_deterministic() {
        let a = QueueExperiment::new(ExperimentScale::Smoke).sweep(App::Gcc).unwrap();
        let b = QueueExperiment::new(ExperimentScale::Smoke).sweep(App::Gcc).unwrap();
        assert_eq!(a, b);
        let c = QueueExperiment::new(ExperimentScale::Smoke).with_seed(1).sweep(App::Gcc).unwrap();
        assert_ne!(a, c, "a different seed gives a different trace");
    }

    #[test]
    fn figure12_snapshots_disagree() {
        let exp = IntervalExperiment::new();
        let fig = exp.figure12(&ExecPolicy::serial()).unwrap();
        let (a_small, a_large) = fig.snapshot_a_wins();
        let (b_small, b_large) = fig.snapshot_b_wins();
        // Snapshot (a): the 64-entry configuration dominates; snapshot
        // (b): the 128-entry configuration dominates.
        assert!(a_small > a_large * 3, "snapshot a: {a_small} vs {a_large}");
        assert!(b_large > b_small * 3, "snapshot b: {b_small} vs {b_large}");
    }

    #[test]
    fn figure13_alternates_then_muddles() {
        let exp = IntervalExperiment::new();
        let fig = exp.figure13(&ExecPolicy::serial()).unwrap();
        let (a_small, a_large) = fig.snapshot_a_wins();
        // The regular region alternates: both configurations win
        // substantial stretches.
        assert!(a_small >= 15 && a_large >= 15, "snapshot a: {a_small} vs {a_large}");
        // And preference flips happen in long runs, not noise: count
        // switches of the winner.
        let winners: Vec<bool> = fig.snapshot_a.iter().map(|p| p.tpi_small < p.tpi_large).collect();
        let flips = winners.windows(2).filter(|w| w[0] != w[1]).count();
        assert!((2..=20).contains(&flips), "flips {flips}");
    }

    #[test]
    fn ilp_varies_within_phased_apps() {
        // Wall (cited in the paper's introduction): ILP varies within an
        // application by up to 3x. Our phased apps show it; stationary
        // low-ILP apps do not.
        let exp = IntervalExperiment::new();
        let (_, _, turb) = exp.ilp_variation(App::Turb3d, 500).unwrap();
        assert!(turb > 1.1, "turb3d ILP variation {turb}");
        let (_, _, vortex) = exp.ilp_variation(App::Vortex, 100).unwrap();
        assert!(vortex > 2.0, "vortex ILP variation {vortex}");
        let (_, _, appcg) = exp.ilp_variation(App::Appcg, 100).unwrap();
        assert!(appcg < 1.5, "appcg is stationary, got {appcg}");
    }

    #[test]
    fn serializable_results() {
        let exp = QueueExperiment::new(ExperimentScale::Smoke);
        let curve = exp.sweep(App::Radar).unwrap();
        let json = serde_json::to_string(&curve).unwrap();
        assert!(json.contains("radar"));
    }

    /// One queue curve leg as a one-leg plan under `exec`: the
    /// executor path every figure and campaign takes for each curve.
    fn queue_curve(q: &QueueExperiment, app: App, exec: &ExecPolicy) -> Result<QueueCurve, CapError> {
        run_leg("queue-sweep", q.curve_leg(app), exec)
    }

    /// [`queue_curve`] for the cache study.
    fn cache_curve(c: &CacheExperiment, app: App, exec: &ExecPolicy) -> Result<CacheCurve, CapError> {
        run_leg("cache-sweep", c.curve_leg(app), exec)
    }

    #[test]
    fn parallel_sweeps_equal_serial_exactly() {
        let q = QueueExperiment::new(ExperimentScale::Smoke);
        assert_eq!(
            q.sweep(App::Gcc).unwrap(),
            queue_curve(&q, App::Gcc, &ExecPolicy::with_jobs(8)).unwrap()
        );
        let c = CacheExperiment::new(ExperimentScale::Smoke).unwrap();
        assert_eq!(
            c.sweep(App::Stereo).unwrap(),
            cache_curve(&c, App::Stereo, &ExecPolicy::with_jobs(4)).unwrap()
        );
    }

    #[test]
    fn parallel_figure_batches_equal_serial_exactly() {
        let exp = IntervalExperiment::new();
        assert_eq!(
            exp.figure13(&ExecPolicy::serial()).unwrap(),
            exp.figure13(&ExecPolicy::with_jobs(2)).unwrap()
        );
        let config = PolicyConfig::new(PolicyKind::Confidence).with_explore_period(30);
        let cmp = |jobs| {
            exp.policy_comparison(App::Vortex, 60, std::slice::from_ref(&config), &ExecPolicy::with_jobs(jobs)).unwrap()
        };
        assert_eq!(cmp(1), cmp(8));
    }

    #[test]
    fn memoized_replay_is_bit_exact() {
        let dir = std::env::temp_dir().join(format!("cap-exp-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = cap_par::ResultCache::at(&dir);

        let q = QueueExperiment::new(ExperimentScale::Smoke);
        let q_cold = queue_curve(&q, App::Radar, &ExecPolicy::with_jobs(2).cached(cache.clone())).unwrap();
        // A warm run must decode the stored curve to the identical bits
        // (PartialEq on the f64 fields is exact equality).
        let q_warm = queue_curve(&q, App::Radar, &ExecPolicy::serial().cached(cache.clone())).unwrap();
        assert_eq!(q_cold, q_warm);

        let c = CacheExperiment::new(ExperimentScale::Smoke).unwrap();
        let c_cold = cache_curve(&c, App::Compress, &ExecPolicy::serial().cached(cache.clone())).unwrap();
        let c_warm = cache_curve(&c, App::Compress, &ExecPolicy::with_jobs(3).cached(cache.clone())).unwrap();
        assert_eq!(c_cold, c_warm);

        // A different seed must not hit the same entry.
        let other = queue_curve(&q.clone().with_seed(7), App::Radar, &ExecPolicy::serial().cached(cache)).unwrap();
        assert_ne!(q_warm.points[0].tpi_ns, other.points[0].tpi_ns);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entry_is_a_miss_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("cap-exp-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = cap_par::ResultCache::at(&dir);
        let q = QueueExperiment::new(ExperimentScale::Smoke);
        let clean = q.sweep(App::Radar).unwrap();
        let key = q.curve_key(App::Radar);

        // A validly stored entry whose value has the wrong shape
        // entirely (an array where a curve object belongs) ...
        assert!(cache.store(&key, &vec![1.0f64, 2.0]));
        let exec = ExecPolicy::serial().cached(cache.clone());
        assert_eq!(queue_curve(&q, App::Radar, &exec).unwrap(), clean);

        // ... or subtly (an object missing the curve fields) must decode
        // as a miss and recompute, never panic or replay garbage.
        assert!(cache.store(&key, &clean.points[0]));
        assert_eq!(queue_curve(&q, App::Radar, &exec).unwrap(), clean);

        // Both recomputes repaired the entry in place.
        assert!(QueueCurve::from_json(&cache.lookup(&key).unwrap()).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_comparison_covers_the_catalog() {
        let exp = IntervalExperiment::new();
        let cmp = exp.compare_policies(App::Vortex, 60).unwrap();
        let names: Vec<&str> = cmp.rows.iter().map(|r| r.policy.as_str()).collect();
        assert_eq!(names, ["process-level", "interval-greedy", "confidence", "hysteresis"]);
        assert!(cmp.rows.iter().all(|r| r.tpi_ns.is_finite() && r.tpi_ns > 0.0));

        // The confidence row is the default manager: it must agree
        // exactly with the Section 6 policy comparison at the same
        // knobs.
        let adaptive = exp
            .policy_comparison(
                App::Vortex,
                60,
                &[PolicyConfig::new(PolicyKind::Confidence)],
                &ExecPolicy::serial(),
            )
            .unwrap();
        assert_eq!(cmp.rows[2].tpi_ns, adaptive[0].managed_tpi);
        assert_eq!(cmp.rows[2].switches, adaptive[0].switches);
    }

    #[test]
    fn several_configs_compare_as_one_call_per_config() {
        // Lanes of one pass, traced, against one call per config: the
        // same comparisons and the same events in config order.
        let exp = IntervalExperiment::new();
        let configs = [
            PolicyConfig::new(PolicyKind::Confidence).with_explore_period(30),
            PolicyConfig::new(PolicyKind::Confidence).with_confidence(ConfidencePolicy::none()),
            PolicyConfig::new(PolicyKind::Hysteresis),
        ];
        let traced = |configs: &[PolicyConfig]| {
            let ring = Arc::new(RingRecorder::new());
            let exec = ExecPolicy::serial().with_recorder(ring.clone());
            let cmps = exp.policy_comparison(App::Vortex, 60, configs, &exec).unwrap();
            let managed: Vec<Event> =
                ring.events().into_iter().filter(|e| !matches!(e, Event::PoolBatch(_))).collect();
            (cmps, managed)
        };
        let (together, together_events) = traced(&configs);
        let mut apart = Vec::new();
        let mut apart_events = Vec::new();
        for config in &configs {
            let (cmps, events) = traced(std::slice::from_ref(config));
            apart.extend(cmps);
            apart_events.extend(events);
        }
        assert_eq!(together, apart);
        assert_eq!(together_events, apart_events);
        assert!(!together_events.is_empty());
    }

    fn assert_rejects_zero_intervals<T: std::fmt::Debug>(what: &str, result: Result<T, CapError>) {
        match result {
            Err(CapError::InvalidParameter { .. }) => {}
            other => panic!("{what} of zero intervals: {other:?}"),
        }
    }

    #[test]
    fn interval_series_rejects_zero_intervals() {
        let series = IntervalExperiment::new().interval_series(App::Gcc, 64, 0, &ExecPolicy::serial());
        assert_rejects_zero_intervals("interval_series", series);
    }

    #[test]
    fn policy_comparison_rejects_zero_intervals() {
        let config = PolicyConfig::new(PolicyKind::Confidence);
        let cmp = IntervalExperiment::new().policy_comparison(App::Gcc, 0, &[config], &ExecPolicy::serial());
        assert_rejects_zero_intervals("policy_comparison", cmp);
    }

    #[test]
    fn compare_policies_rejects_zero_intervals() {
        let exp = IntervalExperiment::new();
        assert_rejects_zero_intervals("compare_policies", exp.compare_policies(App::Gcc, 0));
        let with = exp.compare_policies_with(App::Gcc, 0, &ExecPolicy::with_jobs(2));
        assert_rejects_zero_intervals("compare_policies_with", with);
    }

    #[test]
    fn ilp_variation_rejects_zero_intervals() {
        assert_rejects_zero_intervals("ilp_variation", IntervalExperiment::new().ilp_variation(App::Gcc, 0));
    }

    #[test]
    fn policy_lanes_equal_one_managed_run_per_policy() {
        // The shared lanes computation against each policy's own
        // generator-fed run, row by row and event by event.
        let exp = IntervalExperiment::new();
        let lanes = exp.policy_lanes(App::Turb3d, 30, true).unwrap();
        for (kind, lane) in PolicyKind::ALL.into_iter().zip(&lanes) {
            let ring = Arc::new(RingRecorder::new());
            let QueueLane { mut structure, mut policy, mut clock, .. } =
                exp.managed_lane(App::Turb3d, &PolicyConfig::new(kind), ring.clone()).unwrap();
            let mut stream = exp.stream(App::Turb3d);
            let mut sim = QueueIntervalSim::new(&mut structure, &mut stream, PAPER_INTERVAL_INSTS).unwrap();
            let retry = SwitchRetryPolicy::default();
            let run = run_managed(&mut sim, &mut *policy, &mut clock, 30, None, retry).unwrap().run;
            assert_eq!(lane.row.tpi_ns.to_bits(), run.average_tpi().value().to_bits(), "{kind}");
            assert_eq!(lane.row.switches, run.switches, "{kind}");
            assert_eq!(lane.events, ring.events(), "{kind}");
        }
        assert!(exp.policy_lanes(App::Turb3d, 30, false).unwrap().iter().all(|l| l.events.is_empty()));
    }

    #[test]
    fn policy_rows_memoize_per_policy() {
        let dir = std::env::temp_dir().join(format!("cap-exp-policy-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let exec = ExecPolicy::serial().cached(cap_par::ResultCache::at(&dir));
        let exp = IntervalExperiment::new();
        let cold = exp.compare_policies_with(App::Radar, 40, &exec).unwrap();
        let warm = exp.compare_policies_with(App::Radar, 40, &exec).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(cold, exp.compare_policies(App::Radar, 40).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exec_policy_defaults_are_serial() {
        let exec = ExecPolicy::default();
        assert_eq!(exec.jobs(), 1);
        assert!(exec.cache().is_none());
        assert!(exec.journal().is_none());
        assert_eq!(exec.watchdog(), &WatchdogPolicy::none());
        assert!(ExecPolicy::with_jobs(0).jobs() == 1);
    }

    fn smoke_header(experiment: &str) -> cap_par::JournalHeader {
        cap_par::JournalHeader {
            experiment: experiment.to_string(),
            seed: DEFAULT_SEED,
            scale: "smoke".to_string(),
            policy: None,
            results_version: SWEEP_RESULTS_VERSION,
        }
    }

    #[test]
    fn journaled_sweep_replays_identically_on_resume() {
        let dir = std::env::temp_dir().join(format!("cap-exp-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep-queue.jsonl");
        let q = QueueExperiment::new(ExperimentScale::Smoke);
        let cold = q.sweep(App::Radar).unwrap();

        let journal = Journal::begin(&path, smoke_header("sweep-queue"), false).unwrap();
        let exec = ExecPolicy::with_jobs(2).with_journal(journal);
        assert_eq!(queue_curve(&q, App::Radar, &exec).unwrap(), cold);
        drop(exec); // release the journal writer lock before reopening

        // Reopen with resume: the committed leg replays from the journal
        // instead of recomputing — observable through the trace events.
        let journal = Journal::begin(&path, smoke_header("sweep-queue"), true).unwrap();
        assert_eq!(journal.len(), 1, "one curve leg committed");
        let ring = Arc::new(cap_obs::RingRecorder::new());
        let exec = ExecPolicy::serial().with_journal(journal).with_recorder(ring.clone());
        assert_eq!(queue_curve(&q, App::Radar, &exec).unwrap(), cold);
        let replays = ring
            .events()
            .iter()
            .filter(|e| matches!(e, Event::JournalLeg(j) if j.action == "replayed"))
            .count();
        assert_eq!(replays, 1, "the resumed run replayed the journaled leg");
        drop(exec);

        // A journal bound to a different identity refuses to resume.
        let mut other = smoke_header("sweep-queue");
        other.seed = 7;
        let err = Journal::begin(&path, other, true).unwrap_err();
        assert!(err.contains("different run"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_hits_are_journaled_so_warm_and_cold_runs_commit_the_same_legs() {
        let dir = std::env::temp_dir().join(format!("cap-exp-jwarm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cache = cap_par::ResultCache::at(dir.join("cache"));
        let q = QueueExperiment::new(ExperimentScale::Smoke);

        // Warm the result cache without a journal.
        let warmup = ExecPolicy::serial().cached(cache.clone());
        let cold = queue_curve(&q, App::Gcc, &warmup).unwrap();

        // A journaled warm run commits the replayed-from-cache leg too,
        // so resume bookkeeping is independent of cache temperature.
        let path = dir.join("sweep-queue.jsonl");
        let journal = Journal::begin(&path, smoke_header("sweep-queue"), false).unwrap();
        let exec = ExecPolicy::serial().cached(cache).with_journal(journal);
        assert_eq!(queue_curve(&q, App::Gcc, &exec).unwrap(), cold);
        drop(exec); // release the journal writer lock before reopening
        let journal = Journal::begin(&path, smoke_header("sweep-queue"), true).unwrap();
        assert_eq!(journal.len(), 1, "cache hit was journaled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The one test in this binary that mutates chaos/watchdog/cache
    // environment variables (keep it that way: the variables are
    // process-global).
    #[test]
    fn env_wires_watchdog_chaos_and_validates_the_cache_dir() {
        // A chaos stall longer than the deadline turns the leg into
        // LegTimedOut instead of a hang.
        std::env::set_var("CAP_CHAOS_STALL", "100:1:60000");
        std::env::set_var("CAP_LEG_TIMEOUT", "0.05");
        std::env::set_var("CAP_NO_CACHE", "1");
        let exec = ExecPolicy::from_env(&RunFlags { jobs: Some(1), ..RunFlags::default() }).unwrap();
        assert!(exec.watchdog().timeout.is_some());
        let q = QueueExperiment::new(ExperimentScale::Smoke);
        let started = std::time::Instant::now();
        match queue_curve(&q, App::Radar, &exec) {
            Err(CapError::LegTimedOut { leg, timeout }) => {
                assert_eq!(leg, q.curve_key(App::Radar).canonical());
                assert_eq!(timeout, std::time::Duration::from_millis(50));
            }
            other => panic!("expected LegTimedOut, got {other:?}"),
        }
        assert!(started.elapsed() < std::time::Duration::from_secs(5), "one deadline, no retries");
        std::env::remove_var("CAP_CHAOS_STALL");

        // A flag wins over a malformed variable, which is then never read.
        std::env::set_var("CAP_LEG_TIMEOUT", "soon");
        let two = std::time::Duration::from_secs(2);
        let flags = RunFlags { jobs: Some(1), leg_timeout: Some(two), ..RunFlags::default() };
        assert_eq!(ExecPolicy::from_env(&flags).unwrap().watchdog().timeout, Some(two));
        let err = ExecPolicy::from_env(&RunFlags { jobs: Some(1), ..RunFlags::default() }).unwrap_err();
        assert!(err.to_string().contains("CAP_LEG_TIMEOUT"), "{err}");
        std::env::remove_var("CAP_LEG_TIMEOUT");

        // A malformed chaos spec is a loud environment error.
        std::env::set_var("CAP_CHAOS_PANIC", "not-a-spec");
        let err = ExecPolicy::from_env(&RunFlags { jobs: Some(1), ..RunFlags::default() }).unwrap_err();
        assert!(err.to_string().contains("CAP_CHAOS_PANIC"), "{err}");
        std::env::remove_var("CAP_CHAOS_PANIC");
        std::env::remove_var("CAP_NO_CACHE");

        // An unusable CAP_CACHE_DIR fails up front, naming the variable.
        let dir = std::env::temp_dir().join(format!("cap-exp-env-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("not-a-dir");
        std::fs::write(&file, "x").unwrap();
        std::env::set_var("CAP_CACHE_DIR", file.join("cache"));
        let err = ExecPolicy::from_env(&RunFlags { jobs: Some(1), ..RunFlags::default() }).unwrap_err();
        assert!(err.to_string().contains("CAP_CACHE_DIR"), "{err}");
        std::env::remove_var("CAP_CACHE_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
