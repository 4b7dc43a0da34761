//! The paper's future-work studies, executed: adaptive TLBs, adaptive
//! branch predictor tables, and both evaluated structures "applied in
//! concert".
//!
//! Paper §7: *"We need to ... more thoroughly examine CAP design options
//! for caches and instruction queues, as well as other structures such
//! as TLBs and branch predictors, both individually and collectively."*
//! and §5.4: *"these techniques may be applied in concert to other
//! critical parts of the machine ... (although the number of
//! configurations for a given structure might be limited due to larger
//! delays in other structures)"*.
//!
//! * [`tlb_study`] — the process-level adaptive methodology applied to
//!   the primary/backup TLB of `cap-cache::tlb`;
//! * [`bpred_study`] — the same, for the resizable gshare PHT of
//!   `cap-ooo::bpred`;
//! * [`CombinedExperiment`] — the joint (cache boundary × window size)
//!   configuration space, where the **slower structure sets the clock**:
//!   `cycle(k, w) = max(cycle_cache(k), cycle_queue(w))`. This is where
//!   the paper's parenthetical comes alive: behind a large, slow L1 the
//!   clock cost of a bigger window disappears, so the joint optimum can
//!   use a larger window than the standalone study would pick.

use crate::clock::{DynamicClock, DEFAULT_SWITCH_PENALTY_CYCLES};
use crate::error::CapError;
use crate::experiments::{ExecPolicy, ExperimentScale, DEFAULT_SEED, SWEEP_RESULTS_VERSION};
use crate::manager::{run_managed_lanes, FaultedRun, ManagerDecision, QueueLane};
use crate::plan::{run_leg, Leg};
use crate::policy::{ConfigPolicy, PolicyConfig, PolicyKind};
use crate::structure::{AdaptiveStructure, CacheStructure, QueueStructure};
use cap_par::CacheKey;
use cap_cache::config::Boundary;
use cap_cache::multisweep::stack_profile;
use cap_cache::perf::{PerfParams, BASE_IPC};
use cap_cache::tlb;
use cap_ooo::bpred;
use cap_ooo::config::WindowSize;
use cap_ooo::core::RunStats;
use cap_ooo::interval::PAPER_INTERVAL_INSTS;
use cap_ooo::multisweep::{run_intervals, IntervalEnds, NextInterval, LANES};
use cap_timing::cacti::{CacheTimingModel, L1_LATENCY_CYCLES, MISS_LATENCY_NS};
use cap_timing::cam::CamTimingModel;
use cap_timing::queue::QueueTimingModel;
use cap_timing::units::Ns;
use cap_timing::Technology;
use cap_trace::mem::AddressStream;
use cap_workloads::App;
use serde::Serialize;
use serde_json::FromJson;

/// One row of the TLB study.
#[derive(Debug, Clone, PartialEq, Serialize, FromJson)]
pub struct TlbStudyRow {
    /// Application name.
    pub app: String,
    /// Primary entries of the best split.
    pub best_primary: usize,
    /// TLB TPI at the smallest (16-entry primary) split (ns).
    pub tpi_smallest: f64,
    /// TLB TPI at the best split (ns).
    pub tpi_best: f64,
    /// Full-miss ratio at the best split.
    pub miss_ratio: f64,
}

/// The TLB study's computation (see [`tlb_study`]).
fn tlb_rows(scale: ExperimentScale, seed: u64) -> Result<Vec<TlbStudyRow>, CapError> {
    let tech = Technology::isca98_evaluation();
    let cam = CamTimingModel::tlb(tech);
    let cache_timing = CacheTimingModel::isca98(tech);
    let cycle = cache_timing.cycle_time(Boundary::best_conventional().increments())?;
    let refs = scale.cache_refs() / 4; // the TLB converges faster than the cache
    let mut rows = Vec::new();
    for app in App::cache_suite() {
        let profile = app.memory_profile();
        let stream = profile.build(seed ^ app.seed_salt());
        let points = tlb::sweep(stream, refs, &cam, cycle, profile.insts_per_ref)?;
        let best = points
            .iter()
            .min_by(|a, b| a.tpi.tpi_ns.total_cmp(&b.tpi.tpi_ns))
            .expect("sweep is nonempty");
        rows.push(TlbStudyRow {
            app: app.name().to_string(),
            best_primary: best.config.primary(),
            tpi_smallest: points[0].tpi.tpi_ns,
            tpi_best: best.tpi.tpi_ns,
            miss_ratio: best.stats.global_miss_ratio(),
        });
    }
    Ok(rows)
}

/// One row of the branch-predictor study.
#[derive(Debug, Clone, PartialEq, Serialize, FromJson)]
pub struct BpredStudyRow {
    /// Application name.
    pub app: String,
    /// Entries of the best PHT.
    pub best_entries: usize,
    /// Accuracy at the smallest (1K) table.
    pub accuracy_smallest: f64,
    /// Accuracy at the best table.
    pub accuracy_best: f64,
    /// Branch-induced TPI at the best table (ns).
    pub tpi_best: f64,
}

/// The branch-predictor study's computation (see [`bpred_study`]).
fn bpred_rows(scale: ExperimentScale, seed: u64) -> Result<Vec<BpredStudyRow>, CapError> {
    let qt = QueueTimingModel::new(Technology::isca98_evaluation());
    let cycle = qt.cycle_time(WindowSize::best_conventional().entries())?;
    let branches = scale.queue_insts() / 4;
    let mut rows = Vec::new();
    for app in App::queue_suite() {
        let profile = app.branch_profile();
        let points = bpred::sweep(
            profile.build(seed ^ app.seed_salt()),
            branches,
            cycle,
            profile.branch_frac,
        )?;
        let best = bpred::best_point(&points).expect("sweep is nonempty");
        rows.push(BpredStudyRow {
            app: app.name().to_string(),
            best_entries: best.config.entries(),
            accuracy_smallest: points[0].accuracy,
            accuracy_best: best.accuracy,
            tpi_best: best.tpi_ns,
        });
    }
    Ok(rows)
}

/// One point of the joint configuration space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, FromJson)]
pub struct CombinedPoint {
    /// L1 capacity in KB.
    pub l1_kb: usize,
    /// Window entries.
    pub entries: usize,
    /// The joint clock: the slower structure wins.
    pub cycle_ns: f64,
    /// Combined average TPI (ns).
    pub tpi_ns: f64,
}

/// The outcome of a joint cache × queue optimization for one application.
#[derive(Debug, Clone, PartialEq, Serialize, FromJson)]
pub struct CombinedStudy {
    /// Application name.
    pub app: String,
    /// Every joint configuration.
    pub points: Vec<CombinedPoint>,
    /// The standalone cache study's best boundary (L1 KB).
    pub solo_cache_kb: usize,
    /// The standalone queue study's best window.
    pub solo_window: usize,
}

impl CombinedStudy {
    /// The jointly optimal configuration.
    pub fn best(&self) -> &CombinedPoint {
        self.points
            .iter()
            .min_by(|a, b| a.tpi_ns.total_cmp(&b.tpi_ns))
            .expect("the space is nonempty")
    }

    /// TPI of composing the two standalone choices (each structure
    /// optimized in isolation, then run together).
    pub fn composed_tpi(&self) -> f64 {
        self.points
            .iter()
            .find(|p| p.l1_kb == self.solo_cache_kb && p.entries == self.solo_window)
            .expect("solo choices are in the space")
            .tpi_ns
    }
}

/// Driver for the combined study.
#[derive(Debug, Clone)]
pub struct CombinedExperiment {
    cache_timing: CacheTimingModel,
    queue_timing: QueueTimingModel,
    scale: ExperimentScale,
    seed: u64,
}

impl CombinedExperiment {
    /// Creates the driver at the paper's evaluation point.
    pub fn new(scale: ExperimentScale) -> Self {
        let tech = Technology::isca98_evaluation();
        CombinedExperiment {
            cache_timing: CacheTimingModel::isca98(tech),
            queue_timing: QueueTimingModel::new(tech),
            scale,
            seed: DEFAULT_SEED,
        }
    }

    /// Overrides the root seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Evaluates the full joint space for one application (see
    /// [`CombinedExperiment::study`]).
    ///
    /// Combined CPI model: the queue side contributes `1 / IPC(w)` cycles
    /// per instruction (measured, clock-independent); the cache side
    /// contributes its stall cycles per instruction with latencies
    /// requantized at the joint clock. The joint clock is the slower of
    /// the two structures' requirements.
    fn joint_space(&self, app: App) -> Result<CombinedStudy, CapError> {
        // Cache-side raw counters per boundary (clock-independent).
        let mem = app.memory_profile();
        let cache_points = cap_cache::multisweep::multisweep(
            mem.build(self.seed ^ app.seed_salt()),
            self.scale.cache_refs(),
            Boundary::paper_sweep(),
            &self.cache_timing,
            PerfParams::isca98(mem.insts_per_ref),
        )?;

        // Queue-side IPC per window (clock-independent).
        let queue_points = cap_ooo::multisweep::multisweep(
            app.ilp_profile().build(self.seed ^ app.seed_salt()),
            self.scale.queue_insts(),
            WindowSize::paper_sweep(),
            &self.queue_timing,
        )?;

        let mut points = Vec::new();
        for cp in &cache_points {
            let k = cp.boundary.increments();
            let cache_cycle = self.cache_timing.cycle_time(k)?;
            let l2_access = self.cache_timing.l2_access(k)?;
            for qp in &queue_points {
                let cycle = cache_cycle.max(qp.cycle);
                // Requantize cache latencies at the joint clock.
                let l2_extra =
                    ((l2_access / cycle).ceil() as u64).saturating_sub(u64::from(L1_LATENCY_CYCLES));
                let mem_extra = l2_extra + (Ns(MISS_LATENCY_NS) / cycle).ceil() as u64;
                let insts = cp.stats.refs as f64 * mem.insts_per_ref;
                let stall_cpi = (cp.stats.l2_hits as f64 * l2_extra as f64
                    + cp.stats.misses as f64 * mem_extra as f64)
                    / insts;
                let cpi = 1.0 / qp.stats.ipc() + stall_cpi;
                points.push(CombinedPoint {
                    l1_kb: cp.boundary.l1_kb(),
                    entries: qp.window.entries(),
                    cycle_ns: cycle.value(),
                    tpi_ns: cycle.value() * cpi,
                });
            }
        }

        let solo_cache_kb =
            cap_cache::sim::best_point(&cache_points).expect("nonempty").boundary.l1_kb();
        let solo_window =
            cap_ooo::perf::best_point(&queue_points).expect("nonempty").window.entries();

        Ok(CombinedStudy { app: app.name().to_string(), points, solo_cache_kb, solo_window })
    }
}

/// One row of the asynchronous-design study.
#[derive(Debug, Clone, PartialEq, Serialize, FromJson)]
pub struct AsyncStudyRow {
    /// Application name.
    pub app: String,
    /// Synchronous worst-case L1 access at the studied boundary (ns).
    pub sync_access_ns: f64,
    /// Hit-weighted average L1 access of an asynchronous design (ns).
    pub async_access_ns: f64,
    /// `sync / async` — how much average-case beats worst-case.
    pub speedup: f64,
}

/// The asynchronous-design study's computation (see
/// [`asynchronous_study`]).
fn asynchronous_rows(scale: ExperimentScale, seed: u64) -> Result<Vec<AsyncStudyRow>, CapError> {
    use cap_cache::hierarchy::AdaptiveCacheHierarchy;
    use cap_trace::mem::AddressStream;

    let timing = CacheTimingModel::isca98(Technology::isca98_evaluation());
    let boundary = Boundary::new(8)?; // 64 KB L1
    let k = boundary.increments();
    let local = timing.increment_access();
    let sync_access = timing.l1_access(k)?;
    let mut rows = Vec::new();
    for app in App::cache_suite() {
        let profile = app.memory_profile();
        let mut stream = profile.build(seed ^ app.seed_salt());
        let mut cache = AdaptiveCacheHierarchy::try_with_geometry(*timing.geometry(), boundary)?;
        for _ in 0..scale.cache_refs() / 4 {
            let r = stream.next_ref();
            cache.access(r);
        }
        let hist = cache.increment_hit_histogram();
        let l1_hits: u64 = hist[..k].iter().sum();
        let weighted: f64 = hist[..k]
            .iter()
            .enumerate()
            .map(|(i, &h)| {
                let d = timing.bus_delay(i + 1).expect("increment within geometry") * 2.0 + local;
                h as f64 * d.value()
            })
            .sum();
        let async_access = if l1_hits == 0 { sync_access.value() } else { weighted / l1_hits as f64 };
        rows.push(AsyncStudyRow {
            app: app.name().to_string(),
            sync_access_ns: sync_access.value(),
            async_access_ns: async_access,
            speedup: sync_access.value() / async_access,
        });
    }
    Ok(rows)
}

/// One row of the technology-scaling study.
#[derive(Debug, Clone, PartialEq, Serialize, FromJson)]
pub struct TechStudyRow {
    /// Feature size in micrometres.
    pub feature_um: f64,
    /// Clock-spread of the cache structure: cycle(64 KB L1) / cycle(8 KB L1).
    pub cache_cycle_spread: f64,
    /// Average TPI reduction of the process-level adaptive cache at this
    /// node.
    pub cache_tpi_reduction: f64,
}

/// The technology-scaling study's computation (see
/// [`technology_study`]).
///
/// Every node prices the same per-app stack profile: the nodes scale
/// delays, not the geometry, and [`StackProfile::points`] rejects a node
/// whose geometry differs from the profile's.
///
/// [`StackProfile::points`]: cap_cache::multisweep::StackProfile::points
fn technology_rows(scale: ExperimentScale, seed: u64) -> Result<Vec<TechStudyRow>, CapError> {
    let nodes = Technology::paper_sweep().map(|tech| (tech, CacheTimingModel::isca98(tech)));
    // Per-app best vs best-conventional, exactly like figure9 but at
    // each node; each node sums over the apps in suite order.
    let mut conv_sums = vec![0.0; nodes.len()];
    let mut best_sums = vec![0.0; nodes.len()];
    for app in App::cache_suite() {
        let mem = app.memory_profile();
        let profile = stack_profile(
            mem.build(seed ^ app.seed_salt()),
            scale.cache_refs() / 4,
            nodes[0].1.geometry(),
        );
        for (n, (_, timing)) in nodes.iter().enumerate() {
            let points = profile.points(
                Boundary::paper_sweep(),
                timing,
                PerfParams::isca98(mem.insts_per_ref),
            )?;
            let conv = points
                .iter()
                .find(|p| p.boundary == Boundary::best_conventional())
                .expect("conventional boundary in sweep")
                .tpi
                .total_tpi()
                .value();
            let best = points
                .iter()
                .map(|p| p.tpi.total_tpi().value())
                .fold(f64::INFINITY, f64::min);
            conv_sums[n] += conv;
            best_sums[n] += best;
        }
    }
    nodes
        .iter()
        .zip(conv_sums.iter().zip(&best_sums))
        .map(|((tech, timing), (conv_sum, best_sum))| {
            Ok(TechStudyRow {
                feature_um: tech.feature_um(),
                cache_cycle_spread: timing.cycle_time(8)? / timing.cycle_time(1)?,
                cache_tpi_reduction: 1.0 - best_sum / conv_sum,
            })
        })
        .collect()
}

/// One row of the reconfiguration-frequency study.
#[derive(Debug, Clone, PartialEq, Serialize, FromJson)]
pub struct FrequencyStudyRow {
    /// Interval length in instructions.
    pub interval_len: u64,
    /// Managed average TPI (ns).
    pub managed_tpi: f64,
    /// Reconfigurations performed.
    pub switches: u64,
}

/// The reconfiguration-frequency study's computation (see
/// [`reconfiguration_frequency_study`]): each interval length is one lane
/// of a managed lanes pass over the app's stream.
fn frequency_rows(
    app: App,
    insts_budget: u64,
    interval_lens: &[u64],
    seed: u64,
) -> Result<Vec<FrequencyStudyRow>, CapError> {
    let timing = QueueTimingModel::new(Technology::isca98_evaluation());
    let mut rows = Vec::new();
    for lens in interval_lens.chunks(LANES) {
        let (mut lanes, mut lengths) = (Vec::new(), Vec::new());
        for &len in lens {
            if len == 0 || len > insts_budget {
                return Err(CapError::InvalidParameter { what: "interval length must be positive and within the budget" });
            }
            let structure = QueueStructure::isca98(timing, 0)?;
            let clock = DynamicClock::for_structure(&structure, DEFAULT_SWITCH_PENALTY_CYCLES)?;
            let policy = PolicyConfig::new(PolicyKind::Confidence).build(structure.num_configs(), cap_obs::noop(), None)?;
            lanes.push(QueueLane { structure, policy, clock, injector: None });
            lengths.push((insts_budget / len, len));
        }
        let stream = app.ilp_profile().build(seed ^ app.seed_salt());
        let runs = run_managed_lanes(stream, &mut lanes, &lengths)?;
        rows.extend(runs.iter().zip(lens).map(|(FaultedRun { run, .. }, &interval_len)| {
            FrequencyStudyRow { interval_len, managed_tpi: run.average_tpi().value(), switches: run.switches }
        }));
    }
    Ok(rows)
}

/// Result of an online joint (cache + queue) managed run.
#[derive(Debug, Clone, PartialEq, Serialize, FromJson)]
pub struct ManagedCombined {
    /// Application name.
    pub app: String,
    /// Intervals simulated.
    pub intervals: u64,
    /// Average TPI achieved online (ns), switch penalties included.
    pub avg_tpi: f64,
    /// Total reconfigurations across both structures.
    pub switches: u64,
    /// Final cache boundary (L1 KB).
    pub final_l1_kb: usize,
    /// Final window size (entries).
    pub final_entries: usize,
}

/// The online joint managed run's computation (see
/// [`run_managed_combined`]): one lane of [`run_intervals`]. Each
/// interval schedules its instructions on the out-of-order core (IPC at
/// the current window); its end simulates the D-cache for the
/// corresponding references (stalls at the current boundary) and lets
/// both managers observe the joint TPI at the slower structure's clock.
fn managed_combined(
    app: App,
    intervals: u64,
    seed: u64,
    policy: crate::manager::ConfidencePolicy,
) -> Result<ManagedCombined, CapError> {
    if intervals == 0 {
        return Err(CapError::InvalidParameter { what: "a managed run needs at least one interval" });
    }
    let tech = Technology::isca98_evaluation();
    let cache = CacheStructure::isca98(CacheTimingModel::isca98(tech), 0)?;
    let queue = QueueStructure::isca98(QueueTimingModel::new(tech), 0)?;
    let mem = app.memory_profile();
    let manager = |explore_period, num_configs| {
        PolicyConfig::new(PolicyKind::Confidence)
            .with_explore_period(explore_period)
            .with_confidence(policy)
            .build(num_configs, cap_obs::noop(), None)
    };
    let mut joint = JointLane {
        managers: [manager(31, cache.num_configs())?, manager(37, queue.num_configs())?],
        mem_stream: mem.build(seed ^ app.seed_salt()),
        refs_per_interval: (PAPER_INTERVAL_INSTS as f64 / mem.insts_per_ref).ceil() as u64,
        intervals_left: intervals,
        switches: 0,
        total_time: 0.0,
        total_insts: 0,
        cache,
        queue,
    };
    let first = [NextInterval { insts: PAPER_INTERVAL_INSTS, resize: Some(joint.queue.window()) }];
    run_intervals(app.ilp_profile().build(seed ^ app.seed_salt()), *joint.queue.core_config(), &first, &mut joint)?;
    Ok(ManagedCombined {
        app: app.name().to_string(),
        intervals,
        avg_tpi: joint.total_time / joint.total_insts as f64,
        switches: joint.switches,
        final_l1_kb: joint.cache.boundary_at(joint.cache.current())?.l1_kb(),
        final_entries: joint.queue.window().entries(),
    })
}

/// The joint managed run's one lane: both structures, their managers
/// (cache first), the reference stream, and the run's totals.
struct JointLane<M> {
    cache: CacheStructure,
    queue: QueueStructure,
    managers: [Box<dyn ConfigPolicy>; 2],
    mem_stream: M,
    refs_per_interval: u64,
    intervals_left: u64,
    switches: u64,
    total_time: f64,
    total_insts: u64,
}

impl<M: AddressStream> IntervalEnds for JointLane<M> {
    type Error = CapError;

    fn end(&mut self, _lane: usize, run: RunStats) -> Result<Option<NextInterval>, CapError> {
        // The interval's cache half.
        let before = self.cache.cache().stats();
        for _ in 0..self.refs_per_interval {
            let r = self.mem_stream.next_ref();
            self.cache.cache_mut().access(r);
        }
        let delta = self.cache.cache().stats() - before;
        let (cache_cfg, queue_cfg) = (self.cache.current(), self.queue.current());
        let k = self.cache.boundary_at(cache_cfg)?.increments();
        let cycle = self.cache.cycle_time(cache_cfg)?.max(self.queue.cycle_time(queue_cfg)?);
        let l2_extra = ((self.cache.timing().l2_access(k)? / cycle).ceil() as u64)
            .saturating_sub(u64::from(L1_LATENCY_CYCLES));
        let mem_extra = l2_extra + (Ns(MISS_LATENCY_NS) / cycle).ceil() as u64;
        let stall_cpi = (delta.l2_hits as f64 * l2_extra as f64 + delta.misses as f64 * mem_extra as f64)
            / run.committed as f64;
        let tpi = cycle.value() * (run.cycles as f64 / run.committed as f64 + stall_cpi);
        self.total_time += tpi * run.committed as f64;
        self.total_insts += run.committed;

        // Both managers observe the same joint TPI at their own config.
        let [cache_mgr, queue_mgr] = &mut self.managers;
        let structures: [(&mut dyn ConfigPolicy, &mut dyn AdaptiveStructure); 2] =
            [(&mut **cache_mgr, &mut self.cache), (&mut **queue_mgr, &mut self.queue)];
        for (manager, structure) in structures {
            let config = structure.current();
            if let ManagerDecision::SwitchTo(next) = manager.observe(config, tpi) {
                if next != config {
                    structure.reconfigure(next)?;
                    self.switches += 1;
                    self.total_time += DEFAULT_SWITCH_PENALTY_CYCLES as f64 * cycle.value();
                }
            }
        }
        self.intervals_left -= 1;
        let resize = (self.queue.current() != queue_cfg).then(|| self.queue.window());
        Ok((self.intervals_left > 0).then_some(NextInterval { insts: PAPER_INTERVAL_INSTS, resize }))
    }
}

/// The paper's base pipeline IPC, re-exported for the combined model's
/// documentation (the queue-side IPC replaces it).
pub const CACHE_STUDY_BASE_IPC: f64 = BASE_IPC;

// ---------------------------------------------------------------------------
// Entry points: every study as a one-leg content-addressed plan
// ---------------------------------------------------------------------------
//
// Each study is a serial computation (interval managers and clocks carry
// state), so the plan contributes content-addressed caching, journaling
// and dedup rather than intra-study fan-out. The private functions above
// are the computations; the public functions below run them as plan legs.

/// Content address for one extended study: the study's identity is its
/// description string plus the app/scale/seed axes every key carries.
fn study_key(what: &str, app: &str, scale_tag: String, seed: u64) -> CacheKey {
    CacheKey {
        kind: "extended-study".to_string(),
        app: app.to_string(),
        scale: scale_tag,
        seed,
        config_range: what.to_string(),
        version: SWEEP_RESULTS_VERSION,
        policy: None,
    }
}

/// Runs the TLB primary/backup sweep over the cache suite.
///
/// The machine cycle is the best-conventional cache clock (the TLB study
/// piggybacks on the cache study's machine, like a real L1 DTLB would).
///
/// # Errors
///
/// Propagates timing-model errors.
pub fn tlb_study(
    scale: ExperimentScale,
    seed: u64,
    exec: &ExecPolicy,
) -> Result<Vec<TlbStudyRow>, CapError> {
    let key = study_key("tlb primary/backup split", "suite", scale.name().to_string(), seed);
    run_leg("tlb-study", Leg::cached(key, move |_| tlb_rows(scale, seed)), exec)
}

/// Runs the gshare PHT sweep over the full suite.
///
/// The machine cycle is the best-conventional queue clock (64 entries).
///
/// # Errors
///
/// Propagates configuration errors.
pub fn bpred_study(
    scale: ExperimentScale,
    seed: u64,
    exec: &ExecPolicy,
) -> Result<Vec<BpredStudyRow>, CapError> {
    let key = study_key("bpred gshare pht", "suite", scale.name().to_string(), seed);
    run_leg("bpred-study", Leg::cached(key, move |_| bpred_rows(scale, seed)), exec)
}

/// Runs the cache study across the paper's three technology nodes.
///
/// The paper's Section 2 argument, quantified: as features shrink,
/// transistor delays scale down but wire delays do not, so the
/// wire-dominated cost of a big L1 grows *relative* to the rest of the
/// machine — the rows show the cache **clock spread** (cycle at 64 KB
/// over cycle at 8 KB) widening from 0.25 µm to 0.12 µm. The aggregate
/// adaptive TPI gain is also reported; note that it is *not* monotone in
/// feature size: a wider spread raises the gains of fast-clock
/// applications but taxes the big-cache winners (stereo, appcg), and the
/// fixed 30 ns miss latency looms larger as cycles shrink.
///
/// # Errors
///
/// Propagates timing-model errors.
pub fn technology_study(
    scale: ExperimentScale,
    seed: u64,
    exec: &ExecPolicy,
) -> Result<Vec<TechStudyRow>, CapError> {
    let key = study_key("technology 3 nodes", "suite", scale.name().to_string(), seed);
    run_leg("technology-study", Leg::cached(key, move |_| technology_rows(scale, seed)), exec)
}

/// Quantifies the paper's §4.1 asynchronous-design advantage.
///
/// *"With a complexity-adaptive approach, very large structures can be
/// designed, yet the average stage delay can be much lower than the
/// worst-case delay if faster elements are frequently accessed."*
///
/// Each application runs at the largest studied boundary (64 KB L1);
/// the per-increment hit histogram then gives the average access delay
/// an asynchronous (handshaking) design would see, versus the worst-case
/// delay a synchronous clock must assume. Applications whose hot set
/// concentrates in the near increments approach the small-structure
/// latency automatically — "obviating the need for a Configuration
/// Manager".
///
/// # Errors
///
/// Propagates timing-model errors.
pub fn asynchronous_study(
    scale: ExperimentScale,
    seed: u64,
    exec: &ExecPolicy,
) -> Result<Vec<AsyncStudyRow>, CapError> {
    let key = study_key("async 64KB access", "suite", scale.name().to_string(), seed);
    run_leg("async-study", Leg::cached(key, move |_| asynchronous_rows(scale, seed)), exec)
}

/// Sweeps the manager's interval length on a phased application.
///
/// Paper §4.2: *"A second challenge regards the determination of the
/// optimal reconfiguration frequency, a tradeoff between maintaining
/// processor efficiency and minimizing reconfiguration overhead."* Short
/// intervals react faster but pay exploration and switch penalties more
/// often; long intervals straddle phase boundaries.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn reconfiguration_frequency_study(
    app: App,
    insts_budget: u64,
    interval_lens: &[u64],
    seed: u64,
    exec: &ExecPolicy,
) -> Result<Vec<FrequencyStudyRow>, CapError> {
    let lens = interval_lens.to_vec();
    let tag = lens.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    let key = study_key(
        &format!("freq intervals {tag}"),
        app.name(),
        format!("{insts_budget}insts"),
        seed,
    );
    let leg = Leg::cached(key, move |_| frequency_rows(app, insts_budget, &lens, seed));
    run_leg("frequency-study", leg, exec)
}

/// Runs both structures under *independent* interval managers sharing one
/// machine — the multi-structure configuration problem the paper flags:
/// *"Because of the amount of performance information that must be
/// gleaned, and the interactions between different hardware structures,
/// predicting the best-performing configuration for the next interval of
/// operation can be quite complex."*
///
/// Each manager observes the same joint TPI at its own configuration and
/// decides independently; their exploration periods are co-prime so they
/// rarely probe simultaneously. The confidence parameters are part of
/// the leg's content address.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn run_managed_combined(
    app: App,
    intervals: u64,
    seed: u64,
    policy: crate::manager::ConfidencePolicy,
    exec: &ExecPolicy,
) -> Result<ManagedCombined, CapError> {
    let key = study_key(
        &format!("joint managed t{} h{}", policy.threshold, policy.hysteresis),
        app.name(),
        format!("{intervals}iv"),
        seed,
    );
    let leg = Leg::cached(key, move |_| managed_combined(app, intervals, seed, policy));
    run_leg("joint-managed", leg, exec)
}

impl CombinedExperiment {
    /// Evaluates the full joint (cache boundary × window size) space for
    /// one application as one cached plan leg.
    ///
    /// # Errors
    ///
    /// Propagates timing-model errors.
    pub fn study(&self, app: App, exec: &ExecPolicy) -> Result<CombinedStudy, CapError> {
        let key = study_key(
            "combined cache x queue",
            app.name(),
            self.scale.name().to_string(),
            self.seed,
        );
        let me = self.clone();
        run_leg("combined-study", Leg::cached(key, move |_| me.joint_space(app)), exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlb_study_shows_diversity() {
        let rows = tlb_rows(ExperimentScale::Smoke, DEFAULT_SEED).unwrap();
        assert_eq!(rows.len(), 21);
        let splits: std::collections::HashSet<usize> = rows.iter().map(|r| r.best_primary).collect();
        assert!(splits.len() >= 2, "TLB requirements must differ across apps: {splits:?}");
        for r in &rows {
            assert!(r.tpi_best <= r.tpi_smallest + 1e-12, "{}", r.app);
        }
    }

    #[test]
    fn bpred_study_shows_diversity() {
        let rows = bpred_rows(ExperimentScale::Smoke, DEFAULT_SEED).unwrap();
        assert_eq!(rows.len(), 22);
        let gcc = rows.iter().find(|r| r.app == "gcc").unwrap();
        let swim = rows.iter().find(|r| r.app == "swim").unwrap();
        assert!(gcc.best_entries > swim.best_entries, "alias-heavy gcc needs the bigger table");
        assert!(gcc.accuracy_best > gcc.accuracy_smallest);
        assert!(swim.accuracy_best > 0.8, "loop codes predict acceptably, got {}", swim.accuracy_best);
        assert!(
            swim.accuracy_best - swim.accuracy_smallest < 0.05,
            "loop codes gain little from bigger tables: {} vs {}",
            swim.accuracy_smallest,
            swim.accuracy_best
        );
    }

    #[test]
    fn combined_joint_space_is_full() {
        let exp = CombinedExperiment::new(ExperimentScale::Smoke);
        let s = exp.joint_space(App::M88ksim).unwrap();
        assert_eq!(s.points.len(), 64, "8 boundaries x 8 windows");
        assert!(s.best().tpi_ns <= s.composed_tpi() + 1e-12, "joint optimum can't lose to composition");
    }

    #[test]
    fn slow_cache_clock_frees_bigger_windows() {
        // Paper §5.4's parenthetical: behind stereo's large L1 (slow
        // clock), window upsizing is clock-free for a while, so the
        // jointly optimal window is at least the standalone one.
        let exp = CombinedExperiment::new(ExperimentScale::Smoke);
        let s = exp.joint_space(App::Stereo).unwrap();
        let best = s.best();
        assert!(best.l1_kb >= 40, "stereo still wants the big L1, got {}", best.l1_kb);
        assert!(best.entries >= s.solo_window, "joint window {} vs solo {}", best.entries, s.solo_window);
        // And the clock at the joint optimum is set by the cache side.
        let cache_cycle = CacheTimingModel::isca98(Technology::isca98_evaluation())
            .cycle_time(best.l1_kb / 8)
            .unwrap();
        assert!((best.cycle_ns - cache_cycle.value()).abs() < 1e-12);
    }

    #[test]
    fn async_average_beats_sync_worst_case() {
        let rows = asynchronous_rows(ExperimentScale::Smoke, DEFAULT_SEED).unwrap();
        assert_eq!(rows.len(), 21);
        for r in &rows {
            assert!(
                r.async_access_ns <= r.sync_access_ns + 1e-12,
                "{}: async {} vs sync {}",
                r.app,
                r.async_access_ns,
                r.sync_access_ns
            );
            assert!(r.speedup >= 1.0);
        }
        // Hot-set-dominated apps concentrate hits in near increments and
        // gain substantially; at least a third of the suite beats 1.3x.
        let big = rows.iter().filter(|r| r.speedup > 1.3).count();
        assert!(big >= 7, "only {big} apps above 1.3x");
    }

    #[test]
    fn adaptivity_pays_more_at_smaller_features() {
        let rows = technology_rows(ExperimentScale::Smoke, DEFAULT_SEED).unwrap();
        assert_eq!(rows.len(), 3);
        // paper_sweep order: 0.25, 0.18, 0.12 um. Both the clock spread
        // and the adaptive gain must widen as features shrink.
        assert!(rows[0].feature_um > rows[2].feature_um);
        assert!(
            rows[2].cache_cycle_spread > rows[0].cache_cycle_spread,
            "{} vs {}",
            rows[0].cache_cycle_spread,
            rows[2].cache_cycle_spread
        );
        for r in &rows {
            assert!(r.cache_tpi_reduction > 0.0, "adaptive never loses at process level");
        }
    }

    #[test]
    fn technology_rows_match_a_per_node_per_boundary_sweep() {
        // The reference: one full simulation per node and boundary.
        use cap_cache::hierarchy::AdaptiveCacheHierarchy;
        let scale = ExperimentScale::Smoke;
        let rows = technology_rows(scale, DEFAULT_SEED).unwrap();
        for (tech, row) in Technology::paper_sweep().into_iter().zip(&rows) {
            let timing = CacheTimingModel::isca98(tech);
            let (mut conv_sum, mut best_sum) = (0.0, 0.0);
            for app in App::cache_suite() {
                let mem = app.memory_profile();
                let pristine = mem.build(DEFAULT_SEED ^ app.seed_salt());
                let tpi = |boundary| {
                    let mut cache = AdaptiveCacheHierarchy::with_geometry(*timing.geometry(), boundary);
                    let stats = cap_cache::sim::run(pristine.clone(), scale.cache_refs() / 4, &mut cache);
                    let params = PerfParams::isca98(mem.insts_per_ref);
                    cap_cache::perf::evaluate(&stats, boundary, &timing, params).unwrap().total_tpi().value()
                };
                conv_sum += tpi(Boundary::best_conventional());
                best_sum += Boundary::paper_sweep().map(tpi).fold(f64::INFINITY, f64::min);
            }
            let spread = timing.cycle_time(8).unwrap() / timing.cycle_time(1).unwrap();
            assert_eq!(row.feature_um.to_bits(), tech.feature_um().to_bits());
            assert_eq!(row.cache_cycle_spread.to_bits(), spread.to_bits());
            assert_eq!(row.cache_tpi_reduction.to_bits(), (1.0 - best_sum / conv_sum).to_bits());
        }
    }

    #[test]
    fn reconfiguration_frequency_tradeoff() {
        // turb3d's phases are hundreds of intervals long: very short
        // intervals burn switches; the study must show the switch count
        // falling as intervals lengthen.
        let rows =
            frequency_rows(App::Turb3d, 600_000, &[500, 2_000, 8_000], DEFAULT_SEED).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].switches > rows[2].switches, "{:?}", rows);
        for r in &rows {
            assert!(r.managed_tpi > 0.0 && r.managed_tpi < 1.0, "{:?}", r);
        }
        assert!(frequency_rows(App::Turb3d, 1000, &[0], DEFAULT_SEED).is_err());
        assert!(frequency_rows(App::Turb3d, 1000, &[2000], DEFAULT_SEED).is_err(), "no interval fits");
        // More lengths than lanes run in passes of up to eight.
        let nine = frequency_rows(App::Turb3d, 20_000, &[500; 9], DEFAULT_SEED).unwrap();
        assert!(nine.len() == 9 && nine.iter().all(|r| *r == nine[0]), "{nine:?}");
    }

    #[test]
    fn online_joint_management_converges() {
        use crate::manager::ConfidencePolicy;
        // A stationary app: after exploration the two managers must land
        // within 25 % of the offline joint optimum despite observing each
        // other's noise.
        let r = managed_combined(App::M88ksim, 400, DEFAULT_SEED, ConfidencePolicy::default_policy())
            .unwrap();
        let offline = CombinedExperiment::new(ExperimentScale::Smoke).joint_space(App::M88ksim).unwrap();
        let best = offline.best().tpi_ns;
        assert!(
            r.avg_tpi < best * 1.25,
            "online {:.3} vs offline best {:.3}",
            r.avg_tpi,
            best
        );
        assert!(r.switches >= 14, "both managers explored, got {}", r.switches);
        // The final operating point is a sensible one: not the smallest
        // machine (m88ksim's hot set and ILP both reward growth here).
        assert!(r.final_entries >= 48, "settled on {} entries", r.final_entries);
    }

    #[test]
    fn online_joint_management_is_deterministic() {
        use crate::manager::ConfidencePolicy;
        let run = || {
            managed_combined(App::Radar, 150, DEFAULT_SEED, ConfidencePolicy::default_policy())
                .unwrap()
        };
        assert_eq!(run(), run());
        assert!(managed_combined(App::Radar, 0, DEFAULT_SEED, ConfidencePolicy::default_policy()).is_err());
    }

    #[test]
    fn combined_is_deterministic() {
        let exp = CombinedExperiment::new(ExperimentScale::Smoke);
        assert_eq!(exp.joint_space(App::Radar).unwrap(), exp.joint_space(App::Radar).unwrap());
    }

    #[test]
    fn joint_clock_is_the_slower_structure_everywhere() {
        // Every one of the 64 joint points must carry exactly
        // cycle(k, w) = max(cycle_cache(k), cycle_queue(w)).
        let tech = Technology::isca98_evaluation();
        let ct = CacheTimingModel::isca98(tech);
        let qt = QueueTimingModel::new(tech);
        let exp = CombinedExperiment::new(ExperimentScale::Smoke);
        for app in [App::M88ksim, App::Stereo] {
            let s = exp.joint_space(app).unwrap();
            assert_eq!(s.points.len(), 64);
            for p in &s.points {
                let want =
                    ct.cycle_time(p.l1_kb / 8).unwrap().max(qt.cycle_time(p.entries).unwrap());
                assert!(
                    (p.cycle_ns - want.value()).abs() < 1e-15,
                    "{}: cycle at ({} KB, {} entries) is {}, want {}",
                    s.app,
                    p.l1_kb,
                    p.entries,
                    p.cycle_ns,
                    want.value()
                );
            }
        }
    }

    #[test]
    fn joint_optimum_never_loses_to_either_standalone_choice() {
        // Property over the space: the joint optimum is at least as good
        // as the composed standalone choices AND as the best point with
        // either structure pinned at its standalone optimum — pinning
        // only restricts the space, so it can never win.
        let exp = CombinedExperiment::new(ExperimentScale::Smoke);
        for app in [App::M88ksim, App::Radar, App::Turb3d] {
            let s = exp.joint_space(app).unwrap();
            let best = s.best().tpi_ns;
            assert!(best <= s.composed_tpi() + 1e-12, "{}", s.app);
            let pinned = |f: &dyn Fn(&CombinedPoint) -> bool| {
                s.points.iter().filter(|p| f(p)).map(|p| p.tpi_ns).fold(f64::INFINITY, f64::min)
            };
            let cache_pinned = pinned(&|p| p.l1_kb == s.solo_cache_kb);
            let queue_pinned = pinned(&|p| p.entries == s.solo_window);
            assert!(best <= cache_pinned + 1e-12, "{}: {} vs {}", s.app, best, cache_pinned);
            assert!(best <= queue_pinned + 1e-12, "{}: {} vs {}", s.app, best, queue_pinned);
        }
    }
}
