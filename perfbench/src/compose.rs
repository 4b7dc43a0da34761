//! The traced run: each workload's op rebuilt in-process from the
//! layers' public functions, with a span around every call.
//!
//! Every traced run composes all three ops once per round, so every
//! layer's rate is measured whichever workload is named; the op wall
//! time and the exact per-op counts are those of the named workload.
//! Before reporting, the run proves the composition does the work the
//! `capsim` binary does: composed curves, policy rows and fault runs
//! equal the library's own drivers bit for bit, and the composed cache
//! entries and journals replay through the production plans into the
//! bytes `capsim` prints.

use crate::spans::{self, span, span_tagged, Span, Tag};
use cap_cache::config::Boundary;
use cap_cache::multisweep::{one_pass_supported, stack_profile};
use cap_cache::perf::{evaluate, PerfParams};
use cap_core::clock::{DynamicClock, DEFAULT_SWITCH_PENALTY_CYCLES};
use cap_core::experiments::{
    CacheCurve, CacheExperiment, CachePoint, ExecPolicy, ExperimentScale, IntervalExperiment,
    PolicyRow, QueueCurve, QueueExperiment, QueuePoint, SWEEP_RESULTS_VERSION,
};
use cap_core::faults::{FaultCampaign, FaultInjector, FaultSpec};
use cap_core::manager::{
    run_managed, CacheIntervalSim, FaultedRun, IntervalSim, ManagerDecision, QueueIntervalSim,
    ResiliencePolicy, ResilienceStats, SwitchOutcome, SwitchRetryPolicy,
};
use cap_core::plan::{self, Executor, LegClass};
use cap_core::policy::{ConfigPolicy, PolicyConfig, PolicyKind};
use cap_core::serve;
use cap_core::structure::{AdaptiveStructure, CacheStructure, QueueStructure};
use cap_core::CapError;
use cap_obs::{DecisionCounts, Recorder};
use cap_ooo::config::{CoreConfig, WindowSize};
use cap_ooo::core::{OooCore, RunStats};
use cap_ooo::interval::{IntervalSample, PAPER_INTERVAL_INSTS};
use cap_par::{CacheKey, Journal, JournalHeader, ResultCache};
use cap_timing::cacti::CacheTimingModel;
use cap_timing::queue::QueueTimingModel;
use cap_timing::Technology;
use cap_trace::inst::{Inst, InstStream};
use cap_trace::mem::{AddressStream, MemRef};
use cap_trace::tape::InstTape;
use cap_workloads::App;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The app of the managed workload: the phase-changing app of the
/// paper's Figure 12, so the policies really switch.
const MANAGED_APP: App = App::Turb3d;
/// Intervals per policy in `capsim compare-policies`.
const POLICY_INTERVALS: u64 = 400;
/// Instructions a core can read past its commit target: commit overshoot
/// plus the largest window's occupancy. Filling the tape this far up
/// front leaves the core spans free of generation.
const TAPE_SLACK: u64 = 8 + 129;
/// Submits and status calls per round of the served op.
const SUBMITS_PER_ROUND: usize = 10;
const STATUSES_PER_ROUND: usize = 5;

/// Exact per-op counts; a speed-only change leaves every one identical.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub insts_generated: u64,
    pub refs_classified: u64,
    pub refs_simulated: u64,
    pub sim_cycles: u64,
    pub observes: u64,
    pub switches: u64,
    pub legs_cache_hit: u64,
    pub legs_computed: u64,
    pub journal_bytes: u64,
}

/// Work totals across all rounds, the numerators of the layer rates.
#[derive(Debug, Default)]
struct Work {
    committed_by_window: BTreeMap<usize, u64>,
    sweep_cycles: u64,
    insts_filled: u64,
    refs_swept: u64,
    refs_simulated: u64,
    curves: u64,
}

pub struct Setup {
    pub workload: String,
    pub scale: ExperimentScale,
    pub seed: u64,
    pub jobs: usize,
    pub rounds: usize,
    pub capsim: PathBuf,
    pub work: PathBuf,
}

/// What the traced run reports.
pub struct Outcome {
    pub errors: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn check(errors: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        errors.push(what());
    }
}

/// An address stream replaying references drained up front, so the
/// stack-distance traversal is timed apart from generation.
struct Replay<'a> {
    refs: &'a [MemRef],
    pos: usize,
}

impl AddressStream for Replay<'_> {
    fn next_ref(&mut self) -> MemRef {
        let r = self.refs[self.pos];
        self.pos += 1;
        r
    }
}

struct CountingInsts<S> {
    inner: S,
    n: u64,
}

impl<S: InstStream> InstStream for CountingInsts<S> {
    fn next_inst(&mut self) -> Inst {
        self.n += 1;
        self.inner.next_inst()
    }
}

struct CountingRefs<S> {
    inner: S,
    n: u64,
}

impl<S: AddressStream> AddressStream for CountingRefs<S> {
    fn next_ref(&mut self) -> MemRef {
        self.n += 1;
        self.inner.next_ref()
    }
}

/// Spans each simulated interval of a managed run.
struct TimedSim<S> {
    inner: S,
    name: &'static str,
    cycles: u64,
}

impl<S: IntervalSim> IntervalSim for TimedSim<S> {
    fn structure(&mut self) -> &mut dyn AdaptiveStructure {
        self.inner.structure()
    }

    fn simulate(
        &mut self,
        index: u64,
        recorder: &dyn Recorder,
        label: Option<&str>,
    ) -> Result<Option<IntervalSample>, CapError> {
        let sample = span(self.name, || self.inner.simulate(index, recorder, label))?;
        self.cycles += sample.map_or(0, |s| s.cycles);
        Ok(sample)
    }
}

/// Spans each `observe` of a policy built by `PolicyConfig::build`.
struct TimedPolicy {
    inner: Box<dyn ConfigPolicy>,
    observes: u64,
}

impl ConfigPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn num_configs(&self) -> usize {
        self.inner.num_configs()
    }
    fn intervals_seen(&self) -> u64 {
        self.inner.intervals_seen()
    }
    fn observe(&mut self, config: usize, tpi_ns: f64) -> ManagerDecision {
        self.observes += 1;
        let name = self.inner.name();
        span_tagged("core.policy.observe", Tag::Policy(name), || {
            self.inner.observe(config, tpi_ns)
        })
    }
    fn record_switch_outcome(&mut self, target: usize, outcome: SwitchOutcome) {
        self.inner.record_switch_outcome(target, outcome);
    }
    fn mask_unavailable(&mut self, configs: &[usize]) -> Result<(), CapError> {
        self.inner.mask_unavailable(configs)
    }
    fn decision_counts(&self) -> DecisionCounts {
        self.inner.decision_counts()
    }
    fn resilience_stats(&self) -> ResilienceStats {
        self.inner.resilience_stats()
    }
    fn quarantined_count(&self) -> usize {
        self.inner.quarantined_count()
    }
    fn is_quarantined(&self, config: usize) -> bool {
        self.inner.is_quarantined(config)
    }
    fn in_safe_mode(&self) -> bool {
        self.inner.in_safe_mode()
    }
    fn recorder(&self) -> Arc<dyn Recorder> {
        self.inner.recorder()
    }
    fn label(&self) -> Option<&str> {
        self.inner.label()
    }
}

fn curve_key(
    kind: &str,
    app: App,
    scale: &str,
    seed: u64,
    range: String,
    policy: Option<&str>,
) -> CacheKey {
    CacheKey {
        kind: kind.to_string(),
        app: app.name().to_string(),
        scale: scale.to_string(),
        seed,
        config_range: range,
        version: SWEEP_RESULTS_VERSION,
        policy: policy.map(str::to_string),
    }
}

/// A fresh journal for one op, opened as the `capsim` campaign opens it.
fn begin_journal(
    dir: &Path,
    file: &str,
    experiment: String,
    setup: &Setup,
) -> Result<Journal, String> {
    let header = JournalHeader {
        experiment,
        seed: setup.seed,
        scale: setup.scale.name().to_string(),
        policy: None,
        results_version: SWEEP_RESULTS_VERSION,
    };
    span("par.journal.begin", || {
        std::fs::create_dir_all(dir).map_err(err)?;
        Journal::begin(dir.join(file), header, false)
    })
}

/// Commits one leg value as the executor does: journal, then cache.
fn commit<T: serde::Serialize>(
    cache: &ResultCache,
    journal: &mut Journal,
    key: &CacheKey,
    value: &T,
    counts: &mut Counts,
) -> Result<(), String> {
    let leg = key.canonical();
    span("par.journal.append", || journal.append(&leg, value))?;
    counts.journal_bytes += std::fs::metadata(journal.path()).map_err(err)?.len();
    if !span("par.cache.store", || cache.store(key, value)) {
        return Err(format!("cache store failed for `{leg}`"));
    }
    Ok(())
}

struct SweepOp {
    cache_curves: Vec<CacheCurve>,
    queue_curves: Vec<QueueCurve>,
    dir: PathBuf,
    counts: Counts,
}

struct ManagedOp {
    rows: Vec<PolicyRow>,
    faults: [FaultedRun; 4],
    dir: PathBuf,
    counts: Counts,
}

/// Every curve of the suite as `CacheExperiment::sweep` and
/// `QueueExperiment::sweep` compute it: the fused library code each leg
/// of the sweep plan runs, with no cache or journal.
struct LibrarySweep {
    cache_curves: Vec<CacheCurve>,
    queue_curves: Vec<QueueCurve>,
    wall_ns: u64,
}

/// A `capsim serve` child over the warm cache, killed when dropped.
struct Server {
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// References produced by the `capsim` binary, once per traced run.
struct References {
    sweep: String,
    sweep_dir: PathBuf,
    policies: String,
    policies_dir: PathBuf,
    figures: String,
    warm_cache: PathBuf,
}

struct Runner<'a> {
    setup: &'a Setup,
    next_dir: usize,
    work: Work,
}

impl Runner<'_> {
    fn fresh(&mut self, label: &str) -> Result<PathBuf, String> {
        self.next_dir += 1;
        let dir = self.setup.work.join(format!("{label}-{}", self.next_dir));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(err)?;
        Ok(dir)
    }

    /// Runs `capsim` with its cache and journal under `dir`; returns stdout.
    fn capsim(&self, args: &[&str], dir: &Path) -> Result<String, String> {
        let out = Command::new(&self.setup.capsim)
            .args(args)
            .env("CAP_CACHE_DIR", dir.join("cache"))
            .env("CAP_JOURNAL_DIR", dir.join("journal"))
            .env("CAP_SCALE", self.setup.scale.name())
            .current_dir(dir)
            .output()
            .map_err(|e| format!("cannot run capsim: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "capsim {} failed: {}",
                args.join(" "),
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        String::from_utf8(out.stdout).map_err(err)
    }

    fn references(&mut self) -> Result<References, String> {
        let (seed, jobs) = (self.setup.seed.to_string(), self.setup.jobs.to_string());
        let mut run = |label: &str, campaign: &[&str]| -> Result<(String, PathBuf), String> {
            let dir = self.fresh(label)?;
            let mut args = vec!["plan"];
            args.extend_from_slice(campaign);
            args.extend(["--jobs", &jobs, "--seed", &seed]);
            Ok((self.capsim(&args, &dir)?, dir))
        };
        let (sweep, sweep_dir) = run("ref-sweep", &["sweep", "all"])?;
        let (policies, policies_dir) =
            run("ref-policies", &["compare-policies", MANAGED_APP.name()])?;
        let (figures, figures_dir) = run("ref-figures", &["figures"])?;
        Ok(References {
            sweep,
            sweep_dir,
            policies,
            policies_dir,
            figures,
            warm_cache: figures_dir.join("cache"),
        })
    }

    /// Starts `capsim serve` over the reference run's warm cache.
    fn server(&mut self, refs: &References) -> Result<Server, String> {
        let dir = self.fresh("serve")?;
        let addr_file = dir.join("addr");
        let child = Command::new(&self.setup.capsim)
            .args(["serve", "--jobs", &self.setup.jobs.to_string()])
            .args(["--addr", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            .env("CAP_CACHE_DIR", &refs.warm_cache)
            .env("CAP_JOURNAL_DIR", dir.join("journal"))
            .env("CAP_SCALE", self.setup.scale.name())
            .current_dir(&dir)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start capsim serve: {e}"))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        server.addr = wait_for_addr(&mut server.child, &addr_file)?;
        Ok(server)
    }

    /// `capsim sweep all --jobs 1`: every cache and queue curve of the
    /// suite, each committed to a fresh result cache and journal.
    fn sweep_op(&mut self) -> Result<SweepOp, String> {
        let setup = self.setup;
        let (scale, seed) = (setup.scale, setup.seed);
        let dir = self.fresh("sweep-op")?;
        let cache = ResultCache::at(dir.join("cache"));
        let mut counts = Counts::default();
        let mut journal = begin_journal(
            &dir.join("journal"),
            &format!("sweep-all-{}-{seed:016x}.jsonl", scale.name()),
            "sweep-all".to_string(),
            setup,
        )?;

        let ctiming = CacheTimingModel::isca98(Technology::isca98_evaluation());
        let geometry = ctiming.geometry();
        let boundaries: Vec<Boundary> = Boundary::paper_sweep().collect();
        if !one_pass_supported(geometry, &boundaries) {
            return Err("the paper boundaries no longer fit the one-pass cache sweep".to_string());
        }
        let nrefs = scale.cache_refs();
        let range = format!(
            "L1 {}..{}KB x{} @{}refs",
            boundaries.first().map_or(0, |b| b.l1_kb()),
            boundaries.last().map_or(0, |b| b.l1_kb()),
            boundaries.len(),
            nrefs
        );
        let mut cache_curves = Vec::new();
        for app in App::cache_suite() {
            let profile = app.memory_profile();
            let refs: Vec<MemRef> = span("trace.ref_gen", || {
                let mut stream = profile.build(seed ^ app.seed_salt());
                (0..nrefs).map(|_| stream.next_ref()).collect()
            });
            let stack = span("cache.stack", || {
                stack_profile(
                    Replay {
                        refs: &refs,
                        pos: 0,
                    },
                    nrefs,
                    geometry,
                )
            });
            let params = PerfParams::isca98(profile.insts_per_ref);
            let points = span("timing.eval", || {
                boundaries
                    .iter()
                    .map(|&b| {
                        let l1_ways =
                            b.increments().min(geometry.increments) * geometry.increment_assoc;
                        let stats = stack.stats_at(l1_ways);
                        let tpi = evaluate(&stats, b, &ctiming, params)?;
                        Ok(CachePoint {
                            l1_kb: b.l1_kb(),
                            l1_assoc: b.l1_assoc(),
                            cycle_ns: tpi.cycle.value(),
                            tpi_ns: tpi.total_tpi().value(),
                            tpi_miss_ns: tpi.miss_tpi.value(),
                            l1_miss_ratio: stats.l1_miss_ratio(),
                            global_miss_ratio: stats.global_miss_ratio(),
                        })
                    })
                    .collect::<Result<Vec<_>, cap_cache::CacheError>>()
            })
            .map_err(err)?;
            self.work.refs_swept += nrefs;
            self.work.curves += 1;
            counts.refs_classified += stack.refs();
            let curve = CacheCurve {
                app: app.name().to_string(),
                integer_panel: app.in_integer_panel(),
                points,
            };
            let key = curve_key("cache-sweep", app, scale.name(), seed, range.clone(), None);
            commit(&cache, &mut journal, &key, &curve, &mut counts)?;
            cache_curves.push(curve);
        }

        let qtiming = QueueTimingModel::new(Technology::isca98_evaluation());
        let insts = scale.queue_insts();
        let windows: Vec<WindowSize> = WindowSize::paper_sweep().collect();
        let range = format!(
            "W {}..{} x{} @{}insts",
            windows.first().map_or(0, |w| w.entries()),
            windows.last().map_or(0, |w| w.entries()),
            windows.len(),
            insts
        );
        let mut queue_curves = Vec::new();
        for app in App::queue_suite() {
            let tape = InstTape::new(app.ilp_profile().build(seed ^ app.seed_salt()));
            let fill = insts + TAPE_SLACK;
            span("trace.inst_gen", || {
                let mut cursor = tape.cursor();
                for _ in 0..fill {
                    std::hint::black_box(cursor.next_inst());
                }
            });
            let mut points = Vec::with_capacity(windows.len());
            for &w in &windows {
                let stats = span_tagged(
                    "ooo.core",
                    Tag::Window(w.entries()),
                    || -> Result<RunStats, String> {
                        let mut core =
                            OooCore::try_new(CoreConfig::isca98(w.entries()).map_err(err)?)
                                .map_err(err)?;
                        Ok(core.run(&mut tape.cursor(), insts))
                    },
                )?;
                let (cycle, tpi) =
                    span("timing.eval", || cap_ooo::perf::tpi(w, stats, &qtiming)).map_err(err)?;
                *self
                    .work
                    .committed_by_window
                    .entry(w.entries())
                    .or_default() += stats.committed;
                self.work.sweep_cycles += stats.cycles;
                counts.sim_cycles += stats.cycles;
                points.push(QueuePoint {
                    entries: w.entries(),
                    cycle_ns: cycle.value(),
                    ipc: stats.ipc(),
                    tpi_ns: tpi.value(),
                });
            }
            self.work.insts_filled += fill;
            self.work.curves += 1;
            counts.insts_generated += tape.generated() as u64;
            let curve = QueueCurve {
                app: app.name().to_string(),
                integer_panel: app.in_integer_panel(),
                points,
            };
            let key = curve_key("queue-sweep", app, scale.name(), seed, range.clone(), None);
            commit(&cache, &mut journal, &key, &curve, &mut counts)?;
            queue_curves.push(curve);
        }
        Ok(SweepOp {
            cache_curves,
            queue_curves,
            dir,
            counts,
        })
    }

    /// One managed run of the queue under a policy, as
    /// `IntervalExperiment` and `FaultCampaign` drive it.
    fn managed_queue(
        &mut self,
        config: &PolicyConfig,
        label: String,
        intervals: u64,
        interval_len: u64,
        fault_seed: Option<u64>,
        counts: &mut Counts,
    ) -> Result<FaultedRun, String> {
        let app = MANAGED_APP;
        let timing = QueueTimingModel::new(Technology::isca98_evaluation());
        let mut structure = QueueStructure::isca98(timing, 0).map_err(err)?;
        let mut clock = DynamicClock::new(
            structure.period_table().map_err(err)?,
            DEFAULT_SWITCH_PENALTY_CYCLES,
        )
        .map_err(err)?;
        let inner = config
            .build(structure.num_configs(), cap_obs::noop(), Some(label))
            .map_err(err)?;
        let mut policy = TimedPolicy { inner, observes: 0 };
        let mut injector = fault_seed
            .map(|s| FaultInjector::new(FaultSpec::standard(), s, structure.num_configs()))
            .transpose()
            .map_err(err)?;
        let mut stream = CountingInsts {
            inner: app.ilp_profile().build(self.setup.seed ^ app.seed_salt()),
            n: 0,
        };
        let inner =
            QueueIntervalSim::new(&mut structure, &mut stream, interval_len).map_err(err)?;
        let mut sim = TimedSim {
            inner,
            name: "ooo.interval",
            cycles: 0,
        };
        let run = run_managed(
            &mut sim,
            &mut policy,
            &mut clock,
            intervals,
            injector.as_mut(),
            SwitchRetryPolicy::default(),
        )
        .map_err(err)?;
        counts.sim_cycles += sim.cycles;
        counts.insts_generated += stream.n;
        counts.observes += policy.observes;
        counts.switches += run.run.switches;
        Ok(run)
    }

    /// One managed run of the cache hierarchy, as `FaultCampaign` drives it.
    fn managed_cache(
        &mut self,
        config: &PolicyConfig,
        label: String,
        fault_seed: Option<u64>,
        counts: &mut Counts,
    ) -> Result<FaultedRun, String> {
        let app = MANAGED_APP;
        let timing = CacheTimingModel::isca98(Technology::isca98_evaluation());
        let mut structure = CacheStructure::isca98(timing, 0).map_err(err)?;
        let mut clock = DynamicClock::new(
            structure.period_table().map_err(err)?,
            DEFAULT_SWITCH_PENALTY_CYCLES,
        )
        .map_err(err)?;
        let inner = config
            .build(structure.num_configs(), cap_obs::noop(), Some(label))
            .map_err(err)?;
        let mut policy = TimedPolicy { inner, observes: 0 };
        let mut injector = fault_seed
            .map(|s| FaultInjector::new(FaultSpec::standard(), s, structure.num_configs()))
            .transpose()
            .map_err(err)?;
        if let Some(inj) = injector.as_mut() {
            // Dead increments are drawn before the run, as the campaign does.
            let dead = inj.draw_dead_increments(structure.timing().geometry().increments);
            let unavailable = structure.retire_increments(dead);
            if !unavailable.is_empty() {
                policy.mask_unavailable(&unavailable).map_err(err)?;
            }
        }
        let profile = app.memory_profile();
        let mut stream = CountingRefs {
            inner: profile.build(self.setup.seed ^ app.seed_salt()),
            n: 0,
        };
        let inner = CacheIntervalSim::new(&mut structure, &mut stream, 4000, profile.insts_per_ref)
            .map_err(err)?;
        let mut sim = TimedSim {
            inner,
            name: "cache.interval",
            cycles: 0,
        };
        let run = run_managed(
            &mut sim,
            &mut policy,
            &mut clock,
            120,
            injector.as_mut(),
            SwitchRetryPolicy::default(),
        )
        .map_err(err)?;
        self.work.refs_simulated += stream.n;
        counts.refs_simulated += stream.n;
        counts.observes += policy.observes;
        counts.switches += run.run.switches;
        Ok(run)
    }

    /// `capsim compare-policies turb3d` then `capsim faults turb3d`.
    /// The two fault legs' journal appends are not composed: their
    /// values are the campaign's private report rows.
    fn managed_op(&mut self) -> Result<ManagedOp, String> {
        let setup = self.setup;
        let (scale, seed, app) = (setup.scale, setup.seed, MANAGED_APP);
        let dir = self.fresh("managed-op")?;
        let cache = ResultCache::at(dir.join("cache"));
        let mut counts = Counts::default();
        let mut journal = begin_journal(
            &dir.join("journal"),
            &format!(
                "compare-policies-{}-{}-{seed:016x}.jsonl",
                app.name(),
                scale.name()
            ),
            format!("compare-policies-{}", app.name()),
            setup,
        )?;
        let mut rows = Vec::new();
        for kind in PolicyKind::ALL {
            let run = self.managed_queue(
                &PolicyConfig::new(kind),
                app.name().to_string(),
                POLICY_INTERVALS,
                PAPER_INTERVAL_INSTS,
                None,
                &mut counts,
            )?;
            let row = PolicyRow {
                policy: kind.name().to_string(),
                tpi_ns: run.run.average_tpi().value(),
                switches: run.run.switches,
            };
            let key = curve_key(
                "managed-policy",
                app,
                &format!("{POLICY_INTERVALS}x{PAPER_INTERVAL_INSTS}insts"),
                seed,
                "W isca98".to_string(),
                Some(kind.name()),
            );
            commit(&cache, &mut journal, &key, &row, &mut counts)?;
            rows.push(row);
        }

        let manager = PolicyConfig::new(PolicyKind::Confidence)
            .with_explore_period(25)
            .with_resilience(ResiliencePolicy::hardened());
        let label = |leg: &str| format!("{}:{leg}", app.name());
        let queue_clean =
            self.managed_queue(&manager, label("queue:clean"), 120, 1000, None, &mut counts)?;
        let queue_faulty = self.managed_queue(
            &manager,
            label("queue:faulty"),
            120,
            1000,
            Some(seed ^ 0xFA17_0001),
            &mut counts,
        )?;
        let cache_clean = self.managed_cache(&manager, label("cache:clean"), None, &mut counts)?;
        let cache_faulty = self.managed_cache(
            &manager,
            label("cache:faulty"),
            Some(seed ^ 0xFA17_0002),
            &mut counts,
        )?;
        Ok(ManagedOp {
            rows,
            faults: [queue_clean, queue_faulty, cache_clean, cache_faulty],
            dir,
            counts,
        })
    }

    /// The in-process cold run of the sweep plan, which adds the plan's
    /// own overhead (result cache, journal, reduces) to the library
    /// sweep; returns its wall time.
    fn cold_plan_run(
        &mut self,
        refs: &References,
        errors: &mut Vec<String>,
    ) -> Result<u64, String> {
        let setup = self.setup;
        let dir = self.fresh("plan-cold")?;
        let journal = begin_journal(
            &dir.join("journal"),
            &format!("sweep-all-{}-{:016x}.jsonl", setup.scale.name(), setup.seed),
            "sweep-all".to_string(),
            setup,
        )?;
        let exec = ExecPolicy::serial()
            .cached(ResultCache::at(dir.join("cache")))
            .with_journal(journal);
        let spec = plan::sweep_plan("all", setup.scale, setup.seed).map_err(err)?;
        let start = Instant::now();
        let run = span("core.plan.cold_run", || Executor::run(&spec, &exec)).map_err(err)?;
        let elapsed = start.elapsed().as_nanos() as u64;
        check(errors, run.rendered() == refs.sweep, || {
            "in-process cold sweep plan differs from capsim".into()
        });
        let _ = std::fs::remove_dir_all(&dir);
        Ok(elapsed)
    }

    /// The served op: plan resolve and warm run against a copy of the
    /// warm cache, then `submit` and `status` round trips to the server.
    fn serve_op(
        &mut self,
        addr: &str,
        warm: &Path,
        refs: &References,
        errors: &mut Vec<String>,
    ) -> Result<Counts, String> {
        let setup = self.setup;
        let exec = ExecPolicy::serial().cached(ResultCache::at(warm));
        let spec = plan::figures_plan(setup.scale, setup.seed).map_err(err)?;
        let resolution = span("core.plan.resolve", || Executor::resolve(&spec, &exec));
        let hits = resolution
            .legs
            .iter()
            .filter(|l| l.class == LegClass::CacheHit)
            .count();
        check(errors, hits == resolution.legs.len(), || {
            format!("warm resolve: {hits} of {} legs hit", resolution.legs.len())
        });
        let run = span("core.plan.warm_run", || Executor::run(&spec, &exec)).map_err(err)?;
        check(errors, run.rendered() == refs.figures, || {
            "in-process warm figures differ from capsim".into()
        });
        check(errors, run.stats().computed == 0, || {
            "warm figures computed legs".into()
        });
        let args: Vec<String> = vec!["figures".into(), "--seed".into(), setup.seed.to_string()];
        let mut counts = Counts::default();
        for _ in 0..SUBMITS_PER_ROUND {
            let out = span("serve.submit", || serve::submit(addr, &args))?;
            check(errors, out.report == refs.figures, || {
                "served figures differ from capsim".into()
            });
            counts = Counts {
                legs_cache_hit: out.stats.cache_hits,
                legs_computed: out.stats.computed,
                ..Counts::default()
            };
        }
        for _ in 0..STATUSES_PER_ROUND {
            span("serve.status", || serve::status(addr))?;
        }
        Ok(counts)
    }
}

fn same_json<T: serde::Serialize>(a: &T, b: &T) -> bool {
    serde_json::to_string(a).ok() == serde_json::to_string(b).ok()
}

fn files_under(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if let Ok(bytes) = std::fs::read(&path) {
                out.insert(path.strip_prefix(dir).unwrap_or(&path).to_path_buf(), bytes);
            }
        }
    }
    out
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    for (rel, bytes) in files_under(from) {
        let dest = to.join(rel);
        if let Some(parent) = dest.parent() {
            std::fs::create_dir_all(parent).map_err(err)?;
        }
        std::fs::write(dest, bytes).map_err(err)?;
    }
    Ok(())
}

fn library_sweep(setup: &Setup) -> Result<LibrarySweep, String> {
    let cache_exp = CacheExperiment::new(setup.scale)
        .map_err(err)?
        .with_seed(setup.seed);
    let queue_exp = QueueExperiment::new(setup.scale).with_seed(setup.seed);
    let start = Instant::now();
    let (cache_curves, queue_curves) = span("core.experiments.sweep", || {
        let cache: Result<Vec<_>, CapError> =
            App::cache_suite().map(|app| cache_exp.sweep(app)).collect();
        let queue: Result<Vec<_>, CapError> =
            App::queue_suite().map(|app| queue_exp.sweep(app)).collect();
        (cache, queue)
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    Ok(LibrarySweep {
        cache_curves: cache_curves.map_err(err)?,
        queue_curves: queue_curves.map_err(err)?,
        wall_ns,
    })
}

/// Proves the composed sweep does the `capsim sweep all` work.
fn verify_sweep(
    op: &SweepOp,
    library: &LibrarySweep,
    refs: &References,
    setup: &Setup,
    errors: &mut Vec<String>,
) -> Result<(), String> {
    for ((app, composed), reference) in App::cache_suite()
        .zip(&op.cache_curves)
        .zip(&library.cache_curves)
    {
        check(errors, same_json(composed, reference), || {
            format!(
                "cache curve of {} differs from CacheExperiment::sweep",
                app.name()
            )
        });
    }
    for ((app, composed), reference) in App::queue_suite()
        .zip(&op.queue_curves)
        .zip(&library.queue_curves)
    {
        check(errors, same_json(composed, reference), || {
            format!(
                "queue curve of {} differs from QueueExperiment::sweep",
                app.name()
            )
        });
    }
    check(
        errors,
        files_under(&op.dir) == files_under(&refs.sweep_dir),
        || "composed sweep cache entries or journal differ from capsim's".into(),
    );
    let exec = ExecPolicy::serial().cached(ResultCache::at(op.dir.join("cache")));
    let spec = plan::sweep_plan("all", setup.scale, setup.seed).map_err(err)?;
    let run = Executor::run(&spec, &exec).map_err(err)?;
    check(errors, run.rendered() == refs.sweep, || {
        "composed sweep values do not replay into capsim's report".into()
    });
    check(errors, run.stats().computed == 0, || {
        "composed sweep cache keys miss the production plan".into()
    });
    Ok(())
}

/// Proves the composed managed runs do the `compare-policies` and
/// `faults` work.
fn verify_managed(
    op: &ManagedOp,
    refs: &References,
    setup: &Setup,
    errors: &mut Vec<String>,
) -> Result<(), String> {
    let reference = IntervalExperiment::new()
        .with_seed(setup.seed)
        .compare_policies(MANAGED_APP, POLICY_INTERVALS)
        .map_err(err)?;
    check(errors, same_json(&op.rows, &reference.rows), || {
        "composed policy rows differ from compare_policies".into()
    });
    let exec = ExecPolicy::serial().cached(ResultCache::at(op.dir.join("cache")));
    let spec = plan::compare_policies_plan(MANAGED_APP, POLICY_INTERVALS, setup.seed);
    let run = Executor::run(&spec, &exec).map_err(err)?;
    check(errors, run.rendered() == refs.policies, || {
        "composed policy rows do not replay into capsim's report".into()
    });
    check(errors, run.stats().computed == 0, || {
        "composed policy cache keys miss the production plan".into()
    });
    check(
        errors,
        files_under(&op.dir) == files_under(&refs.policies_dir),
        || "composed compare-policies cache entries or journal differ from capsim's".into(),
    );
    let report = FaultCampaign::new(MANAGED_APP, setup.seed)
        .run()
        .map_err(err)?;
    let [qc, qf, cc, cf] = &op.faults;
    for (leg, clean, faulty) in [(&report.queue, qc, qf), (&report.cache, cc, cf)] {
        let same = leg.clean_tpi_ns.to_bits() == clean.run.average_tpi().value().to_bits()
            && leg.faulty_tpi_ns.to_bits() == faulty.run.average_tpi().value().to_bits()
            && leg.clean_switches == clean.run.switches
            && leg.faulty_switches == faulty.run.switches
            && leg.retries == faulty.retries
            && leg.switch_failures == faulty.switch_failures;
        check(errors, same, || {
            format!(
                "composed {} fault runs differ from FaultCampaign::run",
                leg.structure
            )
        });
    }
    Ok(())
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs the traced rounds and derives every per-layer metric.
pub fn run(setup: &Setup) -> Result<Outcome, String> {
    let mut runner = Runner {
        setup,
        next_dir: 0,
        work: Work::default(),
    };
    let mut errors = Vec::new();
    let refs = runner.references()?;
    let warm = runner.fresh("warm-copy")?.join("cache");
    copy_dir(&refs.warm_cache, &warm)?;
    let server = runner.server(&refs)?;

    let mut sweep_counts = Vec::new();
    let mut managed_counts = Vec::new();
    let mut serve_counts = Vec::new();
    let mut plan_overheads_ms = Vec::new();
    let mut op_ids: HashMap<&'static str, Vec<u64>> = HashMap::new();
    let mut op = 0u64;
    for round in 0..setup.rounds {
        op += 1;
        spans::set_op(op);
        op_ids.entry("sweep-cold").or_default().push(op);
        let sweep = span("op", || runner.sweep_op())?;
        sweep_counts.push(sweep.counts);

        op += 1;
        spans::set_op(op);
        let library = library_sweep(setup)?;
        let cold_ns = runner.cold_plan_run(&refs, &mut errors)?;
        plan_overheads_ms.push((cold_ns as f64 - library.wall_ns as f64) / 1e6);
        verify_sweep(&sweep, &library, &refs, setup, &mut errors)?;
        let _ = std::fs::remove_dir_all(&sweep.dir);

        op += 1;
        spans::set_op(op);
        op_ids.entry("managed-intervals").or_default().push(op);
        let managed = span("op", || runner.managed_op())?;
        managed_counts.push(managed.counts);
        if round == 0 {
            verify_managed(&managed, &refs, setup, &mut errors)?;
        }
        let _ = std::fs::remove_dir_all(&managed.dir);

        op += 1;
        spans::set_op(op);
        op_ids.entry("serve-warm").or_default().push(op);
        serve_counts.push(span("op", || {
            runner.serve_op(&server.addr, &warm, &refs, &mut errors)
        })?);
    }
    drop(server);

    let spans = spans::take();
    let metrics = derive_metrics(
        setup,
        &runner.work,
        &spans,
        &op_ids,
        &plan_overheads_ms,
        [&sweep_counts, &managed_counts, &serve_counts],
        &mut errors,
    );
    Ok(Outcome {
        errors,
        metrics,
        spans,
    })
}

fn wait_for_addr(child: &mut Child, path: &Path) -> Result<String, String> {
    for _ in 0..2000 {
        if let Some(status) = child.try_wait().map_err(err)? {
            return Err(format!("capsim serve exited ({status}) before listening"));
        }
        if let Ok(body) = std::fs::read_to_string(path) {
            let addr = body.trim();
            if !addr.is_empty() {
                return Ok(addr.to_string());
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Err("capsim serve never wrote its address".to_string())
}

fn derive_metrics(
    setup: &Setup,
    work: &Work,
    spans: &[Span],
    op_ids: &HashMap<&'static str, Vec<u64>>,
    plan_overheads_ms: &[f64],
    counts: [&Vec<Counts>; 3],
    errors: &mut Vec<String>,
) -> Vec<(String, f64)> {
    let totals = spans::totals(spans);
    let self_ns = |name: &'static str, tag: Tag| totals.get(&(name, tag)).map_or(0, |t| t.0) as f64;
    let count = |name: &'static str, tag: Tag| totals.get(&(name, tag)).map_or(0, |t| t.1) as f64;
    let self_times = spans::self_times(spans);
    let per_op_self = |op: u64, names: &[&str]| -> f64 {
        spans
            .iter()
            .zip(&self_times)
            .filter(|(s, _)| s.op == op && names.contains(&s.name))
            .map(|(_, &t)| t as f64)
            .sum()
    };
    let durations = |name: &'static str, ops: &[u64]| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && ops.contains(&s.op))
            .map(|s| s.dur_ns() as f64)
            .collect()
    };

    let mut m: Vec<(String, f64)> = Vec::new();
    let ids = |w: &str| op_ids.get(w).cloned().unwrap_or_default();
    let op_ms = match setup.workload.as_str() {
        "serve-warm" => median(durations("serve.submit", &ids("serve-warm"))) / 1e6,
        w => median(durations("op", &ids(w))) / 1e6,
    };
    m.push(("traced.op_ms".into(), op_ms));

    // On the sweep, the share of each op's wall time outside any layer span.
    const LAYERS: [&str; 8] = [
        "trace.inst_gen",
        "trace.ref_gen",
        "cache.stack",
        "ooo.core",
        "timing.eval",
        "par.cache.store",
        "par.journal.append",
        "par.journal.begin",
    ];
    let uncovered: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "op" && ids("sweep-cold").contains(&s.op))
        .map(|s| (s.dur_ns() as f64 - per_op_self(s.op, &LAYERS)) / s.dur_ns() as f64)
        .collect();
    let uncovered_share = uncovered.iter().cloned().fold(0.0, f64::max);
    check(errors, uncovered_share < 0.1, || {
        format!(
            "{:.1}% of the traced sweep op lies outside layer spans",
            uncovered_share * 100.0
        )
    });
    m.push(("traced.uncovered_share".into(), median(uncovered)));

    let mut core_ns = 0.0;
    for w in WindowSize::paper_sweep() {
        let ns = self_ns("ooo.core", Tag::Window(w.entries()));
        core_ns += ns;
        let committed = work
            .committed_by_window
            .get(&w.entries())
            .copied()
            .unwrap_or(0) as f64;
        m.push((
            format!("ooo.core_minsts_per_s.w{}", w.entries()),
            committed / ns * 1e3,
        ));
    }
    m.push((
        "ooo.host_ns_per_sim_cycle".into(),
        core_ns / work.sweep_cycles as f64,
    ));
    m.push((
        "trace.inst_gen_minsts_per_s".into(),
        work.insts_filled as f64 / self_ns("trace.inst_gen", Tag::None) * 1e3,
    ));
    m.push((
        "trace.ref_gen_mrefs_per_s".into(),
        work.refs_swept as f64 / self_ns("trace.ref_gen", Tag::None) * 1e3,
    ));
    m.push((
        "cache.stack_mrefs_per_s".into(),
        work.refs_swept as f64 / self_ns("cache.stack", Tag::None) * 1e3,
    ));
    m.push((
        "cache.hier_mrefs_per_s".into(),
        work.refs_simulated as f64 / self_ns("cache.interval", Tag::None) * 1e3,
    ));
    let mean_us = |name: &'static str| self_ns(name, Tag::None) / count(name, Tag::None) / 1e3;
    m.push(("ooo.interval_us".into(), mean_us("ooo.interval")));
    m.push(("cache.interval_us".into(), mean_us("cache.interval")));
    m.push((
        "timing.curve_eval_us".into(),
        self_ns("timing.eval", Tag::None) / work.curves as f64 / 1e3,
    ));
    for kind in PolicyKind::ALL {
        let tag = Tag::Policy(kind.name());
        m.push((
            format!("core.policy.observe_ns.{}", kind.name()),
            self_ns("core.policy.observe", tag) / count("core.policy.observe", tag),
        ));
    }
    m.push(("par.cache.store_us".into(), mean_us("par.cache.store")));
    m.push((
        "par.journal.append_us".into(),
        mean_us("par.journal.append"),
    ));
    m.push((
        "core.plan.cold_overhead_ms".into(),
        median(plan_overheads_ms.to_vec()),
    ));
    let serve_ops = ids("serve-warm");
    m.push((
        "core.plan.resolve_ms".into(),
        median(durations("core.plan.resolve", &serve_ops)) / 1e6,
    ));
    let warm_run_ms = median(durations("core.plan.warm_run", &serve_ops)) / 1e6;
    m.push(("core.plan.warm_run_ms".into(), warm_run_ms));
    let submit_ms = median(durations("serve.submit", &serve_ops)) / 1e6;
    m.push(("serve.submit_rtt_ms".into(), submit_ms));
    m.push((
        "serve.status_rtt_ms".into(),
        median(durations("serve.status", &serve_ops)) / 1e6,
    ));
    m.push(("serve.overhead_ms".into(), submit_ms - warm_run_ms));

    let [sweep, managed, served] = counts;
    let ops = match setup.workload.as_str() {
        "sweep-cold" => sweep,
        "managed-intervals" => managed,
        _ => served,
    };
    check(errors, ops.windows(2).all(|w| w[0] == w[1]), || {
        "counts differ between identical ops".into()
    });
    let c = ops.first().copied().unwrap_or_default();
    for (name, v) in [
        ("trace.insts_generated", c.insts_generated),
        ("cache.refs_classified", c.refs_classified),
        ("cache.refs_simulated", c.refs_simulated),
        ("ooo.sim_cycles", c.sim_cycles),
        ("core.policy.observes", c.observes),
        ("core.policy.switches", c.switches),
        ("serve.legs_cache_hit", c.legs_cache_hit),
        ("serve.legs_computed", c.legs_computed),
        ("par.journal.bytes_written", c.journal_bytes),
    ] {
        m.push((name.to_string(), v as f64));
    }
    m
}
