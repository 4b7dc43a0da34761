//! The declarative plan/execute kernel behind every campaign driver.
//!
//! An [`ExperimentSpec`] is a DAG of content-addressed [`Leg`]s (curve
//! sweeps, interval series, managed runs, fault legs) plus pure
//! [`Reduce`] nodes (figures, headlines, tables). ONE [`Executor`] runs
//! any spec over an [`ExecPolicy`], inheriting `--jobs`, the result
//! cache, journal/resume, the per-leg deadline, chaos injection and
//! `cap-obs` tracing uniformly — the per-driver leg loops that used to
//! live in `experiments.rs`, `faults.rs` and the `capsim` subcommands
//! are now thin plan builders over this module.
//!
//! **Content addressing and dedup.** A leg's identity is its canonical
//! key string — the same string used as its journal identity, its
//! deadline and chaos label, and (for cacheable legs) derived from its
//! [`CacheKey`]. [`ExperimentSpec::leg`] dedupes on that key, so a plan
//! that mentions the same leg twice (figure 8 and figure 9 both reusing
//! figure 7's curves; `compare-policies` sharing baseline legs) executes
//! it once and fans the value out to every reduce that depends on it.
//!
//! **Execution protocol.** One protocol serves the CLI and the campaign
//! service. [`Executor::run`] replays journal hits on the calling
//! thread, then sends every other leg through one pool batch. Inside the
//! leg's slot in the policy's single-flight table, the leader probes the
//! result cache once; on a miss it takes a gate permit, computes under
//! the policy's per-leg guard, and stores the value before the slot
//! retires. Concurrent runs sharing the policy (the service's requests)
//! wait on the slot and share the value. Once a leg fails, no further
//! leg starts. Completed legs — cache hits included, so warm and cold
//! runs journal the same leg sequence — are committed to the journal in
//! plan order, even when another leg failed or the batch drained, so
//! `--resume` replays finished work instead of recomputing it. Reduces
//! are pure functions of leg values and never touch the journal or
//! cache.
//!
//! **The leg guard.** Every computed leg, of every kind, runs under one
//! guard keyed by its canonical key: the chaos hooks, then the policy's
//! [`WatchdogPolicy`](cap_par::WatchdogPolicy) deadline, past which the
//! leg fails with [`CapError::LegTimedOut`] and its thread is abandoned
//! with its gate permit.
//!
//! **Inspection.** [`Executor::resolve`] classifies every leg as a
//! journal hit, a result-cache hit or a miss *without* executing or
//! journaling anything — the engine behind `capsim plan <cmd> --dry-run`.

use crate::error::CapError;
use crate::experiments::{
    CacheCurve, CacheExperiment, CachePoint, ExecPolicy, ExperimentScale, IntervalExperiment,
    PolicyRow, QueueCurve, QueueExperiment, SNAPSHOT_FIGURES,
};
use crate::report;
use cap_obs::{Event, LegDedupEvent, LegTimeoutEvent};
use cap_par::{drain_requested, CacheKey, TimedOut};
use cap_workloads::App;
use serde::Serialize;
use serde_json::{FromJson, Value};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};

type Compute = Arc<dyn Fn(&ExecPolicy) -> Result<Value, CapError> + Send + Sync>;
type Validate = fn(&Value) -> bool;
type Render = Arc<dyn Fn(&[&Value]) -> Result<String, CapError> + Send + Sync>;

/// One content-addressed unit of campaign work.
///
/// A leg owns its compute closure; the executor runs it under the one
/// leg guard (see the module docs), so a driver adds no guard of its
/// own. The closure's result type fixes the leg's shape: a journaled or
/// cached [`Value`] that does not decode as that type is treated as a
/// miss, never a panic.
pub struct Leg {
    key: String,
    kind: String,
    cache_key: Option<CacheKey>,
    compute: Compute,
    validate: Validate,
}

impl Leg {
    /// A result-cacheable leg. Its plan identity, journal identity and
    /// cache identity are all the key's canonical string.
    pub(crate) fn cached<T: Serialize + FromJson>(
        cache_key: CacheKey,
        compute: impl Fn(&ExecPolicy) -> Result<T, CapError> + Send + Sync + 'static,
    ) -> Self {
        let kind = cache_key.kind.clone();
        Self::typed(cache_key.canonical(), kind, Some(cache_key), compute)
    }

    /// Result-cacheable legs, one per key, that share one computation.
    /// The first of them to run calls `compute`, which returns one part
    /// per key; every leg then takes its own part with `take`. A leg taken
    /// from the cache or the journal calls neither.
    pub(crate) fn shared<P: Send + Sync + 'static, T: Serialize + FromJson>(
        keys: Vec<CacheKey>,
        compute: impl Fn(&ExecPolicy) -> Result<Vec<P>, CapError> + Send + Sync + 'static,
        take: impl Fn(&P, &ExecPolicy) -> T + Send + Sync + 'static,
    ) -> Vec<Self> {
        let parts: Arc<OnceLock<Result<Vec<P>, CapError>>> = Arc::default();
        let (compute, take) = (Arc::new(compute), Arc::new(take));
        let leg = |(part, key)| {
            let (parts, compute, take) = (parts.clone(), compute.clone(), take.clone());
            Leg::cached(key, move |exec| {
                let parts = parts.get_or_init(|| compute(exec)).as_ref().map_err(CapError::clone)?;
                Ok(take(&parts[part], exec))
            })
        };
        keys.into_iter().enumerate().map(leg).collect()
    }

    /// A journal-only leg (fault-campaign legs: resumable but not
    /// persisted to the result cache).
    pub(crate) fn journaled<T: Serialize + FromJson>(
        key: String,
        kind: &str,
        compute: impl Fn(&ExecPolicy) -> Result<T, CapError> + Send + Sync + 'static,
    ) -> Self {
        Self::typed(key, kind.to_string(), None, compute)
    }

    fn typed<T: Serialize + FromJson>(
        key: String,
        kind: String,
        cache_key: Option<CacheKey>,
        compute: impl Fn(&ExecPolicy) -> Result<T, CapError> + Send + Sync + 'static,
    ) -> Self {
        Leg {
            key,
            kind,
            cache_key,
            // The typed result becomes the `Value` the executor journals,
            // caches and hands to reduces; the vendored emitter and
            // parser round-trip exactly, so this is lossless.
            compute: Arc::new(move |exec| {
                let value = compute(exec)?;
                Ok(serde_json::to_value(&value).expect("emitted JSON parses back"))
            }),
            validate: |v| T::from_json(v).is_some(),
        }
    }

    /// The canonical content address (also the journal identity).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The leg's kind tag (`"cache-sweep"`, `"fault-campaign"`, ...).
    pub fn kind(&self) -> &str {
        &self.kind
    }
}

impl std::fmt::Debug for Leg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Leg")
            .field("key", &self.key)
            .field("kind", &self.kind)
            .field("cached", &self.cache_key.is_some())
            .finish()
    }
}

/// A handle to a leg within one [`ExperimentSpec`], returned by
/// [`ExperimentSpec::leg`] and used to declare reduce dependencies and
/// to read values out of a [`PlanRun`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LegId(usize);

/// A pure reduction over leg values: a figure table, a headline block,
/// a report section. Reduces render in declaration order and their
/// outputs concatenate into [`PlanRun::rendered`].
pub struct Reduce {
    name: String,
    deps: Vec<LegId>,
    render: Render,
}

impl std::fmt::Debug for Reduce {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reduce").field("name", &self.name).field("deps", &self.deps).finish()
    }
}

/// A declarative campaign: content-addressed legs plus pure reduces.
#[derive(Debug, Default)]
pub struct ExperimentSpec {
    name: String,
    legs: Vec<Leg>,
    index: HashMap<String, usize>,
    reduces: Vec<Reduce>,
}

impl ExperimentSpec {
    /// An empty spec with a display name.
    pub fn new(name: &str) -> Self {
        ExperimentSpec { name: name.to_string(), ..Default::default() }
    }

    /// The spec's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a leg, deduplicating by content address: adding a leg whose
    /// key is already in the plan returns the existing [`LegId`], so
    /// shared work (curves reused across figures, baselines shared
    /// across comparisons) executes exactly once.
    pub fn leg(&mut self, leg: Leg) -> LegId {
        if let Some(&i) = self.index.get(leg.key()) {
            return LegId(i);
        }
        let i = self.legs.len();
        self.index.insert(leg.key.clone(), i);
        self.legs.push(leg);
        LegId(i)
    }

    /// Adds a reduce node over previously added legs.
    pub fn reduce(
        &mut self,
        name: &str,
        deps: Vec<LegId>,
        render: impl Fn(&[&Value]) -> Result<String, CapError> + Send + Sync + 'static,
    ) {
        self.reduces.push(Reduce { name: name.to_string(), deps, render: Arc::new(render) });
    }

    /// The plan's legs, in insertion (= execution commit) order.
    pub fn legs(&self) -> &[Leg] {
        &self.legs
    }
}

/// Where each leg's value came from during one [`Executor::run`],
/// tallied per run. The campaign service aggregates these counters
/// across requests to *prove* single-flight dedup: for two concurrent
/// submissions of the same campaign, `computed` across both runs equals
/// the leg count of one, and the overlap shows up as `deduped`.
///
/// Its JSON form is the `stats` object of a `capsim serve` submit
/// response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, FromJson)]
pub struct RunStats {
    /// Legs actually computed by this run.
    pub computed: u64,
    /// Legs whose value was shared from a concurrent run's in-flight
    /// computation (single-flight dedup).
    pub deduped: u64,
    /// Legs decoded from the result cache.
    pub cache_hits: u64,
    /// Legs replayed from the attached journal.
    pub journal_hits: u64,
}

/// The outcome of [`Executor::run`]: every leg's value plus the
/// concatenated reduce output.
#[derive(Debug)]
pub struct PlanRun {
    values: Vec<Value>,
    rendered: String,
    stats: RunStats,
}

impl PlanRun {
    /// The resolved value of one leg.
    pub fn value(&self, id: LegId) -> &Value {
        &self.values[id.0]
    }

    /// The concatenated output of every reduce, in declaration order.
    pub fn rendered(&self) -> &str {
        &self.rendered
    }

    /// Per-run source tallies (journal / cache / computed / deduped).
    pub fn stats(&self) -> RunStats {
        self.stats
    }
}

/// Where one leg's value came from, when the journal did not hold it
/// (commit-loop bookkeeping).
enum LegSource {
    /// This run computed the value itself.
    Computed,
    /// A concurrent run computed it; single-flight shared the value.
    Deduped,
    /// The result cache held it (found by this run or by the concurrent
    /// run whose slot this one shared).
    CacheHit,
}

/// How [`Executor::resolve`] classified one leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LegClass {
    /// Already committed to the attached journal; `--resume` replays it.
    JournalHit,
    /// Present and valid in the result cache.
    CacheHit,
    /// Would be computed.
    Miss,
}

impl LegClass {
    /// Stable lowercase tag used in `--dry-run` output.
    pub fn tag(self) -> &'static str {
        match self {
            LegClass::JournalHit => "journal-hit",
            LegClass::CacheHit => "cache-hit",
            LegClass::Miss => "miss",
        }
    }
}

/// One row of a resolved (but unexecuted) plan.
#[derive(Debug, Clone)]
pub struct LegStatus {
    /// The leg's canonical content address.
    pub key: String,
    /// The leg's kind tag.
    pub kind: String,
    /// Where the value would come from.
    pub class: LegClass,
}

/// A resolved leg graph: the `capsim plan <cmd> --dry-run` payload.
#[derive(Debug, Clone)]
pub struct Resolution {
    /// The spec's display name.
    pub name: String,
    /// Per-leg classification, in plan order.
    pub legs: Vec<LegStatus>,
    /// Reduce node names, in declaration order.
    pub reduces: Vec<String>,
}

impl Resolution {
    /// Legs of one kind classified as `class`.
    pub fn count(&self, kind: &str, class: LegClass) -> usize {
        self.legs.iter().filter(|l| l.kind == kind && l.class == class).count()
    }

    /// Renders the graph as the stable plain-text block printed by
    /// `capsim plan <cmd> --dry-run` (golden-locked in `results/`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan: {} ({} leg(s), {} reduce(s))\n",
            self.name,
            self.legs.len(),
            self.reduces.len()
        ));
        for leg in &self.legs {
            out.push_str(&format!("  [{:<11}] {}\n", leg.class.tag(), leg.key));
        }
        for name in &self.reduces {
            out.push_str(&format!("  reduce: {name}\n"));
        }
        out.push_str("summary:\n");
        let mut kinds: Vec<&str> = Vec::new();
        for leg in &self.legs {
            if !kinds.contains(&leg.kind.as_str()) {
                kinds.push(&leg.kind);
            }
        }
        let tally = |pick: &dyn Fn(&LegStatus) -> bool| {
            let rows: Vec<&LegStatus> = self.legs.iter().filter(|l| pick(l)).collect();
            let class = |c: LegClass| rows.iter().filter(|l| l.class == c).count();
            format!(
                "{} leg(s), {} journal-hit, {} cache-hit, {} miss",
                rows.len(),
                class(LegClass::JournalHit),
                class(LegClass::CacheHit),
                class(LegClass::Miss)
            )
        };
        for kind in kinds {
            out.push_str(&format!("  {kind}: {}\n", tally(&|l: &LegStatus| l.kind == kind)));
        }
        out.push_str(&format!("  total: {}\n", tally(&|_| true)));
        out
    }
}

/// The one engine that executes any [`ExperimentSpec`].
#[derive(Debug, Clone, Copy)]
pub struct Executor;

impl Executor {
    /// Classifies every leg (journal hit / cache hit / miss) without
    /// executing or journaling anything. Probing the result cache may
    /// quarantine corrupt entries as a side effect — classification is
    /// honest about what a real run would find.
    pub fn resolve(spec: &ExperimentSpec, exec: &ExecPolicy) -> Resolution {
        let legs = spec
            .legs()
            .iter()
            .map(|leg| {
                let class = if exec
                    .journal_lookup(&leg.key)
                    .as_ref()
                    .is_some_and(|v| (leg.validate)(v))
                {
                    LegClass::JournalHit
                } else if leg
                    .cache_key
                    .as_ref()
                    .and_then(|key| exec.probe_cache(key))
                    .as_ref()
                    .is_some_and(|v| (leg.validate)(v))
                {
                    LegClass::CacheHit
                } else {
                    LegClass::Miss
                };
                LegStatus { key: leg.key.clone(), kind: leg.kind.clone(), class }
            })
            .collect();
        Resolution {
            name: spec.name.clone(),
            legs,
            reduces: spec.reduces.iter().map(|r| r.name.clone()).collect(),
        }
    }

    /// Executes a spec: replay journal hits, resolve every other leg
    /// (cache → compute) in one pool batch, commit completed legs to the
    /// journal in plan order, then render the reduces.
    ///
    /// # Errors
    ///
    /// Propagates the first leg error in plan order;
    /// [`CapError::Interrupted`] when the batch drained at a leg
    /// boundary (completed legs are committed first, so `--resume`
    /// replays them).
    pub fn run(spec: &ExperimentSpec, exec: &ExecPolicy) -> Result<PlanRun, CapError> {
        let legs = spec.legs();
        let mut stats = RunStats::default();
        let mut values: Vec<Option<Value>> = legs
            .iter()
            .map(|leg| exec.journal_lookup(&leg.key).filter(|v| (leg.validate)(v)))
            .collect();
        stats.journal_hits = values.iter().flatten().count() as u64;

        let pending: Vec<usize> = (0..legs.len()).filter(|&i| values[i].is_none()).collect();
        // A failed leg stops the batch: the run's result is that error,
        // so no further leg starts (legs already running finish and are
        // committed).
        let results = exec.pool().run(pending.len(), |k| {
            let result = Self::run_leg(&legs[pending[k]], exec);
            if result.is_err() {
                ControlFlow::Break(result)
            } else {
                ControlFlow::Continue(result)
            }
        });
        // Commit every completed leg — even when another leg failed or
        // the batch drained — so `--resume` replays finished work.
        // `pending` ascends, so commits land in plan order.
        let mut failed: Option<CapError> = None;
        let mut unfinished = false;
        for (&i, result) in pending.iter().zip(results) {
            match result {
                Some(Ok((value, source))) => {
                    exec.journal_append(&legs[i].key, &value);
                    match source {
                        LegSource::Computed => stats.computed += 1,
                        LegSource::CacheHit => stats.cache_hits += 1,
                        LegSource::Deduped => {
                            stats.deduped += 1;
                            let recorder = exec.recorder();
                            if recorder.enabled() {
                                recorder.record(&Event::LegDedup(LegDedupEvent {
                                    leg: legs[i].key.clone(),
                                }));
                            }
                        }
                    }
                    values[i] = Some(value);
                }
                Some(Err(e)) => {
                    failed.get_or_insert(e);
                }
                None => unfinished = true,
            }
        }
        if unfinished && drain_requested() {
            return Err(CapError::Interrupted);
        }
        if let Some(e) = failed {
            return Err(e);
        }

        let values: Vec<Value> = legs
            .iter()
            .zip(values)
            .map(|(leg, v)| {
                v.ok_or_else(|| CapError::Internal {
                    what: format!("leg `{}` neither resolved nor errored", leg.key),
                })
            })
            .collect::<Result<_, _>>()?;
        let mut rendered = String::new();
        for reduce in &spec.reduces {
            let deps: Vec<&Value> = reduce.deps.iter().map(|id| &values[id.0]).collect();
            rendered.push_str(&(reduce.render)(&deps)?);
        }
        Ok(PlanRun { values, rendered, stats })
    }

    /// Resolves one leg the journal did not hold, inside its slot in the
    /// policy's single-flight table: concurrent runs of the same leg
    /// elect one leader, the rest share its value. The leader probes the
    /// result cache once; on a miss it computes under the leg guard, and
    /// stores the value before the slot retires — so a later run of the
    /// leg finds it in the cache, and "computed exactly once" holds even
    /// against the cache.
    fn run_leg(leg: &Leg, exec: &ExecPolicy) -> Result<(Value, LegSource), CapError> {
        let (result, shared) = exec.flight().work(&leg.key, || {
            let cache_key = leg.cache_key.as_ref();
            if let Some(hit) =
                cache_key.and_then(|key| exec.probe_cache(key)).filter(|v| (leg.validate)(v))
            {
                return Ok((hit, true));
            }
            let value = Self::compute(leg, exec)?;
            if let Some(key) = cache_key {
                exec.store_cache(key, &value);
            }
            Ok((value, false))
        });
        let (value, cache_hit) = result?;
        let source = match (cache_hit, shared) {
            (true, _) => LegSource::CacheHit,
            (false, true) => LegSource::Deduped,
            (false, false) => LegSource::Computed,
        };
        Ok((value, source))
    }

    /// Computes one leg under the leg guard. The gate permit is claimed
    /// first and moves into the compute, so it is held for exactly as
    /// long as the computation runs — past the deadline, too, when the
    /// leg is abandoned.
    fn compute(leg: &Leg, exec: &ExecPolicy) -> Result<Value, CapError> {
        let permit = exec.acquire_worker();
        let chaos = exec.chaos().cloned();
        if chaos.as_ref().is_some_and(|chaos| chaos.should_panic(&leg.key)) {
            panic!("chaos: injected panic in leg `{}`", leg.key);
        }
        let (compute, key, leg_exec) = (leg.compute.clone(), leg.key.clone(), exec.clone());
        let guarded = exec.watchdog().run(move || {
            let _permit = permit;
            if let Some(chaos) = chaos {
                chaos.stall(&key);
            }
            compute(&leg_exec)
        });
        guarded.unwrap_or_else(|TimedOut(timeout)| {
            let recorder = exec.recorder();
            if recorder.enabled() {
                recorder.record(&Event::LegTimeout(LegTimeoutEvent {
                    leg: leg.key.clone(),
                    timeout_ms: u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX),
                }));
            }
            Err(CapError::LegTimedOut { leg: leg.key.clone(), timeout })
        })
    }
}

// ---------------------------------------------------------------------------
// Campaign plans: the capsim subcommands as declarative specs
// ---------------------------------------------------------------------------

/// Decodes resolved leg values as `T`. The executor resolves only
/// values that decode as their leg's result type, so a failure here
/// means a reduce asked for another type than its legs produce — a
/// broken invariant reported as [`CapError::Internal`], never a panic.
pub(crate) fn decode_all<T: FromJson>(values: &[&Value]) -> Result<Vec<T>, CapError> {
    values
        .iter()
        .map(|v| {
            T::from_json(v).ok_or_else(|| CapError::Internal {
                what: format!("a leg value does not decode as {}", std::any::type_name::<T>()),
            })
        })
        .collect()
}

/// Runs a plan named `name` over `legs` under `exec` and decodes every
/// leg's value, in `legs` order.
pub(crate) fn run_legs<T: FromJson>(
    name: &str,
    legs: impl IntoIterator<Item = Leg>,
    exec: &ExecPolicy,
) -> Result<Vec<T>, CapError> {
    let mut spec = ExperimentSpec::new(name);
    let ids: Vec<LegId> = legs.into_iter().map(|leg| spec.leg(leg)).collect();
    let run = Executor::run(&spec, exec)?;
    decode_all(&ids.iter().map(|&id| run.value(id)).collect::<Vec<_>>())
}

/// [`run_legs`] for a one-leg plan.
pub(crate) fn run_leg<T: FromJson>(name: &str, leg: Leg, exec: &ExecPolicy) -> Result<T, CapError> {
    Ok(run_legs(name, [leg], exec)?.remove(0))
}

fn add_cache_sweep(
    spec: &mut ExperimentSpec,
    scale: ExperimentScale,
    seed: u64,
) -> Result<Vec<LegId>, CapError> {
    let exp = CacheExperiment::new(scale)?.with_seed(seed);
    let ids: Vec<LegId> = App::cache_suite().map(|app| spec.leg(exp.curve_leg(app))).collect();
    spec.reduce("cache-sweep-report", ids.clone(), move |deps| {
        let curves = decode_all::<CacheCurve>(deps)?;
        let mut out = String::new();
        let _ = writeln!(out, "== cache sweep: TPI vs L1 boundary, seed {seed:#x}");
        let (int, fp): (Vec<&CacheCurve>, Vec<&CacheCurve>) =
            curves.iter().partition(|c| c.integer_panel);
        let _ = writeln!(out, "{}", report::cache_curves_table("(a) integer benchmarks", &int));
        let _ = writeln!(
            out,
            "{}",
            report::cache_curves_table("(b) floating point / CMU / NAS benchmarks", &fp)
        );
        for c in &curves {
            let b = c.best();
            let _ = writeln!(
                out,
                "  {:>9}: best L1 {:>2} KB ({}-way), TPI {:.3} ns",
                c.app, b.l1_kb, b.l1_assoc, b.tpi_ns
            );
        }
        Ok(out)
    });
    Ok(ids)
}

fn add_queue_sweep(spec: &mut ExperimentSpec, scale: ExperimentScale, seed: u64) -> Vec<LegId> {
    let exp = QueueExperiment::new(scale).with_seed(seed);
    let ids: Vec<LegId> = App::queue_suite().map(|app| spec.leg(exp.curve_leg(app))).collect();
    spec.reduce("queue-sweep-report", ids.clone(), move |deps| {
        let curves = decode_all::<QueueCurve>(deps)?;
        let mut out = String::new();
        let _ = writeln!(out, "== queue sweep: TPI vs window size, seed {seed:#x}");
        let (int, fp): (Vec<&QueueCurve>, Vec<&QueueCurve>) =
            curves.iter().partition(|c| c.integer_panel);
        let _ = writeln!(out, "{}", report::queue_curves_table("(a) integer benchmarks", &int));
        let _ = writeln!(
            out,
            "{}",
            report::queue_curves_table("(b) floating point / CMU / NAS benchmarks", &fp)
        );
        for c in &curves {
            let b = c.best();
            let _ = writeln!(
                out,
                "  {:>9}: best window {:>3} entries, TPI {:.3} ns (IPC {:.2})",
                c.app, b.entries, b.tpi_ns, b.ipc
            );
        }
        Ok(out)
    });
    ids
}

/// The `capsim sweep <kind>` campaign as a plan: one curve leg per
/// suite application plus one report reduce per swept structure,
/// rendering the exact bytes the CLI prints.
///
/// # Errors
///
/// Propagates timing-model construction errors.
pub fn sweep_plan(kind: &str, scale: ExperimentScale, seed: u64) -> Result<ExperimentSpec, CapError> {
    let mut spec = ExperimentSpec::new(&format!("sweep-{kind}"));
    if kind == "cache" || kind == "all" {
        add_cache_sweep(&mut spec, scale, seed)?;
    }
    if kind == "queue" || kind == "all" {
        add_queue_sweep(&mut spec, scale, seed);
    }
    Ok(spec)
}

/// Every figure's data as ONE plan: the 21 cache curves, 22 queue
/// curves and 4 interval series, with figure reduces on top. Figures
/// 8, 9 and the sweep reports reuse Figure 7's curve legs — the
/// content-addressed dedup means each curve computes once.
///
/// # Errors
///
/// Propagates timing-model construction errors.
pub fn figures_plan(scale: ExperimentScale, seed: u64) -> Result<ExperimentSpec, CapError> {
    let mut spec = ExperimentSpec::new("figures");
    add_cache_reduces(&mut spec, scale, seed)?;
    add_queue_reduces(&mut spec, scale, seed);
    let interval = IntervalExperiment::new().with_seed(seed);
    for fig in SNAPSHOT_FIGURES {
        let ids: Vec<LegId> = interval.snapshot_legs(&fig).into_iter().map(|leg| spec.leg(leg)).collect();
        let title = format!("{} ({}): TPI per interval", fig.name, fig.app.name());
        spec.reduce(fig.name, ids, move |deps| {
            let series = decode_all::<Vec<f64>>(deps)?;
            let figure = IntervalExperiment::assemble_figure(&fig, &series[0], &series[1]);
            Ok(report::interval_figure_table(&title, &figure))
        });
    }
    Ok(spec)
}

fn cache_chart(
    metric: fn(&CachePoint) -> f64,
    title: &str,
    deps: &[&Value],
) -> Result<String, CapError> {
    let curves = decode_all::<CacheCurve>(deps)?;
    Ok(report::bar_chart_table(title, "ns", &CacheExperiment::chart_from_curves(&curves, metric)))
}

fn add_cache_reduces(
    spec: &mut ExperimentSpec,
    scale: ExperimentScale,
    seed: u64,
) -> Result<Vec<LegId>, CapError> {
    let ids = add_cache_sweep(spec, scale, seed)?;
    spec.reduce("figure8", ids.clone(), move |deps| {
        cache_chart(|p| p.tpi_miss_ns, "figure8: TPImiss, conventional vs adaptive", deps)
    });
    spec.reduce("figure9", ids.clone(), move |deps| {
        cache_chart(|p| p.tpi_ns, "figure9: TPI, conventional vs adaptive", deps)
    });
    Ok(ids)
}

fn add_queue_reduces(spec: &mut ExperimentSpec, scale: ExperimentScale, seed: u64) -> Vec<LegId> {
    let ids = add_queue_sweep(spec, scale, seed);
    spec.reduce("figure11", ids.clone(), move |deps| {
        let curves = decode_all::<QueueCurve>(deps)?;
        Ok(report::bar_chart_table(
            "figure11: TPI, conventional vs adaptive",
            "ns",
            &QueueExperiment::chart_from_curves(&curves),
        ))
    });
    ids
}

/// The `capsim headline` table as a plan over the same curve legs the
/// sweeps and figures use — a warm cache satisfies it without any
/// computation.
///
/// # Errors
///
/// Propagates timing-model construction errors.
pub fn headline_plan(scale: ExperimentScale, seed: u64) -> Result<ExperimentSpec, CapError> {
    let mut spec = ExperimentSpec::new("headline");
    let cache_exp = CacheExperiment::new(scale)?.with_seed(seed);
    let queue_exp = QueueExperiment::new(scale).with_seed(seed);
    let cache_ids: Vec<LegId> =
        App::cache_suite().map(|app| spec.leg(cache_exp.curve_leg(app))).collect();
    let queue_ids: Vec<LegId> =
        App::queue_suite().map(|app| spec.leg(queue_exp.curve_leg(app))).collect();
    let split = cache_ids.len();
    let mut deps = cache_ids;
    deps.extend(queue_ids);
    spec.reduce("headline-table", deps, move |deps| {
        let cache_curves =
            decode_all::<CacheCurve>(&deps[..split])?;
        let queue_curves =
            decode_all::<QueueCurve>(&deps[split..])?;
        let cache = CacheExperiment::headline_from_curves(&cache_curves);
        let queue = QueueExperiment::headline_from_curves(&queue_curves);
        let rows = [
            ("cache: mean TPImiss reduction", 0.26, cache.tpimiss_reduction),
            ("cache: mean TPI reduction", 0.09, cache.tpi_reduction),
            ("cache: stereo TPI reduction", 0.46, cache.stereo_tpi_reduction),
            ("queue: mean TPI reduction", 0.07, queue.tpi_reduction),
            ("queue: appcg TPI reduction", 0.28, queue.appcg_tpi_reduction),
        ];
        let mut out = String::new();
        let _ = writeln!(out, "{:<34} {:>7} {:>9}", "metric", "paper", "measured");
        for (m, p, v) in rows {
            let _ = writeln!(out, "{m:<34} {:>6.0}% {:>8.1}%", p * 100.0, v * 100.0);
        }
        Ok(out)
    });
    Ok(spec)
}

/// The `capsim compare-policies` campaign as a plan: one managed-run
/// leg per policy in the catalog plus the comparison-table reduce.
pub fn compare_policies_plan(app: App, intervals: u64, seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new("compare-policies");
    let exp = IntervalExperiment::new().with_seed(seed);
    let ids: Vec<LegId> = exp.policy_legs(app, intervals).into_iter().map(|leg| spec.leg(leg)).collect();
    spec.reduce("policy-table", ids, move |deps| {
        let rows = decode_all::<PolicyRow>(deps)?;
        let mut out = String::new();
        let _ = writeln!(out, "== policy comparison: {} ({} intervals)", app.name(), intervals);
        let _ = writeln!(out, "{:>16} {:>12} {:>10}", "policy", "TPI ns", "switches");
        for row in &rows {
            let _ = writeln!(out, "{:>16} {:>12.3} {:>10}", row.policy, row.tpi_ns, row.switches);
        }
        Ok(out)
    });
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn leg_named(kind: &str, app: &str, runs: Arc<AtomicUsize>) -> Leg {
        let key = CacheKey {
            kind: kind.to_string(),
            app: app.to_string(),
            scale: "smoke".to_string(),
            seed: 7,
            config_range: "unit".to_string(),
            version: 1,
            policy: None,
        };
        let app = app.to_string();
        Leg::cached(key, move |_| {
            runs.fetch_add(1, Ordering::SeqCst);
            Ok(vec![app.clone()])
        })
    }

    #[test]
    fn shared_legs_dedupe_and_run_once() {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut spec = ExperimentSpec::new("unit");
        let a = spec.leg(leg_named("k", "alpha", runs.clone()));
        let b = spec.leg(leg_named("k", "beta", runs.clone()));
        let a_again = spec.leg(leg_named("k", "alpha", runs.clone()));
        assert_eq!(a, a_again);
        assert_eq!(spec.legs().len(), 2);
        spec.reduce("concat", vec![a, b, a_again], |deps| {
            Ok(deps
                .iter()
                .map(|v| v.as_array().unwrap()[0].as_str().unwrap().to_string())
                .collect::<Vec<_>>()
                .join("+"))
        });
        let run = Executor::run(&spec, &ExecPolicy::serial()).unwrap();
        assert_eq!(runs.load(Ordering::SeqCst), 2, "deduped leg computes once");
        assert_eq!(run.rendered(), "alpha+beta+alpha");
        assert_eq!(run.value(a), run.value(a_again));
    }

    #[test]
    fn resolution_classifies_and_renders_counts() {
        let runs = Arc::new(AtomicUsize::new(0));
        let dir = std::env::temp_dir().join(format!("cap-plan-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let exec = ExecPolicy::serial().cached(cap_par::ResultCache::at(&dir));

        let mut spec = ExperimentSpec::new("unit");
        spec.leg(leg_named("k", "alpha", runs.clone()));
        spec.leg(leg_named("k", "beta", runs.clone()));
        spec.reduce("noop", vec![], |_| Ok(String::new()));

        let cold = Executor::resolve(&spec, &exec);
        assert_eq!(cold.count("k", LegClass::Miss), 2);
        assert!(cold.render().contains("k: 2 leg(s), 0 journal-hit, 0 cache-hit, 2 miss"));
        assert_eq!(runs.load(Ordering::SeqCst), 0, "resolve never computes");

        Executor::run(&spec, &exec).unwrap();
        let warm = Executor::resolve(&spec, &exec);
        assert_eq!(warm.count("k", LegClass::CacheHit), 2);
        let text = warm.render();
        assert!(text.contains("plan: unit (2 leg(s), 1 reduce(s))"), "{text}");
        assert!(text.contains("[cache-hit  ]"), "{text}");
        assert!(text.contains("reduce: noop"), "{text}");
        assert!(text.contains("total: 2 leg(s), 0 journal-hit, 2 cache-hit, 0 miss"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_cached_shapes_resolve_to_miss() {
        let runs = Arc::new(AtomicUsize::new(0));
        let dir = std::env::temp_dir().join(format!("cap-plan-shape-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = cap_par::ResultCache::at(&dir);
        let exec = ExecPolicy::serial().cached(cache.clone());

        let mut spec = ExperimentSpec::new("unit");
        let leg = leg_named("k", "alpha", runs.clone());
        let key = leg.cache_key.clone().unwrap();
        spec.leg(leg);
        // Store a wrong-shape value under the right key: it does not
        // decode as the leg's result type, so the leg classifies as a miss and recomputes.
        assert!(cache.store(&key, &42u64));
        let res = Executor::resolve(&spec, &exec);
        assert_eq!(res.legs[0].class, LegClass::Miss);
        Executor::run(&spec, &exec).unwrap();
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leg_errors_surface_in_plan_order() {
        let mut spec = ExperimentSpec::new("unit");
        spec.leg(Leg::journaled::<u64>("boom|1".to_string(), "boom", |_| {
            Err(CapError::InvalidParameter { what: "first" })
        }));
        spec.leg(Leg::journaled::<u64>("boom|2".to_string(), "boom", |_| {
            Err(CapError::InvalidParameter { what: "second" })
        }));
        let err = Executor::run(&spec, &ExecPolicy::serial()).unwrap_err();
        assert_eq!(err, CapError::InvalidParameter { what: "first" });
    }

    #[test]
    fn a_leg_past_its_deadline_fails_the_run_and_keeps_its_permit() {
        let exec = ExecPolicy::serial()
            .with_watchdog(cap_par::WatchdogPolicy::with_timeout(std::time::Duration::from_millis(50)));
        let ended = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let later_runs = Arc::new(AtomicUsize::new(0));
        let mut spec = ExperimentSpec::new("unit");
        let flag = ended.clone();
        spec.leg(Leg::journaled("slow|0".to_string(), "slow", move |_| {
            std::thread::sleep(std::time::Duration::from_secs(1));
            flag.store(true, Ordering::SeqCst);
            Ok(0u64)
        }));
        let runs = later_runs.clone();
        spec.leg(Leg::journaled("later|1".to_string(), "later", move |_| Ok(runs.fetch_add(1, Ordering::SeqCst) as u64)));

        let started = std::time::Instant::now();
        let err = Executor::run(&spec, &exec).unwrap_err();
        assert_eq!(err, CapError::LegTimedOut { leg: "slow|0".into(), timeout: std::time::Duration::from_millis(50) });
        assert!(started.elapsed() < std::time::Duration::from_millis(900), "took {:?}", started.elapsed());
        assert_eq!(later_runs.load(Ordering::SeqCst), 0, "no leg starts after a failure");
        // The abandoned leg holds the one permit until its compute ends.
        drop(exec.acquire_worker());
        assert!(ended.load(Ordering::SeqCst), "the permit came back only when the leg ended");
    }

    /// Six journaled legs whose second fails; each compute records its
    /// index as it starts. At more than one worker the first two legs meet
    /// at a barrier, so the first is running when the second fails.
    fn second_leg_fails(started: &Arc<std::sync::Mutex<Vec<usize>>>, jobs: usize) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new("unit");
        let both_running = Arc::new(std::sync::Barrier::new(2));
        for i in 0..6u64 {
            let (started, both_running) = (started.clone(), both_running.clone());
            spec.leg(Leg::journaled(format!("leg|{i}"), "leg", move |_| {
                started.lock().unwrap().push(i as usize);
                if i < 2 && jobs > 1 {
                    both_running.wait();
                }
                if i == 1 {
                    return Err(CapError::InvalidParameter { what: "second leg" });
                }
                Ok(i)
            }));
        }
        spec
    }

    #[test]
    fn a_failed_leg_stops_the_batch_and_started_legs_are_committed_in_plan_order() {
        for jobs in [1, 2] {
            let dir = std::env::temp_dir().join(format!("cap-plan-stop-{jobs}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let header = cap_par::JournalHeader {
                experiment: "unit".into(),
                seed: 7,
                scale: "smoke".into(),
                policy: None,
                results_version: 1,
            };
            let journal = cap_par::Journal::begin(dir.join("unit.jsonl"), header, false).unwrap();
            let ring = Arc::new(cap_obs::RingRecorder::new());
            let exec = ExecPolicy::with_jobs(jobs).with_journal(journal).with_recorder(ring.clone());
            let started = Arc::new(std::sync::Mutex::new(Vec::new()));

            let err = Executor::run(&second_leg_fails(&started, jobs), &exec).unwrap_err();
            assert_eq!(err, CapError::InvalidParameter { what: "second leg" });
            let mut started = started.lock().unwrap().clone();
            started.sort_unstable();
            if jobs == 1 {
                assert_eq!(started, vec![0, 1], "no later leg computes after the failure");
            }
            let committed: Vec<String> = ring
                .events()
                .iter()
                .filter_map(|e| match e {
                    Event::JournalLeg(j) if j.action == "appended" => Some(j.leg.clone()),
                    _ => None,
                })
                .collect();
            let expected: Vec<String> =
                started.iter().filter(|&&i| i != 1).map(|i| format!("leg|{i}")).collect();
            assert_eq!(committed, expected, "jobs={jobs}: every started leg commits, in plan order");
            assert!(exec.journal().unwrap().lock().unwrap().lookup("leg|0").is_some(), "jobs={jobs}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    fn probes(ring: &cap_obs::RingRecorder) -> usize {
        ring.events().iter().filter(|e| matches!(e, Event::CacheProbe(_))).count()
    }

    #[test]
    fn cold_run_probes_each_leg_once() {
        let runs = Arc::new(AtomicUsize::new(0));
        let dir = std::env::temp_dir().join(format!("cap-plan-probe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ring = Arc::new(cap_obs::RingRecorder::new());
        let exec = ExecPolicy::serial()
            .cached(cap_par::ResultCache::at(&dir))
            .with_recorder(ring.clone());
        let mut spec = ExperimentSpec::new("unit");
        for app in ["alpha", "beta", "gamma"] {
            spec.leg(leg_named("k", app, runs.clone()));
        }
        let run = Executor::run(&spec, &exec).unwrap();
        assert_eq!(run.stats(), RunStats { computed: 3, ..RunStats::default() });
        assert_eq!(probes(&ring), 3, "one result-cache probe per leg");
        let stores = ring.events().iter().filter(|e| matches!(e, Event::CacheStore(_))).count();
        assert_eq!(stores, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Holds the first result-cache probe inside its single-flight slot
    /// long enough for a concurrent run of the same leg to join the slot.
    #[derive(Debug, Default)]
    struct SlowFirstProbe {
        seen: AtomicUsize,
    }

    impl cap_obs::Recorder for SlowFirstProbe {
        fn record(&self, event: &Event) {
            if matches!(event, Event::CacheProbe(_)) && self.seen.fetch_add(1, Ordering::SeqCst) == 0 {
                std::thread::sleep(std::time::Duration::from_millis(150));
            }
        }
    }

    #[test]
    fn racing_runs_on_a_cached_leg_count_cache_hits() {
        let runs = Arc::new(AtomicUsize::new(0));
        let dir = std::env::temp_dir().join(format!("cap-plan-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = ExperimentSpec::new("unit");
        spec.leg(leg_named("k", "alpha", runs.clone()));
        let cache = cap_par::ResultCache::at(&dir);
        Executor::run(&spec, &ExecPolicy::serial().cached(cache.clone())).unwrap();
        assert_eq!(runs.load(Ordering::SeqCst), 1);

        let exec = ExecPolicy::serial().cached(cache).with_recorder(Arc::new(SlowFirstProbe::default()));
        let barrier = std::sync::Barrier::new(2);
        let stats: Vec<RunStats> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        Executor::run(&spec, &exec).unwrap().stats()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for stats in stats {
            assert_eq!(stats, RunStats { cache_hits: 1, ..RunStats::default() });
        }
        assert_eq!(runs.load(Ordering::SeqCst), 1, "a cached leg never recomputes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn with_jobs_gate_admits_that_many_legs_at_once() {
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut spec = ExperimentSpec::new("unit");
        for i in 0..2u64 {
            let (active, peak) = (active.clone(), peak.clone());
            spec.leg(Leg::journaled(format!("slow|{i}"), "slow", move |_| {
                let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(100));
                active.fetch_sub(1, Ordering::SeqCst);
                Ok(i)
            }));
        }
        Executor::run(&spec, &ExecPolicy::with_jobs(2)).unwrap();
        assert_eq!(peak.load(Ordering::SeqCst), 2, "two slow legs overlap under two permits");
    }
}
