//! `capsim` — command-line front end to the CAP reproduction.
//!
//! ```text
//! capsim list                      the 22 evaluation applications
//! capsim cache <app>               TPI vs L1/L2 boundary (Figure 7 row)
//! capsim queue <app>               TPI vs window size (Figure 10 row)
//! capsim sweep <cache|queue|all>   full-suite sweep on the parallel engine
//!                                  [--jobs N] [--seed S] [--trace FILE]
//! capsim managed <app> [--eager] [--policy NAME] [--pattern] [--trace FILE]
//!                                  §6 interval-adaptive run
//! capsim compare-policies <app>    per-policy TPI/switch table
//! capsim joint <app>               online joint cache+queue management
//! capsim power <app>               §4.1 performance/power frontier
//! capsim headline                  paper-vs-measured headline numbers
//! capsim faults <app> [--seed N] [--jobs N] [--trace FILE]
//!                                  fault-injection degradation campaign
//! capsim plan <cmd> [--dry-run]    resolve a campaign's leg graph
//! capsim trace-summary <file>      reduce a JSONL trace to counters
//! capsim doctor [dir]              scan/repair a result cache directory
//! capsim chaos <cache|queue|all>   crash/corruption self-test
//! capsim verify [--cases N] [--seed S] [--replay FILE] [--self-check]
//!                                  differential-oracle + property-fuzz suite
//! capsim bench [--quick] [--seed S] [--out FILE]
//!                                  time cold and warm sweeps, emit BENCH_sweep.json
//! capsim serve [--addr HOST:PORT] [--jobs N] [--max-inflight M]
//!                                  run the campaign service
//! capsim submit <campaign> [--addr HOST:PORT]
//!                                  run a campaign on the service
//! capsim status [--addr HOST:PORT] service in-flight campaigns + counters
//! ```
//!
//! Scale is taken from `CAP_SCALE` (`smoke`/`default`/`full`). Sweeps
//! memoize per-curve results under `results/cache/` (override with
//! `CAP_CACHE_DIR`, disable with `CAP_NO_CACHE=1`); `--jobs` defaults to
//! `CAP_JOBS`, then to the machine's parallelism. `--trace FILE` (or the
//! `CAP_TRACE` environment variable) streams structured decision events
//! as JSON Lines; `capsim trace-summary` reduces such a file. None of
//! these knobs change report bytes — only wall-clock (and the trace
//! file).
//!
//! Campaign commands (`sweep`, `faults`, `compare-policies`) are
//! crash-safe: every completed
//! leg is committed to a write-ahead journal under `results/journal/`
//! (`CAP_JOURNAL_DIR` overrides), SIGINT/SIGTERM drain at the next leg
//! boundary with a salvage summary, and `--resume` replays the journal
//! to produce output byte-identical to an uninterrupted run.
//! `--leg-timeout SECS` (or `CAP_LEG_TIMEOUT`) bounds each leg with a
//! retrying watchdog. `capsim chaos` exercises all of this end to end
//! against deterministic injected faults.

use cap::core::experiments::{
    CacheExperiment, ExecPolicy, ExperimentScale, IntervalExperiment, QueueExperiment, DEFAULT_SEED,
    SWEEP_RESULTS_VERSION,
};
use cap::core::extended::run_managed_combined;
use cap::core::faults::FaultCampaign;
use cap::core::manager::ConfidencePolicy;
use cap::core::plan;
use cap::core::policy::{PolicyConfig, PolicyKind};
use cap::core::power::{queue_frontier, PowerModel};
use cap::core::serve;
use cap::core::CapError;
use cap::obs::{recorder_from_env, summary::TraceSummary, JsonlRecorder, Recorder};
use cap::par::{
    drain_requested, watchdog::parse_timeout_seconds, Journal, JournalHeader, ResultCache,
    WatchdogPolicy, CHAOS_KILL_EXIT, QUARANTINE_DIR,
};
use cap::verify::{replay, run_self_check, run_verify, ReplayOutcome, VerifyConfig};
use cap::workloads::App;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError};
use std::time::Duration;

const USAGE: &str = "usage: capsim <list|cache|queue|sweep|managed|compare-policies|joint|power|headline|faults|plan|trace-summary|doctor|chaos|verify|bench|serve|submit|status> [app] [options]
  list                 the 22 evaluation applications
  cache <app>          TPI vs L1/L2 boundary (Figure 7 row)
  queue <app>          TPI vs window size (Figure 10 row)
  sweep <cache|queue|all>  full-suite sweep on the parallel engine
                       (--jobs N: worker count, --seed S: root seed,
                        --resume: replay the leg journal, --leg-timeout SECS)
  managed <app>        Section 6 interval-adaptive run (--eager: no confidence,
                       --policy NAME: configuration manager, --pattern: §6 pattern detection)
  compare-policies <app>  one managed run per policy, tabulated (--jobs N,
                       --seed S, --resume, --leg-timeout SECS, --trace FILE)
  joint <app>          online joint cache+queue management
  power <app>          performance/power frontier
  headline             paper-vs-measured headline numbers
  faults <app>         clean-vs-faulty degradation campaign (--seed N, --jobs N,
                       --policy NAME, --resume, --leg-timeout SECS)
  plan <cmd> [--dry-run]  resolve a campaign's leg graph before running it:
                       sweep <kind> | figures | headline | compare-policies <app>
                       | faults <app>; --dry-run prints journal-hit/cache-hit/miss
                       classification per leg without executing anything
  trace-summary <file> reduce a JSONL decision trace to per-app counters
  doctor [dir]         scan a result cache, quarantine damage (default results/cache)
  chaos <cache|queue|all>  deterministic crash/corruption self-test over that sweep
                       (--seed N, --jobs N; runs at smoke scale in temp dirs)
  verify               differential oracle + property-fuzzing suite: every policy
                       vs its reference model, plus metamorphic invariants
                       (--cases N: fuzz cases per property, --seed S: root seed,
                        --replay FILE: re-run a shrunk repro file,
                        --self-check: plant a known bug, prove it is detected;
                        repro files land in CAP_VERIFY_DIR, default cwd)
  bench                time a full cold sweep plus a warm (memoized) replay;
                       writes a machine-readable summary
                       (--quick: force smoke scale, --seed S: root seed,
                        --out FILE: summary path, default BENCH_sweep.json)
  serve                run the campaign service: accept submitted campaigns over
                       TCP, execute them on one shared pool/cache with
                       single-flight dedup, drain gracefully on SIGINT/SIGTERM
                       (--addr HOST:PORT, default 127.0.0.1:1998; --jobs N:
                        global worker budget; --max-inflight M: concurrent
                        campaigns, default 4; --addr-file FILE: write the bound
                        address, for --addr with port 0)
  submit <campaign>    run one campaign on a running service and print its
                       report (byte-identical to running it directly):
                       sweep <kind> | figures | headline | compare-policies <app>
                       | faults <app>; --addr HOST:PORT; --jobs/--resume/--trace/
                       --leg-timeout are server-owned and rejected
  status               show a running service's in-flight campaigns and its
                       request/leg counters (--addr HOST:PORT)
policies: process-level | interval-greedy | confidence (default) | hysteresis
scale via CAP_SCALE = smoke | default | full
seeds (--seed) in decimal or 0x hex
sweep memoization under results/cache (CAP_CACHE_DIR overrides, CAP_NO_CACHE=1 disables)
campaign leg journals under results/journal (CAP_JOURNAL_DIR overrides); SIGINT/SIGTERM
  drain at the next leg boundary and --resume replays completed legs byte-identically
per-leg watchdog via --leg-timeout SECS or CAP_LEG_TIMEOUT
decision tracing via --trace FILE (sweep/managed/faults) or CAP_TRACE=FILE";

fn find_app(name: &str) -> Result<App, String> {
    App::ALL
        .into_iter()
        .find(|a| a.name() == name.to_lowercase())
        .ok_or_else(|| format!("unknown application `{name}` (try `capsim list`)"))
}

/// Parsed `--jobs N` / `--seed S` / `--trace FILE` / `--policy NAME` /
/// `--resume` / `--leg-timeout SECS` trailing flags.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Flags {
    jobs: Option<usize>,
    seed: Option<u64>,
    trace: Option<String>,
    policy: Option<PolicyKind>,
    resume: bool,
    leg_timeout: Option<Duration>,
}

/// The value of a `--seed` flag: an unsigned integer in decimal, or in
/// hex after `0x`, the form reports and journal names print seeds in.
fn parse_seed(v: Option<&&str>) -> Result<u64, String> {
    let v = v.ok_or_else(|| format!("--seed wants a value\n{USAGE}"))?;
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| {
        format!("--seed wants an unsigned integer, decimal or 0x hex, got `{v}`\n{USAGE}")
    })
}

fn parse_flags(rest: &[&str]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = rest.iter();
    while let Some(&flag) = it.next() {
        match flag {
            "--jobs" => {
                let v = it.next().ok_or_else(|| format!("--jobs wants a value\n{USAGE}"))?;
                let n: usize = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs wants a positive integer, got `{v}`\n{USAGE}"))?;
                flags.jobs = Some(n);
            }
            "--seed" => flags.seed = Some(parse_seed(it.next())?),
            "--trace" => {
                let v = it.next().ok_or_else(|| format!("--trace wants a file path\n{USAGE}"))?;
                flags.trace = Some((*v).to_string());
            }
            "--policy" => {
                let v = it.next().ok_or_else(|| format!("--policy wants a name\n{USAGE}"))?;
                flags.policy = Some(PolicyKind::parse(v).ok_or_else(|| {
                    format!(
                        "unknown policy `{v}` (expected process-level, interval-greedy, confidence or hysteresis)\n{USAGE}"
                    )
                })?);
            }
            "--resume" => flags.resume = true,
            "--leg-timeout" => {
                let v = it.next().ok_or_else(|| format!("--leg-timeout wants seconds\n{USAGE}"))?;
                flags.leg_timeout = Some(parse_timeout_seconds(v).ok_or_else(|| {
                    format!("--leg-timeout wants a positive number of seconds, got `{v}`\n{USAGE}")
                })?);
            }
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    Ok(flags)
}

/// The trace recorder selected by the command line, falling back to
/// `CAP_TRACE`. `None` means tracing is off (the zero-cost default).
fn flag_recorder(flags: &Flags) -> Result<Option<Arc<dyn Recorder>>, String> {
    match &flags.trace {
        Some(path) => {
            let recorder = JsonlRecorder::create(path)
                .map_err(|e| format!("--trace: `{path}` cannot be created: {e}"))?;
            Ok(Some(Arc::new(recorder)))
        }
        None => recorder_from_env(),
    }
}

/// The execution policy for `capsim sweep` / `capsim faults`: `--jobs`
/// (then `CAP_JOBS`, then machine parallelism) workers, memoizing under
/// `results/cache` unless `CAP_CACHE_DIR` redirects or `CAP_NO_CACHE`
/// disables it, tracing to `--trace` (then `CAP_TRACE`) when given.
fn exec_policy(flags: &Flags) -> Result<ExecPolicy, String> {
    let mut exec = ExecPolicy::from_env(flags.jobs).map_err(|e| e.to_string())?;
    exec = exec.with_watchdog(WatchdogPolicy::resolve(flags.leg_timeout)?);
    if let Some(recorder) = flag_recorder(flags)? {
        exec = exec.with_recorder(recorder);
    }
    if exec.cache().is_none() && std::env::var_os("CAP_NO_CACHE").is_none() {
        let cache = ResultCache::at("results/cache");
        cache.ensure_writable().map_err(|e| {
            format!("results/cache is unusable: {e} (set CAP_CACHE_DIR or CAP_NO_CACHE=1)")
        })?;
        Ok(exec.cached(cache))
    } else {
        Ok(exec)
    }
}

/// Directory for campaign leg journals: `CAP_JOURNAL_DIR`, defaulting to
/// `results/journal`.
fn journal_dir() -> PathBuf {
    std::env::var_os("CAP_JOURNAL_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results/journal"))
}

/// Opens the write-ahead leg journal for a campaign command. Resume
/// progress is reported on stderr so stdout stays byte-identical to an
/// uninterrupted run.
fn open_journal(file: &str, header: JournalHeader, resume: bool) -> Result<Journal, String> {
    let dir = journal_dir();
    std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create journal directory `{}`: {e}", dir.display()))?;
    let journal = Journal::begin(dir.join(file), header, resume)?;
    if resume && !journal.is_empty() {
        eprintln!(
            "resuming: {} completed leg(s) replay from {}",
            journal.len(),
            journal.path().display()
        );
    }
    Ok(journal)
}

/// Renders a campaign error. A graceful drain becomes a salvage summary
/// naming the journal and the exact resume command.
fn campaign_err(e: CapError, exec: &ExecPolicy, resume_cmd: &str) -> String {
    if let CapError::Interrupted = e {
        let (committed, path) = exec.journal().map_or((0, String::new()), |j| {
            let j = j.lock().unwrap_or_else(PoisonError::into_inner);
            (j.len(), j.path().display().to_string())
        });
        format!(
            "interrupted: campaign drained at a leg boundary\n  journal: {path} ({committed} leg(s) committed)\n  resume with: {resume_cmd}"
        )
    } else {
        e.to_string()
    }
}

/// One campaign resolved to a declarative spec plus its journaling
/// identity — the ONE builder path shared by the direct commands
/// (`sweep`, `faults`, `compare-policies`) and `capsim plan`, so every
/// campaign accepts `--jobs`/`--seed`/`--trace`/`--resume`/
/// `--leg-timeout` uniformly.
struct Campaign {
    spec: plan::ExperimentSpec,
    /// Journal file name + header; `None` for the cache-only figure and
    /// headline plans, which have nothing to resume.
    journal: Option<(String, JournalHeader)>,
    resume_cmd: String,
    /// Notice lines printed before the rendered reduces.
    prelude: String,
}

/// Builds the campaign named by `cmd` (the sub-command tokens without
/// the leading `plan`, e.g. `["sweep", "all", "--jobs", "4"]`).
fn build_campaign(cmd: &[&str], scale: ExperimentScale) -> Result<(Campaign, Flags), String> {
    match cmd {
        ["sweep", kind, rest @ ..] => {
            if !matches!(*kind, "cache" | "queue" | "all") {
                return Err(format!("unknown sweep kind `{kind}`\n{USAGE}"));
            }
            let flags = parse_flags(rest)?;
            let seed = flags.seed.unwrap_or(DEFAULT_SEED);
            let spec = plan::sweep_plan(kind, scale, seed).map_err(|e| e.to_string())?;
            let header = JournalHeader {
                experiment: format!("sweep-{kind}"),
                seed,
                scale: scale.name().to_string(),
                policy: None,
                results_version: SWEEP_RESULTS_VERSION,
            };
            let file = format!("sweep-{kind}-{}-{seed:016x}.jsonl", scale.name());
            let mut prelude = String::new();
            if let Some(policy) = flags.policy {
                // Sweeps hold every configuration fixed; the flag is
                // validated but cannot change the curves.
                let _ = writeln!(prelude, "policy: {policy} (sweeps are policy-independent)");
            }
            let campaign = Campaign {
                spec,
                journal: Some((file, header)),
                resume_cmd: format!("capsim sweep {kind} --seed {seed} --resume"),
                prelude,
            };
            Ok((campaign, flags))
        }
        ["compare-policies", name, rest @ ..] => {
            let app = find_app(name)?;
            let flags = parse_flags(rest)?;
            if flags.policy.is_some() {
                return Err(format!("compare-policies runs every policy; drop --policy\n{USAGE}"));
            }
            let seed = flags.seed.unwrap_or(DEFAULT_SEED);
            let header = JournalHeader {
                experiment: format!("compare-policies-{}", app.name()),
                seed,
                scale: scale.name().to_string(),
                policy: None,
                results_version: SWEEP_RESULTS_VERSION,
            };
            let file =
                format!("compare-policies-{}-{}-{seed:016x}.jsonl", app.name(), scale.name());
            let campaign = Campaign {
                spec: plan::compare_policies_plan(app, 400, seed),
                journal: Some((file, header)),
                resume_cmd: format!("capsim compare-policies {} --seed {seed} --resume", app.name()),
                prelude: String::new(),
            };
            Ok((campaign, flags))
        }
        ["faults", name, rest @ ..] => {
            let app = find_app(name)?;
            let flags = parse_flags(rest)?;
            let seed = flags.seed.unwrap_or(DEFAULT_SEED);
            let policy = flags.policy.unwrap_or(PolicyKind::Confidence);
            let header = JournalHeader {
                experiment: format!("faults-{}", app.name()),
                seed,
                scale: scale.name().to_string(),
                policy: Some(policy.name().to_string()),
                results_version: SWEEP_RESULTS_VERSION,
            };
            let file = format!(
                "faults-{}-{}-{seed:016x}-{}.jsonl",
                app.name(),
                scale.name(),
                policy.name()
            );
            let campaign = Campaign {
                spec: FaultCampaign::new(app, seed).with_policy(policy).plan(),
                journal: Some((file, header)),
                resume_cmd: format!(
                    "capsim faults {} --seed {seed} --policy {} --resume",
                    app.name(),
                    policy.name()
                ),
                prelude: String::new(),
            };
            Ok((campaign, flags))
        }
        ["figures", rest @ ..] | ["headline", rest @ ..] => {
            let figures = cmd[0] == "figures";
            let flags = parse_flags(rest)?;
            if flags.policy.is_some() {
                return Err(format!("{} is policy-independent; drop --policy\n{USAGE}", cmd[0]));
            }
            if flags.resume {
                return Err(format!(
                    "{} plans have no journal to resume (they replay from the result cache)\n{USAGE}",
                    cmd[0]
                ));
            }
            let seed = flags.seed.unwrap_or(DEFAULT_SEED);
            let spec = if figures {
                plan::figures_plan(scale, seed).map_err(|e| e.to_string())?
            } else {
                plan::headline_plan(scale, seed).map_err(|e| e.to_string())?
            };
            let campaign = Campaign {
                spec,
                journal: None,
                resume_cmd: String::new(),
                prelude: String::new(),
            };
            Ok((campaign, flags))
        }
        _ => Err(format!(
            "plan wants a campaign: sweep <kind> | figures | headline | compare-policies <app> | faults <app>\n{USAGE}"
        )),
    }
}

/// Executes a built campaign: attach the journal (when it has one),
/// run the spec on the one executor, render the reduces.
fn run_campaign(campaign: &Campaign, flags: &Flags) -> Result<String, String> {
    let mut exec = exec_policy(flags)?;
    if let Some((file, header)) = campaign.journal.clone() {
        exec = exec.with_journal(open_journal(&file, header, flags.resume)?);
    }
    let run = plan::Executor::run(&campaign.spec, &exec)
        .map_err(|e| campaign_err(e, &exec, &campaign.resume_cmd))?;
    Ok(format!("{}{}", campaign.prelude, run.rendered()))
}

/// Parsed `capsim serve` options.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ServeOpts {
    addr: String,
    jobs: Option<usize>,
    max_inflight: usize,
    addr_file: Option<String>,
}

impl ServeOpts {
    fn parse(rest: &[&str]) -> Result<Self, String> {
        let mut opts = ServeOpts {
            addr: serve::DEFAULT_ADDR.to_string(),
            jobs: None,
            max_inflight: 4,
            addr_file: None,
        };
        let mut it = rest.iter();
        while let Some(&flag) = it.next() {
            match flag {
                "--addr" => {
                    let v = it.next().ok_or_else(|| format!("--addr wants HOST:PORT\n{USAGE}"))?;
                    opts.addr = (*v).to_string();
                }
                "--jobs" => {
                    let v = it.next().ok_or_else(|| format!("--jobs wants a value\n{USAGE}"))?;
                    opts.jobs = Some(v.parse().ok().filter(|&n: &usize| n >= 1).ok_or_else(
                        || format!("--jobs wants a positive integer, got `{v}`\n{USAGE}"),
                    )?);
                }
                "--max-inflight" => {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("--max-inflight wants a value\n{USAGE}"))?;
                    opts.max_inflight = v.parse().ok().filter(|&n: &usize| n >= 1).ok_or_else(
                        || format!("--max-inflight wants a positive integer, got `{v}`\n{USAGE}"),
                    )?;
                }
                "--addr-file" => {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("--addr-file wants a file path\n{USAGE}"))?;
                    opts.addr_file = Some((*v).to_string());
                }
                other => return Err(format!("unknown serve flag `{other}`\n{USAGE}")),
            }
        }
        Ok(opts)
    }
}

/// Splits `--addr HOST:PORT` (defaulting to the service's well-known
/// address) out of a `submit`/`status` argument list, returning the
/// remaining tokens untouched.
fn split_addr(rest: &[&str]) -> Result<(String, Vec<String>), String> {
    let mut addr = serve::DEFAULT_ADDR.to_string();
    let mut args = Vec::new();
    let mut it = rest.iter();
    while let Some(&tok) = it.next() {
        if tok == "--addr" {
            let v = it.next().ok_or_else(|| format!("--addr wants HOST:PORT\n{USAGE}"))?;
            addr = (*v).to_string();
        } else {
            args.push(tok.to_string());
        }
    }
    Ok((addr, args))
}

/// Parsed `capsim verify` options. The defaults give a quick but
/// non-trivial local run; CI and the acceptance gate pass explicit
/// `--cases`/`--seed`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VerifyOpts {
    cases: u64,
    seed: u64,
    replay: Option<String>,
    self_check: bool,
}

impl VerifyOpts {
    fn parse(rest: &[&str]) -> Result<Self, String> {
        let mut opts = VerifyOpts { cases: 1000, seed: 1, replay: None, self_check: false };
        let mut it = rest.iter();
        while let Some(&flag) = it.next() {
            match flag {
                "--cases" => {
                    let v = it.next().ok_or_else(|| format!("--cases wants a value\n{USAGE}"))?;
                    opts.cases = v
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| {
                            format!("--cases wants a positive integer, got `{v}`\n{USAGE}")
                        })?;
                }
                "--seed" => opts.seed = parse_seed(it.next())?,
                "--replay" => {
                    let v =
                        it.next().ok_or_else(|| format!("--replay wants a file path\n{USAGE}"))?;
                    opts.replay = Some((*v).to_string());
                }
                "--self-check" => opts.self_check = true,
                other => return Err(format!("unknown verify flag `{other}`\n{USAGE}")),
            }
        }
        if opts.replay.is_some() && opts.self_check {
            return Err(format!("--replay and --self-check are mutually exclusive\n{USAGE}"));
        }
        Ok(opts)
    }
}

/// Where `capsim verify` writes repro files and journal scratch:
/// `CAP_VERIFY_DIR`, defaulting to the current directory.
fn verify_out_dir() -> Result<PathBuf, String> {
    let dir = std::env::var_os("CAP_VERIFY_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create verify directory `{}`: {e}", dir.display()))?;
    Ok(dir)
}

/// Executes a parsed command line and renders the report.
fn run(args: &[&str]) -> Result<String, String> {
    let scale = ExperimentScale::from_env().map_err(|e| e.to_string())?;
    let mut out = String::new();
    match args {
        ["list"] => {
            for app in App::ALL {
                let mem = app.memory_profile();
                let _ = writeln!(
                    out,
                    "{:>10}  {:?}  insts/ref {:>5.1}  footprint {:>5} KB",
                    app.name(),
                    app.category(),
                    mem.insts_per_ref,
                    mem.footprint() / 1024
                );
            }
        }
        ["cache", name] => {
            let app = find_app(name)?;
            let curve = CacheExperiment::new(scale)
                .map_err(|e| e.to_string())?
                .sweep(app)
                .map_err(|e| e.to_string())?;
            let _ = writeln!(out, "{:>8} {:>8} {:>10} {:>10} {:>10}", "L1 KB", "assoc", "cycle ns", "TPI ns", "missTPI");
            for p in &curve.points {
                let _ = writeln!(
                    out,
                    "{:>8} {:>8} {:>10.3} {:>10.3} {:>10.3}",
                    p.l1_kb, p.l1_assoc, p.cycle_ns, p.tpi_ns, p.tpi_miss_ns
                );
            }
            let b = curve.best();
            let _ = writeln!(out, "best: L1={} KB ({}-way), TPI {:.3} ns", b.l1_kb, b.l1_assoc, b.tpi_ns);
        }
        ["queue", name] => {
            let app = find_app(name)?;
            let curve = QueueExperiment::new(scale).sweep(app).map_err(|e| e.to_string())?;
            let _ = writeln!(out, "{:>8} {:>10} {:>8} {:>10}", "entries", "cycle ns", "IPC", "TPI ns");
            for p in &curve.points {
                let _ = writeln!(out, "{:>8} {:>10.3} {:>8.2} {:>10.3}", p.entries, p.cycle_ns, p.ipc, p.tpi_ns);
            }
            let b = curve.best();
            let _ = writeln!(out, "best: {} entries, TPI {:.3} ns (IPC {:.2})", b.entries, b.tpi_ns, b.ipc);
        }
        ["managed", name, rest @ ..] => {
            let app = find_app(name)?;
            let eager = rest.contains(&"--eager");
            let pattern = rest.contains(&"--pattern");
            let rest: Vec<&str> =
                rest.iter().copied().filter(|&a| a != "--eager" && a != "--pattern").collect();
            let flags = parse_flags(&rest)?;
            if flags.resume || flags.leg_timeout.is_some() {
                return Err(format!(
                    "--resume/--leg-timeout apply to the campaign commands (sweep, faults, compare-policies)\n{USAGE}"
                ));
            }
            if eager && (flags.policy.is_some() || pattern) {
                return Err(format!("--eager cannot be combined with --policy or --pattern\n{USAGE}"));
            }
            let kind = flags.policy.unwrap_or(PolicyKind::Confidence);
            if pattern && kind != PolicyKind::Confidence {
                return Err(format!("--pattern requires the confidence policy\n{USAGE}"));
            }
            // The managed run is a serial chain (clock and manager state
            // carry across intervals); only the recorder is attached.
            let exec = match flag_recorder(&flags)? {
                Some(recorder) => ExecPolicy::serial().with_recorder(recorder),
                None => ExecPolicy::serial(),
            };
            let confidence = if eager { ConfidencePolicy::none() } else { ConfidencePolicy::default_policy() };
            let mut config = PolicyConfig::new(kind).with_confidence(confidence);
            if pattern {
                config = config.with_pattern(64, 0.85);
            }
            let cmp = IntervalExperiment::new()
                .policy_comparison(app, 400, &config, &exec)
                .map_err(|e| e.to_string())?;
            let label = if eager {
                "eager (no confidence)".to_string()
            } else if kind == PolicyKind::Confidence && flags.policy.is_none() && !pattern {
                "confident".to_string()
            } else if pattern {
                format!("{kind} (pattern detection)")
            } else {
                kind.to_string()
            };
            let _ = writeln!(out, "policy:        {label}");
            let _ = writeln!(out, "process level: {:.3} ns", cmp.process_level_tpi);
            let _ = writeln!(out, "managed:       {:.3} ns ({} switches)", cmp.managed_tpi, cmp.switches);
            let _ = writeln!(out, "oracle:        {:.3} ns", cmp.oracle_tpi);
        }
        ["joint", name] => {
            let app = find_app(name)?;
            let policy = ConfidencePolicy::default_policy();
            let r = run_managed_combined(app, 300, 0x15CA_1998, policy, &ExecPolicy::serial())
                .map_err(|e| e.to_string())?;
            let _ = writeln!(out, "intervals:      {}", r.intervals);
            let _ = writeln!(out, "average TPI:    {:.3} ns", r.avg_tpi);
            let _ = writeln!(out, "switches:       {}", r.switches);
            let _ = writeln!(out, "settled config: L1={} KB, {}-entry window", r.final_l1_kb, r.final_entries);
        }
        ["power", name] => {
            let app = find_app(name)?;
            let curve = QueueExperiment::new(scale).sweep(app).map_err(|e| e.to_string())?;
            let frontier = queue_frontier(&curve, PowerModel::typical());
            let _ = writeln!(out, "{:>8} {:>10} {:>10} {:>8} {:>8}", "entries", "period ns", "TPI ns", "power", "EPI");
            for p in &frontier {
                let _ = writeln!(
                    out,
                    "{:>8} {:>10.3} {:>10.3} {:>8.3} {:>8.3}",
                    p.entries, p.period_ns, p.tpi_ns, p.power, p.epi
                );
            }
        }
        ["plan", rest @ ..] => {
            let dry_run = rest.contains(&"--dry-run");
            let rest: Vec<&str> = rest.iter().copied().filter(|&a| a != "--dry-run").collect();
            if rest.is_empty() {
                return Err(format!(
                    "plan wants a campaign: sweep <kind> | figures | headline | compare-policies <app> | faults <app>\n{USAGE}"
                ));
            }
            let (campaign, flags) = build_campaign(&rest, scale)?;
            if dry_run {
                if flags.resume {
                    return Err(format!(
                        "--dry-run only resolves the leg graph; drop --resume\n{USAGE}"
                    ));
                }
                // A dry run never opens the journal: it classifies legs
                // against the result cache alone, without touching disk
                // state the real run would want to create.
                let exec = exec_policy(&flags)?;
                let resolution = plan::Executor::resolve(&campaign.spec, &exec);
                let _ = write!(out, "{}", resolution.render());
            } else {
                let mut exec = exec_policy(&flags)?;
                if let Some((file, header)) = campaign.journal.clone() {
                    exec = exec.with_journal(open_journal(&file, header, flags.resume)?);
                }
                // Show the resolved graph on stderr so stdout stays
                // byte-identical to running the command directly.
                eprint!("{}", plan::Executor::resolve(&campaign.spec, &exec).render());
                let run = plan::Executor::run(&campaign.spec, &exec)
                    .map_err(|e| campaign_err(e, &exec, &campaign.resume_cmd))?;
                let _ = write!(out, "{}{}", campaign.prelude, run.rendered());
            }
        }
        ["sweep", _, ..] | ["compare-policies", _, ..] | ["faults", _, ..] | ["headline"] => {
            let (campaign, flags) = build_campaign(args, scale)?;
            let _ = write!(out, "{}", run_campaign(&campaign, &flags)?);
        }
        ["trace-summary", path] => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read trace `{path}`: {e}"))?;
            let summary = TraceSummary::from_jsonl(&text)?;
            let _ = write!(out, "{}", summary.render());
        }
        ["doctor", rest @ ..] => {
            let dir = match rest {
                [] => "results/cache",
                [d] => *d,
                _ => return Err(format!("doctor takes at most one directory\n{USAGE}")),
            };
            let report = ResultCache::at(dir).doctor()?;
            let _ = writeln!(out, "cache doctor: {dir}");
            let _ = writeln!(out, "  scanned:          {}", report.scanned);
            let _ = writeln!(out, "  valid:            {}", report.valid);
            let _ = writeln!(out, "  quarantined now:  {}", report.quarantined);
            let _ = writeln!(out, "  misplaced:        {}", report.misplaced);
            let _ = writeln!(out, "  quarantine total: {}", report.quarantine_total);
        }
        ["chaos", kind, rest @ ..] => {
            if !matches!(*kind, "cache" | "queue" | "all") {
                return Err(format!("unknown chaos target `{kind}` (expected cache, queue or all)\n{USAGE}"));
            }
            let flags = parse_flags(rest)?;
            if flags.resume || flags.leg_timeout.is_some() || flags.trace.is_some() || flags.policy.is_some() {
                return Err(format!("chaos accepts only --seed and --jobs\n{USAGE}"));
            }
            let harness = ChaosHarness::new(kind, &flags)?;
            let _ = writeln!(out, "== chaos: sweep {kind}, seed {}", harness.seed);
            eprintln!("chaos: recording uninterrupted reference run...");
            let reference = harness.reference()?;
            let scenarios: [(&str, Result<(), String>); 5] = [
                ("kill+resume", harness.kill_and_resume(&reference)),
                ("cache-corruption", harness.corruption_recovery(&reference)),
                ("stall-recovery", harness.stall_recovery(&reference)),
                ("stall-timeout+resume", harness.stall_timeout_and_resume(&reference)),
                ("panic+resume", harness.panic_and_resume(&reference)),
            ];
            let mut failures = 0;
            for (name, result) in scenarios {
                match result {
                    Ok(()) => {
                        let _ = writeln!(out, "PASS {name}");
                    }
                    Err(why) => {
                        failures += 1;
                        let _ = writeln!(out, "FAIL {name}: {why}");
                    }
                }
            }
            if failures > 0 {
                return Err(format!(
                    "{out}chaos: {failures} scenario(s) failed (artifacts kept in {})",
                    harness.root.display()
                ));
            }
            let _ = std::fs::remove_dir_all(&harness.root);
            let _ = writeln!(out, "chaos: all 5 scenarios passed");
        }
        ["verify", rest @ ..] => {
            let opts = VerifyOpts::parse(rest)?;
            let out_dir = verify_out_dir()?;
            if let Some(path) = &opts.replay {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read repro `{path}`: {e}"))?;
                match replay(&text, &out_dir)? {
                    ReplayOutcome::Reproduced(message) => {
                        return Err(format!("replay: REPRODUCED\n  {message}"));
                    }
                    ReplayOutcome::Clean => {
                        let _ = writeln!(out, "replay: clean — the property passes on this repro");
                    }
                }
            } else if opts.self_check {
                let report = run_self_check(opts.seed, &out_dir)
                    .map_err(|e| format!("self-check FAILED: {e}"))?;
                let _ = writeln!(
                    out,
                    "self-check: planted off-by-one detected at case {}, shrunk to {} step(s) x {} config(s)",
                    report.detected_case, report.shrunk_steps, report.shrunk_configs
                );
                let _ = writeln!(out, "  divergence: {}", report.divergence);
                let _ = writeln!(out, "  repro replayed twice from disk, byte-identical outcome");
                let _ = std::fs::remove_file(&report.repro_path);
            } else {
                let cfg = VerifyConfig { cases: opts.cases, seed: opts.seed, out_dir };
                eprintln!("verify: {} cases/property, seed {}", cfg.cases, cfg.seed);
                let report = run_verify(&cfg, &mut |p| {
                    let status = match &p.failure {
                        Some(f) => format!("FAILED at case {}", f.case),
                        None if p.skipped > 0 => {
                            format!("ok ({} cases, {} skipped)", p.cases_run, p.skipped)
                        }
                        None => format!("ok ({} cases)", p.cases_run),
                    };
                    eprintln!("verify: {:<34} {status}", p.name);
                });
                let total: u64 = report.properties.iter().map(|p| p.cases_run).sum();
                let skipped: u64 = report.properties.iter().map(|p| p.skipped).sum();
                if report.failed() {
                    let mut msg = String::new();
                    let _ = writeln!(msg, "verify: FAILED (seed {})", report.seed);
                    for p in report.properties.iter().filter(|p| p.failure.is_some()) {
                        let f = p.failure.as_ref().unwrap();
                        let _ = writeln!(msg, "  {} (case {}):", p.name, f.case);
                        let _ = writeln!(msg, "    {}", f.message);
                        if let Some(path) = &f.repro_path {
                            let _ = writeln!(
                                msg,
                                "    repro: {} (re-run with `capsim verify --replay {}`)",
                                path.display(),
                                path.display()
                            );
                        }
                    }
                    return Err(msg);
                }
                let _ = writeln!(
                    out,
                    "verify: {} properties passed, seed {} ({total} cases run, {skipped} skipped by guards)",
                    report.properties.len(),
                    report.seed
                );
            }
        }
        ["bench", rest @ ..] => {
            let opts = BenchOpts::parse(rest)?;
            let scale = if opts.quick { ExperimentScale::Smoke } else { scale };
            run_bench(&mut out, scale, &opts)?;
        }
        ["serve", rest @ ..] => {
            let opts = ServeOpts::parse(rest)?;
            let flags = Flags { jobs: opts.jobs, ..Flags::default() };
            let exec = exec_policy(&flags)?;
            // The service compiles submitted campaigns through the ONE
            // CLI builder, so a submitted campaign and a direct one are
            // the same plan — and render the same bytes.
            let compiler: serve::CampaignCompiler = Arc::new(move |args: &[String]| {
                let refs: Vec<&str> = args.iter().map(String::as_str).collect();
                let (campaign, _flags) = build_campaign(&refs, scale)?;
                Ok(serve::CompiledCampaign {
                    spec: campaign.spec,
                    journal: campaign.journal,
                    prelude: campaign.prelude,
                })
            });
            let config = serve::ServeConfig {
                addr: opts.addr,
                max_inflight: opts.max_inflight,
                journal_dir: journal_dir(),
                addr_file: opts.addr_file.map(PathBuf::from),
            };
            let summary = serve::serve(&config, exec, compiler)?;
            let _ = write!(out, "{}", summary.render());
        }
        ["submit", rest @ ..] => {
            let (addr, campaign) = split_addr(rest)?;
            if campaign.is_empty() {
                return Err(format!(
                    "submit wants a campaign: sweep <kind> | figures | headline | compare-policies <app> | faults <app>\n{USAGE}"
                ));
            }
            let outcome = serve::submit(&addr, &campaign)?;
            // The tally goes to stderr so stdout stays byte-identical
            // to running the campaign directly.
            eprintln!(
                "submit: request {} done — {} computed, {} deduped, {} cache hit(s), {} journal hit(s)",
                outcome.id,
                outcome.stats.computed,
                outcome.stats.deduped,
                outcome.stats.cache_hits,
                outcome.stats.journal_hits
            );
            let _ = write!(out, "{}", outcome.report);
        }
        ["status", rest @ ..] => {
            let (addr, extra) = split_addr(rest)?;
            if let Some(tok) = extra.first() {
                return Err(format!("status accepts only --addr, got `{tok}`\n{USAGE}"));
            }
            let report = serve::status(&addr)?;
            let _ = write!(out, "{}", report.render());
        }
        _ => return Err(USAGE.to_string()),
    }
    Ok(out)
}

/// Parsed `capsim bench` options.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BenchOpts {
    quick: bool,
    seed: u64,
    out: String,
}

impl BenchOpts {
    fn parse(rest: &[&str]) -> Result<Self, String> {
        let mut opts =
            BenchOpts { quick: false, seed: DEFAULT_SEED, out: "BENCH_sweep.json".to_string() };
        let mut it = rest.iter();
        while let Some(&flag) = it.next() {
            match flag {
                "--quick" => opts.quick = true,
                "--seed" => opts.seed = parse_seed(it.next())?,
                "--out" => {
                    let v = it.next().ok_or_else(|| format!("--out wants a file path\n{USAGE}"))?;
                    opts.out = (*v).to_string();
                }
                other => return Err(format!("unknown bench flag `{other}`\n{USAGE}")),
            }
        }
        Ok(opts)
    }
}

/// `capsim bench` — wall-clock timing of the full-suite sweeps.
///
/// Times a cold (uncached, unjournaled, serial) `figure7 + figure10`
/// run, then a warm replay of it from a throwaway result cache, and
/// writes the measurements as JSON. Timings are the one output in the
/// whole CLI that is *not* a pure function of the command line — they
/// measure this machine — so they are never compared against goldens;
/// the JSON exists for CI artifacts and README refreshes.
fn run_bench(out: &mut String, scale: ExperimentScale, opts: &BenchOpts) -> Result<(), String> {
    use std::time::Instant;
    let cache_exp =
        CacheExperiment::new(scale).map_err(|e| e.to_string())?.with_seed(opts.seed);
    let queue_exp = QueueExperiment::new(scale).with_seed(opts.seed);

    let serial = ExecPolicy::serial();
    let t = Instant::now();
    cache_exp.figure7(&serial).map_err(|e| e.to_string())?;
    let cold_cache = t.elapsed().as_secs_f64();
    let t = Instant::now();
    queue_exp.figure10(&serial).map_err(|e| e.to_string())?;
    let cold_queue = t.elapsed().as_secs_f64();

    // Warm: replay both figures from a populated result cache.
    let warm_dir =
        std::env::temp_dir().join(format!("capsim-bench-{}-{:x}", std::process::id(), opts.seed));
    let warm = (|| -> Result<f64, String> {
        let exec = ExecPolicy::serial().cached(ResultCache::at(&warm_dir));
        cache_exp.figure7(&exec).map_err(|e| e.to_string())?;
        queue_exp.figure10(&exec).map_err(|e| e.to_string())?;
        let t = Instant::now();
        cache_exp.figure7(&exec).map_err(|e| e.to_string())?;
        queue_exp.figure10(&exec).map_err(|e| e.to_string())?;
        Ok(t.elapsed().as_secs_f64())
    })();
    let _ = std::fs::remove_dir_all(&warm_dir);
    let warm = warm?;

    let cold_total = cold_cache + cold_queue;
    let _ = writeln!(out, "== sweep bench: scale {}, seed {:#x}", scale.name(), opts.seed);
    let _ = writeln!(
        out,
        "  cold: cache {cold_cache:.2} s + queue {cold_queue:.2} s = {cold_total:.2} s"
    );
    let _ = writeln!(out, "  warm (result cache): {warm:.3} s");

    // The core count, and whether the build may use AVX2: the queue
    // sweep's lanes run about twice as fast with it.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let avx2 = cfg!(target_feature = "avx2");
    let json = format!(
        "{{\n  \"scale\": \"{}\",\n  \"seed\": {},\n  \"nproc\": {nproc},\n  \"avx2\": {avx2},\n  \"engines\": {{\n    \"single-pass\": {{ \"cache_cold_s\": {cold_cache:.6}, \"queue_cold_s\": {cold_queue:.6}, \"total_cold_s\": {cold_total:.6}, \"warm_s\": {warm:.6} }}\n  }}\n}}\n",
        scale.name(),
        opts.seed,
    );
    std::fs::write(&opts.out, json)
        .map_err(|e| format!("cannot write bench summary `{}`: {e}", opts.out))?;
    let _ = writeln!(out, "  wrote {}", opts.out);
    Ok(())
}

/// `capsim chaos` — a deterministic crash/corruption self-test.
///
/// Re-runs `capsim sweep <kind>` as subprocesses under injected faults
/// (simulated kills, stalls, panics, cache corruption) in throwaway
/// journal/cache directories, asserting that every run either completes
/// byte-identical to a clean reference or leaves a journal from which
/// `--resume` reproduces the reference exactly.
struct ChaosHarness {
    exe: PathBuf,
    kind: String,
    seed: u64,
    jobs: Option<usize>,
    root: PathBuf,
}

impl ChaosHarness {
    fn new(kind: &str, flags: &Flags) -> Result<Self, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("chaos: cannot locate the capsim binary: {e}"))?;
        let seed = flags.seed.unwrap_or(DEFAULT_SEED);
        let root = std::env::temp_dir()
            .join(format!("capsim-chaos-{}-{seed:x}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("chaos: cannot create {}: {e}", root.display()))?;
        Ok(ChaosHarness { exe, kind: kind.to_string(), seed, jobs: flags.jobs, root })
    }

    fn sweep_args(&self, resume: bool, leg_timeout: Option<&str>) -> Vec<String> {
        let mut args =
            vec!["sweep".into(), self.kind.clone(), "--seed".into(), self.seed.to_string()];
        if let Some(jobs) = self.jobs {
            args.extend(["--jobs".into(), jobs.to_string()]);
        }
        if resume {
            args.push("--resume".into());
        }
        if let Some(secs) = leg_timeout {
            args.extend(["--leg-timeout".into(), secs.into()]);
        }
        args
    }

    /// Spawns one `capsim` subprocess in a scrubbed environment: smoke
    /// scale, the given journal dir, and either a throwaway cache dir or
    /// no cache at all.
    fn spawn(
        &self,
        args: &[String],
        journal: &Path,
        cache: Option<&Path>,
        extra: &[(&str, String)],
    ) -> Result<std::process::Output, String> {
        let mut cmd = std::process::Command::new(&self.exe);
        cmd.args(args);
        for var in [
            "CAP_CHAOS_PANIC",
            "CAP_CHAOS_STALL",
            "CAP_CHAOS_KILL_AFTER_LEG",
            "CAP_LEG_TIMEOUT",
            "CAP_TRACE",
            "CAP_JOBS",
            "CAP_CACHE_DIR",
            "CAP_NO_CACHE",
            "CAP_JOURNAL_DIR",
            "RUST_BACKTRACE",
        ] {
            cmd.env_remove(var);
        }
        cmd.env("CAP_SCALE", "smoke");
        cmd.env("CAP_JOURNAL_DIR", journal);
        match cache {
            Some(dir) => {
                cmd.env("CAP_CACHE_DIR", dir);
            }
            None => {
                cmd.env("CAP_NO_CACHE", "1");
            }
        }
        for (key, value) in extra {
            cmd.env(key, value);
        }
        cmd.output()
            .map_err(|e| format!("chaos: cannot spawn {}: {e}", self.exe.display()))
    }

    /// The uninterrupted, fault-free run every scenario must reproduce.
    fn reference(&self) -> Result<Vec<u8>, String> {
        let out = self.spawn(&self.sweep_args(false, None), &self.root.join("ref-journal"), None, &[])?;
        if !out.status.success() {
            return Err(format!(
                "chaos: reference run failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        Ok(out.stdout)
    }

    /// A simulated kill at a seed-chosen leg boundary must leave a
    /// journal from which `--resume` reproduces the reference bytes.
    fn kill_and_resume(&self, reference: &[u8]) -> Result<(), String> {
        eprintln!("chaos: scenario kill+resume...");
        let journal = self.root.join("kill-journal");
        let kill_after = 1 + self.seed % 10;
        let out = self.spawn(
            &self.sweep_args(false, None),
            &journal,
            None,
            &[("CAP_CHAOS_KILL_AFTER_LEG", kill_after.to_string())],
        )?;
        if out.status.code() != Some(CHAOS_KILL_EXIT) {
            return Err(format!(
                "expected a simulated kill (exit {CHAOS_KILL_EXIT}) after leg {kill_after}, got {:?}",
                out.status.code()
            ));
        }
        let resumed = self.spawn(&self.sweep_args(true, None), &journal, None, &[])?;
        if !resumed.status.success() {
            return Err(format!(
                "resume after kill failed:\n{}",
                String::from_utf8_lossy(&resumed.stderr)
            ));
        }
        if resumed.stdout != reference {
            return Err("resumed output differs from the uninterrupted run".into());
        }
        Ok(())
    }

    /// Damages the first (sorted) committed cache entry under `dir`.
    fn corrupt_one_entry(dir: &Path) -> Result<(), String> {
        let mut stack = vec![dir.to_path_buf()];
        let mut files = Vec::new();
        while let Some(d) = stack.pop() {
            let entries = std::fs::read_dir(&d)
                .map_err(|e| format!("chaos: cannot read {}: {e}", d.display()))?;
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    if path.file_name().and_then(|n| n.to_str()) != Some(QUARANTINE_DIR) {
                        stack.push(path);
                    }
                } else if path.extension().and_then(|e| e.to_str()) == Some("json") {
                    files.push(path);
                }
            }
        }
        files.sort();
        let target = files.first().ok_or("chaos: no cache entry to corrupt")?;
        let text = std::fs::read(target).map_err(|e| e.to_string())?;
        // Truncation mid-value: the checksum cannot verify.
        std::fs::write(target, &text[..text.len() / 2]).map_err(|e| e.to_string())?;
        Ok(())
    }

    /// A corrupted cache entry must be quarantined and recomputed — same
    /// bytes out — and `doctor` must flag further damage.
    fn corruption_recovery(&self, reference: &[u8]) -> Result<(), String> {
        eprintln!("chaos: scenario cache-corruption...");
        let cache = self.root.join("cache");
        let cold =
            self.spawn(&self.sweep_args(false, None), &self.root.join("cc-j1"), Some(&cache), &[])?;
        if !cold.status.success() {
            return Err(format!(
                "cold cached run failed:\n{}",
                String::from_utf8_lossy(&cold.stderr)
            ));
        }
        if cold.stdout != reference {
            return Err("cached cold run differs from the no-cache reference".into());
        }
        Self::corrupt_one_entry(&cache)?;
        let warm =
            self.spawn(&self.sweep_args(false, None), &self.root.join("cc-j2"), Some(&cache), &[])?;
        if !warm.status.success() {
            return Err(format!(
                "run over a corrupted cache failed:\n{}",
                String::from_utf8_lossy(&warm.stderr)
            ));
        }
        if warm.stdout != reference {
            return Err("run over a corrupted cache differs from the reference".into());
        }
        let quarantined = std::fs::read_dir(cache.join(QUARANTINE_DIR))
            .map(Iterator::count)
            .unwrap_or(0);
        if quarantined == 0 {
            return Err("the corrupt entry was not quarantined".into());
        }
        Self::corrupt_one_entry(&cache)?;
        let report = ResultCache::at(&cache).doctor()?;
        if report.quarantined == 0 {
            return Err("doctor found nothing to quarantine in a corrupted cache".into());
        }
        Ok(())
    }

    /// Stalled legs under a generous deadline must still complete with
    /// reference bytes.
    fn stall_recovery(&self, reference: &[u8]) -> Result<(), String> {
        eprintln!("chaos: scenario stall-recovery...");
        let out = self.spawn(
            &self.sweep_args(false, Some("30")),
            &self.root.join("stall-journal"),
            None,
            &[("CAP_CHAOS_STALL", format!("100:{}:20", self.seed))],
        )?;
        if !out.status.success() {
            return Err(format!(
                "stalled run should finish under a generous deadline:\n{}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        if out.stdout != reference {
            return Err("stalled run output differs from the reference".into());
        }
        Ok(())
    }

    /// Hopeless stalls under a tight deadline must fail naming the
    /// timed-out leg; a chaos-free `--resume` must then reproduce the
    /// reference.
    fn stall_timeout_and_resume(&self, reference: &[u8]) -> Result<(), String> {
        eprintln!("chaos: scenario stall-timeout+resume...");
        let journal = self.root.join("timeout-journal");
        let out = self.spawn(
            &self.sweep_args(false, Some("0.05")),
            &journal,
            None,
            &[("CAP_CHAOS_STALL", format!("20:{}:60000", self.seed))],
        )?;
        if out.status.success() {
            return Err("a 60s stall under a 50ms deadline should fail".into());
        }
        let stderr = String::from_utf8_lossy(&out.stderr);
        if !stderr.contains("timed out") {
            return Err(format!("expected a timed-out leg, got:\n{stderr}"));
        }
        let resumed = self.spawn(&self.sweep_args(true, None), &journal, None, &[])?;
        if !resumed.status.success() {
            return Err(format!(
                "resume after timeout failed:\n{}",
                String::from_utf8_lossy(&resumed.stderr)
            ));
        }
        if resumed.stdout != reference {
            return Err("resume after timeout differs from the reference".into());
        }
        Ok(())
    }

    /// Injected leg panics must never corrupt state: the run either
    /// completes with reference bytes or a `--resume` reproduces them.
    fn panic_and_resume(&self, reference: &[u8]) -> Result<(), String> {
        eprintln!("chaos: scenario panic+resume...");
        let journal = self.root.join("panic-journal");
        let out = self.spawn(
            &self.sweep_args(false, None),
            &journal,
            None,
            &[("CAP_CHAOS_PANIC", format!("30:{}", self.seed))],
        )?;
        if out.status.success() {
            return if out.stdout == reference {
                Ok(())
            } else {
                Err("panic-free run differs from the reference".into())
            };
        }
        let resumed = self.spawn(&self.sweep_args(true, None), &journal, None, &[])?;
        if !resumed.status.success() {
            return Err(format!(
                "resume after panic failed:\n{}",
                String::from_utf8_lossy(&resumed.stderr)
            ));
        }
        if resumed.stdout != reference {
            return Err("resume after panic differs from the reference".into());
        }
        Ok(())
    }
}

/// SIGINT/SIGTERM flip the process-wide drain flag; campaigns stop
/// dispatching at the next leg boundary, flush the journal and exit with
/// a salvage summary naming the resume command.
#[cfg(unix)]
mod sig {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // A single atomic store: async-signal-safe.
        cap::par::request_drain();
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
}

fn main() {
    sig::install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    match run(&refs) {
        Ok(report) => print!("{report}"),
        Err(msg) => {
            eprintln!("{msg}");
            // 130 = interrupted (the shell convention for SIGINT), so
            // scripts can tell a drained campaign from a real failure.
            std::process::exit(if drain_requested() { 130 } else { 2 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_on_bad_args() {
        assert!(run(&[]).is_err());
        assert!(run(&["frobnicate"]).is_err());
        assert!(run(&["cache"]).is_err());
        assert!(run(&["cache", "notanapp"]).unwrap_err().contains("unknown application"));
    }

    #[test]
    fn list_names_all_apps() {
        let out = run(&["list"]).unwrap();
        for app in App::ALL {
            assert!(out.contains(app.name()), "{}", app.name());
        }
    }

    #[test]
    fn cache_report_has_best_line() {
        std::env::set_var("CAP_SCALE", "smoke");
        let out = run(&["cache", "stereo"]).unwrap();
        assert!(out.contains("best: L1=48 KB") || out.contains("best: L1=56 KB"), "{out}");
    }

    #[test]
    fn queue_report_has_best_line() {
        std::env::set_var("CAP_SCALE", "smoke");
        let out = run(&["queue", "appcg"]).unwrap();
        assert!(out.contains("best: 16 entries"), "{out}");
    }

    #[test]
    fn power_report_lists_nine_points() {
        std::env::set_var("CAP_SCALE", "smoke");
        let out = run(&["power", "gcc"]).unwrap();
        assert_eq!(out.lines().count(), 10, "header + 9 points:\n{out}");
    }

    #[test]
    fn joint_report_is_complete() {
        let out = run(&["joint", "radar"]).unwrap();
        assert!(out.contains("settled config"));
        assert!(out.contains("switches"));
    }

    #[test]
    fn faults_report_is_complete_and_deterministic() {
        let out = run(&["faults", "radar", "--seed", "11"]).unwrap();
        assert!(out.contains("fault campaign: radar"));
        assert!(out.contains("degradation"));
        assert!(out.contains("\"queue\""), "JSON body present");
        assert_eq!(out, run(&["faults", "radar", "--seed", "11"]).unwrap());
        assert_ne!(out, run(&["faults", "radar", "--seed", "12"]).unwrap());
        assert!(run(&["faults", "radar", "--seed", "nope"]).is_err());
    }

    #[test]
    fn app_lookup_is_case_insensitive() {
        assert_eq!(find_app("Stereo").unwrap(), App::Stereo);
        assert_eq!(find_app("APPCG").unwrap(), App::Appcg);
    }

    #[test]
    fn flags_parse_and_reject() {
        let f = parse_flags(&["--jobs", "4", "--seed", "99"]).unwrap();
        assert_eq!(f.jobs, Some(4));
        assert_eq!(f.seed, Some(99));
        assert_eq!(parse_flags(&[]).unwrap().jobs, None);
        let t = parse_flags(&["--trace", "out.jsonl"]).unwrap();
        assert_eq!(t.trace.as_deref(), Some("out.jsonl"));
        let r = parse_flags(&["--resume", "--leg-timeout", "2.5"]).unwrap();
        assert!(r.resume);
        assert_eq!(r.leg_timeout, Some(std::time::Duration::from_millis(2500)));
        assert!(!parse_flags(&[]).unwrap().resume);
        assert!(parse_flags(&["--leg-timeout"]).unwrap_err().contains("usage:"));
        assert!(parse_flags(&["--leg-timeout", "0"]).unwrap_err().contains("usage:"));
        assert!(parse_flags(&["--leg-timeout", "soon"]).unwrap_err().contains("usage:"));
        assert!(parse_flags(&["--trace"]).unwrap_err().contains("usage:"));
        assert!(parse_flags(&["--jobs"]).unwrap_err().contains("usage:"));
        assert!(parse_flags(&["--jobs", "0"]).unwrap_err().contains("usage:"));
        assert!(parse_flags(&["--jobs", "many"]).unwrap_err().contains("usage:"));
        assert!(parse_flags(&["--seed", "-1"]).unwrap_err().contains("usage:"));
        assert!(parse_flags(&["--frobnicate"]).unwrap_err().contains("usage:"));
    }

    #[test]
    fn sweep_rejects_bad_input() {
        assert!(run(&["sweep"]).is_err());
        assert!(run(&["sweep", "frobnicate"]).unwrap_err().contains("usage:"));
        assert!(run(&["sweep", "cache", "--jobs", "zero"]).unwrap_err().contains("usage:"));
        assert!(run(&["sweep", "queue", "--seed", "-7"]).unwrap_err().contains("usage:"));
    }

    #[test]
    fn campaign_only_flags_are_rejected_elsewhere() {
        assert!(run(&["managed", "gcc", "--resume"])
            .unwrap_err()
            .contains("campaign commands"));
        assert!(run(&["managed", "gcc", "--leg-timeout", "5"])
            .unwrap_err()
            .contains("campaign commands"));
    }

    #[test]
    fn plan_dry_run_resolves_without_executing() {
        std::env::set_var("CAP_SCALE", "smoke");
        std::env::set_var("CAP_NO_CACHE", "1");
        let out = run(&["plan", "sweep", "cache", "--dry-run"]).unwrap();
        assert!(out.starts_with("plan: sweep-cache"), "{out}");
        let legs = App::cache_suite().count();
        assert!(out.contains(&format!("cache-sweep: {legs} leg(s)")), "{out}");
        assert!(out.contains(&format!("total: {legs} leg(s), 0 journal-hit, 0 cache-hit, {legs} miss")), "{out}");
        // The campaign is required, --resume is meaningless on a dry run.
        assert!(run(&["plan", "--dry-run"]).unwrap_err().contains("plan wants a campaign"));
        assert!(run(&["plan", "sweep", "cache", "--dry-run", "--resume"])
            .unwrap_err()
            .contains("drop --resume"));
        assert!(run(&["plan", "frobnicate", "--dry-run"]).is_err());
    }

    #[test]
    fn doctor_validates_arguments_and_scans() {
        assert!(run(&["doctor", "a", "b"]).unwrap_err().contains("usage:"));
        let dir = std::env::temp_dir().join(format!("capsim-doctor-ut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = run(&["doctor", dir.to_str().unwrap()]).unwrap();
        assert!(out.contains("scanned:"), "{out}");
        assert!(out.contains("quarantine total: 0"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_validates_arguments() {
        assert!(run(&["chaos"]).unwrap_err().contains("usage:"));
        assert!(run(&["chaos", "frobnicate"]).unwrap_err().contains("chaos target"));
        assert!(run(&["chaos", "queue", "--policy", "confidence"])
            .unwrap_err()
            .contains("only --seed"));
        assert!(run(&["chaos", "queue", "--resume"]).unwrap_err().contains("only --seed"));
    }

    #[test]
    fn verify_flags_parse_and_reject() {
        let d = VerifyOpts::parse(&[]).unwrap();
        assert_eq!(d.cases, 1000);
        assert_eq!(d.seed, 1);
        assert!(d.replay.is_none());
        assert!(!d.self_check);
        let f = VerifyOpts::parse(&["--cases", "50", "--seed", "9"]).unwrap();
        assert_eq!((f.cases, f.seed), (50, 9));
        let r = VerifyOpts::parse(&["--replay", "repro.json"]).unwrap();
        assert_eq!(r.replay.as_deref(), Some("repro.json"));
        assert!(VerifyOpts::parse(&["--self-check"]).unwrap().self_check);
        assert!(VerifyOpts::parse(&["--cases"]).unwrap_err().contains("usage:"));
        assert!(VerifyOpts::parse(&["--cases", "0"]).unwrap_err().contains("usage:"));
        assert!(VerifyOpts::parse(&["--seed", "nope"]).unwrap_err().contains("usage:"));
        assert!(VerifyOpts::parse(&["--jobs", "2"]).unwrap_err().contains("usage:"));
        assert!(VerifyOpts::parse(&["--replay", "x", "--self-check"])
            .unwrap_err()
            .contains("mutually exclusive"));
    }

    #[test]
    fn verify_replay_rejects_missing_and_malformed_files() {
        assert!(run(&["verify", "--replay", "/nonexistent/repro.json"])
            .unwrap_err()
            .contains("cannot read"));
        let dir = std::env::temp_dir().join(format!("capsim-verify-ut-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("not-a-repro.json");
        std::fs::write(&bad, "{\"hello\":1}").unwrap();
        assert!(run(&["verify", "--replay", bad.to_str().unwrap()])
            .unwrap_err()
            .contains("not a cap-verify repro"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_smoke_run_passes_and_reports_every_property() {
        let dir = std::env::temp_dir().join(format!("capsim-verify-run-ut-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("CAP_VERIFY_DIR", &dir);
        let out = run(&["verify", "--cases", "3", "--seed", "5"]).unwrap();
        std::env::remove_var("CAP_VERIFY_DIR");
        assert!(out.contains("40 properties passed"), "{out}");
        assert!(out.contains("seed 5"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_flags_parse_and_reject() {
        let d = ServeOpts::parse(&[]).unwrap();
        assert_eq!(d.addr, serve::DEFAULT_ADDR);
        assert_eq!(d.max_inflight, 4);
        assert!(d.jobs.is_none());
        assert!(d.addr_file.is_none());
        let f = ServeOpts::parse(&[
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            "2",
            "--max-inflight",
            "1",
            "--addr-file",
            "addr.txt",
        ])
        .unwrap();
        assert_eq!(f.addr, "127.0.0.1:0");
        assert_eq!(f.jobs, Some(2));
        assert_eq!(f.max_inflight, 1);
        assert_eq!(f.addr_file.as_deref(), Some("addr.txt"));
        assert!(ServeOpts::parse(&["--addr"]).unwrap_err().contains("usage:"));
        assert!(ServeOpts::parse(&["--jobs", "0"]).unwrap_err().contains("usage:"));
        assert!(ServeOpts::parse(&["--max-inflight", "none"]).unwrap_err().contains("usage:"));
        assert!(ServeOpts::parse(&["--resume"]).unwrap_err().contains("unknown serve flag"));
    }

    #[test]
    fn submit_and_status_validate_arguments() {
        let (addr, args) = split_addr(&["sweep", "all", "--addr", "127.0.0.1:7777"]).unwrap();
        assert_eq!(addr, "127.0.0.1:7777");
        assert_eq!(args, ["sweep", "all"]);
        let (addr, args) = split_addr(&["status"]).unwrap();
        assert_eq!(addr, serve::DEFAULT_ADDR);
        assert_eq!(args, ["status"]);
        assert!(split_addr(&["--addr"]).unwrap_err().contains("usage:"));
        assert!(run(&["submit"]).unwrap_err().contains("submit wants a campaign"));
        assert!(run(&["submit", "--addr", "127.0.0.1:9"])
            .unwrap_err()
            .contains("submit wants a campaign"));
        assert!(run(&["status", "extra"]).unwrap_err().contains("only --addr"));
    }

    #[test]
    fn sweep_cache_report_is_deterministic_across_jobs() {
        std::env::set_var("CAP_SCALE", "smoke");
        std::env::set_var("CAP_NO_CACHE", "1");
        let serial = run(&["sweep", "cache", "--jobs", "1"]).unwrap();
        assert!(serial.contains("cache sweep"), "{serial}");
        assert!(serial.contains("best"), "{serial}");
        assert_eq!(serial, run(&["sweep", "cache", "--jobs", "3"]).unwrap());
    }
}
