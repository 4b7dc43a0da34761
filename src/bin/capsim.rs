//! `capsim` — command-line front end to the CAP reproduction.
//!
//! Every subcommand and the flags it takes (`USAGE` says what each does):
//!
//! ```text
//! list | cache <app> | queue <app> | joint <app> | power <app>
//! trace-summary <file> | doctor [dir]       no flags
//! sweep <cache|queue|all> | compare-policies <app>
//!                     --jobs N --seed S --trace FILE --resume --leg-timeout SECS
//! faults <app>        the same, and --policy NAME
//! headline            --jobs N --seed S --trace FILE --leg-timeout SECS
//! managed <app>       --seed S --trace FILE --eager --policy NAME --pattern
//! plan <campaign>     --dry-run, and the campaign's own flags
//! chaos <cache|queue|all>  --seed S --jobs N
//! verify              --cases N --seed S --replay FILE --self-check
//! bench               --quick --seed S --out FILE
//! serve               --addr HOST:PORT --jobs N --max-inflight M --addr-file FILE
//! submit <campaign>   --addr HOST:PORT; the campaign's tokens go to the service
//! status              --addr HOST:PORT
//! ```
//!
//! One table, `COMMANDS`, holds that grammar, and one parser reads each
//! command line against it: a flag the subcommand does not take is a
//! usage error naming both. The catalogue campaigns (`sweep`,
//! `compare-policies`, `faults`, `headline`, and `figures` under `plan`
//! or `submit` only) take the same flags run directly, under `plan` or
//! on the service, which rejects the flags it owns: all three paths
//! parse them with the campaign's row and build them with one builder.
//!
//! Scale is taken from `CAP_SCALE` (`smoke`/`default`/`full`). Sweeps
//! memoize per-curve results under `results/cache/` (override with
//! `CAP_CACHE_DIR`, disable with `CAP_NO_CACHE=1`). `--jobs`, `--trace`
//! and `--leg-timeout` each win over `CAP_JOBS`, `CAP_TRACE` and
//! `CAP_LEG_TIMEOUT`, which are read only when the flag is absent;
//! `--jobs` then falls back to the machine's parallelism. A trace is a
//! JSON Lines file of decision events that `capsim trace-summary`
//! reduces. None of these knobs change report bytes.
//!
//! Journaled campaigns (`sweep`, `faults`, `compare-policies`) commit
//! every completed leg to a write-ahead journal under `results/journal/`
//! (`CAP_JOURNAL_DIR` overrides); SIGINT/SIGTERM drain at the next leg
//! boundary with a salvage summary, and `--resume` replays the journal to
//! output byte-identical to an uninterrupted run. `capsim chaos`
//! exercises this end to end against deterministic injected faults.

use cap::core::experiments::{
    CacheExperiment, ExecPolicy, ExperimentScale, IntervalExperiment, QueueExperiment, RunFlags,
    DEFAULT_SEED, SWEEP_RESULTS_VERSION,
};
use cap::core::extended::run_managed_combined;
use cap::core::faults::FaultCampaign;
use cap::core::manager::ConfidencePolicy;
use cap::core::plan;
use cap::core::policy::{PolicyConfig, PolicyKind};
use cap::core::power::{queue_frontier, PowerModel};
use cap::core::serve::{self, CompiledCampaign};
use cap::core::CapError;
use cap::obs::{resolve_recorder, summary::TraceSummary};
use cap::par::{
    drain_requested, watchdog::parse_timeout_seconds, Journal, JournalHeader, ResultCache,
    CHAOS_KILL_EXIT, QUARANTINE_DIR,
};
use cap::verify::{replay, run_self_check, run_verify, ReplayOutcome, VerifyConfig};
use cap::workloads::App;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError};

const USAGE: &str = "usage: capsim <list|cache|queue|sweep|managed|compare-policies|joint|power|headline|faults|plan|trace-summary|doctor|chaos|verify|bench|serve|submit|status> [operands] [flags]
  list                 the 22 evaluation applications
  cache <app>          TPI vs L1/L2 boundary (Figure 7 row)
  queue <app>          TPI vs window size (Figure 10 row)
  sweep <cache|queue|all>  full-suite sweep on the parallel engine
                       (--jobs N: worker count, --seed S: root seed, --trace FILE,
                        --resume: replay the leg journal, --leg-timeout SECS)
  managed <app>        Section 6 interval-adaptive run (--seed S, --trace FILE,
                       --eager: no confidence, --policy NAME: configuration manager,
                       --pattern: §6 pattern detection)
  compare-policies <app>  one managed run per policy, tabulated (--jobs N,
                       --seed S, --trace FILE, --resume, --leg-timeout SECS)
  joint <app>          online joint cache+queue management
  power <app>          performance/power frontier
  headline             paper-vs-measured headline numbers (--jobs N, --seed S,
                       --trace FILE, --leg-timeout SECS)
  faults <app>         clean-vs-faulty degradation campaign (--jobs N, --seed S,
                       --trace FILE, --resume, --leg-timeout SECS, --policy NAME)
  plan <campaign>      print a campaign's leg graph on stderr, then run it: sweep
                       <kind> | compare-policies <app> | faults <app> | headline with
                       their own flags, or figures (--jobs, --seed, --trace,
                       --leg-timeout); --dry-run only classifies each leg as
                       journal-hit/cache-hit/miss, executing nothing
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
--jobs, --trace and --leg-timeout win over CAP_JOBS, CAP_TRACE and CAP_LEG_TIMEOUT,
  which are read only when the flag is absent";

// ---------------------------------------------------------------------------
// The command grammar: one table, one parser
// ---------------------------------------------------------------------------

/// How a subcommand runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A plain command.
    Command,
    /// A catalogue campaign: run directly, under `plan` or submitted.
    Campaign,
    /// A catalogue campaign run only under `plan` or submitted.
    PlanOnly,
    /// Takes a campaign (`plan`, `submit`): its own flags are parsed
    /// here, every other token is handed on to the campaign.
    Wrapper,
}

/// Operand or flag names.
type Words = &'static [&'static str];

/// One subcommand: its operands as `USAGE` shows them (`[..]` is
/// optional) and the flags it takes.
struct Command {
    name: &'static str,
    operands: Words,
    flags: Words,
    role: Role,
}

const fn row(name: &'static str, operands: Words, flags: Words, role: Role) -> Command {
    Command { name, operands, flags, role }
}

/// The flags of a journaled campaign.
const JOURNALED: Words = &["--jobs", "--seed", "--trace", "--resume", "--leg-timeout"];
/// The flags of a cache-only plan: it keeps no journal to resume.
const CACHE_ONLY: Words = &["--jobs", "--seed", "--trace", "--leg-timeout"];
const APP: Words = &["<app>"];
const TARGET: Words = &["<cache|queue|all>"];
const CAMPAIGN: Words = &["<campaign>"];

/// Every subcommand `capsim` has.
const COMMANDS: &[Command] = &[
    row("list", &[], &[], Role::Command),
    row("cache", APP, &[], Role::Command),
    row("queue", APP, &[], Role::Command),
    row("sweep", TARGET, JOURNALED, Role::Campaign),
    row("managed", APP, &["--seed", "--trace", "--eager", "--policy", "--pattern"], Role::Command),
    row("compare-policies", APP, JOURNALED, Role::Campaign),
    row("joint", APP, &[], Role::Command),
    row("power", APP, &[], Role::Command),
    row("headline", &[], CACHE_ONLY, Role::Campaign),
    row("figures", &[], CACHE_ONLY, Role::PlanOnly),
    row(
        "faults",
        APP,
        &["--jobs", "--seed", "--trace", "--resume", "--leg-timeout", "--policy"],
        Role::Campaign,
    ),
    row("plan", CAMPAIGN, &["--dry-run"], Role::Wrapper),
    row("trace-summary", &["<file>"], &[], Role::Command),
    row("doctor", &["[dir]"], &[], Role::Command),
    row("chaos", TARGET, &["--seed", "--jobs"], Role::Command),
    row("verify", &[], &["--cases", "--seed", "--replay", "--self-check"], Role::Command),
    row("bench", &[], &["--quick", "--seed", "--out"], Role::Command),
    row("serve", &[], &["--addr", "--jobs", "--max-inflight", "--addr-file"], Role::Command),
    row("submit", CAMPAIGN, &["--addr"], Role::Wrapper),
    row("status", &[], &["--addr"], Role::Command),
];

impl Command {
    /// The name followed by the operands, as `USAGE` shows them.
    fn synopsis(&self) -> String {
        std::iter::once(self.name).chain(self.operands.iter().copied()).collect::<Vec<_>>().join(" ")
    }

    fn is_campaign(&self) -> bool {
        matches!(self.role, Role::Campaign | Role::PlanOnly)
    }
}

/// A command line parsed against its row of `COMMANDS`.
#[derive(Debug, Default)]
struct Args {
    /// The subcommand; for a wrapper's campaign, the campaign.
    cmd: &'static str,
    /// The operands; a wrapper's are its campaign's tokens.
    operands: Vec<String>,
    /// `--jobs`, `--trace`, `--leg-timeout`.
    run: RunFlags,
    seed: Option<u64>,
    policy: Option<PolicyKind>,
    cases: Option<usize>,
    max_inflight: Option<usize>,
    replay: Option<String>,
    out: Option<String>,
    addr: Option<String>,
    addr_file: Option<String>,
    resume: bool,
    dry_run: bool,
    eager: bool,
    pattern: bool,
    self_check: bool,
    quick: bool,
}

impl Args {
    /// Records one flag, taking its value (if it has one) from `values`.
    fn set<'a>(&mut self, flag: &str, values: &mut impl Iterator<Item = &'a str>) -> Result<(), String> {
        match flag {
            "--jobs" => self.run.jobs = Some(count(flag, values.next())?),
            "--max-inflight" => self.max_inflight = Some(count(flag, values.next())?),
            "--cases" => self.cases = Some(count(flag, values.next())?),
            "--seed" => self.seed = Some(seed(values.next())?),
            "--leg-timeout" => {
                let wants = "a positive number of seconds";
                self.run.leg_timeout = Some(value(flag, values.next(), wants, parse_timeout_seconds)?);
            }
            "--policy" => {
                let wants = "a policy: process-level, interval-greedy, confidence or hysteresis";
                self.policy = Some(value(flag, values.next(), wants, PolicyKind::parse)?);
            }
            "--trace" => self.run.trace = Some(path(flag, values.next())?.into()),
            "--replay" => self.replay = Some(path(flag, values.next())?),
            "--out" => self.out = Some(path(flag, values.next())?),
            "--addr-file" => self.addr_file = Some(path(flag, values.next())?),
            "--addr" => self.addr = Some(value(flag, values.next(), "HOST:PORT", |v| Some(v.to_string()))?),
            "--resume" => self.resume = true,
            "--dry-run" => self.dry_run = true,
            "--eager" => self.eager = true,
            "--pattern" => self.pattern = true,
            "--self-check" => self.self_check = true,
            "--quick" => self.quick = true,
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
        Ok(())
    }

    /// The `<app>` operand.
    fn app(&self) -> Result<App, String> {
        find_app(&self.operands[0])
    }

    /// The `<cache|queue|all>` operand.
    fn target(&self) -> Result<&str, String> {
        match self.operands[0].as_str() {
            kind @ ("cache" | "queue" | "all") => Ok(kind),
            kind => Err(format!(
                "unknown {} target `{kind}` (expected cache, queue or all)\n{USAGE}",
                self.cmd
            )),
        }
    }

    /// The service address, defaulting to its well-known one.
    fn addr(&self) -> &str {
        self.addr.as_deref().unwrap_or(serve::DEFAULT_ADDR)
    }
}

fn find_app(name: &str) -> Result<App, String> {
    App::ALL
        .into_iter()
        .find(|a| a.name() == name.to_lowercase())
        .ok_or_else(|| format!("unknown application `{name}` (try `capsim list`)"))
}

/// Parses one flag value: `wants` names what the flag takes, and `parse`
/// returns `None` for a malformed value.
fn value<'a, T>(
    flag: &str,
    raw: Option<&'a str>,
    wants: &str,
    parse: impl FnOnce(&'a str) -> Option<T>,
) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} wants {wants}\n{USAGE}"))?;
    parse(raw).ok_or_else(|| format!("{flag} wants {wants}, got `{raw}`\n{USAGE}"))
}

/// A positive integer (`--jobs`, `--max-inflight`, `--cases`).
fn count(flag: &str, raw: Option<&str>) -> Result<usize, String> {
    value(flag, raw, "a positive integer", |v| v.parse().ok().filter(|&n| n >= 1))
}

/// A seed: an unsigned integer in decimal, or in hex after `0x`, the
/// form reports and journal names print seeds in.
fn seed(raw: Option<&str>) -> Result<u64, String> {
    value("--seed", raw, "an unsigned integer, decimal or 0x hex", |v| {
        match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => v.parse().ok(),
        }
    })
}

fn path(flag: &str, raw: Option<&str>) -> Result<String, String> {
    value(flag, raw, "a file path", |v| Some(v.to_string()))
}

/// Parses the tokens after a subcommand against its row. A wrapper
/// takes its own flags and keeps every other token, in order, as its
/// campaign's.
fn parse<S: AsRef<str>>(cmd: &'static Command, rest: &[S]) -> Result<Args, String> {
    let mut args = Args { cmd: cmd.name, ..Args::default() };
    let mut tokens = rest.iter().map(AsRef::<str>::as_ref);
    while let Some(tok) = tokens.next() {
        if cmd.flags.contains(&tok) {
            args.set(tok, &mut tokens)?;
        } else if cmd.role == Role::Wrapper
            || (!tok.starts_with("--") && args.operands.len() < cmd.operands.len())
        {
            args.operands.push(tok.to_string());
        } else {
            return Err(rejection(cmd, tok));
        }
    }
    match cmd.operands.get(args.operands.len()) {
        Some(_) if cmd.role == Role::Wrapper => Err(campaign_wanted(cmd.name)),
        Some(missing) if missing.starts_with('<') => {
            Err(format!("{} wants {missing}\n{USAGE}", cmd.name))
        }
        _ => Ok(args),
    }
}

/// Parses a wrapper's campaign tokens against the campaign's row.
fn parse_campaign<S: AsRef<str>>(wrapper: &str, tokens: &[S]) -> Result<Args, String> {
    let campaign = tokens
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.is_campaign() && c.name == name.as_ref()))
        .ok_or_else(|| campaign_wanted(wrapper))?;
    parse(campaign, &tokens[1..])
}

/// The usage error for a token `cmd` does not take: an unknown flag,
/// another subcommand's flag, or an operand too many.
fn rejection(cmd: &Command, tok: &str) -> String {
    let (campaigns, others): (Vec<&Command>, Vec<&Command>) =
        COMMANDS.iter().filter(|c| c.flags.contains(&tok)).partition(|c| c.is_campaign());
    if tok.starts_with("--") && campaigns.is_empty() && others.is_empty() {
        return format!("unknown flag `{tok}`\n{USAGE}");
    }
    let takes = if cmd.flags.is_empty() {
        "no other arguments".to_string()
    } else {
        format!("only {}", cmd.flags.join(", "))
    };
    let mut msg = format!("`{}` takes {takes}, not `{tok}`", cmd.synopsis());
    let names = |cs: &[&Command]| cs.iter().map(|c| c.name).collect::<Vec<_>>().join(", ");
    let mut takers = Vec::new();
    if !campaigns.is_empty() {
        takers.push(format!("the campaign commands ({})", names(&campaigns)));
    }
    if !others.is_empty() {
        takers.push(names(&others));
    }
    if !takers.is_empty() {
        let _ = write!(msg, "; {tok} applies to {}", takers.join(" and "));
    }
    format!("{msg}\n{USAGE}")
}

/// A usage error's reason, without the `USAGE` text that follows it on
/// a terminal.
fn without_usage(msg: &str) -> String {
    msg.strip_suffix(USAGE).map_or(msg, str::trim_end).to_string()
}

/// The error for a wrapper given no campaign, or an unknown one.
fn campaign_wanted(wrapper: &str) -> String {
    let catalogue: Vec<String> =
        COMMANDS.iter().filter(|c| c.is_campaign()).map(Command::synopsis).collect();
    format!("{wrapper} wants a campaign: {}\n{USAGE}", catalogue.join(" | "))
}

// ---------------------------------------------------------------------------
// Campaigns: one identity, one builder, one runner
// ---------------------------------------------------------------------------

/// The execution policy for a campaign or the service: the run options
/// resolved once (flag first, then the environment), memoizing under
/// `results/cache` unless `CAP_CACHE_DIR` redirects or `CAP_NO_CACHE`
/// disables it.
fn exec_policy(args: &Args) -> Result<ExecPolicy, String> {
    let exec = ExecPolicy::from_env(&args.run).map_err(|e| e.to_string())?;
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

/// What names one journaled campaign run. Its journal file name, its
/// journal header and its resume command all derive from these four.
struct CampaignId {
    /// The command tokens, e.g. `sweep all` or `faults radar`.
    command: String,
    seed: u64,
    scale: ExperimentScale,
    /// The policy of a campaign journaled per policy (`faults`).
    policy: Option<PolicyKind>,
}

impl CampaignId {
    fn journal(&self) -> (String, JournalHeader) {
        let experiment = self.command.replace(' ', "-");
        let policy = self.policy.map(|p| p.name().to_string());
        let suffix = policy.as_ref().map_or(String::new(), |p| format!("-{p}"));
        let file = format!("{experiment}-{}-{:016x}{suffix}.jsonl", self.scale.name(), self.seed);
        let header = JournalHeader {
            experiment,
            seed: self.seed,
            scale: self.scale.name().to_string(),
            policy,
            results_version: SWEEP_RESULTS_VERSION,
        };
        (file, header)
    }

    fn resume_cmd(&self) -> String {
        let policy = self.policy.map_or(String::new(), |p| format!(" --policy {}", p.name()));
        format!("capsim {} --seed {}{policy} --resume", self.command, self.seed)
    }
}

/// One campaign built for running: the value the service runs too, plus
/// the command that resumes it (empty for the cache-only plans).
struct Campaign {
    compiled: CompiledCampaign,
    resume_cmd: String,
}

impl Campaign {
    fn journaled(spec: plan::ExperimentSpec, id: &CampaignId) -> Self {
        let compiled = CompiledCampaign { spec, journal: Some(id.journal()) };
        Campaign { compiled, resume_cmd: id.resume_cmd() }
    }

    fn cache_only(spec: Result<plan::ExperimentSpec, CapError>) -> Result<Self, String> {
        let spec = spec.map_err(|e| e.to_string())?;
        Ok(Campaign { compiled: CompiledCampaign { spec, journal: None }, resume_cmd: String::new() })
    }
}

/// Builds the campaign `args` names: the one builder behind the direct
/// commands, `capsim plan` and the service.
fn build_campaign(args: &Args, scale: ExperimentScale) -> Result<Campaign, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let id = |command: String, policy| CampaignId { command, seed, scale, policy };
    match args.cmd {
        "sweep" => {
            let kind = args.target()?;
            let spec = plan::sweep_plan(kind, scale, seed).map_err(|e| e.to_string())?;
            Ok(Campaign::journaled(spec, &id(format!("sweep {kind}"), None)))
        }
        "compare-policies" => {
            let app = args.app()?;
            let command = format!("compare-policies {}", app.name());
            Ok(Campaign::journaled(plan::compare_policies_plan(app, 400, seed), &id(command, None)))
        }
        "faults" => {
            let app = args.app()?;
            let policy = args.policy.unwrap_or(PolicyKind::Confidence);
            let spec = FaultCampaign::new(app, seed).with_policy(policy).plan();
            Ok(Campaign::journaled(spec, &id(format!("faults {}", app.name()), Some(policy))))
        }
        "figures" => Campaign::cache_only(plan::figures_plan(scale, seed)),
        "headline" => Campaign::cache_only(plan::headline_plan(scale, seed)),
        other => unreachable!("`{other}` is not a campaign"),
    }
}

/// Runs a built campaign. A dry run only resolves its leg graph against
/// the result cache; otherwise the journal (when it has one) is
/// attached, the spec runs on the one executor and its reduces render.
/// Under `plan` the resolved graph goes to stderr first, so stdout stays
/// byte-identical to the direct command.
fn run_campaign(campaign: &Campaign, args: &Args, planned: bool) -> Result<String, String> {
    if args.dry_run && args.resume {
        return Err(format!("--dry-run only resolves the leg graph; drop --resume\n{USAGE}"));
    }
    let spec = &campaign.compiled.spec;
    let mut exec = exec_policy(args)?;
    if args.dry_run {
        // A dry run never opens the journal: it classifies legs against
        // the result cache alone, without touching disk state the real
        // run would want to create.
        return Ok(plan::Executor::resolve(spec, &exec).render());
    }
    if let Some((file, header)) = campaign.compiled.journal.clone() {
        exec = exec.with_journal(open_journal(&file, header, args.resume)?);
    }
    if planned {
        eprint!("{}", plan::Executor::resolve(spec, &exec).render());
    }
    let run = plan::Executor::run(spec, &exec)
        .map_err(|e| campaign_err(e, &exec, &campaign.resume_cmd))?;
    Ok(run.rendered().to_string())
}

/// Executes a command line and renders the report.
fn run(tokens: &[&str]) -> Result<String, String> {
    let scale = ExperimentScale::from_env().map_err(|e| e.to_string())?;
    let cmd = tokens
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.name == *name && c.role != Role::PlanOnly))
        .ok_or_else(|| USAGE.to_string())?;
    let args = parse(cmd, &tokens[1..])?;
    if cmd.role == Role::Campaign {
        return run_campaign(&build_campaign(&args, scale)?, &args, false);
    }
    let mut out = String::new();
    match cmd.name {
        "list" => {
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
        "cache" => {
            let app = args.app()?;
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
        "queue" => {
            let app = args.app()?;
            let curve = QueueExperiment::new(scale).sweep(app).map_err(|e| e.to_string())?;
            let _ = writeln!(out, "{:>8} {:>10} {:>8} {:>10}", "entries", "cycle ns", "IPC", "TPI ns");
            for p in &curve.points {
                let _ = writeln!(out, "{:>8} {:>10.3} {:>8.2} {:>10.3}", p.entries, p.cycle_ns, p.ipc, p.tpi_ns);
            }
            let b = curve.best();
            let _ = writeln!(out, "best: {} entries, TPI {:.3} ns (IPC {:.2})", b.entries, b.tpi_ns, b.ipc);
        }
        "managed" => {
            let app = args.app()?;
            if args.eager && (args.policy.is_some() || args.pattern) {
                return Err(format!("--eager cannot be combined with --policy or --pattern\n{USAGE}"));
            }
            let kind = args.policy.unwrap_or(PolicyKind::Confidence);
            if args.pattern && kind != PolicyKind::Confidence {
                return Err(format!("--pattern requires the confidence policy\n{USAGE}"));
            }
            // The managed run is a serial chain (clock and manager state
            // carry across intervals); only the recorder is attached.
            let exec = match resolve_recorder(args.run.trace.as_deref())? {
                Some(recorder) => ExecPolicy::serial().with_recorder(recorder),
                None => ExecPolicy::serial(),
            };
            let confidence = if args.eager { ConfidencePolicy::none() } else { ConfidencePolicy::default_policy() };
            let mut config = PolicyConfig::new(kind).with_confidence(confidence);
            if args.pattern {
                config = config.with_pattern(64, 0.85);
            }
            let cmp = IntervalExperiment::new()
                .with_seed(args.seed.unwrap_or(DEFAULT_SEED))
                .policy_comparison(app, 400, &[config], &exec)
                .map_err(|e| e.to_string())?
                .remove(0);
            let label = if args.eager {
                "eager (no confidence)".to_string()
            } else if kind == PolicyKind::Confidence && args.policy.is_none() && !args.pattern {
                "confident".to_string()
            } else if args.pattern {
                format!("{kind} (pattern detection)")
            } else {
                kind.to_string()
            };
            let _ = writeln!(out, "policy:        {label}");
            let _ = writeln!(out, "process level: {:.3} ns", cmp.process_level_tpi);
            let _ = writeln!(out, "managed:       {:.3} ns ({} switches)", cmp.managed_tpi, cmp.switches);
            let _ = writeln!(out, "oracle:        {:.3} ns", cmp.oracle_tpi);
        }
        "joint" => {
            let app = args.app()?;
            let policy = ConfidencePolicy::default_policy();
            let r = run_managed_combined(app, 300, 0x15CA_1998, policy, &ExecPolicy::serial())
                .map_err(|e| e.to_string())?;
            let _ = writeln!(out, "intervals:      {}", r.intervals);
            let _ = writeln!(out, "average TPI:    {:.3} ns", r.avg_tpi);
            let _ = writeln!(out, "switches:       {}", r.switches);
            let _ = writeln!(out, "settled config: L1={} KB, {}-entry window", r.final_l1_kb, r.final_entries);
        }
        "power" => {
            let app = args.app()?;
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
        "plan" => {
            let campaign = Args { dry_run: args.dry_run, ..parse_campaign("plan", &args.operands)? };
            return run_campaign(&build_campaign(&campaign, scale)?, &campaign, true);
        }
        "trace-summary" => {
            let path = &args.operands[0];
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read trace `{path}`: {e}"))?;
            let summary = TraceSummary::from_jsonl(&text)?;
            let _ = write!(out, "{}", summary.render());
        }
        "doctor" => {
            let dir = args.operands.first().map_or("results/cache", String::as_str);
            let report = ResultCache::at(dir).doctor()?;
            let _ = writeln!(out, "cache doctor: {dir}");
            let _ = writeln!(out, "  scanned:          {}", report.scanned);
            let _ = writeln!(out, "  valid:            {}", report.valid);
            let _ = writeln!(out, "  quarantined now:  {}", report.quarantined);
            let _ = writeln!(out, "  misplaced:        {}", report.misplaced);
            let _ = writeln!(out, "  quarantine total: {}", report.quarantine_total);
        }
        "chaos" => {
            let kind = args.target()?;
            let harness = ChaosHarness::new(kind, args.seed.unwrap_or(DEFAULT_SEED), args.run.jobs)?;
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
        "verify" => {
            if args.replay.is_some() && args.self_check {
                return Err(format!("--replay and --self-check are mutually exclusive\n{USAGE}"));
            }
            let cfg = verify_config(&args, verify_out_dir()?);
            if let Some(path) = &args.replay {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read repro `{path}`: {e}"))?;
                match replay(&text, &cfg.out_dir)? {
                    ReplayOutcome::Reproduced(message) => {
                        return Err(format!("replay: REPRODUCED\n  {message}"));
                    }
                    ReplayOutcome::Clean => {
                        let _ = writeln!(out, "replay: clean — the property passes on this repro");
                    }
                }
            } else if args.self_check {
                let report = run_self_check(cfg.seed, &cfg.out_dir)
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
        "bench" => {
            let scale = if args.quick { ExperimentScale::Smoke } else { scale };
            let path = args.out.as_deref().unwrap_or("BENCH_sweep.json");
            run_bench(&mut out, scale, args.seed.unwrap_or(DEFAULT_SEED), path)?;
        }
        "serve" => {
            let exec = exec_policy(&args)?;
            // The service compiles a submitted campaign through the same
            // parser and builder as the direct command, and runs the very
            // value built — so both render the same bytes.
            // A rejected campaign's error carries only its one-line reason.
            let compiler: serve::CampaignCompiler = Arc::new(move |tokens: &[String]| {
                let campaign = parse_campaign("submit", tokens).and_then(|args| build_campaign(&args, scale));
                campaign.map(|campaign| campaign.compiled).map_err(|e| without_usage(&e))
            });
            let summary = serve::serve(&serve_config(&args), exec, compiler)?;
            let _ = write!(out, "{}", summary.render());
        }
        "submit" => {
            let outcome = serve::submit(args.addr(), &args.operands)?;
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
        "status" => {
            let report = serve::status(args.addr())?;
            let _ = write!(out, "{}", report.render());
        }
        other => unreachable!("`{other}` has a row in COMMANDS but no arm here"),
    }
    Ok(out)
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

/// `verify`'s settings: 1000 fuzz cases per property and root seed 1
/// unless `--cases`/`--seed` say otherwise.
fn verify_config(args: &Args, out_dir: PathBuf) -> VerifyConfig {
    VerifyConfig { cases: args.cases.map_or(1000, |n| n as u64), seed: args.seed.unwrap_or(1), out_dir }
}

/// `serve`'s settings: the well-known address and at most 4 campaigns
/// in flight unless `--addr`/`--max-inflight` say otherwise.
fn serve_config(args: &Args) -> serve::ServeConfig {
    serve::ServeConfig {
        addr: args.addr().to_string(),
        max_inflight: args.max_inflight.unwrap_or(4),
        journal_dir: journal_dir(),
        addr_file: args.addr_file.as_ref().map(PathBuf::from),
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
fn run_bench(out: &mut String, scale: ExperimentScale, seed: u64, path: &str) -> Result<(), String> {
    use std::time::Instant;
    let cache_exp =
        CacheExperiment::new(scale).map_err(|e| e.to_string())?.with_seed(seed);
    let queue_exp = QueueExperiment::new(scale).with_seed(seed);

    let serial = ExecPolicy::serial();
    let t = Instant::now();
    cache_exp.figure7(&serial).map_err(|e| e.to_string())?;
    let cold_cache = t.elapsed().as_secs_f64();
    let t = Instant::now();
    queue_exp.figure10(&serial).map_err(|e| e.to_string())?;
    let cold_queue = t.elapsed().as_secs_f64();

    // Warm: replay both figures from a populated result cache.
    let warm_dir =
        std::env::temp_dir().join(format!("capsim-bench-{}-{:x}", std::process::id(), seed));
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
    let _ = writeln!(out, "== sweep bench: scale {}, seed {:#x}", scale.name(), seed);
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
        seed,
    );
    std::fs::write(path, json)
        .map_err(|e| format!("cannot write bench summary `{path}`: {e}"))?;
    let _ = writeln!(out, "  wrote {path}");
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
    fn new(kind: &str, seed: u64, jobs: Option<usize>) -> Result<Self, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("chaos: cannot locate the capsim binary: {e}"))?;
        let root = std::env::temp_dir()
            .join(format!("capsim-chaos-{}-{seed:x}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("chaos: cannot create {}: {e}", root.display()))?;
        Ok(ChaosHarness { exe, kind: kind.to_string(), seed, jobs, root })
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

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    /// Parses flags as `faults radar` takes them: `faults` takes every
    /// campaign flag, `--policy` included.
    fn flags(rest: &[&str]) -> Result<Args, String> {
        let tokens: Vec<&str> = std::iter::once("radar").chain(rest.iter().copied()).collect();
        parse(command("faults"), &tokens)
    }

    #[test]
    fn flags_parse_and_reject() {
        let f = flags(&["--jobs", "4", "--seed", "99"]).unwrap();
        assert_eq!(f.run.jobs, Some(4));
        assert_eq!(f.seed, Some(99));
        assert_eq!(flags(&[]).unwrap().run.jobs, None);
        let t = flags(&["--trace", "out.jsonl"]).unwrap();
        assert_eq!(t.run.trace.as_deref(), Some(Path::new("out.jsonl")));
        let r = flags(&["--resume", "--leg-timeout", "2.5"]).unwrap();
        assert!(r.resume);
        assert_eq!(r.run.leg_timeout, Some(std::time::Duration::from_millis(2500)));
        assert!(!flags(&[]).unwrap().resume);
        assert!(flags(&["--leg-timeout"]).unwrap_err().contains("usage:"));
        assert!(flags(&["--leg-timeout", "0"]).unwrap_err().contains("usage:"));
        assert!(flags(&["--leg-timeout", "soon"]).unwrap_err().contains("usage:"));
        assert!(flags(&["--trace"]).unwrap_err().contains("usage:"));
        assert!(flags(&["--jobs"]).unwrap_err().contains("usage:"));
        assert!(flags(&["--jobs", "0"]).unwrap_err().contains("usage:"));
        assert!(flags(&["--jobs", "many"]).unwrap_err().contains("usage:"));
        assert!(flags(&["--seed", "-1"]).unwrap_err().contains("usage:"));
        assert!(flags(&["--frobnicate"]).unwrap_err().contains("usage:"));
    }

    #[test]
    fn every_table_flag_parses_and_every_row_is_documented() {
        let entry = |name: &str| {
            let head = format!("\n  {name} ");
            let start = USAGE.find(&head).unwrap_or_else(|| panic!("no USAGE entry for {name}")) + 1;
            let rest = &USAGE[start + head.len() - 1..];
            // The entry runs until the next line that starts a new one.
            let end = rest
                .match_indices('\n')
                .map(|(i, _)| i)
                .find(|&i| !rest[i + 1..].starts_with("   "))
                .unwrap_or(rest.len());
            &USAGE[start..start + head.len() - 1 + end]
        };
        for cmd in COMMANDS {
            // A plan-only campaign is documented under `plan`.
            let (name, text) = match cmd.role {
                Role::PlanOnly => ("plan", entry("plan")),
                _ => (cmd.name, entry(cmd.name)),
            };
            if cmd.role != Role::PlanOnly {
                assert!(text.starts_with(&format!("  {}", cmd.synopsis())), "{name}: {text}");
            }
            for flag in cmd.flags {
                assert!(text.contains(flag), "USAGE entry of {name} omits {flag}:\n{text}");
                let set = Args::default().set(flag, &mut std::iter::once("1"));
                assert!(!set.is_err_and(|e| e.contains("unknown flag")), "{flag}");
            }
        }
    }

    #[test]
    fn a_flag_the_subcommand_does_not_take_names_both() {
        let err = run(&["managed", "radar", "--jobs", "3"]).unwrap_err();
        assert!(err.contains("`managed <app>` takes only") && err.contains("not `--jobs`"), "{err}");
        assert!(err.contains("usage:"), "{err}");
        let err = run(&["sweep", "cache", "--policy", "confidence"]).unwrap_err();
        assert!(err.contains("not `--policy`") && err.contains("usage:"), "{err}");
        let err = run(&["headline", "--resume"]).unwrap_err();
        assert!(err.contains("`headline` takes only") && err.contains("campaign commands"), "{err}");
        let err = run(&["plan", "figures", "--policy", "confidence"]).unwrap_err();
        assert!(err.contains("`figures` takes only"), "{err}");
        assert!(run(&["cache", "gcc", "extra"]).unwrap_err().contains("no other arguments"));
        assert!(run(&["figures"]).unwrap_err().starts_with("usage:"), "figures runs under plan only");
    }

    #[test]
    fn campaign_identity_keeps_journal_names_headers_and_resume_commands() {
        let build = |tokens: &[&str]| {
            let campaign = build_campaign(&parse_campaign("plan", tokens).unwrap(), ExperimentScale::Smoke).unwrap();
            let (file, header) = campaign.compiled.journal.unwrap();
            (file, header.experiment, header.seed, header.scale, header.policy, campaign.resume_cmd)
        };
        assert_eq!(
            build(&["sweep", "queue", "--seed", "3"]),
            (
                "sweep-queue-smoke-0000000000000003.jsonl".to_string(),
                "sweep-queue".to_string(),
                3,
                "smoke".to_string(),
                None,
                "capsim sweep queue --seed 3 --resume".to_string()
            )
        );
        assert_eq!(
            build(&["compare-policies", "GCC", "--seed", "0x10"]),
            (
                "compare-policies-gcc-smoke-0000000000000010.jsonl".to_string(),
                "compare-policies-gcc".to_string(),
                16,
                "smoke".to_string(),
                None,
                "capsim compare-policies gcc --seed 16 --resume".to_string()
            )
        );
        assert_eq!(
            build(&["faults", "radar", "--seed", "42", "--policy", "hysteresis"]),
            (
                "faults-radar-smoke-000000000000002a-hysteresis.jsonl".to_string(),
                "faults-radar".to_string(),
                42,
                "smoke".to_string(),
                Some("hysteresis".to_string()),
                "capsim faults radar --seed 42 --policy hysteresis --resume".to_string()
            )
        );
        let headline = build_campaign(&parse_campaign("plan", &["headline"]).unwrap(), ExperimentScale::Smoke).unwrap();
        assert!(headline.compiled.journal.is_none() && headline.resume_cmd.is_empty());
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
        let verify = |rest: &[&str]| parse(command("verify"), rest);
        let d = verify(&[]).unwrap();
        let cfg = verify_config(&d, PathBuf::from("."));
        assert_eq!(cfg.cases, 1000);
        assert_eq!(cfg.seed, 1);
        assert!(d.replay.is_none());
        assert!(!d.self_check);
        let f = verify_config(&verify(&["--cases", "50", "--seed", "9"]).unwrap(), PathBuf::from("."));
        assert_eq!((f.cases, f.seed), (50, 9));
        let r = verify(&["--replay", "repro.json"]).unwrap();
        assert_eq!(r.replay.as_deref(), Some("repro.json"));
        assert!(verify(&["--self-check"]).unwrap().self_check);
        assert!(verify(&["--cases"]).unwrap_err().contains("usage:"));
        assert!(verify(&["--cases", "0"]).unwrap_err().contains("usage:"));
        assert!(verify(&["--seed", "nope"]).unwrap_err().contains("usage:"));
        assert!(verify(&["--jobs", "2"]).unwrap_err().contains("usage:"));
        assert!(run(&["verify", "--replay", "x", "--self-check"])
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
        assert!(out.contains("44 properties passed"), "{out}");
        assert!(out.contains("seed 5"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_flags_parse_and_reject() {
        let serve = |rest: &[&str]| parse(command("serve"), rest);
        let d = serve(&[]).unwrap();
        let cfg = serve_config(&d);
        assert_eq!(cfg.addr, serve::DEFAULT_ADDR);
        assert_eq!(cfg.max_inflight, 4);
        assert!(d.run.jobs.is_none());
        assert!(cfg.addr_file.is_none());
        let f = serve(&[
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
        let cfg = serve_config(&f);
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(f.run.jobs, Some(2));
        assert_eq!(cfg.max_inflight, 1);
        assert_eq!(cfg.addr_file.as_deref(), Some(Path::new("addr.txt")));
        assert!(serve(&["--addr"]).unwrap_err().contains("usage:"));
        assert!(serve(&["--jobs", "0"]).unwrap_err().contains("usage:"));
        assert!(serve(&["--max-inflight", "none"]).unwrap_err().contains("usage:"));
        assert!(serve(&["--resume"]).unwrap_err().contains("`serve` takes only"));
    }

    #[test]
    fn submit_and_status_validate_arguments() {
        let a = parse(command("submit"), &["sweep", "all", "--addr", "127.0.0.1:7777"]).unwrap();
        assert_eq!(a.addr(), "127.0.0.1:7777");
        assert_eq!(a.operands, ["sweep", "all"]);
        // Every token but --addr is the campaign's, forwarded untouched.
        let a = parse(command("submit"), &["sweep", "all", "--resume"]).unwrap();
        assert_eq!(a.operands, ["sweep", "all", "--resume"]);
        assert_eq!(parse(command("status"), &[] as &[&str]).unwrap().addr(), serve::DEFAULT_ADDR);
        assert!(parse(command("status"), &["--addr"]).unwrap_err().contains("usage:"));
        assert!(run(&["submit"]).unwrap_err().contains("submit wants a campaign"));
        assert!(run(&["submit", "--addr", "127.0.0.1:9"])
            .unwrap_err()
            .contains("submit wants a campaign"));
        assert!(run(&["status", "extra"]).unwrap_err().contains("only --addr"));
        // A direct usage error ends in USAGE; the served one is the reason.
        let wanted = campaign_wanted("submit");
        assert!(wanted.ends_with(USAGE));
        let reason = without_usage(&wanted);
        assert!(reason.starts_with("submit wants a campaign: sweep") && !reason.contains('\n'), "{reason}");
        assert_eq!(without_usage("unknown application `x`"), "unknown application `x`");
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
