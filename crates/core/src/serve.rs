//! The campaign service: `capsim serve`, `capsim submit`, `capsim status`.
//!
//! A long-lived server accepts campaign requests over TCP — one
//! line-delimited JSON request per connection — compiles each through
//! the same campaign builder the CLI uses, and executes the resulting
//! [`ExperimentSpec`] on shared infrastructure:
//!
//! - **One execution policy.** Every request runs under a clone of the
//!   server's base [`ExecPolicy`], and clones share its single-flight
//!   table ([`crate::experiments::LegFlight`], keyed by the leg's
//!   canonical [`cap_par::CacheKey`] string) and its worker gate
//!   ([`cap_par::Gate`]). When two concurrent requests contain the same
//!   content-addressed leg, one computes it and the other shares the
//!   value; combined with the shared result cache this makes "each
//!   distinct leg computed exactly once" hold across the whole server,
//!   not just within one campaign. The gate bounds total concurrent leg
//!   computation by the server's `--jobs` budget no matter how many
//!   campaigns are in flight. Followers waiting on a single-flight slot
//!   never hold a permit, so the gate cannot deadlock against the
//!   flight table.
//! - **One journal registry**: campaigns with the same journal identity
//!   run under one journaled policy, so they share one open [`Journal`]
//!   (appends are serialized by its mutex and idempotent per leg key),
//!   and the journal writer lock keeps a concurrent direct CLI run from
//!   corrupting it.
//!
//! **Admission control.** At most `max_inflight` campaigns execute at
//! once; beyond that a request is rejected with a structured `busy`
//! error instead of queueing unboundedly.
//!
//! **Failure isolation.** Each request runs under `catch_unwind`: a
//! panicking leg fails *that request* with an `internal` error response
//! — it never takes down the server.
//!
//! **Graceful drain.** SIGINT/SIGTERM flip the process-wide drain flag
//! (exactly as for direct campaigns): the accept loop stops admitting,
//! in-flight campaigns stop at the next leg boundary with their
//! completed legs journaled, and the server exits cleanly with a
//! salvage summary.
//!
//! The wire protocol is deliberately tiny (std `TcpStream` + the
//! vendored JSON, no new dependencies):
//!
//! ```text
//! → {"campaign": ["sweep", "all", "--seed", "7"]}
//! ← {"ok": true, "id": 3, "report": "...", "stats": {"computed": 24, ...}}
//! ← {"ok": false, "code": "busy", "error": "..."}
//! → {"status": true}
//! ← {"ok": true, "inflight": [...], "counters": {...}}
//! ```

use crate::error::CapError;
use crate::experiments::ExecPolicy;
use crate::plan::{Executor, ExperimentSpec, RunStats};
use cap_obs::{Event, ServeRequestEvent};
use cap_par::{Journal, JournalHeader};
use serde::Serialize;
use serde_json::{FromJson, Value};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Default listen/connect address for the campaign service.
pub const DEFAULT_ADDR: &str = "127.0.0.1:1998";

/// Hard bound on a single request line; anything larger is malformed.
const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// How long a connection may sit idle before the server gives up on it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How often the accept loop re-checks the stop predicate.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A campaign compiled to its executable form: the very value the
/// direct CLI path runs, so a submitted campaign and a direct one
/// render byte-identical reports.
pub struct CompiledCampaign {
    /// The declarative leg/reduce plan.
    pub spec: ExperimentSpec,
    /// Journal file name + header when the campaign is resumable;
    /// `None` for cache-only plans (figures, headline).
    pub journal: Option<(String, JournalHeader)>,
}

impl std::fmt::Debug for CompiledCampaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledCampaign")
            .field("spec", &self.spec.name())
            .field("journal", &self.journal.as_ref().map(|(file, _)| file))
            .finish()
    }
}

/// Compiles submitted campaign tokens (e.g. `["sweep", "all"]`) exactly
/// as the CLI would. Injected by the binary so its one flag table and
/// campaign builder keep owning argument parsing; the service stays free
/// of CLI knowledge.
pub type CampaignCompiler =
    Arc<dyn Fn(&[String]) -> Result<CompiledCampaign, String> + Send + Sync>;

/// Server configuration for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`HOST:PORT`; port 0 picks a free port).
    pub addr: String,
    /// Maximum campaigns executing at once; further submissions get a
    /// structured `busy` rejection. Clamped to at least 1.
    pub max_inflight: usize,
    /// Directory for campaign leg journals.
    pub journal_dir: PathBuf,
    /// When set, the actual bound address is written here once
    /// listening — the supported way to use port 0.
    pub addr_file: Option<PathBuf>,
}

/// Per-server monotonically increasing counters, exposed by `status`
/// and in the exit summary. `legs_computed` across all requests is the
/// proof of single-flight dedup: submitting the same campaign twice
/// concurrently leaves it equal to the leg count of one campaign.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    legs_computed: AtomicU64,
    legs_deduped: AtomicU64,
    legs_cache_hit: AtomicU64,
    legs_journal_hit: AtomicU64,
}

impl Counters {
    fn absorb(&self, stats: RunStats) {
        self.legs_computed.fetch_add(stats.computed, Ordering::Relaxed);
        self.legs_deduped.fetch_add(stats.deduped, Ordering::Relaxed);
        self.legs_cache_hit.fetch_add(stats.cache_hits, Ordering::Relaxed);
        self.legs_journal_hit.fetch_add(stats.journal_hits, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ServeSummary {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServeSummary {
            accepted: load(&self.accepted),
            done: load(&self.done),
            failed: load(&self.failed),
            rejected: load(&self.rejected),
            legs_computed: load(&self.legs_computed),
            legs_deduped: load(&self.legs_deduped),
            legs_cache_hit: load(&self.legs_cache_hit),
            legs_journal_hit: load(&self.legs_journal_hit),
        }
    }
}

/// Everything request handlers share.
struct Shared {
    exec_base: ExecPolicy,
    journal_dir: PathBuf,
    journals: Mutex<HashMap<String, ExecPolicy>>,
    inflight: Mutex<HashMap<u64, InflightCampaign>>,
    counters: Counters,
    max_inflight: usize,
    compiler: CampaignCompiler,
    next_id: AtomicU64,
}

impl Shared {
    fn emit(&self, id: u64, campaign: &str, action: &'static str) {
        let recorder = self.exec_base.recorder();
        if recorder.enabled() {
            recorder.record(&Event::ServeRequest(ServeRequestEvent {
                id,
                campaign: campaign.to_string(),
                action,
            }));
        }
    }

    /// The policy one campaign runs under: the base policy, journaled
    /// when the campaign is resumable. A journal is opened (with resume)
    /// on first use and kept for the server's lifetime — the server is
    /// the single writer for every journal it touches — and campaigns
    /// with the same journal identity clone one policy, so they share it.
    fn exec_for(&self, journal: Option<&(String, JournalHeader)>) -> Result<ExecPolicy, String> {
        let Some((file, header)) = journal else {
            return Ok(self.exec_base.clone());
        };
        let mut registry = lock(&self.journals);
        if let Some(exec) = registry.get(file) {
            return Ok(exec.clone());
        }
        std::fs::create_dir_all(&self.journal_dir).map_err(|e| {
            format!("cannot create journal directory `{}`: {e}", self.journal_dir.display())
        })?;
        let journal = Journal::begin(self.journal_dir.join(file), header.clone(), true)?;
        let exec = self.exec_base.clone().with_journal(journal);
        registry.insert(file.clone(), exec.clone());
        Ok(exec)
    }
}

// ---------------------------------------------------------------------------
// JSON plumbing: every request and response body is a derived struct
// ---------------------------------------------------------------------------

/// `{"campaign": [...]}`: run a campaign.
#[derive(Serialize, FromJson)]
struct CampaignRequest {
    campaign: Vec<String>,
}

/// `{"status": true}`: report the in-flight campaigns and counters.
#[derive(Serialize)]
struct StatusRequest {
    status: bool,
}

/// A structured rejection or failure.
#[derive(Serialize, FromJson)]
struct ErrorResponse {
    ok: bool,
    code: String,
    error: String,
}

fn error_response(code: &str, message: &str) -> Value {
    let body = ErrorResponse { ok: false, code: code.to_string(), error: message.to_string() };
    serde_json::to_value(&body).unwrap_or(Value::Null)
}

/// `{"ok":true,` followed by `body`'s fields: the success envelope the
/// client decodes `body`'s type from (the decoder ignores `ok`).
fn ok_response<T: Serialize>(body: &T) -> Value {
    let mut response = serde_json::to_value(body).unwrap_or(Value::Null);
    if let Value::Object(pairs) = &mut response {
        pairs.insert(0, ("ok".to_string(), Value::Bool(true)));
    }
    response
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// The server's request and leg counters: the `counters` block of a
/// `status` response, and at exit the drain salvage summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, FromJson)]
pub struct ServeSummary {
    /// Requests admitted for execution.
    pub accepted: u64,
    /// Requests that completed with a rendered report.
    pub done: u64,
    /// Requests that errored (including drained and panicking legs).
    pub failed: u64,
    /// Requests turned away (busy, malformed, unknown campaign).
    pub rejected: u64,
    /// Legs computed across all requests.
    pub legs_computed: u64,
    /// Legs shared from a concurrent request via single-flight.
    pub legs_deduped: u64,
    /// Legs served from the result cache.
    pub legs_cache_hit: u64,
    /// Legs replayed from a journal.
    pub legs_journal_hit: u64,
}

impl ServeSummary {
    /// The exit summary printed when the server drains.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serve: drained — {} accepted, {} done, {} failed, {} rejected",
            self.accepted, self.done, self.failed, self.rejected
        );
        let _ = writeln!(
            out,
            "legs: {} computed, {} deduped, {} cache hit(s), {} journal hit(s)",
            self.legs_computed, self.legs_deduped, self.legs_cache_hit, self.legs_journal_hit
        );
        out
    }
}

/// Runs the campaign service until the process-wide drain flag is set
/// (SIGINT/SIGTERM under the `capsim` binary).
///
/// # Errors
///
/// Returns an error when the listen address cannot be bound, the
/// address file cannot be written, or accepting fails with anything
/// other than "no connection waiting".
pub fn serve(
    config: &ServeConfig,
    exec_base: ExecPolicy,
    compiler: CampaignCompiler,
) -> Result<ServeSummary, String> {
    serve_until(config, exec_base, compiler, cap_par::drain_requested)
}

/// [`serve`] with an injectable stop predicate (polled between
/// accepts), so tests can run a real server without touching the
/// process-wide drain flag.
///
/// # Errors
///
/// Same conditions as [`serve`].
pub fn serve_until(
    config: &ServeConfig,
    exec_base: ExecPolicy,
    compiler: CampaignCompiler,
    stop: impl Fn() -> bool,
) -> Result<ServeSummary, String> {
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| format!("cannot listen on `{}`: {e}", config.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve the bound address: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot poll the listener: {e}"))?;
    if let Some(path) = &config.addr_file {
        std::fs::write(path, format!("{local}\n"))
            .map_err(|e| format!("cannot write address file `{}`: {e}", path.display()))?;
    }
    eprintln!(
        "capsim serve: listening on {local} ({} jobs, max {} campaign(s) in flight)",
        exec_base.jobs(),
        config.max_inflight.max(1)
    );

    let shared = Arc::new(Shared {
        exec_base,
        journal_dir: config.journal_dir.clone(),
        journals: Mutex::new(HashMap::new()),
        inflight: Mutex::new(HashMap::new()),
        counters: Counters::default(),
        max_inflight: config.max_inflight.max(1),
        compiler,
        next_id: AtomicU64::new(1),
    });

    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop() {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = shared.clone();
                handles.push(std::thread::spawn(move || handle_connection(stream, &shared)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) => return Err(format!("accept failed: {e}")),
        }
        // Finished threads have nothing left to join; keep the list
        // bounded by the number of genuinely live connections.
        handles.retain(|h| !h.is_finished());
    }

    // Drain: stop admitting, let in-flight requests finish at their
    // next leg boundary (the pool honors the drain flag), then report.
    drop(listener);
    let open = handles.len();
    if open > 0 {
        eprintln!("capsim serve: draining {open} open connection(s)...");
    }
    for handle in handles {
        let _ = handle.join();
    }
    Ok(shared.counters.snapshot())
}

/// One connection, one request, one response line.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match read_request_line(&stream) {
        Ok(line) => respond(shared, &line),
        Err(why) => {
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            error_response("invalid", &why)
        }
    };
    let mut stream = stream;
    let body = serde_json::to_string(&response).unwrap_or_else(|_| {
        r#"{"ok":false,"code":"internal","error":"response serialization failed"}"#.to_string()
    });
    let _ = writeln!(stream, "{body}");
    let _ = stream.flush();
}

fn read_request_line(stream: &TcpStream) -> Result<String, String> {
    let mut reader = BufReader::new(stream).take(MAX_REQUEST_BYTES);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("cannot read the request line: {e}"))?;
    if line.is_empty() {
        return Err("empty request (send one JSON object per line)".to_string());
    }
    if !line.ends_with('\n') && line.len() as u64 >= MAX_REQUEST_BYTES {
        return Err(format!("request exceeds {MAX_REQUEST_BYTES} bytes"));
    }
    Ok(line)
}

/// Dispatches one parsed request line to the campaign or status path.
fn respond(shared: &Shared, line: &str) -> Value {
    let request = match serde_json::from_str(line.trim_end()) {
        Ok(v) => v,
        Err(e) => {
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return error_response("invalid", &format!("request is not valid JSON: {e}"));
        }
    };
    if request.get("status").is_some() {
        return status_response(shared);
    }
    if let Some(request) = CampaignRequest::from_json(&request) {
        return run_request(shared, &request.campaign);
    }
    shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
    if request.get("campaign").is_some() {
        error_response("invalid", "`campaign` must be an array of strings")
    } else {
        error_response("invalid", "request must be {\"campaign\": [...]} or {\"status\": true}")
    }
}

/// Flags the server owns; a submitted campaign carrying one is
/// rejected so a request cannot change the server's worker budget,
/// journaling mode or tracing.
const SERVER_OWNED_FLAGS: [&str; 4] = ["--jobs", "--resume", "--trace", "--leg-timeout"];

/// Admits, compiles and executes one campaign request.
fn run_request(shared: &Shared, args: &[String]) -> Value {
    let display = args.join(" ");
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);

    if let Some(flag) = args.iter().find(|a| SERVER_OWNED_FLAGS.contains(&a.as_str())) {
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        shared.emit(id, &display, "rejected");
        return error_response(
            "invalid",
            &format!("`{flag}` is server-owned: the service sets its own worker budget, journaling and tracing"),
        );
    }
    let compiled = match (shared.compiler)(args) {
        Ok(c) => c,
        Err(why) => {
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            shared.emit(id, &display, "rejected");
            return error_response("invalid", &why);
        }
    };

    // Admission: check-and-insert under one lock so capacity can never
    // be oversubscribed by a race between two submissions.
    {
        let mut inflight = lock(&shared.inflight);
        if inflight.len() >= shared.max_inflight {
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            shared.emit(id, &display, "rejected");
            return error_response(
                "busy",
                &format!(
                    "server is at capacity ({} campaign(s) in flight, max {}); retry when one finishes",
                    inflight.len(),
                    shared.max_inflight
                ),
            );
        }
        inflight.insert(
            id,
            InflightCampaign {
                id,
                campaign: compiled.spec.name().to_string(),
                legs: compiled.spec.legs().len(),
            },
        );
    }
    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
    shared.emit(id, &display, "accepted");

    let outcome = execute(shared, &compiled);
    lock(&shared.inflight).remove(&id);
    match outcome {
        Ok((report, stats)) => {
            shared.counters.done.fetch_add(1, Ordering::Relaxed);
            shared.counters.absorb(stats);
            shared.emit(id, &display, "done");
            ok_response(&SubmitOutcome { id, report, stats })
        }
        Err((code, why)) => {
            shared.counters.failed.fetch_add(1, Ordering::Relaxed);
            shared.emit(id, &display, "failed");
            error_response(code, &why)
        }
    }
}

/// Runs one compiled campaign on the shared infrastructure. A
/// panicking leg fails the request, never the server.
fn execute(
    shared: &Shared,
    compiled: &CompiledCampaign,
) -> Result<(String, RunStats), (&'static str, String)> {
    let exec = shared.exec_for(compiled.journal.as_ref()).map_err(|why| ("failed", why))?;
    let run = catch_unwind(AssertUnwindSafe(|| Executor::run(&compiled.spec, &exec)))
        .map_err(|panic| {
            let what = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            let e = CapError::Internal { what: format!("campaign panicked: {what}") };
            ("internal", e.to_string())
        })?;
    match run {
        Ok(run) => Ok((run.rendered().to_string(), run.stats())),
        Err(CapError::Interrupted) => {
            Err(("interrupted", CapError::Interrupted.to_string()))
        }
        Err(e) => Err(("failed", e.to_string())),
    }
}

fn status_response(shared: &Shared) -> Value {
    let mut inflight: Vec<InflightCampaign> = lock(&shared.inflight).values().cloned().collect();
    inflight.sort_by_key(|entry| entry.id);
    ok_response(&StatusReport { inflight, counters: shared.counters.snapshot() })
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A successful `submit` response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, FromJson)]
pub struct SubmitOutcome {
    /// The server-assigned request id.
    pub id: u64,
    /// The rendered campaign report — byte-identical to running the
    /// same campaign directly on the CLI.
    pub report: String,
    /// Where this request's leg values came from.
    pub stats: RunStats,
}

fn round_trip<T: Serialize>(addr: &str, request: &T) -> Result<Value, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| {
        format!("cannot connect to capsim serve at `{addr}`: {e} (is the server running?)")
    })?;
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let body = serde_json::to_string(request)
        .map_err(|e| format!("cannot encode the request: {e}"))?;
    writeln!(stream, "{body}").map_err(|e| format!("cannot send the request: {e}"))?;
    stream.flush().map_err(|e| format!("cannot send the request: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| format!("cannot read the response: {e}"))?;
    if reply.is_empty() {
        return Err("the server closed the connection without responding".to_string());
    }
    serde_json::from_str(reply.trim_end())
        .map_err(|e| format!("malformed response from the server: {e}"))
}

/// Decodes a success response's body as `T`, or the server's structured
/// error as `code: detail`.
fn decode_response<T: FromJson>(response: &Value, what: &str) -> Result<T, String> {
    if response.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(match ErrorResponse::from_json(response) {
            Some(e) => format!("{}: {}", e.code, e.error),
            None => "error: the server reported no detail".to_string(),
        });
    }
    T::from_json(response).ok_or_else(|| format!("malformed {what} response from the server"))
}

/// Submits one campaign (CLI tokens, e.g. `["sweep", "all"]`) to a
/// running server and returns its rendered report.
///
/// # Errors
///
/// Connection and protocol failures, plus every structured server
/// rejection (`busy`, `invalid`, `failed`, `interrupted`, `internal`)
/// rendered as `code: detail`.
pub fn submit(addr: &str, args: &[String]) -> Result<SubmitOutcome, String> {
    let response = round_trip(addr, &CampaignRequest { campaign: args.to_vec() })?;
    decode_response(&response, "submit")
}

/// One in-flight campaign as reported by `status`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, FromJson)]
pub struct InflightCampaign {
    /// The server-assigned request id.
    pub id: u64,
    /// The campaign's display name (its spec name).
    pub campaign: String,
    /// How many legs the campaign plans.
    pub legs: usize,
}

/// The server's `status` snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, FromJson)]
pub struct StatusReport {
    /// Campaigns currently executing, in admission order.
    pub inflight: Vec<InflightCampaign>,
    /// The server's request and leg counters so far.
    pub counters: ServeSummary,
}

impl StatusReport {
    /// The plain-text rendering behind `capsim status`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ =
            writeln!(out, "serve status: {} campaign(s) in flight", self.inflight.len());
        for entry in &self.inflight {
            let _ = writeln!(out, "  [{}] {}: {} leg(s)", entry.id, entry.campaign, entry.legs);
        }
        let c = &self.counters;
        let _ = writeln!(
            out,
            "requests: {} accepted, {} done, {} failed, {} rejected",
            c.accepted, c.done, c.failed, c.rejected
        );
        let _ = writeln!(
            out,
            "legs: {} computed, {} deduped, {} cache hit(s), {} journal hit(s)",
            c.legs_computed, c.legs_deduped, c.legs_cache_hit, c.legs_journal_hit
        );
        out
    }
}

/// Fetches the status snapshot from a running server.
///
/// # Errors
///
/// Connection and protocol failures.
pub fn status(addr: &str) -> Result<StatusReport, String> {
    let response = round_trip(addr, &StatusRequest { status: true })?;
    decode_response(&response, "status")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Leg;
    use std::sync::atomic::AtomicBool;

    fn demo_compiler() -> CampaignCompiler {
        Arc::new(|args: &[String]| {
            match args {
                [cmd] if cmd == "demo" => {}
                [cmd] if cmd == "boom" => {
                    let mut spec = ExperimentSpec::new("boom");
                    let id = spec.leg(Leg::journaled::<u64>("boom|leg".to_string(), "boom", |_| {
                        panic!("injected leg panic")
                    }));
                    spec.reduce("boom-report", vec![id], |_| Ok(String::new()));
                    return Ok(CompiledCampaign { spec, journal: None });
                }
                _ => return Err(format!("unknown campaign `{}`", args.join(" "))),
            }
            let mut spec = ExperimentSpec::new("demo");
            let id = spec.leg(Leg::journaled("demo|leg".to_string(), "demo", |_| Ok(42u64)));
            spec.reduce("demo-report", vec![id], |deps| {
                Ok(format!("demo value: {}\n", deps[0].as_u64().unwrap_or(0)))
            });
            Ok(CompiledCampaign { spec, journal: None })
        })
    }

    struct TestServer {
        addr: String,
        stop: Arc<AtomicBool>,
        handle: Option<std::thread::JoinHandle<Result<ServeSummary, String>>>,
    }

    impl TestServer {
        fn start() -> Self {
            let dir = std::env::temp_dir().join(format!(
                "cap-serve-ut-{}-{}",
                std::process::id(),
                NEXT_DIR.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let addr_file = dir.join("addr");
            let config = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                max_inflight: 2,
                journal_dir: dir.join("journal"),
                addr_file: Some(addr_file.clone()),
            };
            let stop = Arc::new(AtomicBool::new(false));
            let stop_flag = stop.clone();
            let handle = std::thread::spawn(move || {
                serve_until(&config, ExecPolicy::serial(), demo_compiler(), || {
                    stop_flag.load(Ordering::Relaxed)
                })
            });
            let addr = loop {
                if let Ok(body) = std::fs::read_to_string(&addr_file) {
                    let trimmed = body.trim();
                    if !trimmed.is_empty() {
                        break trimmed.to_string();
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            TestServer { addr, stop, handle: Some(handle) }
        }

        fn shutdown(mut self) -> ServeSummary {
            self.stop.store(true, Ordering::Relaxed);
            self.handle.take().unwrap().join().unwrap().unwrap()
        }
    }

    impl Drop for TestServer {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::Relaxed);
            if let Some(handle) = self.handle.take() {
                let _ = handle.join();
            }
        }
    }

    static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

    #[test]
    fn loopback_submit_status_and_errors() {
        let server = TestServer::start();

        // A good campaign round-trips its report and its stats.
        let outcome = submit(&server.addr, &["demo".to_string()]).unwrap();
        assert_eq!(outcome.report, "demo value: 42\n");
        assert_eq!(outcome.stats.computed, 1);
        assert_eq!(outcome.stats.deduped, 0);

        // Unknown campaigns and server-owned flags are structured
        // rejections, not hangs or disconnects.
        let err = submit(&server.addr, &["frobnicate".to_string()]).unwrap_err();
        assert!(err.contains("invalid") && err.contains("unknown campaign"), "{err}");
        for flag in SERVER_OWNED_FLAGS {
            let err = submit(
                &server.addr,
                &["demo".to_string(), flag.to_string(), "2".to_string()],
            )
            .unwrap_err();
            assert!(err.contains("server-owned"), "{flag}: {err}");
        }

        // A panicking leg fails its own request with a structured
        // internal error; the server keeps serving afterwards.
        let err = submit(&server.addr, &["boom".to_string()]).unwrap_err();
        assert!(err.contains("internal") && err.contains("injected leg panic"), "{err}");
        let after = submit(&server.addr, &["demo".to_string()]).unwrap();
        assert_eq!(after.report, "demo value: 42\n");

        // Raw garbage on the wire gets an invalid response — nesting
        // deep enough to overflow a recursive parser included.
        for garbage in ["this is not json".to_string(), "[".repeat(500_000)] {
            let mut raw = TcpStream::connect(&server.addr).unwrap();
            writeln!(raw, "{garbage}").unwrap();
            let mut reply = String::new();
            BufReader::new(raw).read_line(&mut reply).unwrap();
            assert!(reply.contains("\"invalid\""), "{reply}");
        }

        // Status reflects the tally; nothing is left in flight.
        let report = status(&server.addr).unwrap();
        assert!(report.inflight.is_empty());
        assert_eq!(report.counters.accepted, 3, "{report:?}");
        assert_eq!(report.counters.done, 2, "{report:?}");
        assert_eq!(report.counters.failed, 1, "{report:?}");
        assert!(report.counters.rejected > 1 + SERVER_OWNED_FLAGS.len() as u64, "{report:?}");
        assert_eq!(report.counters.legs_computed, 2, "{report:?}");
        let rendered = report.render();
        assert!(rendered.contains("serve status: 0 campaign(s) in flight"), "{rendered}");
        assert!(rendered.contains("requests: 3 accepted, 2 done, 1 failed"), "{rendered}");

        let summary = server.shutdown();
        assert_eq!(summary.accepted, 3);
        assert_eq!(summary.done, 2);
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.legs_computed, 2);
        assert!(summary.render().contains("serve: drained"), "{}", summary.render());
    }

    #[test]
    fn concurrent_identical_submissions_share_legs() {
        // Two concurrent submissions of a slow campaign: single-flight
        // guarantees the leg is computed once and shared.
        let dir = std::env::temp_dir().join(format!(
            "cap-serve-flight-ut-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("addr");
        let compiler: CampaignCompiler = Arc::new(|args: &[String]| {
            if args != ["slow".to_string()] {
                return Err("unknown campaign".to_string());
            }
            let mut spec = ExperimentSpec::new("slow");
            let key = cap_par::CacheKey {
                kind: "slow".to_string(),
                app: "unit".to_string(),
                scale: "smoke".to_string(),
                seed: 7,
                config_range: "unit".to_string(),
                version: 1,
                policy: None,
            };
            let id = spec.leg(Leg::cached(key, |_| {
                std::thread::sleep(Duration::from_millis(150));
                Ok(7u64)
            }));
            spec.reduce("slow-report", vec![id], |deps| {
                Ok(format!("slow value: {}\n", deps[0].as_u64().unwrap_or(0)))
            });
            Ok(CompiledCampaign { spec, journal: None })
        });
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 4,
            journal_dir: dir.join("journal"),
            addr_file: Some(addr_file.clone()),
        };
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let ring = Arc::new(cap_obs::RingRecorder::new());
        let exec = ExecPolicy::serial()
            .cached(cap_par::ResultCache::at(dir.join("cache")))
            .with_recorder(ring.clone());
        let server = std::thread::spawn(move || {
            serve_until(&config, exec, compiler, || stop_flag.load(Ordering::Relaxed))
        });
        let addr = loop {
            if let Ok(body) = std::fs::read_to_string(&addr_file) {
                let trimmed = body.trim();
                if !trimmed.is_empty() {
                    break trimmed.to_string();
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        };

        let submits: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || submit(&addr, &["slow".to_string()]))
            })
            .collect();
        let outcomes: Vec<SubmitOutcome> =
            submits.into_iter().map(|h| h.join().unwrap().unwrap()).collect();
        assert_eq!(outcomes[0].report, outcomes[1].report);
        stop.store(true, Ordering::Relaxed);
        let summary = server.join().unwrap().unwrap();
        assert_eq!(summary.done, 2);
        assert_eq!(
            summary.legs_computed, 1,
            "the shared leg must be computed exactly once: {summary:?}"
        );
        assert_eq!(summary.legs_deduped, 1, "{summary:?}");
        let count = |kind: &str| ring.events().iter().filter(|e| e.kind() == kind).count();
        assert_eq!(count("result-cache-probe"), 1, "the cold leg is probed once, by its leader");
        assert_eq!(count("result-cache-store"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_and_response_helpers_are_stable() {
        let e = error_response("busy", "server is at capacity");
        let encoded = serde_json::to_string(&e).unwrap();
        assert_eq!(
            encoded,
            r#"{"ok":false,"code":"busy","error":"server is at capacity"}"#
        );
        let report = StatusReport {
            inflight: vec![InflightCampaign {
                id: 3,
                campaign: "sweep-all".to_string(),
                legs: 24,
            }],
            counters: ServeSummary {
                accepted: 5,
                done: 3,
                failed: 1,
                rejected: 1,
                legs_computed: 24,
                legs_deduped: 24,
                legs_cache_hit: 2,
                legs_journal_hit: 0,
            },
        };
        let rendered = report.render();
        assert_eq!(
            rendered,
            "serve status: 1 campaign(s) in flight\n  [3] sweep-all: 24 leg(s)\nrequests: 5 accepted, 3 done, 1 failed, 1 rejected\nlegs: 24 computed, 24 deduped, 2 cache hit(s), 0 journal hit(s)\n"
        );
    }
}
