//! `cap-par` — the execution layer of the CAP reproduction.
//!
//! The paper's studies are embarrassingly parallel: every
//! (application × configuration) leg of the cache and queue sweeps is an
//! independent simulation. This crate supplies the pieces that let the
//! experiment drivers fan those legs out without giving up
//! reproducibility — and without trusting the machine to stay up:
//!
//! * [`pool`] — a small work-stealing thread pool built on scoped
//!   spawning. Results are collected **in submission order**, so a
//!   parallel run merges to exactly the bytes a serial run produces.
//! * [`cache`] — a versioned, content-addressed result cache persisted
//!   under `results/cache/`. Every entry embeds an FNV-1a checksum of
//!   its value; corrupt or truncated entries are quarantined and
//!   recomputed, never trusted.
//! * [`journal`] — the write-ahead leg journal behind
//!   `capsim sweep --resume`: each completed leg is committed atomically
//!   (temp file + rename), so a killed campaign resumes from its last
//!   leg boundary with byte-identical output.
//! * [`watchdog`] — a per-leg deadline (`CAP_LEG_TIMEOUT`): the leg
//!   computes on a thread of its own, and a leg still running at its
//!   deadline is abandoned as a `TimedOut` error instead of a hung pool.
//! * [`shutdown`] — the process-wide graceful-drain flag set by the
//!   `capsim` signal handler and polled at leg boundaries.
//! * [`chaos`] — deterministic harness-level fault injection (leg
//!   panics, stalls, simulated kills) behind `capsim chaos`.
//! * [`singleflight`] — keyed in-flight deduplication for the campaign
//!   service: concurrent campaigns sharing a leg compute it once; the
//!   companion [`pool::Gate`] bounds total concurrent computation
//!   across independent executors to one worker budget.
//!
//! The pool and cache report into the [`cap_obs`] observability layer
//! when a recorder is attached: the pool emits per-batch execution/steal
//! counters, and [`cache::ResultCache::probe`] classifies every lookup
//! (hit / miss / invalid / corrupt / collision) for the
//! `result-cache-probe` trace events. With the default no-op recorder
//! neither path allocates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod journal;
pub mod pool;
pub mod shutdown;
pub mod singleflight;
pub mod watchdog;

pub use cache::{
    fnv64, CacheKey, CacheOutcome, DoctorReport, ResultCache, CACHE_FORMAT_VERSION, QUARANTINE_DIR,
};
pub use chaos::ChaosInjector;
pub use journal::{Journal, JournalHeader, CHAOS_KILL_EXIT, JOURNAL_FORMAT_VERSION};
pub use pool::{effective_jobs, jobs_from_env, BatchResult, Gate, GatePermit, Pool};
pub use shutdown::{drain_requested, request_drain, reset_drain};
pub use singleflight::SingleFlight;
pub use watchdog::{TimedOut, WatchdogPolicy};
