//! # cap — Complexity-Adaptive Processors
//!
//! A reproduction of David H. Albonesi, *“Dynamic IPC/Clock Rate
//! Optimization”*, ISCA 1998 — the Complexity-Adaptive Processors (CAPs)
//! paper.
//!
//! This facade crate re-exports the whole workspace; see the individual
//! crates for details:
//!
//! * [`timing`] — circuit-level timing models (Bakoglu repeater-buffered
//!   wires, a CACTI-style cache model, Palacharla-style issue-queue
//!   wakeup/select delays).
//! * [`trace`] — deterministic synthetic memory-reference and instruction
//!   trace generation.
//! * [`workloads`] — synthetic stand-ins for the paper's 22 evaluation
//!   applications (SPEC95, CMU airshed/stereo/radar, NAS appcg).
//! * [`cache`] — the two-level exclusive complexity-adaptive D-cache
//!   hierarchy with a movable L1/L2 boundary.
//! * [`ooo`] — the cycle-level 8-way out-of-order core with a
//!   complexity-adaptive instruction queue.
//! * [`core`] — the CAP framework: dynamic clock, configuration managers,
//!   TPI metrics, and the paper's experiment drivers.
//! * [`par`] — the execution layer: a scoped thread pool with
//!   deterministic ordered collection and the persistent result cache
//!   behind `capsim sweep --jobs`.
//! * [`obs`] — the observability layer: structured decision/switch/sweep
//!   trace events, a zero-cost `Recorder` with JSONL and ring-buffer
//!   sinks, and the `capsim trace-summary` reducer.
//! * [`verify`] — the differential oracle and property-fuzzing
//!   subsystem: reference models for every configuration policy,
//!   metamorphic invariants, deterministic seeded fuzzing with greedy
//!   shrinking, and the `capsim verify` mutation self-check.
//!
//! # Quickstart
//!
//! ```
//! use cap::core::experiments::{CacheExperiment, ExperimentScale};
//! use cap::workloads::App;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let exp = CacheExperiment::new(ExperimentScale::Smoke)?;
//! let curve = exp.sweep(App::Compress)?;
//! // `curve` is a Figure-7-style TPI-vs-boundary series.
//! assert!(!curve.points.is_empty());
//! # Ok(())
//! # }
//! ```

pub use cap_cache as cache;
pub use cap_core as core;
pub use cap_obs as obs;
pub use cap_ooo as ooo;
pub use cap_par as par;
pub use cap_timing as timing;
pub use cap_trace as trace;
pub use cap_verify as verify;
pub use cap_workloads as workloads;
