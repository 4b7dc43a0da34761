//! The Complexity-Adaptive Processor (CAP) framework.
//!
//! This crate ties the substrates together into the system the paper
//! proposes (its Figure 5): complexity-adaptive structures (the cache
//! hierarchy of `cap-cache`, the instruction queue of `cap-ooo`) driven by
//! a **dynamic clock** and a **Configuration Manager**.
//!
//! * [`clock`] — the dynamic clocking model: one period per configuration,
//!   predetermined by worst-case timing analysis, with a multi-cycle
//!   penalty to stop one clock and reliably start another (paper §4.1:
//!   "may require tens of cycles").
//! * [`structure`] — the [`structure::AdaptiveStructure`] abstraction: a
//!   discrete configuration space, each configuration with its own clock
//!   period.
//! * [`manager`] — the managed-run kernel that drives a configuration
//!   manager over an adaptive structure, plus the decision types and
//!   knobs the managers share.
//! * [`policy`] — the pluggable [`policy::ConfigPolicy`] catalog: the
//!   paper's process-level scheme (one configuration per application,
//!   chosen by exploration), the Section 6 extension — an
//!   interval-based manager with a next-configuration predictor and a
//!   confidence counter to avoid needless reconfiguration — plus
//!   interval-greedy and hysteresis, all decision rules over one shared
//!   estimate/quarantine/trace core.
//! * [`pattern`] — the Section 6 periodic-pattern predictor with
//!   confidence, evaluated on the Figure 13 winner sequences.
//! * [`power`] — the §4.1 power-management story: per-configuration
//!   power, energy per instruction, and the server-to-laptop frontier.
//! * [`faults`] — deterministic fault injection (failed switches,
//!   corrupted monitoring samples, dead cache increments) and the
//!   clean-vs-faulty degradation campaigns behind `capsim faults`.
//! * [`metrics`] — TPI aggregation across applications and the
//!   reduction arithmetic of Figures 8, 9 and 11.
//! * [`experiments`] — one driver per paper artifact: Figure 7–13 data
//!   series and the headline numbers, all serde-serializable.
//! * [`plan`] — the declarative plan/execute kernel: campaigns are DAGs
//!   of content-addressed legs plus pure reduces, resolved and run by
//!   one executor that inherits caching, journaling, fan-out, watchdog
//!   and chaos from the [`experiments::ExecPolicy`] uniformly.
//! * [`serve`] — the campaign service: a line-delimited-JSON TCP server
//!   that executes submitted campaigns on one shared worker pool,
//!   result cache and single-flight dedup table, with admission
//!   control and graceful drain (`capsim serve` / `submit` / `status`).
//! * [`report`] — plain-text rendering used by the `figNN` binaries.
//!
//! # Example
//!
//! ```
//! use cap_core::experiments::{QueueExperiment, ExperimentScale};
//! use cap_workloads::App;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let exp = QueueExperiment::new(ExperimentScale::Smoke);
//! let curve = exp.sweep(App::Appcg)?;
//! // appcg clearly favors the smallest 16-entry configuration.
//! assert_eq!(curve.best().entries, 16);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod error;
pub mod experiments;
pub mod extended;
pub mod faults;
pub mod manager;
pub mod metrics;
pub mod pattern;
pub mod plan;
pub mod policy;
pub mod power;
mod replay;
pub mod report;
pub mod serve;
pub mod structure;

pub use clock::DynamicClock;
pub use error::CapError;
pub use faults::{FaultCampaign, FaultInjector, FaultSpec};
pub use manager::{ConfidencePolicy, ManagerDecision, ResiliencePolicy};
pub use policy::{ConfigPolicy, PolicyConfig, PolicyKind};
pub use structure::AdaptiveStructure;
