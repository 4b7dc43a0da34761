//! Cycle-level 8-way out-of-order core with a complexity-adaptive
//! instruction queue (paper §5.3).
//!
//! The paper models instruction issue with SimpleScalar under strong
//! idealizations — perfect branch prediction, perfect caches, plentiful
//! functional units — so that IPC depends only on the dependence structure
//! of the instruction stream versus the window size. This crate implements
//! that core from scratch:
//!
//! * a unified RUU-style window (dispatch → wakeup → select → execute →
//!   in-order commit), 8-wide at every stage, with **oldest-first
//!   selection** mirroring the priority-encoder tree of the timing model;
//! * a **resizable window**: growth is immediate; shrinking first drains
//!   the entries in the portion to be disabled (paper §5.1: "before we
//!   reconfigure to a smaller queue size, entries in the portion of the
//!   queue to be disabled must first issue");
//! * interval TPI recording for the Section 6 snapshots (Figures 12–13);
//! * a **single-pass window sweep** ([`multisweep`]) that records the
//!   instruction stream once and replays the record slice through every
//!   window size, and the
//!   preserved full-scan engine ([`reference`]) that pins the fast core's
//!   schedule differentially.
//!
//! The cycle time of each window size comes from
//! [`cap_timing::QueueTimingModel`]; combining it with measured IPC gives
//! the paper's TPI metric (see [`perf`]).
//!
//! # Example
//!
//! ```
//! use cap_ooo::config::CoreConfig;
//! use cap_ooo::core::OooCore;
//! use cap_trace::inst::{IlpParams, SegmentIlp};
//!
//! let mut core = OooCore::new(CoreConfig::isca98(64)?);
//! let mut stream = SegmentIlp::new(IlpParams::balanced(), 1)?;
//! let stats = core.run(&mut stream, 10_000);
//! assert!(stats.ipc() > 1.0 && stats.ipc() <= 8.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bpred;
pub mod config;
pub mod core;
pub mod error;
pub mod interval;
pub mod multisweep;
pub mod perf;
pub mod reference;

pub use config::{CoreConfig, WindowSize};
pub use core::{OooCore, RunStats};
pub use error::OooError;
