//! Deterministic synthetic trace generation for the CAP evaluation.
//!
//! The original paper drives its cache simulator with ATOM-captured address
//! traces and its out-of-order simulator with SimpleScalar running SPEC95 /
//! CMU / NAS binaries. Neither the binaries nor the traces are available,
//! so this crate provides *synthetic, deterministic, parameterized*
//! generators whose outputs are calibrated (in `cap-workloads`) to match
//! the published per-application behaviour:
//!
//! * [`mem`] — memory-reference streams built from weighted **regions**
//!   (sequential loops, strided sweeps, uniform-random heaps, pointer
//!   chases). Region sizes and weights control the miss-ratio-vs-cache-size
//!   curve.
//! * [`inst`] — dependency-annotated instruction streams built from
//!   **segments** (a serial chain followed by an independent burst, with a
//!   tunable probability of cross-segment serialization). Segment length
//!   sets the window size at which ILP saturates; the serialization
//!   probability sets the IPC asymptote.
//! * [`phase`] — schedules that switch generator parameters over time, for
//!   the paper's Section 6 intra-application diversity experiments
//!   (Figures 12–13).
//! * [`stack`] — an LRU stack-distance profiler used to validate the
//!   memory generators against their calibration targets.
//! * [`tape`] — an instruction tape, recorded once and replayed by lazy
//!   cursors, so one synthesized stream can drive many simulations.
//! * [`rng`] — a small deterministic RNG wrapper so every trace is exactly
//!   reproducible from a `u64` seed.
//!
//! All generators implement the [`AddressStream`] or [`InstStream`] traits
//! and are infinite: callers decide how many events to consume.
//!
//! # Example
//!
//! ```
//! use cap_trace::mem::{Region, RegionMix};
//! use cap_trace::AddressStream;
//!
//! let mut gen = RegionMix::builder(42)
//!     .region(Region::sequential_loop(0x1000_0000, 64 * 1024, 32), 3.0)
//!     .region(Region::random(0x2000_0000, 1024 * 1024), 1.0)
//!     .build()?;
//! let first = gen.next_ref();
//! assert!(first.addr >= 0x1000_0000);
//! # Ok::<(), cap_trace::TraceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod error;
pub mod inst;
pub mod mem;
pub mod phase;
pub mod rng;
pub mod stack;
pub mod tape;

pub use error::TraceError;
pub use inst::{Inst, InstStream, PackedInst};
pub use mem::{AccessKind, AddressStream, MemRef};
pub use rng::TraceRng;
