//! The complexity-adaptive two-level data-cache hierarchy (paper §5.2).
//!
//! The evaluated structure is a single 128 KB array of sixteen 8 KB
//! two-way set-associative increments strung along a repeater-buffered
//! global bus, with a **movable L1/L2 boundary**: the first `k` increments
//! form the L1 D-cache (8·k KB, 2·k-way), the remaining `16-k` increments
//! form the L2 (exclusive). Because increments keep their contents when
//! the boundary moves, reconfiguration requires no invalidation or data
//! transfer — the paper's central cache property, enforced here as a
//! tested invariant.
//!
//! The mapping rule follows the paper exactly: index and tag bits are
//! constant (the boundary moves *ways*, not sets), exclusion guarantees a
//! block lives in at most one level, and an L2 hit swaps the block with an
//! L1 victim.
//!
//! Modules:
//!
//! * [`config`] — the [`config::Boundary`] newtype and the paper's
//!   configuration space;
//! * [`hierarchy`] — the cycle-level structure itself;
//! * [`stats`] — access outcome counters;
//! * [`perf`] — the blocking-cache TPI model (paper §5.1 methodology);
//! * [`sim`] — drivers that run an address stream through one or many
//!   boundary configurations ([`sim::sweep`], one simulation per
//!   boundary, is the tests' reference);
//! * [`multisweep`] — the single-pass stack-distance engine that answers
//!   every boundary from one traversal, bit-identical to [`sim::sweep`];
//!   every production sweep runs it.
//!
//! # Example
//!
//! ```
//! use cap_cache::config::Boundary;
//! use cap_cache::hierarchy::AdaptiveCacheHierarchy;
//! use cap_cache::stats::AccessOutcome;
//! use cap_trace::mem::{AccessKind, MemRef};
//!
//! let mut cache = AdaptiveCacheHierarchy::isca98(Boundary::new(2)?);
//! let r = MemRef { addr: 0x1234, kind: AccessKind::Read };
//! assert_eq!(cache.access(r), AccessOutcome::Miss);
//! assert_eq!(cache.access(r), AccessOutcome::L1Hit);
//! # Ok::<(), cap_cache::CacheError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod hierarchy;
pub mod inclusive;
pub mod multisweep;
pub mod perf;
pub mod sim;
pub mod stats;
pub mod tlb;

pub use config::Boundary;
pub use error::CacheError;
pub use hierarchy::AdaptiveCacheHierarchy;
pub use stats::{AccessOutcome, CacheStats};
