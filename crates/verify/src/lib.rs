//! `cap-verify`: the differential oracle and property-fuzzing
//! subsystem that locks every configuration policy to a reference
//! model.
//!
//! The rest of the workspace asserts what the CAP reproduction
//! *produces* (golden figures, paper claims); this crate asserts what
//! it *is*: each [`cap_core::policy::ConfigPolicy`] is pinned,
//! bit-for-bit, to an independently written reference model over
//! randomized interval streams — clean and faulty — plus a set of
//! metamorphic invariants no implementation detail may break:
//!
//! * no online policy beats the offline per-interval oracle on its own
//!   landscape ([`invariants::oracle_bound`]);
//! * `interval-greedy` is exactly `confidence` with zeroed knobs
//!   ([`invariants::greedy_equals_degenerate_confidence`]);
//! * curve `best()` math survives permutation and exact scaling
//!   ([`invariants::curve_best_invariants`]);
//! * a leg journal replays every value bit-for-bit
//!   ([`invariants::journal_replay_roundtrip`]);
//! * the experiment layer's offline optima equal a from-scratch
//!   recomputation ([`invariants::offline_optima_match_series`]);
//! * the single-pass sweep engines (stack-distance cache multisweep,
//!   lock-step queue multisweep, schedule-at-dispatch core) are
//!   bit-identical to their per-configuration reference paths
//!   ([`multisweep`]);
//! * each synthetic generator's native packed instructions equal its
//!   unpacked ones, packed ([`packed`]);
//! * every derived JSON decoder inverts its derived encoder, and no
//!   corrupted text panics the decoder or the parser ([`json`]).
//!
//! Everything is deterministic: cases are a pure function of
//! `(seed, property, case)` ([`rng::Rng::for_case`]), failures shrink
//! greedily to a minimal scenario ([`shrink`]), repro files replay
//! byte-for-byte ([`engine::replay`]), and a mutation self-check
//! ([`selfcheck`]) plants a known off-by-one to prove the oracle can
//! actually detect bugs. The CLI front end is `capsim verify`.

pub mod diff;
pub mod engine;
pub mod invariants;
pub mod json;
pub mod multisweep;
pub mod packed;
pub mod reference;
pub mod rng;
pub mod scenario;
pub mod selfcheck;
pub mod shrink;

pub use diff::{run_differential, Divergence, Resilience};
pub use engine::{replay, run_verify, PropertyReport, ReplayOutcome, VerifyConfig, VerifyReport};
pub use reference::RefPolicy;
pub use rng::Rng;
pub use scenario::{Scenario, StreamKind, SwitchPlan};
pub use selfcheck::{run_self_check, SelfCheckReport};
pub use shrink::shrink;
