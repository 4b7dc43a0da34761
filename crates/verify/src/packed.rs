//! Differential property for the generators' packed path.
//!
//! The out-of-order core reads instructions through
//! [`InstStream::next_packed`]. The synthetic generators build that
//! packed form natively, on an inlined path of their own, rather than
//! packing [`InstStream::next_inst`]; `trace/packed-vs-inst` keeps the
//! two paths equal: `g.next_packed()` must be
//! `PackedInst::saturating(h.next_inst())` for a clone `h` of `g`, one
//! instruction after another. Cases cover random segment parameters,
//! flat and phased, and every application's calibrated profile, and
//! are sized so each stream crosses segment ends and, when phased,
//! phase switches.

use crate::rng::Rng;
use cap_trace::inst::{IlpParams, InstStream, PackedInst};
use cap_trace::phase::Phase;
use cap_workloads::{App, IlpProfile};

/// Instructions compared per stream.
pub const PACKED_INSTS: u64 = 10_000;

/// A probability that is often exactly 0 or 1, the values at which a
/// draw's outcome stops depending on the RNG.
fn probability(rng: &mut Rng) -> f64 {
    match rng.below(3) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.unit(),
    }
}

/// Random segment parameters. A segment is at most 500 instructions
/// before jitter and at most twice that after, so a stream of
/// [`PACKED_INSTS`] instructions crosses many segment ends.
fn random_params(rng: &mut Rng) -> IlpParams {
    IlpParams {
        chain_len: rng.range(1, 200),
        burst_len: rng.range(1, 300),
        chain_latency: rng.range(1, 8) as u32,
        burst_latency: rng.range(1, 8) as u32,
        cross_dep_prob: probability(rng),
        burst_chain_len: rng.range(1, 32),
        far_dep_prob: probability(rng),
        jitter: if rng.chance(0.25) { 0.0 } else { rng.unit() },
    }
}

/// A random profile: flat, or a schedule of 2–4 phases of at most 2000
/// instructions each, whose period is shorter than [`PACKED_INSTS`].
fn random_profile(rng: &mut Rng) -> IlpProfile {
    if rng.chance(0.25) {
        return IlpProfile::Flat(random_params(rng));
    }
    let phases = rng.range(2, 4);
    IlpProfile::Phased(
        (0..phases)
            .map(|_| Phase::new(random_params(rng), rng.range(1, 2_000)))
            .collect(),
    )
}

/// Compares the packed and unpacked paths of `profile`'s stream.
fn compare(what: &str, profile: &IlpProfile, seed: u64) -> Result<(), String> {
    let mut g = profile.build(seed);
    let mut h = g.clone();
    for i in 0..PACKED_INSTS {
        let packed = g.next_packed();
        let want = PackedInst::saturating(h.next_inst());
        if packed != want {
            return Err(format!(
                "{what} seed {seed:#x}: instruction {i} packs to {packed:?}, but next_inst packs to {want:?}"
            ));
        }
    }
    Ok(())
}

/// One fuzzed case: a random profile and the application
/// `App::ALL[case % 22]`, each under a random seed, so every
/// application's profile is checked once per 22 cases.
///
/// # Errors
///
/// Returns a message naming the stream, its seed and the first
/// instruction whose two forms differ.
pub fn packed_vs_inst(rng: &mut Rng, case: u64) -> Result<(), String> {
    let profile = random_profile(rng);
    compare(
        &format!("random profile {profile:?}"),
        &profile,
        rng.next_u64(),
    )?;
    let app = App::ALL[(case % App::ALL.len() as u64) as usize];
    compare(
        &format!("app {}", app.name()),
        &app.ilp_profile(),
        rng.next_u64(),
    )
}

