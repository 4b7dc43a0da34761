//! Calibrated ILP profiles (instruction-queue-study inputs).
//!
//! Each application is a segment-model parameter set
//! ([`cap_trace::inst::IlpParams`]), phased for the two applications whose
//! intra-application diversity the paper studies in Section 6.
//!
//! # The iteration (backbone) shape
//!
//! All profiles use `cross_dep_prob = 1.0`: every segment's chain head
//! depends on the previous chain's tail, forming a serial **backbone** of
//! loop-carried recurrences — each segment is one loop iteration whose
//! burst is its body of independent work. This gives the IPC-versus-window
//! curve a clean knee:
//!
//! * the backbone caps throughput at `(chain+burst) / (chain·latency)`
//!   instructions per cycle no matter how large the window;
//! * reaching that cap requires the window to hold a whole segment, so
//!   IPC rises roughly linearly until `window ≈ chain + burst` and is
//!   flat beyond.
//!
//! The **segment size** therefore places each application's best window.
//! Calibration targets from Figure 10 and the §5.3 text:
//!
//! | app | target best window | mechanism |
//! |---|---|---|
//! | most apps | 64 ("most applications perform best with a the 64-entry instruction queue") | segment ≈ 64 |
//! | compress | 128 | segment ≈ 128: IPC still rising at the largest window |
//! | radar, fpppp, appcg | 16 ("clearly favor the smallest 16-entry configuration") | short segments, heavy chains: IPC flat from 16 |
//! | ijpeg | 48 (it gains ~8 % over the 64-entry conventional) | segment ≈ 48 |
//! | turb3d | long 64-best / 128-best stretches (Figure 12); process-level best 64 | two phases of 600 k instructions |
//! | vortex | ~15-interval 16/64 alternation plus an irregular stretch (Figure 13) | 30 k-instruction phases + micro-phases |

use crate::app::App;
use cap_trace::inst::{IlpParams, Inst, InstStream, PackedInst, SegmentIlp};
use cap_trace::phase::{Phase, PhasedIlp};

/// A calibrated ILP behaviour: either a single parameter set or a phase
/// schedule.
#[derive(Debug, Clone)]
pub enum IlpProfile {
    /// Stationary dependence structure.
    Flat(IlpParams),
    /// Time-varying dependence structure (turb3d, vortex).
    Phased(Vec<Phase<IlpParams>>),
}

impl IlpProfile {
    /// Builds the deterministic instruction stream for this profile.
    pub fn build(&self, seed: u64) -> AppInstStream {
        match self {
            IlpProfile::Flat(p) => {
                AppInstStream::Flat(SegmentIlp::new(*p, seed).expect("profiles are statically valid"))
            }
            IlpProfile::Phased(schedule) => AppInstStream::Phased(
                PhasedIlp::new(schedule.clone(), seed).expect("profiles are statically valid"),
            ),
        }
    }

    /// The phase schedule, if the profile is phased.
    pub fn phases(&self) -> Option<&[Phase<IlpParams>]> {
        match self {
            IlpProfile::Flat(_) => None,
            IlpProfile::Phased(s) => Some(s),
        }
    }
}

/// A built application instruction stream.
#[derive(Debug, Clone)]
pub enum AppInstStream {
    /// From a stationary profile.
    Flat(SegmentIlp),
    /// From a phase schedule.
    Phased(PhasedIlp),
}

impl InstStream for AppInstStream {
    #[inline]
    fn next_inst(&mut self) -> Inst {
        match self {
            AppInstStream::Flat(g) => g.next_inst(),
            AppInstStream::Phased(g) => g.next_inst(),
        }
    }

    // Always: the dispatch loops of the core and of the lane sweep read
    // through this, and with a plain hint the compiler keeps it out of
    // line there, which made managed runs about 12 % slower.
    #[inline(always)]
    fn next_packed(&mut self) -> PackedInst {
        match self {
            AppInstStream::Flat(g) => g.next_packed(),
            AppInstStream::Phased(g) => g.next_packed(),
        }
    }
}

/// Backbone (iteration) parameters: a loop-carried chain of `chain_len`
/// instructions at `chain_latency`, then a body of `burst_len`
/// instructions in serial sub-chains of `sub` (the window-scale knob: the
/// IPC knee lands near `8 · sub` entries).
fn iteration(chain_len: u64, burst_len: u64, chain_latency: u32, sub: u64, jitter: f64) -> IlpParams {
    IlpParams {
        chain_len,
        burst_len,
        chain_latency,
        burst_latency: 1,
        cross_dep_prob: 1.0,
        burst_chain_len: sub,
        far_dep_prob: 0.05,
        jitter,
    }
}

/// The modal shape: sub-chains of 8 put the IPC knee at the 64-entry
/// window.
fn best_at_64() -> IlpParams {
    iteration(4, 56, 2, 8, 0.25)
}

/// compress / turb3d's wide phase: sub-chains of 16 keep IPC rising all
/// the way to the 128-entry window.
fn best_at_128() -> IlpParams {
    iteration(6, 122, 2, 16, 0.20)
}

/// Low-ILP shape: short iterations dominated by the recurrence; IPC is
/// flat from the smallest window, so the 16-entry clock wins.
fn best_at_16() -> IlpParams {
    iteration(6, 6, 2, 1, 0.20)
}

/// The calibrated profile for an application.
pub fn profile(app: App) -> IlpProfile {
    match app {
        // --- best at 64: the modal shape -----------------------------------
        App::Go => IlpProfile::Flat(iteration(5, 58, 2, 8, 0.25)),
        App::M88ksim => IlpProfile::Flat(best_at_64()),
        App::Gcc => IlpProfile::Flat(iteration(5, 54, 2, 8, 0.25)),
        App::Li => IlpProfile::Flat(iteration(6, 56, 2, 8, 0.25)),
        App::Perl => IlpProfile::Flat(iteration(5, 57, 2, 8, 0.25)),
        App::Airshed => IlpProfile::Flat(iteration(5, 55, 3, 8, 0.25)),
        App::Stereo => IlpProfile::Flat(iteration(4, 58, 2, 8, 0.25)),
        App::Tomcatv => IlpProfile::Flat(iteration(4, 60, 2, 8, 0.25)),
        App::Swim => IlpProfile::Flat(iteration(4, 58, 2, 7, 0.25)),
        App::Su2cor => IlpProfile::Flat(iteration(5, 57, 2, 8, 0.25)),
        App::Hydro2d => IlpProfile::Flat(iteration(4, 60, 2, 7, 0.25)),
        App::Mgrid => IlpProfile::Flat(iteration(4, 62, 2, 8, 0.25)),
        App::Applu => IlpProfile::Flat(iteration(4, 52, 3, 8, 0.25)),
        App::Apsi => IlpProfile::Flat(iteration(6, 56, 2, 8, 0.25)),
        App::Wave5 => IlpProfile::Flat(iteration(5, 56, 2, 8, 0.25)),

        // --- the paper's outliers -------------------------------------------
        // compress: iteration bodies about as large as the biggest window;
        // the 128-entry configuration wins.
        App::Compress => IlpProfile::Flat(best_at_128()),
        // ijpeg: short sub-chains put its knee near 32 entries; an
        // intermediate window beats the 64-entry conventional clock.
        App::Ijpeg => IlpProfile::Flat(iteration(4, 40, 2, 4, 0.25)),
        // radar / fpppp / appcg: recurrence-dominated; flat IPC, 16 wins
        // (−10 %, −21 %, −28 % TPI in Figure 11).
        App::Radar => IlpProfile::Flat(iteration(6, 8, 2, 3, 0.20)),
        App::Fpppp => IlpProfile::Flat(iteration(12, 6, 3, 2, 0.15)),
        App::Appcg => IlpProfile::Flat(iteration(8, 2, 2, 1, 0.15)),

        // --- Section 6: intra-application diversity -------------------------
        // turb3d: long stretches (hundreds of 2000-instruction intervals)
        // during which one of the 64/128-entry configurations clearly
        // wins (Figure 12).
        App::Turb3d => IlpProfile::Phased(vec![
            Phase::new(best_at_64(), 760_000),
            Phase::new(best_at_128(), 440_000),
        ]),
        // vortex: a regular ~15-interval (30 000-instruction) alternation
        // between 16- and 64-entry preference (Figure 13a), followed by an
        // irregular stretch of rapid micro-phases where neither
        // configuration sustains an advantage (Figure 13b).
        App::Vortex => {
            let mut schedule = Vec::new();
            for _ in 0..3 {
                schedule.push(Phase::new(best_at_16(), 18_000));
                schedule.push(Phase::new(best_at_64(), 42_000));
            }
            // Irregular stretch: short, uneven micro-phases.
            for (i, len) in [5_000u64, 3_000, 7_000, 2_000, 6_000, 4_000, 8_000, 5_000].iter().enumerate() {
                let p = if i % 2 == 0 { best_at_16() } else { best_at_64() };
                schedule.push(Phase::new(p, *len));
            }
            IlpProfile::Phased(schedule)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_app_builds() {
        for app in App::ALL {
            let p = app.ilp_profile();
            let mut s = p.build(1);
            let insts = s.take_insts(1000);
            assert_eq!(insts.len(), 1000, "{app}");
            for inst in insts {
                for d in inst.deps() {
                    assert!(d < inst.seq, "{app}: forward dep");
                }
            }
        }
    }

    #[test]
    fn packing_matches_next_inst_for_every_app() {
        for app in App::ALL {
            let mut g = app.ilp_profile().build(3);
            let mut h = g.clone();
            for _ in 0..1000 {
                assert_eq!(g.next_packed(), PackedInst::saturating(h.next_inst()), "{app}");
            }
        }
    }

    #[test]
    fn phased_apps_are_turb3d_and_vortex() {
        for app in App::ALL {
            let phased = app.ilp_profile().phases().is_some();
            assert_eq!(phased, matches!(app, App::Turb3d | App::Vortex), "{app}");
        }
    }

    #[test]
    fn vortex_alternation_period_matches_fig13() {
        // Figure 13(a): the best configuration alternates "roughly every
        // 15 intervals" of 2000 instructions = 30 000 instructions.
        let profile = App::Vortex.ilp_profile();
        let phases = profile.phases().unwrap();
        assert_eq!(phases[0].len + phases[1].len, 60_000, "one full alternation = ~30 intervals");
        assert!((15_000..=45_000).contains(&phases[0].len));
        assert!((15_000..=45_000).contains(&phases[1].len));
        // And the irregular tail has much shorter phases.
        assert!(phases.last().unwrap().len < 10_000);
    }

    #[test]
    fn turb3d_phases_are_long() {
        // Figure 12 shows multi-million-instruction stretches; our scaled
        // phases are still hundreds of intervals long.
        let profile = App::Turb3d.ilp_profile();
        for p in profile.phases().unwrap() {
            assert!(p.len >= 200 * 2000);
        }
    }

    #[test]
    fn profiles_are_deterministic() {
        let p = App::Compress.ilp_profile();
        let a = p.build(5).take_insts(3000);
        let b = p.build(5).take_insts(3000);
        assert_eq!(a, b);
    }

    #[test]
    fn all_profiles_use_the_backbone_shape() {
        // The iteration model relies on fully serialized chain heads.
        for app in App::ALL {
            match app.ilp_profile() {
                IlpProfile::Flat(p) => assert_eq!(p.cross_dep_prob, 1.0, "{app}"),
                IlpProfile::Phased(s) => {
                    for ph in s {
                        assert_eq!(ph.params.cross_dep_prob, 1.0, "{app}");
                    }
                }
            }
        }
    }

    #[test]
    fn outlier_segments_differ_from_modal() {
        let modal = best_at_64();
        let seg = |p: IlpParams| p.chain_len + p.burst_len;
        match App::Appcg.ilp_profile() {
            IlpProfile::Flat(p) => assert!(seg(p) < seg(modal) / 3),
            _ => panic!("appcg is flat"),
        }
        match App::Compress.ilp_profile() {
            IlpProfile::Flat(p) => assert!(seg(p) > seg(modal) * 3 / 2),
            _ => panic!("compress is flat"),
        }
    }
}
