//! Calibration tests: the synthetic profiles must reproduce the paper's
//! per-application optimum structure when run through the sweep engines
//! that produce the figures.
//!
//! These use scaled-down trace lengths; the bench harness runs the same
//! experiments at full scale.

use cap_cache::config::Boundary;
use cap_cache::perf::PerfParams;
use cap_cache::multisweep::multisweep;
use cap_cache::sim::{best_point, SweepPoint};
use cap_ooo::config::WindowSize;
use cap_ooo::multisweep::multisweep as q_multisweep;
use cap_ooo::perf::{best_point as q_best, QueueSweepPoint};
use cap_timing::cacti::CacheTimingModel;
use cap_timing::queue::QueueTimingModel;
use cap_timing::Technology;
use cap_workloads::App;

const CACHE_REFS: u64 = 150_000;
const QUEUE_INSTS: u64 = 100_000;

fn cache_sweep(app: App) -> Vec<SweepPoint> {
    let timing = CacheTimingModel::isca98(Technology::isca98_evaluation());
    let profile = app.memory_profile();
    multisweep(
        profile.build(0xCAB5 + app.seed_salt()),
        CACHE_REFS,
        Boundary::paper_sweep(),
        &timing,
        PerfParams::isca98(profile.insts_per_ref),
    )
    .expect("paper sweep is within the timing model")
}

fn cache_argmin_kb(app: App) -> usize {
    let points = cache_sweep(app);
    best_point(&points).expect("sweep is nonempty").boundary.l1_kb()
}

fn queue_sweep(app: App) -> Vec<QueueSweepPoint> {
    let timing = QueueTimingModel::new(Technology::isca98_evaluation());
    let profile = app.ilp_profile();
    q_multisweep(
        profile.build(0x0E5 + app.seed_salt()),
        QUEUE_INSTS,
        WindowSize::paper_sweep(),
        &timing,
    )
    .expect("paper sweep is within the timing model")
}

fn queue_argmin(app: App) -> usize {
    let points = queue_sweep(app);
    q_best(&points).expect("sweep is nonempty").window.entries()
}

// --- cache study (Figure 7 structure) -----------------------------------

#[test]
fn most_apps_prefer_small_l1() {
    // Paper §5.2.2: "The vast majority of the applications perform best
    // with an 8KB or 16KB L1 Dcache."
    let small = [
        App::M88ksim,
        App::Gcc,
        App::Li,
        App::Ijpeg,
        App::Perl,
        App::Vortex,
        App::Tomcatv,
        App::Su2cor,
        App::Hydro2d,
        App::Mgrid,
        App::Applu,
        App::Turb3d,
        App::Apsi,
        App::Fpppp,
    ];
    for app in small {
        let kb = cache_argmin_kb(app);
        assert!(kb <= 16, "{app}: best L1 was {kb} KB, expected <= 16");
    }
}

#[test]
fn stereo_needs_48kb() {
    // "Stereo's curve does not flatten out until the 48KB L1 cache point."
    let kb = cache_argmin_kb(App::Stereo);
    assert!(kb >= 48, "stereo best L1 was {kb} KB");
}

#[test]
fn appcg_needs_more_than_48kb() {
    // "Appcg experiences a sharp drop once L1 cache size is increased
    // beyond 48KB."
    let kb = cache_argmin_kb(App::Appcg);
    assert!(kb >= 56, "appcg best L1 was {kb} KB");
}

#[test]
fn compress_is_the_only_integer_app_improving_past_16kb() {
    let kb = cache_argmin_kb(App::Compress);
    assert!(kb > 16, "compress best L1 was {kb} KB");
    for app in [App::M88ksim, App::Gcc, App::Li, App::Ijpeg, App::Perl, App::Vortex] {
        let kb = cache_argmin_kb(app);
        assert!(kb <= 16, "{app}: best L1 was {kb} KB");
    }
}

#[test]
fn swim_improves_with_cache_size() {
    // "Stereo and swim experience a large reduction in TPI as cache size
    // is increased."
    let kb = cache_argmin_kb(App::Swim);
    assert!((32..=56).contains(&kb), "swim best L1 was {kb} KB");
}

#[test]
fn lesser_improvers_have_mid_size_optima() {
    for (app, lo, hi) in [(App::Wave5, 24, 48), (App::Airshed, 16, 40), (App::Radar, 8, 32)] {
        let kb = cache_argmin_kb(app);
        assert!((lo..=hi).contains(&kb), "{app}: best L1 was {kb} KB, expected {lo}..={hi}");
    }
}

#[test]
fn applu_curve_is_flat_and_miss_dominated() {
    // "applu's L1 Dcache miss ratio is 9% with an 8KB L1 cache, and only
    // drops to 8% with a 64KB L1 cache. Most of these misses miss in the
    // L2 cache as well."
    let points = cache_sweep(App::Applu);
    let mr8 = points[0].stats.l1_miss_ratio();
    let mr64 = points[7].stats.l1_miss_ratio();
    assert!((0.06..=0.13).contains(&mr8), "got {mr8}");
    assert!(mr8 - mr64 < 0.03, "curve must be nearly flat: {mr8} vs {mr64}");
    assert!(points[0].stats.l2_local_miss_ratio() > 0.5, "most L1 misses must also miss L2");
    assert_eq!(cache_argmin_kb(App::Applu), 8, "fastest clock wins for applu");
}

#[test]
fn stereo_conventional_tpi_matches_clipped_bars() {
    // Figure 8/9 clip stereo's conventional bars at 0.87 (TPImiss) and
    // 1.10 (TPI) ns. Accept the right order of magnitude.
    let points = cache_sweep(App::Stereo);
    let conv = points
        .iter()
        .find(|p| p.boundary == Boundary::best_conventional())
        .expect("conventional boundary is in the sweep");
    let miss = conv.tpi.miss_tpi.value();
    let total = conv.tpi.total_tpi().value();
    assert!((0.6..=1.2).contains(&miss), "TPImiss {miss}");
    assert!((0.8..=1.5).contains(&total), "TPI {total}");
}

// --- queue study (Figure 10 structure) ------------------------------------

#[test]
fn most_apps_prefer_64_entries() {
    // "Most applications perform best with a the 64-entry instruction
    // queue." Allow the two neighbours — the paper's curves are shallow
    // around the optimum.
    let modal = [
        App::Go,
        App::M88ksim,
        App::Gcc,
        App::Li,
        App::Perl,
        App::Airshed,
        App::Tomcatv,
        App::Swim,
        App::Su2cor,
        App::Hydro2d,
        App::Mgrid,
        App::Applu,
        App::Apsi,
        App::Wave5,
        App::Turb3d,
        App::Stereo,
    ];
    let mut exactly_64 = 0;
    for app in modal {
        let w = queue_argmin(app);
        assert!((48..=80).contains(&w), "{app}: best window was {w}");
        if w == 64 {
            exactly_64 += 1;
        }
    }
    assert!(exactly_64 >= 12, "only {exactly_64} of {} apps peaked exactly at 64", modal.len());
}

#[test]
fn ijpeg_has_an_intermediate_optimum() {
    // Figure 11 reports ijpeg gaining ~8 % over the 64-entry conventional
    // design, so its optimum is not 64; our profile puts the knee just
    // below 48 entries.
    let w = queue_argmin(App::Ijpeg);
    assert!((32..=48).contains(&w), "ijpeg best window was {w}");
}

#[test]
fn vortex_16_and_64_are_nearly_tied_overall() {
    // Vortex alternates between 16- and 64-entry preference (Figure 13);
    // at process level the two are nearly tied, matching its negligible
    // bar difference in Figure 11.
    let points = queue_sweep(App::Vortex);
    let t16 = points.iter().find(|p| p.window.entries() == 16).unwrap().tpi;
    let t64 = points.iter().find(|p| p.window.entries() == 64).unwrap().tpi;
    let gap = (t16 / t64 - 1.0).abs();
    assert!(gap < 0.08, "16-vs-64 gap was {gap}");
    let w = queue_argmin(App::Vortex);
    assert!(w == 16 || w == 64, "vortex best window was {w}");
}

#[test]
fn compress_prefers_128_entries() {
    // "A 128-entry instruction queue performs best for compress."
    let w = queue_argmin(App::Compress);
    assert!(w >= 112, "compress best window was {w}");
}

#[test]
fn radar_fpppp_appcg_prefer_16_entries() {
    // "radar, fpppp, and appcg clearly favor the smallest 16-entry
    // configuration."
    for app in [App::Radar, App::Fpppp, App::Appcg] {
        assert_eq!(queue_argmin(app), 16, "{app}");
    }
}

#[test]
fn appcg_gains_a_quarter_over_conventional() {
    // Figure 11: appcg's TPI reduction is 28 % over the 64-entry
    // conventional design.
    let points = queue_sweep(App::Appcg);
    let conv = points.iter().find(|p| p.window.entries() == 64).unwrap();
    let best = q_best(&points).unwrap();
    let reduction = 1.0 - best.tpi / conv.tpi;
    assert!((0.15..=0.35).contains(&reduction), "got {reduction}");
}

#[test]
fn queue_tpi_values_on_paper_axes() {
    // Figure 10 plots TPIs between roughly 0.1 and 1.6 ns.
    for app in [App::Go, App::Compress, App::Appcg, App::Swim] {
        for p in queue_sweep(app) {
            let t = p.tpi.value();
            assert!((0.05..=2.0).contains(&t), "{app} @ {}: TPI {t}", p.window);
        }
    }
}
