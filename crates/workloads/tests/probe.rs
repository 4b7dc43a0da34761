//! Diagnostic probe (run with --ignored --nocapture) printing every
//! application's cache and queue argmin for calibration work.
use cap_cache::config::Boundary;
use cap_cache::perf::PerfParams;
use cap_cache::multisweep::multisweep;
use cap_cache::sim::best_point;
use cap_ooo::config::WindowSize;
use cap_ooo::multisweep::multisweep as qmultisweep;
use cap_ooo::perf::best_point as qbest;
use cap_timing::cacti::CacheTimingModel;
use cap_timing::queue::QueueTimingModel;
use cap_timing::Technology;
use cap_workloads::App;

#[test]
#[ignore = "diagnostic probe for calibration"]
fn print_argmins() {
    let ct = CacheTimingModel::isca98(Technology::isca98_evaluation());
    let qt = QueueTimingModel::new(Technology::isca98_evaluation());
    for app in App::ALL {
        let mp = app.memory_profile();
        let pts = multisweep(mp.build(0xCAB5 + app.seed_salt()), 150_000, Boundary::paper_sweep(), &ct, PerfParams::isca98(mp.insts_per_ref)).unwrap();
        let b = best_point(&pts).unwrap();
        let conv = pts.iter().find(|p| p.boundary == Boundary::best_conventional()).unwrap();
        let red = 100.0 * (1.0 - b.tpi.total_tpi() / conv.tpi.total_tpi());
        let redm = 100.0 * (1.0 - b.tpi.miss_tpi / conv.tpi.miss_tpi.max(cap_timing::Ns(1e-12)));
        let ip = app.ilp_profile();
        let qpts = qmultisweep(ip.build(0x0E5 + app.seed_salt()), 100_000, WindowSize::paper_sweep(), &qt).unwrap();
        let qb = qbest(&qpts).unwrap();
        let qconv = qpts.iter().find(|p| p.window.entries() == 64).unwrap();
        let qred = 100.0 * (1.0 - qb.tpi / qconv.tpi);
        println!(
            "{:9} cache: best {:2}KB tpi {:.3} (conv {:.3}, -{:4.1}%, miss -{:5.1}%) | queue: best {:3} tpi {:.3} (conv {:.3}, -{:4.1}%) ipc64 {:.2}",
            app.name(), b.boundary.l1_kb(), b.tpi.total_tpi().value(), conv.tpi.total_tpi().value(), red, redm,
            qb.window.entries(), qb.tpi.value(), qconv.tpi.value(), qred, qconv.stats.ipc()
        );
    }
}
