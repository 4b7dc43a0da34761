//! The paper's structures "applied in concert" (§5.4): optimize the
//! cache boundary and the window size jointly under a shared dynamic
//! clock, and see where the joint optimum leaves the standalone choices.
//!
//! Run with: `cargo run --release --example combined_structures`

use cap::core::experiments::{ExecPolicy, ExperimentScale};
use cap::core::extended::CombinedExperiment;
use cap::workloads::App;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let exp = CombinedExperiment::new(ExperimentScale::Smoke);
    for app in [App::Stereo, App::M88ksim, App::Appcg] {
        let s = exp.study(app, &ExecPolicy::serial())?;
        let b = s.best();
        println!("{}:", s.app);
        println!("  standalone choices: L1={} KB, {}-entry window", s.solo_cache_kb, s.solo_window);
        println!(
            "  joint optimum:      L1={} KB, {}-entry window @ {:.3} ns clock",
            b.l1_kb, b.entries, b.cycle_ns
        );
        println!(
            "  joint TPI {:.3} ns vs composed {:.3} ns ({:+.1} %)\n",
            b.tpi_ns,
            s.composed_tpi(),
            (b.tpi_ns / s.composed_tpi() - 1.0) * 100.0
        );
    }
    println!("Behind a slow structure the other structure's clock cost vanishes —");
    println!("the joint space is where the paper's parenthetical in §5.4 lives.");
    Ok(())
}
