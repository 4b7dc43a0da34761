//! Regenerates Figure 10: variation of average TPI with the number of
//! instruction-queue entries for (a) integer and (b) floating-point
//! benchmarks.

use cap_bench::{emit_csv, emit_json};
use cap_core::experiments::QueueExperiment;
use cap_core::report::{queue_curve_csv, queue_curves_table};

fn main() {
    cap_bench::run("Figure 10", "average TPI vs instruction queue size (ns)", |exec, scale| {
        let curves = QueueExperiment::new(scale).figure10(exec)?;
        let (int, fp): (Vec<_>, Vec<_>) = curves.iter().partition(|c| c.integer_panel);
        println!("{}", queue_curves_table("(a) integer benchmarks", &int));
        println!("{}", queue_curves_table("(b) floating point / CMU / NAS benchmarks", &fp));
        for c in &curves {
            let best = c.best();
            println!("  {:>9}: best window {:>3} entries, TPI {:.3} ns (IPC {:.2})", c.app, best.entries, best.tpi_ns, best.ipc);
        }
        emit_json("fig10", &curves);
        for c in &curves {
            emit_csv(&format!("fig10_{}", c.app), &queue_curve_csv(c));
        }
        Ok(())
    });
}
