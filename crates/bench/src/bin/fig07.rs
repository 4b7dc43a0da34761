//! Regenerates Figure 7: variation of average TPI with L1 D-cache size
//! for (a) integer and (b) floating-point benchmarks, boundary fixed
//! throughout execution.

use cap_bench::{emit_csv, emit_json};
use cap_core::experiments::CacheExperiment;
use cap_core::report::{cache_curve_csv, cache_curves_table};

fn main() {
    cap_bench::run("Figure 7", "average TPI vs L1 D-cache size (ns), fixed boundary", |exec, scale| {
        let curves = CacheExperiment::new(scale)?.figure7(exec)?;
        let (int, fp): (Vec<_>, Vec<_>) = curves.iter().partition(|c| c.integer_panel);
        println!("{}", cache_curves_table("(a) integer benchmarks", &int));
        println!("{}", cache_curves_table("(b) floating point / CMU / NAS benchmarks", &fp));
        for c in &curves {
            let best = c.best();
            println!("  {:>9}: best L1 {:>2} KB ({}-way), TPI {:.3} ns", c.app, best.l1_kb, best.l1_assoc, best.tpi_ns);
        }
        emit_json("fig07", &curves);
        for c in &curves {
            emit_csv(&format!("fig07_{}", c.app), &cache_curve_csv(c));
        }
        Ok(())
    });
}
