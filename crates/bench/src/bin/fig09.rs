//! Regenerates Figure 9: average TPI for the best conventional
//! configuration and the process-level adaptive scheme, per application
//! and overall average.

use cap_bench::{emit_csv, emit_json};
use cap_core::experiments::CacheExperiment;
use cap_core::report::{bar_chart_csv, bar_chart_table};

fn main() {
    cap_bench::run("Figure 9", "average TPI (ns): conventional vs process-level adaptive", |exec, scale| {
        let chart = CacheExperiment::new(scale)?.figure9(exec)?;
        println!("{}", bar_chart_table("TPI per application", "ns", &chart));
        emit_json("fig09", &chart);
        emit_csv("fig09", &bar_chart_csv(&chart));
        Ok(())
    });
}
