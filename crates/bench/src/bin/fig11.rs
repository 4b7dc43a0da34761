//! Regenerates Figure 11: average TPI for the best conventional
//! configuration (64-entry queue) and the process-level adaptive scheme,
//! per application and overall average.

use cap_bench::{emit_csv, emit_json};
use cap_core::experiments::QueueExperiment;
use cap_core::report::{bar_chart_csv, bar_chart_table};

fn main() {
    cap_bench::run("Figure 11", "average TPI (ns): conventional (64-entry) vs process-level adaptive", |exec, scale| {
        let chart = QueueExperiment::new(scale).figure11(exec)?;
        println!("{}", bar_chart_table("TPI per application", "ns", &chart));
        emit_json("fig11", &chart);
        emit_csv("fig11", &bar_chart_csv(&chart));
        Ok(())
    });
}
