//! Regenerates Figure 8: average TPImiss for the best conventional
//! configuration (16 KB 4-way L1) and the process-level adaptive scheme,
//! per application and overall average.

use cap_bench::emit_json;
use cap_core::experiments::CacheExperiment;
use cap_core::report::bar_chart_table;

fn main() {
    cap_bench::run("Figure 8", "average TPImiss (ns): conventional vs process-level adaptive", |exec, scale| {
        let chart = CacheExperiment::new(scale)?.figure8(exec)?;
        println!("{}", bar_chart_table("TPImiss per application", "ns", &chart));
        emit_json("fig08", &chart);
        Ok(())
    });
}
