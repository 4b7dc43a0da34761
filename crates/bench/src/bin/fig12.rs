//! Regenerates Figure 12: two snapshots of turb3d's execution under the
//! 64- and 128-entry queue configurations, average TPI per interval of
//! 2000 instructions. In (a) the 64-entry configuration performs best; in
//! (b) the 128-entry configuration does.

use cap_bench::emit_json;
use cap_core::experiments::IntervalExperiment;
use cap_core::report::interval_figure_table;

fn main() {
    cap_bench::run("Figure 12", "turb3d interval snapshots: 64 vs 128 entries", |exec, _| {
        let fig = IntervalExperiment::new().figure12(exec)?;
        println!("{}", interval_figure_table("TPI (ns) per 2000-instruction interval", &fig));
        let (a_s, a_l) = fig.snapshot_a_wins();
        let (b_s, b_l) = fig.snapshot_b_wins();
        println!("snapshot (a): 64-entry wins {a_s} intervals, 128-entry wins {a_l}");
        println!("snapshot (b): 64-entry wins {b_s} intervals, 128-entry wins {b_l}");
        emit_json("fig12", &fig);
        Ok(())
    });
}
