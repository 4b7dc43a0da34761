//! Regenerates Figure 13: two snapshots of vortex's execution under the
//! 16- and 64-entry queue configurations. In (a) the best-performing
//! configuration alternates in a regular ~15-interval pattern; in (b)
//! little predictability is observed.

use cap_bench::emit_json;
use cap_core::experiments::IntervalExperiment;
use cap_core::report::interval_figure_table;

fn main() {
    cap_bench::run("Figure 13", "vortex interval snapshots: 16 vs 64 entries", |exec, _| {
        let fig = IntervalExperiment::new().figure13(exec)?;
        println!("{}", interval_figure_table("TPI (ns) per 2000-instruction interval", &fig));
        let winners: Vec<&str> =
            fig.snapshot_a.iter().map(|p| if p.tpi_small < p.tpi_large { "16" } else { "64" }).collect();
        println!("snapshot (a) winner sequence: {}", winners.join(" "));
        let (b_s, b_l) = fig.snapshot_b_wins();
        println!("snapshot (b): 16-entry wins {b_s}, 64-entry wins {b_l} (irregular)");
        let (eval_a, eval_b) = fig.pattern_predictability(0.8);
        println!(
            "pattern predictor @0.8 confidence: (a) coverage {:.0}% accuracy {:.0}%, (b) coverage {:.0}% accuracy {:.0}%",
            eval_a.coverage() * 100.0,
            eval_a.accuracy() * 100.0,
            eval_b.coverage() * 100.0,
            eval_b.accuracy() * 100.0
        );
        emit_json("fig13", &fig);
        Ok(())
    });
}
