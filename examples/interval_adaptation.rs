//! Section 6 extension: drive a phased application with the
//! interval-based configuration manager — performance monitoring,
//! next-configuration prediction, and a confidence counter to avoid
//! needless reconfiguration — and compare it with the process-level
//! choice and the per-interval oracle.
//!
//! Run with: `cargo run --release --example interval_adaptation`

use cap::core::clock::{DynamicClock, DEFAULT_SWITCH_PENALTY_CYCLES};
use cap::core::experiments::{ExecPolicy, IntervalExperiment};
use cap::core::manager::{run_managed, QueueIntervalSim, SwitchRetryPolicy};
use cap::core::policy::{PolicyConfig, PolicyKind};
use cap::core::structure::{AdaptiveStructure, QueueStructure};
use cap::timing::queue::QueueTimingModel;
use cap::workloads::App;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = App::Turb3d;
    let intervals = 400;

    // Managed run, narrated: watch the manager explore, settle, and
    // follow turb3d's phase change.
    let timing = QueueTimingModel::default();
    let mut structure = QueueStructure::isca98(timing, 0)?;
    let table = structure.period_table()?;
    let mut clock = DynamicClock::new(table, DEFAULT_SWITCH_PENALTY_CYCLES)?;
    let confidence = PolicyConfig::new(PolicyKind::Confidence);
    let mut manager = confidence.build(structure.num_configs(), cap::obs::noop(), None)?;
    let mut stream = app.ilp_profile().build(7);
    let mut sim = QueueIntervalSim::new(&mut structure, &mut stream, 2000)?;
    let run =
        run_managed(&mut sim, &mut *manager, &mut clock, intervals, None, SwitchRetryPolicy::default())?
            .run;

    println!("Managed run of {app} over {intervals} intervals of 2000 instructions:");
    let mut last = usize::MAX;
    for rec in &run.intervals {
        if rec.config != last {
            println!(
                "  interval {:>4}: now at {} (period {:.3} ns)",
                rec.sample.index, structure.describe(rec.config), rec.period.value()
            );
            last = rec.config;
        }
    }
    println!("  reconfigurations: {} (switch penalty total {:.1} ns)", run.switches, run.switch_penalty.value());
    println!("  managed average TPI: {:.3} ns\n", run.average_tpi().value());

    // The summary comparison the ablation bench runs at scale.
    let exp = IntervalExperiment::new();
    let cmp = exp.policy_comparison(app, intervals, &[confidence], &ExecPolicy::serial())?.remove(0);
    println!("process-level best fixed config: {:.3} ns", cmp.process_level_tpi);
    println!("interval-adaptive manager:       {:.3} ns", cmp.managed_tpi);
    println!("per-interval oracle envelope:    {:.3} ns", cmp.oracle_tpi);
    Ok(())
}
