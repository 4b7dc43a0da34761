//! Section 6 extension: drive a phased application with the
//! interval-based configuration manager — performance monitoring,
//! next-configuration prediction, and a confidence counter to avoid
//! needless reconfiguration — and compare it with the process-level
//! choice and the per-interval oracle.
//!
//! Run with: `cargo run --release --example interval_adaptation`

use cap::core::clock::{DynamicClock, DEFAULT_SWITCH_PENALTY_CYCLES};
use cap::core::experiments::{ExecPolicy, IntervalExperiment};
use cap::core::manager::{run_managed_lanes, QueueLane};
use cap::core::policy::{PolicyConfig, PolicyKind};
use cap::core::structure::{AdaptiveStructure, QueueStructure};
use cap::timing::queue::QueueTimingModel;
use cap::workloads::App;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = App::Turb3d;
    let intervals = 400;

    // Managed run, narrated: watch the manager explore, settle, and
    // follow turb3d's phase change. The run is one lane of the lock-step
    // OoO engine, as every managed run in the library is.
    let structure = QueueStructure::isca98(QueueTimingModel::default(), 0)?;
    let clock = DynamicClock::for_structure(&structure, DEFAULT_SWITCH_PENALTY_CYCLES)?;
    let confidence = PolicyConfig::new(PolicyKind::Confidence);
    let policy = confidence.build(structure.num_configs(), cap::obs::noop(), None)?;
    let mut lanes = [QueueLane { structure, policy, clock, injector: None }];
    let stream = app.ilp_profile().build(7);
    let run = run_managed_lanes(stream, &mut lanes, &[(intervals, 2000)])?.remove(0).run;
    let structure = &lanes[0].structure;

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
