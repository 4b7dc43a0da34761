//! §6 extension: the interval-adaptive configuration manager versus the
//! process-level choice and the per-interval oracle, with and without
//! confidence gating — on the two phased applications.

use cap_bench::emit_json;
use cap_core::experiments::IntervalExperiment;
use cap_core::manager::ConfidencePolicy;
use cap_core::policy::{PolicyConfig, PolicyKind};
use cap_workloads::App;

fn main() {
    cap_bench::run("Ablation", "interval-adaptive manager (Section 6 extension)", |exec, _| {
        let exp = IntervalExperiment::new();
        let intervals = 600;
        println!(
            "{:>8} {:>12} {:>14} {:>12} {:>12} {:>9}",
            "app", "policy", "process (ns)", "managed (ns)", "oracle (ns)", "switches"
        );
        let mut all = Vec::new();
        let names = ["confident", "eager"];
        let configs = [ConfidencePolicy::default_policy(), ConfidencePolicy::none()].map(|policy| {
            PolicyConfig::new(PolicyKind::Confidence).with_explore_period(50).with_confidence(policy)
        });
        for app in [App::Turb3d, App::Vortex, App::Compress, App::Appcg] {
            // Both settings share one set of offline series, and run as
            // two lanes of one managed pass.
            for (name, r) in names.into_iter().zip(exp.policy_comparison(app, intervals, &configs, exec)?) {
                println!(
                    "{:>8} {:>12} {:>14.3} {:>12.3} {:>12.3} {:>9}",
                    r.app, name, r.process_level_tpi, r.managed_tpi, r.oracle_tpi, r.switches
                );
                all.push((name, r));
            }
        }
        emit_json("ablation", &all);
        Ok(())
    });
}
