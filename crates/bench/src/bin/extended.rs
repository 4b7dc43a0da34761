//! The paper's future-work studies, executed: adaptive TLB, adaptive
//! branch predictor, and the combined cache x queue configuration space
//! (paper §5.4 / §7).

use cap_bench::emit_json;
use cap_core::experiments::DEFAULT_SEED;
use cap_core::extended::{
    asynchronous_study, bpred_study, reconfiguration_frequency_study, run_managed_combined,
    technology_study, tlb_study, CombinedExperiment,
};
use cap_core::manager::ConfidencePolicy;
use cap_workloads::App;

fn main() {
    cap_bench::run("Extended", "future-work studies: TLB, branch predictor, combined", |exec, scale| {
        let tlb = tlb_study(scale, DEFAULT_SEED, exec)?;
        println!("Adaptive TLB (primary/backup split; machine cycle from the 16KB-L1 clock):");
        println!("{:>10} {:>14} {:>14} {:>14} {:>10}", "app", "best primary", "tpi@16 (ns)", "tpi@best (ns)", "miss");
        for r in &tlb {
            println!(
                "{:>10} {:>14} {:>14.4} {:>14.4} {:>9.2}%",
                r.app, r.best_primary, r.tpi_smallest, r.tpi_best, r.miss_ratio * 100.0
            );
        }
        emit_json("tlb_study", &tlb);

        let bp = bpred_study(scale, DEFAULT_SEED, exec)?;
        println!("\nAdaptive gshare PHT (machine cycle from the 64-entry queue clock):");
        println!("{:>10} {:>10} {:>10} {:>10} {:>12}", "app", "best PHT", "acc@1K", "acc@best", "tpi (ns)");
        for r in &bp {
            println!(
                "{:>10} {:>9}K {:>9.1}% {:>9.1}% {:>12.4}",
                r.app,
                r.best_entries / 1024,
                r.accuracy_smallest * 100.0,
                r.accuracy_best * 100.0,
                r.tpi_best
            );
        }
        emit_json("bpred_study", &bp);

        println!("\nCombined cache x queue (joint clock = slower structure):");
        println!(
            "{:>10} {:>16} {:>16} {:>12} {:>12}",
            "app", "joint (L1,win)", "solo (L1,win)", "joint tpi", "composed tpi"
        );
        let exp = CombinedExperiment::new(scale);
        let mut combined = Vec::new();
        for app in [App::Stereo, App::Appcg, App::Compress, App::M88ksim, App::Fpppp] {
            let s = exp.study(app, exec)?;
            let b = s.best();
            println!(
                "{:>10} {:>9}KB,{:>4} {:>9}KB,{:>4} {:>12.3} {:>12.3}",
                s.app, b.l1_kb, b.entries, s.solo_cache_kb, s.solo_window, b.tpi_ns, s.composed_tpi()
            );
            combined.push(s);
        }
        emit_json("combined_study", &combined);

        println!("\nTechnology scaling (paper §2, quantified):");
        println!("{:>12} {:>22} {:>22}", "feature um", "cache clock spread", "adaptive TPI gain");
        let tech = technology_study(scale, DEFAULT_SEED, exec)?;
        for r in &tech {
            println!(
                "{:>12.2} {:>21.2}x {:>21.1}%",
                r.feature_um, r.cache_cycle_spread, r.cache_tpi_reduction * 100.0
            );
        }
        emit_json("technology_study", &tech);

        println!("\nReconfiguration frequency (paper §4.2) on turb3d:");
        println!("{:>14} {:>14} {:>10}", "interval", "managed TPI", "switches");
        let freq = reconfiguration_frequency_study(
            App::Turb3d,
            800_000,
            &[500, 2_000, 8_000, 32_000],
            DEFAULT_SEED,
            exec,
        )?;
        for r in &freq {
            println!("{:>14} {:>14.3} {:>10}", r.interval_len, r.managed_tpi, r.switches);
        }
        emit_json("frequency_study", &freq);

        println!("\nAsynchronous design (paper §4.1): average vs worst-case L1 access at 64KB:");
        println!("{:>10} {:>12} {:>12} {:>9}", "app", "sync (ns)", "async (ns)", "speedup");
        let asy = asynchronous_study(scale, DEFAULT_SEED, exec)?;
        for r in &asy {
            println!("{:>10} {:>12.3} {:>12.3} {:>8.2}x", r.app, r.sync_access_ns, r.async_access_ns, r.speedup);
        }
        emit_json("async_study", &asy);

        println!("\nOnline joint management (two coordinated interval managers, 400 intervals):");
        println!("{:>10} {:>12} {:>10} {:>16}", "app", "avg TPI", "switches", "settled config");
        let mut joint = Vec::new();
        for app in [App::M88ksim, App::Stereo, App::Appcg] {
            let r = run_managed_combined(
                app,
                400,
                DEFAULT_SEED,
                ConfidencePolicy::default_policy(),
                exec,
            )?;
            println!(
                "{:>10} {:>12.3} {:>10} {:>9}KB,{:>4}",
                r.app, r.avg_tpi, r.switches, r.final_l1_kb, r.final_entries
            );
            joint.push(r);
        }
        emit_json("joint_managed", &joint);
        Ok(())
    });
}
