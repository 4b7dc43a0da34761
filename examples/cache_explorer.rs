//! Cache design-space explorer: drive the adaptive hierarchy directly —
//! no experiment driver — with your own region mixture, move the L1/L2
//! boundary mid-run, and watch the exclusive structure keep its contents.
//!
//! Run with: `cargo run --release --example cache_explorer`

use cap::cache::config::Boundary;
use cap::cache::hierarchy::AdaptiveCacheHierarchy;
use cap::cache::multisweep::multisweep;
use cap::cache::perf::{evaluate, PerfParams};
use cap::cache::sim;
use cap::timing::cacti::CacheTimingModel;
use cap::timing::Technology;
use cap::trace::mem::{Region, RegionMix};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A hand-built workload: a 24 KB hot array plus a 1 MB random heap.
    let pristine = RegionMix::builder(42)
        .region(Region::sequential_loop(0, 24 * 1024, 32), 4.0)
        .region(Region::random(1 << 30, 1 << 20), 0.3)
        .build()?;

    let timing = CacheTimingModel::isca98(Technology::isca98_evaluation());
    let params = PerfParams::isca98(3.0);

    println!("Boundary sweep for a 24 KB working set + 1 MB heap:\n");
    println!("{:>12} {:>10} {:>10} {:>10}", "config", "L1 miss", "TPI ns", "verdict");
    let points = multisweep(pristine.clone(), 120_000, Boundary::paper_sweep(), &timing, params)?;
    let best = sim::best_point(&points).expect("sweep is nonempty").boundary;
    for p in &points {
        println!(
            "{:>12} {:>9.1}% {:>10.3} {:>10}",
            p.boundary.to_string(),
            p.stats.l1_miss_ratio() * 100.0,
            p.tpi.total_tpi().value(),
            if p.boundary == best { "<= best" } else { "" }
        );
    }

    // Now demonstrate the reconfiguration property the paper's design is
    // built around: moving the boundary does not touch cache contents.
    println!("\nReconfiguring a live cache:");
    let mut cache = AdaptiveCacheHierarchy::isca98(Boundary::new(2)?);
    let mut stream = pristine.clone();
    let _ = sim::run(&mut stream, 50_000, &mut cache);
    let before = cache.contents_snapshot().len();
    cache.set_boundary(best);
    let after = cache.contents_snapshot().len();
    println!("  resident blocks before move: {before}");
    println!("  resident blocks after move:  {after} (identical — no invalidation)");

    let stats = sim::run(&mut stream, 50_000, &mut cache);
    let tpi = evaluate(&stats, best, &timing, params)?;
    println!("  TPI at the new boundary:     {:.3} ns", tpi.total_tpi().value());
    Ok(())
}
