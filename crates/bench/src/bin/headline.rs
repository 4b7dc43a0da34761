//! Prints the paper's headline numbers (its §5.2.3 and §5.3 text) next
//! to this reproduction's measurements.

use cap_bench::emit_json;
use cap_core::experiments::{CacheExperiment, QueueExperiment};
use serde::Serialize;

#[derive(Serialize)]
struct HeadlineRow {
    metric: String,
    paper: f64,
    measured: f64,
}

fn main() {
    cap_bench::run("Headline", "paper-reported vs measured reductions", |exec, scale| {
        let cache = CacheExperiment::new(scale)?.headline(exec)?;
        let queue = QueueExperiment::new(scale).headline(exec)?;
        let rows = vec![
            HeadlineRow { metric: "cache: average TPImiss reduction".into(), paper: 0.26, measured: cache.tpimiss_reduction },
            HeadlineRow { metric: "cache: average TPI reduction".into(), paper: 0.09, measured: cache.tpi_reduction },
            HeadlineRow { metric: "cache: stereo TPI reduction".into(), paper: 0.46, measured: cache.stereo_tpi_reduction },
            HeadlineRow { metric: "cache: stereo TPImiss reduction".into(), paper: 0.65, measured: cache.stereo_tpimiss_reduction },
            HeadlineRow { metric: "cache: appcg TPI reduction".into(), paper: 0.22, measured: cache.appcg_tpi_reduction },
            HeadlineRow { metric: "cache: compress TPImiss reduction".into(), paper: 0.43, measured: cache.compress_tpimiss_reduction },
            HeadlineRow { metric: "queue: average TPI reduction".into(), paper: 0.07, measured: queue.tpi_reduction },
            HeadlineRow { metric: "queue: appcg TPI reduction".into(), paper: 0.28, measured: queue.appcg_tpi_reduction },
            HeadlineRow { metric: "queue: fpppp TPI reduction".into(), paper: 0.21, measured: queue.fpppp_tpi_reduction },
            HeadlineRow { metric: "queue: radar TPI reduction".into(), paper: 0.10, measured: queue.radar_tpi_reduction },
            HeadlineRow { metric: "queue: compress TPI reduction".into(), paper: 0.08, measured: queue.compress_tpi_reduction },
        ];
        println!("{:<38} {:>8} {:>10}", "metric", "paper", "measured");
        for r in &rows {
            println!("{:<38} {:>7.0}% {:>9.1}%", r.metric, r.paper * 100.0, r.measured * 100.0);
        }
        emit_json("headline", &rows);
        Ok(())
    });
}
