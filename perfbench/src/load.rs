//! The served workload's closed loop: client threads, one connection per
//! request, each client sending its next request only after the reply to
//! the previous one.

use crate::{json_list, json_str, Flags};
use cap_core::serve;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    failed: u64,
    cache_hits: u64,
    computed: u64,
    errors: Vec<String>,
}

pub fn main(flags: &Flags) -> Result<String, String> {
    let addr = flags.get("addr")?;
    let seed = flags.get("seed")?;
    let clients: usize = flags.parse("clients")?;
    let ops: usize = flags.parse("ops")?;
    let warmup: usize = flags.parse_or("warmup", 0)?;
    let expected = match flags.opt("expect") {
        Some(path) => {
            Some(std::fs::read_to_string(path).map_err(|e| format!("--expect {path}: {e}"))?)
        }
        None => None,
    };
    let hits: Option<u64> = flags
        .opt("hits")
        .map(|h| h.parse().map_err(|_| "--hits wants a count".to_string()))
        .transpose()?;
    let campaign: Vec<String> = vec!["figures".into(), "--seed".into(), seed.to_string()];

    let tally = Mutex::new(Tally::default());
    let one_op = || {
        let start = Instant::now();
        let outcome = serve::submit(addr, &campaign);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let verdict = match &outcome {
            Err(e) => Err(e.clone()),
            Ok(out) if expected.as_ref().is_some_and(|e| *e != out.report) => {
                Err("served report differs from the reference".to_string())
            }
            Ok(out)
                if hits.is_some_and(|h| out.stats.cache_hits != h || out.stats.computed != 0) =>
            {
                Err(format!(
                    "expected {} cache hits and 0 computed, got {} and {}",
                    hits.unwrap_or(0),
                    out.stats.cache_hits,
                    out.stats.computed
                ))
            }
            Ok(_) => Ok(()),
        };
        let mut t = tally
            .lock()
            .expect("a client thread panicked while holding the tally");
        if let Ok(out) = &outcome {
            t.cache_hits += out.stats.cache_hits;
            t.computed += out.stats.computed;
        }
        match verdict {
            Ok(()) => t.latencies_ms.push(ms),
            Err(e) => {
                t.failed += 1;
                if t.errors.len() < 5 {
                    t.errors.push(e);
                }
            }
        }
    };

    for _ in 0..warmup {
        one_op();
    }
    // Warm-up ops are neither timed nor counted; the timed ops that
    // follow carry the same checks.
    *tally.lock().expect("no client thread runs yet") = Tally::default();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| {
                while next.fetch_add(1, Ordering::Relaxed) < ops {
                    one_op();
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let t = tally.into_inner().expect("every client thread has joined");
    Ok(format!(
        "{{\"attempted\":{ops},\"failed\":{},\"wall_s\":{wall_s},\"cache_hits\":{},\"computed\":{},\"latencies_ms\":{},\"errors\":{}}}",
        t.failed,
        t.cache_hits,
        t.computed,
        json_list(t.latencies_ms.iter().map(f64::to_string)),
        json_list(t.errors.iter().map(|e| json_str(e))),
    ))
}
