//! Shared harness for the figure-regeneration and study binaries.
//!
//! Every `figNN` binary prints the data series of one figure of the
//! paper. Scale is selected with the `CAP_SCALE` environment variable
//! (`smoke` / `default` / `full`); setting `CAP_JSON_DIR` additionally
//! writes each result as a JSON file for machine consumption (this is how
//! `EXPERIMENTS.md` is produced).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cap_core::experiments::{ExecPolicy, ExperimentScale, RunFlags};
use cap_core::CapError;
use serde::Serialize;
use std::path::PathBuf;

/// Runs one figure binary end to end: parse `--jobs`, resolve the
/// scale, print the banner, then hand control to the figure body.
///
/// This is the whole `main()` of every `figNN` binary — argument and
/// environment validation exit 2 before any output, and a body error
/// exits 1 with a clean message instead of a panic backtrace. The body
/// receives the shared [`ExecPolicy`] (jobs, cache, tracing) and the
/// [`ExperimentScale`], and prints the figure's bytes itself.
pub fn run(
    figure: &str,
    what: &str,
    body: impl FnOnce(&ExecPolicy, ExperimentScale) -> Result<(), CapError>,
) {
    let exec = exec_from_args();
    let scale = scale();
    banner(figure, what);
    if let Err(e) = body(&exec, scale) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// The experiment scale selected by `CAP_SCALE` (default: `default`).
///
/// Exits with status 2 and a message naming `CAP_SCALE` when the
/// variable holds anything but a known tier name — a figure silently
/// regenerated at the wrong scale is worse than a loud failure.
pub fn scale() -> ExperimentScale {
    match ExperimentScale::from_env() {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// The execution policy for a figure binary: `--jobs N` from the
/// command line (falling back to `CAP_JOBS`, then the machine's
/// parallelism), with result memoization only when `CAP_CACHE_DIR` is
/// set and tracing only when `CAP_TRACE` is set. None of these knobs
/// change the figure's bytes — only wall-clock (and the trace file).
///
/// Exits with status 2 and a usage message on any unrecognized or
/// malformed argument, or on a malformed environment (`CAP_JOBS` that
/// is not a positive integer, `CAP_TRACE` path that cannot be created).
pub fn exec_from_args() -> ExecPolicy {
    let jobs = match parse_jobs(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(jobs) => jobs,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("usage: {} [--jobs N]", std::env::args().next().unwrap_or_default());
            std::process::exit(2);
        }
    };
    match ExecPolicy::from_env(&RunFlags { jobs, ..RunFlags::default() }) {
        Ok(exec) => exec,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// Parses a figure binary's argument list (only `--jobs N` is accepted).
///
/// # Errors
///
/// Describes the offending argument.
pub fn parse_jobs(args: &[String]) -> Result<Option<usize>, String> {
    let mut jobs = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                let v = it.next().ok_or("--jobs wants a value")?;
                jobs = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--jobs wants a positive integer, got `{v}`"))?,
                );
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(jobs)
}

/// Writes `value` as pretty JSON to `$CAP_JSON_DIR/<name>.json` when
/// `CAP_JSON_DIR` is set; silently does nothing otherwise.
///
/// Exits with status 1 and a message naming `CAP_JSON_DIR` if the
/// directory is set but cannot be created or written — the harness
/// treats a half-written result set as worse than a loud failure, and a
/// clean error beats a panic backtrace.
pub fn emit_json<T: Serialize>(name: &str, value: &T) {
    let Ok(dir) = std::env::var("CAP_JSON_DIR") else {
        return;
    };
    let mut path = PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&path) {
        fail_emit("CAP_JSON_DIR", &path, &e);
    }
    path.push(format!("{name}.json"));
    let data = serde_json::to_string_pretty(value).expect("results serialize");
    if let Err(e) = std::fs::write(&path, data) {
        fail_emit("CAP_JSON_DIR", &path, &e);
    }
}

/// Writes CSV text to `$CAP_CSV_DIR/<name>.csv` when `CAP_CSV_DIR` is
/// set; silently does nothing otherwise.
///
/// Exits with status 1 and a message naming `CAP_CSV_DIR` if the
/// directory is set but cannot be created or written.
pub fn emit_csv(name: &str, csv: &str) {
    let Ok(dir) = std::env::var("CAP_CSV_DIR") else {
        return;
    };
    let mut path = PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&path) {
        fail_emit("CAP_CSV_DIR", &path, &e);
    }
    path.push(format!("{name}.csv"));
    if let Err(e) = std::fs::write(&path, csv) {
        fail_emit("CAP_CSV_DIR", &path, &e);
    }
}

fn fail_emit(var: &str, path: &std::path::Path, e: &std::io::Error) -> ! {
    eprintln!("error: {var} points at `{}` which cannot be written: {e}", path.display());
    std::process::exit(1);
}

/// Prints a standard header naming the paper artifact being regenerated.
pub fn banner(figure: &str, what: &str) {
    println!("== {figure} — {what}");
    println!("   (Albonesi, \"Dynamic IPC/Clock Rate Optimization\", ISCA 1998)");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes the tests that set or remove the process-global
    /// `CAP_JSON_DIR` / `CAP_CSV_DIR` variables: the test harness runs
    /// them on parallel threads.
    fn env_lock() -> MutexGuard<'static, ()> {
        static ENV: Mutex<()> = Mutex::new(());
        ENV.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn emit_json_writes_when_dir_set() {
        let _env = env_lock();
        let dir = std::env::temp_dir().join(format!("cap-bench-test-{}", std::process::id()));
        std::env::set_var("CAP_JSON_DIR", &dir);
        emit_json("probe", &vec![1, 2, 3]);
        std::env::remove_var("CAP_JSON_DIR");
        let contents = std::fs::read_to_string(dir.join("probe.json")).unwrap();
        assert!(contents.contains('2'));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn emit_csv_writes_when_dir_set() {
        let _env = env_lock();
        let dir = std::env::temp_dir().join(format!("cap-bench-csv-{}", std::process::id()));
        std::env::set_var("CAP_CSV_DIR", &dir);
        emit_csv("probe", "a,b\n1,2\n");
        std::env::remove_var("CAP_CSV_DIR");
        let contents = std::fs::read_to_string(dir.join("probe.csv")).unwrap();
        assert!(contents.contains("1,2"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn emit_json_noop_without_dir() {
        let _env = env_lock();
        std::env::remove_var("CAP_JSON_DIR");
        emit_json("never-written", &1);
    }
}
