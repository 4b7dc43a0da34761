//! Helper binary behind `perfbench/run.py`.
//!
//! - `serve-load`: the closed loop of the serve-warm workload, calling
//!   `cap_core::serve::submit` from client threads.
//! - `trace`: the traced run, which rebuilds every workload's op from the
//!   layers' public functions and prints per-layer metrics.
//!
//! Each command prints one JSON object on stdout.

mod compose;
mod load;
mod spans;

use cap_core::experiments::ExperimentScale;
use std::collections::HashMap;
use std::path::PathBuf;

const USAGE: &str = "usage: perfbench serve-load --addr A --seed S --clients C --ops N [--warmup W] [--expect FILE] [--hits H]
       perfbench trace --workload W --seed S --rounds R --capsim PATH --work DIR --jobs J [--spans FILE]";

/// `--name value` pairs.
pub struct Flags(HashMap<String, String>);

impl Flags {
    fn parse_args(args: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected `{flag}`\n{USAGE}"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("--{name} wants a value\n{USAGE}"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    pub fn opt(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    pub fn get(&self, name: &str) -> Result<&str, String> {
        self.opt(name)
            .ok_or_else(|| format!("missing --{name}\n{USAGE}"))
    }

    pub fn parse<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.get(name)?;
        v.parse()
            .map_err(|_| format!("--{name}: cannot parse `{v}`"))
    }

    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.opt(name) {
            Some(_) => self.parse(name),
            None => Ok(default),
        }
    }
}

pub fn json_str(s: &str) -> String {
    serde_json::to_string(&serde_json::Value::String(s.to_string()))
        .unwrap_or_else(|_| "\"?\"".to_string())
}

pub fn json_list(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}

fn trace(flags: &Flags) -> Result<String, String> {
    let setup = compose::Setup {
        workload: flags.get("workload")?.to_string(),
        scale: ExperimentScale::from_env().map_err(|e| e.to_string())?,
        seed: flags.parse("seed")?,
        jobs: flags.parse("jobs")?,
        rounds: flags.parse::<usize>("rounds")?.max(1),
        // Absolute, because `capsim` runs with its scratch directory as cwd.
        capsim: std::fs::canonicalize(flags.get("capsim")?)
            .map_err(|e| format!("--capsim: {e}"))?,
        work: PathBuf::from(flags.get("work")?),
    };
    if !matches!(
        setup.workload.as_str(),
        "sweep-cold" | "managed-intervals" | "serve-warm"
    ) {
        return Err(format!("unknown workload `{}`", setup.workload));
    }
    let outcome = compose::run(&setup)?;
    if let Some(path) = flags.opt("spans") {
        std::fs::write(path, spans::to_jsonl(&outcome.spans))
            .map_err(|e| format!("--spans {path}: {e}"))?;
    }
    let metrics = outcome.metrics.iter().map(|(name, v)| {
        format!(
            "{}:{}",
            json_str(name),
            if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            }
        )
    });
    Ok(format!(
        "{{\"errors\":{},\"metrics\":{{{}}}}}",
        json_list(outcome.errors.iter().map(|e| json_str(e))),
        metrics.collect::<Vec<_>>().join(",")
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "serve-load" => {
            Flags::parse_args(rest).and_then(|f| load::main(&f))
        }
        Some((cmd, rest)) if cmd == "trace" => Flags::parse_args(rest).and_then(|f| trace(&f)),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
