//! The `json/derive-roundtrip` property. Every cached, journaled or
//! served JSON shape is a struct deriving `Serialize` and `FromJson`, so
//! per case a random document of each of seven shapes must decode, and
//! the value must re-emit the same bytes. Single-byte corruptions of the
//! text (read as lossy UTF-8) must fail to parse, decode to `None`, or
//! decode to a value the emitter round-trips: byte-identity with the
//! corrupted text cannot be asked, since JSON admits spellings the
//! emitter never writes (`1e0` for `1.0`, a space before a comma).
//! Arbitrary input must never panic `serde_json::from_str`, and any
//! document it accepts must re-emit to text that parses back to it.

use crate::rng::Rng;
use cap_core::experiments::{CacheCurve, CachePoint, PolicyRow, QueueCurve, QueuePoint};
use cap_core::extended::{CombinedPoint, CombinedStudy};
use cap_core::faults::{FaultStats, LegReport};
use cap_core::manager::ResilienceStats;
use cap_core::plan::RunStats;
use cap_core::serve::ServeSummary;
use cap_obs::DecisionCounts;
use serde::Serialize;
use serde_json::{FromJson, Value};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Single-byte corruptions tried per value per case.
const FLIPS_PER_VALUE: usize = 8;

/// Longest arbitrary input fed to the parser.
const MAX_FUZZ_BYTES: u64 = 64;

/// Checks every shape once, then the parser on one arbitrary input.
///
/// # Errors
///
/// Names the shape and the text on the first violation.
pub fn derive_roundtrip(rng: &mut Rng) -> Result<(), String> {
    // One instance of each shape, with one element in every list: the
    // documents are random values of the same shape.
    let cache = CacheCurve {
        app: String::new(),
        integer_panel: false,
        points: vec![CachePoint {
            l1_kb: 0,
            l1_assoc: 0,
            cycle_ns: 0.0,
            tpi_ns: 0.0,
            tpi_miss_ns: 0.0,
            l1_miss_ratio: 0.0,
            global_miss_ratio: 0.0,
        }],
    };
    roundtrip("CacheCurve", &cache, rng)?;
    let point = QueuePoint { entries: 0, cycle_ns: 0.0, ipc: 0.0, tpi_ns: 0.0 };
    let queue = QueueCurve { app: String::new(), integer_panel: false, points: vec![point] };
    roundtrip("QueueCurve", &queue, rng)?;
    let row = PolicyRow { policy: String::new(), tpi_ns: 0.0, switches: 0 };
    roundtrip("PolicyRow", &row, rng)?;
    let leg = LegReport {
        structure: String::new(),
        clean_tpi_ns: 0.0,
        faulty_tpi_ns: 0.0,
        tpi_degradation: 0.0,
        clean_switches: 0,
        faulty_switches: 0,
        retries: 0,
        retry_penalty_ns: 0.0,
        switch_failures: 0,
        faults: FaultStats::default(),
        resilience: ResilienceStats::default(),
        decisions: DecisionCounts::default(),
        quarantined_configs: 0,
        safe_mode: false,
        final_config: 0,
        final_config_label: String::new(),
        final_config_quarantined: false,
    };
    roundtrip("LegReport", &leg, rng)?;
    let point = CombinedPoint { l1_kb: 0, entries: 0, cycle_ns: 0.0, tpi_ns: 0.0 };
    let study =
        CombinedStudy { app: String::new(), points: vec![point], solo_cache_kb: 0, solo_window: 0 };
    roundtrip("CombinedStudy", &study, rng)?;
    roundtrip("RunStats", &RunStats::default(), rng)?;
    roundtrip("ServeSummary", &ServeSummary::default(), rng)?;
    parser_survives(rng)
}

/// A random document of `template`'s shape: every leaf redrawn (an
/// `f64` is emitted with a `.` or an exponent, an integer without), and
/// every list 0–4 copies of its first element's shape.
fn randomized(template: &Value, rng: &mut Rng) -> Value {
    match template {
        Value::Null => Value::Null,
        Value::Bool(_) => Value::Bool(rng.chance(0.5)),
        Value::Number(raw) if raw.contains(['.', 'e']) => Value::Number(emit(&float(rng))),
        Value::Number(_) => Value::Number(wide(rng).to_string()),
        Value::String(_) => Value::String(string(rng)),
        Value::Array(items) => match items.first() {
            Some(item) => Value::Array((0..rng.below(5)).map(|_| randomized(item, rng)).collect()),
            None => Value::Array(Vec::new()),
        },
        Value::Object(pairs) => {
            Value::Object(pairs.iter().map(|(k, v)| (k.clone(), randomized(v, rng))).collect())
        }
    }
}

/// A finite float of any magnitude and sign, including exact integers
/// and `-0.0` (non-finite floats are written as `null` and are not
/// values any result holds).
fn float(rng: &mut Rng) -> f64 {
    match rng.below(5) {
        0 => rng.unit() * 100.0,
        1 => -(rng.range(0, 1 << 20) as f64),
        2 => f64::from_bits(rng.next_u64() & !(0x7ff << 52) | (rng.range(1, 0x7fe) << 52)),
        3 => -0.0,
        _ => rng.unit() * 1e-9,
    }
}

fn wide(rng: &mut Rng) -> u64 {
    match rng.below(3) {
        0 => rng.below(100),
        1 => u64::MAX - rng.below(3),
        _ => rng.next_u64(),
    }
}

/// A string over an alphabet of JSON's escapes, a control character
/// and multi-byte scalars.
fn string(rng: &mut Rng) -> String {
    const ALPHABET: [&str; 10] = ["a", "Z", "7", " ", "\"", "\\", "\n", "\u{1}", "é", "π/2"];
    (0..rng.below(8)).map(|_| *rng.pick(&ALPHABET)).collect()
}

/// Parses and decodes `text`, catching any panic as an error.
fn decode<T: FromJson>(text: &str) -> Result<Option<T>, String> {
    catch_unwind(AssertUnwindSafe(|| serde_json::from_str(text).ok().and_then(|v| T::from_json(&v))))
        .map_err(|_| format!("decoding panicked on {text:?}"))
}

fn emit<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("vendored serializer is infallible")
}

fn roundtrip<T>(shape: &str, template: &T, rng: &mut Rng) -> Result<(), String>
where
    T: Serialize + FromJson + PartialEq + Debug,
{
    let doc = emit(&randomized(&serde_json::to_value(template).expect("emitted JSON parses"), rng));
    let value = decode::<T>(&doc)?.ok_or_else(|| format!("{shape}: {doc} does not decode"))?;
    let text = emit(&value);
    match decode::<T>(&text)? {
        Some(back) if back == value && emit(&back) == text => {}
        other => return Err(format!("{shape}: {text} decoded to {other:?}")),
    }
    let mut bytes = text.into_bytes();
    for _ in 0..FLIPS_PER_VALUE {
        let at = rng.below(bytes.len() as u64) as usize;
        let was = bytes[at];
        bytes[at] = was ^ rng.range(1, 255) as u8;
        let flipped = String::from_utf8_lossy(&bytes).into_owned();
        bytes[at] = was;
        let Some(decoded) = decode::<T>(&flipped)? else { continue };
        let again = emit(&decoded);
        match decode::<T>(&again)? {
            Some(back) if back == decoded && emit(&back) == again => {}
            other => {
                return Err(format!(
                    "{shape}: corrupted {flipped} decoded to {decoded:?}, whose text {again} decodes to {other:?}"
                ))
            }
        }
    }
    Ok(())
}

/// `from_str` on arbitrary input: never a panic, and an accepted
/// document is stable under re-emission.
fn parser_survives(rng: &mut Rng) -> Result<(), String> {
    const JSONISH: &[u8] = b"{}[]\":, 0123456789.eE+-\\utrfalsn";
    let bytes: Vec<u8> = (0..rng.below(MAX_FUZZ_BYTES + 1))
        .map(|_| if rng.chance(0.7) { *rng.pick(JSONISH) } else { rng.below(256) as u8 })
        .collect();
    let text = String::from_utf8_lossy(&bytes).into_owned();
    let parse = |t: &str| {
        catch_unwind(AssertUnwindSafe(|| serde_json::from_str(t).ok()))
            .map_err(|_| format!("from_str panicked on {t:?}"))
    };
    let Some(doc): Option<Value> = parse(&text)? else { return Ok(()) };
    let again = emit(&doc);
    match parse(&again)? {
        Some(back) if back == doc => Ok(()),
        other => Err(format!("{text:?} parsed to {doc:?}, whose text {again} parses to {other:?}")),
    }
}
