//! Recorder sinks: JSONL file output and an in-memory ring buffer.

use crate::{Event, Recorder};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Records each event as one JSON line in a file.
///
/// Lines are flushed as they are written so the trace is complete even if
/// the process exits abruptly. Write errors after creation are swallowed
/// (tracing must never take down a simulation); creation errors are
/// reported so a mistyped path fails fast.
pub struct JsonlRecorder {
    path: PathBuf,
    out: Mutex<BufWriter<File>>,
}

impl JsonlRecorder {
    /// Create (or truncate) `path` and return a recorder writing to it.
    ///
    /// # Errors
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(JsonlRecorder {
            path,
            out: Mutex::new(BufWriter::new(file)),
        })
    }

    /// The file this recorder writes to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl fmt::Debug for JsonlRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlRecorder")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, event: &Event) {
        let mut line = event.to_json();
        line.push('\n');
        if let Ok(mut out) = self.out.lock() {
            let _ = out.write_all(line.as_bytes());
            let _ = out.flush();
        }
    }
}

/// Keeps the most recent events in memory; the test-suite sink.
#[derive(Debug, Default)]
pub struct RingRecorder {
    capacity: usize,
    events: Mutex<Vec<Event>>,
}

impl RingRecorder {
    /// An unbounded recorder (capacity 0 means "keep everything").
    #[must_use]
    pub fn new() -> Self {
        RingRecorder::default()
    }

    /// A recorder that retains only the latest `capacity` events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        RingRecorder {
            capacity,
            events: Mutex::new(Vec::new()),
        }
    }

    /// Snapshot of the retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().map(|e| e.clone()).unwrap_or_default()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().map(|e| e.len()).unwrap_or_default()
    }

    /// Whether no events have been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Recorder for RingRecorder {
    fn record(&self, event: &Event) {
        if let Ok(mut events) = self.events.lock() {
            events.push(event.clone());
            if self.capacity > 0 && events.len() > self.capacity {
                let drop = events.len() - self.capacity;
                events.drain(..drop);
            }
        }
    }
}

/// The trace recorder a run asked for: the `--trace` path when one is
/// given, in which case `CAP_TRACE` is never read, else `CAP_TRACE`.
///
/// Neither set means tracing stays off (`Ok(None)`). A path that cannot
/// be created is a hard error so a mistyped directory does not silently
/// discard the trace the user asked for.
///
/// # Errors
/// Returns a human-readable message naming the flag or the variable, the
/// path and the underlying I/O failure.
pub fn resolve_recorder(flag: Option<&Path>) -> Result<Option<Arc<dyn Recorder>>, String> {
    let created = |path: &Path| JsonlRecorder::create(path).map(|rec| Some(Arc::new(rec) as _));
    match flag {
        Some(path) => created(path)
            .map_err(|e| format!("--trace: `{}` cannot be created: {e}", path.display())),
        None => match std::env::var_os("CAP_TRACE") {
            None => Ok(None),
            Some(raw) => {
                let path = PathBuf::from(raw);
                created(&path).map_err(|e| {
                    format!("CAP_TRACE is set but `{}` cannot be created: {e}", path.display())
                })
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProbationEvent, SampleEvent};

    fn sample(i: u64) -> Event {
        Event::Sample(SampleEvent {
            app: None,
            interval: i,
            cycles: i * 10,
            insts: i * 25,
        })
    }

    #[test]
    fn ring_recorder_retains_latest_events() {
        let ring = RingRecorder::with_capacity(3);
        for i in 1..=5 {
            ring.record(&sample(i));
        }
        let got: Vec<u64> = ring
            .events()
            .iter()
            .map(|e| match e {
                Event::Sample(s) => s.interval,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, vec![3, 4, 5]);
        assert!(ring.enabled());
    }

    #[test]
    fn unbounded_ring_keeps_everything() {
        let ring = RingRecorder::new();
        assert!(ring.is_empty());
        for i in 0..100 {
            ring.record(&sample(i));
        }
        assert_eq!(ring.len(), 100);
    }

    #[test]
    fn jsonl_recorder_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join("cap-obs-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.jsonl");
        let rec = JsonlRecorder::create(&path).expect("create trace");
        rec.record(&sample(1));
        rec.record(&Event::Probation(ProbationEvent {
            app: Some("radar".into()),
            interval: 2,
            config: 1,
        }));
        let text = std::fs::read_to_string(rec.path()).expect("read trace");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            serde_json::from_str(line).expect("line parses");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_recorder_rejects_uncreatable_path() {
        assert!(JsonlRecorder::create("/definitely/not/a/dir/t.jsonl").is_err());
    }
}
