//! The write-ahead leg journal: crash-safe campaign progress.
//!
//! A sweep or fault campaign is a sequence of *legs* (one curve, one
//! fault-campaign structure). The journal records each completed leg's
//! result as one JSONL entry, so a killed run can be resumed with
//! `capsim sweep --resume` / `capsim faults --resume`: journaled legs
//! replay byte-identically (the vendored JSON reader/writer round-trips
//! `f64` exactly) and only the remainder is recomputed.
//!
//! **File format** (version [`JOURNAL_FORMAT_VERSION`]): line 1 is a
//! header binding the journal to one experiment identity —
//! `{"journal":"cap-leg-journal","format":F,"experiment":E,"seed":S,`
//! `"scale":C,"policy":P,"results_version":V}` — and every later line
//! is `{"leg":<canonical key>,"sum":"<fnv64 hex>","value":<result>}`.
//! The checksum covers the value's exact serialized text, so a torn or
//! bit-rotted entry is detected and recomputed rather than trusted.
//!
//! **Durability**: every append rewrites the whole journal to a temp
//! file and renames it over the old one. Entries are small and few
//! (tens per campaign), and the rename makes each leg boundary an
//! atomic commit point — a kill between legs never leaves a torn file.
//! That same property is what `CAP_CHAOS_KILL_AFTER_LEG=n` exploits:
//! the journal exits the process with [`CHAOS_KILL_EXIT`] right after
//! the `n`-th append, simulating preemption exactly at a leg boundary.
//!
//! **Single writer, enforced.** The whole-file-rewrite scheme is only
//! crash-safe with one writer: two processes appending to the same
//! journal would take turns renaming over each other's view and
//! silently lose legs. [`Journal::begin`] therefore holds an exclusive
//! OS file lock ([`std::fs::File::try_lock`]) on `<journal>.lock` for
//! the journal's lifetime, and writes its PID into the file for the
//! error message. A second writer fails fast with an error naming the
//! holder instead of corrupting anything. The operating system drops
//! the lock when its holder exits, however it exits, so the file a
//! chaos kill or a crashed campaign leaves behind is simply locked
//! again by the next `begin`: `--resume` after a crash needs no manual
//! cleanup. The lock file itself is never deleted, since two writers
//! that each locked a different inode under the same name would not
//! exclude each other.

use crate::cache::fnv64;
use serde::Serialize;
use serde_json::{FromJson, Value};
use std::collections::HashMap;
use std::fs::{File, TryLockError};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

/// Bump when the journal file layout changes.
pub const JOURNAL_FORMAT_VERSION: u32 = 1;

/// Exit code used by the simulated chaos kill (`CAP_CHAOS_KILL_AFTER_LEG`),
/// distinct from every real exit path so tests can assert on it.
pub const CHAOS_KILL_EXIT: i32 = 86;

/// The identity a journal is bound to; resuming under a different
/// identity is a hard error, not a silent replay of foreign results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Experiment kind, e.g. `"sweep-all"` or `"faults-radar"`.
    pub experiment: String,
    /// Root seed of the campaign.
    pub seed: u64,
    /// Experiment scale name (`smoke` / `default` / `full`).
    pub scale: String,
    /// Configuration-management policy, when one applies.
    pub policy: Option<String>,
    /// The caller's semantic results version (`SWEEP_RESULTS_VERSION`).
    pub results_version: u32,
}

/// The journal's first line: its tag and format version, then the
/// [`JournalHeader`] fields, in this order.
#[derive(Serialize, FromJson)]
struct HeaderLine {
    journal: String,
    format: u32,
    experiment: String,
    seed: u64,
    scale: String,
    policy: Option<String>,
    results_version: u32,
}

/// The tag that opens every journal's first line.
const JOURNAL_TAG: &str = "cap-leg-journal";

impl JournalHeader {
    fn to_line(&self) -> String {
        let h = self.clone();
        let line = HeaderLine {
            journal: JOURNAL_TAG.to_string(),
            format: JOURNAL_FORMAT_VERSION,
            experiment: h.experiment,
            seed: h.seed,
            scale: h.scale,
            policy: h.policy,
            results_version: h.results_version,
        };
        serde_json::to_string(&line).expect("vendored serializer is infallible")
    }

    fn parse_line(line: &str) -> Option<(u32, JournalHeader)> {
        let h = HeaderLine::from_json(&serde_json::from_str(line).ok()?)?;
        let header = JournalHeader {
            experiment: h.experiment,
            seed: h.seed,
            scale: h.scale,
            policy: h.policy,
            results_version: h.results_version,
        };
        (h.journal == JOURNAL_TAG).then_some((h.format, header))
    }
}

/// One journal entry's serialized line. The prefix is reconstructed
/// from the parsed fields on read, so the checksum provably covers the
/// exact value text (see [`entry_value_text`]).
fn entry_line(leg: &str, value_text: &str) -> String {
    let mut s = String::from("{\"leg\":");
    serde::write_json_string(&mut s, leg);
    s.push_str(&format!(",\"sum\":\"{:016x}\",\"value\":", fnv64(value_text)));
    s.push_str(value_text);
    s.push('}');
    s
}

/// Extracts and verifies the checksummed value text of one entry line.
/// Returns `(leg, value_text)` or `None` for any structural or checksum
/// deviation.
fn parse_entry(line: &str) -> Option<(String, String)> {
    let doc: Value = serde_json::from_str(line).ok()?;
    let leg = doc.get("leg").and_then(Value::as_str)?.to_string();
    let sum = doc.get("sum").and_then(Value::as_str)?;
    let mut prefix = String::from("{\"leg\":");
    serde::write_json_string(&mut prefix, &leg);
    prefix.push_str(&format!(",\"sum\":\"{sum}\",\"value\":"));
    let value_text = line.strip_prefix(prefix.as_str())?.strip_suffix('}')?;
    if format!("{:016x}", fnv64(value_text)) != sum {
        return None;
    }
    Some((leg, value_text.to_string()))
}

/// The single-writer lock guarding one journal path: an exclusive OS
/// lock on `<journal>.lock`, held until dropped. The file holds the
/// holder's PID while locked and is emptied on release.
#[derive(Debug)]
struct JournalLock {
    file: File,
}

impl JournalLock {
    /// Locks `<journal>.lock`, creating it if needed, and writes our PID
    /// into it. A lock held by another writer — another process, or
    /// another `Journal` of this one — is a hard error naming its PID.
    fn acquire(journal_path: &Path) -> Result<JournalLock, String> {
        let file_name =
            journal_path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let path = journal_path.with_file_name(format!("{file_name}.lock"));
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create journal directory {}: {e}", dir.display()))?;
        }
        let cannot = |e: std::io::Error| format!("cannot lock journal {}: {e}", path.display());
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(cannot)?;
        match file.try_lock() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => {
                let mut text = String::new();
                let _ = file.read_to_string(&mut text);
                let who = text.trim().parse::<u32>().map_or_else(
                    |_| String::from("an unidentified process"),
                    |pid| format!("pid {pid}"),
                );
                return Err(format!(
                    "{}: journal is locked by {who} — a second writer would corrupt it; wait for that run to finish",
                    journal_path.display(),
                ));
            }
            Err(TryLockError::Error(e)) => return Err(cannot(e)),
        }
        file.set_len(0).map_err(cannot)?;
        file.write_all(std::process::id().to_string().as_bytes()).map_err(cannot)?;
        Ok(JournalLock { file })
    }
}

impl Drop for JournalLock {
    /// Empties the file while still holding the lock; closing the file
    /// then releases it.
    fn drop(&mut self) {
        let _ = self.file.set_len(0);
    }
}

/// A write-ahead journal of completed campaign legs.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    header: JournalHeader,
    /// `(leg, value_text)` in append order; rewritten verbatim on each
    /// append so a resumed journal stays byte-stable.
    entries: Vec<(String, String)>,
    index: HashMap<String, usize>,
    replayable: usize,
    appends: u64,
    kill_after: Option<u64>,
    dropped: usize,
    /// Held for the journal's whole lifetime; the OS releases it when
    /// the journal is dropped or the process exits.
    _lock: JournalLock,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for the given identity.
    ///
    /// With `resume` false any existing file is discarded and a fresh
    /// header is committed. With `resume` true an existing file must
    /// carry a matching header (else a hard error naming the journal);
    /// its entries are loaded — corrupt or truncated lines are dropped
    /// and recomputed — and the file is rewritten compacted. A missing
    /// file resumes as an empty journal.
    ///
    /// # Errors
    /// Header/format mismatch, an invalid `CAP_CHAOS_KILL_AFTER_LEG`
    /// value, an unwritable journal path, or a journal already locked by
    /// another writer (see the module docs on single-writer enforcement).
    pub fn begin(path: impl Into<PathBuf>, header: JournalHeader, resume: bool) -> Result<Self, String> {
        let path = path.into();
        let lock = JournalLock::acquire(&path)?;
        let kill_after = match std::env::var_os("CAP_CHAOS_KILL_AFTER_LEG") {
            None => None,
            Some(raw) => {
                let text = raw.to_string_lossy();
                match text.parse::<u64>() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => {
                        return Err(format!(
                            "CAP_CHAOS_KILL_AFTER_LEG must be a positive integer, got `{text}`"
                        ))
                    }
                }
            }
        };
        let mut journal = Journal {
            path,
            header,
            entries: Vec::new(),
            index: HashMap::new(),
            replayable: 0,
            appends: 0,
            kill_after,
            dropped: 0,
            _lock: lock,
        };
        if resume {
            journal.load_existing()?;
        }
        journal.flush()?;
        Ok(journal)
    }

    fn load_existing(&mut self) -> Result<(), String> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(t) => t,
            // Nothing to resume: start empty (the caller is told via len()).
            Err(_) => return Ok(()),
        };
        let mut lines = text.split_inclusive('\n');
        let Some(first) = lines.next() else { return Ok(()) };
        let Some((format, found)) = JournalHeader::parse_line(first.trim_end_matches('\n')) else {
            return Err(format!("{}: not a cap leg journal", self.path.display()));
        };
        if format != JOURNAL_FORMAT_VERSION {
            return Err(format!(
                "{}: journal format v{format}, this binary writes v{JOURNAL_FORMAT_VERSION} — start a fresh run without --resume",
                self.path.display()
            ));
        }
        if found != self.header {
            return Err(format!(
                "{}: journal belongs to a different run (found experiment={} seed={:#x} scale={} policy={} results_version={}) — start a fresh run without --resume",
                self.path.display(),
                found.experiment,
                found.seed,
                found.scale,
                found.policy.as_deref().unwrap_or("-"),
                found.results_version,
            ));
        }
        for line in lines {
            let complete = line.ends_with('\n');
            let line = line.trim_end_matches('\n');
            if line.is_empty() {
                continue;
            }
            // A final line without its newline is the signature of a torn
            // write; it and any unparseable line are dropped (recomputed),
            // never trusted.
            match parse_entry(line) {
                Some((leg, value_text)) if complete => self.push_entry(leg, value_text),
                _ => self.dropped += 1,
            }
        }
        self.replayable = self.entries.len();
        Ok(())
    }

    fn push_entry(&mut self, leg: String, value_text: String) {
        match self.index.get(&leg) {
            Some(&i) => self.entries[i] = (leg, value_text),
            None => {
                self.index.insert(leg.clone(), self.entries.len());
                self.entries.push((leg, value_text));
            }
        }
    }

    /// Rewrites the whole journal through a temp file + atomic rename.
    fn flush(&self) -> Result<(), String> {
        let dir = self.path.parent().filter(|d| !d.as_os_str().is_empty());
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create journal directory {}: {e}", dir.display()))?;
        }
        let mut text = self.header.to_line();
        text.push('\n');
        for (leg, value_text) in &self.entries {
            text.push_str(&entry_line(leg, value_text));
            text.push('\n');
        }
        let file_name = self.path.file_name().map(|n| n.to_string_lossy().into_owned());
        let tmp = self
            .path
            .with_file_name(format!(".tmp-{}-{}", file_name.unwrap_or_default(), std::process::id()));
        std::fs::write(&tmp, &text)
            .map_err(|e| format!("cannot write journal {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| format!("cannot commit journal {}: {e}", self.path.display()))
    }

    /// Looks up a completed leg's value. `None` means the leg must run.
    pub fn lookup(&self, leg: &str) -> Option<Value> {
        let &i = self.index.get(leg)?;
        serde_json::from_str(&self.entries[i].1).ok()
    }

    /// Records a completed leg and commits the journal to disk. If
    /// `CAP_CHAOS_KILL_AFTER_LEG=n` is set, the process exits with
    /// [`CHAOS_KILL_EXIT`] immediately after the `n`-th append — the
    /// journal is already durable at that point, which is the property
    /// under test.
    ///
    /// # Errors
    /// An unwritable journal: crash-safety is the journal's whole job,
    /// so failing to persist is a hard error, not best-effort.
    pub fn append<T: Serialize>(&mut self, leg: &str, value: &T) -> Result<(), String> {
        let mut value_text = String::new();
        value.json_into(&mut value_text);
        self.push_entry(leg.to_string(), value_text);
        self.flush()?;
        self.appends += 1;
        if self.kill_after.is_some_and(|n| self.appends >= n) {
            eprintln!(
                "chaos: simulated kill at leg boundary after {} append(s); resume with --resume",
                self.appends
            );
            std::process::exit(CHAOS_KILL_EXIT);
        }
        Ok(())
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// How many legs the journal currently holds.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal holds no legs yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many legs were loaded from disk at `begin` (the replayable
    /// prefix a `--resume` run starts from).
    pub fn replayed(&self) -> usize {
        self.replayable
    }

    /// Corrupt or truncated lines dropped while resuming.
    pub fn dropped(&self) -> usize {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cap-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("run.jsonl")
    }

    fn header() -> JournalHeader {
        JournalHeader {
            experiment: "sweep-queue".into(),
            seed: 0x15CA_1998,
            scale: "smoke".into(),
            policy: None,
            results_version: 1,
        }
    }

    #[test]
    fn append_then_resume_replays_identical_values() {
        let path = tmp_path("roundtrip");
        let mut j = Journal::begin(&path, header(), false).unwrap();
        j.append("leg-a", &vec![0.1f64, 1.0 / 3.0]).unwrap();
        j.append("leg-b", &vec![2.5f64]).unwrap();
        assert_eq!(j.len(), 2);
        drop(j);

        let j2 = Journal::begin(&path, header(), true).unwrap();
        assert_eq!(j2.len(), 2);
        assert_eq!(j2.replayed(), 2);
        assert_eq!(j2.dropped(), 0);
        let v = j2.lookup("leg-a").expect("replay");
        let xs = v.as_array().unwrap();
        assert_eq!(xs[1].as_f64().unwrap().to_bits(), (1.0f64 / 3.0).to_bits());
        assert!(j2.lookup("leg-c").is_none());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn fresh_begin_discards_an_existing_journal() {
        let path = tmp_path("fresh");
        let mut j = Journal::begin(&path, header(), false).unwrap();
        j.append("leg-a", &1u64).unwrap();
        drop(j);
        let j2 = Journal::begin(&path, header(), false).unwrap();
        assert!(j2.is_empty());
        assert!(j2.lookup("leg-a").is_none());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn resume_rejects_a_foreign_header() {
        let path = tmp_path("foreign");
        let mut j = Journal::begin(&path, header(), false).unwrap();
        j.append("leg-a", &1u64).unwrap();
        drop(j);
        for other in [
            JournalHeader { seed: 7, ..header() },
            JournalHeader { experiment: "sweep-cache".into(), ..header() },
            JournalHeader { scale: "full".into(), ..header() },
            JournalHeader { policy: Some("hysteresis".into()), ..header() },
            JournalHeader { results_version: 99, ..header() },
        ] {
            let err = Journal::begin(&path, other.clone(), true).expect_err("mismatch");
            assert!(err.contains("different run"), "{err}");
            assert!(err.contains("--resume"), "{err}");
        }
        // A refused begin must not keep its writer lock.
        drop(Journal::begin(&path, header(), false).expect("lock released"));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn resume_of_a_missing_journal_starts_empty() {
        let path = tmp_path("missing");
        let j = Journal::begin(&path, header(), true).unwrap();
        assert!(j.is_empty());
        assert_eq!(j.replayed(), 0);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn corrupt_and_truncated_lines_are_dropped_not_trusted() {
        let path = tmp_path("corrupt");
        let mut j = Journal::begin(&path, header(), false).unwrap();
        j.append("leg-a", &vec![1u64]).unwrap();
        j.append("leg-b", &vec![2u64]).unwrap();
        drop(j);
        // Flip a byte inside leg-b's value, then append a torn final line.
        let text = std::fs::read_to_string(&path).unwrap().replace("\"value\":[2]", "\"value\":[3]");
        std::fs::write(&path, text + "{\"leg\":\"leg-c\",\"sum\":\"00").unwrap();

        let j2 = Journal::begin(&path, header(), true).unwrap();
        assert_eq!(j2.len(), 1, "only the intact leg survives");
        assert_eq!(j2.dropped(), 2);
        assert!(j2.lookup("leg-a").is_some());
        assert!(j2.lookup("leg-b").is_none(), "checksum mismatch is never trusted");
        assert!(j2.lookup("leg-c").is_none());
        drop(j2);
        // And the compacted rewrite is loadable again, cleanly.
        let j3 = Journal::begin(&path, header(), true).unwrap();
        assert_eq!((j3.len(), j3.dropped()), (1, 0));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn any_single_byte_flip_is_survivable() {
        // Exhaustive fault model: every byte of the journal, every bit.
        // Whatever the flip hits — header, leg name, checksum, value,
        // newline — resume must either fail with a clean structural
        // error or come back with each surviving leg bit-identical to
        // what was written; re-appending the dropped legs must then
        // restore the clean run's exact values. The leg names are
        // pairwise more than one bit apart, so no flip can silently
        // turn one leg into another.
        let path = tmp_path("bitflip");
        let legs: [(&str, Vec<f64>); 3] = [
            ("alpha", vec![1.25, -0.5, 1.0 / 3.0]),
            ("bravo", vec![0.1, 3.0e17]),
            ("charlie", vec![-9.75]),
        ];
        let mut j = Journal::begin(&path, header(), false).unwrap();
        for (leg, value) in &legs {
            j.append(leg, value).unwrap();
        }
        drop(j);
        let clean = std::fs::read(&path).unwrap();
        let clean_bits: Vec<Vec<u64>> = {
            let reference = Journal::begin(&path, header(), true).unwrap();
            legs.iter()
                .map(|(leg, _)| {
                    reference
                        .lookup(leg)
                        .unwrap()
                        .as_array()
                        .unwrap()
                        .iter()
                        .map(|v| v.as_f64().unwrap().to_bits())
                        .collect()
                })
                .collect()
        };

        let flip_path = path.parent().unwrap().join("bitflip-case.jsonl");
        for offset in 0..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[offset] ^= 1 << bit;
                std::fs::write(&flip_path, &bytes).unwrap();
                let mut resumed = match Journal::begin(&flip_path, header(), true) {
                    // Header or encoding damage: a clean refusal is a
                    // correct outcome; nothing was silently trusted.
                    Err(e) => {
                        assert!(!e.is_empty());
                        continue;
                    }
                    Ok(j) => j,
                };
                for ((leg, value), bits) in legs.iter().zip(&clean_bits) {
                    match resumed.lookup(leg) {
                        // Dropped (or renamed by the flip): recompute.
                        None => resumed.append(leg, value).unwrap(),
                        Some(v) => {
                            let got: Vec<u64> = v
                                .as_array()
                                .unwrap()
                                .iter()
                                .map(|x| x.as_f64().unwrap().to_bits())
                                .collect();
                            assert_eq!(
                                &got, bits,
                                "offset {offset} bit {bit}: surviving leg {leg} must be bit-identical"
                            );
                        }
                    }
                }
                for ((leg, _), bits) in legs.iter().zip(&clean_bits) {
                    let got: Vec<u64> = resumed
                        .lookup(leg)
                        .unwrap()
                        .as_array()
                        .unwrap()
                        .iter()
                        .map(|x| x.as_f64().unwrap().to_bits())
                        .collect();
                    assert_eq!(
                        &got, bits,
                        "offset {offset} bit {bit}: {leg} must replay the clean value after repair"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn garbage_file_is_rejected_with_a_clear_error() {
        let path = tmp_path("garbage");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "not a journal\n").unwrap();
        let err = Journal::begin(&path, header(), true).expect_err("garbage");
        assert!(err.contains("not a cap leg journal"), "{err}");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn reappending_a_leg_replaces_in_place() {
        let path = tmp_path("replace");
        let mut j = Journal::begin(&path, header(), false).unwrap();
        j.append("leg-a", &1u64).unwrap();
        j.append("leg-b", &2u64).unwrap();
        j.append("leg-a", &3u64).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.lookup("leg-a").unwrap().as_u64(), Some(3));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn a_second_live_writer_fails_fast_naming_the_holder() {
        let path = tmp_path("locked");
        let j = Journal::begin(&path, header(), false).unwrap();
        let err = Journal::begin(&path, header(), true).expect_err("second writer");
        assert!(err.contains("locked"), "{err}");
        assert!(err.contains(&std::process::id().to_string()), "holder pid named: {err}");
        assert!(err.contains("run.jsonl"), "journal named: {err}");
        // Releasing the first writer frees the path.
        drop(j);
        let j2 = Journal::begin(&path, header(), true).unwrap();
        assert!(j2.is_empty());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn a_stale_lock_from_a_dead_process_is_reclaimed() {
        // What a chaos kill or a crash leaves behind: a lock file that
        // nobody holds, with whatever it last contained.
        for leftover in ["4194304999", "not-a-pid", ""] {
            let path = tmp_path("stale");
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            let lock = path.with_file_name("run.jsonl.lock");
            std::fs::write(&lock, leftover).unwrap();
            let j = Journal::begin(&path, header(), false).expect("an unheld lock is acquired");
            assert_eq!(
                std::fs::read_to_string(&lock).unwrap(),
                std::process::id().to_string(),
                "the acquired lock names the new holder"
            );
            drop(j);
            assert_eq!(std::fs::read_to_string(&lock).unwrap(), "", "release empties the lock");
            let _ = std::fs::remove_dir_all(path.parent().unwrap());
        }
    }

    #[test]
    fn a_held_lock_refuses_begin_until_its_holder_drops() {
        let path = tmp_path("held");
        let holder = Journal::begin(&path, header(), false).unwrap();
        for resume in [false, true] {
            let err = Journal::begin(&path, header(), resume).expect_err("lock is held");
            assert!(err.contains("locked by pid"), "{err}");
        }
        let lock = path.with_file_name("run.jsonl.lock");
        assert!(lock.exists());
        drop(holder);
        assert!(lock.exists(), "the lock file is never deleted");
        let j = Journal::begin(&path, header(), true).expect("dropping the holder frees the path");
        assert!(j.is_empty());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn header_line_round_trips() {
        for h in [
            header(),
            JournalHeader { policy: Some("confidence".into()), ..header() },
        ] {
            let (format, parsed) = JournalHeader::parse_line(&h.to_line()).expect("parses");
            assert_eq!(format, JOURNAL_FORMAT_VERSION);
            assert_eq!(parsed, h);
        }
        // The exact bytes journals have always been written with.
        assert_eq!(
            JournalHeader { policy: Some("confidence".into()), ..header() }.to_line(),
            r#"{"journal":"cap-leg-journal","format":1,"experiment":"sweep-queue","seed":365566360,"scale":"smoke","policy":"confidence","results_version":1}"#
        );
        assert_eq!(
            header().to_line(),
            r#"{"journal":"cap-leg-journal","format":1,"experiment":"sweep-queue","seed":365566360,"scale":"smoke","policy":null,"results_version":1}"#
        );
        assert!(JournalHeader::parse_line(&header().to_line().replace("cap-leg", "cap-log")).is_none());
    }
}
