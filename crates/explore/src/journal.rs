//! Append-only, fsync'd sweep journal.
//!
//! One NDJSON line per sweep event — `sweep.start`, `point.start`,
//! `point.finish`, `sweep.finish` — durably appended (write + fsync) before
//! the sweep proceeds, so after a crash the journal names the grid points
//! that were in flight and where their branch-and-bound checkpoints live.
//!
//! The journal is *advisory*: resume correctness rides on the
//! content-addressed result cache (completed points) and the per-point
//! checkpoint files (in-flight points), both of which are self-validating.
//! The journal exists so humans and the chaos harness can see what a
//! crashed sweep was doing, and so `--resume` can tell a fresh run from a
//! continuation. A torn final line (the crash landing mid-append) is
//! expected and skipped by the reader.

use ldafp_serve::json::{self, Value};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Filename of the journal inside a sweep state directory.
pub const JOURNAL_FILE: &str = "journal.ndjson";

/// An open, append-mode sweep journal.
#[derive(Debug)]
pub struct SweepJournal {
    file: File,
    path: PathBuf,
    /// Whether the file already held events when it was opened — i.e. this
    /// run is continuing an earlier, interrupted sweep.
    resumed: bool,
}

impl SweepJournal {
    /// Opens (creating if needed) the journal inside `state_dir`.
    pub fn open(state_dir: &Path) -> std::io::Result<SweepJournal> {
        std::fs::create_dir_all(state_dir)?;
        let path = state_dir.join(JOURNAL_FILE);
        let resumed = std::fs::metadata(&path)
            .map(|m| m.len() > 0)
            .unwrap_or(false);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(SweepJournal {
            file,
            path,
            resumed,
        })
    }

    /// The journal file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the journal predates this run (the sweep is a resume).
    #[must_use]
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Durably appends one event line (compact JSON + newline + fsync).
    pub fn record(&mut self, event: &Value) -> std::io::Result<()> {
        let mut line = event.to_compact_string();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_all()
    }
}

/// Reads every well-formed event line from a journal file.
///
/// Unparseable lines — typically a torn final append from a crash — are
/// skipped, not errors; a missing file reads as an empty journal.
#[must_use]
pub fn read_journal(path: &Path) -> Vec<Value> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| json::parse(l).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_state(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ldafp-explore-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn appends_survive_reopen_and_mark_resume() {
        let dir = temp_state("reopen");
        let mut j = SweepJournal::open(&dir).unwrap();
        assert!(!j.resumed(), "fresh journal is not a resume");
        j.record(&Value::object([("event", Value::from("sweep.start"))]))
            .unwrap();
        j.record(&Value::object([
            ("event", Value::from("point.start")),
            ("index", Value::from(3i64)),
        ]))
        .unwrap();
        drop(j);

        let j2 = SweepJournal::open(&dir).unwrap();
        assert!(
            j2.resumed(),
            "existing events mark the next open as a resume"
        );
        let events = read_journal(j2.path());
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("event").unwrap().as_str(),
            Some("sweep.start")
        );
        assert_eq!(events[1].get("index").unwrap().as_i64(), Some(3));
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let dir = temp_state("torn");
        let mut j = SweepJournal::open(&dir).unwrap();
        j.record(&Value::object([("event", Value::from("sweep.start"))]))
            .unwrap();
        let path = j.path().to_path_buf();
        drop(j);
        // A crash mid-append leaves a partial line at the tail.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"event\":\"point.fin");
        std::fs::write(&path, &bytes).unwrap();
        let events = read_journal(&path);
        assert_eq!(events.len(), 1, "torn tail line must be skipped");
    }

    #[test]
    fn missing_journal_reads_empty() {
        let dir = temp_state("missing");
        assert!(read_journal(&dir.join(JOURNAL_FILE)).is_empty());
    }
}
