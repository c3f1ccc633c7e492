//! Crash-safe snapshots of a branch-and-bound search.
//!
//! A snapshot captures the *complete* coordinator-loop state — frontier
//! heap (with push sequence numbers), incumbent weights and cost bits,
//! [`crate::BnbStats`] including [`crate::DegradationStats`], and elapsed
//! wall-clock — at a loop boundary of [`crate::search::run_search`].
//! Because the decision loop is a deterministic replay (see
//! `crate::parallel`), resuming from *any* valid snapshot and running to
//! completion produces a [`crate::BnbOutcome`] bit-identical to the
//! uninterrupted run: same incumbent bits, same bound bits, same
//! certificate, same stats. That holds for serial and parallel searches
//! alike, because both drive the same loop and snapshots are only taken
//! between iterations.
//!
//! # On-disk format
//!
//! Hand-rolled binary, zero dependencies (same discipline as the serving
//! artifact and the explore result cache):
//!
//! ```text
//! magic        8 bytes   b"LDFPSNAP"
//! version      u16 LE    SNAPSHOT_VERSION
//! fingerprint  u64 LE    caller-supplied problem identity
//! payload_len  u64 LE
//! payload      bytes     SearchSnapshot fields, f64s as raw bit patterns:
//!                        next_seq, elapsed_us, incumbent, stats,
//!                        frontier (version 1 led with a search-order byte)
//! checksum     u64 LE    FNV-1a/64 over everything above
//! ```
//!
//! Writes are atomic and durable: the bytes go to a temp file which is
//! `sync_all`'d before the rename, and the parent directory is fsynced
//! after; a crash at any point leaves either the previous snapshot or
//! none, never a torn file. Loads are *tolerant*: any defect — missing
//! file, short read, wrong magic, any version other than
//! [`SNAPSHOT_VERSION`], fingerprint mismatch,
//! checksum mismatch, malformed payload — degrades to a clean cold start
//! (with a `resume.cold_start` event), never a panic.

use crate::search::SearchStart;
use crate::{BnbStats, BoxNode, DegradationStats};
use ldafp_obs as obs;
use ldafp_stats::{fnv1a64, FNV1A64_OFFSET};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Magic prefix of every snapshot file.
pub(crate) const SNAPSHOT_MAGIC: [u8; 8] = *b"LDFPSNAP";

/// Current snapshot format version. Readers reject every other version:
/// an older image has a different payload layout, a newer one is unknown.
pub(crate) const SNAPSHOT_VERSION: u16 = 2;

/// Hashes an arbitrary identity string into a snapshot fingerprint.
///
/// Callers derive this from whatever uniquely identifies the search
/// (dataset digest, solver config, grid point); a snapshot whose stored
/// fingerprint differs is rejected at load time, so a stale checkpoint
/// can never resume a *different* problem.
#[must_use]
pub fn snapshot_fingerprint(identity: &[u8]) -> u64 {
    fnv1a64(identity, FNV1A64_OFFSET)
}

/// One open box on the serialized frontier.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FrontierEntry {
    /// The box's sanitized lower bound.
    pub lower_bound: f64,
    /// Heap push sequence number — the total-order tie-break that makes
    /// resumed pop order bit-identical.
    pub seq: u64,
    /// The box itself.
    pub node: BoxNode,
}

/// Complete coordinator-loop state at a loop boundary.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SearchSnapshot {
    /// Next heap push sequence number.
    pub next_seq: u64,
    /// Wall-clock already spent before the snapshot, in microseconds —
    /// resumed runs count it against `time_budget`.
    pub elapsed_us: u64,
    /// Best feasible point and its exact cost, if any.
    pub incumbent: Option<(Vec<f64>, f64)>,
    /// Search statistics so far. `stats.nodes_assessed` doubles as the
    /// serial assessment index to resume from (the loop invariant
    /// `next_index == nodes_assessed` holds at every boundary).
    pub stats: BnbStats,
    /// Every open box, with bounds and push order.
    pub frontier: Vec<FrontierEntry>,
}

/// Why a snapshot load fell back to a cold start.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LoadOutcome {
    /// A valid snapshot was read.
    Loaded(SearchSnapshot),
    /// No snapshot file exists (the normal first run).
    Missing,
    /// A file exists but was rejected; the reason is a stable label
    /// (`"io"`, `"magic"`, `"version"`, `"fingerprint"`, `"checksum"`,
    /// `"payload"`).
    Rejected(String),
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }
}

fn encode_payload(snapshot: &SearchSnapshot) -> Vec<u8> {
    let mut e = Enc(Vec::new());
    e.u64(snapshot.next_seq);
    e.u64(snapshot.elapsed_us);
    match &snapshot.incumbent {
        None => e.u8(0),
        Some((point, cost)) => {
            e.u8(1);
            e.f64(*cost);
            e.u64(point.len() as u64);
            for v in point {
                e.f64(*v);
            }
        }
    }
    let s = &snapshot.stats;
    for v in [
        s.nodes_assessed,
        s.pruned_by_bound,
        s.pruned_infeasible,
        s.leaves_resolved,
        s.incumbent_updates,
        s.max_depth,
    ] {
        e.u64(v as u64);
    }
    let d = &s.degradation;
    for v in [
        d.recovered_solves,
        d.trivial_bounds,
        d.suspect_infeasible,
        d.rejected_bounds,
        d.rejected_candidates,
    ] {
        e.u64(v as u64);
    }
    e.u64(d.solver_errors.len() as u64);
    for (kind, count) in &d.solver_errors {
        e.str(kind);
        e.u64(*count as u64);
    }
    e.u64(snapshot.frontier.len() as u64);
    for entry in &snapshot.frontier {
        e.f64(entry.lower_bound);
        e.u64(entry.seq);
        e.u64(entry.node.depth as u64);
        e.u64(entry.node.lower.len() as u64);
        for v in &entry.node.lower {
            e.f64(*v);
        }
        for v in &entry.node.upper {
            e.f64(*v);
        }
    }
    e.0
}

/// Serializes `snapshot` into the full file image (header + payload +
/// checksum).
#[must_use]
pub(crate) fn encode_snapshot(snapshot: &SearchSnapshot, fingerprint: u64) -> Vec<u8> {
    let payload = encode_payload(snapshot);
    let mut out = Vec::with_capacity(26 + payload.len() + 8);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let checksum = fnv1a64(&out, FNV1A64_OFFSET);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Dec<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.at.checked_add(n).ok_or("length overflow")?;
        if end > self.bytes.len() {
            return Err("payload truncated".to_string());
        }
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| "count overflow".to_string())
    }
    /// Bounds-checks a count against remaining bytes so a corrupt length
    /// field cannot trigger a huge allocation.
    fn count(&mut self, min_item_bytes: usize) -> Result<usize, String> {
        let n = self.usize()?;
        let remaining = self.bytes.len() - self.at;
        if n.saturating_mul(min_item_bytes) > remaining {
            return Err("count exceeds payload".to_string());
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String, String> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid utf-8".to_string())
    }
    fn f64_vec(&mut self, n: usize) -> Result<Vec<f64>, String> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }
}

fn decode_payload(bytes: &[u8]) -> Result<SearchSnapshot, String> {
    let mut d = Dec { bytes, at: 0 };
    let next_seq = d.u64()?;
    let elapsed_us = d.u64()?;
    let incumbent = match d.u8()? {
        0 => None,
        1 => {
            let cost = d.f64()?;
            let dim = d.count(8)?;
            Some((d.f64_vec(dim)?, cost))
        }
        other => return Err(format!("bad incumbent tag {other}")),
    };
    let mut stats = BnbStats {
        nodes_assessed: d.usize()?,
        pruned_by_bound: d.usize()?,
        pruned_infeasible: d.usize()?,
        leaves_resolved: d.usize()?,
        incumbent_updates: d.usize()?,
        max_depth: d.usize()?,
        degradation: DegradationStats::default(),
    };
    stats.degradation = DegradationStats {
        recovered_solves: d.usize()?,
        trivial_bounds: d.usize()?,
        suspect_infeasible: d.usize()?,
        rejected_bounds: d.usize()?,
        rejected_candidates: d.usize()?,
        solver_errors: {
            let n = d.count(17)?;
            let mut map = BTreeMap::new();
            for _ in 0..n {
                let kind = d.str()?;
                let count = d.usize()?;
                map.insert(kind, count);
            }
            map
        },
    };
    let n_frontier = d.count(32)?;
    let mut frontier = Vec::with_capacity(n_frontier);
    for _ in 0..n_frontier {
        let lower_bound = d.f64()?;
        let seq = d.u64()?;
        let depth = d.usize()?;
        let dim = d.count(16)?;
        let lower = d.f64_vec(dim)?;
        let upper = d.f64_vec(dim)?;
        frontier.push(FrontierEntry {
            lower_bound,
            seq,
            node: BoxNode {
                lower,
                upper,
                depth,
            },
        });
    }
    if d.at != bytes.len() {
        return Err("trailing bytes after payload".to_string());
    }
    Ok(SearchSnapshot {
        next_seq,
        elapsed_us,
        incumbent,
        stats,
        frontier,
    })
}

/// Decodes a full file image, verifying magic, version, fingerprint and
/// checksum.
///
/// # Errors
///
/// A stable reason label (`"magic"`, `"version"`, `"fingerprint"`,
/// `"checksum"`, `"payload"`) with detail, on any defect.
pub(crate) fn decode_snapshot(bytes: &[u8], fingerprint: u64) -> Result<SearchSnapshot, String> {
    if bytes.len() < 34 {
        return Err("payload: file shorter than header".to_string());
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err("magic: not a snapshot file".to_string());
    }
    let version = u16::from_le_bytes(bytes[8..10].try_into().expect("2 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(format!(
            "version: snapshot v{version}, this build reads only v{SNAPSHOT_VERSION}"
        ));
    }
    let stored_fp = u64::from_le_bytes(bytes[10..18].try_into().expect("8 bytes"));
    if stored_fp != fingerprint {
        return Err("fingerprint: snapshot belongs to a different problem".to_string());
    }
    let body = &bytes[..bytes.len() - 8];
    let stored_sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    if fnv1a64(body, FNV1A64_OFFSET) != stored_sum {
        return Err("checksum: snapshot is corrupt".to_string());
    }
    let payload_len = u64::from_le_bytes(bytes[18..26].try_into().expect("8 bytes"));
    let payload = &bytes[26..bytes.len() - 8];
    if payload_len != payload.len() as u64 {
        return Err("payload: declared length disagrees with file size".to_string());
    }
    decode_payload(payload).map_err(|e| format!("payload: {e}"))
}

// ---------------------------------------------------------------------
// Durable file I/O
// ---------------------------------------------------------------------

/// Writes `snapshot` atomically and durably to `path`: temp file, fsync,
/// rename, parent-directory fsync.
///
/// # Errors
///
/// Propagates I/O failures; the previous snapshot (if any) is untouched.
pub(crate) fn write_snapshot(
    path: &Path,
    snapshot: &SearchSnapshot,
    fingerprint: u64,
) -> std::io::Result<()> {
    let bytes = encode_snapshot(snapshot, fingerprint);
    let tmp = path.with_extension("ckpt.tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            // Directory fsync makes the rename itself durable; tolerated to
            // fail on filesystems that refuse to open directories.
            let _ = fs::File::open(parent).and_then(|d| d.sync_all());
        }
    }
    Ok(())
}

/// Reads and validates the snapshot at `path`.
///
/// Never panics and never errors: every defect maps to
/// [`LoadOutcome::Rejected`] (and a missing file to
/// [`LoadOutcome::Missing`]) so callers can always fall back to a cold
/// start.
#[must_use]
pub(crate) fn load_snapshot(path: &Path, fingerprint: u64) -> LoadOutcome {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Missing,
        Err(e) => return LoadOutcome::Rejected(format!("io: {e}")),
    };
    match decode_snapshot(&bytes, fingerprint) {
        Ok(snapshot) => {
            checkpoint_metrics().loads.inc();
            if obs::enabled() {
                obs::emit(
                    obs::Event::new("checkpoint.load")
                        .with("path", path.display().to_string())
                        .with("bytes", bytes.len())
                        .with("nodes_assessed", snapshot.stats.nodes_assessed)
                        .with("frontier", snapshot.frontier.len()),
                );
            }
            LoadOutcome::Loaded(snapshot)
        }
        Err(reason) => LoadOutcome::Rejected(reason),
    }
}

// ---------------------------------------------------------------------
// Checkpoint policy and driver
// ---------------------------------------------------------------------

/// When and where a search writes snapshots, and how it learns about
/// cooperative interrupts.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Snapshot file path (also the resume source).
    pub path: PathBuf,
    /// Write a snapshot every this many assessed nodes; `0` disables the
    /// node trigger.
    pub every_nodes: usize,
    /// Write a snapshot when this much wall-clock has passed since the
    /// last one; `None` disables the time trigger.
    pub every: Option<Duration>,
    /// Problem identity baked into the file (see
    /// [`snapshot_fingerprint`]).
    pub fingerprint: u64,
    /// Cooperative interrupt flag: when set, the search writes a final
    /// snapshot at the next loop boundary and returns with
    /// `BnbOutcome::interrupted = true`.
    pub interrupt: Option<Arc<AtomicBool>>,
}

impl CheckpointPolicy {
    /// A node-cadence policy with no time trigger and no interrupt flag.
    #[must_use]
    pub fn every_nodes(path: PathBuf, every_nodes: usize, fingerprint: u64) -> Self {
        CheckpointPolicy {
            path,
            every_nodes,
            every: None,
            fingerprint,
            interrupt: None,
        }
    }

    /// Attaches a cooperative interrupt flag (builder style).
    #[must_use]
    pub fn with_interrupt(mut self, flag: Arc<AtomicBool>) -> Self {
        self.interrupt = Some(flag);
        self
    }
}

/// Cached obs handles for checkpoint traffic.
struct CheckpointMetrics {
    writes: Arc<obs::Counter>,
    write_errors: Arc<obs::Counter>,
    loads: Arc<obs::Counter>,
    resumed: Arc<obs::Counter>,
    cold_starts: Arc<obs::Counter>,
}

fn checkpoint_metrics() -> &'static CheckpointMetrics {
    static METRICS: OnceLock<CheckpointMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = obs::Registry::global();
        CheckpointMetrics {
            writes: r.counter("checkpoint.writes"),
            write_errors: r.counter("checkpoint.write_errors"),
            loads: r.counter("checkpoint.loads"),
            resumed: r.counter("resume.loaded"),
            cold_starts: r.counter("resume.cold_starts"),
        }
    })
}

/// Where a checkpointed search begins: the snapshot at `policy.path` when
/// one loads cleanly and every frontier box has the root's dimension, else
/// `root`. A resume is counted and traced as `resume.loaded`; a rejected or
/// foreign-dimension snapshot as `resume.cold_start` with its reason.
pub(crate) fn resume_or_cold_start(policy: &CheckpointPolicy, root: BoxNode) -> SearchStart {
    let m = checkpoint_metrics();
    let reason = match load_snapshot(&policy.path, policy.fingerprint) {
        LoadOutcome::Loaded(snapshot)
            if snapshot
                .frontier
                .iter()
                .any(|entry| entry.node.dim() != root.dim()) =>
        {
            "dimension-mismatch".to_string()
        }
        LoadOutcome::Loaded(snapshot) => {
            m.resumed.inc();
            if obs::enabled() {
                let mut e = obs::Event::new("resume.loaded")
                    .with("nodes_assessed", snapshot.stats.nodes_assessed)
                    .with("frontier", snapshot.frontier.len());
                if let Some((_, cost)) = &snapshot.incumbent {
                    e = e.with("incumbent_cost", *cost);
                }
                obs::emit(e);
            }
            return SearchStart::Resumed(snapshot);
        }
        LoadOutcome::Missing => return SearchStart::Root(root),
        LoadOutcome::Rejected(reason) => reason,
    };
    m.cold_starts.inc();
    if obs::enabled() {
        obs::emit(obs::Event::new("resume.cold_start").with("reason", reason));
    }
    SearchStart::Root(root)
}

/// Chaos hook: `LDAFP_CRASH_AFTER_CHECKPOINTS=<n>` aborts the process
/// immediately after the `n`-th successful snapshot write (counted across
/// all searches in the process). The kill–resume harness and the ci.sh
/// chaos gate use it to crash at a deterministic durable point.
fn crash_after_checkpoints() -> Option<u64> {
    static LIMIT: OnceLock<Option<u64>> = OnceLock::new();
    *LIMIT.get_or_init(|| {
        std::env::var("LDAFP_CRASH_AFTER_CHECKPOINTS")
            .ok()
            .and_then(|v| v.parse().ok())
    })
}

static TOTAL_WRITES: AtomicU64 = AtomicU64::new(0);

/// Per-search checkpoint state: cadence bookkeeping over a
/// [`CheckpointPolicy`].
pub(crate) struct CheckpointDriver<'a> {
    policy: &'a CheckpointPolicy,
    /// `nodes_assessed` at the last write (or at driver creation, so a
    /// resumed search does not immediately rewrite the snapshot it just
    /// loaded). `None` until the first loop boundary.
    last_nodes: Option<usize>,
    last_write: Instant,
}

impl<'a> CheckpointDriver<'a> {
    pub(crate) fn new(policy: &'a CheckpointPolicy) -> Self {
        CheckpointDriver {
            policy,
            last_nodes: None,
            last_write: Instant::now(),
        }
    }

    pub(crate) fn interrupted(&self) -> bool {
        self.policy
            .interrupt
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::SeqCst))
    }

    /// Whether the node or time cadence calls for a snapshot now. Cheap —
    /// the caller builds the (heap-cloning) snapshot only on `true`.
    pub(crate) fn due(&mut self, stats: &BnbStats) -> bool {
        let nodes = stats.nodes_assessed;
        let Some(last) = self.last_nodes else {
            // First boundary seen (cold start or just-resumed state): note
            // the position, don't immediately rewrite what's on disk.
            self.last_nodes = Some(nodes);
            self.last_write = Instant::now();
            return false;
        };
        let node_due =
            self.policy.every_nodes > 0 && nodes >= last.saturating_add(self.policy.every_nodes);
        let time_due = self
            .policy
            .every
            .is_some_and(|period| self.last_write.elapsed() >= period);
        node_due || time_due
    }

    /// Writes a snapshot unconditionally (the final flush on interrupt).
    pub(crate) fn write(&mut self, snapshot: &SearchSnapshot) {
        let m = checkpoint_metrics();
        match write_snapshot(&self.policy.path, snapshot, self.policy.fingerprint) {
            Ok(()) => {
                m.writes.inc();
                if obs::enabled() {
                    obs::emit(
                        obs::Event::new("checkpoint.write")
                            .with("nodes_assessed", snapshot.stats.nodes_assessed)
                            .with("frontier", snapshot.frontier.len()),
                    );
                }
                let total = TOTAL_WRITES.fetch_add(1, Ordering::SeqCst) + 1;
                if let Some(limit) = crash_after_checkpoints() {
                    if total >= limit {
                        std::process::abort();
                    }
                }
            }
            Err(_) => {
                // A failed write must not fail the search: the worst case
                // is resuming from an older snapshot (or a cold start),
                // both of which replay to the identical outcome.
                m.write_errors.inc();
            }
        }
        self.last_nodes = Some(snapshot.stats.nodes_assessed);
        self.last_write = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> SearchSnapshot {
        let mut degradation = DegradationStats {
            recovered_solves: 2,
            ..DegradationStats::default()
        };
        degradation
            .solver_errors
            .insert("max-iterations".to_string(), 2);
        SearchSnapshot {
            next_seq: 9,
            elapsed_us: 1234,
            incumbent: Some((vec![1.5, -2.25], 0.125)),
            stats: BnbStats {
                nodes_assessed: 7,
                pruned_by_bound: 2,
                pruned_infeasible: 1,
                leaves_resolved: 1,
                incumbent_updates: 3,
                max_depth: 4,
                degradation,
            },
            frontier: vec![
                FrontierEntry {
                    lower_bound: 0.03125,
                    seq: 5,
                    node: BoxNode::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap(),
                },
                FrontierEntry {
                    lower_bound: 0.0625,
                    seq: 7,
                    node: BoxNode::new(vec![-1.0, 0.0], vec![0.0, 1.0]).unwrap(),
                },
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let snapshot = sample_snapshot();
        let bytes = encode_snapshot(&snapshot, 42);
        let back = decode_snapshot(&bytes, 42).expect("roundtrip");
        assert_eq!(back, snapshot);
    }

    #[test]
    fn roundtrip_preserves_exact_bits() {
        let mut snapshot = sample_snapshot();
        // Values whose bit patterns are easy to corrupt via text formats.
        snapshot.incumbent = Some((vec![f64::MIN_POSITIVE, -0.0], 1.0 + f64::EPSILON));
        let bytes = encode_snapshot(&snapshot, 7);
        let back = decode_snapshot(&bytes, 7).expect("roundtrip");
        let (point, cost) = back.incumbent.unwrap();
        assert_eq!(point[0].to_bits(), f64::MIN_POSITIVE.to_bits());
        assert_eq!(point[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(cost.to_bits(), (1.0 + f64::EPSILON).to_bits());
    }

    #[test]
    fn newer_version_is_rejected_not_panicked() {
        let snapshot = sample_snapshot();
        let mut bytes = encode_snapshot(&snapshot, 1);
        let newer = (SNAPSHOT_VERSION + 1).to_le_bytes();
        bytes[8..10].copy_from_slice(&newer);
        // Re-seal the checksum so only the version gate can reject it.
        let body_len = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body_len], FNV1A64_OFFSET);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        let err = decode_snapshot(&bytes, 1).unwrap_err();
        assert!(err.starts_with("version:"), "{err}");
    }

    /// A sealed version-1 image: the current payload behind v1's
    /// search-order byte (0, best-first).
    fn version_one_image(snapshot: &SearchSnapshot, fingerprint: u64) -> Vec<u8> {
        let mut payload = vec![0u8];
        payload.extend_from_slice(&encode_payload(snapshot));
        let mut out = SNAPSHOT_MAGIC.to_vec();
        out.extend_from_slice(&1u16.to_le_bytes());
        out.extend_from_slice(&fingerprint.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        let checksum = fnv1a64(&out, FNV1A64_OFFSET);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    #[test]
    fn version_one_image_cold_starts_undecoded() {
        let bytes = version_one_image(&sample_snapshot(), 1);
        let dir = std::env::temp_dir().join(format!("ldafp-ckpt-v1-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("solve.ckpt");
        fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(load_snapshot(&path, 1), LoadOutcome::Rejected(r) if r.starts_with("version:"))
        );
        let root = BoxNode::new(vec![-1.0, -1.0], vec![1.0, 1.0]).unwrap();
        let policy = CheckpointPolicy::every_nodes(path, 1, 1);
        assert!(matches!(
            resume_or_cold_start(&policy, root.clone()),
            SearchStart::Root(r) if r == root
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checksum_is_rejected() {
        let snapshot = sample_snapshot();
        let mut bytes = encode_snapshot(&snapshot, 1);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let err = decode_snapshot(&bytes, 1).unwrap_err();
        assert!(err.starts_with("checksum:"), "{err}");
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let bytes = encode_snapshot(&sample_snapshot(), 1);
        let err = decode_snapshot(&bytes, 2).unwrap_err();
        assert!(err.starts_with("fingerprint:"), "{err}");
    }

    #[test]
    fn every_truncation_is_rejected_without_panic() {
        let bytes = encode_snapshot(&sample_snapshot(), 1);
        for len in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..len], 1).is_err(),
                "truncation to {len} bytes decoded"
            );
        }
    }

    #[test]
    fn load_missing_and_rejected_and_ok() {
        let dir = std::env::temp_dir().join(format!("ldafp-ckpt-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("solve.ckpt");
        let _ = fs::remove_file(&path);
        assert_eq!(load_snapshot(&path, 1), LoadOutcome::Missing);

        let snapshot = sample_snapshot();
        write_snapshot(&path, &snapshot, 1).unwrap();
        assert_eq!(load_snapshot(&path, 1), LoadOutcome::Loaded(snapshot));
        assert!(matches!(load_snapshot(&path, 2), LoadOutcome::Rejected(_)));

        fs::write(&path, b"garbage").unwrap();
        assert!(matches!(load_snapshot(&path, 1), LoadOutcome::Rejected(_)));
        let _ = fs::remove_dir_all(&dir);
    }
}
