//! Persistent, content-addressed result cache.
//!
//! Every explored design point is keyed by an FNV-1a/64 hash of the
//! *problem content* — the training/validation data, the design point and
//! the full trainer configuration — so a cache hit is only possible when
//! the stored outcome answers exactly the question being asked. Entries
//! are JSON files wrapped in a checksummed envelope:
//!
//! ```json
//! {
//!   "version": 4,
//!   "key": "fnv1a64:0123456789abcdef",
//!   "payload": { ... outcome ... },
//!   "checksum": "fnv1a64:..."
//! }
//! ```
//!
//! The loader is corruption-safe in the same style as the serving
//! artifact loader (DESIGN.md §8): unreadable files, malformed JSON,
//! version/key mismatches and checksum failures are all treated as a
//! **miss**, never a crash — a half-written or bit-rotted entry costs one
//! redundant solve, not a wrong answer. Writes go through a temp file in
//! the same directory followed by an atomic rename, so a crash mid-write
//! leaves either the old entry or no entry.

use crate::error::ExploreError;
use crate::grid::DesignPoint;
use crate::Result;
use ldafp_core::LdaFpConfig;
use ldafp_datasets::BinaryDataset;
use ldafp_serve::artifact::checksum_of;
use ldafp_serve::json::{self, Value};
use ldafp_stats::{fnv1a64, FNV1A64_OFFSET};
use std::fs;
use std::path::{Path, PathBuf};

/// Envelope format version; bump on any incompatible payload change.
/// v3 added the model-family axis to keys and payloads; v4 dropped the
/// warm-start provenance (the seeded flag and search weights) from
/// payloads.
pub const CACHE_FORMAT_VERSION: i64 = 4;

/// FNV-1a/64 digest of a dataset: dimensions plus the exact bit pattern
/// of every sample, both classes. Bit-level equality is the right notion
/// here — two datasets that differ only in float noise train differently.
#[must_use]
pub fn dataset_digest(data: &BinaryDataset) -> u64 {
    let mut hash = FNV1A64_OFFSET;
    for matrix in [&data.class_a, &data.class_b] {
        hash = fnv1a64(&(matrix.rows() as u64).to_le_bytes(), hash);
        hash = fnv1a64(&(matrix.cols() as u64).to_le_bytes(), hash);
        for i in 0..matrix.rows() {
            for &x in matrix.row(i) {
                hash = fnv1a64(&x.to_bits().to_le_bytes(), hash);
            }
        }
    }
    hash
}

/// FNV-1a/64 digest of the trainer configuration.
///
/// Hashes the `Debug` rendering, which covers every field (including the
/// nested B&B/solver/recovery configs). The rendering is deterministic
/// within a build; if a future field rename changes it, old entries simply
/// become unreachable misses — never false hits.
///
/// `solver_threads` is normalized to `1` before hashing: the parallel
/// search is bit-identical to the serial one, so the thread count must
/// never fragment the cache.
#[must_use]
pub fn config_digest(config: &LdaFpConfig) -> u64 {
    let mut canonical = config.clone();
    canonical.solver_threads = 1;
    fnv1a64(format!("{canonical:?}").as_bytes(), FNV1A64_OFFSET)
}

/// Content key for one (dataset, point, config) problem instance.
#[must_use]
pub fn problem_key(
    train_digest: u64,
    validation_digest: u64,
    point: &DesignPoint,
    config_digest: u64,
) -> String {
    let canonical = format!(
        "ldafp-explore/v{CACHE_FORMAT_VERSION}|train={train_digest:016x}|val={validation_digest:016x}|family={}|k={}|f={}|rho={}|rounding={}|config={config_digest:016x}",
        point.family.name(),
        point.k,
        point.f,
        point.rho,
        point.rounding.name(),
    );
    format!("fnv1a64:{:016x}", fnv1a64(canonical.as_bytes(), FNV1A64_OFFSET))
}

/// A directory of checksummed outcome envelopes.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Cache`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| ExploreError::Cache {
            path: dir.clone(),
            detail: e.to_string(),
        })?;
        Ok(ResultCache { dir })
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        // Keys look like `fnv1a64:<16 hex>`; the hex tail is the filename.
        let tail = key.rsplit(':').next().unwrap_or(key);
        self.dir.join(format!("{tail}.json"))
    }

    /// Loads the payload stored under `key`, or `None` on a miss.
    ///
    /// *Every* failure mode — missing file, unreadable bytes, malformed
    /// JSON, wrong envelope version, key mismatch, checksum mismatch — is
    /// a miss.
    #[must_use]
    pub fn load(&self, key: &str) -> Option<Value> {
        let text = fs::read_to_string(self.entry_path(key)).ok()?;
        let envelope = json::parse(&text).ok()?;
        if envelope.get("version")?.as_i64()? != CACHE_FORMAT_VERSION {
            return None;
        }
        if envelope.get("key")?.as_str()? != key {
            return None;
        }
        let payload = envelope.get("payload")?.clone();
        let stored = envelope.get("checksum")?.as_str()?;
        if stored != checksum_of(&payload) {
            return None;
        }
        Some(payload)
    }

    /// Stores `payload` under `key` atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// [`ExploreError::Cache`] on I/O failure; callers may treat a store
    /// failure as non-fatal (the sweep result is still returned).
    pub fn store(&self, key: &str, payload: &Value) -> Result<()> {
        let envelope = Value::object([
            ("version", Value::from(CACHE_FORMAT_VERSION)),
            ("key", Value::from(key)),
            ("payload", payload.clone()),
            ("checksum", Value::from(checksum_of(payload))),
        ]);
        let path = self.entry_path(key);
        let tmp = path.with_extension("json.tmp");
        let io_err = |e: std::io::Error| ExploreError::Cache {
            path: path.clone(),
            detail: e.to_string(),
        };
        // Write + fsync the temp file *before* the rename: without the
        // fsync, a crash after the rename can surface a torn-but-renamed
        // envelope on filesystems that reorder data behind metadata.
        {
            use std::io::Write as _;
            let mut file = fs::File::create(&tmp).map_err(io_err)?;
            file.write_all(envelope.to_pretty_string().as_bytes())
                .map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
        }
        fs::rename(&tmp, &path).map_err(io_err)
    }

    /// Number of well-formed-looking entries (by filename) in the cache.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|it| {
                it.filter_map(std::result::Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count()
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldafp_fixedpoint::RoundingMode;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ldafp-explore-cache-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn point() -> DesignPoint {
        DesignPoint {
            family: ldafp_models::ModelFamily::Lda,
            k: 2,
            f: 4,
            rho: 0.99,
            rounding: RoundingMode::NearestEven,
        }
    }

    #[test]
    fn config_digest_ignores_solver_threads() {
        let mut a = LdaFpConfig::fast();
        a.solver_threads = 1;
        let mut b = a.clone();
        b.solver_threads = 4;
        assert_eq!(
            config_digest(&a),
            config_digest(&b),
            "thread count never changes results, so it must not fragment the cache"
        );
        let mut c = a.clone();
        c.rho = a.rho + 0.001;
        assert_ne!(config_digest(&a), config_digest(&c));
    }

    #[test]
    fn round_trips_a_payload() {
        let cache = ResultCache::open(temp_dir("roundtrip")).unwrap();
        let key = problem_key(1, 2, &point(), 3);
        assert!(cache.load(&key).is_none(), "fresh cache must miss");
        let payload = Value::object([
            ("validation_error", Value::from(0.125)),
            ("format", Value::from("Q2.4")),
        ]);
        cache.store(&key, &payload).unwrap();
        assert_eq!(cache.load(&key), Some(payload));
        assert_eq!(cache.entry_count(), 1);
    }

    #[test]
    fn corrupted_entries_are_misses_not_errors() {
        let cache = ResultCache::open(temp_dir("corrupt")).unwrap();
        let key = problem_key(7, 8, &point(), 9);
        let payload = Value::object([("x", Value::from(0.125))]);
        cache.store(&key, &payload).unwrap();

        let path = cache.entry_path(&key);
        let good = fs::read_to_string(&path).unwrap();

        // Truncation → malformed JSON → miss.
        fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(cache.load(&key).is_none());

        // Valid JSON, flipped payload value → checksum mismatch → miss.
        assert!(good.contains("0.125"), "fixture must render the payload value");
        fs::write(&path, good.replace("0.125", "0.625")).unwrap();
        assert!(cache.load(&key).is_none());

        // Wrong version → miss.
        let current = format!("\"version\": {CACHE_FORMAT_VERSION}");
        assert!(good.contains(&current), "fixture must render the version");
        fs::write(&path, good.replace(&current, "\"version\": 99")).unwrap();
        assert!(cache.load(&key).is_none());

        // Restored original → hit again.
        fs::write(&path, &good).unwrap();
        assert_eq!(cache.load(&key), Some(payload));
    }

    #[test]
    fn torn_renamed_envelope_is_a_miss_and_recoverable() {
        // Simulates the failure the fsync-before-rename guards against: an
        // envelope that made it past the rename with only a prefix of its
        // bytes on disk (torn write surfaced after a crash).
        let cache = ResultCache::open(temp_dir("torn")).unwrap();
        let key = problem_key(11, 12, &point(), 13);
        let payload = Value::object([("y", Value::from(42.0))]);
        cache.store(&key, &payload).unwrap();

        let path = cache.entry_path(&key);
        let good = fs::read(&path).unwrap();
        for cut in [1, good.len() / 4, good.len() - 2] {
            fs::write(&path, &good[..cut]).unwrap();
            assert!(
                cache.load(&key).is_none(),
                "torn envelope (cut at {cut}) must be a miss, not a crash"
            );
            // The miss is recoverable: a fresh store overwrites the wreck.
            cache.store(&key, &payload).unwrap();
            assert_eq!(cache.load(&key), Some(payload.clone()));
        }

        // A leftover temp file from a crash mid-store is inert: it is not
        // counted as an entry and never shadows the real one.
        let tmp = path.with_extension("json.tmp");
        fs::write(&tmp, b"{half an envel").unwrap();
        assert_eq!(cache.entry_count(), 1);
        assert_eq!(cache.load(&key), Some(payload));
    }

    #[test]
    fn keys_separate_points_configs_and_data() {
        let base = problem_key(1, 2, &point(), 3);
        let mut p2 = point();
        p2.f = 5;
        assert_ne!(base, problem_key(1, 2, &p2, 3));
        assert_ne!(base, problem_key(4, 2, &point(), 3));
        assert_ne!(base, problem_key(1, 2, &point(), 4));
        let mut p3 = point();
        p3.rounding = RoundingMode::Floor;
        assert_ne!(base, problem_key(1, 2, &p3, 3));
        let mut p4 = point();
        p4.family = ldafp_models::ModelFamily::NaiveBayes;
        assert_ne!(
            base,
            problem_key(1, 2, &p4, 3),
            "family must separate cache entries"
        );
        assert_eq!(base, problem_key(1, 2, &point(), 3), "keys are deterministic");
    }
}
