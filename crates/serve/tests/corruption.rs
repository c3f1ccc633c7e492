//! Corruption handling at the disk boundary: a bad artifact file must come
//! back as a diagnosable `ServeError` — never a panic, and never a
//! silently-wrong model.

use ldafp_core::FixedPointClassifier;
use ldafp_fixedpoint::QFormat;
use ldafp_serve::{artifact::FORMAT_MAGIC, ModelArtifact, ServeError, FORMAT_VERSION};
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("ldafp-corruption-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn sample_artifact() -> ModelArtifact {
    let format = QFormat::new(2, 6).unwrap();
    ModelArtifact::binary(
        FixedPointClassifier::from_float(&[0.5, -0.75, 1.125], 0.25, format).unwrap(),
    )
}

#[test]
fn version_mismatch_on_disk_is_rejected_with_both_versions_named() {
    let dir = TempDir::new("version");
    let path = dir.file("model.json");
    sample_artifact().save(&path).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let bumped = text.replace(
        &format!("\"format_version\": {FORMAT_VERSION}"),
        &format!("\"format_version\": {}", FORMAT_VERSION + 3),
    );
    assert_ne!(bumped, text, "version field not found in artifact");
    std::fs::write(&path, bumped).unwrap();

    match ModelArtifact::load(&path) {
        Err(ServeError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 3);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    // The message tells the operator what to do.
    let msg = ModelArtifact::load(&path).unwrap_err().to_string();
    assert!(msg.contains("upgrade"), "{msg}");
}

#[test]
fn truncated_file_reports_line_and_offset_not_a_panic() {
    let dir = TempDir::new("truncated");
    let path = dir.file("model.json");
    let full = sample_artifact().to_json_string();

    // Chop at several depths: mid-envelope, mid-payload, mid-number.
    for cut in [full.len() / 4, full.len() / 2, full.len() - 2] {
        std::fs::write(&path, &full[..cut]).unwrap();
        match ModelArtifact::load(&path) {
            Err(ServeError::Json(e)) => {
                // Depending on where the cut lands the parser sees either a
                // clean end-of-input or a malformed token, but both must be
                // positional diagnoses, never panics.
                assert!(!e.message.is_empty(), "cut at {cut}");
                assert!(e.offset <= cut, "offset {} beyond cut {cut}", e.offset);
                assert!(e.line >= 1 && e.column >= 1);
                // The rendered message carries the position for operators.
                let rendered = e.to_string();
                assert!(rendered.contains("line"), "{rendered}");
                assert!(rendered.contains("offset"), "{rendered}");
            }
            other => panic!("cut at {cut}: expected Json error, got {other:?}"),
        }
    }
}

#[test]
fn empty_and_garbage_files_are_diagnosable() {
    let dir = TempDir::new("garbage");
    let path = dir.file("model.json");

    std::fs::write(&path, "").unwrap();
    assert!(matches!(
        ModelArtifact::load(&path),
        Err(ServeError::Json(_))
    ));

    std::fs::write(&path, "PK\x03\x04 definitely-not-json").unwrap();
    assert!(matches!(
        ModelArtifact::load(&path),
        Err(ServeError::Json(_))
    ));

    // Valid JSON, but some other tool's document.
    std::fs::write(&path, "{\"format\": \"onnx\", \"nodes\": []}").unwrap();
    match ModelArtifact::load(&path) {
        Err(ServeError::WrongMagic { found }) => assert!(found.contains("onnx"), "{found}"),
        other => panic!("expected WrongMagic, got {other:?}"),
    }
}

#[test]
fn bitflip_in_payload_is_caught_by_checksum() {
    let dir = TempDir::new("bitflip");
    let path = dir.file("model.json");
    sample_artifact().save(&path).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    // Corrupt the training block (flip a label letter) — still valid JSON,
    // still schema-valid, but not what was checksummed.
    let tampered = text.replace("\"A\"", "\"Z\"");
    assert_ne!(tampered, text);
    std::fs::write(&path, tampered).unwrap();

    match ModelArtifact::load(&path) {
        Err(ServeError::ChecksumMismatch { stored, computed }) => {
            assert_ne!(stored, computed);
            assert!(stored.starts_with("fnv1a64:"));
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn magic_constant_is_part_of_the_format_contract() {
    // A regression guard: renaming the magic string would orphan every
    // artifact ever written.
    assert_eq!(FORMAT_MAGIC, "ldafp-model");
    assert_eq!(FORMAT_VERSION, 1);
}
