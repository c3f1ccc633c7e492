//! End-to-end acceptance path for the serving subsystem, driven through
//! the CLI layer: `train --save-model` → `ModelArtifact::load` → `serve`
//! → JSON-codec TCP client — the decisions coming back over the wire must
//! be bit-identical to evaluating the trained classifier in-process.

#![cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]

use ldafp_cli::{commands, csv, model_json};
use ldafp_net::NetClient;
use ldafp_serve::ModelArtifact;
use std::path::PathBuf;
use std::time::Duration;

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "ldafp-cli-serve-roundtrip-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn training_csv() -> String {
    let mut s = String::new();
    for i in 0..25 {
        let jitter = (i as f64) * 0.01;
        s.push_str(&format!("{},{},A\n", -0.4 - jitter, 0.05 * jitter));
        s.push_str(&format!("{},{},B\n", 0.4 + jitter, -0.05 * jitter));
    }
    s
}

fn parsed(raw: &[&str]) -> ldafp_cli::args::ParsedArgs {
    ldafp_cli::args::ParsedArgs::parse(
        raw.iter().copied(),
        &["bits", "save-model", "addr", "input", "model", "data"],
        &["quick", "baseline"],
    )
    .unwrap()
}

#[test]
fn train_save_serve_round_trip_is_bit_identical_to_in_process_eval() {
    let dir = TempDir::new();
    let artifact_path = dir.0.join("model.ldafp.json");
    let csv_text = training_csv();

    // 1. Train with --save-model: writes the serving artifact.
    let (doc_json, _outcome, _degradation) = commands::train(
        &parsed(&[
            "--bits",
            "6",
            "--quick",
            "--save-model",
            artifact_path.to_str().unwrap(),
        ]),
        &csv_text,
    )
    .unwrap();
    let doc = model_json::from_json_str(&doc_json).unwrap();

    // 2. Load the artifact back and serve it on an ephemeral port.
    let artifact = ModelArtifact::load(&artifact_path).unwrap();
    let artifact_json = artifact.to_json_string();
    let mut handle =
        commands::serve_evented_start(&parsed(&[]), &artifact_json, "127.0.0.1:0").unwrap();

    // 3. Predict the training rows over TCP.
    let rows = csv::parse_features(&csv_text).unwrap();
    let mut client =
        NetClient::connect_json(&handle.addr().to_string(), Duration::from_secs(5)).unwrap();
    let reply = client.predict_rows(None, &rows).unwrap();
    assert_eq!(reply.classes.len(), rows.len());

    // 4. Bit-identical to the in-process decision rule, row for row.
    for (row, &class) in rows.iter().zip(&reply.classes) {
        let expected = usize::from(!doc.classifier.classify(row));
        assert_eq!(
            class as usize, expected,
            "wire decision diverged from in-process classify on {row:?}"
        );
    }

    // 5. The CLI `predict` path agrees with the wire path too.
    let text = commands::predict(&artifact_json, &csv_text).unwrap();
    for (i, class) in reply.classes.iter().enumerate() {
        let line = text.lines().nth(i + 1).unwrap();
        assert!(
            line.starts_with(&format!("{i},{class},")),
            "line {line:?} vs wire class {class}"
        );
    }

    client.shutdown_server().unwrap();
    handle.join();
}
