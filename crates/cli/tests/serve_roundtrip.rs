//! End-to-end acceptance path for the serving subsystem, driven through
//! the CLI layer: `train` → its artifact JSON → `serve` → JSON-codec TCP
//! client — the decisions coming back over the wire must be bit-identical
//! to evaluating the trained classifier in-process.

#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use ldafp_cli::{commands, csv};
use ldafp_net::NetClient;
use ldafp_serve::{ModelArtifact, ServedModel};
use std::time::Duration;

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
        &["bits", "addr", "input", "model", "data"],
        &["quick", "baseline"],
    )
    .unwrap()
}

#[test]
fn train_save_serve_round_trip_is_bit_identical_to_in_process_eval() {
    let csv_text = training_csv();

    // 1. Train: the output is the serving artifact.
    let (artifact_json, _outcome, _degradation) =
        commands::train(&parsed(&["--bits", "6", "--quick"]), &csv_text).unwrap();
    let ServedModel::Binary(classifier) =
        ModelArtifact::from_json_str(&artifact_json).unwrap().model
    else {
        panic!("LDA training must produce a binary model");
    };

    // 2. Serve it on an ephemeral port.
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
        let expected = usize::from(!classifier.classify(row));
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
