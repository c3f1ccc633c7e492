//! CLI-layer acceptance for the server: `train` →
//! `serve` (with a routed second family in the registry) →
//! remote `predict` over both wire codecs — every output must be
//! byte-identical to the local `predict` command — plus `reload` and the
//! `trace-check` vocabulary for `net.*` events.

use ldafp_cli::{args::ParsedArgs, commands};
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "ldafp-cli-evented-roundtrip-{}",
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

fn parsed(raw: &[&str]) -> ParsedArgs {
    ParsedArgs::parse(
        raw.iter().copied(),
        &[
            "bits",
            "family",
            "name",
            "wire",
            "models",
            "batch-deadline-us",
        ],
        &["quick"],
    )
    .unwrap()
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[test]
fn evented_cli_round_trip_matches_local_predict_byte_for_byte() {
    let dir = TempDir::new();
    let csv_text = training_csv();

    // Train both families through the CLI: LDA as the default model, a
    // naive-Bayes artifact for the registry route.
    let (lda_json, _, _) =
        commands::train(&parsed(&["--bits", "6", "--quick"]), &csv_text).unwrap();
    let (nb_json, _, _) = commands::train(
        &parsed(&["--bits", "6", "--family", "naive-bayes"]),
        &csv_text,
    )
    .unwrap();
    let nb_path = dir.0.join("nb.ldafp.json");
    std::fs::write(&nb_path, &nb_json).unwrap();

    let models_spec = format!("nb={}", nb_path.display());
    let mut handle = commands::serve_evented_start(
        &parsed(&["--models", &models_spec]),
        &lda_json,
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = handle.addr().to_string();

    // Remote predict over both codecs == local predict, byte for byte.
    let local = commands::predict(&lda_json, &csv_text).unwrap();
    for wire in ["binary", "json"] {
        let remote =
            commands::predict_remote(&parsed(&["--wire", wire]), &csv_text, &addr).unwrap();
        assert_eq!(remote, local, "wire {wire} diverged from local predict");
    }

    // The routed naive-Bayes model answers with its own (local) output.
    let nb_local = commands::predict(&nb_json, &csv_text).unwrap();
    let nb_remote = commands::predict_remote(&parsed(&["--name", "nb"]), &csv_text, &addr).unwrap();
    assert_eq!(nb_remote, nb_local);

    // `reload` installs a new route which then serves immediately.
    let report = commands::reload_cmd(
        &parsed(&["--name", "nb2", "--wire", "json"]),
        &nb_json,
        &addr,
    )
    .unwrap();
    assert!(report.contains("reloaded model nb2"), "{report}");
    assert!(report.contains("family naive-bayes"), "{report}");
    let nb2_remote =
        commands::predict_remote(&parsed(&["--name", "nb2"]), &csv_text, &addr).unwrap();
    assert_eq!(nb2_remote, nb_local);

    handle.shutdown();
}

#[test]
fn trace_check_validates_the_net_event_vocabulary() {
    let good = r#"{"event": "net.listen", "t_us": 1.0, "addr": "127.0.0.1:0"}
{"event": "net.accept", "t_us": 2.0, "token": 1}
{"event": "net.batch", "t_us": 3.0, "rows": 12}
{"event": "net.shed", "t_us": 4.0, "reason": "queue"}
{"event": "net.reload", "t_us": 5.0, "model": "nb"}
{"event": "net.deadline_close", "t_us": 6.0, "token": 2}
{"event": "net.close", "t_us": 7.0, "token": 1}
{"event": "net.shutdown", "t_us": 8.0, "addr": "127.0.0.1:0"}
"#;
    let report = commands::trace_check(good).unwrap();
    assert!(report.contains("trace ok: 8 event line(s)"), "{report}");
    assert!(report.contains("net.*"), "{report}");
    assert!(report.contains("8 (family total)"), "{report}");

    let typo = r#"{"event": "net.bogus_event", "t_us": 1.0}"#;
    let err = commands::trace_check(typo).unwrap_err();
    assert!(
        err.0.contains("unknown checkpoint/resume/net event"),
        "{}",
        err.0
    );
    assert!(err.0.contains("net.bogus_event"), "{}", err.0);
}
