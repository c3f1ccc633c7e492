//! The `ldafp` binary has one model file: `train` prints the serving
//! artifact, and `--out` is the way to write it to disk. Options that
//! selected a second path, now removed, exit 1 naming themselves.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_ldafp");

#[test]
fn train_rejects_the_removed_save_model_option() {
    let out = Command::new(BIN)
        .args(["train", "--save-model", "x"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --save-model"), "{stderr}");
}

#[test]
fn explore_rejects_the_removed_cold_option() {
    let out = Command::new(BIN)
        .args(["explore", "--cold"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --cold"), "{stderr}");
}
