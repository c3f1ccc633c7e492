//! `ldafp wordlength` trains each design point once and answers from its
//! own table.
//!
//! Drives the real binary with `--trace`: every `train.start` event must
//! belong to one `explore.point` of the sweep (no second search behind the
//! answer line), and the answer line must name the first table row that
//! trained and meets the target.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_ldafp");

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("ldafp-wordlength-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// 40 rows per class, 3 features, deterministic jitter: close enough that
/// 3-bit words miss a 20 % target and wider ones meet it.
fn fixture_csv() -> String {
    let mut csv = String::new();
    for i in 0..40 {
        for (class, sign, label) in [(0.0, -1.0, 'A'), (1.0, 1.0, 'B')] {
            let row: Vec<String> = (0..3)
                .map(|j| {
                    let offset = if j == 0 { 0.1 } else { 0.03 };
                    let jitter =
                        0.2 * (f64::from(i) * 1.37 + f64::from(j) * 2.11 + class * 0.71).sin();
                    format!("{:.4}", sign * offset + jitter)
                })
                .collect();
            csv.push_str(&format!("{},{label}\n", row.join(",")));
        }
    }
    csv
}

fn count_events(trace: &str, event: &str) -> usize {
    let needle = format!("\"event\":\"{event}\"");
    trace.lines().filter(|l| l.contains(&needle)).count()
}

#[test]
fn wordlength_trains_once_and_answers_from_its_table() {
    let dir = TempDir::new("once");
    let data = dir.path("train.csv");
    let trace = dir.path("t.ndjson");
    std::fs::write(&data, fixture_csv()).unwrap();
    let out = Command::new(BIN)
        .arg("wordlength")
        .arg("--data")
        .arg(&data)
        .args(["--target", "0.2", "--quick"])
        .args(["--max-bits", "6", "--threads", "1"])
        .arg("--trace")
        .arg(&trace)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "status {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    let trace = std::fs::read_to_string(&trace).unwrap();
    let points = count_events(&trace, "explore.point");
    assert!(points > 0, "no explore.point events in the trace");
    assert_eq!(
        count_events(&trace, "train.start"),
        points,
        "a design point was trained more than once"
    );

    // Table rows: `bits | format | error% | relative power`.
    let first_qualifying = stdout
        .lines()
        .skip(1)
        .take_while(|l| !l.is_empty())
        .find_map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let error: f64 = cells[2].trim_end_matches('%').parse().unwrap();
            (cells[1] != "-" && error <= 20.0)
                .then(|| format!("{} bits ({}), achieved {}", cells[0], cells[1], cells[2]))
        })
        .expect("some word length meets the target on the fixture");
    let answer = stdout
        .lines()
        .find(|l| l.starts_with("minimal word length"))
        .unwrap_or_else(|| panic!("no answer line\n{stdout}"));
    assert_eq!(
        answer,
        format!("minimal word length for ≤20.00% error: {first_qualifying}"),
        "{stdout}"
    );
}

/// `--rounding` and `--rho` reach every design point of the sweep: each
/// `explore.point` event names the requested mode and confidence.
#[test]
fn wordlength_sweeps_the_requested_rounding_and_rho() {
    let dir = TempDir::new("rounding");
    let data = dir.path("train.csv");
    let trace = dir.path("t.ndjson");
    std::fs::write(&data, fixture_csv()).unwrap();
    let out = Command::new(BIN)
        .arg("wordlength")
        .arg("--data")
        .arg(&data)
        .args(["--target", "0.2", "--quick", "--max-bits", "4"])
        .args(["--threads", "1", "--rounding", "floor", "--rho", "0.9"])
        .arg("--trace")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "status {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read_to_string(&trace).unwrap();
    let points: Vec<&str> = trace
        .lines()
        .filter(|l| l.contains("\"event\":\"explore.point\""))
        .collect();
    assert!(!points.is_empty(), "no explore.point events in the trace");
    for point in points {
        assert!(point.contains("\"rounding\":\"floor\""), "{point}");
        assert!(point.contains("\"rho\":0.9"), "{point}");
    }
}

/// The sweep trains LDA only, so another `--family` is a usage error
/// rather than a silently ignored flag.
#[test]
fn wordlength_rejects_a_non_lda_family() {
    let dir = TempDir::new("family");
    let data = dir.path("train.csv");
    std::fs::write(&data, fixture_csv()).unwrap();
    let out = Command::new(BIN)
        .arg("wordlength")
        .arg("--data")
        .arg(&data)
        .args(["--target", "0.2", "--quick", "--max-bits", "4"])
        .args(["--family", "naive-bayes"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("lda family only"), "{stderr}");
    assert!(stderr.contains("usage: ldafp wordlength"), "{stderr}");
}
