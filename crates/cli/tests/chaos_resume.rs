//! Kill–resume chaos harness for `ldafp explore --resume`.
//!
//! Drives the real binary end-to-end: a baseline sweep runs to completion
//! untouched; a second sweep over the same grid is repeatedly crashed
//! (`std::process::abort` via the `LDAFP_CRASH_AFTER_CHECKPOINTS` hook,
//! which fires right after a durable snapshot write) and resumed until it
//! finishes. The deterministic Pareto reports of the two sweeps must be
//! byte-identical, completed points must come back from the cache rather
//! than being re-solved, and a cooperative SIGINT must exit through the
//! resumable path (code 4) leaving state a later run can finish from.
//!
//! The sweep runs the built-in demo2d workload (seeded, deterministic) so
//! the harness needs no data files. Every design point runs its own
//! search and a resumed search replays bit-identically, which is what
//! makes byte-identity a fair assertion at any worker count; `--threads 1`
//! only keeps the crash schedule (the order of snapshot writes)
//! reproducible.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_ldafp");

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "ldafp-chaos-{tag}-{}",
            std::process::id()
        ));
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

/// The common sweep: small grid, quick trainer, one worker, snapshots
/// every few nodes so crashes land mid-solve.
fn explore_cmd(state_dir: &Path, pareto: &Path) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "explore",
        "--min-bits",
        "3",
        "--max-bits",
        "5",
        "--quick",
        "--threads",
        "1",
        "--checkpoint-nodes",
        "4",
        "--resume",
        state_dir.to_str().unwrap(),
        "--pareto",
        pareto.to_str().unwrap(),
    ]);
    cmd
}

fn run_ok(cmd: &mut Command) -> std::process::Output {
    let out = cmd.output().expect("spawn ldafp");
    assert!(
        out.status.success() || out.status.code() == Some(2),
        "sweep failed: status {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn sigkill_mid_sweep_then_resume_reproduces_the_baseline_pareto_byte_for_byte() {
    let dir = TempDir::new("kill");
    let baseline_pareto = dir.path("baseline.md");
    let chaos_pareto = dir.path("chaos.md");
    let baseline_state = dir.path("baseline-state");
    let chaos_state = dir.path("chaos-state");

    // Never-killed reference run.
    run_ok(&mut explore_cmd(&baseline_state, &baseline_pareto));
    let want = std::fs::read(&baseline_pareto).unwrap();
    assert!(!want.is_empty(), "baseline pareto report is empty");

    // Chaos loop: crash after a pseudo-random number of snapshot writes,
    // then resume; every crashed run leaves a snapshot of the in-flight
    // point, so each resume makes forward progress. Bounded so a
    // regression fails loudly instead of hanging.
    let mut crashes = 0u32;
    let mut rng = ldafp_stats::Rng::new(0x9e37_79b9_7f4a_7c15); // fixed seed: reproducible schedule
    for round in 0u32..16 {
        // Escalating schedule: the first rounds crash within a handful of
        // snapshot writes (fine-grained interrupt points), later rounds
        // push deeper so the loop terminates — the full sweep takes on the
        // order of a hundred writes.
        let crash_after = 1 + u64::from(round) * 4 + rng.below(9) as u64;
        let out = explore_cmd(&chaos_state, &chaos_pareto)
            .env("LDAFP_CRASH_AFTER_CHECKPOINTS", crash_after.to_string())
            .output()
            .expect("spawn ldafp");
        if out.status.success() || out.status.code() == Some(2) {
            // Fewer checkpoint writes were left than the crash threshold:
            // the sweep finished. Done.
            break;
        }
        crashes += 1;
        assert!(
            round < 15,
            "sweep never completed within the chaos budget ({crashes} crashes)"
        );
    }
    assert!(crashes > 0, "chaos schedule never actually crashed the sweep");

    // The resumed run must have loaded at least one mid-solve snapshot;
    // prove it from a traced final pass over the same state.
    let trace = dir.path("resume-trace.ndjson");
    let out = run_ok(
        explore_cmd(&chaos_state, &chaos_pareto).args(["--trace", trace.to_str().unwrap()]),
    );
    drop(out);
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(
        trace_text.contains("resume.skipped") || trace_text.contains("resume.loaded"),
        "final resumed pass shows neither cache skips nor a snapshot load:\n{trace_text}"
    );

    let got = std::fs::read(&chaos_pareto).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&want),
        String::from_utf8_lossy(&got),
        "crashed-and-resumed sweep must render the baseline Pareto report byte-for-byte"
    );

    // Completed points are not re-solved: a fresh pass over the finished
    // state is all cache hits (its trace shows skips, no checkpoint writes).
    let trace2 = dir.path("noop-trace.ndjson");
    run_ok(explore_cmd(&chaos_state, &chaos_pareto).args(["--trace", trace2.to_str().unwrap()]));
    let trace2_text = std::fs::read_to_string(&trace2).unwrap();
    assert!(
        trace2_text.contains("resume.skipped"),
        "fully-finished resume must skip via the cache:\n{trace2_text}"
    );
    assert!(
        !trace2_text.contains("checkpoint.write"),
        "fully-finished resume must not re-solve (and so never checkpoints):\n{trace2_text}"
    );
}

#[cfg(unix)]
#[test]
fn sigint_exits_resumable_and_a_rerun_finishes_the_sweep() {
    let dir = TempDir::new("sigint");
    let state = dir.path("state");
    let pareto = dir.path("pareto.md");

    let mut child = explore_cmd(&state, &pareto).spawn().expect("spawn ldafp");
    // Let the sweep get going, then deliver ^C.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let _ = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    let status = child.wait().expect("wait ldafp");
    let code = status.code();
    assert!(
        matches!(code, Some(0 | 2 | 4)),
        "SIGINT must exit cleanly (sweep already done) or with the resumable code 4, got {status:?}"
    );

    // Whether or not the signal landed mid-sweep, one clean rerun must
    // finish the sweep from the on-disk state and write the report.
    run_ok(&mut explore_cmd(&state, &pareto));
    let report = std::fs::read_to_string(&pareto).unwrap();
    assert!(report.contains("Pareto frontier"), "{report}");
}
