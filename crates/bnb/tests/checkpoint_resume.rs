//! Crash-safe checkpointing: resuming a search from any snapshot, at any
//! interrupt point, with any thread count on either side of the interruption,
//! must produce a `BnbOutcome` bit-identical to the uninterrupted solve —
//! same weights, same cost bits, same bound bits, same certificate, same
//! statistics.
//!
//! These are property tests driven by a hand-rolled deterministic PRNG (no
//! external dependency) so the sweep over problems × interrupt points ×
//! thread counts is reproducible byte-for-byte.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ldafp_bnb::{
    snapshot_fingerprint, solve, BnbConfig, BnbOutcome, BoundingProblem, BoxNode, CheckpointPolicy,
    NodeAssessment,
};
use ldafp_obs as obs;
use ldafp_stats::Rng;

/// Uniform-ish in `[-3, 3]` with plenty of non-representable values.
fn coord(rng: &mut Rng) -> f64 {
    (rng.below(6001) as f64) / 1000.0 - 3.0
}

/// Minimize Σ (xᵢ − cᵢ)² over integer grid points inside the box.
#[derive(Clone)]
struct GridQuadratic {
    target: Vec<f64>,
}

impl GridQuadratic {
    fn cost(&self, x: &[f64]) -> f64 {
        x.iter()
            .zip(&self.target)
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    fn assess_box(&self, node: &BoxNode) -> NodeAssessment {
        let proj: Vec<f64> = self
            .target
            .iter()
            .zip(node.lower.iter().zip(&node.upper))
            .map(|(&t, (&l, &u))| t.clamp(l, u))
            .collect();
        let lb = self.cost(&proj);
        let mut cand = Vec::with_capacity(self.target.len());
        for ((&t, &l), &u) in self.target.iter().zip(&node.lower).zip(&node.upper) {
            let lo = l.ceil();
            let hi = u.floor();
            if lo > hi {
                return if node.max_width() < 1.0 {
                    NodeAssessment::infeasible()
                } else {
                    NodeAssessment::feasible(lb, None)
                };
            }
            cand.push(t.round().clamp(lo, hi));
        }
        let c = self.cost(&cand);
        NodeAssessment::feasible(lb, Some((cand, c)))
    }
}

impl BoundingProblem for GridQuadratic {
    fn assess(&self, node: &BoxNode, _index: usize) -> NodeAssessment {
        self.assess_box(node)
    }

    fn is_terminal(&self, node: &BoxNode) -> bool {
        node.max_width() <= 1.0
    }
}

/// Wrapper that raises the cooperative-interrupt flag after `limit` node
/// assessments, emulating a SIGINT landing at an arbitrary point mid-solve.
struct InterruptAfter {
    inner: GridQuadratic,
    calls: AtomicUsize,
    limit: usize,
    flag: Arc<AtomicBool>,
}

impl BoundingProblem for InterruptAfter {
    fn assess(&self, node: &BoxNode, index: usize) -> NodeAssessment {
        let n = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        if n >= self.limit {
            self.flag.store(true, Ordering::SeqCst);
        }
        self.inner.assess(node, index)
    }

    fn is_terminal(&self, node: &BoxNode) -> bool {
        self.inner.is_terminal(node)
    }
}

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn scratch_path(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("ldafp-ckpt-test-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join("search.ckpt")
}

fn assert_bit_identical(expected: &BnbOutcome, got: &BnbOutcome, label: &str) {
    match (&expected.incumbent, &got.incumbent) {
        (None, None) => {}
        (Some((ex, ec)), Some((gx, gc))) => {
            assert_eq!(ex.len(), gx.len(), "{label}: weight dimension differs");
            for (i, (a, b)) in ex.iter().zip(gx).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{label}: weight[{i}] bits differ ({a} vs {b})"
                );
            }
            assert_eq!(
                ec.to_bits(),
                gc.to_bits(),
                "{label}: incumbent cost bits differ ({ec} vs {gc})"
            );
        }
        (e, g) => panic!("{label}: incumbent presence differs ({e:?} vs {g:?})"),
    }
    assert_eq!(
        expected.best_lower_bound.to_bits(),
        got.best_lower_bound.to_bits(),
        "{label}: lower bound bits differ"
    );
    assert_eq!(
        expected.certified, got.certified,
        "{label}: certificate differs"
    );
    assert_eq!(expected.stats, got.stats, "{label}: stats differ");
    assert!(!got.interrupted, "{label}: final outcome still interrupted");
}

fn random_problem(rng: &mut Rng) -> (GridQuadratic, BoxNode, BnbConfig) {
    let dim = 1 + rng.below(3);
    let target: Vec<f64> = (0..dim).map(|_| coord(rng)).collect();
    let problem = GridQuadratic { target };
    let root = BoxNode::new(vec![-4.0; dim], vec![4.0; dim]).unwrap();
    let config = BnbConfig::default();
    (problem, root, config)
}

/// The tentpole property: random problems, random interrupt points (possibly
/// several in a row), random thread counts on every leg — the final resumed
/// outcome is bit-identical to the uninterrupted solve, and the snapshot file
/// is cleaned up once the solve completes.
#[test]
fn resume_is_bit_identical_across_interrupts_and_threads() {
    for case in 0..12u64 {
        let mut rng = Rng::new(0xC0FFEE ^ case);
        let (problem, root, config) = random_problem(&mut rng);
        let baseline_threads = 1 + rng.below(3);
        let baseline = solve(
            &problem,
            root.clone(),
            &config,
            None,
            baseline_threads,
            None,
        );
        let total_nodes = baseline.stats.nodes_assessed.max(1);

        let path = scratch_path("prop");
        let fingerprint = snapshot_fingerprint(format!("case-{case}").as_bytes());
        let rounds = 1 + rng.below(3);
        let mut finished: Option<BnbOutcome> = None;
        for round in 0..=rounds {
            let last = round == rounds;
            let flag = Arc::new(AtomicBool::new(false));
            let every = 1 + rng.below(8);
            let mut policy = CheckpointPolicy::every_nodes(path.clone(), every, fingerprint);
            let wrapped = InterruptAfter {
                inner: problem.clone(),
                calls: AtomicUsize::new(0),
                // Interrupt somewhere inside the remaining work; the final
                // round never interrupts and must run to completion.
                limit: if last {
                    usize::MAX
                } else {
                    1 + rng.below(total_nodes)
                },
                flag: flag.clone(),
            };
            if !last {
                policy = policy.with_interrupt(flag.clone());
            }
            let threads = 1 + rng.below(3);
            let outcome = solve(
                &wrapped,
                root.clone(),
                &config,
                None,
                threads,
                Some(&policy),
            );
            if last {
                finished = Some(outcome);
            } else if outcome.interrupted {
                assert!(
                    path.exists(),
                    "case {case} round {round}: interrupted run left no snapshot"
                );
            } else {
                // The interrupt landed after the search finished; the solve
                // completed normally and already matches the baseline.
                assert_bit_identical(&baseline, &outcome, &format!("case {case} early-finish"));
                finished = Some(outcome);
                break;
            }
        }

        let finished = finished.expect("final round always completes");
        assert_bit_identical(&baseline, &finished, &format!("case {case}"));
        assert!(
            !path.exists(),
            "case {case}: completed solve must remove its snapshot"
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}

/// A corrupt, truncated, or wrong-problem snapshot must degrade to a clean
/// cold start that still matches the uninterrupted solve — never a panic.
#[test]
fn corrupt_or_foreign_snapshots_cold_start_identically() {
    let mut rng = Rng::new(0xBAD5EED);
    let (problem, root, config) = random_problem(&mut rng);
    let baseline = solve(&problem, root.clone(), &config, None, 2, None);
    let fingerprint = snapshot_fingerprint(b"cold-start-case");

    let run = |path: &PathBuf| {
        let policy = CheckpointPolicy::every_nodes(path.clone(), 4, fingerprint);
        solve(&problem, root.clone(), &config, None, 2, Some(&policy))
    };

    // Garbage bytes in place of a snapshot.
    let path = scratch_path("garbage");
    std::fs::write(&path, b"not a snapshot at all").unwrap();
    assert_bit_identical(&baseline, &run(&path), "garbage snapshot");

    // A valid snapshot truncated mid-payload.
    let path2 = scratch_path("trunc");
    let flag = Arc::new(AtomicBool::new(false));
    let wrapped = InterruptAfter {
        inner: problem.clone(),
        calls: AtomicUsize::new(0),
        limit: 2,
        flag: flag.clone(),
    };
    let policy = CheckpointPolicy::every_nodes(path2.clone(), 1, fingerprint).with_interrupt(flag);
    let interrupted = solve(&wrapped, root.clone(), &config, None, 1, Some(&policy));
    assert!(
        interrupted.interrupted,
        "setup: expected an interrupted run"
    );
    let bytes = std::fs::read(&path2).unwrap();
    std::fs::write(&path2, &bytes[..bytes.len() / 2]).unwrap();
    assert_bit_identical(&baseline, &run(&path2), "truncated snapshot");

    // A healthy snapshot for a *different* problem (fingerprint mismatch).
    let path3 = scratch_path("foreign");
    let flag = Arc::new(AtomicBool::new(false));
    let wrapped = InterruptAfter {
        inner: problem.clone(),
        calls: AtomicUsize::new(0),
        limit: 2,
        flag: flag.clone(),
    };
    let other_fp = snapshot_fingerprint(b"some-other-problem");
    let policy = CheckpointPolicy::every_nodes(path3.clone(), 1, other_fp).with_interrupt(flag);
    let interrupted = solve(&wrapped, root.clone(), &config, None, 1, Some(&policy));
    assert!(
        interrupted.interrupted,
        "setup: expected an interrupted run"
    );
    assert_bit_identical(&baseline, &run(&path3), "foreign snapshot");

    for p in [&path, &path2, &path3] {
        let _ = std::fs::remove_dir_all(p.parent().unwrap());
    }
}

/// Serial ↔ parallel hand-off: a snapshot written by a single-threaded solve
/// resumes bit-identically on a multi-threaded pool, and vice versa.
#[test]
fn snapshots_are_portable_across_thread_counts() {
    for (a, b) in [(1usize, 3usize), (3, 1), (2, 2)] {
        let mut rng = Rng::new(0x5EED ^ ((a as u64) << 8) ^ b as u64);
        let (problem, root, config) = random_problem(&mut rng);
        let baseline = solve(&problem, root.clone(), &config, None, 1, None);
        let total = baseline.stats.nodes_assessed.max(2);

        let path = scratch_path("portable");
        let fingerprint = snapshot_fingerprint(b"portable-case");
        let flag = Arc::new(AtomicBool::new(false));
        let wrapped = InterruptAfter {
            inner: problem.clone(),
            calls: AtomicUsize::new(0),
            limit: total / 2,
            flag: flag.clone(),
        };
        let policy =
            CheckpointPolicy::every_nodes(path.clone(), 2, fingerprint).with_interrupt(flag);
        let first = solve(&wrapped, root.clone(), &config, None, a, Some(&policy));

        let resumed = if first.interrupted {
            let policy = CheckpointPolicy::every_nodes(path.clone(), 2, fingerprint);
            solve(&problem, root.clone(), &config, None, b, Some(&policy))
        } else {
            first
        };
        assert_bit_identical(&baseline, &resumed, &format!("threads {a}->{b}"));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}

/// A seeded incumbent together with a checkpoint policy — the call the
/// LDA-FP trainer makes — resumes to the seeded uninterrupted solve bit for
/// bit, on the calling thread and on a pool.
#[test]
fn seeded_resume_matches_seeded_solve() {
    for case in 0..6u64 {
        let mut rng = Rng::new(0x5EEDED ^ case);
        let (problem, root, config) = random_problem(&mut rng);
        let origin = vec![0.0; problem.target.len()];
        let seed = Some((origin.clone(), problem.cost(&origin)));
        for threads in [1, 3] {
            let label = format!("case {case}, {threads} threads");
            let baseline = solve(&problem, root.clone(), &config, seed.clone(), threads, None);

            let path = scratch_path("seeded");
            let every = 1 + rng.below(4);
            let policy =
                CheckpointPolicy::every_nodes(path.clone(), every, snapshot_fingerprint(b"seeded"));
            let flag = Arc::new(AtomicBool::new(false));
            let wrapped = InterruptAfter {
                inner: problem.clone(),
                calls: AtomicUsize::new(0),
                limit: 1 + rng.below(baseline.stats.nodes_assessed.max(1)),
                flag: flag.clone(),
            };
            let interrupting = policy.clone().with_interrupt(flag);
            let first = solve(
                &wrapped,
                root.clone(),
                &config,
                seed.clone(),
                threads,
                Some(&interrupting),
            );
            assert!(first.interrupted, "{label}: expected an interrupted run");
            assert!(path.exists(), "{label}: interrupted run left no snapshot");

            let resumed = solve(
                &problem,
                root.clone(),
                &config,
                seed.clone(),
                threads,
                Some(&policy),
            );
            assert_bit_identical(&baseline, &resumed, &label);
            assert!(
                !path.exists(),
                "{label}: completed solve must remove its snapshot"
            );
            let _ = std::fs::remove_dir_all(path.parent().unwrap());
        }
    }
}

/// Records the reasons of `resume.cold_start` events.
struct ColdStarts(Mutex<Vec<String>>);

impl obs::Subscriber for ColdStarts {
    fn event(&self, event: &obs::Event) {
        if event.name == "resume.cold_start" {
            for (key, value) in &event.fields {
                if *key == "reason" {
                    self.0.lock().unwrap().push(format!("{value:?}"));
                }
            }
        }
    }
}

/// A snapshot whose frontier boxes have one dimension more or one fewer
/// than the root — a search over a different space, such as one written
/// before the trainer dropped a dimension — is a cold start with its own
/// reason, never a resume of foreign boxes.
#[test]
fn snapshots_of_another_dimension_cold_start() {
    let cold_starts = Arc::new(ColdStarts(Mutex::new(Vec::new())));
    obs::set_subscriber(cold_starts.clone());
    for (case, other) in [(0u64, 3usize), (1, 1)] {
        let dim = 2;
        let mut rng = Rng::new(0xD1A ^ case);
        let problem = GridQuadratic {
            target: (0..dim).map(|_| coord(&mut rng)).collect(),
        };
        let root = BoxNode::new(vec![-4.0; dim], vec![4.0; dim]).unwrap();
        let config = BnbConfig::default();
        let baseline = solve(&problem, root.clone(), &config, None, 1, None);

        // Interrupt a search over `other` dimensions under the same
        // fingerprint, leaving its snapshot behind.
        let path = scratch_path("dimension");
        let fingerprint = snapshot_fingerprint(b"dimension-case");
        let foreign = GridQuadratic {
            target: (0..other).map(|_| coord(&mut rng)).collect(),
        };
        let flag = Arc::new(AtomicBool::new(false));
        let wrapped = InterruptAfter {
            inner: foreign,
            calls: AtomicUsize::new(0),
            limit: 2,
            flag: flag.clone(),
        };
        let policy =
            CheckpointPolicy::every_nodes(path.clone(), 1, fingerprint).with_interrupt(flag);
        let foreign_root = BoxNode::new(vec![-4.0; other], vec![4.0; other]).unwrap();
        let interrupted = solve(&wrapped, foreign_root, &config, None, 1, Some(&policy));
        assert!(
            interrupted.interrupted,
            "setup: expected an interrupted run"
        );

        let policy = CheckpointPolicy::every_nodes(path.clone(), 4, fingerprint);
        let resumed = solve(&problem, root, &config, None, 1, Some(&policy));
        assert_bit_identical(&baseline, &resumed, &format!("{other}-D snapshot"));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
    obs::clear_subscriber();
    let reasons = cold_starts.0.lock().unwrap().clone();
    let mismatches = reasons.iter().filter(|r| r.contains("dimension-mismatch"));
    assert_eq!(mismatches.count(), 2, "cold-start reasons: {reasons:?}");
}
