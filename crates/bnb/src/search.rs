use crate::checkpoint::{self, CheckpointDriver, CheckpointPolicy, FrontierEntry, SearchSnapshot};
use crate::{parallel, BoxNode};
use ldafp_obs as obs;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How one node's assessment fell short of the ideal solve path. Problems
/// attach this to a [`NodeAssessment`] so the search can account for
/// degradation and downgrade its optimality certificate.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeDegradation {
    /// The bound solve failed at least once but a retry under escalated
    /// settings succeeded. The bound is valid (the problem subtracted the
    /// retry's duality-gap bound), but it was not obtained at nominal
    /// tolerances.
    Recovered {
        /// Number of failed attempts before the successful one.
        attempts: usize,
        /// Stable label of the first error encountered.
        error_kind: String,
    },
    /// The bound solve failed beyond recovery; the problem substituted a
    /// conservative trivial bound instead (sound but unproductive).
    TrivialBound {
        /// Stable label of the final error.
        error_kind: String,
    },
    /// The solver claimed the box infeasible, but the problem found
    /// counter-evidence (e.g. a feasible grid point inside the box) and
    /// refused to prune, degrading to a trivial bound instead.
    SuspectInfeasible,
}

/// Degradation counters accumulated over a search — the raw material for
/// the `Degraded` training outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationStats {
    /// Assessments whose bound solve succeeded only after retries.
    pub recovered_solves: usize,
    /// Assessments that fell back to a trivial lower bound.
    pub trivial_bounds: usize,
    /// Infeasibility claims contradicted by the problem's own evidence.
    pub suspect_infeasible: usize,
    /// Non-finite lower bounds sanitized at heap insertion (a NaN bound
    /// would otherwise scramble the priority queue ordering).
    pub rejected_bounds: usize,
    /// Candidates discarded because their cost or coordinates were
    /// non-finite.
    pub rejected_candidates: usize,
    /// Histogram of solver error kinds encountered, by stable label.
    pub solver_errors: BTreeMap<String, usize>,
}

impl DegradationStats {
    /// `true` when nothing degraded: every bound was solved cleanly at
    /// nominal settings and no data had to be sanitized.
    pub fn is_clean(&self) -> bool {
        self.recovered_solves == 0
            && self.trivial_bounds == 0
            && self.suspect_infeasible == 0
            && self.rejected_bounds == 0
            && self.rejected_candidates == 0
    }

    /// Total number of degraded assessments (excluding sanitized data).
    pub fn degraded_assessments(&self) -> usize {
        self.recovered_solves + self.trivial_bounds + self.suspect_infeasible
    }

    fn record(&mut self, d: &NodeDegradation) {
        match d {
            NodeDegradation::Recovered { error_kind, .. } => {
                self.recovered_solves += 1;
                *self.solver_errors.entry(error_kind.clone()).or_insert(0) += 1;
            }
            NodeDegradation::TrivialBound { error_kind } => {
                self.trivial_bounds += 1;
                *self.solver_errors.entry(error_kind.clone()).or_insert(0) += 1;
            }
            NodeDegradation::SuspectInfeasible => {
                self.suspect_infeasible += 1;
                *self
                    .solver_errors
                    .entry("suspect-infeasible".to_string())
                    .or_insert(0) += 1;
            }
        }
    }
}

/// What a [`BoundingProblem`] learned about one box.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAssessment {
    /// Lower bound of the cost over the box, or `None` when the box is
    /// infeasible (prunes the node unconditionally).
    pub lower_bound: Option<f64>,
    /// A feasible *discrete* candidate found inside the box and its exact
    /// cost — the upper-bound side of the paper's Algorithm 1 step 5.
    pub candidate: Option<(Vec<f64>, f64)>,
    /// How this assessment was degraded, if it was.
    pub degradation: Option<NodeDegradation>,
}

impl NodeAssessment {
    /// An infeasible node (no solution inside this box).
    pub fn infeasible() -> Self {
        NodeAssessment {
            lower_bound: None,
            candidate: None,
            degradation: None,
        }
    }

    /// A feasible node with a lower bound and an optional incumbent
    /// candidate.
    pub fn feasible(lower_bound: f64, candidate: Option<(Vec<f64>, f64)>) -> Self {
        NodeAssessment {
            lower_bound: Some(lower_bound),
            candidate,
            degradation: None,
        }
    }

    /// Tags this assessment as degraded.
    #[must_use]
    pub fn with_degradation(mut self, d: NodeDegradation) -> Self {
        self.degradation = Some(d);
        self
    }
}

/// The problem-specific half of branch-and-bound: bounds, branching and
/// termination. `ldafp-core` implements this with the paper's SOCP
/// relaxation; the tests here implement it with toy convex problems.
///
/// # Contract
///
/// Assessments take `&self` because pool workers call them concurrently
/// (see `crate::parallel`). `assess` must be a pure function of
/// `(node, index)`: two calls with the same arguments return bit-identical
/// assessments whatever the thread or call order. When the result does
/// not depend on `index` (the common case), leave [`Self::exact_indexing`]
/// at `false` and the search may assess boxes speculatively; when it does
/// (fault injection), return `true` and every assessment gets its true
/// serial index.
pub trait BoundingProblem: Sync {
    /// Assesses a box: lower bound (eq. 25–26) and, optionally, a rounded
    /// feasible candidate with its exact discrete cost (eq. 27). `index`
    /// is the position this assessment holds in the serial decision order
    /// (root = 0) when [`Self::exact_indexing`] is `true`; otherwise it is
    /// advisory and must not affect the result.
    fn assess(&self, node: &BoxNode, index: usize) -> NodeAssessment;

    /// Whether the box is small enough to stop splitting (Algorithm 1
    /// step 6). Terminal boxes are resolved by their candidate alone.
    fn is_terminal(&self, node: &BoxNode) -> bool;

    /// Branching rule: dimension and split point. The default splits the
    /// widest dimension at its midpoint.
    ///
    /// Returning `None` marks the node as unsplittable (treated as
    /// terminal).
    fn branch(&self, node: &BoxNode) -> Option<(usize, f64)> {
        let d = node.widest_dim();
        let mid = node.midpoint(d);
        if mid > node.lower[d] && mid < node.upper[d] {
            Some((d, mid))
        } else {
            None
        }
    }

    /// `true` when `assess` genuinely depends on `index` (fault
    /// injection), which disables speculative assessment.
    fn exact_indexing(&self) -> bool {
        false
    }
}

/// Budgets and tolerances for the search.
#[derive(Debug, Clone, PartialEq)]
pub struct BnbConfig {
    /// Maximum number of nodes to assess before returning the incumbent
    /// uncertified.
    pub max_nodes: usize,
    /// Wall-clock budget; `None` disables the time check.
    pub time_budget: Option<Duration>,
    /// Stop when `incumbent − best_lower_bound ≤ absolute_gap`.
    pub absolute_gap: f64,
    /// Stop when the gap is below `relative_gap · |incumbent|`.
    pub relative_gap: f64,
}

impl Default for BnbConfig {
    fn default() -> Self {
        BnbConfig {
            max_nodes: 200_000,
            time_budget: None,
            absolute_gap: 1e-12,
            relative_gap: 1e-9,
        }
    }
}

/// Search statistics, for the paper-style runtime/effort reporting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BnbStats {
    /// Nodes whose bounds were computed.
    pub nodes_assessed: usize,
    /// Nodes discarded because their lower bound met the incumbent.
    pub pruned_by_bound: usize,
    /// Nodes discarded as infeasible.
    pub pruned_infeasible: usize,
    /// Terminal (leaf) boxes resolved.
    pub leaves_resolved: usize,
    /// Number of times a new, strictly better incumbent was adopted.
    pub incumbent_updates: usize,
    /// Deepest node expanded.
    pub max_depth: usize,
    /// Degradation accounting: recovered solves, trivial-bound fallbacks,
    /// sanitized data and the solver-error histogram.
    pub degradation: DegradationStats,
}

/// Result of a branch-and-bound run.
#[derive(Debug, Clone, PartialEq)]
pub struct BnbOutcome {
    /// Best feasible point found and its exact cost, if any.
    pub incumbent: Option<(Vec<f64>, f64)>,
    /// Best lower bound over the unexplored space at exit. When
    /// `certified`, this matches the incumbent cost up to the configured
    /// gaps.
    pub best_lower_bound: f64,
    /// Whether the search exhausted or bounded-out every box (global
    /// optimality proof) rather than hitting a budget, **and** every
    /// assessment was clean. Degraded assessments (recovered solves,
    /// trivial-bound fallbacks, sanitized NaN data) downgrade certification
    /// even though the substituted bounds keep the search sound — a
    /// degraded certificate is reported as `Degraded`, never as proof.
    pub certified: bool,
    /// Search statistics.
    pub stats: BnbStats,
    /// Wall-clock time spent (including time before a resume, when the
    /// search was restored from a checkpoint).
    pub elapsed: Duration,
    /// `true` when the search stopped at a cooperative interrupt after
    /// flushing a final checkpoint — the run is resumable, and the rest of
    /// the outcome is a partial result, not a certificate.
    pub interrupted: bool,
}

/// Heap entry ordered best-first: the box with the smallest lower bound
/// pops first (the paper's Algorithm 1). `pub(crate)` so the parallel
/// frontier (`crate::parallel`) can inspect the open boxes when choosing
/// speculation targets.
pub(crate) struct HeapNode {
    pub(crate) lower_bound: f64,
    pub(crate) node: BoxNode,
    /// Push sequence number: a strictly increasing tie-break that makes
    /// the heap order *total*. Without it, pop order among equal keys
    /// would depend on the heap's internal array layout — fine for one
    /// uninterrupted run, but a checkpoint rebuilds the heap by pushing
    /// entries, so resumed runs need an order determined by the entries
    /// alone. Earlier pushes pop first.
    pub(crate) seq: u64,
}

impl PartialEq for HeapNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapNode {}
impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; order entries so the desired node is
        // the maximum. Bounds are NaN-free by construction: `sanitize`
        // rewrites NaN to −∞ before any node reaches the heap, so the
        // `unwrap_or` below is a belt-and-braces default, not a live path.
        other
            .lower_bound
            .partial_cmp(&self.lower_bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Cached handles into the global metrics registry. Registration takes a
/// mutex, so it happens once per process; recording through the handles
/// is lock-free.
struct SearchMetrics {
    solves: Arc<obs::Counter>,
    certified_solves: Arc<obs::Counter>,
    degraded_solves: Arc<obs::Counter>,
    nodes_assessed: Arc<obs::Counter>,
    pruned_by_bound: Arc<obs::Counter>,
    pruned_infeasible: Arc<obs::Counter>,
    leaves_resolved: Arc<obs::Counter>,
    incumbent_updates: Arc<obs::Counter>,
    nodes_per_solve: Arc<obs::Histogram>,
    solve_us: Arc<obs::Histogram>,
}

fn search_metrics() -> &'static SearchMetrics {
    static METRICS: OnceLock<SearchMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = obs::Registry::global();
        SearchMetrics {
            solves: r.counter("bnb.solves"),
            certified_solves: r.counter("bnb.certified_solves"),
            degraded_solves: r.counter("bnb.degraded_solves"),
            nodes_assessed: r.counter("bnb.nodes_assessed"),
            pruned_by_bound: r.counter("bnb.pruned_by_bound"),
            pruned_infeasible: r.counter("bnb.pruned_infeasible"),
            leaves_resolved: r.counter("bnb.leaves_resolved"),
            incumbent_updates: r.counter("bnb.incumbent_updates"),
            nodes_per_solve: r.histogram("bnb.nodes_per_solve"),
            solve_us: r.histogram("bnb.solve_us"),
        }
    })
}

/// Flushes one finished search into the global registry — a bulk add per
/// *solve*, not per node, so the metrics cost is independent of tree
/// size — and closes the trace with a `bnb.done` event.
fn publish_outcome(outcome: BnbOutcome) -> BnbOutcome {
    let m = search_metrics();
    let s = &outcome.stats;
    m.solves.inc();
    if outcome.certified {
        m.certified_solves.inc();
    }
    if !s.degradation.is_clean() {
        m.degraded_solves.inc();
    }
    m.nodes_assessed.add(s.nodes_assessed as u64);
    m.pruned_by_bound.add(s.pruned_by_bound as u64);
    m.pruned_infeasible.add(s.pruned_infeasible as u64);
    m.leaves_resolved.add(s.leaves_resolved as u64);
    m.incumbent_updates.add(s.incumbent_updates as u64);
    m.nodes_per_solve.record(s.nodes_assessed as u64);
    m.solve_us
        .record(u64::try_from(outcome.elapsed.as_micros()).unwrap_or(u64::MAX));
    if obs::enabled() {
        let mut e = obs::Event::new("bnb.done")
            .with("certified", outcome.certified)
            .with("nodes_assessed", s.nodes_assessed)
            .with("pruned_by_bound", s.pruned_by_bound)
            .with("pruned_infeasible", s.pruned_infeasible)
            .with("incumbent_updates", s.incumbent_updates)
            .with("max_depth", s.max_depth)
            .with("best_lower_bound", outcome.best_lower_bound)
            .with(
                "elapsed_us",
                u64::try_from(outcome.elapsed.as_micros()).unwrap_or(u64::MAX),
            );
        if let Some((_, cost)) = &outcome.incumbent {
            e = e.with("incumbent_cost", *cost);
        }
        if !s.degradation.is_clean() {
            e = e.with("degraded_assessments", s.degradation.degraded_assessments());
        }
        if outcome.interrupted {
            e = e.with("interrupted", true);
        }
        obs::emit(e);
    }
    outcome
}

/// Runs best-first branch-and-bound (the paper's Algorithm 1 skeleton).
///
/// The loop: pop the box with the smallest lower bound; if its bound already
/// meets the incumbent within the configured gap the search is certified
/// optimal; otherwise split it, assess both children (updating the incumbent
/// from their candidates) and push the survivors.
///
/// Budget exhaustion (`max_nodes`, `time_budget`) returns the best incumbent
/// with `certified = false` — the solver is *anytime*.
///
/// `seed` is an externally-found incumbent (point and exact cost).
/// Heuristic warm starts — the paper's undisclosed "additional heuristics"
/// slot — can prune most of the tree before it is built. The seed point
/// lives in the *candidate* space (whatever the problem's
/// [`NodeAssessment::candidate`] vectors mean); the framework never
/// interprets it geometrically.
///
/// `threads` counts the calling thread: `threads = 4` runs the decision
/// loop plus three assessment workers, with the caller also assessing
/// whenever it would otherwise wait. `threads <= 1` assesses every box
/// inline on the calling thread (no pool, no atomics, no threads).
///
/// With a `checkpoint` policy the search snapshots itself per the policy,
/// resumes from a valid snapshot at `policy.path` when one exists, and
/// honors the policy's cooperative interrupt flag. A rejected snapshot
/// (newer version, bad checksum, foreign fingerprint) degrades to a clean
/// cold start with a `resume.cold_start` event, never a panic. On
/// non-interrupted completion the snapshot file is removed, so a later
/// call with the same path starts fresh; when the outcome reports
/// `interrupted = true`, the final flushed snapshot stays on disk for the
/// next call to resume.
///
/// # Guarantees
///
/// For any `threads`, with or without a checkpoint, and after resuming
/// from *any* snapshot this function wrote (with any thread count on
/// either side of the interruption), the outcome — incumbent vector and
/// cost bits, bound bits, certificate, all statistics including
/// [`DegradationStats`] — is bit-identical to the uninterrupted 1-thread
/// search. Only wall-clock time and the *attribution* of trace events
/// (`worker` fields, `bnb.worker` spans) differ.
pub fn solve<P: BoundingProblem>(
    problem: &P,
    root: BoxNode,
    config: &BnbConfig,
    seed: Option<(Vec<f64>, f64)>,
    threads: usize,
    checkpoint: Option<&CheckpointPolicy>,
) -> BnbOutcome {
    let start = match checkpoint {
        Some(policy) => checkpoint::resume_or_cold_start(policy, root),
        None => SearchStart::Root(root),
    };
    // The serial-index invariant: at every loop boundary the next
    // assessment index equals `stats.nodes_assessed`, so a resumed source
    // keeps exact indexing (fault plans included) by starting its counter
    // there.
    let next_index = match &start {
        SearchStart::Resumed(s) => s.stats.nodes_assessed,
        SearchStart::Root(_) => 0,
    };
    let outcome = if threads <= 1 {
        let mut source = SerialSource {
            problem,
            next_index,
        };
        run_search(&mut source, start, config, seed, checkpoint)
    } else {
        parallel::with_pool(
            problem,
            threads,
            next_index,
            config.absolute_gap,
            |source| run_search(source, start, config, seed, checkpoint),
        )
    };
    if let Some(policy) = checkpoint {
        if !outcome.interrupted {
            // Finished (certified or budget-exhausted): drop the snapshot so
            // a later call with this path starts fresh.
            let _ = std::fs::remove_file(&policy.path);
        }
    }
    outcome
}

/// Where the search obtains node assessments.
///
/// This trait is the seam between the *decision loop* ([`run_search`]) and
/// the *assessment supply*. The serial path ([`SerialSource`]) computes each
/// assessment inline; the parallel path (`crate::parallel`) serves them from
/// a worker pool that precomputes assessments speculatively. Because both
/// paths drive the **same** loop — same pops, same pushes, same stats, same
/// incumbent adoptions, in the same order — serial/parallel bit-identity of
/// the certified objective, final weights and [`DegradationStats`] is
/// structural rather than coincidental.
pub(crate) trait AssessmentSource {
    /// Assessment of `node`, which is the next node in the serial decision
    /// order. Returns the assessment and the id of the pool worker that
    /// computed it (`None` when it was computed on the calling thread).
    fn assess_next(&mut self, node: &BoxNode) -> (NodeAssessment, Option<usize>);

    /// See [`BoundingProblem::is_terminal`].
    fn is_terminal(&self, node: &BoxNode) -> bool;

    /// See [`BoundingProblem::branch`].
    fn branch(&self, node: &BoxNode) -> Option<(usize, f64)>;

    /// Announces the two children about to be assessed (in order: left,
    /// right) so a pool can start on both before `assess_next` asks for the
    /// first.
    fn request_pair(&mut self, _left: &BoxNode, _right: &BoxNode) {}

    /// Called after the root push and at the end of every expansion with the
    /// current frontier — the speculation hook.
    fn after_expansion(&mut self, _heap: &BinaryHeap<HeapNode>) {}

    /// A new incumbent cost was adopted (or seeded). Pools forward this to
    /// workers so they can skip speculative work that is already dominated.
    fn publish_incumbent(&mut self, _cost: f64) {}
}

/// The serial assessment source: compute every assessment inline, in the
/// decision loop's own thread, numbering them in serial order from
/// `next_index` (0 on a cold start, the snapshot's `nodes_assessed` on a
/// resume).
struct SerialSource<'a, P: BoundingProblem> {
    problem: &'a P,
    next_index: usize,
}

impl<P: BoundingProblem> AssessmentSource for SerialSource<'_, P> {
    fn assess_next(&mut self, node: &BoxNode) -> (NodeAssessment, Option<usize>) {
        let index = self.next_index;
        self.next_index += 1;
        (self.problem.assess(node, index), None)
    }
    fn is_terminal(&self, node: &BoxNode) -> bool {
        self.problem.is_terminal(node)
    }
    fn branch(&self, node: &BoxNode) -> Option<(usize, f64)> {
        self.problem.branch(node)
    }
}

/// Tags a trace event with the pool worker that computed the triggering
/// assessment, when it was not the search thread itself.
fn with_worker(e: obs::Event, worker: Option<usize>) -> obs::Event {
    match worker {
        Some(w) => e.with("worker", w),
        None => e,
    }
}

/// Where a search begins: fresh from a root box, or restored from a
/// checkpoint snapshot taken at a loop boundary of an earlier run.
pub(crate) enum SearchStart {
    /// Cold start: assess `root` and search from scratch.
    Root(BoxNode),
    /// Resume: adopt the snapshot's heap, incumbent and stats verbatim
    /// (the `seed` argument is ignored — the snapshot's incumbent already
    /// absorbed any seed the original run was given).
    Resumed(SearchSnapshot),
}

/// Builds the serializable snapshot of the current loop state. Only called
/// at loop boundaries, where `heap`/`stats`/`incumbent` are consistent and
/// `next_index == stats.nodes_assessed` holds for every source.
fn snapshot_state(
    heap: &BinaryHeap<HeapNode>,
    stats: &BnbStats,
    incumbent: &Option<(Vec<f64>, f64)>,
    next_seq: u64,
    elapsed: Duration,
) -> SearchSnapshot {
    SearchSnapshot {
        next_seq,
        elapsed_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        incumbent: incumbent.clone(),
        stats: stats.clone(),
        frontier: heap
            .iter()
            .map(|h| FrontierEntry {
                lower_bound: h.lower_bound,
                seq: h.seq,
                node: h.node.clone(),
            })
            .collect(),
    }
}

/// The branch-and-bound decision loop, generic over the assessment supply.
///
/// Every statement that touches `heap`, `stats` or `incumbent` is identical
/// for all sources; a source only changes *where* assessments are computed,
/// never *what* the loop does with them. Checkpoints (and the cooperative
/// interrupt check) happen only at loop boundaries — between expansions —
/// which is exactly where the deterministic-replay state is consistent for
/// serial and parallel sources alike.
pub(crate) fn run_search<S: AssessmentSource>(
    source: &mut S,
    start_state: SearchStart,
    config: &BnbConfig,
    seed: Option<(Vec<f64>, f64)>,
    ckpt: Option<&CheckpointPolicy>,
) -> BnbOutcome {
    let start = Instant::now();
    let mut stats;
    let mut incumbent: Option<(Vec<f64>, f64)>;
    let mut heap: BinaryHeap<HeapNode> = BinaryHeap::new();
    let mut next_seq: u64 = 0;
    let mut elapsed_offset = Duration::ZERO;

    match start_state {
        SearchStart::Root(root) => {
            stats = BnbStats::default();
            incumbent = seed;
            if let Some((_, cost)) = &incumbent {
                source.publish_incumbent(*cost);
                if obs::enabled() {
                    // The seed is the zeroth incumbent: tracing it gives the
                    // gap trajectory its starting point even when no node
                    // improves it.
                    obs::emit(
                        obs::Event::new("bnb.incumbent")
                            .with("cost", *cost)
                            .with("update", 0usize)
                            .with("seed", true),
                    );
                }
            }

            let (root_raw, root_worker) = source.assess_next(&root);
            let root_assessment = sanitize(root_raw, &mut stats);
            stats.nodes_assessed += 1;
            if adopt_candidate(
                &mut incumbent,
                root_assessment.candidate,
                &mut stats,
                root_worker,
            ) {
                source.publish_incumbent(incumbent.as_ref().expect("just adopted").1);
            }
            match root_assessment.lower_bound {
                None => {
                    stats.pruned_infeasible += 1;
                    if obs::enabled() {
                        obs::emit(with_worker(
                            obs::Event::new("bnb.prune")
                                .with("reason", "infeasible")
                                .with("depth", 0usize),
                            root_worker,
                        ));
                    }
                    let certified = stats.degradation.is_clean();
                    return publish_outcome(BnbOutcome {
                        incumbent,
                        best_lower_bound: f64::INFINITY,
                        certified,
                        stats,
                        elapsed: start.elapsed(),
                        interrupted: false,
                    });
                }
                Some(lb) => {
                    let seq = next_seq;
                    next_seq += 1;
                    heap.push(HeapNode {
                        lower_bound: lb,
                        node: root,
                        seq,
                    });
                }
            }
        }
        SearchStart::Resumed(snapshot) => {
            stats = snapshot.stats;
            incumbent = snapshot.incumbent;
            next_seq = snapshot.next_seq;
            elapsed_offset = Duration::from_micros(snapshot.elapsed_us);
            for entry in snapshot.frontier {
                heap.push(HeapNode {
                    lower_bound: entry.lower_bound,
                    node: entry.node,
                    seq: entry.seq,
                });
            }
            if let Some((_, cost)) = &incumbent {
                source.publish_incumbent(*cost);
            }
        }
    }
    source.after_expansion(&heap);

    let mut driver = ckpt.map(CheckpointDriver::new);
    let mut certified = true;
    let mut interrupted = false;
    loop {
        if let Some(driver) = driver.as_mut() {
            if driver.interrupted() {
                let snapshot = snapshot_state(
                    &heap,
                    &stats,
                    &incumbent,
                    next_seq,
                    start.elapsed() + elapsed_offset,
                );
                driver.write(&snapshot);
                certified = false;
                interrupted = true;
                break;
            }
            if driver.due(&stats) {
                let snapshot = snapshot_state(
                    &heap,
                    &stats,
                    &incumbent,
                    next_seq,
                    start.elapsed() + elapsed_offset,
                );
                driver.write(&snapshot);
            }
        }
        let Some(HeapNode {
            lower_bound,
            node,
            seq,
            ..
        }) = heap.pop()
        else {
            break;
        };
        // Global optimality test against the incumbent: under best-first
        // order the popped bound is the minimum over all open boxes.
        if let Some((_, inc_cost)) = &incumbent {
            let gap = inc_cost - lower_bound;
            if gap <= config.absolute_gap || gap <= config.relative_gap * inc_cost.abs() {
                let certified = stats.degradation.is_clean();
                return publish_outcome(BnbOutcome {
                    incumbent,
                    best_lower_bound: lower_bound,
                    certified,
                    stats,
                    elapsed: start.elapsed() + elapsed_offset,
                    interrupted: false,
                });
            }
        }
        if stats.nodes_assessed >= config.max_nodes {
            certified = false;
            // Push-back reuses the popped seq so the budget cutoff leaves
            // the heap exactly as it was before the pop.
            heap.push(HeapNode {
                lower_bound,
                node,
                seq,
            });
            break;
        }
        if let Some(budget) = config.time_budget {
            if start.elapsed() + elapsed_offset >= budget {
                certified = false;
                heap.push(HeapNode {
                    lower_bound,
                    node,
                    seq,
                });
                break;
            }
        }

        stats.max_depth = stats.max_depth.max(node.depth);

        // Bound-gap trajectory: one expansion event per popped node. Gated
        // on `enabled()` so the disabled cost is a relaxed load + branch.
        if obs::enabled() {
            let mut e = obs::Event::new("bnb.expand")
                .with("depth", node.depth)
                .with("lower_bound", lower_bound)
                .with("nodes_assessed", stats.nodes_assessed);
            if let Some((_, inc_cost)) = &incumbent {
                e = e
                    .with("incumbent_cost", *inc_cost)
                    .with("gap", inc_cost - lower_bound);
            }
            obs::emit(e);
        }

        let split = if source.is_terminal(&node) {
            None
        } else {
            source.branch(&node)
        };
        let Some((dim, at)) = split else {
            // Terminal box: already resolved by its assessment's candidate
            // when it was created; nothing further to do.
            stats.leaves_resolved += 1;
            continue;
        };
        let Some((left, right)) = node.split(dim, at) else {
            stats.leaves_resolved += 1;
            continue;
        };

        source.request_pair(&left, &right);
        for child in [left, right] {
            let (raw, worker) = source.assess_next(&child);
            let a = sanitize(raw, &mut stats);
            stats.nodes_assessed += 1;
            if adopt_candidate(&mut incumbent, a.candidate, &mut stats, worker) {
                source.publish_incumbent(incumbent.as_ref().expect("just adopted").1);
            }
            match a.lower_bound {
                None => {
                    stats.pruned_infeasible += 1;
                    if obs::enabled() {
                        obs::emit(with_worker(
                            obs::Event::new("bnb.prune")
                                .with("reason", "infeasible")
                                .with("depth", child.depth),
                            worker,
                        ));
                    }
                }
                Some(lb) => {
                    let dominated = incumbent
                        .as_ref()
                        .is_some_and(|(_, c)| lb >= *c - config.absolute_gap);
                    if dominated {
                        stats.pruned_by_bound += 1;
                        if obs::enabled() {
                            obs::emit(with_worker(
                                obs::Event::new("bnb.prune")
                                    .with("reason", "bound")
                                    .with("depth", child.depth)
                                    .with("lower_bound", lb),
                                worker,
                            ));
                        }
                    } else {
                        let child_seq = next_seq;
                        next_seq += 1;
                        heap.push(HeapNode {
                            lower_bound: lb,
                            node: child,
                            seq: child_seq,
                        });
                    }
                }
            }
        }
        source.after_expansion(&heap);
    }

    let best_lower_bound = heap
        .iter()
        .map(|h| h.lower_bound)
        .fold(f64::INFINITY, f64::min)
        .min(match &incumbent {
            Some((_, c)) => *c,
            None => f64::INFINITY,
        });
    let certified = certified && heap.is_empty() && stats.degradation.is_clean();
    publish_outcome(BnbOutcome {
        incumbent,
        best_lower_bound,
        certified,
        stats,
        elapsed: start.elapsed() + elapsed_offset,
        interrupted,
    })
}

/// Records degradation and rejects non-finite data before it can reach the
/// heap or the incumbent: a NaN lower bound is replaced by `−∞` (sound — it
/// never prunes — and totally ordered, so the heap stays consistent), and a
/// candidate with non-finite cost or coordinates is dropped.
fn sanitize(mut a: NodeAssessment, stats: &mut BnbStats) -> NodeAssessment {
    if let Some(d) = &a.degradation {
        stats.degradation.record(d);
    }
    if let Some(lb) = a.lower_bound {
        if lb.is_nan() {
            a.lower_bound = Some(f64::NEG_INFINITY);
            stats.degradation.rejected_bounds += 1;
        }
    }
    if let Some((point, cost)) = &a.candidate {
        if !cost.is_finite() || point.iter().any(|v| !v.is_finite()) {
            a.candidate = None;
            stats.degradation.rejected_candidates += 1;
        }
    }
    a
}

/// Adopts `candidate` when it strictly improves on the incumbent; returns
/// whether it did. `worker` attributes the trace event to the pool worker
/// whose assessment produced the candidate.
fn adopt_candidate(
    incumbent: &mut Option<(Vec<f64>, f64)>,
    candidate: Option<(Vec<f64>, f64)>,
    stats: &mut BnbStats,
    worker: Option<usize>,
) -> bool {
    if let Some((point, cost)) = candidate {
        let better = match incumbent {
            Some((_, best)) => cost < *best,
            None => true,
        };
        if better {
            if obs::enabled() {
                obs::emit(with_worker(
                    obs::Event::new("bnb.incumbent")
                        .with("cost", cost)
                        .with("update", stats.incumbent_updates + 1)
                        .with("seed", false),
                    worker,
                ));
            }
            *incumbent = Some((point, cost));
            stats.incumbent_updates += 1;
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize Σ (xᵢ − cᵢ)² over the integer grid inside a box.
    struct GridQuadratic {
        target: Vec<f64>,
    }

    impl GridQuadratic {
        fn round_into(&self, node: &BoxNode) -> Option<Vec<f64>> {
            let mut out = Vec::with_capacity(node.dim());
            for d in 0..node.dim() {
                let lo = node.lower[d].ceil();
                let hi = node.upper[d].floor();
                if lo > hi {
                    return None; // no integer point in this dimension
                }
                out.push(self.target[d].round().clamp(lo, hi));
            }
            Some(out)
        }

        fn cost(&self, x: &[f64]) -> f64 {
            x.iter()
                .zip(&self.target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        }
    }

    impl BoundingProblem for GridQuadratic {
        fn assess(&self, node: &BoxNode, _index: usize) -> NodeAssessment {
            // Convex lower bound: distance from target to the box.
            let proj: Vec<f64> = self
                .target
                .iter()
                .zip(node.lower.iter().zip(&node.upper))
                .map(|(&t, (&l, &u))| t.clamp(l, u))
                .collect();
            let lb = self.cost(&proj);
            let candidate = self.round_into(node).map(|x| {
                let c = self.cost(&x);
                (x, c)
            });
            if candidate.is_none() && node.max_width() < 1.0 {
                // Box provably holds no integer point.
                return NodeAssessment::infeasible();
            }
            NodeAssessment::feasible(lb, candidate)
        }

        fn is_terminal(&self, node: &BoxNode) -> bool {
            node.max_width() <= 1.0
        }
    }

    #[test]
    fn finds_global_optimum_1d() {
        let p = GridQuadratic { target: vec![2.7] };
        let root = BoxNode::new(vec![-10.0], vec![10.0]).unwrap();
        let out = solve(&p, root, &BnbConfig::default(), None, 1, None);
        let (x, cost) = out.incumbent.unwrap();
        assert_eq!(x, vec![3.0]);
        assert!((cost - 0.09).abs() < 1e-12);
        assert!(out.certified);
    }

    #[test]
    fn finds_global_optimum_3d() {
        let p = GridQuadratic {
            target: vec![1.2, -3.8, 0.49],
        };
        let root = BoxNode::new(vec![-8.0; 3], vec![8.0; 3]).unwrap();
        let out = solve(&p, root, &BnbConfig::default(), None, 1, None);
        let (x, _) = out.incumbent.unwrap();
        assert_eq!(x, vec![1.0, -4.0, 0.0]);
        assert!(out.certified);
    }

    #[test]
    fn incumbent_cost_never_below_final_lower_bound() {
        let p = GridQuadratic {
            target: vec![0.3, 0.7],
        };
        let root = BoxNode::new(vec![-4.0; 2], vec![4.0; 2]).unwrap();
        let out = solve(&p, root, &BnbConfig::default(), None, 1, None);
        let (_, cost) = out.incumbent.unwrap();
        assert!(out.best_lower_bound <= cost + 1e-12);
    }

    #[test]
    fn node_budget_returns_uncertified() {
        let p = GridQuadratic {
            target: vec![0.3; 6],
        };
        let root = BoxNode::new(vec![-100.0; 6], vec![100.0; 6]).unwrap();
        let cfg = BnbConfig {
            max_nodes: 3,
            ..BnbConfig::default()
        };
        let out = solve(&p, root, &cfg, None, 1, None);
        assert!(!out.certified);
        // Anytime behavior: an incumbent is still returned.
        assert!(out.incumbent.is_some());
    }

    #[test]
    fn time_budget_respected() {
        let p = GridQuadratic {
            target: vec![0.5; 4],
        };
        let root = BoxNode::new(vec![-1000.0; 4], vec![1000.0; 4]).unwrap();
        let cfg = BnbConfig {
            time_budget: Some(Duration::ZERO),
            ..BnbConfig::default()
        };
        let out = solve(&p, root, &cfg, None, 1, None);
        assert!(!out.certified);
    }

    /// A problem whose every box is infeasible.
    struct Infeasible;
    impl BoundingProblem for Infeasible {
        fn assess(&self, _node: &BoxNode, _index: usize) -> NodeAssessment {
            NodeAssessment::infeasible()
        }
        fn is_terminal(&self, _node: &BoxNode) -> bool {
            true
        }
    }

    #[test]
    fn infeasible_root_certified_empty() {
        let root = BoxNode::new(vec![0.0], vec![1.0]).unwrap();
        let out = solve(&Infeasible, root, &BnbConfig::default(), None, 1, None);
        assert!(out.incumbent.is_none());
        assert!(out.certified);
        assert_eq!(out.best_lower_bound, f64::INFINITY);
        assert_eq!(out.stats.pruned_infeasible, 1);
    }

    #[test]
    fn stats_are_populated() {
        let p = GridQuadratic {
            target: vec![2.7, -1.1],
        };
        let root = BoxNode::new(vec![-16.0; 2], vec![16.0; 2]).unwrap();
        let out = solve(&p, root, &BnbConfig::default(), None, 1, None);
        assert!(out.stats.nodes_assessed > 1);
        assert!(out.stats.incumbent_updates >= 1);
        assert!(out.stats.max_depth >= 1);
    }

    #[test]
    fn pruning_reduces_explored_nodes_vs_exhaustive() {
        // 2-D grid of 33x33 integer points: exhaustive would assess ~1089
        // leaf boxes; pruning should resolve far fewer nodes.
        let p = GridQuadratic {
            target: vec![5.2, -7.9],
        };
        let root = BoxNode::new(vec![-16.0; 2], vec![16.0; 2]).unwrap();
        let out = solve(&p, root, &BnbConfig::default(), None, 1, None);
        assert!(out.certified);
        assert!(
            out.stats.nodes_assessed < 200,
            "pruning ineffective: {} nodes",
            out.stats.nodes_assessed
        );
    }

    #[test]
    fn relative_gap_terminates_early() {
        let p = GridQuadratic {
            target: vec![2.5001],
        };
        let root = BoxNode::new(vec![-1000.0], vec![1000.0]).unwrap();
        let cfg = BnbConfig {
            relative_gap: 0.5,
            ..BnbConfig::default()
        };
        let out = solve(&p, root, &cfg, None, 1, None);
        assert!(out.certified);
        let (_, cost) = out.incumbent.unwrap();
        // Accepts either integer neighbour of 2.5001 under the loose gap.
        assert!(cost <= 0.25009);
    }
}
