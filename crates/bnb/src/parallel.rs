//! Multi-threaded branch-and-bound with a shared speculative frontier.
//!
//! # Architecture: deterministic replay
//!
//! The hard constraint on this module is *bit-identity*: an `N`-thread
//! search must produce the same certified objective, the same final
//! incumbent vector and the same [`crate::DegradationStats`] as the serial
//! search, on every input — including fault-injected ones. A free-running
//! parallel best-first search cannot honor that (its exploration order, and
//! therefore its budget cutoffs, prune decisions and degradation accounting,
//! depend on thread timing), so this module uses **deterministic replay**:
//!
//! * The *coordinator* thread executes the exact serial decision loop
//!   ([`crate::search::run_search`], shared with the serial path): same heap
//!   pops and pushes, same gap/budget checks, same incumbent adoptions, same
//!   statistics, in the same order.
//! * *Workers* speculatively precompute node assessments. An assessment is a
//!   pure function of the box (plus, under fault injection, its serial
//!   index), so a worker's result is bit-identical to what the coordinator
//!   would have computed inline — the only thing parallelism changes is
//!   *when* the number is ready, never *what* it is.
//! * A shared [`AtomicIncumbent`] (f64 bits in an `AtomicU64`, CAS-min
//!   published by the coordinator on every adoption) lets workers *skip*
//!   speculative tasks whose parent bound is already dominated. Skipping
//!   only drops precomputation — the coordinator computes any missing
//!   assessment inline — so the incumbent race can waste work but can never
//!   change a result.
//!
//! Work flows through two queues: a *demand* queue (children the coordinator
//! is about to assess, announced via `request_pair`) and a *speculation*
//! queue (children of the best frontier boxes, refilled after each
//! expansion). The coordinator helps drain the demand queue while it waits,
//! so progress never depends on worker scheduling. Termination is
//! cooperative: the coordinator's loop decides exactly as the serial search
//! does, then flips a shutdown flag; workers observe it under the pool lock
//! and exit, and the scoped-thread join provides the barrier.
//!
//! # Fault injection: exact indexing
//!
//! Fault plans key off the serial assessment index. When a problem reports
//! [`BoundingProblem::exact_indexing`], speculation is disabled
//! entirely and every demand task carries the true serial index, so
//! `fault_for(index)` lookups — and therefore the injected degradations —
//! match the serial run one-for-one.

use crate::search::{AssessmentSource, HeapNode};
use crate::{BnbOutcome, BoundingProblem, BoxNode, NodeAssessment};
use ldafp_obs as obs;
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Best-known incumbent cost shared across threads as the f64 bit pattern
/// in an `AtomicU64`, updated by a compare-and-swap minimum loop.
///
/// Used exclusively for *work skipping*: workers consult it to drop
/// speculative tasks that are already dominated. It never feeds back into
/// search decisions, which is why publication latency (or a lost race) is
/// harmless. NaN costs are never published; the initial value is `+∞`.
pub(crate) struct AtomicIncumbent(AtomicU64);

impl AtomicIncumbent {
    /// A fresh incumbent at `+∞` (nothing found yet).
    pub(crate) fn new() -> Self {
        AtomicIncumbent(AtomicU64::new(f64::INFINITY.to_bits()))
    }

    /// Current best cost (`+∞` when nothing has been published).
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Acquire))
    }

    /// Publishes `cost` if it strictly improves on the stored value;
    /// returns whether it did. NaN is ignored. Safe to race: the CAS loop
    /// guarantees the stored value only ever decreases.
    pub(crate) fn record(&self, cost: f64) -> bool {
        if cost.is_nan() {
            return false;
        }
        let mut current = self.0.load(Ordering::Acquire);
        loop {
            if cost >= f64::from_bits(current) {
                return false;
            }
            match self.0.compare_exchange_weak(
                current,
                cost.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(now) => current = now,
            }
        }
    }
}

/// Identity of a box for the assessment cache: depth plus the exact bit
/// patterns of its bounds. Splits partition the space, so two distinct live
/// nodes can never collide.
#[derive(Clone, PartialEq, Eq, Hash)]
struct NodeKey {
    depth: usize,
    bits: Vec<u64>,
}

fn node_key(node: &BoxNode) -> NodeKey {
    NodeKey {
        depth: node.depth,
        bits: node
            .lower
            .iter()
            .chain(node.upper.iter())
            .map(|v| v.to_bits())
            .collect(),
    }
}

/// One queued assessment.
struct Task {
    key: NodeKey,
    node: BoxNode,
    /// Serial assessment index (meaningful on demand tasks under exact
    /// indexing; advisory otherwise).
    index: usize,
    /// Lower bound of the task's parent — the speculation skip filter
    /// compares it against the shared incumbent. `−∞` on demand tasks
    /// (never skipped).
    parent_bound: f64,
    /// Demand tasks were announced by the coordinator via `request_pair`;
    /// the rest are speculative.
    demand: bool,
}

/// Queue and cache state behind the pool mutex.
#[derive(Default)]
struct PoolState {
    /// Children the coordinator has announced it will assess next.
    demand: VecDeque<Task>,
    /// Children of the best frontier boxes, assessed opportunistically.
    spec: VecDeque<Task>,
    /// Keys currently being assessed (on a worker or on the helping
    /// coordinator).
    in_flight: HashSet<NodeKey>,
    /// Finished assessments with the worker that computed them (`None` =
    /// coordinator helped).
    done: HashMap<NodeKey, (NodeAssessment, Option<usize>)>,
    /// Set by the coordinator when the search loop returns.
    shutdown: bool,
}

/// Shared pool: state, wakeup channels and the published incumbent.
struct Pool {
    state: Mutex<PoolState>,
    /// Workers wait here for queued tasks.
    work_ready: Condvar,
    /// The coordinator waits here for an in-flight assessment it needs.
    task_done: Condvar,
    incumbent: AtomicIncumbent,
    /// Copy of `BnbConfig::absolute_gap` for the speculation skip filter.
    absolute_gap: f64,
}

impl Pool {
    fn new(absolute_gap: f64) -> Self {
        Pool {
            state: Mutex::new(PoolState::default()),
            work_ready: Condvar::new(),
            task_done: Condvar::new(),
            incumbent: AtomicIncumbent::new(),
            absolute_gap,
        }
    }
}

/// Worker thread body: drain demand first, then speculation (with the
/// incumbent skip filter), park when both queues are empty.
fn worker_loop<P: BoundingProblem>(pool: &Pool, problem: &P, worker_id: usize) {
    let mut span = obs::Span::enter("bnb.worker");
    let mut demand_done = 0u64;
    let mut spec_done = 0u64;
    let mut spec_skipped = 0u64;

    let mut guard = pool.state.lock().expect("pool lock poisoned");
    loop {
        let task = loop {
            if guard.shutdown {
                drop(guard);
                span.record("worker", worker_id);
                span.record("demand_assessed", demand_done);
                span.record("speculative_assessed", spec_done);
                span.record("speculative_skipped", spec_skipped);
                return;
            }
            if let Some(t) = guard.demand.pop_front() {
                break t;
            }
            if let Some(t) = guard.spec.pop_front() {
                // Skip filter: a speculative child whose parent bound is
                // already dominated will only be needed if the search keeps
                // running past that parent — cheap to recompute inline in
                // the rare case the heuristic is wrong.
                if t.parent_bound >= pool.incumbent.get() - pool.absolute_gap {
                    spec_skipped += 1;
                    continue;
                }
                break t;
            }
            guard = pool.work_ready.wait(guard).expect("pool lock poisoned");
        };
        guard.in_flight.insert(task.key.clone());
        drop(guard);

        let assessment = problem.assess(&task.node, task.index);
        if task.demand {
            demand_done += 1;
        } else {
            spec_done += 1;
        }

        guard = pool.state.lock().expect("pool lock poisoned");
        guard.in_flight.remove(&task.key);
        guard.done.insert(task.key, (assessment, Some(worker_id)));
        pool.task_done.notify_all();
    }
}

/// The [`AssessmentSource`] the coordinator drives: serves assessments from
/// the pool's `done` cache, steals queued tasks to compute inline, helps
/// drain the demand queue while waiting, and refills speculation from the
/// frontier after every expansion.
pub(crate) struct ParallelSource<'a, P: BoundingProblem> {
    problem: &'a P,
    pool: &'a Pool,
    /// Serial position of the next `assess_next` call (root = 0).
    next_index: usize,
    /// Speculation is off under exact indexing (fault injection).
    spec_enabled: bool,
    /// How many frontier boxes to speculate on per refill (2 × threads).
    spec_width: usize,
    /// Parents whose children were already queued for speculation.
    spec_seen: HashSet<NodeKey>,
}

impl<P: BoundingProblem> AssessmentSource for ParallelSource<'_, P> {
    fn assess_next(&mut self, node: &BoxNode) -> (NodeAssessment, Option<usize>) {
        let index = self.next_index;
        self.next_index += 1;
        let key = node_key(node);

        let mut guard = self.pool.state.lock().expect("pool lock poisoned");
        loop {
            if let Some((assessment, worker)) = guard.done.remove(&key) {
                return (assessment, worker);
            }
            // Steal the matching queued task (worker hasn't claimed it) and
            // compute inline — keeps the coordinator from idling behind a
            // busy pool.
            if let Some(pos) = guard.demand.iter().position(|t| t.key == key) {
                let task = guard.demand.remove(pos).expect("position just found");
                drop(guard);
                return (self.problem.assess(&task.node, task.index), None);
            }
            if let Some(pos) = guard.spec.iter().position(|t| t.key == key) {
                guard.spec.remove(pos);
                drop(guard);
                return (self.problem.assess(node, index), None);
            }
            if guard.in_flight.contains(&key) {
                // A worker is computing it. Help with other demand work
                // while we wait; park only when there is nothing to do.
                if let Some(task) = guard.demand.pop_front() {
                    guard.in_flight.insert(task.key.clone());
                    drop(guard);
                    let assessment = self.problem.assess(&task.node, task.index);
                    guard = self.pool.state.lock().expect("pool lock poisoned");
                    guard.in_flight.remove(&task.key);
                    guard.done.insert(task.key, (assessment, None));
                    self.pool.task_done.notify_all();
                } else {
                    guard = self.pool.task_done.wait(guard).expect("pool lock poisoned");
                }
                continue;
            }
            // Nobody has it queued, claimed or finished: compute it here.
            drop(guard);
            return (self.problem.assess(node, index), None);
        }
    }

    fn is_terminal(&self, node: &BoxNode) -> bool {
        self.problem.is_terminal(node)
    }

    fn branch(&self, node: &BoxNode) -> Option<(usize, f64)> {
        self.problem.branch(node)
    }

    fn request_pair(&mut self, left: &BoxNode, right: &BoxNode) {
        // The next two serial indices belong to left and right, in order —
        // `run_search` calls `assess_next` for exactly these two next.
        let base = self.next_index;
        let mut guard = self.pool.state.lock().expect("pool lock poisoned");
        for (offset, child) in [left, right].into_iter().enumerate() {
            let key = node_key(child);
            if guard.done.contains_key(&key) || guard.in_flight.contains(&key) {
                continue;
            }
            if let Some(pos) = guard.spec.iter().position(|t| t.key == key) {
                // Promote: a speculative task for this child is now demand.
                let mut task = guard.spec.remove(pos).expect("position just found");
                task.index = base + offset;
                task.parent_bound = f64::NEG_INFINITY;
                task.demand = true;
                guard.demand.push_back(task);
                continue;
            }
            if guard.demand.iter().any(|t| t.key == key) {
                continue;
            }
            guard.demand.push_back(Task {
                key,
                node: child.clone(),
                index: base + offset,
                parent_bound: f64::NEG_INFINITY,
                demand: true,
            });
        }
        drop(guard);
        self.pool.work_ready.notify_all();
    }

    fn after_expansion(&mut self, heap: &BinaryHeap<HeapNode>) {
        if !self.spec_enabled || heap.is_empty() {
            return;
        }
        // Partial selection of the frontier boxes that will be expanded
        // soonest (greatest under HeapNode's pop order); spec_width is
        // small, so the scan is O(frontier · spec_width).
        let mut top: Vec<&HeapNode> = Vec::with_capacity(self.spec_width + 1);
        for h in heap.iter() {
            let pos = top.partition_point(|t| (*t).cmp(h) == CmpOrdering::Greater);
            if pos < self.spec_width {
                top.insert(pos, h);
                top.truncate(self.spec_width);
            }
        }

        let mut queued = false;
        let mut guard = self.pool.state.lock().expect("pool lock poisoned");
        for entry in top {
            let parent_key = node_key(&entry.node);
            if self.spec_seen.contains(&parent_key) {
                continue;
            }
            if self.problem.is_terminal(&entry.node) {
                continue;
            }
            let Some((dim, at)) = self.problem.branch(&entry.node) else {
                continue;
            };
            let Some((left, right)) = entry.node.split(dim, at) else {
                continue;
            };
            self.spec_seen.insert(parent_key);
            for child in [left, right] {
                let key = node_key(&child);
                if guard.done.contains_key(&key)
                    || guard.in_flight.contains(&key)
                    || guard.demand.iter().any(|t| t.key == key)
                    || guard.spec.iter().any(|t| t.key == key)
                {
                    continue;
                }
                // Stale speculation (oldest first) gives way when full.
                while guard.spec.len() >= 2 * self.spec_width {
                    guard.spec.pop_front();
                }
                guard.spec.push_back(Task {
                    key,
                    node: child,
                    index: 0,
                    parent_bound: entry.lower_bound,
                    demand: false,
                });
                queued = true;
            }
        }
        drop(guard);
        if queued {
            self.pool.work_ready.notify_all();
        }
    }

    fn publish_incumbent(&mut self, cost: f64) {
        self.pool.incumbent.record(cost);
    }
}

/// Runs `search` as the coordinator of a pool of `threads − 1` assessment
/// workers, handing it the pool's [`AssessmentSource`]. `next_index` is
/// the serial index of the first assessment `search` asks for (the resume
/// index of a checkpointed search). The workers are joined before this
/// returns.
pub(crate) fn with_pool<P: BoundingProblem>(
    problem: &P,
    threads: usize,
    next_index: usize,
    absolute_gap: f64,
    search: impl FnOnce(&mut ParallelSource<'_, P>) -> BnbOutcome,
) -> BnbOutcome {
    let pool = Pool::new(absolute_gap);
    std::thread::scope(|scope| {
        for worker_id in 0..threads - 1 {
            let pool = &pool;
            scope.spawn(move || worker_loop(pool, problem, worker_id));
        }
        let mut source = ParallelSource {
            problem,
            pool: &pool,
            next_index,
            spec_enabled: !problem.exact_indexing(),
            spec_width: 2 * threads,
            spec_seen: HashSet::new(),
        };
        let outcome = search(&mut source);
        pool.state.lock().expect("pool lock poisoned").shutdown = true;
        pool.work_ready.notify_all();
        outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, BnbConfig};
    use std::time::Duration;

    /// The search tests' grid quadratic: minimize Σ (xᵢ − cᵢ)² over the
    /// integer grid inside a box.
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
                    return None;
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
                return NodeAssessment::infeasible();
            }
            NodeAssessment::feasible(lb, candidate)
        }

        fn is_terminal(&self, node: &BoxNode) -> bool {
            node.max_width() <= 1.0
        }
    }

    fn assert_outcomes_identical(a: &BnbOutcome, b: &BnbOutcome) {
        match (&a.incumbent, &b.incumbent) {
            (None, None) => {}
            (Some((xa, ca)), Some((xb, cb))) => {
                assert_eq!(ca.to_bits(), cb.to_bits(), "incumbent cost differs");
                assert_eq!(xa.len(), xb.len());
                for (va, vb) in xa.iter().zip(xb) {
                    assert_eq!(va.to_bits(), vb.to_bits(), "incumbent vector differs");
                }
            }
            other => panic!("incumbent presence differs: {other:?}"),
        }
        assert_eq!(
            a.best_lower_bound.to_bits(),
            b.best_lower_bound.to_bits(),
            "lower bound differs"
        );
        assert_eq!(a.certified, b.certified);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        for threads in [1usize, 2, 3, 4] {
            let p = GridQuadratic {
                target: vec![2.7, -1.4],
            };
            let root = BoxNode::new(vec![-16.0; 2], vec![16.0; 2]).unwrap();
            let par = solve(&p, root.clone(), &BnbConfig::default(), None, threads, None);
            let ser = solve(&p, root, &BnbConfig::default(), None, 1, None);
            assert_outcomes_identical(&par, &ser);
        }
    }

    #[test]
    fn parallel_matches_serial_under_node_budget() {
        // Budget cutoffs are order-sensitive — replay must hit the same one.
        let cfg = BnbConfig {
            max_nodes: 17,
            ..BnbConfig::default()
        };
        let p = GridQuadratic {
            target: vec![0.3; 4],
        };
        let root = BoxNode::new(vec![-50.0; 4], vec![50.0; 4]).unwrap();
        let par = solve(&p, root.clone(), &cfg, None, 4, None);
        let ser = solve(&p, root, &cfg, None, 1, None);
        assert_outcomes_identical(&par, &ser);
        assert!(!par.certified);
    }

    #[test]
    fn parallel_with_seed_matches_serial_with_seed() {
        let seed = Some((vec![3.0, -1.0], 0.25f64));
        let p = GridQuadratic {
            target: vec![2.7, -1.4],
        };
        let root = BoxNode::new(vec![-16.0; 2], vec![16.0; 2]).unwrap();
        let par = solve(
            &p,
            root.clone(),
            &BnbConfig::default(),
            seed.clone(),
            4,
            None,
        );
        let ser = solve(&p, root, &BnbConfig::default(), seed, 1, None);
        assert_outcomes_identical(&par, &ser);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let p = GridQuadratic { target: vec![2.7] };
        let root = BoxNode::new(vec![-10.0], vec![10.0]).unwrap();
        let out = solve(&p, root, &BnbConfig::default(), None, 0, None);
        let (x, _) = out.incumbent.unwrap();
        assert_eq!(x, vec![3.0]);
        assert!(out.certified);
    }

    #[test]
    fn infeasible_root_parallel() {
        struct AlwaysInfeasible;
        impl BoundingProblem for AlwaysInfeasible {
            fn assess(&self, _node: &BoxNode, _index: usize) -> NodeAssessment {
                NodeAssessment::infeasible()
            }
            fn is_terminal(&self, _node: &BoxNode) -> bool {
                true
            }
        }
        let root = BoxNode::new(vec![0.0], vec![1.0]).unwrap();
        let out = solve(
            &AlwaysInfeasible,
            root,
            &BnbConfig::default(),
            None,
            4,
            None,
        );
        assert!(out.incumbent.is_none());
        assert!(out.certified);
        assert_eq!(out.stats.pruned_infeasible, 1);
    }

    #[test]
    fn time_budget_still_anytime_in_parallel() {
        let cfg = BnbConfig {
            time_budget: Some(Duration::ZERO),
            ..BnbConfig::default()
        };
        let p = GridQuadratic {
            target: vec![0.5; 4],
        };
        let root = BoxNode::new(vec![-1000.0; 4], vec![1000.0; 4]).unwrap();
        let out = solve(&p, root, &cfg, None, 4, None);
        assert!(!out.certified);
        assert!(out.incumbent.is_some());
    }

    #[test]
    fn atomic_incumbent_cas_min_semantics() {
        let inc = AtomicIncumbent::new();
        assert_eq!(inc.get(), f64::INFINITY);
        assert!(inc.record(5.0));
        assert!(!inc.record(7.0), "worse cost must not publish");
        assert!(inc.record(-2.0));
        assert!(!inc.record(f64::NAN), "NaN must never publish");
        assert_eq!(inc.get(), -2.0);
    }

    #[test]
    fn atomic_incumbent_concurrent_publishers_converge_to_min() {
        use std::sync::Barrier;
        // Barrier-synchronized CAS stress: 8 threads race distinct
        // decreasing sequences; the final value must be the global minimum
        // and the stored value must never increase.
        let inc = AtomicIncumbent::new();
        let barrier = Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let inc = &inc;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for step in 0..1000u32 {
                        let cost = 1000.0 - f64::from(step) - f64::from(t) * 0.1;
                        let before = inc.get();
                        inc.record(cost);
                        let after = inc.get();
                        assert!(after <= before, "incumbent increased: {before} -> {after}");
                        assert!(after <= cost.max(before));
                    }
                });
            }
        });
        assert_eq!(inc.get(), 1000.0 - 999.0 - 7.0 * 0.1);
    }
}
