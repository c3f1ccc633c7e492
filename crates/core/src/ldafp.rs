use crate::{CoreError, FixedPointClassifier, LdaModel, Result, TrainingProblem};
use ldafp_bnb::{
    BnbConfig, BnbStats, BoundingProblem, BoxNode, CheckpointPolicy, NodeAssessment,
    NodeDegradation,
};
#[cfg(feature = "fault-injection")]
use ldafp_bnb::{FaultKind, FaultPlan};
use ldafp_datasets::BinaryDataset;
use ldafp_fixedpoint::{QFormat, RoundingMode};
use ldafp_linalg::{vecops, Matrix};
use ldafp_obs as obs;
use ldafp_solver::{
    error_kind, solve_with_recovery_checked, SocpProblem, SolverConfig, SolverError,
    FEASIBILITY_MARGIN,
};
use std::time::{Duration, Instant};

/// Tuning knobs for the LDA-FP trainer (Algorithm 1 plus the heuristics
/// documented in DESIGN.md §5).
#[derive(Debug, Clone, PartialEq)]
pub struct LdaFpConfig {
    /// Overflow confidence level `ρ` of eq. 16.
    pub rho: f64,
    /// Rounding mode used for data quantization and weight rounding.
    pub rounding: RoundingMode,
    /// Branch-and-bound budgets and gaps.
    pub bnb: BnbConfig,
    /// Retries of a node relaxation that fails numerically, each at
    /// tolerances loosened by 100× more and from a warm start perturbed a
    /// little more (`ldafp_solver::solve_with_recovery_checked`); `0`
    /// disables them. Failures are retried, recorded, and surfaced in the
    /// [`TrainingOutcome`] instead of silently taking the trivial bound.
    pub max_solver_retries: usize,
    /// Seed the incumbent with a scaled-rounding sweep of the float LDA
    /// direction before searching.
    pub scaled_rounding: bool,
    /// Number of geometric scale steps in the sweep.
    pub scaled_rounding_steps: usize,
    /// After the search, re-select the deployed scale of the incumbent by
    /// **bit-exact training error** over its rounded scalings `round(λ·w)`.
    ///
    /// Formulation (21) — like the paper's — models weight rounding and
    /// overflow but *not* the rounding of each product in the MAC datapath.
    /// The Fisher cost is scale-invariant in real arithmetic, yet a
    /// small-norm weight vector drowns in product rounding (its products
    /// collapse to a couple of quanta). Scanning the feasible scalings and
    /// picking the one that actually classifies the (quantized) training
    /// set best repairs this without leaving the training data.
    pub empirical_scale_selection: bool,
    /// Replace the eq. 12 midpoint threshold by the grid threshold with the
    /// lowest bit-exact training error (a 1-D scan over the projection
    /// values). Off by default to stay faithful to the paper's decision
    /// rule; valuable for unbalanced problems such as one-vs-rest heads,
    /// where the class midpoint is far from the error-optimal cut.
    pub empirical_threshold_selection: bool,
    /// Threads used *inside* one branch-and-bound search (the parallel
    /// frontier of `ldafp-bnb`): `1` runs the exact serial code path, `0`
    /// resolves to the machine's available parallelism, `n` uses exactly
    /// `n`. Results are bit-identical for every value — only wall-clock
    /// time changes. Defaults to the `LDAFP_SOLVER_THREADS` environment
    /// variable, or `1` when unset.
    pub solver_threads: usize,
}

/// Reads `LDAFP_SOLVER_THREADS` (default 1) — the `Default::default`
/// value of [`LdaFpConfig::solver_threads`].
fn default_solver_threads() -> usize {
    std::env::var("LDAFP_SOLVER_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1)
}

impl Default for LdaFpConfig {
    fn default() -> Self {
        LdaFpConfig {
            rho: 0.99,
            rounding: RoundingMode::NearestEven,
            bnb: BnbConfig {
                max_nodes: 2_000,
                time_budget: None,
                absolute_gap: 1e-9,
                relative_gap: 1e-4,
            },
            max_solver_retries: 3,
            scaled_rounding: true,
            scaled_rounding_steps: 160,
            empirical_scale_selection: true,
            empirical_threshold_selection: false,
            solver_threads: default_solver_threads(),
        }
    }
}

impl LdaFpConfig {
    /// A reduced-budget configuration for tests and examples: ~10× fewer
    /// nodes, a looser relative gap and a shorter seeding sweep.
    pub fn fast() -> Self {
        LdaFpConfig {
            bnb: BnbConfig {
                max_nodes: 150,
                time_budget: None,
                absolute_gap: 1e-9,
                relative_gap: 1e-3,
            },
            scaled_rounding_steps: 60,
            ..LdaFpConfig::default()
        }
    }

    /// The effective intra-search thread count: `0` resolves to the
    /// machine's available parallelism, anything else is taken literally
    /// (minimum 1).
    pub fn resolved_solver_threads(&self) -> usize {
        match self.solver_threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }
}

/// How a training run ended — every [`LdaFpModel`] carries one, so a
/// certified optimum is never confused with a luckily-surviving incumbent.
///
/// Precedence (strongest label wins): [`FallbackRounded`] >
/// [`Degraded`] > [`BudgetExhausted`] > [`Certified`].
///
/// [`FallbackRounded`]: TrainingOutcome::FallbackRounded
/// [`Degraded`]: TrainingOutcome::Degraded
/// [`BudgetExhausted`]: TrainingOutcome::BudgetExhausted
/// [`Certified`]: TrainingOutcome::Certified
#[derive(Debug, Clone, PartialEq)]
pub enum TrainingOutcome {
    /// Branch-and-bound proved global optimality of the deployed weights
    /// (within the configured gaps) with every node solved cleanly.
    Certified,
    /// The search hit its node or time budget; the incumbent is the best
    /// point found so far, with no optimality proof.
    BudgetExhausted,
    /// Training completed, but part of the search ran on a degraded path —
    /// the incumbent is feasible and exact, the optimality evidence is not.
    Degraded {
        /// Node relaxations that succeeded only after the retry schedule.
        recovered_solves: usize,
        /// Node relaxations that fell back to the trivial `J ≥ 0` bound.
        trivial_bounds: usize,
        /// Infeasibility claims contradicted by a feasible grid probe.
        suspect_infeasible: usize,
        /// The empirically re-selected deployment scale has a different
        /// Fisher cost than the search optimum, so the certificate does not
        /// cover the deployed weights.
        uncertified_rescale: bool,
    },
    /// The search produced no incumbent at all; the deployed classifier is
    /// the float-LDA direction rounded onto the feasible `QK.F` grid — a
    /// labeled last resort, never an unlabeled answer.
    FallbackRounded,
}

impl TrainingOutcome {
    /// Whether this outcome carries a global-optimality certificate.
    pub fn is_certified(&self) -> bool {
        matches!(self, TrainingOutcome::Certified)
    }

    /// Stable lowercase label (used by CLI reports and exit codes).
    pub fn label(&self) -> &'static str {
        match self {
            TrainingOutcome::Certified => "certified",
            TrainingOutcome::BudgetExhausted => "budget-exhausted",
            TrainingOutcome::Degraded { .. } => "degraded",
            TrainingOutcome::FallbackRounded => "fallback-rounded",
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        match self {
            TrainingOutcome::Certified => "certified global optimum".to_string(),
            TrainingOutcome::BudgetExhausted => {
                "search budget exhausted; incumbent returned without proof".to_string()
            }
            TrainingOutcome::Degraded {
                recovered_solves,
                trivial_bounds,
                suspect_infeasible,
                uncertified_rescale,
            } => {
                let mut parts = Vec::new();
                if *recovered_solves > 0 {
                    parts.push(format!("{recovered_solves} recovered solves"));
                }
                if *trivial_bounds > 0 {
                    parts.push(format!("{trivial_bounds} trivial bounds"));
                }
                if *suspect_infeasible > 0 {
                    parts.push(format!("{suspect_infeasible} suspect infeasibility claims"));
                }
                if *uncertified_rescale {
                    parts.push("deployed scale differs from certified point".to_string());
                }
                if parts.is_empty() {
                    parts.push("sanitized non-finite search data".to_string());
                }
                format!("degraded search: {}", parts.join(", "))
            }
            TrainingOutcome::FallbackRounded => {
                "search found no incumbent; deployed rounded float-LDA fallback".to_string()
            }
        }
    }
}

/// A trained LDA-FP model: the fixed-point classifier plus search
/// provenance.
#[derive(Debug, Clone)]
pub struct LdaFpModel {
    classifier: FixedPointClassifier,
    weights: Vec<f64>,
    fisher_cost: f64,
    search_weights: Vec<f64>,
    search_fisher_cost: f64,
    search_gap: f64,
    outcome: TrainingOutcome,
    stats: BnbStats,
    elapsed: Duration,
}

impl LdaFpModel {
    /// The deployable fixed-point classifier.
    pub fn classifier(&self) -> &FixedPointClassifier {
        &self.classifier
    }

    /// The optimized weights as grid-exact real values.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fisher cost `J(w)` of the selected weights (formulation 21).
    pub fn fisher_cost(&self) -> f64 {
        self.fisher_cost
    }

    /// The grid point the *search* settled on, before any empirical
    /// deployment rescale — the weights a certificate actually covers.
    /// [`Self::weights`] may carry an empirically re-selected scale that is
    /// good for deployment but lies off the Fisher optimum.
    pub fn search_weights(&self) -> &[f64] {
        &self.search_weights
    }

    /// Fisher cost of [`Self::search_weights`] — the search optimum of
    /// formulation (21), which equals [`Self::fisher_cost`] unless an
    /// empirical rescale moved the deployed point.
    pub fn search_fisher_cost(&self) -> f64 {
        self.search_fisher_cost
    }

    /// The search's final relative gap: how far [`Self::search_fisher_cost`]
    /// may lie above the best lower bound left over the unexplored boxes,
    /// `(J − bound)/J`, at least 0. A budget-exhausted search reports the
    /// gap it stopped at; a certified one is within the configured gaps.
    pub fn search_gap(&self) -> f64 {
        self.search_gap
    }

    /// Whether branch-and-bound proved global optimality (within the
    /// configured gaps) rather than exhausting a budget or degrading.
    pub fn certified(&self) -> bool {
        self.outcome.is_certified()
    }

    /// How the training run ended — certificate, budget, degradation or
    /// fallback. See [`TrainingOutcome`].
    pub fn outcome(&self) -> &TrainingOutcome {
        &self.outcome
    }

    /// Branch-and-bound search statistics (including degradation counters).
    pub fn stats(&self) -> &BnbStats {
        &self.stats
    }

    /// Wall-clock training time.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }
}

/// The LDA-FP trainer: the paper's Algorithm 1.
///
/// See the crate docs for a quickstart and [`LdaFpConfig`] for the knobs.
#[derive(Debug, Clone, Default)]
pub struct LdaFpTrainer {
    config: LdaFpConfig,
    /// Deterministic faults injected into node assessments (test harness).
    #[cfg(feature = "fault-injection")]
    fault: Option<FaultPlan>,
}

impl LdaFpTrainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: LdaFpConfig) -> Self {
        LdaFpTrainer {
            config,
            #[cfg(feature = "fault-injection")]
            fault: None,
        }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &LdaFpConfig {
        &self.config
    }

    /// Injects a deterministic [`FaultPlan`] into every node assessment of
    /// subsequent training runs — the soundness-testing harness. Only
    /// available with the `fault-injection` feature.
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Trains a fixed-point classifier in the given format.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidTrainingData`] when quantization erases all
    ///   class separation.
    /// * [`CoreError::NoFeasibleClassifier`] when no grid point with finite
    ///   Fisher cost satisfies the overflow constraints.
    /// * Solver/statistics failures are propagated.
    pub fn train(&self, data: &BinaryDataset, format: QFormat) -> Result<LdaFpModel> {
        self.train_checkpointed(data, format, None)
    }

    /// [`Self::train`] with crash-safe checkpointing of the
    /// branch-and-bound search.
    ///
    /// With a [`CheckpointPolicy`], the search periodically snapshots its
    /// full state to the policy's path, resumes from a valid snapshot when
    /// one exists, and honors the policy's cooperative interrupt flag. A
    /// resumed run replays to a model bit-identical to the uninterrupted
    /// one **provided the same `data` and `format` are passed** (the
    /// snapshot carries the search state, not the training inputs —
    /// callers bind them together via [`ldafp_bnb::snapshot_fingerprint`]).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::train`], plus
    /// [`CoreError::Interrupted`] when the cooperative interrupt flag stops
    /// the search: the final snapshot is flushed first, so the next call
    /// resumes where this one stopped.
    pub fn train_checkpointed(
        &self,
        data: &BinaryDataset,
        format: QFormat,
        ckpt: Option<&CheckpointPolicy>,
    ) -> Result<LdaFpModel> {
        let start = Instant::now();
        let tp =
            TrainingProblem::from_dataset(data, format, self.config.rho, self.config.rounding)?;
        if obs::enabled() {
            let (na, nb) = data.class_sizes();
            obs::emit(
                obs::Event::new("train.start")
                    .with("family", "lda")
                    .with("format", format.to_string())
                    .with("features", tp.num_features())
                    .with("rows", na + nb),
            );
        }
        let lda = LdaModel::from_moments(tp.moments())?;

        // ---- Incumbent seeding (DESIGN.md §5 heuristics) ----------------
        let mut best: Option<(Vec<f64>, f64)> = None;
        self.consider(
            &tp,
            &format.round_slice_to_grid(lda.weights(), self.config.rounding),
            &mut best,
        );
        if self.config.scaled_rounding {
            let steps = self.config.scaled_rounding_steps;
            self.scaled_rounding_sweep(&tp, lda.weights(), steps, &mut best);
        }

        // ---- Branch-and-bound (Algorithm 1) -----------------------------
        // The root box is eq. 18's, the value range clipped to the grid
        // values each weight may take alone; every child box stays inside
        // it, so no relaxation needs eq. 18 rows.
        let (lower, upper) = tp.elementwise_box();
        let root = BoxNode::new(lower.to_vec(), upper.to_vec()).ok_or_else(|| {
            CoreError::InvalidTrainingData {
                reason: "degenerate search box (non-finite scatter statistics)".to_string(),
            }
        })?;

        let node_problem = NodeProblem {
            #[cfg(feature = "fault-injection")]
            fault: self.fault.clone(),
            ..NodeProblem::new(&tp, &self.config)
        };
        let outcome = ldafp_bnb::solve(
            &node_problem,
            root,
            &self.config.bnb,
            best.clone(),
            self.config.resolved_solver_threads(),
            ckpt,
        );
        if outcome.interrupted {
            // The final snapshot is already on disk (flushed before the
            // search loop exited); surface the interruption instead of a
            // partial model.
            return Err(CoreError::Interrupted);
        }
        if let Some((w, _)) = outcome.incumbent.clone() {
            self.consider(&tp, &w, &mut best);
        }

        // ---- Last-resort fallback ---------------------------------------
        // The search and seeding found nothing. Before giving up, run a
        // dense scaled-rounding sweep of the float-LDA direction: if *any*
        // feasible grid point exists along that ray, training returns it —
        // labeled `FallbackRounded`, never unlabeled.
        let mut fellback = false;
        if best.is_none() {
            let steps = self.config.scaled_rounding_steps.max(320);
            self.scaled_rounding_sweep(&tp, lda.weights(), steps, &mut best);
            fellback = best.is_some();
        }

        let (weights, fisher_cost) = best.ok_or(CoreError::NoFeasibleClassifier)?;
        let search_weights = weights.clone();
        let search_optimum_cost = fisher_cost;
        let search_gap =
            ((search_optimum_cost - outcome.best_lower_bound) / search_optimum_cost).max(0.0);
        let (weights, fisher_cost) = if self.config.empirical_scale_selection {
            self.select_scale_by_training_error(&tp, data, weights, fisher_cost)?
        } else {
            (weights, fisher_cost)
        };
        // A certificate covers the Fisher-cost optimum of formulation (21);
        // if empirical selection deploys a different-cost scaling, the
        // deployed model is no longer the certified point.
        let uncertified_rescale = (fisher_cost - search_optimum_cost).abs() > 1e-12;
        let degradation = &outcome.stats.degradation;
        let training_outcome = if fellback {
            TrainingOutcome::FallbackRounded
        } else if !degradation.is_clean() || uncertified_rescale {
            TrainingOutcome::Degraded {
                recovered_solves: degradation.recovered_solves,
                trivial_bounds: degradation.trivial_bounds,
                suspect_infeasible: degradation.suspect_infeasible,
                uncertified_rescale,
            }
        } else if !outcome.certified {
            TrainingOutcome::BudgetExhausted
        } else {
            TrainingOutcome::Certified
        };
        let threshold = if self.config.empirical_threshold_selection {
            self.select_threshold_by_training_error(&tp, data, &weights)?
        } else {
            tp.threshold_for(&weights)
        };
        let classifier = FixedPointClassifier::from_float(&weights, threshold, format)?;
        obs::Registry::global().counter("train.sessions").inc();
        if obs::enabled() {
            obs::emit(
                obs::Event::new("train.done")
                    .with("family", "lda")
                    .with("outcome", training_outcome.label())
                    .with("fisher_cost", fisher_cost)
                    .with("nodes_assessed", outcome.stats.nodes_assessed)
                    .with(
                        "degraded_assessments",
                        outcome.stats.degradation.degraded_assessments(),
                    )
                    .with(
                        "elapsed_us",
                        u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
                    ),
            );
        }
        Ok(LdaFpModel {
            classifier,
            weights,
            fisher_cost,
            search_weights,
            search_fisher_cost: search_optimum_cost,
            search_gap,
            outcome: training_outcome,
            stats: outcome.stats,
            elapsed: start.elapsed(),
        })
    }

    /// Trains at a total word length, trying every split `QK.F` with
    /// `K ∈ 1..=max_k`. Returns the best model and its format, judged by
    /// training-set error (ties broken by Fisher cost). The paper fixes one
    /// `QK.F` per experiment but does not state the split; picking the best
    /// one reproduces it fairly for both LDA and LDA-FP.
    ///
    /// # Errors
    ///
    /// When every split fails, returns
    /// [`CoreError::AutoFormatSearchFailed`] aggregating each format's
    /// failure (not just the last one).
    pub fn train_auto(
        &self,
        data: &BinaryDataset,
        word_length: u32,
        max_k: u32,
    ) -> Result<(LdaFpModel, QFormat)> {
        let mut best: Option<(LdaFpModel, QFormat, f64)> = None;
        let mut failures: Vec<(String, String)> = Vec::new();
        for k in 1..=max_k.min(word_length) {
            let Ok(format) = QFormat::new(k, word_length - k) else {
                continue;
            };
            match self.train(data, format) {
                Ok(model) => {
                    let err = crate::eval::error_rate(model.classifier(), data);
                    let better = match &best {
                        None => true,
                        Some((bm, _, be)) => {
                            err < *be - 1e-12
                                || (err <= *be + 1e-12 && model.fisher_cost() < bm.fisher_cost())
                        }
                    };
                    if better {
                        best = Some((model, format, err));
                    }
                }
                Err(e) => failures.push((format.to_string(), e.to_string())),
            }
        }
        match best {
            Some((model, format, _)) => Ok((model, format)),
            None if failures.is_empty() => Err(CoreError::NoFeasibleClassifier),
            None => Err(CoreError::AutoFormatSearchFailed { failures }),
        }
    }

    /// Evaluates a grid-valued candidate and keeps it if deployable
    /// (orientation canonicalized to `t > 0`), feasible, finite and better.
    fn consider(&self, tp: &TrainingProblem, w: &[f64], best: &mut Option<(Vec<f64>, f64)>) {
        let Some(w) = tp.canonicalize_orientation(w) else {
            return;
        };
        let cost = tp.fisher_cost(&w);
        if !cost.is_finite() || !tp.is_feasible(&w) {
            return;
        }
        if best.as_ref().is_none_or(|(_, c)| cost < *c) {
            *best = Some((w, cost));
        }
    }

    /// Scaled rounding: sweep `λ` over `steps` geometric steps and round
    /// `±λ·ŵ` to the grid. A rounded point equal to the last one of its
    /// sign is skipped: `consider` keeps only strict improvements, so a
    /// repeat can never be adopted.
    fn scaled_rounding_sweep(
        &self,
        tp: &TrainingProblem,
        unit_w: &[f64],
        steps: usize,
        best: &mut Option<(Vec<f64>, f64)>,
    ) {
        let format = tp.format();
        let max_abs = vecops::norm_inf(unit_w);
        if max_abs == 0.0 {
            return;
        }
        let lambda_max = format.max_value() / max_abs;
        let lambda_min = (format.resolution() / max_abs) * 0.5;
        if !(lambda_max > lambda_min && lambda_max.is_finite()) {
            return;
        }
        let steps = steps.max(2);
        let ratio = (lambda_max / lambda_min).powf(1.0 / (steps - 1) as f64);
        let mut lambda = lambda_min;
        let mut last: [Option<Vec<f64>>; 2] = [None, None];
        for _ in 0..steps {
            for (sign, last) in [1.0, -1.0].into_iter().zip(&mut last) {
                let scaled = vecops::scale(unit_w, sign * lambda);
                let w = format.round_slice_to_grid(&scaled, self.config.rounding);
                if last.as_deref() != Some(&w[..]) {
                    self.consider(tp, &w, best);
                    *last = Some(w);
                }
            }
            lambda *= ratio;
        }
    }
}

impl LdaFpTrainer {
    /// Scans rounded scalings `round(λ·w)` of the incumbent and returns the
    /// variant with the lowest bit-exact training error (ties: lower Fisher
    /// cost, then larger norm — larger norms suffer less product rounding).
    ///
    /// See [`LdaFpConfig::empirical_scale_selection`] for the rationale.
    fn select_scale_by_training_error(
        &self,
        tp: &TrainingProblem,
        data: &BinaryDataset,
        weights: Vec<f64>,
        fisher_cost: f64,
    ) -> Result<(Vec<f64>, f64)> {
        let format = tp.format();
        let max_abs = vecops::norm_inf(&weights);
        if max_abs == 0.0 {
            return Ok((weights, fisher_cost));
        }
        let lambda_max = format.max_value() / max_abs;
        // Geometric scan from 1/4 of the incumbent's scale up to the range
        // limit; λ = 1 (the incumbent itself) is always included.
        let mut candidates: Vec<Vec<f64>> = vec![weights.clone()];
        let steps = 24;
        let lo = 0.25f64;
        let ratio = (lambda_max.max(lo * 1.01) / lo).powf(1.0 / steps as f64);
        let mut lambda = lo;
        for _ in 0..=steps {
            let cand =
                format.round_slice_to_grid(&vecops::scale(&weights, lambda), self.config.rounding);
            if candidates.last() != Some(&cand) && !candidates.contains(&cand) {
                candidates.push(cand);
            }
            lambda *= ratio;
        }

        let mut best: Option<(Vec<f64>, f64, f64, f64)> = None; // (w, err, J, norm)
        for cand in candidates {
            let j = tp.fisher_cost(&cand);
            if !j.is_finite() || !tp.is_feasible(&cand) {
                continue;
            }
            let Some(cand) = tp.canonicalize_orientation(&cand) else {
                continue;
            };
            let clf = FixedPointClassifier::from_float(&cand, tp.threshold_for(&cand), format)?;
            let err = crate::eval::error_rate(&clf, data);
            let norm = vecops::norm2(&cand);
            let better = match &best {
                None => true,
                Some((_, be, bj, bn)) => {
                    err < be - 1e-12
                        || (err <= be + 1e-12 && j < bj - 1e-12)
                        || (err <= be + 1e-12 && (j - bj).abs() <= 1e-12 && norm > *bn)
                }
            };
            if better {
                best = Some((cand, err, j, norm));
            }
        }
        match best {
            Some((w, _, j, _)) => Ok((w, j)),
            None => Ok((weights, fisher_cost)),
        }
    }

    /// Scans every distinct grid threshold over the training projections
    /// and returns the one with the lowest bit-exact training error (ties:
    /// closest to the eq. 12 midpoint).
    ///
    /// See [`LdaFpConfig::empirical_threshold_selection`].
    fn select_threshold_by_training_error(
        &self,
        tp: &TrainingProblem,
        data: &BinaryDataset,
        weights: &[f64],
    ) -> Result<f64> {
        let format = tp.format();
        let probe = FixedPointClassifier::from_float(weights, 0.0, format)?;
        // Bit-exact projections of every training sample.
        let mut proj_a: Vec<i64> = Vec::new();
        let mut proj_b: Vec<i64> = Vec::new();
        for (x, label) in data.iter_labeled() {
            let y = probe.project(x).raw();
            match label {
                ldafp_datasets::ClassLabel::A => proj_a.push(y),
                ldafp_datasets::ClassLabel::B => proj_b.push(y),
            }
        }
        proj_a.sort_unstable();
        proj_b.sort_unstable();

        // Candidate raw thresholds: every distinct projection plus one step
        // above the maximum (classify-all-B), clamped to the format range.
        let mut cands: Vec<i64> = proj_a.iter().chain(&proj_b).copied().collect();
        cands.push(cands.iter().copied().max().unwrap_or(0).saturating_add(1));
        cands.sort_unstable();
        cands.dedup();

        let default_raw = format.quantize_raw(tp.threshold_for(weights), self.config.rounding);
        let total = (proj_a.len() + proj_b.len()) as f64;
        let mut best_raw = default_raw;
        let mut best_err = f64::INFINITY;
        for &t in &cands {
            let t = t.clamp(format.min_raw(), format.max_raw());
            // Rule (eq. 12): y ≥ t → class A.
            let a_wrong = proj_a.partition_point(|&y| y < t);
            let b_wrong = proj_b.len() - proj_b.partition_point(|&y| y < t);
            // Skip degenerate cuts that silence one class entirely — they
            // minimize unbalanced training error while destroying the
            // head's usefulness (e.g. inside a one-vs-rest ensemble).
            if a_wrong == proj_a.len() || b_wrong == proj_b.len() {
                continue;
            }
            let err = (a_wrong + b_wrong) as f64 / total;
            let closer = (t - default_raw).abs() < (best_raw - default_raw).abs();
            if err < best_err - 1e-12 || ((err - best_err).abs() <= 1e-12 && closer) {
                best_err = err;
                best_raw = t;
            }
        }
        Ok(best_raw as f64 * format.resolution())
    }
}

/// Result of probing an infeasibility claim against grid points in the
/// box (see [`NodeProblem::feasibility_witness`]).
enum Witness {
    /// A grid point strictly inside the feasible region (with the solver's
    /// own phase-I margin): the infeasibility claim is refuted.
    Interior(Vec<f64>),
    /// A grid point on the feasible boundary: consistent with "no strict
    /// interior", but too valuable to discard with the pruned node.
    Boundary(Vec<f64>),
    /// No feasible grid point among the probes: the claim stands.
    None,
}

/// `dᵀv = 1` solved for the pivot `k`, the coordinate with the largest
/// `|d_k|`: `v = v₀ + P·u` with `v₀ = e_k/d_k`, where `u` holds the other
/// `M − 1` coordinates of `v` and `v_k = 1/d_k − Σ_{j≠k} (d_j/d_k)·u_j`.
/// None of it depends on the box, so it is built once per training.
struct Pivot {
    /// The pivot coordinate `k`.
    k: usize,
    /// `d_k`.
    dk: f64,
    /// The coordinates of `u`: `0..M` without `k`.
    free: Vec<usize>,
    /// `−d_j/d_k` per coordinate, 0 at `k`: row `k` of `P`.
    r: Vec<f64>,
    /// `2·PᵀS_W·P`: the objective `vᵀS_W v` is `½uᵀQu + cᵀu + constant`.
    q: Matrix,
    /// `2·PᵀS_W·v₀`.
    c: Vec<f64>,
    /// `v₀ᵀS_W v₀ = S_kk/d_k²`.
    constant: f64,
    /// Each eq. 20 cone `‖A·v‖ ≤ gᵀv + e·λ` of
    /// [`TrainingProblem::projection_cones`] over `(u, λ)`:
    /// `(A·P | 0, A·v₀, (Pᵀg, e), gᵀv₀)`.
    cones: Vec<(Matrix, Vec<f64>, Vec<f64>, f64)>,
}

impl Pivot {
    fn new(tp: &TrainingProblem) -> Pivot {
        let d = &tp.moments().mean_diff;
        let m = d.len();
        let k = (0..m).fold(0, |k, j| if d[j].abs() > d[k].abs() { j } else { k });
        let mut pivot = Pivot {
            k,
            dk: d[k],
            free: (0..m).filter(|&j| j != k).collect(),
            r: (0..m)
                .map(|j| if j == k { 0.0 } else { -d[j] / d[k] })
                .collect(),
            q: Matrix::zeros(0, 0),
            c: Vec::new(),
            constant: 0.0,
            cones: Vec::new(),
        };
        let (sp, sv0) = pivot.reduce_cols(&tp.moments().s_w);
        pivot.q = Matrix::from_fn(m - 1, m - 1, |a, b| {
            let i = pivot.free[a];
            2.0 * (sp[(i, b)] + pivot.r[i] * sp[(k, b)])
        });
        pivot.c = pivot.reduce(&sv0).0.iter().map(|v| 2.0 * v).collect();
        pivot.constant = sv0[k] / pivot.dk;
        pivot.cones = tp
            .projection_cones()
            .into_iter()
            .map(|(a, g, e)| {
                let (ap, av0) = pivot.reduce_cols(a);
                let a = Matrix::from_fn(m, m, |i, j| if j + 1 < m { ap[(i, j)] } else { 0.0 });
                let (mut pg, gv0) = pivot.reduce(&g);
                pg.push(e);
                (a, av0, pg, gv0)
            })
            .collect();
        pivot
    }

    /// `(Pᵀg, gᵀv₀)`: the linear form `gᵀv` is `(Pᵀg)ᵀu + gᵀv₀`.
    fn reduce(&self, g: &[f64]) -> (Vec<f64>, f64) {
        let pg = self
            .free
            .iter()
            .map(|&j| g[j] + self.r[j] * g[self.k])
            .collect();
        (pg, g[self.k] / self.dk)
    }

    /// `(A·P, A·v₀)`: `A·v` is `A·P·u + A·v₀`.
    fn reduce_cols(&self, a: &Matrix) -> (Matrix, Vec<f64>) {
        let ap = Matrix::from_fn(a.rows(), self.free.len(), |i, b| {
            let j = self.free[b];
            a[(i, j)] + self.r[j] * a[(i, self.k)]
        });
        let av0 = (0..a.rows()).map(|i| a[(i, self.k)] / self.dk).collect();
        (ap, av0)
    }

    /// `v` from `u`.
    fn direction(&self, u: &[f64]) -> Vec<f64> {
        let mut v = vec![0.0; self.r.len()];
        v[self.k] = 1.0 / self.dk;
        for (&j, &x) in self.free.iter().zip(u) {
            v[j] = x;
            v[self.k] += self.r[j] * x;
        }
        v
    }
}

/// One box's relaxation of formulation (21) in the Charnes–Cooper
/// variables `v = w/(dᵀw)`, `λ = 1/(dᵀw)` (DESIGN.md §5): minimize
/// `vᵀS_W v` subject to `dᵀv = 1`, `λ·lo ≤ v ≤ λ·hi` and the eq. 20 cones
/// made homogeneous in `(v, λ)`, over the variables `(u, λ)` of [`Pivot`].
///
/// A box that contains `w = 0` drops `λ` and the cones: its relaxation is
/// the cone of the box, with `v_i ≥ 0` where `lo_i = 0` and `v_i ≤ 0`
/// where `hi_i = 0`, over `u` alone. (With `λ` kept it would be unbounded
/// in `λ`, and centering would not converge.)
struct Relaxation {
    problem: SocpProblem,
    /// Whether `λ` is a variable: the box excludes `w = 0`.
    homogeneous: bool,
}

/// Solver tolerances of every node relaxation: the solver's defaults with
/// the barrier stopping at a duality-gap bound of `1e-7`.
fn node_solver_config() -> SolverConfig {
    SolverConfig {
        tol: 1e-7,
        ..SolverConfig::default()
    }
}

/// The per-node bounding problem over one weight box (dimensions `0..M`):
/// one [`Relaxation`] solve per box gives the bound and the candidate.
struct NodeProblem<'a> {
    tp: &'a TrainingProblem,
    config: &'a LdaFpConfig,
    pivot: Pivot,
    #[cfg(feature = "fault-injection")]
    fault: Option<FaultPlan>,
}

impl<'a> NodeProblem<'a> {
    fn new(tp: &'a TrainingProblem, config: &'a LdaFpConfig) -> Self {
        NodeProblem {
            tp,
            config,
            pivot: Pivot::new(tp),
            #[cfg(feature = "fault-injection")]
            fault: None,
        }
    }

    /// Grid-snapped weight box, or `None` when the box contains no grid
    /// point in some dimension.
    fn snapped_bounds(&self, node: &BoxNode) -> Option<(Vec<f64>, Vec<f64>)> {
        let m = self.tp.num_features();
        let format = self.tp.format();
        let mut lo = Vec::with_capacity(m);
        let mut hi = Vec::with_capacity(m);
        for d in 0..m {
            let l = format.ceil_to_grid(node.lower[d]);
            let h = format.floor_to_grid(node.upper[d]);
            if l > h + 1e-12 {
                return None;
            }
            lo.push(l);
            hi.push(h.max(l));
        }
        Some((lo, hi))
    }

    /// Whether some point of the box has `dᵀw > 0`, the orientation a
    /// deployable classifier needs: `max dᵀw` over the box, by interval
    /// arithmetic.
    fn deploys(&self, lo: &[f64], hi: &[f64]) -> bool {
        let d = &self.tp.moments().mean_diff;
        let t_max: f64 = (0..d.len()).map(|i| (d[i] * lo[i]).max(d[i] * hi[i])).sum();
        t_max > 0.0
    }

    /// Builds the box's [`Relaxation`].
    fn build_relaxation(
        &self,
        lo: &[f64],
        hi: &[f64],
    ) -> std::result::Result<Relaxation, SolverError> {
        let m = lo.len();
        let homogeneous = lo.iter().zip(hi).any(|(&l, &h)| l > 0.0 || h < 0.0);
        let n = m - 1 + usize::from(homogeneous);
        let pivot = &self.pivot;
        let q = Matrix::from_fn(n, n, |a, b| {
            if a + 1 < m && b + 1 < m {
                pivot.q[(a, b)]
            } else {
                0.0
            }
        });
        let mut c = pivot.c.clone();
        c.resize(n, 0.0);
        let mut p = SocpProblem::new(q, c)?;
        p.set_objective_constant(pivot.constant);
        for i in 0..m {
            let mut unit = vec![0.0; m];
            unit[i] = 1.0;
            let (pe, v0) = pivot.reduce(&unit);
            // `sign·(v_i − λ·end) ≤ 0`; without `λ`, only a zero end stays.
            for (sign, end) in [(1.0, hi[i]), (-1.0, lo[i])] {
                if homogeneous || end == 0.0 {
                    let mut g: Vec<f64> = pe.iter().map(|v| sign * v).collect();
                    if homogeneous {
                        g.push(-sign * end);
                    }
                    p.add_linear(g, -sign * v0)?;
                }
            }
        }
        if homogeneous {
            for (a, b, g, e) in &pivot.cones {
                p.add_soc(a.clone(), b.clone(), g.clone(), *e)?;
            }
        }
        Ok(Relaxation {
            problem: p,
            homogeneous,
        })
    }

    /// The relaxation's variables at the weights `w` — `u`, then `λ` when
    /// the relaxation is `homogeneous` — with `dᵀw`; `None` unless
    /// `dᵀw > 0`, the only orientation the relaxation holds.
    fn to_vars(&self, w: &[f64], homogeneous: bool) -> Option<(Vec<f64>, f64)> {
        let t = vecops::dot(&self.tp.moments().mean_diff, w);
        (t > 0.0).then(|| {
            let mut x: Vec<f64> = self.pivot.free.iter().map(|&j| w[j] / t).collect();
            if homogeneous {
                x.push(1.0 / t);
            }
            (x, t)
        })
    }

    /// The candidate of a relaxation point `(v, λ)`: `round(v/λ)`, or
    /// without `λ` `round(s·v)` at the largest `s` that keeps `s·v` in the
    /// box and the eq. 20 cones — the point of the ray `v` that the full
    /// relaxation admits with the least `λ = 1/s`.
    fn relaxed_candidate(
        &self,
        v: &[f64],
        lambda: Option<f64>,
        lo: &[f64],
        hi: &[f64],
    ) -> Option<(Vec<f64>, f64)> {
        if let Some(lambda) = lambda {
            return self.rounded_candidate(&vecops::scale(v, 1.0 / lambda));
        }
        let mut s = f64::INFINITY;
        for ((&vi, &l), &h) in v.iter().zip(lo).zip(hi) {
            if vi > 0.0 {
                s = s.min(h / vi);
            } else if vi < 0.0 {
                s = s.min(l / vi);
            }
        }
        for (a, g, e) in self.tp.projection_cones() {
            let av = a.mul_vec(v).expect("square by construction");
            let slope = vecops::norm2(&av) - vecops::dot(&g, v);
            if slope > 0.0 {
                s = s.min(e / slope);
            }
        }
        self.rounded_candidate(&vecops::scale(v, s))
    }

    /// The trivial-bound degraded assessment used when the bound solve is
    /// beyond recovery: `J ≥ 0` always holds, so a zero bound keeps the
    /// search sound (never prunes the optimum), and the center-rounded
    /// candidate keeps terminal boxes resolvable without a solver — a
    /// terminal box pins a single grid point, so the incumbent survives.
    fn degraded_assessment(&self, lo: &[f64], hi: &[f64], e: &SolverError) -> NodeAssessment {
        let center: Vec<f64> = lo.iter().zip(hi).map(|(&l, &h)| 0.5 * (l + h)).collect();
        NodeAssessment {
            lower_bound: Some(0.0),
            candidate: self.rounded_candidate(&center),
            degradation: Some(NodeDegradation::TrivialBound {
                error_kind: error_kind(e).to_string(),
            }),
        }
    }

    /// Settles a box whose relaxation has no strictly feasible point —
    /// certified by phase I, or known in advance for a thin box. The claim
    /// prunes unconditionally, so it is only honored when no grid probe in
    /// the box contradicts it.
    fn infeasibility_claim(&self, r: &Relaxation, lo: &[f64], hi: &[f64]) -> NodeAssessment {
        match self.feasibility_witness(r, lo, hi) {
            Witness::None => NodeAssessment::infeasible(),
            // "No strict interior" is consistent with a feasible boundary
            // grid point, so the claim is honored as far as the
            // *relaxation* goes — but pruning would discard that grid
            // point, so the node keeps the trivial bound and splits down to
            // enumerable leaves instead. Sound and exact, hence not a
            // degradation.
            Witness::Boundary(witness) => {
                NodeAssessment::feasible(0.0, self.rounded_candidate(&witness))
            }
            Witness::Interior(witness) => NodeAssessment {
                lower_bound: Some(0.0),
                candidate: self.rounded_candidate(&witness),
                degradation: Some(NodeDegradation::SuspectInfeasible),
            },
        }
    }

    /// Whether some weight dimension of the box has zero width. Its two
    /// rows `±(v_i − λ·w_i) ≤ 0` (or, without `λ`, `±v_i ≤ 0`) sum to 0,
    /// so one of them is violated by at least 0 at every point: the
    /// relaxation has no strictly feasible point and phase I can only end
    /// in `Infeasible`.
    fn is_thin(lo: &[f64], hi: &[f64]) -> bool {
        lo.iter().zip(hi).any(|(l, h)| l == h)
    }

    /// Distrust-but-verify probe for infeasibility claims: checks the
    /// snapped box center and (for `M ≤ 6`) every box corner — all grid
    /// points, since `lo`/`hi` are grid-snapped — against the relaxation's
    /// own constraints, in its variables. A probe with `dᵀw ≤ 0` has no
    /// image there and witnesses nothing.
    ///
    /// The solver's `Infeasible` asserts "no *strictly* feasible point
    /// within the phase-I margin", so the two tiers mean different things:
    /// a strictly interior probe point refutes the claim outright
    /// ([`Witness::Interior`]); a boundary-feasible point is consistent
    /// with it (thin boxes legitimately have no interior) but must not be
    /// silently discarded by the prune ([`Witness::Boundary`]). The
    /// boundary tolerance is taken in the units of `w`: the constraints
    /// are homogeneous, so a violation at `(v, λ)` is `1/(dᵀw)` times the
    /// one at `w`.
    fn feasibility_witness(&self, r: &Relaxation, lo: &[f64], hi: &[f64]) -> Witness {
        let format = self.tp.format();
        let m = lo.len();
        let center: Vec<f64> = lo.iter().zip(hi).map(|(&l, &h)| 0.5 * (l + h)).collect();
        let snapped: Vec<f64> = format
            .round_slice_to_grid(&center, self.config.rounding)
            .iter()
            .zip(lo.iter().zip(hi))
            .map(|(&v, (&l, &h))| v.clamp(l, h))
            .collect();
        let mut probes: Vec<Vec<f64>> = vec![snapped];
        if m <= 6 {
            for mask in 0u32..(1 << m) {
                probes.push(
                    (0..m)
                        .map(|d| if mask >> d & 1 == 1 { hi[d] } else { lo[d] })
                        .collect(),
                );
            }
        }
        let mut boundary = None;
        for w in probes {
            let Some((x, t)) = self.to_vars(&w, r.homogeneous) else {
                continue;
            };
            let violation = r.problem.max_violation(&x);
            if violation < -FEASIBILITY_MARGIN {
                return Witness::Interior(w);
            }
            if violation * t <= 1e-9 && boundary.is_none() {
                boundary = Some(w);
            }
        }
        match boundary {
            Some(w) => Witness::Boundary(w),
            None => Witness::None,
        }
    }

    /// Rounds a relaxation solution to the grid and returns it (oriented
    /// for deployment, `dᵀw > 0`) with its exact cost when feasible and
    /// finite (eq. 27's rounding step).
    fn rounded_candidate(&self, w: &[f64]) -> Option<(Vec<f64>, f64)> {
        let rounded = self
            .tp
            .format()
            .round_slice_to_grid(w, self.config.rounding);
        let oriented = self.tp.canonicalize_orientation(&rounded)?;
        let cost = self.tp.fisher_cost(&oriented);
        if cost.is_finite() && self.tp.is_feasible(&oriented) {
            Some((oriented, cost))
        } else {
            None
        }
    }

    /// The per-node step: one SOCP solve of the box's [`Relaxation`]
    /// yields the lower bound, and its rounded minimizer is the node's
    /// candidate. With `skip_thin`, a thin box (see [`Self::is_thin`])
    /// goes straight to [`Self::infeasibility_claim`] without a solve; the
    /// search passes `true`, and the tests compare it against the
    /// always-solve path.
    fn assess_box(&self, node: &BoxNode, index: usize, skip_thin: bool) -> NodeAssessment {
        // Deterministic fault injection (test harness): the search loop
        // hands us the serial node index, so the fate of each node is
        // stable across thread counts.
        #[cfg(feature = "fault-injection")]
        let fault = self
            .fault
            .as_ref()
            .and_then(|plan| plan.fault_for(index).map(|kind| (kind, plan.clone())));
        #[cfg(not(feature = "fault-injection"))]
        let _ = index;

        let Some((lo, hi)) = self.snapped_bounds(node) else {
            return NodeAssessment::infeasible();
        };
        if !self.deploys(&lo, &hi) {
            return NodeAssessment::infeasible();
        }
        if lo.len() == 1 && lo[0] <= 0.0 && hi[0] >= 0.0 {
            // One weight: `dᵀv = 1` leaves no free coordinate, and a box
            // that keeps 0 relaxes to the single point `v₀`.
            let v = self.pivot.direction(&[]);
            let candidate = self.relaxed_candidate(&v, None, &lo, &hi);
            return NodeAssessment::feasible(self.pivot.constant, candidate);
        }

        let relaxation = match self.build_relaxation(&lo, &hi) {
            Ok(built) => built,
            Err(e) => return self.degraded_assessment(&lo, &hi, &e),
        };

        // A node with a planned fault always reaches the recovering solve,
        // which is where the fault is injected.
        #[cfg(feature = "fault-injection")]
        let skip_thin = skip_thin && fault.is_none();
        if skip_thin && Self::is_thin(&lo, &hi) {
            static THIN_BOXES: std::sync::OnceLock<std::sync::Arc<obs::Counter>> =
                std::sync::OnceLock::new();
            THIN_BOXES
                .get_or_init(|| obs::Registry::global().counter("core.thin_boxes"))
                .inc();
            return self.infeasibility_claim(&relaxation, &lo, &hi);
        }

        #[cfg(feature = "fault-injection")]
        if let Some((FaultKind::Slow(d), _)) = &fault {
            std::thread::sleep(*d);
        }

        // Per-attempt fault hook for the recovering solve path.
        #[cfg(feature = "fault-injection")]
        let inject = |attempt: usize| -> Option<SolverError> {
            match &fault {
                Some((FaultKind::Numerical, plan)) if plan.attempt_fails(attempt) => {
                    Some(SolverError::NumericalFailure {
                        reason: format!("injected fault (attempt {attempt})"),
                    })
                }
                Some((FaultKind::Infeasible, _)) => {
                    Some(SolverError::Infeasible { max_violation: 1.0 })
                }
                _ => None,
            }
        };
        #[cfg(not(feature = "fault-injection"))]
        let inject = |_: usize| -> Option<SolverError> { None };

        // Warm start: the box center, when it has an image.
        let center: Vec<f64> = lo.iter().zip(&hi).map(|(&l, &h)| 0.5 * (l + h)).collect();
        let start = self.to_vars(&center, relaxation.homogeneous);
        match solve_with_recovery_checked(
            &relaxation.problem,
            start.as_ref().map(|(x, _)| &x[..]),
            &node_solver_config(),
            self.config.max_solver_retries,
            inject,
        ) {
            Ok(rec) => {
                let bound = relaxation.problem.lower_bound(&rec.solution);
                let degradation = rec.recovered().then(|| NodeDegradation::Recovered {
                    attempts: rec.attempts.len().saturating_sub(1),
                    error_kind: rec
                        .attempts
                        .iter()
                        .find_map(|a| a.error_kind.clone())
                        .unwrap_or_else(|| "numerical-failure".to_string()),
                });
                let (u, lambda) = rec.solution.x.split_at(lo.len() - 1);
                let v = self.pivot.direction(u);
                NodeAssessment {
                    lower_bound: Some(bound.max(0.0)),
                    candidate: self.relaxed_candidate(&v, lambda.first().copied(), &lo, &hi),
                    degradation,
                }
            }
            Err(SolverError::Infeasible { .. }) => self.infeasibility_claim(&relaxation, &lo, &hi),
            Err(e) => self.degraded_assessment(&lo, &hi, &e),
        }
    }
}

impl BoundingProblem for NodeProblem<'_> {
    #[cfg(feature = "fault-injection")]
    fn exact_indexing(&self) -> bool {
        // Fault plans key on the serial node index, so speculative
        // out-of-order assessment must be disabled when one is active.
        self.fault.is_some()
    }

    fn assess(&self, node: &BoxNode, index: usize) -> NodeAssessment {
        self.assess_box(node, index, true)
    }

    fn is_terminal(&self, node: &BoxNode) -> bool {
        // Terminal when every weight dimension pins a single grid point.
        let q = self.tp.format().resolution();
        (0..self.tp.num_features()).all(|d| node.width(d) < q - 1e-12)
    }

    fn branch(&self, node: &BoxNode) -> Option<(usize, f64)> {
        // Split the dimension with the most grid points.
        let format = self.tp.format();
        let q = format.resolution();
        let mut best_dim = None;
        let mut best_score = 1.0; // only split dims with > 1 grid point
        for dim in 0..self.tp.num_features() {
            let lo = format.ceil_to_grid(node.lower[dim]);
            let hi = format.floor_to_grid(node.upper[dim]);
            let pts = ((hi - lo) / q).round() + 1.0;
            if pts >= 2.0 && pts > best_score {
                best_score = pts;
                best_dim = Some(dim);
            }
        }
        let dim = best_dim?;
        // Split between two grid points so the children partition the grid.
        let lo = format.ceil_to_grid(node.lower[dim]);
        let hi = format.floor_to_grid(node.upper[dim]);
        let pts = ((hi - lo) / q).round() as i64 + 1;
        let at = lo + (pts / 2) as f64 * q - 0.5 * q;
        if at > node.lower[dim] && at < node.upper[dim] {
            Some((dim, at))
        } else {
            // Fall back to the geometric midpoint.
            let mid = node.midpoint(dim);
            (mid > node.lower[dim] && mid < node.upper[dim]).then_some((dim, mid))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldafp_linalg::Matrix;
    use ldafp_stats::Rng;

    fn easy_data() -> BinaryDataset {
        BinaryDataset::new(
            Matrix::from_rows(&[
                &[-0.4, 0.10],
                &[-0.25, -0.05],
                &[-0.3, 0.02],
                &[-0.5, 0.07],
                &[-0.35, -0.12],
            ])
            .unwrap(),
            Matrix::from_rows(&[
                &[0.4, 0.02],
                &[0.3, -0.08],
                &[0.25, 0.12],
                &[0.45, 0.03],
                &[0.35, -0.02],
            ])
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn trains_and_is_feasible() {
        let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
        let format = QFormat::new(2, 3).unwrap();
        let model = trainer.train(&easy_data(), format).unwrap();
        let tp =
            TrainingProblem::from_dataset(&easy_data(), format, 0.99, RoundingMode::NearestEven)
                .unwrap();
        assert!(tp.is_feasible(model.weights()));
        assert!(model.fisher_cost().is_finite());
        // Weights are on the grid.
        for &w in model.weights() {
            assert!(format.contains(w), "weight {w} off grid");
        }
    }

    /// A seeded box on `tp`'s grid. Dimension `d` spans `widths[d]` quanta
    /// (`None`: a random width); `Some(0)` with `at_zero` pins it to 0.
    fn seeded_box(
        rng: &mut Rng,
        tp: &TrainingProblem,
        widths: &[Option<i64>],
        at_zero: bool,
    ) -> BoxNode {
        let format = tp.format();
        let q = format.resolution();
        let (min_raw, max_raw) = (format.min_raw(), format.max_raw());
        let mut lower = Vec::new();
        let mut upper = Vec::new();
        for width in widths {
            let width = width.unwrap_or_else(|| rng.range_i64(1..=(max_raw - min_raw) / 2));
            let lo = if at_zero && width == 0 {
                0
            } else {
                rng.range_i64(min_raw..=max_raw - width)
            };
            lower.push(lo as f64 * q);
            upper.push((lo + width) as f64 * q);
        }
        BoxNode::new(lower, upper).unwrap()
    }

    fn assert_same_assessment(fast: &NodeAssessment, slow: &NodeAssessment) {
        assert_eq!(
            fast.lower_bound.map(f64::to_bits),
            slow.lower_bound.map(f64::to_bits)
        );
        let bits = |a: &NodeAssessment| {
            a.candidate.as_ref().map(|(w, c)| {
                (
                    w.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    c.to_bits(),
                )
            })
        };
        assert_eq!(bits(fast), bits(slow));
        assert_eq!(fast.degradation, slow.degradation);
    }

    #[test]
    fn thin_boxes_settle_as_the_solver_would() {
        // Each scenario: a per-dimension width rule (`Some(0)` zero width,
        // `None` random) and whether a zero-width dimension sits at 0, which
        // keeps `w = 0` in the box when the others straddle it (the
        // `λ`-free form).
        let data = easy_data();
        let format = QFormat::new(2, 4).unwrap();
        type WidthRule = fn(&mut Rng) -> Vec<Option<i64>>;
        let one_zero: WidthRule = |s| {
            let d = s.below(2);
            (0..2).map(|i| (i == d).then_some(0)).collect()
        };
        let scenarios: [(&str, WidthRule, bool); 3] = [
            ("one zero dimension", one_zero, false),
            ("all dimensions zero", |_| vec![Some(0); 2], false),
            ("one dimension pinned to 0", one_zero, true),
        ];
        let config = LdaFpConfig::default();
        let tp = TrainingProblem::from_dataset(&data, format, config.rho, config.rounding).unwrap();
        let np = NodeProblem::new(&tp, &config);
        let mut rng = Rng::new(0x7EA5);
        for (name, widths, at_zero) in scenarios {
            let (mut settled, mut kept, mut homogeneous) = (0, 0, 0);
            for index in 0..120 {
                let widths = widths(&mut rng);
                let node = seeded_box(&mut rng, &tp, &widths, at_zero);
                let Some((lo, hi)) = np.snapped_bounds(&node) else {
                    continue;
                };
                if !np.deploys(&lo, &hi) {
                    continue;
                }
                assert!(
                    NodeProblem::is_thin(&lo, &hi),
                    "{name}: box {index} is not thin"
                );
                let r = np.build_relaxation(&lo, &hi).unwrap();
                let solved = solve_with_recovery_checked(
                    &r.problem,
                    None,
                    &node_solver_config(),
                    config.max_solver_retries,
                    |_| None,
                );
                assert!(
                    matches!(solved, Err(SolverError::Infeasible { .. })),
                    "{name}: box {index} solved to {solved:?}"
                );
                let fast = np.assess_box(&node, index, true);
                let slow = np.assess_box(&node, index, false);
                assert_same_assessment(&fast, &slow);
                settled += 1;
                kept += usize::from(fast.lower_bound.is_some());
                homogeneous += usize::from(r.homogeneous);
            }
            assert!(
                settled >= 40,
                "{name}: only {settled} boxes reached the solver"
            );
            assert!(kept > 0, "{name}: all {settled} boxes were pruned");
            if at_zero {
                assert!(homogeneous < settled, "{name}: no box kept w = 0");
            } else {
                assert!(homogeneous > 0, "{name}: every box kept w = 0");
            }
        }
    }

    /// `easy_data` at Q2.4 and a box whose first weight is pinned to -0.5.
    fn thin_box_problem(config: &LdaFpConfig) -> (TrainingProblem, BoxNode) {
        let format = QFormat::new(2, 4).unwrap();
        let tp = TrainingProblem::from_dataset(&easy_data(), format, config.rho, config.rounding)
            .unwrap();
        let node = BoxNode::new(vec![-0.5, -0.25], vec![-0.5, 0.25]).unwrap();
        (tp, node)
    }

    #[test]
    fn thin_boxes_are_counted() {
        // Process-wide counter: compare deltas.
        let counted = || obs::Registry::global().counter("core.thin_boxes").get();
        let config = LdaFpConfig::default();
        let (tp, node) = thin_box_problem(&config);
        let before = counted();
        NodeProblem::new(&tp, &config).assess_box(&node, 0, true);
        assert!(counted() > before, "a thin box was not counted");
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn planned_faults_reach_the_solver_on_thin_boxes_and_the_root() {
        let config = LdaFpConfig::default();
        let (tp, node) = thin_box_problem(&config);
        let (lo, hi) = tp.elementwise_box();
        let root = BoxNode::new(lo.to_vec(), hi.to_vec()).unwrap();
        let plan = FaultPlan::new(1)
            .with_forced(0, FaultKind::Numerical)
            .with_persist_attempts(usize::MAX);
        let np = NodeProblem {
            fault: Some(plan),
            ..NodeProblem::new(&tp, &config)
        };
        // Node 0 has a planned fault: the recovering solve runs and fails,
        // on the thin box and on the root's `λ`-free relaxation alike.
        for node in [&node, &root] {
            let faulted = np.assess_box(node, 0, true);
            assert!(
                matches!(
                    faulted.degradation,
                    Some(NodeDegradation::TrivialBound { .. })
                ),
                "{faulted:?}"
            );
        }
        // Node 1 has none: the thin box is settled by the grid probe, and
        // the root solves cleanly.
        assert_eq!(np.assess_box(&node, 1, true).degradation, None);
        assert_eq!(np.assess_box(&root, 1, true).degradation, None);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn a_solve_recovered_at_attempt_two_keeps_its_bound() {
        let config = LdaFpConfig::default();
        let format = QFormat::new(2, 4).unwrap();
        let tp = TrainingProblem::from_dataset(&easy_data(), format, config.rho, config.rounding)
            .unwrap();
        // A box that excludes `w = 0`: box rows and cones over `(u, λ)`.
        let (lo, hi) = tp.elementwise_box();
        let node = BoxNode::new(lo.to_vec(), vec![-0.25, hi[1]]).unwrap();
        let plan = FaultPlan::new(1)
            .with_forced(0, FaultKind::Numerical)
            .with_persist_attempts(2);
        let np = NodeProblem {
            fault: Some(plan),
            ..NodeProblem::new(&tp, &config)
        };
        // Attempts 0 and 1 fail; attempt 2 solves at tolerances loosened
        // by 100².
        let faulted = np.assess_box(&node, 0, true);
        assert!(
            matches!(
                faulted.degradation,
                Some(NodeDegradation::Recovered { attempts: 2, .. })
            ),
            "{faulted:?}"
        );
        let bound = faulted.lower_bound.unwrap();
        let clean = np.assess_box(&node, 1, true);
        assert_eq!(clean.degradation, None);
        let clean_bound = clean.lower_bound.unwrap();

        // Attempt 2's duality-gap bound: the same recovering solve, outside
        // the search.
        let (lo, hi) = np.snapped_bounds(&node).unwrap();
        let r = np.build_relaxation(&lo, &hi).unwrap();
        assert!(r.homogeneous);
        let center: Vec<f64> = lo.iter().zip(&hi).map(|(&l, &h)| 0.5 * (l + h)).collect();
        let start = np.to_vars(&center, true).unwrap().0;
        let rec = solve_with_recovery_checked(
            &r.problem,
            Some(&start),
            &node_solver_config(),
            config.max_solver_retries,
            |attempt| {
                (attempt < 2).then(|| SolverError::NumericalFailure {
                    reason: "injected".to_string(),
                })
            },
        )
        .unwrap();
        assert_eq!(rec.attempts.len(), 3);
        let gap = rec.solution.duality_gap_bound;
        assert_eq!(
            bound.to_bits(),
            (rec.solution.objective - gap + np.pivot.constant).to_bits()
        );
        assert!(
            bound > 0.0 && (bound - clean_bound).abs() <= gap,
            "recovered bound {bound}, clean bound {clean_bound}, attempt-2 gap {gap}"
        );
    }

    #[test]
    fn relaxation_rows_are_the_box_and_four_cones_or_the_box_cone() {
        // A box that excludes 0 relaxes over `(u, λ)` with the 2·M box rows
        // and the 4 eq. 20 cones; one that keeps 0 over `u` alone, with a
        // sign row per zero end. Eq. 18 rides on the box.
        let config = LdaFpConfig::default();
        let format = QFormat::new(2, 4).unwrap();
        let tp = TrainingProblem::from_dataset(&easy_data(), format, config.rho, config.rounding)
            .unwrap();
        let np = NodeProblem::new(&tp, &config);
        let rows = |lo: &[f64], hi: &[f64]| {
            let r = np.build_relaxation(lo, hi).unwrap();
            (
                r.problem.num_vars(),
                r.problem.linear_constraints().len(),
                r.problem.soc_constraints().len(),
            )
        };
        let (lo, hi) = tp.elementwise_box();
        assert!(lo.iter().all(|&l| l < 0.0) && hi.iter().all(|&h| h > 0.0));
        assert_eq!(rows(lo, hi), (1, 0, 0));
        assert_eq!(rows(&[0.0, lo[1]], &[hi[0], 0.0]), (1, 2, 0));
        assert_eq!(rows(&[0.0, 0.0], &[0.0, hi[1]]), (1, 3, 0));
        assert_eq!(rows(&[0.25, lo[1]], &[hi[0], hi[1]]), (2, 2 * 2, 4));
    }

    #[test]
    fn root_bound_is_the_float_lda_floor_and_bounds_the_grid() {
        // The root keeps `w = 0` with no zero end, so its relaxation is
        // `min vᵀS_W v` over `dᵀv = 1`: `1/(dᵀS_W⁻¹d)`, float LDA's cost.
        for (k, f) in [(2, 2), (1, 3), (2, 4)] {
            let config = LdaFpConfig::default();
            let format = QFormat::new(k, f).unwrap();
            let tp =
                TrainingProblem::from_dataset(&easy_data(), format, config.rho, config.rounding)
                    .unwrap();
            let (lo, hi) = tp.elementwise_box();
            let root = BoxNode::new(lo.to_vec(), hi.to_vec()).unwrap();
            let a = NodeProblem::new(&tp, &config).assess_box(&root, 0, true);
            let bound = a.lower_bound.unwrap();
            let lda = LdaModel::from_moments(tp.moments()).unwrap();
            let floor = tp.fisher_cost(lda.weights());
            assert!(
                (bound - floor).abs() <= 1e-6 * floor && bound <= floor,
                "{format}: root bound {bound}, float LDA {floor}"
            );
            let d = &tp.moments().mean_diff;
            for a in format.enumerate() {
                for b in format.enumerate() {
                    let w = [a.to_f64(), b.to_f64()];
                    if vecops::dot(d, &w) > 0.0 && tp.is_feasible(&w) {
                        let cost = tp.fisher_cost(&w);
                        assert!(
                            bound <= cost * (1.0 + 1e-12),
                            "{format}: {w:?} costs {cost}, under the bound {bound}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn relaxation_holds_the_feasible_grid_points_of_its_box() {
        // Mapped into `(u, λ)`, a grid point of a box that excludes 0 meets
        // the relaxation's rows exactly when it meets eq. 20 (up to the
        // ridged Cholesky of the cones, a hair from their boundary).
        let config = LdaFpConfig::default();
        let format = QFormat::new(2, 3).unwrap();
        let tp = TrainingProblem::from_dataset(&easy_data(), format, config.rho, config.rounding)
            .unwrap();
        let np = NodeProblem::new(&tp, &config);
        // `d₀ < 0` on this data: the box keeps the deployable half.
        let (lo, hi) = ([-2.0, -2.0], [-0.125, 1.875]);
        let r = np.build_relaxation(&lo, &hi).unwrap();
        assert!(r.homogeneous);
        let (mut checked, mut disagreements) = (0, 0);
        for a in format.enumerate().filter(|a| a.to_f64() <= hi[0]) {
            for b in format.enumerate() {
                let w = [a.to_f64(), b.to_f64()];
                let Some((x, t)) = np.to_vars(&w, true) else {
                    continue;
                };
                checked += 1;
                let held = r.problem.max_violation(&x) * t <= 1e-9;
                disagreements += usize::from(held != tp.satisfies_projection(&w));
            }
        }
        assert!(checked > 100, "only {checked} grid points checked");
        assert!(disagreements <= 3, "{disagreements} disagreements");
    }

    #[test]
    fn never_worse_than_rounded_lda() {
        // The headline invariant: LDA-FP's discrete Fisher cost is at most
        // the feasible rounded-LDA cost (it is seeded with it).
        let data = easy_data();
        for f in 1..=6u32 {
            let format = QFormat::new(2, f).unwrap();
            let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
            let tp = TrainingProblem::from_dataset(&data, format, 0.99, RoundingMode::NearestEven)
                .unwrap();
            let lda = LdaModel::from_moments(tp.moments()).unwrap();
            let rounded = format.round_slice_to_grid(lda.weights(), RoundingMode::NearestEven);
            let model = trainer.train(&data, format).unwrap();
            if tp.is_feasible(&rounded) {
                let base = tp.fisher_cost(&rounded);
                if base.is_finite() {
                    assert!(
                        model.fisher_cost() <= base + 1e-9,
                        "W={}: LDA-FP cost {} > rounded-LDA cost {}",
                        2 + f,
                        model.fisher_cost(),
                        base
                    );
                }
            }
        }
    }

    #[test]
    fn auto_format_picks_some_split() {
        let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
        let (model, format) = trainer.train_auto(&easy_data(), 6, 4).unwrap();
        assert_eq!(format.word_length(), 6);
        assert!(model.fisher_cost().is_finite());
    }

    #[test]
    fn model_reports_provenance() {
        let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
        let model = trainer
            .train(&easy_data(), QFormat::new(2, 2).unwrap())
            .unwrap();
        assert!(model.stats().nodes_assessed >= 1);
        assert!(model.elapsed() > Duration::ZERO);
        // The classifier's weights match the reported weights.
        assert_eq!(model.classifier().weight_values(), model.weights());
    }

    #[test]
    fn incumbents_are_deployment_oriented() {
        // Regression: a rounded node point can have t = dᵀw < 0, a Fisher
        // cost that ties its mirror's and an inverted decision rule. With
        // seeding disabled, every incumbent comes from node rounding — all
        // must be canonicalized to t > 0.
        let data = easy_data();
        let cfg = LdaFpConfig {
            scaled_rounding: false,
            ..LdaFpConfig::default()
        };
        let trainer = LdaFpTrainer::new(cfg);
        for f in 1..=4u32 {
            let format = QFormat::new(2, f).unwrap();
            let Ok(model) = trainer.train(&data, format) else {
                continue;
            };
            let tp = TrainingProblem::from_dataset(&data, format, 0.99, RoundingMode::NearestEven)
                .unwrap();
            let t = ldafp_linalg::vecops::dot(&tp.moments().mean_diff, model.weights());
            assert!(t > 0.0, "F={f}: deployed weights have t = {t} <= 0");
            // And the classifier is actually better than chance on its own
            // training data (an inverted rule would be far below 50%).
            let err = crate::eval::error_rate(model.classifier(), &data);
            assert!(err <= 0.5, "F={f}: training error {err}");
        }
    }

    #[test]
    fn config_fast_is_cheaper() {
        let fast = LdaFpConfig::fast();
        let full = LdaFpConfig::default();
        assert!(fast.bnb.max_nodes < full.bnb.max_nodes);
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(TrainingOutcome::Certified.label(), "certified");
        assert_eq!(TrainingOutcome::BudgetExhausted.label(), "budget-exhausted");
        let degraded = TrainingOutcome::Degraded {
            recovered_solves: 2,
            trivial_bounds: 1,
            suspect_infeasible: 0,
            uncertified_rescale: false,
        };
        assert_eq!(degraded.label(), "degraded");
        assert!(degraded.summary().contains("2 recovered solves"));
        assert!(degraded.summary().contains("1 trivial bounds"));
        assert_eq!(TrainingOutcome::FallbackRounded.label(), "fallback-rounded");
        assert!(TrainingOutcome::Certified.is_certified());
        assert!(!degraded.is_certified());
    }

    #[test]
    fn model_outcome_consistent_with_certified() {
        let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
        let model = trainer
            .train(&easy_data(), QFormat::new(2, 2).unwrap())
            .unwrap();
        assert_eq!(model.certified(), model.outcome().is_certified());
        // A clean training run on easy data never needs the fallback.
        assert_ne!(model.outcome(), &TrainingOutcome::FallbackRounded);
    }

    #[test]
    fn tight_budget_reports_budget_exhausted() {
        let mut cfg = LdaFpConfig::fast();
        cfg.bnb.max_nodes = 2;
        cfg.bnb.absolute_gap = 0.0;
        cfg.bnb.relative_gap = 0.0;
        let trainer = LdaFpTrainer::new(cfg);
        // A large grid the search cannot exhaust in 2 nodes with zero gaps.
        let model = trainer
            .train(&easy_data(), QFormat::new(2, 6).unwrap())
            .unwrap();
        assert!(!model.certified());
        assert!(matches!(
            model.outcome(),
            TrainingOutcome::BudgetExhausted | TrainingOutcome::Degraded { .. }
        ));
    }

    #[test]
    fn auto_format_failure_aggregates_per_format_errors() {
        // Identical classes: zero mean difference, every split must fail.
        let rows = Matrix::from_rows(&[&[0.5, 0.5], &[0.25, 0.25], &[0.5, 0.25]]).unwrap();
        let data = BinaryDataset::new(rows.clone(), rows).unwrap();
        let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
        let err = trainer.train_auto(&data, 6, 3).unwrap_err();
        match err {
            CoreError::AutoFormatSearchFailed { failures } => {
                assert!(
                    failures.len() >= 2,
                    "expected every split recorded, got {failures:?}"
                );
                // Each entry names its format.
                assert!(failures.iter().all(|(f, _)| f.starts_with('Q')));
            }
            other => panic!("expected AutoFormatSearchFailed, got {other:?}"),
        }
    }
}
