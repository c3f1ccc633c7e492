use crate::{CoreError, FixedPointClassifier, LdaModel, Result, TrainingProblem};
#[cfg(feature = "fault-injection")]
use ldafp_bnb::{FaultKind, FaultPlan};
use ldafp_bnb::{
    BnbConfig, BnbStats, BoxNode, CheckpointPolicy, NodeAssessment, NodeDegradation,
    SharedBoundingProblem,
};
use ldafp_datasets::BinaryDataset;
use ldafp_fixedpoint::{QFormat, RoundingMode};
use ldafp_linalg::vecops;
use ldafp_obs as obs;
use ldafp_solver::{
    error_kind, solve_with_recovery_checked, RecoveryConfig, SocpProblem, SolverConfig,
    SolverError,
};
use std::time::{Duration, Instant};

/// How a word length is mapped to a `QK.F` split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatPolicy {
    /// Use exactly this format.
    Fixed(QFormat),
    /// Try every `K ∈ 1..=max_k` for the given word length and keep the
    /// trained model with the lowest training-set error (ties: lower Fisher
    /// cost). The paper fixes one `QK.F` per experiment but does not state
    /// the split; the auto policy reproduces "pick the best split" fairly
    /// for both LDA and LDA-FP.
    AutoK {
        /// Largest integer-bit count to consider.
        max_k: u32,
    },
}

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
    /// Interior-point solver tolerances for the node relaxations.
    pub solver: SolverConfig,
    /// Retry schedule for node relaxations that fail numerically (Tikhonov
    /// regularization, loosened tolerances, perturbed starts). Replaces the
    /// old silent zero-bound fallback: failures are retried, recorded, and
    /// surfaced in the [`TrainingOutcome`].
    pub recovery: RecoveryConfig,
    /// Seed the incumbent with a scaled-rounding sweep of the float LDA
    /// direction before searching.
    pub scaled_rounding: bool,
    /// Number of geometric scale steps in the sweep.
    pub scaled_rounding_steps: usize,
    /// Run discrete coordinate descent around incumbents.
    pub coordinate_polish: bool,
    /// Coordinate-polish search radius in grid quanta.
    pub polish_radius: i64,
    /// Maximum coordinate-polish passes.
    pub polish_max_rounds: usize,
    /// Restrict the search to `t ≥ 0`. Deployable classifiers need `t > 0`
    /// (see `TrainingProblem::canonicalize_orientation`), and every usable
    /// `t < 0` candidate has a `t > 0` grid twin, so the restriction is
    /// lossless for deployment and halves the search space. Disable only to
    /// study the raw formulation (29).
    pub restrict_t_positive: bool,
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
                ..BnbConfig::default()
            },
            solver: SolverConfig {
                tol: 1e-7,
                ..SolverConfig::default()
            },
            recovery: RecoveryConfig::default(),
            scaled_rounding: true,
            scaled_rounding_steps: 160,
            coordinate_polish: true,
            polish_radius: 2,
            polish_max_rounds: 8,
            restrict_t_positive: true,
            empirical_scale_selection: true,
            empirical_threshold_selection: false,
            solver_threads: default_solver_threads(),
        }
    }
}

impl LdaFpConfig {
    /// A reduced-budget configuration for tests and examples: ~10× fewer
    /// nodes, a looser relative gap and shorter seeding and polish.
    pub fn fast() -> Self {
        LdaFpConfig {
            bnb: BnbConfig {
                max_nodes: 150,
                time_budget: None,
                absolute_gap: 1e-9,
                relative_gap: 1e-3,
                ..BnbConfig::default()
            },
            scaled_rounding_steps: 60,
            polish_max_rounds: 4,
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
        let tp = TrainingProblem::from_dataset(data, format, self.config.rho, self.config.rounding)?;
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
        self.consider(&tp, &format.round_slice_to_grid(lda.weights(), self.config.rounding), &mut best);
        if self.config.scaled_rounding {
            self.scaled_rounding_sweep(&tp, lda.weights(), &mut best);
        }
        if self.config.coordinate_polish {
            if let Some((w, _)) = best.clone() {
                let polished = self.polish(&tp, w);
                self.consider(&tp, &polished, &mut best);
            }
        }

        // ---- Branch-and-bound (Algorithm 1) -----------------------------
        let (lo, hi) = tp.value_range();
        let m = tp.num_features();
        let (t_lo, t_hi) = tp.initial_t_interval();
        let t_lo = if self.config.restrict_t_positive { t_lo.max(0.0) } else { t_lo };
        let mut lower = vec![lo; m];
        let mut upper = vec![hi; m];
        lower.push(t_lo);
        upper.push(t_hi);
        let root = BoxNode::new(lower, upper).ok_or_else(|| CoreError::InvalidTrainingData {
            reason: "degenerate search box (non-finite scatter statistics)".to_string(),
        })?;

        let node_problem = NodeProblem {
            tp: &tp,
            config: &self.config,
            #[cfg(feature = "fault-injection")]
            fault: self.fault.clone(),
        };
        let outcome = match ckpt {
            Some(policy) => ldafp_bnb::solve_parallel_checkpointed(
                &node_problem,
                root,
                &self.config.bnb,
                best.clone(),
                self.config.resolved_solver_threads(),
                policy,
            ),
            None => ldafp_bnb::solve_parallel_with_incumbent(
                &node_problem,
                root,
                &self.config.bnb,
                best.clone(),
                self.config.resolved_solver_threads(),
            ),
        };
        if outcome.interrupted {
            // The final snapshot is already on disk (flushed before the
            // search loop exited); surface the interruption instead of a
            // partial model.
            return Err(CoreError::Interrupted);
        }
        if let Some((w, _)) = outcome.incumbent.clone() {
            self.consider(&tp, &w, &mut best);
        }

        // ---- Final polish ------------------------------------------------
        if self.config.coordinate_polish {
            if let Some((w, _)) = best.clone() {
                let polished = self.polish(&tp, w);
                self.consider(&tp, &polished, &mut best);
            }
        }

        // ---- Last-resort fallback ---------------------------------------
        // The search and seeding found nothing. Before giving up, run a
        // dense scaled-rounding sweep of the float-LDA direction (plus a
        // polish pass): if *any* feasible grid point exists along that ray,
        // training returns it — labeled `FallbackRounded`, never unlabeled.
        let mut fellback = false;
        if best.is_none() {
            let steps = self.config.scaled_rounding_steps.max(320);
            self.scaled_rounding_sweep_with_steps(&tp, lda.weights(), steps, &mut best);
            if let Some((w, _)) = best.clone() {
                let polished = self.polish(&tp, w);
                self.consider(&tp, &polished, &mut best);
            }
            fellback = best.is_some();
        }

        let (weights, fisher_cost) = best.ok_or(CoreError::NoFeasibleClassifier)?;
        let search_weights = weights.clone();
        let search_optimum_cost = fisher_cost;
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
        obs::Registry::global()
            .counter("train.sessions")
            .inc();
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
            outcome: training_outcome,
            stats: outcome.stats,
            elapsed: start.elapsed(),
        })
    }

    /// Trains under a [`FormatPolicy`]: either one fixed `QK.F` or an
    /// automatic search over integer-bit splits at a given word length.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::train`] / [`Self::train_auto`].
    pub fn train_with_policy(
        &self,
        data: &BinaryDataset,
        word_length: u32,
        policy: FormatPolicy,
    ) -> Result<(LdaFpModel, QFormat)> {
        match policy {
            FormatPolicy::Fixed(format) => {
                let model = self.train(data, format)?;
                Ok((model, format))
            }
            FormatPolicy::AutoK { max_k } => self.train_auto(data, word_length, max_k),
        }
    }

    /// Trains at a total word length, searching over the `K`/`F` split per
    /// [`FormatPolicy::AutoK`]. Returns the best model and its format,
    /// judged by training-set error (ties broken by Fisher cost).
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

    /// Scaled rounding: sweep `λ` geometrically and round `λ·ŵ` to the grid.
    fn scaled_rounding_sweep(
        &self,
        tp: &TrainingProblem,
        unit_w: &[f64],
        best: &mut Option<(Vec<f64>, f64)>,
    ) {
        self.scaled_rounding_sweep_with_steps(
            tp,
            unit_w,
            self.config.scaled_rounding_steps,
            best,
        );
    }

    /// [`Self::scaled_rounding_sweep`] with an explicit step count (the
    /// fallback path sweeps denser than the configured seeding).
    fn scaled_rounding_sweep_with_steps(
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
        let mut prev: Option<Vec<f64>> = None;
        for _ in 0..steps {
            for sign in [1.0, -1.0] {
                let scaled = vecops::scale(unit_w, sign * lambda);
                let w = format.round_slice_to_grid(&scaled, self.config.rounding);
                if prev.as_deref() != Some(&w[..]) {
                    self.consider(tp, &w, best);
                    prev = Some(w);
                }
            }
            lambda *= ratio;
        }
    }

    /// Discrete coordinate descent on the grid (best-improvement passes).
    fn polish(&self, tp: &TrainingProblem, mut w: Vec<f64>) -> Vec<f64> {
        let format = tp.format();
        let q = format.resolution();
        let (lo, hi) = tp.value_range();
        let mut cost = tp.fisher_cost(&w);
        if !cost.is_finite() {
            return w;
        }
        for _ in 0..self.config.polish_max_rounds {
            let mut improved = false;
            for m in 0..w.len() {
                let original = w[m];
                let mut best_val = original;
                let mut best_cost = cost;
                for k in 1..=self.config.polish_radius {
                    for sign in [1.0, -1.0] {
                        let cand = original + sign * k as f64 * q;
                        if cand < lo - 1e-12 || cand > hi + 1e-12 {
                            continue;
                        }
                        w[m] = cand;
                        let c = tp.fisher_cost(&w);
                        if c.is_finite() && c < best_cost - 1e-15 && tp.is_feasible(&w) {
                            best_cost = c;
                            best_val = cand;
                        }
                    }
                }
                w[m] = best_val;
                if best_val != original {
                    cost = best_cost;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        w
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
            let cand = format.round_slice_to_grid(
                &vecops::scale(&weights, lambda),
                self.config.rounding,
            );
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
            let clf =
                FixedPointClassifier::from_float(&cand, tp.threshold_for(&cand), format)?;
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

        let default_raw = format.quantize_raw(
            tp.threshold_for(weights),
            self.config.rounding,
        );
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

/// The per-node bounding problem: the paper's eqs. 25–27 over one
/// `(w, t)` box. Dimensions `0..M` are the weights, dimension `M` is `t`.
struct NodeProblem<'a> {
    tp: &'a TrainingProblem,
    config: &'a LdaFpConfig,
    #[cfg(feature = "fault-injection")]
    fault: Option<FaultPlan>,
}

impl NodeProblem<'_> {
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

    /// Tightened `t` interval: node bounds intersected with the interval
    /// arithmetic of `t = dᵀw` over the weight box.
    fn tightened_t(&self, node: &BoxNode, lo: &[f64], hi: &[f64]) -> Option<(f64, f64)> {
        let m = self.tp.num_features();
        let d = &self.tp.moments().mean_diff;
        let mut ia_lo = 0.0;
        let mut ia_hi = 0.0;
        for i in 0..m {
            let (a, b) = (d[i] * lo[i], d[i] * hi[i]);
            ia_lo += a.min(b);
            ia_hi += a.max(b);
        }
        let t_lo = node.lower[m].max(ia_lo);
        let t_hi = node.upper[m].min(ia_hi);
        if t_lo > t_hi {
            None
        } else {
            Some((t_lo, t_hi))
        }
    }

    /// Builds the relaxation (eq. 25) for the given box and `η`, returning
    /// the problem plus the box-center warm start.
    fn build_relaxation(
        &self,
        lo: &[f64],
        hi: &[f64],
        t_lo: f64,
        t_hi: f64,
        eta: f64,
    ) -> std::result::Result<(SocpProblem, Vec<f64>), SolverError> {
        let m = self.tp.num_features();
        let d = &self.tp.moments().mean_diff;
        let mut p = SocpProblem::new(self.tp.moments().s_w.scaled(2.0 / eta), vec![0.0; m])?;
        p.add_box(lo, hi)?;
        p.add_linear(d.clone(), t_hi)?;
        p.add_linear(d.iter().map(|v| -v).collect(), -t_lo)?;
        self.tp
            .add_elementwise_constraints(&mut p)
            .map_err(|_| SolverError::InvalidProblem {
                reason: "element-wise constraint construction failed".to_string(),
            })?;
        self.tp
            .add_projection_constraints(&mut p)
            .map_err(|_| SolverError::InvalidProblem {
                reason: "projection constraint construction failed".to_string(),
            })?;
        let center: Vec<f64> = lo.iter().zip(hi).map(|(&l, &h)| 0.5 * (l + h)).collect();
        Ok((p, center))
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
    fn infeasibility_claim(&self, p: &SocpProblem, lo: &[f64], hi: &[f64]) -> NodeAssessment {
        match self.feasibility_witness(p, lo, hi) {
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

    /// Whether some weight dimension of the box is narrower than twice the
    /// phase-I margin. Every point of such a box then violates one of that
    /// dimension's two box rows by more than `−margin` (their violations
    /// sum to `lo − hi > −2·margin`), so the relaxation has no strictly
    /// feasible point and phase I can only end in `Infeasible`.
    fn is_thin(&self, lo: &[f64], hi: &[f64]) -> bool {
        let width = 2.0 * self.config.solver.feasibility_margin;
        lo.iter().zip(hi).any(|(&l, &h)| h - l < width)
    }

    /// Distrust-but-verify probe for infeasibility claims: checks the
    /// snapped box center and (for `M ≤ 6`) every box corner — all grid
    /// points, since `lo`/`hi` are grid-snapped — against the relaxation's
    /// own constraints.
    ///
    /// The solver's `Infeasible` asserts "no *strictly* feasible point
    /// within the phase-I margin", so the two tiers mean different things:
    /// a strictly interior probe point refutes the claim outright
    /// ([`Witness::Interior`]); a boundary-feasible point is consistent
    /// with it (thin boxes legitimately have no interior) but must not be
    /// silently discarded by the prune ([`Witness::Boundary`]).
    fn feasibility_witness(&self, p: &SocpProblem, lo: &[f64], hi: &[f64]) -> Witness {
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
        let margin = self.config.solver.feasibility_margin;
        let mut boundary = None;
        for w in probes {
            let violation = p.max_violation(&w);
            if violation < -margin {
                return Witness::Interior(w);
            }
            if violation <= 1e-9 && boundary.is_none() {
                boundary = Some(w);
            }
        }
        match boundary {
            Some(w) => Witness::Boundary(w),
            None => Witness::None,
        }
    }

    /// Rounds a relaxation solution to the grid and returns it (oriented
    /// for deployment, `t > 0`) with its exact cost when feasible and
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

    /// The paper's per-node step (eqs. 25–27): one SOCP solve yields the
    /// lower bound, and its rounded minimizer is the node's candidate. With
    /// `skip_thin`, a thin box (see [`Self::is_thin`]) goes straight to
    /// [`Self::infeasibility_claim`] without a solve; the search passes
    /// `true`, and the tests compare it against the always-solve path.
    fn assess(&self, node: &BoxNode, index: usize, skip_thin: bool) -> NodeAssessment {
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
        let Some((t_lo, t_hi)) = self.tightened_t(node, &lo, &hi) else {
            return NodeAssessment::infeasible();
        };
        // η = sup t² over the interval (eq. 26).
        let eta = t_lo.abs().max(t_hi.abs()).powi(2);
        if eta == 0.0 {
            // Only t = 0 remains: infinite cost, never optimal.
            return NodeAssessment::infeasible();
        }

        let (p, center) = match self.build_relaxation(&lo, &hi, t_lo, t_hi, eta) {
            Ok(built) => built,
            Err(e) => return self.degraded_assessment(&lo, &hi, &e),
        };

        // A node with a planned fault always reaches the recovering solve,
        // which is where the fault is injected.
        #[cfg(feature = "fault-injection")]
        let skip_thin = skip_thin && fault.is_none();
        if skip_thin && self.is_thin(&lo, &hi) {
            static THIN_BOXES: std::sync::OnceLock<std::sync::Arc<obs::Counter>> =
                std::sync::OnceLock::new();
            THIN_BOXES
                .get_or_init(|| obs::Registry::global().counter("core.thin_boxes"))
                .inc();
            return self.infeasibility_claim(&p, &lo, &hi);
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

        match solve_with_recovery_checked(
            &p,
            Some(&center),
            &self.config.solver,
            &self.config.recovery,
            inject,
        ) {
            Ok(rec) => {
                // A clean solve's objective is the bound as before. A
                // recovered solve ran with loosened tolerances and possibly
                // a Tikhonov term `½λ‖w‖²`, both of which can only *raise*
                // the reported objective — correct the bound down by the
                // duality-gap bound and the largest possible regularization
                // contribution over the box so it stays a true lower bound.
                let mut bound = rec.solution.objective;
                if rec.recovered() {
                    bound -= rec.solution.duality_gap_bound;
                    if rec.lambda > 0.0 {
                        let max_norm_sq: f64 = lo
                            .iter()
                            .zip(&hi)
                            .map(|(&l, &h)| (l * l).max(h * h))
                            .sum();
                        bound -= 0.5 * rec.lambda * max_norm_sq;
                    }
                }
                let degradation = rec.recovered().then(|| NodeDegradation::Recovered {
                    attempts: rec.attempts.len().saturating_sub(1),
                    error_kind: rec
                        .attempts
                        .iter()
                        .find_map(|a| a.error_kind.clone())
                        .unwrap_or_else(|| "numerical-failure".to_string()),
                });
                NodeAssessment {
                    lower_bound: Some(bound.max(0.0)),
                    candidate: self.rounded_candidate(&rec.solution.x),
                    degradation,
                }
            }
            Err(SolverError::Infeasible { .. }) => self.infeasibility_claim(&p, &lo, &hi),
            Err(e) => self.degraded_assessment(&lo, &hi, &e),
        }
    }
}

impl SharedBoundingProblem for NodeProblem<'_> {
    #[cfg(feature = "fault-injection")]
    fn exact_indexing(&self) -> bool {
        // Fault plans key on the serial node index, so speculative
        // out-of-order assessment must be disabled when one is active.
        self.fault.is_some()
    }

    fn assess_node(&self, node: &BoxNode, index: usize) -> NodeAssessment {
        self.assess(node, index, true)
    }

    fn is_terminal(&self, node: &BoxNode) -> bool {
        // Terminal when every weight dimension pins a single grid point
        // (then t is determined by interval arithmetic too).
        let q = self.tp.format().resolution();
        (0..self.tp.num_features()).all(|d| node.width(d) < q - 1e-12)
    }

    fn branch(&self, node: &BoxNode) -> Option<(usize, f64)> {
        let m = self.tp.num_features();
        let format = self.tp.format();
        let q = format.resolution();
        // Score each weight dimension by its grid-point count, t by its
        // width in "t quanta".
        let d1 = vecops::norm1(&self.tp.moments().mean_diff).max(f64::MIN_POSITIVE);
        let t_quantum = q * d1;
        let mut best_dim = None;
        let mut best_score = 1.0; // only split dims with > 1 unit of width
        for dim in 0..m {
            let lo = format.ceil_to_grid(node.lower[dim]);
            let hi = format.floor_to_grid(node.upper[dim]);
            let pts = ((hi - lo) / q).round() + 1.0;
            if pts >= 2.0 && pts > best_score {
                best_score = pts;
                best_dim = Some(dim);
            }
        }
        let t_score = node.width(m) / t_quantum;
        if t_score > best_score {
            let mid = node.midpoint(m);
            if mid > node.lower[m] && mid < node.upper[m] {
                return Some((m, mid));
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
        let tp = TrainingProblem::from_dataset(&easy_data(), format, 0.99, RoundingMode::NearestEven)
            .unwrap();
        assert!(tp.is_feasible(model.weights()));
        assert!(model.fisher_cost().is_finite());
        // Weights are on the grid.
        for &w in model.weights() {
            assert!(format.contains(w), "weight {w} off grid");
        }
    }

    fn node_problem<'a>(tp: &'a TrainingProblem, config: &'a LdaFpConfig) -> NodeProblem<'a> {
        NodeProblem {
            tp,
            config,
            #[cfg(feature = "fault-injection")]
            fault: None,
        }
    }

    /// A seeded `(w, t)` box on `tp`'s grid. Dimension `d` spans
    /// `widths[d]` quanta (`None`: a random width). `t` runs over the
    /// root's `t ≥ 0` interval or, every other box, a random sub-interval
    /// starting above zero.
    fn seeded_box(rng: &mut Rng, tp: &TrainingProblem, widths: &[Option<i64>]) -> BoxNode {
        let format = tp.format();
        let q = format.resolution();
        let (min_raw, max_raw) = (format.min_raw(), format.max_raw());
        let mut lower = Vec::new();
        let mut upper = Vec::new();
        for width in widths {
            let width = width.unwrap_or_else(|| rng.range_i64(1..=(max_raw - min_raw) / 2));
            let lo = rng.range_i64(min_raw..=max_raw - width);
            lower.push(lo as f64 * q);
            upper.push((lo + width) as f64 * q);
        }
        let (_, t_hi) = tp.initial_t_interval();
        if rng.next_u64() & 1 == 0 {
            lower.push(0.0);
            upper.push(t_hi);
        } else {
            let a = t_hi * (rng.below(1000) + 1) as f64 / 1000.0;
            let b = t_hi * (rng.below(1000) + 1) as f64 / 1000.0;
            lower.push(a.min(b) * 0.999);
            upper.push(a.max(b));
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
                (w.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), c.to_bits())
            })
        };
        assert_eq!(bits(fast), bits(slow));
        assert_eq!(fast.degradation, slow.degradation);
    }

    #[test]
    fn thin_boxes_settle_as_the_solver_would() {
        // Each scenario: a training problem and a per-dimension width rule
        // (`Some(0)` zero width, `Some(1)` one quantum, `None` random).
        // At Q1.30 one quantum is 2⁻³⁰ < 2·1e-9, the default margin.
        let data = easy_data();
        let q24 = QFormat::new(2, 4).unwrap();
        let q130 = QFormat::new(1, 30).unwrap();
        type WidthRule = fn(&mut Rng) -> Vec<Option<i64>>;
        let scenarios: [(&str, QFormat, WidthRule); 3] = [
            ("one zero dimension", q24, |s| {
                let d = s.below(2);
                (0..2).map(|i| (i == d).then_some(0)).collect()
            }),
            ("all dimensions zero", q24, |_| vec![Some(0); 2]),
            ("one quantum at Q1.30", q130, |s| {
                let d = s.below(2);
                (0..2).map(|i| (i == d).then_some(1)).collect()
            }),
        ];
        let config = LdaFpConfig::default();
        for (name, format, widths) in scenarios {
            let tp =
                TrainingProblem::from_dataset(&data, format, config.rho, config.rounding).unwrap();
            let np = node_problem(&tp, &config);
            let mut rng = Rng::new(0x7EA5 ^ u64::from(format.f()));
            let (mut settled, mut kept) = (0, 0);
            for index in 0..120 {
                let widths = widths(&mut rng);
                let node = seeded_box(&mut rng, &tp, &widths);
                let Some((lo, hi)) = np.snapped_bounds(&node) else { continue };
                let Some((t_lo, t_hi)) = np.tightened_t(&node, &lo, &hi) else { continue };
                let eta = t_lo.abs().max(t_hi.abs()).powi(2);
                if eta == 0.0 {
                    continue;
                }
                assert!(np.is_thin(&lo, &hi), "{name}: box {index} is not thin");
                let (p, center) = np.build_relaxation(&lo, &hi, t_lo, t_hi, eta).unwrap();
                let solved = ldafp_solver::solve_with_recovery(
                    &p,
                    Some(&center),
                    &config.solver,
                    &config.recovery,
                );
                assert!(
                    matches!(solved, Err(SolverError::Infeasible { .. })),
                    "{name}: box {index} solved to {solved:?}"
                );
                let fast = np.assess(&node, index, true);
                let slow = np.assess(&node, index, false);
                assert_same_assessment(&fast, &slow);
                settled += 1;
                kept += usize::from(fast.lower_bound.is_some());
            }
            assert!(settled >= 40, "{name}: only {settled} boxes reached the solver");
            assert!(kept > 0, "{name}: all {settled} boxes were pruned");
        }
    }

    /// `easy_data` at Q2.4 and a box whose first weight is pinned to -0.5.
    fn thin_box_problem(config: &LdaFpConfig) -> (TrainingProblem, BoxNode) {
        let format = QFormat::new(2, 4).unwrap();
        let tp = TrainingProblem::from_dataset(&easy_data(), format, config.rho, config.rounding)
            .unwrap();
        let (_, t_hi) = tp.initial_t_interval();
        let node = BoxNode::new(vec![-0.5, -0.25, 0.0], vec![-0.5, 0.25, t_hi]).unwrap();
        (tp, node)
    }

    #[test]
    fn thin_boxes_are_counted() {
        // Process-wide counter: compare deltas.
        let counted = || obs::Registry::global().counter("core.thin_boxes").get();
        let config = LdaFpConfig::default();
        let (tp, node) = thin_box_problem(&config);
        let before = counted();
        node_problem(&tp, &config).assess(&node, 0, true);
        assert!(counted() > before, "a thin box was not counted");
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn planned_faults_reach_the_solver_on_thin_boxes() {
        let config = LdaFpConfig::default();
        let (tp, node) = thin_box_problem(&config);
        let plan = FaultPlan::new(1)
            .with_forced(0, FaultKind::Numerical)
            .with_persist_attempts(usize::MAX);
        let np = NodeProblem { tp: &tp, config: &config, fault: Some(plan) };
        // Node 0 has a planned fault: the recovering solve runs and fails.
        let faulted = np.assess(&node, 0, true);
        assert!(
            matches!(faulted.degradation, Some(NodeDegradation::TrivialBound { .. })),
            "{faulted:?}"
        );
        // Node 1 has none: the thin box is settled by the grid probe.
        assert_eq!(np.assess(&node, 1, true).degradation, None);
    }

    #[test]
    fn inf_eta_relaxation_is_the_bound_relaxation_rescaled() {
        // Eq. 27's `η = inf t²` program differs from the `η = sup t²` bound
        // program only in `Q = 2·S_W/η`: same rows, objective scaled by
        // `η/η_inf > 0`, hence the same minimizer and the same rounding.
        let data = easy_data();
        let config = LdaFpConfig::default();
        let format = QFormat::new(2, 4).unwrap();
        let tp = TrainingProblem::from_dataset(&data, format, config.rho, config.rounding).unwrap();
        let np = node_problem(&tp, &config);
        let mut rng = Rng::new(0x0E27);
        let mut compared = 0;
        for index in 0..80 {
            let node = seeded_box(&mut rng, &tp, &[None, None]);
            let Some((lo, hi)) = np.snapped_bounds(&node) else { continue };
            let Some((t_lo, t_hi)) = np.tightened_t(&node, &lo, &hi) else { continue };
            let eta = t_lo.abs().max(t_hi.abs()).powi(2);
            let eta_inf = if t_lo <= 0.0 { 0.0 } else { t_lo.powi(2) };
            if eta_inf <= 0.0 || eta_inf >= eta {
                continue;
            }
            let (sup, center) = np.build_relaxation(&lo, &hi, t_lo, t_hi, eta).unwrap();
            let (inf, _) = np.build_relaxation(&lo, &hi, t_lo, t_hi, eta_inf).unwrap();
            assert_eq!(sup.linear_constraints(), inf.linear_constraints());
            assert_eq!(sup.soc_constraints(), inf.soc_constraints());
            assert_eq!(sup.c(), inf.c());
            let ratio = eta / eta_inf;
            for (&a, &b) in sup.q().as_slice().iter().zip(inf.q().as_slice()) {
                assert!(
                    (b - a * ratio).abs() <= 4.0 * f64::EPSILON * b.abs(),
                    "box {index}: Q entries {a} and {b} are not in ratio {ratio}"
                );
            }
            let (Ok(x_sup), Ok(x_inf)) = (
                sup.solve_from(Some(&center), &config.solver),
                inf.solve_from(Some(&center), &config.solver),
            ) else {
                continue;
            };
            assert_eq!(
                format.round_slice_to_grid(&x_sup.x, config.rounding),
                format.round_slice_to_grid(&x_inf.x, config.rounding),
                "box {index}: the two minimizers round apart"
            );
            compared += 1;
        }
        assert!(compared >= 20, "only {compared} boxes compared");
    }

    #[test]
    fn never_worse_than_rounded_lda() {
        // The headline invariant: LDA-FP's discrete Fisher cost is at most
        // the feasible rounded-LDA cost (it is seeded with it).
        let data = easy_data();
        for f in 1..=6u32 {
            let format = QFormat::new(2, f).unwrap();
            let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
            let tp =
                TrainingProblem::from_dataset(&data, format, 0.99, RoundingMode::NearestEven)
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
    fn certified_on_tiny_grid_matches_exhaustive() {
        // 2 features × Q2.1 (8 values each): exhaustive search is 64 points.
        let data = easy_data();
        let format = QFormat::new(2, 1).unwrap();
        let mut cfg = LdaFpConfig::default();
        cfg.bnb.max_nodes = 100_000;
        cfg.bnb.relative_gap = 1e-9;
        let trainer = LdaFpTrainer::new(cfg);
        let model = trainer.train(&data, format).unwrap();

        let tp = TrainingProblem::from_dataset(&data, format, 0.99, RoundingMode::NearestEven)
            .unwrap();
        let mut best = f64::INFINITY;
        for a in format.enumerate() {
            for b in format.enumerate() {
                let w = [a.to_f64(), b.to_f64()];
                let c = tp.fisher_cost(&w);
                if c.is_finite() && tp.is_feasible(&w) && c < best {
                    best = c;
                }
            }
        }
        assert!(
            (model.fisher_cost() - best).abs() <= 1e-6 * best.max(1e-12),
            "bnb found {}, exhaustive found {}",
            model.fisher_cost(),
            best
        );
    }

    #[test]
    fn policy_fixed_and_auto_agree_with_direct_calls() {
        let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
        let format = QFormat::new(2, 3).unwrap();
        let (via_policy, f1) = trainer
            .train_with_policy(&easy_data(), 5, FormatPolicy::Fixed(format))
            .unwrap();
        assert_eq!(f1, format);
        let direct = trainer.train(&easy_data(), format).unwrap();
        assert_eq!(via_policy.weights(), direct.weights());

        let (auto_model, f2) = trainer
            .train_with_policy(&easy_data(), 5, FormatPolicy::AutoK { max_k: 3 })
            .unwrap();
        assert_eq!(f2.word_length(), 5);
        assert!(auto_model.fisher_cost().is_finite());
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
        let model = trainer.train(&easy_data(), QFormat::new(2, 2).unwrap()).unwrap();
        assert!(model.stats().nodes_assessed >= 1);
        assert!(model.elapsed() > Duration::ZERO);
        // The classifier's weights match the reported weights.
        assert_eq!(model.classifier().weight_values(), model.weights());
    }

    #[test]
    fn incumbents_are_deployment_oriented() {
        // Regression: B&B can find t < 0 candidates whose Fisher cost ties
        // the optimum but whose decision rule is inverted. With seeding
        // disabled, every incumbent comes from node rounding — all must be
        // canonicalized to t > 0.
        let data = easy_data();
        let cfg = LdaFpConfig {
            scaled_rounding: false,
            coordinate_polish: false,
            restrict_t_positive: false, // search both halves deliberately
            ..LdaFpConfig::default()
        };
        let trainer = LdaFpTrainer::new(cfg);
        for f in 1..=4u32 {
            let format = QFormat::new(2, f).unwrap();
            let Ok(model) = trainer.train(&data, format) else { continue };
            let tp = TrainingProblem::from_dataset(
                &data, format, 0.99, RoundingMode::NearestEven,
            )
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
        let model = trainer.train(&easy_data(), QFormat::new(2, 2).unwrap()).unwrap();
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
        let model = trainer.train(&easy_data(), QFormat::new(2, 6).unwrap()).unwrap();
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
                assert!(failures.len() >= 2, "expected every split recorded, got {failures:?}");
                // Each entry names its format.
                assert!(failures.iter().all(|(f, _)| f.starts_with('Q')));
            }
            other => panic!("expected AutoFormatSearchFailed, got {other:?}"),
        }
    }
}
