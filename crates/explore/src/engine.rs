//! The exploration engine: a work-stealing worker pool over the design
//! grid, with cache integration.
//!
//! ## Scheduling
//!
//! Design points are dealt round-robin into one deque per worker; each
//! worker drains its own deque from the front and, when empty, steals
//! from the *back* of another worker's deque. Stealing from the back
//! keeps the thief off the victim's hot end and tends to hand over the
//! larger-word-length (more expensive) points that were dealt last —
//! classic work-stealing load balancing with nothing but `std`.
//!
//! With one worker (or one point) the engine runs inline on the calling
//! thread — the serial fallback for no-thread targets.
//!
//! ## One search per point
//!
//! Every design point runs its own branch-and-bound search, the same one
//! a single `ldafp train` runs for that format; no point reads another's
//! result. A sweep's outcomes therefore do not depend on
//! how points are scheduled across workers: any thread count reproduces
//! the serial sweep bit for bit (timings aside).

use crate::cache::{config_digest, dataset_digest, problem_key, ResultCache};
use crate::error::ExploreError;
use crate::grid::{DesignPoint, ExploreGrid};
use crate::pareto::pareto_frontier;
use crate::Result;
use ldafp_core::{
    eval, snapshot_fingerprint, CheckpointPolicy, CoreError, LdaFpConfig, LdaFpTrainer,
};
use ldafp_datasets::BinaryDataset;
use ldafp_fixedpoint::RoundingMode;
use ldafp_hwmodel::power::MacPowerModel;
use ldafp_models::{ModelFamily, NaiveBayesTrainer, OsElmTrainer};
use ldafp_obs as obs;
use ldafp_obs::json::Value;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Worker threads (`0` = one per core via
    /// [`std::thread::available_parallelism`]).
    pub threads: usize,
    /// Persistent result cache directory (`None` = no caching).
    pub cache_dir: Option<PathBuf>,
    /// Durable sweep state directory — per-point branch-and-bound
    /// checkpoints live in its `ckpt/`. `None` disables checkpointing and
    /// resume.
    pub state_dir: Option<PathBuf>,
    /// Snapshot an in-flight search every this many assessed nodes (only
    /// meaningful with `state_dir`; `0` keeps just the final flush that a
    /// cooperative interrupt forces).
    pub checkpoint_nodes: usize,
    /// Cooperative interrupt flag. When set, workers stop claiming points,
    /// the in-flight solves flush a final checkpoint, and
    /// [`Explorer::run`] returns [`ExploreError::Interrupted`].
    pub interrupt: Option<Arc<AtomicBool>>,
    /// Trainer configuration; its `rho` and `rounding` are overridden per
    /// design point.
    pub trainer: LdaFpConfig,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            threads: 0,
            cache_dir: None,
            state_dir: None,
            checkpoint_nodes: 256,
            interrupt: None,
            trainer: LdaFpConfig::fast(),
        }
    }
}

/// Scores for one successfully trained design point.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedPointMetrics {
    /// The trained format, e.g. `"Q2.4"`.
    pub format: String,
    /// Continuous-relaxation weights behind the deployed classifier.
    pub weights: Vec<f64>,
    /// Held-out classification error.
    pub validation_error: f64,
    /// Training-set classification error.
    pub training_error: f64,
    /// Discrete Fisher cost of the incumbent (lower is better).
    pub fisher_cost: f64,
    /// Training outcome label (`certified`, `budget-exhausted`,
    /// `degraded`, `fallback-rounded`).
    pub outcome: String,
    /// Datapath power at this word length, watts (MacPowerModel).
    pub power: f64,
    /// Energy per classification, joules.
    pub energy: f64,
    /// Datapath area, square micrometres.
    pub area: f64,
}

/// The record for one explored design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignOutcome {
    /// The point explored.
    pub point: DesignPoint,
    /// Scores, when training produced a model.
    pub metrics: Option<TrainedPointMetrics>,
    /// Training failure text, when it did not.
    pub failure: Option<String>,
    /// Branch-and-bound nodes assessed (0 for cache hits and failures).
    pub nodes_assessed: usize,
    /// Wall time spent on this point, milliseconds.
    pub elapsed_ms: f64,
    /// Whether the outcome was served from the persistent cache.
    pub from_cache: bool,
}

impl DesignOutcome {
    /// Cache/report JSON for this outcome.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let metrics = match &self.metrics {
            None => Value::Null,
            Some(m) => Value::object([
                ("format", Value::from(m.format.as_str())),
                (
                    "weights",
                    Value::Array(m.weights.iter().map(|&w| Value::from(w)).collect()),
                ),
                ("validation_error", Value::from(m.validation_error)),
                ("training_error", Value::from(m.training_error)),
                ("fisher_cost", Value::from(m.fisher_cost)),
                ("outcome", Value::from(m.outcome.as_str())),
                ("power_w", Value::from(m.power)),
                ("energy_j", Value::from(m.energy)),
                ("area_um2", Value::from(m.area)),
            ]),
        };
        Value::object([
            ("family", Value::from(self.point.family.name())),
            ("k", Value::from(self.point.k)),
            ("f", Value::from(self.point.f)),
            ("rho", Value::from(self.point.rho)),
            ("rounding", Value::from(self.point.rounding.name())),
            ("metrics", metrics),
            (
                "failure",
                self.failure.as_deref().map_or(Value::Null, Value::from),
            ),
            ("nodes_assessed", Value::from(self.nodes_assessed)),
            ("elapsed_ms", Value::from(self.elapsed_ms)),
            ("from_cache", Value::from(self.from_cache)),
        ])
    }

    /// Rebuilds an outcome from cache JSON; `None` when any field is
    /// missing or ill-typed (the caller treats that as a cache miss).
    #[must_use]
    pub fn from_value(v: &Value) -> Option<DesignOutcome> {
        let point = DesignPoint {
            family: ModelFamily::from_name(v.get("family")?.as_str()?)?,
            k: u32::try_from(v.get("k")?.as_i64()?).ok()?,
            f: u32::try_from(v.get("f")?.as_i64()?).ok()?,
            rho: v.get("rho")?.as_f64()?,
            rounding: RoundingMode::from_name(v.get("rounding")?.as_str()?)?,
        };
        let metrics = match v.get("metrics")? {
            Value::Null => None,
            m => Some(TrainedPointMetrics {
                format: m.get("format")?.as_str()?.to_string(),
                weights: m
                    .get("weights")?
                    .as_array()?
                    .iter()
                    .map(Value::as_f64)
                    .collect::<Option<Vec<f64>>>()?,
                validation_error: m.get("validation_error")?.as_f64()?,
                training_error: m.get("training_error")?.as_f64()?,
                fisher_cost: m.get("fisher_cost")?.as_f64()?,
                outcome: m.get("outcome")?.as_str()?.to_string(),
                power: m.get("power_w")?.as_f64()?,
                energy: m.get("energy_j")?.as_f64()?,
                area: m.get("area_um2")?.as_f64()?,
            }),
        };
        let failure = match v.get("failure")? {
            Value::Null => None,
            f => Some(f.as_str()?.to_string()),
        };
        Some(DesignOutcome {
            point,
            metrics,
            failure,
            nodes_assessed: usize::try_from(v.get("nodes_assessed")?.as_i64()?).ok()?,
            elapsed_ms: v.get("elapsed_ms")?.as_f64()?,
            from_cache: v.get("from_cache")?.as_bool()?,
        })
    }
}

/// Everything one exploration run produced.
#[derive(Debug, Clone)]
pub struct ExploreSummary {
    /// Per-point records, in grid order (word length ascending).
    pub outcomes: Vec<DesignOutcome>,
    /// Indices into `outcomes` forming the (validation error, power)
    /// Pareto frontier, sorted by error ascending.
    pub pareto: Vec<usize>,
    /// Total branch-and-bound nodes across freshly solved points.
    pub total_nodes: usize,
    /// Total wall time of the sweep, milliseconds.
    pub total_elapsed_ms: f64,
    /// Points served from the persistent cache.
    pub cache_hits: usize,
    /// Worker threads the sweep actually used.
    pub threads: usize,
}

impl ExploreSummary {
    /// Outcomes that produced a model.
    #[must_use]
    pub fn trained(&self) -> usize {
        self.outcomes.iter().filter(|o| o.metrics.is_some()).count()
    }

    /// Outcomes that failed to train.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.outcomes.len() - self.trained()
    }
}

/// Deterministic holdout split: every `1/fraction`-th row (rounded to a
/// period of at least 2) of each class goes to validation, the rest to
/// training. Interleaving keeps both halves covering the same data range
/// regardless of row order, and determinism keeps cache keys stable.
///
/// # Errors
///
/// [`ExploreError::InvalidParameter`] unless `0 < fraction < 1` and both
/// splits end up with at least one sample per class.
pub fn holdout_split(
    data: &BinaryDataset,
    fraction: f64,
) -> Result<(BinaryDataset, BinaryDataset)> {
    if !(fraction > 0.0 && fraction < 1.0) {
        return Err(ExploreError::InvalidParameter {
            name: "holdout",
            detail: format!("fraction must lie in (0, 1), got {fraction}"),
        });
    }
    let period = (1.0 / fraction).round().max(2.0) as usize;
    let split =
        |n: usize| -> (Vec<usize>, Vec<usize>) { (0..n).partition(|i| i % period != period - 1) };
    let (na, nb) = data.class_sizes();
    let (train_a, val_a) = split(na);
    let (train_b, val_b) = split(nb);
    if train_a.is_empty() || train_b.is_empty() || val_a.is_empty() || val_b.is_empty() {
        return Err(ExploreError::InvalidParameter {
            name: "holdout",
            detail: format!("classes of sizes {na}/{nb} cannot support a 1-in-{period} holdout"),
        });
    }
    Ok((data.select(&train_a, &train_b), data.select(&val_a, &val_b)))
}

/// Cached handles into the global metrics registry (registered once per
/// process; recording is lock-free and safe from every worker thread).
struct SweepMetrics {
    points: Arc<obs::Counter>,
    cache_hits: Arc<obs::Counter>,
    cache_misses: Arc<obs::Counter>,
    failures: Arc<obs::Counter>,
    resume_skipped: Arc<obs::Counter>,
    point_us: Arc<obs::Histogram>,
}

fn sweep_metrics() -> &'static SweepMetrics {
    static METRICS: OnceLock<SweepMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = obs::Registry::global();
        SweepMetrics {
            points: r.counter("explore.points"),
            cache_hits: r.counter("explore.cache_hits"),
            cache_misses: r.counter("explore.cache_misses"),
            failures: r.counter("explore.failed_points"),
            resume_skipped: r.counter("explore.resume_skipped"),
            point_us: r.histogram("explore.point_us"),
        }
    })
}

/// Per-grid-point telemetry: counters always, one `explore.point` trace
/// event when tracing is on.
fn record_point(outcome: &DesignOutcome) {
    let m = sweep_metrics();
    m.points.inc();
    if outcome.from_cache {
        m.cache_hits.inc();
    } else {
        m.cache_misses.inc();
        m.point_us
            .record((outcome.elapsed_ms * 1e3).max(0.0) as u64);
    }
    if outcome.failure.is_some() {
        m.failures.inc();
    }
    if obs::enabled() {
        let mut e = obs::Event::new("explore.point")
            .with("family", outcome.point.family.name())
            .with("k", outcome.point.k)
            .with("f", outcome.point.f)
            .with("rho", outcome.point.rho)
            .with("rounding", outcome.point.rounding.name())
            .with("from_cache", outcome.from_cache)
            .with("nodes_assessed", outcome.nodes_assessed)
            .with("elapsed_ms", outcome.elapsed_ms);
        match (&outcome.metrics, &outcome.failure) {
            (Some(m), _) => {
                e = e
                    .with("outcome", m.outcome.as_str())
                    .with("validation_error", m.validation_error)
                    .with("fisher_cost", m.fisher_cost);
            }
            (None, Some(failure)) => {
                e = e.with("failure", failure.as_str());
            }
            (None, None) => {}
        }
        obs::emit(e);
    }
}

/// The exploration engine.
#[derive(Debug, Clone)]
pub struct Explorer {
    config: ExploreConfig,
}

/// Nested-parallelism budget: the sweep already occupies one core per
/// worker, so each B&B solve gets at most its share of the remaining
/// parallelism (`0` = auto defers to that share entirely).
fn clamp_solver_threads(requested: usize, intra_budget: usize) -> usize {
    match requested {
        0 => intra_budget,
        n => n.min(intra_budget),
    }
}

/// Durable state of a checkpointed sweep: the directory holding
/// per-point branch-and-bound snapshots.
struct SweepState {
    ckpt_dir: PathBuf,
    /// `ckpt_dir` predates this run — completed points will be served by
    /// the cache and counted as `resume.skipped`.
    resumed: bool,
}

/// Shared state visible to every worker during a sweep.
struct SweepShared {
    /// Intra-solve thread budget for each trainer, chosen so that
    /// `sweep workers × solver threads` never exceeds the core count.
    intra_threads: usize,
    queues: Vec<Mutex<VecDeque<usize>>>,
    results: Mutex<Vec<Option<DesignOutcome>>>,
}

impl SweepShared {
    /// Pop own queue front, else steal another queue's back.
    fn next_point(&self, me: usize) -> Option<usize> {
        if let Some(i) = self.queues[me]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
        {
            return Some(i);
        }
        for offset in 1..self.queues.len() {
            let victim = (me + offset) % self.queues.len();
            if let Some(i) = self.queues[victim]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_back()
            {
                return Some(i);
            }
        }
        None
    }

    fn publish(&self, index: usize, outcome: DesignOutcome) {
        self.results.lock().unwrap_or_else(|e| e.into_inner())[index] = Some(outcome);
    }
}

impl Explorer {
    /// Creates an engine with the given configuration.
    #[must_use]
    pub fn new(config: ExploreConfig) -> Self {
        Explorer { config }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &ExploreConfig {
        &self.config
    }

    /// Sweeps `grid` over `(train, validation)` and returns every
    /// outcome plus the Pareto frontier.
    ///
    /// Per-point training failures are *recorded*, not raised — a 3-bit
    /// grid that erases all class separation is a data point on the
    /// frontier's far end, not an error.
    ///
    /// # Errors
    ///
    /// Grid validation errors, cache/state-directory creation failures, and
    /// [`ExploreError::Interrupted`] when the configured interrupt flag
    /// stops the sweep (after flushing every in-flight checkpoint).
    pub fn run(
        &self,
        train: &BinaryDataset,
        validation: &BinaryDataset,
        grid: &ExploreGrid,
    ) -> Result<ExploreSummary> {
        let points = grid.design_points()?;
        let cache = match &self.config.cache_dir {
            Some(dir) => Some(ResultCache::open(dir.clone())?),
            None => None,
        };
        let state = match &self.config.state_dir {
            Some(dir) => {
                let ckpt_dir = dir.join("ckpt");
                let resumed = ckpt_dir.is_dir();
                std::fs::create_dir_all(&ckpt_dir).map_err(|e| ExploreError::Cache {
                    path: dir.clone(),
                    detail: e.to_string(),
                })?;
                if resumed {
                    obs::Registry::global()
                        .counter("explore.resumed_sweeps")
                        .inc();
                }
                Some(SweepState { ckpt_dir, resumed })
            }
            None => None,
        };
        let threads = match self.config.threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        }
        .min(points.len())
        .max(1);

        let train_digest = dataset_digest(train);
        let validation_digest = dataset_digest(validation);
        let started = Instant::now();

        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let shared = SweepShared {
            intra_threads: (cores / threads).max(1),
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            results: Mutex::new(vec![None; points.len()]),
        };
        // Deal round-robin so every worker starts on a small word length
        // and the expensive tail points are spread evenly.
        for (i, _) in points.iter().enumerate() {
            shared.queues[i % threads]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(i);
        }

        let worker = |me: usize| {
            loop {
                if self.interrupted() {
                    break;
                }
                let Some(index) = shared.next_point(me) else {
                    break;
                };
                let Some(outcome) = self.solve_point(
                    &points[index],
                    train,
                    validation,
                    train_digest,
                    validation_digest,
                    cache.as_ref(),
                    state.as_ref(),
                    &shared,
                ) else {
                    // Interrupted mid-solve; the final checkpoint is
                    // flushed, so stop claiming work.
                    break;
                };
                shared.publish(index, outcome);
            }
        };

        if threads == 1 {
            // Serial fallback: run inline, no thread spawn at all.
            worker(0);
        } else {
            std::thread::scope(|scope| {
                for me in 0..threads {
                    scope.spawn(move || worker(me));
                }
            });
        }

        let results: Vec<Option<DesignOutcome>> = shared
            .results
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        if results.iter().any(Option::is_none) {
            return Err(ExploreError::Interrupted);
        }
        let outcomes: Vec<DesignOutcome> = results
            .into_iter()
            .map(|slot| slot.expect("checked above"))
            .collect();
        let pareto = pareto_frontier(&outcomes);
        let total_nodes = outcomes.iter().map(|o| o.nodes_assessed).sum();
        let cache_hits = outcomes.iter().filter(|o| o.from_cache).count();
        Ok(ExploreSummary {
            outcomes,
            pareto,
            total_nodes,
            total_elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
            cache_hits,
            threads,
        })
    }

    /// Whether the configured cooperative-interrupt flag is raised.
    fn interrupted(&self) -> bool {
        self.config
            .interrupt
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::SeqCst))
    }

    /// Solves (or serves from cache) one grid point. Returns `None` only
    /// when the solve was cooperatively interrupted — its checkpoint is
    /// flushed and nothing is cached or published.
    #[allow(clippy::too_many_arguments)]
    fn solve_point(
        &self,
        point: &DesignPoint,
        train: &BinaryDataset,
        validation: &BinaryDataset,
        train_digest: u64,
        validation_digest: u64,
        cache: Option<&ResultCache>,
        state: Option<&SweepState>,
        shared: &SweepShared,
    ) -> Option<DesignOutcome> {
        let mut trainer_config = self.config.trainer.clone();
        trainer_config.rho = point.rho;
        trainer_config.rounding = point.rounding;
        trainer_config.solver_threads =
            clamp_solver_threads(trainer_config.solver_threads, shared.intra_threads);
        let key = problem_key(
            train_digest,
            validation_digest,
            point,
            config_digest(&trainer_config),
        );
        // Snapshot path and fingerprint are both derived from the content
        // key, so a checkpoint can never be resumed against a different
        // dataset, design point or trainer configuration.
        let ckpt_path = state.map(|s| {
            let tail = key.rsplit(':').next().unwrap_or(&key);
            s.ckpt_dir.join(format!("{tail}.ckpt"))
        });
        if let Some(cache) = cache {
            if let Some(hit) = cache
                .load(&key)
                .as_ref()
                .and_then(DesignOutcome::from_value)
            {
                if hit.point == *point {
                    if let (Some(state), Some(path)) = (state, &ckpt_path) {
                        if state.resumed {
                            sweep_metrics().resume_skipped.inc();
                            if obs::enabled() {
                                obs::emit(
                                    obs::Event::new("resume.skipped")
                                        .with("k", point.k)
                                        .with("f", point.f)
                                        .with("key", key.as_str()),
                                );
                            }
                        }
                        // Any snapshot left for this point is stale now —
                        // the cache already holds its finished outcome.
                        let _ = std::fs::remove_file(path);
                    }
                    let outcome = DesignOutcome {
                        from_cache: true,
                        elapsed_ms: 0.0,
                        nodes_assessed: 0,
                        ..hit
                    };
                    record_point(&outcome);
                    return Some(outcome);
                }
            }
        }

        let started = Instant::now();
        let outcome = if point.family == ModelFamily::Lda {
            let trainer = LdaFpTrainer::new(trainer_config);
            let policy = ckpt_path.as_ref().map(|path| {
                let mut policy = CheckpointPolicy::every_nodes(
                    path.clone(),
                    self.config.checkpoint_nodes,
                    snapshot_fingerprint(key.as_bytes()),
                );
                if let Some(flag) = &self.config.interrupt {
                    policy = policy.with_interrupt(flag.clone());
                }
                policy
            });
            let trained = match point.format() {
                Err(e) => Err(e.to_string()),
                Ok(format) => match trainer.train_checkpointed(train, format, policy.as_ref()) {
                    Err(CoreError::Interrupted) => return None,
                    other => other.map_err(|e| e.to_string()),
                },
            };
            match trained {
                Ok(model) => {
                    let power_model = MacPowerModel::default();
                    let bits = point.word_length();
                    let features = train.num_features();
                    DesignOutcome {
                        point: *point,
                        metrics: Some(TrainedPointMetrics {
                            format: model.classifier().format().to_string(),
                            weights: model.weights().to_vec(),
                            validation_error: eval::error_rate(model.classifier(), validation),
                            training_error: eval::error_rate(model.classifier(), train),
                            fisher_cost: model.fisher_cost(),
                            outcome: model.outcome().label().to_string(),
                            power: power_model.power(bits, features),
                            energy: power_model.energy_per_classification(bits, features),
                            area: power_model.area(bits, features),
                        }),
                        failure: None,
                        nodes_assessed: model.stats().nodes_assessed,
                        elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
                        from_cache: false,
                    }
                }
                Err(detail) => DesignOutcome {
                    point: *point,
                    metrics: None,
                    failure: Some(detail),
                    nodes_assessed: 0,
                    elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
                    from_cache: false,
                },
            }
        } else {
            family_outcome(point, train, validation, started)
        };

        if let Some(cache) = cache {
            // A failed store costs a future re-solve, nothing else.
            let _ = cache.store(&key, &outcome.to_value());
        }
        record_point(&outcome);
        Some(outcome)
    }
}

/// Trains one non-LDA family point. No branch-and-bound runs here — family
/// training is deterministic and cheap, so there is nothing to checkpoint
/// and resume rides entirely on the result cache. Failures (e.g. a format
/// too narrow for a wrap-free OS-ELM output layer) are recorded outcomes,
/// matching the LDA path's treatment of infeasible grids.
fn family_outcome(
    point: &DesignPoint,
    train: &BinaryDataset,
    validation: &BinaryDataset,
    started: Instant,
) -> DesignOutcome {
    let trained: std::result::Result<(f64, f64, String), String> = match point.format() {
        Err(e) => Err(e.to_string()),
        Ok(format) => match point.family {
            ModelFamily::NaiveBayes => {
                NaiveBayesTrainer::new(format, point.rounding, point.rho)
                    .train(train)
                    .map(|m| {
                        // Wrap-free by construction: the table scale is
                        // budgeted so no representable input can overflow.
                        (
                            m.error_rate(train),
                            m.error_rate(validation),
                            "certified".to_string(),
                        )
                    })
                    .map_err(|e| e.to_string())
            }
            ModelFamily::OsElm => {
                let mut trainer = OsElmTrainer::new(format, point.rounding);
                trainer.config.rho = point.rho;
                trainer
                    .train(train)
                    .map(|m| {
                        let label = if trainer.certify_output_layer(&m, train) {
                            "certified"
                        } else {
                            "uncertified"
                        };
                        (
                            m.error_rate(train),
                            m.error_rate(validation),
                            label.to_string(),
                        )
                    })
                    .map_err(|e| e.to_string())
            }
            ModelFamily::Lda => unreachable!("LDA points take the branch-and-bound path"),
        },
    };
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    match trained {
        Ok((training_error, validation_error, label)) => {
            let power_model = MacPowerModel::default();
            let bits = point.word_length();
            let features = train.num_features();
            DesignOutcome {
                point: *point,
                metrics: Some(TrainedPointMetrics {
                    format: format!("Q{}.{}", point.k, point.f),
                    weights: Vec::new(),
                    validation_error,
                    training_error,
                    fisher_cost: 0.0,
                    outcome: label,
                    power: power_model.power(bits, features),
                    energy: power_model.energy_per_classification(bits, features),
                    area: power_model.area(bits, features),
                }),
                failure: None,
                nodes_assessed: 0,
                elapsed_ms,
                from_cache: false,
            }
        }
        Err(detail) => DesignOutcome {
            point: *point,
            metrics: None,
            failure: Some(detail),
            nodes_assessed: 0,
            elapsed_ms,
            from_cache: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldafp_linalg::Matrix;

    fn easy_data(n: usize, offset: f64, seed: u64) -> BinaryDataset {
        let mut rng = ldafp_stats::Rng::new(seed);
        let mut next = move || rng.range_f64(-1.0..1.0);
        let a = Matrix::from_fn(n, 2, |_, j| {
            if j == 0 {
                -offset + 0.1 * next()
            } else {
                0.2 * next()
            }
        });
        let b = Matrix::from_fn(n, 2, |_, j| {
            if j == 0 {
                offset + 0.1 * next()
            } else {
                0.2 * next()
            }
        });
        BinaryDataset::new(a, b).expect("non-empty classes")
    }

    fn small_grid() -> ExploreGrid {
        ExploreGrid {
            min_bits: 3,
            max_bits: 5,
            max_k: 2,
            rhos: vec![0.99],
            roundings: vec![RoundingMode::NearestEven],
            ..ExploreGrid::default()
        }
    }

    #[test]
    fn solver_thread_budget_respects_core_share() {
        // Auto (`0`) takes the whole per-worker share.
        assert_eq!(clamp_solver_threads(0, 4), 4);
        assert_eq!(clamp_solver_threads(0, 1), 1);
        // Explicit requests are capped at the share, never raised.
        assert_eq!(clamp_solver_threads(8, 2), 2);
        assert_eq!(clamp_solver_threads(2, 4), 2);
        assert_eq!(clamp_solver_threads(1, 16), 1);
    }

    #[test]
    fn serial_sweep_covers_grid_and_finds_a_frontier() {
        let train = easy_data(30, 0.4, 1);
        let validation = easy_data(30, 0.4, 2);
        let explorer = Explorer::new(ExploreConfig {
            threads: 1,
            ..ExploreConfig::default()
        });
        let summary = explorer.run(&train, &validation, &small_grid()).unwrap();
        assert_eq!(summary.outcomes.len(), small_grid().len());
        assert_eq!(summary.threads, 1);
        assert!(summary.trained() > 0, "easy data must train somewhere");
        assert!(!summary.pareto.is_empty());
        // Frontier indices are valid and error-sorted.
        let errs: Vec<f64> = summary
            .pareto
            .iter()
            .map(|&i| {
                summary.outcomes[i]
                    .metrics
                    .as_ref()
                    .unwrap()
                    .validation_error
            })
            .collect();
        assert!(errs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn parallel_and_serial_sweeps_agree_on_metrics() {
        let train = easy_data(25, 0.4, 3);
        let validation = easy_data(25, 0.4, 4);
        let run = |threads| {
            Explorer::new(ExploreConfig {
                threads,
                ..ExploreConfig::default()
            })
            .run(&train, &validation, &small_grid())
            .unwrap()
        };
        let serial = run(1);
        let parallel = run(3);
        assert_eq!(serial.outcomes.len(), parallel.outcomes.len());
        for (s, p) in serial.outcomes.iter().zip(&parallel.outcomes) {
            assert_eq!(s.point, p.point, "grid order must be deterministic");
            assert_eq!(
                s.metrics.as_ref().map(|m| m.validation_error),
                p.metrics.as_ref().map(|m| m.validation_error)
            );
            assert_eq!(
                s.metrics.as_ref().map(|m| m.fisher_cost.to_bits()),
                p.metrics.as_ref().map(|m| m.fisher_cost.to_bits()),
                "fisher cost at {:?}",
                s.point
            );
            assert_eq!(
                s.metrics.as_ref().map(|m| m.outcome.as_str()),
                p.metrics.as_ref().map(|m| m.outcome.as_str()),
                "outcome label at {:?}",
                s.point
            );
            assert_eq!(s.nodes_assessed, p.nodes_assessed, "nodes at {:?}", s.point);
        }
        assert_eq!(serial.pareto, parallel.pareto);
    }

    #[test]
    fn cache_makes_second_sweep_incremental() {
        let dir =
            std::env::temp_dir().join(format!("ldafp-explore-sweep-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let train = easy_data(25, 0.4, 5);
        let validation = easy_data(25, 0.4, 6);
        let explorer = Explorer::new(ExploreConfig {
            threads: 1,
            cache_dir: Some(dir.clone()),
            ..ExploreConfig::default()
        });
        let first = explorer.run(&train, &validation, &small_grid()).unwrap();
        assert_eq!(first.cache_hits, 0);
        let second = explorer.run(&train, &validation, &small_grid()).unwrap();
        assert_eq!(second.cache_hits, second.outcomes.len());
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            assert_eq!(
                a.metrics.as_ref().map(|m| m.validation_error),
                b.metrics.as_ref().map(|m| m.validation_error)
            );
        }
        // Different data → different keys → cold again.
        let other = easy_data(25, 0.4, 7);
        let third = explorer.run(&other, &validation, &small_grid()).unwrap();
        assert_eq!(third.cache_hits, 0);
    }

    #[test]
    fn outcome_value_round_trips() {
        let outcome = DesignOutcome {
            point: DesignPoint {
                family: ModelFamily::Lda,
                k: 2,
                f: 3,
                rho: 0.95,
                rounding: RoundingMode::Floor,
            },
            metrics: Some(TrainedPointMetrics {
                format: "Q2.3".to_string(),
                weights: vec![0.5, -0.25],
                validation_error: 0.125,
                training_error: 0.0625,
                fisher_cost: -1.5,
                outcome: "certified".to_string(),
                power: 1e-4,
                energy: 1e-10,
                area: 1234.5,
            }),
            failure: None,
            nodes_assessed: 42,
            elapsed_ms: 3.5,
            from_cache: false,
        };
        assert_eq!(
            DesignOutcome::from_value(&outcome.to_value()),
            Some(outcome)
        );

        let failed = DesignOutcome {
            point: DesignPoint {
                family: ModelFamily::NaiveBayes,
                k: 1,
                f: 2,
                rho: 0.99,
                rounding: RoundingMode::NearestEven,
            },
            metrics: None,
            failure: Some("no feasible grid point".to_string()),
            nodes_assessed: 0,
            elapsed_ms: 0.1,
            from_cache: false,
        };
        assert_eq!(DesignOutcome::from_value(&failed.to_value()), Some(failed));
        assert_eq!(DesignOutcome::from_value(&Value::Null), None);
    }

    #[test]
    fn family_sweep_trains_caches_and_reloads_deterministically() {
        let dir =
            std::env::temp_dir().join(format!("ldafp-explore-family-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let train = easy_data(30, 0.5, 9);
        let validation = easy_data(30, 0.5, 10);
        let grid = ExploreGrid {
            min_bits: 6,
            max_bits: 8,
            families: vec![ModelFamily::NaiveBayes, ModelFamily::OsElm],
            ..ExploreGrid::default()
        };
        let explorer = Explorer::new(ExploreConfig {
            threads: 1,
            cache_dir: Some(dir.clone()),
            ..ExploreConfig::default()
        });
        let first = explorer.run(&train, &validation, &grid).unwrap();
        assert_eq!(first.outcomes.len(), grid.len());
        assert_eq!(first.total_nodes, 0, "family points never run B&B");
        assert!(
            first
                .outcomes
                .iter()
                .filter(|o| o.point.family == ModelFamily::NaiveBayes)
                .all(|o| o.metrics.is_some()),
            "naive Bayes trains at every swept width"
        );
        assert!(first.trained() > 0);
        // Every hit on the second run reproduces the first bit-for-bit.
        let second = explorer.run(&train, &validation, &grid).unwrap();
        assert_eq!(second.cache_hits, second.outcomes.len());
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.metrics, b.metrics);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn holdout_split_is_deterministic_and_covers_both_classes() {
        let data = easy_data(20, 0.4, 8);
        let (train, val) = holdout_split(&data, 0.25).unwrap();
        let (train2, val2) = holdout_split(&data, 0.25).unwrap();
        assert_eq!(dataset_digest(&train), dataset_digest(&train2));
        assert_eq!(dataset_digest(&val), dataset_digest(&val2));
        let (ta, tb) = train.class_sizes();
        let (va, vb) = val.class_sizes();
        assert_eq!(ta + va, 20);
        assert_eq!(tb + vb, 20);
        assert_eq!(va, 5, "1-in-4 of 20 rows");
        assert!(holdout_split(&data, 0.0).is_err());
        assert!(holdout_split(&data, 1.0).is_err());
    }
}
