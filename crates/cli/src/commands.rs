//! Subcommand implementations for the `ldafp` binary.
//!
//! Each command is a pure-ish function from parsed arguments (plus file
//! contents) to an output string, so the test suite drives them without a
//! process boundary. The binary's `main` only does I/O.

use crate::{args::ParsedArgs, csv, CliError, Result};
use ldafp_core::{
    eval, DegradationStats, FixedPointClassifier, LdaFpConfig, LdaFpTrainer, LdaModel,
    TrainingOutcome,
};
use ldafp_datasets::BinaryDataset;
use ldafp_fixedpoint::RoundingMode;
use ldafp_hwmodel::power::MacPowerModel;
use ldafp_models::ModelFamily;
use ldafp_net::{Codec, NetClient, RetryPolicy};
use ldafp_hwmodel::rtl::{generate_verilog, RtlConfig};
use ldafp_serve::{InferenceEngine, ModelArtifact, ServedModel, TrainingInfo};
use std::time::Duration;

/// Maps a training outcome to the process exit code contract:
/// `0` certified, `2` budget-exhausted or degraded, `3` fallback-rounded.
/// (Exit code `1` is reserved for hard errors.)
#[must_use]
pub fn exit_code(outcome: &TrainingOutcome) -> u8 {
    match outcome {
        TrainingOutcome::Certified => 0,
        TrainingOutcome::BudgetExhausted | TrainingOutcome::Degraded { .. } => 2,
        TrainingOutcome::FallbackRounded => 3,
    }
}

/// `ldafp train --data <csv> --bits <n> [--family lda|naive-bayes|os-elm]
/// [--k <n>] [--rho <p>] [--baseline] [--rounding <mode>]
/// [--budget-secs <n>] [--max-solver-retries <n>] [--solver-threads <n>]
/// [--quick]` — trains a classifier and returns its model file: the
/// serving artifact JSON that `predict`, `serve`, `eval`, `info` and
/// `export-rtl` read, for every family. Also returns the training outcome
/// and the search's degradation counters (both `None` for the baseline
/// and the non-LDA families, which run no search).
///
/// # Errors
///
/// Propagates CSV, argument and training failures.
pub fn train(
    args: &ParsedArgs,
    csv_text: &str,
) -> Result<(String, Option<TrainingOutcome>, Option<DegradationStats>)> {
    let data = csv::parse(csv_text)?;
    let bits: u32 = args.get_parsed("bits", 8)?;
    let max_k: u32 = args.get_parsed("k", 4)?;
    let rho: f64 = args.get_parsed("rho", 0.99)?;
    let budget_secs: u64 = args.get_parsed("budget-secs", 30)?;
    if bits == 0 || bits > 31 {
        return Err(CliError(format!("--bits must be in 1..=31, got {bits}")));
    }

    let family = parse_family(args)?;
    let (mut artifact, training, outcome, degradation) = if family != ModelFamily::Lda {
        let (artifact, training) = train_family(family, args, &data, bits, max_k, rho)?;
        (artifact, training, None, None)
    } else {
        let (algorithm, classifier, fisher_cost, outcome, degradation) =
            if args.has_flag("baseline") {
                let (clf, _format) = eval::quantized_lda_auto(&data, bits, max_k)?;
                ("lda-rounded", clf, None, None, None)
            } else {
                let mut cfg = if args.has_flag("quick") {
                    LdaFpConfig::fast()
                } else {
                    LdaFpConfig::default()
                };
                cfg.rho = rho;
                cfg.bnb.time_budget = Some(Duration::from_secs(budget_secs));
                apply_recovery_args(args, &mut cfg)?;
                let trainer = LdaFpTrainer::new(cfg);
                let (model, _format) = trainer.train_auto(&data, bits, max_k)?;
                (
                    "lda-fp",
                    model.classifier().clone(),
                    Some(model.fisher_cost()),
                    Some(model.outcome().clone()),
                    Some(model.stats().degradation.clone()),
                )
            };
        let mut training = TrainingInfo {
            algorithm: Some(algorithm.to_string()),
            training_error: Some(eval::error_rate(&classifier, &data)),
            fisher_cost,
            ..TrainingInfo::default()
        };
        if let Some(o) = &outcome {
            training = training.with_outcome(o);
        }
        (
            ModelArtifact::binary(classifier),
            training,
            outcome,
            degradation,
        )
    };
    artifact.training = training;
    Ok((artifact.to_json_string(), outcome, degradation))
}

/// Parses `--family` into a [`ModelFamily`] (default `lda`).
fn parse_family(args: &ParsedArgs) -> Result<ModelFamily> {
    match args.get("family") {
        None => Ok(ModelFamily::Lda),
        Some(name) => ModelFamily::from_name(name.trim()).ok_or_else(|| {
            CliError(format!(
                "--family expects lda|naive-bayes|os-elm, got {name:?}"
            ))
        }),
    }
}

/// `ldafp train --family naive-bayes|os-elm` — trains a non-LDA model
/// family into its serving artifact and provenance. `--bits` fixes the
/// word length; for naive Bayes `--k` fixes the integer-bit split, while
/// OS-ELM derives its split from the wrap-free output bound
/// ([`ldafp_models::choose_format`]). `--rounding` takes a single mode
/// (default nearest-even).
///
/// There is no branch-and-bound search to certify, so no training outcome
/// or degradation stats exist. Certification status lands in the
/// artifact's `training.outcome` field instead: `"certified"` for naive
/// Bayes (wrap-free by construction) and for OS-ELM models that pass the
/// eq. 18 output-layer check, `"uncertified"` otherwise.
fn train_family(
    family: ModelFamily,
    args: &ParsedArgs,
    data: &BinaryDataset,
    bits: u32,
    k: u32,
    rho: f64,
) -> Result<(ModelArtifact, TrainingInfo)> {
    use ldafp_models::{choose_format, NaiveBayesTrainer, OsElmConfig, OsElmTrainer};

    let rounding = match args.get("rounding") {
        None => RoundingMode::NearestEven,
        Some(name) => rounding_arg(name)?,
    };
    let (artifact, training_error, label) = match family {
        ModelFamily::NaiveBayes => {
            // `--k` is the exact integer-bit count here (the LDA trainer
            // treats it as a search ceiling); clamp it into the word.
            let int_bits = k.clamp(1, bits.saturating_sub(1).max(1));
            let format = ldafp_fixedpoint::QFormat::new(int_bits, bits - int_bits)
                .map_err(|e| CliError(e.to_string()))?;
            let model = NaiveBayesTrainer::new(format, rounding, rho)
                .train(data)
                .map_err(|e| CliError(e.to_string()))?;
            let err = model.error_rate(data);
            (ModelArtifact::naive_bayes(model), err, "certified")
        }
        ModelFamily::OsElm => {
            let format = choose_format(bits, OsElmConfig::default().hidden_units)
                .map_err(|e| CliError(e.to_string()))?;
            let mut trainer = OsElmTrainer::new(format, rounding);
            trainer.config.rho = rho;
            let model = trainer.train(data).map_err(|e| CliError(e.to_string()))?;
            let err = model.error_rate(data);
            let label = if trainer.certify_output_layer(&model, data) {
                "certified"
            } else {
                "uncertified"
            };
            (ModelArtifact::os_elm(model), err, label)
        }
        ModelFamily::Lda => unreachable!("LDA trains in `train`"),
    };
    let training = TrainingInfo {
        algorithm: Some(family.name().to_string()),
        outcome: Some(label.to_string()),
        training_error: Some(training_error),
        ..TrainingInfo::default()
    };
    Ok((artifact, training))
}

/// Parses one `--rounding` mode name.
fn rounding_arg(name: &str) -> Result<RoundingMode> {
    RoundingMode::from_name(name.trim()).ok_or_else(|| {
        CliError(format!(
            "--rounding expects nearest-even|nearest-away|floor|ceil|toward-zero, got {name:?}"
        ))
    })
}

/// One human-readable line summarizing non-clean [`DegradationStats`],
/// printed on stderr after `train` so degraded runs are visible without
/// digging into the model JSON. Returns `None` when the search was clean.
#[must_use]
pub fn degradation_summary(d: &DegradationStats) -> Option<String> {
    if d.is_clean() {
        return None;
    }
    let mut parts = Vec::new();
    for (count, what) in [
        (d.recovered_solves, "recovered solve(s)"),
        (d.trivial_bounds, "trivial bound(s)"),
        (d.suspect_infeasible, "suspect infeasibility claim(s)"),
        (d.rejected_bounds, "rejected non-finite bound(s)"),
        (d.rejected_candidates, "rejected non-finite candidate(s)"),
    ] {
        if count > 0 {
            parts.push(format!("{count} {what}"));
        }
    }
    let mut line = format!("search degradation: {}", parts.join(", "));
    if !d.solver_errors.is_empty() {
        let kinds: Vec<String> = d
            .solver_errors
            .iter()
            .map(|(kind, n)| format!("{kind} ×{n}"))
            .collect();
        line.push_str(&format!("; solver errors: {}", kinds.join(", ")));
    }
    Some(line)
}

/// The checkpoint/resume event vocabulary the durability layer emits; a
/// `checkpoint.*` or `resume.*` event outside this set is a typo or a
/// version skew between the tracer and this validator, and fails the check.
const CHECKPOINT_EVENTS: &[&str] = &["checkpoint.write", "checkpoint.load"];
const RESUME_EVENTS: &[&str] = &["resume.loaded", "resume.cold_start", "resume.skipped"];

/// The server's event vocabulary (`ldafp-net`); validated the same
/// way so a `--trace` capture of `serve` proves which
/// instrumentation points fired.
const NET_EVENTS: &[&str] = &[
    "net.listen",
    "net.accept",
    "net.close",
    "net.deadline_close",
    "net.batch",
    "net.shed",
    "net.reload",
    "net.shutdown",
];

/// `ldafp trace-check --input <ndjson>` — validates a `--trace` capture
/// line by line: every line must parse as a JSON object with a string
/// `event` and numeric `t_us`, and events in the `checkpoint.*` /
/// `resume.*` families must use the known durability vocabulary. Reports a
/// per-event-name tally plus family subtotals, so CI can assert that the
/// expected instrumentation points actually fired.
///
/// # Errors
///
/// Returns the 1-based line numbers (up to 10) of malformed lines.
pub fn trace_check(text: &str) -> Result<String> {
    use std::collections::BTreeMap;

    let mut tally: BTreeMap<String, usize> = BTreeMap::new();
    let mut bad: Vec<String> = Vec::new();
    let mut total = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        total += 1;
        let lineno = idx + 1;
        match ldafp_serve::json::parse(line) {
            Err(e) => bad.push(format!("line {lineno}: {e}")),
            Ok(value) => {
                let name = value.get("event").and_then(|v| v.as_str());
                let has_time = value.get("t_us").and_then(ldafp_serve::json::Value::as_f64);
                match (name, has_time) {
                    (Some(name), Some(_)) => {
                        let unknown_family_member = (name.starts_with("checkpoint.")
                            && !CHECKPOINT_EVENTS.contains(&name))
                            || (name.starts_with("resume.") && !RESUME_EVENTS.contains(&name))
                            || (name.starts_with("net.") && !NET_EVENTS.contains(&name));
                        if unknown_family_member {
                            bad.push(format!(
                                "line {lineno}: unknown checkpoint/resume/net event `{name}` \
                                 (known: {}, {}, {})",
                                CHECKPOINT_EVENTS.join(", "),
                                RESUME_EVENTS.join(", "),
                                NET_EVENTS.join(", ")
                            ));
                        } else {
                            *tally.entry(name.to_string()).or_insert(0) += 1;
                        }
                    }
                    (None, _) => bad.push(format!("line {lineno}: missing string `event` key")),
                    (_, None) => bad.push(format!("line {lineno}: missing numeric `t_us` key")),
                }
            }
        }
    }
    if !bad.is_empty() {
        let shown = bad.len().min(10);
        return Err(CliError(format!(
            "trace-check: {} invalid line(s) out of {total}:\n  {}",
            bad.len(),
            bad[..shown].join("\n  ")
        )));
    }
    let mut out = format!("trace ok: {total} event line(s)\n");
    for (name, count) in &tally {
        out.push_str(&format!("  {name:<20} {count}\n"));
    }
    for (family, prefix) in [
        ("checkpoint.*", "checkpoint."),
        ("resume.*", "resume."),
        ("net.*", "net."),
    ] {
        let count: usize = tally
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, n)| n)
            .sum();
        if count > 0 {
            out.push_str(&format!("  {family:<20} {count} (family total)\n"));
        }
    }
    Ok(out)
}

/// `ldafp predict --model <artifact> --input <csv>` — integer-only batch
/// inference against a saved serving artifact. Rows may be unlabeled or
/// carry a trailing label column (ignored). Output is CSV: one prediction
/// per input row, then a datapath-counter summary comment.
///
/// # Errors
///
/// Propagates artifact parse/validation failures, CSV failures, and
/// feature-count mismatches (with the offending row index).
pub fn predict(artifact_json: &str, csv_text: &str) -> Result<String> {
    let artifact = ModelArtifact::from_json_str(artifact_json)?;
    let rows = csv::parse_features(csv_text)?;
    let engine = InferenceEngine::new(artifact)?;
    let out = engine.predict_batch(&rows)?;
    let labels = &engine.artifact().class_labels;
    let mut text = String::from("row,class,label,score\n");
    for (i, p) in out.predictions.iter().enumerate() {
        let label = &labels[p.class_index];
        text.push_str(&format!("{i},{},{label},{}\n", p.class_index, p.score));
    }
    text.push_str(&format!(
        "# rows: {}, accumulator wraps: {}, saturated inputs: {}\n",
        out.stats.rows, out.stats.accumulator_wraps, out.stats.saturated_inputs
    ));
    Ok(text)
}

/// `ldafp serve --model <artifact> --addr <host:port>
/// [--models name=path,...] [--batch-rows n] [--batch-deadline-us n]
/// [--max-inflight n] [--max-pending-rows n] [--read-deadline-ms n]` —
/// starts the epoll-based evented server (`ldafp-net`) and returns its
/// handle; `main` blocks on [`ldafp_net::EventedHandle::join`], tests
/// drive the handle directly. One port, both codecs (JSON and binary,
/// negotiated per frame), cross-connection micro-batching of whatever
/// each read pass collected (`--batch-deadline-us` > 0 opts into a
/// linger, at millisecond resolution), and a hot-reloadable model
/// registry seeded with the `--model` artifact as `default` plus any
/// `--models name=path` extras.
///
/// # Errors
///
/// Propagates artifact parse/validation failures, malformed `--models`
/// entries, bind errors, and [`ldafp_net::NetError::Unsupported`] on
/// platforms without the epoll shim.
pub fn serve_evented_start(
    args: &ParsedArgs,
    artifact_json: &str,
    addr: &str,
) -> Result<ldafp_net::EventedHandle> {
    let engine = InferenceEngine::new(ModelArtifact::from_json_str(artifact_json)?)?;
    let registry = ldafp_serve::ModelRegistry::with_default(engine);
    if let Some(spec) = args.get("models") {
        for entry in spec.split(',').filter(|e| !e.is_empty()) {
            let (name, path) = entry.split_once('=').ok_or_else(|| {
                CliError(format!("--models expects name=path entries, got '{entry}'"))
            })?;
            let text = std::fs::read_to_string(path)?;
            let engine = InferenceEngine::new(ModelArtifact::from_json_str(&text)?)?;
            registry.install(name, engine);
        }
    }
    let defaults = ldafp_net::EventedConfig::default();
    let config = ldafp_net::EventedConfig {
        batch_max_rows: args.get_parsed("batch-rows", defaults.batch_max_rows)?,
        batch_deadline: Duration::from_micros(args.get_parsed(
            "batch-deadline-us",
            u64::try_from(defaults.batch_deadline.as_micros()).unwrap_or(u64::MAX),
        )?),
        max_inflight_per_conn: args.get_parsed("max-inflight", defaults.max_inflight_per_conn)?,
        max_pending_rows: args.get_parsed("max-pending-rows", defaults.max_pending_rows)?,
        read_deadline: Duration::from_millis(args.get_parsed(
            "read-deadline-ms",
            u64::try_from(defaults.read_deadline.as_millis()).unwrap_or(u64::MAX),
        )?),
        ..defaults
    };
    Ok(ldafp_net::serve_evented(registry, addr, config)?)
}

const REMOTE_TIMEOUT: Duration = Duration::from_secs(10);

/// Dials the server for a remote command in the codec `--wire` names:
/// the compact binary protocol (default) or the length-prefixed JSON
/// framing. The dial retries with the client's default backoff.
fn remote_client(args: &ParsedArgs, addr: &str) -> Result<NetClient> {
    let codec = match args.get("wire").unwrap_or("binary") {
        "binary" => Codec::Binary,
        "json" => Codec::Json,
        other => {
            return Err(CliError(format!(
                "--wire must be 'binary' or 'json', got '{other}'"
            )))
        }
    };
    Ok(NetClient::connect_with_retry(
        addr,
        REMOTE_TIMEOUT,
        codec,
        &RetryPolicy::default(),
    )?)
}

/// `ldafp reload --addr <host:port> --model <artifact> [--name <model>]
/// [--wire binary|json]` — atomically installs (or replaces) a model in a
/// running evented server's registry. Requests already queued keep the
/// engine they were admitted under; only later requests see the swap.
///
/// # Errors
///
/// Transport failures, or the server's typed rejection when the artifact
/// fails validation.
pub fn reload_cmd(args: &ParsedArgs, artifact_json: &str, addr: &str) -> Result<String> {
    let name = args.get("name").unwrap_or(ldafp_serve::DEFAULT_MODEL_NAME);
    let reply = remote_client(args, addr)?.reload(name, artifact_json)?;
    let field = |key: &str| match reply.get(key) {
        Some(v) => v
            .as_str()
            .map_or_else(|| v.to_compact_string(), str::to_string),
        None => "?".to_string(),
    };
    Ok(format!(
        "reloaded model {} (family {}, replaced {}, registry generation {})\n",
        field("model"),
        field("family"),
        field("replaced"),
        field("generation"),
    ))
}

/// `ldafp predict --addr <host:port> --input <csv> [--name <model>]
/// [--wire binary|json]` — remote batch inference against a running
/// server, emitting the exact CSV [`predict`] emits locally (the
/// differential tests rely on the three paths agreeing byte-for-byte).
/// `--name` routes to a registry model.
///
/// # Errors
///
/// Transport failures and the server's typed rejections (shape mismatch,
/// unknown route, overload).
pub fn predict_remote(args: &ParsedArgs, csv_text: &str, addr: &str) -> Result<String> {
    let rows = csv::parse_features(csv_text)?;
    let reply = remote_client(args, addr)?.predict_rows(args.get("name"), &rows)?;
    let mut text = String::from("row,class,label,score\n");
    for (i, (class, score)) in reply.classes.iter().zip(&reply.scores).enumerate() {
        text.push_str(&format!("{i},{class},{},{score}\n", reply.label(i)));
    }
    text.push_str(&format!(
        "# rows: {}, accumulator wraps: {}, saturated inputs: {}\n",
        rows.len(),
        reply.accumulator_wraps,
        reply.saturated_inputs
    ));
    Ok(text)
}

/// Threads `--max-solver-retries` into the recovery schedule (`0` disables
/// the retry path entirely: failed relaxations degrade to trivial bounds
/// immediately) and `--solver-threads` into the B&B search (`0` = one per
/// core, `1` = serial; results are bit-identical either way).
fn apply_recovery_args(args: &ParsedArgs, cfg: &mut LdaFpConfig) -> Result<()> {
    cfg.recovery.max_retries = args.get_parsed("max-solver-retries", cfg.recovery.max_retries)?;
    cfg.solver_threads = args.get_parsed("solver-threads", cfg.solver_threads)?;
    Ok(())
}

/// Parses a model file and returns its binary LDA classifier with the
/// training provenance: the one kind `eval`, `info` and `export-rtl`
/// describe. Any other kind is refused with an error naming it.
fn binary_model(
    artifact_json: &str,
    command: &str,
) -> Result<(FixedPointClassifier, TrainingInfo)> {
    let artifact = ModelArtifact::from_json_str(artifact_json)?;
    match artifact.model {
        ServedModel::Binary(clf) => Ok((clf, artifact.training)),
        other => Err(CliError(format!(
            "{command} reads binary LDA models only; this model file is of kind '{}'",
            other.kind_name()
        ))),
    }
}

/// `ldafp eval --model <model.ldafp.json> --data <csv>` — classification
/// report.
///
/// # Errors
///
/// Propagates parse failures and feature-count mismatches, and refuses
/// non-binary models.
pub fn eval_cmd(artifact_json: &str, csv_text: &str) -> Result<String> {
    let (clf, training) = binary_model(artifact_json, "eval")?;
    let data = csv::parse(csv_text)?;
    if data.num_features() != clf.num_features() {
        return Err(CliError(format!(
            "model expects {} features but data has {}",
            clf.num_features(),
            data.num_features()
        )));
    }
    let err = eval::error_rate(&clf, &data);
    let (n_a, n_b) = data.class_sizes();
    let pm = MacPowerModel::default();
    Ok(format!(
        "model: {} ({} @ {} bits)\nsamples: {} class A, {} class B\n\
         error rate: {:.2}%\naccuracy:   {:.2}%\n\
         estimated energy/classification (normalized): {:.1}\n",
        training.algorithm.as_deref().unwrap_or("binary"),
        clf.format(),
        clf.word_length(),
        n_a,
        n_b,
        100.0 * err,
        100.0 * (1.0 - err),
        pm.energy_per_classification(clf.word_length(), clf.num_features()),
    ))
}

/// `ldafp info --model <model.ldafp.json>` — human-readable model summary.
/// Provenance the file does not record is left out.
///
/// # Errors
///
/// Propagates parse failures and refuses non-binary models.
pub fn info(artifact_json: &str) -> Result<String> {
    let (clf, training) = binary_model(artifact_json, "info")?;
    let mut out = format!(
        "{} model, format {} ({} bits/word), {} features\n",
        training.algorithm.as_deref().unwrap_or("binary"),
        clf.format(),
        clf.word_length(),
        clf.num_features()
    );
    if let Some(e) = training.training_error {
        out.push_str(&format!("training error: {:.2}%\n", 100.0 * e));
    }
    if let Some(j) = training.fisher_cost {
        out.push_str(&format!("fisher cost: {j:.6}\n"));
    }
    if let Some(label) = &training.outcome {
        match &training.outcome_summary {
            Some(summary) => out.push_str(&format!("training outcome: {label} — {summary}\n")),
            None => out.push_str(&format!("training outcome: {label}\n")),
        }
    }
    out.push_str(&format!("threshold: {}\n", clf.threshold().to_f64()));
    out.push_str("weights:\n");
    for (i, w) in clf.weights().iter().enumerate() {
        out.push_str(&format!(
            "  w[{i:>3}] = {:>12} (raw {:>6}, bits {:#b})\n",
            w.to_f64(),
            w.raw(),
            w.to_bits()
        ));
    }
    Ok(out)
}

/// `ldafp export-rtl --model <model.ldafp.json> [--module <name>]
/// [--testbench]` — emits synthesizable Verilog.
///
/// # Errors
///
/// Propagates parse and RTL generation failures, and refuses non-binary
/// models.
pub fn export_rtl(args: &ParsedArgs, artifact_json: &str) -> Result<String> {
    let (clf, _) = binary_model(artifact_json, "export-rtl")?;
    let cfg = RtlConfig {
        module_name: args.get("module").unwrap_or("ldafp_classifier").to_string(),
        with_testbench: args.has_flag("testbench"),
    };
    Ok(generate_verilog(clf.weights(), clf.threshold(), &cfg)?)
}

/// `ldafp demo [--bits <n>]` — self-contained demonstration on the paper's
/// synthetic workload: trains baseline and LDA-FP, prints the comparison.
///
/// # Errors
///
/// Propagates training failures (practically unreachable on the demo data).
pub fn demo(args: &ParsedArgs) -> Result<String> {
    use ldafp_datasets::synthetic::{generate, SyntheticConfig};

    let bits: u32 = args.get_parsed("bits", 6)?;
    let mut rng = ldafp_stats::Rng::new(7);
    let (train_set, factor) = generate(
        &SyntheticConfig {
            n_per_class: 500,
            ..SyntheticConfig::default()
        },
        &mut rng,
    )
    .scaled_to(0.9);
    let test_raw = generate(
        &SyntheticConfig {
            n_per_class: 2_000,
            ..SyntheticConfig::default()
        },
        &mut rng,
    );
    let test_set = BinaryDataset {
        class_a: test_raw.class_a.scaled(factor),
        class_b: test_raw.class_b.scaled(factor),
    };

    let lda = LdaModel::train(&train_set)?;
    let (baseline, _) = eval::quantized_lda_auto(&train_set, bits, 4)?;
    let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
    let (model, format) = trainer.train_auto(&train_set, bits, 4)?;

    Ok(format!(
        "LDA-FP demo — synthetic noise-cancellation workload (DAC'14 §5.1)\n\
         word length: {bits} bits (LDA-FP chose {format})\n\n\
         float LDA test error:        {:.2}%\n\
         rounded LDA test error:      {:.2}%\n\
         LDA-FP test error:           {:.2}%\n\
         training outcome:            {}\n",
        100.0 * float_error(&lda, &test_set),
        100.0 * eval::error_rate(&baseline, &test_set),
        100.0 * eval::error_rate(model.classifier(), &test_set),
        model.outcome().label(),
    ))
}

/// `ldafp wordlength --data <csv> --target <error> [--min-bits n]
/// [--max-bits n] [--k n] [--quick]` — finds the minimal word length whose
/// LDA-FP classifier meets the target error on the training data, and
/// reports the accuracy/power tradeoff curve.
///
/// # Errors
///
/// Propagates CSV, argument and training failures.
pub fn wordlength(args: &ParsedArgs, csv_text: &str) -> Result<String> {
    use ldafp_core::wordlength::{minimal_word_length, SweepPoint, WordLengthSearch};
    use ldafp_explore::{ExploreConfig, ExploreGrid, Explorer};

    let data = csv::parse(csv_text)?;
    let target: f64 = args.get_parsed("target", 0.2)?;
    let search = WordLengthSearch {
        min_bits: args.get_parsed("min-bits", 3u32)?,
        max_bits: args.get_parsed("max-bits", 16u32)?,
        max_k: args.get_parsed("k", 4u32)?,
    };
    if search.min_bits == 0 || search.max_bits > 31 || search.min_bits > search.max_bits {
        return Err(CliError(format!(
            "invalid search range {}..={}",
            search.min_bits, search.max_bits
        )));
    }
    let mut cfg = if args.has_flag("quick") {
        LdaFpConfig::fast()
    } else {
        LdaFpConfig::default()
    };
    apply_recovery_args(args, &mut cfg)?;
    let trainer = LdaFpTrainer::new(cfg.clone());

    let pm = MacPowerModel::default();
    // The sweep itself runs on the explore engine (one worker per core,
    // one branch-and-bound search per design point).
    let grid = ExploreGrid {
        min_bits: search.min_bits.max(2),
        max_bits: search.max_bits,
        max_k: search.max_k,
        rhos: vec![cfg.rho],
        roundings: vec![cfg.rounding],
        ..ExploreGrid::default()
    };
    let summary = Explorer::new(ExploreConfig {
        threads: args.get_parsed("threads", 0usize)?,
        cache_dir: None,
        trainer: cfg,
        ..ExploreConfig::default()
    })
    .run(&data, &data, &grid)
    .map_err(|e| CliError(e.to_string()))?;
    // One row per word length, like the historical serial sweep: the best
    // (K, F) split by validation error, `-` when nothing trained.
    let points: Vec<SweepPoint> = (search.min_bits..=search.max_bits)
        .map(|bits| {
            summary
                .outcomes
                .iter()
                .filter(|o| o.point.word_length() == bits)
                .filter_map(|o| o.metrics.as_ref())
                .min_by(|a, b| a.validation_error.total_cmp(&b.validation_error))
                .map_or(
                    SweepPoint {
                        word_length: bits,
                        format: "-".to_string(),
                        validation_error: 0.5,
                    },
                    |m| SweepPoint {
                        word_length: bits,
                        format: m.format.clone(),
                        validation_error: m.validation_error,
                    },
                )
        })
        .collect();
    let mut out = String::from("bits | format | training error | relative power
");
    let ref_power = pm.power(search.max_bits, data.num_features());
    for p in &points {
        out.push_str(&format!(
            "{:>4} | {:>6} | {:>13.2}% | {:>13.3}
",
            p.word_length,
            p.format,
            100.0 * p.validation_error,
            pm.power(p.word_length, data.num_features()) / ref_power,
        ));
    }
    match minimal_word_length(&trainer, &data, &data, target, &search)? {
        Some(o) => out.push_str(&format!(
            "
minimal word length for ≤{:.2}% error: {} bits ({}), achieved {:.2}%
",
            100.0 * target,
            o.word_length,
            o.format,
            100.0 * o.validation_error
        )),
        None => out.push_str(&format!(
            "
no word length in {}..={} reaches {:.2}% error
",
            search.min_bits,
            search.max_bits,
            100.0 * target
        )),
    }
    Ok(out)
}

/// `ldafp explore [--data <csv>] [--holdout f] [--min-bits n] [--max-bits n]
/// [--k n] [--rho p[,p...]] [--rounding mode[,mode...]]
/// [--family name[,name...]] [--threads n]
/// [--budget-secs n] [--cache-dir dir] [--no-cache is implied without
/// --cache-dir] [--json report.json] [--quick] [--resume dir]
/// [--checkpoint-nodes n] [--pareto report.md]` — sweeps the design
/// space, reports every point plus the (error, power) Pareto frontier as
/// Markdown, and optionally writes the JSON report.
///
/// Without `--data` the sweep runs on the deterministic demo2d
/// rounding-sensitive workload, so `ldafp explore` works out of the box.
///
/// `--resume <dir>` makes the sweep crash-safe: the directory holds a
/// durable journal, per-point branch-and-bound checkpoints (snapshotted
/// every `--checkpoint-nodes` nodes, default 256), and — unless
/// `--cache-dir` overrides it — the result cache at `<dir>/cache`.
/// Re-running the identical command after a crash or ^C skips completed
/// points via the cache and continues in-flight solves from their
/// snapshots, bit-identically. `--pareto <file>` writes the deterministic
/// frontier report (no timings or cache flags) that resumed and
/// uninterrupted runs render byte-identically.
///
/// Returns the report and an exit code from the training-outcome
/// contract, keyed by the most accurate frontier point: `0` certified,
/// `2` budget-exhausted/degraded, `3` fallback or an empty frontier,
/// `4` interrupted by SIGINT with checkpoints flushed (resumable).
///
/// # Errors
///
/// Propagates CSV, argument, grid and cache-directory failures.
pub fn explore(
    args: &ParsedArgs,
    csv_text: Option<&str>,
    interrupt: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
) -> Result<(String, u8)> {
    use ldafp_explore::{
        holdout_split, json_report, markdown_report, ExploreConfig, ExploreGrid, Explorer,
    };

    let data = match csv_text {
        Some(text) => csv::parse(text)?,
        None => {
            let mut rng = ldafp_stats::Rng::new(2014);
            ldafp_datasets::demo2d::rounding_sensitive(
                &ldafp_datasets::demo2d::Demo2dConfig {
                    n_per_class: 80,
                    ..ldafp_datasets::demo2d::Demo2dConfig::default()
                },
                &mut rng,
            )
        }
    };
    let holdout: f64 = args.get_parsed("holdout", 0.25)?;
    let (train, validation) =
        holdout_split(&data, holdout).map_err(|e| CliError(e.to_string()))?;

    let rhos: Vec<f64> = match args.get("rho") {
        None => vec![0.99],
        Some(spec) => spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| CliError(format!("--rho expects numbers, got {s:?}")))
            })
            .collect::<Result<_>>()?,
    };
    let roundings = match args.get("rounding") {
        None => vec![RoundingMode::NearestEven],
        Some(spec) => spec.split(',').map(rounding_arg).collect::<Result<_>>()?,
    };
    let families: Vec<ModelFamily> = match args.get("family") {
        None => vec![ModelFamily::Lda],
        Some(spec) => spec
            .split(',')
            .map(|s| {
                ModelFamily::from_name(s.trim()).ok_or_else(|| {
                    CliError(format!(
                        "--family expects lda|naive-bayes|os-elm, got {s:?}"
                    ))
                })
            })
            .collect::<Result<_>>()?,
    };
    let grid = ExploreGrid {
        min_bits: args.get_parsed("min-bits", 3u32)?,
        max_bits: args.get_parsed("max-bits", 8u32)?,
        max_k: args.get_parsed("k", 2u32)?,
        rhos,
        roundings,
        families,
    };

    let mut trainer = if args.has_flag("quick") {
        LdaFpConfig::fast()
    } else {
        LdaFpConfig::default()
    };
    if let Some(budget) = args.get("budget-secs") {
        let secs: u64 = budget
            .parse()
            .map_err(|_| CliError(format!("--budget-secs expects an integer, got {budget:?}")))?;
        trainer.bnb.time_budget = Some(Duration::from_secs(secs));
    }
    apply_recovery_args(args, &mut trainer)?;

    let state_dir = args.get("resume").map(std::path::PathBuf::from);
    let cache_dir = if args.has_flag("no-cache") {
        if state_dir.is_some() {
            // --resume skips completed points through the cache; without it
            // a resumed sweep would re-solve everything already finished.
            return Err(CliError(
                "--resume needs the result cache; drop --no-cache".to_string(),
            ));
        }
        None
    } else {
        args.get("cache-dir")
            .map(std::path::PathBuf::from)
            .or_else(|| state_dir.as_ref().map(|d| d.join("cache")))
    };
    let summary = match Explorer::new(ExploreConfig {
        threads: args.get_parsed("threads", 0usize)?,
        cache_dir,
        trainer,
        state_dir,
        checkpoint_nodes: args.get_parsed("checkpoint-nodes", 256usize)?,
        interrupt,
    })
    .run(&train, &validation, &grid)
    {
        Ok(summary) => summary,
        Err(ldafp_explore::ExploreError::Interrupted) => {
            return Ok((
                "sweep interrupted; checkpoints flushed — re-run with the same \
                 --resume directory to continue\n"
                    .to_string(),
                4,
            ));
        }
        Err(e) => return Err(CliError(e.to_string())),
    };

    if let Some(path) = args.get("json") {
        std::fs::write(path, json_report(&summary).to_pretty_string())?;
    }
    if let Some(path) = args.get("pareto") {
        std::fs::write(path, ldafp_explore::pareto_report(&summary))?;
    }

    // Exit-code contract, keyed by the frontier's most accurate point.
    let code = match summary.pareto.first().map(|&i| &summary.outcomes[i]) {
        None => 3,
        Some(o) => match o.metrics.as_ref().map(|m| m.outcome.as_str()) {
            Some("certified") => 0,
            Some("fallback-rounded") | None => 3,
            Some(_) => 2,
        },
    };
    Ok((markdown_report(&summary), code))
}

fn float_error(lda: &LdaModel, data: &BinaryDataset) -> f64 {
    let mut errors = 0usize;
    let mut total = 0usize;
    for (x, label) in data.iter_labeled() {
        let is_a = matches!(label, ldafp_datasets::ClassLabel::A);
        if lda.classify(x) != is_a {
            errors += 1;
        }
        total += 1;
    }
    errors as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn easy_csv() -> String {
        let mut s = String::new();
        for i in 0..20 {
            let jitter = (i as f64) * 0.01;
            s.push_str(&format!("{},{},A\n", -0.4 - jitter, 0.1 * jitter));
            s.push_str(&format!("{},{},B\n", 0.4 + jitter, -0.1 * jitter));
        }
        s
    }

    fn parsed(raw: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(
            raw.iter().copied(),
            &[
                "data", "bits", "k", "rho", "budget-secs", "max-solver-retries", "module",
                "model", "out", "target", "min-bits", "max-bits", "input",
                "addr", "threads", "solver-threads", "holdout", "rounding", "cache-dir",
                "json", "trace", "resume", "pareto", "checkpoint-nodes", "family",
            ],
            &["baseline", "quick", "testbench", "no-cache", "metrics-summary"],
        )
        .unwrap()
    }

    #[test]
    fn solver_threads_flag_is_parsed_and_bit_identical_to_serial() {
        let csv_text = easy_csv();
        let (serial, _, _) =
            train(&parsed(&["--bits", "5", "--quick", "--solver-threads", "1"]), &csv_text)
                .unwrap();
        let (parallel, _, _) =
            train(&parsed(&["--bits", "5", "--quick", "--solver-threads", "3"]), &csv_text)
                .unwrap();
        assert_eq!(serial, parallel, "thread count must not change the model");
        let err = train(&parsed(&["--bits", "5", "--solver-threads", "zap"]), &csv_text)
            .unwrap_err();
        assert!(err.to_string().contains("solver-threads"), "got: {err}");
    }

    /// Parses `train`'s output and returns the binary classifier and its
    /// provenance.
    fn trained_binary(artifact_json: &str) -> (FixedPointClassifier, TrainingInfo) {
        let artifact = ModelArtifact::from_json_str(artifact_json).unwrap();
        match artifact.model {
            ServedModel::Binary(clf) => (clf, artifact.training),
            other => panic!("expected a binary model, got {}", other.kind_name()),
        }
    }

    #[test]
    fn train_eval_info_roundtrip() {
        let csv_text = easy_csv();
        let (artifact_json, outcome, _) =
            train(&parsed(&["--bits", "6", "--quick"]), &csv_text).unwrap();
        let (clf, training) = trained_binary(&artifact_json);
        assert_eq!(training.algorithm.as_deref(), Some("lda-fp"));
        assert_eq!(clf.word_length(), 6);
        let error = training.training_error.unwrap();
        assert!(error <= 0.1, "error {error}");
        let outcome = outcome.expect("lda-fp training must report an outcome");
        assert_eq!(training.outcome.as_deref(), Some(outcome.label()));
        assert_eq!(training.outcome_summary, Some(outcome.summary()));

        let report = eval_cmd(&artifact_json, &csv_text).unwrap();
        assert!(report.contains("error rate"), "{report}");

        let summary = info(&artifact_json).unwrap();
        assert!(summary.contains("lda-fp model"), "{summary}");
        assert!(summary.contains("w[  0]"), "{summary}");
        assert!(summary.contains("training outcome:"), "{summary}");
    }

    #[test]
    fn baseline_flag_trains_rounded_lda() {
        let (artifact_json, outcome, _) =
            train(&parsed(&["--bits", "8", "--baseline"]), &easy_csv()).unwrap();
        let (_, training) = trained_binary(&artifact_json);
        assert_eq!(training.algorithm.as_deref(), Some("lda-rounded"));
        assert!(training.fisher_cost.is_none());
        assert!(training.outcome.is_none() && training.outcome_summary.is_none());
        assert!(outcome.is_none(), "baseline has no search outcome");

        // `info` leaves out what the baseline does not record.
        let summary = info(&artifact_json).unwrap();
        assert!(summary.starts_with("lda-rounded model"), "{summary}");
        assert!(!summary.contains("fisher cost"), "{summary}");
        assert!(!summary.contains("training outcome"), "{summary}");
    }

    #[test]
    fn train_accepts_max_solver_retries() {
        let (artifact_json, _, _) = train(
            &parsed(&["--bits", "6", "--quick", "--max-solver-retries", "0"]),
            &easy_csv(),
        )
        .unwrap();
        let (_, training) = trained_binary(&artifact_json);
        assert_eq!(training.algorithm.as_deref(), Some("lda-fp"));
    }

    #[test]
    fn degradation_summary_only_reports_dirty_searches() {
        assert!(degradation_summary(&DegradationStats::default()).is_none());

        let mut d = DegradationStats {
            recovered_solves: 2,
            trivial_bounds: 1,
            ..DegradationStats::default()
        };
        d.solver_errors.insert("ill-conditioned".to_string(), 3);
        let line = degradation_summary(&d).unwrap();
        assert!(line.contains("2 recovered solve(s)"), "{line}");
        assert!(line.contains("1 trivial bound(s)"), "{line}");
        assert!(line.contains("ill-conditioned ×3"), "{line}");
        assert!(!line.contains("suspect"), "{line}");
    }

    #[test]
    fn trace_check_tallies_valid_streams_and_pinpoints_bad_lines() {
        let good = "{\"event\":\"bnb.expand\",\"t_us\":1}\n\n{\"event\":\"bnb.expand\",\"t_us\":2}\n{\"event\":\"registry.dump\",\"t_us\":9,\"registry\":{}}\n";
        let report = trace_check(good).unwrap();
        assert!(report.contains("trace ok: 3 event line(s)"), "{report}");
        assert!(report.contains("bnb.expand"), "{report}");
        assert!(report.contains('2'), "{report}");

        let err = trace_check("{\"event\":\"a\",\"t_us\":1}\nnot json\n{\"t_us\":2}\n").unwrap_err();
        assert!(err.0.contains("2 invalid line(s)"), "{}", err.0);
        assert!(err.0.contains("line 2"), "{}", err.0);
        assert!(err.0.contains("line 3"), "{}", err.0);
        assert!(err.0.contains("missing string `event`"), "{}", err.0);
    }

    #[test]
    fn train_surfaces_degradation_stats_for_the_search_path() {
        let (_, outcome, degradation) =
            train(&parsed(&["--bits", "6", "--quick"]), &easy_csv()).unwrap();
        assert!(outcome.is_some());
        let d = degradation.expect("lda-fp training must report degradation stats");
        // A clean run on easy data: counters exist and are all zero.
        assert!(d.is_clean(), "{d:?}");

        let (_, _, baseline_degradation) =
            train(&parsed(&["--bits", "6", "--baseline"]), &easy_csv()).unwrap();
        assert!(baseline_degradation.is_none(), "baseline runs no search");
    }

    #[test]
    fn exit_codes_distinguish_outcomes() {
        assert_eq!(exit_code(&TrainingOutcome::Certified), 0);
        assert_eq!(exit_code(&TrainingOutcome::BudgetExhausted), 2);
        assert_eq!(
            exit_code(&TrainingOutcome::Degraded {
                recovered_solves: 1,
                trivial_bounds: 0,
                suspect_infeasible: 0,
                uncertified_rescale: false,
            }),
            2
        );
        assert_eq!(exit_code(&TrainingOutcome::FallbackRounded), 3);
    }

    #[test]
    fn train_output_is_a_loadable_artifact_that_predicts_identically() {
        let csv_text = easy_csv();
        let (artifact_json, _, _) = train(&parsed(&["--bits", "6", "--quick"]), &csv_text).unwrap();
        let (clf, _) = trained_binary(&artifact_json);
        let rows = csv::parse_features(&csv_text).unwrap();
        let engine =
            InferenceEngine::new(ModelArtifact::from_json_str(&artifact_json).unwrap()).unwrap();
        let out = engine.predict_batch(&rows).unwrap();
        assert_eq!(out.predictions.len(), rows.len());
        for (row, p) in rows.iter().zip(&out.predictions) {
            // Artifact inference must agree bit-for-bit with the trained
            // classifier's own decision rule.
            assert_eq!(p.class_index, usize::from(!clf.classify(row)));
        }
    }

    #[test]
    fn model_readers_refuse_non_binary_models_by_kind() {
        use ldafp_core::multiclass::OneVsRestClassifier;

        let csv_text = easy_csv();
        let (nb_json, _, _) = train(
            &parsed(&["--bits", "8", "--family", "naive-bayes"]),
            &csv_text,
        )
        .unwrap();
        let (elm_json, _, _) =
            train(&parsed(&["--bits", "10", "--family", "os-elm"]), &csv_text).unwrap();
        let format = ldafp_fixedpoint::QFormat::new(2, 5).unwrap();
        let heads = [[0.5, -0.25], [-0.5, 0.25], [0.25, 0.5]]
            .iter()
            .map(|w| FixedPointClassifier::from_float(w, 0.0, format).unwrap())
            .collect();
        let ovr = OneVsRestClassifier::from_parts(heads, vec![1.0; 3]).unwrap();
        let ovr_json = ModelArtifact::one_vs_rest(ovr).to_json_string();

        let rtl_args = parsed(&[]);
        for (json, kind) in [
            (&nb_json, "naive-bayes"),
            (&elm_json, "os-elm"),
            (&ovr_json, "one-vs-rest"),
        ] {
            for (command, result) in [
                ("eval", eval_cmd(json, &csv_text)),
                ("info", info(json)),
                ("export-rtl", export_rtl(&rtl_args, json)),
            ] {
                let err = result.unwrap_err();
                assert!(err.0.starts_with(command), "{command} on {kind}: {}", err.0);
                assert!(
                    err.0.contains(&format!("kind '{kind}'")),
                    "{command}: {}",
                    err.0
                );
            }
        }
    }

    #[test]
    fn predict_emits_one_line_per_row_plus_counters() {
        let format = ldafp_fixedpoint::QFormat::new(2, 5).unwrap();
        let clf =
            FixedPointClassifier::from_float(&[0.5, -0.25], 0.0, format).unwrap();
        let artifact_json =
            ModelArtifact::binary(clf.clone()).to_json_string();
        let out = predict(&artifact_json, "0.4,0.1\n-0.4,0.1,B\n").unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "row,class,label,score");
        assert!(lines[1].starts_with("0,"), "{out}");
        assert!(lines[2].starts_with("1,"), "{out}");
        assert!(lines[3].contains("rows: 2"), "{out}");
        // Decisions match the classifier.
        assert!(lines[1].starts_with(&format!("0,{}", usize::from(!clf.classify(&[0.4, 0.1])))));
        assert!(lines[2].starts_with(&format!("1,{}", usize::from(!clf.classify(&[-0.4, 0.1])))));
    }

    #[test]
    fn predict_rejects_feature_mismatch_with_row_index() {
        let format = ldafp_fixedpoint::QFormat::new(2, 5).unwrap();
        let clf = FixedPointClassifier::from_float(&[0.5, -0.25], 0.0, format).unwrap();
        let artifact_json = ModelArtifact::binary(clf).to_json_string();
        let err = predict(&artifact_json, "0.4,0.1,0.9\n").unwrap_err();
        assert!(err.0.contains("serving error"), "{}", err.0);
        assert!(err.0.contains('2') && err.0.contains('3'), "{}", err.0);
    }

    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    #[test]
    fn serve_evented_start_binds_and_shuts_down() {
        let format = ldafp_fixedpoint::QFormat::new(2, 5).unwrap();
        let clf = FixedPointClassifier::from_float(&[0.5, -0.25], 0.0, format).unwrap();
        let artifact_json = ModelArtifact::binary(clf).to_json_string();
        let mut handle =
            serve_evented_start(&parsed(&[]), &artifact_json, "127.0.0.1:0").unwrap();
        assert_ne!(handle.addr().port(), 0);
        handle.shutdown();
    }

    #[test]
    fn export_rtl_produces_verilog() {
        let (artifact_json, _, _) =
            train(&parsed(&["--bits", "6", "--quick"]), &easy_csv()).unwrap();
        let v = export_rtl(&parsed(&["--module", "demo_clf", "--testbench"]), &artifact_json)
            .unwrap();
        assert!(v.contains("module demo_clf ("), "{v}");
        assert!(v.contains("module demo_clf_tb;"), "{v}");
    }

    #[test]
    fn eval_rejects_feature_mismatch() {
        let (artifact_json, _, _) =
            train(&parsed(&["--bits", "6", "--quick"]), &easy_csv()).unwrap();
        let err = eval_cmd(&artifact_json, "0.1,0.2,0.3,A\n0.2,0.1,0.0,B\n").unwrap_err();
        assert!(err.0.contains("features"), "{}", err.0);
    }

    #[test]
    fn train_validates_bits() {
        let err = train(&parsed(&["--bits", "40"]), &easy_csv()).unwrap_err();
        assert!(err.0.contains("--bits"), "{}", err.0);
    }

    #[test]
    fn wordlength_finds_minimal_bits() {
        let out = wordlength(
            &parsed(&["--target", "0.05", "--min-bits", "3", "--max-bits", "8", "--quick"]),
            &easy_csv(),
        )
        .unwrap();
        assert!(out.contains("minimal word length"), "{out}");
        assert!(out.contains("relative power"), "{out}");
    }

    #[test]
    fn wordlength_reports_unreachable() {
        // Target of exactly 0 on overlapping data within a tiny bit range.
        let mut noisy = String::new();
        for i in 0..30 {
            let v = (i % 7) as f64 * 0.05 - 0.15;
            noisy.push_str(&format!("{v},{},A\n", -v * 0.3));
            noisy.push_str(&format!("{},{},B\n", v * 0.9, v * 0.31));
        }
        let out = wordlength(
            &parsed(&["--target", "0.0", "--min-bits", "3", "--max-bits", "4", "--quick"]),
            &noisy,
        );
        if let Ok(text) = out {
            assert!(
                text.contains("no word length") || text.contains("minimal word length"),
                "{text}"
            );
        }
    }

    #[test]
    fn demo_runs() {
        let out = demo(&parsed(&["--bits", "5"])).unwrap();
        assert!(out.contains("LDA-FP test error"), "{out}");
    }

    #[test]
    fn explore_sweeps_csv_data_and_reports_a_frontier() {
        let (report, code) = explore(
            &parsed(&["--min-bits", "3", "--max-bits", "5", "--quick", "--threads", "1"]),
            Some(&easy_csv()),
            None,
        )
        .unwrap();
        assert!(report.contains("Pareto frontier"), "{report}");
        assert!(report.contains("Q"), "{report}");
        assert!(code == 0 || code == 2, "unexpected exit code {code}");
    }

    #[test]
    fn explore_defaults_to_demo2d_and_writes_json_and_cache() {
        let dir = std::env::temp_dir().join(format!("ldafp-cli-explore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("cache");
        let json_path = dir.join("report.json");
        let args = [
            "--min-bits",
            "3",
            "--max-bits",
            "4",
            "--quick",
            "--threads",
            "1",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--json",
            json_path.to_str().unwrap(),
        ];
        let (report, _) = explore(&parsed(&args), None, None).unwrap();
        assert!(report.contains("design-space exploration"), "{report}");
        assert!(cache.is_dir(), "cache directory must be created");
        let json_text = std::fs::read_to_string(&json_path).unwrap();
        let parsed_json = ldafp_serve::json::parse(&json_text).unwrap();
        assert_eq!(
            parsed_json.get("report").and_then(|v| v.as_str()),
            Some("ldafp-explore")
        );

        // Second run over the same grid hits the cache for every point.
        let (report2, _) = explore(&parsed(&args), None, None).unwrap();
        let points = parsed_json
            .get("points")
            .and_then(ldafp_serve::json::Value::as_i64)
            .unwrap();
        assert!(
            report2.contains(&format!("{points} cache hit(s)")),
            "{report2}"
        );
    }

    #[test]
    fn explore_rejects_bad_rounding_and_holdout() {
        let err =
            explore(&parsed(&["--rounding", "sideways"]), Some(&easy_csv()), None).unwrap_err();
        assert!(err.0.contains("--rounding"), "{}", err.0);
        let err = explore(&parsed(&["--holdout", "2.0"]), Some(&easy_csv()), None).unwrap_err();
        assert!(err.0.contains("holdout"), "{}", err.0);
        let err = explore(
            &parsed(&["--resume", "/tmp/x", "--no-cache"]),
            Some(&easy_csv()),
            None,
        )
        .unwrap_err();
        assert!(err.0.contains("--resume"), "{}", err.0);
    }

    #[test]
    fn explore_resume_writes_state_and_deterministic_pareto() {
        let dir = std::env::temp_dir().join(format!(
            "ldafp-cli-explore-resume-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let state = dir.join("state");
        let pareto_a = dir.join("a.md");
        let pareto_b = dir.join("b.md");
        std::fs::create_dir_all(&dir).unwrap();
        let base = [
            "--min-bits",
            "3",
            "--max-bits",
            "4",
            "--quick",
            "--threads",
            "1",
            "--resume",
            state.to_str().unwrap(),
        ];
        let mut args_a: Vec<&str> = base.to_vec();
        args_a.extend(["--pareto", pareto_a.to_str().unwrap()]);
        let (_, code) = explore(&parsed(&args_a), Some(&easy_csv()), None).unwrap();
        assert!(code == 0 || code == 2, "unexpected exit code {code}");
        assert!(
            state.join(ldafp_explore::JOURNAL_FILE).is_file(),
            "resume dir must hold the sweep journal"
        );
        assert!(
            state.join("cache").is_dir(),
            "--resume defaults the cache under the state dir"
        );

        // A second identical run is a resume: all cache hits, and the
        // deterministic Pareto report must come out byte-identical.
        let mut args_b: Vec<&str> = base.to_vec();
        args_b.extend(["--pareto", pareto_b.to_str().unwrap()]);
        let (report2, _) = explore(&parsed(&args_b), Some(&easy_csv()), None).unwrap();
        assert!(report2.contains("cache hit(s)"), "{report2}");
        assert_eq!(
            std::fs::read(&pareto_a).unwrap(),
            std::fs::read(&pareto_b).unwrap(),
            "pareto report must be byte-identical across resume"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_family_naive_bayes_roundtrips_through_predict() {
        let csv_text = easy_csv();
        let (json, outcome, degradation) = train(
            &parsed(&["--bits", "8", "--k", "3", "--family", "naive-bayes"]),
            &csv_text,
        )
        .unwrap();
        assert!(outcome.is_none(), "family training runs no LDA search");
        assert!(degradation.is_none());

        let artifact = ModelArtifact::from_json_str(&json).unwrap();
        assert_eq!(artifact.model.family(), ModelFamily::NaiveBayes);
        assert_eq!(artifact.training.algorithm.as_deref(), Some("naive-bayes"));
        assert_eq!(artifact.training.outcome.as_deref(), Some("certified"));

        // The saved artifact predicts through the stock predict pipeline.
        let out = predict(&json, &csv_text).unwrap();
        assert!(out.starts_with("row,class,label,score\n"), "{out}");
        assert!(out.contains("rows: 40"), "{out}");
    }

    #[test]
    fn train_family_os_elm_emits_artifact_with_certification_label() {
        let (json, outcome, _) =
            train(&parsed(&["--bits", "10", "--family", "os-elm"]), &easy_csv()).unwrap();
        assert!(outcome.is_none());
        let artifact = ModelArtifact::from_json_str(&json).unwrap();
        assert_eq!(artifact.model.family(), ModelFamily::OsElm);
        let label = artifact.training.outcome.as_deref().unwrap();
        assert!(
            label == "certified" || label == "uncertified",
            "unexpected certification label {label:?}"
        );
        let out = predict(&json, &easy_csv()).unwrap();
        assert!(out.contains("rows: 40"), "{out}");
    }

    #[test]
    fn train_rejects_unknown_family() {
        let err = train(&parsed(&["--bits", "6", "--family", "perceptron"]), &easy_csv())
            .unwrap_err();
        assert!(err.0.contains("--family"), "{}", err.0);
        assert!(err.0.contains("perceptron"), "{}", err.0);
    }

    #[test]
    fn explore_sweeps_family_grid_without_bnb_nodes() {
        let (report, code) = explore(
            &parsed(&[
                "--min-bits",
                "6",
                "--max-bits",
                "8",
                "--family",
                "naive-bayes",
                "--threads",
                "1",
            ]),
            Some(&easy_csv()),
            None,
        )
        .unwrap();
        assert!(report.contains("naive-bayes"), "{report}");
        assert!(report.contains("0 B&B node(s)"), "{report}");
        assert_eq!(code, 0, "wrap-free naive Bayes points certify\n{report}");

        let err = explore(&parsed(&["--family", "svm"]), Some(&easy_csv()), None).unwrap_err();
        assert!(err.0.contains("--family"), "{}", err.0);
    }

    #[test]
    fn explore_interrupt_flag_yields_resumable_exit_code() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        // A pre-tripped flag: workers stop before claiming any point.
        let flag = Arc::new(AtomicBool::new(true));
        let (msg, code) = explore(
            &parsed(&["--min-bits", "3", "--max-bits", "4", "--quick", "--threads", "1"]),
            Some(&easy_csv()),
            Some(flag),
        )
        .unwrap();
        assert_eq!(code, 4, "interrupted sweeps exit with the resumable code");
        assert!(msg.contains("interrupted"), "{msg}");
    }

    #[test]
    fn trace_check_validates_checkpoint_and_resume_families() {
        let good = "{\"event\":\"checkpoint.write\",\"t_us\":1}\n\
                    {\"event\":\"checkpoint.write\",\"t_us\":2}\n\
                    {\"event\":\"resume.loaded\",\"t_us\":3}\n\
                    {\"event\":\"resume.skipped\",\"t_us\":4}\n\
                    {\"event\":\"bnb.expand\",\"t_us\":5}\n";
        let report = trace_check(good).unwrap();
        assert!(report.contains("trace ok: 5 event line(s)"), "{report}");
        assert!(report.contains("checkpoint.write"), "{report}");
        assert!(report.contains("checkpoint.*"), "{report}");
        assert!(report.contains("resume.*"), "{report}");
        assert!(report.contains("(family total)"), "{report}");

        let err = trace_check("{\"event\":\"resume.sideways\",\"t_us\":1}\n").unwrap_err();
        assert!(err.0.contains("unknown checkpoint/resume/net event"), "{}", err.0);
        assert!(err.0.contains("resume.sideways"), "{}", err.0);
        let err = trace_check("{\"event\":\"checkpoint.wrote\",\"t_us\":1}\n").unwrap_err();
        assert!(err.0.contains("checkpoint.wrote"), "{}", err.0);
    }
}
