//! The persisted model artifact: a versioned, self-describing, checksummed
//! JSON envelope around the exact integers a trained classifier deploys.
//!
//! Design rules:
//!
//! * **Weights are stored as raw two's-complement integers**, never as
//!   floats: a save → load round trip must reproduce the hardware word
//!   bit-for-bit, so predictions after reload are bit-identical to the
//!   in-memory model (property-tested in `tests/proptests.rs`).
//! * **Self-describing**: the envelope carries the format version, the
//!   `QK.F` format, the rounding mode, class labels, input-scaling
//!   metadata and the training outcome, so a serving process needs nothing
//!   but the file.
//! * **Forward-compatibility stop**: an artifact written by a newer tool
//!   (greater `format_version`) is rejected with
//!   [`ServeError::UnsupportedVersion`] instead of being misread.
//! * **Checksummed**: the payload is protected by FNV-1a/64 over its
//!   canonical (compact, sorted-key) serialization; corruption that still
//!   parses as JSON is caught at load time.
//!
//! ```text
//! {
//!   "format": "ldafp-model",
//!   "format_version": 1,
//!   "created_by": "ldafp-serve 0.1.0",
//!   "checksum": "fnv1a64:89abcdef01234567",
//!   "payload": {
//!     "family": "lda" | "naive-bayes" | "os-elm",   // absent ⇒ "lda"
//!     "kind": "binary" | "one-vs-rest" | "naive-bayes" | "os-elm",
//!     "qformat": {"k": 2, "f": 6},
//!     "rounding": "nearest-even",
//!     "class_labels": ["A", "B"],
//!     "input_scale": [1.0],                 // len 1: uniform; len M: per-feature
//!     "training": {"algorithm": "lda-fp", "outcome": "certified", ...},
//!     "binary": {"weights": [-3, 17, ...], "threshold": 5},
//!     // or, for one-vs-rest:
//!     "heads": [{"weights": [...], "threshold": ...}, ...],
//!     "margin_scales": [0.71, ...],
//!     // or, for naive-bayes:
//!     "naive_bayes": {"index_bits": 6, "priors": [...], "tables": [[[...]]]},
//!     // or, for os-elm:
//!     "os_elm": {"seed": "24235…", "lr_shift": 3, "weight_bound": 255,
//!                "input_weights": [[...]], "output_weights": [[...]]}
//!   }
//! }
//! ```
//!
//! The `family` field is the forward-compatibility gate for model
//! families: artifacts written before it existed are read as `"lda"`, an
//! unknown family is rejected positionally (`payload.family`), and a
//! family/kind mismatch is rejected rather than guessed around.

use crate::error::{Result, ServeError};
use ldafp_core::multiclass::OneVsRestClassifier;
use ldafp_core::{FixedPointClassifier, TrainingOutcome};
use ldafp_fixedpoint::{QFormat, RoundingMode};
use ldafp_models::{FixedPointModel, ModelError, ModelFamily, NaiveBayesModel, OsElmModel};
use ldafp_obs::json::{self, Value};
use ldafp_stats::{fnv1a64, FNV1A64_OFFSET};
use std::path::Path;

/// Newest artifact format version this runtime reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// The `format` magic string identifying an artifact document.
pub const FORMAT_MAGIC: &str = "ldafp-model";

/// The deployable model inside an artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum ServedModel {
    /// A single binary classifier (the paper's eq. 12 datapath).
    Binary(FixedPointClassifier),
    /// A one-vs-rest multiclass ensemble sharing one datapath.
    OneVsRest(OneVsRestClassifier),
    /// A fixed-point Gaussian naive Bayes table classifier.
    NaiveBayes(NaiveBayesModel),
    /// An online OS-ELM-style sequential learner.
    OsElm(OsElmModel),
}

impl ServedModel {
    /// Number of input features.
    pub fn num_features(&self) -> usize {
        match self {
            ServedModel::Binary(clf) => clf.num_features(),
            ServedModel::OneVsRest(clf) => clf.num_features(),
            ServedModel::NaiveBayes(m) => m.num_features(),
            ServedModel::OsElm(m) => m.num_features(),
        }
    }

    /// The shared `QK.F` format of every register in the datapath.
    pub fn format(&self) -> QFormat {
        match self {
            ServedModel::Binary(clf) => clf.format(),
            ServedModel::OneVsRest(clf) => clf.heads()[0].format(),
            ServedModel::NaiveBayes(m) => m.format(),
            ServedModel::OsElm(m) => m.format(),
        }
    }

    /// Number of output classes (2 for binary).
    pub fn num_classes(&self) -> usize {
        match self {
            ServedModel::Binary(_) => 2,
            ServedModel::OneVsRest(clf) => clf.num_classes(),
            ServedModel::NaiveBayes(m) => m.num_classes(),
            ServedModel::OsElm(m) => m.num_classes(),
        }
    }

    /// The model family this model belongs to.
    pub fn family(&self) -> ModelFamily {
        match self {
            ServedModel::Binary(_) | ServedModel::OneVsRest(_) => ModelFamily::Lda,
            ServedModel::NaiveBayes(_) => ModelFamily::NaiveBayes,
            ServedModel::OsElm(_) => ModelFamily::OsElm,
        }
    }

    /// The stable `kind` string stored in artifacts and reported by the
    /// server's `health` route.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ServedModel::Binary(_) => "binary",
            ServedModel::OneVsRest(_) => "one-vs-rest",
            ServedModel::NaiveBayes(_) => "naive-bayes",
            ServedModel::OsElm(_) => "os-elm",
        }
    }
}

/// Provenance recorded at save time: how the model was trained and how it
/// performed. Advisory metadata — never consulted on the inference path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainingInfo {
    /// Which trainer produced the model (`"lda-fp"`, `"lda-rounded"`, …).
    pub algorithm: Option<String>,
    /// Stable outcome label (`"certified"`, `"degraded"`, …).
    pub outcome: Option<String>,
    /// Human-readable outcome summary (degradation statistics).
    pub outcome_summary: Option<String>,
    /// Training-set error at save time.
    pub training_error: Option<f64>,
    /// Discrete Fisher cost at the trained weights, when optimized.
    pub fisher_cost: Option<f64>,
}

impl TrainingInfo {
    /// Populates the outcome fields from a [`TrainingOutcome`].
    pub fn with_outcome(mut self, outcome: &TrainingOutcome) -> Self {
        self.outcome = Some(outcome.label().to_string());
        self.outcome_summary = Some(outcome.summary());
        self
    }

    fn is_empty(&self) -> bool {
        self.algorithm.is_none()
            && self.outcome.is_none()
            && self.outcome_summary.is_none()
            && self.training_error.is_none()
            && self.fisher_cost.is_none()
    }
}

/// A complete model artifact: the model plus everything a serving process
/// needs to run it.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    /// The deployable model.
    pub model: ServedModel,
    /// Human-readable class labels, in output order (binary: `[A, B]`).
    pub class_labels: Vec<String>,
    /// Input scaling applied before quantization: one shared factor
    /// (`len == 1`) or one factor per feature (`len == num_features`).
    /// Records the preprocessing the training data went through so serving
    /// inputs land on the same grid.
    pub input_scale: Vec<f64>,
    /// Training provenance.
    pub training: TrainingInfo,
}

impl ModelArtifact {
    /// Wraps a binary classifier with default `A`/`B` labels and unit
    /// input scaling.
    pub fn binary(classifier: FixedPointClassifier) -> Self {
        ModelArtifact {
            model: ServedModel::Binary(classifier),
            class_labels: vec!["A".to_string(), "B".to_string()],
            input_scale: vec![1.0],
            training: TrainingInfo::default(),
        }
    }

    /// Wraps a one-vs-rest ensemble with class-index labels and unit input
    /// scaling.
    pub fn one_vs_rest(classifier: OneVsRestClassifier) -> Self {
        let class_labels = (0..classifier.num_classes())
            .map(|c| c.to_string())
            .collect();
        ModelArtifact {
            model: ServedModel::OneVsRest(classifier),
            class_labels,
            input_scale: vec![1.0],
            training: TrainingInfo::default(),
        }
    }

    /// Wraps a naive Bayes table classifier with default labels (binary:
    /// `A`/`B`, otherwise class indices) and unit input scaling.
    pub fn naive_bayes(model: NaiveBayesModel) -> Self {
        let class_labels = default_labels(model.num_classes());
        ModelArtifact {
            model: ServedModel::NaiveBayes(model),
            class_labels,
            input_scale: vec![1.0],
            training: TrainingInfo::default(),
        }
    }

    /// Wraps an OS-ELM learner with default labels (binary: `A`/`B`,
    /// otherwise class indices) and unit input scaling.
    pub fn os_elm(model: OsElmModel) -> Self {
        let class_labels = default_labels(model.num_classes());
        ModelArtifact {
            model: ServedModel::OsElm(model),
            class_labels,
            input_scale: vec![1.0],
            training: TrainingInfo::default(),
        }
    }

    /// Number of input features.
    pub fn num_features(&self) -> usize {
        self.model.num_features()
    }

    /// Checks internal consistency (label counts, scale arity, finite
    /// positive scales).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Schema`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        let schema = |context: &str, message: String| ServeError::Schema {
            context: context.to_string(),
            message,
        };
        if self.class_labels.len() != self.model.num_classes() {
            return Err(schema(
                "class_labels",
                format!(
                    "{} labels for {} classes",
                    self.class_labels.len(),
                    self.model.num_classes()
                ),
            ));
        }
        let m = self.num_features();
        if self.input_scale.len() != 1 && self.input_scale.len() != m {
            return Err(schema(
                "input_scale",
                format!(
                    "{} factors; expected 1 (uniform) or {m} (per-feature)",
                    self.input_scale.len()
                ),
            ));
        }
        if let Some(s) = self
            .input_scale
            .iter()
            .find(|s| !s.is_finite() || **s <= 0.0)
        {
            return Err(schema(
                "input_scale",
                format!("scale factor {s} must be finite and positive"),
            ));
        }
        Ok(())
    }

    /// Serializes to the artifact document (pretty JSON with checksum).
    pub fn to_json_string(&self) -> String {
        let payload = self.payload_json();
        let checksum = checksum_of(&payload);
        Value::object([
            ("format", Value::from(FORMAT_MAGIC)),
            ("format_version", Value::from(FORMAT_VERSION)),
            (
                "created_by",
                Value::from(format!("ldafp-serve {}", env!("CARGO_PKG_VERSION"))),
            ),
            ("checksum", Value::from(checksum)),
            ("payload", payload),
        ])
        .to_pretty_string()
    }

    /// Parses and verifies an artifact document.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Json`] with line/column/offset for malformed or
    ///   truncated documents;
    /// * [`ServeError::WrongMagic`] / [`ServeError::UnsupportedVersion`]
    ///   for foreign or too-new documents;
    /// * [`ServeError::ChecksumMismatch`] for corrupted payloads;
    /// * [`ServeError::Schema`] for structurally invalid payloads;
    /// * [`ServeError::Model`] when the core layer rejects the weights.
    pub fn from_json_str(text: &str) -> Result<Self> {
        let doc = json::parse(text)?;
        let magic = doc.get("format").and_then(Value::as_str);
        if magic != Some(FORMAT_MAGIC) {
            return Err(ServeError::WrongMagic {
                found: match doc.get("format") {
                    Some(v) => format!("'{}'", v.to_compact_string()),
                    None => "absent".to_string(),
                },
            });
        }
        let version = require_u32(&doc, "format_version")?;
        if version > FORMAT_VERSION {
            return Err(ServeError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let payload = doc.get("payload").ok_or_else(|| ServeError::Schema {
            context: "payload".to_string(),
            message: "missing".to_string(),
        })?;
        let stored = require_str(&doc, "checksum")?;
        let computed = checksum_of(payload);
        if stored != computed {
            return Err(ServeError::ChecksumMismatch {
                stored: stored.to_string(),
                computed,
            });
        }
        let artifact = Self::payload_from_json(payload)?;
        artifact.validate()?;
        Ok(artifact)
    }

    /// Writes the artifact to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on write failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json_string()).map_err(|source| ServeError::Io {
            target: path.display().to_string(),
            source,
        })
    }

    /// Reads and verifies an artifact from `path`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on read failure, plus every failure mode of
    /// [`Self::from_json_str`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|source| ServeError::Io {
            target: path.display().to_string(),
            source,
        })?;
        Self::from_json_str(&text)
    }

    fn payload_json(&self) -> Value {
        let format = self.model.format();
        let mut fields: Vec<(&'static str, Value)> = vec![
            (
                "qformat",
                Value::object([
                    ("k", Value::from(format.k())),
                    ("f", Value::from(format.f())),
                ]),
            ),
            (
                "class_labels",
                Value::Array(
                    self.class_labels
                        .iter()
                        .map(|l| Value::from(l.as_str()))
                        .collect(),
                ),
            ),
            ("input_scale", Value::from(self.input_scale.clone())),
        ];
        if !self.training.is_empty() {
            let t = &self.training;
            let opt_str =
                |v: &Option<String>| v.as_ref().map_or(Value::Null, |s| Value::from(s.as_str()));
            let opt_num = |v: &Option<f64>| v.map_or(Value::Null, Value::from);
            fields.push((
                "training",
                Value::object([
                    ("algorithm", opt_str(&t.algorithm)),
                    ("outcome", opt_str(&t.outcome)),
                    ("outcome_summary", opt_str(&t.outcome_summary)),
                    ("training_error", opt_num(&t.training_error)),
                    ("fisher_cost", opt_num(&t.fisher_cost)),
                ]),
            ));
        }
        fields.push(("family", Value::from(self.model.family().name())));
        fields.push(("kind", Value::from(self.model.kind_name())));
        match &self.model {
            ServedModel::Binary(clf) => {
                fields.push(("rounding", Value::from(clf.rounding().name())));
                fields.push(("binary", head_json(clf)));
            }
            ServedModel::OneVsRest(clf) => {
                fields.push(("rounding", Value::from(clf.heads()[0].rounding().name())));
                fields.push((
                    "heads",
                    Value::Array(clf.heads().iter().map(head_json).collect()),
                ));
                fields.push(("margin_scales", Value::from(clf.margin_scales().to_vec())));
            }
            ServedModel::NaiveBayes(m) => {
                fields.push(("rounding", Value::from(m.rounding().name())));
                fields.push((
                    "naive_bayes",
                    Value::object([
                        ("index_bits", Value::from(m.index_bits())),
                        ("priors", raw_array(m.priors_raw())),
                        (
                            "tables",
                            Value::Array(
                                m.tables_raw()
                                    .iter()
                                    .map(|class| {
                                        Value::Array(
                                            class
                                                .iter()
                                                .map(|feature| raw_array(feature))
                                                .collect(),
                                        )
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                ));
            }
            ServedModel::OsElm(m) => {
                fields.push(("rounding", Value::from(m.rounding().name())));
                fields.push((
                    "os_elm",
                    Value::object([
                        // u64 seeds exceed the f64-exact integer range, so
                        // the seed travels as a decimal string.
                        ("seed", Value::from(m.seed().to_string())),
                        ("lr_shift", Value::from(m.lr_shift())),
                        ("weight_bound", Value::from(m.weight_bound_raw())),
                        ("input_weights", raw_matrix(&m.input_weights_raw())),
                        ("output_weights", raw_matrix(&m.output_weights_raw())),
                    ]),
                ));
            }
        }
        Value::object(fields)
    }

    fn payload_from_json(payload: &Value) -> Result<Self> {
        let k = require_u32_at(payload, "qformat", "k")?;
        let f = require_u32_at(payload, "qformat", "f")?;
        let format = QFormat::new(k, f).map_err(|e| ServeError::Schema {
            context: "payload.qformat".to_string(),
            message: e.to_string(),
        })?;
        let rounding_text = require_str(payload, "rounding")?;
        let rounding =
            RoundingMode::from_name(rounding_text).ok_or_else(|| ServeError::Schema {
                context: "payload.rounding".to_string(),
                message: format!("unknown rounding mode '{rounding_text}'"),
            })?;
        let class_labels: Vec<String> = require_array(payload, "class_labels")?
            .iter()
            .enumerate()
            .map(|(i, v)| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ServeError::Schema {
                        context: format!("payload.class_labels[{i}]"),
                        message: "expected a string".to_string(),
                    })
            })
            .collect::<Result<_>>()?;
        let input_scale = f64_array(payload, "input_scale")?;
        let training = match payload.get("training") {
            None => TrainingInfo::default(),
            Some(t) => TrainingInfo {
                algorithm: opt_str(t, "algorithm"),
                outcome: opt_str(t, "outcome"),
                outcome_summary: opt_str(t, "outcome_summary"),
                training_error: opt_f64(t, "training_error"),
                fisher_cost: opt_f64(t, "fisher_cost"),
            },
        };

        let kind = require_str(payload, "kind")?;
        // Family forward-compat gate: absent means a pre-family (v1 LDA)
        // artifact; anything unknown stops here with a positional
        // diagnostic rather than a misread model.
        let family = match payload.get("family") {
            None => ModelFamily::Lda,
            Some(v) => {
                let name = v.as_str().ok_or_else(|| ServeError::Schema {
                    context: "payload.family".to_string(),
                    message: "expected a string".to_string(),
                })?;
                ModelFamily::from_name(name).ok_or_else(|| ServeError::Schema {
                    context: "payload.family".to_string(),
                    message: format!(
                        "unknown model family '{name}' (known: lda, naive-bayes, os-elm)"
                    ),
                })?
            }
        };
        let kind_family = match kind {
            "binary" | "one-vs-rest" => ModelFamily::Lda,
            "naive-bayes" => ModelFamily::NaiveBayes,
            "os-elm" => ModelFamily::OsElm,
            other => {
                return Err(ServeError::Schema {
                    context: "payload.kind".to_string(),
                    message: format!("unknown model kind '{other}'"),
                })
            }
        };
        if family != kind_family {
            return Err(ServeError::Schema {
                context: "payload.family".to_string(),
                message: format!("family '{family}' does not match kind '{kind}'"),
            });
        }
        let model = match kind {
            "binary" => {
                let head = payload.get("binary").ok_or_else(|| ServeError::Schema {
                    context: "payload.binary".to_string(),
                    message: "missing for kind 'binary'".to_string(),
                })?;
                ServedModel::Binary(head_from_json(head, "payload.binary", format, rounding)?)
            }
            "one-vs-rest" => {
                let heads = require_array(payload, "heads")?
                    .iter()
                    .enumerate()
                    .map(|(i, h)| {
                        head_from_json(h, &format!("payload.heads[{i}]"), format, rounding)
                    })
                    .collect::<Result<Vec<_>>>()?;
                let margin_scales = f64_array(payload, "margin_scales")?;
                ServedModel::OneVsRest(OneVsRestClassifier::from_parts(heads, margin_scales)?)
            }
            "naive-bayes" => {
                let body = payload
                    .get("naive_bayes")
                    .ok_or_else(|| ServeError::Schema {
                        context: "payload.naive_bayes".to_string(),
                        message: "missing for kind 'naive-bayes'".to_string(),
                    })?;
                let ctx = "payload.naive_bayes";
                let index_bits = require_u32_in(body, ctx, "index_bits")?;
                let priors = i64_array_in(body, ctx, "priors")?;
                let tables = require_key(body, ctx, "tables")?
                    .as_array()
                    .ok_or_else(|| schema_err(&format!("{ctx}.tables"), "expected an array"))?
                    .iter()
                    .enumerate()
                    .map(|(c, class)| {
                        class
                            .as_array()
                            .ok_or_else(|| {
                                schema_err(&format!("{ctx}.tables[{c}]"), "expected an array")
                            })?
                            .iter()
                            .enumerate()
                            .map(|(j, feature)| {
                                i64_elems(feature, &format!("{ctx}.tables[{c}][{j}]"))
                            })
                            .collect::<Result<Vec<Vec<i64>>>>()
                    })
                    .collect::<Result<Vec<_>>>()?;
                let model =
                    NaiveBayesModel::from_raw_parts(format, rounding, index_bits, tables, priors)
                        .map_err(|e| model_schema_err(ctx, e))?;
                ServedModel::NaiveBayes(model)
            }
            "os-elm" => {
                let body = payload.get("os_elm").ok_or_else(|| ServeError::Schema {
                    context: "payload.os_elm".to_string(),
                    message: "missing for kind 'os-elm'".to_string(),
                })?;
                let ctx = "payload.os_elm";
                let seed_text = require_key(body, ctx, "seed")?
                    .as_str()
                    .ok_or_else(|| schema_err(&format!("{ctx}.seed"), "expected a string"))?;
                let seed: u64 = seed_text.parse().map_err(|_| {
                    schema_err(&format!("{ctx}.seed"), "expected a decimal u64 string")
                })?;
                let lr_shift = require_u32_in(body, ctx, "lr_shift")?;
                let weight_bound = require_key(body, ctx, "weight_bound")?
                    .as_i64()
                    .ok_or_else(|| {
                        schema_err(&format!("{ctx}.weight_bound"), "expected a raw integer")
                    })?;
                let input_weights = i64_matrix_in(body, ctx, "input_weights")?;
                let output_weights = i64_matrix_in(body, ctx, "output_weights")?;
                let model = OsElmModel::from_raw_parts(
                    format,
                    rounding,
                    seed,
                    lr_shift,
                    weight_bound,
                    input_weights,
                    output_weights,
                )
                .map_err(|e| model_schema_err(ctx, e))?;
                ServedModel::OsElm(model)
            }
            _ => unreachable!("kind validated above"),
        };
        Ok(ModelArtifact {
            model,
            class_labels,
            input_scale,
            training,
        })
    }
}

fn head_json(clf: &FixedPointClassifier) -> Value {
    Value::object([
        (
            "weights",
            Value::Array(clf.weights().iter().map(|w| Value::from(w.raw())).collect()),
        ),
        ("threshold", Value::from(clf.threshold().raw())),
    ])
}

fn head_from_json(
    head: &Value,
    context: &str,
    format: QFormat,
    rounding: RoundingMode,
) -> Result<FixedPointClassifier> {
    let weights = head
        .get("weights")
        .and_then(Value::as_array)
        .ok_or_else(|| ServeError::Schema {
            context: format!("{context}.weights"),
            message: "expected an array of raw integers".to_string(),
        })?
        .iter()
        .enumerate()
        .map(|(i, v)| {
            v.as_i64().ok_or_else(|| ServeError::Schema {
                context: format!("{context}.weights[{i}]"),
                message: "expected a raw integer".to_string(),
            })
        })
        .collect::<Result<Vec<i64>>>()?;
    let threshold = head
        .get("threshold")
        .and_then(Value::as_i64)
        .ok_or_else(|| ServeError::Schema {
            context: format!("{context}.threshold"),
            message: "expected a raw integer".to_string(),
        })?;
    Ok(FixedPointClassifier::from_raw_parts(
        format, &weights, threshold, rounding,
    )?)
}

/// Default class labels: `A`/`B` for binary models, class indices
/// otherwise — the same convention the LDA constructors use.
fn default_labels(n: usize) -> Vec<String> {
    if n == 2 {
        vec!["A".to_string(), "B".to_string()]
    } else {
        (0..n).map(|c| c.to_string()).collect()
    }
}

fn raw_array(raws: &[i64]) -> Value {
    Value::Array(raws.iter().map(|r| Value::from(*r)).collect())
}

fn raw_matrix(rows: &[Vec<i64>]) -> Value {
    Value::Array(rows.iter().map(|row| raw_array(row)).collect())
}

fn require_key<'a>(v: &'a Value, ctx: &str, key: &str) -> Result<&'a Value> {
    v.get(key)
        .ok_or_else(|| schema_err(&format!("{ctx}.{key}"), "missing"))
}

fn require_u32_in(v: &Value, ctx: &str, key: &str) -> Result<u32> {
    require_key(v, ctx, key)?
        .as_i64()
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| schema_err(&format!("{ctx}.{key}"), "expected a non-negative integer"))
}

fn i64_elems(v: &Value, ctx: &str) -> Result<Vec<i64>> {
    v.as_array()
        .ok_or_else(|| schema_err(ctx, "expected an array of raw integers"))?
        .iter()
        .enumerate()
        .map(|(i, x)| {
            x.as_i64()
                .ok_or_else(|| schema_err(&format!("{ctx}[{i}]"), "expected a raw integer"))
        })
        .collect()
}

fn i64_array_in(v: &Value, ctx: &str, key: &str) -> Result<Vec<i64>> {
    i64_elems(require_key(v, ctx, key)?, &format!("{ctx}.{key}"))
}

fn i64_matrix_in(v: &Value, ctx: &str, key: &str) -> Result<Vec<Vec<i64>>> {
    let ctx = format!("{ctx}.{key}");
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| schema_err(&ctx, "expected an array of raw-integer rows"))?
        .iter()
        .enumerate()
        .map(|(i, row)| i64_elems(row, &format!("{ctx}[{i}]")))
        .collect()
}

/// Maps a model-layer rejection of raw parts onto the artifact's
/// positional schema diagnostics (`payload.<kind>.<parameter>`).
fn model_schema_err(ctx: &str, e: ModelError) -> ServeError {
    match e {
        ModelError::InvalidParameter { context, message } => ServeError::Schema {
            context: format!("{ctx}.{context}"),
            message,
        },
        other => ServeError::Schema {
            context: ctx.to_string(),
            message: other.to_string(),
        },
    }
}

/// FNV-1a/64 checksum of a payload value's canonical serialization, in the
/// artifact's `fnv1a64:<16 hex digits>` spelling.
pub fn checksum_of(payload: &Value) -> String {
    let hash = fnv1a64(payload.to_compact_string().as_bytes(), FNV1A64_OFFSET);
    format!("fnv1a64:{hash:016x}")
}

fn schema_err(context: &str, message: &str) -> ServeError {
    ServeError::Schema {
        context: context.to_string(),
        message: message.to_string(),
    }
}

fn require_str<'a>(v: &'a Value, key: &str) -> Result<&'a str> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| schema_err(key, "expected a string"))
}

fn require_u32(v: &Value, key: &str) -> Result<u32> {
    v.get(key)
        .and_then(Value::as_i64)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| schema_err(key, "expected a non-negative integer"))
}

fn require_u32_at(v: &Value, outer: &str, key: &str) -> Result<u32> {
    v.get(outer)
        .and_then(|o| o.get(key))
        .and_then(Value::as_i64)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| {
            schema_err(
                &format!("payload.{outer}.{key}"),
                "expected a non-negative integer",
            )
        })
}

fn require_array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value]> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| schema_err(&format!("payload.{key}"), "expected an array"))
}

fn f64_array(v: &Value, key: &str) -> Result<Vec<f64>> {
    require_array(v, key)?
        .iter()
        .enumerate()
        .map(|(i, x)| {
            x.as_f64()
                .ok_or_else(|| schema_err(&format!("payload.{key}[{i}]"), "expected a number"))
        })
        .collect()
}

fn opt_str(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_string)
}

fn opt_f64(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_binary() -> ModelArtifact {
        let format = QFormat::new(2, 5).unwrap();
        let clf = FixedPointClassifier::from_float(&[0.5, -0.25, 1.0], -0.125, format).unwrap();
        let mut artifact = ModelArtifact::binary(clf);
        artifact.training = TrainingInfo {
            algorithm: Some("lda-fp".to_string()),
            training_error: Some(0.0125),
            fisher_cost: Some(3.5),
            ..TrainingInfo::default()
        }
        .with_outcome(&TrainingOutcome::Certified);
        artifact
    }

    #[test]
    fn binary_roundtrip_is_bit_identical() {
        let artifact = sample_binary();
        let text = artifact.to_json_string();
        let back = ModelArtifact::from_json_str(&text).unwrap();
        assert_eq!(back, artifact);
    }

    #[test]
    fn envelope_carries_magic_version_checksum() {
        let text = sample_binary().to_json_string();
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("format").unwrap().as_str(), Some(FORMAT_MAGIC));
        assert_eq!(
            doc.get("format_version").unwrap().as_i64(),
            Some(i64::from(FORMAT_VERSION))
        );
        assert!(doc
            .get("checksum")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("fnv1a64:"));
    }

    #[test]
    fn newer_version_rejected() {
        let text = sample_binary().to_json_string().replace(
            &format!("\"format_version\": {FORMAT_VERSION}"),
            &format!("\"format_version\": {}", FORMAT_VERSION + 7),
        );
        match ModelArtifact::from_json_str(&text) {
            Err(ServeError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, FORMAT_VERSION + 7);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        assert!(matches!(
            ModelArtifact::from_json_str("{\"format\": \"something-else\"}"),
            Err(ServeError::WrongMagic { .. })
        ));
        assert!(matches!(
            ModelArtifact::from_json_str("{}"),
            Err(ServeError::WrongMagic { .. })
        ));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        // Tamper with the payload (swap the two class labels) without
        // updating the stored checksum: still valid JSON, still a valid
        // schema, but no longer the payload that was hashed.
        let text = sample_binary().to_json_string();
        let tampered = text.replace("\"A\"", "\"X\"");
        assert_ne!(tampered, text, "layout changed? {text}");
        assert!(matches!(
            ModelArtifact::from_json_str(&tampered),
            Err(ServeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncated_file_reports_offset() {
        let text = sample_binary().to_json_string();
        let truncated = &text[..text.len() / 2];
        match ModelArtifact::from_json_str(truncated) {
            Err(ServeError::Json(e)) => {
                assert!(e.message.contains("truncated"), "{e}");
                assert!(e.offset <= truncated.len());
                assert!(e.line >= 1);
            }
            other => panic!("expected Json error, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_bad_scales_and_labels() {
        let mut artifact = sample_binary();
        artifact.input_scale = vec![1.0, 2.0]; // neither 1 nor M=3
        assert!(matches!(
            artifact.validate(),
            Err(ServeError::Schema { .. })
        ));
        let mut artifact = sample_binary();
        artifact.input_scale = vec![-1.0];
        assert!(artifact.validate().is_err());
        let mut artifact = sample_binary();
        artifact.class_labels = vec!["only-one".to_string()];
        assert!(artifact.validate().is_err());
    }

    #[test]
    fn save_load_roundtrip_on_disk() {
        let artifact = sample_binary();
        let dir = std::env::temp_dir().join(format!("ldafp-serve-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        artifact.save(&path).unwrap();
        let back = ModelArtifact::load(&path).unwrap();
        assert_eq!(back, artifact);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        assert!(matches!(
            ModelArtifact::load("/nonexistent/ldafp/model.json"),
            Err(ServeError::Io { .. })
        ));
    }

    fn toy_dataset() -> ldafp_datasets::BinaryDataset {
        use ldafp_linalg::Matrix;
        let a = Matrix::from_rows(&[&[-0.5, 0.3], &[-0.4, 0.2], &[-0.6, 0.25]]).unwrap();
        let b = Matrix::from_rows(&[&[0.5, -0.3], &[0.45, -0.2], &[0.55, -0.35]]).unwrap();
        ldafp_datasets::BinaryDataset::new(a, b).unwrap()
    }

    fn sample_naive_bayes() -> ModelArtifact {
        let format = QFormat::new(2, 6).unwrap();
        let trainer = ldafp_models::NaiveBayesTrainer::new(format, RoundingMode::NearestEven, 0.95);
        ModelArtifact::naive_bayes(trainer.train(&toy_dataset()).unwrap())
    }

    fn sample_os_elm() -> ModelArtifact {
        let format = ldafp_models::choose_format(10, 4).unwrap();
        let mut trainer = ldafp_models::OsElmTrainer::new(format, RoundingMode::Floor);
        trainer.config.hidden_units = 4;
        ModelArtifact::os_elm(trainer.train(&toy_dataset()).unwrap())
    }

    #[test]
    fn naive_bayes_roundtrip_is_bit_identical() {
        let artifact = sample_naive_bayes();
        let back = ModelArtifact::from_json_str(&artifact.to_json_string()).unwrap();
        assert_eq!(back, artifact);
        assert_eq!(back.model.family(), ModelFamily::NaiveBayes);
    }

    #[test]
    fn os_elm_roundtrip_is_bit_identical() {
        let artifact = sample_os_elm();
        let back = ModelArtifact::from_json_str(&artifact.to_json_string()).unwrap();
        assert_eq!(back, artifact);
        assert_eq!(back.model.family(), ModelFamily::OsElm);
    }

    /// Rewrites an artifact's payload through `edit`, restoring checksum
    /// consistency, so schema-gate tests exercise the gate itself rather
    /// than the checksum.
    fn with_edited_payload(artifact: &ModelArtifact, edit: impl FnOnce(&mut Value)) -> String {
        let mut payload = artifact.payload_json();
        edit(&mut payload);
        let checksum = checksum_of(&payload);
        Value::object([
            ("format", Value::from(FORMAT_MAGIC)),
            ("format_version", Value::from(FORMAT_VERSION)),
            ("checksum", Value::from(checksum)),
            ("payload", payload),
        ])
        .to_pretty_string()
    }

    #[test]
    fn unknown_family_rejected_positionally_not_a_panic() {
        // Mirrors the version-gate tests: a family from a future release
        // must stop at `payload.family` with a readable diagnostic.
        let text = with_edited_payload(&sample_naive_bayes(), |payload| {
            if let Value::Object(map) = payload {
                map.insert("family".to_string(), Value::from("quantum-forest"));
            }
        });
        match ModelArtifact::from_json_str(&text) {
            Err(ServeError::Schema { context, message }) => {
                assert_eq!(context, "payload.family");
                assert!(message.contains("quantum-forest"), "{message}");
                assert!(message.contains("known:"), "{message}");
            }
            other => panic!("expected Schema error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_rounding_rejected_positionally() {
        let text = with_edited_payload(&sample_binary(), |payload| {
            if let Value::Object(map) = payload {
                map.insert("rounding".to_string(), Value::from("stochastic"));
            }
        });
        match ModelArtifact::from_json_str(&text) {
            Err(ServeError::Schema { context, message }) => {
                assert_eq!(context, "payload.rounding");
                assert!(message.contains("stochastic"), "{message}");
            }
            other => panic!("expected Schema error, got {other:?}"),
        }
    }

    #[test]
    fn family_kind_mismatch_rejected() {
        let text = with_edited_payload(&sample_naive_bayes(), |payload| {
            if let Value::Object(map) = payload {
                map.insert("family".to_string(), Value::from("os-elm"));
            }
        });
        match ModelArtifact::from_json_str(&text) {
            Err(ServeError::Schema { context, message }) => {
                assert_eq!(context, "payload.family");
                assert!(message.contains("does not match kind"), "{message}");
            }
            other => panic!("expected Schema error, got {other:?}"),
        }
    }

    #[test]
    fn missing_family_defaults_to_lda_for_old_artifacts() {
        // Pre-family artifacts (PR 2 era) carry no `family` field; they
        // must keep loading as LDA.
        let artifact = sample_binary();
        let text = with_edited_payload(&artifact, |payload| {
            if let Value::Object(map) = payload {
                map.remove("family");
            }
        });
        let back = ModelArtifact::from_json_str(&text).unwrap();
        assert_eq!(back.model.family(), ModelFamily::Lda);
        assert_eq!(back.model, artifact.model);
    }

    #[test]
    fn corrupt_family_payload_reports_inner_position() {
        // A raw table word pushed out of range must surface the model
        // layer's positional context under payload.naive_bayes.
        let artifact = sample_naive_bayes();
        let format = artifact.model.format();
        let text = with_edited_payload(&artifact, |payload| {
            if let Value::Object(map) = payload {
                let Some(Value::Object(nb)) = map.get_mut("naive_bayes") else {
                    panic!("naive_bayes body missing");
                };
                let Some(Value::Array(tables)) = nb.get_mut("tables") else {
                    panic!("tables missing");
                };
                let Some(Value::Array(class0)) = tables.get_mut(0) else {
                    panic!("class 0 missing");
                };
                let Some(Value::Array(feature0)) = class0.get_mut(0) else {
                    panic!("feature 0 missing");
                };
                feature0[2] = Value::from(format.max_raw() + 1);
            }
        });
        match ModelArtifact::from_json_str(&text) {
            Err(ServeError::Schema { context, .. }) => {
                assert_eq!(context, "payload.naive_bayes.tables[0][0][2]");
            }
            other => panic!("expected Schema error, got {other:?}"),
        }
    }
}
