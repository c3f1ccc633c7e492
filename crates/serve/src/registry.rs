//! A named collection of live inference engines with atomic hot reload.
//!
//! The server (`ldafp-net`) serves many models behind one socket and
//! swaps any of them while requests are in flight. The registry is the
//! shared piece: a `RwLock`-guarded map from model name to
//! `Arc<InferenceEngine>`.
//!
//! Concurrency contract:
//!
//! * **Lookups are wait-free after the lock**: [`ModelRegistry::get`]
//!   clones the `Arc` and releases the lock before any inference runs, so
//!   a reload never blocks behind a long-running batch.
//! * **Reloads are atomic**: a request routed before the swap finishes on
//!   the old engine; a request routed after sees the new one. There is no
//!   intermediate state — the artifact is parsed and validated *outside*
//!   the lock, and the swap itself is one map insert.
//! * **Reloads are all-or-nothing**: a malformed replacement artifact
//!   leaves the currently-served model untouched.

use crate::artifact::ModelArtifact;
use crate::engine::InferenceEngine;
use crate::error::{Result, ServeError};
use ldafp_models::ModelFamily;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// Name under which a registry's default model is registered when the
/// caller does not pick one.
pub const DEFAULT_MODEL_NAME: &str = "default";

/// What a [`ModelRegistry::reload`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadOutcome {
    /// `true` when an existing model of that name was replaced, `false`
    /// when the name is new.
    pub replaced: bool,
    /// Family of the newly-installed model.
    pub family: ModelFamily,
    /// Generation counter after the swap (total successful installs since
    /// the registry was created, including the initial ones).
    pub generation: u64,
}

struct Inner {
    default_name: String,
    engines: BTreeMap<String, Arc<InferenceEngine>>,
    generation: u64,
}

/// Named, hot-reloadable engines sharing one serving process.
pub struct ModelRegistry {
    inner: RwLock<Inner>,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("ModelRegistry")
            .field("default", &inner.default_name)
            .field("models", &inner.engines.keys().collect::<Vec<_>>())
            .field("generation", &inner.generation)
            .finish()
    }
}

impl ModelRegistry {
    /// A registry serving `engine` under `name`, which also becomes the
    /// default route for requests that do not name a model.
    pub fn new(name: impl Into<String>, engine: InferenceEngine) -> Self {
        let name = name.into();
        let mut engines = BTreeMap::new();
        engines.insert(name.clone(), Arc::new(engine));
        ModelRegistry {
            inner: RwLock::new(Inner {
                default_name: name,
                engines,
                generation: 1,
            }),
        }
    }

    /// A registry with the engine under [`DEFAULT_MODEL_NAME`].
    pub fn with_default(engine: InferenceEngine) -> Self {
        Self::new(DEFAULT_MODEL_NAME, engine)
    }

    /// Resolves a route: `None` (or the empty string) means the default
    /// model; otherwise an exact name lookup.
    pub fn get(&self, name: Option<&str>) -> Option<Arc<InferenceEngine>> {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let key = match name {
            None | Some("") => inner.default_name.as_str(),
            Some(n) => n,
        };
        inner.engines.get(key).map(Arc::clone)
    }

    /// The name requests route to when they do not pick a model.
    pub fn default_name(&self) -> String {
        self.inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .default_name
            .clone()
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .engines
            .keys()
            .cloned()
            .collect()
    }

    /// Monotone install/reload count — bumps on every [`Self::install`]
    /// and successful [`Self::reload`], so clients can tell whether the
    /// model set changed between two observations.
    pub fn generation(&self) -> u64 {
        self.inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .generation
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .engines
            .len()
    }

    /// Whether the registry is empty (never true: construction installs a
    /// model and removal is not offered).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Installs (or replaces) `engine` under `name`. The swap is atomic:
    /// concurrent `get`s see either the old or the new engine, never a
    /// mixture.
    pub fn install(&self, name: impl Into<String>, engine: InferenceEngine) -> ReloadOutcome {
        let family = engine.artifact().model.family();
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let replaced = inner
            .engines
            .insert(name.into(), Arc::new(engine))
            .is_some();
        inner.generation += 1;
        ReloadOutcome {
            replaced,
            family,
            generation: inner.generation,
        }
    }

    /// Parses, validates and installs an artifact document under `name`.
    /// Validation runs before the lock is taken, so a bad artifact can
    /// never displace the model currently serving traffic.
    ///
    /// # Errors
    ///
    /// Artifact parse/validation failures; the registry is unchanged.
    pub fn reload(&self, name: &str, artifact_json: &str) -> Result<ReloadOutcome> {
        let artifact = ModelArtifact::from_json_str(artifact_json)?;
        let engine = InferenceEngine::new(artifact)?;
        Ok(self.install(name, engine))
    }

    /// Looks up a route or reports the names that would have matched.
    ///
    /// # Errors
    ///
    /// [`ServeError::Request`] naming the unknown model and the registered
    /// alternatives — the typed reply a client can act on.
    pub fn route(&self, name: Option<&str>) -> Result<Arc<InferenceEngine>> {
        self.get(name).ok_or_else(|| ServeError::Request {
            context: "model".to_string(),
            message: format!(
                "unknown model '{}' (registered: {})",
                name.unwrap_or(DEFAULT_MODEL_NAME),
                self.names().join(", ")
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldafp_core::FixedPointClassifier;
    use ldafp_fixedpoint::QFormat;

    fn engine(weight: f64) -> InferenceEngine {
        let format = QFormat::new(2, 6).unwrap();
        let clf = FixedPointClassifier::from_float(&[weight, -0.5], 0.0, format).unwrap();
        InferenceEngine::new(ModelArtifact::binary(clf)).unwrap()
    }

    #[test]
    fn default_route_resolves_unnamed_and_empty_requests() {
        let reg = ModelRegistry::new("lda-main", engine(0.75));
        assert!(reg.get(None).is_some());
        assert!(reg.get(Some("")).is_some());
        assert!(reg.get(Some("lda-main")).is_some());
        assert!(reg.get(Some("nope")).is_none());
        assert_eq!(reg.default_name(), "lda-main");
    }

    #[test]
    fn install_replaces_atomically_and_bumps_generation() {
        let reg = ModelRegistry::with_default(engine(0.75));
        let before = reg.get(None).unwrap();
        let outcome = reg.install(DEFAULT_MODEL_NAME, engine(-0.75));
        assert!(outcome.replaced);
        assert_eq!(outcome.generation, 2);
        let after = reg.get(None).unwrap();
        // The old Arc still serves any in-flight batch; new lookups see
        // the replacement.
        assert!(!Arc::ptr_eq(&before, &after));
        let row = vec![1.0, 0.0];
        let (old_p, _) = before.predict_row(&row).unwrap();
        let (new_p, _) = after.predict_row(&row).unwrap();
        assert_ne!(old_p.class_index, new_p.class_index);
    }

    #[test]
    fn reload_from_bad_json_leaves_registry_untouched() {
        let reg = ModelRegistry::with_default(engine(0.5));
        let before = reg.get(None).unwrap();
        assert!(reg.reload(DEFAULT_MODEL_NAME, "{ not an artifact").is_err());
        assert!(Arc::ptr_eq(&before, &reg.get(None).unwrap()));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn reload_round_trips_an_artifact_document() {
        let reg = ModelRegistry::with_default(engine(0.5));
        let doc = engine(1.25).artifact().to_json_string();
        let outcome = reg.reload("second", &doc).unwrap();
        assert!(!outcome.replaced);
        assert_eq!(outcome.family, ldafp_models::ModelFamily::Lda);
        assert_eq!(
            reg.names(),
            vec!["default".to_string(), "second".to_string()]
        );
        assert!(reg.route(Some("second")).is_ok());
        let err = reg.route(Some("third")).unwrap_err();
        assert!(err.to_string().contains("unknown model 'third'"), "{err}");
    }

    #[test]
    fn concurrent_reads_and_reloads_never_deadlock() {
        let reg = Arc::new(ModelRegistry::with_default(engine(0.5)));
        let mut handles = Vec::new();
        for t in 0..4 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    if t == 0 {
                        reg.install(DEFAULT_MODEL_NAME, engine(0.5 + (i % 3) as f64 * 0.25));
                    } else {
                        let e = reg.get(None).expect("default always present");
                        let _ = e.predict_row(&[0.5, 0.5]).unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.len(), 1);
    }
}
