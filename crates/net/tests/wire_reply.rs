//! The JSON predict reply names classes from the artifact's label table,
//! once per reply, and renders byte-identically.

use ldafp_core::multiclass::OneVsRestClassifier;
use ldafp_core::FixedPointClassifier;
use ldafp_fixedpoint::QFormat;
use ldafp_net::jsonwire::predict_response;
use ldafp_obs::json::Value;
use ldafp_serve::{InferenceEngine, ModelArtifact, Prediction};

#[test]
fn prediction_is_copy() {
    fn copy<T: Copy>() {}
    copy::<Prediction>();
}

/// A fixed 3-class batch pins the reply's JSON text byte for byte, and
/// every row's `label` is the table entry for its `class`.
#[test]
fn predict_response_names_each_class_from_the_label_table() {
    let format = QFormat::new(2, 7).unwrap();
    let heads = vec![
        FixedPointClassifier::from_float(&[1.0, -0.5, 0.25], 0.0, format).unwrap(),
        FixedPointClassifier::from_float(&[-0.75, 1.25, 0.5], 0.125, format).unwrap(),
        FixedPointClassifier::from_float(&[0.25, 0.25, -1.5], -0.25, format).unwrap(),
    ];
    let clf = OneVsRestClassifier::from_parts(heads, vec![0.8, 0.6, 0.9]).unwrap();
    let mut artifact = ModelArtifact::one_vs_rest(clf);
    let labels = ["ant", "bee", "wasp"].map(String::from).to_vec();
    artifact.class_labels = labels.clone();
    let engine = InferenceEngine::new(artifact).unwrap();
    let rows = vec![
        vec![1.0, 0.0, 0.0],
        vec![0.0, 1.0, 0.0],
        vec![0.0, 0.0, -1.0],
        vec![0.5, 0.25, 0.0],
    ];
    let out = engine.predict_batch(&rows).unwrap();
    let v = predict_response(&out, &labels);
    assert_eq!(
        v.to_compact_string(),
        concat!(
            r#"{"accumulator_wraps":0,"ok":true,"predictions":["#,
            r#"{"class":0,"label":"ant","score":102.4},"#,
            r#"{"class":1,"label":"bee","score":86.39999999999999},"#,
            r#"{"class":2,"label":"wasp","score":201.6},"#,
            r#"{"class":2,"label":"wasp","score":50.4}],"#,
            r#""rows":4,"saturated_inputs":0}"#,
        )
    );
    for p in v.get("predictions").and_then(Value::as_array).unwrap() {
        let class = p.get("class").and_then(Value::as_i64).unwrap() as usize;
        assert_eq!(
            p.get("label").and_then(Value::as_str),
            Some(labels[class].as_str())
        );
    }
}
