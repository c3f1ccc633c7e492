//! Property tests for the artifact layer's core guarantee: save → load →
//! predict is bit-identical to the in-memory model, for random formats,
//! random raw weights, both rounding-sensitive format corners, and both
//! model kinds.

use ldafp_core::multiclass::OneVsRestClassifier;
use ldafp_core::FixedPointClassifier;
use ldafp_fixedpoint::{QFormat, RoundingMode};
use ldafp_serve::{InferenceEngine, ModelArtifact, ServedModel};
use ldafp_stats::rng::{check, CASES};
use ldafp_stats::Rng;

fn format(rng: &mut Rng) -> QFormat {
    let k = rng.range_i64(1..=5) as u32;
    let f = rng.range_i64(1..=8) as u32;
    QFormat::new(k, f).expect("bounded params")
}

fn mode(rng: &mut Rng) -> RoundingMode {
    const MODES: [RoundingMode; 5] = [
        RoundingMode::NearestEven,
        RoundingMode::NearestAway,
        RoundingMode::Floor,
        RoundingMode::Ceil,
        RoundingMode::TowardZero,
    ];
    MODES[rng.below(MODES.len())]
}

/// `len` arbitrary `i64` seeds.
fn seeds(rng: &mut Rng, len: usize) -> Vec<i64> {
    (0..len).map(|_| rng.next_u64() as i64).collect()
}

/// One to seven rows of `features` values uniform in `[-amp, amp)`.
fn rows(rng: &mut Rng, features: usize, amp: f64) -> Vec<Vec<f64>> {
    let len = 1 + rng.below(7);
    (0..len)
        .map(|_| (0..features).map(|_| rng.range_f64(-amp..amp)).collect())
        .collect()
}

/// Random raw words folded into the format's representable range.
fn raws_in_format(format: QFormat, seeds: &[i64]) -> Vec<i64> {
    seeds.iter().map(|s| format.wrap_raw(*s as i128)).collect()
}

#[test]
fn binary_artifact_roundtrip_predicts_bit_identically() {
    let case = |rng: &mut Rng| {
        let (format, mode) = (format(rng), mode(rng));
        let len = 1 + rng.below(11);
        let weight_seeds = seeds(rng, len);
        let threshold_seed = rng.next_u64() as i64;
        (
            format,
            mode,
            weight_seeds,
            threshold_seed,
            rows(rng, 12, 6.0),
        )
    };
    check(
        CASES,
        case,
        |(format, mode, weight_seeds, threshold_seed, rows)| {
            let format = *format;
            let raws = raws_in_format(format, weight_seeds);
            let threshold = format.wrap_raw(*threshold_seed as i128);
            let clf = FixedPointClassifier::from_raw_parts(format, &raws, threshold, *mode)
                .expect("raws are in range by construction");

            let text = ModelArtifact::binary(clf.clone()).to_json_string();
            let back = ModelArtifact::from_json_str(&text).expect("own artifact reloads");

            // The reconstructed classifier is raw-for-raw identical...
            let reloaded = match &back.model {
                ServedModel::Binary(c) => c.clone(),
                other => panic!("kind changed: {other:?}"),
            };
            assert_eq!(&reloaded, &clf);

            // ...and the serving engine decides exactly like the original.
            let engine = InferenceEngine::new(back).unwrap();
            for row in rows {
                let row = &row[..clf.num_features()];
                let (p, _) = engine.predict_row(row).unwrap();
                assert_eq!(p.class_index, usize::from(!clf.classify(row)));
            }
        },
    );
}

#[test]
fn multiclass_artifact_roundtrip_predicts_bit_identically() {
    let case = |rng: &mut Rng| {
        let (format, mode) = (format(rng), mode(rng));
        let heads = 2 + rng.below(3);
        let head_seeds: Vec<Vec<i64>> = (0..heads).map(|_| seeds(rng, 4)).collect();
        let scale_seeds: Vec<f64> = (0..5).map(|_| rng.range_f64(0.05..5.0)).collect();
        (format, mode, head_seeds, scale_seeds, rows(rng, 4, 4.0))
    };
    check(
        CASES,
        case,
        |(format, mode, head_seeds, scale_seeds, rows)| {
            let format = *format;
            let heads: Vec<FixedPointClassifier> = head_seeds
                .iter()
                .map(|seeds| {
                    let raws = raws_in_format(format, &seeds[..3]);
                    let threshold = format.wrap_raw(seeds[3] as i128);
                    FixedPointClassifier::from_raw_parts(format, &raws, threshold, *mode)
                        .expect("raws in range")
                })
                .collect();
            let scales = scale_seeds[..heads.len()].to_vec();
            let clf = OneVsRestClassifier::from_parts(heads, scales).unwrap();

            let text = ModelArtifact::one_vs_rest(clf.clone()).to_json_string();
            let back = ModelArtifact::from_json_str(&text).expect("own artifact reloads");
            let reloaded = match &back.model {
                ServedModel::OneVsRest(c) => c.clone(),
                other => panic!("kind changed: {other:?}"),
            };
            assert_eq!(&reloaded, &clf);

            let engine = InferenceEngine::new(back).unwrap();
            for row in rows {
                let row = &row[..3];
                let (p, _) = engine.predict_row(row).unwrap();
                assert_eq!(p.class_index, clf.classify(row));
            }
        },
    );
}

#[test]
fn artifact_text_is_stable_under_reserialization() {
    let case = |rng: &mut Rng| {
        let format = format(rng);
        let len = 1 + rng.below(7);
        (format, seeds(rng, len))
    };
    check(CASES, case, |(format, weight_seeds)| {
        // to_json_string(from_json_str(text)) == text: the canonical form is
        // a fixed point, so checksums stay valid across rewrite cycles.
        let raws = raws_in_format(*format, weight_seeds);
        let clf =
            FixedPointClassifier::from_raw_parts(*format, &raws, 0, RoundingMode::NearestEven)
                .unwrap();
        let text = ModelArtifact::binary(clf).to_json_string();
        let text2 = ModelArtifact::from_json_str(&text)
            .unwrap()
            .to_json_string();
        assert_eq!(text, text2);
    });
}

/// `predict_row` answers every row exactly as `predict_batch` does: class,
/// score bits, and wrap and saturation counts, row by row (a one-row
/// batch) and summed over the batch.
fn assert_rows_match_batch(engine: &InferenceEngine, rows: &[Vec<f64>]) {
    let batch = engine.predict_batch(rows).unwrap();
    let mut sum = (0usize, 0u64, 0u64);
    for (r, (row, p)) in rows.iter().zip(&batch.predictions).enumerate() {
        let (single, stats) = engine.predict_row(row).unwrap();
        assert_eq!(
            (single.class_index, single.score.to_bits()),
            (p.class_index, p.score.to_bits()),
            "row {r}"
        );
        let alone = engine.predict_batch(std::slice::from_ref(row)).unwrap();
        assert_eq!(alone.predictions, [single], "row {r}");
        assert_eq!(alone.stats, stats, "row {r}");
        sum.0 += stats.rows;
        sum.1 += stats.accumulator_wraps;
        sum.2 += stats.saturated_inputs;
    }
    let totals = (
        batch.stats.rows,
        batch.stats.accumulator_wraps,
        batch.stats.saturated_inputs,
    );
    assert_eq!(sum, totals);
}

/// Rows of `features` values, some far outside the format's range so
/// that inputs saturate and sums overflow.
fn wide_rows(rng: &mut Rng, features: usize, format: QFormat) -> Vec<Vec<f64>> {
    let amp = 1.5 * format.max_value();
    let mut rows = rows(rng, features, amp);
    for row in rows.iter_mut() {
        if rng.below(3) == 0 {
            row[rng.below(features)] = 40.0 * amp;
        }
    }
    rows
}

/// The one-row path against the batch path for binary and 3-head
/// one-vs-rest linear models at 3 and 42 features — below and above the
/// one-row AVX2 entry's 8-feature threshold — over random formats,
/// `wl > 16` (where both paths run the scalar loop) included.
#[test]
fn linear_predict_row_equals_predict_batch() {
    let case = |rng: &mut Rng| {
        let format = if rng.below(8) == 0 {
            QFormat::new(9, 8).expect("wl = 17")
        } else {
            format(rng)
        };
        let mode = mode(rng);
        let features = [3usize, 42][rng.below(2)];
        let heads = [1usize, 3][rng.below(2)];
        let weight_seeds: Vec<Vec<i64>> = (0..heads).map(|_| seeds(rng, features + 1)).collect();
        let scales: Vec<f64> = (0..heads).map(|_| rng.range_f64(0.05..5.0)).collect();
        let rows = wide_rows(rng, features, format);
        (format, mode, weight_seeds, scales, rows)
    };
    check(CASES, case, |(format, mode, weight_seeds, scales, rows)| {
        let heads: Vec<FixedPointClassifier> = weight_seeds
            .iter()
            .map(|seeds| {
                let (raws, threshold) = seeds.split_at(seeds.len() - 1);
                let raws = raws_in_format(*format, raws);
                let threshold = format.wrap_raw(threshold[0] as i128);
                FixedPointClassifier::from_raw_parts(*format, &raws, threshold, *mode)
                    .expect("raws in range")
            })
            .collect();
        let artifact = if heads.len() == 1 {
            ModelArtifact::binary(heads[0].clone())
        } else {
            let clf = OneVsRestClassifier::from_parts(heads, scales.clone()).unwrap();
            ModelArtifact::one_vs_rest(clf)
        };
        assert_rows_match_batch(&InferenceEngine::new(artifact).unwrap(), rows);
    });
}

/// A two-class training set of `features` columns, the classes apart.
fn family_dataset(rng: &mut Rng, features: usize) -> ldafp_datasets::BinaryDataset {
    let class = |rng: &mut Rng, centre: f64| {
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|_| {
                (0..features)
                    .map(|_| centre + rng.range_f64(-0.3..0.3))
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        ldafp_linalg::Matrix::from_rows(&refs).unwrap()
    };
    let a = class(rng, 0.5);
    let b = class(rng, -0.5);
    ldafp_datasets::BinaryDataset::new(a, b).unwrap()
}

/// The one-row path against the batch path for both table-driven
/// families at 3 and 42 features: each model is trained once, and the
/// cases draw rows for it.
#[test]
fn family_predict_row_equals_predict_batch() {
    let mut rng = Rng::new(38);
    let mut engines = Vec::new();
    for features in [3usize, 42] {
        let data = family_dataset(&mut rng, features);
        let format = QFormat::new(3, 6).unwrap();
        let nb = ldafp_models::NaiveBayesTrainer::new(format, RoundingMode::NearestEven, 0.95)
            .train(&data)
            .unwrap();
        engines.push(InferenceEngine::new(ModelArtifact::naive_bayes(nb)).unwrap());
        let format = ldafp_models::choose_format(10, 4).unwrap();
        let mut trainer = ldafp_models::OsElmTrainer::new(format, RoundingMode::Floor);
        trainer.config.hidden_units = 4;
        let elm = trainer.train(&data).unwrap();
        engines.push(InferenceEngine::new(ModelArtifact::os_elm(elm)).unwrap());
    }
    check(
        CASES,
        |rng: &mut Rng| {
            let e = rng.below(engines.len());
            let engine = &engines[e];
            (
                e,
                wide_rows(rng, engine.num_features(), engine.artifact().model.format()),
            )
        },
        |(e, rows)| assert_rows_match_batch(&engines[*e], rows),
    );
}
