//! A warm `predict_row` makes no heap allocation: a counting global
//! allocator tallies the allocations each thread makes, and a binary, a
//! one-vs-rest and a naive-Bayes engine each classify rows after one
//! warm-up call.

use ldafp_core::multiclass::OneVsRestClassifier;
use ldafp_core::FixedPointClassifier;
use ldafp_fixedpoint::{QFormat, RoundingMode};
use ldafp_serve::{InferenceEngine, ModelArtifact};
use ldafp_stats::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting each thread's allocations and
/// reallocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter left.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a `const`-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn random_rows(rng: &mut Rng, n: usize, features: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..features).map(|_| rng.range_f64(-3.0..3.0)).collect())
        .collect()
}

fn linear_head(rng: &mut Rng, format: QFormat, features: usize) -> FixedPointClassifier {
    let raws: Vec<i64> = (0..features)
        .map(|_| rng.range_i64(format.min_raw()..=format.max_raw()))
        .collect();
    FixedPointClassifier::from_raw_parts(format, &raws, 0, RoundingMode::NearestEven).unwrap()
}

fn naive_bayes(rng: &mut Rng, features: usize) -> ModelArtifact {
    let class = |rng: &mut Rng, centre: f64| {
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|_| {
                (0..features)
                    .map(|_| centre + rng.range_f64(-0.3..0.3))
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        ldafp_linalg::Matrix::from_rows(&refs).unwrap()
    };
    let data = ldafp_datasets::BinaryDataset::new(class(rng, 0.5), class(rng, -0.5)).unwrap();
    let format = QFormat::new(3, 6).unwrap();
    let model = ldafp_models::NaiveBayesTrainer::new(format, RoundingMode::NearestEven, 0.95)
        .train(&data)
        .unwrap();
    ModelArtifact::naive_bayes(model)
}

#[test]
fn warm_predict_row_makes_no_allocation() {
    let mut rng = Rng::new(38);
    let format = QFormat::new(1, 5).unwrap();
    for features in [3usize, 42] {
        let heads: Vec<FixedPointClassifier> = (0..3)
            .map(|_| linear_head(&mut rng, format, features))
            .collect();
        let ovr = OneVsRestClassifier::from_parts(heads, vec![1.0, 0.5, 2.0]).unwrap();
        let engines = [
            (
                "binary",
                ModelArtifact::binary(linear_head(&mut rng, format, features)),
            ),
            ("one-vs-rest", ModelArtifact::one_vs_rest(ovr)),
            ("naive-bayes", naive_bayes(&mut rng, features)),
        ];
        for (kind, artifact) in engines {
            let engine = InferenceEngine::new(artifact).unwrap();
            let rows = random_rows(&mut rng, 64, features);
            engine.predict_row(&rows[0]).unwrap();
            let before = allocations();
            for row in &rows {
                std::hint::black_box(engine.predict_row(row).unwrap());
            }
            let made = allocations() - before;
            assert_eq!(
                made, 0,
                "{kind} engine, {features} features: {made} allocations"
            );
        }
    }
}
