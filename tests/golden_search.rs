//! Golden search: two seeded trainings whose branch-and-bound outcome is
//! pinned. A change to the solver that moves its iterates by rounding
//! (Newton-step counts and bound bits may drift) must leave the search
//! itself where it was: the same node, prune and incumbent counts, the
//! same certificate, and the same weights and Fisher cost to the bit.
//! The pinned values are those of the search over weight boxes alone, each
//! relaxed exactly in the Charnes–Cooper variables (DESIGN.md §5).

use lda_fp::core::{LdaFpConfig, LdaFpModel, LdaFpTrainer};
use lda_fp::datasets::synthetic::{generate, SyntheticConfig};
use lda_fp::datasets::{bci, BinaryDataset};
use lda_fp::fixedpoint::QFormat;
use ldafp_stats::{fnv1a64, Rng};

/// What the search settled on: `(nodes_assessed, pruned_by_bound,
/// pruned_infeasible, incumbent_updates, certified)` and an FNV-1a/64
/// digest of the bits of the weights and then the Fisher cost.
fn search_digest(model: &LdaFpModel) -> ((usize, usize, usize, usize, bool), u64) {
    let s = model.stats();
    let counts = (
        s.nodes_assessed,
        s.pruned_by_bound,
        s.pruned_infeasible,
        s.incumbent_updates,
        model.certified(),
    );
    let mut bytes: Vec<u8> = model
        .weights()
        .iter()
        .flat_map(|w| w.to_bits().to_le_bytes())
        .collect();
    bytes.extend(model.fisher_cost().to_bits().to_le_bytes());
    (counts, fnv1a64(&bytes, 0xcbf2_9ce4_8422_2325))
}

fn train(config: LdaFpConfig, data: &BinaryDataset, format: QFormat) -> LdaFpModel {
    LdaFpTrainer::new(config)
        .train(data, format)
        .expect("training succeeds")
}

#[test]
fn synth3_shaped_search_is_pinned() {
    let raw = generate(
        &SyntheticConfig {
            n_per_class: 300,
            ..SyntheticConfig::default()
        },
        &mut Rng::new(2014),
    );
    let (data, _) = raw.scaled_to(0.9);
    let model = train(
        LdaFpConfig::default(),
        &data,
        QFormat::new(2, 4).expect("Q2.4 is valid"),
    );
    assert_eq!(
        search_digest(&model),
        ((313, 68, 0, 0, false), 0x928b_e61b_c0bb_ea74)
    );
}

#[test]
fn bci_shaped_search_is_pinned() {
    let data = bci::generate(&bci::BciConfig::default(), &mut Rng::new(2014));
    let mut config = LdaFpConfig::fast();
    config.bnb.max_nodes = 10;
    let model = train(config, &data, QFormat::new(1, 5).expect("Q1.5 is valid"));
    assert_eq!(
        search_digest(&model),
        ((11, 3, 0, 1, false), 0x0927_67b4_682e_f677)
    );
}
