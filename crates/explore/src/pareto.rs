//! The (validation error, power) Pareto frontier.

use crate::engine::DesignOutcome;

/// Indices of the outcomes forming the Pareto frontier when *minimizing*
/// `(validation_error, power)`, sorted by error ascending (and therefore
/// power descending) — the shape of the paper's Figure 6/7 tradeoff
/// curves.
///
/// Only outcomes that produced a model participate. Among points with
/// equal (error, power) — common when several `(K, F)` splits share a word
/// length — the first in grid order is kept, so the frontier is
/// deterministic.
#[must_use]
pub fn pareto_frontier(outcomes: &[DesignOutcome]) -> Vec<usize> {
    let mut candidates: Vec<(usize, f64, f64)> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| {
            let m = o.metrics.as_ref()?;
            (m.validation_error.is_finite() && m.power.is_finite())
                .then_some((i, m.validation_error, m.power))
        })
        .collect();
    // Error ascending, then power ascending, then grid order: the scan
    // below keeps the first point at each error level and any later point
    // only if it strictly reduces power.
    candidates.sort_by(|a, b| {
        a.1.total_cmp(&b.1)
            .then(a.2.total_cmp(&b.2))
            .then(a.0.cmp(&b.0))
    });
    let mut frontier = Vec::new();
    let mut best_power = f64::INFINITY;
    for (i, _, power) in candidates {
        // Everything already scanned has error <= this point's, so it is
        // non-dominated iff it strictly improves on the best power so far.
        if power < best_power {
            frontier.push(i);
            best_power = power;
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TrainedPointMetrics;
    use crate::grid::DesignPoint;
    use ldafp_fixedpoint::RoundingMode;

    fn outcome(error: f64, power: f64) -> DesignOutcome {
        DesignOutcome {
            point: DesignPoint {
                family: ldafp_models::ModelFamily::Lda,
                k: 2,
                f: 4,
                rho: 0.99,
                rounding: RoundingMode::NearestEven,
            },
            metrics: Some(TrainedPointMetrics {
                format: "Q2.4".to_string(),
                weights: vec![],
                validation_error: error,
                training_error: error,
                fisher_cost: 0.0,
                outcome: "certified".to_string(),
                power,
                energy: 0.0,
                area: 0.0,
            }),
            failure: None,
            nodes_assessed: 0,
            elapsed_ms: 0.0,
            from_cache: false,
        }
    }

    fn failed() -> DesignOutcome {
        DesignOutcome {
            metrics: None,
            failure: Some("x".to_string()),
            ..outcome(0.0, 0.0)
        }
    }

    #[test]
    fn dominated_points_are_excluded() {
        let outcomes = vec![
            outcome(0.10, 1.0), // dominated by (0.10, 0.8)
            outcome(0.10, 0.8),
            outcome(0.05, 2.0),
            outcome(0.20, 0.5),
            outcome(0.25, 0.6), // dominated by (0.20, 0.5)
            failed(),
        ];
        let frontier = pareto_frontier(&outcomes);
        assert_eq!(frontier, vec![2, 1, 3]);
        let errs: Vec<f64> = frontier
            .iter()
            .map(|&i| outcomes[i].metrics.as_ref().unwrap().validation_error)
            .collect();
        assert!(errs.windows(2).all(|w| w[0] <= w[1]));
        let powers: Vec<f64> = frontier
            .iter()
            .map(|&i| outcomes[i].metrics.as_ref().unwrap().power)
            .collect();
        assert!(powers.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn ties_keep_the_first_in_grid_order() {
        let outcomes = vec![outcome(0.1, 1.0), outcome(0.1, 1.0)];
        assert_eq!(pareto_frontier(&outcomes), vec![0]);
    }

    #[test]
    fn empty_and_all_failed_yield_empty_frontier() {
        assert!(pareto_frontier(&[]).is_empty());
        assert!(pareto_frontier(&[failed(), failed()]).is_empty());
    }

    #[test]
    fn single_point_is_its_own_frontier() {
        assert_eq!(pareto_frontier(&[outcome(0.3, 2.0)]), vec![0]);
    }
}
