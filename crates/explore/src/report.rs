//! Report emitters: a Markdown sweep report and a machine-readable JSON
//! document, both shaped after the paper's Figure 6/7 accuracy-vs-power
//! presentation.

use crate::engine::ExploreSummary;
use ldafp_obs::json::Value;
use std::fmt::Write as _;

/// Formats power in engineering units (the raw model output is watts).
fn si_power(watts: f64) -> String {
    if watts >= 1.0 {
        format!("{watts:.3} W")
    } else if watts >= 1e-3 {
        format!("{:.3} mW", watts * 1e3)
    } else if watts >= 1e-6 {
        format!("{:.3} uW", watts * 1e6)
    } else {
        format!("{:.3} nW", watts * 1e9)
    }
}

/// Renders the full Markdown report: sweep table, Pareto frontier, and
/// run statistics.
#[must_use]
pub fn markdown_report(summary: &ExploreSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# LDA-FP design-space exploration\n");
    let _ = writeln!(
        out,
        "{} design point(s), {} trained, {} failed; {} cache hit(s), \
         {} worker thread(s), {:.1} ms total, {} B&B node(s) assessed.\n",
        summary.outcomes.len(),
        summary.trained(),
        summary.failed(),
        summary.cache_hits,
        summary.threads,
        summary.total_elapsed_ms,
        summary.total_nodes,
    );

    let _ = writeln!(out, "## Sweep (all points)\n");
    let _ = writeln!(
        out,
        "| point | bits | val err | train err | power | energy/class | outcome | nodes | ms | flags |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---|---:|---:|---|");
    for o in &summary.outcomes {
        let flags = if o.from_cache { "cache" } else { "-" };
        match &o.metrics {
            Some(m) => {
                let _ = writeln!(
                    out,
                    "| {} | {} | {:.4} | {:.4} | {} | {:.3e} J | {} | {} | {:.1} | {} |",
                    o.point.label(),
                    o.point.word_length(),
                    m.validation_error,
                    m.training_error,
                    si_power(m.power),
                    m.energy,
                    m.outcome,
                    o.nodes_assessed,
                    o.elapsed_ms,
                    flags,
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "| {} | {} | - | - | - | - | failed: {} | {} | {:.1} | {} |",
                    o.point.label(),
                    o.point.word_length(),
                    o.failure.as_deref().unwrap_or("unknown"),
                    o.nodes_assessed,
                    o.elapsed_ms,
                    flags,
                );
            }
        }
    }

    let _ = writeln!(out, "\n## Pareto frontier (error vs power)\n");
    if summary.pareto.is_empty() {
        let _ = writeln!(out, "No point trained successfully; the frontier is empty.");
    } else {
        let _ = writeln!(out, "| point | bits | val err | power | outcome |");
        let _ = writeln!(out, "|---|---:|---:|---:|---|");
        for &i in &summary.pareto {
            let o = &summary.outcomes[i];
            let m = o.metrics.as_ref().expect("frontier points are trained");
            let _ = writeln!(
                out,
                "| {} | {} | {:.4} | {} | {} |",
                o.point.label(),
                o.point.word_length(),
                m.validation_error,
                si_power(m.power),
                m.outcome,
            );
        }
        let _ = writeln!(
            out,
            "\nReading the frontier left to right trades power for accuracy \
             (paper Fig. 6/7): each row is the cheapest datapath achieving \
             its error level."
        );
    }
    out
}

/// A **deterministic** Markdown Pareto report: only run-independent fields
/// — no timings, node counts, cache flags or thread counts — so two
/// sweeps over the same problem render byte-identical reports, whether one
/// of them was crashed and resumed or not. This is the artifact the
/// kill–resume chaos gate byte-compares.
#[must_use]
pub fn pareto_report(summary: &ExploreSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# LDA-FP Pareto frontier\n");
    let _ = writeln!(out, "## Frontier (error vs power)\n");
    if summary.pareto.is_empty() {
        let _ = writeln!(out, "No point trained successfully; the frontier is empty.");
    } else {
        let _ = writeln!(
            out,
            "| point | bits | val err | train err | fisher | power | energy/class | outcome |"
        );
        let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|---|");
        for &i in &summary.pareto {
            let o = &summary.outcomes[i];
            let m = o.metrics.as_ref().expect("frontier points are trained");
            let _ = writeln!(
                out,
                "| {} | {} | {:.6} | {:.6} | {:.6e} | {} | {:.3e} J | {} |",
                o.point.label(),
                o.point.word_length(),
                m.validation_error,
                m.training_error,
                m.fisher_cost,
                si_power(m.power),
                m.energy,
                m.outcome,
            );
        }
    }

    let _ = writeln!(out, "\n## All points\n");
    let _ = writeln!(out, "| point | bits | val err | outcome |");
    let _ = writeln!(out, "|---|---:|---:|---|");
    for o in &summary.outcomes {
        match &o.metrics {
            Some(m) => {
                let _ = writeln!(
                    out,
                    "| {} | {} | {:.6} | {} |",
                    o.point.label(),
                    o.point.word_length(),
                    m.validation_error,
                    m.outcome,
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "| {} | {} | - | failed: {} |",
                    o.point.label(),
                    o.point.word_length(),
                    o.failure.as_deref().unwrap_or("unknown"),
                );
            }
        }
    }
    out
}

/// The machine-readable JSON document mirroring [`markdown_report`].
#[must_use]
pub fn json_report(summary: &ExploreSummary) -> Value {
    Value::object([
        ("report", Value::from("ldafp-explore")),
        ("points", Value::from(summary.outcomes.len())),
        ("trained", Value::from(summary.trained())),
        ("failed", Value::from(summary.failed())),
        ("cache_hits", Value::from(summary.cache_hits)),
        ("threads", Value::from(summary.threads)),
        ("total_nodes", Value::from(summary.total_nodes)),
        ("total_elapsed_ms", Value::from(summary.total_elapsed_ms)),
        (
            "outcomes",
            Value::Array(summary.outcomes.iter().map(|o| o.to_value()).collect()),
        ),
        (
            "pareto",
            Value::Array(summary.pareto.iter().map(|&i| Value::from(i)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DesignOutcome, TrainedPointMetrics};
    use crate::grid::DesignPoint;
    use crate::pareto::pareto_frontier;
    use ldafp_fixedpoint::RoundingMode;

    fn summary() -> ExploreSummary {
        let outcomes = vec![
            DesignOutcome {
                point: DesignPoint {
                    family: ldafp_models::ModelFamily::Lda,
                    k: 1,
                    f: 2,
                    rho: 0.99,
                    rounding: RoundingMode::NearestEven,
                },
                metrics: None,
                failure: Some("grid erased separation".to_string()),
                nodes_assessed: 0,
                elapsed_ms: 0.3,
                from_cache: false,
            },
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
                    weights: vec![0.5, -0.25],
                    validation_error: 0.05,
                    training_error: 0.04,
                    fisher_cost: -2.0,
                    outcome: "certified".to_string(),
                    power: 3.2e-5,
                    energy: 1.1e-11,
                    area: 980.0,
                }),
                failure: None,
                nodes_assessed: 37,
                elapsed_ms: 12.5,
                from_cache: false,
            },
        ];
        let pareto = pareto_frontier(&outcomes);
        ExploreSummary {
            total_nodes: outcomes.iter().map(|o| o.nodes_assessed).sum(),
            cache_hits: 0,
            threads: 2,
            total_elapsed_ms: 12.8,
            pareto,
            outcomes,
        }
    }

    #[test]
    fn markdown_mentions_every_point_and_the_frontier() {
        let text = markdown_report(&summary());
        assert!(text.contains("Q2.4"));
        assert!(text.contains("failed: grid erased separation"));
        assert!(text.contains("Pareto frontier"));
        assert!(text.contains("certified"));
    }

    #[test]
    fn json_report_parses_back_and_counts_match() {
        let value = json_report(&summary());
        let text = value.to_pretty_string();
        let parsed = ldafp_obs::json::parse(&text).unwrap();
        assert_eq!(parsed.get("points").and_then(Value::as_i64), Some(2));
        assert_eq!(parsed.get("trained").and_then(Value::as_i64), Some(1));
        assert_eq!(
            parsed
                .get("outcomes")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(
            parsed
                .get("pareto")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(1)
        );
    }

    #[test]
    fn si_power_picks_sensible_units() {
        assert_eq!(si_power(2.0), "2.000 W");
        assert_eq!(si_power(3.2e-3), "3.200 mW");
        assert_eq!(si_power(4.5e-6), "4.500 uW");
        assert_eq!(si_power(9.0e-10), "0.900 nW");
    }
}
