//! Minimal CSV support for labeled binary-classification data.
//!
//! Format: one sample per line, comma-separated feature values, the **last
//! column** is the class label (`A`/`B`, `a`/`b`, `0`/`1`, or `-1`/`1` —
//! `A`, `1` map to class A; `B`, `0`, `-1` map to class B). Lines starting
//! with `#` and blank lines are ignored; an optional non-numeric header row
//! is skipped automatically.

use crate::{CliError, Result};
use ldafp_datasets::BinaryDataset;
use ldafp_linalg::Matrix;

/// Parses CSV text into a dataset.
///
/// # Errors
///
/// Returns a [`CliError`] describing the offending line for ragged rows,
/// unparsable numbers, unknown labels, or datasets where a class is empty.
pub fn parse(text: &str) -> Result<BinaryDataset> {
    let mut rows_a: Vec<Vec<f64>> = Vec::new();
    let mut rows_b: Vec<Vec<f64>> = Vec::new();
    let mut width: Option<usize> = None;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() < 2 {
            return Err(CliError(format!(
                "line {}: need at least one feature and a label",
                lineno + 1
            )));
        }
        let (label_field, feature_fields) = fields.split_last().expect("len >= 2");

        // Header detection: first non-comment row whose first field is not
        // a number is treated as a header and skipped.
        if width.is_none() && feature_fields[0].parse::<f64>().is_err() {
            continue;
        }

        let mut features = Vec::with_capacity(feature_fields.len());
        for f in feature_fields {
            let v = f
                .parse::<f64>()
                .map_err(|_| CliError(format!("line {}: '{}' is not a number", lineno + 1, f)))?;
            // `"NaN".parse::<f64>()` succeeds, so finiteness needs its own
            // check — non-finite features would poison the scatter moments.
            if !v.is_finite() {
                return Err(CliError(format!(
                    "line {}: feature value '{}' is not finite — NaN and infinities are not valid training data",
                    lineno + 1,
                    f
                )));
            }
            features.push(v);
        }
        match width {
            None => width = Some(features.len()),
            Some(w) if w != features.len() => {
                return Err(CliError(format!(
                    "line {}: {} features, expected {}",
                    lineno + 1,
                    features.len(),
                    w
                )))
            }
            _ => {}
        }
        match *label_field {
            "A" | "a" | "1" | "+1" => rows_a.push(features),
            "B" | "b" | "0" | "-1" => rows_b.push(features),
            other => {
                return Err(CliError(format!(
                    "line {}: unknown label '{}' (use A/B, 0/1 or -1/1)",
                    lineno + 1,
                    other
                )))
            }
        }
    }

    let w = width.ok_or_else(|| CliError("no data rows found".to_string()))?;
    let to_matrix = |rows: Vec<Vec<f64>>| -> Matrix {
        let n = rows.len();
        let data: Vec<f64> = rows.into_iter().flatten().collect();
        Matrix::from_vec(n, w, data).expect("validated row widths")
    };
    if rows_a.is_empty() || rows_b.is_empty() {
        return Err(CliError(
            "both classes need at least one sample (labels A/1 and B/0)".to_string(),
        ));
    }
    BinaryDataset::validated(to_matrix(rows_a), to_matrix(rows_b))
        .map_err(|e| CliError(format!("invalid dataset: {e}")))
}

/// Parses CSV text into unlabeled feature rows — the `predict` input
/// format. Rows are all-numeric; a trailing non-numeric field (a label
/// column from a labeled file) is tolerated and ignored, so the same file
/// works for `eval` and `predict`. Comments, blank lines and a header row
/// are skipped as in [`parse`].
///
/// # Errors
///
/// Returns a [`CliError`] naming the offending line for ragged rows,
/// non-finite values, or numbers that fail to parse mid-row.
pub fn parse_features(text: &str) -> Result<Vec<Vec<f64>>> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut width: Option<usize> = None;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields: Vec<&str> = line.split(',').map(str::trim).collect();
        // Header detection, as in `parse`.
        if width.is_none() && fields[0].parse::<f64>().is_err() {
            continue;
        }
        // Tolerate a trailing label column from a labeled file.
        if let Some(last) = fields.last() {
            if fields.len() > 1 && last.parse::<f64>().is_err() {
                fields.pop();
            }
        }
        let mut features = Vec::with_capacity(fields.len());
        for f in fields {
            let v = f
                .parse::<f64>()
                .map_err(|_| CliError(format!("line {}: '{}' is not a number", lineno + 1, f)))?;
            if !v.is_finite() {
                return Err(CliError(format!(
                    "line {}: feature value '{}' is not finite",
                    lineno + 1,
                    f
                )));
            }
            features.push(v);
        }
        match width {
            None => width = Some(features.len()),
            Some(w) if w != features.len() => {
                return Err(CliError(format!(
                    "line {}: {} features, expected {}",
                    lineno + 1,
                    features.len(),
                    w
                )))
            }
            _ => {}
        }
        rows.push(features);
    }
    if rows.is_empty() {
        return Err(CliError("no data rows found".to_string()));
    }
    Ok(rows)
}

/// Serializes a dataset back to CSV (class A first, labels `A`/`B`).
pub fn write(data: &BinaryDataset) -> String {
    let mut out = String::new();
    for (x, label) in data.iter_labeled() {
        for v in x {
            out.push_str(&format!("{v},"));
        }
        out.push(match label {
            ldafp_datasets::ClassLabel::A => 'A',
            ldafp_datasets::ClassLabel::B => 'B',
        });
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_file() {
        let text = "0.1, 0.2, A\n0.3, 0.4, B\n0.5, 0.6, A\n";
        let d = parse(text).unwrap();
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.class_sizes(), (2, 1));
        assert_eq!(d.class_a.row(1), &[0.5, 0.6]);
    }

    #[test]
    fn accepts_numeric_and_signed_labels() {
        let d = parse("1.0,1\n2.0,0\n3.0,+1\n4.0,-1\n").unwrap();
        assert_eq!(d.class_sizes(), (2, 2));
    }

    #[test]
    fn skips_comments_blank_lines_and_header() {
        let text = "# a comment\n\nx1,x2,label\n0.1,0.2,A\n0.3,0.4,B\n";
        let d = parse(text).unwrap();
        assert_eq!(d.class_sizes(), (1, 1));
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = parse("0.1,0.2,A\n0.3,B\n").unwrap_err();
        assert!(err.0.contains("line 2"), "{}", err.0);
    }

    #[test]
    fn rejects_bad_numbers_and_labels() {
        // A non-numeric value after the (optional) header row is an error.
        let err = parse("0.1,0.2,A\nabc,0.2,B\n").unwrap_err();
        assert!(err.0.contains("not a number"), "{}", err.0);
        let err = parse("0.1,0.2,C\n").unwrap_err();
        assert!(err.0.contains("unknown label"), "{}", err.0);
    }

    #[test]
    fn rejects_non_finite_values_with_line_numbers() {
        for bad in ["NaN", "nan", "inf", "-inf", "Infinity"] {
            let text = format!("0.1,0.2,A\n{bad},0.4,B\n");
            let err = parse(&text).unwrap_err();
            assert!(err.0.contains("line 2"), "{bad}: {}", err.0);
            assert!(err.0.contains("not finite"), "{bad}: {}", err.0);
        }
    }

    #[test]
    fn rejects_single_class() {
        let err = parse("0.1,0.2,A\n0.3,0.4,A\n").unwrap_err();
        assert!(err.0.contains("both classes"), "{}", err.0);
    }

    #[test]
    fn rejects_empty_input() {
        assert!(parse("").is_err());
        assert!(parse("# only comments\n").is_err());
    }

    #[test]
    fn parse_features_handles_unlabeled_and_labeled_rows() {
        // Pure feature rows.
        let rows = parse_features("0.1,0.2\n0.3,0.4\n").unwrap();
        assert_eq!(rows, vec![vec![0.1, 0.2], vec![0.3, 0.4]]);
        // A labeled eval file works too: the label column is dropped.
        let rows = parse_features("# c\nx1,x2,label\n0.1,0.2,A\n0.3,0.4,B\n").unwrap();
        assert_eq!(rows, vec![vec![0.1, 0.2], vec![0.3, 0.4]]);
        // Errors carry line numbers.
        let err = parse_features("0.1,0.2\n0.3\n").unwrap_err();
        assert!(err.0.contains("line 2"), "{}", err.0);
        let err = parse_features("0.1,NaN\n").unwrap_err();
        assert!(err.0.contains("not finite"), "{}", err.0);
        assert!(parse_features("").is_err());
    }

    #[test]
    fn roundtrip() {
        let text = "0.5,-1.25,A\n0.25,0,B\n";
        let d = parse(text).unwrap();
        let out = write(&d);
        let d2 = parse(&out).unwrap();
        assert_eq!(d, d2);
    }
}
