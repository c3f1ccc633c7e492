//! Minimal aligned-column text tables for the experiment binaries.

/// Renders rows as an aligned text table with a header and separator,
/// matching the look of the paper's tables in a terminal.
///
/// # Example
///
/// ```
/// let s = ldafp_bench::table::render(
///     &["word", "error"],
///     &[vec!["4".into(), "50.00%".into()]],
/// );
/// assert!(s.contains("word"));
/// assert!(s.contains("50.00%"));
/// ```
pub fn render(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:>w$} |", w = w));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&"-".repeat(w + 2));
        sep.push('|');
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Formats a fraction as a percentage with two decimals (`0.5 → "50.00%"`),
/// the style of the paper's tables.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Formats a search's final relative gap: `0` when closed, else two
/// significant digits (`0.00131 → "1.3e-3"`); `-` when there was no search.
pub fn gap(x: f64) -> String {
    if x.is_nan() {
        "-".to_string()
    } else if x == 0.0 {
        "0".to_string()
    } else {
        format!("{x:.1e}")
    }
}

/// Formats seconds with adaptive precision.
pub fn secs(s: f64) -> String {
    if s < 0.01 {
        format!("{:.4}", s)
    } else if s < 10.0 {
        format!("{:.2}", s)
    } else {
        format!("{:.1}", s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let t = render(
            &["a", "long_header"],
            &[
                vec!["1".to_string(), "x".to_string()],
                vec!["222".to_string(), "y".to_string()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines the same width.
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    fn pct_and_secs_formatting() {
        assert_eq!(pct(0.5), "50.00%");
        assert_eq!(pct(0.2714), "27.14%");
        assert_eq!(secs(0.001), "0.0010");
        assert_eq!(secs(1.234), "1.23");
        assert_eq!(secs(1913.5), "1913.5");
    }

    #[test]
    fn handles_short_rows() {
        let t = render(&["a", "b"], &[vec!["only".to_string()]]);
        assert!(t.contains("only"));
    }
}
