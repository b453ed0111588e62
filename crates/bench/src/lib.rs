//! The zkPHIRE reproduction harness.
//!
//! One generator per table and figure of the paper's evaluation (§VI);
//! each returns the formatted rows/series the paper reports, regenerated
//! from this repository's models and baselines. Run them via
//!
//! ```text
//! cargo run --release -p zkphire-bench --bin repro -- <experiment|all>
//! ```
//!
//! Each generator prints the paper's number next to the regenerated one.

pub mod experiments;

/// Geometric mean of a non-empty slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Renders an aligned text table.
pub fn fmt_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let header_line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:<w$}"))
        .collect();
    out.push_str(&header_line.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().max(1) - 1)));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_matches_hand_calc() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn table_alignment() {
        let t = fmt_table(
            "T",
            &["a", "bbbb"],
            &[vec!["xx".into(), "y".into()], vec!["1".into(), "22".into()]],
        );
        assert!(t.contains("a   bbbb"));
        assert_eq!(t.lines().count(), 5);
    }
}
