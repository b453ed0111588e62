//! `compare <a> <b>`: the before/after tool. Each argument is a run file
//! (`run --out`, one JSON record per line; several runs of a workload may be
//! appended to one file). One row per workload × end-to-end metric with both
//! sides' medians, quartiles and sample counts, the ratio with its base, and
//! a verdict; exact values compare by equality.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{parse, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median, quartiles};

/// How one metric on one workload changed from `a` to `b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Worse by no more than the bound, better by no more than the bound.
    Within,
    /// Worse by more than the bound.
    Regressed,
    /// Better by more than the bound.
    Improved,
    /// A side's own spread exceeds the bound and the sides' values
    /// interleave, so the medians cannot be told apart.
    Unresolved,
    /// An exact value that is equal on both sides.
    Equal,
    /// An exact value that differs.
    Differs,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Equal => "equal",
            Verdict::Differs => "DIFFERS",
        }
    }

    /// Whether this verdict should fail the comparison.
    pub fn is_bad(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Differs)
    }
}

/// One side's values of one metric on one workload.
#[derive(Default)]
struct Side {
    /// One value per run.
    runs: Vec<f64>,
    /// The per-round values of the runs (used as the spread when a side
    /// has a single run).
    rounds: Vec<f64>,
}

impl Side {
    /// The values the spread is judged on: runs when there are several,
    /// else the single run's rounds.
    fn spread_sample(&self) -> &[f64] {
        if self.runs.len() >= 2 || self.rounds.len() < 2 {
            &self.runs
        } else {
            &self.rounds
        }
    }
}

/// Judges a timed metric. `higher_better` flips the direction; `bound` is
/// the share of `a`'s median by which `b` may be worse.
pub fn judge(
    a: &[f64],
    b: &[f64],
    a_spread: f64,
    b_spread: f64,
    bound: f64,
    higher_better: bool,
) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    let worse_by = if higher_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    if a_spread > bound || b_spread > bound {
        // Too noisy to call — unless every run of one side beats every
        // run of the other.
        let better = |x: f64, y: f64| if higher_better { x > y } else { x < y };
        let b_all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        let a_all_better = a.iter().all(|&x| b.iter().all(|&y| better(x, y)));
        return match (b_all_better, a_all_better) {
            (true, _) if -worse_by > bound => Verdict::Improved,
            (_, true) if worse_by > bound => Verdict::Regressed,
            _ => Verdict::Unresolved,
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

type Sides = BTreeMap<(String, String), Side>;

/// Reads a run file into per-(workload, metric) sides; exact values are
/// keyed as `=name`.
fn load(path: &str) -> Result<Sides, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut sides = Sides::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", i + 1))?;
        let numbers = |key: &str| {
            rec.get(key)
                .and_then(Value::as_obj)
                .into_iter()
                .flatten()
                .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                .collect::<Vec<_>>()
        };
        for (metric, v) in numbers("metrics") {
            sides
                .entry((workload.to_string(), metric))
                .or_default()
                .runs
                .push(v);
        }
        for (name, v) in numbers("exact") {
            sides
                .entry((workload.to_string(), format!("={name}")))
                .or_default()
                .runs
                .push(v);
        }
        if let Some(failed) = rec.get("failed").and_then(Value::as_f64) {
            sides
                .entry((workload.to_string(), "=failed".to_string()))
                .or_default()
                .runs
                .push(failed);
        }
        for round in rec.get("rounds").and_then(Value::as_arr).unwrap_or(&[]) {
            for (metric, v) in round.as_obj().into_iter().flatten() {
                if let Some(v) = v.as_f64() {
                    sides
                        .entry((workload.to_string(), metric.clone()))
                        .or_default()
                        .rounds
                        .push(v);
                }
            }
        }
    }
    Ok(sides)
}

/// Compares two run files; returns the table and whether any row is bad.
pub fn compare(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut out = String::new();
    let mut bad = false;
    let _ = writeln!(
        out,
        "{:<16} {:<34} {:>12} {:>12} {:>12} {:>4} | {:>12} {:>12} {:>12} {:>4} | {:>7} {:>6}  verdict",
        "workload", "metric", "a.q1", "a.median", "a.q3", "n", "b.q1", "b.median", "b.q3", "n", "b/a", "bound"
    );
    for ((workload, metric), sa) in &a {
        let Some(sb) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let exact_layer = PER_LAYER.iter().any(|m| m.exact && m.name == metric);
        let e2e = END_TO_END.iter().find(|m| m.name == metric);
        let (verdict, bound) = if metric.starts_with('=') || exact_layer {
            let same = |s: &Side| s.runs.windows(2).all(|w| w[0] == w[1]);
            // Exact values depend on the seed, so they only compare when
            // each side repeated its own.
            if !(same(sa) && same(sb)) {
                continue;
            }
            let v = if sa.runs.first() == sb.runs.first() {
                Verdict::Equal
            } else {
                Verdict::Differs
            };
            (v, 0.0)
        } else if let Some(m) = e2e {
            let v = judge(
                &sa.runs,
                &sb.runs,
                iqr_share(sa.spread_sample()),
                iqr_share(sb.spread_sample()),
                m.bound,
                m.better == "higher",
            );
            (v, m.bound)
        } else {
            // Timed per-layer metrics carry no bound: shown, never judged.
            continue;
        };
        bad |= verdict.is_bad();
        let (a1, a2, a3) = quartiles(&sa.runs);
        let (b1, b2, b3) = quartiles(&sb.runs);
        let _ = writeln!(
            out,
            "{:<16} {:<34} {:>12.6} {:>12.6} {:>12.6} {:>4} | {:>12.6} {:>12.6} {:>12.6} {:>4} | {:>7.4} {:>6.2}  {}",
            workload,
            metric.trim_start_matches('='),
            a1, a2, a3, sa.runs.len(),
            b1, b2, b3, sb.runs.len(),
            if a2 != 0.0 { b2 / a2 } else { f64::NAN },
            bound,
            verdict.as_str()
        );
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5];
        // 4 % worse: within a 10 % bound.
        assert_eq!(
            judge(&a, &[104.0, 104.5, 103.5], 0.01, 0.01, 0.1, false),
            Verdict::Within
        );
        assert_eq!(
            judge(&a, &[115.0, 116.0, 114.0], 0.01, 0.01, 0.1, false),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &[80.0, 81.0, 79.0], 0.01, 0.01, 0.1, false),
            Verdict::Improved
        );
        // For a throughput, lower is worse.
        assert_eq!(
            judge(&a, &[80.0, 81.0, 79.0], 0.01, 0.01, 0.1, true),
            Verdict::Regressed
        );
        // A side noisier than the bound: unresolved when the runs interleave ...
        assert_eq!(
            judge(&a, &[95.0, 120.0, 99.5], 0.01, 0.2, 0.1, false),
            Verdict::Unresolved
        );
        // ... but resolved when every run of b is worse than every run of a.
        assert_eq!(
            judge(&a, &[115.0, 140.0, 120.0], 0.01, 0.2, 0.1, false),
            Verdict::Regressed
        );
    }
}
