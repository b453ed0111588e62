//! Analytical operation counts for a SumCheck execution.
//!
//! The paper's performance model and its CPU/GPU baselines are all driven
//! by how many 255-bit modular multiplications a SumCheck performs
//! (§V, §VI). [`count_ops`] derives those counts from the composite
//! polynomial's structure, for the dense per-pair dataflow: every term at
//! all `K` points of every pair, with no early exit and no `f_r`
//! factoring. Three schedules are described in this repository, and each
//! count names its own:
//!
//! * [`count_ops`] and `PolyProfile::total_muls` in `zkphire-core`: the
//!   dense dataflow above, which the CPU baseline model multiplies by its
//!   calibrated per-multiplication time;
//! * `core::sched` in `zkphire-core`: the paper's Fig. 2 node schedule,
//!   where each term's node exits early at its own point count;
//! * the round plan the prover executes: per-class early exit, the
//!   factored-out `f_r` and zero-line skipping, so its multiplications
//!   differ from [`count_ops`]' (three gates' dense per-pair figures are
//!   pinned side by side in `plan::tests`).

use zkphire_field::Fr;
use zkphire_poly::CompositePoly;

/// Field-multiplication counts for one complete SumCheck, split by the
/// hardware structure that would execute them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SumcheckOps {
    /// Multiplications inside product lanes (term products and coefficient
    /// scaling), summed over all rounds and extension points.
    pub product_muls: u64,
    /// Multiplications inside MLE Update units (one per updated entry).
    pub update_muls: u64,
}

impl SumcheckOps {
    /// Total multiplications (the paper's primary cost metric).
    pub fn total_muls(&self) -> u64 {
        self.product_muls + self.update_muls
    }
}

/// Returns `true` when multiplying by this coefficient costs a real
/// multiplication (±1 is free: it is an add/subtract in the accumulator).
pub fn coeff_needs_mul(coeff: &Fr) -> bool {
    !(coeff.is_one() || (-*coeff).is_one())
}

/// Product-lane multiplications per pair of table entries — the same
/// in every round: at each of the `k` extension points every
/// non-constant term multiplies its factors (`degree - 1` muls) plus one
/// more when its coefficient is not ±1. `terms` yields each term's
/// `(degree, coeff_needs_mul)`. The one integer behind both
/// [`count_ops`] and the accelerator model's `PolyProfile::total_muls`.
pub fn product_muls_per_pair(k: u64, terms: impl IntoIterator<Item = (usize, bool)>) -> u64 {
    terms
        .into_iter()
        .filter(|&(degree, _)| degree > 0) // constant terms add, never multiply
        .map(|(degree, coeff_mul)| k * (degree as u64 - 1 + u64::from(coeff_mul)))
        .sum()
}

/// Counts the field multiplications of a SumCheck over `poly` on
/// `num_vars` variables, in the dense per-pair dataflow.
///
/// Model per round `i` (table size `2^(µ-i+1)`, `half = 2^(µ-i)` pairs,
/// `K = degree + 1` extension points):
///
/// * products: per pair and per extension point, each term multiplies its
///   factors (`deg_t - 1` muls) plus one more when the coefficient is not
///   ±1 (extending a line to `K` points is add-only);
/// * update: after the round, each MLE slot is fixed at the challenge —
///   one mul per surviving entry.
pub fn count_ops(poly: &CompositePoly, num_vars: usize) -> SumcheckOps {
    let k = poly.degree().max(1) as u64 + 1;
    let num_mles = poly.num_mles() as u64;

    let product_muls_per_pair = product_muls_per_pair(
        k,
        poly.terms()
            .iter()
            .map(|t| (t.degree(), coeff_needs_mul(&t.coeff))),
    );

    let mut ops = SumcheckOps::default();
    for round in 1..=num_vars {
        let half = 1u64 << (num_vars - round);
        ops.product_muls += half * product_muls_per_pair;
        ops.update_muls += num_mles * half;
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkphire_poly::{MleId, Term};

    fn two_term_poly() -> CompositePoly {
        // f = a*b*e + 3*c*e  (degrees 3 and 2, one non-unit coefficient)
        CompositePoly::new(vec![
            Term {
                coeff: Fr::ONE,
                scalars: vec![],
                factors: vec![MleId(0), MleId(1), MleId(2)],
            },
            Term {
                coeff: Fr::from_u64(3),
                scalars: vec![],
                factors: vec![MleId(3), MleId(2)],
            },
        ])
    }

    #[test]
    fn counts_scale_linearly_with_table_size() {
        let poly = two_term_poly();
        let small = count_ops(&poly, 4);
        let large = count_ops(&poly, 5);
        // One extra round of double the size: totals roughly double
        // (pairs per sumcheck are 2^µ - 1, so the ratio is slightly > 2).
        assert!(large.total_muls() > 2 * small.total_muls() - small.total_muls() / 2);
        assert!(large.total_muls() < 2 * small.total_muls() + small.total_muls() / 4);
    }

    #[test]
    fn manual_count_small_case() {
        let poly = two_term_poly();
        // K = 4; term 1: 2 factor muls, unit coeff -> 4*2 = 8 per pair;
        // term 2: 1 factor mul + 1 coeff mul -> 4*2 = 8 per pair.
        // Rounds over µ=3: halves 4, 2, 1 -> 7 pairs total.
        let ops = count_ops(&poly, 3);
        assert_eq!(ops.product_muls, 7 * 16);
        // 4 MLE slots, updates at halves 4+2+1 = 7 each.
        assert_eq!(ops.update_muls, 4 * 7);
    }

    #[test]
    fn minus_one_coefficient_is_free() {
        assert!(!coeff_needs_mul(&Fr::ONE));
        assert!(!coeff_needs_mul(&(-Fr::ONE)));
        assert!(coeff_needs_mul(&Fr::from_u64(2)));
        assert!(coeff_needs_mul(&(-Fr::from_u64(5))));
    }
}
