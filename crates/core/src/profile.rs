//! Hardware-facing polynomial profiles.
//!
//! The performance model never materializes MLE tables (the paper
//! simulates up to 2^30 gates); it only needs the composite polynomial's
//! *structure* — terms, factor multiplicities, per-slot sparsity class and
//! whether a fused `f_r` lane is in play. [`PolyProfile`] extracts exactly
//! that from the same [`CompositePoly`] IR the functional prover executes,
//! so both read one composite. They do not run one schedule: the model's
//! [`PolyProfile::total_muls`] counts the dense per-pair dataflow (every
//! term at all `K` points, as `zkphire_sumcheck::count_ops` does, through
//! the shared [`product_muls_per_pair`]), [`sched`](crate::sched) costs
//! the Fig. 2 node schedule with each term's own early exit, and the
//! prover executes per-class early exit, a factored-out `f_r` and
//! zero-line skipping. `tests/tests/model_consistency.rs` pins the first
//! to `count_ops`.

use zkphire_poly::{CompositePoly, GateInfo, MleKind};
use zkphire_sumcheck::{coeff_needs_mul, product_muls_per_pair};

use crate::tech::ELEMENT_BYTES;

/// One product term as the scheduler sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TermProfile {
    /// Constituent slot ids, with multiplicity (e.g. `w^5` = five copies).
    pub factors: Vec<usize>,
    /// Whether the coefficient costs a real multiplication (not ±1).
    pub coeff_needs_mul: bool,
}

impl TermProfile {
    /// Total degree (factor count with multiplicity).
    pub fn degree(&self) -> usize {
        self.factors.len()
    }

    /// Factors excluding a given slot (used to drop the fused `f_r` in
    /// round 1).
    pub fn factors_excluding(&self, slot: Option<usize>) -> Vec<usize> {
        match slot {
            None => self.factors.clone(),
            Some(s) => self.factors.iter().copied().filter(|&f| f != s).collect(),
        }
    }
}

/// The structure of a composite polynomial plus per-slot statistics.
#[derive(Clone, Debug)]
pub struct PolyProfile {
    /// Human-readable name (Table I row name or synthetic).
    pub name: String,
    /// Product terms.
    pub terms: Vec<TermProfile>,
    /// Statistical kind of each MLE slot.
    pub mle_kinds: Vec<MleKind>,
    /// Slot of a single fused `f_r` (Build-MLE lane, §III-F), if any.
    pub eq_slot: Option<usize>,
}

impl PolyProfile {
    /// Builds a profile from a Table I gate description.
    pub fn from_gate(gate: &GateInfo) -> Self {
        Self::from_composite(&gate.poly, &gate.mle_kinds, gate.name)
    }

    /// Builds a profile from a raw composite and its slot kinds.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` does not cover every slot.
    pub fn from_composite(poly: &CompositePoly, kinds: &[MleKind], name: &str) -> Self {
        assert!(
            kinds.len() >= poly.num_mles(),
            "kinds must cover all {} slots",
            poly.num_mles()
        );
        let terms = poly
            .terms()
            .iter()
            .map(|t| TermProfile {
                factors: t.factors.iter().map(|id| id.0).collect(),
                coeff_needs_mul: coeff_needs_mul(&t.coeff),
            })
            .collect();
        let challenge_slots: Vec<usize> = kinds
            .iter()
            .take(poly.num_mles())
            .enumerate()
            .filter(|(_, k)| **k == MleKind::Challenge)
            .map(|(i, _)| i)
            .collect();
        let eq_slot = if challenge_slots.len() == 1 {
            Some(challenge_slots[0])
        } else {
            None
        };
        Self {
            name: name.to_string(),
            terms,
            mle_kinds: kinds[..poly.num_mles()].to_vec(),
            eq_slot,
        }
    }

    /// Composite degree: `K = degree() + 1` evaluations per round.
    pub fn degree(&self) -> usize {
        self.terms
            .iter()
            .map(TermProfile::degree)
            .max()
            .unwrap_or(0)
    }

    /// Distinct slots referenced anywhere.
    pub fn unique_slots(&self) -> Vec<usize> {
        let mut slots: Vec<usize> = self
            .terms
            .iter()
            .flat_map(|t| t.factors.iter().copied())
            .collect();
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// Off-chip bytes per entry when streaming a slot in **round 1**,
    /// where the sparsity encodings of §IV-B1 apply: selectors as raw
    /// bits, witnesses via per-tile offset buffers, `f_r` generated
    /// on-chip.
    pub fn round1_bytes_per_entry(&self, slot: usize) -> f64 {
        match self.mle_kinds[slot] {
            MleKind::Selector => 1.0 / 8.0,
            // 10% dense 255-bit elements + offset-buffer overhead.
            MleKind::Witness => 0.1 * ELEMENT_BYTES + 0.4,
            MleKind::Dense => ELEMENT_BYTES,
            MleKind::Challenge => 0.0,
        }
    }

    /// Total field multiplications for a full SumCheck at `2^mu` in the
    /// dense per-pair dataflow (every term at all `K` points, no early
    /// exit, no `f_r` factoring): the per-pair product count is the integer
    /// [`zkphire_sumcheck::count_ops`] uses
    /// ([`product_muls_per_pair`]), summed over the rounds with one
    /// update multiplication per slot per pair, plus the `f_r` build
    /// cost.
    pub fn total_muls(&self, mu: usize) -> f64 {
        let per_pair = product_muls_per_pair(
            self.degree() as u64 + 1,
            self.terms.iter().map(|t| (t.degree(), t.coeff_needs_mul)),
        );
        let num_slots = self.mle_kinds.len() as u64;
        let mut total = 0f64;
        for round in 1..=mu {
            let half = (1u64 << (mu - round)) as f64;
            total += half * per_pair as f64;
            total += num_slots as f64 * half;
        }
        if self.eq_slot.is_some() {
            total += (1u64 << mu) as f64; // Build-MLE: one mul per entry
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkphire_poly::{high_degree_gate, table1_gate};

    #[test]
    fn vanilla_profile_shape() {
        let p = PolyProfile::from_gate(&table1_gate(20));
        assert_eq!(p.terms.len(), 5);
        assert_eq!(p.degree(), 4);
        assert_eq!(p.eq_slot, Some(8));
        assert_eq!(p.unique_slots().len(), 9);
    }

    #[test]
    fn jellyfish_profile_shape() {
        let p = PolyProfile::from_gate(&table1_gate(22));
        assert_eq!(p.terms.len(), 13);
        assert_eq!(p.degree(), 7);
        assert_eq!(p.eq_slot, Some(18));
        // w1^5 term has 5 copies of one slot plus q_H1 and f_r.
        let max_mult = p.terms.iter().map(|t| t.factors.len()).max().unwrap();
        assert_eq!(max_mult, 7);
    }

    #[test]
    fn opencheck_has_no_single_eq_slot() {
        // Row 24 has six challenge slots; no single fused lane applies.
        let p = PolyProfile::from_gate(&table1_gate(24));
        assert_eq!(p.eq_slot, None);
    }

    #[test]
    fn sparsity_bytes_ordering() {
        let p = PolyProfile::from_gate(&table1_gate(20));
        // selector < witness < dense bytes per entry.
        let sel = p.round1_bytes_per_entry(0);
        let wit = p.round1_bytes_per_entry(5);
        assert!(sel < wit && wit < ELEMENT_BYTES);
    }

    #[test]
    fn high_degree_family_profiles() {
        for d in [2usize, 6, 17, 30] {
            let p = PolyProfile::from_gate(&high_degree_gate(d));
            assert_eq!(p.degree(), d, "degree {d}");
        }
    }

    #[test]
    fn mul_counts_grow_with_degree() {
        let lo = PolyProfile::from_gate(&high_degree_gate(3)).total_muls(20);
        let hi = PolyProfile::from_gate(&high_degree_gate(20)).total_muls(20);
        assert!(hi > 3.0 * lo);
    }
}
