//! The composite-polynomial intermediate representation (IR).
//!
//! A *composite polynomial* is a sum of terms, each a scalar coefficient
//! times a product of multilinear constituent polynomials — the exact
//! object the programmable SumCheck unit is "programmed" with (paper §III:
//! "an arbitrary number of terms and an arbitrary degree"). The same IR
//! drives both the functional SumCheck prover and the hardware scheduler,
//! so operation counts can be cross-validated between them.

use std::borrow::Borrow;

use crate::mle::Mle;
use zkphire_field::Fr;

/// Index of a constituent MLE slot within a composite polynomial.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MleId(pub usize);

/// Statistical class of a constituent MLE; drives workload generation and
/// the accelerator's sparsity handling (§IV-B1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MleKind {
    /// Enable/selector polynomial: binary-valued, stored as raw bits.
    Selector,
    /// Witness polynomial: ~90% zero entries, offset-buffer compressed.
    Witness,
    /// Dense polynomial of full-width field elements.
    Dense,
    /// Randomized auxiliary polynomial (`eq(x, r)`, written `f_r` in the
    /// paper) built on the fly by the Build-MLE kernel.
    Challenge,
}

/// One product term `coeff * Π scalars * Π factors`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Term {
    /// Constant coefficient.
    pub coeff: Fr,
    /// Protocol scalars (e.g. the batching challenge α in PermCheck)
    /// multiplied into the coefficient once their values are known.
    pub scalars: Vec<usize>,
    /// Constituent MLEs, sorted; a repeated id encodes a power (e.g.
    /// `w1^5` appears as five copies of the same id).
    pub factors: Vec<MleId>,
}

impl Term {
    /// The term's total degree (number of multilinear factors).
    pub fn degree(&self) -> usize {
        self.factors.len()
    }

    /// Number of *distinct* MLEs in the term.
    fn unique_factors(&self) -> usize {
        let mut ids: Vec<MleId> = self.factors.clone();
        ids.dedup();
        ids.len()
    }
}

/// A sum of product terms over shared constituent MLEs.
///
/// # Examples
///
/// Build `f = a * b + 2 * c` directly (the [`expr`](crate::expr) module
/// offers a friendlier builder):
///
/// ```
/// use zkphire_poly::{CompositePoly, Term, MleId};
/// use zkphire_field::Fr;
///
/// let f = CompositePoly::new(vec![
///     Term { coeff: Fr::ONE, scalars: vec![], factors: vec![MleId(0), MleId(1)] },
///     Term { coeff: Fr::from_u64(2), scalars: vec![], factors: vec![MleId(2)] },
/// ]);
/// assert_eq!(f.degree(), 2);
/// assert_eq!(f.num_mles(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompositePoly {
    terms: Vec<Term>,
    num_mles: usize,
    num_scalars: usize,
}

impl CompositePoly {
    /// Builds a composite from its terms, normalizing factor order.
    pub fn new(mut terms: Vec<Term>) -> Self {
        let mut num_mles = 0;
        let mut num_scalars = 0;
        for term in &mut terms {
            term.factors.sort_unstable();
            term.scalars.sort_unstable();
            for f in &term.factors {
                num_mles = num_mles.max(f.0 + 1);
            }
            for s in &term.scalars {
                num_scalars = num_scalars.max(s + 1);
            }
        }
        Self {
            terms,
            num_mles,
            num_scalars,
        }
    }

    /// The terms of the sum.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Number of constituent MLE slots (max id + 1).
    pub fn num_mles(&self) -> usize {
        self.num_mles
    }

    /// Number of protocol scalar slots.
    pub fn num_scalars(&self) -> usize {
        self.num_scalars
    }

    /// Total degree: the maximum factor count over all terms. A SumCheck
    /// round must produce `degree() + 1` evaluations (§II-C3).
    pub fn degree(&self) -> usize {
        self.terms.iter().map(Term::degree).max().unwrap_or(0)
    }

    /// Maximum number of *distinct* MLEs appearing in any single term
    /// (the quantity compared against the Extension Engine count by the
    /// scheduler, and capped at 8 by the ICICLE GPU library — §VI-A4).
    pub fn max_unique_factors_per_term(&self) -> usize {
        self.terms
            .iter()
            .map(Term::unique_factors)
            .max()
            .unwrap_or(0)
    }

    /// Ids of all distinct MLEs referenced anywhere in the composite.
    pub fn unique_mles(&self) -> Vec<MleId> {
        let mut ids: Vec<MleId> = self
            .terms
            .iter()
            .flat_map(|t| t.factors.iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Folds concrete scalar values into the coefficients, producing a
    /// scalar-free composite ready for the SumCheck prover.
    ///
    /// # Panics
    ///
    /// Panics if fewer values than [`num_scalars`](Self::num_scalars) are
    /// supplied.
    pub fn specialize(&self, scalar_values: &[Fr]) -> Self {
        assert!(
            scalar_values.len() >= self.num_scalars,
            "need {} scalar values, got {}",
            self.num_scalars,
            scalar_values.len()
        );
        let terms = self
            .terms
            .iter()
            .map(|t| {
                let mut coeff = t.coeff;
                for &s in &t.scalars {
                    coeff *= scalar_values[s];
                }
                Term {
                    coeff,
                    scalars: Vec::new(),
                    factors: t.factors.clone(),
                }
            })
            .collect();
        Self {
            terms,
            num_mles: self.num_mles,
            num_scalars: 0,
        }
    }

    /// Checks that a binding — owned or borrowed tables — supplies every
    /// MLE slot with equal arity.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or missing slots (programming errors).
    pub fn validate_binding<M: Borrow<Mle>>(&self, mles: &[M]) {
        assert!(
            mles.len() >= self.num_mles,
            "composite references {} MLEs but {} were bound",
            self.num_mles,
            mles.len()
        );
        assert_eq!(self.num_scalars, 0, "specialize() scalars before binding");
        if let Some(first) = mles.first() {
            for (i, m) in mles.iter().enumerate() {
                assert_eq!(
                    m.borrow().num_vars(),
                    first.borrow().num_vars(),
                    "MLE {i} arity differs from MLE 0"
                );
            }
        }
    }

    /// Evaluates the composite at one hypercube index of bound tables.
    pub fn evaluate_at_index(&self, mles: &[Mle], index: usize) -> Fr {
        let mut acc = Fr::ZERO;
        for term in &self.terms {
            let mut prod = term.coeff;
            for f in &term.factors {
                prod *= mles[f.0].evals()[index];
            }
            acc += prod;
        }
        acc
    }

    /// Computes `Σ_x f(x)` over the whole hypercube — the quantity a
    /// SumCheck proves. Reference implementation (one pass, no protocol).
    pub fn sum_over_hypercube(&self, mles: &[Mle]) -> Fr {
        self.validate_binding(mles);
        let n = mles.first().map_or(1, Mle::len);
        (0..n).map(|i| self.evaluate_at_index(mles, i)).sum()
    }

    /// Evaluates the composite given the value of each constituent MLE —
    /// the verifier's final check at the SumCheck challenge point.
    pub fn evaluate_with_mle_values(&self, values: &[Fr]) -> Fr {
        let mut acc = Fr::ZERO;
        for term in &self.terms {
            let mut prod = term.coeff;
            for f in &term.factors {
                prod *= values[f.0];
            }
            acc += prod;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn simple_composite() -> CompositePoly {
        // f = 3*a*b - c
        CompositePoly::new(vec![
            Term {
                coeff: Fr::from_u64(3),
                scalars: vec![],
                factors: vec![MleId(0), MleId(1)],
            },
            Term {
                coeff: -Fr::ONE,
                scalars: vec![],
                factors: vec![MleId(2)],
            },
        ])
    }

    #[test]
    fn degree_and_counts() {
        let f = simple_composite();
        assert_eq!(f.degree(), 2);
        assert_eq!(f.num_terms(), 2);
        assert_eq!(f.num_mles(), 3);
        assert_eq!(f.max_unique_factors_per_term(), 2);
        assert_eq!(f.unique_mles(), vec![MleId(0), MleId(1), MleId(2)]);
    }

    #[test]
    fn repeated_factors_count_in_degree_once_each() {
        // w^5 has degree 5 but one unique factor.
        let f = CompositePoly::new(vec![Term {
            coeff: Fr::ONE,
            scalars: vec![],
            factors: vec![MleId(0); 5],
        }]);
        assert_eq!(f.degree(), 5);
        assert_eq!(f.max_unique_factors_per_term(), 1);
    }

    #[test]
    fn hypercube_sum_matches_manual() {
        let mut rng = StdRng::seed_from_u64(1);
        let mles: Vec<Mle> = (0..3)
            .map(|_| Mle::from_fn(3, |_| Fr::random(&mut rng)))
            .collect();
        let f = simple_composite();
        let mut expected = Fr::ZERO;
        for i in 0..8 {
            expected +=
                Fr::from_u64(3) * mles[0].evals()[i] * mles[1].evals()[i] - mles[2].evals()[i];
        }
        assert_eq!(f.sum_over_hypercube(&mles), expected);
    }

    #[test]
    fn specialize_folds_scalars() {
        let f = CompositePoly::new(vec![Term {
            coeff: Fr::from_u64(2),
            scalars: vec![0],
            factors: vec![MleId(0)],
        }]);
        assert_eq!(f.num_scalars(), 1);
        let g = f.specialize(&[Fr::from_u64(5)]);
        assert_eq!(g.num_scalars(), 0);
        assert_eq!(g.terms()[0].coeff, Fr::from_u64(10));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn mismatched_arity_rejected() {
        let f = simple_composite();
        let mles = vec![Mle::zero(2), Mle::zero(3), Mle::zero(2)];
        f.validate_binding(&mles);
    }
}
