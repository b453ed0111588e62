//! The wire-identity (PermCheck) polynomial machinery (paper §IV-A,
//! §IV-B5).
//!
//! For witness columns `w_1..w_W` and wiring permutation σ, the prover
//! builds per-column Numerator and Denominator MLEs
//!
//! ```text
//! N_i(x) = w_i(x) + β id_i(x) + γ        D_i(x) = w_i(x) + β σ_i(x) + γ
//! ```
//!
//! the Fraction MLE `ϕ = Π N_i / Π D_i` (elementwise, via Montgomery batch
//! inversion — the job of the hardware Permutation Quotient Generator),
//! and the grand-product tree `π` with child tables `p1, p2` (built by the
//! Multifunction Forest). The wiring is consistent iff the tree root —
//! the grand product of ϕ — equals one, which the verifier checks by
//! opening `π` at [`root_index`].

use zkphire_field::{batch_inverse, Fr};
use zkphire_poly::Mle;

/// All polynomials the Wire Identity step materializes.
#[derive(Clone, Debug)]
pub struct PermutationData {
    /// Per-column numerators `N_i`.
    pub numerators: Vec<Mle>,
    /// Per-column denominators `D_i`.
    pub denominators: Vec<Mle>,
    /// Elementwise fraction `ϕ = Π N_i / Π D_i`.
    pub phi: Mle,
    /// Grand-product tree nodes, layer-concatenated, padded with a final 1.
    pub pi: Mle,
    /// Left child of each `π` node.
    pub p1: Mle,
    /// Right child of each `π` node.
    pub p2: Mle,
}

/// Identity value of a global cell: `column * n + row` as a field element.
pub fn id_value(column: usize, n: usize, row: usize) -> Fr {
    Fr::from_u64((column * n + row) as u64)
}

/// Closed-form evaluation of the column-`k` identity MLE at a field point:
/// `id_k(r) = k·n + Σ_b 2^b r_b` (the MLE of the linear row-index
/// function), so the verifier never needs an identity commitment.
pub fn id_eval(column: usize, n: usize, point: &[Fr]) -> Fr {
    let mut acc = Fr::from_u64((column * n) as u64);
    let mut pow = Fr::ONE;
    for &r in point {
        acc += pow * r;
        pow = pow.double();
    }
    acc
}

/// Builds the per-column σ MLEs (entry `row` of column `k` holds the field
/// encoding of `σ(k·n + row)`). These are preprocessed and committed at
/// setup time.
pub fn sigma_mles(sigma: &[usize], num_columns: usize, num_vars: usize) -> Vec<Mle> {
    let n = 1usize << num_vars;
    assert_eq!(sigma.len(), num_columns * n, "sigma arity");
    (0..num_columns)
        .map(|k| Mle::from_fn(num_vars, |row| Fr::from_u64(sigma[k * n + row] as u64)))
        .collect()
}

/// Index of the grand-product root inside the `π` table.
pub fn root_index(n: usize) -> usize {
    n - 2
}

/// The boolean point (LSB-first) selecting index `i` of a `2^µ` table.
pub fn index_point(i: usize, num_vars: usize) -> Vec<Fr> {
    (0..num_vars)
        .map(|b| if (i >> b) & 1 == 1 { Fr::ONE } else { Fr::ZERO })
        .collect()
}

/// Builds the full wire-identity polynomial set.
///
/// The prover builds the same tables in two steps at different times —
/// [`Fractions::wiring`] before the permutation commitments,
/// [`Fractions::tables`] just before the PermCheck that alone reads them.
///
/// # Panics
///
/// Panics if the witness columns disagree in arity with σ, or if any
/// denominator is zero (probability ~`n/|F|` over random β, γ).
pub fn build_permutation_data(
    witness_columns: &[Mle],
    sigma: &[usize],
    beta: Fr,
    gamma: Fr,
) -> PermutationData {
    let fractions = Fractions::new(witness_columns, sigma, beta, gamma);
    let (numerators, denominators) = fractions.tables();
    let [phi, pi, p1, p2] = fractions.wiring();
    PermutationData {
        numerators,
        denominators,
        phi,
        pi,
        p1,
        p2,
    }
}

/// The entries of every `N_i` and `D_i`, computed on demand from the
/// witness columns and σ.
pub(crate) struct Fractions<'a> {
    columns: &'a [Mle],
    sigma: &'a [usize],
    beta: Fr,
    gamma: Fr,
}

impl<'a> Fractions<'a> {
    /// # Panics
    ///
    /// Panics if the witness columns disagree in arity with σ.
    pub(crate) fn new(columns: &'a [Mle], sigma: &'a [usize], beta: Fr, gamma: Fr) -> Self {
        assert_eq!(
            sigma.len(),
            columns.len() * columns[0].len(),
            "sigma covers all cells"
        );
        Self {
            columns,
            sigma,
            beta,
            gamma,
        }
    }

    fn numerator(&self, k: usize, row: usize) -> Fr {
        let n = self.columns[k].len();
        self.columns[k].evals()[row] + self.beta * id_value(k, n, row) + self.gamma
    }

    fn denominator(&self, k: usize, row: usize) -> Fr {
        let image = Fr::from_u64(self.sigma[k * self.columns[k].len() + row] as u64);
        self.columns[k].evals()[row] + self.beta * image + self.gamma
    }

    /// The per-column tables `(N_i, D_i)`.
    pub(crate) fn tables(&self) -> (Vec<Mle>, Vec<Mle>) {
        let num_vars = self.columns[0].num_vars();
        (0..self.columns.len())
            .map(|k| {
                (
                    Mle::from_fn(num_vars, |row| self.numerator(k, row)),
                    Mle::from_fn(num_vars, |row| self.denominator(k, row)),
                )
            })
            .unzip()
    }

    /// The four committed wiring tables `[ϕ, π, p1, p2]`. ϕ's row
    /// products are taken entry by entry, so no `N_i` / `D_i` table is
    /// built.
    ///
    /// # Panics
    ///
    /// Panics if any denominator is zero.
    pub(crate) fn wiring(&self) -> [Mle; 4] {
        let columns = 0..self.columns.len();
        let n = self.columns[0].len();

        // ϕ = Π N / Π D elementwise; the denominator products are inverted
        // in one batch (the Permutation Quotient Generator's ModInv
        // pipeline) and become ϕ in place.
        let mut phi: Vec<Fr> = (0..n)
            .map(|row| columns.clone().map(|k| self.denominator(k, row)).product())
            .collect();
        batch_inverse(&mut phi);
        for (row, entry) in phi.iter_mut().enumerate() {
            assert!(
                !entry.is_zero(),
                "zero denominator at row {row}; re-sample beta/gamma"
            );
            let num: Fr = columns.clone().map(|k| self.numerator(k, row)).product();
            *entry = num * *entry;
        }

        // Grand-product tree: layer 0 = ϕ leaves; layer k halves layer k-1.
        // π concatenates layers 1..µ then pads one final 1-entry; p1/p2 hold
        // each node's children so that π(x) = p1(x) · p2(x) pointwise.
        let mut pi = Vec::with_capacity(n);
        let mut p1 = Vec::with_capacity(n);
        let mut p2 = Vec::with_capacity(n);
        let mut node = |pi: &mut Vec<Fr>, left: Fr, right: Fr| {
            pi.push(left * right);
            p1.push(left);
            p2.push(right);
        };
        for pair in phi.chunks_exact(2) {
            node(&mut pi, pair[0], pair[1]);
        }
        // Each later layer reads the one before it from π itself.
        let mut layer = 0;
        while pi.len() - layer > 1 {
            let end = pi.len();
            for j in (layer..end).step_by(2) {
                let (left, right) = (pi[j], pi[j + 1]);
                node(&mut pi, left, right);
            }
            layer = end;
        }
        // Pad to a full power-of-two table.
        pi.resize(n, Fr::ONE);
        p1.resize(n, Fr::ONE);
        p2.resize(n, Fr::ONE);
        [phi, pi, p1, p2].map(Mle::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Circuit, GateSystem};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (Circuit, crate::circuit::Witness, PermutationData) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (circuit, witness) = Circuit::random(GateSystem::Vanilla, 5, 0.6, &mut rng);
        let beta = Fr::random(&mut rng);
        let gamma = Fr::random(&mut rng);
        let data = build_permutation_data(&witness.columns, &circuit.sigma, beta, gamma);
        (circuit, witness, data)
    }

    #[test]
    fn phi_is_elementwise_fraction() {
        let (_, _, data) = setup(1);
        for row in 0..data.phi.len() {
            let num: Fr = data.numerators.iter().map(|m| m.evals()[row]).product();
            let den: Fr = data.denominators.iter().map(|m| m.evals()[row]).product();
            assert_eq!(data.phi.evals()[row] * den, num);
        }
    }

    #[test]
    fn tree_relation_holds_pointwise() {
        let (_, _, data) = setup(2);
        for i in 0..data.pi.len() {
            assert_eq!(
                data.pi.evals()[i],
                data.p1.evals()[i] * data.p2.evals()[i],
                "node {i}"
            );
        }
    }

    #[test]
    fn root_is_one_for_consistent_wiring() {
        let (circuit, _, data) = setup(3);
        let n = circuit.num_rows();
        assert_eq!(data.pi.evals()[root_index(n)], Fr::ONE);
    }

    #[test]
    fn root_detects_copy_violation() {
        let mut rng = StdRng::seed_from_u64(4);
        let (circuit, mut witness) = Circuit::random(GateSystem::Vanilla, 5, 0.9, &mut rng);
        // Find a non-trivial copy pair and break it.
        let n = circuit.num_rows();
        let cell = circuit
            .sigma
            .iter()
            .enumerate()
            .find(|(i, &s)| *i != s)
            .map(|(i, _)| i)
            .expect("a copy constraint exists");
        let (col, row) = (cell / n, cell % n);
        let bad = witness.columns[col].evals()[row] + Fr::ONE;
        witness.columns[col].evals_mut()[row] = bad;
        let beta = Fr::random(&mut rng);
        let gamma = Fr::random(&mut rng);
        let data = build_permutation_data(&witness.columns, &circuit.sigma, beta, gamma);
        assert_ne!(data.pi.evals()[root_index(n)], Fr::ONE);
    }

    #[test]
    fn id_eval_closed_form_matches_table() {
        let mut rng = StdRng::seed_from_u64(5);
        let num_vars = 4;
        let n = 1 << num_vars;
        for col in 0..3 {
            let table = Mle::from_fn(num_vars, |row| id_value(col, n, row));
            let point: Vec<Fr> = (0..num_vars).map(|_| Fr::random(&mut rng)).collect();
            assert_eq!(table.evaluate(&point), id_eval(col, n, &point));
        }
    }

    #[test]
    fn index_point_selects_entry() {
        let mut rng = StdRng::seed_from_u64(6);
        let f = Mle::from_fn(4, |_| Fr::random(&mut rng));
        for i in [0usize, 5, 14, 15] {
            assert_eq!(f.evaluate(&index_point(i, 4)), f.evals()[i]);
        }
    }

    #[test]
    fn permcheck_gate_vanishes_on_honest_data() {
        // The row-21 composite must vanish everywhere given honest π/p/ϕ/N/D.
        let (circuit, _, data) = setup(7);
        let system = circuit.system;
        let gate = system.perm_gate();
        let alpha = Fr::from_u64(12345);
        let poly = gate.poly.specialize(&[alpha]);
        let num_vars = circuit.num_vars;
        let mut mles = vec![
            data.pi.clone(),
            data.p1.clone(),
            data.p2.clone(),
            data.phi.clone(),
        ];
        mles.extend(data.denominators.iter().cloned());
        mles.extend(data.numerators.iter().cloned());
        mles.push(Mle::constant(Fr::ONE, num_vars)); // f_r := 1
                                                     // π - p1 p2 == 0 and ϕ D - N == 0 pointwise => composite zero.
        for i in 0..(1 << num_vars) {
            assert!(poly.evaluate_at_index(&mles, i).is_zero(), "row {i}");
        }
    }
}
