//! Univariate Lagrange interpolation on the integer nodes `0..=d`.
//!
//! A SumCheck round transmits the round polynomial `s_i` as its evaluations
//! at `0, 1, ..., d` (paper §II-C3: "d+1 evaluations"); the verifier needs
//! `s_i(r)` at the random challenge to form the next round's claim.
//!
//! The node set is the same in every round, so the barycentric weights
//! `w_j = 1 / (j! (d-j)! (-1)^(d-j))` are precomputed once per proof with
//! a single [`batch_inverse`] ([`BarycentricWeights`]) and each round's
//! evaluation then costs only multiplications and additions — zero field
//! inversions, the exact trade the paper's ModInv unit makes (§IV-B5).

use zkphire_field::{batch_inverse, Fr};

/// Precomputed barycentric weights for the nodes `0..=d`.
///
/// Constructing this costs one batch inversion; every subsequent
/// [`interpolate`](Self::interpolate) call is inversion-free.
#[derive(Clone, Debug)]
pub struct BarycentricWeights {
    /// `weights[j] = 1 / (j! (d-j)! (-1)^(d-j))`.
    weights: Vec<Fr>,
    /// The nodes `0..=d` as field elements, cached for the numerators.
    nodes: Vec<Fr>,
}

impl BarycentricWeights {
    /// Precomputes the weights for the degree-`d` node set `0..=d`.
    pub fn new(degree: usize) -> Self {
        let d = degree;
        let nodes: Vec<Fr> = (0..=d as u64).map(Fr::from_u64).collect();
        // denom_j = j! * (d-j)! * (-1)^(d-j), inverted in one batch.
        let mut factorials = vec![Fr::ONE; d + 1];
        for j in 1..=d {
            factorials[j] = factorials[j - 1] * Fr::from_u64(j as u64);
        }
        let mut weights: Vec<Fr> = (0..=d)
            .map(|j| {
                let denom = factorials[j] * factorials[d - j];
                if (d - j) % 2 == 1 {
                    -denom
                } else {
                    denom
                }
            })
            .collect();
        batch_inverse(&mut weights);
        Self { weights, nodes }
    }

    /// The degree `d` this weight set interpolates.
    pub fn degree(&self) -> usize {
        self.weights.len() - 1
    }

    /// Evaluates the degree-`d` polynomial through `(j, values[j])` at `r`
    /// without performing any field inversion.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != degree + 1`.
    pub fn interpolate(&self, values: &[Fr], r: Fr) -> Fr {
        assert_eq!(
            values.len(),
            self.weights.len(),
            "evaluation count must match the weight set"
        );
        let d = self.degree();
        if d == 0 {
            return values[0];
        }

        // If r is itself one of the nodes, return the tabulated value (the
        // barycentric numerators below would all vanish).
        for (j, &v) in values.iter().enumerate() {
            if r == self.nodes[j] {
                return v;
            }
        }

        // L_j(r) = w_j * prod_{k != j} (r - k), numerators via
        // prefix/suffix products.
        let mut prefix = vec![Fr::ONE; d + 2];
        for j in 0..=d {
            prefix[j + 1] = prefix[j] * (r - self.nodes[j]);
        }
        let mut suffix = vec![Fr::ONE; d + 2];
        for j in (0..=d).rev() {
            suffix[j] = suffix[j + 1] * (r - self.nodes[j]);
        }

        let mut acc = Fr::ZERO;
        for j in 0..=d {
            acc += values[j] * prefix[j] * suffix[j + 1] * self.weights[j];
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Evaluates `coeffs` (monomial basis, low-to-high) at `x`.
    fn horner(coeffs: &[Fr], x: Fr) -> Fr {
        coeffs.iter().rev().fold(Fr::ZERO, |acc, &c| acc * x + c)
    }

    /// The polynomial through `(j, values[j])`, `j = 0..=d`, at `r`.
    fn interpolate(values: &[Fr], r: Fr) -> Fr {
        BarycentricWeights::new(values.len() - 1).interpolate(values, r)
    }

    #[test]
    fn reconstructs_polynomial() {
        let mut rng = StdRng::seed_from_u64(1);
        for d in 1..=12 {
            let coeffs: Vec<Fr> = (0..=d).map(|_| Fr::random(&mut rng)).collect();
            let values: Vec<Fr> = (0..=d as u64)
                .map(|j| horner(&coeffs, Fr::from_u64(j)))
                .collect();
            let r = Fr::random(&mut rng);
            assert_eq!(interpolate(&values, r), horner(&coeffs, r), "degree {d}");
        }
    }

    #[test]
    fn cached_weights_match_one_shot() {
        // One weight set evaluates many polynomials of its degree.
        let mut rng = StdRng::seed_from_u64(2);
        for d in [1usize, 3, 7, 31] {
            let weights = BarycentricWeights::new(d);
            assert_eq!(weights.degree(), d);
            for _ in 0..4 {
                let coeffs: Vec<Fr> = (0..=d).map(|_| Fr::random(&mut rng)).collect();
                let values: Vec<Fr> = (0..=d as u64)
                    .map(|j| horner(&coeffs, Fr::from_u64(j)))
                    .collect();
                let r = Fr::random(&mut rng);
                assert_eq!(
                    weights.interpolate(&values, r),
                    horner(&coeffs, r),
                    "degree {d}"
                );
            }
        }
    }

    #[test]
    fn exact_node_evaluation() {
        let values: Vec<Fr> = [3u64, 1, 4, 1, 5]
            .iter()
            .map(|&v| Fr::from_u64(v))
            .collect();
        for (j, &v) in values.iter().enumerate() {
            assert_eq!(interpolate(&values, Fr::from_u64(j as u64)), v);
        }
    }

    #[test]
    fn constant_polynomial() {
        let v = Fr::from_u64(7);
        assert_eq!(interpolate(&[v], Fr::from_u64(123)), v);
    }

    #[test]
    fn linear_polynomial() {
        // p(x) = 2x + 5 through (0,5), (1,7)
        let values = [Fr::from_u64(5), Fr::from_u64(7)];
        assert_eq!(interpolate(&values, Fr::from_u64(10)), Fr::from_u64(25));
    }
}
