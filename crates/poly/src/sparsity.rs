//! Sparse/structured MLE generators matching the workload statistics the
//! paper assumes (§IV-B1, §V): selector MLEs are binary, witness and
//! constant MLEs are ~90% sparse, and dense MLEs are uniform field
//! elements. Used by the synthetic workload generators (DESIGN.md
//! substitution S3) and by tests of the sparsity-aware memory model.

use crate::composite::MleKind;
use crate::mle::Mle;
use rand::Rng;
use zkphire_field::Fr;

/// Witness/constant sparsity assumed by the paper (90% zeros).
pub const WITNESS_ZERO_FRACTION: f64 = 0.9;

/// Selector on-fraction used for synthetic circuits (half the gates enable
/// any given selector).
pub const SELECTOR_ONE_FRACTION: f64 = 0.5;

/// Generates a random binary selector MLE.
pub fn random_selector<R: Rng + ?Sized>(rng: &mut R, num_vars: usize) -> Mle {
    Mle::from_fn(num_vars, |_| {
        if rng.gen_bool(SELECTOR_ONE_FRACTION) {
            Fr::ONE
        } else {
            Fr::ZERO
        }
    })
}

/// Generates a random ~90%-sparse witness MLE.
pub fn random_sparse_witness<R: Rng + ?Sized>(rng: &mut R, num_vars: usize) -> Mle {
    Mle::from_fn(num_vars, |_| {
        if rng.gen_bool(WITNESS_ZERO_FRACTION) {
            Fr::ZERO
        } else {
            Fr::random(rng)
        }
    })
}

/// Generates a dense uniform MLE.
pub fn random_dense<R: Rng + ?Sized>(rng: &mut R, num_vars: usize) -> Mle {
    Mle::from_fn(num_vars, |_| Fr::random(rng))
}

/// Generates an MLE matching the statistics of `kind`.
///
/// `Challenge` slots produce an `eq(x, r)` table for a random `r`, exactly
/// as the Build-MLE kernel would.
fn random_mle_of_kind<R: Rng + ?Sized>(rng: &mut R, kind: MleKind, num_vars: usize) -> Mle {
    match kind {
        MleKind::Selector => random_selector(rng, num_vars),
        MleKind::Witness => random_sparse_witness(rng, num_vars),
        MleKind::Dense => random_dense(rng, num_vars),
        MleKind::Challenge => {
            let r: Vec<Fr> = (0..num_vars).map(|_| Fr::random(rng)).collect();
            Mle::eq_table(&r)
        }
    }
}

/// Generates one MLE per slot of a gate's kind vector — a complete random
/// binding for benchmarking a [`CompositePoly`](crate::CompositePoly).
pub fn random_binding<R: Rng + ?Sized>(
    rng: &mut R,
    kinds: &[MleKind],
    num_vars: usize,
) -> Vec<Mle> {
    kinds
        .iter()
        .map(|&k| random_mle_of_kind(rng, k, num_vars))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn selector_is_binary() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = random_selector(&mut rng, 8);
        assert!((s.binary_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn witness_sparsity_close_to_nominal() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = random_sparse_witness(&mut rng, 12);
        assert!((w.zero_fraction() - WITNESS_ZERO_FRACTION).abs() < 0.05);
    }

    #[test]
    fn challenge_kind_is_eq_table() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = random_mle_of_kind(&mut rng, MleKind::Challenge, 6);
        // eq tables sum to one.
        assert_eq!(c.hypercube_sum(), zkphire_field::Fr::ONE);
    }

    #[test]
    fn binding_matches_kind_vector() {
        let mut rng = StdRng::seed_from_u64(4);
        let kinds = [MleKind::Selector, MleKind::Witness, MleKind::Dense];
        let binding = random_binding(&mut rng, &kinds, 5);
        assert_eq!(binding.len(), 3);
        assert!(binding.iter().all(|m| m.num_vars() == 5));
    }
}
