//! A functional HyperPlonk zkSNARK — the protocol zkPHIRE accelerates.
//!
//! Implements the full five-step prover of paper §IV-A (Witness
//! Commitments, Gate Identity, Wire Identity, Batch Evaluations,
//! Polynomial Opening) and the matching verifier, over both the Vanilla
//! Plonk gate and HyperPlonk's high-degree Jellyfish gate. The
//! permutation argument follows the paper's N/D/ϕ/π construction
//! (§IV-B5); verification substitutes a trapdoor check for the pairing
//! (DESIGN.md S1) and commits the grand-product child tables `p1, p2`
//! directly rather than deriving them from a single rotation-openable
//! commitment (DESIGN.md S5) — the prover-side computation pattern, which
//! is what the accelerator executes, is identical.
//!
//! # Examples
//!
//! ```no_run
//! use rand::SeedableRng;
//! use zkphire_hyperplonk::{prove, setup, verify, Circuit, GateSystem};
//! use zkphire_transcript::Transcript;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let (circuit, witness) = Circuit::random(GateSystem::Jellyfish, 6, 0.5, &mut rng);
//! let (pk, vk) = setup(circuit, &mut rng);
//! let proof = prove(&pk, &witness, &mut Transcript::new(b"example"));
//! verify(&vk, &proof, &mut Transcript::new(b"example")).expect("valid proof");
//! println!("proof size: {} bytes", proof.size_bytes());
//! ```

mod circuit;
mod codec;
mod keys;
mod permutation;
mod proof;
mod prover;
mod verifier;

pub use circuit::{Circuit, GateSystem, Witness};
pub use codec::DecodeError;
pub use keys::{setup, setup_with_threads, ProvingKey, VerifyingKey};
pub use permutation::{
    build_permutation_data, id_eval, index_point, root_index, sigma_mles, PermutationData,
};
pub use proof::{proof_size_bytes, HyperPlonkProof};
pub use prover::{prove, prove_with_config, ProverConfig};
pub use verifier::{verify, HyperPlonkError};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkphire_field::Fr;
    use zkphire_transcript::Transcript;

    fn roundtrip(system: GateSystem, mu: usize, seed: u64) -> (VerifyingKey, HyperPlonkProof) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (circuit, witness) = Circuit::random(system, mu, 0.5, &mut rng);
        let (pk, vk) = setup(circuit, &mut rng);
        let proof = prove(&pk, &witness, &mut Transcript::new(b"test"));
        (vk, proof)
    }

    #[test]
    fn vanilla_end_to_end() {
        let (vk, proof) = roundtrip(GateSystem::Vanilla, 5, 1);
        verify(&vk, &proof, &mut Transcript::new(b"test")).unwrap();
    }

    #[test]
    fn jellyfish_end_to_end() {
        let (vk, proof) = roundtrip(GateSystem::Jellyfish, 5, 2);
        verify(&vk, &proof, &mut Transcript::new(b"test")).unwrap();
    }

    #[test]
    fn proof_size_formula_matches_real_proofs() {
        for (system, sizes) in [
            (GateSystem::Vanilla, [3_360, 4_352, 5_840]),
            (GateSystem::Jellyfish, [4_896, 6_208, 8_176]),
        ] {
            for (mu, want) in [3usize, 5, 8].into_iter().zip(sizes) {
                let (_, proof) = roundtrip(system, mu, 3);
                assert_eq!(proof.size_bytes(), want, "{system:?} µ {mu}: real proof");
                assert_eq!(
                    proof_size_bytes(system, mu),
                    want,
                    "{system:?} µ {mu}: formula"
                );
            }
        }
    }

    #[test]
    fn prover_config_does_not_change_proof() {
        let mut rng = StdRng::seed_from_u64(11);
        let (circuit, witness) = Circuit::random(GateSystem::Jellyfish, 6, 0.5, &mut rng);
        let (pk, vk) = setup(circuit, &mut rng);
        let sequential = prove_with_config(
            &pk,
            &witness,
            &mut Transcript::new(b"cfg"),
            ProverConfig { threads: 1 },
        );
        for threads in [2usize, 4] {
            let parallel = prove_with_config(
                &pk,
                &witness,
                &mut Transcript::new(b"cfg"),
                ProverConfig { threads },
            );
            assert_eq!(
                parallel.to_bytes(),
                sequential.to_bytes(),
                "threads={threads}"
            );
        }
        verify(&vk, &sequential, &mut Transcript::new(b"cfg")).unwrap();
    }

    #[test]
    fn unsatisfied_witness_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let (circuit, mut witness) = Circuit::random(GateSystem::Vanilla, 5, 0.8, &mut rng);
        let bad = witness.columns[2].evals()[9] + Fr::ONE;
        witness.columns[2].evals_mut()[9] = bad;
        let (pk, vk) = setup(circuit, &mut rng);
        let proof = prove(&pk, &witness, &mut Transcript::new(b"test"));
        assert!(verify(&vk, &proof, &mut Transcript::new(b"test")).is_err());
    }

    #[test]
    fn tampered_proof_rejected() {
        let (vk, mut proof) = roundtrip(GateSystem::Vanilla, 4, 4);
        proof.opening_value += Fr::ONE;
        assert!(verify(&vk, &proof, &mut Transcript::new(b"test")).is_err());
    }

    #[test]
    fn tampered_witness_commitment_rejected() {
        let (vk, mut proof) = roundtrip(GateSystem::Vanilla, 4, 5);
        proof.witness_commitments[0] = proof.perm_commitments[0];
        assert!(verify(&vk, &proof, &mut Transcript::new(b"test")).is_err());
    }

    #[test]
    fn wrong_domain_rejected() {
        let (vk, proof) = roundtrip(GateSystem::Vanilla, 4, 6);
        assert!(verify(&vk, &proof, &mut Transcript::new(b"other")).is_err());
    }

    #[test]
    fn proof_size_is_succinct() {
        // At 2^5 rows the proof must be a few KB, not tables of size n.
        let (_, proof) = roundtrip(GateSystem::Jellyfish, 5, 7);
        let size = proof.size_bytes();
        assert!(size < 16 * 1024, "size {size}");
        assert!(size > 1024, "size {size}");
    }
}
