//! Integration: end-to-end HyperPlonk across the whole stack, including
//! attack scenarios that cut across crate boundaries.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zkphire_field::Fr;
use zkphire_hyperplonk::{
    prove, setup, verify, Circuit, GateSystem, HyperPlonkError, HyperPlonkProof, VerifyingKey,
};
use zkphire_sumcheck::SumCheckError;
use zkphire_transcript::Transcript;

/// One valid µ = 4 proof per gate system, built once for the tests that
/// tamper with it.
fn sample(system: GateSystem) -> &'static (VerifyingKey, HyperPlonkProof) {
    static CELLS: [OnceLock<(VerifyingKey, HyperPlonkProof)>; 2] =
        [OnceLock::new(), OnceLock::new()];
    CELLS[usize::from(system == GateSystem::Jellyfish)].get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x7a3e);
        let (circuit, witness) = Circuit::random(system, 4, 0.5, &mut rng);
        let (pk, vk) = setup(circuit, &mut rng);
        let proof = prove(&pk, &witness, &mut Transcript::new(b"e2e"));
        (vk, proof)
    })
}

#[test]
fn both_gate_systems_roundtrip_at_several_sizes() {
    for (system, mu) in [
        (GateSystem::Vanilla, 4usize),
        (GateSystem::Vanilla, 7),
        (GateSystem::Jellyfish, 4),
        (GateSystem::Jellyfish, 6),
    ] {
        let mut rng = StdRng::seed_from_u64(42 + mu as u64);
        let (circuit, witness) = Circuit::random(system, mu, 0.5, &mut rng);
        let (pk, vk) = setup(circuit, &mut rng);
        let proof = prove(&pk, &witness, &mut Transcript::new(b"e2e"));
        verify(&vk, &proof, &mut Transcript::new(b"e2e"))
            .unwrap_or_else(|e| panic!("{system:?} mu={mu}: {e}"));
    }
}

#[test]
fn copy_constraint_violation_rejected_end_to_end() {
    // Break a wire copy (gate constraints still hold on the broken row's
    // inputs): only the permutation argument can catch this.
    let mut rng = StdRng::seed_from_u64(77);
    let (circuit, mut witness) = Circuit::random(GateSystem::Vanilla, 6, 0.9, &mut rng);
    let n = circuit.num_rows();
    let cell = circuit
        .sigma
        .iter()
        .enumerate()
        .find(|(i, &s)| *i != s)
        .map(|(i, _)| i)
        .expect("copy constraint exists");
    // Rewrite the copied input and re-derive the row's output so the gate
    // identity still holds; only σ-consistency is now broken.
    let (col, row) = (cell / n, cell % n);
    if col == circuit.system.num_witness_columns() - 1 {
        panic!("seed 77 must pick an input cell: output cells rewire differently");
    }
    let forged = witness.columns[col].evals()[row] + Fr::ONE;
    witness.columns[col].evals_mut()[row] = forged;
    // Recompute the output column for that row from the selectors.
    let w1 = witness.columns[0].evals()[row];
    let w2 = witness.columns[1].evals()[row];
    let ql = circuit.selectors[0].evals()[row];
    let qm = circuit.selectors[2].evals()[row];
    let qc = circuit.selectors[4].evals()[row];
    let out = ql * (w1 + w2) + qm * w1 * w2 + qc; // qL=qR in our generator
    if !circuit.selectors[3].evals()[row].is_zero() {
        witness.columns[2].evals_mut()[row] = out;
    }

    let (pk, vk) = setup(circuit, &mut rng);
    let proof = prove(&pk, &witness, &mut Transcript::new(b"e2e"));
    let result = verify(&vk, &proof, &mut Transcript::new(b"e2e"));
    assert!(
        matches!(result, Err(HyperPlonkError::ClaimSumMismatch)),
        "copy violation must break the OpenCheck claim sum: {result:?}"
    );
}

#[test]
fn bumped_output_cell_fails_the_gate_zero_check_by_name() {
    // One output cell of an active row (every active row sets q_O) off by
    // one breaks that row's gate identity: the honest prover's gate
    // ZeroCheck claims a non-zero sum, and the verifier names that check
    // before any round runs.
    for system in [GateSystem::Vanilla, GateSystem::Jellyfish] {
        let mut rng = StdRng::seed_from_u64(0x0b0e);
        let (circuit, mut witness) = Circuit::random(system, 4, 0.5, &mut rng);
        let row = (0..circuit.num_rows())
            .find(|&r| circuit.selectors.iter().any(|q| !q.evals()[r].is_zero()))
            .expect("an active row");
        let out = witness.columns.last_mut().expect("an output column");
        let bumped = out.evals()[row] + Fr::ONE;
        out.evals_mut()[row] = bumped;
        let (pk, vk) = setup(circuit, &mut rng);
        let proof = prove(&pk, &witness, &mut Transcript::new(b"e2e"));
        assert_eq!(
            verify(&vk, &proof, &mut Transcript::new(b"e2e")),
            Err(HyperPlonkError::GateCheck(SumCheckError::NonZeroClaim)),
            "{system:?}"
        );
    }
}

#[test]
fn proof_transplant_between_circuits_rejected() {
    // A valid proof for circuit A must not verify under circuit B's key.
    let mut rng = StdRng::seed_from_u64(5);
    let (circuit_a, witness_a) = Circuit::random(GateSystem::Vanilla, 5, 0.5, &mut rng);
    let (circuit_b, _) = Circuit::random(GateSystem::Vanilla, 5, 0.5, &mut rng);
    let (pk_a, _) = setup(circuit_a, &mut rng);
    let (_, vk_b) = setup(circuit_b, &mut rng);
    let proof = prove(&pk_a, &witness_a, &mut Transcript::new(b"e2e"));
    assert!(verify(&vk_b, &proof, &mut Transcript::new(b"e2e")).is_err());
}

#[test]
fn truncated_proof_shape_rejected() {
    let mut rng = StdRng::seed_from_u64(6);
    let (circuit, witness) = Circuit::random(GateSystem::Jellyfish, 5, 0.5, &mut rng);
    let (pk, vk) = setup(circuit, &mut rng);
    let mut proof = prove(&pk, &witness, &mut Transcript::new(b"e2e"));
    proof.witness_commitments.pop();
    assert_eq!(
        verify(&vk, &proof, &mut Transcript::new(b"e2e")).unwrap_err(),
        HyperPlonkError::ShapeMismatch
    );
}

#[test]
fn proof_size_grows_logarithmically_with_circuit() {
    let sizes: Vec<usize> = [4usize, 7]
        .iter()
        .map(|&mu| {
            let mut rng = StdRng::seed_from_u64(9 + mu as u64);
            let (circuit, witness) = Circuit::random(GateSystem::Vanilla, mu, 0.5, &mut rng);
            let (pk, _) = setup(circuit, &mut rng);
            prove(&pk, &witness, &mut Transcript::new(b"e2e")).size_bytes()
        })
        .collect();
    // 8x the gates must cost far less than 8x the proof bytes.
    assert!(sizes[1] < 2 * sizes[0], "{sizes:?}");
}

#[test]
fn final_eval_count_mismatch_is_a_shape_error_not_a_panic() {
    type Evals = fn(&mut HyperPlonkProof) -> &mut Vec<Fr>;
    let sumchecks: [(&str, Evals); 3] = [
        ("gate", |p| &mut p.gate_zerocheck.final_mle_evals),
        ("perm", |p| &mut p.perm_zerocheck.final_mle_evals),
        ("opencheck", |p| &mut p.opencheck.final_mle_evals),
    ];
    for system in [GateSystem::Vanilla, GateSystem::Jellyfish] {
        let (vk, proof) = sample(system);
        for (name, evals) in sumchecks {
            for extra in [false, true] {
                let mut bad = proof.clone();
                if extra {
                    evals(&mut bad).push(Fr::ONE);
                } else {
                    evals(&mut bad).pop();
                }
                assert_eq!(
                    verify(vk, &bad, &mut Transcript::new(b"e2e")),
                    Err(HyperPlonkError::ShapeMismatch),
                    "{system:?} {name} with one {} final evaluation",
                    if extra { "more" } else { "fewer" }
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any one byte of a valid proof's encoding is caught by
    /// the decoder or the verifier — never a panic, never an accept.
    #[test]
    fn one_flipped_byte_never_decodes_and_verifies(
        jellyfish in 0u8..2,
        at in any::<u64>(),
        mask in 0u8..255,
    ) {
        let mask = mask + 1;
        let system = if jellyfish == 1 { GateSystem::Jellyfish } else { GateSystem::Vanilla };
        let (vk, proof) = sample(system);
        let mut bytes = proof.to_bytes();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= mask;
        if let Ok(decoded) = HyperPlonkProof::from_bytes(&bytes) {
            prop_assert!(
                verify(vk, &decoded, &mut Transcript::new(b"e2e")).is_err(),
                "{system:?}: byte {at} ^ {mask:#04x} decoded and verified"
            );
        }
    }
}
