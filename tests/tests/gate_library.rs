//! Integration: every Table I gate runs through the full functional
//! SumCheck stack (expression expansion → MLE binding → multithreaded
//! prover → verifier), with protocol scalars bound where present.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkphire_field::Fr;
use zkphire_poly::{sparsity, table1_gates};
use zkphire_sumcheck::{count_ops, prove, verify_with_oracle};
use zkphire_transcript::Transcript;

#[test]
fn every_table1_gate_proves_and_verifies() {
    let mu = 6;
    for gate in table1_gates() {
        let mut rng = StdRng::seed_from_u64(1000 + gate.id as u64);
        let scalars: Vec<Fr> = (0..gate.poly.num_scalars())
            .map(|_| Fr::random(&mut rng))
            .collect();
        let poly = gate.poly.specialize(&scalars);
        let mles = sparsity::random_binding(&mut rng, &gate.mle_kinds, mu);

        let mut tp = Transcript::new(b"gate-library");
        let out = prove(&poly, mles.clone(), &mut tp);
        let mut tv = Transcript::new(b"gate-library");
        let verified = verify_with_oracle(&poly, &mles, &out.proof, &mut tv)
            .unwrap_or_else(|e| panic!("gate {} ({}): {e}", gate.id, gate.name));
        assert_eq!(verified.challenges.len(), mu, "gate {}", gate.id);

        // The claim must equal the independent hypercube sum.
        assert_eq!(
            out.proof.claimed_sum,
            poly.sum_over_hypercube(&mles),
            "gate {} claim",
            gate.id
        );
    }
}

#[test]
fn every_gate_matches_analytical_op_counts() {
    // The op-count oracle shared with the hardware model must hold for
    // every gate in the library, not just hand-picked ones. Row `id` holds
    // the `(product_muls, update_muls)` that the per-pair reference
    // prover measured at µ 4, operation for operation, when it still ran
    // beside the round plan.
    const MEASURED: [(u64, u64); 25] = [
        (240, 60),
        (180, 60),
        (135, 60),
        (450, 45),
        (810, 45),
        (810, 45),
        (2_175, 90),
        (720, 105),
        (1_350, 90),
        (2_340, 90),
        (2_730, 75),
        (3_780, 105),
        (3_570, 105),
        (3_780, 120),
        (600, 75),
        (600, 75),
        (600, 75),
        (600, 75),
        (975, 120),
        (975, 120),
        (750, 135),
        (1_080, 165),
        (5_520, 285),
        (1_920, 225),
        (270, 180),
    ];
    let mu = 4;
    for gate in table1_gates() {
        let mut rng = StdRng::seed_from_u64(2000 + gate.id as u64);
        let scalars: Vec<Fr> = (0..gate.poly.num_scalars())
            .map(|_| Fr::random(&mut rng))
            .collect();
        let ops = count_ops(&gate.poly.specialize(&scalars), mu);
        assert_eq!(
            (ops.product_muls, ops.update_muls),
            MEASURED[gate.id],
            "gate {} ({})",
            gate.id,
            gate.name
        );
    }
}

#[test]
fn proofs_are_size_logarithmic() {
    // Succinctness: doubling the table size adds one round, not 2x bytes.
    let gate = zkphire_poly::table1_gate(20);
    let sizes: Vec<usize> = [5usize, 8]
        .iter()
        .map(|&mu| {
            let mut rng = StdRng::seed_from_u64(3000 + mu as u64);
            let mles = sparsity::random_binding(&mut rng, &gate.mle_kinds, mu);
            let mut t = Transcript::new(b"size");
            prove(&gate.poly, mles, &mut t).proof.size_bytes()
        })
        .collect();
    let per_round = (sizes[1] - sizes[0]) / 3;
    assert!(per_round < 1024, "per-round growth {per_round} bytes");
    assert!(sizes[1] < 2 * sizes[0], "not size-logarithmic: {sizes:?}");
}
