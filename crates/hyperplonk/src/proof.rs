//! The HyperPlonk proof object and the shared claim-layout logic that
//! keeps prover and verifier in lockstep through Batch Evaluation and
//! Polynomial Opening.

use zkphire_field::Fr;
use zkphire_pcs::{Commitment, OpeningProof};
use zkphire_poly::CompositePoly;
use zkphire_sumcheck::SumCheckProof;

use crate::circuit::GateSystem;
use crate::prover::opencheck_composite;

/// A complete HyperPlonk proof (paper §IV-A's five steps).
#[derive(Clone, Debug)]
pub struct HyperPlonkProof {
    /// Step 1 — Witness Commitments (sparse MSMs).
    pub witness_commitments: Vec<Commitment>,
    /// Step 2 — Gate Identity ZeroCheck.
    pub gate_zerocheck: SumCheckProof,
    /// Step 3 — Wire Identity: commitments to `ϕ, π, p1, p2`.
    pub perm_commitments: [Commitment; 4],
    /// Step 3 — the PermCheck SumCheck.
    pub perm_zerocheck: SumCheckProof,
    /// Step 4 — Batch Evaluations not already bound by a SumCheck:
    /// `w_i(x_pc)` then `σ_i(x_pc)`.
    pub extra_evals: Vec<Fr>,
    /// Step 5 — the OpenCheck SumCheck combining all claims.
    pub opencheck: SumCheckProof,
    /// Step 5 — the single batched PCS opening.
    pub opening: OpeningProof,
    /// Claimed value of the combined polynomial at the final point.
    pub opening_value: Fr,
}

impl HyperPlonkProof {
    /// Wire size in bytes: 48 B per (compressed) G1 point, 32 B per
    /// scalar — the accounting behind the paper's 4–5 KB proof sizes
    /// (Table IX).
    pub fn size_bytes(&self) -> usize {
        let commitments = self.witness_commitments.len() + self.perm_commitments.len();
        commitments * Commitment::COMPRESSED_SIZE
            + self.gate_zerocheck.size_bytes()
            + self.perm_zerocheck.size_bytes()
            + self.extra_evals.len() * 32
            + self.opencheck.size_bytes()
            + self.opening.size_bytes()
            + 32
    }
}

/// [`HyperPlonkProof::size_bytes`] of every `system` proof over
/// `2^num_vars` gate rows, read off the protocol's layout instead of a
/// proof.
pub fn proof_size_bytes(system: GateSystem, num_vars: usize) -> usize {
    // A SumCheck ships its claimed sum, `degree + 1` evaluations per
    // round and one final evaluation per table.
    let sumcheck = |poly: &CompositePoly| 1 + num_vars * (poly.degree() + 1) + poly.num_mles();
    let layout = claim_layout(system);
    let k_p = num_distinct_polys(system);
    // Witnesses and sigmas at the PermCheck point are the claims no
    // SumCheck binds (the root claim is the constant one).
    let extra_evals = layout
        .iter()
        .filter(|&&(poly, at)| at == 1 && poly < k_p - 4)
        .count();
    let opencheck = opencheck_composite(system, &vec![Fr::ONE; layout.len()]);
    // The three SumChecks, the unbound evaluations and the opening value.
    let scalars = sumcheck(&system.gate().poly)
        + sumcheck(&system.perm_gate().poly)
        + extra_evals
        + sumcheck(&opencheck)
        + 1;
    // Witness and wiring commitments, then one quotient per variable.
    let points = system.num_witness_columns() + 4 + num_vars;
    points * Commitment::COMPRESSED_SIZE + scalars * 32
}

/// Identifies one committed polynomial in the canonical opening order:
/// selectors, witnesses, sigmas, then `ϕ, π, p1, p2`.
pub(crate) fn num_distinct_polys(system: GateSystem) -> usize {
    system.num_selectors() + 2 * system.num_witness_columns() + 4
}

/// Index of evaluation points: 0 = gate-ZeroCheck point, 1 = PermCheck
/// point, 2 = the grand-product root index point.
pub(crate) const NUM_POINTS: usize = 3;

/// The canonical list of `(poly, point)` evaluation claims every proof
/// carries, in transcript order. Values are supplied separately (most are
/// already bound inside the SumCheck proofs).
pub(crate) fn claim_layout(system: GateSystem) -> Vec<(usize, usize)> {
    let s = system.num_selectors();
    let w = system.num_witness_columns();
    let sel = 0..s;
    let wit = s..s + w;
    let sig = s + w..s + 2 * w;
    let phi = s + 2 * w;
    let pi = phi + 1;
    let p1 = pi + 1;
    let p2 = p1 + 1;

    let mut claims = Vec::new();
    // Gate identity point: selectors and witnesses.
    for idx in sel {
        claims.push((idx, 0));
    }
    for idx in wit.clone() {
        claims.push((idx, 0));
    }
    // PermCheck point: π, p1, p2, ϕ plus witnesses and sigmas (used by the
    // verifier to reconstruct N_i and D_i).
    for idx in [pi, p1, p2, phi] {
        claims.push((idx, 1));
    }
    for idx in wit {
        claims.push((idx, 1));
    }
    for idx in sig {
        claims.push((idx, 1));
    }
    // Root point: π must open to exactly 1.
    claims.push((pi, 2));
    claims
}
