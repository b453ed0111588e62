//! The HyperPlonk verifier.
//!
//! Mirrors the prover's transcript step for step, checks both ZeroChecks,
//! binds each SumCheck's final evaluations before the next challenge,
//! reconstructs the Numerator/Denominator claims from witness/σ openings
//! and the closed-form identity MLE, replays the Batch-Evaluation claim
//! list, checks the OpenCheck combination, and finally verifies the single
//! batched PCS opening.

use core::fmt;

use zkphire_field::Fr;
use zkphire_pcs::{combine_commitments, Commitment};
use zkphire_sumcheck::{eq_eval, verify as sumcheck_verify, verify_zero_check, SumCheckError};
use zkphire_transcript::Transcript;

use crate::keys::VerifyingKey;
use crate::permutation::{id_eval, index_point, root_index};
use crate::proof::{claim_layout, num_distinct_polys, HyperPlonkProof, NUM_POINTS};
use crate::prover::{bind_statement, opencheck_composite};

/// Why a HyperPlonk proof was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HyperPlonkError {
    /// The proof shape does not match the verifying key.
    ShapeMismatch,
    /// The Gate Identity ZeroCheck failed.
    GateCheck(SumCheckError),
    /// The Wire Identity PermCheck failed.
    PermCheck(SumCheckError),
    /// A claimed numerator `N_i` disagrees with `w_i + β id_i + γ`.
    NumeratorMismatch {
        /// Offending witness column.
        column: usize,
    },
    /// A claimed denominator `D_i` disagrees with `w_i + β σ_i + γ`.
    DenominatorMismatch {
        /// Offending witness column.
        column: usize,
    },
    /// The OpenCheck SumCheck failed.
    OpenCheck(SumCheckError),
    /// The OpenCheck claim does not equal `Σ η_j y_j`.
    ClaimSumMismatch,
    /// An `eq` evaluation inside OpenCheck disagrees with its closed form.
    EqEvalMismatch {
        /// Offending point index (0 = gate, 1 = perm, 2 = root).
        point: usize,
    },
    /// The combined polynomial's claimed value disagrees with `Σ ζ_i y_i`.
    CombinedEvalMismatch,
    /// The final PCS opening failed.
    OpeningInvalid,
}

impl fmt::Display for HyperPlonkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ShapeMismatch => write!(f, "proof shape does not match the verifying key"),
            Self::GateCheck(e) => write!(f, "gate identity check failed: {e}"),
            Self::PermCheck(e) => write!(f, "wire identity check failed: {e}"),
            Self::NumeratorMismatch { column } => {
                write!(f, "numerator claim mismatch in column {column}")
            }
            Self::DenominatorMismatch { column } => {
                write!(f, "denominator claim mismatch in column {column}")
            }
            Self::OpenCheck(e) => write!(f, "opencheck failed: {e}"),
            Self::ClaimSumMismatch => write!(f, "opencheck claim does not match the batch"),
            Self::EqEvalMismatch { point } => {
                write!(f, "eq evaluation mismatch at point {point}")
            }
            Self::CombinedEvalMismatch => {
                write!(f, "combined polynomial evaluation mismatch")
            }
            Self::OpeningInvalid => write!(f, "final polynomial opening is invalid"),
        }
    }
}

impl std::error::Error for HyperPlonkError {}

/// Verifies a HyperPlonk proof.
///
/// # Errors
///
/// Returns the first failed check as a [`HyperPlonkError`].
pub fn verify(
    vk: &VerifyingKey,
    proof: &HyperPlonkProof,
    transcript: &mut Transcript,
) -> Result<(), HyperPlonkError> {
    let system = vk.system;
    let mu = vk.num_vars;
    let n = 1usize << mu;
    let s = system.num_selectors();
    let w_cols = system.num_witness_columns();
    let gate = system.gate();
    let perm_gate = system.perm_gate();
    let k_p = num_distinct_polys(system);
    if proof.witness_commitments.len() != w_cols
        || proof.extra_evals.len() != 2 * w_cols
        || proof.gate_zerocheck.final_mle_evals.len() != gate.poly.num_mles()
        || proof.perm_zerocheck.final_mle_evals.len() != perm_gate.poly.num_mles()
        || proof.opencheck.final_mle_evals.len() != k_p + NUM_POINTS
    {
        return Err(HyperPlonkError::ShapeMismatch);
    }

    bind_statement(
        transcript,
        system,
        mu,
        &vk.selector_commitments,
        &vk.sigma_commitments,
    );
    for c in &proof.witness_commitments {
        transcript.append_bytes(b"hyperplonk/witness", &c.to_bytes());
    }

    // Step 2 — Gate Identity.
    let gate_verified = verify_zero_check(
        &gate.poly,
        system.gate_eq_slot(),
        mu,
        &proof.gate_zerocheck,
        transcript,
    )
    .map_err(HyperPlonkError::GateCheck)?;
    let x_zc = gate_verified.challenges.clone();
    transcript.append_frs(b"hyperplonk/gate_finals", &gate_verified.mle_evals);

    // Step 3 — Wire Identity.
    let beta = transcript.challenge_fr(b"hyperplonk/beta");
    let gamma = transcript.challenge_fr(b"hyperplonk/gamma");
    for c in &proof.perm_commitments {
        transcript.append_bytes(b"hyperplonk/perm", &c.to_bytes());
    }
    let alpha = transcript.challenge_fr(b"hyperplonk/alpha");
    let perm_poly = perm_gate.poly.specialize(&[alpha]);
    let perm_verified = verify_zero_check(
        &perm_poly,
        system.perm_eq_slot(),
        mu,
        &proof.perm_zerocheck,
        transcript,
    )
    .map_err(HyperPlonkError::PermCheck)?;
    let x_pc = perm_verified.challenges.clone();
    transcript.append_frs(b"hyperplonk/perm_finals", &perm_verified.mle_evals);

    // Reconstruct N_i / D_i from the witness/σ claims and the closed-form
    // identity MLE; slots in the PermCheck composite: π p1 p2 ϕ D_1.. N_1..
    transcript.append_frs(b"hyperplonk/extra_evals", &proof.extra_evals);
    let (w_at_pc, sigma_at_pc) = proof.extra_evals.split_at(w_cols);
    for i in 0..w_cols {
        let expected_n = w_at_pc[i] + beta * id_eval(i, n, &x_pc) + gamma;
        if perm_verified.mle_evals[4 + w_cols + i] != expected_n {
            return Err(HyperPlonkError::NumeratorMismatch { column: i });
        }
        let expected_d = w_at_pc[i] + beta * sigma_at_pc[i] + gamma;
        if perm_verified.mle_evals[4 + i] != expected_d {
            return Err(HyperPlonkError::DenominatorMismatch { column: i });
        }
    }

    // Step 4 — replay the Batch-Evaluation claim list.
    let layout = claim_layout(system);
    let mut claim_values = Vec::with_capacity(layout.len());
    claim_values.extend_from_slice(&gate_verified.mle_evals[..s + w_cols]);
    claim_values.extend_from_slice(&perm_verified.mle_evals[..4]);
    claim_values.extend_from_slice(&proof.extra_evals);
    claim_values.push(Fr::ONE); // π at the root must be exactly one
    debug_assert_eq!(claim_values.len(), layout.len());

    // Step 5 — OpenCheck.
    let etas = transcript.challenge_frs(b"hyperplonk/opencheck/eta", layout.len());
    let expected_claim: Fr = etas.iter().zip(&claim_values).map(|(e, y)| *e * *y).sum();
    let oc_poly = opencheck_composite(system, &etas);
    let oc_verified = sumcheck_verify(&oc_poly, mu, &proof.opencheck, transcript)
        .map_err(HyperPlonkError::OpenCheck)?;
    transcript.append_frs(b"hyperplonk/opencheck_finals", &oc_verified.mle_evals);
    if proof.opencheck.claimed_sum != expected_claim {
        return Err(HyperPlonkError::ClaimSumMismatch);
    }
    let r_star = oc_verified.challenges.clone();
    let points = [x_zc, x_pc, index_point(root_index(n), mu)];
    for (t, point) in points.iter().enumerate() {
        if oc_verified.mle_evals[k_p + t] != eq_eval(&r_star, point) {
            return Err(HyperPlonkError::EqEvalMismatch { point: t });
        }
    }

    // Combine commitments homomorphically and verify the single opening.
    let zetas = transcript.challenge_frs(b"hyperplonk/combine/zeta", k_p);
    let mut all_commitments: Vec<Commitment> = Vec::with_capacity(k_p);
    all_commitments.extend_from_slice(&vk.selector_commitments);
    all_commitments.extend_from_slice(&proof.witness_commitments);
    all_commitments.extend_from_slice(&vk.sigma_commitments);
    all_commitments.extend_from_slice(&proof.perm_commitments);
    let combined = combine_commitments(&all_commitments, &zetas);
    let expected_g: Fr = zetas
        .iter()
        .zip(&oc_verified.mle_evals[..k_p])
        .map(|(z, y)| *z * *y)
        .sum();
    if proof.opening_value != expected_g {
        return Err(HyperPlonkError::CombinedEvalMismatch);
    }
    if !vk
        .pcs_verifier
        .verify(&combined, &r_star, proof.opening_value, &proof.opening)
    {
        return Err(HyperPlonkError::OpeningInvalid);
    }
    Ok(())
}
