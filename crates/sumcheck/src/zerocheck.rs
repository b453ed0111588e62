//! ZeroCheck: proving that a composite polynomial vanishes on the whole
//! hypercube.
//!
//! `Σ_x f(x) = 0` alone is not enough — non-zero gate errors could cancel.
//! ZeroCheck multiplies `f` by the random multilinear `eq(x, r)` (written
//! `f_r` in the paper) so any violation is caught with overwhelming
//! probability (§III-F). In hardware this auxiliary polynomial is fused
//! into the first SumCheck round by the Build-MLE lane; here it is built
//! explicitly with [`Mle::eq_table`] and bound by the prover itself, so a
//! caller never allocates a table for that slot
//! ([`prove_zero_check_borrowed`]).

use std::borrow::Cow;

use zkphire_field::Fr;
use zkphire_poly::{CompositePoly, Mle, MleId};
use zkphire_transcript::Transcript;

use crate::prover::{owned, prove_borrowed, ProverOutput};
use crate::verifier::{verify, SumCheckError, VerifiedSumCheck};

/// Evaluates `eq(x, r) = Π_j (x_j r_j + (1 - x_j)(1 - r_j))` at field
/// points — the closed form the verifier uses instead of trusting an
/// oracle for `f_r`.
///
/// # Panics
///
/// Panics if the two points have different arity.
pub fn eq_eval(x: &[Fr], r: &[Fr]) -> Fr {
    assert_eq!(x.len(), r.len(), "eq_eval arity mismatch");
    let mut acc = Fr::ONE;
    for (&xj, &rj) in x.iter().zip(r) {
        acc *= xj * rj + (Fr::ONE - xj) * (Fr::ONE - rj);
    }
    acc
}

/// Proves that `gate` (a composite whose slot `eq_slot` is reserved for
/// `f_r`) vanishes everywhere on the hypercube, on `threads` workers (see
/// [`prove_with_threads`](crate::prove_with_threads)); transcripts are
/// identical for every count.
///
/// `mles` must bind *every* slot including `eq_slot`; whatever is bound
/// there is replaced by the transcript-derived `eq(x, r)` table,
/// mirroring the paper's on-the-fly construction.
///
/// Returns the prover output plus the ZeroCheck randomness `r`.
pub fn prove_zero_check_with_threads(
    gate: &CompositePoly,
    eq_slot: MleId,
    mut mles: Vec<Mle>,
    transcript: &mut Transcript,
    threads: usize,
) -> (ProverOutput, Vec<Fr>) {
    // The placeholder is dropped before the prover allocates anything.
    mles.remove(eq_slot.0);
    prove_zero_check_borrowed(gate, eq_slot, owned(mles), transcript, threads)
}

/// [`prove_zero_check_with_threads`] over a binding of every slot *except*
/// `eq_slot`, in slot order, whose tables may be borrowed (see
/// [`prove_borrowed`]): the `eq(x, r)` table is built from the transcript
/// and inserted at `eq_slot`, so that slot costs the caller nothing.
/// Proofs and transcripts equal those of the owned entry points.
///
/// # Panics
///
/// Panics if `tables` is empty or the binding is invalid.
pub fn prove_zero_check_borrowed(
    gate: &CompositePoly,
    eq_slot: MleId,
    mut tables: Vec<Cow<'_, Mle>>,
    transcript: &mut Transcript,
    threads: usize,
) -> (ProverOutput, Vec<Fr>) {
    let num_vars = tables.first().expect("at least one MLE").num_vars();
    let r = transcript.challenge_frs(b"zerocheck/r", num_vars);
    tables.insert(eq_slot.0, Cow::Owned(Mle::eq_table(&r)));
    let out = prove_borrowed(gate, tables, transcript, threads);
    (out, r)
}

/// Verifies a ZeroCheck proof.
///
/// Checks the SumCheck, that the claim is zero, and that the `f_r`
/// evaluation claim matches the closed-form [`eq_eval`]. The remaining
/// evaluation claims (everything except `eq_slot`) are returned for the
/// caller to discharge.
///
/// # Errors
///
/// Returns a [`SumCheckError`] on the first failed check: a non-zero claim
/// is [`SumCheckError::NonZeroClaim`], checked before any round; a failed
/// SumCheck is the error [`verify`] returns; and an `f_r` evaluation claim
/// that is not `eq(challenges, r)` is [`SumCheckError::OracleMismatch`] on
/// the eq slot.
pub fn verify_zero_check(
    gate: &CompositePoly,
    eq_slot: MleId,
    num_vars: usize,
    proof: &crate::prover::SumCheckProof,
    transcript: &mut Transcript,
) -> Result<VerifiedSumCheck, SumCheckError> {
    let r = transcript.challenge_frs(b"zerocheck/r", num_vars);
    if !proof.claimed_sum.is_zero() {
        return Err(SumCheckError::NonZeroClaim);
    }
    let verified = verify(gate, num_vars, proof, transcript)?;
    let expected_eq = eq_eval(&verified.challenges, &r);
    if verified.mle_evals[eq_slot.0] != expected_eq {
        return Err(SumCheckError::OracleMismatch { slot: eq_slot.0 });
    }
    Ok(verified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkphire_field::Fr;
    use zkphire_poly::table1_gate;

    /// Builds a satisfied Vanilla-gate binding: w3 = w1 * w2 with q_M = q_O = 1.
    fn satisfied_vanilla(num_vars: usize, seed: u64) -> (CompositePoly, MleId, Vec<Mle>) {
        let gate = table1_gate(20);
        let mut rng = StdRng::seed_from_u64(seed);
        let w1 = Mle::from_fn(num_vars, |_| Fr::random(&mut rng));
        let w2 = Mle::from_fn(num_vars, |_| Fr::random(&mut rng));
        let w3 = Mle::from_fn(num_vars, |i| w1.evals()[i] * w2.evals()[i]);
        // Slot order: q_L q_R q_M q_O q_C w1 w2 w3 f_r
        let mles = vec![
            Mle::zero(num_vars),
            Mle::zero(num_vars),
            Mle::constant(Fr::ONE, num_vars),
            Mle::constant(Fr::ONE, num_vars),
            Mle::zero(num_vars),
            w1,
            w2,
            w3,
            Mle::zero(num_vars), // placeholder for f_r
        ];
        (gate.poly, MleId(8), mles)
    }

    #[test]
    fn eq_eval_matches_table() {
        let mut rng = StdRng::seed_from_u64(1);
        let r: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
        let x: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
        let table = Mle::eq_table(&r);
        assert_eq!(table.evaluate(&x), eq_eval(&x, &r));
    }

    #[test]
    fn satisfied_circuit_verifies() {
        let (gate, eq_slot, mles) = satisfied_vanilla(5, 2);
        let mut tp = Transcript::new(b"zc");
        let (out, _) = prove_zero_check_with_threads(&gate, eq_slot, mles, &mut tp, 1);
        assert!(out.proof.claimed_sum.is_zero());
        let mut tv = Transcript::new(b"zc");
        verify_zero_check(&gate, eq_slot, 5, &out.proof, &mut tv).unwrap();
    }

    #[test]
    fn borrowed_binding_matches_owned() {
        // Same proof, randomness and transcript state whether the caller
        // binds a placeholder it owns or borrows every other slot.
        let (gate, eq_slot, mles) = satisfied_vanilla(5, 6);
        let mut to = Transcript::new(b"zc");
        let owned = prove_zero_check_with_threads(&gate, eq_slot, mles.clone(), &mut to, 2);
        let others = mles[..eq_slot.0].iter().map(Cow::Borrowed).collect();
        let mut tb = Transcript::new(b"zc");
        let borrowed = prove_zero_check_borrowed(&gate, eq_slot, others, &mut tb, 2);
        assert_eq!(owned.0.proof, borrowed.0.proof);
        assert_eq!(owned.0.challenges, borrowed.0.challenges);
        assert_eq!(owned.1, borrowed.1);
        assert_eq!(to.challenge_fr(b"probe"), tb.challenge_fr(b"probe"));
    }

    #[test]
    fn violated_gate_rejected() {
        let (gate, eq_slot, mut mles) = satisfied_vanilla(5, 3);
        // Corrupt one wire value: the circuit no longer satisfies the gate.
        let bad = mles[7].evals()[3] + Fr::ONE;
        mles[7].evals_mut()[3] = bad;
        let mut tp = Transcript::new(b"zc");
        let (out, _) = prove_zero_check_with_threads(&gate, eq_slot, mles, &mut tp, 1);
        // An honest prover produces a non-zero claim; verification fails.
        let mut tv = Transcript::new(b"zc");
        assert_eq!(
            verify_zero_check(&gate, eq_slot, 5, &out.proof, &mut tv).unwrap_err(),
            SumCheckError::NonZeroClaim
        );
    }

    #[test]
    fn cancellation_attack_caught() {
        // Gate errors +1 and -1 cancel in the plain sum but not under f_r.
        let (gate, eq_slot, mut mles) = satisfied_vanilla(4, 4);
        let e0 = mles[7].evals()[0] + Fr::ONE;
        let e1 = mles[7].evals()[1] - Fr::ONE;
        mles[7].evals_mut()[0] = e0;
        mles[7].evals_mut()[1] = e1;
        // Plain hypercube sum of the raw gate (without f_r) would be zero;
        // with f_r bound to eq the ZeroCheck claim is non-zero.
        let mut tp = Transcript::new(b"zc");
        let (out, _) = prove_zero_check_with_threads(&gate, eq_slot, mles, &mut tp, 1);
        assert!(!out.proof.claimed_sum.is_zero());
        let mut tv = Transcript::new(b"zc");
        assert_eq!(
            verify_zero_check(&gate, eq_slot, 4, &out.proof, &mut tv).unwrap_err(),
            SumCheckError::NonZeroClaim
        );
    }

    #[test]
    fn forged_eq_eval_rejected() {
        let (gate, eq_slot, mles) = satisfied_vanilla(4, 5);
        let mut tp = Transcript::new(b"zc");
        let (mut out, _) = prove_zero_check_with_threads(&gate, eq_slot, mles, &mut tp, 1);
        // Tamper with the claimed f_r evaluation (and nothing else): the
        // composite at the final point no longer meets the last claim.
        out.proof.final_mle_evals[eq_slot.0] += Fr::ONE;
        let mut tv = Transcript::new(b"zc");
        assert_eq!(
            verify_zero_check(&gate, eq_slot, 4, &out.proof, &mut tv).unwrap_err(),
            SumCheckError::FinalEvaluationMismatch
        );
    }
}
