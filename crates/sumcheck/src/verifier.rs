//! The SumCheck verifier.
//!
//! Checks the round-consistency conditions of §II-C (`s_i(0) + s_i(1)`
//! equals the previous claim) and the final evaluation of the composite
//! polynomial at the random point. The constituent-MLE evaluations inside
//! the proof are *claims*: [`verify`] returns them for the caller to
//! discharge against polynomial commitments (HyperPlonk's Batch
//! Evaluation / Opening steps), while [`verify_with_oracle`] discharges
//! them directly against in-memory tables (for tests and standalone use).

use core::fmt;

use zkphire_field::Fr;
use zkphire_poly::{CompositePoly, Mle};
use zkphire_transcript::Transcript;

use crate::interp::BarycentricWeights;
use crate::prover::SumCheckProof;

/// Why a SumCheck proof was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SumCheckError {
    /// The proof has the wrong number of rounds for the table size.
    RoundCountMismatch {
        /// Rounds present in the proof.
        got: usize,
        /// Rounds implied by the claimed number of variables.
        expected: usize,
    },
    /// A round polynomial has the wrong number of evaluations.
    EvaluationCountMismatch {
        /// Offending round (0-based).
        round: usize,
    },
    /// `s_i(0) + s_i(1)` disagreed with the running claim.
    RoundSumMismatch {
        /// Offending round (0-based).
        round: usize,
    },
    /// The proof carries fewer final MLE evaluations than the composite
    /// has slots.
    MleEvalCountMismatch {
        /// Evaluations present in the proof.
        got: usize,
        /// Slots of the composite ([`CompositePoly::num_mles`]).
        expected: usize,
    },
    /// The composite evaluated at the final point disagreed with the last
    /// round's claim.
    FinalEvaluationMismatch,
    /// An MLE evaluation claim disagreed with the oracle table.
    OracleMismatch {
        /// Offending MLE slot.
        slot: usize,
    },
    /// A ZeroCheck claimed a non-zero hypercube sum.
    NonZeroClaim,
}

impl fmt::Display for SumCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RoundCountMismatch { got, expected } => {
                write!(f, "proof has {got} rounds, expected {expected}")
            }
            Self::EvaluationCountMismatch { round } => {
                write!(f, "round {round} has the wrong number of evaluations")
            }
            Self::RoundSumMismatch { round } => {
                write!(f, "round {round} evaluations do not sum to the claim")
            }
            Self::MleEvalCountMismatch { got, expected } => {
                write!(
                    f,
                    "proof has {got} final MLE evaluations, expected at least {expected}"
                )
            }
            Self::FinalEvaluationMismatch => {
                write!(
                    f,
                    "final composite evaluation does not match the last claim"
                )
            }
            Self::OracleMismatch { slot } => {
                write!(
                    f,
                    "MLE evaluation claim for slot {slot} does not match the oracle"
                )
            }
            Self::NonZeroClaim => write!(f, "zero-check claims a non-zero sum"),
        }
    }
}

impl std::error::Error for SumCheckError {}

/// Successful verification: the challenge point plus the MLE-evaluation
/// claims that still need to be discharged against commitments.
#[derive(Clone, Debug)]
pub struct VerifiedSumCheck {
    /// The challenge point `r_1..r_µ`.
    pub challenges: Vec<Fr>,
    /// The claimed evaluation of each constituent MLE at `challenges`.
    pub mle_evals: Vec<Fr>,
}

/// Verifies a SumCheck proof against a composite polynomial.
///
/// # Errors
///
/// Returns a [`SumCheckError`] describing the first failed check.
pub fn verify(
    poly: &CompositePoly,
    num_vars: usize,
    proof: &SumCheckProof,
    transcript: &mut Transcript,
) -> Result<VerifiedSumCheck, SumCheckError> {
    let degree = poly.degree();
    let k = degree.max(1) + 1; // mirrors the prover's two-point minimum
    if proof.round_evals.len() != num_vars {
        return Err(SumCheckError::RoundCountMismatch {
            got: proof.round_evals.len(),
            expected: num_vars,
        });
    }
    // Callers may bind more tables than the composite reads (the extra
    // evaluations are claims for them to discharge); fewer would leave
    // a slot of the final evaluation without a value.
    if proof.final_mle_evals.len() < poly.num_mles() {
        return Err(SumCheckError::MleEvalCountMismatch {
            got: proof.final_mle_evals.len(),
            expected: poly.num_mles(),
        });
    }

    transcript.append_u64(b"sumcheck/num_vars", num_vars as u64);
    transcript.append_u64(b"sumcheck/degree", degree as u64);

    // Every round interpolates on the same node set 0..=k-1: precompute
    // the barycentric weights once (one batch inversion for the whole
    // proof) so the per-round evaluation is inversion-free.
    let weights = BarycentricWeights::new(k - 1);
    let mut challenges = Vec::with_capacity(num_vars);
    let mut claim = proof.claimed_sum;
    for (round, evals) in proof.round_evals.iter().enumerate() {
        if evals.len() != k {
            return Err(SumCheckError::EvaluationCountMismatch { round });
        }
        if evals[0] + evals[1] != claim {
            return Err(SumCheckError::RoundSumMismatch { round });
        }
        if round == 0 {
            transcript.append_fr(b"sumcheck/claim", &proof.claimed_sum);
        }
        transcript.append_frs(b"sumcheck/round", evals);
        let r = transcript.challenge_fr(b"sumcheck/challenge");
        claim = weights.interpolate(evals, r);
        challenges.push(r);
    }

    let final_value = poly.evaluate_with_mle_values(&proof.final_mle_evals);
    if final_value != claim {
        return Err(SumCheckError::FinalEvaluationMismatch);
    }

    Ok(VerifiedSumCheck {
        challenges,
        mle_evals: proof.final_mle_evals.clone(),
    })
}

/// Verifies a proof and discharges every MLE-evaluation claim against the
/// original tables.
///
/// # Errors
///
/// Returns a [`SumCheckError`] describing the first failed check.
pub fn verify_with_oracle(
    poly: &CompositePoly,
    mles: &[Mle],
    proof: &SumCheckProof,
    transcript: &mut Transcript,
) -> Result<VerifiedSumCheck, SumCheckError> {
    let num_vars = mles.first().map_or(0, Mle::num_vars);
    let verified = verify(poly, num_vars, proof, transcript)?;
    for (slot, (m, claimed)) in mles.iter().zip(&verified.mle_evals).enumerate() {
        if m.evaluate(&verified.challenges) != *claimed {
            return Err(SumCheckError::OracleMismatch { slot });
        }
    }
    Ok(verified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prover::prove;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkphire_poly::{MleId, Term};

    fn setup(num_vars: usize, seed: u64) -> (CompositePoly, Vec<Mle>) {
        let poly = CompositePoly::new(vec![
            Term {
                coeff: Fr::ONE,
                scalars: vec![],
                factors: vec![MleId(0), MleId(1)],
            },
            Term {
                coeff: Fr::from_u64(5),
                scalars: vec![],
                factors: vec![MleId(2), MleId(2), MleId(0)],
            },
        ]);
        let mut rng = StdRng::seed_from_u64(seed);
        let mles = (0..3)
            .map(|_| Mle::from_fn(num_vars, |_| Fr::random(&mut rng)))
            .collect();
        (poly, mles)
    }

    #[test]
    fn roundtrip_accepts() {
        let (poly, mles) = setup(6, 1);
        let mut tp = Transcript::new(b"rt");
        let out = prove(&poly, mles.clone(), &mut tp);
        let mut tv = Transcript::new(b"rt");
        let verified = verify_with_oracle(&poly, &mles, &out.proof, &mut tv).unwrap();
        assert_eq!(verified.challenges, out.challenges);
    }

    #[test]
    fn tampered_claim_rejected() {
        let (poly, mles) = setup(5, 2);
        let mut tp = Transcript::new(b"rt");
        let mut out = prove(&poly, mles, &mut tp);
        out.proof.claimed_sum += Fr::ONE;
        let mut tv = Transcript::new(b"rt");
        assert_eq!(
            verify(&poly, 5, &out.proof, &mut tv).unwrap_err(),
            SumCheckError::RoundSumMismatch { round: 0 }
        );
    }

    #[test]
    fn tampered_round_rejected() {
        let (poly, mles) = setup(5, 3);
        let mut tp = Transcript::new(b"rt");
        let mut out = prove(&poly, mles, &mut tp);
        out.proof.round_evals[2][1] += Fr::ONE;
        let mut tv = Transcript::new(b"rt");
        assert!(verify(&poly, 5, &out.proof, &mut tv).is_err());
    }

    #[test]
    fn tampered_final_eval_rejected() {
        let (poly, mles) = setup(4, 4);
        let mut tp = Transcript::new(b"rt");
        let mut out = prove(&poly, mles.clone(), &mut tp);
        out.proof.final_mle_evals[0] += Fr::ONE;
        let mut tv = Transcript::new(b"rt");
        assert_eq!(
            verify(&poly, 4, &out.proof, &mut tv).unwrap_err(),
            SumCheckError::FinalEvaluationMismatch
        );
    }

    #[test]
    fn missing_final_eval_rejected_not_panicking() {
        let (poly, mles) = setup(4, 8);
        let mut tp = Transcript::new(b"rt");
        let mut out = prove(&poly, mles, &mut tp);
        out.proof.final_mle_evals.pop();
        let mut tv = Transcript::new(b"rt");
        assert_eq!(
            verify(&poly, 4, &out.proof, &mut tv).unwrap_err(),
            SumCheckError::MleEvalCountMismatch {
                got: 2,
                expected: 3
            }
        );
    }

    #[test]
    fn oracle_mismatch_detected() {
        let (poly, mles) = setup(4, 5);
        let mut tp = Transcript::new(b"rt");
        let out = prove(&poly, mles.clone(), &mut tp);
        // Consistent proof but wrong oracle tables.
        let (_, other_mles) = setup(4, 99);
        let mut tv = Transcript::new(b"rt");
        let result = verify_with_oracle(&poly, &other_mles, &out.proof, &mut tv);
        assert!(matches!(result, Err(SumCheckError::OracleMismatch { .. })));
    }

    #[test]
    fn wrong_round_count_rejected() {
        let (poly, mles) = setup(4, 6);
        let mut tp = Transcript::new(b"rt");
        let out = prove(&poly, mles, &mut tp);
        let mut tv = Transcript::new(b"rt");
        assert_eq!(
            verify(&poly, 5, &out.proof, &mut tv).unwrap_err(),
            SumCheckError::RoundCountMismatch {
                got: 4,
                expected: 5
            }
        );
    }

    #[test]
    fn transcript_domain_binding() {
        // A proof made under one domain must not verify under another.
        let (poly, mles) = setup(4, 7);
        let mut tp = Transcript::new(b"domain-a");
        let out = prove(&poly, mles, &mut tp);
        let mut tv = Transcript::new(b"domain-b");
        assert!(verify(&poly, 4, &out.proof, &mut tv).is_err());
    }
}
