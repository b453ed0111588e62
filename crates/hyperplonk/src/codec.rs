//! Wire format for HyperPlonk proofs.
//!
//! A simple self-describing byte format: little-endian `u32` counts
//! prefix every variable-length section; field elements are 32-byte
//! canonical little-endian; G1 points use the 97-byte uncompressed
//! encoding of [`G1Affine::to_bytes`]. (The paper's proof-size accounting
//! assumes 48-byte compressed points; [`HyperPlonkProof::size_bytes`]
//! reports that figure, while this codec favours simplicity.)
//!
//! Decoding accepts exactly the bytes [`HyperPlonkProof::to_bytes`]
//! emits: a scalar or coordinate `≥` its modulus, an infinity flag other
//! than 0 or 1, an identity point with non-zero coordinates, or bytes
//! after the last section are errors, not aliases of a valid proof.

use core::fmt;

use zkphire_curve::G1Affine;
use zkphire_field::{Fq, Fr};
use zkphire_pcs::{Commitment, OpeningProof};
use zkphire_sumcheck::SumCheckProof;

use crate::proof::HyperPlonkProof;

/// Why a proof failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before a section was complete.
    UnexpectedEnd,
    /// A point failed the curve-membership check.
    InvalidPoint,
    /// A declared count is implausibly large for the input length.
    CorruptCount,
    /// A field element, flag byte or identity point is not in the form
    /// `to_bytes` emits.
    NonCanonical,
    /// Bytes remain after the last section.
    TrailingBytes,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnexpectedEnd => write!(f, "input truncated"),
            Self::InvalidPoint => write!(f, "encoded point is not on the curve"),
            Self::CorruptCount => write!(f, "section count exceeds input length"),
            Self::NonCanonical => write!(f, "non-canonical field element or point encoding"),
            Self::TrailingBytes => write!(f, "trailing bytes after the proof"),
        }
    }
}

impl std::error::Error for DecodeError {}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::CorruptCount)?;
        if end > self.data.len() {
            return Err(DecodeError::UnexpectedEnd);
        }
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn count(&mut self) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        // Every counted element occupies at least one byte.
        if n > self.data.len() {
            return Err(DecodeError::CorruptCount);
        }
        Ok(n)
    }

    fn fr(&mut self) -> Result<Fr, DecodeError> {
        Fr::from_canonical_limbs(le_limbs(self.take(32)?)).ok_or(DecodeError::NonCanonical)
    }

    fn frs(&mut self) -> Result<Vec<Fr>, DecodeError> {
        let n = self.count()?;
        (0..n).map(|_| self.fr()).collect()
    }

    fn point(&mut self) -> Result<G1Affine, DecodeError> {
        let bytes = self.take(97)?;
        let (Some(x), Some(y)) = (
            Fq::from_canonical_limbs(le_limbs(&bytes[1..49])),
            Fq::from_canonical_limbs(le_limbs(&bytes[49..97])),
        ) else {
            return Err(DecodeError::NonCanonical);
        };
        match bytes[0] {
            0 => {
                let p = G1Affine {
                    x,
                    y,
                    infinity: false,
                };
                if p.is_on_curve() {
                    Ok(p)
                } else {
                    Err(DecodeError::InvalidPoint)
                }
            }
            1 if x.is_zero() && y.is_zero() => Ok(G1Affine::identity()),
            _ => Err(DecodeError::NonCanonical),
        }
    }

    fn points(&mut self) -> Result<Vec<G1Affine>, DecodeError> {
        let n = self.count()?;
        (0..n).map(|_| self.point()).collect()
    }
}

/// Little-endian limbs of `8 * N` bytes.
fn le_limbs<const N: usize>(bytes: &[u8]) -> [u64; N] {
    let mut limbs = [0u64; N];
    for (limb, chunk) in limbs.iter_mut().zip(bytes.chunks_exact(8)) {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        *limb = u64::from_le_bytes(word);
    }
    limbs
}

fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

fn put_frs(out: &mut Vec<u8>, values: &[Fr]) {
    put_u32(out, values.len());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_points(out: &mut Vec<u8>, points: &[G1Affine]) {
    put_u32(out, points.len());
    for p in points {
        out.extend_from_slice(&p.to_bytes());
    }
}

fn put_sumcheck(out: &mut Vec<u8>, proof: &SumCheckProof) {
    out.extend_from_slice(&proof.claimed_sum.to_le_bytes());
    put_u32(out, proof.round_evals.len());
    for round in &proof.round_evals {
        put_frs(out, round);
    }
    put_frs(out, &proof.final_mle_evals);
}

fn read_sumcheck(r: &mut Reader<'_>) -> Result<SumCheckProof, DecodeError> {
    let claimed_sum = r.fr()?;
    let rounds = r.count()?;
    let round_evals = (0..rounds)
        .map(|_| r.frs())
        .collect::<Result<Vec<_>, _>>()?;
    let final_mle_evals = r.frs()?;
    Ok(SumCheckProof {
        claimed_sum,
        round_evals,
        final_mle_evals,
    })
}

impl HyperPlonkProof {
    /// Serializes the proof to a self-describing byte string.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_points(
            &mut out,
            &self
                .witness_commitments
                .iter()
                .map(|c| c.0)
                .collect::<Vec<_>>(),
        );
        put_sumcheck(&mut out, &self.gate_zerocheck);
        put_points(
            &mut out,
            &self
                .perm_commitments
                .iter()
                .map(|c| c.0)
                .collect::<Vec<_>>(),
        );
        put_sumcheck(&mut out, &self.perm_zerocheck);
        put_frs(&mut out, &self.extra_evals);
        put_sumcheck(&mut out, &self.opencheck);
        put_points(&mut out, &self.opening.quotients);
        out.extend_from_slice(&self.opening_value.to_le_bytes());
        out
    }

    /// Decodes a proof produced by [`to_bytes`](Self::to_bytes).
    ///
    /// Structural validity (canonical encodings, curve membership,
    /// section framing) is checked here; cryptographic validity is the
    /// verifier's job.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input.
    pub fn from_bytes(data: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader { data, pos: 0 };
        let witness_commitments = r.points()?.into_iter().map(Commitment).collect();
        let gate_zerocheck = read_sumcheck(&mut r)?;
        let perm_points = r.points()?;
        if perm_points.len() != 4 {
            return Err(DecodeError::CorruptCount);
        }
        let perm_commitments = [
            Commitment(perm_points[0]),
            Commitment(perm_points[1]),
            Commitment(perm_points[2]),
            Commitment(perm_points[3]),
        ];
        let perm_zerocheck = read_sumcheck(&mut r)?;
        let extra_evals = r.frs()?;
        let opencheck = read_sumcheck(&mut r)?;
        let opening = OpeningProof {
            quotients: r.points()?,
        };
        let opening_value = r.fr()?;
        if r.pos != data.len() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(Self {
            witness_commitments,
            gate_zerocheck,
            perm_commitments,
            perm_zerocheck,
            extra_evals,
            opencheck,
            opening,
            opening_value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prove, setup, verify, Circuit, GateSystem};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkphire_transcript::Transcript;

    fn sample_proof() -> (crate::VerifyingKey, HyperPlonkProof) {
        let mut rng = StdRng::seed_from_u64(314);
        let (circuit, witness) = Circuit::random(GateSystem::Vanilla, 4, 0.5, &mut rng);
        let (pk, vk) = setup(circuit, &mut rng);
        let proof = prove(&pk, &witness, &mut Transcript::new(b"codec"));
        (vk, proof)
    }

    #[test]
    fn roundtrip_preserves_verification() {
        let (vk, proof) = sample_proof();
        let bytes = proof.to_bytes();
        let decoded = HyperPlonkProof::from_bytes(&bytes).unwrap();
        verify(&vk, &decoded, &mut Transcript::new(b"codec")).unwrap();
    }

    #[test]
    fn roundtrip_is_identity_on_bytes() {
        let (_, proof) = sample_proof();
        let bytes = proof.to_bytes();
        let decoded = HyperPlonkProof::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn truncated_input_rejected() {
        let (_, proof) = sample_proof();
        let bytes = proof.to_bytes();
        for cut in [0usize, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                HyperPlonkProof::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn off_curve_point_rejected() {
        let (_, proof) = sample_proof();
        let mut bytes = proof.to_bytes();
        // Corrupt the first witness commitment's x-coordinate (skip the
        // 4-byte count and the infinity flag).
        bytes[5] ^= 0xff;
        assert_eq!(
            HyperPlonkProof::from_bytes(&bytes).unwrap_err(),
            DecodeError::InvalidPoint
        );
    }

    #[test]
    fn corrupt_count_rejected() {
        let (_, proof) = sample_proof();
        let mut bytes = proof.to_bytes();
        bytes[0] = 0xff;
        bytes[1] = 0xff;
        assert!(HyperPlonkProof::from_bytes(&bytes).is_err());
    }

    #[test]
    fn trailing_byte_rejected() {
        let (_, proof) = sample_proof();
        let mut bytes = proof.to_bytes();
        bytes.push(0);
        assert_eq!(
            HyperPlonkProof::from_bytes(&bytes).unwrap_err(),
            DecodeError::TrailingBytes
        );
    }

    #[test]
    fn scalar_plus_modulus_rejected() {
        let (_, proof) = sample_proof();
        let mut bytes = proof.to_bytes();
        // opening_value + r: the same residue, a different encoding.
        let at = bytes.len() - 32;
        let mut carry = 1u16; // (r - 1) + 1
        for (b, m) in bytes[at..].iter_mut().zip((-Fr::ONE).to_le_bytes()) {
            let sum = u16::from(*b) + u16::from(m) + carry;
            *b = sum as u8;
            carry = sum >> 8;
        }
        assert_eq!(carry, 0, "v + r fits in 32 bytes");
        assert_eq!(
            HyperPlonkProof::from_bytes(&bytes).unwrap_err(),
            DecodeError::NonCanonical
        );
    }

    #[test]
    fn coordinate_at_or_above_modulus_rejected() {
        let (_, proof) = sample_proof();
        let mut bytes = proof.to_bytes();
        // First witness commitment's x: 2^384 - 1 > p.
        bytes[5..53].fill(0xff);
        assert_eq!(
            HyperPlonkProof::from_bytes(&bytes).unwrap_err(),
            DecodeError::NonCanonical
        );
    }

    #[test]
    fn infinity_flag_outside_zero_one_rejected() {
        let (_, proof) = sample_proof();
        let mut bytes = proof.to_bytes();
        bytes[4] = 2;
        assert_eq!(
            HyperPlonkProof::from_bytes(&bytes).unwrap_err(),
            DecodeError::NonCanonical
        );
    }

    #[test]
    fn identity_with_nonzero_coordinates_rejected() {
        let (_, proof) = sample_proof();
        let mut bytes = proof.to_bytes();
        assert!(!proof.witness_commitments[0].0.is_identity());
        bytes[4] = 1;
        assert_eq!(
            HyperPlonkProof::from_bytes(&bytes).unwrap_err(),
            DecodeError::NonCanonical
        );
    }

    #[test]
    fn tampered_scalar_decodes_but_fails_verification() {
        let (vk, proof) = sample_proof();
        let mut bytes = proof.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 1; // opening value
        let decoded = HyperPlonkProof::from_bytes(&bytes).unwrap();
        assert!(verify(&vk, &decoded, &mut Transcript::new(b"codec")).is_err());
    }
}
