//! Multilinear polynomial commitment scheme (PST13-style multilinear KZG).
//!
//! HyperPlonk commits to MLE tables with a pairing-based multilinear KZG
//! scheme whose prover-side kernels — Lagrange-basis MSMs for commitments
//! and quotient MSMs for openings — are exactly what zkPHIRE's MSM unit
//! accelerates (paper §II-B, §IV-A). This crate implements the full prover
//! side over BLS12-381 G1.
//!
//! # Verification substitution (DESIGN.md S1)
//!
//! The paper's verifier checks openings with a BLS12-381 pairing; the
//! *accelerator never computes pairings*. Here [`TrapdoorVerifier`] checks
//! the same equation in the exponent using the setup secret `τ`
//! (`C - y·g == Σ (τ_i - z_i)·π_i`), which is sound given trapdoor
//! knowledge and exercises none of the prover code paths differently. A
//! production deployment would replace only [`TrapdoorVerifier::verify`]
//! with a pairing check.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use zkphire_field::Fr;
//! use zkphire_pcs::MultilinearKzg;
//! use zkphire_poly::Mle;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let (pcs, verifier) = MultilinearKzg::setup(4, &mut rng);
//! let f = Mle::from_fn(4, |i| Fr::from_u64(i as u64 + 1));
//! let commitment = pcs.commit(&f);
//! let point: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
//! let (proof, value) = pcs.open(&f, &point);
//! assert!(verifier.verify(&commitment, &point, value, &proof));
//! ```

use std::borrow::Cow;

use rand::Rng;
use zkphire_curve::{batch_normalize, msm, msm_with_ops_threads, G1Affine, G1Projective};
use zkphire_field::Fr;
use zkphire_poly::Mle;
use zkphire_telemetry as tele;

/// A commitment to a multilinear polynomial (one G1 point).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Commitment(pub G1Affine);

impl Commitment {
    /// Compressed wire size in bytes (48-byte compressed G1, the
    /// convention behind the paper's proof-size numbers in Table IX).
    pub const COMPRESSED_SIZE: usize = 48;

    /// Serializes for transcript absorption.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }
}

/// An opening proof: one quotient commitment per variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpeningProof {
    /// `π_i = commit(q_i)` where `f(X) - f(z) = Σ_i (X_i - z_i) q_i`.
    pub quotients: Vec<G1Affine>,
}

impl OpeningProof {
    /// Compressed wire size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.quotients.len() * Commitment::COMPRESSED_SIZE
    }
}

/// Prover-side multilinear KZG: the structured reference string in
/// Lagrange basis, one level per suffix of the variables.
#[derive(Clone, Debug)]
pub struct MultilinearKzg {
    num_vars: usize,
    /// `levels[j][b] = g * eq_b(τ_{j+1..µ})`; level 0 commits full MLEs,
    /// level `i+1` commits the `i`-th opening quotient, level µ is `[g]`.
    levels: Vec<Vec<G1Affine>>,
}

/// Verifier with trapdoor knowledge (substitution S1 — see crate docs).
#[derive(Clone, Debug)]
pub struct TrapdoorVerifier {
    tau: Vec<Fr>,
}

impl MultilinearKzg {
    /// Runs the (simulated) universal setup for up to `num_vars` variables,
    /// returning the prover SRS and the trapdoor verifier.
    pub fn setup<R: Rng + ?Sized>(num_vars: usize, rng: &mut R) -> (Self, TrapdoorVerifier) {
        let tau: Vec<Fr> = (0..num_vars).map(|_| Fr::random(rng)).collect();
        (Self::from_tau(&tau), TrapdoorVerifier { tau })
    }

    /// Builds the SRS from an explicit secret (deterministic tests).
    pub fn from_tau(tau: &[Fr]) -> Self {
        let num_vars = tau.len();
        // Level 0 pays one fixed-base scalar multiplication per point.
        // Every later level is the previous one with its first (LSB)
        // variable summed out — eq(τ_j; 0) + eq(τ_j; 1) = 1, so
        // levels[j+1][b] = levels[j][2b] + levels[j][2b+1] — one point
        // addition per point, and one batched inversion per level to
        // return to affine.
        let mut level = FixedBaseTable::new().commit_basis(&Mle::eq_table(tau));
        let mut levels = Vec::with_capacity(num_vars + 1);
        for _ in 0..num_vars {
            let folded: Vec<G1Projective> = level
                .chunks_exact(2)
                .map(|pair| G1Projective::from(pair[0]).add_mixed(&pair[1]))
                .collect();
            levels.push(std::mem::replace(&mut level, batch_normalize(&folded)));
        }
        levels.push(level);
        Self { num_vars, levels }
    }

    /// Maximum number of variables this SRS supports.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Commits to an MLE with a Lagrange-basis MSM on every available
    /// core ([`commit_with_threads`](Self::commit_with_threads) lets the
    /// caller decide).
    ///
    /// # Panics
    ///
    /// Panics if the MLE has more variables than the SRS supports.
    pub fn commit(&self, mle: &Mle) -> Commitment {
        self.commit_with_threads(mle, available_threads())
    }

    /// [`commit`](Self::commit) with an explicit MSM worker-thread count;
    /// the commitment does not depend on it.
    pub fn commit_with_threads(&self, mle: &Mle, threads: usize) -> Commitment {
        let _s = tele::span("pcs/commit");
        let level = self.level_for(mle.num_vars());
        Commitment(
            msm_with_ops_threads(level, mle.evals(), threads)
                .0
                .to_affine(),
        )
    }

    /// Opens `mle` at `point` on every available core, returning the proof
    /// and the claimed value ([`open_with_threads`](Self::open_with_threads)
    /// lets the caller decide).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch with the SRS or point.
    pub fn open(&self, mle: &Mle, point: &[Fr]) -> (OpeningProof, Fr) {
        self.open_with_threads(mle, point, available_threads())
    }

    /// [`open`](Self::open) with an explicit MSM worker-thread count; the
    /// proof does not depend on it.
    ///
    /// The quotient computation is the MLE-Update dataflow: at step `i` the
    /// quotient is the pairwise-difference table and the polynomial is
    /// halved by fixing `X_i = z_i`. Step 1 reads `mle` in place and writes
    /// the first half-size table, later steps fold that one in place, and
    /// every quotient reuses one buffer.
    pub fn open_with_threads(&self, mle: &Mle, point: &[Fr], threads: usize) -> (OpeningProof, Fr) {
        let _s = tele::span("pcs/open");
        assert_eq!(point.len(), mle.num_vars(), "opening point arity");
        let offset = self.num_vars - mle.num_vars();
        let mut current = Cow::Borrowed(mle);
        let mut q = Vec::with_capacity(mle.len() / 2);
        let mut quotients = Vec::with_capacity(point.len());
        for (i, &z) in point.iter().enumerate() {
            q.clear();
            q.extend(current.evals().chunks_exact(2).map(|f| f[1] - f[0]));
            let level = &self.levels[offset + i + 1];
            quotients.push(msm_with_ops_threads(level, &q, threads).0);
            match &mut current {
                Cow::Owned(table) => table.fold_in_place(z, 1),
                Cow::Borrowed(_) => current = Cow::Owned(mle.fix_first_variable(z)),
            }
        }
        // One shared inversion brings all µ quotient commitments to affine.
        let quotients = batch_normalize(&quotients);
        (OpeningProof { quotients }, current.evals()[0])
    }

    fn level_for(&self, num_vars: usize) -> &[G1Affine] {
        assert!(
            num_vars <= self.num_vars,
            "SRS supports {} variables, MLE has {}",
            self.num_vars,
            num_vars
        );
        &self.levels[self.num_vars - num_vars]
    }
}

/// What [`zkphire_curve::msm`] uses: one MSM worker per available core.
fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `d · 16^j · g` for every non-zero 4-bit digit `d` of every scalar
/// window `j`, in affine form: a scalar multiplication of the generator
/// becomes at most one mixed addition per window (64, where one
/// projective addition per set bit averaged 127).
struct FixedBaseTable(Vec<G1Affine>);

impl FixedBaseTable {
    /// Window width in bits; it divides the 64-bit limb.
    const BITS: usize = 4;
    const WINDOWS: usize = 256 / Self::BITS;
    /// Non-zero digits of a window.
    const DIGITS: usize = (1 << Self::BITS) - 1;

    fn new() -> Self {
        let mut multiples = Vec::with_capacity(Self::WINDOWS * Self::DIGITS);
        let mut base = G1Projective::generator();
        for _ in 0..Self::WINDOWS {
            let mut multiple = base;
            for _ in 0..Self::DIGITS {
                multiples.push(multiple);
                multiple += base;
            }
            base = multiple; // 2^BITS · base: the next window's unit
        }
        Self(batch_normalize(&multiples))
    }

    fn mul(&self, s: &Fr) -> G1Projective {
        let limbs = s.to_canonical_limbs();
        let mut out = G1Projective::identity();
        for (j, row) in self.0.chunks_exact(Self::DIGITS).enumerate() {
            let bit = j * Self::BITS;
            let digit = (limbs[bit / 64] >> (bit % 64)) as usize & Self::DIGITS;
            if digit != 0 {
                out = out.add_mixed(&row[digit - 1]);
            }
        }
        out
    }

    /// `g · e` for every evaluation `e` of `basis`, in affine form (one
    /// batched inversion instead of one inversion per point).
    fn commit_basis(&self, basis: &Mle) -> Vec<G1Affine> {
        let projective: Vec<G1Projective> = basis.evals().iter().map(|e| self.mul(e)).collect();
        batch_normalize(&projective)
    }
}

impl TrapdoorVerifier {
    /// Checks an opening: `C == y·g + Σ_i (τ_i - z_i)·π_i`, one MSM over
    /// `[g, π_1, …, π_µ]`. This is the S1 trapdoor check — the pairing
    /// equation evaluated in the exponent with the setup secret (see crate
    /// docs) — not a pairing.
    pub fn verify(
        &self,
        commitment: &Commitment,
        point: &[Fr],
        value: Fr,
        proof: &OpeningProof,
    ) -> bool {
        if proof.quotients.len() != point.len() || point.len() > self.tau.len() {
            return false;
        }
        let tau = &self.tau[self.tau.len() - point.len()..];
        let scales = tau.iter().zip(point).map(|(&t, &z)| t - z);
        let scalars: Vec<Fr> = std::iter::once(value).chain(scales).collect();
        let mut points = Vec::with_capacity(scalars.len());
        points.push(G1Affine::generator());
        points.extend_from_slice(&proof.quotients);
        msm(&points, &scalars) == G1Projective::from(commitment.0)
    }

    /// Directly computes the commitment an MLE *should* have (test oracle:
    /// `g * f(τ)`).
    pub fn expected_commitment(&self, mle: &Mle) -> Commitment {
        let offset = self.tau.len() - mle.num_vars();
        let value = mle.evaluate(&self.tau[offset..]);
        Commitment(G1Projective::generator().mul_fr(&value).to_affine())
    }
}

/// Homomorphically combines commitments: `commit(Σ c_i f_i) = Σ c_i C_i`.
/// Used by the Polynomial Opening step's MLE Combine (paper §IV-B4).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn combine_commitments(commitments: &[Commitment], coeffs: &[Fr]) -> Commitment {
    assert_eq!(commitments.len(), coeffs.len());
    let points: Vec<G1Affine> = commitments.iter().map(|c| c.0).collect();
    Commitment(msm(&points, coeffs).to_affine())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(num_vars: usize, seed: u64) -> (MultilinearKzg, TrapdoorVerifier, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (pcs, verifier) = MultilinearKzg::setup(num_vars, &mut rng);
        (pcs, verifier, rng)
    }

    #[test]
    fn commitment_matches_trapdoor_oracle() {
        let (pcs, verifier, mut rng) = setup(5, 1);
        let f = Mle::from_fn(5, |_| Fr::random(&mut rng));
        assert_eq!(pcs.commit(&f), verifier.expected_commitment(&f));
    }

    #[test]
    fn open_verify_roundtrip() {
        let (pcs, verifier, mut rng) = setup(5, 2);
        let f = Mle::from_fn(5, |_| Fr::random(&mut rng));
        let c = pcs.commit(&f);
        let point: Vec<Fr> = (0..5).map(|_| Fr::random(&mut rng)).collect();
        let (proof, value) = pcs.open(&f, &point);
        assert_eq!(value, f.evaluate(&point));
        assert!(verifier.verify(&c, &point, value, &proof));
    }

    #[test]
    fn wrong_value_rejected() {
        let (pcs, verifier, mut rng) = setup(4, 3);
        let f = Mle::from_fn(4, |_| Fr::random(&mut rng));
        let c = pcs.commit(&f);
        let point: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
        let (proof, value) = pcs.open(&f, &point);
        assert!(!verifier.verify(&c, &point, value + Fr::ONE, &proof));
    }

    #[test]
    fn wrong_point_rejected() {
        let (pcs, verifier, mut rng) = setup(4, 4);
        let f = Mle::from_fn(4, |_| Fr::random(&mut rng));
        let c = pcs.commit(&f);
        let point: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
        let (proof, value) = pcs.open(&f, &point);
        let mut other = point.clone();
        other[2] += Fr::ONE;
        assert!(!verifier.verify(&c, &other, value, &proof));
    }

    #[test]
    fn tampered_quotient_rejected() {
        let (pcs, verifier, mut rng) = setup(4, 5);
        let f = Mle::from_fn(4, |_| Fr::random(&mut rng));
        let c = pcs.commit(&f);
        let point: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
        let (mut proof, value) = pcs.open(&f, &point);
        proof.quotients[1] = G1Affine::generator();
        assert!(!verifier.verify(&c, &point, value, &proof));
    }

    #[test]
    fn degenerate_quotients_rejected() {
        // Quotients the one-MSM check meets as special cases of its bucket
        // arithmetic — a negation, the identity, a duplicate — must change
        // its verdict, not its control flow.
        let (pcs, verifier, mut rng) = setup(5, 12);
        let f = Mle::from_fn(5, |_| Fr::random(&mut rng));
        let c = pcs.commit(&f);
        let point: Vec<Fr> = (0..5).map(|_| Fr::random(&mut rng)).collect();
        let (proof, value) = pcs.open(&f, &point);
        assert!(verifier.verify(&c, &point, value, &proof));
        for i in 0..5 {
            let j = (i + 1) % 5;
            for forged in [
                -proof.quotients[i],
                G1Affine::identity(),
                proof.quotients[j],
            ] {
                let mut tampered = proof.clone();
                tampered.quotients[i] = forged;
                assert!(
                    !verifier.verify(&c, &point, value, &tampered),
                    "quotient {i}"
                );
            }
        }
        let mut short = proof.clone();
        short.quotients.pop();
        assert!(!verifier.verify(&c, &point, value, &short));
        // A point longer than the SRS is a mismatch, not a panic.
        let long_point = [&point[..], &point[..]].concat();
        let mut long = proof.clone();
        long.quotients.extend_from_slice(&proof.quotients);
        assert!(!verifier.verify(&c, &long_point, value, &long));
    }

    #[test]
    fn commitment_is_homomorphic() {
        let (pcs, _, mut rng) = setup(4, 6);
        let f = Mle::from_fn(4, |_| Fr::random(&mut rng));
        let g = Mle::from_fn(4, |_| Fr::random(&mut rng));
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let combined = Mle::from_fn(4, |i| a * f.evals()[i] + b * g.evals()[i]);
        let via_points = combine_commitments(&[pcs.commit(&f), pcs.commit(&g)], &[a, b]);
        assert_eq!(pcs.commit(&combined), via_points);
    }

    #[test]
    fn smaller_mles_use_suffix_levels() {
        // An SRS for 5 variables must also commit/open 3-variable MLEs.
        let (pcs, verifier, mut rng) = setup(5, 7);
        let f = Mle::from_fn(3, |_| Fr::random(&mut rng));
        let c = pcs.commit(&f);
        let point: Vec<Fr> = (0..3).map(|_| Fr::random(&mut rng)).collect();
        let (proof, value) = pcs.open(&f, &point);
        assert!(verifier.verify(&c, &point, value, &proof));
    }

    /// The pre-marginalisation construction, sharing nothing with the
    /// table under test: every point of every level by double-and-add from
    /// its own eq table.
    fn levels_by_fixed_base(tau: &[Fr]) -> Vec<Vec<G1Affine>> {
        let g = G1Projective::generator();
        (0..=tau.len())
            .map(|j| {
                let basis = Mle::eq_table(&tau[j..]);
                let points: Vec<G1Projective> = basis.evals().iter().map(|e| g.mul_fr(e)).collect();
                batch_normalize(&points)
            })
            .collect()
    }

    #[test]
    fn folded_srs_levels_match_fixed_base_construction() {
        let mut rng = StdRng::seed_from_u64(9);
        for num_vars in [0usize, 1, 5] {
            let tau: Vec<Fr> = (0..num_vars).map(|_| Fr::random(&mut rng)).collect();
            let pcs = MultilinearKzg::from_tau(&tau);
            let expected = levels_by_fixed_base(&tau);
            assert_eq!(pcs.levels.len(), num_vars + 1);
            for (j, (level, reference)) in pcs.levels.iter().zip(&expected).enumerate() {
                assert_eq!(level, reference, "num_vars {num_vars}, level {j}");
            }
            assert_eq!(pcs.levels[num_vars], vec![G1Affine::generator()]);
        }
    }

    #[test]
    fn fixed_base_table_matches_scalar_mul_on_edge_scalars() {
        // Every digit value in every window position, the extremes, and
        // scalars whose windows are mostly empty.
        let table = FixedBaseTable::new();
        let g = G1Projective::generator();
        let mut scalars = vec![Fr::ZERO, Fr::ONE, -Fr::ONE, Fr::from_u64(u64::MAX)];
        scalars.extend((1..=15).map(Fr::from_u64));
        let sixteen = Fr::from_u64(16);
        let mut unit = Fr::ONE;
        for _ in 0..63 {
            unit *= sixteen;
            scalars.push(unit);
            scalars.push(unit * Fr::from_u64(15));
        }
        for s in &scalars {
            assert_eq!(table.mul(s), g.mul_fr(s), "scalar {s:?}");
        }
    }

    #[test]
    fn thread_count_does_not_change_commitment_or_proof() {
        // mu = 10 reaches the MSM's parallel path (n >= 2^10).
        let (pcs, verifier, mut rng) = setup(10, 10);
        let f = Mle::from_fn(10, |_| Fr::random(&mut rng));
        let point: Vec<Fr> = (0..10).map(|_| Fr::random(&mut rng)).collect();
        let c = pcs.commit(&f);
        let (proof, value) = pcs.open(&f, &point);
        assert!(verifier.verify(&c, &point, value, &proof));
        for threads in [1usize, 3] {
            assert_eq!(pcs.commit_with_threads(&f, threads), c);
            assert_eq!(
                pcs.open_with_threads(&f, &point, threads),
                (proof.clone(), value)
            );
        }
    }

    #[test]
    fn opening_of_constant_has_identity_quotients() {
        // All quotient MSMs are zero: batch normalisation must keep the
        // identity points (z = 0) as identities.
        let (pcs, verifier, mut rng) = setup(3, 11);
        let f = Mle::from_fn(3, |_| Fr::from_u64(7));
        let point: Vec<Fr> = (0..3).map(|_| Fr::random(&mut rng)).collect();
        let (proof, value) = pcs.open(&f, &point);
        assert_eq!(value, Fr::from_u64(7));
        assert!(proof.quotients.iter().all(G1Affine::is_identity));
        assert!(verifier.verify(&pcs.commit(&f), &point, value, &proof));
    }

    #[test]
    fn zero_polynomial_commits_to_identity() {
        let (pcs, _, _) = setup(3, 8);
        let c = pcs.commit(&Mle::zero(3));
        assert!(c.0.is_identity());
    }
}
