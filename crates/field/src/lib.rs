//! Prime-field arithmetic for the zkPHIRE reproduction.
//!
//! zkPHIRE (HPCA 2026) operates on the BLS12-381 curve: every MLE table
//! entry is an element of the 255-bit scalar field [`Fr`] and every
//! elliptic-curve coordinate is an element of the 381-bit base field
//! [`Fq`] (paper §V). This crate provides both as instantiations of a
//! const-generic Montgomery-form [`Fp`], plus the Montgomery batch-inversion
//! primitive that the paper's Permutation Quotient Generator builds in
//! hardware (§IV-B5).
//!
//! # Examples
//!
//! ```
//! use zkphire_field::{batch_inverse, Fr};
//!
//! let xs: Vec<Fr> = (1..=8).map(Fr::from_u64).collect();
//! let mut inv = xs.clone();
//! batch_inverse(&mut inv);
//! for (x, i) in xs.iter().zip(&inv) {
//!     assert_eq!(*x * *i, Fr::ONE);
//! }
//! ```

pub mod arith;
mod fp;
mod inverse;

pub use fp::{FieldParams, Fp};
pub use inverse::{
    batch_inverse, batch_inverse_count_ops, batch_inverse_with_scratch, BatchInverseOps,
};

/// Marker type carrying the BLS12-381 scalar-field modulus.
///
/// `r = 0x73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001`
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct FrParams;

impl FieldParams<4> for FrParams {
    const MODULUS: [u64; 4] = [
        0xffff_ffff_0000_0001,
        0x53bd_a402_fffe_5bfe,
        0x3339_d808_09a1_d805,
        0x73ed_a753_299d_7d48,
    ];
    const MODULUS_BITS: u32 = 255;
    const NAME: &'static str = "Fr";
}

/// The BLS12-381 scalar field (255 bits): the datatype of all MLE tables.
pub type Fr = Fp<FrParams, 4>;

/// Marker type carrying the BLS12-381 base-field modulus.
///
/// `q = 0x1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f624`
/// `1eabfffeb153ffffb9feffffffffaaab`
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct FqParams;

impl FieldParams<6> for FqParams {
    const MODULUS: [u64; 6] = [
        0xb9fe_ffff_ffff_aaab,
        0x1eab_fffe_b153_ffff,
        0x6730_d2a0_f6b0_f624,
        0x6477_4b84_f385_12bf,
        0x4b1b_a7b6_434b_acd7,
        0x1a01_11ea_397f_e69a,
    ];
    const MODULUS_BITS: u32 = 381;
    const NAME: &'static str = "Fq";
}

/// The BLS12-381 base field (381 bits): the datatype of curve coordinates.
pub type Fq = Fp<FqParams, 6>;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arb_fr() -> impl Strategy<Value = Fr> {
        any::<[u8; 32]>().prop_map(|bytes| Fr::from_le_bytes_mod_order(&bytes))
    }

    fn arb_fq() -> impl Strategy<Value = Fq> {
        any::<[u8; 48]>().prop_map(|bytes| Fq::from_le_bytes_mod_order(&bytes))
    }

    #[test]
    fn identities() {
        assert!(Fr::ZERO.is_zero());
        assert!(Fr::ONE.is_one());
        assert_eq!(Fr::from_u64(1), Fr::ONE);
        assert_eq!(Fr::from_u64(0), Fr::ZERO);
        assert_eq!(Fq::from_u64(1), Fq::ONE);
        assert_eq!(Fr::default(), Fr::ZERO);
    }

    #[test]
    fn small_integer_arithmetic() {
        for a in 0u64..20 {
            for b in 0u64..20 {
                assert_eq!(Fr::from_u64(a) + Fr::from_u64(b), Fr::from_u64(a + b));
                assert_eq!(Fr::from_u64(a) * Fr::from_u64(b), Fr::from_u64(a * b));
                assert_eq!(Fq::from_u64(a) * Fq::from_u64(b), Fq::from_u64(a * b));
            }
        }
    }

    #[test]
    fn from_i64_wraps() {
        assert_eq!(Fr::from_i64(-1) + Fr::ONE, Fr::ZERO);
        assert_eq!(Fr::from_i64(-5), -Fr::from_u64(5));
        assert_eq!(Fr::from_i64(7), Fr::from_u64(7));
    }

    #[test]
    fn fermat_little_theorem() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Fr::random(&mut rng);
        let two = [2u64, 0, 0, 0];
        let (exp, _) = arith::sub_limbs(&FrParams::MODULUS, &two);
        // a^(p-2) * a == 1
        assert_eq!(a.pow(&exp) * a, Fr::ONE);
    }

    #[test]
    fn minus_one_squares_to_one() {
        let minus_one = -Fr::ONE;
        assert_eq!(minus_one.square(), Fr::ONE);
        let minus_one_q = -Fq::ONE;
        assert_eq!(minus_one_q.square(), Fq::ONE);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..16 {
            let a = Fr::random(&mut rng);
            let bytes = a.to_le_bytes();
            assert_eq!(bytes.len(), 32);
            assert_eq!(Fr::from_le_bytes_mod_order(&bytes), a);
            let b = Fq::random(&mut rng);
            assert_eq!(Fq::from_le_bytes_mod_order(&b.to_le_bytes()), b);
        }
    }

    #[test]
    fn canonical_limbs_reject_unreduced() {
        assert!(Fr::from_canonical_limbs(FrParams::MODULUS).is_none());
        let mut below = FrParams::MODULUS;
        below[0] -= 1;
        assert!(Fr::from_canonical_limbs(below).is_some());
    }

    #[test]
    fn display_contains_field_name() {
        let s = format!("{}", Fr::from_u64(5));
        assert!(s.starts_with("Fr(0x"));
        assert!(s.ends_with('5') || s.ends_with(')'));
    }

    #[test]
    fn sqrt_of_squares() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..8 {
            let a = Fr::random(&mut rng);
            let root = a.square().sqrt().expect("squares are residues");
            assert!(root == a || root == -a);
            let b = Fq::random(&mut rng);
            let root_q = b.square().sqrt().expect("squares are residues");
            assert!(root_q == b || root_q == -b);
        }
        assert_eq!(Fr::ZERO.sqrt(), Some(Fr::ZERO));
        assert_eq!(Fr::ONE.sqrt().map(|r| r.square()), Some(Fr::ONE));
    }

    #[test]
    fn sqrt_rejects_non_residues() {
        // Exactly one of {a, a * non_residue} is a residue; find a
        // non-residue by trial and confirm sqrt returns None.
        let mut rng = StdRng::seed_from_u64(22);
        let mut found = false;
        for _ in 0..16 {
            let a = Fr::random(&mut rng);
            if !a.is_zero() && a.sqrt().is_none() {
                found = true;
                break;
            }
        }
        assert!(found, "half of all elements are non-residues");
    }

    #[test]
    fn ordering_is_canonical() {
        assert!(Fr::from_u64(2) < Fr::from_u64(3));
        assert!(-Fr::ONE > Fr::from_u64(1_000_000));
    }

    /// Checks `inverse` against the Fermat oracle and the defining
    /// identity on one element.
    fn assert_inverse_matches_fermat<P: FieldParams<N>, const N: usize>(a: Fp<P, N>) {
        if a.is_zero() {
            assert!(a.inverse().is_none());
            return;
        }
        let inv = a.inverse().expect("non-zero");
        assert_eq!(inv, a.inverse_fermat(), "{a:?}");
        assert_eq!(a * inv, Fp::ONE, "{a:?}");
    }

    fn inverse_edge_cases<P: FieldParams<N>, const N: usize>() {
        assert!(Fp::<P, N>::ZERO.inverse().is_none());
        assert_eq!(Fp::<P, N>::ONE.inverse(), Some(Fp::ONE));
        assert_eq!((-Fp::<P, N>::ONE).inverse(), Some(-Fp::ONE));
        let mut cases = vec![Fp::<P, N>::from_u64(2), -Fp::from_u64(2)];
        // Small values and their negatives (p - 1, p - 2, ...).
        for k in 1..=300u64 {
            cases.push(Fp::from_u64(k));
            cases.push(-Fp::from_u64(k));
        }
        // Single bits and all-ones runs at every position below the modulus.
        for bit in 0..P::MODULUS_BITS - 1 {
            let mut limbs = [0u64; N];
            limbs[(bit / 64) as usize] = 1 << (bit % 64);
            let pow2 = Fp::<P, N>::from_canonical_limbs(limbs).expect("below the modulus");
            cases.push(pow2);
            cases.push(pow2 - Fp::ONE);
            cases.push(pow2 + Fp::ONE);
        }
        // The Montgomery constants, read both as canonical and as
        // Montgomery limbs.
        for limbs in [P::R, P::R2] {
            cases.push(Fp::from_montgomery_limbs(limbs));
            cases.push(Fp::from_canonical_limbs(limbs).expect("R, R^2 are reduced"));
        }
        for a in cases {
            assert_inverse_matches_fermat(a);
        }
    }

    #[test]
    fn inverse_matches_fermat_on_edge_cases() {
        inverse_edge_cases::<FrParams, 4>();
        inverse_edge_cases::<FqParams, 6>();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        #[test]
        fn fr_inverse_matches_fermat(a in arb_fr()) {
            assert_inverse_matches_fermat(a);
        }

        #[test]
        fn fq_inverse_matches_fermat(a in arb_fq()) {
            assert_inverse_matches_fermat(a);
        }
    }

    proptest! {
        #[test]
        fn fr_addition_commutes(a in arb_fr(), b in arb_fr()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn fr_multiplication_commutes(a in arb_fr(), b in arb_fr()) {
            prop_assert_eq!(a * b, b * a);
        }

        #[test]
        fn fr_multiplication_associates(a in arb_fr(), b in arb_fr(), c in arb_fr()) {
            prop_assert_eq!((a * b) * c, a * (b * c));
        }

        #[test]
        fn fr_distributivity(a in arb_fr(), b in arb_fr(), c in arb_fr()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn fr_add_sub_inverse(a in arb_fr(), b in arb_fr()) {
            prop_assert_eq!(a + b - b, a);
            prop_assert_eq!(a + (-a), Fr::ZERO);
        }

        #[test]
        fn fr_inverse_is_inverse(a in arb_fr()) {
            if !a.is_zero() {
                let inv = a.inverse().unwrap();
                prop_assert_eq!(a * inv, Fr::ONE);
            } else {
                prop_assert!(a.inverse().is_none());
            }
        }

        #[test]
        fn fr_square_matches_mul(a in arb_fr()) {
            prop_assert_eq!(a.square(), a * a);
        }

        #[test]
        fn fq_square_matches_mul(a in arb_fq(), b in arb_fq()) {
            prop_assert_eq!(a.square(), a * a);
            // Exercise the Karatsuba-like identity through both kernels:
            // (a + b)^2 == a^2 + 2ab + b^2.
            let lhs = (a + b).square();
            prop_assert_eq!(lhs, a.square() + (a * b).double() + b.square());
        }

        #[test]
        fn fq_field_axioms(a in arb_fq(), b in arb_fq(), c in arb_fq()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
            prop_assert_eq!((a + b) + c, a + (b + c));
            if !a.is_zero() {
                prop_assert_eq!(a * a.inverse().unwrap(), Fq::ONE);
            }
        }
    }
}
