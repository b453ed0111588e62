//! Generic prime-field element in Montgomery form.
//!
//! [`Fp<P, N>`] is parameterized by a [`FieldParams`] marker type carrying
//! the modulus; the two instantiations used by zkPHIRE are
//! [`Fr`](crate::Fr) (the 255-bit BLS12-381 scalar field, the datatype of
//! every MLE table in the paper) and [`Fq`](crate::Fq) (the 381-bit base
//! field of the elliptic-curve datapath).

use core::fmt;
use core::hash::Hash;
use core::iter::{Product, Sum};
use core::marker::PhantomData;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

use crate::arith;
use crate::inverse::bingcd_inverse;

/// Compile-time description of a prime field.
///
/// Implementors only supply the modulus; the Montgomery constants are
/// derived automatically at compile time. The trait is sealed in spirit:
/// zkPHIRE defines [`FrParams`](crate::FrParams) and
/// [`FqParams`](crate::FqParams), but downstream users may add their own
/// fields (the SumCheck machinery is generic over the scalar field width).
pub trait FieldParams<const N: usize>:
    'static + Copy + Clone + fmt::Debug + Default + Eq + PartialEq + Hash + Send + Sync
{
    /// Little-endian limbs of the odd prime modulus.
    const MODULUS: [u64; N];
    /// Number of significant bits of the modulus.
    const MODULUS_BITS: u32;
    /// Field name used in diagnostics.
    const NAME: &'static str;

    /// `-MODULUS^{-1} mod 2^64` (derived).
    const INV: u64 = arith::mont_neg_inv(Self::MODULUS[0]);
    /// `R = 2^(64 N) mod MODULUS` (derived): the Montgomery form of one.
    const R: [u64; N] = arith::pow2_mod(&Self::MODULUS, 64 * N as u32);
    /// `R^2 mod MODULUS` (derived): converts canonical form to Montgomery form.
    const R2: [u64; N] = arith::pow2_mod(&Self::MODULUS, 128 * N as u32);
}

/// A prime-field element stored in Montgomery form.
///
/// # Examples
///
/// ```
/// use zkphire_field::Fr;
///
/// let a = Fr::from_u64(7);
/// let b = Fr::from_u64(6);
/// assert_eq!(a * b, Fr::from_u64(42));
/// assert_eq!(a - a, Fr::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fp<P: FieldParams<N>, const N: usize> {
    limbs: [u64; N],
    _params: PhantomData<P>,
}

impl<P: FieldParams<N>, const N: usize> Default for Fp<P, N> {
    /// The default value is [`Fp::ZERO`].
    fn default() -> Self {
        Self::ZERO
    }
}

impl<P: FieldParams<N>, const N: usize> Fp<P, N> {
    /// The additive identity.
    pub const ZERO: Self = Self {
        limbs: [0u64; N],
        _params: PhantomData,
    };

    /// The multiplicative identity.
    pub const ONE: Self = Self {
        limbs: P::R,
        _params: PhantomData,
    };

    /// Number of significant modulus bits.
    pub const MODULUS_BITS: u32 = P::MODULUS_BITS;

    /// Builds an element from a small integer.
    #[inline]
    pub fn from_u64(value: u64) -> Self {
        let mut limbs = [0u64; N];
        limbs[0] = value;
        Self::from_canonical_limbs_reduced(limbs)
    }

    /// Builds an element from a signed integer (negative values wrap mod p).
    #[inline]
    pub fn from_i64(value: i64) -> Self {
        if value >= 0 {
            Self::from_u64(value as u64)
        } else {
            -Self::from_u64(value.unsigned_abs())
        }
    }

    /// Builds an element from canonical (non-Montgomery) limbs `< MODULUS`.
    ///
    /// Returns `None` when the input is not fully reduced.
    pub fn from_canonical_limbs(limbs: [u64; N]) -> Option<Self> {
        if arith::geq(&limbs, &P::MODULUS) {
            None
        } else {
            Some(Self::from_canonical_limbs_reduced(limbs))
        }
    }

    #[inline]
    fn from_canonical_limbs_reduced(limbs: [u64; N]) -> Self {
        Self {
            limbs: arith::mont_mul(&limbs, &P::R2, &P::MODULUS, P::INV),
            _params: PhantomData,
        }
    }

    /// Interprets up to `8 * N` little-endian bytes as an integer and reduces
    /// it modulo the field order.
    ///
    /// Used for deriving Fiat–Shamir challenges from hash output.
    ///
    /// # Panics
    ///
    /// Panics if more than `8 * N` bytes are provided.
    pub fn from_le_bytes_mod_order(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() <= 8 * N,
            "at most {} bytes fit in {}",
            8 * N,
            P::NAME
        );
        let mut limbs = [0u64; N];
        for (i, chunk) in bytes.chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            limbs[i] = u64::from_le_bytes(word);
        }
        // The value is < 2^(64 N) < c * MODULUS for small c; a short
        // subtraction loop reduces it.
        while arith::geq(&limbs, &P::MODULUS) {
            let (r, _) = arith::sub_limbs(&limbs, &P::MODULUS);
            limbs = r;
        }
        Self::from_canonical_limbs_reduced(limbs)
    }

    /// Builds an element directly from Montgomery-form limbs.
    ///
    /// Intended for constants produced by this crate itself; the caller must
    /// guarantee `limbs < MODULUS`.
    #[inline]
    pub const fn from_montgomery_limbs(limbs: [u64; N]) -> Self {
        Self {
            limbs,
            _params: PhantomData,
        }
    }

    /// Converts back to canonical little-endian limbs (`< MODULUS`).
    #[inline]
    pub fn to_canonical_limbs(self) -> [u64; N] {
        let one = {
            let mut l = [0u64; N];
            l[0] = 1;
            l
        };
        arith::mont_mul(&self.limbs, &one, &P::MODULUS, P::INV)
    }

    /// Serializes to `8 * N` little-endian canonical bytes.
    pub fn to_le_bytes(self) -> Vec<u8> {
        self.to_canonical_limbs()
            .iter()
            .flat_map(|l| l.to_le_bytes())
            .collect()
    }

    /// Returns `true` for the additive identity.
    #[inline]
    pub fn is_zero(&self) -> bool {
        arith::is_zero(&self.limbs)
    }

    /// Returns `true` for the multiplicative identity.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.limbs == P::R
    }

    /// Doubles the element.
    #[inline]
    pub fn double(&self) -> Self {
        *self + *self
    }

    /// Squares the element.
    ///
    /// Uses a dedicated SOS squaring kernel ([`arith::mont_sqr`]) that
    /// computes each symmetric partial product once and doubles it —
    /// `N(N+1)/2` wide multiplications instead of the full `N^2` a
    /// general [`Mul`] performs.
    #[inline]
    pub fn square(&self) -> Self {
        Self {
            limbs: arith::mont_sqr(&self.limbs, &P::MODULUS, P::INV),
            _params: PhantomData,
        }
    }

    /// Raises the element to a multi-precision exponent (little-endian limbs).
    pub fn pow(&self, exp: &[u64]) -> Self {
        let mut result = Self::ONE;
        let mut started = false;
        for limb in exp.iter().rev() {
            for bit_index in (0..64).rev() {
                if started {
                    result = result.square();
                }
                if (limb >> bit_index) & 1 == 1 {
                    result *= *self;
                    started = true;
                }
            }
        }
        result
    }

    /// Computes a square root via Tonelli–Shanks, or `None` when the
    /// element is a non-residue.
    ///
    /// Both roots exist when one does; this returns one of them (negate
    /// for the other). Used e.g. to sample points on curves defined over
    /// this field.
    pub fn sqrt(&self) -> Option<Self> {
        if self.is_zero() {
            return Some(*self);
        }
        // Write p - 1 = 2^s * t with t odd.
        let mut t_limbs = {
            let one = {
                let mut l = [0u64; N];
                l[0] = 1;
                l
            };
            let (m1, _) = crate::arith::sub_limbs(&P::MODULUS, &one);
            m1
        };
        let mut s_adicity = 0u32;
        while t_limbs[0] & 1 == 0 {
            // Shift right by one bit.
            let mut carry = 0u64;
            for limb in t_limbs.iter_mut().rev() {
                let new_carry = *limb & 1;
                *limb = (*limb >> 1) | (carry << 63);
                carry = new_carry;
            }
            s_adicity += 1;
        }

        // Find a quadratic non-residue z (small search; 5/7 work for the
        // BLS12-381 fields, but verify generically via Euler's criterion).
        let two = {
            let mut l = [0u64; N];
            l[0] = 2;
            l
        };
        let (half_exp, _) = {
            let one = {
                let mut l = [0u64; N];
                l[0] = 1;
                l
            };
            let (m1, _) = crate::arith::sub_limbs(&P::MODULUS, &one);
            // (p - 1) / 2
            let mut h = m1;
            let mut carry = 0u64;
            for limb in h.iter_mut().rev() {
                let new_carry = *limb & 1;
                *limb = (*limb >> 1) | (carry << 63);
                carry = new_carry;
            }
            (h, 0u64)
        };
        let _ = two;
        let minus_one = -Self::ONE;
        // Euler's criterion on self first: non-residues have no root.
        if self.pow(&half_exp) == minus_one {
            return None;
        }
        let mut z = Self::from_u64(2);
        while z.pow(&half_exp) != minus_one {
            z += Self::ONE;
        }

        let mut m = s_adicity;
        let mut c = z.pow(&t_limbs);
        let mut t_val = self.pow(&t_limbs);
        // x = a^((t+1)/2)
        let t_plus_one = {
            let one = {
                let mut l = [0u64; N];
                l[0] = 1;
                l
            };
            let (tp, _) = crate::arith::add_limbs(&t_limbs, &one);
            tp
        };
        let mut half_t = t_plus_one;
        let mut carry = 0u64;
        for limb in half_t.iter_mut().rev() {
            let new_carry = *limb & 1;
            *limb = (*limb >> 1) | (carry << 63);
            carry = new_carry;
        }
        let mut x = self.pow(&half_t);

        while !t_val.is_one() {
            // Find least i with t^(2^i) == 1.
            let mut i = 0u32;
            let mut probe = t_val;
            while !probe.is_one() {
                probe = probe.square();
                i += 1;
                if i == m {
                    return None; // unreachable for residues
                }
            }
            let mut b = c;
            for _ in 0..(m - i - 1) {
                b = b.square();
            }
            m = i;
            c = b.square();
            t_val *= c;
            x *= b;
        }
        debug_assert_eq!(x.square(), *self);
        Some(x)
    }

    /// Computes the multiplicative inverse, or `None` for zero.
    ///
    /// Runs Pornin's binary GCD on word-sized approximations (described
    /// in `inverse.rs`) — several times faster than a Fermat
    /// exponentiation, but **variable-time**: use it on public,
    /// prover-side values only. Prefer
    /// [`batch_inverse`](crate::batch_inverse) when inverting many elements —
    /// that is exactly the trade the paper's ModInv unit makes (§IV-B5).
    pub fn inverse(&self) -> Option<Self> {
        const { assert!(P::MODULUS_BITS < 64 * N as u32) };
        // scale = R^2 makes the result the Montgomery form of 1/self.
        let limbs = bingcd_inverse(&self.limbs, &P::R2, &P::MODULUS, P::INV, P::MODULUS_BITS)?;
        Some(Self {
            limbs,
            _params: PhantomData,
        })
    }

    /// `self^(p-2)`: the inverse by Fermat's little theorem (`0` for zero),
    /// the oracle [`inverse`](Self::inverse) is tested against.
    #[cfg(test)]
    pub(crate) fn inverse_fermat(&self) -> Self {
        let two = {
            let mut l = [0u64; N];
            l[0] = 2;
            l
        };
        let (exp, _) = arith::sub_limbs(&P::MODULUS, &two);
        self.pow(&exp)
    }

    /// Samples a uniformly random field element.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection sampling on MODULUS_BITS-wide candidates.
        let top_bits = P::MODULUS_BITS - 64 * (N as u32 - 1);
        let mask = if top_bits == 64 {
            u64::MAX
        } else {
            (1u64 << top_bits) - 1
        };
        loop {
            let mut limbs = [0u64; N];
            for limb in &mut limbs {
                *limb = rng.gen();
            }
            limbs[N - 1] &= mask;
            if !arith::geq(&limbs, &P::MODULUS) {
                return Self::from_canonical_limbs_reduced(limbs);
            }
        }
    }
}

impl<P: FieldParams<N>, const N: usize> Add for Fp<P, N> {
    type Output = Self;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self {
            limbs: arith::add_mod(&self.limbs, &rhs.limbs, &P::MODULUS),
            _params: PhantomData,
        }
    }
}

impl<P: FieldParams<N>, const N: usize> Sub for Fp<P, N> {
    type Output = Self;

    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self {
            limbs: arith::sub_mod(&self.limbs, &rhs.limbs, &P::MODULUS),
            _params: PhantomData,
        }
    }
}

impl<P: FieldParams<N>, const N: usize> Mul for Fp<P, N> {
    type Output = Self;

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self {
            limbs: arith::mont_mul(&self.limbs, &rhs.limbs, &P::MODULUS, P::INV),
            _params: PhantomData,
        }
    }
}

impl<P: FieldParams<N>, const N: usize> Neg for Fp<P, N> {
    type Output = Self;

    #[inline]
    fn neg(self) -> Self {
        if self.is_zero() {
            self
        } else {
            let (limbs, _) = arith::sub_limbs(&P::MODULUS, &self.limbs);
            Self {
                limbs,
                _params: PhantomData,
            }
        }
    }
}

impl<P: FieldParams<N>, const N: usize> AddAssign for Fp<P, N> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<P: FieldParams<N>, const N: usize> SubAssign for Fp<P, N> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<P: FieldParams<N>, const N: usize> MulAssign for Fp<P, N> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<P: FieldParams<N>, const N: usize> Sum for Fp<P, N> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + x)
    }
}

impl<P: FieldParams<N>, const N: usize> Product for Fp<P, N> {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |acc, x| acc * x)
    }
}

impl<P: FieldParams<N>, const N: usize> From<u64> for Fp<P, N> {
    fn from(value: u64) -> Self {
        Self::from_u64(value)
    }
}

impl<P: FieldParams<N>, const N: usize> fmt::Debug for Fp<P, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(0x", P::NAME)?;
        for limb in self.to_canonical_limbs().iter().rev() {
            write!(f, "{limb:016x}")?;
        }
        write!(f, ")")
    }
}

impl<P: FieldParams<N>, const N: usize> fmt::Display for Fp<P, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<P: FieldParams<N>, const N: usize> PartialOrd for Fp<P, N> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<P: FieldParams<N>, const N: usize> Ord for Fp<P, N> {
    /// Compares by canonical integer value (not Montgomery representation).
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        let a = self.to_canonical_limbs();
        let b = other.to_canonical_limbs();
        for i in (0..N).rev() {
            match a[i].cmp(&b[i]) {
                core::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        core::cmp::Ordering::Equal
    }
}
