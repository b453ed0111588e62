//! Modular inversion: one element (binary GCD) and many (Montgomery's
//! trick).
//!
//! # Single inversion
//!
//! [`bingcd_inverse`] is Pornin's optimized binary GCD (ePrint 2020/972)
//! in its variable-time form. The classic binary GCD on `(a, b) = (x, m)`
//! decides every step from the parity of `a` and the comparison `a < b`,
//! i.e. from the lowest and the highest bits only. So 31 steps at a time
//! run on one-word *approximations* — the low 31 bits (exact) glued to
//! the top 33 bits of the wider operand — in a branch-free loop that also
//! accumulates the steps into a 2×2 matrix of 32-bit factors; the matrix
//! is then applied once to the full-width `a, b` and to the Bézout
//! coefficients `u, v` (the latter with a one-word Montgomery reduction,
//! so no stray power of two is left to divide out). A wrong comparison
//! caused by the approximation can only make a value negative, which is
//! fixed by negating it together with its matrix row. Roughly `1.4 ·
//! bits / 31` outer iterations instead of the `≈ 1.5 · bits` wide
//! multiplications of a Fermat exponentiation.
//!
//! The running time depends on the operand: this is for public,
//! prover-side values (slope denominators, `z` coordinates, SumCheck
//! interpolation constants), not for secrets.
//!
//! # Batch inversion
//!
//! Inverting `n` field elements costs one inversion plus `3(n-1)`
//! multiplications instead of `n` inversions — the algorithmic core of the
//! paper's Permutation Quotient Generator, which batches denominator
//! inversions across 266 hardware inverse units with a batch size of 2
//! (§IV-B5). [`batch_inverse_count_ops`] reports the operation counts so the
//! hardware model can be validated against the functional implementation.

use crate::arith;
use crate::fp::{FieldParams, Fp};

/// Binary-GCD steps run on one-word approximations per outer iteration:
/// 31 exact low bits and 33 high bits fill a `u64`, and the accumulated
/// matrix entries stay within `±2^31`.
const STEPS: u32 = 31;
const LOW_MASK: u64 = (1 << STEPS) - 1;

/// Computes `scale / x mod m` for an odd prime `m` of at most `64 N - 1`
/// bits, `x, scale < m` (see the module docs for the algorithm).
///
/// Returns `None` when `x` is zero. Passing `scale = R^2` for a
/// Montgomery-form `x` yields the Montgomery form of the inverse directly.
pub(crate) fn bingcd_inverse<const N: usize>(
    x: &[u64; N],
    scale: &[u64; N],
    m: &[u64; N],
    m_neg_inv: u64,
    modulus_bits: u32,
) -> Option<[u64; N]> {
    if arith::is_zero(x) {
        return None;
    }
    // Invariants: u·x ≡ a·scale and v·x ≡ b·scale (mod m); b is odd;
    // gcd(a, b) = 1. Pornin proves that, approximations included, the
    // steps shrink len(a) + len(b) by a bit each, so 2·bits − 1 of them
    // reach a = 0, b = 1 — where v = scale / x. Small `x` and `m − x`
    // need every one of them; random elements about two thirds.
    let (mut a, mut b) = (*x, *m);
    let (mut u, mut v) = (*scale, [0u64; N]);
    for _ in 0..(2 * modulus_bits).div_ceil(STEPS) {
        let (xa, xb) = approximate(&a, &b);
        let [mut f0, mut g0, mut f1, mut g1] = approximate_steps(xa, xb);
        let (next_a, a_negative) = lin_comb_shift(&a, &b, f0, g0);
        let (next_b, b_negative) = lin_comb_shift(&a, &b, f1, g1);
        (a, b) = (next_a, next_b);
        if a_negative {
            (f0, g0) = (-f0, -g0);
        }
        if b_negative {
            (f1, g1) = (-f1, -g1);
        }
        let next_u = lin_comb_mont(&u, &v, f0, g0, m, m_neg_inv);
        v = lin_comb_mont(&u, &v, f1, g1, m, m_neg_inv);
        u = next_u;
        if arith::is_zero(&a) {
            debug_assert!(b[0] == 1 && b[1..].iter().all(|&l| l == 0));
            return Some(v);
        }
    }
    unreachable!("binary GCD converges within 2·bits − 1 steps")
}

/// One-word stand-ins for `a` and `b`: the low 31 bits, exact, under the
/// top 33 bits of the window that holds the longer of the two. Exact
/// values when both fit in one word.
#[inline]
fn approximate<const N: usize>(a: &[u64; N], b: &[u64; N]) -> (u64, u64) {
    let mut top = N - 1;
    while top > 0 && (a[top] | b[top]) == 0 {
        top -= 1;
    }
    if top == 0 {
        return (a[0], b[0]);
    }
    let shift = (a[top] | b[top]).leading_zeros();
    let approx = |x: &[u64; N]| {
        let head = if shift == 0 {
            x[top]
        } else {
            (x[top] << shift) | (x[top - 1] >> (64 - shift))
        };
        (head & !LOW_MASK) | (x[0] & LOW_MASK)
    };
    (approx(a), approx(b))
}

/// Runs [`STEPS`] binary-GCD steps on the approximations and returns the
/// matrix `[f0, g0, f1, g1]` with `a' = (f0·a + g0·b) / 2^31` and
/// `b' = (f1·a + g1·b) / 2^31`; `|f| + |g| ≤ 2^31` on each row.
/// Branch-free: both decisions of a step are coin flips.
#[inline]
fn approximate_steps(mut xa: u64, mut xb: u64) -> [i64; 4] {
    let (mut f0, mut g0, mut f1, mut g1) = (1u64, 0u64, 0u64, 1u64);
    for _ in 0..STEPS {
        let odd = (xa & 1).wrapping_neg();
        let swap = odd & u64::from(xa < xb).wrapping_neg();
        let t = (xa ^ xb) & swap;
        xa ^= t;
        xb ^= t;
        let t = (f0 ^ f1) & swap;
        f0 ^= t;
        f1 ^= t;
        let t = (g0 ^ g1) & swap;
        g0 ^= t;
        g1 ^= t;
        xa = xa.wrapping_sub(xb & odd) >> 1;
        f0 = f0.wrapping_sub(f1 & odd);
        g0 = g0.wrapping_sub(g1 & odd);
        f1 <<= 1;
        g1 <<= 1;
    }
    [f0 as i64, g0 as i64, f1 as i64, g1 as i64]
}

/// `(a·f + b·g) / 2^31` (exact by construction of `f, g`) as magnitude
/// and sign.
#[inline]
fn lin_comb_shift<const N: usize>(a: &[u64; N], b: &[u64; N], f: i64, g: i64) -> ([u64; N], bool) {
    let (mut out, carry) = lin_comb_words(a, b, f, g, &[0u64; N], 0);
    let negative = carry < 0;
    if negative {
        // Two's complement: |value| < 2^(64 N), so N limbs hold it.
        let mut inc = 1u64;
        for limb in &mut out {
            (*limb, inc) = arith::adc(!*limb, 0, inc);
        }
    }
    (out, negative)
}

/// `(u·f + v·g) / 2^31 mod m` for `u, v < m` and `|f| + |g| ≤ 2^31`: a
/// multiple `t·m` with `t < 2^31` clears the low bits first (one-word
/// Montgomery reduction), leaving a value in `(-m, 2m)`.
#[inline]
fn lin_comb_mont<const N: usize>(
    u: &[u64; N],
    v: &[u64; N],
    f: i64,
    g: i64,
    m: &[u64; N],
    m_neg_inv: u64,
) -> [u64; N] {
    let low = u[0]
        .wrapping_mul(f as u64)
        .wrapping_add(v[0].wrapping_mul(g as u64));
    let t = low.wrapping_mul(m_neg_inv) & LOW_MASK;
    let (out, carry) = lin_comb_words(u, v, f, g, m, t);
    if carry < 0 {
        arith::add_limbs(&out, m).0
    } else if arith::geq(&out, m) {
        arith::sub_limbs(&out, m).0
    } else {
        out
    }
}

/// The low `64 N` bits of `(a·f + b·g + m·t) >> 31` and the signed word
/// above them (`0` or `-1` whenever the shifted value fits `N` limbs).
#[inline]
fn lin_comb_words<const N: usize>(
    a: &[u64; N],
    b: &[u64; N],
    f: i64,
    g: i64,
    m: &[u64; N],
    t: u64,
) -> ([u64; N], i128) {
    let mut out = [0u64; N];
    let mut carry = 0i128;
    let mut prev = 0u64;
    for i in 0..N {
        let acc = a[i] as i128 * f as i128
            + b[i] as i128 * g as i128
            + (m[i] as u128 * t as u128) as i128
            + carry;
        let word = acc as u64;
        carry = acc >> 64;
        if i > 0 {
            out[i - 1] = (prev >> STEPS) | (word << (64 - STEPS));
        }
        prev = word;
    }
    out[N - 1] = (prev >> STEPS) | ((carry as u64) << (64 - STEPS));
    (out, carry >> STEPS)
}

/// Operation counts incurred by one batch inversion, used to validate the
/// hardware ModInv model against the functional code path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchInverseOps {
    /// Number of field multiplications performed.
    pub muls: u64,
    /// Number of full modular inversions performed.
    pub inversions: u64,
}

/// Inverts every non-zero element of `values` in place.
///
/// Zero entries are left untouched (zero has no inverse); this mirrors how
/// sparse MLE tables are processed, where absent entries stay zero.
///
/// # Examples
///
/// ```
/// use zkphire_field::{batch_inverse, Fr};
///
/// let mut v = vec![Fr::from_u64(2), Fr::ZERO, Fr::from_u64(4)];
/// batch_inverse(&mut v);
/// assert_eq!(v[0] * Fr::from_u64(2), Fr::ONE);
/// assert_eq!(v[1], Fr::ZERO);
/// assert_eq!(v[2] * Fr::from_u64(4), Fr::ONE);
/// ```
pub fn batch_inverse<P: FieldParams<N>, const N: usize>(values: &mut [Fp<P, N>]) {
    batch_inverse_count_ops(values);
}

/// Same as [`batch_inverse`], additionally returning the operation counts.
pub fn batch_inverse_count_ops<P: FieldParams<N>, const N: usize>(
    values: &mut [Fp<P, N>],
) -> BatchInverseOps {
    batch_inverse_with_scratch(values, &mut Vec::new())
}

/// [`batch_inverse_count_ops`] with a caller-owned buffer for the prefix
/// products, so a caller inverting batch after batch (one per MSM
/// pair-reduction pass) allocates nothing once the buffer has grown.
/// `prefix` is overwritten; its contents afterwards are unspecified.
pub fn batch_inverse_with_scratch<P: FieldParams<N>, const N: usize>(
    values: &mut [Fp<P, N>],
    prefix: &mut Vec<Fp<P, N>>,
) -> BatchInverseOps {
    let mut ops = BatchInverseOps::default();

    // Forward pass: prefix products of the non-zero entries.
    prefix.clear();
    prefix.reserve(values.len());
    let mut acc = Fp::<P, N>::ONE;
    for v in values.iter() {
        prefix.push(acc);
        if !v.is_zero() {
            acc *= *v;
            ops.muls += 1;
        }
    }
    if ops.muls == 0 {
        return ops;
    }

    // One shared inversion of the total product (never fails: acc is a
    // product of non-zero elements).
    ops.inversions += 1;
    let mut inv_acc = acc.inverse().expect("product of non-zero elements");

    // Backward pass: peel one element per step.
    for (v, p) in values.iter_mut().zip(prefix.iter()).rev() {
        if v.is_zero() {
            continue;
        }
        let original = *v;
        *v = inv_acc * *p;
        inv_acc *= original;
        ops.muls += 2;
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_individual_inverse() {
        let mut rng = StdRng::seed_from_u64(11);
        let original: Vec<Fr> = (0..100).map(|_| Fr::random(&mut rng)).collect();
        let mut batched = original.clone();
        batch_inverse(&mut batched);
        for (o, b) in original.iter().zip(&batched) {
            assert_eq!(o.inverse().unwrap(), *b);
        }
    }

    #[test]
    fn zeros_are_skipped() {
        let mut values = vec![Fr::ZERO; 5];
        values[2] = Fr::from_u64(3);
        let ops = batch_inverse_count_ops(&mut values);
        assert_eq!(values[2] * Fr::from_u64(3), Fr::ONE);
        assert!(values[0].is_zero() && values[4].is_zero());
        assert_eq!(ops.inversions, 1);
    }

    #[test]
    fn all_zero_is_noop() {
        let mut values = vec![Fr::ZERO; 4];
        let ops = batch_inverse_count_ops(&mut values);
        assert_eq!(ops.inversions, 0);
        assert!(values.iter().all(Fr::is_zero));
    }

    #[test]
    fn op_counts_match_formula() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut values: Vec<Fr> = (0..64).map(|_| Fr::random(&mut rng)).collect();
        let ops = batch_inverse_count_ops(&mut values);
        // n forward muls + 2n backward muls, one inversion.
        assert_eq!(ops.muls, 64 + 2 * 64);
        assert_eq!(ops.inversions, 1);
    }

    #[test]
    fn scratch_is_reused_across_batches() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut scratch = Vec::new();
        for n in [40usize, 7, 0, 40] {
            let original: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            let mut with_scratch = original.clone();
            let mut plain = original;
            let ops = batch_inverse_with_scratch(&mut with_scratch, &mut scratch);
            assert_eq!(ops, batch_inverse_count_ops(&mut plain));
            assert_eq!(with_scratch, plain);
        }
        assert!(scratch.capacity() >= 40);
    }

    #[test]
    fn empty_slice() {
        let mut values: Vec<Fr> = Vec::new();
        let ops = batch_inverse_count_ops(&mut values);
        assert_eq!(ops, BatchInverseOps::default());
    }
}
