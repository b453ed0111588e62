//! Dense multilinear-extension (MLE) tables.
//!
//! An MLE over µ variables is stored as a flat table of `2^µ` evaluations
//! indexed by the binary assignment of its inputs, exactly as the paper
//! stores them in scratchpads (§II-C: "MLEs ... can be stored as flat
//! lookup tables indexed by binary inputs"). Variable 1 is the least
//! significant index bit, so the SumCheck round-1 pair
//! `(f(0, x2..), f(1, x2..))` occupies adjacent entries — the layout the
//! Extension Engines stream.

use zkphire_field::Fr;

/// A multilinear polynomial represented by its evaluations on the boolean
/// hypercube.
///
/// # Examples
///
/// ```
/// use zkphire_poly::Mle;
/// use zkphire_field::Fr;
///
/// // f(x1, x2) with f(0,0)=1, f(1,0)=2, f(0,1)=3, f(1,1)=4
/// let f = Mle::new((1..=4).map(Fr::from_u64).collect());
/// assert_eq!(f.num_vars(), 2);
/// assert_eq!(f.evaluate(&[Fr::ZERO, Fr::ONE]), Fr::from_u64(3));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mle {
    evals: Vec<Fr>,
    num_vars: usize,
}

impl Mle {
    /// Wraps a power-of-two-length evaluation table.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two (or is zero).
    pub fn new(evals: Vec<Fr>) -> Self {
        assert!(
            evals.len().is_power_of_two(),
            "MLE table length must be a power of two, got {}",
            evals.len()
        );
        let num_vars = evals.len().trailing_zeros() as usize;
        Self { evals, num_vars }
    }

    /// The all-zeros MLE over `num_vars` variables.
    pub fn zero(num_vars: usize) -> Self {
        Self {
            evals: vec![Fr::ZERO; 1 << num_vars],
            num_vars,
        }
    }

    /// The constant MLE over `num_vars` variables.
    pub fn constant(value: Fr, num_vars: usize) -> Self {
        Self {
            evals: vec![value; 1 << num_vars],
            num_vars,
        }
    }

    /// Builds an MLE by evaluating `f` on each hypercube index.
    pub fn from_fn(num_vars: usize, mut f: impl FnMut(usize) -> Fr) -> Self {
        Self {
            evals: (0..1usize << num_vars).map(&mut f).collect(),
            num_vars,
        }
    }

    /// Number of variables µ.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Table length `2^µ`.
    pub fn len(&self) -> usize {
        self.evals.len()
    }

    /// Returns `true` for the (impossible) empty table; present for clippy
    /// symmetry with [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        self.evals.is_empty()
    }

    /// The underlying evaluation table.
    pub fn evals(&self) -> &[Fr] {
        &self.evals
    }

    /// Mutable access to the evaluation table.
    pub fn evals_mut(&mut self) -> &mut [Fr] {
        &mut self.evals
    }

    /// The paper's *MLE Update* kernel: fixes `X_1 = r`, halving the table.
    ///
    /// `f(r, x2..xµ) = f(0, x2..) + r * (f(1, x2..) - f(0, x2..))`
    ///
    /// # Panics
    ///
    /// Panics when called on a zero-variable MLE.
    pub fn fix_first_variable(&self, r: Fr) -> Self {
        assert!(self.num_vars > 0, "cannot fix a variable of a constant");
        let half = self.evals.len() / 2;
        let evals = (0..half)
            .map(|i| {
                let f0 = self.evals[2 * i];
                let f1 = self.evals[2 * i + 1];
                f0 + r * (f1 - f0)
            })
            .collect();
        Self {
            evals,
            num_vars: self.num_vars - 1,
        }
    }

    /// [`fix_first_variable`](Self::fix_first_variable) split across
    /// `threads` workers.
    ///
    /// The output is chunked over disjoint index ranges, so the result is
    /// bit-identical to the sequential path for every thread count. Small
    /// tables fall back to the sequential kernel — spawning costs more
    /// than the fold below ~2^12 entries.
    ///
    /// # Panics
    ///
    /// Panics when called on a zero-variable MLE.
    pub fn fix_first_variable_par(&self, r: Fr, threads: usize) -> Self {
        assert!(self.num_vars > 0, "cannot fix a variable of a constant");
        let half = self.evals.len() / 2;
        if threads <= 1 || half < (1 << 12) {
            return self.fix_first_variable(r);
        }
        let mut out = vec![Fr::ZERO; half];
        let chunk = half.div_ceil(threads);
        let src = &self.evals;
        std::thread::scope(|scope| {
            for (t, out_chunk) in out.chunks_mut(chunk).enumerate() {
                let start = t * chunk;
                scope.spawn(move || {
                    for (i, o) in out_chunk.iter_mut().enumerate() {
                        let j = start + i;
                        let f0 = src[2 * j];
                        let f1 = src[2 * j + 1];
                        *o = f0 + r * (f1 - f0);
                    }
                });
            }
        });
        Self {
            evals: out,
            num_vars: self.num_vars - 1,
        }
    }

    /// [`fix_first_variable_par`](Self::fix_first_variable_par) in place:
    /// entry `j` of the folded table reads only entries `2j` and `2j + 1`,
    /// so it may overwrite entry `j`. The table keeps its allocation and
    /// shrinks to half its length, bit-identical to the copying fold for
    /// every `threads`.
    ///
    /// Above ~2^12 pairs, workers fold disjoint chunks into the front of
    /// their own chunk, and the folded runs are then moved down next to
    /// each other.
    ///
    /// # Panics
    ///
    /// Panics when called on a zero-variable MLE.
    pub fn fold_in_place(&mut self, r: Fr, threads: usize) {
        assert!(self.num_vars > 0, "cannot fix a variable of a constant");
        let half = self.evals.len() / 2;
        if threads <= 1 || half < (1 << 12) {
            fold_pairs(&mut self.evals, r);
        } else {
            let chunk = 2 * half.div_ceil(threads);
            std::thread::scope(|scope| {
                for pairs in self.evals.chunks_mut(chunk) {
                    scope.spawn(move || fold_pairs(pairs, r));
                }
            });
            // Run `t` starts at `t * chunk` and belongs at `t * chunk / 2`;
            // moved in order, no run overwrites one still to be moved.
            for start in (chunk..self.evals.len()).step_by(chunk) {
                let len = (self.evals.len() - start).min(chunk) / 2;
                self.evals.copy_within(start..start + len, start / 2);
            }
        }
        self.evals.truncate(half);
        self.num_vars -= 1;
    }

    /// Evaluates the multilinear extension at an arbitrary field point.
    ///
    /// The first fold reads this table and writes a half-size one; every
    /// later fold is in place, so the table is never copied whole.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != num_vars`.
    pub fn evaluate(&self, point: &[Fr]) -> Fr {
        assert_eq!(point.len(), self.num_vars, "point arity mismatch");
        let Some((&r, rest)) = point.split_first() else {
            return self.evals[0];
        };
        let mut table = self.fix_first_variable(r);
        for &r in rest {
            table.fold_in_place(r, 1);
        }
        table.evals[0]
    }

    /// Builds the `eq(x, r)` MLE — the paper's *Build MLE* kernel, used to
    /// randomize ZeroChecks (§III-F, where it is written `f_r`).
    ///
    /// Entry `b` equals `Π_j (b_j r_j + (1-b_j)(1-r_j))`.
    pub fn eq_table(point: &[Fr]) -> Self {
        let num_vars = point.len();
        let mut evals = vec![Fr::ONE];
        for (j, &r) in point.iter().enumerate() {
            let stride = 1usize << j;
            let mut next = vec![Fr::ZERO; stride * 2];
            let one_minus_r = Fr::ONE - r;
            for (i, &v) in evals.iter().enumerate() {
                next[i] = v * one_minus_r;
                next[i + stride] = v * r;
            }
            evals = next;
        }
        Self { evals, num_vars }
    }

    /// Sum of all table entries (the SumCheck claim `Σ_x f(x)`).
    pub fn hypercube_sum(&self) -> Fr {
        self.evals.iter().copied().sum()
    }

    /// Fraction of zero entries — the sparsity statistic the accelerator's
    /// per-tile offset buffers exploit (§IV-B1).
    pub fn zero_fraction(&self) -> f64 {
        let zeros = self.evals.iter().filter(|e| e.is_zero()).count();
        zeros as f64 / self.evals.len() as f64
    }

    /// Fraction of entries that are 0 or 1 (selector MLEs are fully binary).
    pub fn binary_fraction(&self) -> f64 {
        let binary = self
            .evals
            .iter()
            .filter(|e| e.is_zero() || e.is_one())
            .count();
        binary as f64 / self.evals.len() as f64
    }
}

/// Folds the pairs of `table` at `r` into its first half.
fn fold_pairs(table: &mut [Fr], r: Fr) {
    for j in 0..table.len() / 2 {
        let (f0, f1) = (table[2 * j], table[2 * j + 1]);
        table[j] = f0 + r * (f1 - f0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_mle(num_vars: usize, seed: u64) -> Mle {
        let mut rng = StdRng::seed_from_u64(seed);
        Mle::from_fn(num_vars, |_| Fr::random(&mut rng))
    }

    #[test]
    fn evaluate_on_hypercube_matches_table() {
        let f = random_mle(4, 1);
        for b in 0..16usize {
            let point: Vec<Fr> = (0..4)
                .map(|j| if (b >> j) & 1 == 1 { Fr::ONE } else { Fr::ZERO })
                .collect();
            assert_eq!(f.evaluate(&point), f.evals()[b]);
        }
    }

    #[test]
    fn fix_first_variable_consistency() {
        let f = random_mle(5, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let r: Vec<Fr> = (0..5).map(|_| Fr::random(&mut rng)).collect();
        let fixed = f.fix_first_variable(r[0]);
        assert_eq!(fixed.num_vars(), 4);
        assert_eq!(fixed.evaluate(&r[1..]), f.evaluate(&r));
    }

    #[test]
    fn fix_first_variable_par_matches_sequential() {
        // Above and below the parallel threshold, any thread count must
        // reproduce the sequential fold exactly.
        for num_vars in [5usize, 13] {
            let f = random_mle(num_vars, 20 + num_vars as u64);
            let mut rng = StdRng::seed_from_u64(21);
            let r = Fr::random(&mut rng);
            let expected = f.fix_first_variable(r);
            for threads in [1usize, 2, 3, 8] {
                assert_eq!(
                    f.fix_first_variable_par(r, threads),
                    expected,
                    "num_vars={num_vars} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn fold_in_place_matches_fix_first_variable() {
        // µ = 13 is the first size whose 2^12 pairs take the chunked path;
        // 3 workers leave a short last chunk.
        let mut rng = StdRng::seed_from_u64(22);
        for num_vars in 1usize..=13 {
            let f = random_mle(num_vars, 40 + num_vars as u64);
            let r = Fr::random(&mut rng);
            let expected = f.fix_first_variable(r);
            for threads in [1usize, 2, 3, 8] {
                let mut folded = f.clone();
                folded.fold_in_place(r, threads);
                assert_eq!(folded, expected, "num_vars={num_vars} threads={threads}");
            }
        }
    }

    #[test]
    fn eq_table_entries() {
        let mut rng = StdRng::seed_from_u64(4);
        let r: Vec<Fr> = (0..3).map(|_| Fr::random(&mut rng)).collect();
        let eq = Mle::eq_table(&r);
        for b in 0..8usize {
            let mut expected = Fr::ONE;
            for (j, &rj) in r.iter().enumerate() {
                expected *= if (b >> j) & 1 == 1 { rj } else { Fr::ONE - rj };
            }
            assert_eq!(eq.evals()[b], expected, "entry {b}");
        }
        // Partition of unity: Σ_b eq(b, r) == 1.
        assert_eq!(eq.hypercube_sum(), Fr::ONE);
    }

    #[test]
    fn eq_table_interpolates() {
        // f(r) == Σ_b f(b) eq(b, r) — the defining MLE identity.
        let f = random_mle(4, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let r: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
        let eq = Mle::eq_table(&r);
        let via_eq: Fr = f.evals().iter().zip(eq.evals()).map(|(a, b)| *a * *b).sum();
        assert_eq!(via_eq, f.evaluate(&r));
    }

    #[test]
    fn repeated_fixing_equals_evaluate() {
        let f = random_mle(6, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let point: Vec<Fr> = (0..6).map(|_| Fr::random(&mut rng)).collect();
        let mut g = f.clone();
        for &r in &point {
            g = g.fix_first_variable(r);
        }
        assert_eq!(g.evals()[0], f.evaluate(&point));
    }

    #[test]
    fn sparsity_statistics() {
        let mut evals = vec![Fr::ZERO; 8];
        evals[0] = Fr::ONE;
        evals[1] = Fr::from_u64(9);
        let f = Mle::new(evals);
        assert!((f.zero_fraction() - 0.75).abs() < 1e-9);
        assert!((f.binary_fraction() - 0.875).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Mle::new(vec![Fr::ZERO; 3]);
    }

    #[test]
    fn constant_and_zero() {
        assert_eq!(Mle::zero(3).hypercube_sum(), Fr::ZERO);
        assert_eq!(
            Mle::constant(Fr::from_u64(2), 3).hypercube_sum(),
            Fr::from_u64(16)
        );
    }
}
