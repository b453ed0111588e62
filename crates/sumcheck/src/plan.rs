//! The production round evaluator: a schedule compiled once per prove
//! from the composite polynomial and executed once per pair of table
//! entries.
//!
//! This is the schedule the paper's SumCheck unit is programmed with
//! (Fig. 2, §III-C, §IV-B1). [`count_ops`](crate::count_ops) counts a
//! denser one, every MLE extended to all `K` points and every term
//! multiplied at every point; this plan differs from it in four ways:
//!
//! * **Early exit.** A term with `d` factors is a degree-`d` polynomial in
//!   the round variable, so `d + 1` evaluations determine it. Terms are
//!   grouped into *classes* by degree and coefficient (up to sign); a class
//!   is accumulated over the pairs at `d + 1` points only, and extended to
//!   all `K` points once per round by forward differences — adds only,
//!   like the Extension Engines. Its coefficient is applied to the `d + 1`
//!   class sums once per round, so no pair ever multiplies by one.
//!   Constant terms contribute `coeff · pairs` at round end.
//! * **Short lines, short chains.** An MLE's line is extended only to the
//!   most points any of its terms needs, and a repeated factor is raised by
//!   square-and-multiply (`w^30`: 7 multiplications, not 29).
//! * **`f_r` factored out.** A factor present in every non-constant term —
//!   the ZeroCheck's `f_r` — is multiplied into each class once per point
//!   instead of into each term.
//! * **Zero lines skipped.** A pair whose two entries are both zero makes
//!   that MLE's line identically zero, and every term containing it is
//!   skipped for the pair. That is exact, and a property observed in the
//!   input — binary selectors and ~90 %-sparse witnesses (§IV-B1) — which
//!   decays by itself as folding densifies the tables. It makes prover time
//!   depend on witness sparsity: prover-side, non-ZK code, like the MSM's
//!   zero-scalar skip.
//!
//! Field arithmetic is exact, so the round polynomials equal the
//! composite summed by definition, bit for bit, at every thread count:
//! workers sum disjoint pair ranges into their own class sums, which are
//! reduced in worker order before the one extension.

use std::borrow::Cow;

use zkphire_field::Fr;
use zkphire_poly::{CompositePoly, Mle};

/// Pair count below which a round costs less than spawning workers.
const PAR_MIN_PAIRS: usize = 1024;

/// One MLE the schedule reads.
struct Line {
    /// Slot in the binding.
    slot: usize,
    /// Points its line is extended to: the largest `degree + 1` over the
    /// terms that contain it.
    points: usize,
}

/// One product of a class, the common factor removed.
struct PlanTerm {
    /// Whether the term's coefficient is minus the class coefficient.
    negate: bool,
    /// Distinct factors as `(index into lines, exponent >= 1)`.
    factors: Vec<(usize, u32)>,
}

/// The terms that share a degree and a coefficient up to sign.
struct Class {
    /// Factor count of every term, the common factor included.
    degree: usize,
    /// Applied to the class sums once per round.
    coeff: Fr,
    terms: Vec<PlanTerm>,
    /// Where the `degree + 1` class sums start in [`Scratch::acc`].
    offset: usize,
}

/// The compiled schedule of one composite polynomial.
pub(crate) struct RoundPlan {
    /// Evaluations per round polynomial, `max(degree, 1) + 1`.
    k: usize,
    lines: Vec<Line>,
    /// Index into `lines` of the factor pulled out of every non-constant
    /// term, when there is one.
    common: Option<usize>,
    classes: Vec<Class>,
    /// Sum of the constant terms' coefficients.
    constant: Fr,
    /// Length of [`Scratch::acc`]: `Σ (degree + 1)` over the classes.
    acc_len: usize,
}

/// One worker's buffers, allocated once per prove.
pub(crate) struct Scratch {
    /// `ext[i * k + t]`: line `i` at point `t`, for the current pair.
    ext: Vec<Fr>,
    /// Whether line `i` is identically zero for the current pair.
    zero: Vec<bool>,
    /// One class's sum of products before the common factor multiplies in;
    /// the difference table when the round is assembled.
    inner: Vec<Fr>,
    /// Every class's sums over the worker's pairs.
    acc: Vec<Fr>,
}

impl RoundPlan {
    pub(crate) fn new(poly: &CompositePoly) -> Self {
        let k = poly.degree().max(1) + 1;
        let slots: Vec<usize> = poly.unique_mles().iter().map(|id| id.0).collect();
        let line_of = |slot: usize| slots.binary_search(&slot).expect("slot of a term factor");
        let common = slots.iter().position(|&slot| {
            poly.terms()
                .iter()
                .all(|t| t.factors.is_empty() || t.factors.iter().any(|f| f.0 == slot))
        });

        let mut points = vec![0; slots.len()];
        let mut classes: Vec<Class> = Vec::new();
        let mut constant = Fr::ZERO;
        let mut acc_len = 0;
        for term in poly.terms() {
            let degree = term.degree();
            if degree == 0 {
                constant += term.coeff;
                continue;
            }
            let mut factors: Vec<(usize, u32)> = Vec::new();
            for f in &term.factors {
                let line = line_of(f.0);
                points[line] = points[line].max(degree + 1);
                match factors.iter_mut().find(|(l, _)| *l == line) {
                    Some((_, exp)) => *exp += 1,
                    None => factors.push((line, 1)),
                }
            }
            if let Some(c) = common {
                let at = factors
                    .iter()
                    .position(|&(l, _)| l == c)
                    .expect("common factor is in every non-constant term");
                factors[at].1 -= 1;
                if factors[at].1 == 0 {
                    factors.remove(at);
                }
            }
            // The smaller of ±coeff as integers names the class, so `1`
            // stands for ±1 and never costs a multiplication.
            let coeff = term.coeff.min(-term.coeff);
            let term = PlanTerm {
                negate: coeff != term.coeff,
                factors,
            };
            match classes
                .iter_mut()
                .find(|c| c.degree == degree && c.coeff == coeff)
            {
                Some(class) => class.terms.push(term),
                None => {
                    classes.push(Class {
                        degree,
                        coeff,
                        terms: vec![term],
                        offset: acc_len,
                    });
                    acc_len += degree + 1;
                }
            }
        }
        let lines = slots
            .into_iter()
            .zip(points)
            .map(|(slot, points)| Line { slot, points })
            .collect();
        Self {
            k,
            lines,
            common,
            classes,
            constant,
            acc_len,
        }
    }

    fn scratch(&self) -> Scratch {
        Scratch {
            ext: vec![Fr::ZERO; self.lines.len() * self.k],
            zero: vec![false; self.lines.len()],
            inner: vec![Fr::ZERO; self.k],
            acc: vec![Fr::ZERO; self.acc_len],
        }
    }

    /// Field multiplications one pair costs when no line is zero — the
    /// dense upper bound, to set beside `count_ops`' per-pair product
    /// multiplications of the dense schedule.
    #[cfg(test)]
    fn muls_per_pair(&self) -> u64 {
        let chain = |exp: u32| exp.ilog2() + exp.count_ones() - 1;
        let mut muls = 0;
        for class in &self.classes {
            let mut per_point = u32::from(self.common.is_some());
            for term in &class.terms {
                let powers: u32 = term.factors.iter().map(|&(_, exp)| chain(exp)).sum();
                per_point += powers + (term.factors.len() as u32).saturating_sub(1);
            }
            muls += u64::from(per_point) * (class.degree as u64 + 1);
        }
        muls
    }

    /// The round polynomial `s(0..k)` of the current tables, on up to
    /// `threads >= 1` workers; `scratch` grows to one entry per worker used.
    pub(crate) fn round_evals(
        &self,
        mles: &[Cow<'_, Mle>],
        scratch: &mut Vec<Scratch>,
        threads: usize,
    ) -> Vec<Fr> {
        let pairs = mles[0].len() / 2;
        let workers = if pairs < PAR_MIN_PAIRS {
            1
        } else {
            threads.min(pairs)
        };
        while scratch.len() < workers {
            scratch.push(self.scratch());
        }
        if workers == 1 {
            self.accumulate_range(mles, 0..pairs, &mut scratch[0]);
        } else {
            let chunk = pairs.div_ceil(workers);
            std::thread::scope(|scope| {
                for (w, s) in scratch[..workers].iter_mut().enumerate() {
                    let range = (w * chunk).min(pairs)..((w + 1) * chunk).min(pairs);
                    scope.spawn(move || self.accumulate_range(mles, range, s));
                }
            });
        }
        let (total, rest) = scratch.split_first_mut().expect("one scratch per worker");
        for partial in &rest[..workers - 1] {
            for (sum, p) in total.acc.iter_mut().zip(&partial.acc) {
                *sum += *p;
            }
        }

        let mut evals = vec![self.constant * Fr::from_u64(pairs as u64); self.k];
        for class in &self.classes {
            let sums = &mut total.acc[class.offset..=class.offset + class.degree];
            if !class.coeff.is_one() {
                for sum in sums.iter_mut() {
                    *sum *= class.coeff;
                }
            }
            add_extended(sums, &mut total.inner, &mut evals);
        }
        evals
    }

    /// Sums every class over the pairs of `range` into `s.acc`.
    fn accumulate_range(
        &self,
        mles: &[Cow<'_, Mle>],
        range: std::ops::Range<usize>,
        s: &mut Scratch,
    ) {
        s.acc.fill(Fr::ZERO);
        for j in range {
            self.accumulate_pair(mles, j, s);
        }
    }

    /// Adds pair `j` (entries `2j`, `2j + 1` of every table) to the class
    /// sums.
    #[inline]
    fn accumulate_pair(&self, mles: &[Cow<'_, Mle>], j: usize, s: &mut Scratch) {
        let k = self.k;
        let Scratch {
            ext,
            zero,
            inner,
            acc,
        } = s;
        for (i, line) in self.lines.iter().enumerate() {
            let evals = mles[line.slot].evals();
            let (f0, f1) = (evals[2 * j], evals[2 * j + 1]);
            zero[i] = f0.is_zero() && f1.is_zero();
            if zero[i] {
                if self.common == Some(i) {
                    return; // every non-constant term contains it
                }
                continue;
            }
            let e = &mut ext[i * k..i * k + line.points];
            e[0] = f0;
            e[1] = f1;
            let diff = f1 - f0;
            for t in 2..e.len() {
                e[t] = e[t - 1] + diff;
            }
        }
        for class in &self.classes {
            let sums = &mut acc[class.offset..=class.offset + class.degree];
            let mut live = class
                .terms
                .iter()
                .filter(|term| !term.factors.iter().any(|&(line, _)| zero[line]))
                .peekable();
            if live.peek().is_none() {
                continue;
            }
            match self.common {
                None => {
                    for term in live {
                        term.add_products(ext, k, sums);
                    }
                }
                Some(c) => {
                    let inner = &mut inner[..sums.len()];
                    inner.fill(Fr::ZERO);
                    for term in live {
                        term.add_products(ext, k, inner);
                    }
                    for ((sum, x), f) in sums.iter_mut().zip(inner.iter()).zip(&ext[c * k..]) {
                        *sum += *x * *f;
                    }
                }
            }
        }
    }
}

impl PlanTerm {
    /// Adds (or subtracts) the term's product at each point `t` to `out[t]`.
    #[inline]
    fn add_products(&self, ext: &[Fr], k: usize, out: &mut [Fr]) {
        for (t, o) in out.iter_mut().enumerate() {
            let prod = match self.factors.split_first() {
                None => Fr::ONE, // the common factor alone
                Some((&(line, exp), rest)) => {
                    let mut prod = pow(ext[line * k + t], exp);
                    for &(line, exp) in rest {
                        prod *= pow(ext[line * k + t], exp);
                    }
                    prod
                }
            };
            if self.negate {
                *o -= prod;
            } else {
                *o += prod;
            }
        }
    }
}

/// `x^exp` for `exp >= 1` by left-to-right square-and-multiply.
#[inline]
fn pow(x: Fr, exp: u32) -> Fr {
    let mut acc = x;
    for bit in (0..exp.ilog2()).rev() {
        acc = acc.square();
        if (exp >> bit) & 1 == 1 {
            acc *= x;
        }
    }
    acc
}

/// Adds to every `evals[t]` the value at `t` of the polynomial of degree
/// `< values.len()` through the points `(i, values[i])`: the given values
/// as they are, the rest by Newton forward differences (adds only).
/// `table` is scratch of at least `values.len()` entries.
fn add_extended(values: &[Fr], table: &mut [Fr], evals: &mut [Fr]) {
    let n = values.len();
    let table = &mut table[..n];
    table.copy_from_slice(values);
    // Pass `p` turns table[i] into Δ^p v[i] for i < n - p and leaves
    // table[n - p] = Δ^(p-1) v[n - p] from the pass before: the table ends
    // as its own trailing edge, table[n - 1 - p] = Δ^p v[n - 1 - p].
    for p in 1..n {
        for i in 0..n - p {
            table[i] = table[i + 1] - table[i];
        }
    }
    for (e, v) in evals.iter_mut().zip(values) {
        *e += *v;
    }
    for e in &mut evals[n..] {
        // Δ^(n-1) is constant; each lower order steps by the one above.
        for i in 1..n {
            table[i] += table[i - 1];
        }
        *e += table[n - 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count_ops, BarycentricWeights};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkphire_poly::{high_degree_gate, table1_gate};

    #[test]
    fn forward_differences_match_barycentric_interpolation() {
        let mut rng = StdRng::seed_from_u64(17);
        for points in 2..=33usize {
            let weights = BarycentricWeights::new(points - 1);
            let values: Vec<Fr> = (0..points).map(|_| Fr::random(&mut rng)).collect();
            for k in points..=33 {
                let base: Vec<Fr> = (0..k).map(|_| Fr::random(&mut rng)).collect();
                let mut evals = base.clone();
                add_extended(&values, &mut vec![Fr::ZERO; k], &mut evals);
                for t in 0..k {
                    let expected = weights.interpolate(&values, Fr::from_u64(t as u64));
                    assert_eq!(
                        evals[t] - base[t],
                        expected,
                        "points {points}, k {k}, t {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn square_and_multiply_matches_repeated_multiplication() {
        let x = Fr::from_u64(3);
        let mut expected = Fr::ONE;
        for exp in 1..=40u32 {
            expected *= x;
            assert_eq!(pow(x, exp), expected, "exp {exp}");
        }
    }

    #[test]
    fn dense_multiplication_counts_are_pinned() {
        // (gate, `count_ops`' dense schedule, this plan): the
        // host-independent figures docs/PERF.md quotes.
        for (what, poly, reference, planned) in [
            ("Vanilla ZeroCheck", table1_gate(20).poly, 50, 34),
            ("Jellyfish ZeroCheck", table1_gate(22).poly, 368, 223),
            ("high_degree_gate(32)", high_degree_gate(32).poly, 1089, 303),
        ] {
            // One variable is one round over one pair.
            assert_eq!(count_ops(&poly, 1).product_muls, reference, "{what}");
            assert_eq!(RoundPlan::new(&poly).muls_per_pair(), planned, "{what}");
        }
    }
}
