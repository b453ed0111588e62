//! The SumCheck prover over composite polynomials.
//!
//! Implements the round structure of paper §II-C3 and Fig. 1 for an
//! arbitrary sum of products of multilinear polynomials: each round sums
//! the composite over the pairs of table entries at the `d + 1` points
//! `X_i = 0..=d`, hashes those evaluations into the transcript to derive
//! the challenge, and halves every MLE with the *MLE Update* kernel.
//!
//! The tables stream as they do through the hardware (§III-E): round 1
//! reads each bound table once and writes a half-size copy the prover
//! owns, and every later round folds those copies in place (entry `j`
//! reads only `2j` and `2j + 1`). A binding is a `Vec<Cow<Mle>>`: a
//! borrowed table is never copied whole, and an owned one is freed as soon
//! as its half is written. [`prove_borrowed`] takes that binding;
//! [`prove`] / [`prove_with_threads`] wrap it for an owned `Vec<Mle>`.
//!
//! Every entry point runs one round evaluator, the schedule of
//! [`plan`](crate::plan), and it is the repo's real CPU baseline: compiled
//! once per prove, each term class evaluated at its own `degree + 1`
//! points, zero lines skipped, `f_r` factored out. Its multiplications are
//! not the ones [`count_ops`](crate::count_ops) counts, which is the dense
//! per-pair dataflow (see [`ops`](crate::ops)). The tests hold every round
//! polynomial to the composite evaluated by definition.

use std::borrow::Cow;

use zkphire_field::Fr;
use zkphire_poly::{CompositePoly, Mle};
use zkphire_telemetry as tele;
use zkphire_transcript::Transcript;

use crate::plan::RoundPlan;

/// A complete SumCheck proof: the claim, every round polynomial (as
/// evaluations at `0..=d`), and the constituent-MLE evaluations at the
/// final challenge point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SumCheckProof {
    /// The claimed hypercube sum `Σ_x f(x)`.
    pub claimed_sum: Fr,
    /// Round polynomials, one per variable; entry `i` holds `s_i(0..=d)`.
    pub round_evals: Vec<Vec<Fr>>,
    /// Evaluation of each constituent MLE at the final challenge point.
    pub final_mle_evals: Vec<Fr>,
}

impl SumCheckProof {
    /// Serialized proof size in bytes (32-byte field elements), the metric
    /// of the paper's Table IX.
    pub fn size_bytes(&self) -> usize {
        let elems =
            1 + self.round_evals.iter().map(Vec::len).sum::<usize>() + self.final_mle_evals.len();
        elems * 32
    }
}

/// Prover output: the proof plus the verifier challenges it was bound to.
#[derive(Clone, Debug)]
pub struct ProverOutput {
    /// The proof to ship.
    pub proof: SumCheckProof,
    /// The Fiat–Shamir challenges `r_1..r_µ` (the final evaluation point).
    pub challenges: Vec<Fr>,
}

/// Runs the multithreaded SumCheck prover with one worker per available
/// core. See [`prove_with_threads`] for an explicit thread count.
///
/// `mles` must bind every slot of `poly` (see
/// [`CompositePoly::validate_binding`]). The tables are consumed: each is
/// freed as soon as round 1 has written its half-size copy, which later
/// rounds fold in place. [`prove_borrowed`] proves over tables the caller
/// keeps.
///
/// # Panics
///
/// Panics if the binding is invalid or the tables are zero-variable.
pub fn prove(poly: &CompositePoly, mles: Vec<Mle>, transcript: &mut Transcript) -> ProverOutput {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    prove_with_threads(poly, mles, transcript, threads)
}

/// [`prove`] with an explicit worker-thread count.
///
/// Both the round evaluations and the MLE folds chunk the hypercube over
/// disjoint ranges with a deterministic reduction order, so proofs and
/// transcripts are bit-identical for every `threads` value (including 1).
pub fn prove_with_threads(
    poly: &CompositePoly,
    mles: Vec<Mle>,
    transcript: &mut Transcript,
    threads: usize,
) -> ProverOutput {
    prove_borrowed(poly, owned(mles), transcript, threads)
}

/// [`prove_with_threads`] over a binding whose tables may be borrowed.
///
/// Round 1 reads a borrowed table in place and never copies it whole; an
/// owned one is freed once its half-size copy is written. Proofs and
/// transcripts equal those of the owned entry points bit for bit.
///
/// The final MLE evaluations are left out of the transcript, as in
/// [`verify`](crate::verify): the caller binds them once they are final.
pub fn prove_borrowed(
    poly: &CompositePoly,
    mut tables: Vec<Cow<'_, Mle>>,
    transcript: &mut Transcript,
    threads: usize,
) -> ProverOutput {
    poly.validate_binding(&tables);
    let num_vars = tables.first().expect("at least one MLE").num_vars();
    assert!(num_vars >= 1, "SumCheck needs at least one variable");
    let degree = poly.degree();
    let threads = threads.max(1);
    // Compiled and allocated once per prove, not per round.
    let plan = RoundPlan::new(poly);
    let mut scratch = Vec::new();

    transcript.append_u64(b"sumcheck/num_vars", num_vars as u64);
    transcript.append_u64(b"sumcheck/degree", degree as u64);

    let mut rounds = Vec::with_capacity(num_vars);
    let mut challenges = Vec::with_capacity(num_vars);
    let mut claimed_sum = Fr::ZERO;

    for round in 0..num_vars {
        // Spans live on the orchestrating thread only; the scoped round
        // workers stay span-free so recording never perturbs them.
        let _round_span = tele::span("sumcheck/round");
        let evals = plan.round_evals(&tables, &mut scratch, threads);
        if round == 0 {
            claimed_sum = evals[0] + evals[1];
            transcript.append_fr(b"sumcheck/claim", &claimed_sum);
        }
        transcript.append_frs(b"sumcheck/round", &evals);
        let r = transcript.challenge_fr(b"sumcheck/challenge");
        rounds.push(evals);
        challenges.push(r);

        let _fold_span = tele::span("sumcheck/fold");
        fold_tables(&mut tables, r, round == 0, threads);
    }

    let final_mle_evals = tables.iter().map(|m| m.evals()[0]).collect();
    ProverOutput {
        proof: SumCheckProof {
            claimed_sum,
            round_evals: rounds,
            final_mle_evals,
        },
        challenges,
    }
}

/// An owned binding in the form [`prove_borrowed`] takes.
pub(crate) fn owned(mles: Vec<Mle>) -> Vec<Cow<'static, Mle>> {
    mles.into_iter().map(Cow::Owned).collect()
}

/// The paper's *MLE Update* kernel over the whole binding: every table is
/// halved at the round challenge, parallelized across (and, when the slot
/// count is small, within) the tables.
fn fold_tables(tables: &mut [Cow<'_, Mle>], r: Fr, first: bool, threads: usize) {
    // Below ~2^13 total entries the folds cost less than spawning.
    let total: usize = tables.iter().map(|m| m.len()).sum();
    if threads <= 1 || total < (1 << 13) {
        for table in tables.iter_mut() {
            fold_table(table, r, first, 1);
        }
    } else if tables.len() >= threads {
        // Enough slots to keep every worker busy on whole tables.
        let chunk = tables.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for group in tables.chunks_mut(chunk) {
                scope.spawn(move || {
                    for table in group {
                        fold_table(table, r, first, 1);
                    }
                });
            }
        });
    } else {
        // Few large tables: split each fold across the workers instead.
        for table in tables.iter_mut() {
            fold_table(table, r, first, threads);
        }
    }
}

/// Halves one table at `r`. The `first` fold reads the original and
/// writes the prover's half-size copy — assigning it drops an owned
/// original there and then; every later fold is in place.
fn fold_table(table: &mut Cow<'_, Mle>, r: Fr, first: bool, threads: usize) {
    match table {
        Cow::Owned(m) if !first => m.fold_in_place(r, threads),
        _ => *table = Cow::Owned(table.fix_first_variable_par(r, threads)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count_ops, verify_with_oracle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkphire_poly::{MleId, Term};

    fn random_mles(n: usize, num_vars: usize, seed: u64) -> Vec<Mle> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Mle::from_fn(num_vars, |_| Fr::random(&mut rng)))
            .collect()
    }

    fn test_poly() -> CompositePoly {
        // f = a*b*e - 2*c*e + e*g  (shared factor e, mixed degrees)
        CompositePoly::new(vec![
            Term {
                coeff: Fr::ONE,
                scalars: vec![],
                factors: vec![MleId(0), MleId(1), MleId(2)],
            },
            Term {
                coeff: -Fr::from_u64(2),
                scalars: vec![],
                factors: vec![MleId(3), MleId(2)],
            },
            Term {
                coeff: Fr::ONE,
                scalars: vec![],
                factors: vec![MleId(2), MleId(4)],
            },
        ])
    }

    /// Checks a finished proof by definition: round `i` at every point
    /// `t < k` against the composite summed over the pairs of the tables
    /// fixed at the challenges before it; then the verifier's round, final
    /// and oracle checks, and its challenges.
    fn assert_by_definition(poly: &CompositePoly, mles: &[Mle], out: &ProverOutput, what: &str) {
        let k = poly.degree().max(1) + 1;
        let mut tables = mles.to_vec();
        for (i, evals) in out.proof.round_evals.iter().enumerate() {
            assert_eq!(evals.len(), k, "{what}: round {i}");
            for (t, &eval) in evals.iter().enumerate() {
                let x = Fr::from_u64(t as u64);
                let at_pair = |j: usize| {
                    let line = |m: &Mle| {
                        let (f0, f1) = (m.evals()[2 * j], m.evals()[2 * j + 1]);
                        f0 + x * (f1 - f0)
                    };
                    poly.evaluate_with_mle_values(&tables.iter().map(line).collect::<Vec<_>>())
                };
                let expected: Fr = (0..tables[0].len() / 2).map(at_pair).sum();
                assert_eq!(eval, expected, "{what}: round {i}, t = {t}");
            }
            let r = out.challenges[i];
            tables = tables.iter().map(|m| m.fix_first_variable(r)).collect();
        }
        let mut t = Transcript::new(b"test");
        let verified = verify_with_oracle(poly, mles, &out.proof, &mut t)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(verified.challenges, out.challenges, "{what}");
    }

    #[test]
    fn claimed_sum_matches_reference() {
        let poly = test_poly();
        let mles = random_mles(5, 6, 1);
        let expected = poly.sum_over_hypercube(&mles);
        let mut t = Transcript::new(b"test");
        let out = prove(&poly, mles, &mut t);
        assert_eq!(out.proof.claimed_sum, expected);
    }

    #[test]
    fn parallel_and_instrumented_agree() {
        let poly = test_poly();
        let mles = random_mles(5, 7, 2);
        let mut t = Transcript::new(b"test");
        let out = prove(&poly, mles.clone(), &mut t);
        assert_by_definition(&poly, &mles, &out, "test poly");
    }

    /// Production evaluator, on owned and on borrowed tables, at each
    /// thread count: the first proof checked by definition, every other
    /// one equal to it in proof and challenges.
    fn assert_matches_reference(poly: &CompositePoly, mles: &[Mle], threads: &[usize], what: &str) {
        let mut reference: Option<ProverOutput> = None;
        for &threads in threads {
            let mut t = Transcript::new(b"test");
            let owned = prove_with_threads(poly, mles.to_vec(), &mut t, threads);
            let mut t = Transcript::new(b"test");
            let tables = mles.iter().map(Cow::Borrowed).collect();
            let borrowed = prove_borrowed(poly, tables, &mut t, threads);
            for (out, how) in [(owned, "owned"), (borrowed, "borrowed")] {
                let what = format!("{what}, {how}, threads={threads}");
                match &reference {
                    None => {
                        assert_by_definition(poly, mles, &out, &what);
                        reference = Some(out);
                    }
                    Some(reference) => {
                        assert_eq!(out.proof, reference.proof, "{what}");
                        assert_eq!(out.challenges, reference.challenges, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn gate_library_matches_reference() {
        // Every Table I gate and the two high-degree gates of the
        // benchmark, on bindings with the paper's sparsity; 2^11 rows
        // cross the parallel threshold (1024 pairs).
        let mut gates = zkphire_poly::table1_gates();
        gates.push(zkphire_poly::high_degree_gate(16));
        gates.push(zkphire_poly::high_degree_gate(32));
        let mut rng = StdRng::seed_from_u64(17);
        for (g, gate) in gates.iter().enumerate() {
            let scalars: Vec<Fr> = (0..gate.poly.num_scalars())
                .map(|_| Fr::random(&mut rng))
                .collect();
            let poly = gate.poly.specialize(&scalars);
            for num_vars in [1usize, 4, 11] {
                let mles =
                    zkphire_poly::sparsity::random_binding(&mut rng, &gate.mle_kinds, num_vars);
                let what = format!("gate {g} ({}), num_vars={num_vars}", gate.name);
                assert_matches_reference(&poly, &mles, &[1, 3], &what);
            }
        }
    }

    #[test]
    fn degenerate_composites_match_reference() {
        let term = |coeff: Fr, factors: &[usize]| Term {
            coeff,
            scalars: vec![],
            factors: factors.iter().map(|&i| MleId(i)).collect(),
        };
        for (what, terms) in [
            ("degree 0", vec![term(Fr::from_u64(5), &[])]),
            (
                "two constants",
                vec![term(Fr::from_u64(5), &[]), term(-Fr::ONE, &[])],
            ),
            ("K = 2, one factor", vec![term(Fr::ONE, &[0])]),
            (
                "K = 2, coefficient and constant",
                vec![term(-Fr::from_u64(3), &[1]), term(Fr::from_u64(7), &[])],
            ),
            ("single term", vec![term(Fr::from_u64(2), &[0, 1, 1, 1, 2])]),
            ("single power", vec![term(Fr::ONE, &[0; 9])]),
        ] {
            let poly = CompositePoly::new(terms);
            for num_vars in [1usize, 3] {
                // An unbound composite (degree 0) still needs one table
                // to fix the hypercube.
                let mles = random_mles(poly.num_mles().max(1), num_vars, 5);
                assert_matches_reference(&poly, &mles, &[1, 2, 3], what);
            }
        }
    }

    #[test]
    fn every_thread_count_is_transcript_identical() {
        // 2^11 evals crosses the parallel round-eval threshold (1024
        // pairs), so the chunked path really runs.
        let poly = test_poly();
        let mles = random_mles(5, 11, 9);
        let mut t1 = Transcript::new(b"test");
        let reference = prove_with_threads(&poly, mles.clone(), &mut t1, 1);
        for threads in [2usize, 3, 4, 7] {
            let mut t = Transcript::new(b"test");
            let out = prove_with_threads(&poly, mles.clone(), &mut t, threads);
            assert_eq!(out.proof, reference.proof, "threads={threads}");
            assert_eq!(out.challenges, reference.challenges, "threads={threads}");
        }
    }

    /// `count_ops` against the `(product_muls, update_muls)` that the
    /// per-pair reference prover measured, operation for operation, when
    /// it still ran beside the round plan.
    #[test]
    fn instrumented_counts_match_analytical_formula() {
        let poly = test_poly();
        for (num_vars, measured) in [(3usize, (140, 35)), (5, (620, 155)), (8, (5_100, 1_275))] {
            let ops = count_ops(&poly, num_vars);
            let counted = (ops.product_muls, ops.update_muls);
            assert_eq!(counted, measured, "num_vars={num_vars}");
        }
    }

    #[test]
    fn table1_gate_counts_match_formula() {
        // The op-count oracle must hold for the real gate library too;
        // the figures are the reference prover's measurements at µ 4.
        for (id, measured) in [
            (0usize, (240, 60)),
            (1, (180, 60)),
            (9, (2_340, 90)),
            (20, (750, 135)),
            (22, (5_520, 285)),
            (24, (270, 180)),
        ] {
            let poly = zkphire_poly::table1_gate(id)
                .poly
                .specialize(&[Fr::from_u64(7); 4]);
            let ops = count_ops(&poly, 4);
            assert_eq!((ops.product_muls, ops.update_muls), measured, "gate {id}");
        }
    }

    #[test]
    fn final_evals_match_tables() {
        let poly = test_poly();
        let mles = random_mles(5, 5, 3);
        let originals = mles.clone();
        let mut t = Transcript::new(b"test");
        let out = prove(&poly, mles, &mut t);
        for (m, e) in originals.iter().zip(&out.proof.final_mle_evals) {
            assert_eq!(m.evaluate(&out.challenges), *e);
        }
    }

    #[test]
    fn proof_size_accounting() {
        let poly = test_poly();
        let mles = random_mles(5, 4, 4);
        let mut t = Transcript::new(b"test");
        let out = prove(&poly, mles, &mut t);
        // 4 rounds * 4 evals + 5 final evals + 1 claim = 22 elements.
        assert_eq!(out.proof.size_bytes(), 22 * 32);
    }
}
