//! Property tests pinning the PR 5 prover hot-path rewrites to their
//! slow-but-obviously-correct references: signed-digit batched-affine MSM
//! against naive double-and-add, and the parallel SumCheck prover against
//! the single-threaded transcript, on seeded random inputs. Plus the sweep
//! across every window width the prover meets, the inputs that corner the
//! lock-step affine bucket reduction and the window grouping, and the
//! proof-bytes pin that keep MSM kernel changes output-neutral, and the
//! production SumCheck round evaluator against the composite evaluated by
//! definition on random composites over dense, binary, sparse and all-zero
//! tables.

use std::borrow::Cow;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zkphire_curve::{
    batch_normalize, msm_naive, msm_with_ops_threads, optimal_window_bits, G1Affine, G1Projective,
};
use zkphire_field::Fr;
use zkphire_hyperplonk::{prove_with_config, setup, verify, Circuit, GateSystem, ProverConfig};
use zkphire_poly::expr::{konst, var, GateExpr};
use zkphire_poly::sparsity::{random_dense, random_selector, random_sparse_witness};
use zkphire_poly::{CompositePoly, Mle, MleId, Term};
use zkphire_sumcheck::{prove_borrowed, prove_with_threads, verify_with_oracle, SumCheckProof};
use zkphire_tests::fnv1a;
use zkphire_transcript::Transcript;

/// Random MSM instances mixing the regimes the prover actually sees:
/// dense uniform scalars, ~90%-sparse witness columns, 0/1 selector
/// columns, and repeated points (maximal bucket collisions).
fn msm_instance(n: usize, seed: u64) -> (Vec<G1Affine>, Vec<Fr>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let repeated = rng.gen_ratio(1, 4);
    let base = G1Affine::random(&mut rng);
    let points: Vec<G1Affine> = (0..n)
        .map(|_| {
            if repeated {
                base
            } else {
                G1Affine::random(&mut rng)
            }
        })
        .collect();
    let scalars: Vec<Fr> = (0..n)
        .map(|_| match rng.gen_range(0u8..4) {
            0 => Fr::random(&mut rng),
            1 => {
                if rng.gen_ratio(9, 10) {
                    Fr::ZERO
                } else {
                    Fr::random(&mut rng)
                }
            }
            2 => Fr::from_u64(rng.gen_range(0..2)),
            _ => Fr::from_u64(rng.gen_range(0..16)),
        })
        .collect();
    (points, scalars)
}

/// Random gate expressions over `num_vars` MLE slots (same shape as the
/// `property_suite` generator, kept local so the suites stay independent).
fn arb_expr(num_vars: usize) -> impl Strategy<Value = GateExpr> {
    let leaf = prop_oneof![(0..num_vars).prop_map(var), (-3i64..4).prop_map(konst)];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            (inner, 1u32..4).prop_map(|(a, k)| a.pow(k)),
        ]
    })
}

fn random_mles(n: usize, mu: usize, seed: u64) -> Vec<Mle> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Mle::from_fn(mu, |_| Fr::random(&mut rng)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Signed-digit batched-affine MSM equals naive double-and-add on
    /// random instances, for every worker-thread count, with bit-identical
    /// `MsmOps` across thread counts.
    #[test]
    fn signed_msm_matches_naive(n in 1usize..200, seed in 0u64..10_000) {
        let (points, scalars) = msm_instance(n, seed);
        let expected = msm_naive(&points, &scalars);
        let (r1, o1) = msm_with_ops_threads(&points, &scalars, 1);
        prop_assert_eq!(r1, expected);
        for threads in [2usize, 4, 7] {
            let (rt, ot) = msm_with_ops_threads(&points, &scalars, threads);
            prop_assert_eq!(rt, expected);
            prop_assert_eq!(ot, o1);
        }
    }

    /// Small MSMs — where several windows share one counting sort and one
    /// inversion — over a pool of at most four points, their negations
    /// and the identity, so buckets double, cancel and empty out, under
    /// small, sparse and dense scalars.
    #[test]
    fn small_msm_over_duplicate_heavy_points_matches_naive(
        n in 1usize..65,
        pool in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<G1Affine> = (0..pool).map(|_| G1Affine::random(&mut rng)).collect();
        let points: Vec<G1Affine> = (0..n)
            .map(|_| match (pool[rng.gen_range(0..pool.len())], rng.gen_range(0u8..8)) {
                (_, 0) => G1Affine::identity(),
                (p, 1..=3) => -p,
                (p, _) => p,
            })
            .collect();
        let kind = rng.gen_range(0u8..3);
        let scalars: Vec<Fr> = (0..n)
            .map(|_| match kind {
                0 => Fr::from_u64(rng.gen_range(0..16)),
                1 if rng.gen_ratio(3, 4) => Fr::ZERO,
                _ => Fr::random(&mut rng),
            })
            .collect();
        let (result, ops) = msm_with_ops_threads(&points, &scalars, 1);
        prop_assert_eq!(result, msm_naive(&points, &scalars));
        prop_assert_eq!(msm_with_ops_threads(&points, &scalars, 4), (result, ops));
    }

    /// Parallel SumCheck provers produce proofs, challenges, and
    /// transcript states bit-identical to the single-threaded reference
    /// on random gates over random MLEs, and the proofs still verify.
    #[test]
    fn parallel_sumcheck_transcript_identical(e in arb_expr(3), seed in 0u64..1000) {
        let poly = e.expand();
        prop_assume!(poly.num_terms() > 0);
        let mu = 5;
        let mles = random_mles(poly.num_mles().max(1), mu, seed);

        let mut t1 = Transcript::new(b"hotpath");
        let reference = prove_with_threads(&poly, mles.clone(), &mut t1, 1);
        let probe1 = t1.challenge_fr(b"hotpath/final-state");

        for threads in [2usize, 4] {
            let mut tn = Transcript::new(b"hotpath");
            let out = prove_with_threads(&poly, mles.clone(), &mut tn, threads);
            prop_assert_eq!(&out.proof, &reference.proof);
            prop_assert_eq!(&out.challenges, &reference.challenges);
            // Equal post-prove challenges pin the full transcript state,
            // not just the proof fields.
            prop_assert_eq!(tn.challenge_fr(b"hotpath/final-state"), probe1);
        }

        let mut tv = Transcript::new(b"hotpath");
        prop_assert!(verify_with_oracle(&poly, &mles, &reference.proof, &mut tv).is_ok());
    }
}

/// A random composite shaped to reach every branch of the round plan:
/// repeated factors up to power 9, coefficients from {1, -1, random}, an
/// optional constant term and, with `common`, one slot multiplied into
/// every non-constant term plus a term that is that slot alone.
fn plan_composite(rng: &mut StdRng, common: bool) -> CompositePoly {
    let coeff = |rng: &mut StdRng| match rng.gen_range(0u8..3) {
        0 => Fr::ONE,
        1 => -Fr::ONE,
        _ => Fr::from_u64(rng.gen_range(2..1000)) * Fr::random(rng),
    };
    let term = |rng: &mut StdRng, factors: Vec<MleId>| Term {
        coeff: coeff(rng),
        scalars: vec![],
        factors,
    };
    let slots = rng.gen_range(1usize..5);
    let mut terms = Vec::new();
    for _ in 0..rng.gen_range(1usize..6) {
        let mut factors = Vec::new();
        for _ in 0..rng.gen_range(1usize..4) {
            let power = [1usize, 1, 1, 2, 3, 5, 9][rng.gen_range(0usize..7)];
            factors.extend(vec![MleId(rng.gen_range(0..slots)); power]);
        }
        if common {
            factors.push(MleId(slots));
        }
        terms.push(term(rng, factors));
    }
    if common {
        terms.push(term(rng, vec![MleId(slots)]));
    }
    if rng.gen_ratio(1, 2) {
        terms.push(term(rng, vec![]));
    }
    CompositePoly::new(terms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The production round evaluator (degree classes, power chains,
    /// common factor, zero-line skipping) produces the round polynomials of
    /// the composite evaluated by definition, and the proof verifies with
    /// the prover's challenges, whatever mix of tables it is bound to and
    /// whether it owns them or borrows them.
    #[test]
    fn round_plan_matches_counted_reference(
        seed in 0u64..100_000,
        mu in 1usize..7,
        common in 0u8..2,
        borrowed in 0u8..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let poly = plan_composite(&mut rng, common == 1);
        let mles: Vec<Mle> = (0..poly.num_mles())
            .map(|_| match rng.gen_range(0u8..4) {
                0 => random_dense(&mut rng, mu),
                1 => random_selector(&mut rng, mu),
                2 => random_sparse_witness(&mut rng, mu),
                _ => Mle::zero(mu),
            })
            .collect();

        let mut tp = Transcript::new(b"hotpath/plan");
        let out = if borrowed == 1 {
            prove_borrowed(&poly, mles.iter().map(Cow::Borrowed).collect(), &mut tp, 2)
        } else {
            prove_with_threads(&poly, mles.clone(), &mut tp, 2)
        };
        assert_by_definition(&poly, &mles, &out.proof, &out.challenges);
    }
}

/// Checks a finished SumCheck proof by definition: round `i` at every
/// point `t < k` against the composite summed over the pairs of the tables
/// fixed at the challenges before it; then the verifier's round, final and
/// oracle checks, and its challenges.
fn assert_by_definition(
    poly: &CompositePoly,
    mles: &[Mle],
    proof: &SumCheckProof,
    challenges: &[Fr],
) {
    let k = poly.degree().max(1) + 1;
    let mut tables = mles.to_vec();
    for (i, evals) in proof.round_evals.iter().enumerate() {
        assert_eq!(evals.len(), k, "round {i}");
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
            assert_eq!(eval, expected, "round {i}, t = {t}");
        }
        tables = tables
            .iter()
            .map(|m| m.fix_first_variable(challenges[i]))
            .collect();
    }
    let mut tv = Transcript::new(b"hotpath/plan");
    let verified = verify_with_oracle(poly, mles, proof, &mut tv).expect("proof verifies");
    assert_eq!(verified.challenges, challenges);
}

/// `n` distinct points `k_i·G` with `k_0 = 2`, `k_{i+1} = 2 k_i + 1`,
/// and the `k_i`: one doubling and one addition per point instead of a
/// scalar multiplication, and a closed form for any MSM over them.
fn points_with_logs(n: usize) -> (Vec<G1Affine>, Vec<Fr>) {
    let g = G1Affine::generator();
    let mut acc = G1Projective::from(g).double();
    let mut log = Fr::from_u64(2);
    let mut chain = Vec::with_capacity(n);
    let mut logs = Vec::with_capacity(n);
    for _ in 0..n {
        chain.push(acc);
        logs.push(log);
        acc = acc.double().add_mixed(&g);
        log = log.double() + Fr::ONE;
    }
    (batch_normalize(&chain), logs)
}

/// One MSM instance over points with known discrete logs `k_i`.
struct MsmCase {
    what: &'static str,
    points: Vec<G1Affine>,
    logs: Vec<Fr>,
    scalars: Vec<Fr>,
}

/// The input shapes that stress the pair-reduction, cut to `n` entries.
fn msm_shapes(n: usize, points: &[G1Affine], logs: &[Fr], rng: &mut StdRng) -> Vec<MsmCase> {
    let (points, logs) = (&points[..n], &logs[..n]);
    let dense: Vec<Fr> = (0..n).map(|_| Fr::random(rng)).collect();
    let mut thinned = |keep_one_in: u32| -> Vec<Fr> {
        let keep = |s: &Fr| {
            if rng.gen_ratio(1, keep_one_in) {
                *s
            } else {
                Fr::ZERO
            }
        };
        dense.iter().map(keep).collect()
    };
    let (half_zero, mostly_zero) = (thinned(2), thinned(10));
    let on_chain = |what, scalars| MsmCase {
        what,
        points: points.to_vec(),
        logs: logs.to_vec(),
        scalars,
    };
    vec![
        on_chain("dense", dense.clone()),
        on_chain("50% zero", half_zero),
        on_chain("90% zero", mostly_zero),
        // One scalar everywhere: a single hot bucket per window.
        on_chain("all-equal scalars", vec![dense[0]; n]),
        // One point everywhere: every pair in a bucket is a doubling.
        MsmCase {
            what: "duplicate points",
            points: vec![points[0]; n],
            logs: vec![logs[0]; n],
            scalars: dense.clone(),
        },
        // P, -P, P', -P', … under pairwise-equal scalars: every
        // first-pass pair cancels to the identity inside its bucket.
        MsmCase {
            what: "P, -P pairs",
            points: (0..n)
                .map(|i| [points[i / 2], -points[i / 2]][i % 2])
                .collect(),
            logs: (0..n).map(|i| [logs[i / 2], -logs[i / 2]][i % 2]).collect(),
            scalars: (0..n).map(|i| dense[i / 2]).collect(),
        },
    ]
}

/// Signed MSM against the closed form `(Σ s_i k_i)·G`. Up to 2^10 points
/// — and on the dense shape above — also against `msm_naive` (to 2^7; a
/// debug build pays ~10 µs per point addition) and itself at 2, 4 and 9
/// threads with identical `MsmOps`.
fn check_msm_case(case: &MsmCase) {
    let MsmCase {
        what,
        points,
        logs,
        scalars,
    } = case;
    let n = points.len();
    let combined: Fr = logs.iter().zip(scalars).map(|(k, s)| *k * *s).sum();
    let expected = G1Projective::generator().mul_fr(&combined);
    let (r1, o1) = msm_with_ops_threads(points, scalars, 1);
    assert_eq!(r1, expected, "{what}, n={n}: signed, 1 thread");
    if n <= 1 << 7 {
        assert_eq!(msm_naive(points, scalars), expected, "{what}, n={n}");
    }
    if n <= 1 << 10 || *what == "dense" {
        for threads in [2usize, 4, 9] {
            let (rt, ot) = msm_with_ops_threads(points, scalars, threads);
            assert_eq!(rt, expected, "{what}, n={n}: {threads} threads");
            assert_eq!(ot, o1, "{what}, n={n}: MsmOps at {threads} threads");
        }
    }
}

/// [`check_msm_case`] for every shape at every size in `sizes`.
fn check_msm_sizes(sizes: &[usize], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let max = sizes.iter().copied().max().expect("some size");
    let (points, logs) = points_with_logs(max);
    for &n in sizes {
        for case in msm_shapes(n, &points, &logs, &mut rng) {
            check_msm_case(&case);
        }
    }
}

/// Every window width from 3 bits (2^4 points) to 7 (2^10), and one point
/// either side of 2^8, below which several windows share a counting sort.
#[test]
fn msm_agrees_across_the_bucket_path_crossover() {
    let mut sizes: Vec<usize> = (4..=10).map(|k| 1 << k).collect();
    sizes.extend([(1 << 8) - 1, (1 << 8) + 1]);
    check_msm_sizes(&sizes, 0x5eed);
}

/// The two sizes above the MSM's parallel cutoff that the prove
/// workloads commit at (2^11) and that were batched already (2^12).
#[test]
fn msm_agrees_at_prover_column_sizes() {
    check_msm_sizes(&[1 << 11, 1 << 12], 0x5eed + 1);
}

/// The scalar whose signed digit is `digit` in each of the low `windows`
/// windows of width `bits` (`digit ≤ 2^(bits-1)`, so nothing carries).
fn repeated_digit(digit: u64, bits: u32, windows: usize) -> Fr {
    let base = Fr::from_u64(1 << bits);
    (0..windows).fold(Fr::ZERO, |acc, _| acc * base + Fr::from_u64(digit))
}

/// Inputs that corner the lock-step affine bucket reduction, at a size
/// for each way the windows are grouped: one running sum per window whose
/// `total += running` doubles right after the first occupied bucket, runs
/// that cancel to the identity half-way down and start again, and windows
/// whose only occupied bucket is the top or the bottom one.
#[test]
fn msm_reduction_meets_doubling_cancellation_and_lone_buckets() {
    let (chain, chain_logs) = points_with_logs(1 << 10);
    for n in [4usize, 16, 32, 100, 1 << 8, 1 << 10] {
        let bits = optimal_window_bits(n);
        let windows = (250 / bits) as usize;
        let on_chain = |what, scalars| MsmCase {
            what,
            points: chain[..n].to_vec(),
            logs: chain_logs[..n].to_vec(),
            scalars,
        };
        // P under digit 3, -P under digit 2, Q under digit 1, in every
        // window: the running sum is P, then the identity, then Q.
        let mut cancelling = on_chain("running sum cancels mid-reduction", vec![Fr::ZERO; n]);
        cancelling.points[1] = -chain[0];
        cancelling.logs[1] = -chain_logs[0];
        for (scalar, digit) in cancelling.scalars.iter_mut().zip([3, 2, 1]) {
            *scalar = repeated_digit(digit, bits, windows);
        }
        for case in [
            // One occupied bucket per window: `total` is a copy of the
            // running sum one step later and its double the step after.
            on_chain("all scalars r - 1", vec![-Fr::ONE; n]),
            on_chain("all scalars 1", vec![Fr::ONE; n]),
            on_chain(
                "all scalars in the top bucket",
                vec![repeated_digit(1 << (bits - 1), bits, windows); n],
            ),
            on_chain(
                "all scalars in the bottom bucket",
                vec![repeated_digit(1, bits, windows); n],
            ),
            cancelling,
        ] {
            check_msm_case(&case);
        }
    }
}

/// A single non-zero scalar among zeros, and nothing but zeros, at the
/// sizes either side of every change of window width or sort width.
#[test]
fn msm_skips_zero_scalars_at_every_width_boundary() {
    let (points, logs) = points_with_logs(257);
    let mut rng = StdRng::seed_from_u64(0x5eed + 2);
    for n in [1usize, 2, 3, 4, 31, 32, 33, 255, 256, 257] {
        let mut case = MsmCase {
            what: "all-zero scalars",
            points: points[..n].to_vec(),
            logs: logs[..n].to_vec(),
            scalars: vec![Fr::ZERO; n],
        };
        check_msm_case(&case);
        let (zero, ops) = msm_with_ops_threads(&case.points, &case.scalars, 1);
        assert!(zero.is_identity(), "n={n}");
        assert_eq!((ops.skipped_zeros, ops.bucket_adds), (n as u64, 0), "n={n}");

        case.what = "one non-zero scalar";
        case.scalars[rng.gen_range(0..n)] = Fr::random(&mut rng);
        check_msm_case(&case);
        let (_, ops) = msm_with_ops_threads(&case.points, &case.scalars, 1);
        assert_eq!(
            (ops.skipped_zeros, ops.bucket_adds),
            (n as u64 - 1, 0),
            "n={n}"
        );
    }
}

/// Dense inputs at the sizes and thread counts that cut a worker's windows
/// every way the kernel can: 256 one-bit windows in seven groups (n = 1),
/// 86 in three (n = 16), 65 in two with a last sort of one window
/// (n = 32), sorts of two windows (n = 128), and at 2^10 points 38 windows
/// as two groups of 19 (at most half the windows from 2^10 up), as 2, 4
/// or 9 workers' shares of one group each, and one window per worker.
#[test]
fn msm_agrees_at_every_window_grouping() {
    let (points, logs) = points_with_logs(1 << 10);
    let mut rng = StdRng::seed_from_u64(0x5eed + 3);
    for n in [1usize, 3, 16, 32, 128, 1 << 10] {
        let case = MsmCase {
            what: "dense",
            points: points[..n].to_vec(),
            logs: logs[..n].to_vec(),
            scalars: (0..n).map(|_| Fr::random(&mut rng)).collect(),
        };
        check_msm_case(&case);
        let (r1, o1) = msm_with_ops_threads(&case.points, &case.scalars, 1);
        for threads in [19usize, 38, 64] {
            let wide = msm_with_ops_threads(&case.points, &case.scalars, threads);
            assert_eq!(wide, (r1, o1), "n={n}: {threads} threads");
        }
    }
}

/// Proof bytes for a fixed seed, pinned at the commit before the
/// batched-affine crossover moved (PR 12, 891a027): the MSM kernel, the
/// field inversion and the SRS construction may change how points are
/// computed, never which points. Re-pinned once since, when every
/// SumCheck's final evaluations entered the transcript: β, γ, α, η, ζ
/// and the challenges after them moved, so the ϕ / π commitments, the
/// later SumChecks and the opening did too.
#[test]
fn proof_bytes_match_pre_rewrite_pin() {
    for (system, mu, seed, pinned) in [
        (GateSystem::Vanilla, 9, 0xa11ce_u64, PIN_VANILLA),
        (GateSystem::Jellyfish, 8, 0xb0b_u64, PIN_JELLYFISH),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let (circuit, witness) = Circuit::random(system, mu, 0.5, &mut rng);
        let (pk, vk) = setup(circuit, &mut rng);
        let mut hashes = Vec::new();
        for threads in [1usize, 3] {
            let proof = prove_with_config(
                &pk,
                &witness,
                &mut Transcript::new(b"hotpath/pin"),
                ProverConfig { threads },
            );
            verify(&vk, &proof, &mut Transcript::new(b"hotpath/pin")).expect("proof verifies");
            hashes.push(fnv1a(&proof.to_bytes()));
        }
        assert_eq!(
            hashes, [pinned; 2],
            "{system:?}: fnv1a(to_bytes()) = {:#018x}",
            hashes[0]
        );
    }
}

const PIN_VANILLA: u64 = 0x274f_2ed0_98c4_0d00;
const PIN_JELLYFISH: u64 = 0x7a75_079b_d1e5_e28a;
