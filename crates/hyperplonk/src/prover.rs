//! The HyperPlonk prover: the five protocol steps of paper §IV-A.
//!
//! 1. **Witness Commitments** — one (sparse) MSM per witness column;
//! 2. **Gate Identity** — ZeroCheck of the gate composite × `f_r`;
//! 3. **Wire Identity** — N/D/ϕ/π construction (the Permutation Quotient
//!    Generator + Multifunction Forest dataflow), commitments, and the
//!    PermCheck SumCheck;
//! 4. **Batch Evaluations** — evaluation claims for every committed
//!    polynomial at every challenge point;
//! 5. **Polynomial Opening** — the OpenCheck SumCheck that merges all
//!    claims into one point, an MLE Combine, and a single PCS opening.
//!
//! # Which tables exist when
//!
//! The three SumChecks stream their tables as the hardware does: round 1
//! reads each bound table once and writes a half-size copy, later rounds
//! fold those copies in place (`zkphire_sumcheck::prove_borrowed`).
//! Nothing committed is ever copied whole:
//!
//! * the gate ZeroCheck *borrows* the selector and witness tables, and
//!   builds its own `f_r` table;
//! * ϕ, π, p1, p2 are built (ϕ straight from the witness and σ) and
//!   committed; only then are the `2W` numerator and denominator tables
//!   `N_i`, `D_i` built, and the PermCheck *owns* them — it frees each as
//!   soon as its half is written — while it *borrows* ϕ, π, p1, p2. No
//!   `N_i` / `D_i` outlives the PermCheck;
//! * Batch Evaluations read the witness and σ tables in place
//!   (`Mle::evaluate` copies only a half-size table);
//! * the OpenCheck binds six tables it owns, whatever the claim count:
//!   per evaluation point `p`, the η-combination `G_p` of the committed
//!   tables claimed there and `eq(point_p, ·)`. Its round 1 holds ϕ, π,
//!   p1, p2, those six and one half-size table. Its final `poly_j(r)` are
//!   dot products of the committed tables, read in place, with one
//!   `eq(r)` table. The MLE Combine reads the same committed tables; ϕ,
//!   π, p1, p2 are freed before the opening, which reads only `g`.

use std::borrow::Cow;

use zkphire_field::Fr;
use zkphire_pcs::Commitment;
use zkphire_poly::{CompositePoly, Mle, MleId, Term};
use zkphire_sumcheck::{prove_with_threads, prove_zero_check_borrowed, ProverOutput};
use zkphire_telemetry as tele;
use zkphire_transcript::Transcript;

use crate::circuit::{GateSystem, Witness};
use crate::keys::ProvingKey;
use crate::permutation::{index_point, root_index, Fractions};
use crate::proof::{claim_layout, num_distinct_polys, HyperPlonkProof, NUM_POINTS};

/// Builds the OpenCheck composite: claim `j` contributes
/// `η_j · poly_j(x) · eq(point_j, x)` (the Table I row-24 structure).
pub(crate) fn opencheck_composite(system: GateSystem, etas: &[Fr]) -> CompositePoly {
    let k_p = num_distinct_polys(system);
    let terms = claim_layout(system)
        .iter()
        .zip(etas)
        .map(|(&(poly, point), &eta)| Term {
            coeff: eta,
            scalars: vec![],
            factors: vec![MleId(poly), MleId(k_p + point)],
        })
        .collect();
    CompositePoly::new(terms)
}

/// Binds the public statement (system, size, preprocessed commitments)
/// into the transcript. Shared by prover and verifier.
pub(crate) fn bind_statement(
    transcript: &mut Transcript,
    system: GateSystem,
    num_vars: usize,
    selector_commitments: &[Commitment],
    sigma_commitments: &[Commitment],
) {
    transcript.append_bytes(b"hyperplonk/system", system.tag().as_bytes());
    transcript.append_u64(b"hyperplonk/num_vars", num_vars as u64);
    for c in selector_commitments {
        transcript.append_bytes(b"hyperplonk/vk/selector", &c.to_bytes());
    }
    for c in sigma_commitments {
        transcript.append_bytes(b"hyperplonk/vk/sigma", &c.to_bytes());
    }
}

/// Knobs for the prover's execution strategy (not its output: proofs are
/// bit-identical for every configuration).
#[derive(Clone, Copy, Debug)]
pub struct ProverConfig {
    /// Worker threads for the commit/open MSMs, the SumCheck rounds, MLE
    /// folds, and the MLE Combine. `1` forces the sequential reference
    /// path.
    pub threads: usize,
}

impl Default for ProverConfig {
    /// One worker per available core.
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Generates a HyperPlonk proof for `witness` under `pk` with the default
/// (all-cores) [`ProverConfig`].
///
/// # Panics
///
/// Panics if the witness shape does not match the circuit. (An unsatisfied
/// witness does not panic — it yields a proof the verifier rejects.)
pub fn prove(pk: &ProvingKey, witness: &Witness, transcript: &mut Transcript) -> HyperPlonkProof {
    prove_with_config(pk, witness, transcript, ProverConfig::default())
}

/// [`prove`] with an explicit [`ProverConfig`]; the proof bytes do not
/// depend on the configuration.
pub fn prove_with_config(
    pk: &ProvingKey,
    witness: &Witness,
    transcript: &mut Transcript,
    config: ProverConfig,
) -> HyperPlonkProof {
    // Phase spans cover the five protocol steps contiguously; `repro obs`
    // asserts their sum reconciles with the enclosing `prove` span.
    let _prove_span = tele::span("prove");
    let threads = config.threads.max(1);
    let system = pk.circuit.system;
    let mu = pk.circuit.num_vars;
    let n = 1usize << mu;
    let s = system.num_selectors();
    let w_cols = system.num_witness_columns();
    assert_eq!(witness.columns.len(), w_cols, "witness column count");

    bind_statement(
        transcript,
        system,
        mu,
        &pk.selector_commitments,
        &pk.sigma_commitments,
    );

    // Step 1 — Witness Commitments.
    let witness_commitments: Vec<Commitment> = {
        let _s = tele::span("prove/witness_commit");
        witness
            .columns
            .iter()
            .map(|c| {
                let _w = tele::span("prove/witness_commit/column");
                pk.pcs.commit_with_threads(c, threads)
            })
            .collect()
    };
    for c in &witness_commitments {
        transcript.append_bytes(b"hyperplonk/witness", &c.to_bytes());
    }

    // Step 2 — Gate Identity ZeroCheck.
    let gate_span = tele::span("prove/gate_zerocheck");
    let gate = system.gate();
    let columns = pk.circuit.selectors.iter().chain(&witness.columns);
    let (gate_out, _) = prove_zero_check_borrowed(
        &gate.poly,
        system.gate_eq_slot(),
        columns.map(Cow::Borrowed).collect(),
        transcript,
        threads,
    );
    let x_zc = gate_out.challenges.clone();
    // Every SumCheck's finals are bound before the next challenge, so
    // none can be chosen after β, γ, α or η.
    transcript.append_frs(b"hyperplonk/gate_finals", &gate_out.proof.final_mle_evals);
    drop(gate_span);

    // Step 3 — Wire Identity.
    let perm_span = tele::span("prove/permcheck");
    let beta = transcript.challenge_fr(b"hyperplonk/beta");
    let gamma = transcript.challenge_fr(b"hyperplonk/gamma");
    let fractions = Fractions::new(&witness.columns, &pk.circuit.sigma, beta, gamma);
    let [phi, pi, p1, p2] = fractions.wiring();
    let perm_commitments = [&phi, &pi, &p1, &p2].map(|t| pk.pcs.commit_with_threads(t, threads));
    for c in &perm_commitments {
        transcript.append_bytes(b"hyperplonk/perm", &c.to_bytes());
    }
    let alpha = transcript.challenge_fr(b"hyperplonk/alpha");
    let perm_poly = system.perm_gate().poly.specialize(&[alpha]);
    // N_i / D_i exist from here into the PermCheck's first round, which
    // frees each once its half is written.
    let (numerators, denominators) = fractions.tables();
    let mut perm_tables: Vec<Cow<'_, Mle>> = [&pi, &p1, &p2, &phi].map(Cow::Borrowed).into();
    perm_tables.extend(denominators.into_iter().map(Cow::Owned));
    perm_tables.extend(numerators.into_iter().map(Cow::Owned));
    let (perm_out, _) = prove_zero_check_borrowed(
        &perm_poly,
        system.perm_eq_slot(),
        perm_tables,
        transcript,
        threads,
    );
    let x_pc = perm_out.challenges.clone();
    transcript.append_frs(b"hyperplonk/perm_finals", &perm_out.proof.final_mle_evals);
    drop(perm_span);

    // Step 4 — Batch Evaluations. Claims already bound inside the two
    // SumChecks are reused; the remaining ones are evaluated here.
    let evals_span = tele::span("prove/batch_evals");
    let mut extra_evals: Vec<Fr> = witness.columns.iter().map(|w| w.evaluate(&x_pc)).collect();
    extra_evals.extend(pk.sigma_mles.iter().map(|sg| sg.evaluate(&x_pc)));
    transcript.append_frs(b"hyperplonk/extra_evals", &extra_evals);

    let layout = claim_layout(system);
    let mut claim_values = Vec::with_capacity(layout.len());
    // Selectors + witnesses at the gate point.
    claim_values.extend_from_slice(&gate_out.proof.final_mle_evals[..s + w_cols]);
    // π, p1, p2, ϕ at the PermCheck point.
    claim_values.extend_from_slice(&perm_out.proof.final_mle_evals[..4]);
    // Witnesses + sigmas at the PermCheck point.
    claim_values.extend_from_slice(&extra_evals);
    // π at the root index: the grand product must be one.
    claim_values.push(Fr::ONE);
    debug_assert_eq!(claim_values.len(), layout.len());
    drop(evals_span);

    // Step 5 — OpenCheck + MLE Combine + single opening.
    let k_p = num_distinct_polys(system);
    // Every committed table, in `claim_layout` slot order.
    let committed: Vec<&Mle> = {
        let columns = pk.circuit.selectors.iter().chain(&witness.columns);
        let wiring = pk.sigma_mles.iter().chain([&phi, &pi, &p1, &p2]);
        columns.chain(wiring).collect()
    };
    let oc_out = {
        let _oc_span = tele::span("prove/opencheck");
        let etas = transcript.challenge_frs(b"hyperplonk/opencheck/eta", layout.len());
        let root = index_point(root_index(n), mu);
        let points = [&x_zc[..], &x_pc[..], &root[..]];
        let out = prove_opencheck(system, &committed, points, &etas, transcript, threads);
        // Bound as shipped: after `prove_opencheck` has replaced the
        // per-point finals with the per-claim ones.
        transcript.append_frs(b"hyperplonk/opencheck_finals", &out.proof.final_mle_evals);
        out
    };

    // MLE Combine: g = Σ ζ_i poly_i, opened once.
    let opening_span = tele::span("prove/opening");
    let zetas = transcript.challenge_frs(b"hyperplonk/combine/zeta", k_p);
    let g = {
        let _s = tele::span("prove/opening/mle_combine");
        mle_combine(&committed, &zetas, mu, threads)
    };
    // The opening reads `g` alone, and a small prove's heap peaks inside
    // its MSMs: release the permutation tables before it starts.
    drop((phi, pi, p1, p2));
    let (opening, opening_value) = {
        let _s = tele::span("prove/opening/pcs_open");
        pk.pcs.open_with_threads(&g, &oc_out.challenges, threads)
    };
    drop(opening_span);

    HyperPlonkProof {
        witness_commitments,
        gate_zerocheck: gate_out.proof,
        perm_commitments,
        perm_zerocheck: perm_out.proof,
        extra_evals,
        opencheck: oc_out.proof,
        opening,
        opening_value,
    }
}

/// The OpenCheck SumCheck over the committed tables (in `claim_layout`
/// slot order) and the [`NUM_POINTS`] evaluation points.
///
/// Its composite, [`opencheck_composite`], is `Σ_j η_j · poly_j ·
/// eq(point_j, ·)` with one term per claim. It is bound by point instead,
/// as `Σ_p G_p · eq(point_p, ·)` with `G_p = Σ_{j at p} η_j · poly_j`:
/// folding commutes with that sum and the degree stays 2, so every round
/// polynomial is the same field element, over six tables instead of one
/// per committed table. The proof then carries the final evaluations the
/// verifier checks against the per-claim composite: every `poly_j(r)`, as
/// a dot product with one `eq(r)` table, then the `eq(point_p, r)`.
fn prove_opencheck(
    system: GateSystem,
    committed: &[&Mle],
    points: [&[Fr]; NUM_POINTS],
    etas: &[Fr],
    transcript: &mut Transcript,
    threads: usize,
) -> ProverOutput {
    let mu = points[0].len();
    let layout = claim_layout(system);
    let mut tables: Vec<Mle> = (0..NUM_POINTS)
        .map(|p| {
            let (polys, coeffs): (Vec<&Mle>, Vec<Fr>) = layout
                .iter()
                .zip(etas)
                .filter(|((_, at), _)| *at == p)
                .map(|(&(poly, _), &eta)| (committed[poly], eta))
                .unzip();
            mle_combine(&polys, &coeffs, mu, threads)
        })
        .collect();
    tables.extend(points.map(Mle::eq_table));
    let by_point = (0..NUM_POINTS).map(|p| Term {
        coeff: Fr::ONE,
        scalars: vec![],
        factors: vec![MleId(p), MleId(NUM_POINTS + p)],
    });
    let by_point = CompositePoly::new(by_point.collect());
    let mut out = prove_with_threads(&by_point, tables, transcript, threads);

    let eq_r = Mle::eq_table(&out.challenges);
    let eq_evals = out.proof.final_mle_evals.split_off(NUM_POINTS);
    let dot = |m: &&Mle| -> Fr {
        let pairs = m.evals().iter().zip(eq_r.evals());
        pairs.map(|(a, b)| *a * *b).sum()
    };
    out.proof.final_mle_evals = committed.iter().map(dot).chain(eq_evals).collect();
    out
}

/// The paper's *MLE Combine* kernel: `g = Σ_i ζ_i · poly_i`, chunked over
/// disjoint row ranges so the result is thread-count independent.
fn mle_combine(inputs: &[&Mle], zetas: &[Fr], mu: usize, threads: usize) -> Mle {
    let n = 1usize << mu;
    let combine_row = |row: usize| -> Fr {
        inputs
            .iter()
            .zip(zetas)
            .map(|(m, z)| m.evals()[row] * *z)
            .sum()
    };
    if threads <= 1 || n < (1 << 12) {
        return Mle::from_fn(mu, combine_row);
    }
    let mut out = vec![Fr::ZERO; n];
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, out_chunk) in out.chunks_mut(chunk).enumerate() {
            let combine_row = &combine_row;
            scope.spawn(move || {
                for (i, o) in out_chunk.iter_mut().enumerate() {
                    *o = combine_row(t * chunk + i);
                }
            });
        }
    });
    Mle::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkphire_sumcheck::{prove_borrowed, BarycentricWeights, SumCheckError, SumCheckProof};

    use crate::circuit::Circuit;
    use crate::keys::setup;
    use crate::verifier::{verify, HyperPlonkError};

    /// The OpenCheck as the verifier states it: one term per claim under
    /// [`opencheck_composite`], every committed table bound in place beside
    /// the three `eq` tables.
    fn prove_opencheck_per_claim(
        system: GateSystem,
        committed: &[&Mle],
        points: [&[Fr]; NUM_POINTS],
        etas: &[Fr],
        transcript: &mut Transcript,
        threads: usize,
    ) -> ProverOutput {
        let mut tables: Vec<Cow<'_, Mle>> = committed.iter().map(|&m| Cow::Borrowed(m)).collect();
        tables.extend(points.map(|x| Cow::Owned(Mle::eq_table(x))));
        prove_borrowed(
            &opencheck_composite(system, etas),
            tables,
            transcript,
            threads,
        )
    }

    #[test]
    fn opencheck_by_point_matches_per_claim_binding() {
        let mut rng = StdRng::seed_from_u64(26);
        for system in [GateSystem::Vanilla, GateSystem::Jellyfish] {
            let k_p = num_distinct_polys(system);
            let etas: Vec<Fr> = claim_layout(system)
                .iter()
                .map(|_| Fr::random(&mut rng))
                .collect();
            for mu in [1usize, 4, 8] {
                let tables: Vec<Mle> = (0..k_p)
                    .map(|_| Mle::from_fn(mu, |_| Fr::random(&mut rng)))
                    .collect();
                let committed: Vec<&Mle> = tables.iter().collect();
                let [x_zc, x_pc] =
                    [(); 2].map(|_| (0..mu).map(|_| Fr::random(&mut rng)).collect::<Vec<_>>());
                let root = index_point(root_index(1 << mu), mu);
                let points = [&x_zc[..], &x_pc[..], &root[..]];
                for threads in [1usize, 3] {
                    let what = format!("{system:?} µ {mu}, threads={threads}");
                    let [mut grouped_t, mut per_claim_t] =
                        [(); 2].map(|_| Transcript::new(b"opencheck"));
                    let grouped =
                        prove_opencheck(system, &committed, points, &etas, &mut grouped_t, threads);
                    let per_claim = prove_opencheck_per_claim(
                        system,
                        &committed,
                        points,
                        &etas,
                        &mut per_claim_t,
                        threads,
                    );
                    let (g, c) = (&grouped.proof, &per_claim.proof);
                    assert_eq!(g.claimed_sum, c.claimed_sum, "{what}: claimed sum");
                    assert_eq!(g.round_evals, c.round_evals, "{what}: round polynomials");
                    assert_eq!(
                        g.final_mle_evals, c.final_mle_evals,
                        "{what}: final evaluations"
                    );
                    assert_eq!(
                        grouped.challenges, per_claim.challenges,
                        "{what}: challenges"
                    );
                    let after = |t: &mut Transcript| t.challenge_fr(b"opencheck/after");
                    assert_eq!(
                        after(&mut grouped_t),
                        after(&mut per_claim_t),
                        "{what}: transcript"
                    );
                }
            }
        }
    }

    /// A ZeroCheck that claims zero for a composite whose hypercube sum is
    /// not: each honest round polynomial (the composite evaluated by
    /// definition over tables folded at the transcript's challenges) is
    /// shifted by the constant that makes it sum to the running claim.
    /// Every round check passes; the last claim is off from the composite
    /// at the finals, and that claim is returned beside the output.
    ///
    /// `tables` binds every slot but `eq_slot`, as in
    /// `prove_zero_check_borrowed`, whose transcript this one follows.
    fn shifted_zero_check(
        gate: &CompositePoly,
        eq_slot: MleId,
        mut tables: Vec<Mle>,
        transcript: &mut Transcript,
    ) -> (ProverOutput, Fr) {
        let mu = tables[0].num_vars();
        let r = transcript.challenge_frs(b"zerocheck/r", mu);
        tables.insert(eq_slot.0, Mle::eq_table(&r));
        let degree = gate.degree();
        let weights = BarycentricWeights::new(degree);
        let half = Fr::from_u64(2).inverse().expect("2 is invertible");
        transcript.append_u64(b"sumcheck/num_vars", mu as u64);
        transcript.append_u64(b"sumcheck/degree", degree as u64);
        let (mut claim, mut round_evals, mut challenges) = (Fr::ZERO, Vec::new(), Vec::new());
        for round in 0..mu {
            let pairs = tables[0].len() / 2;
            let mut evals: Vec<Fr> = (0..=degree as u64)
                .map(|t| {
                    let t = Fr::from_u64(t);
                    let at_pair = |j: usize| {
                        let values: Vec<Fr> = tables
                            .iter()
                            .map(|m| {
                                m.evals()[2 * j] + t * (m.evals()[2 * j + 1] - m.evals()[2 * j])
                            })
                            .collect();
                        gate.evaluate_with_mle_values(&values)
                    };
                    (0..pairs).map(at_pair).sum()
                })
                .collect();
            let shift = (claim - evals[0] - evals[1]) * half;
            evals.iter_mut().for_each(|e| *e += shift);
            if round == 0 {
                transcript.append_fr(b"sumcheck/claim", &claim);
            }
            transcript.append_frs(b"sumcheck/round", &evals);
            let x = transcript.challenge_fr(b"sumcheck/challenge");
            claim = weights.interpolate(&evals, x);
            tables = tables.iter().map(|m| m.fix_first_variable(x)).collect();
            round_evals.push(evals);
            challenges.push(x);
        }
        let proof = SumCheckProof {
            claimed_sum: Fr::ZERO,
            round_evals,
            final_mle_evals: tables.iter().map(|m| m.evals()[0]).collect(),
        };
        (ProverOutput { proof, challenges }, claim)
    }

    /// The η-shift forger: [`prove_with_config`] on one thread, step for
    /// step and bind for bind, except that the gate ZeroCheck is
    /// [`shifted_zero_check`] and, once η is drawn, the gate finals of
    /// slots 0 and 1 move by `δ_0`, `δ_1` with `c_0 δ_0 + c_1 δ_1 = Δ`, so
    /// the composite meets the forged claim (`c_i` is the composite's
    /// slope in slot `i`), and `η_0 δ_0 + η_1 δ_1 = 0`, so the
    /// OpenCheck's `Σ η_j y_j` does not move. Binding the gate finals
    /// before β is what defeats it: the ones it absorbs are not the ones
    /// it ships.
    fn forge(pk: &ProvingKey, witness: &Witness, transcript: &mut Transcript) -> HyperPlonkProof {
        let system = pk.circuit.system;
        let mu = pk.circuit.num_vars;
        bind_statement(
            transcript,
            system,
            mu,
            &pk.selector_commitments,
            &pk.sigma_commitments,
        );
        let witness_commitments: Vec<Commitment> = witness
            .columns
            .iter()
            .map(|c| pk.pcs.commit_with_threads(c, 1))
            .collect();
        for c in &witness_commitments {
            transcript.append_bytes(b"hyperplonk/witness", &c.to_bytes());
        }

        let gate = system.gate();
        let columns = pk.circuit.selectors.iter().chain(&witness.columns);
        let (mut gate_out, forged_claim) = shifted_zero_check(
            &gate.poly,
            system.gate_eq_slot(),
            columns.cloned().collect(),
            transcript,
        );
        transcript.append_frs(b"hyperplonk/gate_finals", &gate_out.proof.final_mle_evals);
        let x_zc = gate_out.challenges.clone();

        let beta = transcript.challenge_fr(b"hyperplonk/beta");
        let gamma = transcript.challenge_fr(b"hyperplonk/gamma");
        let fractions = Fractions::new(&witness.columns, &pk.circuit.sigma, beta, gamma);
        let [phi, pi, p1, p2] = fractions.wiring();
        let perm_commitments = [&phi, &pi, &p1, &p2].map(|t| pk.pcs.commit_with_threads(t, 1));
        for c in &perm_commitments {
            transcript.append_bytes(b"hyperplonk/perm", &c.to_bytes());
        }
        let alpha = transcript.challenge_fr(b"hyperplonk/alpha");
        let perm_poly = system.perm_gate().poly.specialize(&[alpha]);
        let (numerators, denominators) = fractions.tables();
        let mut perm_tables: Vec<Cow<'_, Mle>> = [&pi, &p1, &p2, &phi].map(Cow::Borrowed).into();
        perm_tables.extend(denominators.into_iter().map(Cow::Owned));
        perm_tables.extend(numerators.into_iter().map(Cow::Owned));
        let (perm_out, _) = prove_zero_check_borrowed(
            &perm_poly,
            system.perm_eq_slot(),
            perm_tables,
            transcript,
            1,
        );
        let x_pc = perm_out.challenges.clone();
        transcript.append_frs(b"hyperplonk/perm_finals", &perm_out.proof.final_mle_evals);

        let mut extra_evals: Vec<Fr> = witness.columns.iter().map(|w| w.evaluate(&x_pc)).collect();
        extra_evals.extend(pk.sigma_mles.iter().map(|sg| sg.evaluate(&x_pc)));
        transcript.append_frs(b"hyperplonk/extra_evals", &extra_evals);

        let layout = claim_layout(system);
        let etas = transcript.challenge_frs(b"hyperplonk/opencheck/eta", layout.len());
        // Slots 0 and 1 are selectors claimed at the gate point, as claims
        // 0 and 1, and no term of either gate holds both.
        let finals = &mut gate_out.proof.final_mle_evals;
        let composite = |f: &[Fr]| gate.poly.evaluate_with_mle_values(f);
        let at_finals = composite(finals);
        let slope = |slot: usize| {
            let mut f = finals.clone();
            f[slot] += Fr::ONE;
            composite(&f) - at_finals
        };
        let (c0, c1) = (slope(0), slope(1));
        let det = (c0 * etas[1] - c1 * etas[0])
            .inverse()
            .expect("independent");
        let d0 = (forged_claim - at_finals) * etas[1] * det;
        let d1 = -(etas[0] * d0) * etas[1].inverse().expect("non-zero η");
        finals[0] += d0;
        finals[1] += d1;
        assert_eq!(
            composite(finals),
            forged_claim,
            "the finals meet the forged claim"
        );

        let committed: Vec<&Mle> = {
            let columns = pk.circuit.selectors.iter().chain(&witness.columns);
            let wiring = pk.sigma_mles.iter().chain([&phi, &pi, &p1, &p2]);
            columns.chain(wiring).collect()
        };
        let root = index_point(root_index(1 << mu), mu);
        let points = [&x_zc[..], &x_pc[..], &root[..]];
        let oc_out = prove_opencheck(system, &committed, points, &etas, transcript, 1);
        transcript.append_frs(
            b"hyperplonk/opencheck_finals",
            &oc_out.proof.final_mle_evals,
        );

        let zetas =
            transcript.challenge_frs(b"hyperplonk/combine/zeta", num_distinct_polys(system));
        let g = mle_combine(&committed, &zetas, mu, 1);
        let (opening, opening_value) = pk.pcs.open_with_threads(&g, &oc_out.challenges, 1);
        HyperPlonkProof {
            witness_commitments,
            gate_zerocheck: gate_out.proof,
            perm_commitments,
            perm_zerocheck: perm_out.proof,
            extra_evals,
            opencheck: oc_out.proof,
            opening,
            opening_value,
        }
    }

    #[test]
    fn eta_shift_forgery_of_an_unsatisfied_witness_is_rejected() {
        for system in [GateSystem::Vanilla, GateSystem::Jellyfish] {
            let mut rng = StdRng::seed_from_u64(0xe7a5);
            let (circuit, mut witness) = Circuit::random(system, 5, 0.5, &mut rng);
            // One output cell of an active row, copied nowhere, off by one:
            // only the gate identity sees it.
            let n = circuit.num_rows();
            let out = system.num_witness_columns() - 1;
            let row = (0..n)
                .find(|&r| {
                    let active = circuit.selectors.iter().any(|q| !q.evals()[r].is_zero());
                    active && circuit.sigma[out * n + r] == out * n + r
                })
                .expect("an uncopied output cell of an active row");
            let bumped = witness.columns[out].evals()[row] + Fr::ONE;
            witness.columns[out].evals_mut()[row] = bumped;
            let (pk, vk) = setup(circuit, &mut rng);

            let honest = prove_with_config(
                &pk,
                &witness,
                &mut Transcript::new(b"forge"),
                ProverConfig { threads: 1 },
            );
            assert_eq!(
                verify(&vk, &honest, &mut Transcript::new(b"forge")),
                Err(HyperPlonkError::GateCheck(SumCheckError::NonZeroClaim)),
                "{system:?}: the honest proof"
            );

            let forged = forge(&pk, &witness, &mut Transcript::new(b"forge"));
            let decoded = HyperPlonkProof::from_bytes(&forged.to_bytes()).expect("decodes");
            let result = verify(&vk, &decoded, &mut Transcript::new(b"forge"));
            assert!(
                matches!(
                    result,
                    Err(HyperPlonkError::PermCheck(
                        SumCheckError::RoundSumMismatch { .. }
                    ))
                ),
                "{system:?}: the forged proof: {result:?}"
            );
        }
    }
}
