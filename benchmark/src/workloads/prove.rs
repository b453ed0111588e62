//! `prove_jellyfish` / `prove_vanilla`: one caller proving and verifying a
//! seeded random HyperPlonk instance in a closed loop.
//!
//! With the recorder on, every sample is followed by a *layer replay*: the
//! prover's steps re-run one by one through the public functions of the
//! layers below it (`pcs.commit` on each real witness column, the gate and
//! permutation ZeroChecks on the real MLEs, `build_permutation_data`,
//! `pcs.open`), each under its own span. `prove_with_config` cannot be
//! opened from outside, so the replay says where its time goes without
//! pretending the children sum to the parent: Batch Evaluations, the
//! OpenCheck SumCheck and the MLE Combine are crate-private and not
//! replayed.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkphire_hyperplonk::{
    build_permutation_data, prove_with_config, setup, verify, Circuit, GateSystem, HyperPlonkProof,
    ProverConfig, ProvingKey, VerifyingKey, Witness,
};
use zkphire_poly::Mle;
use zkphire_sumcheck::prove_zero_check_with_threads;
use zkphire_transcript::Transcript;

use super::{Config, Samples, Workload};
use crate::alloc;
use crate::trace::{Layer, Recorder};

const DOMAIN: &[u8] = b"zkphire-benchmark/prove";

/// Fraction of active gate rows in the random circuits (the repository's
/// own default for synthetic circuits).
const ACTIVE_FRACTION: f64 = 0.5;

/// log2 rows of each workload's circuit. Chosen so a prove takes
/// 200-300 ms on one CPU: a 10 s run then holds 35-45 samples, two or
/// three to a round.
pub fn workload_mu(system: GateSystem, smoke: bool) -> usize {
    match (system, smoke) {
        (GateSystem::Jellyfish, false) => 10,
        (GateSystem::Vanilla, false) => 11,
        (GateSystem::Jellyfish, true) => 6,
        (GateSystem::Vanilla, true) => 7,
    }
}

/// A set-up instance: keys, witness, and the thread count to prove with.
pub struct Prove {
    system: GateSystem,
    pk: ProvingKey,
    vk: VerifyingKey,
    witness: Witness,
    threads: usize,
    sample: u64,
    /// Allocator calls and bytes of each sampled prove.
    pub alloc_calls: Vec<f64>,
    pub alloc_bytes: Vec<f64>,
}

impl Prove {
    /// Circuit, SRS and keys for the workload's own shape.
    pub fn setup(system: GateSystem, cfg: Config) -> Self {
        Self::with_shape(system, workload_mu(system, cfg.smoke), cfg)
    }

    /// Circuit, SRS and keys for `2^mu` rows, all generated from the seed.
    pub fn with_shape(system: GateSystem, mu: usize, cfg: Config) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (circuit, witness) = Circuit::random(system, mu, ACTIVE_FRACTION, &mut rng);
        let (pk, vk) = setup(circuit, &mut rng);
        Self {
            system,
            pk,
            vk,
            witness,
            threads: cfg.threads,
            sample: 0,
            alloc_calls: Vec::new(),
            alloc_bytes: Vec::new(),
        }
    }

    fn prove(&self, threads: usize) -> HyperPlonkProof {
        prove_with_config(
            &self.pk,
            &self.witness,
            &mut Transcript::new(DOMAIN),
            ProverConfig { threads },
        )
    }

    /// Wall time (ms) of one prove with `threads` threads, unsampled.
    pub fn time_prove_ms(&self, threads: usize) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(self.prove(threads));
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// One sample: prove, verify, encode (and decode when asked).
    fn sample(&mut self, rec: &mut Recorder, samples: &mut Samples, decode: bool) {
        self.sample += 1;
        rec.set_sample(self.sample, 0);
        samples.attempted += 1;

        let before = alloc::stats();
        let span = rec.begin("hyperplonk.prove_with_config", Layer::Hyperplonk);
        let t0 = Instant::now();
        let proof = self.prove(self.threads);
        samples.primary_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        rec.end(span);
        let after = alloc::stats();
        self.alloc_calls.push((after.calls - before.calls) as f64);
        self.alloc_bytes.push((after.bytes - before.bytes) as f64);

        let span = rec.begin("hyperplonk.verify", Layer::Hyperplonk);
        let t0 = Instant::now();
        let verdict = verify(&self.vk, &proof, &mut Transcript::new(DOMAIN));
        samples.secondary_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        rec.end(span);
        if let Err(e) = verdict {
            samples.fail(format!("proof {} rejected: {e:?}", self.sample));
        }

        let span = rec.begin("hyperplonk.to_bytes", Layer::Hyperplonk);
        let bytes = proof.to_bytes();
        rec.end(span);
        samples.exact("proof_bytes", bytes.len() as f64);
        if decode {
            let span = rec.begin("hyperplonk.from_bytes", Layer::Hyperplonk);
            let decoded = HyperPlonkProof::from_bytes(&bytes);
            rec.end(span);
            match decoded {
                Ok(p) if p.to_bytes() == bytes => {}
                Ok(_) => samples.fail("decoded proof re-encodes differently"),
                Err(e) => samples.fail(format!("proof bytes do not decode: {e:?}")),
            }
        }
    }

    /// Re-runs the prover's steps through the layers' public functions.
    fn replay(&self, rec: &mut Recorder) {
        let system = self.system;
        let circuit = &self.pk.circuit;
        let mu = circuit.num_vars;
        let pcs = &self.pk.pcs;
        let transcript = &mut Transcript::new(DOMAIN);
        let root = rec.begin("hyperplonk.replay", Layer::Hyperplonk);

        for column in &self.witness.columns {
            let s = rec.begin("pcs.commit(witness)", Layer::Pcs);
            std::hint::black_box(pcs.commit(column));
            rec.end(s);
        }

        let mut gate_mles: Vec<Mle> = circuit.selectors.clone();
        gate_mles.extend(self.witness.columns.iter().cloned());
        gate_mles.push(Mle::zero(mu));
        let s = rec.begin("sumcheck.prove_zero_check(gate)", Layer::Sumcheck);
        std::hint::black_box(prove_zero_check_with_threads(
            &system.gate().poly,
            system.gate_eq_slot(),
            gate_mles,
            transcript,
            self.threads,
        ));
        rec.end(s);

        let beta = transcript.challenge_fr(b"replay/beta");
        let gamma = transcript.challenge_fr(b"replay/gamma");
        let s = rec.begin("hyperplonk.build_permutation_data", Layer::Hyperplonk);
        let perm = build_permutation_data(&self.witness.columns, &circuit.sigma, beta, gamma);
        rec.end(s);

        for table in [&perm.phi, &perm.pi, &perm.p1, &perm.p2] {
            let s = rec.begin("pcs.commit(perm)", Layer::Pcs);
            std::hint::black_box(pcs.commit(table));
            rec.end(s);
        }

        let alpha = transcript.challenge_fr(b"replay/alpha");
        let perm_poly = system.perm_gate().poly.specialize(&[alpha]);
        let mut perm_mles = vec![
            perm.pi.clone(),
            perm.p1.clone(),
            perm.p2.clone(),
            perm.phi.clone(),
        ];
        perm_mles.extend(perm.denominators.iter().cloned());
        perm_mles.extend(perm.numerators.iter().cloned());
        perm_mles.push(Mle::zero(mu));
        let s = rec.begin("sumcheck.prove_zero_check(perm)", Layer::Sumcheck);
        let (perm_out, _) = prove_zero_check_with_threads(
            &perm_poly,
            system.perm_eq_slot(),
            perm_mles,
            transcript,
            self.threads,
        );
        rec.end(s);

        // The real prover opens one combined dense polynomial at the
        // OpenCheck point; a dense table at a transcript point costs the same.
        let s = rec.begin("pcs.open", Layer::Pcs);
        std::hint::black_box(pcs.open(&perm.phi, &perm_out.challenges));
        rec.end(s);

        rec.end(root);
    }
}

impl Workload for Prove {
    fn warm(&mut self) {
        let proof = self.prove(self.threads);
        let _ = std::hint::black_box(verify(&self.vk, &proof, &mut Transcript::new(DOMAIN)));
    }

    fn round(&mut self, deadline: Instant, rec: &mut Recorder, samples: &mut Samples) {
        let started = Instant::now();
        let (p0, s0) = (samples.primary_ms.len(), samples.secondary_ms.len());
        let mut ops = 0;
        loop {
            let failed_before = samples.failed;
            // The decode round trip is checked once a round: it is ~1 % of
            // a prove and would otherwise sit in every throughput sample.
            self.sample(rec, samples, ops == 0);
            if samples.failed == failed_before {
                ops += 1;
            }
            if rec.enabled() {
                self.replay(rec);
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        samples.close_round(started, ops, p0, s0);
    }

    fn finish(self: Box<Self>, _rec: &mut Recorder, _samples: &mut Samples) {}
}
