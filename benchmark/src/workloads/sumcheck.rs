//! `sumcheck_gates`: SumCheck prove + verify over every Table I gate and
//! the degree-16 and degree-32 members of the paper's high-degree family,
//! on seeded bindings with the paper's sparsity statistics. No curve
//! arithmetic runs here: this isolates `sumcheck`/`poly`/`field`/
//! `transcript`, and is the CPU baseline the paper's SumCheck speedups
//! divide by. Two numbers keep "many low-degree terms" (the Table I sweep)
//! and "few degree-32 terms" (the high-degree pair) apart.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkphire_field::Fr;
use zkphire_poly::{high_degree_gate, sparsity::random_binding, table1_gates, CompositePoly, Mle};
use zkphire_sumcheck::{prove_with_threads, verify};
use zkphire_transcript::Transcript;

use super::{Config, Samples, Workload};
use crate::trace::{Layer, Recorder};

const DOMAIN: &[u8] = b"zkphire-benchmark/sumcheck";

/// Gates of Table I; the high-degree pair follows them in `gates`.
const TABLE1_GATES: usize = 25;

struct Gate {
    poly: CompositePoly,
    binding: Vec<Mle>,
}

/// The bound gate set.
pub struct SumcheckGates {
    gates: Vec<Gate>,
    mu: usize,
    threads: usize,
    sweep: u64,
}

impl SumcheckGates {
    /// Expands the gate library and draws one binding per gate from the
    /// seed. 2^11 rows: one sweep of the 27 gates takes ~230 ms on one
    /// CPU, two to a round.
    pub fn setup(cfg: Config) -> Self {
        let mu = if cfg.smoke { 8 } else { 11 };
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut infos = table1_gates();
        debug_assert_eq!(infos.len(), TABLE1_GATES);
        infos.push(high_degree_gate(16));
        infos.push(high_degree_gate(32));
        let gates = infos
            .into_iter()
            .map(|info| {
                // Protocol scalars (alpha, ...) are verifier challenges in
                // a real run; here they come from the seed.
                let scalars: Vec<Fr> = (0..info.poly.num_scalars())
                    .map(|_| Fr::random(&mut rng))
                    .collect();
                Gate {
                    poly: info.poly.specialize(&scalars),
                    binding: random_binding(&mut rng, &info.mle_kinds, mu),
                }
            })
            .collect();
        Self {
            gates,
            mu,
            threads: cfg.threads,
            sweep: 0,
        }
    }

    /// Proves and verifies gates `range`, returning the summed prove time
    /// (ms) and counting each proof as an operation.
    fn sweep_part(
        &self,
        range: std::ops::Range<usize>,
        rec: &mut Recorder,
        samples: &mut Samples,
        ops: &mut u64,
    ) -> f64 {
        let mut prove_ms = 0.0;
        for (i, gate) in self.gates[range.clone()].iter().enumerate() {
            samples.attempted += 1;
            // The prover consumes its tables; the copy is input staging,
            // not part of the timed prove.
            let mles = gate.binding.clone();
            let s = rec.begin("sumcheck.prove_with_threads", Layer::Sumcheck);
            let t0 = Instant::now();
            let out =
                prove_with_threads(&gate.poly, mles, &mut Transcript::new(DOMAIN), self.threads);
            prove_ms += t0.elapsed().as_secs_f64() * 1e3;
            rec.end(s);
            let s = rec.begin("sumcheck.verify", Layer::Sumcheck);
            let verdict = verify(
                &gate.poly,
                self.mu,
                &out.proof,
                &mut Transcript::new(DOMAIN),
            );
            rec.end(s);
            match verdict {
                Ok(_) => *ops += 1,
                Err(e) => samples.fail(format!("gate {} rejected: {e:?}", range.start + i)),
            }
        }
        prove_ms
    }
}

impl Workload for SumcheckGates {
    fn warm(&mut self) {
        let mut scratch = Samples::default();
        let mut ops = 0;
        self.sweep_part(0..3, &mut Recorder::new(false), &mut scratch, &mut ops);
    }

    fn round(&mut self, deadline: Instant, rec: &mut Recorder, samples: &mut Samples) {
        let started = Instant::now();
        let (p0, s0) = (samples.primary_ms.len(), samples.secondary_ms.len());
        let mut ops = 0;
        loop {
            self.sweep += 1;
            rec.set_sample(self.sweep, 0);
            let root = rec.begin("sumcheck.sweep", Layer::Host);
            let table1 = self.sweep_part(0..TABLE1_GATES, rec, samples, &mut ops);
            let highdeg = self.sweep_part(TABLE1_GATES..self.gates.len(), rec, samples, &mut ops);
            rec.end(root);
            samples.primary_ms.push(table1);
            samples.secondary_ms.push(highdeg);
            if Instant::now() >= deadline {
                break;
            }
        }
        samples.close_round(started, ops, p0, s0);
    }

    fn finish(self: Box<Self>, _rec: &mut Recorder, _samples: &mut Samples) {}
}
