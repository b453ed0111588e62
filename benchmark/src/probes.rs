//! The layer ledger: one fixed probe per layer, each timing calls into that
//! layer's public functions at a fixed shape. The probes are the same in
//! every traced run, whatever the workload, so a per-layer number means the
//! same thing everywhere and compares across workloads and commits. Inputs
//! come from the run's seed; shapes never do.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkphire_core::protocol::{simulate_protocol, Gate};
use zkphire_core::system::ZkphireConfig;
use zkphire_core::{PolyProfile, PrimeMode};
use zkphire_curve::{batch_normalize, msm_with_ops_threads, G1Affine, G1Projective};
use zkphire_dse::{full_system_dse, sumcheck_dse};
use zkphire_field::{batch_inverse, Fq, Fr};
use zkphire_hyperplonk::GateSystem;
use zkphire_pcs::{combine_commitments, MultilinearKzg};
use zkphire_poly::sparsity::{random_binding, random_dense, random_sparse_witness};
use zkphire_poly::{high_degree_gate, table1_gate, training_set, Mle};
use zkphire_serve::codec::{decode_frame, encode_frame, Frame};
use zkphire_serve::{ProvingService, ServeOpts};
use zkphire_sumcheck::{count_ops, prove_with_threads, prove_zero_check_with_threads, verify};
use zkphire_transcript::Transcript;

use crate::stats::{median, percentile};
use crate::trace::{Layer, Recorder};
use crate::workloads::model::{dse_space, protocol_classes, Fleet, DSE_MU};
use crate::workloads::prove::Prove;
use crate::workloads::serve::{queue_wait_ms_p50, serve_config, Serve};
use crate::workloads::{Config, Samples, Workload};

/// The ledger's values by metric name, and any check a probe failed.
#[derive(Default)]
pub struct Ledger {
    pub values: BTreeMap<&'static str, f64>,
    pub failures: Vec<String>,
}

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failures.push(what.to_string());
        }
    }
}

/// Wall time of `f` in ns.
fn time_ns<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as f64)
}

/// Fastest wall time (ns) of `reps` calls of `f`: with so few repetitions
/// the fastest is the one the host's other tenants disturbed least.
fn fastest_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let (out, ns) = time_ns(&mut f);
            std::hint::black_box(out);
            ns
        })
        .fold(f64::INFINITY, f64::min)
}

/// Ns per element-wise operation over a buffer of independent elements —
/// the shape of the real hot loops, where out-of-order execution overlaps
/// the Montgomery kernels.
fn ns_per_op<T: Copy>(buf: &mut [T], passes: usize, op: impl Fn(&mut T)) -> f64 {
    let ops = (buf.len() * passes) as f64;
    fastest_ns(3, || {
        for _ in 0..passes {
            for v in buf.iter_mut() {
                op(v);
            }
        }
        buf[0]
    }) / ops
}

fn field(l: &mut Ledger, rng: &mut StdRng, smoke: bool) {
    let passes = if smoke { 4 } else { 128 };
    let mut fr: Vec<Fr> = (0..1024).map(|_| Fr::random(rng)).collect();
    let y = Fr::random(rng);
    l.set("field.fr_mul_ns", ns_per_op(&mut fr, passes, |v| *v *= y));
    l.set(
        "field.fr_square_ns",
        ns_per_op(&mut fr, passes, |v| *v = v.square()),
    );

    let chain = if smoke { 16 } else { 256 };
    let mut v = Fr::random(rng);
    let ns = fastest_ns(3, || {
        for _ in 0..chain {
            v = v.inverse().unwrap_or(Fr::ONE);
        }
        v
    });
    l.set("field.fr_inverse_ns", ns / chain as f64);

    let batch: Vec<Fr> = (0..if smoke { 256 } else { 1 << 13 })
        .map(|_| Fr::random(rng))
        .collect();
    let ns = fastest_ns(3, || {
        let mut b = batch.clone();
        batch_inverse(&mut b);
        b
    });
    l.set(
        "field.fr_batch_inverse_ns_per_elem",
        ns / batch.len() as f64,
    );

    let mut fq: Vec<Fq> = (0..1024).map(|_| Fq::random(rng)).collect();
    let y = Fq::random(rng);
    l.set("field.fp_mul_ns", ns_per_op(&mut fq, passes, |v| *v *= y));
    l.set(
        "field.fp_square_ns",
        ns_per_op(&mut fq, passes, |v| *v = v.square()),
    );
}

fn curve(l: &mut Ledger, rng: &mut StdRng, threads: usize, smoke: bool) {
    let n = if smoke { 1 << 8 } else { 1 << 13 };
    // G, 2G, 3G, ... : distinct points without n scalar multiplications.
    let g = G1Affine::generator();
    let mut acc = G1Projective::from(g);
    let projective: Vec<G1Projective> = (0..n)
        .map(|_| {
            let p = acc;
            acc = acc.add_mixed(&g);
            p
        })
        .collect();
    let (points, ns) = time_ns(|| batch_normalize(&projective));
    l.set("curve.batch_normalize_ns_per_point", ns / n as f64);

    let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(rng)).collect();
    let (seq, seq_ops) = msm_with_ops_threads(&points, &scalars, 1);
    let (par, par_ops) = msm_with_ops_threads(&points, &scalars, threads);
    l.check(
        seq == par && seq_ops == par_ops,
        "MSM result or op counts depend on the thread count",
    );
    let t1 = fastest_ns(2, || msm_with_ops_threads(&points, &scalars, 1));
    let tn = fastest_ns(3, || msm_with_ops_threads(&points, &scalars, threads));
    let padds = seq_ops.total_padds();
    l.set("curve.msm_ms", tn / 1e6);
    l.set("curve.msm_t1_ms", t1 / 1e6);
    l.set("curve.msm_par_speedup", t1 / tn);
    l.set("curve.msm_padds", padds as f64);
    l.set("curve.msm_ns_per_padd", t1 / padds.max(1) as f64);
}

fn poly(l: &mut Ledger, rng: &mut StdRng, smoke: bool) {
    let mu = if smoke { 8 } else { 16 };
    let n = (1usize << mu) as f64;
    let table = random_dense(rng, mu);
    let point: Vec<Fr> = (0..mu).map(|_| Fr::random(rng)).collect();
    let ns = fastest_ns(5, || table.fix_first_variable(point[0]));
    l.set("poly.fix_first_var_ns_per_eval", ns / n);
    let ns = fastest_ns(5, || Mle::eq_table(&point));
    l.set("poly.eq_table_ns_per_eval", ns / n);
    let ns = fastest_ns(5, || table.evaluate(&point));
    l.set("poly.evaluate_ns_per_eval", ns / n);
}

fn transcript(l: &mut Ledger, rng: &mut StdRng) {
    use rand::RngCore;
    let mut t = Transcript::new(PROBE_DOMAIN);
    let draws = 1024;
    let ns = fastest_ns(3, || {
        let mut last = Fr::ZERO;
        for _ in 0..draws {
            last = t.challenge_fr(b"c");
        }
        last
    });
    let challenge_ns = ns / draws as f64;
    l.set("transcript.challenge_ns", challenge_ns);
    // Absorbed bytes are only hashed by the next challenge, so time the
    // pair and take the bare challenge off.
    let mut data = vec![0u8; 64 * 1024];
    rng.fill_bytes(&mut data);
    let ns = fastest_ns(5, || {
        t.append_bytes(b"blob", &data);
        t.challenge_fr(b"c")
    });
    l.set(
        "transcript.absorb_ns_per_byte",
        (ns - challenge_ns).max(0.0) / data.len() as f64,
    );
}

const PROBE_DOMAIN: &[u8] = b"zkphire-benchmark/probe";

fn sumcheck(l: &mut Ledger, rng: &mut StdRng, threads: usize, smoke: bool) {
    // Wall time per counted field multiplication, single-threaded, so the
    // ratio to `field.fr_mul_ns` is the prover's overhead per multiply.
    for (name, degree, mu) in [
        ("sumcheck.deg3_ns_per_mul", 3, if smoke { 6 } else { 12 }),
        ("sumcheck.deg32_ns_per_mul", 32, if smoke { 4 } else { 9 }),
    ] {
        let gate = high_degree_gate(degree);
        let binding = random_binding(rng, &gate.mle_kinds, mu);
        let muls = count_ops(&gate.poly, mu).total_muls();
        let ns = fastest_ns(3, || {
            prove_with_threads(
                &gate.poly,
                binding.clone(),
                &mut Transcript::new(PROBE_DOMAIN),
                1,
            )
        });
        l.set(name, ns / muls.max(1) as f64);
    }

    let mu = if smoke { 6 } else { 11 };
    for (name, system) in [
        ("sumcheck.jellyfish_zerocheck_ms", GateSystem::Jellyfish),
        ("sumcheck.vanilla_zerocheck_ms", GateSystem::Vanilla),
    ] {
        let gate = system.gate();
        let binding = random_binding(rng, &gate.mle_kinds, mu);
        let ns = fastest_ns(3, || {
            prove_zero_check_with_threads(
                &gate.poly,
                system.gate_eq_slot(),
                binding.clone(),
                &mut Transcript::new(PROBE_DOMAIN),
                threads,
            )
        });
        l.set(name, ns / 1e6);
    }

    let jelly = table1_gate(22);
    l.set(
        "sumcheck.field_muls_jellyfish",
        count_ops(&jelly.poly, mu).total_muls() as f64,
    );
    let binding = random_binding(rng, &jelly.mle_kinds, mu);
    let out = prove_with_threads(
        &jelly.poly,
        binding,
        &mut Transcript::new(PROBE_DOMAIN),
        threads,
    );
    let mut ok = true;
    let ns = fastest_ns(5, || {
        ok &= verify(
            &jelly.poly,
            mu,
            &out.proof,
            &mut Transcript::new(PROBE_DOMAIN),
        )
        .is_ok();
    });
    l.check(ok, "SumCheck proof of the Jellyfish gate rejected");
    l.set("sumcheck.verify_us", ns / 1e3);

    // One size up, so most rounds are above the prover's parallel threshold.
    let mu = mu + 1;
    let binding = random_binding(rng, &jelly.mle_kinds, mu);
    let run = |t: usize| {
        fastest_ns(2, || {
            prove_with_threads(
                &jelly.poly,
                binding.clone(),
                &mut Transcript::new(PROBE_DOMAIN),
                t,
            )
        })
    };
    let t1 = run(1);
    let tn = run(threads);
    l.set("sumcheck.par_speedup", t1 / tn);
}

fn pcs(l: &mut Ledger, rng: &mut StdRng, smoke: bool) {
    let mu = if smoke { 6 } else { 10 };
    let ((pcs, verifier), ns) = time_ns(|| MultilinearKzg::setup(mu, rng));
    l.set("pcs.setup_ms", ns / 1e6);
    let dense = random_dense(rng, mu);
    let witness = random_sparse_witness(rng, mu);
    let point: Vec<Fr> = (0..mu).map(|_| Fr::random(rng)).collect();
    l.set(
        "pcs.commit_dense_ms",
        fastest_ns(3, || pcs.commit(&dense)) / 1e6,
    );
    l.set(
        "pcs.commit_witness_ms",
        fastest_ns(3, || pcs.commit(&witness)) / 1e6,
    );
    l.set(
        "pcs.open_ms",
        fastest_ns(3, || pcs.open(&dense, &point)) / 1e6,
    );

    let commitment = pcs.commit(&dense);
    let (proof, value) = pcs.open(&dense, &point);
    let mut ok = true;
    let ns = fastest_ns(3, || {
        ok &= verifier.verify(&commitment, &point, value, &proof);
    });
    l.check(ok, "PCS opening rejected");
    l.set("pcs.verify_us", ns / 1e3);

    let commitments = vec![commitment; 8];
    let coeffs: Vec<Fr> = (0..8).map(|_| Fr::random(rng)).collect();
    let ns = fastest_ns(3, || combine_commitments(&commitments, &coeffs));
    l.set("pcs.combine_commitments_us", ns / 1e3);
}

/// Durations (ms) of the ledger's spans called `name`, summed per sample.
fn span_ms_per_sample(rec: &Recorder, name: &str) -> Vec<f64> {
    let mut by_sample: BTreeMap<u64, f64> = BTreeMap::new();
    for s in rec.spans().iter().filter(|s| s.ledger && s.name == name) {
        *by_sample.entry(s.sample).or_default() += s.dur_ns() as f64 / 1e6;
    }
    by_sample.into_values().collect()
}

fn hyperplonk(l: &mut Ledger, rec: &mut Recorder, cfg: Config) {
    let mu = if cfg.smoke { 5 } else { 10 };
    let (mut state, ns) = time_ns(|| Prove::with_shape(GateSystem::Jellyfish, mu, cfg));
    l.set("hyperplonk.setup_ms", ns / 1e6);
    state.warm();
    let mut samples = Samples::default();
    let budget = Duration::from_millis(if cfg.smoke { 50 } else { 900 });
    state.round(Instant::now() + budget, rec, &mut samples);
    l.check(samples.failed == 0, "probe proof rejected");

    let p50 = median(&samples.primary_ms);
    l.set("hyperplonk.prove_ms_p50", p50);
    l.set(
        "hyperplonk.prove_ms_p75",
        percentile(&samples.primary_ms, 75.0),
    );
    l.set("hyperplonk.verify_ms", median(&samples.secondary_ms));
    let t1 = median(&[state.time_prove_ms(1), state.time_prove_ms(1)]);
    l.set("hyperplonk.prove_t1_ms", t1);
    l.set("hyperplonk.par_speedup", t1 / p50);
    for (metric, span) in [
        ("hyperplonk.commit_ms", "pcs.commit(witness)"),
        (
            "hyperplonk.gate_zerocheck_ms",
            "sumcheck.prove_zero_check(gate)",
        ),
        (
            "hyperplonk.perm_build_ms",
            "hyperplonk.build_permutation_data",
        ),
        ("hyperplonk.perm_commit_ms", "pcs.commit(perm)"),
        (
            "hyperplonk.perm_zerocheck_ms",
            "sumcheck.prove_zero_check(perm)",
        ),
        ("hyperplonk.open_ms", "pcs.open"),
    ] {
        l.set(metric, median(&span_ms_per_sample(rec, span)));
    }
    let replay = median(&span_ms_per_sample(rec, "hyperplonk.replay"));
    l.set("hyperplonk.replayed_share", replay / p50);
    let us = |name| median(&span_ms_per_sample(rec, name)) * 1e3;
    l.set("hyperplonk.encode_us", us("hyperplonk.to_bytes"));
    l.set("hyperplonk.decode_us", us("hyperplonk.from_bytes"));
    let bytes = samples.exact.iter().find(|(n, _)| *n == "proof_bytes");
    l.set("hyperplonk.proof_bytes", bytes.map_or(0.0, |&(_, b)| b));
    l.set(
        "hyperplonk.alloc_calls_per_prove",
        median(&state.alloc_calls),
    );
    l.set(
        "hyperplonk.alloc_bytes_per_prove",
        median(&state.alloc_bytes),
    );
}

/// A short run of the serve workloads' loop; returns latency p50 (ms).
fn serve_mini(l: &mut Ledger, rec: &mut Recorder, cfg: Config, tcp: bool) -> f64 {
    let (started, ns) = time_ns(|| Serve::setup(tcp, cfg));
    let mut serve = match started {
        Ok(s) => s,
        Err(e) => {
            l.check(false, &format!("service start: {e}"));
            return 0.0;
        }
    };
    if tcp {
        match serve.connect_us() {
            Ok(us) => l.set("net.connect_us", us),
            Err(e) => l.check(false, &format!("second connection: {e}")),
        }
    } else {
        l.set("serve.start_ms", ns / 1e6);
    }
    let mut samples = Samples::default();
    let budget = Duration::from_millis(if cfg.smoke { 150 } else { 800 });
    serve.round(Instant::now() + budget, rec, &mut samples);
    let admit_us = median(&serve.admit_ms) * 1e3;
    let closed = serve.close(rec, &mut samples);
    for why in &samples.notes {
        l.check(false, why);
    }
    let p50 = median(&samples.primary_ms);
    let Some(closed) = closed else { return p50 };
    if tcp {
        l.set("net.submit_rtt_us_p50", admit_us);
        l.set("net.latency_ms_p50", p50);
        l.set(
            "net.frames_per_request",
            closed.frames_per_request.unwrap_or(0.0),
        );
        l.set("net.shutdown_ms", closed.shutdown_ms);
    } else {
        let report = &closed.report;
        l.set("serve.submit_us_p50", admit_us);
        l.set(
            "serve.queue_wait_ms_p50",
            queue_wait_ms_p50(&report.records),
        );
        l.set("serve.service_ms_p50", median(&samples.secondary_ms));
        l.set("serve.worker_utilization", report.summary.mean_utilization);
        l.set("serve.mean_batch_size", report.summary.mean_batch_size);
        l.set(
            "serve.dispatch_wakeup_us_mean",
            report.dispatch_wakeup_us.mean(),
        );
        l.set("serve.latency_ms_p50", p50);
        l.set(
            "serve.latency_ms_p90",
            percentile(&samples.primary_ms, 90.0),
        );
        l.set(
            "serve.latency_ms_p99",
            percentile(&samples.primary_ms, 99.0),
        );
        l.set("serve.drain_ms", closed.shutdown_ms);
    }
    p50
}

/// 64 back-to-back submits into one worker behind a queue of 16: the first
/// 16 are admitted before any proof can finish, the other 48 are refused.
fn serve_flood(l: &mut Ledger, cfg: Config) {
    let mut config = serve_config(cfg);
    config.opts = ServeOpts {
        workers: 1,
        ..config.opts
    }
    .with_queue_capacity(16);
    let class = config.classes[0];
    let service = match ProvingService::start(config) {
        Ok(s) => s,
        Err(e) => return l.check(false, &format!("flood service start: {e}")),
    };
    let mut reject_us = Vec::new();
    for _ in 0..64 {
        let (verdict, ns) = time_ns(|| service.submit(class, 0));
        match verdict {
            Ok(_) => {}
            Err(e) if e.is_rejection() => reject_us.push(ns / 1e3),
            Err(e) => l.check(false, &format!("flood submit: {e}")),
        }
    }
    l.set("serve.reject_us_p50", median(&reject_us));
    l.set("serve.flood_rejected", reject_us.len() as f64);
    match service.shutdown() {
        Ok(report) => l.check(
            report.summary.rejected == reject_us.len() as u64
                && report.summary.completed + report.summary.rejected == 64,
            "flood accounting disagrees with the client's count",
        ),
        Err(e) => l.check(false, &format!("flood shutdown: {e}")),
    }
}

fn codec(l: &mut Ledger) {
    let frames = [
        Frame::Submit {
            seq: 7,
            gate: Gate::Jellyfish,
            mu: 5,
            tenant: 1,
        },
        Frame::Outcome {
            id: 7,
            tenant: 1,
            outcome: zkphire_fleet::Outcome::Completed,
            t_ms: 1234.5,
            latency_ms: 67.25,
            attempts: 0,
        },
    ];
    let reps = 512;
    let mut ok = true;
    let ns = fastest_ns(3, || {
        for _ in 0..reps {
            for f in &frames {
                let bytes = encode_frame(f);
                ok &= matches!(decode_frame(&bytes), Ok(Some((ref g, n))) if g == f && n == bytes.len());
            }
        }
    });
    l.check(ok, "frame does not survive encode + decode");
    l.set("net.codec_roundtrip_ns", ns / (reps * frames.len()) as f64);
}

/// Relative error of `ours` against a value the paper publishes.
fn relerr(ours: f64, paper: f64) -> f64 {
    (ours - paper) / paper
}

fn core(l: &mut Ledger) {
    let chip = ZkphireConfig::exemplar();
    let classes = protocol_classes();
    let reps = 8;
    let ns = fastest_ns(3, || {
        let mut total = 0.0;
        for _ in 0..reps {
            for &(gate, mu) in &classes {
                total += simulate_protocol(&chip, gate, mu, true).total_ms;
            }
        }
        total
    });
    l.set(
        "core.simulate_protocol_us",
        ns / 1e3 / (reps * classes.len()) as f64,
    );
    let sim = |gate, mu| simulate_protocol(&chip, gate, mu, true).total_ms;
    l.set("core.sim_jellyfish_mu20_ms", sim(Gate::Jellyfish, 20));
    l.set("core.sim_vanilla_mu20_ms", sim(Gate::Vanilla, 20));
    // Table IX: the paper reports 3.874 ms for 2^19 Jellyfish gates, and
    // Table V 294.32 mm² and 202.28 W for the exemplar design.
    let ours = sim(Gate::Jellyfish, 19);
    l.set("core.sim_jellyfish_mu19_masked_ms", ours);
    l.set("core.relerr_vs_paper_3p874ms", relerr(ours, 3.874));
    let area = chip.area().total();
    l.set("core.area_mm2", area);
    l.set("core.area_relerr_vs_paper", relerr(area, 294.32));
    let power = chip.power().total();
    l.set("core.power_w", power);
    l.set("core.power_relerr_vs_paper", relerr(power, 202.28));
}

fn dse(l: &mut Ledger, smoke: bool) {
    let space = dse_space(smoke);
    let (out, ns) =
        time_ns(|| full_system_dse(&space, Gate::Jellyfish, DSE_MU, true, PrimeMode::Arbitrary));
    l.set("dse.full_system_ms", ns / 1e6);
    l.set("dse.points_per_s", out.evaluated as f64 / (ns / 1e9));
    l.set("dse.points_evaluated", out.evaluated as f64);
    l.set("dse.global_front_size", out.global_front.len() as f64);
    let training: Vec<PolyProfile> = training_set().iter().map(PolyProfile::from_gate).collect();
    let (best, ns) = time_ns(|| sumcheck_dse(&training, 18, 1024.0, 37.0));
    l.check(
        best.is_some(),
        "SumCheck DSE found no design under the area cap",
    );
    l.set("dse.sumcheck_dse_ms", ns / 1e6);
}

fn fleet(l: &mut Ledger, cfg: Config) {
    let fleet = Fleet::new(cfg.seed, if cfg.smoke { 2_000 } else { 50_000 });
    let (run, ns) = time_ns(|| fleet.run());
    let (report, (hits, misses)) = match run {
        Ok(r) => r,
        Err(e) => return l.check(false, &format!("DES: {e}")),
    };
    let events = report.trace.len() as f64;
    l.set("fleet.des_ms", ns / 1e6);
    l.set("fleet.des_events_per_s", events / (ns / 1e9));
    l.set("fleet.des_ns_per_event", ns / events.max(1.0));
    l.set("fleet.des_events", events);
    l.set(
        "fleet.des_trace_hash_lo32",
        (report.trace_hash & 0xffff_ffff) as f64,
    );
    l.set("fleet.sim_p99_ms", report.summary.p99_latency_ms);
    l.set("fleet.sim_completed", report.summary.completed as f64);
    l.set(
        "core.costdb_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
}

/// Runs one layer's probe under a ledger span.
fn probe(rec: &mut Recorder, layer: Layer, f: impl FnOnce(&mut Recorder)) {
    let s = rec.begin("ledger.probe", layer);
    f(rec);
    rec.end(s);
}

/// Runs every probe, recording one ledger span per layer.
pub fn run(rec: &mut Recorder, cfg: Config) -> Ledger {
    let mut l = Ledger::default();
    // Probe inputs come from a stream of their own.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6c65_6467_6572);
    rec.set_ledger(true);
    rec.set_sample(0, 0);
    probe(rec, Layer::Field, |_| field(&mut l, &mut rng, cfg.smoke));
    probe(rec, Layer::Curve, |_| {
        curve(&mut l, &mut rng, cfg.threads, cfg.smoke)
    });
    probe(rec, Layer::Poly, |_| poly(&mut l, &mut rng, cfg.smoke));
    probe(rec, Layer::Transcript, |_| transcript(&mut l, &mut rng));
    probe(rec, Layer::Sumcheck, |_| {
        sumcheck(&mut l, &mut rng, cfg.threads, cfg.smoke)
    });
    probe(rec, Layer::Pcs, |_| pcs(&mut l, &mut rng, cfg.smoke));
    probe(rec, Layer::Hyperplonk, |rec| hyperplonk(&mut l, rec, cfg));
    let mut inproc_p50 = 0.0;
    probe(rec, Layer::Serve, |rec| {
        inproc_p50 = serve_mini(&mut l, rec, cfg, false);
        serve_flood(&mut l, cfg);
    });
    probe(rec, Layer::Net, |rec| {
        let tcp_p50 = serve_mini(&mut l, rec, cfg, true);
        l.set("net.wire_overhead_ms_p50", tcp_p50 - inproc_p50);
        codec(&mut l);
    });
    probe(rec, Layer::Core, |_| core(&mut l));
    probe(rec, Layer::Dse, |_| dse(&mut l, cfg.smoke));
    probe(rec, Layer::Fleet, |_| fleet(&mut l, cfg));
    rec.set_ledger(false);
    l
}
