//! The `perf` experiment: wall-clock benchmarks of the software prover's
//! hot paths, emitted both as a human-readable table and as the
//! machine-readable `BENCH_perf.json` trajectory future PRs regress
//! against.
//!
//! Four sections:
//!
//! 1. **field** — Montgomery mul / square / single inversion /
//!    batch inversion throughput;
//! 2. **msm** — the signed-digit batched-affine MSM against the retained
//!    unsigned-window baseline ([`zkphire_curve::msm_unsigned`]) at
//!    2^12–2^18 points;
//! 3. **sumcheck** — parallel-vs-sequential full proves at 2^18 evals and
//!    a degree sweep (3–32) over single-term product composites;
//! 4. **e2e** — a complete HyperPlonk prove (+ verification).
//!
//! `--smoke` shrinks every size so CI can validate the harness and the
//! JSON schema in seconds. Timings are inherently machine-dependent and
//! are *not* covered by the golden determinism tests; the equality
//! checks inside this experiment (signed MSM ≡ unsigned MSM, parallel
//! transcript ≡ sequential transcript, op counts thread-invariant) are
//! hard assertions, so a `repro perf` run doubles as a correctness gate.

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkphire_curve::{
    batch_normalize, msm_unsigned_with_ops, msm_with_ops, msm_with_ops_threads, G1Affine,
    G1Projective,
};
use zkphire_field::{batch_inverse, Fr};
use zkphire_hyperplonk::{prove_with_config, setup, verify, Circuit, GateSystem, ProverConfig};
use zkphire_poly::{CompositePoly, Mle, MleId, Term};
use zkphire_sumcheck::{count_ops, prove_with_threads};
use zkphire_telemetry as tele;
use zkphire_transcript::Transcript;

use super::obs_exps::tele_guard;
use crate::fmt_table;

/// One benchmark measurement, serialized verbatim into `BENCH_perf.json`.
struct PerfRecord {
    /// Hierarchical benchmark name, e.g. `msm/signed`.
    name: String,
    /// Problem size (elements, points, or hypercube evals).
    n: u64,
    /// Wall-clock nanoseconds for the measured call.
    wall_ns: u64,
    /// Abstract operation count (field muls or PADDs; 0 when the kernel
    /// has no single dominant op).
    ops: u64,
    /// Worker threads the measured call was allowed to use.
    threads: u64,
}

fn time_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run metadata embedded in `BENCH_perf.json` so the checked-in 1-core
/// trajectory is distinguishable from multi-core regenerations.
struct RunMeta {
    /// `available_parallelism` of the measuring host.
    host_cores: u64,
    /// Worker threads the threaded benches were allowed to use.
    threads: u64,
    /// Short git revision of the measured tree (`unknown` outside a
    /// git checkout).
    git_rev: String,
}

impl RunMeta {
    fn capture() -> Self {
        Self {
            host_cores: available_threads() as u64,
            threads: available_threads() as u64,
            git_rev: git_rev(),
        }
    }
}

/// Short git revision, sanitized to hex so the hand-rolled JSON needs
/// no escaping; `unknown` when git is unavailable.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".into())
}

/// The `perf` experiment with default (full) sizes.
pub fn perf() -> String {
    perf_with_args(&[])
}

/// The `perf` experiment; recognizes `--smoke` for CI-sized inputs and
/// `--out <path>` to redirect the JSON artifact.
pub fn perf_with_args(args: &[String]) -> String {
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_perf.json", String::as_str);

    let mut records: Vec<PerfRecord> = Vec::new();
    let mut out = String::new();
    let meta = RunMeta::capture();
    let _ = writeln!(
        out,
        "run meta: host_cores={} threads={} git_rev={}\n",
        meta.host_cores, meta.threads, meta.git_rev
    );

    field_section(smoke, &mut records, &mut out);
    msm_section(smoke, &mut records, &mut out);
    sumcheck_section(smoke, &mut records, &mut out);
    e2e_section(smoke, &mut records, &mut out);

    match std::fs::write(out_path, render_json(&records, smoke, &meta)) {
        Ok(()) => {
            let _ = writeln!(out, "wrote {} records to {out_path}", records.len());
        }
        Err(e) => {
            let _ = writeln!(out, "FAILED to write {out_path}: {e}");
        }
    }
    out
}

// ---------------------------------------------------------------- field --

fn field_section(smoke: bool, records: &mut Vec<PerfRecord>, out: &mut String) {
    let n: u64 = if smoke { 1 << 14 } else { 1 << 20 };
    let inv_n: u64 = if smoke { 1 << 6 } else { 1 << 9 };
    let batch_n: usize = if smoke { 1 << 12 } else { 1 << 16 };
    let mut rng = StdRng::seed_from_u64(0xf1e1d);

    // Throughput-style: independent elements in a buffer, the shape of
    // the real hot paths (extension lanes, point arithmetic), where
    // out-of-order execution overlaps the Montgomery kernels.
    let buf_len = 1usize << 10;
    let rounds = (n as usize) / buf_len;
    let mut buf: Vec<Fr> = (0..buf_len).map(|_| Fr::random(&mut rng)).collect();
    let y = Fr::random(&mut rng);
    let (_, mul_ns) = time_ns(|| {
        for _ in 0..rounds {
            for v in buf.iter_mut() {
                *v *= y;
            }
        }
        std::hint::black_box(buf.first().copied())
    });
    records.push(PerfRecord {
        name: "field/mul".into(),
        n,
        wall_ns: mul_ns,
        ops: n,
        threads: 1,
    });

    let mut buf: Vec<Fr> = (0..buf_len).map(|_| Fr::random(&mut rng)).collect();
    let (_, sqr_ns) = time_ns(|| {
        for _ in 0..rounds {
            for v in buf.iter_mut() {
                *v = v.square();
            }
        }
        std::hint::black_box(buf.first().copied())
    });
    records.push(PerfRecord {
        name: "field/square".into(),
        n,
        wall_ns: sqr_ns,
        ops: n,
        threads: 1,
    });

    let mut v = Fr::random(&mut rng);
    let (_, inv_ns) = time_ns(|| {
        for _ in 0..inv_n {
            v = v.inverse().expect("non-zero chain");
        }
        std::hint::black_box(v)
    });
    records.push(PerfRecord {
        name: "field/inverse".into(),
        n: inv_n,
        wall_ns: inv_ns,
        ops: inv_n,
        threads: 1,
    });

    let mut batch: Vec<Fr> = (0..batch_n).map(|_| Fr::random(&mut rng)).collect();
    let (_, batch_ns) = time_ns(|| {
        batch_inverse(&mut batch);
        std::hint::black_box(batch.last().copied())
    });
    records.push(PerfRecord {
        name: "field/batch_inverse".into(),
        n: batch_n as u64,
        wall_ns: batch_ns,
        ops: batch_n as u64,
        threads: 1,
    });

    let rows = vec![
        vec![
            "mul".into(),
            n.to_string(),
            format!("{:.1}", mul_ns as f64 / n as f64),
        ],
        vec![
            "square".into(),
            n.to_string(),
            format!("{:.1}", sqr_ns as f64 / n as f64),
        ],
        vec![
            "inverse".into(),
            inv_n.to_string(),
            format!("{:.1}", inv_ns as f64 / inv_n as f64),
        ],
        vec![
            "batch_inverse".into(),
            batch_n.to_string(),
            format!("{:.1}", batch_ns as f64 / batch_n as f64),
        ],
    ];
    out.push_str(&fmt_table(
        "Perf — Fr arithmetic (Montgomery form)",
        &["op", "count", "ns/op"],
        &rows,
    ));
    let _ = writeln!(
        out,
        "square/mul ratio: {:.2}\n",
        sqr_ns as f64 / mul_ns as f64
    );
}

// ------------------------------------------------------------------ msm --

/// Materializes `n` distinct affine points (`G, 2G, 3G, ...`) with one
/// batched normalization — cheap enough for 2^18-point benches.
fn chain_points(n: usize) -> Vec<G1Affine> {
    let g = G1Affine::generator();
    let mut acc = G1Projective::from(g);
    let mut projective = Vec::with_capacity(n);
    for _ in 0..n {
        projective.push(acc);
        acc = acc.add_mixed(&g);
    }
    batch_normalize(&projective)
}

fn msm_section(smoke: bool, records: &mut Vec<PerfRecord>, out: &mut String) {
    // MSM workers flush their telemetry buffers when they exit; keep
    // them out of a session another test thread may be recording.
    let _guard = tele_guard();
    let log_sizes: &[u32] = if smoke { &[8, 10] } else { &[12, 14, 16, 18] };
    let threads = available_threads() as u64;
    let max_n = 1usize << log_sizes.last().copied().unwrap_or(8);
    let points = chain_points(max_n);
    let mut rng = StdRng::seed_from_u64(0x5ca1a2);
    let scalars: Vec<Fr> = (0..max_n).map(|_| Fr::random(&mut rng)).collect();

    let mut rows = Vec::new();
    for (i, &log_n) in log_sizes.iter().enumerate() {
        let n = 1usize << log_n;
        let ((signed, signed_ops), signed_ns) =
            time_ns(|| msm_with_ops(&points[..n], &scalars[..n]));
        let ((unsigned, unsigned_ops), unsigned_ns) =
            time_ns(|| msm_unsigned_with_ops(&points[..n], &scalars[..n]));
        assert_eq!(
            signed, unsigned,
            "signed-digit MSM diverged from the unsigned baseline at n=2^{log_n}"
        );
        if i == 0 {
            // Determinism gate (smallest size keeps the extra run cheap):
            // a single-threaded signed run must reproduce both the point
            // and the MsmOps counts bit-for-bit.
            let (seq, seq_ops) = msm_with_ops_threads(&points[..n], &scalars[..n], 1);
            assert_eq!(seq, signed, "thread count changed the MSM result");
            assert_eq!(seq_ops, signed_ops, "thread count changed MsmOps");
        }
        records.push(PerfRecord {
            name: "msm/signed".into(),
            n: n as u64,
            wall_ns: signed_ns,
            ops: signed_ops.total_padds(),
            threads,
        });
        records.push(PerfRecord {
            name: "msm/unsigned".into(),
            n: n as u64,
            wall_ns: unsigned_ns,
            ops: unsigned_ops.total_padds(),
            threads,
        });
        rows.push(vec![
            format!("2^{log_n}"),
            format!("{:.2}", signed_ns as f64 / 1e6),
            format!("{:.2}", unsigned_ns as f64 / 1e6),
            format!("{:.2}x", unsigned_ns as f64 / signed_ns as f64),
            signed_ops.total_padds().to_string(),
            unsigned_ops.total_padds().to_string(),
        ]);
    }
    out.push_str(&fmt_table(
        "Perf — MSM: signed-digit batched-affine vs unsigned-window baseline",
        &[
            "points",
            "signed ms",
            "unsigned ms",
            "speedup",
            "signed padds",
            "unsigned padds",
        ],
        &rows,
    ));
    out.push('\n');
}

// ------------------------------------------------------------- sumcheck --

/// A degree-3 composite with a shared factor: `a*b*c + c*d`.
fn headline_poly() -> CompositePoly {
    CompositePoly::new(vec![
        Term {
            coeff: Fr::ONE,
            scalars: vec![],
            factors: vec![MleId(0), MleId(1), MleId(2)],
        },
        Term {
            coeff: Fr::ONE,
            scalars: vec![],
            factors: vec![MleId(2), MleId(3)],
        },
    ])
}

/// A single product term over `degree` distinct MLEs — the high-degree
/// custom-gate shape of the paper's Table I rows.
fn product_poly(degree: usize) -> CompositePoly {
    CompositePoly::new(vec![Term {
        coeff: Fr::ONE,
        scalars: vec![],
        factors: (0..degree).map(MleId).collect(),
    }])
}

fn random_mles(count: usize, num_vars: usize, seed: u64) -> Vec<Mle> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| Mle::from_fn(num_vars, |_| Fr::random(&mut rng)))
        .collect()
}

fn sumcheck_section(smoke: bool, records: &mut Vec<PerfRecord>, out: &mut String) {
    // Headline: parallel vs sequential full prove on a degree-3 composite.
    // Smoke still uses 2^11 evals: 1024 pairs is the round-eval parallel
    // threshold, so the chunked path (and its transcript-equality assert)
    // really executes in CI rather than falling back to sequential.
    let num_vars = if smoke { 11 } else { 18 };
    let n = 1u64 << num_vars;
    let poly = headline_poly();
    let total_muls = count_ops(&poly, num_vars).total_muls();
    let mles = random_mles(4, num_vars, 0x5c);

    let thread_counts: Vec<usize> = {
        let avail = available_threads();
        let mut t = vec![1usize, 4];
        if avail > 4 {
            t.push(avail);
        }
        t
    };
    let mut reference: Option<zkphire_sumcheck::ProverOutput> = None;
    let mut seq_ns = 0u64;
    let mut rows = Vec::new();
    for &threads in &thread_counts {
        let mles = mles.clone();
        let (prover_out, ns) = time_ns(|| {
            let mut t = Transcript::new(b"perf/sumcheck");
            prove_with_threads(&poly, mles, &mut t, threads)
        });
        match &reference {
            None => {
                seq_ns = ns;
                reference = Some(prover_out);
            }
            Some(r) => {
                assert_eq!(
                    prover_out.proof, r.proof,
                    "parallel sumcheck transcript diverged at threads={threads}"
                );
                assert_eq!(prover_out.challenges, r.challenges);
            }
        }
        records.push(PerfRecord {
            name: format!("sumcheck/threads{threads}"),
            n,
            wall_ns: ns,
            ops: total_muls,
            threads: threads as u64,
        });
        rows.push(vec![
            threads.to_string(),
            format!("{:.2}", ns as f64 / 1e6),
            format!("{:.2}x", seq_ns as f64 / ns as f64),
        ]);
    }
    out.push_str(&fmt_table(
        &format!("Perf — SumCheck prove, degree 3, 2^{num_vars} evals"),
        &["threads", "ms", "speedup"],
        &rows,
    ));
    out.push('\n');

    // Degree sweep: single-term products, the paper's high-degree regime.
    let sweep_vars = if smoke { 8 } else { 13 };
    let threads = available_threads();
    let mut rows = Vec::new();
    for degree in [3usize, 8, 16, 32] {
        let poly = product_poly(degree);
        let muls = count_ops(&poly, sweep_vars).total_muls();
        let mles = random_mles(degree, sweep_vars, degree as u64);
        let (_, ns) = time_ns(|| {
            let mut t = Transcript::new(b"perf/degree");
            prove_with_threads(&poly, mles, &mut t, threads)
        });
        records.push(PerfRecord {
            name: format!("sumcheck/degree{degree}"),
            n: 1u64 << sweep_vars,
            wall_ns: ns,
            ops: muls,
            threads: threads as u64,
        });
        rows.push(vec![
            degree.to_string(),
            format!("{:.2}", ns as f64 / 1e6),
            muls.to_string(),
        ]);
    }
    out.push_str(&fmt_table(
        &format!("Perf — SumCheck degree sweep, 2^{sweep_vars} evals"),
        &["degree", "ms", "field muls"],
        &rows,
    ));
    out.push('\n');
}

// ------------------------------------------------------------------ e2e --

fn e2e_section(smoke: bool, records: &mut Vec<PerfRecord>, out: &mut String) {
    let mu = if smoke { 6 } else { 12 };
    let threads = available_threads();
    let mut rng = StdRng::seed_from_u64(0xe2e);
    let (circuit, witness) = Circuit::random(GateSystem::Jellyfish, mu, 0.5, &mut rng);
    let (pk, vk) = setup(circuit, &mut rng);
    let prove_once = || {
        prove_with_config(
            &pk,
            &witness,
            &mut Transcript::new(b"perf/e2e"),
            ProverConfig { threads },
        )
    };

    // Telemetry overhead: best-of-N with recording runtime-off vs -on.
    // The hooks are compiled in (the bench crate enables `record`), so
    // "off" measures the runtime gate — one relaxed load per hook —
    // and "on" the full recording path. Best-of-N filters scheduler
    // noise, which at smoke sizes dwarfs the overhead being measured.
    let reps = 3;
    let guard = tele_guard();
    tele::reset();
    tele::set_enabled(false);
    let mut off_ns = u64::MAX;
    for _ in 0..reps {
        let (p, ns) = time_ns(prove_once);
        std::hint::black_box(&p);
        off_ns = off_ns.min(ns);
    }
    tele::set_enabled(true);
    let mut on_ns = u64::MAX;
    for _ in 0..reps {
        let (p, ns) = time_ns(prove_once);
        std::hint::black_box(&p);
        on_ns = on_ns.min(ns);
    }
    tele::set_enabled(false);
    tele::drain(); // discard the overhead reps' spans

    // One clean instrumented run supplies the recorded e2e wall time,
    // the per-phase breakdown, and the allocation counters.
    tele::reset();
    tele::reset_alloc_counts();
    tele::set_enabled(true);
    let (proof, prove_ns) = time_ns(prove_once);
    tele::set_enabled(false);
    let (alloc_calls, alloc_bytes) = tele::alloc_counts();
    let profile = tele::drain();
    drop(guard);
    verify(&vk, &proof, &mut Transcript::new(b"perf/e2e")).expect("benchmark proof must verify");

    records.push(PerfRecord {
        name: "hyperplonk/prove".into(),
        n: 1u64 << mu,
        wall_ns: prove_ns,
        ops: 0,
        threads: threads as u64,
    });
    for (name, ns) in [
        ("hyperplonk/prove_telemetry_off", off_ns),
        ("hyperplonk/prove_telemetry_on", on_ns),
    ] {
        records.push(PerfRecord {
            name: name.into(),
            n: 1u64 << mu,
            wall_ns: ns,
            ops: 0,
            threads: threads as u64,
        });
    }

    // Per-phase breakdown: the depth-1 spans tile the `prove` span
    // (`repro obs` asserts the tiling is within 1%).
    let prove_span_ns = profile.total_ns("prove").max(1);
    let mut phase_rows = Vec::new();
    for name in profile.names_at_depth(1) {
        let ns = profile.total_ns(name);
        records.push(PerfRecord {
            name: format!("hyperplonk/{name}"),
            n: 1u64 << mu,
            wall_ns: ns,
            ops: 0,
            threads: threads as u64,
        });
        phase_rows.push(vec![
            name.to_string(),
            format!("{:.2}", ns as f64 / 1e6),
            format!("{:.1}%", 100.0 * ns as f64 / prove_span_ns as f64),
        ]);
    }
    out.push_str(&fmt_table(
        &format!("Perf — HyperPlonk e2e phase breakdown (Jellyfish, 2^{mu} rows)"),
        &["phase", "ms", "share"],
        &phase_rows,
    ));
    let _ = writeln!(
        out,
        "prove {:.1} ms, proof {} bytes, verified",
        prove_ns as f64 / 1e6,
        proof.size_bytes(),
    );
    let _ = writeln!(
        out,
        "telemetry overhead (best of {reps}): on {:.2} ms vs off {:.2} ms ({:+.2}%)",
        on_ns as f64 / 1e6,
        off_ns as f64 / 1e6,
        100.0 * (on_ns as f64 / off_ns as f64 - 1.0),
    );
    if alloc_calls == 0 {
        let _ = writeln!(
            out,
            "allocation counter: inactive (CountingAlloc not installed in this binary)\n"
        );
    } else {
        let _ = writeln!(
            out,
            "allocations during instrumented prove: {alloc_calls} calls, {alloc_bytes} bytes\n"
        );
    }
}

// ----------------------------------------------------------------- json --

/// Hand-rolled JSON (no serde in the offline workspace): every name this
/// module generates is `[a-z0-9/_]`, so no string escaping is needed.
fn render_json(records: &[PerfRecord], smoke: bool, meta: &RunMeta) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"zkphire-bench-perf/v2\",\n");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    let _ = writeln!(
        s,
        "  \"meta\": {{\"host_cores\": {}, \"threads\": {}, \"git_rev\": \"{}\"}},",
        meta.host_cores, meta.threads, meta.git_rev
    );
    s.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"n\": {}, \"wall_ns\": {}, \"ops\": {}, \"threads\": {}}}{comma}",
            r.name, r.n, r.wall_ns, r.ops, r.threads
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed() {
        let records = vec![
            PerfRecord {
                name: "field/mul".into(),
                n: 8,
                wall_ns: 123,
                ops: 8,
                threads: 1,
            },
            PerfRecord {
                name: "msm/signed".into(),
                n: 256,
                wall_ns: 456,
                ops: 99,
                threads: 4,
            },
        ];
        let meta = RunMeta {
            host_cores: 1,
            threads: 1,
            git_rev: "abc123".into(),
        };
        let json = render_json(&records, true, &meta);
        // Structural spot-checks (no JSON parser in the offline workspace).
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"name\"").count(), 2);
        assert!(json.contains("\"schema\": \"zkphire-bench-perf/v2\""));
        assert!(json.contains("\"smoke\": true"));
        assert!(
            json.contains("\"meta\": {\"host_cores\": 1, \"threads\": 1, \"git_rev\": \"abc123\"}")
        );
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn git_rev_is_json_safe() {
        let rev = git_rev();
        assert!(
            rev == "unknown" || rev.chars().all(|c| c.is_ascii_hexdigit()),
            "git_rev `{rev}` would need JSON escaping"
        );
    }

    #[test]
    fn chain_points_are_distinct_curve_points() {
        let pts = chain_points(8);
        assert_eq!(pts.len(), 8);
        for p in &pts {
            assert!(p.is_on_curve());
        }
        assert_eq!(pts[0], G1Affine::generator());
        assert_ne!(pts[1], pts[2]);
    }
}
