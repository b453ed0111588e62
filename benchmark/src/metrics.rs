//! The metric registry: every name the benchmark prints, with its unit,
//! direction, bound and — for per-layer metrics — the end-to-end metric it
//! is expected to move and on which workload. `BENCHMARK.json` is generated
//! from these tables (`manifest` subcommand) and a self-test holds the two
//! in step.

use crate::json::Value;
use crate::trace::Layer;
use crate::workloads::WORKLOADS;

/// Seconds one run measures for; also `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// An end-to-end metric. Every workload reports every one of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "everything before the first timed operation: circuit + SRS + key generation, or service start including calibration, or model and trace construction; lower decile of the run's 3-20 set-ups",
    },
    EndToEnd {
        name: "primary_ms",
        unit: "ms",
        better: "lower",
        bound: 0.2,
        what: "wall time of the workload's primary operation (prove; Table I SumCheck sweep; request latency; full-system DSE for both gates): mean within a round, lower decile over the run's 20 rounds",
    },
    EndToEnd {
        name: "secondary_ms",
        unit: "ms",
        better: "lower",
        bound: 0.2,
        what: "the same for the workload's secondary operation: verify; high-degree SumCheck pair; worker service time per request; fleet DES run",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.2,
        what: "checked operations completed per second of a round's wall time, upper decile over the run's rounds: verified proofs, verified SumCheck proofs, completed and verified requests (goodput), model passes",
    },
    EndToEnd {
        name: "heap_peak_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
        what: "peak live heap within a round of the timed section (set-up's live data included), lower decile over the run's rounds, from the benchmark binary's counting allocator",
    },
];

/// A per-layer metric. Every traced run reports every one of them; they
/// carry no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: Layer,
    /// Must repeat exactly between runs of one commit (counts and
    /// simulated statistics); compared by equality, never as better/worse.
    pub exact: bool,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn timed(
    name: &'static str,
    unit: &'static str,
    layer: Layer,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
        layer,
        exact: false,
        moves,
    }
}

const fn higher(
    name: &'static str,
    unit: &'static str,
    layer: Layer,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
        layer,
        exact: false,
        moves,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    layer: Layer,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
        layer,
        exact: true,
        moves,
    }
}

const FR: &str = "primary_ms, secondary_ms on sumcheck_gates; none on model_sweep";
const FP: &str = "primary_ms on prove_vanilla (through PADD); none on sumcheck_gates, model_sweep";
const MSM: &str = "primary_ms on prove_vanilla (most) and prove_jellyfish; ops_per_s on serve_*; none on sumcheck_gates";
const POLY: &str = "primary_ms, secondary_ms on sumcheck_gates; small on prove_*";
const TRANSCRIPT: &str =
    "secondary_ms on prove_*; primary_ms on serve_* (mu=5 proofs are transcript-heavy)";
const SC_LOW: &str = "primary_ms on sumcheck_gates";
const SC_HIGH: &str = "secondary_ms on sumcheck_gates";
const SC_JELLY: &str = "primary_ms on prove_jellyfish; flat on prove_vanilla within bound";
const PCS: &str = "primary_ms on prove_vanilla (most) and prove_jellyfish";
const PCS_SETUP: &str =
    "setup_s and heap_peak_mb on prove_* (fixed-base tables would move work here)";
const HP: &str = "primary_ms on prove_jellyfish (the probe's gate system)";
const HP_ALLOC: &str = "heap_peak_mb on prove_*; ops_per_s on serve_* under several workers";
const SERVICE: &str = "secondary_ms, ops_per_s on serve_tcp and serve_inproc";
const QUEUE: &str = "primary_ms on serve_tcp and serve_inproc; none on prove_*";
const WIRE: &str = "primary_ms, ops_per_s on serve_tcp only; none on serve_inproc";
const SIM: &str = "none: a statistic of the modelled chip, compared exactly between commits";
const DSE: &str = "primary_ms on model_sweep";
const DES: &str = "secondary_ms on model_sweep; a scheduler-core extraction must leave every exact value identical";
const SHARE: &str = "none: where the traced workload's time went, by layer self time";
const HOST: &str = "none: the noise reference";
const COVER: &str = "none: how much of hyperplonk.prove_ms_p50 the layer replay covers";
const CODEC: &str =
    "ops_per_s on prove_* (each sample encodes once); proofs do not cross the wire today";
const SIZE: &str = "none: the proof's size, compared exactly";
const TEARDOWN: &str = "none: teardown, outside the timed section";

pub const PER_LAYER: &[PerLayer] = &[
    // field
    timed("field.fr_mul_ns", "ns", Layer::Field, FR),
    timed("field.fr_square_ns", "ns", Layer::Field, FR),
    timed("field.fr_inverse_ns", "ns", Layer::Field, FR),
    timed(
        "field.fr_batch_inverse_ns_per_elem",
        "ns",
        Layer::Field,
        MSM,
    ),
    timed("field.fp_mul_ns", "ns", Layer::Field, FP),
    timed("field.fp_square_ns", "ns", Layer::Field, FP),
    // curve
    timed("curve.msm_ms", "ms", Layer::Curve, MSM),
    timed("curve.msm_t1_ms", "ms", Layer::Curve, MSM),
    higher("curve.msm_par_speedup", "ratio", Layer::Curve, MSM),
    exact("curve.msm_padds", "count", Layer::Curve, MSM),
    timed("curve.msm_ns_per_padd", "ns", Layer::Curve, MSM),
    timed(
        "curve.batch_normalize_ns_per_point",
        "ns",
        Layer::Curve,
        PCS_SETUP,
    ),
    // poly
    timed("poly.fix_first_var_ns_per_eval", "ns", Layer::Poly, POLY),
    timed("poly.eq_table_ns_per_eval", "ns", Layer::Poly, POLY),
    timed("poly.evaluate_ns_per_eval", "ns", Layer::Poly, POLY),
    // transcript
    timed(
        "transcript.absorb_ns_per_byte",
        "ns",
        Layer::Transcript,
        TRANSCRIPT,
    ),
    timed(
        "transcript.challenge_ns",
        "ns",
        Layer::Transcript,
        TRANSCRIPT,
    ),
    // sumcheck
    timed("sumcheck.deg3_ns_per_mul", "ns", Layer::Sumcheck, SC_LOW),
    timed("sumcheck.deg32_ns_per_mul", "ns", Layer::Sumcheck, SC_HIGH),
    exact(
        "sumcheck.field_muls_jellyfish",
        "count",
        Layer::Sumcheck,
        SC_JELLY,
    ),
    timed(
        "sumcheck.jellyfish_zerocheck_ms",
        "ms",
        Layer::Sumcheck,
        SC_JELLY,
    ),
    timed(
        "sumcheck.vanilla_zerocheck_ms",
        "ms",
        Layer::Sumcheck,
        SC_LOW,
    ),
    higher("sumcheck.par_speedup", "ratio", Layer::Sumcheck, SC_JELLY),
    timed("sumcheck.verify_us", "us", Layer::Sumcheck, TRANSCRIPT),
    // pcs
    timed("pcs.setup_ms", "ms", Layer::Pcs, PCS_SETUP),
    timed("pcs.commit_dense_ms", "ms", Layer::Pcs, PCS),
    timed("pcs.commit_witness_ms", "ms", Layer::Pcs, PCS),
    timed("pcs.open_ms", "ms", Layer::Pcs, PCS),
    timed("pcs.verify_us", "us", Layer::Pcs, TRANSCRIPT),
    timed("pcs.combine_commitments_us", "us", Layer::Pcs, TRANSCRIPT),
    // hyperplonk (fixed-shape probe: Jellyfish, 2^10 rows)
    timed("hyperplonk.setup_ms", "ms", Layer::Hyperplonk, PCS_SETUP),
    timed("hyperplonk.prove_ms_p50", "ms", Layer::Hyperplonk, HP),
    timed("hyperplonk.prove_ms_p75", "ms", Layer::Hyperplonk, HP),
    timed("hyperplonk.prove_t1_ms", "ms", Layer::Hyperplonk, HP),
    higher("hyperplonk.par_speedup", "ratio", Layer::Hyperplonk, HP),
    timed("hyperplonk.verify_ms", "ms", Layer::Hyperplonk, TRANSCRIPT),
    timed("hyperplonk.commit_ms", "ms", Layer::Hyperplonk, PCS),
    timed(
        "hyperplonk.gate_zerocheck_ms",
        "ms",
        Layer::Hyperplonk,
        SC_JELLY,
    ),
    timed("hyperplonk.perm_build_ms", "ms", Layer::Hyperplonk, HP),
    timed("hyperplonk.perm_commit_ms", "ms", Layer::Hyperplonk, PCS),
    timed(
        "hyperplonk.perm_zerocheck_ms",
        "ms",
        Layer::Hyperplonk,
        SC_JELLY,
    ),
    timed("hyperplonk.open_ms", "ms", Layer::Hyperplonk, PCS),
    higher(
        "hyperplonk.replayed_share",
        "ratio",
        Layer::Hyperplonk,
        COVER,
    ),
    timed("hyperplonk.encode_us", "us", Layer::Hyperplonk, CODEC),
    timed("hyperplonk.decode_us", "us", Layer::Hyperplonk, CODEC),
    exact("hyperplonk.proof_bytes", "B", Layer::Hyperplonk, SIZE),
    timed(
        "hyperplonk.alloc_calls_per_prove",
        "count",
        Layer::Hyperplonk,
        HP_ALLOC,
    ),
    timed(
        "hyperplonk.alloc_bytes_per_prove",
        "B",
        Layer::Hyperplonk,
        HP_ALLOC,
    ),
    // serve (in-process mini run of the serve workloads' mix and window)
    timed("serve.start_ms", "ms", Layer::Serve, "setup_s on serve_*"),
    timed("serve.submit_us_p50", "us", Layer::Serve, QUEUE),
    timed("serve.queue_wait_ms_p50", "ms", Layer::Serve, QUEUE),
    timed("serve.service_ms_p50", "ms", Layer::Serve, SERVICE),
    higher("serve.worker_utilization", "ratio", Layer::Serve, SERVICE),
    higher("serve.mean_batch_size", "count", Layer::Serve, SERVICE),
    timed("serve.dispatch_wakeup_us_mean", "us", Layer::Serve, QUEUE),
    timed("serve.latency_ms_p50", "ms", Layer::Serve, QUEUE),
    timed("serve.latency_ms_p90", "ms", Layer::Serve, QUEUE),
    timed("serve.latency_ms_p99", "ms", Layer::Serve, QUEUE),
    timed("serve.drain_ms", "ms", Layer::Serve, TEARDOWN),
    timed("serve.reject_us_p50", "us", Layer::Serve, QUEUE),
    exact("serve.flood_rejected", "count", Layer::Serve, QUEUE),
    // net (TCP mini run, same mix and window)
    timed("net.connect_us", "us", Layer::Net, WIRE),
    timed("net.submit_rtt_us_p50", "us", Layer::Net, WIRE),
    timed("net.latency_ms_p50", "ms", Layer::Net, WIRE),
    timed("net.wire_overhead_ms_p50", "ms", Layer::Net, WIRE),
    timed("net.codec_roundtrip_ns", "ns", Layer::Net, WIRE),
    exact("net.frames_per_request", "count", Layer::Net, WIRE),
    timed("net.shutdown_ms", "ms", Layer::Net, TEARDOWN),
    // core
    timed("core.simulate_protocol_us", "us", Layer::Core, DSE),
    exact("core.sim_jellyfish_mu20_ms", "sim_ms", Layer::Core, SIM),
    exact("core.sim_vanilla_mu20_ms", "sim_ms", Layer::Core, SIM),
    exact(
        "core.sim_jellyfish_mu19_masked_ms",
        "sim_ms",
        Layer::Core,
        SIM,
    ),
    exact("core.relerr_vs_paper_3p874ms", "ratio", Layer::Core, SIM),
    exact("core.area_mm2", "mm2", Layer::Core, SIM),
    exact("core.area_relerr_vs_paper", "ratio", Layer::Core, SIM),
    exact("core.power_w", "W", Layer::Core, SIM),
    exact("core.power_relerr_vs_paper", "ratio", Layer::Core, SIM),
    exact("core.costdb_hit_ratio", "ratio", Layer::Core, DES),
    // dse
    timed("dse.full_system_ms", "ms", Layer::Dse, DSE),
    higher("dse.points_per_s", "1/s", Layer::Dse, DSE),
    exact("dse.points_evaluated", "count", Layer::Dse, SIM),
    exact("dse.global_front_size", "count", Layer::Dse, SIM),
    timed("dse.sumcheck_dse_ms", "ms", Layer::Dse, DSE),
    // fleet
    timed("fleet.des_ms", "ms", Layer::Fleet, DES),
    higher("fleet.des_events_per_s", "1/s", Layer::Fleet, DES),
    timed("fleet.des_ns_per_event", "ns", Layer::Fleet, DES),
    exact("fleet.des_events", "count", Layer::Fleet, DES),
    exact("fleet.des_trace_hash_lo32", "count", Layer::Fleet, DES),
    exact("fleet.sim_p99_ms", "sim_ms", Layer::Fleet, DES),
    exact("fleet.sim_completed", "count", Layer::Fleet, DES),
    // where the traced workload's time went
    higher("share.sumcheck", "ratio", Layer::Sumcheck, SHARE),
    higher("share.pcs", "ratio", Layer::Pcs, SHARE),
    higher("share.hyperplonk", "ratio", Layer::Hyperplonk, SHARE),
    higher("share.serve", "ratio", Layer::Serve, SHARE),
    higher("share.net", "ratio", Layer::Net, SHARE),
    higher("share.core", "ratio", Layer::Core, SHARE),
    higher("share.dse", "ratio", Layer::Dse, SHARE),
    higher("share.fleet", "ratio", Layer::Fleet, SHARE),
    // host
    exact("host.nproc", "count", Layer::Host, HOST),
    exact("host.threads", "count", Layer::Host, HOST),
    timed("host.spin_ns", "ns", Layer::Host, HOST),
    timed("host.spin_drift_pct", "%", Layer::Host, HOST),
    timed("host.wall_s", "s", Layer::Host, HOST),
    timed("host.trace_spans", "count", Layer::Host, HOST),
    timed("host.primary_ms", "ms", Layer::Host, HOST),
    timed("host.traced_primary_ms", "ms", Layer::Host, HOST),
    timed("host.trace_overhead_pct", "%", Layer::Host, HOST),
];

/// `BENCHMARK.json`: exactly the keys the driver's contract names. With
/// `full`, also what that schema has no room for — a schema version, each
/// workload's loop and operations, each metric's definition, layer,
/// exactness and the end-to-end metric it should move (and no `command` or
/// `paths`, which only the driver reads).
pub fn manifest(full: bool) -> Value {
    let str_pairs = |pairs: &[(&'static str, &'static str)]| -> Vec<(&'static str, Value)> {
        pairs.iter().map(|&(k, v)| (k, Value::str(v))).collect()
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            let mut o = str_pairs(&[("name", w.name), ("why", w.why)]);
            if full {
                o.extend(str_pairs(&[
                    ("loop", "closed"),
                    ("primary", w.primary),
                    ("secondary", w.secondary),
                    ("op", w.op),
                ]));
            }
            Value::obj(o)
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let mut o = str_pairs(&[("name", m.name), ("unit", m.unit), ("better", m.better)]);
            o.push(("bound", Value::Num(m.bound)));
            if full {
                o.extend(str_pairs(&[("what", m.what), ("workloads", "all")]));
            }
            Value::obj(o)
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            let mut o = str_pairs(&[("name", m.name), ("unit", m.unit), ("better", m.better)]);
            if full {
                o.extend(str_pairs(&[("layer", m.layer.name()), ("moves", m.moves)]));
                o.push(("exact", Value::Bool(m.exact)));
            }
            Value::obj(o)
        })
        .collect();
    let mut doc = vec![
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        ("workloads", Value::Arr(workloads)),
        ("end_to_end", Value::Arr(end_to_end)),
        ("per_layer", Value::Arr(per_layer)),
    ];
    if full {
        doc.push(("schema", Value::str("zkphire-benchmark/v1")));
    } else {
        let command = [
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
            "run",
        ];
        doc.push((
            "command",
            Value::Arr(command.iter().map(|s| Value::str(*s)).collect()),
        ));
        doc.push(("paths", Value::Arr(vec![Value::str("benchmark")])));
    }
    Value::obj(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn registry_obeys_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the repository root is what `manifest` prints.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, manifest(false));
        let keys: Vec<&str> = on_disk
            .as_obj()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }
}
