//! The `obs` experiment: exercises the zkphire-telemetry recorders
//! end to end and pins their deterministic surface in the golden file.
//!
//! Two sections, two time domains:
//!
//! 1. **Prover profile** — a full HyperPlonk prove with the wall-clock
//!    profiler armed. Durations are machine-dependent and never
//!    printed; what *is* printed (span counts per name, counter
//!    values, histogram shape) is a pure function of the circuit seed,
//!    so the golden test locks it. Two reconciliations are hard
//!    assertions: the depth-1 phase spans must sum to within 1% of the
//!    enclosing `prove` span, and the `prove` span must agree with an
//!    external wall timer to within 1%.
//! 2. **Fleet timeline** — the `faults` resilient scenario re-run with
//!    [`FleetConfig::with_telemetry`]. Every timestamp is simulated
//!    time, so the whole timeline (and its JSONL/Chrome exports) is
//!    byte-identical per seed; the experiment prints line counts and
//!    FNV-1a hashes of both exports. The timeline's busy/provisioned
//!    integrals are asserted *bitwise* equal to the simulator's own
//!    `SimReport` accounting (the same check the engine itself runs at
//!    drain).
//!
//! `--out-dir <dir>` additionally writes the four trace artifacts
//! (`OBS_prover_trace.json`, `OBS_prover.jsonl`, `OBS_fleet_trace.json`,
//! `OBS_fleet.jsonl`); the two `*_trace.json` files load directly in
//! Perfetto / `chrome://tracing`. It also adds to section 1 the
//! profiler's overhead on that prove, inside vs outside a session —
//! wall-clock, so kept out of the flag-less golden output.

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkphire_core::costdb::CostModel;
use zkphire_core::protocol::Gate;
use zkphire_curve::{batch_normalize, msm_with_ops_threads, G1Affine, G1Projective};
use zkphire_field::Fr;
use zkphire_fleet::{
    simulate, BrownOutConfig, ChipOutage, ChipPhase, FaultConfig, FleetConfig, PoissonSource,
    RequestClass, RetryPolicy, SimReport, WorkloadMix,
};
use zkphire_hyperplonk::{prove_with_config, setup, verify, Circuit, GateSystem, ProverConfig};
use zkphire_telemetry as tele;
use zkphire_transcript::Transcript;

use crate::fmt_table;

/// Same scenario constants as the `faults` face-off: 4 chips, chip 0
/// down 2-5 s of a 10 s horizon, 85% offered load of J^18.
const SEED: u64 = 0xfa17;
const CHIPS: usize = 4;
const HORIZON_MS: f64 = 10_000.0;
const OUTAGE_AT_MS: f64 = 2_000.0;
const OUTAGE_FOR_MS: f64 = 3_000.0;

/// Prover-profile circuit: Jellyfish at 2^10 rows, sequential so every
/// span lands on the orchestrating thread.
const PROVE_MU: usize = 10;
const PROVE_SEED: u64 = 0x0b5eed;

/// Phase coverage and timer agreement tolerance (fraction).
const RECONCILE_TOL: f64 = 0.01;

/// FNV-1a 64-bit, the same hash the golden harness uses.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The `obs` experiment with no flags.
pub fn obs() -> String {
    obs_with_args(&[])
}

/// The `obs` experiment; recognizes `--out-dir <dir>` to export the
/// Chrome/JSONL trace artifacts and print the recorder overhead pair.
pub fn obs_with_args(args: &[String]) -> String {
    let out_dir = args
        .iter()
        .position(|a| a == "--out-dir")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let mut out = String::new();
    let (prover_chrome, prover_jsonl) = prover_section(&mut out, out_dir.is_some());
    let (fleet_chrome, fleet_jsonl) = fleet_section(&mut out);

    if let Some(dir) = out_dir {
        let dir = std::path::Path::new(&dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            let _ = writeln!(out, "FAILED to create {}: {e}", dir.display());
        }
        let files = [
            ("OBS_prover_trace.json", prover_chrome),
            ("OBS_prover.jsonl", prover_jsonl),
            ("OBS_fleet_trace.json", fleet_chrome),
            ("OBS_fleet.jsonl", fleet_jsonl),
        ];
        for (name, body) in files {
            match std::fs::write(dir.join(name), body) {
                Ok(()) => {
                    let _ = writeln!(out, "wrote {}", dir.join(name).display());
                }
                Err(e) => {
                    let _ = writeln!(out, "FAILED to write {}: {e}", dir.join(name).display());
                }
            }
        }
    }
    out
}

// --------------------------------------------------------------- prover --

/// Runs the instrumented prove and prints its machine-independent
/// profile facts — plus, if `with_overhead`, the wall-clock
/// [`overhead_pair`] line. Returns the (wall-clock, non-golden) trace
/// exports.
fn prover_section(out: &mut String, with_overhead: bool) -> (String, String) {
    let mut rng = StdRng::seed_from_u64(PROVE_SEED);
    let (circuit, witness) = Circuit::random(GateSystem::Jellyfish, PROVE_MU, 0.5, &mut rng);
    let (pk, vk) = setup(circuit, &mut rng);

    let prove = || {
        prove_with_config(
            &pk,
            &witness,
            &mut Transcript::new(b"obs/prover"),
            ProverConfig { threads: 1 },
        )
    };

    let session = tele::Session::start();
    let start = Instant::now();
    let proof = prove();
    let wall_ns = start.elapsed().as_nanos() as u64;
    let profile = session.finish();
    let overhead = with_overhead.then(|| overhead_pair(prove));
    verify(&vk, &proof, &mut Transcript::new(b"obs/prover")).expect("obs proof must verify");

    profile
        .check_well_formed()
        .expect("prover span forest must be well-formed");

    // Span counts per name: machine-independent (durations are not).
    let mut names: Vec<&'static str> = Vec::new();
    for s in &profile.spans {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    names.sort_unstable();
    let rows: Vec<Vec<String>> = names
        .iter()
        .map(|n| vec![(*n).to_string(), profile.span_count(n).to_string()])
        .collect();
    out.push_str(&fmt_table(
        &format!("Obs — prover span counts (Jellyfish, 2^{PROVE_MU} rows, threads=1)"),
        &["span", "count"],
        &rows,
    ));

    let counter_rows: Vec<Vec<String>> = profile
        .counters
        .iter()
        .map(|(name, v)| vec![(*name).to_string(), v.to_string()])
        .collect();
    out.push('\n');
    out.push_str(&fmt_table(
        "Obs — prover counters",
        &["counter", "value"],
        &counter_rows,
    ));

    let hist_rows: Vec<Vec<String>> = profile
        .hists
        .iter()
        .map(|(name, h)| {
            vec![
                (*name).to_string(),
                h.count.to_string(),
                h.sum.to_string(),
                h.min.to_string(),
                h.max.to_string(),
                format!("{:.3}", h.mean()),
            ]
        })
        .collect();
    out.push('\n');
    out.push_str(&fmt_table(
        "Obs — prover histograms",
        &["histogram", "count", "sum", "min", "max", "mean"],
        &hist_rows,
    ));

    // Reconciliation 1: the depth-1 phase spans tile the prove span.
    let prove_ns = profile.total_ns("prove");
    let phase_ns: u64 = profile
        .spans
        .iter()
        .filter(|s| s.depth == 1)
        .map(|s| s.dur_ns)
        .sum();
    assert!(prove_ns > 0, "no `prove` span recorded");
    let coverage = phase_ns as f64 / prove_ns as f64;
    assert!(
        (coverage - 1.0).abs() <= RECONCILE_TOL,
        "phase spans cover {coverage:.4} of `prove` — outside the \
         {RECONCILE_TOL} tolerance (phases {phase_ns} ns, prove {prove_ns} ns)"
    );
    // Reconciliation 2: the prove span agrees with an external timer.
    let timer_ratio = prove_ns as f64 / wall_ns as f64;
    assert!(
        (timer_ratio - 1.0).abs() <= RECONCILE_TOL,
        "`prove` span is {timer_ratio:.4} of the external timer — outside \
         the {RECONCILE_TOL} tolerance (span {prove_ns} ns, timer {wall_ns} ns)"
    );
    let _ = writeln!(
        out,
        "\nphase coverage: OK (depth-1 spans sum to within {:.0}% of `prove`)",
        RECONCILE_TOL * 100.0
    );
    let _ = writeln!(
        out,
        "timer reconciliation: OK (`prove` span within {:.0}% of the external e2e timer)",
        RECONCILE_TOL * 100.0
    );
    out.push_str(&overhead.unwrap_or_default());
    out.push('\n');

    msm_probe(out);

    (
        tele::profile_to_chrome(&profile),
        tele::profile_to_jsonl(&profile),
    )
}

/// One deterministic 2^12-point MSM, recorded in its own profiler
/// session. The prove above runs the same kernel on 2^10-point columns
/// (64-bucket windows, sparse witness columns) and on an opening's
/// quotients down to one point; this dense probe adds the 256-bucket
/// occupancy shape and its pass count — one window per counting sort at
/// this size, so one shared inversion per pair-reduction pass per window,
/// bucket-reduction steps not counted — to the golden output.
fn msm_probe(out: &mut String) {
    let n = 1usize << 12;
    let g = G1Affine::generator();
    let mut acc = G1Projective::from(g);
    let mut projective = Vec::with_capacity(n);
    for _ in 0..n {
        projective.push(acc);
        acc = acc.add_mixed(&g);
    }
    let points = batch_normalize(&projective);
    let mut rng = StdRng::seed_from_u64(PROVE_SEED ^ 0x5ca1a2);
    let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();

    let session = tele::Session::start();
    let (point, _ops) = msm_with_ops_threads(&points, &scalars, 1);
    let profile = session.finish();
    std::hint::black_box(&point);

    let counter_rows: Vec<Vec<String>> = profile
        .counters
        .iter()
        .map(|(name, v)| vec![(*name).to_string(), v.to_string()])
        .collect();
    out.push_str(&fmt_table(
        "Obs — MSM internals probe (2^12 points, batched-affine path)",
        &["counter", "value"],
        &counter_rows,
    ));
    let hist_rows: Vec<Vec<String>> = profile
        .hists
        .iter()
        .map(|(name, h)| {
            vec![
                (*name).to_string(),
                h.count.to_string(),
                h.sum.to_string(),
                h.min.to_string(),
                h.max.to_string(),
                format!("{:.3}", h.mean()),
            ]
        })
        .collect();
    out.push('\n');
    out.push_str(&fmt_table(
        "Obs — MSM probe histograms",
        &["histogram", "count", "sum", "min", "max", "mean"],
        &hist_rows,
    ));
    out.push('\n');
}

/// Telemetry overhead of `prove`: best-of-3 wall time outside any
/// session vs inside one, as one output line. The hooks are compiled in
/// (this crate enables `record`), so "off" measures the unbound path —
/// one thread-local check per hook — and "on" the full recording path;
/// alternating the two and taking each best-of-N filters the scheduler
/// noise and host speed drift that dwarf the overhead at this size.
fn overhead_pair<T>(prove: impl Fn() -> T) -> String {
    const REPS: usize = 3;
    let mut best_ms = [f64::INFINITY; 2];
    for _ in 0..REPS {
        for (recording, best) in [false, true].into_iter().zip(&mut best_ms) {
            let session = recording.then(tele::Session::start);
            let start = Instant::now();
            std::hint::black_box(prove());
            *best = best.min(start.elapsed().as_secs_f64() * 1e3);
            drop(session); // discards the recorded rep's spans
        }
    }
    let [off_ms, on_ms] = best_ms;
    format!(
        "telemetry overhead (best of {REPS}): on {on_ms:.2} ms vs off {off_ms:.2} ms ({:+.2}%)\n",
        100.0 * (on_ms / off_ms - 1.0),
    )
}

// ---------------------------------------------------------------- fleet --

/// The `faults` resilient variant with the sim-time timeline recorder
/// switched on.
fn fleet_run() -> SimReport {
    let mut cost = CostModel::exemplar();
    let per = cost.proof_ms(Gate::Jellyfish, 18);
    let rate = 0.85 * CHIPS as f64 * 1000.0 / per;
    let workload = WorkloadMix::single(RequestClass::new(Gate::Jellyfish, 18));
    let cfg = FleetConfig::new(CHIPS)
        .with_faults(FaultConfig::scripted(vec![ChipOutage::new(
            0,
            OUTAGE_AT_MS,
            OUTAGE_FOR_MS,
        )]))
        .with_retry(RetryPolicy::new(4))
        .with_brown_out(BrownOutConfig::new(1.0, 6))
        .with_telemetry();
    let mut source = PoissonSource::new(rate, HORIZON_MS, workload, SEED);
    simulate(&cfg, &mut source, &mut cost).expect("valid config")
}

/// Runs the telemetered fleet scenario, prints its (fully
/// deterministic) timeline facts, and returns the trace exports.
fn fleet_section(out: &mut String) -> (String, String) {
    let report = fleet_run();
    let timeline = report
        .timeline
        .as_ref()
        .expect("with_telemetry() must attach a timeline");
    let summary = &report.summary;

    // Bitwise reconciliation with the simulator's own accounting. The
    // engine asserts the same thing at drain; repeating it here makes
    // `repro obs` a self-checking artifact.
    assert_eq!(
        (timeline.provisioned_integral_ms() / 1000.0).to_bits(),
        summary.chip_seconds.to_bits(),
        "timeline provisioned integral diverged from SimReport chip-seconds"
    );
    for (chip, &util) in summary.per_chip_utilization.iter().enumerate() {
        let tl_util = timeline.busy_ms(chip) / timeline.makespan_ms();
        assert_eq!(
            tl_util.to_bits(),
            util.to_bits(),
            "timeline busy integral diverged from SimReport utilization on chip {chip}"
        );
    }

    let rows: Vec<Vec<String>> = (0..timeline.num_chips())
        .map(|chip| {
            let spans = timeline
                .chip_spans()
                .iter()
                .filter(|s| s.chip as usize == chip)
                .count();
            // `+ 0.0` normalizes the empty sum (`Sum<f64>` folds from
            // -0.0, the additive identity) so idle chips print "0.0".
            let failed_ms: f64 = timeline
                .chip_spans()
                .iter()
                .filter(|s| s.chip as usize == chip && s.phase == ChipPhase::Failed)
                .map(|s| s.end_ms - s.start_ms)
                .sum::<f64>()
                + 0.0;
            vec![
                chip.to_string(),
                format!("{:.3}", timeline.busy_ms(chip)),
                format!("{:.4}", summary.per_chip_utilization[chip]),
                format!("{:.1}", failed_ms),
                spans.to_string(),
            ]
        })
        .collect();
    out.push_str(&fmt_table(
        &format!(
            "Obs — fleet timeline ({CHIPS} chips, chip 0 down \
             {OUTAGE_AT_MS:.0}-{:.0} ms, sim time)",
            OUTAGE_AT_MS + OUTAGE_FOR_MS
        ),
        &["chip", "busy ms", "util", "failed ms", "spans"],
        &rows,
    ));

    let outcome_count = |o: tele::AdmissionOutcome| {
        timeline
            .admissions()
            .iter()
            .filter(|a| a.outcome == o)
            .count()
    };
    let _ = writeln!(
        out,
        "\nseries points: queue_depth={} retry_depth={} provisioned={}",
        timeline.queue_depth_series().len(),
        timeline.retry_depth_series().len(),
        timeline.provisioned_series().len(),
    );
    let _ = writeln!(
        out,
        "admissions: admitted={} rejected={} retry_admitted={} retry_rejected={}",
        outcome_count(tele::AdmissionOutcome::Admitted),
        outcome_count(tele::AdmissionOutcome::Rejected),
        outcome_count(tele::AdmissionOutcome::RetryAdmitted),
        outcome_count(tele::AdmissionOutcome::RetryRejected),
    );
    let _ = writeln!(
        out,
        "reconciliation: chip-seconds exact (bitwise), per-chip utilization exact (bitwise)"
    );

    // The exports are sim-time only, so their hashes are golden-safe.
    let jsonl = timeline.to_jsonl();
    let chrome = timeline.to_chrome_trace();
    let _ = writeln!(
        out,
        "fleet jsonl: lines={} fnv1a={:016x}",
        jsonl.lines().count(),
        fnv1a(&jsonl)
    );
    let _ = writeln!(
        out,
        "fleet chrome trace: lines={} fnv1a={:016x}",
        chrome.lines().count(),
        fnv1a(&chrome)
    );
    let _ = writeln!(out, "Trace hash: {:016x}", report.trace_hash);
    (chrome, jsonl)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_experiment_is_deterministic_and_reconciled() {
        // Two full runs must agree byte for byte: the prover section
        // prints no wall-clock quantity and the fleet section is pure
        // sim time. The reconciliation asserts inside obs() are the
        // real payload of this test.
        let a = obs();
        let b = obs();
        assert_eq!(a, b, "`repro obs` diverged between two runs");
        for needle in [
            "prover span counts",
            "prove/witness_commit",
            "sumcheck/round",
            "msm/calls",
            "msm/bucket_occupancy",
            "msm/batch_inverse_passes",
            "MSM internals probe",
            "phase coverage: OK",
            "timer reconciliation: OK",
            "fleet timeline",
            "reconciliation: chip-seconds exact",
            "fleet jsonl:",
            "Trace hash:",
        ] {
            assert!(a.contains(needle), "missing `{needle}` in obs output");
        }
    }

    #[test]
    fn out_dir_exports_are_loadable_trace_files() {
        let dir = std::env::temp_dir().join("zkphire_obs_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let args = vec!["--out-dir".to_string(), dir.display().to_string()];
        let out = obs_with_args(&args);
        assert!(out.contains("wrote "), "no export confirmation:\n{out}");
        assert!(out.contains("telemetry overhead (best of 3): on "), "{out}");
        for name in [
            "OBS_prover_trace.json",
            "OBS_prover.jsonl",
            "OBS_fleet_trace.json",
            "OBS_fleet.jsonl",
        ] {
            let body = std::fs::read_to_string(dir.join(name)).expect(name);
            assert!(!body.is_empty(), "{name} is empty");
            if name.ends_with("_trace.json") {
                assert!(
                    body.starts_with("{\"traceEvents\":["),
                    "{name} is not a Chrome trace"
                );
            }
        }
    }
}
