//! The `serve` experiment: validate the fleet DES against the live
//! proving service on one trace, and attribute the gap between them.
//!
//! The discrete-event simulator claims to predict fleet behavior from
//! per-class proof latency alone. This experiment tests that claim
//! end-to-end on the machine it runs on:
//!
//! 1. start a [`zkphire_serve::ProvingService`] over the scenario's
//!    request classes — startup calibration measures each class's real
//!    single-proof latency;
//! 2. pin those measurements into a
//!    [`zkphire_core::costdb::CostModel`] via `pin_proof_ms`, so the
//!    DES prices work in this machine's milliseconds instead of the
//!    accelerator's;
//! 3. generate one multi-tenant Poisson trace at a fixed utilization
//!    target and run it through **both** sides: `simulate` (sim time)
//!    and [`zkphire_serve::replay`] (wall time), with identical policy,
//!    pool size, batch cap, and deadline knobs — the live side with the
//!    wall-timeline recorder on and terminal outcomes streaming;
//! 4. rebuild the [`WallTimeline`] from the finished telemetry session
//!    and **assert reconciliation** ([`reconcile_wall`]): outcome
//!    counts equal, worker busy-span integrals bitwise equal to the
//!    summary's utilization numerators;
//! 5. report per-tenant p50/p95/p99 side by side, decompose the
//!    sim-vs-wall p99 gap into its measured contributors (dispatch
//!    wakeup latency, loadgen arrival error).
//!
//! Outcome conservation (every traced arrival completes on both sides)
//! is a hard assertion — a run that drops work is a bug, not a data
//! point. The latency *ratios* are informational: sim time is an M/G/k
//! idealization (zero dispatch overhead, perfectly parallel workers),
//! so wall quantiles run a modest factor above it; what should hold is
//! the *shape* — tenants ordered the same, tails inflating together —
//! and the gap histograms name where the remaining wall-only time goes.
//! `--smoke` shrinks the trace so CI can gate the harness and the trace
//! exports in seconds. `--out-dir <dir>` writes
//! the four trace artifacts (wall Chrome trace + JSONL, streamed
//! outcomes JSONL, sim Chrome trace) for side-by-side Perfetto loading.

use std::fmt::Write as _;

use zkphire_core::costdb::CostModel;
use zkphire_core::protocol::Gate;
use zkphire_fleet::{
    simulate, FleetConfig, PolicyKind, RequestClass, SplitMix64, TenantSummary, TraceSource,
};
use zkphire_serve::{reconcile_wall, replay, ProvingService, ServeConfig, ServeOpts};
use zkphire_telemetry as tele;
use zkphire_telemetry::{Histogram, WallTimeline};

use crate::fmt_table;

/// Scenario constants: two equal-weight tenants, weighted-fair
/// batching, arrivals at ~70% of the pool's calibrated capacity.
const TENANT_WEIGHTS: [(u32, f64); 2] = [(0, 1.0), (1, 1.0)];
const TARGET_UTILIZATION: f64 = 0.7;
const SEED: u64 = 0x5e27e;

/// Per-tenant quantiles from one side of the comparison.
struct Side {
    completed: u64,
    p50: f64,
    p95: f64,
    p99: f64,
}

fn side(t: &TenantSummary) -> Side {
    Side {
        completed: t.completed,
        p50: t.p50_latency_ms,
        p95: t.p95_latency_ms,
        p99: t.p99_latency_ms,
    }
}

/// `repro serve` with default flags.
pub fn serve() -> String {
    serve_with_args(&[])
}

/// `repro serve [--smoke] [--out-dir <dir>]`.
pub fn serve_with_args(args: &[String]) -> String {
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_dir = args
        .iter()
        .position(|a| a == "--out-dir")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let classes: Vec<RequestClass> = if smoke {
        vec![RequestClass::new(Gate::Vanilla, 4)]
    } else {
        vec![
            RequestClass::new(Gate::Vanilla, 6),
            RequestClass::new(Gate::Jellyfish, 6),
        ]
    };
    let n_requests: usize = if smoke { 24 } else { 240 };
    // Workers track available_parallelism (via the ServeOpts default)
    // on both paths: the DES models truly parallel chips, so deploying
    // more workers than cores would make the live side look uniformly
    // worse than the prediction for reasons that are about the host,
    // not the service.
    let opts = if smoke {
        ServeOpts::default()
            .with_prover_threads(1)
            .with_max_batch(4)
    } else {
        match ServeOpts::from_env() {
            Ok(o) => o,
            Err(e) => return format!("serve: {e}\n"),
        }
    };
    let workers = opts.workers;
    let max_batch = opts.max_batch;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve: live service vs DES on one trace \
         (workers={workers} prover_threads={} max_batch={max_batch} smoke={smoke})\n",
        opts.prover_threads
    );

    // The wall timeline is recorded by the service's own threads, which
    // join the session `ProvingService::start` is called in.
    let session = tele::Session::start();

    // Terminal outcomes stream out as they resolve; the collector
    // thread turns them into JSONL lines live, the way a tailing
    // operator would consume them.
    let (outcome_tx, outcome_rx) = std::sync::mpsc::channel();
    let collector = std::thread::spawn(move || {
        let mut lines = String::new();
        for rec in outcome_rx {
            let r: zkphire_fleet::OutcomeRecord = rec;
            lines.push_str(&r.to_jsonl_line());
            lines.push('\n');
        }
        lines
    });

    // 1. Start the live service; its startup calibration measures each
    // class's real single-proof latency on this machine.
    let serve_cfg = ServeConfig::new(classes.clone())
        .with_policy(PolicyKind::WeightedFair)
        .with_tenant_weights(TENANT_WEIGHTS.to_vec())
        .with_seed(SEED)
        .with_opts(opts)
        .with_outcome_stream(outcome_tx);
    let service = match ProvingService::start(serve_cfg) {
        Ok(s) => s,
        Err(e) => return format!("serve: service failed to start: {e}\n"),
    };
    let calibration = service.calibration();
    let mean_ms: f64 = calibration.iter().map(|(_, ms)| ms).sum::<f64>() / calibration.len() as f64;

    // 2. Pin the measurements into the cost model: the DES now prices a
    // proof at what this machine's prover just clocked.
    let mut cost = CostModel::exemplar();
    for &(class, ms) in &calibration {
        cost.pin_proof_ms(class.gate, class.mu, ms);
    }

    // 3. One shared trace: Poisson arrivals at TARGET_UTILIZATION of
    // the pool's calibrated capacity, classes and tenants drawn
    // uniformly from a seeded stream.
    let mean_gap_ms = mean_ms / (workers as f64 * TARGET_UTILIZATION);
    let mut rng = SplitMix64::new(SEED);
    let mut t = 0.0;
    let mut trace = Vec::with_capacity(n_requests);
    for _ in 0..n_requests {
        t += -mean_gap_ms * (1.0 - rng.next_f64()).ln();
        let class = classes[(rng.next_u64() % classes.len() as u64) as usize];
        let tenant = (rng.next_u64() % TENANT_WEIGHTS.len() as u64) as u32;
        trace.push((t, class, tenant));
    }
    let horizon_ms = t + 1.0;

    // DES side, in sim time, with its own timeline recorder on so the
    // two traces can sit next to each other in Perfetto.
    let fleet_cfg = FleetConfig::new(workers)
        .with_policy(PolicyKind::WeightedFair)
        .with_max_batch(max_batch)
        .with_tenant_weights(TENANT_WEIGHTS.to_vec())
        .with_telemetry();
    let mut fleet_cfg = fleet_cfg;
    fleet_cfg.batch_overhead_ms = 0.0; // the live pool has no program swap
    let sim_report = match simulate(
        &fleet_cfg,
        &mut TraceSource::with_tenants(trace.clone()),
        &mut cost,
    ) {
        Ok(r) => r,
        Err(e) => return format!("serve: DES side failed: {e}\n"),
    };

    // Live side, in wall time, same trace.
    let gen = match replay(
        &service,
        &mut TraceSource::with_tenants(trace),
        horizon_ms,
        1.0,
    ) {
        Ok(g) => g,
        Err(e) => return format!("serve: replay failed: {e}\n"),
    };
    let wall_report = match service.shutdown() {
        Ok(r) => r,
        Err(e) => return format!("serve: shutdown failed: {e}\n"),
    };
    // Shutdown dropped the last outcome sender (it lived in the service
    // config), so the collector's channel closed and it can be joined.
    let outcomes_jsonl = collector
        .join()
        .unwrap_or_else(|_| "outcome collector panicked\n".to_string());

    let profile = session.finish();
    let wall_tl = WallTimeline::from_events(&profile.wall_events);

    // 4. Conservation is a hard gate: with no caps configured, every
    // traced arrival must complete on both sides.
    assert_eq!(
        gen.submitted, n_requests as u64,
        "loadgen replayed the trace"
    );
    assert_eq!(gen.rejected, 0, "no admission caps in this scenario");
    assert_eq!(
        sim_report.summary.completed, n_requests as u64,
        "DES completes the whole trace"
    );
    assert_eq!(
        wall_report.summary.completed, n_requests as u64,
        "live service completes the whole trace"
    );
    // And so is wall-timeline reconciliation: the timeline rebuilt from
    // recorded events and the summary reduced from drain records are
    // independent paths over the same run — they must agree exactly.
    assert!(
        !wall_tl.is_empty(),
        "recording was on; the timeline cannot be empty"
    );
    if let Err(e) = reconcile_wall(&wall_tl, &wall_report.summary) {
        return format!("serve: wall timeline failed reconciliation: {e}\n");
    }
    let streamed = outcomes_jsonl.lines().count() as u64;
    let terminal = wall_report.summary.completed
        + wall_report.summary.rejected
        + wall_report.summary.shed
        + wall_report.summary.lost;
    assert_eq!(
        streamed, terminal,
        "one streamed outcome record per terminal outcome"
    );

    let _ = writeln!(out, "calibration (real prover, single proof):");
    for &(class, ms) in &calibration {
        let modeled = CostModel::exemplar().proof_ms(class.gate, class.mu);
        let _ = writeln!(
            out,
            "  class {class}: measured {ms:.3} ms (accelerator model: {modeled:.3} ms)"
        );
    }
    let _ = writeln!(
        out,
        "trace: {n_requests} requests over {horizon_ms:.0} ms (target utilization {TARGET_UTILIZATION})\n"
    );

    let mut rows = Vec::new();
    for sim_t in &sim_report.summary.per_tenant {
        let Some(wall_t) = wall_report
            .summary
            .per_tenant
            .iter()
            .find(|w| w.tenant == sim_t.tenant)
        else {
            continue;
        };
        let (s, w) = (side(sim_t), side(wall_t));
        rows.push(vec![
            sim_t.tenant.to_string(),
            s.completed.to_string(),
            format!("{:.2}", s.p50),
            format!("{:.2}", w.p50),
            format!("{:.2}", s.p95),
            format!("{:.2}", w.p95),
            format!("{:.2}", s.p99),
            format!("{:.2}", w.p99),
            format!("{:.2}x", w.p99 / s.p99.max(f64::MIN_POSITIVE)),
        ]);
    }
    out.push_str(&fmt_table(
        "per-tenant latency, DES prediction vs live service (ms)",
        &[
            "tenant",
            "completed",
            "sim p50",
            "wall p50",
            "sim p95",
            "wall p95",
            "sim p99",
            "wall p99",
            "p99 ratio",
        ],
        &rows,
    ));
    let sim_p99 = sim_report.summary.p99_latency_ms;
    let wall_p99 = wall_report.summary.p99_latency_ms;
    let _ = writeln!(
        out,
        "\noverall: sim p99 {:.2} ms, wall p99 {:.2} ms; sim makespan {:.0} ms, wall makespan {:.0} ms",
        sim_p99,
        wall_p99,
        sim_report.summary.makespan_ms,
        wall_report.summary.makespan_ms,
    );

    // 5. Gap attribution: the two wall-only delays the DES does not
    // model, measured instead of hand-waved.
    let hist_row = |name: &str, h: &Histogram| {
        vec![
            name.to_string(),
            h.count.to_string(),
            (if h.count == 0 { 0 } else { h.min }).to_string(),
            format!("{:.1}", h.mean()),
            h.max.to_string(),
        ]
    };
    out.push('\n');
    out.push_str(&fmt_table(
        &format!(
            "sim-vs-wall gap attribution (overall p99 ratio {:.2}x)",
            wall_p99 / sim_p99.max(f64::MIN_POSITIVE)
        ),
        &["contributor (µs)", "count", "min", "mean", "max"],
        &[
            hist_row("dispatch wakeup", &wall_report.dispatch_wakeup_us),
            hist_row("loadgen arrival error", &gen.arrival_error_us),
        ],
    ));
    let _ = writeln!(
        out,
        "\nwall timeline: {} events; outcome counts and worker busy integrals \
         reconcile with ServeSummary (bitwise); {streamed} outcome records streamed",
        wall_tl.events().len()
    );

    if let Some(dir) = out_dir {
        let dir = std::path::Path::new(&dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            let _ = writeln!(out, "FAILED to create {}: {e}", dir.display());
        }
        let sim_chrome = sim_report
            .timeline
            .as_ref()
            .map(|tl| tl.to_chrome_trace())
            .unwrap_or_default();
        let files = [
            ("SERVE_wall_trace.json", wall_tl.to_chrome_trace()),
            ("SERVE_wall.jsonl", wall_tl.to_jsonl()),
            ("SERVE_outcomes.jsonl", outcomes_jsonl),
            ("SERVE_sim_trace.json", sim_chrome),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_reconciles_and_writes_v2_json_with_artifacts() {
        let dir = std::env::temp_dir().join("zkphire_serve_exp_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let report = serve_with_args(&[
            "--smoke".to_string(),
            "--out-dir".to_string(),
            dir.display().to_string(),
        ]);
        assert!(
            report.contains("per-tenant latency"),
            "table rendered:\n{report}"
        );
        assert!(
            report.contains("gap attribution"),
            "gap table rendered:\n{report}"
        );
        assert!(
            report.contains("reconcile with ServeSummary"),
            "reconciliation asserted at drain:\n{report}"
        );
        assert!(report.contains("wrote "), "artifacts written:\n{report}");
        let wall_trace =
            std::fs::read_to_string(dir.join("SERVE_wall_trace.json")).expect("wall trace");
        assert!(wall_trace.starts_with("{\"traceEvents\":["));
        assert!(wall_trace.contains("\"ph\":\"b\""), "async lifecycle lanes");
        let outcomes = std::fs::read_to_string(dir.join("SERVE_outcomes.jsonl")).expect("outcomes");
        assert_eq!(
            outcomes.lines().count(),
            24,
            "one line per terminal outcome"
        );
        assert!(outcomes.contains("\"outcome\":\"completed\""));
        let wall_jsonl = std::fs::read_to_string(dir.join("SERVE_wall.jsonl")).expect("jsonl");
        assert!(wall_jsonl.starts_with("{\"kind\":\"meta\""));
    }
}
