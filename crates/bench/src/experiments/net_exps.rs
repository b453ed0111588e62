//! The `net` experiment: prove the hardened TCP front-end survives
//! everything the chaos client throws at it, with zero lost accounting.
//!
//! Three phases over one seeded trace:
//!
//! 1. **in-process baseline** — replay the trace straight into a
//!    [`zkphire_serve::ProvingService`] via [`zkphire_serve::replay`],
//!    the path `repro serve` characterizes;
//! 2. **framed TCP over loopback** — same trace through a
//!    [`zkphire_serve::NetServer`] with a [`zkphire_serve::NetClient`]
//!    on the other end of a real socket, wall-timeline recording on:
//!    every arrival must come back as a streamed outcome frame, the
//!    drain report must conserve all accounting, and
//!    [`zkphire_serve::reconcile_wall`] must hold with the network in
//!    the loop (connection lifecycle events included);
//! 3. **chaos** — a fresh, deliberately small server (two connection
//!    slots, 150 ms read deadline) takes every
//!    [`zkphire_serve::ChaosMode`] in sequence. Each mode must end in a
//!    typed error frame or a clean close — never a panic, never a
//!    wedged slot — and a well-behaved probe afterwards must still get
//!    a proof. The post-chaos drain must report `lost == 0`.
//!
//! Stdout is byte-deterministic (mode verdicts and integer counters
//! only) so the golden harness can pin it; the machine-dependent
//! TCP-vs-in-process latency is the benchmark's `serve_tcp` /
//! `serve_inproc` pair. `--smoke` shrinks the trace for CI.

use std::fmt::Write as _;
use std::time::Duration;

use zkphire_core::protocol::Gate;
use zkphire_fleet::{RequestClass, SplitMix64, TraceSource};
use zkphire_serve::{
    chaos, reconcile_wall, replay, replay_net, ChaosMode, NetClient, NetServer, ProvingService,
    ServeConfig, ServeOpts, SubmitResult,
};
use zkphire_telemetry as tele;
use zkphire_telemetry::{WallEventKind, WallTimeline};

use crate::fmt_table;

const SEED: u64 = 0x4e27;
const TENANTS: u32 = 2;
/// Generous bound on one submit round-trip / one drain; loopback
/// traffic resolves in microseconds, proofs in milliseconds.
const SUBMIT_DEADLINE: Duration = Duration::from_millis(10_000);
const DRAIN_DEADLINE: Duration = Duration::from_millis(60_000);

/// `repro net` with default flags.
pub fn net() -> String {
    net_with_args(&[])
}

/// `repro net [--smoke]`.
pub fn net_with_args(args: &[String]) -> String {
    let smoke = args.iter().any(|a| a == "--smoke");

    let class = RequestClass::new(Gate::Vanilla, 4);
    let n_requests: usize = if smoke { 16 } else { 60 };
    let mean_gap_ms: f64 = if smoke { 6.0 } else { 12.0 };
    let workers: usize = if smoke { 1 } else { 2 };
    let replay_opts = ServeOpts::default()
        .with_workers(workers)
        .with_prover_threads(1)
        .with_max_batch(4);
    // The chaos server is deliberately tiny so every defense is
    // exercised: two slots (the flood hits the cap on its third
    // connection) and a short read deadline (the stall reaps fast).
    let chaos_opts = replay_opts
        .with_max_conns(2)
        .with_read_timeout_ms(150)
        .with_idle_timeout_ms(2000);

    // One shared trace: seeded exponential gaps, tenants drawn
    // uniformly. Timestamps only shape wall latency (never printed), so
    // a fixed mean gap keeps stdout independent of this machine.
    let mut rng = SplitMix64::new(SEED);
    let mut t = 0.0;
    let mut trace = Vec::with_capacity(n_requests);
    for _ in 0..n_requests {
        t += -mean_gap_ms * (1.0 - rng.next_f64()).ln();
        let tenant = (rng.next_u64() % u64::from(TENANTS)) as u32;
        trace.push((t, class, tenant));
    }
    let horizon_ms = t + 1.0;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "net: hardened TCP front-end — framed replay over loopback vs the \
         in-process path, then chaos (smoke={smoke})\n"
    );

    // Phase 1: in-process baseline.
    let cfg = ServeConfig::new(vec![class])
        .with_seed(SEED)
        .with_opts(replay_opts);
    let service = match ProvingService::start(cfg) {
        Ok(s) => s,
        Err(e) => return format!("net: baseline service failed to start: {e}\n"),
    };
    let base_gen = match replay(
        &service,
        &mut TraceSource::with_tenants(trace.clone()),
        horizon_ms,
        1.0,
    ) {
        Ok(g) => g,
        Err(e) => return format!("net: baseline replay failed: {e}\n"),
    };
    let base_report = match service.shutdown() {
        Ok(r) => r,
        Err(e) => return format!("net: baseline shutdown failed: {e}\n"),
    };
    assert_eq!(base_gen.submitted, n_requests as u64);
    assert_eq!(base_gen.rejected, 0, "no admission caps in this scenario");
    assert_eq!(base_report.summary.completed, n_requests as u64);
    assert_eq!(base_report.summary.lost, 0);
    let _ = writeln!(
        out,
        "phase 1 — in-process baseline: {n} arrivals, {n} completed, 0 rejected, 0 lost",
        n = n_requests
    );

    // Phase 2: the same trace over a real loopback socket, with the
    // wall-timeline recorder on: the server's threads join the session
    // `NetServer::start` is called in.
    let session = tele::Session::start();
    let cfg = ServeConfig::new(vec![class])
        .with_seed(SEED)
        .with_opts(replay_opts);
    let mut server = match NetServer::start(cfg) {
        Ok(s) => s,
        Err(e) => return format!("net: TCP server failed to start: {e}\n"),
    };
    let mut client = match NetClient::connect(server.local_addr()) {
        Ok(c) => c,
        Err(e) => return format!("net: client failed to connect: {e}\n"),
    };
    let tcp_gen = match replay_net(
        &mut client,
        &mut TraceSource::with_tenants(trace),
        horizon_ms,
        1.0,
        SUBMIT_DEADLINE,
    ) {
        Ok(g) => g,
        Err(e) => return format!("net: TCP replay failed: {e}\n"),
    };
    let outcomes = match client.finish(DRAIN_DEADLINE) {
        Ok(o) => o,
        Err(e) => return format!("net: client drain failed: {e}\n"),
    };
    let tcp_report = match server.shutdown() {
        Ok(r) => r,
        Err(e) => return format!("net: TCP drain failed: {e}\n"),
    };
    let profile = session.finish();
    let wall_tl = WallTimeline::from_events(&profile.wall_events);

    // Conservation is a hard gate on both sides of the socket.
    assert_eq!(tcp_gen.submitted, n_requests as u64);
    assert_eq!(tcp_gen.rejected, 0);
    assert_eq!(
        outcomes.len(),
        n_requests,
        "one streamed outcome per submit"
    );
    assert_eq!(tcp_report.serve.summary.completed, n_requests as u64);
    assert_eq!(tcp_report.serve.summary.lost, 0);
    assert_eq!(tcp_report.stats.conns_accepted, 1);
    assert_eq!(tcp_report.stats.submits, n_requests as u64);
    assert_eq!(tcp_report.stats.outcomes_streamed, n_requests as u64);
    assert_eq!(tcp_report.stats.outcomes_dropped, 0);
    // The timeline rebuilt from recorded events must reconcile with the
    // drain summary exactly — with connection lifecycle events in it.
    assert!(!wall_tl.is_empty(), "recording was on");
    assert!(
        wall_tl
            .events()
            .iter()
            .any(|e| matches!(e.kind, WallEventKind::ConnOpen)),
        "connection lifecycle recorded on the wall timeline"
    );
    if let Err(e) = reconcile_wall(&wall_tl, &tcp_report.serve.summary) {
        return format!("net: wall timeline failed reconciliation: {e}\n");
    }
    let s = &tcp_report.stats;
    let _ = writeln!(
        out,
        "phase 2 — framed TCP over loopback: {n} arrivals, {n} completed, 0 lost",
        n = n_requests
    );
    let _ = writeln!(
        out,
        "  wire: {} connection, {} submits, {} accepted, {} outcomes streamed, {} dropped",
        s.conns_accepted, s.submits, s.accepted_submits, s.outcomes_streamed, s.outcomes_dropped
    );
    let _ = writeln!(
        out,
        "  wall timeline: connection lifecycle recorded; outcome counts and \
         worker busy integrals reconcile with the drain report (bitwise)\n"
    );

    // Phase 3: chaos against a fresh, capped server.
    let cfg = ServeConfig::new(vec![class])
        .with_seed(SEED + 1)
        .with_opts(chaos_opts);
    let mut server = match NetServer::start(cfg) {
        Ok(s) => s,
        Err(e) => return format!("net: chaos server failed to start: {e}\n"),
    };
    let addr = server.local_addr();
    let mut verdicts = Vec::new();
    for (i, mode) in ChaosMode::ALL.into_iter().enumerate() {
        let verdict = match chaos(addr, mode, SEED + 0x100 + i as u64, class, &chaos_opts) {
            Ok(v) => v,
            Err(e) => return format!("net: chaos transport failed ({}): {e}\n", mode.as_str()),
        };
        assert!(
            !verdict.contains("NO-CLOSE") && !verdict.contains("UNEXPECTED"),
            "{} did not end typed + closed: {verdict}",
            mode.as_str()
        );
        verdicts.push((mode, verdict));
        // Let abused slots re-register before the next mode; the flood
        // needs the whole pool idle to measure the cap.
        std::thread::sleep(Duration::from_millis(100));
    }

    // No wedge: a well-behaved probe still gets a slot and a proof.
    let mut probe = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(e) => return format!("net: post-chaos probe refused: {e}\n"),
    };
    match probe.submit(class, 0, SUBMIT_DEADLINE) {
        Ok(SubmitResult::Accepted { .. }) => {}
        Ok(SubmitResult::Rejected { reason, .. }) => {
            return format!("net: post-chaos probe rejected: {}\n", reason.as_str())
        }
        Err(e) => return format!("net: post-chaos submit failed: {e}\n"),
    }
    let probe_outcomes = match probe.finish(DRAIN_DEADLINE) {
        Ok(o) => o,
        Err(e) => return format!("net: post-chaos drain failed: {e}\n"),
    };
    assert_eq!(probe_outcomes.len(), 1, "post-chaos probe proved");
    let chaos_report = match server.shutdown() {
        Ok(r) => r,
        Err(e) => return format!("net: chaos drain failed: {e}\n"),
    };
    let cs = &chaos_report.stats;
    assert!(cs.protocol_errors >= 2, "garbage + oversized: {cs:?}");
    assert_eq!(cs.stalled_closes, 1, "{cs:?}");
    assert_eq!(cs.truncated_closes, 1, "{cs:?}");
    assert_eq!(cs.disconnects, 1, "{cs:?}");
    assert!(cs.conns_refused >= 1, "flood past the cap: {cs:?}");
    assert_eq!(cs.outcomes_dropped, 1, "mid-proof disconnect: {cs:?}");
    let sum = &chaos_report.serve.summary;
    assert_eq!(sum.lost, 0, "chaos lost accounting: {sum:?}");
    assert_eq!(
        sum.arrivals,
        sum.completed + sum.rejected + sum.shed + sum.lost,
        "conservation with chaos in the loop"
    );

    let _ = writeln!(
        out,
        "phase 3 — chaos client against a capped server (max_conns={}, read deadline {} ms):\n",
        chaos_opts.max_conns, chaos_opts.read_timeout_ms
    );
    out.push_str(&fmt_table(
        "per-failure-mode outcome on the wire",
        &["failure mode", "verdict"],
        &verdicts
            .iter()
            .map(|(m, v)| vec![m.as_str().to_string(), v.clone()])
            .collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&fmt_table(
        "chaos-phase wire counters",
        &["counter", "value"],
        &[
            vec!["conns_accepted".into(), cs.conns_accepted.to_string()],
            vec!["conns_refused".into(), cs.conns_refused.to_string()],
            vec!["clean_closes".into(), cs.clean_closes.to_string()],
            vec!["protocol_errors".into(), cs.protocol_errors.to_string()],
            vec!["stalled_closes".into(), cs.stalled_closes.to_string()],
            vec!["truncated_closes".into(), cs.truncated_closes.to_string()],
            vec!["disconnects".into(), cs.disconnects.to_string()],
            vec!["outcomes_dropped".into(), cs.outcomes_dropped.to_string()],
        ],
    ));
    let _ = writeln!(
        out,
        "\nsurvival: every mode ended in a typed error or clean close, the \
         post-chaos probe proved, and the drain conserved all accounting (lost=0)"
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_survives_chaos_and_writes_v1_json() {
        let report = net_with_args(&["--smoke".to_string()]);
        assert!(report.contains("phase 1 — in-process baseline"), "{report}");
        assert!(report.contains("phase 2 — framed TCP"), "{report}");
        assert!(
            report.contains("per-failure-mode outcome on the wire"),
            "{report}"
        );
        assert!(report.contains("survival: every mode"), "{report}");
        for mode in ChaosMode::ALL {
            assert!(report.contains(mode.as_str()), "{} tabled", mode.as_str());
        }
    }
}
