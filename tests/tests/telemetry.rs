//! Telemetry determinism and well-formedness suite.
//!
//! Three guarantees pinned here, matching docs/OBSERVABILITY.md:
//!
//! 1. The fleet's sim-time timeline is a pure function of the seed:
//!    its JSONL and Chrome exports are byte-identical no matter how
//!    many host threads are running the simulation (or anything else)
//!    concurrently. Wall-clock scheduling must never leak in.
//! 2. The prover's wall-clock span forest is well-formed: every span
//!    nests inside its parent, `prove` is the single root, and the
//!    depth-1 phases partition it.
//! 3. A recording is scoped to its session: hooks on a thread bound to
//!    no session observe nothing, sessions open at once on different
//!    threads each finish with exactly their own work, a service's
//!    threads record into the session it was started in, and `repro
//!    obs` prints the same bytes whatever else the process is proving.
//!    (The compile-out guarantee — lib builds without the `record`
//!    feature carry zero telemetry symbols — is checked by the CI
//!    build-matrix step, not a runtime test.)
//! 4. Trace exports degrade gracefully at the edges: empty profiles
//!    and timelines export valid (if boring) documents, lifecycle
//!    phases still open at export are drawn to the horizon and flagged
//!    rather than dropped, and a span forest recorded across a real
//!    multi-threaded worker pool survives the drain — including the
//!    wall timeline reconciling exactly with the service's own
//!    summary.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Barrier};

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkphire_core::costdb::CostModel;
use zkphire_core::protocol::Gate;
use zkphire_fleet::{
    simulate, BrownOutConfig, ChipOutage, FaultConfig, FleetConfig, PoissonSource, RequestClass,
    RetryPolicy, WorkloadMix,
};
use zkphire_hyperplonk::{
    prove_with_config, setup, Circuit, GateSystem, ProverConfig, ProvingKey, Witness,
};
use zkphire_serve::{reconcile_wall, ProvingService, ServeConfig, ServeOpts, ServeReport};
use zkphire_telemetry as tele;
use zkphire_transcript::Transcript;

/// A small telemetered fault scenario: 3 chips, one outage, 2 s
/// horizon. Deliberately smaller than `repro obs` — this test runs the
/// scenario several times concurrently under the dev profile.
fn traced_fleet_exports(seed: u64) -> (String, String) {
    let mut cost = CostModel::exemplar();
    let per = cost.proof_ms(Gate::Jellyfish, 18);
    let rate = 0.8 * 3.0 * 1000.0 / per;
    let workload = WorkloadMix::single(RequestClass::new(Gate::Jellyfish, 18));
    let cfg = FleetConfig::new(3)
        .with_faults(FaultConfig::scripted(vec![ChipOutage::new(
            1, 500.0, 600.0,
        )]))
        .with_retry(RetryPolicy::new(3))
        .with_brown_out(BrownOutConfig::new(1.0, 6))
        .with_telemetry();
    let mut source = PoissonSource::new(rate, 2_000.0, workload, seed);
    let report = simulate(&cfg, &mut source, &mut cost).expect("valid config");
    let timeline = report.timeline.expect("with_telemetry attaches a timeline");
    (timeline.to_jsonl(), timeline.to_chrome_trace())
}

/// Same seed => byte-identical sim-time trace, no matter the host
/// thread count. The baseline run happens on the test thread; the
/// rivals run on freshly spawned threads, all at once, while the test
/// thread runs the scenario a second time — maximal wall-clock
/// interleaving, zero effect on simulated time.
#[test]
fn fleet_trace_is_byte_identical_under_concurrency() {
    const SEED: u64 = 0x7e1e;
    let (base_jsonl, base_chrome) = traced_fleet_exports(SEED);

    let rivals: Vec<_> = (0..3)
        .map(|_| std::thread::spawn(move || traced_fleet_exports(SEED)))
        .collect();
    let (again_jsonl, again_chrome) = traced_fleet_exports(SEED);
    assert_eq!(base_jsonl, again_jsonl, "same-thread rerun diverged");
    assert_eq!(base_chrome, again_chrome);

    for rival in rivals {
        let (jsonl, chrome) = rival.join().expect("rival run must not panic");
        assert_eq!(base_jsonl, jsonl, "spawned-thread run diverged");
        assert_eq!(base_chrome, chrome);
    }

    // Different seed must actually change the trace — guards against
    // the exports ignoring their input.
    let (other_jsonl, _) = traced_fleet_exports(SEED + 1);
    assert_ne!(base_jsonl, other_jsonl, "seed does not reach the trace");
}

/// The prover's span forest nests correctly and `prove` is its only
/// root; the depth-1 phases cover the root to within 1%.
#[test]
fn prover_span_forest_is_well_formed() {
    let mut rng = StdRng::seed_from_u64(0x0b5eed);
    let (circuit, witness) = Circuit::random(GateSystem::Jellyfish, 8, 0.5, &mut rng);
    let (pk, _vk) = setup(circuit, &mut rng);

    let session = tele::Session::start();
    let _proof = prove_with_config(
        &pk,
        &witness,
        &mut Transcript::new(b"tests/telemetry"),
        ProverConfig { threads: 1 },
    );
    let profile = session.finish();

    profile
        .check_well_formed()
        .expect("span forest well-formed");
    assert_eq!(
        profile.span_count("prove"),
        1,
        "prove must be the single root"
    );

    let phases = profile.names_at_depth(1);
    assert!(!phases.is_empty(), "prove must expose depth-1 phases");
    let phase_ns: u64 = phases.iter().map(|n| profile.total_ns(n)).sum();
    let root_ns = profile.total_ns("prove");
    assert!(
        (phase_ns as f64 - root_ns as f64).abs() <= 0.01 * root_ns as f64,
        "depth-1 phases ({phase_ns} ns) must cover the prove span ({root_ns} ns) within 1%"
    );
}

/// Hooks compiled in, no session bound => they cost no bookkeeping, and
/// a session opened afterwards finishes empty.
#[test]
fn runtime_disabled_records_nothing() {
    {
        let _outer = tele::span("dead/outer");
        let _inner = tele::span("dead/inner");
        tele::counter_add("dead/counter", 41);
        tele::hist_record("dead/hist", 7);
    }
    let profile = tele::Session::start().finish();

    assert!(profile.spans.is_empty(), "disabled spans must not record");
    assert_eq!(profile.counter("dead/counter"), 0);
    assert_eq!(profile.span_count("dead/outer"), 0);
    assert!(
        profile.names_at_depth(0).is_empty(),
        "no roots may exist after a disabled session"
    );
}

/// Exports of nothing are still valid documents: an empty drained
/// profile, a finalized timeline that saw no work, and a wall timeline
/// built from zero events all render loadable Chrome traces and
/// well-formed JSONL instead of panicking or emitting fragments.
#[test]
fn empty_exports_are_valid_documents() {
    let profile = tele::Session::start().finish();
    let chrome = tele::profile_to_chrome(&profile);
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.trim_end().ends_with('}'), "complete JSON doc");
    assert!(tele::profile_to_jsonl(&profile)
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));

    let mut sim = tele::SimTimeline::new(2);
    sim.finalize(0.0);
    let chrome = sim.to_chrome_trace();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.trim_end().ends_with('}'));
    for line in sim.to_jsonl().lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }

    let wall = tele::WallTimeline::from_events(&[]);
    assert!(wall.is_empty());
    assert_eq!(wall.num_workers(), 0);
    let chrome = wall.to_chrome_trace();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.trim_end().ends_with('}'));
    let jsonl = wall.to_jsonl();
    assert!(
        jsonl.starts_with("{\"kind\":\"meta\""),
        "even an empty wall timeline leads with its meta line: {jsonl}"
    );
}

/// A request whose lifecycle is still in flight when the timeline is
/// exported — admitted and proving, never finished — must appear in
/// the Chrome trace truncated at the horizon and flagged
/// `open_at_export`, not be silently dropped or left as an unbalanced
/// async pair.
#[test]
fn open_lifecycle_phases_survive_export() {
    use tele::{WallEvent, WallEventKind};
    let ev = |t_ns: u64, seq: u64, kind: WallEventKind, id: u64| WallEvent {
        t_ns,
        seq,
        tid: 0,
        kind,
        id,
        tenant: 0,
        arg: 0,
        a: 0.0,
        b: 0.0,
    };
    let wall = tele::WallTimeline::from_events(&[
        ev(10, 0, WallEventKind::Admitted, 7),
        ev(20, 1, WallEventKind::Dispatched, 7),
        ev(30, 2, WallEventKind::ProveBegin, 7),
        // horizon moves past the open prove phase
        ev(90, 3, WallEventKind::Admitted, 8),
    ]);
    let chrome = wall.to_chrome_trace();
    assert!(chrome.contains("\"open_at_export\":true"), "{chrome}");
    // Balanced async pairs: every "b" has its "e", even the open ones.
    assert_eq!(
        chrome.matches("\"ph\":\"b\"").count(),
        chrome.matches("\"ph\":\"e\"").count(),
        "{chrome}"
    );
}

/// One whole service lifecycle on the calling thread: a 2-worker pool
/// over the smallest Vanilla class, `n` submissions, clean drain.
fn serve_run(n: usize) -> ServeReport {
    let class = RequestClass::new(Gate::Vanilla, 4);
    let cfg = ServeConfig::new(vec![class]).with_opts(
        ServeOpts::default()
            .with_workers(2)
            .with_prover_threads(1)
            .with_max_batch(2),
    );
    let service = ProvingService::start(cfg).expect("startup");
    for _ in 0..n {
        service.submit(class, 0).expect("admitted");
    }
    service.shutdown().expect("clean drain")
}

/// The full cross-thread round trip on a real worker pool: a live
/// proving service (dispatcher thread + 2 workers + this thread) runs
/// a few requests inside a session. The finished profile's span forest
/// must be well-formed across all those threads, and the wall timeline
/// rebuilt from its events must reconcile *exactly* with the
/// `ServeReport` the service computed independently.
#[test]
fn cross_thread_span_forest_and_wall_reconcile() {
    let session = tele::Session::start();
    let report = serve_run(6);
    let profile = session.finish();

    assert_eq!(report.summary.completed, 6);
    profile
        .check_well_formed()
        .expect("cross-thread span forest well-formed");
    assert!(
        profile.span_count("prove") >= 1,
        "worker threads contribute prover spans"
    );

    let wall = tele::WallTimeline::from_events(&profile.wall_events);
    assert!(!wall.is_empty(), "lifecycle events recorded");
    assert_eq!(wall.outcome_count(tele::Outcome::Completed), 6);
    reconcile_wall(&wall, &report.summary).expect("timeline and summary describe the same run");

    // The exports hold up on real multi-threaded data too.
    let chrome = wall.to_chrome_trace();
    assert!(chrome.contains("\"ph\":\"b\"") && chrome.contains("\"ph\":\"e\""));
    assert!(chrome.contains("\"worker busy\"") || chrome.contains("worker"));
    assert!(tele::profile_to_chrome(&profile).starts_with("{\"traceEvents\":["));
}

/// A Vanilla circuit at 2^10 rows: the smallest whose commit and open
/// MSMs fan out over worker threads at `threads: 2`.
fn msm_worker_sized_keys() -> (ProvingKey, Witness) {
    let mut rng = StdRng::seed_from_u64(0x51b1);
    let (circuit, witness) = Circuit::random(GateSystem::Vanilla, 10, 0.5, &mut rng);
    let (pk, _vk) = setup(circuit, &mut rng);
    (pk, witness)
}

fn prove_with_msm_workers(pk: &ProvingKey, witness: &Witness) {
    std::hint::black_box(prove_with_config(
        pk,
        witness,
        &mut Transcript::new(b"tests/telemetry"),
        ProverConfig { threads: 2 },
    ));
}

/// Host independence of `repro obs`: its golden-pinned stdout is the
/// same bytes whether or not a sibling thread spends the whole run
/// proving with MSM workers — threads that exit, again and again, while
/// the experiment's sessions are open. The sibling signals once it is
/// in its prove loop and stays there until told to stop.
#[test]
fn obs_output_is_identical_beside_a_proving_sibling() {
    let obs = || zkphire_bench::experiments::run("obs").expect("registered experiment");
    let quiet = obs();

    let stop = AtomicBool::new(false);
    let (looping_tx, looping_rx) = mpsc::channel();
    let loaded = std::thread::scope(|scope| {
        scope.spawn(|| {
            let (pk, witness) = msm_worker_sized_keys();
            looping_tx.send(()).expect("test thread is waiting");
            while !stop.load(Ordering::SeqCst) {
                prove_with_msm_workers(&pk, &witness);
            }
        });
        looping_rx.recv().expect("sibling reached its prove loop");
        let loaded = obs();
        stop.store(true, Ordering::SeqCst);
        loaded
    });
    assert_eq!(quiet, loaded, "a sibling prove leaked into `repro obs`");
}

/// Two sessions open at once on two threads, each proving with MSM
/// workers: each finishes with exactly what a solo session records —
/// one `prove` root, the same counters and histograms, and only its own
/// wall event. The barriers keep both sessions open across both proves.
#[test]
fn concurrent_sessions_each_finish_with_their_own_work() {
    let (pk, witness) = msm_worker_sized_keys();
    let record = |id: u64, both_open: Option<&Barrier>| {
        let session = tele::Session::start();
        if let Some(barrier) = both_open {
            barrier.wait();
        }
        prove_with_msm_workers(&pk, &witness);
        tele::wall_event(tele::WallEventKind::Admitted, id, 0, 0, 0.0, 0.0);
        if let Some(barrier) = both_open {
            barrier.wait();
        }
        session.finish()
    };
    let solo = record(0, None);
    assert!(solo.counter("msm/calls") > 0, "the prove runs MSMs");

    let both_open = &Barrier::new(2);
    let profiles: Vec<tele::Profile> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=2)
            .map(|id| scope.spawn(move || record(id, Some(both_open))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread must not panic"))
            .collect()
    });
    for (id, profile) in (1u64..).zip(&profiles) {
        profile.check_well_formed().expect("well-formed");
        assert_eq!(profile.span_count("prove"), 1, "session {id}: one root");
        assert_eq!(profile.spans.len(), solo.spans.len(), "session {id}");
        assert_eq!(profile.counters, solo.counters, "session {id}");
        assert_eq!(profile.hists, solo.hists, "session {id}");
        let ids: Vec<u64> = profile.wall_events.iter().map(|e| e.id).collect();
        assert_eq!(ids, [id], "session {id}: only its own wall event");
    }
}

/// A service's threads record into the session `start` was called in:
/// one started on an unbound sibling thread — and living its whole life
/// while this thread's session is open — contributes nothing to it,
/// while the one started here reconciles bitwise, exactly as in
/// `cross_thread_span_forest_and_wall_reconcile`.
#[test]
fn service_records_only_into_the_session_it_started_in() {
    let session = tele::Session::start();
    let report = std::thread::scope(|scope| {
        let outside = scope.spawn(|| serve_run(4));
        let report = serve_run(6);
        let outside = outside.join().expect("outside service must not panic");
        assert_eq!(outside.summary.completed, 4);
        report
    });
    let profile = session.finish();

    assert_eq!(report.summary.completed, 6);
    profile
        .check_well_formed()
        .expect("cross-thread span forest well-formed");
    assert_eq!(
        profile.span_count("prove"),
        2 + 6,
        "two calibration proves and six requests — none of the sibling's"
    );
    let wall = tele::WallTimeline::from_events(&profile.wall_events);
    assert_eq!(wall.outcome_count(tele::Outcome::Completed), 6);
    reconcile_wall(&wall, &report.summary).expect("timeline and summary describe the same run");
}

/// Hooks on a thread bound to no session record nothing, even while a
/// session is open elsewhere in the process and the thread exits inside
/// it; nor does entering the empty reference such a thread sees.
#[test]
fn unbound_thread_hooks_record_nothing() {
    let session = tele::Session::start();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            assert!(!tele::is_recording(), "a new thread starts unbound");
            let fire = || {
                let _span = tele::span("ghost/span");
                tele::counter_add("ghost/counter", 1);
                tele::hist_record("ghost/hist", 1);
                tele::wall_event(tele::WallEventKind::Admitted, 9, 0, 0, 0.0, 0.0);
            };
            fire();
            let _nothing = tele::current().enter();
            assert!(!tele::is_recording());
            fire();
        });
    });
    let profile = session.finish();
    assert!(profile.spans.is_empty());
    assert!(profile.counters.is_empty());
    assert!(profile.hists.is_empty());
    assert!(profile.wall_events.is_empty());
}
