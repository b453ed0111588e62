//! `fleet_sim` — operate a zkPHIRE proving service in simulation.
//!
//! Walks one scenario end to end: steady Poisson traffic, then a bursty
//! ON/OFF front, on fleets of growing size; asks the DSE layer how many
//! chips a 50 ms p99 SLO actually needs; shows what weighted-fair
//! batching buys a light tenant sharing the fleet with a flooder; and
//! takes a chip down under load.
//!
//! Run with `cargo run --release -p zkphire-examples --bin fleet_sim`.
//! Pass `--trace out.json` to also dump the chip-utilization timeline
//! of the failure scenario (step 5) as a Chrome trace-event file —
//! load it in Perfetto and the 1-of-4-chip outage is visible as a gap
//! in chip 0's track.

use zkphire_core::costdb::CostModel;
use zkphire_core::system::ZkphireConfig;
use zkphire_dse::{size_fleet, FleetSlo};
use zkphire_fleet::{
    simulate, BrownOutConfig, ChipOutage, FaultConfig, FleetConfig, OnOffSource, PoissonSource,
    PolicyKind, RetryPolicy, TenantMix, TenantProfile, WorkloadMix,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let horizon_ms = 5_000.0;
    let seed = 2026;
    let mix = WorkloadMix::table_vii_jellyfish(21);
    println!("zkPHIRE proving-service simulator");
    println!(
        "traffic classes: {}",
        mix.classes()
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );

    // One memoized cost model for every simulation below.
    let mut cost = CostModel::exemplar();

    // 1. Steady traffic, growing fleet.
    println!("\n— Poisson 600 req/s, size-class batching —");
    for chips in [1usize, 2, 4] {
        let mut source = PoissonSource::new(600.0, horizon_ms, mix.clone(), seed);
        let cfg = FleetConfig::new(chips);
        let s = simulate(&cfg, &mut source, &mut cost)
            .expect("valid config")
            .summary;
        println!(
            "{chips} chip(s): {:7.1} proofs/s  util {:.2}  p50 {:8.2} ms  p99 {:8.2} ms",
            s.throughput_rps, s.mean_utilization, s.p50_latency_ms, s.p99_latency_ms
        );
    }

    // 2. The same average load, but bursty: ON 1/3 of the time at 3×
    //    the rate. Tail latency degrades even though throughput holds.
    println!("\n— ON/OFF bursts, same 600 req/s average, 2 chips —");
    let mut steady = PoissonSource::new(600.0, horizon_ms, mix.clone(), seed);
    let smooth = simulate(&FleetConfig::new(2), &mut steady, &mut cost)
        .expect("valid config")
        .summary;
    let mut bursty_src = OnOffSource::new(1800.0, 400.0, 800.0, horizon_ms, mix.clone(), seed);
    let bursty = simulate(&FleetConfig::new(2), &mut bursty_src, &mut cost)
        .expect("valid config")
        .summary;
    println!(
        "steady: p99 {:8.2} ms   bursty: p99 {:8.2} ms  ({:.1}x)",
        smooth.p99_latency_ms,
        bursty.p99_latency_ms,
        bursty.p99_latency_ms / smooth.p99_latency_ms
    );

    // 3. SLO-driven sizing via the DSE layer.
    println!("\n— fleet sizing: p99 <= 50 ms on the exemplar chip —");
    let chip = ZkphireConfig::exemplar();
    for rate in [200.0, 600.0, 1200.0] {
        let slo = FleetSlo {
            arrival_rps: rate,
            p99_ms: 50.0,
            queue_capacity: None,
            max_reject_fraction: 0.0,
            horizon_ms,
            seed,
        };
        match size_fleet(&chip, &mix, PolicyKind::SizeClass, &slo, 64) {
            Some(sizing) => println!(
                "{rate:6.0} req/s -> {:2} chip(s), p99 {:6.2} ms, {:6.0} mm2, {:5.0} W",
                sizing.chips,
                sizing.summary.p99_latency_ms,
                sizing.cost.total_area_mm2,
                sizing.cost.total_power_w
            ),
            None => println!("{rate:6.0} req/s -> infeasible within 64 chips"),
        }
    }

    // 4. Multi-tenant fairness: a flooding wallet fleet vs a light
    //    rollup tenant on the same two chips.
    println!("\n— noisy neighbor: tenant 1 floods 9:1; tenant 2's p99, 2 chips —");
    let flood = TenantMix::new(vec![
        TenantProfile::new(1, 9.0, mix.clone()).with_service_weight(1.0),
        TenantProfile::new(2, 1.0, mix.clone()),
    ]);
    for policy in [PolicyKind::Fifo, PolicyKind::WeightedFair] {
        let mut source = OnOffSource::new(1500.0, 800.0, 800.0, 8_000.0, flood.clone(), seed);
        let cfg = FleetConfig::new(2)
            .with_policy(policy)
            .with_tenant_weights(flood.service_weights());
        let s = simulate(&cfg, &mut source, &mut cost)
            .expect("valid config")
            .summary;
        let light = s
            .per_tenant
            .iter()
            .find(|t| t.tenant == 2)
            .expect("light tenant served");
        println!(
            "{:14} tenant-2 p50 {:7.2} ms  p99 {:7.2} ms  (all-tenant p99 {:7.2} ms)",
            policy.name(),
            light.p50_latency_ms,
            light.p99_latency_ms,
            s.p99_latency_ms
        );
    }

    // 5. Resilience: one of four chips dies for 1.5 s under heavy load.
    //    A fault-blind fleet loses the in-flight batch and serves stale
    //    work; retries plus brown-out shedding keep the goodput up.
    println!("\n— chip failure: 1 of 4 chips down 1.5 s; retries + brown-out —");
    let outage = FaultConfig::scripted(vec![ChipOutage::new(0, 1_000.0, 1_500.0)]);
    let variants: [(&str, FleetConfig); 3] = [
        ("no-failure", FleetConfig::new(4)),
        ("naive", FleetConfig::new(4).with_faults(outage.clone())),
        (
            "resilient",
            FleetConfig::new(4)
                .with_faults(outage)
                .with_retry(RetryPolicy::new(4))
                .with_brown_out(BrownOutConfig::new(1.0, 12)),
        ),
    ];
    // 2000 req/s runs the 4-chip fleet hot enough that losing a chip
    // actually hurts: the survivors cannot also clear the backlog.
    for (label, cfg) in variants {
        let mut source = PoissonSource::new(2_000.0, horizon_ms, mix.clone(), seed);
        let s = simulate(&cfg, &mut source, &mut cost)
            .expect("valid config")
            .summary;
        println!(
            "{label:12} goodput {:7.1}/s  p99 {:8.2} ms  retries {:4}  lost {:3}  shed {:3}",
            s.goodput_rps, s.p99_latency_ms, s.retries, s.lost, s.shed
        );
    }

    // 6. Optional timeline export: the resilient variant again, with
    //    the sim-time recorder on, dumped as a Perfetto-loadable trace.
    if let Some(path) = trace_path {
        let cfg = FleetConfig::new(4)
            .with_faults(FaultConfig::scripted(vec![ChipOutage::new(
                0, 1_000.0, 1_500.0,
            )]))
            .with_retry(RetryPolicy::new(4))
            .with_brown_out(BrownOutConfig::new(1.0, 12))
            .with_telemetry();
        let mut source = PoissonSource::new(2_000.0, horizon_ms, mix.clone(), seed);
        let report = simulate(&cfg, &mut source, &mut cost).expect("valid config");
        let timeline = report.timeline.expect("with_telemetry attaches a timeline");
        match std::fs::write(&path, timeline.to_chrome_trace()) {
            Ok(()) => println!(
                "\nwrote chip-utilization timeline to {path} — open it in Perfetto \
                 (ui.perfetto.dev); the 1000-2500 ms hole in chip 0's track is the outage"
            ),
            Err(e) => eprintln!("\nFAILED to write {path}: {e}"),
        }
    }
}
