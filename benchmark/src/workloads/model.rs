//! `model_sweep`: host time of the accelerator-model side of the
//! repository. One pass runs the full-system design-space exploration for
//! both gate systems, the protocol cycle model over the paper's workload
//! classes, and a seeded fleet discrete-event simulation (8 chips,
//! weighted-fair dispatch over two tenants, retries, one scripted chip
//! outage). Everything simulated is a pure function of the inputs, so every
//! pass must reproduce the first one's statistics exactly; only host time
//! may differ.

use std::time::Instant;

use zkphire_core::costdb::CostModel;
use zkphire_core::protocol::{simulate_protocol, Gate};
use zkphire_core::system::ZkphireConfig;
use zkphire_core::workloads::all_workloads;
use zkphire_core::PrimeMode;
use zkphire_dse::{full_system_dse, DseSpace};
use zkphire_fleet::{
    simulate, ArrivalSource, ChipOutage, FaultConfig, FleetConfig, PoissonSource, PolicyKind,
    RequestClass, RetryPolicy, SimReport, SplitMix64, TenantId, TenantMix, TenantProfile,
    TraceSource, WorkloadMix,
};

use super::{Config, Samples, Workload};
use crate::trace::{Layer, Recorder};

/// Circuit size the DSE optimizes for (the paper's Fig. 10 setting).
pub const DSE_MU: usize = 20;
const CHIPS: usize = 8;
/// Offered load as a share of the fleet's no-overhead capacity: busy
/// enough to queue and to lose some work during the outage, so the
/// retry and lost paths run, with most requests completing.
const LOAD: f64 = 0.6;

/// The Table III cross-product thinned to two MSM window sizes and one
/// points-per-PE value (435 456 of its 4 354 560 points): one gate system
/// takes ~150 ms of host time instead of ~1.5 s, so a 10 s run holds
/// enough passes for a steady median. Every other knob keeps its full
/// Table III range.
pub fn dse_space(smoke: bool) -> DseSpace {
    if smoke {
        DseSpace::quick()
    } else {
        DseSpace {
            windows: vec![8, 10],
            points_per_pe: vec![1 << 12],
            ..DseSpace::default()
        }
    }
}

/// The `(gate, mu)` classes of Tables VI/VII.
pub fn protocol_classes() -> Vec<(Gate, usize)> {
    let mut classes = Vec::new();
    for w in all_workloads() {
        classes.extend(w.vanilla_log2.map(|mu| (Gate::Vanilla, mu)));
        classes.extend(w.jellyfish_log2.map(|mu| (Gate::Jellyfish, mu)));
    }
    classes
}

/// The DES scenario: configuration, materialized arrivals, warmed cost model.
pub struct Fleet {
    cfg: FleetConfig,
    arrivals: Vec<(f64, RequestClass, TenantId)>,
    cost: CostModel,
}

impl Fleet {
    /// Draws `target` Poisson arrivals (about) from the seed.
    pub fn new(seed: u64, target: usize) -> Self {
        let mix = TenantMix::new(vec![
            TenantProfile::new(0, 2.0, WorkloadMix::tables_vi_vii(21)),
            TenantProfile::new(1, 1.0, WorkloadMix::table_vii_jellyfish(20)),
        ]);
        let mut cost = CostModel::exemplar();
        // Mean proof latency of the mix, from draws on a stream of their own.
        let mut rng = SplitMix64::new(seed ^ 0x6d65_616e);
        let draws = 4096;
        let mean_ms = (0..draws)
            .map(|_| {
                let (_, class) = mix.draw(&mut rng);
                cost.proof_ms(class.gate, class.mu)
            })
            .sum::<f64>()
            / draws as f64;
        let rate_rps = LOAD * CHIPS as f64 * 1000.0 / mean_ms;
        let horizon_ms = target as f64 / rate_rps * 1000.0;
        let mut source = PoissonSource::new(rate_rps, horizon_ms, mix.clone(), seed);
        let arrivals = std::iter::from_fn(|| source.next_arrival()).collect();
        let cfg = FleetConfig::new(CHIPS)
            .with_policy(PolicyKind::WeightedFair)
            .with_tenant_weights(mix.service_weights())
            .with_retry(RetryPolicy::new(4))
            .with_faults(FaultConfig::scripted(vec![ChipOutage::new(
                0,
                horizon_ms * 0.25,
                horizon_ms * 0.15,
            )]));
        Self {
            cfg,
            arrivals,
            cost,
        }
    }

    /// One DES run over the materialized arrivals. Returns the report and
    /// the cost model's `(hits, misses)` for the run.
    pub fn run(&self) -> Result<(SimReport, (u64, u64)), String> {
        let mut cost = self.cost.clone();
        let (h0, m0) = cost.stats();
        let mut source = TraceSource::with_tenants(self.arrivals.clone());
        let report = simulate(&self.cfg, &mut source, &mut cost).map_err(|e| e.to_string())?;
        let (h1, m1) = cost.stats();
        Ok((report, (h1 - h0, m1 - m0)))
    }
}

/// The set-up model side.
pub struct ModelSweep {
    space: DseSpace,
    chip: ZkphireConfig,
    classes: Vec<(Gate, usize)>,
    fleet: Fleet,
    pass: u64,
}

impl ModelSweep {
    /// Builds the design space, the class list, the arrival trace and the
    /// cost model.
    pub fn setup(cfg: Config) -> Result<Self, String> {
        let arrivals = if cfg.smoke { 2_000 } else { 150_000 };
        Ok(Self {
            space: dse_space(cfg.smoke),
            chip: ZkphireConfig::exemplar(),
            classes: protocol_classes(),
            fleet: Fleet::new(cfg.seed, arrivals),
            pass: 0,
        })
    }

    fn pass(&mut self, rec: &mut Recorder, samples: &mut Samples) -> bool {
        self.pass += 1;
        rec.set_sample(self.pass, 0);
        samples.attempted += 1;
        let failed_before = samples.failed;
        let root = rec.begin("model.pass", Layer::Host);

        let t0 = Instant::now();
        for (gate, points, front) in [
            (
                Gate::Jellyfish,
                "dse_points_jellyfish",
                "dse_front_jellyfish",
            ),
            (Gate::Vanilla, "dse_points_vanilla", "dse_front_vanilla"),
        ] {
            let s = rec.begin("dse.full_system_dse", Layer::Dse);
            let dse = full_system_dse(&self.space, gate, DSE_MU, true, PrimeMode::Arbitrary);
            rec.end(s);
            samples.exact(points, dse.evaluated as f64);
            samples.exact(front, dse.global_front.len() as f64);
        }
        samples.primary_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        let s = rec.begin("core.simulate_protocol(classes)", Layer::Core);
        let total_ms: f64 = self
            .classes
            .iter()
            .map(|&(gate, mu)| simulate_protocol(&self.chip, gate, mu, true).total_ms)
            .sum();
        rec.end(s);
        samples.exact("sim_classes_total_ms", total_ms);

        let s = rec.begin("fleet.simulate", Layer::Fleet);
        let t0 = Instant::now();
        let run = self.fleet.run();
        samples.secondary_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        rec.end(s);
        match run {
            Ok((report, _)) => {
                let s = &report.summary;
                if s.arrivals != s.completed + s.rejected + s.shed + s.lost {
                    samples.fail("DES accounting not conserved");
                }
                samples.exact("des_events", report.trace.len() as f64);
                samples.exact(
                    "des_trace_hash_lo32",
                    (report.trace_hash & 0xffff_ffff) as f64,
                );
                samples.exact("des_completed", s.completed as f64);
                samples.exact("des_p99_ms", s.p99_latency_ms);
            }
            Err(e) => samples.fail(format!("DES: {e}")),
        }
        rec.end(root);
        samples.failed == failed_before
    }
}

impl Workload for ModelSweep {
    fn warm(&mut self) {
        let mut scratch = Samples::default();
        self.pass(&mut Recorder::new(false), &mut scratch);
        self.pass = 0;
    }

    fn round(&mut self, deadline: Instant, rec: &mut Recorder, samples: &mut Samples) {
        let started = Instant::now();
        let (p0, s0) = (samples.primary_ms.len(), samples.secondary_ms.len());
        let mut ops = 0;
        loop {
            ops += u64::from(self.pass(rec, samples));
            if Instant::now() >= deadline {
                break;
            }
        }
        samples.close_round(started, ops, p0, s0);
    }

    fn finish(self: Box<Self>, _rec: &mut Recorder, _samples: &mut Samples) {}
}
