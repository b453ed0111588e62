//! Fleet sizing: extends the paper's single-chip design-space
//! methodology to the deployment question — *how many* chips of a
//! design meet a latency SLO under a given traffic level, and what does
//! the fleet cost?
//!
//! The objective mirrors §VI-A1's structure but at service altitude:
//! the constraint is an SLO (p99 sojourn latency and an optional
//! rejection bound) evaluated by the `zkphire-fleet` discrete-event
//! simulator, and the figure of merit is fleet cost — silicon area and
//! average power rolled up from the chip model ([`ZkphireConfig::area`] /
//! [`ZkphireConfig::power`]) times the chip count.

use zkphire_core::costdb::CostModel;
use zkphire_core::system::ZkphireConfig;
use zkphire_fleet::{
    simulate, BrownOutConfig, ChipOutage, FaultConfig, FleetConfig, FleetSummary, PoissonSource,
    PolicyKind, RetryPolicy, WorkloadMix,
};

/// The service-level objective a fleet must meet.
#[derive(Clone, Debug)]
pub struct FleetSlo {
    /// Offered load (requests per second, Poisson).
    pub arrival_rps: f64,
    /// p99 sojourn latency bound (ms).
    pub p99_ms: f64,
    /// Admission queue bound applied to the simulated fleet; `None`
    /// queues without limit (and then no rejection ever occurs, so
    /// `max_reject_fraction` only binds together with a capacity).
    pub queue_capacity: Option<usize>,
    /// Maximum admissible rejection fraction (0 disallows any).
    pub max_reject_fraction: f64,
    /// Simulated horizon (ms).
    pub horizon_ms: f64,
    /// Traffic seed.
    pub seed: u64,
}

impl FleetSlo {
    /// An SLO at `arrival_rps` with a `p99_ms` bound; 10 s horizon,
    /// unbounded queue, no rejections allowed, fixed seed.
    pub fn new(arrival_rps: f64, p99_ms: f64) -> Self {
        Self {
            arrival_rps,
            p99_ms,
            queue_capacity: None,
            max_reject_fraction: 0.0,
            horizon_ms: 10_000.0,
            seed: 0xf1ee7,
        }
    }

    /// Bounds the admission queue (builder style); rejections then
    /// count against `max_reject_fraction`.
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = Some(cap);
        self
    }
}

/// Dollar-free cost model: what `chips` copies of the design spend.
#[derive(Clone, Copy, Debug)]
pub struct FleetCost {
    /// Chip count.
    pub chips: usize,
    /// Total silicon area (mm²).
    pub total_area_mm2: f64,
    /// Total average power (W).
    pub total_power_w: f64,
}

/// The outcome of sizing a fleet against an SLO.
#[derive(Clone, Debug)]
pub struct FleetSizing {
    /// Smallest chip count meeting the SLO.
    pub chips: usize,
    /// Fleet cost at that count.
    pub cost: FleetCost,
    /// The simulated metrics at that count.
    pub summary: FleetSummary,
}

/// Rolls up area/power for `chips` copies of `cfg`.
fn fleet_cost(cfg: &ZkphireConfig, chips: usize) -> FleetCost {
    let area = cfg.area().total();
    let power = cfg.power().total();
    FleetCost {
        chips,
        total_area_mm2: area * chips as f64,
        total_power_w: power * chips as f64,
    }
}

/// Simulates `chips` chips under the SLO's traffic and reports the
/// metrics (one point of the sizing sweep). The cost model is the
/// caller's, so sweeps over chip counts share one protocol-model cache.
fn evaluate_fleet_with(
    cost: &mut CostModel,
    chips: usize,
    mix: &WorkloadMix,
    policy: PolicyKind,
    slo: &FleetSlo,
) -> FleetSummary {
    let mut source = PoissonSource::new(slo.arrival_rps, slo.horizon_ms, mix.clone(), slo.seed);
    let mut fleet_cfg = FleetConfig::new(chips).with_policy(policy);
    if let Some(cap) = slo.queue_capacity {
        fleet_cfg = fleet_cfg.with_queue_capacity(cap);
    }
    simulate(&fleet_cfg, &mut source, cost)
        .expect("sizing sweep built an invalid fleet config")
        .summary
}

fn meets(summary: &FleetSummary, slo: &FleetSlo) -> bool {
    let offered = summary.completed + summary.rejected;
    let reject_fraction = if offered > 0 {
        summary.rejected as f64 / offered as f64
    } else {
        0.0
    };
    summary.p99_latency_ms <= slo.p99_ms && reject_fraction <= slo.max_reject_fraction
}

/// The shared sizing search: smallest chip count in `[1, max_chips]`
/// whose simulated summary satisfies `ok`, as `(chips, summary)`.
/// Doubling then bisection, assuming feasibility is monotone in chip
/// count (more chips never hurt under a work-conserving policy):
/// `O(log max_chips)` full DES runs total.
fn smallest_feasible(
    max_chips: usize,
    mut evaluate: impl FnMut(usize) -> FleetSummary,
    ok: impl Fn(&FleetSummary) -> bool,
) -> Option<(usize, FleetSummary)> {
    assert!(max_chips >= 1);
    // Doubling phase: find some feasible count (and the largest
    // infeasible one below it).
    let mut lo = 0usize; // largest count known infeasible
    let mut feasible: Option<(usize, FleetSummary)> = None;
    let mut n = 1usize;
    loop {
        let summary = evaluate(n);
        if ok(&summary) {
            feasible = Some((n, summary));
            break;
        }
        lo = n;
        if n >= max_chips {
            break;
        }
        n = (n * 2).min(max_chips);
    }
    let (mut hi, mut best_summary) = feasible?;
    // Bisection on (lo, hi]: shrink to the smallest feasible count.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let summary = evaluate(mid);
        if ok(&summary) {
            hi = mid;
            best_summary = summary;
        } else {
            lo = mid;
        }
    }
    Some((hi, best_summary))
}

/// Sizes a fleet of `cfg` chips against `slo`: the smallest chip count
/// in `[1, max_chips]` whose simulated p99 (and rejection fraction)
/// meets the SLO. Returns `None` when even `max_chips` misses it.
/// All probe runs share one memoized cost model.
pub fn size_fleet(
    cfg: &ZkphireConfig,
    mix: &WorkloadMix,
    policy: PolicyKind,
    slo: &FleetSlo,
    max_chips: usize,
) -> Option<FleetSizing> {
    let mut cost = CostModel::new(*cfg, true);
    let (chips, summary) = smallest_feasible(
        max_chips,
        |n| evaluate_fleet_with(&mut cost, n, mix, policy, slo),
        |summary| meets(summary, slo),
    )?;
    Some(FleetSizing {
        chips,
        cost: fleet_cost(cfg, chips),
        summary,
    })
}

/// Simulates `chips` chips under the SLO's traffic with `k` of them
/// knocked out mid-run: a scripted outage takes chips `0..k` down at
/// 25% of the horizon and holds them down for half the horizon, long
/// enough that the degraded fleet must absorb steady-state load — not
/// just a blip — on `chips - k` survivors. Lost in-flight work re-enters
/// through `retry`, and latest-deadline work is shed once the pool drops
/// below the `brown_out` threshold (pass `None` to forbid shedding).
#[allow(clippy::too_many_arguments)]
fn evaluate_fleet_under_outage_with(
    cost: &mut CostModel,
    chips: usize,
    k: usize,
    mix: &WorkloadMix,
    policy: PolicyKind,
    slo: &FleetSlo,
    retry: RetryPolicy,
    brown_out: Option<BrownOutConfig>,
) -> FleetSummary {
    assert!(
        k < chips,
        "outage of {k} chips leaves a {chips}-chip fleet empty"
    );
    let mut source = PoissonSource::new(slo.arrival_rps, slo.horizon_ms, mix.clone(), slo.seed);
    let outages = (0..k)
        .map(|i| ChipOutage::new(i, 0.25 * slo.horizon_ms, 0.5 * slo.horizon_ms))
        .collect();
    let mut fleet_cfg = FleetConfig::new(chips)
        .with_policy(policy)
        .with_faults(FaultConfig::scripted(outages))
        .with_retry(retry);
    if let Some(b) = brown_out {
        fleet_cfg = fleet_cfg.with_brown_out(b);
    }
    if let Some(cap) = slo.queue_capacity {
        fleet_cfg = fleet_cfg.with_queue_capacity(cap);
    }
    simulate(&fleet_cfg, &mut source, cost)
        .expect("outage sweep built an invalid fleet config")
        .summary
}

/// Whether a degraded run still honors the SLO: the p99 bound, with
/// rejections, losses *and* sheds all counted against the rejection
/// budget — under failures every non-served request is an SLO failure,
/// whatever mechanism dropped it.
fn meets_degraded(summary: &FleetSummary, slo: &FleetSlo) -> bool {
    let failed = summary.rejected + summary.lost + summary.shed;
    let fraction = if summary.arrivals > 0 {
        failed as f64 / summary.arrivals as f64
    } else {
        0.0
    };
    summary.p99_latency_ms <= slo.p99_ms && fraction <= slo.max_reject_fraction
}

/// Failure-aware sizing: the smallest chip count in `[k+1, max_chips]`
/// that still meets `slo` while any `k` chips are down for a sustained
/// outage (N-1 sizing at `k = 1`, N-2 at `k = 2`, …). The margin over
/// [`size_fleet`] is the redundancy the failure domain costs. Returns
/// `None` when even `max_chips` cannot absorb the outage.
#[allow(clippy::too_many_arguments)]
pub fn size_fleet_n_minus_k(
    cfg: &ZkphireConfig,
    mix: &WorkloadMix,
    policy: PolicyKind,
    slo: &FleetSlo,
    max_chips: usize,
    k: usize,
    retry: RetryPolicy,
    brown_out: Option<BrownOutConfig>,
) -> Option<FleetSizing> {
    assert!(k < max_chips, "k = {k} leaves no survivors at max_chips");
    let mut cost = CostModel::new(*cfg, true);
    let (chips, summary) = smallest_feasible(
        max_chips,
        |n| {
            if n <= k {
                // Too few survivors to even run; report an infeasible
                // sentinel so the search keeps growing the pool.
                let mut s = evaluate_fleet_with(&mut cost, n.max(1), mix, policy, slo);
                s.p99_latency_ms = f64::INFINITY;
                s
            } else {
                evaluate_fleet_under_outage_with(
                    &mut cost, n, k, mix, policy, slo, retry, brown_out,
                )
            }
        },
        |summary| meets_degraded(summary, slo),
    )?;
    Some(FleetSizing {
        chips,
        cost: fleet_cost(cfg, chips),
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkphire_core::protocol::Gate;
    use zkphire_fleet::RequestClass;

    fn mix() -> WorkloadMix {
        WorkloadMix::single(RequestClass::new(Gate::Jellyfish, 18))
    }

    /// One point of the sizing sweep on a fresh cost model.
    fn evaluate_fleet(
        cfg: &ZkphireConfig,
        chips: usize,
        mix: &WorkloadMix,
        policy: PolicyKind,
        slo: &FleetSlo,
    ) -> FleetSummary {
        evaluate_fleet_with(&mut CostModel::new(*cfg, true), chips, mix, policy, slo)
    }

    #[test]
    fn sizing_meets_slo_and_is_minimal() {
        let cfg = ZkphireConfig::exemplar();
        let mut cost_db = CostModel::new(cfg, true);
        let per_proof = cost_db.proof_ms(Gate::Jellyfish, 18);
        // Load that needs more than one chip: 3× one chip's capacity.
        let rate = 3.0 * 1000.0 / per_proof;
        let slo = FleetSlo {
            arrival_rps: rate,
            p99_ms: 20.0 * per_proof,
            queue_capacity: None,
            max_reject_fraction: 0.0,
            horizon_ms: 4_000.0,
            seed: 21,
        };
        let sizing = size_fleet(&cfg, &mix(), PolicyKind::SizeClass, &slo, 32)
            .expect("feasible within 32 chips");
        assert!(sizing.chips >= 3, "chips {}", sizing.chips);
        assert!(sizing.summary.p99_latency_ms <= slo.p99_ms);
        // Minimality: one fewer chip must miss the SLO.
        if sizing.chips > 1 {
            let under = evaluate_fleet(&cfg, sizing.chips - 1, &mix(), PolicyKind::SizeClass, &slo);
            assert!(!super::meets(&under, &slo));
        }
    }

    #[test]
    fn infeasible_slo_returns_none() {
        let cfg = ZkphireConfig::exemplar();
        let slo = FleetSlo {
            arrival_rps: 50.0,
            p99_ms: 0.001, // nothing proves in a microsecond
            queue_capacity: None,
            max_reject_fraction: 0.0,
            horizon_ms: 1_000.0,
            seed: 2,
        };
        assert!(size_fleet(&cfg, &mix(), PolicyKind::Fifo, &slo, 4).is_none());
    }

    #[test]
    fn rejection_constraint_binds_with_bounded_queue() {
        let cfg = ZkphireConfig::exemplar();
        let mut cost_db = CostModel::new(cfg, true);
        let per_proof = cost_db.proof_ms(Gate::Jellyfish, 18);
        // Overload one chip 3×: with a tiny queue it must shed load.
        let rate = 3.0 * 1000.0 / per_proof;
        let slo = FleetSlo {
            arrival_rps: rate,
            p99_ms: f64::INFINITY, // latency never binds here
            queue_capacity: Some(4),
            max_reject_fraction: 0.01,
            horizon_ms: 4_000.0,
            seed: 9,
        };
        let one_chip = evaluate_fleet(&cfg, 1, &mix(), PolicyKind::SizeClass, &slo);
        assert!(one_chip.rejected > 0, "bounded queue must shed overload");
        // size_fleet must therefore need more than one chip even though
        // the latency bound is infinite.
        let sizing = size_fleet(&cfg, &mix(), PolicyKind::SizeClass, &slo, 32)
            .expect("feasible within 32 chips");
        assert!(sizing.chips > 1, "chips {}", sizing.chips);
    }

    #[test]
    fn n_minus_one_sizing_buys_redundancy() {
        let cfg = ZkphireConfig::exemplar();
        let mut cost_db = CostModel::new(cfg, true);
        let per_proof = cost_db.proof_ms(Gate::Jellyfish, 18);
        let rate = 3.0 * 1000.0 / per_proof;
        let slo = FleetSlo {
            arrival_rps: rate,
            p99_ms: 20.0 * per_proof,
            queue_capacity: None,
            max_reject_fraction: 0.0,
            horizon_ms: 4_000.0,
            seed: 21,
        };
        let plain = size_fleet(&cfg, &mix(), PolicyKind::SizeClass, &slo, 32)
            .expect("feasible within 32 chips");
        let n1 = size_fleet_n_minus_k(
            &cfg,
            &mix(),
            PolicyKind::SizeClass,
            &slo,
            32,
            1,
            RetryPolicy::new(5),
            None,
        )
        .expect("N-1 feasible within 32 chips");
        // Surviving an outage can never need fewer chips.
        assert!(
            n1.chips >= plain.chips,
            "N-1 {} vs plain {}",
            n1.chips,
            plain.chips
        );
        // The sizing run really degraded and recovered one chip.
        assert_eq!(n1.summary.chip_failures, 1);
        assert_eq!(n1.summary.chip_repairs, 1);
        assert!(n1.summary.p99_latency_ms <= slo.p99_ms);
        assert_eq!(n1.summary.rejected + n1.summary.lost + n1.summary.shed, 0);
    }

    #[test]
    fn cost_scales_linearly_with_chips() {
        let cfg = ZkphireConfig::exemplar();
        let one = fleet_cost(&cfg, 1);
        let five = fleet_cost(&cfg, 5);
        assert!((five.total_area_mm2 - 5.0 * one.total_area_mm2).abs() < 1e-9);
        assert!((five.total_power_w - 5.0 * one.total_power_w).abs() < 1e-9);
        // Sanity anchor: one exemplar chip is ~294 mm² / ~202 W.
        assert!((one.total_area_mm2 - 294.0).abs() < 15.0);
        assert!((one.total_power_w - 202.0).abs() < 10.0);
    }
}
