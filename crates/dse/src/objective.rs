//! The λ-objective design selection of §VI-A1:
//!
//! ```text
//! min over designs  (1-λ)·f_slowdown(sd_i) + λ·(1 - f_util(u_i))
//! ```
//!
//! with geometric-mean slowdown (relative to the fastest design in the
//! area-constrained space for each polynomial) and arithmetic-mean
//! utilization, evaluated over a polynomial training set.

use std::collections::HashMap;

use zkphire_core::memory::MemoryConfig;
use zkphire_core::profile::PolyProfile;
use zkphire_core::sumcheck_unit::{SumcheckPlan, SumcheckUnitConfig};
use zkphire_core::tech::PrimeMode;

/// Score card for one candidate design.
#[derive(Clone, Debug)]
pub struct DesignScore {
    /// The candidate.
    pub config: SumcheckUnitConfig,
    /// Standalone area (mm²).
    pub area_mm2: f64,
    /// Runtime (ms) per training polynomial.
    pub runtimes_ms: Vec<f64>,
    /// Utilization per training polynomial.
    pub utilizations: Vec<f64>,
    /// Geomean slowdown vs the per-polynomial best in the space.
    pub geomean_slowdown: f64,
    /// Arithmetic-mean utilization.
    pub mean_utilization: f64,
    /// The λ-objective value.
    pub objective: f64,
}

/// Result of one standalone-SumCheck DSE at a bandwidth tier.
#[derive(Clone, Debug)]
pub struct SumcheckDseResult {
    /// The selected design.
    pub best: DesignScore,
    /// Number of candidates inside the area cap.
    pub candidates: usize,
}

/// Enumerates the standalone SumCheck design space (Table III's SumCheck
/// rows, PE counts extended to fill the area budget).
fn candidate_configs() -> Vec<SumcheckUnitConfig> {
    let mut out = Vec::new();
    for &pes in &[1usize, 2, 4, 8, 16, 24, 32] {
        for ees in 2..=7usize {
            for pls in 3..=8usize {
                for &bank_words in &[1usize << 10, 1 << 12, 1 << 14] {
                    // Standalone §III unit: dense streaming (no §IV-B1
                    // offset buffers).
                    out.push(SumcheckUnitConfig {
                        pes,
                        ees,
                        pls,
                        bank_words,
                        sparse_io: false,
                    });
                }
            }
        }
    }
    out
}

/// Runs the λ-objective selection over `training` at one bandwidth.
///
/// Returns `None` when no candidate fits the area cap.
pub fn select_design(
    training: &[PolyProfile],
    mu: usize,
    bandwidth_gbps: f64,
    area_cap_mm2: f64,
    lambda: f64,
    prime: PrimeMode,
) -> Option<SumcheckDseResult> {
    let mem = MemoryConfig::new(bandwidth_gbps);
    let candidates: Vec<SumcheckUnitConfig> = candidate_configs()
        .into_iter()
        .filter(|c| c.standalone_area_mm2(prime) <= area_cap_mm2)
        .collect();
    if candidates.is_empty() {
        return None;
    }

    // Evaluate every candidate on every polynomial, compiling each
    // polynomial once per `(ees, pls)` and reusing the plans across PEs
    // and bank sizes.
    let mut plans: HashMap<(usize, usize), Vec<SumcheckPlan>> = HashMap::new();
    let mut runtimes: Vec<Vec<f64>> = Vec::with_capacity(candidates.len());
    let mut utils: Vec<Vec<f64>> = Vec::with_capacity(candidates.len());
    for cfg in &candidates {
        let plans = plans.entry((cfg.ees, cfg.pls)).or_insert_with(|| {
            training
                .iter()
                .map(|p| SumcheckPlan::new(p, cfg.ees, cfg.pls, cfg.sparse_io))
                .collect()
        });
        let mut rs = Vec::with_capacity(training.len());
        let mut us = Vec::with_capacity(training.len());
        for plan in plans.iter() {
            let r = plan.simulate(mu, cfg, &mem);
            rs.push(r.ms());
            us.push(r.utilization);
        }
        runtimes.push(rs);
        utils.push(us);
    }

    // Per-polynomial best runtime across the space.
    let best_per_poly: Vec<f64> = (0..training.len())
        .map(|i| {
            runtimes
                .iter()
                .map(|rs| rs[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();

    let mut best: Option<DesignScore> = None;
    for ((cfg, rs), us) in candidates.iter().zip(&runtimes).zip(&utils) {
        let geomean_slowdown = geomean(
            &rs.iter()
                .zip(&best_per_poly)
                .map(|(r, b)| r / b)
                .collect::<Vec<f64>>(),
        );
        let mean_utilization = us.iter().sum::<f64>() / us.len() as f64;
        let objective = (1.0 - lambda) * geomean_slowdown + lambda * (1.0 - mean_utilization);
        let score = DesignScore {
            config: *cfg,
            area_mm2: cfg.standalone_area_mm2(prime),
            runtimes_ms: rs.clone(),
            utilizations: us.clone(),
            geomean_slowdown,
            mean_utilization,
            objective,
        };
        if best.as_ref().is_none_or(|b| score.objective < b.objective) {
            best = Some(score);
        }
    }
    Some(SumcheckDseResult {
        best: best.expect("non-empty candidates"),
        candidates: candidates.len(),
    })
}

/// Convenience wrapper used by the Fig. 6 harness: the paper's λ = 0.8
/// utilization-leaning selection.
pub fn sumcheck_dse(
    training: &[PolyProfile],
    mu: usize,
    bandwidth_gbps: f64,
    area_cap_mm2: f64,
) -> Option<SumcheckDseResult> {
    select_design(
        training,
        mu,
        bandwidth_gbps,
        area_cap_mm2,
        0.8,
        PrimeMode::Arbitrary,
    )
}

fn geomean(values: &[f64]) -> f64 {
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkphire_poly::training_set;

    fn small_training() -> Vec<PolyProfile> {
        training_set()
            .iter()
            .take(4)
            .map(PolyProfile::from_gate)
            .collect()
    }

    #[test]
    fn selection_respects_area_cap() {
        let training = small_training();
        let result = sumcheck_dse(&training, 18, 1024.0, 37.0).unwrap();
        assert!(result.best.area_mm2 <= 37.0);
        assert!(result.candidates > 10);
    }

    #[test]
    fn tiny_cap_yields_no_design() {
        let training = small_training();
        assert!(sumcheck_dse(&training, 18, 1024.0, 0.1).is_none());
    }

    #[test]
    fn lambda_zero_prefers_speed() {
        // Pure-performance selection must be at least as fast (geomean)
        // as the utilization-leaning one.
        let training = small_training();
        let fast = select_design(&training, 18, 2048.0, 37.0, 0.0, PrimeMode::Arbitrary).unwrap();
        let util = select_design(&training, 18, 2048.0, 37.0, 0.8, PrimeMode::Arbitrary).unwrap();
        assert!(fast.best.geomean_slowdown <= util.best.geomean_slowdown + 1e-9);
        assert!(util.best.mean_utilization >= fast.best.mean_utilization - 1e-9);
    }

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }
}
