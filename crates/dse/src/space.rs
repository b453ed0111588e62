//! The Table III full-system design space and the Fig. 10 Pareto sweep.
//!
//! The raw cross-product is ~4 million configurations, and no point is
//! simulated on its own: a step's time depends only on a subset of the
//! knobs, so [`full_system_dse`] simulates each subset once and every
//! point's runtime is a sum of those memoized step times — the same
//! decomposition the paper's own DSE must rely on to be tractable.
//!
//! * **SumCheck** — one [`SumcheckPlan`] per `(profile, EEs, PLs)` is
//!   compiled before the bandwidth loop. Per bandwidth tier, each
//!   SumCheck knob tuple `(PEs, EEs, PLs, bank words)` simulates its three
//!   plans (ZeroCheck, PermCheck, OpenCheck) once, beside the Forest's
//!   batch-evaluation and tree-product times (the Forest is derived from
//!   the SumCheck unit).
//! * **MSM** — per tier, one dense and one sparse MSM per `(PEs, window)`;
//!   points per PE change only the area.
//! * **PermQuotGen** — per tier, one simulation per FracMLE PE count; the
//!   MLE Combine once per tier.
//!
//! The one per-point model call is the die area. Each point is kept as
//! its runtime, area and linear index into the cross-product; only the
//! points that reach a front are rebuilt into a [`ZkphireConfig`].

use zkphire_core::forest::ForestConfig;
use zkphire_core::memory::MemoryConfig;
use zkphire_core::mle_combine::MleCombineConfig;
use zkphire_core::msm_unit::{simulate_msm, MsmUnitConfig, ScalarProfile};
use zkphire_core::permquot::{simulate_permquot, PermQuotConfig};
use zkphire_core::protocol::Gate;
use zkphire_core::sumcheck_unit::{SumcheckPlan, SumcheckUnitConfig};
use zkphire_core::system::ZkphireConfig;
use zkphire_core::tech::{PrimeMode, MULS_PER_TREE};

use crate::pareto::{pareto_front, ParetoPoint};

/// The Table III design knobs.
#[derive(Clone, Debug)]
pub struct DseSpace {
    /// SumCheck PEs.
    pub sumcheck_pes: Vec<usize>,
    /// Extension Engines per PE.
    pub ees: Vec<usize>,
    /// Product Lanes per PE.
    pub pls: Vec<usize>,
    /// SumCheck SRAM bank words.
    pub bank_words: Vec<usize>,
    /// MSM PEs.
    pub msm_pes: Vec<usize>,
    /// MSM window sizes (bits).
    pub windows: Vec<usize>,
    /// MSM points per PE.
    pub points_per_pe: Vec<usize>,
    /// FracMLE (PermQuotGen) PEs.
    pub frac_pes: Vec<usize>,
    /// Bandwidth tiers (GB/s).
    pub bandwidths: Vec<f64>,
}

impl Default for DseSpace {
    /// The exact Table III ranges.
    fn default() -> Self {
        Self {
            sumcheck_pes: vec![1, 2, 4, 8, 16, 32],
            ees: vec![2, 3, 4, 5, 6, 7],
            pls: vec![3, 4, 5, 6, 7, 8],
            bank_words: vec![1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15],
            msm_pes: vec![1, 2, 4, 8, 16, 32],
            windows: vec![7, 8, 9, 10],
            points_per_pe: vec![1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14],
            frac_pes: vec![1, 2, 3, 4],
            bandwidths: MemoryConfig::sweep_tiers().to_vec(),
        }
    }
}

impl DseSpace {
    /// A thinned space for tests and quick examples.
    pub fn quick() -> Self {
        Self {
            sumcheck_pes: vec![4, 16],
            ees: vec![3, 7],
            pls: vec![5],
            bank_words: vec![1 << 12],
            msm_pes: vec![8, 32],
            windows: vec![8],
            points_per_pe: vec![1 << 13],
            frac_pes: vec![4],
            bandwidths: vec![512.0, 2048.0],
        }
    }

    /// Total configurations in the cross-product.
    pub fn size(&self) -> usize {
        self.sumcheck_pes.len()
            * self.ees.len()
            * self.pls.len()
            * self.bank_words.len()
            * self.msm_pes.len()
            * self.windows.len()
            * self.points_per_pe.len()
            * self.frac_pes.len()
            * self.bandwidths.len()
    }
}

/// A materialized design point on a Pareto frontier.
#[derive(Clone, Copy, Debug)]
pub struct FullSystemPoint {
    /// The full configuration.
    pub config: ZkphireConfig,
    /// End-to-end prover latency (ms).
    pub runtime_ms: f64,
    /// Die area (mm²).
    pub area_mm2: f64,
}

/// Result of the Fig. 10 sweep.
#[derive(Clone, Debug)]
pub struct FullSystemDse {
    /// Per-bandwidth-tier Pareto frontiers (same order as the space's
    /// bandwidth list).
    pub tier_fronts: Vec<Vec<FullSystemPoint>>,
    /// The global frontier across all tiers.
    pub global_front: Vec<FullSystemPoint>,
    /// Total configurations evaluated.
    pub evaluated: usize,
}

/// Derives the Forest size from the SumCheck unit (it must cover the
/// shared product-lane multipliers, §IV-B2, with headroom for tree work).
fn forest_for(sc: &SumcheckUnitConfig) -> ForestConfig {
    let lanes = sc.shared_lane_muls();
    ForestConfig {
        trees: (lanes.div_ceil(MULS_PER_TREE)).max(16) + 8,
    }
}

/// Memoized SumCheck-side step times of one SumCheck knob tuple.
struct ScEntry {
    cfg: SumcheckUnitConfig,
    zc_ms: f64,
    pc_ms: f64,
    oc_ms: f64,
    forest: ForestConfig,
    batch_ms: f64,
    pi_build_ms: f64,
}

/// Memoized MSM step times of one `(PEs, window)` tuple.
struct MsmEntry {
    pes: usize,
    window_bits: usize,
    dense_ms: f64,
    sparse_ms: f64,
}

/// Runs the full-system DSE for a `2^mu`-gate workload.
pub fn full_system_dse(
    space: &DseSpace,
    gate: Gate,
    mu: usize,
    masking: bool,
    prime: PrimeMode,
) -> FullSystemDse {
    let n = 1u64 << mu;
    let profiles = [
        gate.zerocheck_profile(),
        gate.permcheck_profile(),
        gate.opencheck_profile(),
    ];
    let claims = gate.batch_eval_claims();
    let distinct = gate.distinct_polys();
    let w = gate.witness_columns();
    let combine_cfg = MleCombineConfig::default();

    // SumCheck plans, indexed `ees_index * pls.len() + pls_index`: they
    // depend on neither PEs, bank words nor bandwidth.
    let plans: Vec<[SumcheckPlan; 3]> = space
        .ees
        .iter()
        .flat_map(|&ees| {
            let profiles = &profiles;
            space.pls.iter().map(move |&pls| {
                profiles
                    .each_ref()
                    .map(|p| SumcheckPlan::new(p, ees, pls, true))
            })
        })
        .collect();

    let (n_msm, n_ppp, n_frac) = (
        space.msm_pes.len() * space.windows.len(),
        space.points_per_pe.len(),
        space.frac_pes.len(),
    );
    let mut evaluated = 0usize;
    let mut tier_fronts = Vec::with_capacity(space.bandwidths.len());

    for &bw in &space.bandwidths {
        let mem = MemoryConfig::new(bw);

        // --- SumCheck-side step times per SumCheck knob tuple ---
        let mut sc_entries = Vec::with_capacity(plans.len() * space.sumcheck_pes.len());
        for &pes in &space.sumcheck_pes {
            for (ei, &ees) in space.ees.iter().enumerate() {
                for (pi, &pls) in space.pls.iter().enumerate() {
                    let [zc, pc, oc] = &plans[ei * space.pls.len() + pi];
                    for &bank_words in &space.bank_words {
                        let cfg = SumcheckUnitConfig {
                            pes,
                            ees,
                            pls,
                            bank_words,
                            sparse_io: true,
                        };
                        let forest = forest_for(&cfg);
                        sc_entries.push(ScEntry {
                            cfg,
                            zc_ms: zc.simulate(mu, &cfg, &mem).ms(),
                            pc_ms: pc.simulate(mu, &cfg, &mem).ms(),
                            oc_ms: oc.simulate(mu, &cfg, &mem).ms(),
                            forest,
                            batch_ms: forest.batch_eval_cycles(claims, n, &mem) / 1e6,
                            pi_build_ms: forest.tree_product_cycles(n, &mem) / 1e6,
                        });
                    }
                }
            }
        }

        // --- MSM step times per MSM knob tuple ---
        let mut msm_entries = Vec::with_capacity(n_msm);
        for &pes in &space.msm_pes {
            for &window_bits in &space.windows {
                let cfg = MsmUnitConfig {
                    pes,
                    window_bits,
                    points_per_pe: space.points_per_pe[0],
                };
                msm_entries.push(MsmEntry {
                    pes,
                    window_bits,
                    dense_ms: simulate_msm(n, ScalarProfile::Dense, &cfg, &mem).cycles / 1e6,
                    sparse_ms: simulate_msm(n, ScalarProfile::SparseWitness, &cfg, &mem).cycles
                        / 1e6,
                });
            }
        }

        // --- PermQuotGen times ---
        let pq_entries: Vec<(usize, f64)> = space
            .frac_pes
            .iter()
            .map(|&pes| {
                let cfg = PermQuotConfig {
                    pes,
                    inverse_units: PermQuotConfig::PAPER_INVERSE_UNITS,
                };
                (pes, simulate_permquot(mu, w, &cfg, &mem).cycles / 1e6)
            })
            .collect();

        let combine_ms = combine_cfg.combine_cycles(distinct, n, &mem) / 1e6;

        let config = |sc: &ScEntry, msm: &MsmEntry, ppp: usize, frac: usize| ZkphireConfig {
            sumcheck: sc.cfg,
            msm: MsmUnitConfig {
                pes: msm.pes,
                window_bits: msm.window_bits,
                points_per_pe: ppp,
            },
            forest: sc.forest,
            permquot: PermQuotConfig {
                pes: frac,
                inverse_units: PermQuotConfig::PAPER_INVERSE_UNITS,
            },
            combine: combine_cfg,
            mem,
            prime,
        };

        // --- Cross-product assembly: each point by its linear index ---
        let mut tier_points: Vec<ParetoPoint> =
            Vec::with_capacity(sc_entries.len() * n_msm * n_ppp * n_frac);
        for sc in &sc_entries {
            for msm in &msm_entries {
                for &ppp in &space.points_per_pe {
                    for &(frac, pq_ms) in &pq_entries {
                        let witness_ms = w as f64 * msm.sparse_ms;
                        let wiring_ms = 3.0 * msm.dense_ms;
                        let open_ms = 2.0 * msm.dense_ms;
                        let permquot_ms = pq_ms + sc.pi_build_ms;
                        let tail = sc.pc_ms + sc.batch_ms + sc.oc_ms + combine_ms + open_ms;
                        let runtime_ms = if masking {
                            witness_ms + permquot_ms + sc.zc_ms.max(wiring_ms) + tail
                        } else {
                            witness_ms + sc.zc_ms + permquot_ms + wiring_ms + tail
                        };
                        tier_points.push(ParetoPoint {
                            runtime_ms,
                            area_mm2: config(sc, msm, ppp, frac).area().total(),
                            bandwidth_gbps: bw,
                            config_index: tier_points.len(),
                        });
                    }
                }
            }
        }
        evaluated += tier_points.len();

        // Only front points get their configuration back.
        let front = pareto_front(tier_points).into_iter().map(|p| {
            let i = p.config_index;
            let (frac, i) = (pq_entries[i % n_frac].0, i / n_frac);
            let (ppp, i) = (space.points_per_pe[i % n_ppp], i / n_ppp);
            let (msm, sc) = (&msm_entries[i % n_msm], &sc_entries[i / n_msm]);
            FullSystemPoint {
                config: config(sc, msm, ppp, frac),
                runtime_ms: p.runtime_ms,
                area_mm2: p.area_mm2,
            }
        });
        tier_fronts.push(front.collect::<Vec<_>>());
    }

    // Global frontier across tiers.
    let mut all: Vec<FullSystemPoint> = tier_fronts.iter().flatten().copied().collect();
    all.sort_by(|a, b| a.runtime_ms.partial_cmp(&b.runtime_ms).expect("finite"));
    let mut global_front = Vec::new();
    let mut best_area = f64::INFINITY;
    for p in all {
        if p.area_mm2 < best_area {
            best_area = p.area_mm2;
            global_front.push(p);
        }
    }

    FullSystemDse {
        tier_fronts,
        global_front,
        evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_space_size() {
        // 6·6·6·6 SumCheck × 6·4·5 MSM × 4 FracMLE × 7 bandwidths.
        assert_eq!(DseSpace::default().size(), 1296 * 120 * 4 * 7);
    }

    #[test]
    fn quick_sweep_produces_fronts() {
        let dse = full_system_dse(
            &DseSpace::quick(),
            Gate::Jellyfish,
            18,
            true,
            PrimeMode::Fixed,
        );
        assert_eq!(dse.tier_fronts.len(), 2);
        assert!(!dse.global_front.is_empty());
        assert_eq!(dse.evaluated, DseSpace::quick().size());
        // Frontier monotonicity.
        for front in &dse.tier_fronts {
            for w in front.windows(2) {
                assert!(w[0].runtime_ms <= w[1].runtime_ms);
                assert!(w[0].area_mm2 >= w[1].area_mm2);
            }
        }
    }

    #[test]
    fn higher_bandwidth_reaches_lower_runtime() {
        let dse = full_system_dse(
            &DseSpace::quick(),
            Gate::Jellyfish,
            18,
            true,
            PrimeMode::Fixed,
        );
        let best_slow = dse.tier_fronts[0]
            .iter()
            .map(|p| p.runtime_ms)
            .fold(f64::INFINITY, f64::min);
        let best_fast = dse.tier_fronts[1]
            .iter()
            .map(|p| p.runtime_ms)
            .fold(f64::INFINITY, f64::min);
        assert!(best_fast < best_slow);
    }

    #[test]
    fn forest_always_covers_lanes() {
        let dse = full_system_dse(
            &DseSpace::quick(),
            Gate::Vanilla,
            16,
            false,
            PrimeMode::Fixed,
        );
        for front in &dse.tier_fronts {
            for p in front {
                assert!(p.config.forest_covers_lanes());
            }
        }
    }
}
