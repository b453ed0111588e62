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
//! **Pruning.** A point's runtime and area are built from the floats of
//! three knob groups and of its tier:
//!
//! * SumCheck tuple — ZeroCheck, PermCheck, OpenCheck, batch-evaluation
//!   and tree-product ms, the Forest area, the SumCheck area (lane deficit
//!   included) and the scratchpad bytes;
//! * MSM `(PEs, window)` × points per PE — dense and sparse MSM ms, the
//!   MSM area and its SRAM MB;
//! * FracMLE PEs — the PermQuotGen ms and area.
//!
//! Per tier, a tuple is dropped before the cross-product when a kept tuple
//! of lower index in its group is `<=` in every one of those floats
//! (dominance is transitive, so comparing against the kept tuples is
//! enough). Only the product of the kept tuples is built, so
//! [`ZkphireConfig::area`], the one per-point model call, runs only on it
//! (and once per SumCheck tuple, for the two areas the prune reads). Each
//! point keeps the linear index it has in the full cross-product, and
//! points are built in index order.
//!
//! This leaves every front exactly as the full cross-product gives it.
//! Runtime and area combine the group floats only by `+`, `max` and
//! multiplication by positive constants, each monotone under IEEE
//! rounding, so putting a pruned tuple's lower-index dominator in its
//! place never raises either total and lowers the linear index. In
//! [`pareto_front`]'s `(runtime, area, position)` order, every pruned
//! point thus sorts after a kept point of no larger area: it could not
//! reach the front, and any point it would keep off the front that kept
//! point keeps off too.
//! `evaluated` counts the whole cross-product. Only the points that
//! reach a front are rebuilt into a [`ZkphireConfig`].

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
    /// Configurations the sweep represents: the full cross-product,
    /// pruned tuples included.
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

/// One point's end-to-end runtime (ms) from its step times, composed as
/// `simulate_protocol` composes them.
fn runtime_ms(
    masking: bool,
    witness_columns: usize,
    sc: &ScEntry,
    msm: &MsmEntry,
    pq_ms: f64,
    combine_ms: f64,
) -> f64 {
    let witness_ms = witness_columns as f64 * msm.sparse_ms;
    let wiring_ms = 3.0 * msm.dense_ms;
    let open_ms = 2.0 * msm.dense_ms;
    let permquot_ms = pq_ms + sc.pi_build_ms;
    let tail = sc.pc_ms + sc.batch_ms + sc.oc_ms + combine_ms + open_ms;
    if masking {
        witness_ms + permquot_ms + sc.zc_ms.max(wiring_ms) + tail
    } else {
        witness_ms + sc.zc_ms + permquot_ms + wiring_ms + tail
    }
}

/// The indices, in order, of the tuples that no kept tuple of lower index
/// matches or beats in every float.
fn undominated<const N: usize>(floats: &[[f64; N]]) -> Vec<usize> {
    let mut kept: Vec<usize> = Vec::new();
    for (i, f) in floats.iter().enumerate() {
        let dominated = kept
            .iter()
            .any(|&k| floats[k].iter().zip(f).all(|(a, b)| a <= b));
        if !dominated {
            kept.push(i);
        }
    }
    kept
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

        // --- Prune each knob group by lower-index dominance ---
        // The Forest and SumCheck areas depend on no other group, so they
        // are read off `area()` with the other units left at the exemplar's.
        let sc_floats: Vec<[f64; 8]> = sc_entries
            .iter()
            .map(|sc| {
                let area = ZkphireConfig {
                    sumcheck: sc.cfg,
                    forest: sc.forest,
                    prime,
                    ..ZkphireConfig::exemplar()
                }
                .area();
                [
                    sc.zc_ms,
                    sc.pc_ms,
                    sc.oc_ms,
                    sc.batch_ms,
                    sc.pi_build_ms,
                    area.forest,
                    area.sumcheck,
                    sc.cfg.scratch_bytes(),
                ]
            })
            .collect();
        // MSM × points per PE, indexed `msm_index * n_ppp + ppp_index`.
        let msm_floats: Vec<[f64; 4]> = msm_entries
            .iter()
            .flat_map(|msm| {
                space.points_per_pe.iter().map(move |&points_per_pe| {
                    let cfg = MsmUnitConfig {
                        pes: msm.pes,
                        window_bits: msm.window_bits,
                        points_per_pe,
                    };
                    [
                        msm.dense_ms,
                        msm.sparse_ms,
                        cfg.area_mm2(prime),
                        cfg.sram_mb(),
                    ]
                })
            })
            .collect();
        let pq_floats: Vec<[f64; 2]> = pq_entries
            .iter()
            .map(|&(pes, pq_ms)| {
                let cfg = PermQuotConfig {
                    pes,
                    inverse_units: PermQuotConfig::PAPER_INVERSE_UNITS,
                };
                [pq_ms, cfg.area_mm2(prime)]
            })
            .collect();
        let (sc_kept, msm_kept, pq_kept) = (
            undominated(&sc_floats),
            undominated(&msm_floats),
            undominated(&pq_floats),
        );

        // --- Cross-product of the kept tuples, in linear-index order ---
        let mut tier_points: Vec<ParetoPoint> =
            Vec::with_capacity(sc_kept.len() * msm_kept.len() * pq_kept.len());
        for &s in &sc_kept {
            let sc = &sc_entries[s];
            for &g in &msm_kept {
                let (msm, ppp) = (&msm_entries[g / n_ppp], space.points_per_pe[g % n_ppp]);
                for &f in &pq_kept {
                    let (frac, pq_ms) = pq_entries[f];
                    tier_points.push(ParetoPoint {
                        runtime_ms: runtime_ms(masking, w, sc, msm, pq_ms, combine_ms),
                        area_mm2: config(sc, msm, ppp, frac).area().total(),
                        bandwidth_gbps: bw,
                        config_index: (s * n_msm * n_ppp + g) * n_frac + f,
                    });
                }
            }
        }
        evaluated += sc_entries.len() * n_msm * n_ppp * n_frac;

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

    // Global frontier: the front of the tier fronts, concatenated in tier
    // order, each point keyed by its position there.
    let all: Vec<FullSystemPoint> = tier_fronts.iter().flatten().copied().collect();
    let global_front = pareto_front(
        all.iter()
            .enumerate()
            .map(|(i, p)| ParetoPoint {
                runtime_ms: p.runtime_ms,
                area_mm2: p.area_mm2,
                bandwidth_gbps: p.config.mem.bandwidth_gbps,
                config_index: i,
            })
            .collect(),
    )
    .into_iter()
    .map(|p| all[p.config_index])
    .collect();

    FullSystemDse {
        tier_fronts,
        global_front,
        evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use zkphire_core::sumcheck_unit::simulate_sumcheck;

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

    #[test]
    fn undominated_keeps_what_no_lower_index_tuple_matches() {
        let floats = [
            [2.0, 1.0],  // kept: nothing precedes it
            [1.0, 1.0],  // kept: it beats tuple 0, which comes first
            [1.0, 1.0],  // an exact repeat of tuple 1
            [3.0, 0.0],  // kept: no kept tuple is <= in the second float
            [3.0, 1.0],  // dominated by tuples 0 and 1
            [-0.0, 0.0], // kept: below every kept tuple in the first float
            [0.0, -0.0], // equal to tuple 5 under `<=`
        ];
        assert_eq!(undominated(&floats), [0, 1, 3, 5]);
    }

    /// A knob list of one to `max_len - 1` entries drawn from a palette
    /// of up to three of `values`, so repeats (and with them exact ties
    /// between tuples) are common and the order is arbitrary.
    fn knob_list<T: Copy>(rng: &mut StdRng, values: &[T], max_len: usize) -> Vec<T> {
        let palette: Vec<T> = (0..rng.gen_range(1..4))
            .map(|_| values[rng.gen_range(0..values.len())])
            .collect();
        (0..rng.gen_range(1..max_len))
            .map(|_| palette[rng.gen_range(0..palette.len())])
            .collect()
    }

    /// The sweep as the whole cross-product gives it: every point's step
    /// times simulated afresh from its own configuration, nothing pruned,
    /// one `pareto_front` per tier and one over all points of all tiers.
    fn brute_force(
        space: &DseSpace,
        gate: Gate,
        mu: usize,
        masking: bool,
        prime: PrimeMode,
    ) -> (Vec<Vec<FullSystemPoint>>, Vec<FullSystemPoint>) {
        let n = 1u64 << mu;
        let w = gate.witness_columns();
        let lists = [
            &space.sumcheck_pes,
            &space.ees,
            &space.pls,
            &space.bank_words,
            &space.msm_pes,
            &space.windows,
            &space.points_per_pe,
            &space.frac_pes,
        ];
        let per_tier = space.size() / space.bandwidths.len();
        let (mut configs, mut all_points, mut tier_fronts) = (Vec::new(), Vec::new(), Vec::new());
        for &bw in &space.bandwidths {
            let mem = MemoryConfig::new(bw);
            let mut points = Vec::new();
            for i in 0..per_tier {
                let mut knobs = [0usize; 8];
                let mut rest = i;
                for (knob, list) in knobs.iter_mut().zip(lists).rev() {
                    *knob = list[rest % list.len()];
                    rest /= list.len();
                }
                let [pes, ees, pls, bank_words, msm_pes, window_bits, points_per_pe, frac] = knobs;
                let sumcheck = SumcheckUnitConfig {
                    pes,
                    ees,
                    pls,
                    bank_words,
                    sparse_io: true,
                };
                let forest = forest_for(&sumcheck);
                let cfg = ZkphireConfig {
                    sumcheck,
                    msm: MsmUnitConfig {
                        pes: msm_pes,
                        window_bits,
                        points_per_pe,
                    },
                    forest,
                    permquot: PermQuotConfig {
                        pes: frac,
                        inverse_units: PermQuotConfig::PAPER_INVERSE_UNITS,
                    },
                    combine: MleCombineConfig::default(),
                    mem,
                    prime,
                };
                let sc_ms = |profile| simulate_sumcheck(&profile, mu, &sumcheck, &mem).ms();
                let sc = ScEntry {
                    cfg: sumcheck,
                    zc_ms: sc_ms(gate.zerocheck_profile()),
                    pc_ms: sc_ms(gate.permcheck_profile()),
                    oc_ms: sc_ms(gate.opencheck_profile()),
                    forest,
                    batch_ms: forest.batch_eval_cycles(gate.batch_eval_claims(), n, &mem) / 1e6,
                    pi_build_ms: forest.tree_product_cycles(n, &mem) / 1e6,
                };
                let msm_ms = |scalars| simulate_msm(n, scalars, &cfg.msm, &mem).cycles / 1e6;
                let msm = MsmEntry {
                    pes: msm_pes,
                    window_bits,
                    dense_ms: msm_ms(ScalarProfile::Dense),
                    sparse_ms: msm_ms(ScalarProfile::SparseWitness),
                };
                let pq_ms = simulate_permquot(mu, w, &cfg.permquot, &mem).cycles / 1e6;
                let combine_ms = cfg.combine.combine_cycles(gate.distinct_polys(), n, &mem) / 1e6;
                points.push(ParetoPoint {
                    runtime_ms: runtime_ms(masking, w, &sc, &msm, pq_ms, combine_ms),
                    area_mm2: cfg.area().total(),
                    bandwidth_gbps: bw,
                    config_index: configs.len(),
                });
                configs.push(cfg);
            }
            tier_fronts.push(pareto_front(points.clone()));
            all_points.extend(points);
        }
        let materialize = |front: Vec<ParetoPoint>| {
            front
                .into_iter()
                .map(|p| FullSystemPoint {
                    config: configs[p.config_index],
                    runtime_ms: p.runtime_ms,
                    area_mm2: p.area_mm2,
                })
                .collect::<Vec<_>>()
        };
        let global_front = materialize(pareto_front(all_points));
        (
            tier_fronts.into_iter().map(materialize).collect(),
            global_front,
        )
    }

    /// A front as exact bits and `Debug` configurations.
    fn exact(front: &[FullSystemPoint]) -> Vec<(u64, u64, String)> {
        front
            .iter()
            .map(|p| {
                let config = format!("{:?}", p.config);
                (p.runtime_ms.to_bits(), p.area_mm2.to_bits(), config)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random sub-spaces of Table III, knob lists in arbitrary order
        /// and with repeated values, give the brute-force fronts point
        /// for point and configuration for configuration.
        #[test]
        fn pruned_sweep_equals_the_brute_force_cross_product(
            seed in any::<u64>(),
            mu in 12usize..21,
            jellyfish in any::<bool>(),
            masking in any::<bool>(),
            fixed in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let table = DseSpace::default();
            let space = DseSpace {
                sumcheck_pes: knob_list(&mut rng, &table.sumcheck_pes, 3),
                ees: knob_list(&mut rng, &table.ees, 3),
                pls: knob_list(&mut rng, &table.pls, 3),
                bank_words: knob_list(&mut rng, &table.bank_words, 3),
                msm_pes: knob_list(&mut rng, &table.msm_pes, 4),
                windows: knob_list(&mut rng, &table.windows, 4),
                points_per_pe: knob_list(&mut rng, &table.points_per_pe, 4),
                frac_pes: knob_list(&mut rng, &table.frac_pes, 4),
                bandwidths: knob_list(&mut rng, &table.bandwidths, 3),
            };
            let gate = if jellyfish { Gate::Jellyfish } else { Gate::Vanilla };
            let prime = if fixed { PrimeMode::Fixed } else { PrimeMode::Arbitrary };
            let dse = full_system_dse(&space, gate, mu, masking, prime);
            let (tier_fronts, global_front) = brute_force(&space, gate, mu, masking, prime);
            prop_assert_eq!(dse.evaluated, space.size());
            prop_assert_eq!(
                dse.tier_fronts.iter().map(|f| exact(f)).collect::<Vec<_>>(),
                tier_fronts.iter().map(|f| exact(f)).collect::<Vec<_>>()
            );
            prop_assert_eq!(exact(&dse.global_front), exact(&global_front));
        }
    }
}
