//! Cycle-level performance model of the programmable SumCheck unit
//! (paper §III, Fig. 3).
//!
//! Round structure follows §III-B exactly:
//!
//! * **Round 1** streams the original (sparsity-compressed) tables, two
//!   values per MLE per cycle, with the Build-MLE lane fused in when the
//!   composite carries a single `f_r` factor (§III-F) — costing one
//!   Extension Engine and one Product Lane for that round;
//! * **Rounds ≥ 2** read the previous tables four values at a time,
//!   pipeline the MLE Update into the extensions, and write the halved
//!   tables back — unless they now fit in the scratchpad banks, in which
//!   case off-chip traffic stops (§III-B, §IV-B1);
//! * per MLE-pair, the product lanes impose `Σ ceil(points / P)` cycles
//!   over the scheduler nodes (§III-D's initiation interval).
//!
//! Round time is `max(compute, memory)` plus tile fill/drain overheads —
//! the same analytical-overlap altitude as the paper's own methodology
//! (§V).

use crate::memory::MemoryConfig;
use crate::profile::PolyProfile;
use crate::sched::{schedule, Schedule};
use crate::tech::{self, PrimeMode, ELEMENT_BYTES};

/// Per-tile pipeline fill/drain overhead in cycles.
const TILE_OVERHEAD_CYCLES: f64 = 32.0;
/// Per-round drain overhead in cycles.
const ROUND_DRAIN_CYCLES: f64 = 300.0;

/// Configuration of one programmable SumCheck unit (Table III knobs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SumcheckUnitConfig {
    /// Processing elements.
    pub pes: usize,
    /// Extension Engines per PE.
    pub ees: usize,
    /// Product Lanes per PE.
    pub pls: usize,
    /// Words per scratchpad bank (the unit has [`Self::BANKS`] banks).
    pub bank_words: usize,
    /// Whether the unit streams sparsity-compressed tables (the per-tile
    /// offset buffers of §IV-B1 — a full-system zkPHIRE extension; the
    /// standalone §III unit of Figs. 6-9 streams dense 32 B elements).
    pub sparse_io: bool,
}

impl SumcheckUnitConfig {
    /// Scratchpad banks (§III-B: "we allocate 16 scratchpad buffers").
    pub const BANKS: usize = 16;

    /// Total scratchpad capacity in MLE words.
    pub fn scratch_words(&self) -> usize {
        Self::BANKS * self.bank_words
    }

    /// Scratchpad capacity in bytes.
    pub fn scratch_bytes(&self) -> f64 {
        self.scratch_words() as f64 * ELEMENT_BYTES
    }

    /// Modular multipliers in the unit (update + product-lane).
    pub fn total_muls(&self) -> usize {
        self.pes * (tech::UPDATE_MULS_PER_PE as usize + self.pls * (self.ees - 1))
    }

    /// Standalone unit area (mm², 7nm) — used for the iso-area SumCheck
    /// studies (Fig. 6–9), where the product-lane multipliers belong to
    /// the unit itself rather than a shared Forest.
    pub fn standalone_area_mm2(&self, prime: PrimeMode) -> f64 {
        let mm = prime.modmul_255_mm2();
        let pe = tech::UPDATE_MULS_PER_PE * mm
            + self.ees as f64 * tech::EE_MM2
            + self.pls as f64 * ((self.ees - 1) as f64 * mm + tech::PL_CTRL_MM2);
        let sram_mb = self.scratch_bytes() / (1024.0 * 1024.0);
        self.pes as f64 * pe + sram_mb / tech::SRAM_MB_PER_MM2 + tech::SHA3_MM2
    }

    /// PE area only (mm²) when the product-lane multipliers are provided
    /// by the Multifunction Forest (full-system zkPHIRE, §IV-B2).
    pub fn shared_pe_area_mm2(&self, prime: PrimeMode) -> f64 {
        let mm = prime.modmul_255_mm2();
        let pe = tech::UPDATE_MULS_PER_PE * mm
            + self.ees as f64 * tech::EE_MM2
            + self.pls as f64 * tech::PL_CTRL_MM2;
        self.pes as f64 * pe
    }

    /// Product-lane multipliers this unit borrows from the Forest in the
    /// shared configuration.
    pub fn shared_lane_muls(&self) -> usize {
        self.pes * self.pls * (self.ees - 1)
    }
}

/// Simulation output for one complete SumCheck.
#[derive(Clone, Debug)]
pub struct SumcheckReport {
    /// End-to-end cycles (= ns at 1 GHz).
    pub total_cycles: f64,
    /// Per-round cycles.
    pub round_cycles: Vec<f64>,
    /// Total off-chip traffic in bytes.
    pub mem_bytes: f64,
    /// Fraction of rounds (cycle-weighted) limited by memory.
    pub memory_bound_fraction: f64,
    /// Multiplier utilization: useful mult-cycles over capacity.
    pub utilization: f64,
}

impl SumcheckReport {
    /// Runtime in milliseconds at the 1 GHz clock.
    pub fn ms(&self) -> f64 {
        self.total_cycles / 1e6
    }
}

/// Per-pair cost of one round flavour, read off a compiled [`Schedule`].
#[derive(Clone, Copy, Debug)]
struct RoundCost {
    /// Product-lane cycles per MLE pair on one PE.
    cycles_per_pair: f64,
    /// Useful product-lane multiplications per MLE pair.
    muls_per_pair: f64,
}

impl RoundCost {
    fn new(sched: &Schedule, lanes: usize) -> Self {
        Self {
            cycles_per_pair: sched.cycles_per_pair(lanes) as f64,
            muls_per_pair: sched.muls_per_pair() as f64,
        }
    }
}

/// Everything about one SumCheck that depends only on the polynomial and
/// the `(ees, pls, sparse_io)` knobs: the round-1 schedule (with `f_r`
/// fused out) and the later-round schedule reduced to their per-pair
/// costs, and the per-slot bytes streamed in round 1 and round 2.
///
/// A design-space sweep builds one plan per `(profile, ees, pls)` and
/// [`simulates`](Self::simulate) it across PEs, bank sizes, bandwidths
/// and problem sizes; [`simulate_sumcheck`] is a plan built for a single
/// call.
#[derive(Clone, Debug)]
pub struct SumcheckPlan {
    ees: usize,
    pls: usize,
    sparse_io: bool,
    has_eq: bool,
    /// Extension points per pair, `degree + 1`.
    k: usize,
    /// Round-1 cost, on the lanes left after `f_r` reserves its own.
    r1: RoundCost,
    /// Cost of every later round.
    rest: RoundCost,
    /// Off-chip bytes per entry of each unique slot in round 1.
    round1_bytes: Vec<f64>,
    /// The same in round 2, which re-reads the original tables (the
    /// update is pipelined in) but reads a spilled `f_r` back dense.
    round2_bytes: Vec<f64>,
}

impl SumcheckPlan {
    /// Compiles `profile` for a unit of `ees` Extension Engines and `pls`
    /// Product Lanes per PE, streaming sparsity-compressed tables when
    /// `sparse_io` is set.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (`ees < 2`, `pls < 1`).
    pub fn new(profile: &PolyProfile, ees: usize, pls: usize, sparse_io: bool) -> Self {
        assert!(ees >= 2 && pls >= 1, "degenerate config");
        let has_eq = profile.eq_slot.is_some();
        // Round 1 fuses the f_r build out (one EE + one PL reserved).
        let (r1_ees, r1_pls) = if has_eq {
            ((ees - 1).max(2), (pls - 1).max(1))
        } else {
            (ees, pls)
        };
        let round1_entry = |slot: usize| {
            if sparse_io {
                profile.round1_bytes_per_entry(slot)
            } else if Some(slot) == profile.eq_slot {
                0.0 // f_r is still built on-chip (§III-F)
            } else {
                ELEMENT_BYTES
            }
        };
        let unique = profile.unique_slots();
        Self {
            ees,
            pls,
            sparse_io,
            has_eq,
            k: profile.degree() + 1,
            r1: RoundCost::new(&schedule(profile, r1_ees, has_eq), r1_pls),
            rest: RoundCost::new(&schedule(profile, ees, false), pls),
            round1_bytes: unique.iter().map(|&slot| round1_entry(slot)).collect(),
            round2_bytes: unique
                .iter()
                .map(|&slot| {
                    if Some(slot) == profile.eq_slot {
                        ELEMENT_BYTES
                    } else {
                        round1_entry(slot)
                    }
                })
                .collect(),
        }
    }

    /// Simulates the SumCheck over `2^mu` entries on `cfg` behind `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` disagrees with the plan's `(ees, pls, sparse_io)`,
    /// if `cfg.pes < 1` or if `mu < 1`.
    pub fn simulate(
        &self,
        mu: usize,
        cfg: &SumcheckUnitConfig,
        mem: &MemoryConfig,
    ) -> SumcheckReport {
        assert_eq!(
            (cfg.ees, cfg.pls, cfg.sparse_io),
            (self.ees, self.pls, self.sparse_io),
            "config does not match the plan"
        );
        assert!(cfg.pes >= 1, "degenerate config");
        assert!(mu >= 1);
        let n_unique = self.round1_bytes.len();
        // Bytes to stream `in_size` entries of every unique slot.
        let stream = |in_size: f64, per_entry: &[f64]| {
            per_entry.iter().fold(0f64, |read, b| read + in_size * b)
        };

        let mut round_cycles = Vec::with_capacity(mu);
        let mut total_bytes = 0f64;
        let mut useful_muls = 0f64;
        let mut mem_bound_cycles = 0f64;
        // Whether the (updated) tables already live in the scratchpads.
        let mut on_chip = false;

        for round in 1..=mu {
            let in_size = if round == 1 {
                (1u64 << mu) as f64
            } else {
                (1u64 << (mu - round + 2)) as f64
            };
            let out_size = in_size / 2.0;
            let pairs = (1u64 << (mu - round)) as f64;

            // --- Compute ---
            let cost = if round == 1 { &self.r1 } else { &self.rest };
            let compute = pairs * cost.cycles_per_pair / cfg.pes as f64;

            // --- Memory ---
            let mut read = 0f64;
            let mut write = 0f64;
            if round == 1 {
                read = stream(in_size, &self.round1_bytes);
                if self.has_eq {
                    // Built f_r is spilled for round 2 (§III-F: later rounds
                    // treat it as any other MLE fetched from off-chip).
                    write += in_size * ELEMENT_BYTES;
                }
            } else if !on_chip {
                read = if round == 2 {
                    stream(in_size, &self.round2_bytes)
                } else {
                    (0..n_unique).fold(0f64, |read, _| read + in_size * ELEMENT_BYTES)
                };
                let out_fits = n_unique as f64 * out_size <= cfg.scratch_words() as f64;
                if out_fits {
                    on_chip = true; // updated tables stay in the banks
                } else {
                    write += n_unique as f64 * out_size * ELEMENT_BYTES;
                }
            }
            let mem_cycles = mem.cycles_for_bytes(read + write);
            total_bytes += read + write;

            // --- Overheads ---
            let tiles = (in_size / cfg.bank_words as f64).ceil();
            let overhead = tiles * TILE_OVERHEAD_CYCLES + ROUND_DRAIN_CYCLES;

            let body = compute.max(mem_cycles);
            if mem_cycles > compute {
                mem_bound_cycles += body;
            }
            round_cycles.push(body + overhead);

            // --- Useful multiplier work (for utilization) ---
            useful_muls += pairs * cost.muls_per_pair;
            if round == 1 && self.has_eq {
                // Reserved lane multiplies f_r into each term's product.
                useful_muls += pairs * self.k as f64;
                // Build-MLE: one multiplication per generated entry.
                useful_muls += in_size;
            }
            if round >= 2 {
                // MLE Update: one multiplication per updated entry.
                useful_muls += n_unique as f64 * out_size;
            }
        }

        let total_cycles: f64 = round_cycles.iter().sum();
        let capacity = cfg.total_muls() as f64 * total_cycles;
        SumcheckReport {
            total_cycles,
            round_cycles,
            mem_bytes: total_bytes,
            memory_bound_fraction: mem_bound_cycles / total_cycles,
            utilization: (useful_muls / capacity).min(1.0),
        }
    }
}

/// Simulates one SumCheck of `profile` over `2^mu` entries: a
/// [`SumcheckPlan`] compiled for `cfg` and simulated once.
///
/// # Panics
///
/// Panics on degenerate configurations (`ees < 2`, `pls < 1`, `pes < 1`).
pub fn simulate_sumcheck(
    profile: &PolyProfile,
    mu: usize,
    cfg: &SumcheckUnitConfig,
    mem: &MemoryConfig,
) -> SumcheckReport {
    SumcheckPlan::new(profile, cfg.ees, cfg.pls, cfg.sparse_io).simulate(mu, cfg, mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PolyProfile;
    use zkphire_poly::{high_degree_gate, table1_gate};

    fn cfg() -> SumcheckUnitConfig {
        SumcheckUnitConfig {
            pes: 16,
            ees: 7,
            pls: 5,
            bank_words: 1 << 13,
            sparse_io: true,
        }
    }

    fn vanilla() -> PolyProfile {
        PolyProfile::from_gate(&table1_gate(20))
    }

    #[test]
    fn runtime_scales_with_problem_size() {
        let p = vanilla();
        let mem = MemoryConfig::new(1024.0);
        let small = simulate_sumcheck(&p, 18, &cfg(), &mem);
        let large = simulate_sumcheck(&p, 20, &cfg(), &mem);
        let ratio = large.total_cycles / small.total_cycles;
        assert!(ratio > 3.0 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn more_bandwidth_never_slower() {
        let p = vanilla();
        let mut last = f64::INFINITY;
        for bw in MemoryConfig::sweep_tiers() {
            let r = simulate_sumcheck(&p, 22, &cfg(), &MemoryConfig::new(bw));
            assert!(r.total_cycles <= last * 1.0001, "bw {bw}");
            last = r.total_cycles;
        }
    }

    #[test]
    fn low_bandwidth_is_memory_bound() {
        let p = vanilla();
        let r = simulate_sumcheck(&p, 22, &cfg(), &MemoryConfig::new(64.0));
        assert!(r.memory_bound_fraction > 0.9, "{}", r.memory_bound_fraction);
        let r_hi = simulate_sumcheck(&p, 22, &cfg(), &MemoryConfig::new(4096.0));
        assert!(r_hi.memory_bound_fraction < r.memory_bound_fraction);
    }

    #[test]
    fn more_pes_help_when_compute_bound() {
        let p = PolyProfile::from_gate(&high_degree_gate(24));
        let mem = MemoryConfig::new(4096.0);
        let base = simulate_sumcheck(&p, 22, &cfg(), &mem);
        let mut big = cfg();
        big.pes *= 2;
        let faster = simulate_sumcheck(&p, 22, &big, &mem);
        assert!(faster.total_cycles < base.total_cycles);
    }

    #[test]
    fn high_degree_costs_more_compute() {
        let mem = MemoryConfig::new(4096.0);
        let lo = simulate_sumcheck(
            &PolyProfile::from_gate(&high_degree_gate(4)),
            20,
            &cfg(),
            &mem,
        );
        let hi = simulate_sumcheck(
            &PolyProfile::from_gate(&high_degree_gate(28)),
            20,
            &cfg(),
            &mem,
        );
        assert!(hi.total_cycles > 2.0 * lo.total_cycles);
    }

    #[test]
    fn sparsity_reduces_round1_traffic() {
        // The vanilla gate (sparse selectors/witnesses) must move far less
        // than 32 B/entry in round 1.
        let p = vanilla();
        let n = (1u64 << 20) as f64;
        let dense_equivalent = p.unique_slots().len() as f64 * n * ELEMENT_BYTES;
        let r = simulate_sumcheck(&p, 20, &cfg(), &MemoryConfig::new(64.0));
        // Round-1 sparsity compression keeps the whole run within ~3x one
        // dense pass even though later rounds stream dense tables.
        assert!(r.mem_bytes < 3.0 * dense_equivalent);
    }

    #[test]
    fn utilization_is_moderate_like_paper() {
        // §VI-A1 reports ~0.4–0.5 mean utilization for sized-right designs.
        let p = vanilla();
        let small = SumcheckUnitConfig {
            pes: 4,
            ees: 2,
            pls: 5,
            bank_words: 1 << 12,
            sparse_io: true,
        };
        let r = simulate_sumcheck(&p, 22, &small, &MemoryConfig::new(1024.0));
        assert!(
            r.utilization > 0.1 && r.utilization < 0.95,
            "{}",
            r.utilization
        );
    }

    /// Every field of a report as bits, so two reports compare exactly.
    fn report_bits(r: &SumcheckReport) -> (u64, Vec<u64>, u64, u64, u64) {
        (
            r.total_cycles.to_bits(),
            r.round_cycles.iter().map(|c| c.to_bits()).collect(),
            r.mem_bytes.to_bits(),
            r.memory_bound_fraction.to_bits(),
            r.utilization.to_bits(),
        )
    }

    #[test]
    fn one_plan_reused_across_calls_matches_a_fresh_plan_per_call() {
        // The bank sizes run large to small, so a plan that carried the
        // on-chip state of one call into the next would stop traffic early.
        let profiles = [
            vanilla(),
            PolyProfile::from_gate(&table1_gate(22)),
            PolyProfile::from_gate(&high_degree_gate(16)),
        ];
        let mu = 16;
        for profile in &profiles {
            for (ees, pls) in [(2, 3), (4, 5), (7, 8)] {
                for sparse_io in [true, false] {
                    let plan = SumcheckPlan::new(profile, ees, pls, sparse_io);
                    for pes in [1, 4, 32] {
                        for bank_words in [1 << 15, 1 << 12, 1 << 10] {
                            for bw in MemoryConfig::sweep_tiers() {
                                let cfg = SumcheckUnitConfig {
                                    pes,
                                    ees,
                                    pls,
                                    bank_words,
                                    sparse_io,
                                };
                                let mem = MemoryConfig::new(bw);
                                let fresh = SumcheckPlan::new(profile, ees, pls, sparse_io);
                                assert_eq!(
                                    report_bits(&plan.simulate(mu, &cfg, &mem)),
                                    report_bits(&fresh.simulate(mu, &cfg, &mem)),
                                    "{} {cfg:?} at {bw} GB/s",
                                    profile.name
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "config does not match the plan")]
    fn plan_rejects_a_config_it_was_not_compiled_for() {
        let plan = SumcheckPlan::new(&vanilla(), 7, 5, true);
        let other = SumcheckUnitConfig { ees: 6, ..cfg() };
        plan.simulate(16, &other, &MemoryConfig::new(1024.0));
    }

    #[test]
    fn onchip_rounds_stop_traffic() {
        let p = vanilla();
        let mem = MemoryConfig::new(64.0);
        let r = simulate_sumcheck(&p, 16, &cfg(), &mem);
        // With 2^17-word scratch and 9 slots, tables fit within a few
        // rounds; trailing rounds must add no bytes. Compare against a
        // hypothetical all-off-chip traffic.
        let n = (1u64 << 16) as f64;
        let all_offchip = 9.0 * n * ELEMENT_BYTES * 4.0;
        assert!(r.mem_bytes < all_offchip);
        let _ = &mem;
    }
}
