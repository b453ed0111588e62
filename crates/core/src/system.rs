//! The full zkPHIRE system configuration with its area and power models
//! (paper §IV, Fig. 4, Table V) and its peak on-chip bandwidth (§IV-B6).
//!
//! Product-lane multipliers are *shared* with the Multifunction Forest
//! (§IV-B2): the SumCheck PEs contribute only update multipliers,
//! extension engines and lane control; the forest must provision enough
//! multipliers to cover the lanes (checked by
//! [`ZkphireConfig::forest_covers_lanes`]) — this is the paper's
//! "15% fewer multipliers at the same latency" mechanism.

use crate::forest::ForestConfig;
use crate::memory::MemoryConfig;
use crate::mle_combine::MleCombineConfig;
use crate::msm_unit::MsmUnitConfig;
use crate::permquot::PermQuotConfig;
use crate::sumcheck_unit::SumcheckUnitConfig;
use crate::tech::{self, PrimeMode, ELEMENT_BYTES, POINT_BYTES};

/// Fixed SRAM provisioned for PermQuotGen, MLE Combine and Forest buffers
/// (§IV-B6: "Smaller buffers (6 MB) serve ...").
const SMALL_MODULE_SRAM_MB: f64 = 18.0;

/// Calibrated controller/padding/misc area inside Table V's "Other"
/// bucket (see `tech.rs` for the calibration notes).
const OTHER_CTRL_MM2: f64 = 0.51;

/// A complete zkPHIRE design point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ZkphireConfig {
    /// Programmable SumCheck unit.
    pub sumcheck: SumcheckUnitConfig,
    /// MSM unit.
    pub msm: MsmUnitConfig,
    /// Multifunction Forest.
    pub forest: ForestConfig,
    /// Permutation Quotient Generator.
    pub permquot: PermQuotConfig,
    /// MLE Combine.
    pub combine: MleCombineConfig,
    /// Off-chip memory system.
    pub mem: MemoryConfig,
    /// Modular-multiplier flavour.
    pub prime: PrimeMode,
}

/// Per-module area breakdown (mm², 7nm) — the left plot of Fig. 11 and
/// Table V.
#[derive(Clone, Copy, Debug, Default)]
pub struct AreaBreakdown {
    /// MSM unit compute.
    pub msm: f64,
    /// Multifunction Forest compute.
    pub forest: f64,
    /// SumCheck unit compute (lanes shared with the forest).
    pub sumcheck: f64,
    /// PermQuotGen + MLE Combine + SHA3 + controllers.
    pub other: f64,
    /// All on-chip SRAM.
    pub sram: f64,
    /// Crossbars and shared bus.
    pub interconnect: f64,
    /// Memory PHYs.
    pub phy: f64,
}

impl AreaBreakdown {
    /// Total compute area (excludes SRAM, interconnect, PHYs).
    pub fn compute(&self) -> f64 {
        self.msm + self.forest + self.sumcheck + self.other
    }

    /// Total die area.
    pub fn total(&self) -> f64 {
        self.compute() + self.sram + self.interconnect + self.phy
    }
}

/// Per-module average power breakdown (W) — Table V.
#[derive(Clone, Copy, Debug, Default)]
pub struct PowerBreakdown {
    /// MSM unit.
    pub msm: f64,
    /// Multifunction Forest.
    pub forest: f64,
    /// SumCheck unit.
    pub sumcheck: f64,
    /// PermQuotGen + MLE Combine + SHA3.
    pub other: f64,
    /// SRAM.
    pub sram: f64,
    /// Interconnect.
    pub interconnect: f64,
    /// HBM.
    pub hbm: f64,
}

impl PowerBreakdown {
    /// Total average power.
    pub fn total(&self) -> f64 {
        self.msm
            + self.forest
            + self.sumcheck
            + self.other
            + self.sram
            + self.interconnect
            + self.hbm
    }
}

impl ZkphireConfig {
    /// The exemplar 294 mm² / 2 TB/s design of Table V: 32 MSM PEs, 80
    /// forest trees, 16 SumCheck PEs with 7 EEs and 5 PLs, fixed primes.
    pub fn exemplar() -> Self {
        Self {
            sumcheck: SumcheckUnitConfig {
                pes: 16,
                ees: 7,
                pls: 5,
                bank_words: 1 << 13,
                sparse_io: true,
            },
            msm: MsmUnitConfig {
                pes: 32,
                window_bits: 10,
                points_per_pe: 16384,
            },
            forest: ForestConfig { trees: 80 },
            permquot: PermQuotConfig {
                pes: 5,
                inverse_units: PermQuotConfig::PAPER_INVERSE_UNITS,
            },
            combine: MleCombineConfig::default(),
            mem: MemoryConfig::new(2048.0),
            prime: PrimeMode::Fixed,
        }
    }

    /// Whether the forest provisions enough multipliers to serve the
    /// SumCheck product lanes (§IV-B2's sharing constraint).
    pub fn forest_covers_lanes(&self) -> bool {
        self.forest.total_muls() >= self.sumcheck.shared_lane_muls()
    }

    /// Total SRAM in MB across all modules.
    pub fn sram_mb(&self) -> f64 {
        self.msm.sram_mb()
            + self.sumcheck.scratch_bytes() / (1024.0 * 1024.0)
            + SMALL_MODULE_SRAM_MB
    }

    /// Area model (Table V / Fig. 11 left).
    pub fn area(&self) -> AreaBreakdown {
        let msm = self.msm.area_mm2(self.prime);
        let forest = self.forest.area_mm2(self.prime);
        // Lanes live in the forest when covered; otherwise the deficit is
        // provisioned as extra multipliers charged to the SumCheck unit.
        let deficit = self
            .sumcheck
            .shared_lane_muls()
            .saturating_sub(self.forest.total_muls());
        let sumcheck = self.sumcheck.shared_pe_area_mm2(self.prime)
            + deficit as f64 * self.prime.modmul_255_mm2();
        let other = self.permquot.area_mm2(self.prime)
            + self.combine.area_mm2(self.prime)
            + tech::SHA3_MM2
            + OTHER_CTRL_MM2;
        let compute = msm + forest + sumcheck + other;
        AreaBreakdown {
            msm,
            forest,
            sumcheck,
            other,
            sram: self.sram_mb() / tech::SRAM_MB_PER_MM2,
            interconnect: compute * tech::INTERCONNECT_FRACTION,
            phy: self.mem.phy().1,
        }
    }

    /// Average power model (Table V).
    pub fn power(&self) -> PowerBreakdown {
        let area = self.area();
        PowerBreakdown {
            msm: self.msm.pes as f64 * tech::MSM_PE_WATTS,
            forest: self.forest.trees as f64 * tech::TREE_WATTS,
            sumcheck: self.sumcheck.pes as f64 * tech::SUMCHECK_PE_WATTS,
            other: tech::OTHER_WATTS,
            sram: self.sram_mb() * tech::SRAM_WATTS_PER_MB,
            interconnect: area.interconnect * tech::INTERCONNECT_WATTS_PER_MM2,
            hbm: self.mem.power_watts(),
        }
    }

    /// Peak aggregate port bandwidth (GB/s at the 1 GHz clock) the modules
    /// can demand of the on-chip interconnect — the quantity §IV-B6
    /// reports as "up to 19 TB/s" for the exemplar.
    ///
    /// Per module, ports × elements/cycle × element size:
    /// * SumCheck PEs stream 4 raw values in + 2 updated values out per MLE
    ///   pair slot;
    /// * each Forest tree consumes two operands per cycle;
    /// * each MSM PE ingests one (point, scalar) pair per cycle;
    /// * MLE Combine streams one element per multiplier;
    /// * PermQuotGen reads witness+σ and writes N/D/ϕ per PE.
    pub fn peak_onchip_bandwidth_gbps(&self) -> f64 {
        let sumcheck = self.sumcheck.pes as f64 * 6.0 * ELEMENT_BYTES;
        let forest = self.forest.trees as f64 * 2.0 * ELEMENT_BYTES;
        let msm = self.msm.pes as f64 * (POINT_BYTES + ELEMENT_BYTES);
        let combine = self.combine.muls as f64 * ELEMENT_BYTES;
        let permquot = self.permquot.pes as f64 * 6.0 * ELEMENT_BYTES;
        sumcheck + forest + msm + combine + permquot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exemplar_reproduces_table5_area() {
        let a = ZkphireConfig::exemplar().area();
        // Paper Table V: MSM 105.69, Forest 48.18, SumCheck 16.65,
        // Other 10.64, SRAM 27.55, Interconnect 26.42, HBM PHY 59.20,
        // total 294.32 mm². Allow a few percent of calibration slack.
        assert!((a.msm - 105.69).abs() / 105.69 < 0.03, "msm {}", a.msm);
        assert!(
            (a.forest - 48.18).abs() / 48.18 < 0.03,
            "forest {}",
            a.forest
        );
        assert!(
            (a.sumcheck - 16.65).abs() / 16.65 < 0.05,
            "sc {}",
            a.sumcheck
        );
        assert!((a.other - 10.64).abs() / 10.64 < 0.10, "other {}", a.other);
        assert!((a.interconnect - 26.42).abs() / 26.42 < 0.05);
        assert!((a.phy - 59.20).abs() < 0.1);
        assert!(
            (a.total() - 294.32).abs() / 294.32 < 0.05,
            "total {}",
            a.total()
        );
    }

    #[test]
    fn exemplar_reproduces_table5_power() {
        let p = ZkphireConfig::exemplar().power();
        assert!((p.msm - 58.99).abs() < 0.5);
        assert!((p.forest - 40.69).abs() < 0.5);
        assert!((p.hbm - 63.60).abs() < 0.5);
        // Total 202.28 W.
        assert!(
            (p.total() - 202.28).abs() / 202.28 < 0.05,
            "total {}",
            p.total()
        );
    }

    #[test]
    fn exemplar_peaks_near_19_tbps() {
        // §IV-B6: "the peak bandwidth requirement reaches 19 TB/s".
        let peak = ZkphireConfig::exemplar().peak_onchip_bandwidth_gbps();
        assert!(peak > 15_000.0 && peak < 23_000.0, "peak {peak} GB/s");
    }

    #[test]
    fn exemplar_forest_covers_sumcheck_lanes() {
        // 80 trees × 8 = 640 ≥ 16 PEs × 5 PLs × 6 = 480.
        assert!(ZkphireConfig::exemplar().forest_covers_lanes());
    }

    #[test]
    fn lane_deficit_charged_when_forest_small() {
        let mut cfg = ZkphireConfig::exemplar();
        cfg.forest = ForestConfig { trees: 10 };
        assert!(!cfg.forest_covers_lanes());
        let a = cfg.area();
        let covered = ZkphireConfig::exemplar().area();
        // SumCheck area grows to pay for the uncovered lane multipliers.
        assert!(a.sumcheck > covered.sumcheck);
    }

    #[test]
    fn fixed_primes_halve_multiplier_area() {
        let mut arb = ZkphireConfig::exemplar();
        arb.prime = PrimeMode::Arbitrary;
        let fixed = ZkphireConfig::exemplar().area();
        let arbitrary = arb.area();
        let ratio = arbitrary.compute() / fixed.compute();
        assert!(ratio > 1.5 && ratio < 2.2, "ratio {ratio}");
    }
}
