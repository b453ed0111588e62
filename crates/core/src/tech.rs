//! Technology constants: the paper's HLS/synthesis-derived component
//! areas and powers (TSMC 22nm, §V) and the standard scaling factors to
//! 7nm (×3.6 area, ×3.3 power) used by zkSpeed, SZKP and zkPHIRE alike.
//!
//! Where the paper reports only module-level totals (Table V), the
//! per-component constants below are calibrated so the exemplar
//! 294 mm² / 202 W design point reproduces that table; each calibrated
//! constant is marked. The design clock is 1 GHz (§V), so cycles equal
//! nanoseconds throughout the model.

/// Bytes per MLE element (255-bit padded to 32 B).
pub const ELEMENT_BYTES: f64 = 32.0;

/// Bytes per affine elliptic-curve point (2 × 381-bit padded to 48 B).
pub const POINT_BYTES: f64 = 96.0;

/// Area scale factor 22nm → 7nm (paper §V, after [65], [66]).
pub const AREA_SCALE_22_TO_7: f64 = 3.6;

/// Which modular-multiplier flavour a design uses (§V: fixed primes save
/// ~50% area and ~2× computational density).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrimeMode {
    /// Montgomery multipliers for arbitrary primes (zkSpeed-compatible).
    Arbitrary,
    /// Multipliers specialised to the BLS12-381 primes.
    Fixed,
}

impl PrimeMode {
    /// 255-bit modular multiplier area in mm² at 7nm.
    pub fn modmul_255_mm2(self) -> f64 {
        match self {
            // 0.478 / 0.264 mm² at 22nm (§V).
            PrimeMode::Arbitrary => 0.478 / AREA_SCALE_22_TO_7,
            PrimeMode::Fixed => 0.264 / AREA_SCALE_22_TO_7,
        }
    }

    /// 381-bit modular multiplier area in mm² at 7nm.
    pub fn modmul_381_mm2(self) -> f64 {
        match self {
            // 1.13 / 0.582 mm² at 22nm (§V).
            PrimeMode::Arbitrary => 1.13 / AREA_SCALE_22_TO_7,
            PrimeMode::Fixed => 0.582 / AREA_SCALE_22_TO_7,
        }
    }
}

/// Modular inverse unit area at 7nm (0.027 mm² at 22nm, §IV-B5).
pub const MODINV_MM2: f64 = 0.027 / AREA_SCALE_22_TO_7;

/// 381-bit multiplications (incl. squarings) per Jacobian mixed point
/// addition — the depth of a fully pipelined PADD core.
pub const PADD_MULS: f64 = 16.0;

/// Extension Engine area (adder/subtractor chains, registers, packing) at
/// 7nm. Calibrated: 16 SumCheck PEs with 7 EEs + 5 PLs ≈ 16.65 mm²
/// (Table V) once product-lane multipliers live in the Forest.
pub const EE_MM2: f64 = 0.08;

/// Product-lane control/datapath overhead (excluding shared multipliers).
/// Calibrated against Table V (see [`EE_MM2`]).
pub const PL_CTRL_MM2: f64 = 0.066;

/// Update multipliers per SumCheck PE (4 reads → 2 updated values/cycle).
pub const UPDATE_MULS_PER_PE: f64 = 2.0;

/// Per-tree overhead beyond its 8 multipliers (pipeline registers,
/// routing). Calibrated: 80 trees ≈ 48.18 mm² (Table V).
pub const TREE_OVERHEAD_MM2: f64 = 0.016;

/// Modular multipliers per Multifunction-Forest tree (Table V).
pub const MULS_PER_TREE: usize = 8;

/// Per-MSM-PE overhead beyond the PADD pipeline (bucket control, digit
/// decode). Calibrated: 32 MSM PEs ≈ 105.69 mm² (Table V).
pub const MSM_PE_OVERHEAD_MM2: f64 = 0.71;

/// SRAM density at 7nm in MB per mm². Calibrated from Table V's 27.55 mm²
/// against the §IV-B6 capacities (43 MB MSM + 6 MB SumCheck + 3 × 6 MB).
pub const SRAM_MB_PER_MM2: f64 = 2.43;

/// Interconnect area as a fraction of compute area (two 32×32 bit-sliced
/// crossbars + multi-channel shared bus). Calibrated: 26.42 mm² over
/// 181.15 mm² compute (Table V).
pub const INTERCONNECT_FRACTION: f64 = 0.146;

/// HBM2-class PHY: area (mm²) and peak bandwidth (GB/s) per PHY (§VI-B1,
/// after [2]).
pub const HBM2_PHY_MM2: f64 = 14.9;
/// Peak bandwidth served per HBM2-class PHY.
pub const HBM2_PHY_GBPS: f64 = 512.0;
/// HBM3 PHY area per PHY (Table V: 2 PHYs = 59.20 mm² at 2 TB/s).
pub const HBM3_PHY_MM2: f64 = 29.6;
/// Peak bandwidth served per HBM3 PHY.
pub const HBM3_PHY_GBPS: f64 = 1024.0;

/// SHA3 + padding unit area (OpenCores IP, §V). Calibrated within the
/// Table V "Other" bucket.
pub const SHA3_MM2: f64 = 0.6;

// --- Power (average W at 7nm, calibrated to Table V) ---

/// Average power per MSM PE (58.99 W / 32 PEs).
pub const MSM_PE_WATTS: f64 = 58.99 / 32.0;
/// Average power per Forest tree (40.69 W / 80 trees).
pub const TREE_WATTS: f64 = 40.69 / 80.0;
/// Average power per SumCheck PE (14.43 W / 16 PEs).
pub const SUMCHECK_PE_WATTS: f64 = 0.902;
/// "Other" modules' average power (PermQuotGen, MLE Combine, SHA3).
pub const OTHER_WATTS: f64 = 6.17;
/// SRAM average power per MB (3.56 W / ~67 MB).
pub const SRAM_WATTS_PER_MB: f64 = 0.053;
/// Interconnect power per mm² of interconnect (14.83 W / 26.42 mm²).
pub const INTERCONNECT_WATTS_PER_MM2: f64 = 0.561;
/// HBM power per TB/s of provisioned bandwidth (63.6 W / 2 TB/s).
pub const HBM_WATTS_PER_TBPS: f64 = 31.8;

/// Memory-PHY provisioning for a target bandwidth: `(phys, area_mm2)`.
///
/// DDR-class tiers (≤ 512 GB/s) use HBM2-class PHY area; ≥ 1 TB/s tiers
/// use HBM3 PHYs, matching the paper's Pareto methodology (§VI-B1).
pub fn phy_for_bandwidth(gbps: f64) -> (usize, f64) {
    if gbps <= HBM2_PHY_GBPS {
        (1, HBM2_PHY_MM2)
    } else if gbps <= 2.0 * HBM2_PHY_GBPS {
        (2, 2.0 * HBM2_PHY_MM2)
    } else {
        let phys = (gbps / HBM3_PHY_GBPS).ceil() as usize;
        (phys, phys as f64 * HBM3_PHY_MM2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modmul_areas_match_table9() {
        // Table IX: zkPHIRE modmul 0.073 / 0.162 mm² (fixed 255b / 381b).
        assert!((PrimeMode::Fixed.modmul_255_mm2() - 0.073).abs() < 0.002);
        assert!((PrimeMode::Fixed.modmul_381_mm2() - 0.162).abs() < 0.002);
        // zkSpeed's arbitrary-prime multipliers: 0.133 / 0.314.
        assert!((PrimeMode::Arbitrary.modmul_255_mm2() - 0.133).abs() < 0.002);
        assert!((PrimeMode::Arbitrary.modmul_381_mm2() - 0.314).abs() < 0.002);
    }

    #[test]
    fn hbm3_phy_matches_table5() {
        let (phys, area) = phy_for_bandwidth(2048.0);
        assert_eq!(phys, 2);
        assert!((area - 59.2).abs() < 0.01);
    }

    #[test]
    fn ddr_tier_uses_small_phy() {
        let (phys, area) = phy_for_bandwidth(256.0);
        assert_eq!(phys, 1);
        assert!((area - HBM2_PHY_MM2).abs() < 1e-9);
    }
}
