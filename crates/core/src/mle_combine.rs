//! The MLE Combine module (paper §IV-B4): fully pipelined element-wise
//! operations and dot products over up to six locally buffered MLEs, used
//! before and after the OpenCheck in Polynomial Opening.

use crate::memory::MemoryConfig;
use crate::tech::{PrimeMode, ELEMENT_BYTES};

/// Local SRAM input buffers (§IV-B4: "up to 6 local SRAM buffers").
pub const COMBINE_BUFFERS: usize = 6;

/// MLE Combine configuration (the unit itself is fixed-shape; the knob is
/// how many multipliers serve the element-wise pipeline).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MleCombineConfig {
    /// Multipliers in the element-wise pipeline.
    pub muls: usize,
}

impl Default for MleCombineConfig {
    /// 64 multipliers: enough to keep the combine memory-bound at HBM3
    /// bandwidth (64 elements/cycle at 2 TB/s), sized within Table V's
    /// "Other" bucket.
    fn default() -> Self {
        Self { muls: 64 }
    }
}

impl MleCombineConfig {
    /// Compute area (mm², 7nm).
    pub fn area_mm2(&self, prime: PrimeMode) -> f64 {
        self.muls as f64 * prime.modmul_255_mm2() + 0.5
    }

    /// Cycles to combine `inputs` size-`n` MLEs into one (`Σ ζ_i f_i`):
    /// passes of up to [`COMBINE_BUFFERS`] input streams; the multiplier
    /// pool processes `muls / 6` output elements per cycle, and each pass
    /// beyond the first re-streams the partial result.
    pub fn combine_cycles(&self, inputs: usize, n: u64, mem: &MemoryConfig) -> f64 {
        let n = n as f64;
        let passes = inputs.div_ceil(COMBINE_BUFFERS) as f64;
        let elems_per_cycle = (self.muls as f64 / COMBINE_BUFFERS as f64).max(1.0);
        let compute = passes * n / elems_per_cycle;
        let mem_bytes = (inputs as f64 + 2.0 * (passes - 1.0) + 1.0) * n * ELEMENT_BYTES;
        compute.max(mem.cycles_for_bytes(mem_bytes)) + 64.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_grow_with_inputs() {
        let cfg = MleCombineConfig::default();
        let mem = MemoryConfig::new(1_000_000.0);
        let one_pass = cfg.combine_cycles(6, 1 << 20, &mem);
        let two_pass = cfg.combine_cycles(7, 1 << 20, &mem);
        assert!(two_pass > 1.8 * one_pass);
    }

    #[test]
    fn memory_bound_at_hbm_rate() {
        // At 2 TB/s the default unit must not be compute-limited.
        let cfg = MleCombineConfig::default();
        let real = cfg.combine_cycles(27, 1 << 24, &MemoryConfig::new(2048.0));
        let infinite_compute =
            MleCombineConfig { muls: 4096 }.combine_cycles(27, 1 << 24, &MemoryConfig::new(2048.0));
        assert!((real - infinite_compute).abs() / real < 0.05);
    }

    #[test]
    fn memory_bound_at_low_bandwidth() {
        let cfg = MleCombineConfig::default();
        let slow = cfg.combine_cycles(6, 1 << 20, &MemoryConfig::new(64.0));
        let fast = cfg.combine_cycles(6, 1 << 20, &MemoryConfig::new(4096.0));
        assert!(slow > 2.0 * fast);
    }
}
