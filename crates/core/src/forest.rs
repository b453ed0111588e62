//! The Multifunction Forest (paper §IV-B2): a pool of binary-tree
//! multiplier units shared between tree-shaped kernels (product-MLE
//! construction, MLE evaluation, Build-MLE) and the SumCheck unit's
//! product lanes — the resource sharing that saves 15% of zkSpeed's
//! multipliers at equal latency.

use crate::memory::MemoryConfig;
use crate::tech::{self, PrimeMode, ELEMENT_BYTES};

/// Multifunction Forest configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ForestConfig {
    /// Number of tree units.
    pub trees: usize,
}

impl ForestConfig {
    /// Modular multipliers in the forest.
    pub fn total_muls(&self) -> usize {
        self.trees * tech::MULS_PER_TREE
    }

    /// Compute area (mm², 7nm).
    pub fn area_mm2(&self, prime: PrimeMode) -> f64 {
        self.trees as f64
            * (tech::MULS_PER_TREE as f64 * prime.modmul_255_mm2() + tech::TREE_OVERHEAD_MM2)
    }

    /// Cycles to build a product MLE (the grand-product tree π) over `n`
    /// leaves: `n - 1` multiplications streamed through the tree pool.
    pub fn tree_product_cycles(&self, n: u64, mem: &MemoryConfig) -> f64 {
        let n = n as f64;
        let compute = n / self.total_muls() as f64 + (n.log2().ceil() + 8.0);
        let mem_cycles = mem.cycles_for_bytes(2.0 * n * ELEMENT_BYTES); // read ϕ, write π/p1/p2 stream
        compute.max(mem_cycles)
    }

    /// Cycles for the Batch Evaluations step: `claims` MLE evaluations of
    /// size-`n` tables (paper §IV-A), pipelined through the forest.
    pub fn batch_eval_cycles(&self, claims: usize, n: u64, mem: &MemoryConfig) -> f64 {
        let n = n as f64;
        let k = claims as f64;
        let compute = k * n / self.total_muls() as f64 + n.log2().ceil() + 8.0;
        let mem_cycles = mem.cycles_for_bytes(k * n * ELEMENT_BYTES);
        compute.max(mem_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: ForestConfig = ForestConfig { trees: 80 };

    #[test]
    fn exemplar_area_matches_table5() {
        let area = CFG.area_mm2(PrimeMode::Fixed);
        assert!((area - 48.18).abs() < 1.0, "area {area}");
    }

    #[test]
    fn product_tree_scales_linearly() {
        let mem = MemoryConfig::new(2048.0);
        let a = CFG.tree_product_cycles(1 << 20, &mem);
        let b = CFG.tree_product_cycles(1 << 22, &mem);
        assert!(b / a > 3.5 && b / a < 4.5);
    }

    #[test]
    fn batch_eval_scales_with_claims() {
        let mem = MemoryConfig::new(4096.0);
        let few = CFG.batch_eval_cycles(5, 1 << 22, &mem);
        let many = CFG.batch_eval_cycles(30, 1 << 22, &mem);
        assert!(many > 4.0 * few);
    }

    #[test]
    fn more_trees_help_compute_bound_kernels() {
        let mem = MemoryConfig::new(1_000_000.0);
        let small = ForestConfig { trees: 10 }.tree_product_cycles(1 << 22, &mem);
        let large = ForestConfig { trees: 160 }.tree_product_cycles(1 << 22, &mem);
        assert!(large < small / 4.0);
    }
}
