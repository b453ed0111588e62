//! Full-protocol scheduler: composes the per-unit models into the five
//! HyperPlonk steps (paper §IV-A) and implements the Masked-ZeroCheck
//! optimization — overlapping the Gate Identity ZeroCheck under the Wire
//! Identity MSMs, which dominate runtime and have low bandwidth pressure.

use crate::msm_unit::{simulate_msm, ScalarProfile};
use crate::permquot::simulate_permquot;
use crate::profile::PolyProfile;
use crate::sumcheck_unit::simulate_sumcheck;
use crate::system::ZkphireConfig;
use zkphire_poly::table1_gate;

/// Which arithmetization the protocol model simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Gate {
    /// Vanilla Plonk gates (Table I rows 20/21).
    Vanilla,
    /// Jellyfish gates (rows 22/23).
    Jellyfish,
}

impl Gate {
    /// Selector and witness columns `(s, w)` of the gate system, as the
    /// functional prover's `GateSystem` counts them.
    fn columns(self) -> (usize, usize) {
        match self {
            Gate::Vanilla => (5, 3),
            Gate::Jellyfish => (13, 5),
        }
    }

    /// Witness columns (→ sparse witness MSM count).
    pub fn witness_columns(self) -> usize {
        self.columns().1
    }

    /// Gate-identity ZeroCheck profile.
    pub fn zerocheck_profile(self) -> PolyProfile {
        PolyProfile::from_gate(&table1_gate(match self {
            Gate::Vanilla => 20,
            Gate::Jellyfish => 22,
        }))
    }

    /// PermCheck profile.
    pub fn permcheck_profile(self) -> PolyProfile {
        PolyProfile::from_gate(&table1_gate(match self {
            Gate::Vanilla => 21,
            Gate::Jellyfish => 23,
        }))
    }

    /// OpenCheck profile (Table I row 24 for both systems).
    pub fn opencheck_profile(self) -> PolyProfile {
        PolyProfile::from_gate(&table1_gate(24))
    }

    /// Batch-evaluation claims the protocol accumulates (selectors and
    /// witnesses at the gate point; π/p/ϕ, witnesses and σ at the
    /// PermCheck point; the root opening).
    pub fn batch_eval_claims(self) -> usize {
        let (s, w) = self.columns();
        (s + w) + (4 + 2 * w) + 1
    }

    /// Distinct committed polynomials entering the final MLE Combine.
    pub fn distinct_polys(self) -> usize {
        let (s, w) = self.columns();
        s + 2 * w + 4
    }
}

/// Per-step runtimes in milliseconds (the Fig. 11/12 categories).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProtocolReport {
    /// Step 1: witness-commitment sparse MSMs.
    pub witness_msm_ms: f64,
    /// Step 3: dense MSMs committing ϕ, π, p1, p2.
    pub wiring_msm_ms: f64,
    /// Step 5: the batched-opening MSMs (combined poly + quotients).
    pub polyopen_msm_ms: f64,
    /// Step 2: Gate Identity ZeroCheck.
    pub zerocheck_ms: f64,
    /// Step 3: PermCheck SumCheck.
    pub permcheck_ms: f64,
    /// Step 5: OpenCheck SumCheck.
    pub opencheck_ms: f64,
    /// Step 3: N/D/ϕ generation (PermQuotGen) + π build (Forest).
    pub permquot_ms: f64,
    /// Step 4: Batch Evaluations on the Forest.
    pub batch_eval_ms: f64,
    /// Step 5: MLE Combine.
    pub combine_ms: f64,
    /// Whether Masked ZeroCheck was applied.
    pub masked: bool,
    /// End-to-end prover latency.
    pub total_ms: f64,
}

impl ProtocolReport {
    /// All MSM time.
    pub fn msm_ms(&self) -> f64 {
        self.witness_msm_ms + self.wiring_msm_ms + self.polyopen_msm_ms
    }

    /// All SumCheck time.
    pub fn sumcheck_ms(&self) -> f64 {
        self.zerocheck_ms + self.permcheck_ms + self.opencheck_ms
    }

    /// Everything else (PermQuotGen, Batch Evals, Combine).
    pub fn other_ms(&self) -> f64 {
        self.permquot_ms + self.batch_eval_ms + self.combine_ms
    }
}

/// Simulates the full HyperPlonk prover on a zkPHIRE design point for a
/// `2^mu`-gate circuit.
pub fn simulate_protocol(
    cfg: &ZkphireConfig,
    gate: Gate,
    mu: usize,
    masking: bool,
) -> ProtocolReport {
    let n = 1u64 << mu;
    let w = gate.witness_columns();
    let to_ms = |cycles: f64| cycles / 1e6;

    // Step 1 — Witness Commitments: W sparse MSMs, run back to back on
    // the MSM unit.
    let sparse = simulate_msm(n, ScalarProfile::SparseWitness, &cfg.msm, &cfg.mem);
    let witness_msm_ms = to_ms(w as f64 * sparse.cycles);

    // Step 2 — Gate Identity ZeroCheck on the programmable unit.
    let zc = simulate_sumcheck(&gate.zerocheck_profile(), mu, &cfg.sumcheck, &cfg.mem);
    let zerocheck_ms = zc.ms();

    // Step 3 — Wire Identity.
    let pq = simulate_permquot(mu, w, &cfg.permquot, &cfg.mem);
    let pi_build = cfg.forest.tree_product_cycles(n, &cfg.mem);
    let permquot_ms = to_ms(pq.cycles + pi_build);
    let dense = simulate_msm(n, ScalarProfile::Dense, &cfg.msm, &cfg.mem);
    // §IV-B3's dense-MSM count: ϕ and π plus the p1/p2 pair batched into
    // one streaming pass, as in zkSpeed.
    let wiring_msm_ms = to_ms(3.0 * dense.cycles);
    let pc = simulate_sumcheck(&gate.permcheck_profile(), mu, &cfg.sumcheck, &cfg.mem);
    let permcheck_ms = pc.ms();

    // Step 4 — Batch Evaluations on the Multifunction Forest.
    let batch_eval_ms = to_ms(
        cfg.forest
            .batch_eval_cycles(gate.batch_eval_claims(), n, &cfg.mem),
    );

    // Step 5 — Polynomial Opening: OpenCheck, MLE Combine, batched opening
    // (one dense MSM for the combined polynomial's quotients at each
    // level sums to ≈ one more dense MSM).
    let oc = simulate_sumcheck(&gate.opencheck_profile(), mu, &cfg.sumcheck, &cfg.mem);
    let opencheck_ms = oc.ms();
    let combine_ms = to_ms(
        cfg.combine
            .combine_cycles(gate.distinct_polys(), n, &cfg.mem),
    );
    let polyopen_msm_ms = to_ms(2.0 * dense.cycles);

    // Composition: Masked ZeroCheck overlaps the Gate Identity ZeroCheck
    // under Wire Identity's MSM phase (§IV-A "Masking ZeroCheck").
    let serial_tail = permcheck_ms + batch_eval_ms + opencheck_ms + combine_ms + polyopen_msm_ms;
    let total_ms = if masking {
        witness_msm_ms + permquot_ms + zerocheck_ms.max(wiring_msm_ms) + serial_tail
    } else {
        witness_msm_ms + zerocheck_ms + permquot_ms + wiring_msm_ms + serial_tail
    };

    ProtocolReport {
        witness_msm_ms,
        wiring_msm_ms,
        polyopen_msm_ms,
        zerocheck_ms,
        permcheck_ms,
        opencheck_ms,
        permquot_ms,
        batch_eval_ms,
        combine_ms,
        masked: masking,
        total_ms,
    }
}

/// Protocol runtime for an arbitrary custom gate family (the Fig. 14
/// sweep): the ZeroCheck runs over `profile` instead of the standard
/// gate, everything else follows the Vanilla pipeline with `profile`'s
/// witness count.
pub fn simulate_protocol_with_gate(
    cfg: &ZkphireConfig,
    profile: &PolyProfile,
    witness_columns: usize,
    mu: usize,
    masking: bool,
) -> ProtocolReport {
    let base = simulate_protocol(cfg, Gate::Vanilla, mu, masking);
    let zc = simulate_sumcheck(profile, mu, &cfg.sumcheck, &cfg.mem);
    let n = 1u64 << mu;
    let sparse = simulate_msm(n, ScalarProfile::SparseWitness, &cfg.msm, &cfg.mem);
    let witness_msm_ms = witness_columns as f64 * sparse.cycles / 1e6;
    let mut report = base;
    report.zerocheck_ms = zc.ms();
    report.witness_msm_ms = witness_msm_ms;
    let serial_tail = report.permcheck_ms
        + report.batch_eval_ms
        + report.opencheck_ms
        + report.combine_ms
        + report.polyopen_msm_ms;
    report.total_ms = if masking {
        witness_msm_ms
            + report.permquot_ms
            + report.zerocheck_ms.max(report.wiring_msm_ms)
            + serial_tail
    } else {
        witness_msm_ms
            + report.zerocheck_ms
            + report.permquot_ms
            + report.wiring_msm_ms
            + serial_tail
    };
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkphire_poly::high_degree_gate;

    #[test]
    fn masking_never_hurts() {
        let cfg = ZkphireConfig::exemplar();
        for gate in [Gate::Vanilla, Gate::Jellyfish] {
            let plain = simulate_protocol(&cfg, gate, 20, false);
            let masked = simulate_protocol(&cfg, gate, 20, true);
            assert!(masked.total_ms <= plain.total_ms);
        }
    }

    #[test]
    fn runtime_scales_with_gates() {
        let cfg = ZkphireConfig::exemplar();
        let small = simulate_protocol(&cfg, Gate::Jellyfish, 18, true);
        let large = simulate_protocol(&cfg, Gate::Jellyfish, 21, true);
        let ratio = large.total_ms / small.total_ms;
        assert!(ratio > 5.0 && ratio < 10.0, "ratio {ratio}");
    }

    #[test]
    fn msm_dominates_at_exemplar_like_paper() {
        // Fig. 12b: MSM-heavy steps dominate zkPHIRE runtime.
        let cfg = ZkphireConfig::exemplar();
        let r = simulate_protocol(&cfg, Gate::Jellyfish, 24, false);
        assert!(
            r.msm_ms() > r.sumcheck_ms(),
            "msm {} sc {}",
            r.msm_ms(),
            r.sumcheck_ms()
        );
    }

    #[test]
    fn jellyfish_workload_reduction_wins() {
        // The same application: 2^24 Vanilla vs 2^19 Jellyfish (Rollup 25,
        // Table VIII) — Jellyfish must be far faster despite the more
        // complex gate.
        let cfg = ZkphireConfig::exemplar();
        let vanilla = simulate_protocol(&cfg, Gate::Vanilla, 24, true);
        let jellyfish = simulate_protocol(&cfg, Gate::Jellyfish, 19, true);
        let speedup = vanilla.total_ms / jellyfish.total_ms;
        assert!(speedup > 5.0, "speedup {speedup}");
    }

    #[test]
    fn high_degree_gate_shifts_bottleneck_to_sumcheck() {
        // Fig. 14: as gate degree grows at fixed witness count, SumCheck
        // overtakes MSM.
        let cfg = ZkphireConfig::exemplar();
        let lo = simulate_protocol_with_gate(
            &cfg,
            &PolyProfile::from_gate(&high_degree_gate(3)),
            2,
            22,
            false,
        );
        let hi = simulate_protocol_with_gate(
            &cfg,
            &PolyProfile::from_gate(&high_degree_gate(30)),
            2,
            22,
            false,
        );
        assert!(hi.total_ms > lo.total_ms);
        assert!(hi.sumcheck_ms() / hi.total_ms > lo.sumcheck_ms() / lo.total_ms);
    }

    #[test]
    fn claim_counts_match_functional_protocol() {
        // Mirror of zkphire-hyperplonk's claim_layout sizes.
        assert_eq!(Gate::Vanilla.batch_eval_claims(), 19);
        assert_eq!(Gate::Jellyfish.batch_eval_claims(), 33);
        assert_eq!(Gate::Vanilla.distinct_polys(), 15);
        assert_eq!(Gate::Jellyfish.distinct_polys(), 27);
    }
}
