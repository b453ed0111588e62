//! Integration: full-system model invariants — protocol composition,
//! masking, design-space exploration and the paper's headline relations.

use zkphire_core::protocol::{simulate_protocol, Gate};
use zkphire_core::system::ZkphireConfig;
use zkphire_core::tech::PrimeMode;
use zkphire_core::workloads::all_workloads;
use zkphire_dse::{full_system_dse, DseSpace};

#[test]
fn protocol_total_equals_sum_of_steps_unmasked() {
    let cfg = ZkphireConfig::exemplar();
    let r = simulate_protocol(&cfg, Gate::Jellyfish, 20, false);
    let sum = r.msm_ms() + r.sumcheck_ms() + r.other_ms();
    assert!(
        (r.total_ms - sum).abs() / sum < 1e-9,
        "{} vs {sum}",
        r.total_ms
    );
}

#[test]
fn masking_saves_at_most_the_zerocheck() {
    let cfg = ZkphireConfig::exemplar();
    for mu in [16usize, 20, 24] {
        let plain = simulate_protocol(&cfg, Gate::Jellyfish, mu, false);
        let masked = simulate_protocol(&cfg, Gate::Jellyfish, mu, true);
        let saving = plain.total_ms - masked.total_ms;
        assert!(saving >= 0.0);
        assert!(saving <= plain.zerocheck_ms + 1e-9, "mu {mu}");
    }
}

#[test]
fn jellyfish_beats_vanilla_at_iso_application() {
    // Table VIII's premise at every published workload pair.
    let cfg = ZkphireConfig::exemplar();
    for w in all_workloads() {
        if let (Some(v), Some(j)) = (w.vanilla_log2, w.jellyfish_log2) {
            if v > 26 {
                continue; // keep the test fast; large sizes covered below
            }
            let vanilla = simulate_protocol(&cfg, Gate::Vanilla, v, true).total_ms;
            let jellyfish = simulate_protocol(&cfg, Gate::Jellyfish, j, true).total_ms;
            assert!(
                jellyfish < vanilla,
                "{}: jellyfish {jellyfish} >= vanilla {vanilla}",
                w.name
            );
        }
    }
}

#[test]
fn scales_to_2_pow_30_constraints() {
    // The paper's scalability claim: proofs for 2^30 nominal gates.
    let cfg = ZkphireConfig::exemplar();
    let r = simulate_protocol(&cfg, Gate::Vanilla, 30, true);
    assert!(r.total_ms.is_finite() && r.total_ms > 0.0);
    // Roughly linear from 2^24 (within 2x of perfect scaling).
    let base = simulate_protocol(&cfg, Gate::Vanilla, 24, true);
    let ratio = r.total_ms / base.total_ms;
    assert!(ratio > 32.0 && ratio < 128.0, "ratio {ratio}");
}

#[test]
fn speedup_vs_cpu_anchor_is_three_orders() {
    // Table VII's headline: ~1000-1800x per workload against the paper's
    // measured CPU runtimes.
    let cfg = ZkphireConfig::exemplar();
    for w in all_workloads() {
        let (Some(j), Some(cpu)) = (w.jellyfish_log2, w.cpu_jellyfish_ms) else {
            continue;
        };
        let ours = simulate_protocol(&cfg, Gate::Jellyfish, j, true).total_ms;
        let speedup = cpu / ours;
        assert!(
            speedup > 300.0 && speedup < 5000.0,
            "{}: speedup {speedup}",
            w.name
        );
    }
}

#[test]
fn dse_fronts_dominate_exemplar_neighbourhood() {
    // Any Pareto point must not be dominated by the exemplar.
    let dse = full_system_dse(
        &DseSpace::quick(),
        Gate::Jellyfish,
        20,
        true,
        PrimeMode::Fixed,
    );
    let ex = ZkphireConfig::exemplar();
    let ex_runtime = simulate_protocol(&ex, Gate::Jellyfish, 20, true).total_ms;
    let ex_area = ex.area().total();
    for front in &dse.tier_fronts {
        for p in front {
            let dominated = p.runtime_ms > ex_runtime && p.area_mm2 > ex_area
                // same tier only — cross-tier PHY areas differ
                && (p.config.mem.bandwidth_gbps - 2048.0).abs() < 1.0;
            assert!(!dominated, "front point dominated by exemplar");
        }
    }
}

#[test]
fn global_front_subset_of_tier_fronts() {
    let dse = full_system_dse(
        &DseSpace::quick(),
        Gate::Vanilla,
        18,
        false,
        PrimeMode::Fixed,
    );
    for g in &dse.global_front {
        let found = dse.tier_fronts.iter().flatten().any(|p| {
            (p.runtime_ms - g.runtime_ms).abs() < 1e-12 && (p.area_mm2 - g.area_mm2).abs() < 1e-12
        });
        assert!(found, "global point missing from tier fronts");
    }
}

#[test]
fn higher_degree_gate_system_costs_more_sumcheck_share() {
    let cfg = ZkphireConfig::exemplar();
    let vanilla = simulate_protocol(&cfg, Gate::Vanilla, 22, false);
    let jellyfish = simulate_protocol(&cfg, Gate::Jellyfish, 22, false);
    // At equal gate count, the degree-7 Jellyfish composite spends more
    // absolute time in SumCheck than the degree-4 Vanilla one.
    assert!(jellyfish.sumcheck_ms() > vanilla.sumcheck_ms());
}

/// Every tier-front and global-front point of the quick space, hashed by
/// `dse_fronts_hash` per `(gate, masking)`. The values were generated by
/// the sweep that sorted with a stable `(runtime, area)` comparator and
/// simulated each SumCheck anew on every call, so any change in which
/// points reach a front, their order or their figures shows here.
#[test]
fn quick_sweep_fronts_are_bit_identical_to_the_pinned_sweep() {
    let mut got = Vec::new();
    for gate in [Gate::Jellyfish, Gate::Vanilla] {
        for masking in [true, false] {
            let dse = full_system_dse(&DseSpace::quick(), gate, 20, masking, PrimeMode::Arbitrary);
            got.push((gate, masking, zkphire_tests::dse_fronts_hash(&dse)));
        }
    }
    let want = [
        (Gate::Jellyfish, true, 0xc0d4_ef79_5aa2_b01e),
        (Gate::Jellyfish, false, 0x5f01_f7ea_dea7_4543),
        (Gate::Vanilla, true, 0xc1ff_ae2e_ec1e_6415),
        (Gate::Vanilla, false, 0xa678_d8c5_21c6_cfc7),
    ];
    assert_eq!(got, want);
}

/// `dse_fronts_hash` of `space` at µ 20 for every gate × masking × prime,
/// in that loop order.
fn fronts_hashes(space: &DseSpace) -> Vec<u64> {
    let mut got = Vec::new();
    for gate in [Gate::Jellyfish, Gate::Vanilla] {
        for masking in [true, false] {
            for prime in [PrimeMode::Fixed, PrimeMode::Arbitrary] {
                let dse = full_system_dse(space, gate, 20, masking, prime);
                got.push(zkphire_tests::dse_fronts_hash(&dse));
            }
        }
    }
    got
}

/// The benchmark's `model_sweep` space: Table III with two MSM window
/// sizes and one points-per-PE value. The values were generated by the
/// sweep that built and sorted the whole cross-product of every tier.
#[test]
fn thinned_sweep_fronts_are_bit_identical_to_the_pinned_sweep() {
    let space = DseSpace {
        windows: vec![8, 10],
        points_per_pe: vec![1 << 12],
        ..DseSpace::default()
    };
    let want = [
        0x53b3_f5e8_9b6b_c25b, // Jellyfish, masked, Fixed
        0x2a56_ce77_3eae_17b6, // Jellyfish, masked, Arbitrary
        0xde77_19d2_aef8_41a0, // Jellyfish, unmasked, Fixed
        0x6b73_2408_4f96_f908, // Jellyfish, unmasked, Arbitrary
        0xf3a1_09b7_d9eb_9255, // Vanilla, masked, Fixed
        0x5412_ae29_1603_9274, // Vanilla, masked, Arbitrary
        0x2d60_49be_a80a_83cd, // Vanilla, unmasked, Fixed
        0xd2cd_e1bd_8397_ad33, // Vanilla, unmasked, Arbitrary
    ];
    assert_eq!(fronts_hashes(&space), want);
}

/// The whole Table III space (Fig. 10's sweep). The values were generated
/// by the sweep that built and sorted the whole cross-product of every
/// tier.
#[test]
fn full_sweep_fronts_are_bit_identical_to_the_pinned_sweep() {
    let want = [
        0x4ebe_70e5_d95e_7140, // Jellyfish, masked, Fixed
        0xc8bd_edfe_729e_dff3, // Jellyfish, masked, Arbitrary
        0x4f23_2946_c761_b3f9, // Jellyfish, unmasked, Fixed
        0x638c_5a9a_5572_788f, // Jellyfish, unmasked, Arbitrary
        0x2c04_fa9e_f240_07c2, // Vanilla, masked, Fixed
        0x31b4_975e_d949_60fd, // Vanilla, masked, Arbitrary
        0x0d1c_8a77_efde_e3e7, // Vanilla, unmasked, Fixed
        0xe02d_ef8b_32d9_46f2, // Vanilla, unmasked, Arbitrary
    ];
    assert_eq!(fronts_hashes(&DseSpace::default()), want);
}
