//! Integration: the hardware model and the functional prover must agree
//! on polynomial structure and operation counts — they are driven by the
//! same composite IR, and this suite pins that contract.

use zkphire_core::memory::MemoryConfig;
use zkphire_core::profile::PolyProfile;
use zkphire_core::protocol::Gate;
use zkphire_core::sched::{node_count, schedule};
use zkphire_core::sumcheck_unit::{simulate_sumcheck, SumcheckUnitConfig};
use zkphire_hyperplonk::GateSystem;
use zkphire_poly::{high_degree_gate, table1_gate, table1_gates};
use zkphire_sumcheck::count_ops;

fn test_config() -> SumcheckUnitConfig {
    SumcheckUnitConfig {
        pes: 8,
        ees: 4,
        pls: 5,
        bank_words: 1 << 12,
        sparse_io: true,
    }
}

#[test]
fn profile_mul_counts_match_functional_oracle() {
    // PolyProfile::total_muls == sumcheck::count_ops totals (+ Build-MLE).
    for gate in table1_gates() {
        let profile = PolyProfile::from_gate(&gate);
        for mu in [4usize, 8, 12] {
            let ops = count_ops(&gate.poly, mu);
            let mut expected = ops.total_muls() as f64;
            if profile.eq_slot.is_some() {
                expected += (1u64 << mu) as f64;
            }
            assert!(
                (profile.total_muls(mu) - expected).abs() < 1.0,
                "gate {} mu {mu}: profile {} vs oracle {expected}",
                gate.id,
                profile.total_muls(mu)
            );
        }
    }
}

#[test]
fn protocol_column_counts_match_the_functional_prover() {
    // The model's gate systems have the prover's selector and witness
    // columns `(s, w)`, and Table I's rows have the slots those imply:
    // the gate row binds `s + w` columns plus `f_r`, the perm row π, p1,
    // p2, ϕ, `W` numerators, `W` denominators and `f_r`.
    for (gate, system, (gate_row, perm_row)) in [
        (Gate::Vanilla, GateSystem::Vanilla, (20, 21)),
        (Gate::Jellyfish, GateSystem::Jellyfish, (22, 23)),
    ] {
        let (s, w) = (system.num_selectors(), system.num_witness_columns());
        assert_eq!(gate.witness_columns(), w, "{gate:?}");
        assert_eq!(
            gate.batch_eval_claims(),
            (s + w) + (4 + 2 * w) + 1,
            "{gate:?}"
        );
        assert_eq!(gate.distinct_polys(), s + 2 * w + 4, "{gate:?}");
        assert_eq!(table1_gate(gate_row).poly.num_mles() - 1, s + w, "{gate:?}");
        assert_eq!(table1_gate(perm_row).poly.num_mles(), 5 + 2 * w, "{gate:?}");
    }
}

#[test]
fn simulator_handles_every_gate() {
    let cfg = test_config();
    let mem = MemoryConfig::new(512.0);
    for gate in table1_gates() {
        let profile = PolyProfile::from_gate(&gate);
        let r = simulate_sumcheck(&profile, 16, &cfg, &mem);
        assert!(r.total_cycles > 0.0, "gate {}", gate.id);
        assert!(
            r.utilization > 0.0 && r.utilization <= 1.0,
            "gate {}",
            gate.id
        );
        assert_eq!(r.round_cycles.len(), 16);
    }
}

#[test]
fn simulator_is_monotone_in_problem_size() {
    let cfg = test_config();
    let mem = MemoryConfig::new(1024.0);
    for gate_id in [0usize, 20, 22] {
        let profile = PolyProfile::from_gate(&table1_gates()[gate_id]);
        let mut last = 0.0;
        for mu in 10..=20 {
            let t = simulate_sumcheck(&profile, mu, &cfg, &mem).total_cycles;
            assert!(t > last, "gate {gate_id} mu {mu}");
            last = t;
        }
    }
}

#[test]
fn schedule_covers_all_factors_for_all_gates() {
    for gate in table1_gates() {
        let profile = PolyProfile::from_gate(&gate);
        for ees in 2..=7 {
            let plan = schedule(&profile, ees, false);
            for (term, term_plan) in profile.terms.iter().zip(&plan.terms) {
                let covered: usize = term_plan.nodes.iter().map(|n| n.new_factors.len()).sum();
                assert_eq!(covered, term.factors.len(), "gate {} ees {ees}", gate.id);
                assert_eq!(
                    term_plan.nodes.len(),
                    node_count(term.factors.len(), ees),
                    "gate {} ees {ees}",
                    gate.id
                );
            }
            assert!(plan.tmp_buffers() <= 1, "gate {}", gate.id);
        }
    }
}

#[test]
fn degree_sweep_latency_has_scheduler_jumps() {
    // Fig. 8's defining property: latency jumps exactly where the node
    // count increments, and is non-decreasing in degree.
    let cfg = SumcheckUnitConfig {
        pes: 16,
        ees: 6,
        pls: 8,
        bank_words: 1 << 13,
        sparse_io: false,
    };
    let mem = MemoryConfig::new(4096.0); // compute-bound regime
    let mut last_latency = 0.0;
    let mut last_nodes = 0;
    for d in 2..=30 {
        let profile = PolyProfile::from_gate(&high_degree_gate(d));
        let t = simulate_sumcheck(&profile, 20, &cfg, &mem).total_cycles;
        let nodes = node_count(d, 6);
        assert!(t >= last_latency, "degree {d} regressed");
        if nodes > last_nodes && last_nodes > 0 {
            // A new scheduler node must cost a visible jump.
            assert!(
                t > last_latency * 1.05,
                "degree {d}: no jump at node boundary"
            );
        }
        last_latency = t;
        last_nodes = nodes;
    }
}

#[test]
fn sparse_io_only_helps() {
    let mem = MemoryConfig::new(128.0);
    let mut dense_cfg = test_config();
    dense_cfg.sparse_io = false;
    for gate_id in [0usize, 20, 22] {
        let profile = PolyProfile::from_gate(&table1_gates()[gate_id]);
        let sparse = simulate_sumcheck(&profile, 18, &test_config(), &mem).total_cycles;
        let dense = simulate_sumcheck(&profile, 18, &dense_cfg, &mem).total_cycles;
        assert!(sparse <= dense, "gate {gate_id}");
    }
}
