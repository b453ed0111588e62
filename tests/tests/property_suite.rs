//! Property-based integration tests: randomized structures exercised
//! across crate boundaries (expression language → IR → prover → verifier,
//! IR → scheduler/simulator, and traffic → fleet DES → metrics).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zkphire_core::memory::MemoryConfig;
use zkphire_core::profile::PolyProfile;
use zkphire_core::sched::{node_count, schedule};
use zkphire_core::sumcheck_unit::{simulate_sumcheck, SumcheckUnitConfig};
use zkphire_field::Fr;
use zkphire_poly::expr::{konst, var, GateExpr};
use zkphire_poly::{Mle, MleKind};
use zkphire_sumcheck::{prove, verify_with_oracle};
use zkphire_transcript::Transcript;

/// Random gate expressions over `num_vars` variables.
fn arb_expr(num_vars: usize) -> impl Strategy<Value = GateExpr> {
    let leaf = prop_oneof![(0..num_vars).prop_map(var), (-3i64..4).prop_map(konst)];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            (inner, 1u32..4).prop_map(|(a, k)| a.pow(k)),
        ]
    })
}

fn random_mles(n: usize, mu: usize, seed: u64) -> Vec<Mle> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Mle::from_fn(mu, |_| Fr::random(&mut rng)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any expressible gate round-trips through the full SumCheck stack.
    #[test]
    fn random_gate_sumcheck_roundtrip(e in arb_expr(3), seed in 0u64..1000) {
        let poly = e.expand();
        prop_assume!(poly.num_terms() > 0);
        let mu = 4;
        let mles = random_mles(poly.num_mles().max(1), mu, seed);
        let mut tp = Transcript::new(b"prop");
        let out = prove(&poly, mles.clone(), &mut tp);
        prop_assert_eq!(out.proof.claimed_sum, poly.sum_over_hypercube(&mles));
        let mut tv = Transcript::new(b"prop");
        prop_assert!(verify_with_oracle(&poly, &mles, &out.proof, &mut tv).is_ok());
    }

    /// A tampered claim from any random gate is rejected.
    #[test]
    fn random_gate_tamper_rejected(e in arb_expr(3), seed in 0u64..1000) {
        let poly = e.expand();
        prop_assume!(poly.num_terms() > 0 && poly.degree() >= 1);
        let mles = random_mles(poly.num_mles().max(1), 4, seed);
        let mut tp = Transcript::new(b"prop");
        let mut out = prove(&poly, mles, &mut tp);
        out.proof.round_evals[1][0] += Fr::ONE;
        let mut tv = Transcript::new(b"prop");
        prop_assert!(zkphire_sumcheck::verify(&poly, 4, &out.proof, &mut tv).is_err());
    }

    /// The scheduler covers every factor exactly once for any gate shape,
    /// with one Tmp buffer, for every EE count.
    #[test]
    fn random_gate_schedules_cleanly(e in arb_expr(4), ees in 2usize..8) {
        let poly = e.expand();
        prop_assume!(poly.num_terms() > 0 && poly.degree() >= 1);
        let kinds = vec![MleKind::Dense; poly.num_mles()];
        let profile = PolyProfile::from_composite(&poly, &kinds, "prop");
        let plan = schedule(&profile, ees, false);
        for (term, term_plan) in profile.terms.iter().zip(&plan.terms) {
            let covered: usize = term_plan.nodes.iter().map(|n| n.new_factors.len()).sum();
            prop_assert_eq!(covered, term.factors.len());
            prop_assert_eq!(term_plan.nodes.len(), node_count(term.factors.len(), ees));
        }
        prop_assert!(plan.tmp_buffers() <= 1);
    }

    /// The simulator accepts any expressible gate and behaves sanely:
    /// positive runtime, utilization in (0, 1], monotone in table size.
    #[test]
    fn random_gate_simulates(e in arb_expr(3), pls in 3usize..9) {
        let poly = e.expand();
        prop_assume!(poly.num_terms() > 0 && poly.degree() >= 1);
        let kinds = vec![MleKind::Dense; poly.num_mles()];
        let profile = PolyProfile::from_composite(&poly, &kinds, "prop");
        let cfg = SumcheckUnitConfig {
            pes: 8,
            ees: 4,
            pls,
            bank_words: 1 << 12,
            sparse_io: false,
        };
        let mem = MemoryConfig::new(512.0);
        let small = simulate_sumcheck(&profile, 12, &cfg, &mem);
        let large = simulate_sumcheck(&profile, 14, &cfg, &mem);
        prop_assert!(small.total_cycles > 0.0);
        prop_assert!(small.utilization > 0.0 && small.utilization <= 1.0);
        prop_assert!(large.total_cycles > small.total_cycles);
    }

    /// MLE identity across crates: fixing variables one at a time agrees
    /// with direct evaluation for arbitrary points.
    #[test]
    fn mle_fix_chain_matches_evaluate(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mu = 5;
        let f = Mle::from_fn(mu, |_| Fr::random(&mut rng));
        let point: Vec<Fr> = (0..mu).map(|_| Fr::random(&mut rng)).collect();
        let mut g = f.clone();
        for &r in &point {
            g = g.fix_first_variable(r);
        }
        prop_assert_eq!(g.evals()[0], f.evaluate(&point));
    }
}

// --- fleet DES properties: random ON/OFF traffic through the full
// admission → fairness → faulty-pool pipeline ---

use zkphire_core::costdb::CostModel;
use zkphire_fleet::{
    simulate, BrownOutConfig, FaultConfig, FleetConfig, OnOffSource, PolicyKind, RetryPolicy,
    TenantMix, TenantProfile, TraceEntry, WorkloadMix,
};

/// A randomized two-tenant burst source; runs short enough that each
/// property case finishes in milliseconds.
fn burst_source(seed: u64) -> (TenantMix, OnOffSource) {
    let tm = TenantMix::new(vec![
        TenantProfile::new(1, 2.0, WorkloadMix::table_vii_jellyfish(18)),
        TenantProfile::new(2, 1.0, WorkloadMix::table_vii_jellyfish(20)),
    ]);
    let source = OnOffSource::new(600.0, 300.0, 600.0, 2_500.0, tm.clone(), seed);
    (tm, source)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation under any policy, queue bound and burst seed:
    /// every arrival is admitted or rejected, every admission is
    /// served exactly once (the sim drains, so in-flight is zero at
    /// the end), and the per-tenant slices tile the global counts.
    #[test]
    fn fleet_conserves_requests(seed in 0u64..400, cap in 1usize..24, chips in 1usize..4, pol in 0usize..4) {
        let policy = [
            PolicyKind::Fifo,
            PolicyKind::SizeClass,
            PolicyKind::EarliestDeadline,
            PolicyKind::WeightedFair,
        ][pol];
        let mut cost = CostModel::exemplar();
        let (tm, mut source) = burst_source(seed);
        let cfg = FleetConfig::new(chips)
            .with_policy(policy)
            .with_queue_capacity(cap)
            .with_tenant_weights(tm.service_weights());
        let r = simulate(&cfg, &mut source, &mut cost).expect("valid config");
        let arrivals = r
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEntry::Admitted { .. } | TraceEntry::Rejected { .. }))
            .count() as u64;
        prop_assert_eq!(arrivals, r.summary.completed + r.summary.rejected);
        prop_assert_eq!(r.records.len() as u64, r.summary.completed);
        // No id served twice.
        let mut ids: Vec<u64> = r.records.iter().map(|rec| rec.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, r.summary.completed);
        // Per-tenant slices tile the global counts.
        let by_tenant_completed: u64 = r.summary.per_tenant.iter().map(|t| t.completed).sum();
        let by_tenant_rejected: u64 = r.summary.per_tenant.iter().map(|t| t.rejected).sum();
        prop_assert_eq!(by_tenant_completed, r.summary.completed);
        prop_assert_eq!(by_tenant_rejected, r.summary.rejected);
        // Metrics never go NaN, even for starved runs.
        prop_assert!(!r.summary.p99_latency_ms.is_nan());
        prop_assert!(!r.summary.jain_fairness.is_nan());
    }

    /// Resilience invariants under random chip failures, retries,
    /// per-tenant caps and brown-out, for any seed and knob draw:
    ///
    /// * conservation — `arrivals == completed + rejected + shed +
    ///   lost` with nothing in flight at drain,
    /// * retries bounded — no request records or traces an attempt
    ///   past the configured budget,
    /// * replay — the failure/repair schedule is bit-identical for the
    ///   same `(config, seed)`.
    #[test]
    fn faulty_fleet_conserves_and_replays(
        seed in 0u64..300,
        fault_seed in 0u64..300,
        budget in 0u32..4,
        mtbf in 200u64..2_000,
        chips in 2usize..5,
        cap in 4usize..32,
    ) {
        let mtbf_ms = mtbf as f64;
        let run = || {
            let mut cost = CostModel::exemplar();
            let (tm, mut source) = burst_source(seed);
            let cfg = FleetConfig::new(chips)
                .with_policy(PolicyKind::WeightedFair)
                .with_tenant_weights(tm.service_weights())
                .with_queue_capacity(cap)
                .with_tenant_caps(vec![(1, cap / 2 + 1)])
                .with_faults(FaultConfig::random(mtbf_ms, mtbf_ms / 4.0, fault_seed))
                .with_retry(RetryPolicy::new(budget))
                .with_brown_out(BrownOutConfig::new(1.0, 8));
            simulate(&cfg, &mut source, &mut cost).expect("valid config")
        };
        let r = run();
        let s = &r.summary;
        prop_assert_eq!(s.arrivals, s.completed + s.rejected + s.shed + s.lost);
        prop_assert_eq!(r.records.len() as u64, s.completed);
        prop_assert!(r.records.iter().all(|rec| rec.attempts <= budget));
        for e in &r.trace {
            if let TraceEntry::Retried { attempt, .. } = e {
                prop_assert!(*attempt <= budget, "retry {} over budget {}", attempt, budget);
            }
        }
        // Per-tenant terminal outcomes tile the global counts.
        let tiles = |f: fn(&zkphire_fleet::TenantSummary) -> u64, total: u64| {
            s.per_tenant.iter().map(f).sum::<u64>() == total
        };
        prop_assert!(tiles(|t| t.completed, s.completed));
        prop_assert!(tiles(|t| t.rejected, s.rejected));
        prop_assert!(tiles(|t| t.shed, s.shed));
        prop_assert!(tiles(|t| t.lost, s.lost));
        // Failures repair by drain (the run outlives every outage), and
        // goodput never exceeds throughput.
        prop_assert!(s.chip_repairs <= s.chip_failures);
        prop_assert!(s.goodput_rps <= s.throughput_rps + 1e-9);
        // Bit-identical replay of the whole failure/retry schedule.
        let again = run();
        prop_assert_eq!(r.trace_hash, again.trace_hash);
        prop_assert_eq!(&r.trace, &again.trace);
    }

    /// Per-tenant caps compose with the shared queue bound: the
    /// stricter constraint always wins, so a zero shared capacity
    /// rejects everything no matter how generous the tenant caps are.
    #[test]
    fn tenant_caps_compose_with_shared_capacity(seed in 0u64..200, tcap in 1usize..64) {
        let mut cost = CostModel::exemplar();
        let (tm, mut source) = burst_source(seed);
        let cfg = FleetConfig::new(2)
            .with_tenant_weights(tm.service_weights())
            .with_queue_capacity(0)
            .with_default_tenant_cap(tcap);
        let r = simulate(&cfg, &mut source, &mut cost).expect("valid config");
        prop_assert_eq!(r.summary.completed, 0);
        prop_assert_eq!(r.summary.rejected, r.summary.arrivals);
        prop_assert!(r.records.is_empty());
    }
}
