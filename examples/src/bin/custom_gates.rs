//! Programming a custom high-degree gate — the paper's headline use case.
//!
//! Defines a Halo2-style elliptic-curve gate with the
//! [`GateExpr`](zkphire_poly::expr::GateExpr) language, proves its SumCheck functionally, and then "programs" the
//! modeled accelerator with the same composite to estimate hardware
//! runtime against the CPU baseline at 2^24 constraints.
//!
//! ```text
//! cargo run --release -p zkphire-examples --bin custom_gates
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkphire_baselines::cpu_sumcheck_ms;
use zkphire_core::memory::MemoryConfig;
use zkphire_core::profile::PolyProfile;
use zkphire_core::sched::schedule;
use zkphire_core::sumcheck_unit::{simulate_sumcheck, SumcheckUnitConfig};
use zkphire_poly::expr::{konst, var};
use zkphire_poly::{sparsity, MleKind};
use zkphire_sumcheck::{prove, verify_with_oracle};
use zkphire_transcript::Transcript;

fn main() {
    // A custom gate in the Halo2 style: q * (y^2 - x^3 - 5) * lambda + q * x * y.
    // Any expression over selectors/witnesses compiles to the same
    // composite IR the accelerator is scheduled from.
    let q = var(0);
    let x = var(1);
    let y = var(2);
    let lambda = var(3);
    let gate = q.clone() * (y.clone().pow(2) - x.clone().pow(3) - konst(5)) * lambda + q * x * y;
    let poly = gate.expand();
    println!(
        "custom gate compiled: {} terms, degree {}, {} constituent MLEs",
        poly.num_terms(),
        poly.degree(),
        poly.num_mles()
    );

    // --- Functional path: prove the SumCheck on real tables. ---
    let mu = 12;
    let kinds = [
        MleKind::Selector,
        MleKind::Witness,
        MleKind::Witness,
        MleKind::Witness,
    ];
    let mut rng = StdRng::seed_from_u64(7);
    let mles = sparsity::random_binding(&mut rng, &kinds, mu);
    let mut tp = Transcript::new(b"custom-gate");
    let out = prove(&poly, mles.clone(), &mut tp);
    let mut tv = Transcript::new(b"custom-gate");
    verify_with_oracle(&poly, &mles, &out.proof, &mut tv).expect("sumcheck verifies");
    println!(
        "functional SumCheck over 2^{mu} entries verified (claim {:?})",
        out.proof.claimed_sum
    );

    // --- Modeled path: program the accelerator with the same composite. ---
    let profile = PolyProfile::from_composite(&poly, &kinds, "custom ECC gate");
    let cfg = SumcheckUnitConfig {
        pes: 16,
        ees: 4,
        pls: 5,
        bank_words: 1 << 13,
        sparse_io: false,
    };
    let plan = schedule(&profile, cfg.ees, false);
    println!(
        "scheduler plan: {} nodes across {} terms, {} Tmp buffer(s), {} lane cycles/pair",
        plan.total_nodes(),
        plan.terms.len(),
        plan.tmp_buffers(),
        plan.cycles_per_pair(cfg.pls)
    );

    let big_mu = 24;
    println!("\nprojected at 2^{big_mu} constraints:");
    for bw in [256.0, 1024.0, 4096.0] {
        let hw = simulate_sumcheck(&profile, big_mu, &cfg, &MemoryConfig::new(bw));
        let cpu = cpu_sumcheck_ms(&profile, big_mu, 4);
        println!(
            "  {bw:>5.0} GB/s: {:>8.2} ms on the unit vs {:>9.0} ms on a 4T CPU ({:>5.0}x, util {:.2})",
            hw.ms(),
            cpu,
            cpu / hw.ms(),
            hw.utilization
        );
    }
}
