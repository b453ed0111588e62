//! Workload-level experiments: Fig. 13 (protocol optimizations), Fig. 14
//! (high-degree protocol sweep) and Tables VI–IX.

use zkphire_core::profile::PolyProfile;
use zkphire_core::protocol::{simulate_protocol, simulate_protocol_with_gate, Gate};
use zkphire_core::system::ZkphireConfig;
use zkphire_core::tech::PrimeMode;
use zkphire_core::workloads::all_workloads;
use zkphire_hyperplonk::{proof_size_bytes, GateSystem};
use zkphire_poly::high_degree_gate;

use crate::{fmt_table, geomean};

/// The Table VI configuration: zkSpeed-comparable arbitrary-prime
/// multipliers and no ZeroCheck masking (§VI-B6).
fn table6_config() -> ZkphireConfig {
    let mut cfg = ZkphireConfig::exemplar();
    cfg.prime = PrimeMode::Arbitrary;
    cfg
}

/// Fig. 13: speedups from Jellyfish gates and Masked ZeroCheck, per
/// workload, relative to Vanilla gates.
pub fn fig13() -> String {
    let cfg = ZkphireConfig::exemplar();
    // (name, vanilla log2, jellyfish log2) — scaled workloads per §VI-B4:
    // ZCash/Zexe scaled up to 2^24/2^25 keeping their reduction factors
    // (4x and 32x); zkEVM assumes the paper's hypothetical 8x.
    let entries = [
        ("ZCash", 17usize, 15usize),
        ("Rescue Hash", 21, 20),
        ("Zexe", 22, 17),
        ("ZCash Scaled", 24, 22),
        ("Zexe Scaled", 25, 20),
        ("Rollup 1600", 30, 25),
        ("zkEVM", 30, 27),
    ];
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|&(name, v, j)| {
            let vanilla = simulate_protocol(&cfg, Gate::Vanilla, v, false).total_ms;
            let jf = simulate_protocol(&cfg, Gate::Jellyfish, j, false).total_ms;
            let jf_masked = simulate_protocol(&cfg, Gate::Jellyfish, j, true).total_ms;
            vec![
                name.to_string(),
                "1.00".to_string(),
                format!("{:.2}", vanilla / jf),
                format!("{:.2}", vanilla / jf_masked),
            ]
        })
        .collect();
    let mut out = fmt_table(
        "Fig. 13 — workload speedups relative to Vanilla gates (exemplar design)",
        &["Workload", "Vanilla", "Jellyfish", "Jellyfish+MskZC"],
        &rows,
    );
    out.push_str(
        "\nPaper: ZCash 1.70/1.84, Rescue 1.53/1.91, Zexe 15.89/18.42, ZCash-scaled \
         3.09/3.91, Zexe-scaled 23.35/29.18, Rollup1600 25.10/31.93, zkEVM 6.28/8.00; \
         masking adds ~25-27%.\n",
    );
    out
}

/// Fig. 14: protocol-level high-degree sweep on the exemplar design.
pub fn fig14() -> String {
    let cfg = ZkphireConfig::exemplar();
    let mu = 24;
    let mut rows = Vec::new();
    let mut crossover: Option<usize> = None;
    for d in (2..=30usize).step_by(2) {
        let profile = PolyProfile::from_gate(&high_degree_gate(d));
        let r = simulate_protocol_with_gate(&cfg, &profile, 2, mu, false);
        let msm_share = r.msm_ms() / r.total_ms;
        let sc_share = r.sumcheck_ms() / r.total_ms;
        if crossover.is_none() && sc_share > msm_share {
            crossover = Some(d);
        }
        rows.push(vec![
            d.to_string(),
            format!("{:.1}", r.total_ms),
            format!("{:.1}", 100.0 * msm_share),
            format!("{:.1}", 100.0 * sc_share),
            format!("{:.1}", 100.0 * r.other_ms() / r.total_ms),
        ]);
    }
    let mut out = fmt_table(
        &format!("Fig. 14 — protocol runtime vs gate degree (2^{mu} gates, exemplar design)"),
        &["deg", "total (ms)", "MSM %", "SumCheck %", "Rest %"],
        &rows,
    );
    out.push_str(&match crossover {
        Some(d) => format!(
            "\nSumCheck share overtakes MSM share at degree {d} \
             (paper: crossover at d = 18, 45%).\n"
        ),
        None => "\nNo SumCheck/MSM crossover within d <= 30 in this model \
                 (paper: d = 18 at 45%); the monotone SumCheck-share growth \
                 is reproduced.\n"
            .to_string(),
    });
    out
}

/// Table VI: Vanilla-gate runtimes vs CPU and zkSpeed+.
pub fn table6() -> String {
    let cfg = table6_config();
    let rows: Vec<Vec<String>> = all_workloads()
        .iter()
        .filter_map(|w| {
            let mu = w.vanilla_log2?;
            let ours = simulate_protocol(&cfg, Gate::Vanilla, mu, false).total_ms;
            Some(vec![
                w.name.to_string(),
                format!("2^{mu}"),
                w.cpu_vanilla_ms.map_or("-".into(), |c| format!("{c:.0}")),
                w.zkspeed_plus_ms.map_or("-".into(), |z| format!("{z:.3}")),
                format!("{ours:.3}"),
                w.cpu_vanilla_ms
                    .map_or("-".into(), |c| format!("{:.0}x", c / ours)),
            ])
        })
        .collect();
    let mut out = fmt_table(
        "Table VI — Vanilla-gate runtimes (ms); CPU and zkSpeed+ columns are paper anchors",
        &["Workload", "Gates", "CPU", "zkSpeed+", "zkPHIRE", "Speedup"],
        &rows,
    );
    out.push_str(
        "\nPaper zkPHIRE speedups: 710x-1006x across these workloads \
         (~10% slower than zkSpeed+ at iso-function).\n",
    );
    out
}

/// Table VII: Jellyfish-gate runtimes vs CPU up to 2^30 nominal gates.
pub fn table7() -> String {
    let cfg = ZkphireConfig::exemplar();
    let mut speedups = Vec::new();
    let rows: Vec<Vec<String>> = all_workloads()
        .iter()
        .filter_map(|w| {
            let mu = w.jellyfish_log2?;
            let cpu = w.cpu_jellyfish_ms?;
            let ours = simulate_protocol(&cfg, Gate::Jellyfish, mu, true).total_ms;
            speedups.push(cpu / ours);
            Some(vec![
                w.name.to_string(),
                w.vanilla_log2.map_or("-".into(), |v| format!("2^{v}")),
                format!("2^{mu}"),
                format!("{cpu:.0}"),
                format!("{ours:.3}"),
                format!("{:.0}x", cpu / ours),
            ])
        })
        .collect();
    let mut out = fmt_table(
        "Table VII — Jellyfish-gate runtimes (ms) with Masked ZeroCheck; CPU column is the paper anchor",
        &["Workload", "Vanilla", "Jellyfish", "CPU", "zkPHIRE", "Speedup"],
        &rows,
    );
    out.push_str(&format!(
        "\nGeomean speedup over CPU: {:.0}x (paper: 1486x; per-row 934x-1809x).\n",
        geomean(&speedups)
    ));
    out
}

/// Table VIII: iso-application zkSpeed+ (Vanilla) vs zkPHIRE (Jellyfish).
pub fn table8() -> String {
    let cfg = ZkphireConfig::exemplar();
    let mut speedups = Vec::new();
    let rows: Vec<Vec<String>> = all_workloads()
        .iter()
        .filter_map(|w| {
            let v = w.vanilla_log2?;
            let j = w.jellyfish_log2?;
            let zk = w.zkspeed_plus_ms?;
            let ours = simulate_protocol(&cfg, Gate::Jellyfish, j, true).total_ms;
            speedups.push(zk / ours);
            Some(vec![
                w.name.to_string(),
                format!("2^{v}"),
                format!("2^{j}"),
                format!("{zk:.3}"),
                format!("{ours:.3}"),
                format!("{:.2}x", zk / ours),
            ])
        })
        .collect();
    let mut out = fmt_table(
        "Table VIII — iso-application: zkSpeed+ (Vanilla, paper anchor) vs zkPHIRE (Jellyfish)",
        &[
            "Workload",
            "Vanilla",
            "Jellyfish",
            "zkSpeed+",
            "zkPHIRE",
            "Speedup",
        ],
        &rows,
    );
    out.push_str(&format!(
        "\nGeomean speedup over zkSpeed+: {:.2}x (paper: 11.87x geomean, 2.43x-39.23x).\n",
        geomean(&speedups)
    ));
    out
}

/// Table IX: cross-accelerator comparison (published competitor numbers;
/// zkPHIRE column from this repository's models).
pub fn table9() -> String {
    let cfg = ZkphireConfig::exemplar();
    let area = cfg.area();
    let power = cfg.power();
    let ours_ms = simulate_protocol(&cfg, Gate::Jellyfish, 19, true).total_ms;
    let proof_kb = proof_size_bytes(GateSystem::Jellyfish, 19) as f64 / 1024.0;
    // Modular multipliers in the exemplar: MSM PADDs + forest + updates +
    // PermQuotGen pipelines + combine.
    let modmuls = cfg.msm.pes * 16
        + cfg.forest.total_muls()
        + cfg.sumcheck.pes * 2
        + cfg.permquot.pes * 6
        + 2
        + cfg.combine.muls;

    let rows = vec![
        vec![
            "Workload".into(),
            "Scaled AES".into(),
            "Rollup 25".into(),
            "Rollup 25".into(),
            "Rollup 25".into(),
        ],
        vec![
            "Protocol".into(),
            "Spartan+Orion".into(),
            "Groth16".into(),
            "HyperPlonk".into(),
            "HyperPlonk".into(),
        ],
        vec![
            "Gates".into(),
            "2^24".into(),
            "2^24".into(),
            "2^24".into(),
            "2^19".into(),
        ],
        vec![
            "Encoding".into(),
            "R1CS".into(),
            "R1CS".into(),
            "Plonk (Vanilla)".into(),
            "Plonk (Jellyfish)".into(),
        ],
        vec![
            "Proof size".into(),
            "8.1 MB".into(),
            "0.18 KB".into(),
            "5.09 KB".into(),
            format!("{proof_kb:.2} KB (paper 4.41)"),
        ],
        vec![
            "Setup".into(),
            "none".into(),
            "circuit-specific".into(),
            "universal".into(),
            "universal".into(),
        ],
        vec![
            "Prime".into(),
            "fixed".into(),
            "arbitrary".into(),
            "arbitrary".into(),
            "fixed".into(),
        ],
        vec![
            "SW prover (s)".into(),
            "94.2".into(),
            "51.18".into(),
            "145.5".into(),
            "6.161".into(),
        ],
        vec![
            "HW prover (ms)".into(),
            "151.3".into(),
            "28.43".into(),
            "151.973".into(),
            format!("{ours_ms:.3} (paper 3.874)"),
        ],
        vec![
            "Chip area (mm^2)".into(),
            "38.73".into(),
            "353.2".into(),
            "366.46".into(),
            format!("{:.2} (paper 294.32)", area.total()),
        ],
        vec![
            "# Modmuls".into(),
            "2432".into(),
            "1720".into(),
            "1206".into(),
            format!("{modmuls} (paper 2267)"),
        ],
        vec![
            "Power (W)".into(),
            "62".into(),
            ">220".into(),
            "171".into(),
            format!("{:.0} (paper 202)", power.total()),
        ],
    ];
    let mut out = fmt_table(
        "Table IX — comparison with prior ZKP accelerators (competitor columns are published values)",
        &["Metric", "NoCap", "SZKP+", "zkSpeed+", "zkPHIRE (this repo)"],
        &rows,
    );
    out.push_str(
        "\nPaper: zkPHIRE's proving time is 39x/7x/39x faster than NoCap/SZKP+/zkSpeed+. \
         Our proof-size accounting is larger than the paper's because this repository \
         commits p1/p2 separately and ships untruncated round polynomials (DESIGN.md S5).\n",
    );
    out
}

/// Diagnostic: absolute per-step times for the exemplar design (not a
/// paper artifact; used to sanity-check the protocol composition).
pub fn breakdown() -> String {
    let cfg = ZkphireConfig::exemplar();
    let mut out = String::new();
    for (mu, masked) in [(24usize, false), (19, true)] {
        let r = simulate_protocol(&cfg, Gate::Jellyfish, mu, masked);
        out.push_str(&format!(
            "mu={mu} masked={masked}: total={:.3} ms | witMSM {:.3} wireMSM {:.3} openMSM {:.3} \
             | ZC {:.3} PC {:.3} OC {:.3} | permquot {:.3} batch {:.3} combine {:.3}\n",
            r.total_ms,
            r.witness_msm_ms,
            r.wiring_msm_ms,
            r.polyopen_msm_ms,
            r.zerocheck_ms,
            r.permcheck_ms,
            r.opencheck_ms,
            r.permquot_ms,
            r.batch_eval_ms,
            r.combine_ms
        ));
    }
    out
}
