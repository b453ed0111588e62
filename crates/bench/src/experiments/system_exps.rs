//! Full-system experiments: the Pareto sweep (Fig. 10 / Table IV),
//! breakdowns (Fig. 11, Fig. 12) and the exemplar design (Table V).

use zkphire_core::protocol::{simulate_protocol, Gate};
use zkphire_core::system::ZkphireConfig;
use zkphire_core::tech::PrimeMode;
use zkphire_dse::{full_system_dse, DseSpace, FullSystemPoint};

use crate::fmt_table;

/// Paper's CPU (32-thread) anchor for the 2^24-Jellyfish-gate workload
/// (§VI-B1: "the CPU runtime is roughly 182.896 seconds").
const CPU_2POW24_JELLYFISH_MS: f64 = 182_896.0;

/// Runs the Fig. 10 sweep once (it is shared by fig10 and fig11).
pub fn run_pareto_sweep() -> zkphire_dse::space::FullSystemDse {
    full_system_dse(
        &DseSpace::default(),
        Gate::Jellyfish,
        24,
        true,
        PrimeMode::Fixed,
    )
}

/// Picks the Table IV representative designs from the sweep: A–D are the
/// fastest points at 4096/2048/1024/512 GB/s; E/F sit lower on the
/// 512 GB/s frontier; G is the fastest small design at 128 GB/s.
pub fn select_table4_designs(
    dse: &zkphire_dse::space::FullSystemDse,
) -> Vec<(&'static str, FullSystemPoint)> {
    let tier = |bw: f64| -> &Vec<FullSystemPoint> {
        let idx = MemTiers::index_of(bw);
        &dse.tier_fronts[idx]
    };
    let fastest = |bw: f64| {
        *tier(bw)
            .first()
            .unwrap_or_else(|| panic!("empty frontier at {bw}"))
    };
    let near_area = |bw: f64, target: f64| {
        *tier(bw)
            .iter()
            .min_by(|a, b| {
                (a.area_mm2 - target)
                    .abs()
                    .partial_cmp(&(b.area_mm2 - target).abs())
                    .expect("finite")
            })
            .expect("non-empty frontier")
    };
    vec![
        ("A", fastest(4096.0)),
        ("B", fastest(2048.0)),
        ("C", fastest(1024.0)),
        ("D", fastest(512.0)),
        ("E", near_area(512.0, 75.0)),
        ("F", near_area(512.0, 50.0)),
        ("G", near_area(128.0, 25.0)),
    ]
}

struct MemTiers;

impl MemTiers {
    fn index_of(bw: f64) -> usize {
        zkphire_core::memory::MemoryConfig::sweep_tiers()
            .iter()
            .position(|&t| (t - bw).abs() < 1.0)
            .expect("known tier")
    }
}

/// Fig. 10 + Table IV: Pareto frontiers for 2^24 Jellyfish gates.
pub fn fig10() -> String {
    let dse = run_pareto_sweep();
    let mut out = String::new();

    let mut tier_rows = Vec::new();
    for (bw, front) in zkphire_core::memory::MemoryConfig::sweep_tiers()
        .iter()
        .zip(&dse.tier_fronts)
    {
        let best = front.first().expect("non-empty front");
        tier_rows.push(vec![
            format!("{bw:.0}"),
            front.len().to_string(),
            format!("{:.1}", best.runtime_ms),
            format!("{:.1}", best.area_mm2),
        ]);
    }
    out.push_str(&fmt_table(
        &format!(
            "Fig. 10 — per-bandwidth Pareto frontiers, 2^24 Jellyfish gates \
             ({} configs evaluated)",
            dse.evaluated
        ),
        &["BW (GB/s)", "Front size", "Fastest (ms)", "Its area (mm^2)"],
        &tier_rows,
    ));
    out.push('\n');

    let rows: Vec<Vec<String>> = select_table4_designs(&dse)
        .iter()
        .map(|(label, p)| {
            vec![
                label.to_string(),
                format!("{:.3}", p.runtime_ms),
                format!("{:.2}", p.area_mm2),
                format!("{:.0}", p.config.mem.bandwidth_gbps),
                format!("{:.0}x", CPU_2POW24_JELLYFISH_MS / p.runtime_ms),
                format!(
                    "{}msm/{}sc({}E{}P)/{}tr",
                    p.config.msm.pes,
                    p.config.sumcheck.pes,
                    p.config.sumcheck.ees,
                    p.config.sumcheck.pls,
                    p.config.forest.trees
                ),
            ]
        })
        .collect();
    out.push_str(&fmt_table(
        "Table IV — globally Pareto-optimal zkPHIRE designs",
        &[
            "Design",
            "Runtime (ms)",
            "Area (mm^2)",
            "BW (GB/s)",
            "CPU speedup",
            "Config",
        ],
        &rows,
    ));
    out.push_str(
        "\nPaper Table IV: A 71.4 ms/599 mm^2/4096 (2560x), B 92.9/455/2048 (1969x), \
         C 171.3/229.7/1024 (1067x), D 328.5/117.6/512 (557x), E 477/75 (383x), \
         F 786/50 (233x), G 1717/25 @128 (107x).\n",
    );
    out
}

/// Fig. 11: area and runtime percentage breakdowns for designs A–D.
pub fn fig11() -> String {
    let dse = run_pareto_sweep();
    let designs = select_table4_designs(&dse);
    let mut area_rows = Vec::new();
    let mut runtime_rows = Vec::new();
    for (label, p) in designs.iter().take(4) {
        let a = p.config.area();
        let pct = |x: f64| format!("{:.1}", 100.0 * x / a.total());
        area_rows.push(vec![
            label.to_string(),
            pct(a.sumcheck),
            pct(a.forest),
            pct(a.msm),
            pct(a.sram),
            pct(a.phy),
            pct(a.interconnect),
            pct(a.other),
        ]);
        // Runtime shares before masking (as the paper plots them).
        let r = simulate_protocol(&p.config, Gate::Jellyfish, 24, false);
        let rp = |x: f64| format!("{:.1}", 100.0 * x / r.total_ms);
        runtime_rows.push(vec![
            label.to_string(),
            rp(r.witness_msm_ms),
            rp(r.wiring_msm_ms),
            rp(r.polyopen_msm_ms),
            rp(r.zerocheck_ms),
            rp(r.permcheck_ms),
            rp(r.opencheck_ms),
            rp(r.other_ms()),
        ]);
    }
    let mut out = fmt_table(
        "Fig. 11 (left) — area % breakdown for Pareto designs A-D",
        &[
            "Design",
            "SumCheck",
            "Forest",
            "MSM",
            "SRAM",
            "HBM PHY",
            "Interconn",
            "Misc",
        ],
        &area_rows,
    );
    out.push('\n');
    out.push_str(&fmt_table(
        "Fig. 11 (right) — runtime % breakdown (pre-masking)",
        &[
            "Design", "WitMSM", "WireMSM", "OpenMSM", "ZeroChk", "PermChk", "OpenChk", "Other",
        ],
        &runtime_rows,
    ));
    out.push_str(
        "\nPaper shape: MSM dominates area everywhere; from C to D the SumCheck/Forest \
         share grows while absolute MSM area stays flat; SumCheck runtime share shrinks \
         with more bandwidth.\n",
    );
    out
}

/// Fig. 12: CPU vs zkPHIRE runtime shares for 2^24 Jellyfish gates.
pub fn fig12() -> String {
    let cfg = ZkphireConfig::exemplar();
    let r = simulate_protocol(&cfg, Gate::Jellyfish, 24, false);
    let total = r.total_ms;
    let rows = vec![
        vec![
            "Witness MSMs".to_string(),
            "13.0 (Sparse MSMs)".to_string(),
            format!("{:.1}", 100.0 * r.witness_msm_ms / total),
        ],
        vec![
            "Gate Identity".to_string(),
            "12.9".to_string(),
            format!("{:.1}", 100.0 * r.zerocheck_ms / total),
        ],
        vec![
            "Wire Identity".to_string(),
            "30.3 (gen 9.9 + dense MSM 10.9 + check 9.5)".to_string(),
            format!(
                "{:.1}",
                100.0 * (r.permquot_ms + r.wiring_msm_ms + r.permcheck_ms) / total
            ),
        ],
        vec![
            "Batch Evals & Poly Open".to_string(),
            "43.8 (evals 10.1 + combine 5.7 + check 6.8 + MSM 21.2)".to_string(),
            format!(
                "{:.1}",
                100.0 * (r.batch_eval_ms + r.combine_ms + r.opencheck_ms + r.polyopen_msm_ms)
                    / total
            ),
        ],
    ];
    let mut out = fmt_table(
        &format!(
            "Fig. 12 — runtime shares (%), 2^24 Jellyfish gates; zkPHIRE total {total:.1} ms \
             at 2 TB/s (paper CPU column from Fig. 12a)"
        ),
        &["Step", "Paper CPU %", "zkPHIRE model %"],
        &rows,
    );
    out.push_str(
        "\nPaper zkPHIRE shares: Witness 7.8, Gate Identity 21.4, Wire Identity 37.9, \
         Batch+Open 33.0.\n",
    );
    out
}

/// Table V: the exemplar 294 mm² design's area and power.
pub fn table5() -> String {
    let cfg = ZkphireConfig::exemplar();
    let a = cfg.area();
    let p = cfg.power();
    let rows = vec![
        vec![
            "MSM (32 PEs)".into(),
            f2(a.msm),
            "105.69".into(),
            f2(p.msm),
            "58.99".into(),
        ],
        vec![
            "Multifunc Forest (80 trees)".into(),
            f2(a.forest),
            "48.18".into(),
            f2(p.forest),
            "40.69".into(),
        ],
        vec![
            "SumCheck (16 PEs)".into(),
            f2(a.sumcheck),
            "16.65".into(),
            f2(p.sumcheck),
            "14.43".into(),
        ],
        vec![
            "Other".into(),
            f2(a.other),
            "10.64".into(),
            f2(p.other),
            "6.17".into(),
        ],
        vec![
            "Total compute".into(),
            f2(a.compute()),
            "181.15".into(),
            f2(p.msm + p.forest + p.sumcheck + p.other),
            "120.29".into(),
        ],
        vec![
            "SRAM".into(),
            f2(a.sram),
            "27.55".into(),
            f2(p.sram),
            "3.56".into(),
        ],
        vec![
            "Interconnect".into(),
            f2(a.interconnect),
            "26.42".into(),
            f2(p.interconnect),
            "14.83".into(),
        ],
        vec![
            "HBM3 (2 PHYs)".into(),
            f2(a.phy),
            "59.20".into(),
            f2(p.hbm),
            "63.60".into(),
        ],
        vec![
            "Total".into(),
            f2(a.total()),
            "294.32".into(),
            f2(p.total()),
            "202.28".into(),
        ],
    ];
    let mut out = fmt_table(
        "Table V — exemplar zkPHIRE design: area (mm^2) and average power (W), model vs paper",
        &["Module", "Area", "Paper", "Power", "Paper "],
        &rows,
    );
    out.push_str(&format!(
        "\nPeak on-chip port bandwidth: {:.1} TB/s (paper §IV-B6: ~19 TB/s)\n",
        cfg.peak_onchip_bandwidth_gbps() / 1000.0
    ));
    out
}

fn f2(x: f64) -> String {
    format!("{x:.2}")
}
