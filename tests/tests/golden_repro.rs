//! Golden determinism regression for the repro experiments. The
//! fleet-facing ones — `repro fleet`, `repro faults`, `repro obs` and
//! `repro net` — must be pure functions of their fixed seeds (`net`
//! keeps wall-clock latencies out of stdout for exactly this reason —
//! only chaos verdicts and integer counters are pinned). Two same-process
//! runs of each are compared byte for byte, and a small checked-in
//! summary (`tests/golden/repro_summary.txt`) pins the exact output
//! across commits so CI catches determinism drift — a changed RNG draw
//! order, a reordered event tie-break, a float reassociation — even when
//! each individual run is still self-consistent. The same summary pins
//! every paper table and figure, so a model change that moves a printed
//! number has to regenerate the golden file on purpose.
//!
//! The golden file was generated on Linux/glibc (the CI platform). The
//! simulator itself is IEEE-754-deterministic, but `f64::ln` (used for
//! exponential inter-arrival draws) goes through the platform's libm,
//! which may differ in the last ulp elsewhere; if the golden check
//! fails on another OS while `repro_runs_twice_byte_identical` passes,
//! suspect the platform before the simulator.

use zkphire_bench::experiments;
use zkphire_tests::fnv1a;

/// The seeded fleet experiments, run twice for byte equality.
const FLEET_FACING: [&str; 4] = ["fleet", "faults", "obs", "net"];

/// Every paper table and figure, in registry order. Single-threaded
/// model evaluations, so one run each in the summary pins them.
const PAPER: [&str; 19] = [
    "table1",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table2",
    "table3",
    "fig10",
    "fig11",
    "fig12",
    "table5",
    "fig13",
    "fig14",
    "table6",
    "table7",
    "table8",
    "table9",
    "breakdown",
    "ablations",
];

/// The compact summary format the golden file stores: one hash line
/// per experiment plus every embedded trace-hash line verbatim.
fn summarize_outputs() -> String {
    let mut out = String::new();
    for name in FLEET_FACING.into_iter().chain(PAPER) {
        let text = experiments::run(name).expect("registered experiment");
        out.push_str(&format!(
            "{name} lines={} fnv1a={:016x}\n",
            text.lines().count(),
            fnv1a(text.as_bytes())
        ));
        for line in text.lines().filter(|l| l.starts_with("Trace hash")) {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn repro_runs_twice_byte_identical() {
    for name in FLEET_FACING {
        let a = experiments::run(name).expect("registered experiment");
        let b = experiments::run(name).expect("registered experiment");
        assert_eq!(a, b, "`repro {name}` diverged between two runs");
        assert!(!a.is_empty());
    }
}

#[test]
fn repro_outputs_match_checked_in_golden() {
    let golden = include_str!("../golden/repro_summary.txt");
    let produced = summarize_outputs();
    assert_eq!(
        produced, golden,
        "repro output drifted from tests/golden/repro_summary.txt.\n\
         If the change is intentional (new experiment content, model \n\
         change), regenerate the golden file by writing the left-hand \n\
         string above into it. If `repro_runs_twice_byte_identical` \n\
         also fails, a determinism regression slipped into the fleet \n\
         DES or its cost model; if it passes and you are not on \n\
         Linux/glibc, this is likely a platform libm difference in \n\
         f64::ln (see module docs)."
    );
}
