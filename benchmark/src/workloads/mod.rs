//! The six closed-loop workloads and the types they share.
//!
//! Every workload is driven from this process through the public functions
//! of the crates under test. A workload receives only inputs generated
//! from the seed; nothing it runs can tell which workload it serves.

pub mod model;
pub mod prove;
pub mod serve;
pub mod sumcheck;

use std::time::Instant;

use crate::stats::percentile;
use crate::trace::Recorder;

/// What a run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Seed of the input generators (circuits, witnesses, bindings,
    /// request mix, arrival trace). Nothing else depends on it.
    pub seed: u64,
    /// Threads handed to every call that takes a thread count: 1 in a
    /// workload's own passes, the host's cores in the ledger's probes.
    pub threads: usize,
    /// Miniature shapes for the self-test (`--smoke`).
    pub smoke: bool,
}

/// One measurement round of a workload: a slice of the run short enough
/// that the host is either quiet or not for most of it.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// Operations completed and checked in the round.
    pub ops: u64,
    /// Wall time of the round (s).
    pub elapsed_s: f64,
    /// Mean primary-operation time within the round (ms); NaN when no
    /// primary operation ended in it. The mean, because the service's
    /// latencies sit on a lattice (every proof of a class takes the same
    /// time), where a median jumps a whole step with the request mix.
    pub primary_ms: f64,
    /// Mean secondary-operation time within the round (ms); NaN when no
    /// secondary operation ended in it.
    pub secondary_ms: f64,
}

impl Round {
    /// Checked operations per second of the round.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed_s.max(1e-9)
    }
}

/// A run's value of a per-round timing: the lower decile (nearest rank)
/// over the rounds that have one. Co-tenants of the host slow a round by
/// up to 1.8x or leave it alone, so a statistic over all rounds follows
/// the neighbours while the quiet rounds follow the code.
pub fn quiet_ms(per_round: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = per_round.filter(|v| v.is_finite()).collect();
    percentile(&values, 10.0)
}

/// Everything a workload's rounds produce.
#[derive(Debug, Default)]
pub struct Samples {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Wall time of each primary operation (ms).
    pub primary_ms: Vec<f64>,
    /// Wall time of each secondary operation (ms).
    pub secondary_ms: Vec<f64>,
    /// Per-round summaries.
    pub rounds: Vec<Round>,
    /// Values that must repeat exactly for a given seed (proof size,
    /// simulated statistics, counts), by name.
    pub exact: Vec<(&'static str, f64)>,
    /// Why each failed operation failed.
    pub notes: Vec<String>,
}

impl Samples {
    /// Counts one failed operation and keeps the reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        let why = why.into();
        if self.notes.len() < 32 {
            self.notes.push(why);
        }
    }

    /// Records (or checks against the earlier recording of) an exact
    /// value; a disagreement between two observations is a failure.
    pub fn exact(&mut self, name: &'static str, value: f64) {
        match self.exact.iter().find(|(n, _)| *n == name) {
            Some(&(_, seen)) if seen != value => {
                self.fail(format!("{name} changed within a run: {seen} then {value}"));
            }
            Some(_) => {}
            None => self.exact.push((name, value)),
        }
    }

    /// Closes a round that began at `started` with sample vectors of the
    /// given earlier lengths.
    pub fn close_round(
        &mut self,
        started: Instant,
        ops: u64,
        primary_from: usize,
        sec_from: usize,
    ) {
        self.rounds.push(Round {
            ops,
            elapsed_s: started.elapsed().as_secs_f64(),
            primary_ms: mean_or_nan(&self.primary_ms[primary_from..]),
            secondary_ms: mean_or_nan(&self.secondary_ms[sec_from..]),
        });
    }
}

/// Arithmetic mean, NaN for an empty sample.
pub fn mean_or_nan(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The run-level end-to-end timings of a set of rounds.
pub struct RoundStats {
    pub primary_ms: f64,
    pub secondary_ms: f64,
    pub ops_per_s: f64,
}

impl RoundStats {
    /// Lower decile of the rounds' means and upper decile of their
    /// rates: the run as it goes in its quiet rounds.
    pub fn of(rounds: &[Round]) -> Self {
        let rates: Vec<f64> = rounds.iter().map(Round::ops_per_s).collect();
        Self {
            primary_ms: quiet_ms(rounds.iter().map(|r| r.primary_ms)),
            secondary_ms: quiet_ms(rounds.iter().map(|r| r.secondary_ms)),
            ops_per_s: percentile(&rates, 90.0),
        }
    }
}

/// A set-up workload: a closed loop that can be run in rounds.
pub trait Workload {
    /// One untimed, unsampled pass so caches and lazy state are warm.
    fn warm(&mut self);
    /// Runs the closed loop until `deadline`, appending to `samples` and
    /// closing one [`Round`]. Records spans when `rec` is enabled.
    fn round(&mut self, deadline: Instant, rec: &mut Recorder, samples: &mut Samples);
    /// Tears the workload down and makes its end-of-run checks.
    fn finish(self: Box<Self>, rec: &mut Recorder, samples: &mut Samples);
}

/// A workload's name, why it exists, and what its two timed operations are.
pub struct Info {
    pub name: &'static str,
    /// Whether the run is pinned to one CPU (`cpu.rs`). The service
    /// workloads are not: behind a proving thread that never blocks, the
    /// service's light threads would wait out whole scheduler slices and
    /// latency would count ticks of the guest kernel.
    pub one_cpu: bool,
    pub why: &'static str,
    pub primary: &'static str,
    pub secondary: &'static str,
    pub op: &'static str,
}

/// The workloads, in the order `run` without `--workload` runs them.
pub const WORKLOADS: [Info; 6] = [
    Info {
        name: "prove_jellyfish",
        one_cpu: true,
        why: "HyperPlonk over the degree-7 Jellyfish gate, the paper's headline protocol: commit/open MSMs carry ~85% of a CPU prove and the ZeroChecks ~8%, so MSM and SumCheck gains must add up here",
        primary: "prove_with_config",
        secondary: "verify",
        op: "verified proof",
    },
    Info {
        name: "prove_vanilla",
        one_cpu: true,
        why: "Same prover on the degree-3, 3-column Vanilla gate at twice the rows: MSMs carry ~95%, so a SumCheck-evaluator change predicts no move and a gain for one gate system that costs the other shows",
        primary: "prove_with_config",
        secondary: "verify",
        op: "verified proof",
    },
    Info {
        name: "sumcheck_gates",
        one_cpu: true,
        why: "SumCheck over all 25 Table I gates plus degree 16 and 32: no curve arithmetic, the CPU baseline of the paper's SumCheck speedups; MSM work predicts no move",
        primary: "prove sweep over the 25 Table I gates",
        secondary: "prove of the degree-16 plus degree-32 gates",
        op: "verified SumCheck proof",
    },
    Info {
        name: "serve_tcp",
        one_cpu: false,
        why: "Whole service stack through the real socket, one worker saturated by a window of 8 tiny proofs, so per-request overhead is as large a share as it gets",
        primary: "request latency, submit to outcome frame",
        secondary: "worker service time per request",
        op: "completed and verified request",
    },
    Info {
        name: "serve_inproc",
        one_cpu: false,
        why: "Identical request mix and window through ProvingService::submit, bypassing codec and net: a wire-layer change predicts no move here",
        primary: "request latency, submit to streamed outcome",
        secondary: "worker service time per request",
        op: "completed and verified request",
    },
    Info {
        name: "model_sweep",
        one_cpu: true,
        why: "Host time of the accelerator model: full-system DSE for both gates, protocol simulations and a seeded fleet DES whose simulated statistics must repeat exactly",
        primary: "full_system_dse for Jellyfish and Vanilla",
        secondary: "fleet::simulate of the seeded arrival trace",
        op: "model pass with identical simulated statistics",
    },
];

/// Sets a workload up from the seed, ready to run rounds.
pub fn setup(name: &str, cfg: Config) -> Result<Box<dyn Workload>, String> {
    use zkphire_hyperplonk::GateSystem;
    Ok(match name {
        "prove_jellyfish" => Box::new(prove::Prove::setup(GateSystem::Jellyfish, cfg)),
        "prove_vanilla" => Box::new(prove::Prove::setup(GateSystem::Vanilla, cfg)),
        "sumcheck_gates" => Box::new(sumcheck::SumcheckGates::setup(cfg)),
        "serve_tcp" => Box::new(serve::Serve::setup(true, cfg)?),
        "serve_inproc" => Box::new(serve::Serve::setup(false, cfg)?),
        "model_sweep" => Box::new(model::ModelSweep::setup(cfg)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(ops: u64, elapsed_s: f64, primary: f64, secondary: f64) -> Round {
        Round {
            ops,
            elapsed_s,
            primary_ms: primary,
            secondary_ms: secondary,
        }
    }

    #[test]
    fn a_run_reports_its_quiet_rounds() {
        // Twenty rounds, five of them slowed 1.8x by a neighbour, one with
        // no secondary sample: the deciles pick the undisturbed level.
        let rounds: Vec<Round> = (0..20)
            .map(|i| {
                let slow = if i % 4 == 0 { 1.8 } else { 1.0 };
                let secondary = if i == 7 { f64::NAN } else { 5.0 * slow };
                round(10, 0.5 * slow, 100.0 * slow + f64::from(i), secondary)
            })
            .collect();
        let stats = RoundStats::of(&rounds);
        // Nearest-rank p10 of 20 is the second smallest: rounds 1 and 2.
        assert_eq!(stats.primary_ms, 102.0);
        assert_eq!(stats.secondary_ms, 5.0);
        assert_eq!(stats.ops_per_s, 20.0);
        assert!(mean_or_nan(&[]).is_nan());
        assert_eq!(mean_or_nan(&[3.0, 1.0, 5.0]), 3.0);
    }
}
