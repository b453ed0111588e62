//! Fault injection, retry, and graceful degradation for the fleet DES.
//!
//! A production proving service sized by `zkphire-dse` does not get to
//! assume chips never die: at deployment scale, chip faults, the
//! retries they trigger, and overload shedding dominate tail latency.
//! This module supplies the three policy objects the simulator composes
//! into a resilience layer:
//!
//! * [`FaultModel`] — when chips break and how long repair takes.
//!   Either a memoryless MTBF/MTTR process (exponential draws from a
//!   dedicated [`SplitMix64`] stream, so fault timing is a pure
//!   function of the fault seed) or a scripted outage list for
//!   controlled experiments ("chip 0 out from 3 s to 5 s").
//! * [`RetryPolicy`] — what happens to work a failure or deadline
//!   expiry took down: capped exponential backoff with deterministic
//!   jitter and a per-request attempt budget; requests over budget are
//!   *lost* (a terminal outcome, distinct from rejection).
//! * [`BrownOutConfig`] — graceful degradation: when surviving
//!   capacity drops below a threshold, the queue is trimmed by
//!   shedding the latest-deadline work so the remaining requests keep
//!   their SLO instead of everyone missing it together.
//!
//! All three are deterministic: two runs with identical configs and
//! seeds replay the same failures, the same backoff jitter, and the
//! same shed set, bit for bit.

use crate::rng::SplitMix64;

/// One planned outage of [`FaultKind::Scripted`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChipOutage {
    /// Pool slot that fails.
    pub chip: usize,
    /// Failure instant (ms). Applied only if the chip is online then.
    pub at_ms: f64,
    /// Repair time: the chip rejoins at `at_ms + down_for_ms`.
    pub down_for_ms: f64,
}

impl ChipOutage {
    /// Constructor shorthand.
    pub fn new(chip: usize, at_ms: f64, down_for_ms: f64) -> Self {
        assert!(at_ms >= 0.0 && down_for_ms > 0.0, "bad outage window");
        Self {
            chip,
            at_ms,
            down_for_ms,
        }
    }
}

/// How failures are generated.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Memoryless failures: every online chip fails after an
    /// exponential MTBF draw and repairs after an exponential MTTR
    /// draw. Draws come from one seeded stream consumed in
    /// deterministic event order.
    Random {
        /// Mean time between failures per chip (ms).
        mtbf_ms: f64,
        /// Mean time to repair (ms).
        mttr_ms: f64,
    },
    /// A fixed outage schedule — the controlled-experiment mode used by
    /// `repro faults` to pin "exactly one chip fails at t".
    Scripted {
        /// The outages, applied in list order.
        outages: Vec<ChipOutage>,
    },
}

/// Deployment knobs for fault injection.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Failure process.
    pub kind: FaultKind,
    /// Seed of the dedicated fault/jitter PRNG stream (kept separate
    /// from the arrival stream so enabling faults never perturbs the
    /// traffic a run sees).
    pub seed: u64,
}

impl FaultConfig {
    /// Memoryless MTBF/MTTR faults.
    pub fn random(mtbf_ms: f64, mttr_ms: f64, seed: u64) -> Self {
        assert!(mtbf_ms > 0.0 && mttr_ms > 0.0, "non-positive MTBF/MTTR");
        Self {
            kind: FaultKind::Random { mtbf_ms, mttr_ms },
            seed,
        }
    }

    /// A scripted outage plan.
    pub fn scripted(outages: Vec<ChipOutage>) -> Self {
        Self {
            kind: FaultKind::Scripted { outages },
            seed: 0,
        }
    }
}

/// Runtime state of the failure process: the config plus its PRNG.
#[derive(Clone, Debug)]
pub struct FaultModel {
    cfg: FaultConfig,
    rng: SplitMix64,
}

impl FaultModel {
    /// Instantiates the process from its config.
    pub fn new(cfg: FaultConfig) -> Self {
        let rng = SplitMix64::new(cfg.seed ^ 0xfau64.rotate_left(56));
        Self { cfg, rng }
    }

    /// Scripted outage list (empty for [`FaultKind::Random`]).
    pub fn outages(&self) -> &[ChipOutage] {
        match &self.cfg.kind {
            FaultKind::Random { .. } => &[],
            FaultKind::Scripted { outages } => outages,
        }
    }

    /// Delay until the next failure of a chip that just came online,
    /// or `None` when failures are scripted (armed up front instead).
    pub fn next_failure_ms(&mut self) -> Option<f64> {
        match self.cfg.kind {
            FaultKind::Random { mtbf_ms, .. } => Some(self.rng.next_exp(mtbf_ms)),
            FaultKind::Scripted { .. } => None,
        }
    }

    /// Repair delay for a chip that just failed randomly.
    pub fn next_repair_ms(&mut self) -> f64 {
        match self.cfg.kind {
            FaultKind::Random { mttr_ms, .. } => self.rng.next_exp(mttr_ms),
            FaultKind::Scripted { .. } => {
                unreachable!("scripted outages carry their own duration")
            }
        }
    }
}

/// Retry semantics for lost or deadline-expired requests.
///
/// A request's first service attempt is attempt 0; each re-entry
/// increments [`crate::request::Request::attempts`]. A request whose
/// attempts have reached `max_retries` when it next needs rescue is
/// dropped as *lost*. Backoff for the `k`-th retry is
/// `min(base · 2^(k-1), max)` scaled down by up to `jitter` uniformly —
/// deterministic, because the jitter draw comes from the fault stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Re-entries allowed per request (0 disables retry entirely).
    pub max_retries: u32,
    /// First-retry backoff (ms).
    pub base_backoff_ms: f64,
    /// Backoff ceiling (ms).
    pub max_backoff_ms: f64,
    /// Jitter fraction in `[0, 1)`: each backoff is scaled by a
    /// uniform draw from `[1 - jitter, 1]`, decorrelating retry storms.
    pub jitter: f64,
}

impl RetryPolicy {
    /// `max_retries` re-entries, 10 ms base doubling to a 500 ms cap,
    /// 50% jitter.
    pub fn new(max_retries: u32) -> Self {
        Self {
            max_retries,
            base_backoff_ms: 10.0,
            max_backoff_ms: 500.0,
            jitter: 0.5,
        }
    }

    /// Sets the jitter fraction (builder style).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!((0.0..1.0).contains(&jitter), "jitter outside [0, 1)");
        self.jitter = jitter;
        self
    }

    /// The stream [`Self::backoff_ms`] draws its jitter from, in the DES
    /// and the live service alike: `seed` XORed with a dedicated tag, so
    /// jitter draws never alias the failure-timing stream `seed` itself
    /// feeds, and a sim run and a serve run of one scenario draw
    /// identical backoffs.
    pub fn jitter_stream(seed: u64) -> SplitMix64 {
        SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Backoff before retry number `attempt` (1-based), jittered.
    pub fn backoff_ms(&self, attempt: u32, rng: &mut SplitMix64) -> f64 {
        assert!(attempt >= 1, "attempt numbering starts at 1");
        let doubled = self.base_backoff_ms * f64::from(2u32.pow((attempt - 1).min(20)));
        let capped = doubled.min(self.max_backoff_ms);
        capped * (1.0 - self.jitter * rng.next_f64())
    }
}

/// Graceful degradation: brown-out shedding under capacity loss.
///
/// The simulator enters brown-out whenever the online chip count drops
/// below `capacity_threshold` × the run's initial online pool (chips
/// lost to failures or not yet repaired/spun up). While browned out,
/// the queue is trimmed to `max_queue_per_chip` × online chips by
/// shedding the requests with the *latest* deadlines — the work most
/// able to absorb the loss — so the surviving capacity keeps serving
/// the urgent work inside its SLO instead of spreading the pain across
/// every request. Shedding is terminal: shed requests are not retried.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BrownOutConfig {
    /// Brown-out trigger: online < `capacity_threshold` × initial
    /// online pool. Must lie in `(0, 1]`.
    pub capacity_threshold: f64,
    /// Queue depth allowed per surviving chip while browned out.
    pub max_queue_per_chip: usize,
}

impl BrownOutConfig {
    /// Brown out below `capacity_threshold` of nominal capacity,
    /// keeping at most `max_queue_per_chip` queued per survivor.
    pub fn new(capacity_threshold: f64, max_queue_per_chip: usize) -> Self {
        assert!(
            capacity_threshold > 0.0 && capacity_threshold <= 1.0,
            "threshold outside (0, 1]"
        );
        Self {
            capacity_threshold,
            max_queue_per_chip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_model_is_deterministic_per_seed() {
        let mut a = FaultModel::new(FaultConfig::random(1_000.0, 50.0, 9));
        let mut b = FaultModel::new(FaultConfig::random(1_000.0, 50.0, 9));
        let xs: Vec<f64> = (0..16)
            .map(|i| {
                if i % 2 == 0 {
                    a.next_failure_ms().unwrap()
                } else {
                    a.next_repair_ms()
                }
            })
            .collect();
        let ys: Vec<f64> = (0..16)
            .map(|i| {
                if i % 2 == 0 {
                    b.next_failure_ms().unwrap()
                } else {
                    b.next_repair_ms()
                }
            })
            .collect();
        assert_eq!(xs, ys);
        let mut c = FaultModel::new(FaultConfig::random(1_000.0, 50.0, 10));
        assert_ne!(xs[0], c.next_failure_ms().unwrap());
    }

    #[test]
    fn mtbf_draws_converge_to_mean() {
        let mut m = FaultModel::new(FaultConfig::random(800.0, 40.0, 3));
        let n = 20_000;
        let mean = (0..n).map(|_| m.next_failure_ms().unwrap()).sum::<f64>() / f64::from(n);
        assert!((mean - 800.0).abs() < 25.0, "mean {mean}");
    }

    #[test]
    fn scripted_model_never_draws() {
        let mut m = FaultModel::new(FaultConfig::scripted(vec![ChipOutage::new(0, 100.0, 50.0)]));
        assert_eq!(m.next_failure_ms(), None);
        assert_eq!(m.outages().len(), 1);
        assert_eq!(m.outages()[0].chip, 0);
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_within_band() {
        let p = RetryPolicy {
            base_backoff_ms: 8.0,
            max_backoff_ms: 100.0,
            ..RetryPolicy::new(5)
        }
        .with_jitter(0.25);
        let mut rng = SplitMix64::new(7);
        for attempt in 1..=8u32 {
            let nominal = (8.0 * f64::from(2u32.pow(attempt - 1))).min(100.0);
            let b = p.backoff_ms(attempt, &mut rng);
            assert!(b <= nominal + 1e-12, "attempt {attempt}: {b} > {nominal}");
            assert!(b >= 0.75 * nominal - 1e-12, "attempt {attempt}: {b}");
        }
        // Jitter-free policy is exact.
        let q = RetryPolicy {
            base_backoff_ms: 4.0,
            ..RetryPolicy::new(2)
        }
        .with_jitter(0.0);
        assert_eq!(q.backoff_ms(1, &mut rng), 4.0);
        assert_eq!(q.backoff_ms(2, &mut rng), 8.0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn brown_out_rejects_zero_threshold() {
        BrownOutConfig::new(0.0, 4);
    }
}
