//! Memoized protocol-cost queries.
//!
//! The discrete-event fleet simulator (`zkphire-fleet`) asks for the
//! per-proof latency of a `(gate, 2^mu)` request class on every dispatch
//! decision. Re-running [`simulate_protocol`] each time would redo the
//! whole five-step analytical schedule — identical inputs, identical
//! outputs — millions of times per simulation. [`CostModel`] wraps one
//! design point and caches every report by `(gate, mu)` (the masking
//! flag is fixed per model), so the steady-state cost of a query is one
//! `HashMap` probe.

use std::collections::HashMap;

use crate::protocol::{simulate_protocol, Gate, ProtocolReport};
use crate::system::ZkphireConfig;

/// A memoized view of [`simulate_protocol`] for one design point.
#[derive(Clone, Debug)]
pub struct CostModel {
    cfg: ZkphireConfig,
    masking: bool,
    cache: HashMap<(Gate, usize), ProtocolReport>,
    hits: u64,
    misses: u64,
}

impl CostModel {
    /// Wraps `cfg`; `masking` selects Masked-ZeroCheck composition.
    pub fn new(cfg: ZkphireConfig, masking: bool) -> Self {
        Self {
            cfg,
            masking,
            cache: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The exemplar Table V design with Masked ZeroCheck — the default
    /// chip the fleet simulator deploys.
    pub fn exemplar() -> Self {
        Self::new(ZkphireConfig::exemplar(), true)
    }

    /// The wrapped design point.
    pub fn config(&self) -> &ZkphireConfig {
        &self.cfg
    }

    /// Full per-step report for a `2^mu`-gate proof, memoized.
    pub fn report(&mut self, gate: Gate, mu: usize) -> ProtocolReport {
        match self.cache.get(&(gate, mu)) {
            Some(r) => {
                self.hits += 1;
                *r
            }
            None => {
                self.misses += 1;
                let r = simulate_protocol(&self.cfg, gate, mu, self.masking);
                self.cache.insert((gate, mu), r);
                r
            }
        }
    }

    /// End-to-end prover latency in milliseconds, memoized.
    pub fn proof_ms(&mut self, gate: Gate, mu: usize) -> f64 {
        self.report(gate, mu).total_ms
    }

    /// Pins the end-to-end latency of one `(gate, mu)` class to a
    /// measured value, overriding the analytical schedule's total.
    ///
    /// This is how a wall-clock measurement (e.g. `zkphire-serve`'s
    /// startup calibration of the software prover) is injected into the
    /// fleet simulator: pin each served class to its measured
    /// milliseconds and the DES predicts *this machine's* latency
    /// distribution instead of the accelerator's. Only `total_ms` is
    /// replaced; the per-step breakdown in [`CostModel::report`] keeps
    /// the analytical numbers and no longer sums to the pinned total.
    ///
    /// # Panics
    ///
    /// If `total_ms` is not finite and non-negative.
    pub fn pin_proof_ms(&mut self, gate: Gate, mu: usize, total_ms: f64) {
        assert!(
            total_ms.is_finite() && total_ms >= 0.0,
            "pinned latency must be finite and non-negative, got {total_ms}"
        );
        let mut r = self.report(gate, mu);
        r.total_ms = total_ms;
        self.cache.insert((gate, mu), r);
    }

    /// `(cache hits, cache misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoized_matches_direct() {
        let mut db = CostModel::exemplar();
        let direct = simulate_protocol(&ZkphireConfig::exemplar(), Gate::Jellyfish, 20, true);
        let cached_cold = db.proof_ms(Gate::Jellyfish, 20);
        let cached_warm = db.proof_ms(Gate::Jellyfish, 20);
        assert_eq!(cached_cold, direct.total_ms);
        assert_eq!(cached_warm, direct.total_ms);
        assert_eq!(db.stats(), (1, 1));
    }

    #[test]
    fn pinned_latency_overrides_the_analytical_total() {
        let mut db = CostModel::exemplar();
        let analytical = db.proof_ms(Gate::Vanilla, 18);
        db.pin_proof_ms(Gate::Vanilla, 18, 123.25);
        assert_eq!(db.proof_ms(Gate::Vanilla, 18), 123.25);
        // Other classes keep the analytical schedule.
        assert_ne!(db.proof_ms(Gate::Jellyfish, 18), 123.25);
        assert_ne!(analytical, 123.25, "pin chose a non-model value");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn pinning_nan_is_refused() {
        CostModel::exemplar().pin_proof_ms(Gate::Vanilla, 10, f64::NAN);
    }

    #[test]
    fn distinct_classes_distinct_costs() {
        let mut db = CostModel::exemplar();
        let small = db.proof_ms(Gate::Jellyfish, 18);
        let large = db.proof_ms(Gate::Jellyfish, 22);
        assert!(large > small);
        assert!(small > 0.0);
    }
}
