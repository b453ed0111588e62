//! Workload mixes: which request classes a traffic source draws and how
//! often.
//!
//! The default mixes come from the paper's evaluation workloads (Tables
//! VI/VII via [`zkphire_core::workloads`]): each named workload
//! contributes its published `log2 n` as one class. Weights default to
//! inverse proof size — a proving service fields many small proofs
//! (wallet transfers, single hashes) for every monster rollup — but any
//! weighting can be supplied.

use crate::request::{RequestClass, TenantId};
use crate::rng::SplitMix64;
use zkphire_core::protocol::Gate;
use zkphire_core::workloads::all_workloads;

/// A weighted set of request classes.
#[derive(Clone, Debug)]
pub struct WorkloadMix {
    classes: Vec<RequestClass>,
    weights: Vec<f64>,
}

impl WorkloadMix {
    /// A mix from explicit `(class, weight)` pairs.
    pub fn new(entries: Vec<(RequestClass, f64)>) -> Self {
        assert!(!entries.is_empty(), "empty workload mix");
        assert!(
            entries.iter().all(|(_, w)| *w > 0.0),
            "non-positive mix weight"
        );
        let (classes, weights) = entries.into_iter().unzip();
        Self { classes, weights }
    }

    /// A single-class mix (useful for microbenchmarks and tests).
    pub fn single(class: RequestClass) -> Self {
        Self::new(vec![(class, 1.0)])
    }

    /// The Table VII Jellyfish suite, weighted `1 / 2^(mu - mu_min)` so
    /// small proofs dominate the request stream. `max_mu` drops the
    /// largest instances (a `2^27` zkEVM proof is a batch job, not an
    /// interactive request).
    pub fn table_vii_jellyfish(max_mu: usize) -> Self {
        let entries: Vec<(RequestClass, f64)> = all_workloads()
            .iter()
            .filter_map(|w| w.jellyfish_log2)
            .filter(|&mu| mu <= max_mu)
            .map(|mu| (RequestClass::new(Gate::Jellyfish, mu), 1.0))
            .collect();
        Self::inverse_size_weighted(entries)
    }

    /// Both tables combined — the service accepts either arithmetization.
    pub fn tables_vi_vii(max_mu: usize) -> Self {
        let mut entries: Vec<(RequestClass, f64)> = Vec::new();
        for w in all_workloads() {
            if let Some(mu) = w.vanilla_log2 {
                if mu <= max_mu {
                    entries.push((RequestClass::new(Gate::Vanilla, mu), 1.0));
                }
            }
            if let Some(mu) = w.jellyfish_log2 {
                if mu <= max_mu {
                    entries.push((RequestClass::new(Gate::Jellyfish, mu), 1.0));
                }
            }
        }
        Self::inverse_size_weighted(entries)
    }

    fn inverse_size_weighted(mut entries: Vec<(RequestClass, f64)>) -> Self {
        assert!(!entries.is_empty(), "no workloads under the mu cap");
        entries.sort_by_key(|(c, _)| *c);
        entries.dedup_by_key(|(c, _)| *c);
        let mu_min = entries.iter().map(|(c, _)| c.mu).min().unwrap_or_default();
        for (class, weight) in &mut entries {
            *weight = 1.0 / (1u64 << (class.mu - mu_min).min(60)) as f64;
        }
        Self::new(entries)
    }

    /// The distinct classes in this mix.
    pub fn classes(&self) -> &[RequestClass] {
        &self.classes
    }

    /// Draws one class.
    pub fn draw(&self, rng: &mut SplitMix64) -> RequestClass {
        self.classes[rng.next_weighted(&self.weights)]
    }
}

/// One tenant's share of the traffic: its id, its fraction of the
/// arrival stream (`traffic_weight`), its service entitlement under
/// weighted-fair batching (`service_weight`), and what it submits.
#[derive(Clone, Debug)]
pub struct TenantProfile {
    /// Tenant id (unique within a [`TenantMix`]).
    pub tenant: TenantId,
    /// Relative share of arrivals this tenant generates (> 0).
    pub traffic_weight: f64,
    /// Relative service entitlement for fair queueing (> 0).
    pub service_weight: f64,
    /// What this tenant submits.
    pub mix: WorkloadMix,
}

impl TenantProfile {
    /// A profile with equal traffic and service weight.
    pub fn new(tenant: TenantId, weight: f64, mix: WorkloadMix) -> Self {
        Self {
            tenant,
            traffic_weight: weight,
            service_weight: weight,
            mix,
        }
    }

    /// Overrides the service entitlement (builder style).
    pub fn with_service_weight(mut self, w: f64) -> Self {
        self.service_weight = w;
        self
    }
}

/// A multi-tenant traffic description: per-tenant workload mixes plus
/// arrival shares. Drawing yields `(tenant, class)`; a single-tenant
/// mix consumes exactly the same RNG stream as a bare [`WorkloadMix`],
/// so existing single-tenant seeds replay unchanged.
#[derive(Clone, Debug)]
pub struct TenantMix {
    profiles: Vec<TenantProfile>,
    traffic_weights: Vec<f64>,
}

impl TenantMix {
    /// Builds from per-tenant profiles; ids must be unique, weights
    /// positive.
    pub fn new(profiles: Vec<TenantProfile>) -> Self {
        assert!(!profiles.is_empty(), "empty tenant mix");
        for (i, p) in profiles.iter().enumerate() {
            assert!(p.traffic_weight > 0.0, "non-positive traffic weight");
            assert!(p.service_weight > 0.0, "non-positive service weight");
            assert!(
                profiles[..i].iter().all(|q| q.tenant != p.tenant),
                "duplicate tenant id {}",
                p.tenant
            );
        }
        let traffic_weights = profiles.iter().map(|p| p.traffic_weight).collect();
        Self {
            profiles,
            traffic_weights,
        }
    }

    /// The whole stream belongs to tenant 0.
    pub fn single(mix: WorkloadMix) -> Self {
        Self::new(vec![TenantProfile::new(0, 1.0, mix)])
    }

    /// The tenant profiles.
    pub fn profiles(&self) -> &[TenantProfile] {
        &self.profiles
    }

    /// `(tenant, service_weight)` pairs, for fair-queueing policies and
    /// the Jain fairness index.
    pub fn service_weights(&self) -> Vec<(TenantId, f64)> {
        self.profiles
            .iter()
            .map(|p| (p.tenant, p.service_weight))
            .collect()
    }

    /// Draws one arrival's `(tenant, class)`. Single-tenant mixes skip
    /// the tenant draw so their RNG stream matches plain
    /// [`WorkloadMix::draw`].
    pub fn draw(&self, rng: &mut SplitMix64) -> (TenantId, RequestClass) {
        let i = if self.profiles.len() == 1 {
            0
        } else {
            rng.next_weighted(&self.traffic_weights)
        };
        let p = &self.profiles[i];
        (p.tenant, p.mix.draw(rng))
    }
}

impl From<WorkloadMix> for TenantMix {
    fn from(mix: WorkloadMix) -> Self {
        Self::single(mix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_mixes_respect_mu_cap() {
        let mix = WorkloadMix::table_vii_jellyfish(21);
        assert!(!mix.classes().is_empty());
        assert!(mix.classes().iter().all(|c| c.mu <= 21));
        assert!(mix.classes().iter().all(|c| c.gate == Gate::Jellyfish));
    }

    #[test]
    fn combined_mix_has_both_gates() {
        let mix = WorkloadMix::tables_vi_vii(22);
        assert!(mix.classes().iter().any(|c| c.gate == Gate::Vanilla));
        assert!(mix.classes().iter().any(|c| c.gate == Gate::Jellyfish));
    }

    #[test]
    fn small_classes_drawn_more_often() {
        let mix = WorkloadMix::table_vii_jellyfish(20);
        let mu_min = mix.classes().iter().map(|c| c.mu).min().unwrap();
        let mu_max = mix.classes().iter().map(|c| c.mu).max().unwrap();
        assert!(mu_min < mu_max);
        let mut rng = SplitMix64::new(5);
        let mut small = 0usize;
        let mut large = 0usize;
        for _ in 0..4000 {
            let c = mix.draw(&mut rng);
            if c.mu == mu_min {
                small += 1;
            } else if c.mu == mu_max {
                large += 1;
            }
        }
        assert!(small > large, "small {small} large {large}");
    }

    #[test]
    fn draw_is_deterministic() {
        let mix = WorkloadMix::tables_vi_vii(24);
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..100 {
            assert_eq!(mix.draw(&mut a), mix.draw(&mut b));
        }
    }

    #[test]
    fn single_tenant_preserves_workload_stream() {
        // TenantMix::single must consume exactly the RNG draws a bare
        // WorkloadMix does, so single-tenant seeds replay unchanged.
        let mix = WorkloadMix::tables_vi_vii(22);
        let tm = TenantMix::single(mix.clone());
        let mut a = SplitMix64::new(17);
        let mut b = SplitMix64::new(17);
        for _ in 0..200 {
            let (tenant, class) = tm.draw(&mut a);
            assert_eq!(tenant, 0);
            assert_eq!(class, mix.draw(&mut b));
        }
    }

    #[test]
    fn tenant_draw_tracks_traffic_weights() {
        use zkphire_core::protocol::Gate;
        let small = WorkloadMix::single(crate::request::RequestClass::new(Gate::Jellyfish, 16));
        let tm = TenantMix::new(vec![
            TenantProfile::new(1, 3.0, small.clone()),
            TenantProfile::new(2, 1.0, small),
        ]);
        let mut rng = SplitMix64::new(4);
        let mut counts = [0usize; 2];
        for _ in 0..4000 {
            let (t, _) = tm.draw(&mut rng);
            counts[(t - 1) as usize] += 1;
        }
        // Tenant 1 offers 3× tenant 2's traffic.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "duplicate tenant")]
    fn duplicate_tenant_ids_rejected() {
        let m = WorkloadMix::table_vii_jellyfish(20);
        TenantMix::new(vec![
            TenantProfile::new(1, 1.0, m.clone()),
            TenantProfile::new(1, 1.0, m),
        ]);
    }
}
