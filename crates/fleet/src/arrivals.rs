//! Request generators: the open-loop traffic a proving service faces.
//!
//! All sources are deterministic functions of their seed and produce
//! arrivals in nondecreasing time order up to a horizon; the simulator
//! pulls them one ahead so at most one arrival event is in flight.

use crate::mix::TenantMix;
use crate::request::{RequestClass, TenantId};
use crate::rng::SplitMix64;

/// An open-loop traffic source.
pub trait ArrivalSource {
    /// The next arrival as `(absolute time ms, class, tenant)`, or
    /// `None` when the source is exhausted. Times must be
    /// nondecreasing.
    fn next_arrival(&mut self) -> Option<(f64, RequestClass, TenantId)>;
}

/// Poisson arrivals: i.i.d. exponential inter-arrival gaps at a fixed
/// rate, tenants and classes drawn from a [`TenantMix`].
#[derive(Clone, Debug)]
pub struct PoissonSource {
    mean_gap_ms: f64,
    horizon_ms: f64,
    t: f64,
    rng: SplitMix64,
    mix: TenantMix,
}

impl PoissonSource {
    /// `rate_rps` requests/second on average until `horizon_ms`. The
    /// mix may be a bare [`crate::mix::WorkloadMix`] (single tenant) or
    /// a full [`TenantMix`].
    pub fn new(rate_rps: f64, horizon_ms: f64, mix: impl Into<TenantMix>, seed: u64) -> Self {
        assert!(rate_rps > 0.0, "non-positive arrival rate");
        Self {
            mean_gap_ms: 1000.0 / rate_rps,
            horizon_ms,
            t: 0.0,
            rng: SplitMix64::new(seed),
            mix: mix.into(),
        }
    }
}

impl ArrivalSource for PoissonSource {
    fn next_arrival(&mut self) -> Option<(f64, RequestClass, TenantId)> {
        let t = self.t + self.rng.next_exp(self.mean_gap_ms);
        if t > self.horizon_ms {
            return None;
        }
        self.t = t;
        let (tenant, class) = self.mix.draw(&mut self.rng);
        Some((t, class, tenant))
    }
}

/// Bursty ON/OFF (interrupted-Poisson) arrivals: exponentially
/// distributed ON phases emitting Poisson traffic at `on_rate_rps`,
/// separated by silent exponentially distributed OFF phases. The
/// long-run average rate is `on_rate_rps * on / (on + off)`.
#[derive(Clone, Debug)]
pub struct OnOffSource {
    mean_gap_ms: f64,
    mean_on_ms: f64,
    mean_off_ms: f64,
    horizon_ms: f64,
    t: f64,
    on_end_ms: f64,
    rng: SplitMix64,
    mix: TenantMix,
}

impl OnOffSource {
    /// Starts at the beginning of an ON phase at time zero.
    pub fn new(
        on_rate_rps: f64,
        mean_on_ms: f64,
        mean_off_ms: f64,
        horizon_ms: f64,
        mix: impl Into<TenantMix>,
        seed: u64,
    ) -> Self {
        assert!(on_rate_rps > 0.0 && mean_on_ms > 0.0 && mean_off_ms > 0.0);
        let mix = mix.into();
        let mut rng = SplitMix64::new(seed);
        let on_end_ms = rng.next_exp(mean_on_ms);
        Self {
            mean_gap_ms: 1000.0 / on_rate_rps,
            mean_on_ms,
            mean_off_ms,
            horizon_ms,
            t: 0.0,
            on_end_ms,
            rng,
            mix,
        }
    }
}

impl ArrivalSource for OnOffSource {
    fn next_arrival(&mut self) -> Option<(f64, RequestClass, TenantId)> {
        loop {
            let candidate = self.t + self.rng.next_exp(self.mean_gap_ms);
            if candidate > self.horizon_ms {
                return None;
            }
            if candidate <= self.on_end_ms {
                self.t = candidate;
                let (tenant, class) = self.mix.draw(&mut self.rng);
                return Some((candidate, class, tenant));
            }
            // The candidate fell past the ON phase: skip the OFF phase
            // and restart the gap draw inside the next ON phase.
            let off = self.rng.next_exp(self.mean_off_ms);
            let next_on_start = self.on_end_ms + off;
            if next_on_start > self.horizon_ms {
                return None;
            }
            self.t = next_on_start;
            self.on_end_ms = next_on_start + self.rng.next_exp(self.mean_on_ms);
        }
    }
}

/// Replays a recorded arrival trace (times must be nondecreasing).
#[derive(Clone, Debug)]
pub struct TraceSource {
    entries: Vec<(f64, RequestClass, TenantId)>,
    idx: usize,
}

impl TraceSource {
    /// Builds from `(time_ms, class)` pairs, all tenant 0; panics if
    /// out of order.
    pub fn new(entries: Vec<(f64, RequestClass)>) -> Self {
        Self::with_tenants(entries.into_iter().map(|(t, c)| (t, c, 0)).collect())
    }

    /// Builds from `(time_ms, class, tenant)` triples; panics if out of
    /// order.
    pub fn with_tenants(entries: Vec<(f64, RequestClass, TenantId)>) -> Self {
        assert!(
            entries.windows(2).all(|w| w[0].0 <= w[1].0),
            "trace arrivals out of order"
        );
        Self { entries, idx: 0 }
    }
}

impl ArrivalSource for TraceSource {
    fn next_arrival(&mut self) -> Option<(f64, RequestClass, TenantId)> {
        let e = self.entries.get(self.idx).copied();
        if e.is_some() {
            self.idx += 1;
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkphire_core::protocol::Gate;

    use crate::mix::{TenantProfile, WorkloadMix};

    fn mix() -> WorkloadMix {
        WorkloadMix::single(RequestClass::new(Gate::Jellyfish, 18))
    }

    #[test]
    fn poisson_rate_close_to_nominal() {
        let mut src = PoissonSource::new(200.0, 60_000.0, mix(), 42);
        let mut count = 0u64;
        let mut last = 0.0;
        while let Some((t, _, _)) = src.next_arrival() {
            assert!(t >= last && t <= 60_000.0);
            last = t;
            count += 1;
        }
        // 200 rps for 60 s ≈ 12000 arrivals; allow 5%.
        assert!((11_400..=12_600).contains(&count), "count {count}");
    }

    #[test]
    fn onoff_is_burstier_than_poisson() {
        // Same average rate: ON 1/3 of the time at 300 rps ≈ 100 rps.
        let horizon = 120_000.0;
        let mut on_off = OnOffSource::new(300.0, 500.0, 1000.0, horizon, mix(), 7);
        let mut poisson = PoissonSource::new(100.0, horizon, mix(), 7);
        let cv2 = |src: &mut dyn ArrivalSource| {
            let mut gaps = Vec::new();
            let mut last = 0.0;
            while let Some((t, _, _)) = src.next_arrival() {
                gaps.push(t - last);
                last = t;
            }
            let n = gaps.len() as f64;
            let mean = gaps.iter().sum::<f64>() / n;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / n;
            var / (mean * mean)
        };
        let bursty = cv2(&mut on_off);
        let smooth = cv2(&mut poisson);
        // Poisson gaps have squared CV ≈ 1; the MMPP must exceed it.
        assert!(smooth < 1.3, "poisson cv2 {smooth}");
        assert!(bursty > smooth * 1.5, "onoff {bursty} vs poisson {smooth}");
    }

    #[test]
    fn trace_replays_exactly() {
        let class = RequestClass::new(Gate::Vanilla, 20);
        let entries = vec![(1.0, class, 3u32), (1.0, class, 0), (4.5, class, 7)];
        let mut src = TraceSource::with_tenants(entries.clone());
        let mut out = Vec::new();
        while let Some(e) = src.next_arrival() {
            out.push(e);
        }
        assert_eq!(out, entries);
    }

    #[test]
    fn multi_tenant_poisson_labels_every_arrival() {
        let tm = crate::mix::TenantMix::new(vec![
            TenantProfile::new(1, 1.0, mix()),
            TenantProfile::new(2, 2.0, mix()),
        ]);
        let mut src = PoissonSource::new(100.0, 20_000.0, tm, 6);
        let mut seen = std::collections::BTreeSet::new();
        while let Some((_, _, tenant)) = src.next_arrival() {
            seen.insert(tenant);
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn trace_rejects_disorder() {
        let class = RequestClass::new(Gate::Vanilla, 20);
        TraceSource::new(vec![(2.0, class), (1.0, class)]);
    }
}
