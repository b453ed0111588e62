//! `zkphire-fleet`: a deterministic discrete-event simulator (DES) of a
//! proof-serving fleet built from zkPHIRE chips.
//!
//! The paper models one chip proving one HyperPlonk instance; a
//! production proving service is a *throughput* system — thousands of
//! requests per second from millions of users, against a latency SLO.
//! This crate answers the operator questions the single-chip model
//! cannot: how many chips, what batching policy, what p99?
//!
//! # DES design
//!
//! The simulator is an event loop over a binary-heap future-event list
//! ([`events::EventQueue`]). Two event kinds exist: a request arrival
//! and a chip finishing its batch. Every tie on the f64 timestamp is
//! broken by a monotone sequence number, and every random draw comes
//! from an explicitly seeded [`rng::SplitMix64`] stream — no wall
//! clock, no OS entropy — so a run is a pure function of
//! `(config, seed)` and two runs with the same seed produce
//! byte-identical traces ([`sim::SimReport::trace_hash`]).
//!
//! The pipeline per event:
//!
//! ```text
//! arrivals ──► admission ──► batching policy ──► chip pool ──► records
//! (Poisson,    (queue cap)   (FIFO | size-class  (elastic:     (SLO +
//!  ON/OFF,                    | EDF | weighted-   autoscaler    fairness
//!  trace,                     fair DRR)           grows/shrinks metrics)
//!  per-tenant)                                    within bounds)
//! ```
//!
//! * **Arrivals** ([`arrivals`]) are open-loop: Poisson, bursty ON/OFF
//!   (interrupted Poisson), or a replayed trace. Each request draws a
//!   class `(gate, log2 n)` from a [`mix::WorkloadMix`] built on the
//!   paper's Tables VI/VII workloads.
//! * **Admission** optionally bounds the queue; overflow is rejected
//!   and counted (a real service sheds load rather than queue without
//!   bound).
//! * **Batching** ([`policy`]) groups same-class requests so a chip
//!   pays its per-batch reconfiguration (§III-E program load) once per
//!   batch instead of once per proof.
//! * **Service times** come from the paper's own cycle model: a batch
//!   of requests costs `overhead + Σ simulate_protocol(gate, mu)` via
//!   [`zkphire_core::costdb::CostModel`], which memoizes the analytical
//!   five-step HyperPlonk schedule per `(gate, mu)` class — the DES
//!   issues millions of cost queries but evaluates the protocol model
//!   once per distinct class.
//! * **Autoscaling** ([`scale`]) makes the pool elastic: a periodic
//!   `ScaleTick` event feeds an [`scale::AutoscalePolicy`] (static
//!   baseline, queue-depth hysteresis, or utilization band) whose
//!   decisions the simulator realizes through `ChipUp` events after a
//!   configurable spin-up latency and `ChipDown` events for idle
//!   chips, clamped to `[min_chips, max_chips]` and rate-limited by a
//!   cooldown. Chip-time actually provisioned is integrated into
//!   [`metrics::FleetSummary::chip_seconds`] — the cost side of the
//!   over- vs under-provisioning trade.
//! * **Multi-tenancy**: every request carries a [`request::TenantId`]
//!   drawn from a [`mix::TenantMix`] (per-tenant workload mixes and
//!   traffic shares); the [`policy::WeightedFairPolicy`] runs deficit
//!   round-robin over per-tenant queues so one flooding tenant cannot
//!   starve the rest.
//! * **Metrics** ([`metrics`]) reduce completion records to SLO facts:
//!   throughput, per-chip utilization, queue depth, exact nearest-rank
//!   p50/p95/p99 latency quantiles — globally and per tenant — plus
//!   Jain's fairness index over weight-normalized completions.
//!
//! # Autoscaling at a glance
//!
//! The `repro autoscale` seeded run (ON/OFF bursts: 2000 rps for
//! ~500 ms, then ~1500 ms silent — 25% duty cycle, two tenants,
//! weighted-fair batching, p99 SLO 120 ms, 40 ms spin-up) compares the
//! shipped policies against the statically sized optimum of 4 chips:
//!
//! | policy       | mean/peak chips | chip-seconds | p99 ms | SLO |
//! |--------------|-----------------|--------------|--------|-----|
//! | static       | 4.00 / 4        | 48.0         | 16.6   | met |
//! | queue-depth  | 1.89 / 4        | 22.8         | 60.8   | met |
//! | util-target  | 1.93 / 4        | 23.2         | 60.8   | met |
//!
//! Both reactive policies hold the SLO on less than half the static
//! fleet's chip-seconds (these exact numbers are regenerated by
//! `repro autoscale` and locked by the golden regression test in
//! `tests/`). The savings are bought with spin-up latency — shrink the
//! burst gaps or grow `spin_up_ms` and the advantage narrows, exactly
//! the trade `zkphire_dse::compare_provisioning` quantifies.
//!
//! # Example
//!
//! ```
//! use zkphire_fleet::{simulate_poisson_fleet, PolicyKind};
//!
//! // 4 exemplar chips, 50 proofs/s of Tables VI/VII traffic, 2 s.
//! let report = simulate_poisson_fleet(4, 50.0, 2_000.0, PolicyKind::SizeClass, 1);
//! assert!(report.summary.completed > 0);
//! assert!(report.summary.mean_utilization > 0.0);
//! assert!(report.summary.p99_latency_ms >= report.summary.p50_latency_ms);
//! ```

pub mod arrivals;
pub mod error;
pub mod events;
pub mod fault;
pub mod metrics;
pub mod mix;
pub mod policy;
pub mod request;
pub mod rng;
pub mod scale;
pub mod sim;

pub use arrivals::{ArrivalSource, OnOffSource, PoissonSource, TraceSource};
pub use error::SimError;
pub use events::{Event, EventQueue};
pub use fault::{BrownOutConfig, ChipOutage, FaultConfig, FaultKind, FaultModel, RetryPolicy};
pub use metrics::{
    jain_index, quantile, quantile_sorted, try_quantile, try_summarize, FleetSummary, MetricsError,
    RunAccumulators, TenantSummary,
};
pub use mix::{TenantMix, TenantProfile, WorkloadMix};
pub use policy::{
    BatchPolicy, EdfPolicy, FifoPolicy, PolicyKind, SizeClassPolicy, WeightedFairPolicy,
};
pub use request::{OutcomeRecord, Request, RequestClass, RequestRecord, TenantId};
pub use rng::SplitMix64;
pub use scale::{
    AutoscaleConfig, AutoscalePolicy, QueueDepthScale, ScaleDecision, ScaleKind, ScaleObservation,
    StaticScale, UtilizationTargetScale,
};
pub use sim::{
    resolve_tenant_cap, simulate, simulate_poisson_fleet, uniform_trace, FleetConfig, SimReport,
    TraceEntry,
};
pub use zkphire_telemetry::{
    AdmissionOutcome, ChipPhase, ChipSpan, Outcome, SeriesPoint, SimTimeline,
};
