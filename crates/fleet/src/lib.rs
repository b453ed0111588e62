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
//! ([`events::EventQueue`]). Six event kinds exist ([`events::Event`]):
//! a request arrival, a chip finishing its batch, a chip failing (drawn
//! or scripted) or finishing repair, and a parked request's retry.
//! Every tie on the f64 timestamp is broken by a monotone sequence
//! number, and every random draw comes from an explicitly seeded
//! [`rng::SplitMix64`] stream — no wall clock, no OS entropy — so a run
//! is a pure function of `(config, seed)` and two runs with the same
//! seed produce byte-identical traces ([`sim::SimReport::trace_hash`]).
//!
//! The pipeline per event:
//!
//! ```text
//! arrivals ──► admission ──► batching policy ──► chip pool ──► records
//! (Poisson,    (tenant cap,  (FIFO | size-class  (fixed size;  (SLO +
//!  ON/OFF,      then queue    | EDF | weighted-   chips fail    fairness
//!  trace,       capacity)     fair DRR)           and repair)   metrics)
//!  per-tenant)       ▲              │                  │
//!                    │              ▼                  │
//!               retry backoff ◄── rescue ◄─────────────┘
//!               (or lost)      (failed batch, expired deadline;
//!                               brown-out sheds the queue instead)
//! ```
//!
//! The rules of that loop — admission caps, queueing, retry / lost,
//! re-admission, brown-out shedding, batch selection and the drain
//! checks — live in one module, [`lifecycle`], which owns no clock and
//! returns what happened as values; [`sim`] is the event loop that
//! calls it, and the live service in `zkphire-serve` calls the same
//! functions from its dispatcher thread.
//!
//! * **Arrivals** ([`arrivals`]) are open-loop: Poisson, bursty ON/OFF
//!   (interrupted Poisson), or a replayed trace. Each request draws a
//!   class `(gate, log2 n)` from a [`mix::WorkloadMix`] built on the
//!   paper's Tables VI/VII workloads.
//! * **Admission** ([`lifecycle::AdmissionLedger`]) optionally bounds
//!   each tenant's share of the queue and the queue as a whole;
//!   overflow is rejected and counted (a real service sheds load
//!   rather than queue without bound).
//! * **Batching** ([`policy`]) groups same-class requests so a chip
//!   pays its per-batch reconfiguration (§III-E program load) once per
//!   batch instead of once per proof.
//! * **Service times** come from the paper's own cycle model: a batch
//!   of requests costs `overhead + Σ simulate_protocol(gate, mu)` via
//!   [`zkphire_core::costdb::CostModel`], which memoizes the analytical
//!   five-step HyperPlonk schedule per `(gate, mu)` class — the DES
//!   issues millions of cost queries but evaluates the protocol model
//!   once per distinct class.
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
pub mod lifecycle;
pub mod metrics;
pub mod mix;
pub mod policy;
pub mod request;
pub mod rng;
pub mod sim;

pub use arrivals::{ArrivalSource, OnOffSource, PoissonSource, TraceSource};
pub use error::SimError;
pub use events::{Event, EventQueue};
pub use fault::{BrownOutConfig, ChipOutage, FaultConfig, FaultKind, FaultModel, RetryPolicy};
pub use lifecycle::{AdmissionLedger, Dispatch, Lifecycle, Readmit, Refusal, Rescue};
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
pub use sim::{
    simulate, simulate_poisson_fleet, uniform_trace, FleetConfig, SimReport, TraceEntry,
};
pub use zkphire_telemetry::{
    AdmissionOutcome, ChipPhase, ChipSpan, Outcome, SeriesPoint, SimTimeline,
};
