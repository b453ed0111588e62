//! # zkphire-telemetry
//!
//! Deterministic tracing, profiling hooks, and timeline export for the
//! zkPHIRE prover and fleet. Three recorders, two time domains:
//!
//! 1. **Wall-clock profiler** ([`span`] / [`counter_add`] /
//!    [`hist_record`]): ambient instrumentation for the prover hot
//!    path. Feature-gated (`record`) static dispatch — disabled builds
//!    compile every hook to nothing; enabled builds still gate on a
//!    runtime atomic ([`set_enabled`]) and record into thread-local
//!    buffers with no allocation on the hot path. Drain a [`Profile`]
//!    and export it with [`profile_to_chrome`] / [`profile_to_jsonl`].
//! 2. **Sim-time timeline** ([`SimTimeline`]): explicit, always-compiled
//!    data the fleet DES opts into at runtime. Every timestamp is
//!    deterministic simulated time, so traces are byte-identical per
//!    seed and reconcile *bitwise* with the simulator's own metrics
//!    (see the module docs in [`timeline`]).
//! 3. **Wall-clock timeline** ([`WallTimeline`]): the live proving
//!    service's counterpart to the sim timeline. Lifecycle hooks
//!    ([`wall_event`]) ride the same feature-gated thread-local buffers
//!    as the profiler; the drained events rebuild into per-request
//!    lifecycle phases, per-worker busy spans, and queue-depth series
//!    that reconcile with the service's own drain summary (see the
//!    module docs in [`wall`]).
//!
//! See `docs/OBSERVABILITY.md` for the design rationale, overhead
//! budget, trace schemas, and a Perfetto how-to.

pub mod profile;
pub mod timeline;
pub mod trace;
pub mod wall;

pub use profile::{
    counter_add, drain, hist_merge, hist_record, is_enabled, reset, set_enabled, span, wall_event,
    Histogram, Profile, Span, SpanRecord,
};
pub use timeline::{
    AdmissionEvent, AdmissionOutcome, ChipPhase, ChipSpan, SeriesPoint, SimTimeline,
};
pub use trace::{escape_json, json_num, profile_to_chrome, profile_to_jsonl, ChromeTrace};
pub use wall::{Outcome, WallEvent, WallEventKind, WallTimeline};
