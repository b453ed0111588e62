//! # zkphire-telemetry
//!
//! Deterministic tracing, profiling hooks, and timeline export for the
//! zkPHIRE prover and fleet. Three recorders, two time domains:
//!
//! 1. **Wall-clock profiler** ([`span`] / [`counter_add`] /
//!    [`hist_record`]): ambient instrumentation for the prover hot
//!    path. Feature-gated (`record`) static dispatch — disabled builds
//!    compile every hook to nothing; enabled builds record only on
//!    threads bound to a [`Session`], into thread-local buffers with no
//!    allocation on the hot path. A recording is an owned handle:
//!    [`Session::start`] → run → [`Session::finish`] returns the
//!    [`Profile`]; threads spawned along the way join through
//!    [`current`] + [`SessionRef::enter`]. Export the profile with
//!    [`profile_to_chrome`] / [`profile_to_jsonl`].
//! 2. **Sim-time timeline** ([`SimTimeline`]): explicit, always-compiled
//!    data the fleet DES opts into at runtime. Every timestamp is
//!    deterministic simulated time, so traces are byte-identical per
//!    seed and reconcile *bitwise* with the simulator's own metrics
//!    (see the module docs in [`timeline`]).
//! 3. **Wall-clock timeline** ([`WallTimeline`]): the live proving
//!    service's counterpart to the sim timeline. Lifecycle hooks
//!    ([`wall_event`]) ride the same feature-gated thread-local buffers
//!    as the profiler; the finished session's events rebuild into per-request
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
    counter_add, current, hist_merge, hist_record, is_recording, span, wall_event, Entered,
    Histogram, Profile, Session, SessionRef, Span, SpanRecord,
};
pub use timeline::{
    AdmissionEvent, AdmissionOutcome, ChipPhase, ChipSpan, SeriesPoint, SimTimeline,
};
pub use trace::{escape_json, json_num, profile_to_chrome, profile_to_jsonl, ChromeTrace};
pub use wall::{Outcome, WallEvent, WallEventKind, WallTimeline};
