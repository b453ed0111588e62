//! Typed failure modes of the fleet engine.
//!
//! Everything that used to be a `panic!`/`expect` inside the simulator
//! — bad configuration, a non-finite timestamp entering the event heap,
//! an internal invariant breaking mid-run, a NaN latency reaching the
//! summary — surfaces here as an [`SimError`] value instead. A service
//! embedding the engine (the DSE, a what-if endpoint, the live
//! `zkphire-serve` front-end) can refuse one bad scenario or request
//! without dying.

use crate::metrics::MetricsError;

/// Typed failure modes of [`crate::sim::simulate`] and of the event
/// engine it drives.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The [`crate::sim::FleetConfig`] is unusable (zero chips, negative
    /// overhead, a scripted outage naming a chip outside the pool, …).
    InvalidConfig(String),
    /// A non-finite (NaN or infinite) timestamp reached event
    /// construction. A single NaN arrival would otherwise poison the
    /// event heap's ordering mid-run; it is rejected at the boundary
    /// instead.
    InvalidTime {
        /// The offending timestamp (ms); NaN or ±∞.
        time_ms: f64,
    },
    /// An event was scheduled before the engine's current clock — the
    /// future-event list only moves forward.
    EventInPast {
        /// The requested timestamp (ms).
        time_ms: f64,
        /// The engine clock when the push was attempted (ms).
        now_ms: f64,
    },
    /// An `Arrival` event popped with no primed request body — the
    /// arrival pipeline invariant (exactly one in flight) broke.
    ArrivalWithoutPending {
        /// The orphaned arrival's id.
        id: u64,
        /// Event time (ms).
        time_ms: f64,
    },
    /// A `Retry` event popped for a request not parked in backoff.
    UnknownRetry {
        /// The unknown request id.
        id: u64,
        /// Event time (ms).
        time_ms: f64,
    },
    /// An engine invariant broke (event-stream corruption, accounting
    /// drift at drain, a policy returning an impossible answer). The
    /// message is the old `expect` text, kept verbatim so failures stay
    /// greppable across the migration.
    Invariant(String),
    /// Summarization rejected the run's latency sample (NaN record).
    Metrics(MetricsError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidConfig(why) => write!(f, "invalid fleet config: {why}"),
            Self::InvalidTime { time_ms } => {
                write!(f, "non-finite simulation time {time_ms}")
            }
            Self::EventInPast { time_ms, now_ms } => {
                write!(f, "event scheduled in the past: {time_ms} < {now_ms}")
            }
            Self::ArrivalWithoutPending { id, time_ms } => {
                write!(f, "arrival {id} at {time_ms} ms without pending request")
            }
            Self::UnknownRetry { id, time_ms } => {
                write!(f, "retry event at {time_ms} ms for unknown request {id}")
            }
            Self::Invariant(why) => write!(f, "engine invariant broke: {why}"),
            Self::Metrics(e) => write!(f, "metrics error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<MetricsError> for SimError {
    fn from(e: MetricsError) -> Self {
        Self::Metrics(e)
    }
}
