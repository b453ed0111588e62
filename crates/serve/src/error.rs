//! Typed failure modes of the proving service.
//!
//! The serve dispatch loop has the same no-panic contract as the fleet
//! engine's `simulate()`: anything that can go wrong — a refused
//! submission, a poisoned lock, a dead worker, an engine invariant
//! breaking — comes back as a [`ServeError`] value, never a panic that
//! takes the whole front-end down with one bad request.

use zkphire_fleet::{MetricsError, Refusal, SimError, TenantId};

use crate::codec::FrameError;

/// Typed failure modes of [`crate::service::ProvingService`].
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The [`crate::service::ServeConfig`] is unusable (no workers, no
    /// serveable classes, a non-finite deadline knob, …).
    InvalidConfig(String),
    /// Admission refused the request: the submitting tenant is at its
    /// queued-request cap.
    TenantCapExceeded {
        /// The capped tenant.
        tenant: TenantId,
        /// Its configured cap.
        cap: usize,
    },
    /// Admission refused the request: the shared queue is full.
    QueueFull {
        /// The configured shared capacity.
        capacity: usize,
    },
    /// The service is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// A request named a class the service did not bake prover assets
    /// for at startup.
    UnknownClass(String),
    /// A `ZKPHIRE_SERVE_*` env var is set but does not parse. Surfaced
    /// as a startup error naming the variable — a typo'd tuning knob
    /// must not silently degrade to the default.
    InvalidEnv {
        /// The offending variable name.
        var: &'static str,
        /// Its unparsable value.
        value: String,
    },
    /// A peer's bytes failed to parse as a protocol frame (bad magic,
    /// oversized declaration, truncated body, unknown type). The
    /// connection gets a structured [`crate::codec::Frame::Error`]
    /// response and a close — never a panic.
    Protocol(FrameError),
    /// A network operation on the front-end failed (bind, accept,
    /// read, write, connect). `op` names the operation; `detail` is
    /// the OS error text.
    Net {
        /// The operation that failed (`"bind"`, `"read"`, …).
        op: &'static str,
        /// OS-level detail.
        detail: String,
    },
    /// `shutdown()` was called on a server that already drained, or
    /// work was submitted after drain completed.
    AlreadyShutDown,
    /// A service invariant broke (a worker died, a lock was poisoned,
    /// accounting drifted, a proof failed verification). Mirrors
    /// [`SimError::Invariant`].
    Invariant(String),
    /// Wall-clock summarization rejected the run's latency sample.
    Metrics(MetricsError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidConfig(why) => write!(f, "invalid serve config: {why}"),
            Self::TenantCapExceeded { tenant, cap } => {
                write!(f, "tenant {tenant} at queued-request cap {cap}")
            }
            Self::QueueFull { capacity } => {
                write!(f, "shared queue at capacity {capacity}")
            }
            Self::ShuttingDown => write!(f, "service is shutting down"),
            Self::UnknownClass(class) => {
                write!(f, "no prover assets baked for class {class}")
            }
            Self::InvalidEnv { var, value } => {
                write!(f, "env var {var} is set to the unparsable value {value:?}")
            }
            Self::Protocol(e) => write!(f, "protocol error: {e}"),
            Self::Net { op, detail } => write!(f, "net {op} failed: {detail}"),
            Self::AlreadyShutDown => write!(f, "service already shut down"),
            Self::Invariant(why) => write!(f, "service invariant broke: {why}"),
            Self::Metrics(e) => write!(f, "metrics error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<MetricsError> for ServeError {
    fn from(e: MetricsError) -> Self {
        Self::Metrics(e)
    }
}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        Self::Protocol(e)
    }
}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::Metrics(m) => Self::Metrics(m),
            SimError::Invariant(why) => Self::Invariant(why),
            other => Self::Invariant(other.to_string()),
        }
    }
}

impl From<Refusal> for ServeError {
    fn from(refusal: Refusal) -> Self {
        match refusal {
            Refusal::TenantCap { tenant, cap } => Self::TenantCapExceeded { tenant, cap },
            Refusal::QueueFull { capacity } => Self::QueueFull { capacity },
        }
    }
}

impl ServeError {
    /// Whether this error is an admission refusal (the request was
    /// counted and rejected by policy) rather than a service fault.
    pub fn is_rejection(&self) -> bool {
        matches!(
            self,
            Self::TenantCapExceeded { .. } | Self::QueueFull { .. }
        )
    }
}
