//! Proof requests, their size classes, and the tenants that submit them.

use zkphire_core::protocol::Gate;
use zkphire_telemetry::{escape_json, json_num, Outcome};

/// Identifies the customer a request belongs to. A single-tenant
/// deployment uses tenant `0` everywhere; multi-tenant runs assign one
/// id per customer and weight service between them (see
/// [`crate::policy::WeightedFairPolicy`]).
pub type TenantId = u32;

/// The service class of a request: which arithmetization and how many
/// gates (`2^mu`). Two requests of the same class have identical
/// per-proof service time and can share a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestClass {
    /// Gate system (Vanilla or Jellyfish).
    pub gate: Gate,
    /// log2 of the circuit's gate count.
    pub mu: usize,
}

impl RequestClass {
    /// Constructor shorthand.
    pub fn new(gate: Gate, mu: usize) -> Self {
        Self { gate, mu }
    }
}

impl std::fmt::Display for RequestClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = match self.gate {
            Gate::Vanilla => "V",
            Gate::Jellyfish => "J",
        };
        write!(f, "{g}^{}", self.mu)
    }
}

/// One in-flight proof request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// Unique, monotonically assigned id (also the arrival order).
    pub id: u64,
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Service class.
    pub class: RequestClass,
    /// Arrival timestamp (ms).
    pub arrival_ms: f64,
    /// Absolute latency deadline (ms) — used by deadline-aware policies.
    pub deadline_ms: f64,
    /// Retries consumed so far (0 = first service attempt). Bounded by
    /// [`crate::fault::RetryPolicy::max_retries`]; a request needing
    /// rescue past the budget is dropped as lost.
    pub attempts: u32,
}

/// Completion record for one served request.
#[derive(Clone, Copy, Debug)]
pub struct RequestRecord {
    /// The request id.
    pub id: u64,
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Service class.
    pub class: RequestClass,
    /// Arrival timestamp (ms).
    pub arrival_ms: f64,
    /// Absolute deadline it was admitted with (ms).
    pub deadline_ms: f64,
    /// When its batch started on a chip (ms).
    pub start_ms: f64,
    /// When its batch finished (ms).
    pub finish_ms: f64,
    /// Serving chip index.
    pub chip: usize,
    /// Number of requests in the batch it rode in.
    pub batch_size: usize,
    /// Retries this request consumed before completing (0 = served on
    /// its first attempt).
    pub attempts: u32,
}

impl RequestRecord {
    /// The record of `req` served on `chip` in a batch of `batch_size`
    /// that ran from `start_ms` to `finish_ms`.
    pub fn served(
        req: &Request,
        chip: usize,
        batch_size: usize,
        start_ms: f64,
        finish_ms: f64,
    ) -> Self {
        Self {
            id: req.id,
            tenant: req.tenant,
            class: req.class,
            arrival_ms: req.arrival_ms,
            deadline_ms: req.deadline_ms,
            start_ms,
            finish_ms,
            chip,
            batch_size,
            attempts: req.attempts,
        }
    }

    /// Sojourn time: queueing plus service (ms).
    pub fn latency_ms(&self) -> f64 {
        self.finish_ms - self.arrival_ms
    }

    /// Whether the request finished by its deadline.
    pub fn met_deadline(&self) -> bool {
        self.finish_ms <= self.deadline_ms
    }
}

/// Terminal-outcome record for one request, emitted as it resolves —
/// the streaming counterpart to the drain-time [`RequestRecord`] list.
/// Covers every terminal state ([`Outcome`]), not just completions.
#[derive(Clone, Copy, Debug)]
pub struct OutcomeRecord {
    /// The request id.
    pub id: u64,
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Service class.
    pub class: RequestClass,
    /// How the request left the system.
    pub outcome: Outcome,
    /// When the outcome was reached (ms since service start).
    pub t_ms: f64,
    /// Sojourn time for completions (ms); 0 for requests that never
    /// finished service.
    pub latency_ms: f64,
    /// Retries consumed.
    pub attempts: u32,
}

impl OutcomeRecord {
    /// The record of `req` leaving at `t_ms` without service
    /// ([`Outcome::Lost`], [`Outcome::Shed`]): no sojourn time.
    pub fn unserved(req: &Request, outcome: Outcome, t_ms: f64) -> Self {
        Self {
            id: req.id,
            tenant: req.tenant,
            class: req.class,
            outcome,
            t_ms,
            latency_ms: 0.0,
            attempts: req.attempts,
        }
    }

    /// One JSONL line (no trailing newline), stable field order.
    pub fn to_jsonl_line(&self) -> String {
        format!(
            "{{\"id\":{},\"tenant\":{},\"class\":\"{}\",\"outcome\":\"{}\",\"t_ms\":{},\"latency_ms\":{},\"attempts\":{}}}",
            self.id,
            self.tenant,
            escape_json(&self.class.to_string()),
            self.outcome.as_str(),
            json_num(self.t_ms),
            json_num(self.latency_ms),
            self.attempts,
        )
    }
}
