//! SLO metrics: exact sorted-sample quantiles, the per-run summary,
//! per-tenant latency breakdowns, and the Jain fairness index.

use std::collections::BTreeMap;

use crate::request::{RequestRecord, TenantId};
use zkphire_telemetry::Outcome;

/// Typed rejection of a bad metrics query. NaN is caught when the
/// sample is handed in — not deep inside a sort comparator — so callers
/// feeding untrusted latency data get an error naming the offending
/// index instead of a panic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricsError {
    /// The sample at this index is NaN.
    NanSample {
        /// Index of the first NaN in the input.
        index: usize,
    },
    /// An empty sample has no quantiles.
    EmptySample,
    /// `q` outside `(0, 1]`.
    InvalidQuantile(f64),
    /// A completion record carries a NaN latency — its finish or
    /// arrival timestamp was NaN, so no quantile of the run is
    /// meaningful.
    NanLatency {
        /// Id of the offending request record.
        id: u64,
    },
}

impl std::fmt::Display for MetricsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricsError::NanSample { index } => {
                write!(f, "NaN sample at index {index}")
            }
            MetricsError::EmptySample => write!(f, "quantile of empty sample"),
            MetricsError::InvalidQuantile(q) => {
                write!(f, "quantile {q} outside (0, 1]")
            }
            MetricsError::NanLatency { id } => {
                write!(f, "NaN latency on request record {id}")
            }
        }
    }
}

impl std::error::Error for MetricsError {}

/// Exact nearest-rank quantile of an ascending-sorted sample:
/// the smallest element with cumulative frequency ≥ `q`.
///
/// # Panics
///
/// Panics on an empty sample or `q` outside `(0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// NaN-rejecting quantile: validates the sample and `q` up front and
/// returns a typed [`MetricsError`] instead of panicking mid-sort.
pub fn try_quantile(values: &[f64], q: f64) -> Result<f64, MetricsError> {
    if let Some(index) = values.iter().position(|v| v.is_nan()) {
        return Err(MetricsError::NanSample { index });
    }
    if values.is_empty() {
        return Err(MetricsError::EmptySample);
    }
    if !(q > 0.0 && q <= 1.0) {
        return Err(MetricsError::InvalidQuantile(q));
    }
    let mut sorted = values.to_vec();
    // NaN already rejected, so total_cmp agrees with the numeric order.
    sorted.sort_by(f64::total_cmp);
    Ok(quantile_sorted(&sorted, q))
}

/// Convenience: sorts a copy and takes [`quantile_sorted`].
///
/// # Panics
///
/// Panics with the typed [`MetricsError`] message on NaN input, an
/// empty sample, or `q` outside `(0, 1]` — use [`try_quantile`] to
/// handle those as values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    try_quantile(values, q).unwrap_or_else(|e| panic!("{e}"))
}

/// Per-tenant slice of a run: how one customer experienced the fleet.
#[derive(Clone, Debug)]
pub struct TenantSummary {
    /// The tenant.
    pub tenant: TenantId,
    /// Service weight used for the fairness index (1 if unspecified).
    pub weight: f64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Requests shed by brown-out degradation.
    pub shed: u64,
    /// Requests lost after exhausting their retry budget.
    pub lost: u64,
    /// Mean sojourn latency (ms).
    pub mean_latency_ms: f64,
    /// Median latency (ms).
    pub p50_latency_ms: f64,
    /// 95th-percentile latency (ms).
    pub p95_latency_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_latency_ms: f64,
    /// Fraction of this tenant's completions past their deadline.
    pub deadline_miss_rate: f64,
    /// SLO-violation rate over everything this tenant offered: late
    /// completions plus rejections, sheds and losses, divided by
    /// `completed + rejected + shed + lost` — the per-tenant answer to
    /// "what fraction of my traffic did the service fail".
    pub slo_violation_rate: f64,
}

impl TenantSummary {
    /// Everything this tenant offered that reached a terminal outcome.
    pub fn offered(&self) -> u64 {
        self.completed + self.rejected + self.shed + self.lost
    }
}

/// Jain's fairness index over per-tenant weight-normalized allocations
/// `x_i = completed_i / weight_i`:
/// `J = (Σ x_i)² / (n · Σ x_i²)` — 1 when service shares match weights
/// exactly, `1/n` when one tenant monopolizes the fleet. Empty or
/// single-tenant inputs return 1 (nothing to be unfair about).
pub fn jain_index(allocations: &[f64]) -> f64 {
    if allocations.len() <= 1 {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (allocations.len() as f64 * sum_sq)
}

/// Aggregate results of one fleet simulation.
#[derive(Clone, Debug)]
pub struct FleetSummary {
    /// Requests that arrived from the traffic source. Conservation:
    /// `arrivals == completed + rejected + shed + lost` once the run
    /// drains (the property suite replays this from the trace).
    pub arrivals: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests refused at admission (queue full).
    pub rejected: u64,
    /// Requests shed by brown-out degradation (terminal, not retried).
    pub shed: u64,
    /// Requests lost for good: a chip failure or deadline expiry with
    /// no retry budget left.
    pub lost: u64,
    /// Retry re-entries scheduled (one request may retry many times).
    pub retries: u64,
    /// Chip failures injected mid-run.
    pub chip_failures: u64,
    /// Chip repairs completed mid-run.
    pub chip_repairs: u64,
    /// Timestamp of the last event (ms).
    pub makespan_ms: f64,
    /// Completed requests per second of simulated time.
    pub throughput_rps: f64,
    /// *Useful* completions per second: only requests that finished
    /// within their deadline count. Under failures this is the metric
    /// that separates "the fleet stayed up" from "the fleet stayed
    /// useful" — throughput counts late work, goodput does not.
    pub goodput_rps: f64,
    /// Mean sojourn latency (ms).
    pub mean_latency_ms: f64,
    /// Median latency (ms).
    pub p50_latency_ms: f64,
    /// 95th-percentile latency (ms).
    pub p95_latency_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_latency_ms: f64,
    /// Worst-case latency (ms).
    pub max_latency_ms: f64,
    /// Total busy time over total *provisioned* chip-time. Without
    /// failures this equals the mean of the per-chip busy fractions;
    /// with them it charges only the chip-time actually kept online,
    /// so it diverges from `per_chip_utilization` (whose entries stay
    /// relative to the whole makespan, including time spent failed).
    pub mean_utilization: f64,
    /// Busy fraction per chip.
    pub per_chip_utilization: Vec<f64>,
    /// Time-weighted mean queue depth.
    pub mean_queue_depth: f64,
    /// Peak queue depth.
    pub max_queue_depth: usize,
    /// Mean requests per dispatched batch.
    pub mean_batch_size: f64,
    /// Fraction of completed requests that missed their deadline.
    pub deadline_miss_rate: f64,
    /// Provisioned chip-time (chips online, integrated over the run) in
    /// seconds; a failed chip stops counting until its repair.
    pub chip_seconds: f64,
    /// Time-weighted mean provisioned chip count.
    pub mean_chips: f64,
    /// Peak chips simultaneously provisioned.
    pub peak_chips: usize,
    /// One slice per tenant seen in the run, ascending by id.
    pub per_tenant: Vec<TenantSummary>,
    /// Jain fairness index over weight-normalized per-tenant
    /// completions (1.0 for single-tenant runs).
    pub jain_fairness: f64,
}

impl FleetSummary {
    /// The count behind each terminal [`Outcome`] — the reconciliation
    /// surface a [`zkphire_telemetry::WallTimeline`] checks itself
    /// against (see `zkphire-serve`'s `reconcile_wall`).
    pub fn outcome_count(&self, outcome: Outcome) -> u64 {
        match outcome {
            Outcome::Completed => self.completed,
            Outcome::Rejected => self.rejected,
            Outcome::Shed => self.shed,
            Outcome::Lost => self.lost,
        }
    }
}

/// Raw accumulators the simulator hands to [`summarize`].
#[derive(Clone, Debug, Default)]
pub struct RunAccumulators {
    /// Per-chip busy milliseconds.
    pub busy_ms: Vec<f64>,
    /// Integral of queue depth over time (depth × ms).
    pub depth_time_integral: f64,
    /// Peak queue depth.
    pub max_queue_depth: usize,
    /// Batches dispatched.
    pub batches: u64,
    /// Requests arrived from the source.
    pub arrivals: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Per-tenant admission rejections.
    pub rejected_by_tenant: BTreeMap<TenantId, u64>,
    /// Requests shed by brown-out degradation.
    pub shed: u64,
    /// Per-tenant brown-out sheds.
    pub shed_by_tenant: BTreeMap<TenantId, u64>,
    /// Requests lost past their retry budget.
    pub lost: u64,
    /// Per-tenant losses.
    pub lost_by_tenant: BTreeMap<TenantId, u64>,
    /// Retry re-entries scheduled.
    pub retries: u64,
    /// Chip failures injected.
    pub chip_failures: u64,
    /// Chip repairs completed.
    pub chip_repairs: u64,
    /// Timestamp of the last event (ms).
    pub makespan_ms: f64,
    /// Integral of provisioned chips over time (chips × ms): every
    /// chip not failed.
    pub chip_time_integral_ms: f64,
    /// Peak provisioned chip count.
    pub peak_chips: usize,
}

/// Sorted latencies → `(mean, p50, p95, p99)`; zeros for an empty run.
fn latency_stats(sorted: &[f64]) -> (f64, f64, f64, f64) {
    if sorted.is_empty() {
        (0.0, 0.0, 0.0, 0.0)
    } else {
        (
            sorted.iter().sum::<f64>() / sorted.len() as f64,
            quantile_sorted(sorted, 0.50),
            quantile_sorted(sorted, 0.95),
            quantile_sorted(sorted, 0.99),
        )
    }
}

/// Reduces completion records and accumulators to a [`FleetSummary`].
/// `tenant_weights` feeds the fairness index and the per-tenant
/// summaries; tenants absent from it weigh 1.
///
/// # Panics
///
/// Panics with the typed [`MetricsError`] message when a record carries
/// a NaN latency — use [`try_summarize`] to handle that as a value (the
/// fleet engine does).
pub fn summarize(
    records: &[RequestRecord],
    acc: &RunAccumulators,
    tenant_weights: &[(TenantId, f64)],
) -> FleetSummary {
    try_summarize(records, acc, tenant_weights).unwrap_or_else(|e| panic!("{e}"))
}

/// NaN-rejecting [`summarize`]: validates every record's latency up
/// front and returns a typed [`MetricsError::NanLatency`] naming the
/// offending request instead of panicking inside a sort comparator.
pub fn try_summarize(
    records: &[RequestRecord],
    acc: &RunAccumulators,
    tenant_weights: &[(TenantId, f64)],
) -> Result<FleetSummary, MetricsError> {
    if let Some(bad) = records.iter().find(|r| r.latency_ms().is_nan()) {
        return Err(MetricsError::NanLatency { id: bad.id });
    }
    let completed = records.len() as u64;
    let makespan = acc.makespan_ms;
    let mut latencies: Vec<f64> = records.iter().map(RequestRecord::latency_ms).collect();
    // NaN rejected above, so total_cmp agrees with the numeric order.
    latencies.sort_by(f64::total_cmp);
    let (mean, p50, p95, p99) = latency_stats(&latencies);
    let max = latencies.last().copied().unwrap_or(0.0);

    // Per-tenant slices: every tenant that completed a request or was
    // rejected gets one, ascending by id.
    let weight_of = |tenant: TenantId| {
        tenant_weights
            .iter()
            .find(|(t, _)| *t == tenant)
            .map_or(1.0, |(_, w)| *w)
    };
    let mut by_tenant: BTreeMap<TenantId, Vec<&RequestRecord>> = BTreeMap::new();
    for r in records {
        by_tenant.entry(r.tenant).or_default().push(r);
    }
    for &tenant in acc
        .rejected_by_tenant
        .keys()
        .chain(acc.shed_by_tenant.keys())
        .chain(acc.lost_by_tenant.keys())
    {
        by_tenant.entry(tenant).or_default();
    }
    let per_tenant: Vec<TenantSummary> = by_tenant
        .iter()
        .map(|(&tenant, recs)| {
            let mut lats: Vec<f64> = recs.iter().map(|r| r.latency_ms()).collect();
            lats.sort_by(f64::total_cmp);
            let (t_mean, t_p50, t_p95, t_p99) = latency_stats(&lats);
            let misses = recs.iter().filter(|r| !r.met_deadline()).count() as u64;
            let rejected = acc.rejected_by_tenant.get(&tenant).copied().unwrap_or(0);
            let shed = acc.shed_by_tenant.get(&tenant).copied().unwrap_or(0);
            let lost = acc.lost_by_tenant.get(&tenant).copied().unwrap_or(0);
            let offered = recs.len() as u64 + rejected + shed + lost;
            TenantSummary {
                tenant,
                weight: weight_of(tenant),
                completed: recs.len() as u64,
                rejected,
                shed,
                lost,
                mean_latency_ms: t_mean,
                p50_latency_ms: t_p50,
                p95_latency_ms: t_p95,
                p99_latency_ms: t_p99,
                deadline_miss_rate: if recs.is_empty() {
                    0.0
                } else {
                    misses as f64 / recs.len() as f64
                },
                slo_violation_rate: if offered == 0 {
                    0.0
                } else {
                    (misses + rejected + shed + lost) as f64 / offered as f64
                },
            }
        })
        .collect();
    let allocations: Vec<f64> = per_tenant
        .iter()
        .map(|t| t.completed as f64 / t.weight)
        .collect();
    let jain_fairness = jain_index(&allocations);
    let per_chip_utilization: Vec<f64> = acc
        .busy_ms
        .iter()
        .map(|b| if makespan > 0.0 { b / makespan } else { 0.0 })
        .collect();
    // Busy time over *provisioned* time: without failures this equals
    // the mean of per-chip busy fractions; with them it charges only
    // the chip-time actually kept online.
    let mean_utilization = if acc.chip_time_integral_ms > 0.0 {
        acc.busy_ms.iter().sum::<f64>() / acc.chip_time_integral_ms
    } else {
        0.0
    };
    let misses = records.iter().filter(|r| !r.met_deadline()).count();
    let in_deadline = completed - misses as u64;
    Ok(FleetSummary {
        arrivals: acc.arrivals,
        completed,
        rejected: acc.rejected,
        shed: acc.shed,
        lost: acc.lost,
        retries: acc.retries,
        chip_failures: acc.chip_failures,
        chip_repairs: acc.chip_repairs,
        makespan_ms: makespan,
        throughput_rps: if makespan > 0.0 {
            completed as f64 / (makespan / 1000.0)
        } else {
            0.0
        },
        goodput_rps: if makespan > 0.0 {
            in_deadline as f64 / (makespan / 1000.0)
        } else {
            0.0
        },
        mean_latency_ms: mean,
        p50_latency_ms: p50,
        p95_latency_ms: p95,
        p99_latency_ms: p99,
        max_latency_ms: max,
        mean_utilization,
        per_chip_utilization,
        mean_queue_depth: if makespan > 0.0 {
            acc.depth_time_integral / makespan
        } else {
            0.0
        },
        max_queue_depth: acc.max_queue_depth,
        mean_batch_size: if acc.batches > 0 {
            completed as f64 / acc.batches as f64
        } else {
            0.0
        },
        deadline_miss_rate: if completed > 0 {
            misses as f64 / completed as f64
        } else {
            0.0
        },
        chip_seconds: acc.chip_time_integral_ms / 1000.0,
        mean_chips: if makespan > 0.0 {
            acc.chip_time_integral_ms / makespan
        } else {
            0.0
        },
        peak_chips: acc.peak_chips,
        per_tenant,
        jain_fairness,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.50), 50.0);
        assert_eq!(quantile_sorted(&s, 0.95), 95.0);
        assert_eq!(quantile_sorted(&s, 0.99), 99.0);
        assert_eq!(quantile_sorted(&s, 1.0), 100.0);
        assert_eq!(quantile_sorted(&s, 0.001), 1.0);
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile_sorted(&[7.5], 0.5), 7.5);
        assert_eq!(quantile_sorted(&[7.5], 1.0), 7.5);
    }

    #[test]
    fn unsorted_helper_matches_sorted() {
        let v = vec![9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 1.0), 9.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn zero_quantile_rejected() {
        quantile_sorted(&[1.0], 0.0);
    }

    #[test]
    fn nan_sample_rejected_with_typed_error() {
        // A NaN latency must surface as a typed error naming the index,
        // not a panic from inside the sort comparator.
        assert_eq!(
            try_quantile(&[1.0, f64::NAN, 3.0], 0.5),
            Err(MetricsError::NanSample { index: 1 })
        );
        assert_eq!(try_quantile(&[], 0.5), Err(MetricsError::EmptySample));
        assert_eq!(
            try_quantile(&[1.0], 0.0),
            Err(MetricsError::InvalidQuantile(0.0))
        );
        assert_eq!(
            try_quantile(&[1.0], 1.5),
            Err(MetricsError::InvalidQuantile(1.5))
        );
        // Valid input matches the sorted fast path.
        assert_eq!(try_quantile(&[3.0, 1.0, 2.0], 0.5), Ok(2.0));
    }

    #[test]
    #[should_panic(expected = "NaN sample at index 0")]
    fn quantile_panics_with_typed_message_on_nan() {
        quantile(&[f64::NAN], 0.5);
    }

    #[test]
    fn nan_latency_record_rejected_with_typed_error() {
        use zkphire_core::protocol::Gate;
        let rec = |id: u64, finish_ms: f64| RequestRecord {
            id,
            tenant: 3,
            class: crate::request::RequestClass::new(Gate::Jellyfish, 10),
            arrival_ms: 0.0,
            deadline_ms: 100.0,
            start_ms: 1.0,
            finish_ms,
            chip: 0,
            batch_size: 1,
            attempts: 0,
        };
        let acc = RunAccumulators {
            busy_ms: vec![0.0],
            batches: 1,
            arrivals: 2,
            makespan_ms: 10.0,
            chip_time_integral_ms: 10.0,
            peak_chips: 1,
            ..Default::default()
        };
        // A NaN finish time must surface as a typed error naming the
        // record, not a panic from inside a sort comparator.
        let err = try_summarize(&[rec(0, 5.0), rec(7, f64::NAN)], &acc, &[]).unwrap_err();
        assert_eq!(err, MetricsError::NanLatency { id: 7 });
        // Clean records summarize fine through the same path.
        let ok = try_summarize(&[rec(0, 5.0)], &acc, &[]).expect("clean records");
        assert_eq!(ok.completed, 1);
        assert_eq!(ok.p99_latency_ms, 5.0);
    }

    #[test]
    #[should_panic(expected = "NaN latency on request record 9")]
    fn summarize_panics_with_typed_message_on_nan() {
        use zkphire_core::protocol::Gate;
        let rec = RequestRecord {
            id: 9,
            tenant: 0,
            class: crate::request::RequestClass::new(Gate::Vanilla, 8),
            arrival_ms: f64::NAN,
            deadline_ms: 1.0,
            start_ms: 0.0,
            finish_ms: 1.0,
            chip: 0,
            batch_size: 1,
            attempts: 0,
        };
        let acc = RunAccumulators {
            busy_ms: vec![0.0],
            arrivals: 1,
            makespan_ms: 1.0,
            chip_time_integral_ms: 1.0,
            peak_chips: 1,
            ..Default::default()
        };
        summarize(&[rec], &acc, &[]);
    }

    #[test]
    fn jain_index_limits() {
        // Perfect equality → 1; total monopoly of n tenants → 1/n.
        assert_eq!(jain_index(&[5.0, 5.0, 5.0]), 1.0);
        let mono = jain_index(&[12.0, 0.0, 0.0, 0.0]);
        assert!((mono - 0.25).abs() < 1e-12, "monopoly {mono}");
        // Empty / single-tenant runs are trivially fair.
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[7.0]), 1.0);
        // All-zero allocations (nothing completed) are not NaN.
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }
}
