//! Reconciliation between the wall timeline and the drain summary.
//!
//! The [`zkphire_telemetry::WallTimeline`] is rebuilt from events the
//! service recorded as it ran; the [`FleetSummary`] is reduced from the
//! records it handed back at drain. The two are independent paths over
//! the same run, so they must agree *exactly* — terminal-outcome counts
//! as integers, per-worker busy time bitwise (the timeline replays the
//! dispatcher's own `busy_ms += finish - start` ops with the same f64
//! operands in the same order). Any mismatch means events were dropped,
//! double-recorded, or the service's accounting drifted — a bug, not
//! noise, which is why the check returns a typed [`ServeError`] instead
//! of a tolerance.

use zkphire_fleet::{FleetSummary, Outcome};
use zkphire_telemetry::WallTimeline;

use crate::error::ServeError;

/// Asserts that `timeline` and `summary` describe the same run: every
/// terminal-outcome count equal, and every recorded worker's busy-span
/// integral bitwise equal to the busy time behind the summary's
/// per-chip utilization.
///
/// An empty timeline (the service was started on a thread bound to no
/// [`zkphire_telemetry::Session`], or the `record` feature is off)
/// reconciles only with an empty run — callers that recorded assert
/// the timeline is non-empty before treating success as evidence.
///
/// # Errors
///
/// [`ServeError::Invariant`] naming the first mismatching quantity.
pub fn reconcile_wall(timeline: &WallTimeline, summary: &FleetSummary) -> Result<(), ServeError> {
    for outcome in [
        Outcome::Completed,
        Outcome::Rejected,
        Outcome::Shed,
        Outcome::Lost,
    ] {
        let tl = timeline.outcome_count(outcome);
        let sm = summary.outcome_count(outcome);
        if tl != sm {
            return Err(ServeError::Invariant(format!(
                "wall timeline counts {tl} {} outcomes, summary counts {sm}",
                outcome.as_str()
            )));
        }
    }
    if timeline.num_workers() > summary.per_chip_utilization.len() {
        return Err(ServeError::Invariant(format!(
            "wall timeline saw {} workers, summary has {}",
            timeline.num_workers(),
            summary.per_chip_utilization.len()
        )));
    }
    // The summary stores busy as a fraction of makespan; undo the one
    // division it applied so the comparison is against the accumulator
    // itself, bitwise. A worker with no busy span integrates to 0.0,
    // matching a chip that never dispatched.
    for (w, &util) in summary.per_chip_utilization.iter().enumerate() {
        let tl_busy = timeline.worker_busy_ms(w);
        let tl_util = if summary.makespan_ms > 0.0 {
            tl_busy / summary.makespan_ms
        } else {
            0.0
        };
        if tl_util.to_bits() != util.to_bits() {
            return Err(ServeError::Invariant(format!(
                "worker {w} busy-span integral {tl_busy} ms (utilization {tl_util}) \
                 does not bitwise-match summary utilization {util}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkphire_fleet::{try_summarize, RunAccumulators};
    use zkphire_telemetry::{WallEvent, WallEventKind};

    fn ev(
        t_ns: u64,
        seq: u64,
        kind: WallEventKind,
        id: u64,
        arg: u64,
        a: f64,
        b: f64,
    ) -> WallEvent {
        WallEvent {
            t_ns,
            seq,
            tid: 0,
            kind,
            id,
            tenant: 0,
            arg,
            a,
            b,
        }
    }

    fn empty_acc(workers: usize, makespan_ms: f64) -> RunAccumulators {
        RunAccumulators {
            busy_ms: vec![0.0; workers],
            makespan_ms,
            chip_time_integral_ms: workers as f64 * makespan_ms,
            peak_chips: workers,
            ..Default::default()
        }
    }

    #[test]
    fn empty_timeline_reconciles_with_empty_run() {
        let tl = WallTimeline::from_events(&[]);
        let summary = try_summarize(&[], &empty_acc(1, 0.0), &[]).expect("summarize");
        reconcile_wall(&tl, &summary).expect("both empty");
    }

    #[test]
    fn outcome_count_mismatch_is_named() {
        let tl = WallTimeline::from_events(&[ev(10, 0, WallEventKind::Lost, 1, 0, 0.0, 0.0)]);
        let summary = try_summarize(&[], &empty_acc(1, 0.0), &[]).expect("summarize");
        let err = reconcile_wall(&tl, &summary).expect_err("1 lost vs 0");
        assert!(err.to_string().contains("lost"), "{err}");
    }

    #[test]
    fn busy_integral_must_match_bitwise() {
        // One busy op with operands that don't divide cleanly: replaying
        // the op reconciles; a hand-computed "close" value would not.
        let mut acc = empty_acc(1, 30.0);
        acc.busy_ms = vec![0.3 - 0.1];
        let summary = try_summarize(&[], &acc, &[]).expect("summarize");
        let good =
            WallTimeline::from_events(&[ev(5, 0, WallEventKind::WorkerBusy, 0, 0, 0.1, 0.3)]);
        reconcile_wall(&good, &summary).expect("same op, same bits");
        let bad = WallTimeline::from_events(&[ev(5, 0, WallEventKind::WorkerBusy, 0, 0, 0.0, 0.2)]);
        let err = reconcile_wall(&bad, &summary).expect_err("0.2 != 0.3-0.1 bitwise");
        assert!(err.to_string().contains("worker 0"), "{err}");
    }
}
