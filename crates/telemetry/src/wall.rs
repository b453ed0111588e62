//! Wall-clock timelines for the live proving service.
//!
//! The third recorder: where the profiler ([`crate::profile`]) captures
//! ambient *prover* spans and [`crate::timeline::SimTimeline`] captures
//! deterministic *sim-time* fleet state, `WallTimeline` captures the
//! live service's request lifecycle in wall time — admitted → queued →
//! dispatched → proving → verify → terminal outcome — plus per-worker
//! busy spans, queue-depth series, and admission events.
//!
//! Recording rides the profiler's thread-local machinery: the service
//! calls [`crate::profile::wall_event`] (an inlined no-op without the
//! `record` feature, and on a thread bound to no session), events land
//! in the same per-thread buffers as spans, and
//! [`crate::Session::finish`] returns them on the [`crate::Profile`]
//! sorted by `(t_ns, tid, seq)` — so rebuilding the timeline from a
//! finished session's profile is deterministic for a given run.
//!
//! # Reconciliation by construction
//!
//! Like `SimTimeline`, the wall timeline never re-derives the metrics
//! it sits next to — it replays the service's own accounting ops:
//!
//! * The dispatcher emits one [`WallEventKind::WorkerBusy`] event with
//!   the exact `(start_ms, finish_ms)` f64s at the moment it does
//!   `busy_ms += finish - start`; [`WallTimeline::worker_busy_ms`]
//!   replays `+= b - a` in event order, so it is **bitwise equal** to
//!   the per-worker busy the summary's utilization divides.
//! * Terminal outcomes are counted from the same event per request the
//!   service counts, so [`WallTimeline::outcome_count`] matches the
//!   summary's `completed`/`rejected`/`shed`/`lost` exactly.
//!
//! Timestamps are nanoseconds from the recorder's monotonic clock; the
//! epoch (first event's timestamp) is recorded once in the export
//! `meta` line so two exports of the same recorded run are
//! byte-identical aside from that one field.

use crate::trace::{escape_json, json_num, ChromeTrace};

/// Terminal outcome of one request — the shared vocabulary between the
/// live service, the DES summary, and streamed outcome records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// Served to completion with a verified proof.
    Completed,
    /// Refused at admission (tenant cap or queue capacity).
    Rejected,
    /// Shed by brown-out degradation.
    Shed,
    /// Lost past the retry budget (chip failure or deadline expiry).
    Lost,
}

impl Outcome {
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::Rejected => "rejected",
            Outcome::Shed => "shed",
            Outcome::Lost => "lost",
        }
    }
}

/// What one wall event records. Payload fields (`id`, `tenant`, `arg`,
/// `a`, `b`) are interpreted per kind — see each variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WallEventKind {
    /// Fresh arrival admitted (`id`, `tenant`).
    Admitted,
    /// Fresh arrival refused — terminal (`id`, `tenant`).
    Rejected,
    /// Parked retry re-admitted to the queue (`id`, `tenant`).
    RetryAdmitted,
    /// Parked retry refused again — re-parked or lost (`id`, `tenant`).
    RetryRejected,
    /// Request handed to a worker (`id`, `arg` = worker).
    Dispatched,
    /// Worker began proving a request (`id`, `arg` = worker).
    ProveBegin,
    /// Worker finished proving a request (`id`, `arg` = worker).
    ProveEnd,
    /// Worker began verifying a request's proof (`id`, `arg` = worker).
    VerifyBegin,
    /// Worker finished verifying (`id`, `arg` = worker).
    VerifyEnd,
    /// Terminal: completed (`id`, `tenant`, `a` = latency ms).
    Completed,
    /// Request parked for a retry backoff (`id`, `a` = wake ms).
    RetryParked,
    /// Terminal: shed by brown-out (`id`, `tenant`).
    Shed,
    /// Terminal: lost past the retry budget (`id`, `tenant`).
    Lost,
    /// The dispatcher's per-worker busy accounting op (`arg` = worker,
    /// `a` = batch start ms, `b` = batch finish ms): replayed by
    /// [`WallTimeline::worker_busy_ms`] for bitwise reconciliation.
    WorkerBusy,
    /// Worker failed and entered repair (`arg` = worker).
    WorkerRepairBegin,
    /// Worker rejoined the pool (`arg` = worker).
    WorkerRepairEnd,
    /// Queue-depth sample (`arg` = depth).
    QueueDepth,
    /// In-flight batch count sample (`arg` = count).
    InFlight,
    /// A network connection was accepted by the TCP front-end
    /// (`id` = connection id, `a` = service-clock ms).
    ConnOpen,
    /// A network connection closed (`id` = connection id, `arg` =
    /// close-reason discriminant, `a` = service-clock ms).
    ConnClose,
    /// A connection was refused at the hard connection cap — the
    /// acceptor answered busy-with-retry-after and hung up
    /// (`a` = service-clock ms, `b` = retry-after hint ms).
    ConnBusy,
}

impl WallEventKind {
    pub fn as_str(self) -> &'static str {
        match self {
            WallEventKind::Admitted => "admitted",
            WallEventKind::Rejected => "rejected",
            WallEventKind::RetryAdmitted => "retry_admitted",
            WallEventKind::RetryRejected => "retry_rejected",
            WallEventKind::Dispatched => "dispatched",
            WallEventKind::ProveBegin => "prove_begin",
            WallEventKind::ProveEnd => "prove_end",
            WallEventKind::VerifyBegin => "verify_begin",
            WallEventKind::VerifyEnd => "verify_end",
            WallEventKind::Completed => "completed",
            WallEventKind::RetryParked => "retry_parked",
            WallEventKind::Shed => "shed",
            WallEventKind::Lost => "lost",
            WallEventKind::WorkerBusy => "worker_busy",
            WallEventKind::WorkerRepairBegin => "repair_begin",
            WallEventKind::WorkerRepairEnd => "repair_end",
            WallEventKind::QueueDepth => "queue_depth",
            WallEventKind::InFlight => "in_flight",
            WallEventKind::ConnOpen => "conn_open",
            WallEventKind::ConnClose => "conn_close",
            WallEventKind::ConnBusy => "conn_busy",
        }
    }
}

/// One recorded wall event. Fixed-size, `Copy` — pushed into the
/// recorder's pre-reserved thread-local buffer with no allocation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WallEvent {
    /// Nanoseconds from the recorder's monotonic clock base.
    pub t_ns: u64,
    /// Per-thread sequence number (record order within `tid`).
    pub seq: u64,
    /// Recorder-assigned thread index.
    pub tid: u32,
    pub kind: WallEventKind,
    /// Request id (0 when the kind is not per-request).
    pub id: u64,
    /// Submitting tenant (0 when not applicable).
    pub tenant: u64,
    /// Kind-specific integer payload (worker index, depth, count).
    pub arg: u64,
    /// Kind-specific f64 payload (see [`WallEventKind`]).
    pub a: f64,
    /// Kind-specific f64 payload (see [`WallEventKind`]).
    pub b: f64,
}

/// One closed (or export-truncated) phase interval in a request's
/// lifecycle, for the async tracks of the Chrome export.
#[derive(Clone, Copy, Debug, PartialEq)]
struct LifePhase {
    id: u64,
    name: &'static str,
    start_ns: u64,
    /// `None` when still open at export (drawn to the horizon).
    end_ns: Option<u64>,
}

/// The live service's wall-clock observability record, rebuilt from the
/// [`WallEvent`]s a drained [`crate::Profile`] carries.
#[derive(Clone, Debug, Default)]
pub struct WallTimeline {
    events: Vec<WallEvent>,
    /// First event's timestamp — the epoch every export is relative to.
    epoch_ns: u64,
    /// Last event's timestamp (export horizon).
    horizon_ns: u64,
    /// Replayed per-worker busy accumulators (bitwise-faithful).
    worker_busy_ms: Vec<f64>,
    completed: u64,
    rejected: u64,
    shed: u64,
    lost: u64,
}

impl WallTimeline {
    /// Builds a timeline from drained wall events. The slice must be in
    /// drain order — `(t_ns, tid, seq)` ascending, which preserves each
    /// thread's record order — for the busy replay to be faithful.
    pub fn from_events(events: &[WallEvent]) -> Self {
        let mut tl = WallTimeline {
            events: events.to_vec(),
            epoch_ns: events.iter().map(|e| e.t_ns).min().unwrap_or(0),
            horizon_ns: events.iter().map(|e| e.t_ns).max().unwrap_or(0),
            ..WallTimeline::default()
        };
        for e in events {
            match e.kind {
                WallEventKind::WorkerBusy => {
                    let w = e.arg as usize;
                    if tl.worker_busy_ms.len() <= w {
                        tl.worker_busy_ms.resize(w + 1, 0.0);
                    }
                    // The dispatcher's own op, same values, same order.
                    tl.worker_busy_ms[w] += e.b - e.a;
                }
                WallEventKind::Completed => tl.completed += 1,
                WallEventKind::Rejected => tl.rejected += 1,
                WallEventKind::Shed => tl.shed += 1,
                WallEventKind::Lost => tl.lost += 1,
                _ => {}
            }
        }
        tl
    }

    /// All events, in drain order.
    pub fn events(&self) -> &[WallEvent] {
        &self.events
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The monotonic-clock timestamp of the first event — the one field
    /// that differs between two runs of the same scenario.
    pub fn epoch_ns(&self) -> u64 {
        self.epoch_ns
    }

    /// Count of terminal events of this outcome — must equal the
    /// service summary's corresponding counter exactly.
    pub fn outcome_count(&self, outcome: Outcome) -> u64 {
        match outcome {
            Outcome::Completed => self.completed,
            Outcome::Rejected => self.rejected,
            Outcome::Shed => self.shed,
            Outcome::Lost => self.lost,
        }
    }

    /// Workers that recorded at least one busy span.
    pub fn num_workers(&self) -> usize {
        self.worker_busy_ms.len()
    }

    /// Busy milliseconds replayed from the dispatcher's own accounting
    /// events — bitwise equal to the service's per-worker `busy_ms`
    /// accumulator (same ops, same order, same values). Workers beyond
    /// the recorded range report 0.
    pub fn worker_busy_ms(&self, worker: usize) -> f64 {
        self.worker_busy_ms.get(worker).copied().unwrap_or(0.0)
    }

    /// Per-request lifecycle phases for the async export: queued
    /// (admission → dispatch), proving, verifying — phases still open
    /// at export are truncated to the horizon.
    fn life_phases(&self) -> Vec<LifePhase> {
        let mut phases = Vec::new();
        let mut open: Vec<(u64, &'static str, u64)> = Vec::new(); // (id, name, start)
        let begin = |open: &mut Vec<(u64, &'static str, u64)>, id, name: &'static str, t| {
            open.push((id, name, t));
        };
        let end = |open: &mut Vec<(u64, &'static str, u64)>,
                   phases: &mut Vec<LifePhase>,
                   id,
                   name: &'static str,
                   t| {
            if let Some(i) = open
                .iter()
                .position(|&(oid, on, _)| oid == id && on == name)
            {
                let (_, _, start) = open.swap_remove(i);
                phases.push(LifePhase {
                    id,
                    name,
                    start_ns: start,
                    end_ns: Some(t),
                });
            }
        };
        for e in &self.events {
            match e.kind {
                WallEventKind::Admitted | WallEventKind::RetryAdmitted => {
                    begin(&mut open, e.id, "queued", e.t_ns);
                }
                WallEventKind::Dispatched => {
                    end(&mut open, &mut phases, e.id, "queued", e.t_ns);
                }
                WallEventKind::Shed => {
                    end(&mut open, &mut phases, e.id, "queued", e.t_ns);
                }
                WallEventKind::ProveBegin => begin(&mut open, e.id, "proving", e.t_ns),
                WallEventKind::ProveEnd => {
                    end(&mut open, &mut phases, e.id, "proving", e.t_ns);
                }
                WallEventKind::VerifyBegin => begin(&mut open, e.id, "verifying", e.t_ns),
                WallEventKind::VerifyEnd => {
                    end(&mut open, &mut phases, e.id, "verifying", e.t_ns);
                }
                WallEventKind::RetryParked => {
                    // A request can park straight out of the queue
                    // (deadline expired at dispatch): close its queued
                    // phase if one is open.
                    end(&mut open, &mut phases, e.id, "queued", e.t_ns);
                    begin(&mut open, e.id, "parked", e.t_ns);
                }
                WallEventKind::Lost => {
                    end(&mut open, &mut phases, e.id, "queued", e.t_ns);
                }
                _ => {}
            }
            // A wake resolution — re-admitted, refused again (it will
            // re-park under a fresh phase), or lost — closes the parked
            // phase the request was sitting in.
            if matches!(
                e.kind,
                WallEventKind::RetryAdmitted | WallEventKind::RetryRejected | WallEventKind::Lost
            ) {
                end(&mut open, &mut phases, e.id, "parked", e.t_ns);
            }
        }
        // Phases still open at export survive as horizon-truncated
        // intervals, flagged open for the caller.
        for (id, name, start) in open {
            phases.push(LifePhase {
                id,
                name,
                start_ns: start,
                end_ns: None,
            });
        }
        phases
    }

    // -- export ---------------------------------------------------------

    /// Chrome trace-event JSON, Perfetto-loadable next to a
    /// [`crate::SimTimeline`] export of the same trace: request
    /// lifecycles as async (`ph:"b"`/`"e"`) tracks keyed by request id,
    /// worker busy/repair spans as complete events on per-worker
    /// tracks, queue-depth and in-flight counters, admissions as
    /// instants. Timestamps are µs relative to [`Self::epoch_ns`].
    pub fn to_chrome_trace(&self) -> String {
        let rel_us = |t_ns: u64| (t_ns.saturating_sub(self.epoch_ns)) as f64 / 1000.0;
        let mut t = ChromeTrace::new();
        for w in 0..self.worker_busy_ms.len() {
            t.thread_name(w as u32, &format!("worker {w}"));
        }
        let admission_tid = self.worker_busy_ms.len() as u32;
        t.thread_name(admission_tid, "admission");
        let net_tid = admission_tid + 1;
        if self
            .events
            .iter()
            .any(|e| matches!(e.kind, WallEventKind::ConnOpen | WallEventKind::ConnBusy))
        {
            t.thread_name(net_tid, "net");
        }
        // Request lifecycle phases: async events share one track per
        // request id, so a request's queued → proving → verifying chain
        // reads left to right in Perfetto.
        for p in self.life_phases() {
            t.async_begin(
                p.name,
                "request",
                p.id,
                rel_us(p.start_ns),
                &[("open_at_export", (p.end_ns.is_none()).to_string())],
            );
            t.async_end(
                p.name,
                "request",
                p.id,
                rel_us(p.end_ns.unwrap_or(self.horizon_ns)),
            );
        }
        // Worker busy spans from the accounting events (ms payloads are
        // service-clock; the span is drawn at the event's wall offset).
        for e in &self.events {
            match e.kind {
                WallEventKind::WorkerBusy => {
                    let dur_us = (e.b - e.a).max(0.0) * 1000.0;
                    let ts_us = rel_us(e.t_ns) - dur_us;
                    t.complete(
                        "busy",
                        "serve",
                        ts_us.max(0.0),
                        dur_us,
                        e.arg as u32,
                        &[("batch_end_ms", json_num(e.b))],
                    );
                }
                WallEventKind::WorkerRepairBegin => {
                    t.instant("repair_begin", rel_us(e.t_ns), e.arg as u32, &[]);
                }
                WallEventKind::WorkerRepairEnd => {
                    t.instant("repair_end", rel_us(e.t_ns), e.arg as u32, &[]);
                }
                WallEventKind::QueueDepth => {
                    t.counter("queue_depth", rel_us(e.t_ns), e.arg as f64);
                }
                WallEventKind::InFlight => {
                    t.counter("in_flight", rel_us(e.t_ns), e.arg as f64);
                }
                WallEventKind::Admitted
                | WallEventKind::Rejected
                | WallEventKind::RetryAdmitted
                | WallEventKind::RetryRejected
                | WallEventKind::Completed
                | WallEventKind::Shed
                | WallEventKind::Lost => {
                    t.instant(
                        e.kind.as_str(),
                        rel_us(e.t_ns),
                        admission_tid,
                        &[("id", e.id.to_string()), ("tenant", e.tenant.to_string())],
                    );
                }
                WallEventKind::ConnOpen | WallEventKind::ConnClose | WallEventKind::ConnBusy => {
                    t.instant(
                        e.kind.as_str(),
                        rel_us(e.t_ns),
                        net_tid,
                        &[("id", e.id.to_string()), ("arg", e.arg.to_string())],
                    );
                }
                _ => {}
            }
        }
        t.finish()
    }

    /// Compact JSONL: a meta line carrying the epoch and outcome
    /// counts, then every event with epoch-relative timestamps — a
    /// deterministic function of the recorded events, byte-stable aside
    /// from the `epoch_ns` field in `meta`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"kind\":\"meta\",\"epoch_ns\":{},\"events\":{},\"completed\":{},\"rejected\":{},\"shed\":{},\"lost\":{}}}\n",
            self.epoch_ns,
            self.events.len(),
            self.completed,
            self.rejected,
            self.shed,
            self.lost,
        ));
        for e in &self.events {
            out.push_str(&format!(
                "{{\"kind\":\"{}\",\"t_ns\":{},\"tid\":{},\"seq\":{},\"id\":{},\"tenant\":{},\"arg\":{},\"a\":{},\"b\":{}}}\n",
                escape_json(e.kind.as_str()),
                e.t_ns.saturating_sub(self.epoch_ns),
                e.tid,
                e.seq,
                e.id,
                e.tenant,
                e.arg,
                json_num(e.a),
                json_num(e.b),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn busy_replay_is_bitwise() {
        // Mirror a dispatcher accumulating `busy += finish - start` over
        // awkward f64s; the timeline must land on the same bits.
        let pairs = [(0.1, 10.7), (10.9, 17.3), (18.0001, 29.5)];
        let mut engine_busy = 0.0f64;
        let mut events = Vec::new();
        for (i, &(s, f)) in pairs.iter().enumerate() {
            engine_busy += f - s;
            events.push(ev(
                (f * 1e6) as u64,
                i as u64,
                WallEventKind::WorkerBusy,
                0,
                2,
                s,
                f,
            ));
        }
        let tl = WallTimeline::from_events(&events);
        assert_eq!(tl.worker_busy_ms(2).to_bits(), engine_busy.to_bits());
        assert_eq!(tl.worker_busy_ms(0), 0.0);
        assert_eq!(tl.num_workers(), 3);
    }

    #[test]
    fn outcome_counts_and_empty_timeline() {
        let tl = WallTimeline::from_events(&[]);
        assert!(tl.is_empty());
        assert_eq!(tl.outcome_count(Outcome::Completed), 0);
        // Exports of an empty timeline are well-formed, not panics.
        assert!(tl.to_jsonl().starts_with("{\"kind\":\"meta\""));
        assert!(tl.to_chrome_trace().contains("traceEvents"));

        let events = vec![
            ev(10, 0, WallEventKind::Admitted, 1, 0, 0.0, 0.0),
            ev(20, 1, WallEventKind::Rejected, 2, 0, 0.0, 0.0),
            ev(30, 2, WallEventKind::Dispatched, 1, 0, 0.0, 0.0),
            ev(40, 3, WallEventKind::Completed, 1, 0, 1.5, 0.0),
            ev(50, 4, WallEventKind::Shed, 3, 0, 0.0, 0.0),
            ev(60, 5, WallEventKind::Lost, 4, 0, 0.0, 0.0),
        ];
        let tl = WallTimeline::from_events(&events);
        assert_eq!(tl.outcome_count(Outcome::Completed), 1);
        assert_eq!(tl.outcome_count(Outcome::Rejected), 1);
        assert_eq!(tl.outcome_count(Outcome::Shed), 1);
        assert_eq!(tl.outcome_count(Outcome::Lost), 1);
        assert_eq!(tl.epoch_ns(), 10);
    }

    #[test]
    fn exports_are_epoch_relative_and_deterministic() {
        let events = vec![
            ev(1_000, 0, WallEventKind::Admitted, 7, 0, 0.0, 0.0),
            ev(2_000, 1, WallEventKind::Dispatched, 7, 0, 0.0, 0.0),
            ev(2_500, 2, WallEventKind::ProveBegin, 7, 0, 0.0, 0.0),
            ev(5_000, 3, WallEventKind::ProveEnd, 7, 0, 0.0, 0.0),
            ev(5_100, 4, WallEventKind::VerifyBegin, 7, 0, 0.0, 0.0),
            ev(6_000, 5, WallEventKind::VerifyEnd, 7, 0, 0.0, 0.0),
            ev(6_000, 6, WallEventKind::WorkerBusy, 0, 0, 0.0025, 0.006),
            ev(6_000, 7, WallEventKind::Completed, 7, 0, 0.005, 0.0),
        ];
        let tl = WallTimeline::from_events(&events);
        let a = tl.to_jsonl();
        let b = tl.clone().to_jsonl();
        assert_eq!(a, b);
        // Timestamps in the body are epoch-relative: the first event
        // prints t_ns 0, and the epoch appears only in meta.
        assert!(a.contains("\"epoch_ns\":1000"));
        assert!(a.contains("\"kind\":\"admitted\",\"t_ns\":0"));
        let chrome = tl.to_chrome_trace();
        assert!(chrome.contains("\"ph\":\"b\""), "async begin present");
        assert!(chrome.contains("\"ph\":\"e\""), "async end present");
        assert!(chrome.contains("\"name\":\"queued\""));
        assert!(chrome.contains("\"name\":\"proving\""));
        assert!(chrome.contains("\"name\":\"verifying\""));
        assert!(chrome.contains("\"name\":\"busy\""));
    }

    #[test]
    fn open_phase_at_export_truncates_to_horizon() {
        // A request still proving when the profile drained: the export
        // must close its phase at the horizon and flag it open.
        let events = vec![
            ev(100, 0, WallEventKind::Admitted, 3, 0, 0.0, 0.0),
            ev(200, 1, WallEventKind::Dispatched, 3, 0, 0.0, 0.0),
            ev(300, 2, WallEventKind::ProveBegin, 3, 0, 0.0, 0.0),
            ev(900, 3, WallEventKind::QueueDepth, 0, 4, 0.0, 0.0),
        ];
        let tl = WallTimeline::from_events(&events);
        let chrome = tl.to_chrome_trace();
        assert!(chrome.contains("\"open_at_export\":true"));
        assert!(chrome.contains("\"name\":\"proving\""));
        assert!(chrome.contains("\"name\":\"queue_depth\""));
    }

    #[test]
    fn parked_phase_closes_on_readmission_or_loss() {
        let events = vec![
            ev(10, 0, WallEventKind::RetryParked, 5, 0, 1.0, 0.0),
            // Re-admission closes the parked phase and re-opens queued,
            // which the dispatch then closes.
            ev(20, 1, WallEventKind::RetryAdmitted, 5, 0, 0.0, 0.0),
            ev(25, 2, WallEventKind::Dispatched, 5, 0, 0.0, 0.0),
            ev(30, 3, WallEventKind::RetryParked, 6, 0, 2.0, 0.0),
            ev(40, 4, WallEventKind::Lost, 6, 0, 0.0, 0.0),
        ];
        let tl = WallTimeline::from_events(&events);
        let chrome = tl.to_chrome_trace();
        assert!(chrome.contains("\"name\":\"parked\""));
        assert!(!chrome.contains("\"open_at_export\":true"));
        assert_eq!(tl.outcome_count(Outcome::Lost), 1);
    }
}
