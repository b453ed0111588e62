//! The fleet simulator: admission → queue → batch → chip pool, driven by
//! the event engine. The pool is fixed at [`FleetConfig::chips`] slots;
//! only failures and repairs change how many of them serve.
//!
//! On top of the happy path sits an opt-in resilience layer (see
//! [`crate::fault`] and `docs/RESILIENCE.md`):
//!
//! * chip failures ([`FaultConfig`]) kill in-flight batches; the work
//!   re-enters through the [`RetryPolicy`] or is lost for good,
//! * deadline-expired requests are caught at dispatch and retried with
//!   a fresh deadline instead of burning chip time on late work
//!   (only when a retry policy is configured — legacy runs without one
//!   serve late work and count it as a deadline miss, unchanged),
//! * per-tenant queue caps bound how much of the shared queue a single
//!   noisy tenant may hold,
//! * brown-out ([`BrownOutConfig`]) sheds the latest-deadline work when
//!   surviving capacity drops below a threshold.
//!
//! The admission, retry, shedding and batching *rules* live in
//! [`crate::lifecycle`], shared with the live service; this file is the
//! event loop that calls them, the chip pool, and the trace.
//!
//! All of it is deterministic: a run is a pure function of
//! `(config, seed)`, and [`SimReport::trace_hash`] certifies replay.

use crate::arrivals::ArrivalSource;
use crate::events::{Event, EventQueue};
use crate::fault::{BrownOutConfig, FaultConfig, FaultKind, FaultModel, RetryPolicy};
use crate::lifecycle::{AdmissionLedger, Lifecycle, Readmit, Rescue};
use crate::metrics::{try_summarize, FleetSummary, RunAccumulators};
use crate::policy::PolicyKind;
use crate::request::{Request, RequestClass, RequestRecord, TenantId};
use zkphire_core::costdb::CostModel;
use zkphire_telemetry::{AdmissionOutcome, SimTimeline};

// SimError grew beyond the simulator (the event queue and metrics
// report through it too) and lives in `crate::error`; re-exported here
// so `sim::SimError` paths keep compiling.
pub use crate::error::SimError;

/// Deployment and policy knobs for one simulation.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Chips in the pool.
    pub chips: usize,
    /// Batching policy.
    pub policy: PolicyKind,
    /// Maximum requests per batch.
    pub max_batch: usize,
    /// Admission cap on queued requests (`None` = unbounded). A cap of
    /// zero rejects every request: nothing may wait, not even with
    /// idle chips.
    pub queue_capacity: Option<usize>,
    /// Per-batch reconfiguration overhead (ms): program load + FSM
    /// setup when a chip switches to a batch (§III-E program swap).
    pub batch_overhead_ms: f64,
    /// Deadline budget as a multiple of the class's isolated proof
    /// latency (EDF and the miss-rate metric).
    pub deadline_factor: f64,
    /// Additive deadline slack (ms).
    pub deadline_slack_ms: f64,
    /// Per-tenant service weights for [`PolicyKind::WeightedFair`] and
    /// the Jain fairness index; tenants absent here weigh 1.
    pub tenant_weights: Vec<(TenantId, f64)>,
    /// Chip failure injection; `None` = chips never fail (legacy).
    pub faults: Option<FaultConfig>,
    /// Rescue for lost or deadline-expired work; `None` = no retries,
    /// failed work is lost and late work is served anyway (legacy).
    pub retry: Option<RetryPolicy>,
    /// Graceful degradation under capacity loss; `None` = never shed.
    pub brown_out: Option<BrownOutConfig>,
    /// Per-tenant queued-request caps, overriding
    /// `default_tenant_cap` for the listed tenants.
    pub tenant_caps: Vec<(TenantId, usize)>,
    /// Queued-request cap applied to tenants absent from
    /// `tenant_caps`; `None` = unlimited (only the shared
    /// `queue_capacity` applies).
    pub default_tenant_cap: Option<usize>,
    /// Record a [`SimTimeline`] (per-chip busy/failed spans, queue and
    /// provisioned time series, admission decisions) into the report.
    /// Sim-time only, so the recorded timeline is byte-identical per
    /// seed; off by default (legacy behavior, zero overhead).
    pub telemetry: bool,
}

impl FleetConfig {
    /// A sensible default deployment: `chips` chips, size-class
    /// batching of up to 8, 1 ms reconfiguration, deadlines at
    /// 5× isolated latency + 50 ms, fixed pool, no faults.
    pub fn new(chips: usize) -> Self {
        Self {
            chips,
            policy: PolicyKind::SizeClass,
            max_batch: 8,
            queue_capacity: None,
            batch_overhead_ms: 1.0,
            deadline_factor: 5.0,
            deadline_slack_ms: 50.0,
            tenant_weights: Vec::new(),
            faults: None,
            retry: None,
            brown_out: None,
            tenant_caps: Vec::new(),
            default_tenant_cap: None,
            telemetry: false,
        }
    }

    /// Enables sim-time timeline recording (builder style). The engine
    /// then replays its busy/provisioned accounting into a
    /// [`SimTimeline`] whose integrals reconcile bitwise with the
    /// summary's chip-second metrics (asserted at drain).
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Sets the policy (builder style).
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the batch cap (builder style).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the admission cap (builder style). A capacity of zero
    /// rejects all traffic.
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = Some(cap);
        self
    }

    /// Sets per-tenant service weights (builder style).
    pub fn with_tenant_weights(mut self, weights: Vec<(TenantId, f64)>) -> Self {
        self.tenant_weights = weights;
        self
    }

    /// Enables chip failure injection (builder style).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enables retry of lost and deadline-expired work (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Enables brown-out shedding under capacity loss (builder style).
    pub fn with_brown_out(mut self, brown_out: BrownOutConfig) -> Self {
        self.brown_out = Some(brown_out);
        self
    }

    /// Sets per-tenant queue caps (builder style).
    pub fn with_tenant_caps(mut self, caps: Vec<(TenantId, usize)>) -> Self {
        self.tenant_caps = caps;
        self
    }

    /// Caps every tenant not listed in `tenant_caps` (builder style).
    pub fn with_default_tenant_cap(mut self, cap: usize) -> Self {
        self.default_tenant_cap = Some(cap);
        self
    }
}

/// One entry of the reproducible event trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEntry {
    /// A request was admitted to the queue.
    Admitted {
        /// Event time (ms).
        time_ms: f64,
        /// Request id.
        id: u64,
        /// Submitting tenant.
        tenant: TenantId,
    },
    /// A request was refused at admission.
    Rejected {
        /// Event time (ms).
        time_ms: f64,
        /// Request id.
        id: u64,
        /// Submitting tenant.
        tenant: TenantId,
    },
    /// A batch started on a chip.
    Dispatched {
        /// Event time (ms).
        time_ms: f64,
        /// Chip index.
        chip: usize,
        /// First request id in the batch.
        first_id: u64,
        /// Batch size.
        size: usize,
    },
    /// A batch finished on a chip.
    Completed {
        /// Event time (ms).
        time_ms: f64,
        /// Chip index.
        chip: usize,
        /// Batch size.
        size: usize,
    },
    /// A chip failed, losing any in-flight batch.
    ChipFail {
        /// Event time (ms).
        time_ms: f64,
        /// Chip index.
        chip: usize,
    },
    /// A failed chip finished repair and rejoined the pool.
    ChipRepair {
        /// Event time (ms).
        time_ms: f64,
        /// Chip index.
        chip: usize,
    },
    /// A request entered retry backoff.
    Retried {
        /// Event time (ms).
        time_ms: f64,
        /// Request id.
        id: u64,
        /// The retry number this backoff precedes (1-based).
        attempt: u32,
    },
    /// A request was dropped past its retry budget.
    Lost {
        /// Event time (ms).
        time_ms: f64,
        /// Request id.
        id: u64,
        /// Submitting tenant.
        tenant: TenantId,
    },
    /// Brown-out shed a queued request.
    Shed {
        /// Event time (ms).
        time_ms: f64,
        /// Request id.
        id: u64,
        /// Submitting tenant.
        tenant: TenantId,
    },
}

/// Everything a run produces.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Aggregate metrics.
    pub summary: FleetSummary,
    /// Per-request completion records, in completion order.
    pub records: Vec<RequestRecord>,
    /// The full decision trace (admissions, dispatches, completions,
    /// failures, repairs, retries, sheds).
    pub trace: Vec<TraceEntry>,
    /// FNV-1a hash of the trace — two runs are identical iff equal.
    pub trace_hash: u64,
    /// The sim-time observability timeline; present iff the run was
    /// configured [`FleetConfig::with_telemetry`].
    pub timeline: Option<SimTimeline>,
}

/// Lifecycle of one pool slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChipState {
    /// Online and accepting batches.
    Up,
    /// Failed; invisible to dispatch until its `ChipRepair` event
    /// brings it back.
    Failed,
}

struct Chip {
    state: ChipState,
    busy: bool,
    busy_ms: f64,
    batch: Vec<Request>,
    batch_start_ms: f64,
    /// When the in-flight batch would finish — lets a failure uncount
    /// the service time it interrupted.
    batch_done_ms: f64,
    /// Bumped on every state transition; `ChipFail`/`ChipRepair`
    /// events carry the epoch they were armed under and are dropped
    /// stale if the chip moved on (the heap has no cancellation).
    avail_epoch: u64,
    /// Bumped per dispatch *and* on failure; validates `BatchDone`,
    /// so a batch lost to a failure cannot also complete.
    dispatch_epoch: u64,
}

impl Chip {
    fn dispatchable(&self) -> bool {
        self.state == ChipState::Up && !self.busy
    }
}

/// Runs the discrete-event simulation to completion: all arrivals from
/// `source` flow through admission and batching onto the simulated chip
/// pool, whose service times come from `cost` and whose chips fail and
/// repair per the optional fault model.
pub fn simulate<S: ArrivalSource>(
    cfg: &FleetConfig,
    source: &mut S,
    cost: &mut CostModel,
) -> Result<SimReport, SimError> {
    if cfg.chips == 0 {
        return Err(SimError::InvalidConfig("fleet of zero chips".into()));
    }
    if cfg.batch_overhead_ms < 0.0 || cfg.batch_overhead_ms.is_nan() {
        return Err(SimError::InvalidConfig(format!(
            "negative batch overhead {} ms",
            cfg.batch_overhead_ms
        )));
    }
    if let Some(FaultConfig {
        kind: FaultKind::Scripted { outages },
        ..
    }) = &cfg.faults
    {
        if let Some(bad) = outages.iter().find(|o| o.chip >= cfg.chips) {
            return Err(SimError::InvalidConfig(format!(
                "scripted outage names chip {} of a {}-slot pool",
                bad.chip, cfg.chips
            )));
        }
    }
    let engine = Engine {
        cfg,
        queue: EventQueue::new(),
        life: Lifecycle::new(
            cfg.policy.build_with(&cfg.tenant_weights),
            cfg.max_batch,
            cfg.retry,
            cfg.brown_out,
            // Backoff jitter draws from the fault seed's own stream.
            cfg.faults.as_ref().map_or(0, |f| f.seed),
            RunAccumulators {
                busy_ms: vec![0.0; cfg.chips],
                peak_chips: cfg.chips,
                ..Default::default()
            },
        ),
        ledger: AdmissionLedger::new(&cfg.tenant_caps, cfg.default_tenant_cap, cfg.queue_capacity),
        faults: cfg.faults.clone().map(FaultModel::new),
        chips: (0..cfg.chips)
            .map(|_| Chip {
                state: ChipState::Up,
                busy: false,
                busy_ms: 0.0,
                batch: Vec::new(),
                batch_start_ms: 0.0,
                batch_done_ms: 0.0,
                avail_epoch: 0,
                dispatch_epoch: 0,
            })
            .collect(),
        provisioned: cfg.chips,
        records: Vec::new(),
        trace: Vec::new(),
        pending: None,
        next_id: 0,
        timeline: cfg.telemetry.then(|| SimTimeline::new(cfg.chips)),
    };
    engine.run(source, cost)
}

/// The simulator's mutable state plus the event-loop handlers. One
/// instance per [`simulate`] call; the arrival source and cost model
/// stay outside (they are the caller's) and thread through as method
/// arguments.
struct Engine<'a> {
    cfg: &'a FleetConfig,
    queue: EventQueue,
    /// The queue, backoff parking, the retry / shed / batch rules and
    /// the run's accumulators.
    life: Lifecycle,
    /// Admission caps and counts; its queued total always equals
    /// `life.depth()` here, since an admitted request queues at once.
    ledger: AdmissionLedger,
    faults: Option<FaultModel>,
    chips: Vec<Chip>,
    /// Chips not failed: what the chip-time integral and brown-out count.
    provisioned: usize,
    records: Vec<RequestRecord>,
    trace: Vec<TraceEntry>,
    /// The one arrival in flight; its body parks here until its event
    /// pops.
    pending: Option<Request>,
    next_id: u64,
    /// Sim-time observability record (`FleetConfig::with_telemetry`).
    /// Mirrors the engine's own busy/provisioned accounting op-for-op,
    /// so its integrals reconcile bitwise with the summary.
    timeline: Option<SimTimeline>,
}

impl Engine<'_> {
    fn run<S: ArrivalSource>(
        mut self,
        source: &mut S,
        cost: &mut CostModel,
    ) -> Result<SimReport, SimError> {
        self.pending = self.prime(source, cost)?;
        if self.pending.is_some() {
            for chip in 0..self.cfg.chips {
                self.arm_failure(chip, 0.0)?;
            }
            let outage_times: Vec<f64> = self
                .faults
                .as_ref()
                .map_or_else(Vec::new, |f| f.outages().iter().map(|o| o.at_ms).collect());
            for (i, at) in outage_times.into_iter().enumerate() {
                self.queue.try_push(at, Event::ScriptedFail(i))?;
            }
        }

        let mut last_time = 0.0;
        while let Some((now, event)) = self.queue.pop() {
            self.life.acc.depth_time_integral += self.life.depth() as f64 * (now - last_time);
            self.life.acc.chip_time_integral_ms += self.provisioned as f64 * (now - last_time);
            last_time = now;
            if let Some(tl) = &mut self.timeline {
                // Same op, same operands, same order as the integral
                // update above — the timeline's provisioned integral is
                // bitwise equal to `chip_time_integral_ms` at drain.
                tl.tick(now, self.provisioned);
            }
            // Fault events dropped as stale (epoch mismatch) or moot
            // (no work left) must not stretch the makespan: an armed
            // failure popping long after the last completion would
            // otherwise dilute throughput and goodput.
            let effectful = match event {
                Event::Arrival(id) => {
                    self.on_arrival(id, now, source, cost)?;
                    true
                }
                Event::BatchDone { chip, epoch } => {
                    self.on_batch_done(chip, epoch, now);
                    true
                }
                Event::ChipFail { chip, epoch } => self.on_chip_fail(chip, epoch, now)?,
                Event::ChipRepair { chip, epoch } => self.on_chip_repair(chip, epoch, now)?,
                Event::ScriptedFail(idx) => self.on_scripted_fail(idx, now)?,
                Event::Retry(id) => {
                    self.on_retry(id, now, cost)?;
                    true
                }
            };
            if effectful {
                self.life.acc.makespan_ms = now;
            }
            self.shed_if_browned_out(now)?;
            self.dispatch(cost)?;
            if let Some(tl) = &mut self.timeline {
                tl.sample_queue_depth(now, self.life.depth());
                tl.sample_retry_depth(now, self.life.parked());
            }
        }

        // Drain-time accounting reconciliation. These were asserts; they
        // now surface as `SimError::Invariant` (messages kept verbatim)
        // so a service embedding the simulator survives a corrupted run.
        for (i, c) in self.chips.iter().enumerate() {
            if c.busy {
                return Err(SimError::Invariant(format!("chip {i} still busy at drain")));
            }
            self.life.acc.busy_ms[i] = c.busy_ms;
        }
        if let Some(tl) = &mut self.timeline {
            tl.finalize(self.life.acc.makespan_ms);
            // The timeline must never drift from the metrics it
            // explains: both sides replayed identical f64 op sequences,
            // so require bitwise equality, not closeness.
            if tl.provisioned_integral_ms().to_bits()
                != self.life.acc.chip_time_integral_ms.to_bits()
            {
                return Err(SimError::Invariant(
                    "timeline provisioned integral drifted from chip-time integral".into(),
                ));
            }
            for (i, &busy) in self.life.acc.busy_ms.iter().enumerate() {
                if tl.busy_ms(i).to_bits() != busy.to_bits() {
                    return Err(SimError::Invariant(format!(
                        "timeline busy accumulator drifted from chip {i} busy_ms"
                    )));
                }
            }
        }
        let acc = self.life.finish(&self.ledger, self.records.len() as u64)?;
        Ok(SimReport {
            summary: try_summarize(&self.records, &acc, &self.cfg.tenant_weights)?,
            records: self.records,
            trace_hash: hash_trace(&self.trace),
            trace: self.trace,
            timeline: self.timeline,
        })
    }

    /// Pulls the next arrival from the source, schedules its event, and
    /// returns its request body — deadline already filled (no policy
    /// ever observes a placeholder). A source emitting a NaN, infinite,
    /// or time-reversed arrival surfaces here as a typed error.
    fn prime<S: ArrivalSource>(
        &mut self,
        source: &mut S,
        cost: &mut CostModel,
    ) -> Result<Option<Request>, SimError> {
        let Some((t, class, tenant)) = source.next_arrival() else {
            return Ok(None);
        };
        let id = self.next_id;
        self.next_id += 1;
        self.queue.try_push(t, Event::Arrival(id))?;
        Ok(Some(Request {
            id,
            tenant,
            class,
            arrival_ms: t,
            deadline_ms: t
                + self.cfg.deadline_slack_ms
                + self.cfg.deadline_factor * cost.proof_ms(class.gate, class.mu),
            attempts: 0,
        }))
    }

    fn on_arrival<S: ArrivalSource>(
        &mut self,
        id: u64,
        now: f64,
        source: &mut S,
        cost: &mut CostModel,
    ) -> Result<(), SimError> {
        let req = self
            .pending
            .take()
            .ok_or(SimError::ArrivalWithoutPending { id, time_ms: now })?;
        debug_assert_eq!(req.id, id);
        // Pull the next arrival before admission so the event stream
        // ordering never depends on queue state.
        self.pending = self.prime(source, cost)?;
        if self.ledger.arrive(req.tenant).is_err() {
            self.trace.push(TraceEntry::Rejected {
                time_ms: now,
                id: req.id,
                tenant: req.tenant,
            });
            self.note_admission(now, &req, AdmissionOutcome::Rejected);
        } else {
            self.trace.push(TraceEntry::Admitted {
                time_ms: now,
                id: req.id,
                tenant: req.tenant,
            });
            self.note_admission(now, &req, AdmissionOutcome::Admitted);
            self.life.enqueue(req);
        }
        Ok(())
    }

    fn note_admission(&mut self, now: f64, req: &Request, outcome: AdmissionOutcome) {
        if let Some(tl) = &mut self.timeline {
            tl.admission(now, req.id, u64::from(req.tenant), outcome);
        }
    }

    /// Traces a rescue and schedules the wake of parked work.
    fn note_rescue(&mut self, rescue: Rescue, now: f64) -> Result<(), SimError> {
        match rescue {
            Rescue::Parked { req, wake_ms } => {
                self.trace.push(TraceEntry::Retried {
                    time_ms: now,
                    id: req.id,
                    attempt: req.attempts,
                });
                self.queue.try_push(wake_ms, Event::Retry(req.id))
            }
            Rescue::Lost(req) => {
                self.trace.push(TraceEntry::Lost {
                    time_ms: now,
                    id: req.id,
                    tenant: req.tenant,
                });
                Ok(())
            }
        }
    }

    fn on_retry(&mut self, id: u64, now: f64, cost: &mut CostModel) -> Result<(), SimError> {
        let cfg = self.cfg;
        let fresh_deadline = |r: &Request| {
            now + cfg.deadline_slack_ms
                + cfg.deadline_factor * cost.proof_ms(r.class.gate, r.class.mu)
        };
        match self
            .life
            .readmit(&mut self.ledger, id, now, fresh_deadline)?
        {
            Readmit::Admitted(req) => {
                self.note_admission(now, &req, AdmissionOutcome::RetryAdmitted);
                Ok(())
            }
            Readmit::Refused(rescue) => {
                let (Rescue::Parked { req, .. } | Rescue::Lost(req)) = rescue;
                self.note_admission(now, &req, AdmissionOutcome::RetryRejected);
                self.note_rescue(rescue, now)
            }
        }
    }

    fn on_batch_done(&mut self, chip: usize, epoch: u64, now: f64) {
        let c = &mut self.chips[chip];
        if c.dispatch_epoch != epoch {
            // The batch this event announced was lost to a failure.
            return;
        }
        let size = c.batch.len();
        let start = c.batch_start_ms;
        let batch = std::mem::take(&mut c.batch);
        c.busy = false;
        for r in &batch {
            self.records
                .push(RequestRecord::served(r, chip, size, start, now));
        }
        self.trace.push(TraceEntry::Completed {
            time_ms: now,
            chip,
            size,
        });
        if let Some(tl) = &mut self.timeline {
            tl.complete_busy(chip, now);
        }
    }

    /// Arms the next random failure of an online chip — only while the
    /// run still has work, so trailing fail/repair cycles cannot keep
    /// an otherwise-drained simulation alive.
    fn arm_failure(&mut self, chip: usize, now: f64) -> Result<(), SimError> {
        if !self.work_remains() {
            return Ok(());
        }
        let Some(f) = self.faults.as_mut() else {
            return Ok(());
        };
        let Some(delay) = f.next_failure_ms() else {
            return Ok(());
        };
        let epoch = self.chips[chip].avail_epoch;
        self.queue
            .try_push(now + delay, Event::ChipFail { chip, epoch })
    }

    fn on_chip_fail(&mut self, chip: usize, epoch: u64, now: f64) -> Result<bool, SimError> {
        let c = &self.chips[chip];
        if c.avail_epoch != epoch || c.state != ChipState::Up || !self.work_remains() {
            return Ok(false);
        }
        let Some(f) = self.faults.as_mut() else {
            return Err(SimError::Invariant("fail without model".into()));
        };
        let repair_at = now + f.next_repair_ms();
        self.fail_chip(chip, now, repair_at)?;
        Ok(true)
    }

    fn on_scripted_fail(&mut self, idx: usize, now: f64) -> Result<bool, SimError> {
        let Some(f) = self.faults.as_ref() else {
            return Err(SimError::Invariant("scripted fail without model".into()));
        };
        let outage = f.outages()[idx];
        if self.chips[outage.chip].state != ChipState::Up || !self.work_remains() {
            return Ok(false);
        }
        self.fail_chip(outage.chip, now, now + outage.down_for_ms)?;
        Ok(true)
    }

    /// Takes a chip down: the in-flight batch (if any) is lost and
    /// rerouted through retry, service time it never rendered is
    /// uncounted, and the repair event is scheduled.
    fn fail_chip(&mut self, chip: usize, now: f64, repair_at: f64) -> Result<(), SimError> {
        let c = &mut self.chips[chip];
        debug_assert_eq!(c.state, ChipState::Up);
        c.state = ChipState::Failed;
        c.avail_epoch += 1;
        let epoch = c.avail_epoch;
        let was_busy = c.busy;
        let unrendered_ms = c.batch_done_ms - now;
        let lost_batch = if c.busy {
            c.busy = false;
            c.busy_ms -= unrendered_ms;
            c.dispatch_epoch += 1; // invalidate the in-flight BatchDone
            std::mem::take(&mut c.batch)
        } else {
            Vec::new()
        };
        if let Some(tl) = &mut self.timeline {
            if was_busy {
                // Same subtraction the engine just applied to busy_ms.
                tl.interrupt_busy(chip, now, unrendered_ms);
            }
            tl.begin_failed(chip, now);
        }
        self.provisioned -= 1;
        self.life.acc.chip_failures += 1;
        self.trace.push(TraceEntry::ChipFail { time_ms: now, chip });
        self.queue
            .try_push(repair_at, Event::ChipRepair { chip, epoch })?;
        for r in lost_batch {
            let rescue = self.life.rescue(r, now);
            self.note_rescue(rescue, now)?;
        }
        Ok(())
    }

    fn on_chip_repair(&mut self, chip: usize, epoch: u64, now: f64) -> Result<bool, SimError> {
        let c = &mut self.chips[chip];
        if c.avail_epoch != epoch || c.state != ChipState::Failed {
            return Ok(false);
        }
        c.state = ChipState::Up;
        c.avail_epoch += 1;
        self.provisioned += 1;
        self.life.acc.chip_repairs += 1;
        self.trace
            .push(TraceEntry::ChipRepair { time_ms: now, chip });
        if let Some(tl) = &mut self.timeline {
            tl.end_failed(chip, now);
        }
        self.arm_failure(chip, now)?;
        Ok(true)
    }

    /// Whether the run still has anything to do: future arrivals,
    /// queued or in-flight batches, or requests parked in retry backoff.
    fn work_remains(&self) -> bool {
        self.pending.is_some()
            || self.life.depth() > 0
            || self.life.parked() > 0
            || self.chips.iter().any(|c| c.busy)
    }

    /// Brown-out ([`Lifecycle::shed`]) against the share of the pool
    /// not failed.
    fn shed_if_browned_out(&mut self, now: f64) -> Result<(), SimError> {
        let victims = self
            .life
            .shed(&mut self.ledger, self.provisioned, self.cfg.chips)?;
        for v in victims {
            self.trace.push(TraceEntry::Shed {
                time_ms: now,
                id: v.id,
                tenant: v.tenant,
            });
        }
        Ok(())
    }

    fn dispatch(&mut self, cost: &mut CostModel) -> Result<(), SimError> {
        let now = self.queue.now();
        loop {
            if self.life.depth() == 0 {
                return Ok(());
            }
            let Some(chip_idx) = self.chips.iter().position(Chip::dispatchable) else {
                return Ok(());
            };
            let next = self.life.next_batch(&mut self.ledger, now)?;
            for rescue in next.recycled {
                self.note_rescue(rescue, now)?;
            }
            let Some((_, live)) = next.batch else {
                return Ok(());
            };
            let service_ms: f64 = self.cfg.batch_overhead_ms
                + live
                    .iter()
                    .map(|r| cost.proof_ms(r.class.gate, r.class.mu))
                    .sum::<f64>();
            let c = &mut self.chips[chip_idx];
            c.busy = true;
            c.busy_ms += service_ms;
            c.batch_start_ms = now;
            c.batch_done_ms = now + service_ms;
            c.dispatch_epoch += 1;
            self.trace.push(TraceEntry::Dispatched {
                time_ms: now,
                chip: chip_idx,
                first_id: live[0].id,
                size: live.len(),
            });
            if let Some(tl) = &mut self.timeline {
                // Same addition the engine just applied to busy_ms.
                tl.begin_busy(chip_idx, now, live.len(), service_ms);
            }
            c.batch = live;
            self.queue.try_push(
                now + service_ms,
                Event::BatchDone {
                    chip: chip_idx,
                    epoch: c.dispatch_epoch,
                },
            )?;
        }
    }
}

/// FNV-1a over the trace's raw fields (f64 times by bit pattern). Each
/// entry kind mixes a fixed tag first. Tags 5 and 6 stay unused:
/// renumbering the rest would move every pinned trace hash.
fn hash_trace(trace: &[TraceEntry]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in trace {
        match *e {
            TraceEntry::Admitted {
                time_ms,
                id,
                tenant,
            } => {
                mix(1);
                mix(time_ms.to_bits());
                mix(id);
                mix(u64::from(tenant));
            }
            TraceEntry::Rejected {
                time_ms,
                id,
                tenant,
            } => {
                mix(2);
                mix(time_ms.to_bits());
                mix(id);
                mix(u64::from(tenant));
            }
            TraceEntry::Dispatched {
                time_ms,
                chip,
                first_id,
                size,
            } => {
                mix(3);
                mix(time_ms.to_bits());
                mix(chip as u64);
                mix(first_id);
                mix(size as u64);
            }
            TraceEntry::Completed {
                time_ms,
                chip,
                size,
            } => {
                mix(4);
                mix(time_ms.to_bits());
                mix(chip as u64);
                mix(size as u64);
            }
            TraceEntry::ChipFail { time_ms, chip } => {
                mix(7);
                mix(time_ms.to_bits());
                mix(chip as u64);
            }
            TraceEntry::ChipRepair { time_ms, chip } => {
                mix(8);
                mix(time_ms.to_bits());
                mix(chip as u64);
            }
            TraceEntry::Retried {
                time_ms,
                id,
                attempt,
            } => {
                mix(9);
                mix(time_ms.to_bits());
                mix(id);
                mix(u64::from(attempt));
            }
            TraceEntry::Lost {
                time_ms,
                id,
                tenant,
            } => {
                mix(10);
                mix(time_ms.to_bits());
                mix(id);
                mix(u64::from(tenant));
            }
            TraceEntry::Shed {
                time_ms,
                id,
                tenant,
            } => {
                mix(11);
                mix(time_ms.to_bits());
                mix(id);
                mix(u64::from(tenant));
            }
        }
    }
    h
}

/// Convenience wrapper: Poisson traffic from the Tables VI/VII mix on
/// `chips` exemplar chips — the "one obvious call" for experiments.
/// Panics on the config errors [`simulate`] reports, which this
/// wrapper's fixed configuration cannot produce.
pub fn simulate_poisson_fleet(
    chips: usize,
    rate_rps: f64,
    horizon_ms: f64,
    policy: PolicyKind,
    seed: u64,
) -> SimReport {
    use crate::arrivals::PoissonSource;
    use crate::mix::WorkloadMix;
    let mut cost = CostModel::exemplar();
    let mix = WorkloadMix::table_vii_jellyfish(21);
    let mut source = PoissonSource::new(rate_rps, horizon_ms, mix, seed);
    let cfg = FleetConfig::new(chips).with_policy(policy);
    simulate(&cfg, &mut source, &mut cost).unwrap_or_else(|e| panic!("fixed config is valid: {e}"))
}

/// A single-class trace helper used by tests and benches.
pub fn uniform_trace(
    class: RequestClass,
    count: usize,
    gap_ms: f64,
) -> crate::arrivals::TraceSource {
    crate::arrivals::TraceSource::new((0..count).map(|i| (i as f64 * gap_ms, class)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::PoissonSource;
    use crate::fault::ChipOutage;
    use crate::mix::{TenantMix, TenantProfile, WorkloadMix};
    use zkphire_core::protocol::Gate;

    fn small_run(policy: PolicyKind, seed: u64) -> SimReport {
        let mut cost = CostModel::exemplar();
        let mix = WorkloadMix::table_vii_jellyfish(19);
        let mut source = PoissonSource::new(40.0, 2_000.0, mix, seed);
        let cfg = FleetConfig::new(3).with_policy(policy);
        simulate(&cfg, &mut source, &mut cost).expect("sim")
    }

    fn conserved(r: &SimReport) -> bool {
        r.summary.arrivals
            == r.summary.completed + r.summary.rejected + r.summary.shed + r.summary.lost
    }

    #[test]
    fn completes_all_admitted_requests() {
        for policy in [
            PolicyKind::Fifo,
            PolicyKind::SizeClass,
            PolicyKind::EarliestDeadline,
            PolicyKind::WeightedFair,
        ] {
            let r = small_run(policy, 1);
            assert!(r.summary.completed > 0, "{policy:?}");
            assert_eq!(r.summary.rejected, 0);
            assert_eq!(r.records.len() as u64, r.summary.completed);
            assert!(conserved(&r), "{policy:?}");
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let a = small_run(PolicyKind::SizeClass, 7);
        let b = small_run(PolicyKind::SizeClass, 7);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.trace_hash, b.trace_hash);
        let c = small_run(PolicyKind::SizeClass, 8);
        assert_ne!(a.trace_hash, c.trace_hash);
    }

    #[test]
    fn capacity_produces_rejections() {
        let mut cost = CostModel::exemplar();
        let mix = WorkloadMix::single(RequestClass::new(Gate::Jellyfish, 21));
        let mut source = PoissonSource::new(500.0, 1_000.0, mix, 3);
        let cfg = FleetConfig::new(1)
            .with_policy(PolicyKind::Fifo)
            .with_max_batch(1)
            .with_queue_capacity(4);
        let r = simulate(&cfg, &mut source, &mut cost).expect("sim");
        assert!(r.summary.rejected > 0);
        assert!(r.summary.max_queue_depth <= 4);
        assert!(conserved(&r));
    }

    #[test]
    fn capacity_zero_rejects_everything() {
        // Capacity 0 means "nothing may wait": every request bounces at
        // admission even while chips sit idle. Pinned by test so later
        // admission rewrites cannot silently flip the semantics.
        let mut cost = CostModel::exemplar();
        let class = RequestClass::new(Gate::Jellyfish, 16);
        let mut source = uniform_trace(class, 50, 100.0);
        let cfg = FleetConfig::new(4).with_queue_capacity(0);
        let r = simulate(&cfg, &mut source, &mut cost).expect("sim");
        assert_eq!(r.summary.completed, 0);
        assert_eq!(r.summary.rejected, 50);
        assert!(r.records.is_empty());
    }

    #[test]
    fn utilization_grows_with_load() {
        let mut cost = CostModel::exemplar();
        let mix = WorkloadMix::single(RequestClass::new(Gate::Jellyfish, 18));
        let cfg = FleetConfig::new(2);
        let mut light_src = PoissonSource::new(10.0, 5_000.0, mix.clone(), 5);
        let light = simulate(&cfg, &mut light_src, &mut cost).expect("sim");
        let mut heavy_src = PoissonSource::new(400.0, 5_000.0, mix, 5);
        let heavy = simulate(&cfg, &mut heavy_src, &mut cost).expect("sim");
        assert!(light.summary.mean_utilization > 0.0);
        assert!(heavy.summary.mean_utilization > light.summary.mean_utilization);
        assert!(heavy.summary.mean_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn batching_amortizes_overhead_under_load() {
        // One class, heavy load: size-class batching (max 16) must beat
        // strict FIFO-of-one on p99 because it pays the 1 ms
        // reconfiguration once per 16 proofs.
        let class = RequestClass::new(Gate::Jellyfish, 15);
        let mut cost = CostModel::exemplar();
        let base = cost.proof_ms(Gate::Jellyfish, 15);
        // Arrivals at ~1.5× a single chip's no-overhead service rate.
        let gap = base / 1.5;
        let count = 400;
        let batched_cfg = FleetConfig::new(1).with_max_batch(16);
        let mut src = uniform_trace(class, count, gap);
        let batched = simulate(&batched_cfg, &mut src, &mut cost).expect("sim");
        let serial_cfg = FleetConfig::new(1)
            .with_policy(PolicyKind::Fifo)
            .with_max_batch(1);
        let mut src = uniform_trace(class, count, gap);
        let serial = simulate(&serial_cfg, &mut src, &mut cost).expect("sim");
        assert!(batched.summary.mean_batch_size > 1.5);
        assert!(
            batched.summary.p99_latency_ms < serial.summary.p99_latency_ms,
            "batched {} vs serial {}",
            batched.summary.p99_latency_ms,
            serial.summary.p99_latency_ms
        );
    }

    #[test]
    fn more_chips_cut_p99_under_load() {
        let two = simulate_poisson_fleet(2, 120.0, 4_000.0, PolicyKind::SizeClass, 11);
        let eight = simulate_poisson_fleet(8, 120.0, 4_000.0, PolicyKind::SizeClass, 11);
        assert!(eight.summary.p99_latency_ms <= two.summary.p99_latency_ms);
    }

    #[test]
    fn weighted_fair_protects_light_tenant_from_flood() {
        // Noisy-neighbor isolation: tenant 1 floods an overloaded chip
        // at 9× tenant 2's rate. Under tenant-blind FIFO the light
        // tenant queues behind the flood; deficit round-robin must keep
        // its p99 far lower without losing any requests.
        let mut cost = CostModel::exemplar();
        let base = WorkloadMix::single(RequestClass::new(Gate::Jellyfish, 18));
        // 9× the traffic but the same service entitlement.
        let tm = TenantMix::new(vec![
            TenantProfile::new(1, 9.0, base.clone()).with_service_weight(1.0),
            TenantProfile::new(2, 1.0, base),
        ]);
        let per_proof = cost.proof_ms(Gate::Jellyfish, 18);
        let rate = 2.0 * 1000.0 / per_proof; // 2× one chip's capacity
        let mut run = |policy: PolicyKind| {
            let mut source = PoissonSource::new(rate, 4_000.0, tm.clone(), 77);
            let cfg = FleetConfig::new(1)
                .with_policy(policy)
                .with_max_batch(4)
                .with_tenant_weights(tm.service_weights());
            simulate(&cfg, &mut source, &mut cost).expect("sim")
        };
        let blind = run(PolicyKind::Fifo);
        let fair = run(PolicyKind::WeightedFair);
        // Same workload either way; nothing lost.
        assert_eq!(blind.summary.completed, fair.summary.completed);
        let light = |r: &SimReport| {
            r.summary
                .per_tenant
                .iter()
                .find(|t| t.tenant == 2)
                .expect("tenant 2 completed work")
                .p99_latency_ms
        };
        let blind_p99 = light(&blind);
        let fair_p99 = light(&fair);
        assert!(
            fair_p99 < 0.5 * blind_p99,
            "fair {fair_p99} vs blind {blind_p99}"
        );
        // Per-tenant completions sum to the global count.
        for r in [&blind, &fair] {
            let sum: u64 = r.summary.per_tenant.iter().map(|t| t.completed).sum();
            assert_eq!(sum, r.summary.completed);
        }
    }

    // ------------------------------------------------------------------
    // Resilience layer
    // ------------------------------------------------------------------

    /// Saturating traffic on 2 chips with a scripted mid-run outage of
    /// chip 0: enough load that the outage always interrupts a batch.
    fn outage_run(cfg: FleetConfig, seed: u64) -> SimReport {
        let mut cost = CostModel::exemplar();
        let class = RequestClass::new(Gate::Jellyfish, 18);
        let per = cost.proof_ms(Gate::Jellyfish, 18);
        let mix = WorkloadMix::single(class);
        let rate = 1.8 * 2.0 * 1000.0 / per;
        let mut source = PoissonSource::new(rate, 2_000.0, mix, seed);
        simulate(&cfg, &mut source, &mut cost).expect("sim")
    }

    fn outage_cfg() -> FleetConfig {
        FleetConfig::new(2).with_faults(FaultConfig::scripted(vec![ChipOutage::new(
            0, 300.0, 600.0,
        )]))
    }

    #[test]
    fn chip_failure_reroutes_in_flight_work_via_retry() {
        let r = outage_run(outage_cfg().with_retry(RetryPolicy::new(5)), 21);
        assert_eq!(r.summary.chip_failures, 1);
        assert_eq!(r.summary.chip_repairs, 1);
        assert!(r.summary.retries > 0, "outage interrupted no batch");
        assert!(conserved(&r), "conservation broke under failure");
        // The interrupted work completed on its later attempt.
        assert!(r.records.iter().any(|rec| rec.attempts > 0));
        // Trace carries the failure cycle.
        assert!(r
            .trace
            .iter()
            .any(|e| matches!(e, TraceEntry::ChipFail { chip: 0, .. })));
        assert!(r
            .trace
            .iter()
            .any(|e| matches!(e, TraceEntry::ChipRepair { chip: 0, .. })));
    }

    #[test]
    fn failure_without_retry_loses_in_flight_batch() {
        let r = outage_run(outage_cfg(), 21);
        assert_eq!(r.summary.chip_failures, 1);
        assert_eq!(r.summary.retries, 0);
        assert!(r.summary.lost > 0, "lost batch vanished without a trace");
        assert!(conserved(&r));
        assert!(r.trace.iter().any(|e| matches!(e, TraceEntry::Lost { .. })));
    }

    #[test]
    fn retries_stay_within_budget() {
        // A harsh MTBF forces many interruptions; attempts must never
        // exceed the configured budget anywhere.
        let budget = 3u32;
        let cfg = FleetConfig::new(2)
            .with_faults(FaultConfig::random(400.0, 200.0, 5))
            .with_retry(RetryPolicy::new(budget));
        let r = outage_run(cfg, 13);
        assert!(conserved(&r));
        assert!(r.records.iter().all(|rec| rec.attempts <= budget));
        for e in &r.trace {
            if let TraceEntry::Retried { attempt, .. } = e {
                assert!(*attempt <= budget, "retry {attempt} over budget");
            }
        }
        // Budget 0 with a retry policy: rescue always fails → lost.
        let cfg0 = outage_cfg().with_retry(RetryPolicy::new(0));
        let r0 = outage_run(cfg0, 21);
        assert_eq!(r0.summary.retries, 0);
        assert!(r0.summary.lost > 0);
        assert!(conserved(&r0));
    }

    #[test]
    fn random_failures_replay_bit_identical_per_seed() {
        let cfg = FleetConfig::new(2)
            .with_faults(FaultConfig::random(500.0, 150.0, 42))
            .with_retry(RetryPolicy::new(4))
            .with_brown_out(BrownOutConfig::new(1.0, 8));
        let a = outage_run(cfg.clone(), 9);
        let b = outage_run(cfg, 9);
        assert!(a.summary.chip_failures > 0, "MTBF 500 ms never fired");
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.trace_hash, b.trace_hash);
        // A different fault seed shifts failure times → different run.
        let cfg2 = FleetConfig::new(2)
            .with_faults(FaultConfig::random(500.0, 150.0, 43))
            .with_retry(RetryPolicy::new(4))
            .with_brown_out(BrownOutConfig::new(1.0, 8));
        let c = outage_run(cfg2, 9);
        assert_ne!(a.trace_hash, c.trace_hash);
    }

    #[test]
    fn brown_out_sheds_under_capacity_loss() {
        // Losing 1 of 2 chips under saturating load with a tight
        // brown-out trims the backlog; without brown-out nothing sheds.
        let base = outage_cfg().with_retry(RetryPolicy::new(3));
        let no_shed = outage_run(base.clone(), 33);
        assert_eq!(no_shed.summary.shed, 0);
        let r = outage_run(base.with_brown_out(BrownOutConfig::new(1.0, 2)), 33);
        assert!(r.summary.shed > 0, "brown-out never shed");
        assert!(conserved(&r));
        assert!(r.trace.iter().any(|e| matches!(e, TraceEntry::Shed { .. })));
        // Shed requests show up in the per-tenant slices.
        let shed_sum: u64 = r.summary.per_tenant.iter().map(|t| t.shed).sum();
        assert_eq!(shed_sum, r.summary.shed);
    }

    #[test]
    fn tenant_caps_protect_light_tenant() {
        // Tenant 1 floods at 9× tenant 2's rate into one overloaded
        // chip. A per-tenant cap bounds the flood's queue share; the
        // light tenant keeps being admitted.
        let mut cost = CostModel::exemplar();
        let base = WorkloadMix::single(RequestClass::new(Gate::Jellyfish, 18));
        let tm = TenantMix::new(vec![
            TenantProfile::new(1, 9.0, base.clone()),
            TenantProfile::new(2, 1.0, base),
        ]);
        let per = cost.proof_ms(Gate::Jellyfish, 18);
        let rate = 3.0 * 1000.0 / per;
        let mut run = |cfg: FleetConfig| {
            let mut source = PoissonSource::new(rate, 4_000.0, tm.clone(), 55);
            simulate(&cfg, &mut source, &mut cost).expect("sim")
        };
        let capped = run(FleetConfig::new(1)
            .with_queue_capacity(20)
            .with_tenant_caps(vec![(1, 10)]));
        let blind = run(FleetConfig::new(1).with_queue_capacity(20));
        let rej = |r: &SimReport, t: TenantId| {
            r.summary
                .per_tenant
                .iter()
                .find(|s| s.tenant == t)
                .map_or(0, |s| s.rejected)
        };
        // The flood, not the light tenant, absorbs the rejections.
        assert!(rej(&capped, 1) > 0);
        assert!(
            rej(&capped, 2) * 10 < rej(&blind, 2).max(1) || rej(&capped, 2) == 0,
            "cap did not protect the light tenant: capped {} blind {}",
            rej(&capped, 2),
            rej(&blind, 2)
        );
        assert!(conserved(&capped) && conserved(&blind));
    }

    #[test]
    fn tenant_caps_compose_with_zero_queue_capacity() {
        // The shared zero-capacity rule dominates: even a generous
        // per-tenant cap admits nothing when nothing may wait.
        let mut cost = CostModel::exemplar();
        let class = RequestClass::new(Gate::Jellyfish, 16);
        let mut source = uniform_trace(class, 40, 50.0);
        let cfg = FleetConfig::new(4)
            .with_queue_capacity(0)
            .with_tenant_caps(vec![(0, 100)])
            .with_default_tenant_cap(100);
        let r = simulate(&cfg, &mut source, &mut cost).expect("sim");
        assert_eq!(r.summary.completed, 0);
        assert_eq!(r.summary.rejected, 40);
        // And the reverse: a zero tenant cap under an open shared queue
        // also rejects everything for that tenant.
        let mut source = uniform_trace(class, 40, 50.0);
        let cfg = FleetConfig::new(4).with_tenant_caps(vec![(0, 0)]);
        let r = simulate(&cfg, &mut source, &mut cost).expect("sim");
        assert_eq!(r.summary.completed, 0);
        assert_eq!(r.summary.rejected, 40);
    }

    #[test]
    fn legacy_configs_ignore_resilience_machinery() {
        // No faults/retry/brown-out/caps configured → no resilience
        // trace entries and zeroed resilience counters.
        let r = small_run(PolicyKind::SizeClass, 7);
        assert_eq!(r.summary.retries, 0);
        assert_eq!(r.summary.shed, 0);
        assert_eq!(r.summary.lost, 0);
        assert_eq!(r.summary.chip_failures, 0);
        assert!(r.trace.iter().all(|e| !matches!(
            e,
            TraceEntry::ChipFail { .. }
                | TraceEntry::ChipRepair { .. }
                | TraceEntry::Retried { .. }
                | TraceEntry::Lost { .. }
                | TraceEntry::Shed { .. }
        )));
    }

    #[test]
    fn config_errors_are_typed() {
        let mut cost = CostModel::exemplar();
        let class = RequestClass::new(Gate::Jellyfish, 16);
        let mut source = uniform_trace(class, 1, 1.0);
        let err = simulate(&FleetConfig::new(0), &mut source, &mut cost).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        // Scripted outage naming a chip outside the pool.
        let cfg = FleetConfig::new(2)
            .with_faults(FaultConfig::scripted(vec![ChipOutage::new(7, 1.0, 1.0)]));
        let mut source = uniform_trace(class, 1, 1.0);
        let err = simulate(&cfg, &mut source, &mut cost).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        assert!(err.to_string().contains("chip 7"));
    }

    #[test]
    fn non_finite_arrival_times_yield_typed_errors() {
        // A source emitting a NaN or infinite arrival time must surface
        // as a typed Err from simulate, never a panic from inside the
        // event heap's comparator (pinned: the partial_cmp era panicked).
        let mut cost = CostModel::exemplar();
        let class = RequestClass::new(Gate::Jellyfish, 16);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut source = crate::arrivals::TraceSource::new(vec![(bad, class)]);
            let err = simulate(&FleetConfig::new(1), &mut source, &mut cost).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidTime { .. }),
                "{bad}: {err:?}"
            );
        }
        // A time-reversed source (which TraceSource's constructor would
        // refuse) is also a typed error, not a panic.
        struct Backwards(Vec<f64>);
        impl crate::arrivals::ArrivalSource for Backwards {
            fn next_arrival(&mut self) -> Option<(f64, RequestClass, TenantId)> {
                self.0
                    .pop()
                    .map(|t| (t, RequestClass::new(Gate::Jellyfish, 16), 0))
            }
        }
        let mut source = Backwards(vec![5.0, 10.0]);
        let err = simulate(&FleetConfig::new(1), &mut source, &mut cost).unwrap_err();
        assert!(matches!(err, SimError::EventInPast { .. }), "{err:?}");
    }

    #[test]
    fn expired_work_is_recycled_only_with_retry() {
        // One slow chip, deadlines too tight for the backlog: with a
        // retry policy, late work is caught at dispatch and recycled;
        // without one it is served late (legacy) as a deadline miss.
        let mut cost = CostModel::exemplar();
        let class = RequestClass::new(Gate::Jellyfish, 18);
        let per = cost.proof_ms(Gate::Jellyfish, 18);
        let mut mk = |retry: Option<RetryPolicy>| {
            let mut cfg = FleetConfig::new(1).with_max_batch(1);
            cfg.deadline_factor = 1.1;
            cfg.deadline_slack_ms = 0.0;
            if let Some(p) = retry {
                cfg = cfg.with_retry(p);
            }
            let mut source = uniform_trace(class, 30, per * 0.5);
            simulate(&cfg, &mut source, &mut cost).expect("sim")
        };
        let legacy = mk(None);
        assert!(legacy.summary.deadline_miss_rate > 0.0);
        assert_eq!(legacy.summary.completed, 30);
        let rescued = mk(Some(RetryPolicy::new(2).with_jitter(0.0)));
        assert!(rescued.summary.retries > 0, "nothing expired at dispatch");
        assert!(conserved(&rescued));
        assert!(rescued.summary.lost > 0 || rescued.summary.completed < 30);
    }
}
