//! The request lifecycle — admission → queue → batch → retry / shed /
//! lost — as one passive rules module that the DES ([`crate::sim`]) and
//! the live service (`zkphire-serve`) both drive. It owns no clock,
//! thread, channel or trace format: every step takes `now` and returns
//! what happened as a value, and the driver turns that value into its
//! own trace (`TraceEntry` + `SimTimeline` there, `wall_event` + the
//! outcome stream here).
//!
//! Two objects, because the service decides admission on submitter
//! threads under a mutex while everything after it runs on the
//! dispatcher thread:
//!
//! * [`AdmissionLedger`] — who holds how much of the queue: tenant cap
//!   first, then shared capacity; arrivals and rejections counted. The
//!   DES owns one outright, the service keeps one behind its admission
//!   mutex (where it also counts jobs still in the control channel).
//! * [`Lifecycle`] — the [`BatchPolicy`] queue, backoff parking with
//!   wake times, the jitter stream, the retry / lost / shed / batch /
//!   peak-depth counters and the drain checks.
//!
//! Deliberately *not* shared, because a common loop would branch on its
//! caller at each of these:
//!
//! * **Busy accounting.** The DES books a batch's service time at
//!   dispatch and un-books the unrendered part on a failure; the
//!   service books `finish − start` at completion. Each is pinned
//!   bitwise by its own timeline.
//! * **Chip state.** Event epochs and random (MTBF) failures exist only
//!   in the DES; the service has idle, busy and repairing workers and
//!   one scripted failure source.
//! * **Concurrency.** Admission under a mutex on submitter threads and
//!   burst-draining of the control channel exist only live.
//! * **Tracing and makespan.** Each side keeps its own format, and its
//!   own rule for which events stretch the makespan.

use std::collections::BTreeMap;

use crate::error::SimError;
use crate::fault::{BrownOutConfig, RetryPolicy};
use crate::metrics::RunAccumulators;
use crate::policy::BatchPolicy;
use crate::request::{Request, TenantId};
use crate::rng::SplitMix64;

/// Why admission refused a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The tenant already holds its cap of queued requests.
    TenantCap {
        /// The capped tenant.
        tenant: TenantId,
        /// Its cap: the `tenant_caps` entry, else the default cap.
        cap: usize,
    },
    /// The shared queue is at capacity.
    QueueFull {
        /// The shared capacity.
        capacity: usize,
    },
}

/// Queue occupancy per tenant and in total, the caps that bound it, and
/// the arrival / rejection counts. The default ledger has no caps.
#[derive(Clone, Debug, Default)]
pub struct AdmissionLedger {
    tenant_caps: Vec<(TenantId, usize)>,
    default_tenant_cap: Option<usize>,
    queue_capacity: Option<usize>,
    queued: usize,
    queued_by_tenant: BTreeMap<TenantId, usize>,
    arrivals: u64,
    rejected: u64,
    rejected_by_tenant: BTreeMap<TenantId, u64>,
}

impl AdmissionLedger {
    /// An empty ledger. `tenant_caps` override `default_tenant_cap` for
    /// the tenants they list; `None` is unlimited, and a cap or
    /// capacity of zero refuses everything it covers.
    pub fn new(
        tenant_caps: &[(TenantId, usize)],
        default_tenant_cap: Option<usize>,
        queue_capacity: Option<usize>,
    ) -> Self {
        Self {
            tenant_caps: tenant_caps.to_vec(),
            default_tenant_cap,
            queue_capacity,
            ..Self::default()
        }
    }

    /// Counts a fresh arrival and holds a queue slot for it, or counts
    /// the rejection — terminal for the request — and says why.
    pub fn arrive(&mut self, tenant: TenantId) -> Result<(), Refusal> {
        self.arrivals += 1;
        let held = self.hold(tenant);
        if held.is_err() {
            self.rejected += 1;
            *self.rejected_by_tenant.entry(tenant).or_insert(0) += 1;
        }
        held
    }

    /// The admission rule: the tenant's cap first, then the shared
    /// capacity.
    fn hold(&mut self, tenant: TenantId) -> Result<(), Refusal> {
        let cap = self
            .tenant_caps
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, cap)| *cap)
            .or(self.default_tenant_cap);
        if let Some(cap) = cap {
            if self.queued_by_tenant.get(&tenant).copied().unwrap_or(0) >= cap {
                return Err(Refusal::TenantCap { tenant, cap });
            }
        }
        if let Some(capacity) = self.queue_capacity {
            if self.queued >= capacity {
                return Err(Refusal::QueueFull { capacity });
            }
        }
        *self.queued_by_tenant.entry(tenant).or_insert(0) += 1;
        self.queued += 1;
        Ok(())
    }

    /// Gives back the slot of a request leaving the queue.
    fn release(&mut self, tenant: TenantId) -> Result<(), SimError> {
        match self.queued_by_tenant.get_mut(&tenant) {
            Some(n) if *n > 0 => {
                *n -= 1;
                self.queued -= 1;
                Ok(())
            }
            _ => Err(SimError::Invariant(
                "dequeued tenant was never queued".into(),
            )),
        }
    }

    /// Slots held: requests past admission that have not left the queue.
    pub fn queued(&self) -> usize {
        self.queued
    }
}

/// What became of a request that needed rescue — its batch was lost to
/// a failure, its deadline expired before dispatch, or its re-admission
/// was refused.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rescue {
    /// Parked in backoff; `req.attempts` is the retry this precedes.
    Parked {
        /// The request, attempt already consumed.
        req: Request,
        /// When it re-enters admission (ms).
        wake_ms: f64,
    },
    /// Retry budget spent, or no retry policy: terminal.
    Lost(Request),
}

/// The result of re-admitting a parked request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Readmit {
    /// Back in the queue under a fresh deadline.
    Admitted(Request),
    /// Admission refused it, which is another rescue — rejection is
    /// terminal only for fresh arrivals.
    Refused(Rescue),
}

/// One [`Lifecycle::next_batch`] step.
#[derive(Debug)]
pub struct Dispatch {
    /// Deadline-expired work rescued on the way, in rescue order.
    pub recycled: Vec<Rescue>,
    /// The batch to serve with its 0-based dispatch number, or `None`
    /// when the queue ran dry.
    pub batch: Option<(u64, Vec<Request>)>,
}

/// Everything between admission and a terminal outcome that does not
/// depend on who executes the batches.
pub struct Lifecycle {
    policy: Box<dyn BatchPolicy + Send>,
    max_batch: usize,
    retry: Option<RetryPolicy>,
    brown_out: Option<BrownOutConfig>,
    jitter: SplitMix64,
    /// Requests sitting out a retry backoff: id → (request, wake ms).
    parked: BTreeMap<u64, (Request, f64)>,
    /// The run's accumulators. The lifecycle counts `max_queue_depth`,
    /// `batches`, `retries`, `lost*` and `shed*`, and [`Self::finish`]
    /// fills `arrivals` and `rejected*` from the ledger; the rest
    /// (busy time, integrals, makespan, chip counters) is the driver's.
    pub acc: RunAccumulators,
}

impl Lifecycle {
    /// A lifecycle over an empty `policy` queue. `jitter_seed` feeds
    /// [`RetryPolicy::jitter_stream`]; `acc` arrives with whatever the
    /// driver pre-sets (per-chip slots, initial pool size).
    pub fn new(
        policy: Box<dyn BatchPolicy + Send>,
        max_batch: usize,
        retry: Option<RetryPolicy>,
        brown_out: Option<BrownOutConfig>,
        jitter_seed: u64,
        acc: RunAccumulators,
    ) -> Self {
        Self {
            policy,
            max_batch,
            retry,
            brown_out,
            jitter: RetryPolicy::jitter_stream(jitter_seed),
            parked: BTreeMap::new(),
            acc,
        }
    }

    /// Requests queued for dispatch.
    pub fn depth(&self) -> usize {
        self.policy.depth()
    }

    /// Requests sitting out a retry backoff.
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    /// The earliest wake time among parked requests (ms).
    pub fn next_wake_ms(&self) -> Option<f64> {
        self.parked.values().map(|(_, wake)| *wake).reduce(f64::min)
    }

    /// Ids of the parked requests whose backoff ended by `now`, in id
    /// order.
    pub fn due(&self, now: f64) -> Vec<u64> {
        let due = self.parked.iter().filter(|(_, (_, wake))| *wake <= now);
        due.map(|(&id, _)| id).collect()
    }

    /// Queues a request whose slot the ledger already holds.
    pub fn enqueue(&mut self, req: Request) {
        self.policy.push(req);
        self.acc.max_queue_depth = self.acc.max_queue_depth.max(self.policy.depth());
    }

    /// Sends work that lost its service back through the retry policy:
    /// another backoff while the budget lasts, lost for good after (or
    /// without a policy). The request must hold no ledger slot.
    pub fn rescue(&mut self, mut req: Request, now: f64) -> Rescue {
        match self.retry {
            Some(p) if req.attempts < p.max_retries => {
                req.attempts += 1;
                self.acc.retries += 1;
                let wake_ms = now + p.backoff_ms(req.attempts, &mut self.jitter);
                self.parked.insert(req.id, (req, wake_ms));
                Rescue::Parked { req, wake_ms }
            }
            _ => {
                self.acc.lost += 1;
                *self.acc.lost_by_tenant.entry(req.tenant).or_insert(0) += 1;
                Rescue::Lost(req)
            }
        }
    }

    /// Re-admits parked request `id` through the same caps as a fresh
    /// arrival. Admitted, it queues under `fresh_deadline(&req)` — the
    /// old deadline is blown or at risk — while latency still accrues
    /// from the original arrival; refused, it is rescued again and
    /// never counted as a rejection.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownRetry`] when `id` is not parked.
    pub fn readmit(
        &mut self,
        ledger: &mut AdmissionLedger,
        id: u64,
        now: f64,
        fresh_deadline: impl FnOnce(&Request) -> f64,
    ) -> Result<Readmit, SimError> {
        let Some((mut req, _)) = self.parked.remove(&id) else {
            return Err(SimError::UnknownRetry { id, time_ms: now });
        };
        if ledger.hold(req.tenant).is_err() {
            return Ok(Readmit::Refused(self.rescue(req, now)));
        }
        req.deadline_ms = fresh_deadline(&req);
        self.enqueue(req);
        Ok(Readmit::Admitted(req))
    }

    /// Brown-out: with `healthy` of `pool` executors left, below the
    /// configured fraction, trims the queue to what the survivors may
    /// hold by shedding the latest `(deadline, id)` first. Shedding is
    /// terminal; the victims' slots are released.
    pub fn shed(
        &mut self,
        ledger: &mut AdmissionLedger,
        healthy: usize,
        pool: usize,
    ) -> Result<Vec<Request>, SimError> {
        let Some(b) = self.brown_out else {
            return Ok(Vec::new());
        };
        if healthy as f64 >= b.capacity_threshold * pool as f64 {
            return Ok(Vec::new());
        }
        let target = b.max_queue_per_chip * healthy;
        let depth = self.policy.depth();
        if depth <= target {
            return Ok(Vec::new());
        }
        let victims = self.policy.drain_latest_deadline(depth - target);
        for v in &victims {
            ledger.release(v.tenant)?;
            self.acc.shed += 1;
            *self.acc.shed_by_tenant.entry(v.tenant).or_insert(0) += 1;
        }
        Ok(victims)
    }

    /// Pops the next batch and releases its slots. With a retry policy,
    /// work whose deadline passed by `now` is rescued instead of
    /// burning executor time — and the pop repeats if nothing live is
    /// left; without one it is served late and counts as a miss.
    pub fn next_batch(
        &mut self,
        ledger: &mut AdmissionLedger,
        now: f64,
    ) -> Result<Dispatch, SimError> {
        let mut recycled = Vec::new();
        while let Some(mut batch) = self.policy.pop_batch(self.max_batch) {
            for r in &batch {
                ledger.release(r.tenant)?;
            }
            if self.retry.is_some() {
                batch.retain(|r| {
                    let live = r.deadline_ms > now;
                    if !live {
                        recycled.push(self.rescue(*r, now));
                    }
                    live
                });
            }
            if !batch.is_empty() {
                let seq = self.acc.batches;
                self.acc.batches += 1;
                let batch = Some((seq, batch));
                return Ok(Dispatch { recycled, batch });
            }
        }
        if self.policy.depth() > 0 {
            return Err(SimError::Invariant("depth > 0 implies a batch".into()));
        }
        Ok(Dispatch {
            recycled,
            batch: None,
        })
    }

    /// Closes the run: nothing may be left queued or parked, and with
    /// `completed` requests served the terminal outcomes must add up to
    /// the ledger's arrivals. Returns the accumulators with the
    /// ledger's counts filled in.
    pub fn finish(
        mut self,
        ledger: &AdmissionLedger,
        completed: u64,
    ) -> Result<RunAccumulators, SimError> {
        if self.policy.depth() != 0 {
            return Err(SimError::Invariant(
                "requests stranded in queue at drain".into(),
            ));
        }
        if !self.parked.is_empty() {
            return Err(SimError::Invariant(
                "requests stranded in backoff at drain".into(),
            ));
        }
        self.acc.arrivals = ledger.arrivals;
        self.acc.rejected = ledger.rejected;
        self.acc.rejected_by_tenant = ledger.rejected_by_tenant.clone();
        if ledger.arrivals != completed + ledger.rejected + self.acc.shed + self.acc.lost {
            return Err(SimError::Invariant(
                "terminal outcomes do not conserve arrivals".into(),
            ));
        }
        Ok(self.acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use crate::request::RequestClass;
    use proptest::prelude::*;
    use zkphire_core::protocol::Gate;

    fn req(id: u64, tenant: TenantId, arrival_ms: f64, deadline_ms: f64) -> Request {
        Request {
            id,
            tenant,
            class: RequestClass::new(Gate::Jellyfish, 16),
            arrival_ms,
            deadline_ms,
            attempts: 0,
        }
    }

    fn lifecycle(retry: Option<RetryPolicy>, brown_out: Option<BrownOutConfig>) -> Lifecycle {
        let acc = RunAccumulators::default();
        Lifecycle::new(PolicyKind::Fifo.build(), 4, retry, brown_out, 7, acc)
    }

    /// Admits `r` and queues it at once, as the DES does.
    fn admit(ledger: &mut AdmissionLedger, life: &mut Lifecycle, r: Request) {
        ledger.arrive(r.tenant).expect("admitted");
        life.enqueue(r);
    }

    fn invariant(err: SimError) -> String {
        match err {
            SimError::Invariant(why) => why,
            other => panic!("not an invariant: {other}"),
        }
    }

    #[test]
    fn tenant_cap_is_checked_before_shared_capacity_and_names_itself() {
        let mut ledger = AdmissionLedger::new(&[(1, 1)], Some(2), Some(2));
        assert_eq!(ledger.arrive(1), Ok(()));
        // Tenant 1 is at its cap *and* would still fit the queue: the
        // tenant cap speaks, with the listed cap rather than the default.
        assert_eq!(
            ledger.arrive(1),
            Err(Refusal::TenantCap { tenant: 1, cap: 1 })
        );
        assert_eq!(ledger.arrive(2), Ok(()));
        // Now both bounds bind for tenant 2 (default cap 2 not reached,
        // queue full) and for tenant 1 (both reached): tenant cap first.
        assert_eq!(ledger.arrive(2), Err(Refusal::QueueFull { capacity: 2 }));
        assert_eq!(
            ledger.arrive(1),
            Err(Refusal::TenantCap { tenant: 1, cap: 1 })
        );
        assert_eq!(
            (ledger.arrivals, ledger.rejected, ledger.queued()),
            (5, 3, 2)
        );
        assert_eq!(ledger.rejected_by_tenant.get(&1), Some(&2));
        assert_eq!(ledger.rejected_by_tenant.get(&2), Some(&1));
        // An unlisted tenant falls under the default cap.
        let mut ledger = AdmissionLedger::new(&[(1, 3)], Some(1), None);
        assert_eq!(ledger.arrive(9), Ok(()));
        assert_eq!(
            ledger.arrive(9),
            Err(Refusal::TenantCap { tenant: 9, cap: 1 })
        );
    }

    #[test]
    fn capacity_zero_refuses_everything() {
        let mut ledger = AdmissionLedger::new(&[(0, 100)], Some(100), Some(0));
        for tenant in [0, 1, 0] {
            assert_eq!(
                ledger.arrive(tenant),
                Err(Refusal::QueueFull { capacity: 0 })
            );
        }
        assert_eq!(
            (ledger.arrivals, ledger.rejected, ledger.queued()),
            (3, 3, 0)
        );
        // A zero tenant cap under an open shared queue does the same
        // for that tenant only.
        let mut ledger = AdmissionLedger::new(&[(0, 0)], None, None);
        assert_eq!(
            ledger.arrive(0),
            Err(Refusal::TenantCap { tenant: 0, cap: 0 })
        );
        assert_eq!(ledger.arrive(1), Ok(()));
    }

    #[test]
    fn refused_readmission_consumes_an_attempt_and_is_never_a_rejection() {
        let mut ledger = AdmissionLedger::new(&[], None, Some(1));
        let mut life = lifecycle(Some(RetryPolicy::new(2).with_jitter(0.0)), None);
        admit(&mut ledger, &mut life, req(0, 0, 0.0, 100.0));
        let (seq, batch) = life
            .next_batch(&mut ledger, 1.0)
            .expect("dispatch")
            .batch
            .expect("one queued");
        assert_eq!((seq, batch.len(), ledger.queued()), (0, 1, 0));
        // Its executor fails: first backoff, 10 ms base.
        let parked = life.rescue(batch[0], 2.0);
        let Rescue::Parked { req: r, wake_ms } = parked else {
            panic!("budget 2 allows a retry: {parked:?}");
        };
        assert_eq!((r.attempts, wake_ms), (1, 12.0));
        // Request 1 takes the only slot, so the wake is refused: that
        // is another attempt (doubled backoff), not a rejection...
        admit(&mut ledger, &mut life, req(1, 0, 3.0, 100.0));
        let again = life
            .readmit(&mut ledger, 0, 12.0, |_| f64::NAN)
            .expect("parked");
        let Readmit::Refused(Rescue::Parked { req: r, wake_ms }) = again else {
            panic!("refusal re-parks while the budget lasts: {again:?}");
        };
        assert_eq!((r.attempts, wake_ms), (2, 32.0));
        // ...and with the budget spent it is a loss, still no rejection.
        let spent = life
            .readmit(&mut ledger, 0, 32.0, |_| f64::NAN)
            .expect("parked");
        assert!(matches!(spent, Readmit::Refused(Rescue::Lost(r)) if r.attempts == 2));
        assert_eq!((life.acc.retries, life.acc.lost, life.parked()), (2, 1, 0));
        assert_eq!(
            (ledger.arrivals, ledger.rejected, ledger.queued()),
            (2, 0, 1)
        );
        // An id that is not parked is a typed error.
        let unknown = life.readmit(&mut ledger, 0, 40.0, |_| f64::NAN);
        assert_eq!(
            unknown,
            Err(SimError::UnknownRetry {
                id: 0,
                time_ms: 40.0
            })
        );
    }

    #[test]
    fn readmission_sets_a_fresh_deadline_and_keeps_the_arrival() {
        let mut ledger = AdmissionLedger::default();
        let mut life = lifecycle(Some(RetryPolicy::new(1)), None);
        let Rescue::Parked { wake_ms, .. } = life.rescue(req(4, 2, 1.5, 20.0), 30.0) else {
            panic!("budget 1 allows a retry");
        };
        assert_eq!(life.next_wake_ms(), Some(wake_ms));
        assert!(life.due(wake_ms - 1e-9).is_empty());
        assert_eq!(life.due(wake_ms), vec![4]);
        let back = life
            .readmit(&mut ledger, 4, wake_ms, |r| wake_ms + 5.0 + r.arrival_ms)
            .expect("parked");
        let want = Request {
            deadline_ms: wake_ms + 6.5,
            attempts: 1,
            ..req(4, 2, 1.5, 20.0)
        };
        assert_eq!(back, Readmit::Admitted(want));
        assert_eq!((life.depth(), life.parked(), ledger.queued()), (1, 0, 1));
        let served = life.next_batch(&mut ledger, wake_ms).expect("dispatch");
        assert_eq!(served.batch, Some((0, vec![want])));
    }

    #[test]
    fn expired_work_is_recycled_only_with_a_retry_policy() {
        // Without a policy the late request is served anyway.
        let mut ledger = AdmissionLedger::default();
        let mut legacy = lifecycle(None, None);
        admit(&mut ledger, &mut legacy, req(0, 0, 0.0, 10.0));
        let late = legacy.next_batch(&mut ledger, 20.0).expect("dispatch");
        assert!(late.recycled.is_empty());
        assert_eq!(late.batch, Some((0, vec![req(0, 0, 0.0, 10.0)])));
        // With one, it is rescued, the pop repeats, and only batches
        // with live work get a dispatch number.
        let mut ledger = AdmissionLedger::default();
        let mut life = lifecycle(Some(RetryPolicy::new(1)), None);
        admit(&mut ledger, &mut life, req(0, 0, 0.0, 10.0));
        admit(&mut ledger, &mut life, req(1, 0, 0.0, 30.0));
        let next = life.next_batch(&mut ledger, 20.0).expect("dispatch");
        assert!(matches!(next.recycled[..], [Rescue::Parked { req, .. }] if req.id == 0));
        assert_eq!(next.batch, Some((0, vec![req(1, 0, 0.0, 30.0)])));
        admit(&mut ledger, &mut life, req(2, 0, 0.0, 10.0));
        let dry = life.next_batch(&mut ledger, 20.0).expect("dispatch");
        assert_eq!((dry.recycled.len(), dry.batch), (1, None));
        assert_eq!(
            (life.acc.batches, life.acc.retries, ledger.queued()),
            (1, 2, 0)
        );
        // A deadline equal to `now` has expired.
        admit(&mut ledger, &mut life, req(3, 0, 0.0, 20.0));
        let edge = life.next_batch(&mut ledger, 20.0).expect("dispatch");
        assert_eq!((edge.recycled.len(), edge.batch), (1, None));
    }

    #[test]
    fn shedding_takes_the_latest_deadline_first_is_terminal_and_releases() {
        let mut ledger = AdmissionLedger::default();
        let retry = Some(RetryPolicy::new(3));
        let mut life = lifecycle(retry, Some(BrownOutConfig::new(0.5, 1)));
        for (id, tenant, deadline) in [(0, 1, 50.0), (1, 2, 90.0), (2, 1, 90.0), (3, 2, 40.0)] {
            admit(&mut ledger, &mut life, req(id, tenant, 0.0, deadline));
        }
        // 2 of 4 is not *below* half: nothing is shed.
        assert!(life.shed(&mut ledger, 2, 4).expect("shed").is_empty());
        // 1 of 4 is: keep 1 × 1, shed by (deadline, id) descending.
        let victims = life.shed(&mut ledger, 1, 4).expect("shed");
        let ids: Vec<u64> = victims.iter().map(|v| v.id).collect();
        assert_eq!(ids, vec![2, 1, 0]);
        assert_eq!((life.depth(), ledger.queued()), (1, 1));
        assert_eq!(life.acc.shed, 3);
        assert_eq!(life.acc.shed_by_tenant.get(&1), Some(&2));
        assert_eq!(life.acc.shed_by_tenant.get(&2), Some(&1));
        // Terminal: a retry policy does not bring shed work back.
        assert_eq!((life.parked(), life.acc.retries), (0, 0));
        // No healthy executor at all sheds the rest.
        assert_eq!(life.shed(&mut ledger, 0, 4).expect("shed").len(), 1);
        assert_eq!((life.depth(), ledger.queued()), (0, 0));
        // Without a brown-out policy nothing is ever shed.
        let mut never = lifecycle(None, None);
        admit(&mut ledger, &mut never, req(9, 0, 0.0, 1.0));
        assert!(never.shed(&mut ledger, 0, 4).expect("shed").is_empty());
    }

    #[test]
    fn releasing_a_tenant_that_holds_nothing_is_an_invariant_not_an_underflow() {
        let mut ledger = AdmissionLedger::default();
        let mut life = lifecycle(None, Some(BrownOutConfig::new(1.0, 0)));
        // Queued without a slot: tenant 5 was never seen...
        life.enqueue(req(0, 5, 0.0, 1.0));
        let err = life.next_batch(&mut ledger, 0.0).expect_err("no slot held");
        assert_eq!(invariant(err), "dequeued tenant was never queued");
        // ...and tenant 6 was, but holds nothing any more.
        admit(&mut ledger, &mut life, req(1, 6, 0.0, 1.0));
        life.enqueue(req(2, 6, 0.0, 2.0));
        let err = life
            .shed(&mut ledger, 0, 1)
            .expect_err("one slot, two victims");
        assert_eq!(invariant(err), "dequeued tenant was never queued");
        assert_eq!(ledger.queued(), 0);
    }

    #[test]
    fn finish_checks_the_queue_the_backoff_and_conservation() {
        let mut ledger = AdmissionLedger::default();
        let mut stranded = lifecycle(None, None);
        admit(&mut ledger, &mut stranded, req(0, 0, 0.0, 1.0));
        let err = stranded.finish(&ledger, 0).expect_err("queued");
        assert_eq!(invariant(err), "requests stranded in queue at drain");

        let mut parked = lifecycle(Some(RetryPolicy::new(1)), None);
        parked.rescue(req(0, 0, 0.0, 1.0), 0.0);
        let err = parked.finish(&ledger, 0).expect_err("parked");
        assert_eq!(invariant(err), "requests stranded in backoff at drain");

        // One arrival, nothing queued or parked, and no outcome for it.
        let err = lifecycle(None, None)
            .finish(&ledger, 0)
            .expect_err("vanished");
        assert_eq!(invariant(err), "terminal outcomes do not conserve arrivals");

        // Three arrivals: one served, one rejected, one lost.
        let mut ledger = AdmissionLedger::new(&[(3, 0)], None, None);
        let mut life = lifecycle(None, None);
        admit(&mut ledger, &mut life, req(0, 0, 0.0, 1.0));
        admit(&mut ledger, &mut life, req(1, 0, 0.0, 1.0));
        assert!(ledger.arrive(3).is_err());
        let (_, batch) = life
            .next_batch(&mut ledger, 0.0)
            .expect("dispatch")
            .batch
            .expect("two queued");
        assert!(matches!(life.rescue(batch[1], 0.5), Rescue::Lost(_)));
        let acc = life.finish(&ledger, 1).expect("conserved");
        assert_eq!(
            (acc.arrivals, acc.rejected, acc.lost, acc.batches),
            (3, 1, 1, 1)
        );
        assert_eq!(acc.rejected_by_tenant.get(&3), Some(&1));
        assert_eq!(acc.max_queue_depth, 2);
    }

    /// A driver with neither executor: `pending` stands for the live
    /// service's control channel (admitted, not yet queued), `in_flight`
    /// for batches on chips or workers.
    struct Driver {
        ledger: AdmissionLedger,
        life: Lifecycle,
        pending: Vec<Request>,
        in_flight: Vec<Vec<Request>>,
        completed: u64,
        now: f64,
        next_id: u64,
    }

    impl Driver {
        fn step(&mut self, rng: &mut SplitMix64) -> Result<(), SimError> {
            match rng.next_below(8) {
                0 | 1 => {
                    let tenant = rng.next_below(3) as TenantId;
                    let slack = 5.0 + 40.0 * rng.next_f64();
                    if self.ledger.arrive(tenant).is_ok() {
                        let r = req(self.next_id, tenant, self.now, self.now + slack);
                        self.pending.push(r);
                    }
                    self.next_id += 1;
                }
                2 => {
                    for r in self.pending.drain(..) {
                        self.life.enqueue(r);
                    }
                }
                3 => {
                    let next = self.life.next_batch(&mut self.ledger, self.now)?;
                    self.in_flight.extend(next.batch.map(|(_, live)| live));
                }
                4 => {
                    if let Some(done) = self.in_flight.pop() {
                        self.completed += done.len() as u64;
                    }
                }
                5 => {
                    for r in self.in_flight.pop().unwrap_or_default() {
                        self.life.rescue(r, self.now);
                    }
                }
                6 => {
                    let healthy = rng.next_below(4) as usize;
                    self.life.shed(&mut self.ledger, healthy, 3)?;
                }
                _ => {
                    self.now += 20.0 * rng.next_f64();
                    for id in self.life.due(self.now) {
                        let now = self.now;
                        self.life
                            .readmit(&mut self.ledger, id, now, |_| now + 25.0)?;
                    }
                }
            }
            Ok(())
        }

        /// `arrivals − (every place a request can be)`; zero when
        /// conserved.
        fn unaccounted(&self) -> i64 {
            let in_flight: usize = self.in_flight.iter().map(Vec::len).sum();
            let held = self.pending.len() + self.life.depth() + self.life.parked() + in_flight;
            let acc = &self.life.acc;
            let terminal = self.completed + self.ledger.rejected + acc.shed + acc.lost;
            self.ledger.arrivals as i64 - held as i64 - terminal as i64
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Conservation and ledger agreement hold after *every* step of
        /// a random walk over the module's API, under every policy.
        #[test]
        fn every_step_conserves_requests_and_keeps_the_ledger_exact(
            seed in 0u64..1_000_000,
            steps in 40usize..240,
            kind in 0usize..4,
        ) {
            let kind = [
                PolicyKind::Fifo,
                PolicyKind::SizeClass,
                PolicyKind::EarliestDeadline,
                PolicyKind::WeightedFair,
            ][kind];
            let mut d = Driver {
                ledger: AdmissionLedger::new(&[(1, 2)], Some(5), Some(8)),
                life: Lifecycle::new(
                    kind.build(),
                    3,
                    Some(RetryPolicy::new(2)),
                    Some(BrownOutConfig::new(0.75, 2)),
                    seed,
                    RunAccumulators::default(),
                ),
                pending: Vec::new(),
                in_flight: Vec::new(),
                completed: 0,
                now: 0.0,
                next_id: 0,
            };
            let mut rng = SplitMix64::new(seed);
            for step in 0..steps {
                if let Err(e) = d.step(&mut rng) {
                    prop_assert!(false, "step {step}: {e}");
                }
                prop_assert_eq!(d.unaccounted(), 0);
                prop_assert_eq!(d.ledger.queued(), d.life.depth() + d.pending.len());
            }
            // Drain: everything left reaches a terminal outcome and the
            // module's own drain checks agree.
            for r in d.pending.drain(..) {
                d.life.enqueue(r);
            }
            d.completed += d.in_flight.drain(..).map(|b| b.len() as u64).sum::<u64>();
            while d.life.depth() > 0 || d.life.parked() > 0 {
                if let Some(wake) = d.life.next_wake_ms().filter(|_| d.life.depth() == 0) {
                    d.now = d.now.max(wake);
                }
                let now = d.now;
                for id in d.life.due(now) {
                    let back = d.life.readmit(&mut d.ledger, id, now, |_| now + 25.0);
                    prop_assert!(back.is_ok(), "readmit {id}: {back:?}");
                }
                match d.life.next_batch(&mut d.ledger, now) {
                    Ok(next) => d.completed += next.batch.map_or(0, |(_, b)| b.len() as u64),
                    Err(e) => prop_assert!(false, "drain: {e}"),
                }
                prop_assert_eq!(d.unaccounted(), 0);
            }
            prop_assert_eq!(d.ledger.queued(), 0);
            let arrivals = d.ledger.arrivals;
            let acc = d.life.finish(&d.ledger, d.completed);
            prop_assert!(acc.is_ok(), "finish: {acc:?}");
            prop_assert_eq!(acc.map(|a| a.arrivals), Ok(arrivals));
        }
    }
}
