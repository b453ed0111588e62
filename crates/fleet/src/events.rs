//! The event-queue engine: a binary heap of timestamped events with a
//! monotone sequence number breaking timestamp ties, so pop order is a
//! total order independent of heap internals — the root of the
//! simulator's bit-for-bit reproducibility.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::error::SimError;

/// Simulation timestamps are `f64` milliseconds. Non-finite times are
/// rejected at event construction ([`EventQueue::try_push`]), so the
/// ordering below never sees a NaN in a well-formed run; `total_cmp`
/// keeps it a total order even for one that slipped past construction,
/// so the heap can never panic mid-run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimTime(pub f64);

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// What happens at a timestamp.
///
/// Several variants carry an `epoch`: the future-event list is a heap
/// with no cancellation, so events that may be invalidated by a later
/// state change (a batch lost to a chip failure, a failure armed for a
/// chip that has failed and been repaired since) are validated at pop
/// time against the chip's current epoch counter and silently dropped
/// when stale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A request arrives from the front-end (its id).
    Arrival(u64),
    /// A chip finishes its current batch.
    BatchDone {
        /// Which chip.
        chip: usize,
        /// Dispatch epoch captured at dispatch; stale (the batch was
        /// lost to a chip failure) when it no longer matches.
        epoch: u64,
    },
    /// A chip fails (MTBF draw from the [`crate::fault::FaultModel`]);
    /// any in-flight batch is lost.
    ChipFail {
        /// Which chip.
        chip: usize,
        /// Availability epoch captured when the failure was armed;
        /// stale when the chip has failed since.
        epoch: u64,
    },
    /// A failed chip finishes repair (MTTR) and rejoins the pool.
    ChipRepair {
        /// Which chip.
        chip: usize,
        /// Availability epoch captured at failure time.
        epoch: u64,
    },
    /// A scripted outage from [`crate::fault::FaultKind::Scripted`]
    /// begins (index into the outage list; applied only if the chip is
    /// online when it pops).
    ScriptedFail(usize),
    /// A lost or timed-out request re-enters admission after its
    /// retry backoff (the request body is parked in the simulator).
    Retry(u64),
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Scheduled {
    time: SimTime,
    seq: u64,
    event: Event,
}

// BinaryHeap is a max-heap: invert so the earliest (time, seq) pops first.
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic future-event list.
#[derive(Clone, Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
    now: f64,
}

impl EventQueue {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulation time (the timestamp of the last pop).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTime`] for a NaN or infinite `time` — a
    /// single NaN arrival must surface as a typed error at the
    /// boundary, not poison the heap ordering mid-run — and
    /// [`SimError::EventInPast`] for a `time` before the clock.
    pub fn try_push(&mut self, time: f64, event: Event) -> Result<(), SimError> {
        if !time.is_finite() {
            return Err(SimError::InvalidTime { time_ms: time });
        }
        if time < self.now {
            return Err(SimError::EventInPast {
                time_ms: time,
                now_ms: self.now,
            });
        }
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled {
            time: SimTime(time),
            seq,
            event,
        });
        Ok(())
    }

    /// [`EventQueue::try_push`] for contexts that cannot recover.
    ///
    /// # Panics
    ///
    /// Panics with the typed [`SimError`] message on a non-finite or
    /// past `time` — the engine itself uses `try_push` and propagates.
    pub fn push(&mut self, time: f64, event: Event) {
        if let Err(e) = self.try_push(time, event) {
            panic!("{e}");
        }
    }

    /// Pops the earliest event, advancing the clock to it. Ties on time
    /// resolve in insertion order.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        let s = self.heap.pop()?;
        self.now = s.time.0;
        Some((s.time.0, s.event))
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, Event::Arrival(3));
        q.push(1.0, Event::Arrival(1));
        q.push(2.0, Event::Arrival(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Arrival(id) => id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_resolve_in_insertion_order() {
        let mut q = EventQueue::new();
        for id in 0..100 {
            q.push(5.0, Event::Arrival(id));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Arrival(id) => id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.push(1.5, Event::BatchDone { chip: 0, epoch: 0 });
        q.push(1.5, Event::Arrival(0));
        q.push(9.0, Event::Arrival(1));
        let mut last = 0.0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            assert_eq!(q.now(), t);
        }
        assert_eq!(last, 9.0);
    }

    #[test]
    fn rejects_past_events_as_typed_error() {
        let mut q = EventQueue::new();
        q.push(2.0, Event::Arrival(0));
        q.pop();
        assert_eq!(
            q.try_push(1.0, Event::Arrival(1)),
            Err(SimError::EventInPast {
                time_ms: 1.0,
                now_ms: 2.0
            })
        );
    }

    #[test]
    fn rejects_non_finite_times_as_typed_error() {
        // A NaN or infinite timestamp must be a typed Err at the
        // boundary, never a panic from inside the heap's comparator.
        let mut q = EventQueue::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = q.try_push(bad, Event::Arrival(0)).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidTime { .. }),
                "{bad}: {err:?}"
            );
        }
        // The queue is unharmed and keeps working.
        assert!(q.is_empty());
        q.push(1.0, Event::Arrival(7));
        assert_eq!(q.pop(), Some((1.0, Event::Arrival(7))));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn panicking_wrapper_keeps_legacy_contract() {
        let mut q = EventQueue::new();
        q.push(2.0, Event::Arrival(0));
        q.pop();
        q.push(1.0, Event::Arrival(1));
    }
}
