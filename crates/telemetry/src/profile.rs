//! The wall-clock profiler: span records, counters, log2 histograms,
//! and (behind the `record` feature) the thread-local recorder that
//! produces them.
//!
//! # Design
//!
//! * **Static dispatch, zero cost when disabled.** Every hook
//!   ([`span`], [`counter_add`], [`hist_record`]) is an `#[inline]`
//!   function; without the `record` feature the bodies are empty and
//!   vanish at compile time and the session types ([`Session`],
//!   [`SessionRef`], [`Entered`]) are zero-sized, so the instrumented
//!   prover carries no telemetry code at all.
//! * **No allocation on the hot path.** Spans are fixed-size records
//!   pushed into a pre-reserved thread-local buffer; counter and
//!   histogram names are `&'static str`, matched by linear scan over a
//!   handful of entries; histograms are fixed 64-bucket arrays.
//! * **Thread-local span stacks.** Each thread tracks its own nesting
//!   depth; records carry `(tid, depth)` so the finished profile can
//!   prove every exit matched an enter ([`Profile::check_well_formed`]).
//! * **A recording is an owned handle.** [`Session::start`] binds the
//!   calling thread (tid 0) to a sink the session owns and
//!   [`Session::finish`] returns the [`Profile`]. A hook on a thread
//!   bound to no session does nothing — one thread-local check — so
//!   there is no process-wide switch, and sessions open on different
//!   threads at once each see only their own work.
//! * **Threads join a session explicitly.** Code about to spawn threads
//!   that call hooks (the MSM window workers, the service's long-lived
//!   threads) takes [`current`] and has each thread hold
//!   [`SessionRef::enter`]'s guard. The guard flushes the thread's
//!   buffer into *that session's* sink when it drops — one mutex lock
//!   per binding, not per event — and it drops inside the thread's
//!   closure, so the flush has landed before `thread::scope` returns or
//!   `JoinHandle::join` does: `finish` has nothing to wait for.

use std::collections::BTreeMap;

use crate::wall::{WallEvent, WallEventKind};

/// One finished span: a named wall-clock interval on one thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name, e.g. `prove/witness_commit`.
    pub name: &'static str,
    /// Start offset from the process clock base (ns).
    pub start_ns: u64,
    /// Duration (ns).
    pub dur_ns: u64,
    /// Session-assigned thread index, in binding order (0 = the thread
    /// that called [`Session::start`]).
    pub tid: u32,
    /// Nesting depth at entry (0 = top-level).
    pub depth: u32,
}

impl SpanRecord {
    /// End offset (ns).
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// A power-of-two-bucketed histogram of `u64` samples. Bucket `0` holds
/// zeros; bucket `b ≥ 1` holds values with `floor(log2 v) == b - 1`
/// (i.e. `v ∈ [2^(b-1), 2^b)`), saturating at bucket 63.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Sample count per log2 bucket.
    pub buckets: [u64; 64],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// The bucket index a value lands in.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (((63 - value.leading_zeros()) as usize) + 1).min(63)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one (bucket-wise addition —
    /// commutative, so merge order never changes the result).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean sample value (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Everything one recording session produced, returned by
/// [`Session::finish`].
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Finished spans, in flush order (per-thread exit order).
    pub spans: Vec<SpanRecord>,
    /// Named monotone counters, merged across threads.
    pub counters: BTreeMap<&'static str, u64>,
    /// Named histograms, merged across threads.
    pub hists: BTreeMap<&'static str, Histogram>,
    /// Wall events from [`wall_event`] hooks (the live service's
    /// request-lifecycle stream), sorted by `(t_ns, tid, seq)` at
    /// finish — a deterministic order that preserves each thread's record
    /// sequence. Feed them to
    /// [`crate::wall::WallTimeline::from_events`].
    pub wall_events: Vec<WallEvent>,
}

impl Profile {
    /// Total duration of every span with this exact name.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Number of spans with this exact name.
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Span names observed at `depth`, deduplicated, in first-exit order.
    pub fn names_at_depth(&self, depth: u32) -> Vec<&'static str> {
        let mut names = Vec::new();
        for s in self.spans.iter().filter(|s| s.depth == depth) {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
    }

    /// Verifies the span forest is well-formed: on every thread, spans
    /// are properly nested (any two intervals are disjoint or one
    /// contains the other) and each span's recorded depth equals its
    /// number of open ancestors. A guard dropped out of order, a
    /// missed exit, or a depth-counter bug all surface here.
    pub fn check_well_formed(&self) -> Result<(), String> {
        let mut tids: Vec<u32> = self.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let mut spans: Vec<&SpanRecord> = self.spans.iter().filter(|s| s.tid == tid).collect();
            // Parent-first at equal starts: the longer interval opens
            // the scope the shorter one nests in.
            spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.dur_ns.cmp(&a.dur_ns)));
            let mut open: Vec<u64> = Vec::new(); // ancestor end times
            for s in spans {
                while open.last().is_some_and(|&end| end <= s.start_ns) {
                    open.pop();
                }
                if let Some(&end) = open.last() {
                    if s.end_ns() > end {
                        return Err(format!(
                            "span `{}` on tid {tid} overlaps its ancestor \
                             (ends {} after the enclosing span's {end})",
                            s.name,
                            s.end_ns(),
                        ));
                    }
                }
                if s.depth as usize != open.len() {
                    return Err(format!(
                        "span `{}` on tid {tid} recorded depth {} but has \
                         {} open ancestors — an exit did not match its enter",
                        s.name,
                        s.depth,
                        open.len()
                    ));
                }
                open.push(s.end_ns());
            }
        }
        Ok(())
    }
}

// ------------------------------------------------------------------------
// The live recorder (only with the `record` feature).
// ------------------------------------------------------------------------

#[cfg(feature = "record")]
mod recorder {
    use super::{Histogram, Profile, SpanRecord, WallEvent, WallEventKind};
    use std::cell::RefCell;
    use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
    use std::time::Instant;

    /// Flush a thread's span buffer into the sink at this many records.
    const FLUSH_AT: usize = 4096;

    /// What one session's threads flush into.
    #[derive(Default)]
    pub struct Sink {
        spans: Vec<SpanRecord>,
        counters: Vec<(&'static str, u64)>,
        hists: Vec<(&'static str, Histogram)>,
        walls: Vec<WallEvent>,
        next_tid: u32,
    }

    pub type SharedSink = Arc<Mutex<Sink>>;

    /// The sink mutex guards plain data with no invariants that a
    /// panicking holder could break mid-update, so a poisoned lock is
    /// recovered rather than propagated — the telemetry layer must
    /// never take the instrumented program down.
    fn lock(sink: &Mutex<Sink>) -> MutexGuard<'_, Sink> {
        sink.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn clock() -> &'static Instant {
        static CLOCK: OnceLock<Instant> = OnceLock::new();
        CLOCK.get_or_init(Instant::now)
    }

    fn now_ns() -> u64 {
        clock().elapsed().as_nanos() as u64
    }

    /// The entry for `name`, appended (as `T::default()`) on first use.
    /// Linear scan: a session names a handful of counters and histograms.
    fn entry<'a, T: Default>(
        list: &'a mut Vec<(&'static str, T)>,
        name: &'static str,
    ) -> &'a mut T {
        let i = match list.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                list.push((name, T::default()));
                list.len() - 1
            }
        };
        &mut list[i].1
    }

    /// One thread's binding to a session: where it flushes, who it is
    /// there, and what it has buffered since the last flush.
    pub struct Local {
        sink: SharedSink,
        tid: u32,
        depth: u32,
        /// Per-thread wall-event sequence number (record order within
        /// this thread, preserved by the finish sort's tie-break).
        seq: u64,
        spans: Vec<SpanRecord>,
        counters: Vec<(&'static str, u64)>,
        hists: Vec<(&'static str, Histogram)>,
        walls: Vec<WallEvent>,
    }

    impl Local {
        fn new(sink: SharedSink) -> Self {
            let tid = {
                let mut sink = lock(&sink);
                sink.next_tid += 1;
                sink.next_tid - 1
            };
            Local {
                sink,
                tid,
                depth: 0,
                seq: 0,
                spans: Vec::new(),
                counters: Vec::new(),
                hists: Vec::new(),
                walls: Vec::new(),
            }
        }

        /// One lock per flush (≥ FLUSH_AT events or the end of the
        /// binding), never per event.
        fn flush(&mut self) {
            let mut sink = lock(&self.sink);
            sink.spans.append(&mut self.spans);
            sink.walls.append(&mut self.walls);
            for (name, v) in self.counters.drain(..) {
                *entry(&mut sink.counters, name) += v;
            }
            for (name, h) in self.hists.drain(..) {
                entry(&mut sink.hists, name).merge(&h);
            }
        }
    }

    thread_local! {
        /// The session this thread records into, if any.
        static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
    }

    /// Runs `f` on this thread's binding; `None` when it has none.
    fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> Option<R> {
        LOCAL.with(|cell| cell.borrow_mut().as_mut().map(f))
    }

    pub fn current() -> Option<SharedSink> {
        with_local(|l| Arc::clone(&l.sink))
    }

    #[inline]
    pub fn is_recording() -> bool {
        with_local(|_| ()).is_some()
    }

    /// Rebinds this thread to `sink` (or to nothing) and returns the
    /// binding it displaced, for [`unbind`] to put back.
    pub fn bind(sink: Option<&SharedSink>) -> Option<Local> {
        let local = sink.map(|s| Local::new(Arc::clone(s)));
        LOCAL.with(|cell| cell.replace(local))
    }

    /// Ends the current binding — flushing what it buffered into its own
    /// session's sink — and restores `prev`.
    pub fn unbind(prev: Option<Local>) {
        if let Some(mut ended) = LOCAL.with(|cell| cell.replace(prev)) {
            ended.flush();
        }
    }

    pub fn span_enter() -> Option<u64> {
        with_local(|l| {
            // Each buffer is reserved on a thread's first event of its
            // kind, not at binding: MSM workers (counters only) and the
            // service's net threads (wall events only) never pay for a
            // span buffer, nor prover threads for a wall-event one.
            if l.spans.capacity() == 0 {
                l.spans.reserve(FLUSH_AT);
            }
            l.depth += 1;
        })
        .map(|()| now_ns())
    }

    pub fn span_exit(name: &'static str, start_ns: u64) {
        let end = now_ns();
        with_local(|l| {
            l.depth = l.depth.saturating_sub(1);
            let depth = l.depth;
            l.spans.push(SpanRecord {
                name,
                start_ns,
                dur_ns: end.saturating_sub(start_ns),
                tid: l.tid,
                depth,
            });
            if l.spans.len() >= FLUSH_AT {
                l.flush();
            }
        });
    }

    pub fn counter_add(name: &'static str, delta: u64) {
        with_local(|l| *entry(&mut l.counters, name) += delta);
    }

    pub fn hist_record(name: &'static str, value: u64) {
        with_local(|l| entry(&mut l.hists, name).record(value));
    }

    pub fn hist_merge(name: &'static str, hist: &Histogram) {
        with_local(|l| entry(&mut l.hists, name).merge(hist));
    }

    pub fn wall_event(kind: WallEventKind, id: u64, tenant: u64, arg: u64, a: f64, b: f64) {
        let t_ns = now_ns();
        with_local(|l| {
            if l.walls.capacity() == 0 {
                l.walls.reserve(FLUSH_AT);
            }
            let seq = l.seq;
            l.seq += 1;
            l.walls.push(WallEvent {
                t_ns,
                seq,
                tid: l.tid,
                kind,
                id,
                tenant,
                arg,
                a,
                b,
            });
            if l.walls.len() >= FLUSH_AT {
                l.flush();
            }
        });
    }

    /// Collects everything flushed into `sink` so far into a [`Profile`].
    pub fn collect(sink: &SharedSink) -> Profile {
        let mut sink = lock(sink);
        let mut profile = Profile {
            spans: std::mem::take(&mut sink.spans),
            counters: sink.counters.drain(..).collect(),
            hists: sink.hists.drain(..).collect(),
            wall_events: std::mem::take(&mut sink.walls),
        };
        // Flush order depends on thread scheduling; name-major sort
        // restores a deterministic order within each (tid, start) line.
        profile
            .spans
            .sort_by(|a, b| (a.tid, a.start_ns, b.dur_ns).cmp(&(b.tid, b.start_ns, a.dur_ns)));
        // Wall events carry a per-thread sequence number, so the sort
        // is total: concurrent same-nanosecond stamps settle by (tid,
        // seq) and a rebuilt timeline is deterministic per run.
        profile.wall_events.sort_by_key(|e| (e.t_ns, e.tid, e.seq));
        profile
    }
}

// ------------------------------------------------------------------------
// Public facade: real in `record` builds, zero-sized types and inlined
// no-ops otherwise.
// ------------------------------------------------------------------------

/// One recording: the handle that owns everything its threads record.
///
/// [`Session::start`] binds the calling thread; threads it (or code it
/// calls) spawns join through [`current`] + [`SessionRef::enter`];
/// [`Session::finish`] returns the [`Profile`]. A session dropped
/// without `finish` unbinds its thread and discards the recording.
/// Sessions on different threads are independent, so any number can be
/// open in one process at once. Not `Send`: the handle must end on the
/// thread it bound.
#[must_use = "dropping a session discards its recording; call finish()"]
pub struct Session {
    #[cfg(feature = "record")]
    sink: recorder::SharedSink,
    bound: Entered,
}

impl Session {
    /// Opens a session and binds the calling thread to it as tid 0,
    /// until [`Session::finish`] (or drop) restores whatever the thread
    /// was bound to before.
    pub fn start() -> Session {
        #[cfg(feature = "record")]
        let sink = recorder::SharedSink::default();
        let here = SessionRef {
            #[cfg(feature = "record")]
            sink: Some(sink.clone()),
        };
        Session {
            bound: here.enter(),
            #[cfg(feature = "record")]
            sink,
        }
    }

    /// Unbinds the calling thread and returns everything the session's
    /// threads have flushed: their [`Entered`] guards must have dropped,
    /// which a returned `thread::scope` or a joined `JoinHandle`
    /// guarantees. Call with no span open on this thread. Returns an
    /// empty profile without the `record` feature.
    pub fn finish(self) -> Profile {
        drop(self.bound);
        #[cfg(feature = "record")]
        {
            recorder::collect(&self.sink)
        }
        #[cfg(not(feature = "record"))]
        {
            Profile::default()
        }
    }
}

/// A cheap, clonable reference to the session a thread was recording
/// into when it called [`current`] — possibly none. Code about to spawn
/// threads that call hooks takes one and has each thread
/// [`enter`](SessionRef::enter) it.
#[derive(Clone)]
pub struct SessionRef {
    #[cfg(feature = "record")]
    sink: Option<recorder::SharedSink>,
}

impl SessionRef {
    /// Binds the calling thread to the referenced session (to nothing,
    /// if the reference is empty) for the guard's lifetime.
    #[inline]
    pub fn enter(&self) -> Entered {
        Entered {
            #[cfg(feature = "record")]
            prev: recorder::bind(self.sink.as_ref()),
            _not_send: std::marker::PhantomData,
        }
    }
}

/// The session the calling thread is bound to (an empty reference when
/// it is bound to none, and always without the `record` feature).
#[inline]
pub fn current() -> SessionRef {
    SessionRef {
        #[cfg(feature = "record")]
        sink: recorder::current(),
    }
}

/// Binding guard from [`SessionRef::enter`]. Dropping it flushes what
/// the thread buffered into *that* session's sink and restores the
/// thread's previous binding, so a guard dropped inside a worker
/// closure has flushed before `thread::scope` returns.
#[must_use = "the thread is bound only while the guard lives"]
pub struct Entered {
    #[cfg(feature = "record")]
    prev: Option<recorder::Local>,
    /// Bindings are thread-local: the guard must drop where it was made.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for Entered {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "record")]
        recorder::unbind(self.prev.take());
    }
}

/// RAII span guard: records a [`SpanRecord`] when dropped. Obtain via
/// [`span`]; hold it for the duration of the phase it names.
#[must_use = "a span records its duration when dropped"]
pub struct Span {
    /// Name and start; `None` when the thread was bound to no session.
    #[cfg(feature = "record")]
    open: Option<(&'static str, u64)>,
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "record")]
        if let Some((name, start_ns)) = self.open {
            recorder::span_exit(name, start_ns);
        }
    }
}

/// Opens a named span on the current thread. When it is bound to no
/// session (or the feature is off), this is free and the guard does
/// nothing.
#[inline]
pub fn span(name: &'static str) -> Span {
    #[cfg(feature = "record")]
    {
        Span {
            open: recorder::span_enter().map(|start_ns| (name, start_ns)),
        }
    }
    #[cfg(not(feature = "record"))]
    {
        let _ = name;
        Span {}
    }
}

/// Adds `delta` to the named counter (no-op outside a session).
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    #[cfg(feature = "record")]
    recorder::counter_add(name, delta);
    #[cfg(not(feature = "record"))]
    {
        let _ = (name, delta);
    }
}

/// Records `value` into the named histogram (no-op outside a session).
#[inline]
pub fn hist_record(name: &'static str, value: u64) {
    #[cfg(feature = "record")]
    recorder::hist_record(name, value);
    #[cfg(not(feature = "record"))]
    {
        let _ = (name, value);
    }
}

/// Merges a locally accumulated [`Histogram`] into the named histogram
/// in one recorder access (no-op outside a session, or when `hist` is
/// empty). Hot loops with many samples per iteration should build a
/// stack-local `Histogram` and merge it once, instead of paying the
/// thread-local lookup of [`hist_record`] per sample; merging is
/// bucket-wise addition, so the finished result is identical.
#[inline]
pub fn hist_merge(name: &'static str, hist: &Histogram) {
    #[cfg(feature = "record")]
    if hist.count > 0 {
        recorder::hist_merge(name, hist);
    }
    #[cfg(not(feature = "record"))]
    {
        let _ = (name, hist);
    }
}

/// Records a wall-clock lifecycle event (no-op outside a session).
/// Stamped from the shared monotonic clock base into the calling
/// thread's lock-free buffer; the finished [`Profile`] carries the
/// events sorted by `(t_ns, tid, seq)` so a rebuilt
/// [`WallTimeline`](crate::WallTimeline) is deterministic per run.
#[inline]
pub fn wall_event(kind: WallEventKind, id: u64, tenant: u64, arg: u64, a: f64, b: f64) {
    #[cfg(feature = "record")]
    recorder::wall_event(kind, id, tenant, arg, a, b);
    #[cfg(not(feature = "record"))]
    {
        let _ = (kind, id, tenant, arg, a, b);
    }
}

/// Whether hooks on the calling thread record, i.e. whether it is bound
/// to a session. Always `false` without the `record` feature — callers
/// can hoist loops behind this check and have the whole block vanish in
/// disabled builds.
#[inline]
pub fn is_recording() -> bool {
    #[cfg(feature = "record")]
    {
        recorder::is_recording()
    }
    #[cfg(not(feature = "record"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
        let mut h = Histogram::default();
        h.record(0);
        h.record(5);
        h.record(5);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 10);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 5);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[3], 2);
        let mut m = Histogram::default();
        m.merge(&h);
        assert_eq!(m, h);
    }

    #[cfg(not(feature = "record"))]
    #[test]
    fn disabled_build_records_nothing() {
        assert_eq!(std::mem::size_of::<Session>(), 0);
        assert_eq!(std::mem::size_of::<SessionRef>(), 0);
        assert_eq!(std::mem::size_of::<Entered>(), 0);
        let session = Session::start();
        assert!(!is_recording(), "record feature off ⇒ never recording");
        let _s = span("noop");
        counter_add("noop", 1);
        hist_record("noop", 1);
        wall_event(WallEventKind::Admitted, 0, 0, 0, 0.0, 0.0);
        drop(_s);
        let p = session.finish();
        assert!(p.spans.is_empty());
        assert!(p.counters.is_empty());
        assert!(p.hists.is_empty());
        assert!(p.wall_events.is_empty());
    }

    #[cfg(feature = "record")]
    #[test]
    fn spans_nest_and_drain() {
        let session = Session::start();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner = span("inner");
            }
            counter_add("c", 2);
            counter_add("c", 3);
            hist_record("h", 7);
        }
        let p = session.finish();
        assert_eq!(p.span_count("outer"), 1);
        assert_eq!(p.span_count("inner"), 2);
        assert_eq!(p.counter("c"), 5);
        assert_eq!(p.hists["h"].count, 1);
        let outer = p.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner_total = p.total_ns("inner");
        assert!(outer.depth == 0);
        assert!(p
            .spans
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.depth == 1));
        assert!(inner_total <= outer.dur_ns, "children exceed parent");
        p.check_well_formed().expect("well-formed");
    }

    #[cfg(feature = "record")]
    #[test]
    fn worker_threads_flush_on_exit() {
        let session = Session::start();
        let here = current();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let _rec = here.enter();
                    let _s = span("worker");
                    counter_add("work", 1);
                    hist_record("vals", 16);
                });
            }
        });
        let p = session.finish();
        assert_eq!(p.span_count("worker"), 3);
        assert_eq!(p.counter("work"), 3);
        assert_eq!(p.hists["vals"].count, 3);
        p.check_well_formed().expect("well-formed");
    }

    #[cfg(feature = "record")]
    #[test]
    fn wall_events_drain_sorted_and_keep_per_thread_order() {
        let session = Session::start();
        let here = current();
        std::thread::scope(|scope| {
            for t in 0..3u64 {
                let here = &here;
                scope.spawn(move || {
                    let _rec = here.enter();
                    for i in 0..5u64 {
                        wall_event(WallEventKind::Dispatched, t * 10 + i, t, 0, 0.0, 0.0);
                    }
                });
            }
        });
        let p = session.finish();
        assert_eq!(p.wall_events.len(), 15);
        assert!(p
            .wall_events
            .windows(2)
            .all(|w| (w[0].t_ns, w[0].tid, w[0].seq) <= (w[1].t_ns, w[1].tid, w[1].seq)));
        // Per-thread record order survives the global sort: monotonic
        // stamps within one thread are nondecreasing and seq breaks
        // same-nanosecond ties.
        let tids: std::collections::BTreeSet<u32> = p.wall_events.iter().map(|e| e.tid).collect();
        for tid in tids {
            let ids: Vec<u64> = p
                .wall_events
                .iter()
                .filter(|e| e.tid == tid)
                .map(|e| e.id)
                .collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "per-thread order preserved for tid {tid}");
        }
    }

    /// A thread bound to no session records nothing, so a session it
    /// opens afterwards starts empty.
    #[cfg(feature = "record")]
    #[test]
    fn disabled_runtime_records_nothing() {
        assert!(!is_recording());
        let _s = span("ghost");
        counter_add("ghost", 1);
        drop(_s);
        let session = Session::start();
        assert!(is_recording());
        let p = session.finish();
        assert!(!is_recording());
        assert_eq!(p.span_count("ghost"), 0);
        assert_eq!(p.counter("ghost"), 0);
    }

    /// Guards nest: an inner binding records into its own session and
    /// dropping it restores the outer one, depth included.
    #[cfg(feature = "record")]
    #[test]
    fn nested_bindings_restore_the_outer_session() {
        let outer = Session::start();
        let outer_span = span("outer");
        let inner = Session::start();
        counter_add("inner", 1);
        let inner = inner.finish();
        counter_add("outer", 1);
        drop(outer_span);
        let outer = outer.finish();
        assert_eq!((inner.counter("inner"), inner.counter("outer")), (1, 0));
        assert_eq!((outer.counter("inner"), outer.counter("outer")), (0, 1));
        assert_eq!(outer.span_count("outer"), 1);
        outer.check_well_formed().expect("well-formed");
    }

    #[test]
    fn well_formed_rejects_overlap() {
        let p = Profile {
            spans: vec![
                SpanRecord {
                    name: "a",
                    start_ns: 0,
                    dur_ns: 10,
                    tid: 0,
                    depth: 0,
                },
                SpanRecord {
                    name: "b",
                    start_ns: 5,
                    dur_ns: 10,
                    tid: 0,
                    depth: 1,
                },
            ],
            ..Profile::default()
        };
        assert!(p.check_well_formed().is_err());
    }
}
