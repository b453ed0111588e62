//! TCP front-end for the proving service: the untrusted network edge.
//!
//! [`NetServer`] fronts one [`ProvingService`] with the length-prefixed
//! protocol in [`crate::codec`], on `std` threads (no async runtime in
//! this container):
//!
//! ```text
//! accept loop ──► handler pool ──► ProvingService ──► router thread
//! (nonblocking    (max_conns        (submit under      (outcome stream
//!  listener,       threads, one     the admission       → per-connection
//!  hard cap →      connection       mutex; queue        channels; drops
//!  Busy frame)     each; framed     depth → retry       for dead peers
//!                  read/write,      hints)              counted, never
//!                  deadlines)                           panicking)
//! ```
//!
//! Robustness contract, enforced end to end:
//!
//! - **Nothing a peer sends can panic the server.** Garbage bytes,
//!   oversized length declarations, truncated frames, unknown types —
//!   every one decodes to a typed [`crate::codec::FrameError`], is answered with a
//!   structured [`Frame::Error`], and closes that connection only.
//!   (`no_panic_gate` scans this module like the rest of the crate.)
//! - **Slow peers cannot hold resources.** A connection mid-frame past
//!   [`ServeOpts::read_timeout_ms`] is closed as `stalled` (slow-loris
//!   defense); one silent between frames past
//!   [`ServeOpts::idle_timeout_ms`] is reaped as `idle_timeout`; the
//!   handler pool is hard-capped at [`ServeOpts::max_conns`], and the
//!   connection past the cap gets [`Frame::Busy`] with a live
//!   retry-after hint, not a queue slot.
//! - **Backpressure is visible on the wire.** Tenant-cap and
//!   queue-full rejections, brown-out sheds, and drain-time refusals
//!   come back as distinct [`Frame::Rejected`] reasons carrying
//!   [`ProvingService::retry_after_hint_ms`].
//! - **Accounting survives the network.** Terminal outcomes ride the
//!   service's [`crate::ServeConfig::with_outcome_stream`] channel to a
//!   router that forwards each to the connection that submitted it; a
//!   peer that disconnected mid-proof costs a counted
//!   [`NetStats::outcomes_dropped`], never a lost record — the
//!   post-drain [`ServeReport`] still satisfies conservation and
//!   [`crate::reconcile_wall`] exactly.
//!
//! See `docs/SERVE.md` for the frame grammar and the failure-mode
//! matrix; `crates/bench`'s `repro net` drives every row of it over
//! loopback.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zkphire_fleet::{OutcomeRecord, RequestClass};
use zkphire_telemetry::{self as tele, wall_event, WallEventKind};

use crate::codec::{
    decode_frame, encode_frame, outcome_frame, ErrorCode, Frame, RejectReason, MAX_FRAME, VERSION,
};
use crate::error::ServeError;
use crate::service::{ProvingService, ServeConfig, ServeReport};

/// Accept-loop poll period while the nonblocking listener has nothing
/// to accept.
const ACCEPT_POLL: Duration = Duration::from_millis(2);
/// Read-slice granularity: the blocking-read timeout each handler loop
/// iteration waits before re-checking its outcome channel, stall
/// deadline, and the drain flag.
const READ_SLICE: Duration = Duration::from_millis(5);
/// Per-connection write deadline. Loopback writes of ≤ [`MAX_FRAME`]
/// bytes never block this long unless the peer stopped reading, at
/// which point the connection is torn down as an I/O error.
const WRITE_TIMEOUT: Duration = Duration::from_millis(2000);

/// Why a connection ended — the discriminant recorded in the
/// [`WallEventKind::ConnClose`] event's `arg` and tallied in
/// [`NetStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    /// Flushed and closed with a final [`Frame::Bye`].
    Drained,
    /// Peer closed cleanly with nothing buffered and nothing pending.
    ClientClosed,
    /// Peer half-closed with a partial frame buffered.
    Truncated,
    /// Peer vanished with proofs still in flight.
    Disconnected,
    /// Peer sent bytes that failed to parse, or a server-only frame.
    Protocol,
    /// Peer went silent mid-frame past the read deadline.
    Stalled,
    /// Peer sat idle between frames past the idle deadline.
    Idle,
    /// The service failed internally handling a valid frame.
    Internal,
    /// A transport read/write failed outright.
    Io,
}

impl CloseReason {
    fn discriminant(self) -> u64 {
        match self {
            CloseReason::Drained => 0,
            CloseReason::ClientClosed => 1,
            CloseReason::Truncated => 2,
            CloseReason::Disconnected => 3,
            CloseReason::Protocol => 4,
            CloseReason::Stalled => 5,
            CloseReason::Idle => 6,
            CloseReason::Internal => 7,
            CloseReason::Io => 8,
        }
    }
}

/// Counters the front-end accumulates while serving, snapshotted into
/// the [`NetReport`] at shutdown. All motion is monotonic and relaxed:
/// these are tallies, not synchronization.
#[derive(Debug, Default)]
struct StatsInner {
    conns_accepted: AtomicU64,
    conns_refused: AtomicU64,
    clean_closes: AtomicU64,
    protocol_errors: AtomicU64,
    stalled_closes: AtomicU64,
    idle_closes: AtomicU64,
    truncated_closes: AtomicU64,
    disconnects: AtomicU64,
    submits: AtomicU64,
    accepted_submits: AtomicU64,
    rejected_submits: AtomicU64,
    outcomes_streamed: AtomicU64,
    outcomes_dropped: AtomicU64,
}

/// Snapshot of the front-end's wire-level accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Connections handed to the handler pool.
    pub conns_accepted: u64,
    /// Connections refused at the hard cap with a [`Frame::Busy`].
    pub conns_refused: u64,
    /// Connections that ended with a clean drain (`Bye`) or a clean
    /// peer close.
    pub clean_closes: u64,
    /// Connections closed for unparsable bytes or protocol misuse.
    pub protocol_errors: u64,
    /// Connections closed mid-frame by the read deadline.
    pub stalled_closes: u64,
    /// Connections reaped between frames by the idle deadline.
    pub idle_closes: u64,
    /// Connections whose peer half-closed with a partial frame.
    pub truncated_closes: u64,
    /// Connections whose peer vanished with proofs in flight.
    pub disconnects: u64,
    /// Submit frames received.
    pub submits: u64,
    /// Submits admitted by the service.
    pub accepted_submits: u64,
    /// Submits refused with a [`Frame::Rejected`].
    pub rejected_submits: u64,
    /// Outcome frames delivered to peers.
    pub outcomes_streamed: u64,
    /// Outcomes whose peer was gone at delivery time — counted here,
    /// still present in the drain report's accounting.
    pub outcomes_dropped: u64,
}

impl StatsInner {
    fn snapshot(&self) -> NetStats {
        NetStats {
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_refused: self.conns_refused.load(Ordering::Relaxed),
            clean_closes: self.clean_closes.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            stalled_closes: self.stalled_closes.load(Ordering::Relaxed),
            idle_closes: self.idle_closes.load(Ordering::Relaxed),
            truncated_closes: self.truncated_closes.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            submits: self.submits.load(Ordering::Relaxed),
            accepted_submits: self.accepted_submits.load(Ordering::Relaxed),
            rejected_submits: self.rejected_submits.load(Ordering::Relaxed),
            outcomes_streamed: self.outcomes_streamed.load(Ordering::Relaxed),
            outcomes_dropped: self.outcomes_dropped.load(Ordering::Relaxed),
        }
    }
}

/// Everything one served run produced: the drained service's report
/// plus the wire-level accounting around it.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// The fronted service's own drain report — same conservation and
    /// [`crate::reconcile_wall`] contract as an in-process run.
    pub serve: ServeReport,
    /// Wire-level counters.
    pub stats: NetStats,
}

/// Outcome routing table: request id → the submitting connection's
/// outcome channel. The router owns removal; handlers only insert.
type Registry = Arc<Mutex<BTreeMap<u64, Sender<OutcomeRecord>>>>;

/// Recovers a poisoned mutex instead of propagating the panic that
/// poisoned it: the guarded state (registry map, idle list) stays
/// structurally valid across a panicking peer thread, and the no-panic
/// contract matters more than poison propagation here.
fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Clamps a millisecond hint into the `u32` the wire carries, floored
/// at 1 so "retry immediately" is still a positive wait.
fn hint_u32(ms: f64) -> u32 {
    if !ms.is_finite() || ms < 1.0 {
        1
    } else if ms >= u32::MAX as f64 {
        u32::MAX
    } else {
        ms.ceil() as u32
    }
}

fn net_err(op: &'static str, e: &std::io::Error) -> ServeError {
    ServeError::Net {
        op,
        detail: e.to_string(),
    }
}

/// The TCP front-end: owns the listener, the bounded handler pool, the
/// outcome router, and the [`ProvingService`] they front.
pub struct NetServer {
    service: Option<Arc<ProvingService>>,
    local_addr: SocketAddr,
    draining: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
    router: Option<JoinHandle<()>>,
    stats: Arc<StatsInner>,
}

impl NetServer {
    /// Starts the fronted service and binds the listener at
    /// `cfg.opts.addr` (port 0 = OS-assigned; see
    /// [`Self::local_addr`]). If `cfg` already carries an outcome
    /// stream, the router tees every record to it after routing.
    ///
    /// # Errors
    ///
    /// [`ServeError::Net`] if the bind fails, plus everything
    /// [`ProvingService::start`] can return.
    pub fn start(mut cfg: ServeConfig) -> Result<Self, ServeError> {
        let tee = cfg.outcome_tx.take();
        let (router_tx, router_rx) = mpsc::channel::<OutcomeRecord>();
        cfg.outcome_tx = Some(router_tx);
        let opts = cfg.opts;

        let listener = TcpListener::bind(opts.addr).map_err(|e| net_err("bind", &e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| net_err("local_addr", &e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| net_err("set_nonblocking", &e))?;

        let service = Arc::new(ProvingService::start(cfg)?);
        // Every thread spawned below records into the same telemetry
        // session as the fronted service's own: the one this call runs in.
        let session = tele::current();
        let registry: Registry = Arc::new(Mutex::new(BTreeMap::new()));
        let stats = Arc::new(StatsInner::default());
        let draining = Arc::new(AtomicBool::new(false));

        // The router: one thread draining the service's outcome stream
        // into per-connection channels. It exits when the service's
        // sender side drops at drain. A record whose id was never
        // registered belongs to an in-process rejection or a non-net
        // submitter — not ours to deliver, silently skipped. A record
        // whose connection hung up is a counted drop, and the router
        // (not the handler) removes dead entries so the table cannot
        // leak.
        let router = {
            let registry = Arc::clone(&registry);
            let stats = Arc::clone(&stats);
            let session = session.clone();
            std::thread::Builder::new()
                .name("zkphire-net-router".into())
                .spawn(move || {
                    let _recording = session.enter();
                    for rec in router_rx {
                        let tx = lock_or_recover(&registry).get(&rec.id).cloned();
                        if let Some(tx) = tx {
                            if tx.send(rec).is_err() {
                                stats.outcomes_dropped.fetch_add(1, Ordering::Relaxed);
                            }
                            lock_or_recover(&registry).remove(&rec.id);
                        }
                        if let Some(tee) = &tee {
                            let _ = tee.send(rec);
                        }
                    }
                })
                .map_err(|e| ServeError::Invariant(format!("spawn net router: {e}")))?
        };

        // The handler pool: `max_conns` threads, each with a private
        // depth-1 handoff channel, registered on an idle stack. The
        // acceptor pops an idle handler per connection; an empty stack
        // IS the hard cap.
        let idle: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new((0..opts.max_conns).collect()));
        let mut handler_txs: Vec<SyncSender<(TcpStream, u64)>> = Vec::new();
        let mut handlers = Vec::new();
        for h in 0..opts.max_conns {
            let (tx, rx) = mpsc::sync_channel::<(TcpStream, u64)>(1);
            handler_txs.push(tx);
            let service = Arc::clone(&service);
            let registry = Arc::clone(&registry);
            let stats = Arc::clone(&stats);
            let draining = Arc::clone(&draining);
            let idle = Arc::clone(&idle);
            let session = session.clone();
            let handle = std::thread::Builder::new()
                .name(format!("zkphire-net-handler-{h}"))
                .spawn(move || {
                    let _recording = session.enter();
                    handler_pool_loop(h, &rx, &service, &registry, &stats, &draining, &idle, opts)
                })
                .map_err(|e| ServeError::Invariant(format!("spawn net handler {h}: {e}")))?;
            handlers.push(handle);
        }

        let acceptor = {
            let service = Arc::clone(&service);
            let stats = Arc::clone(&stats);
            let draining = Arc::clone(&draining);
            let idle = Arc::clone(&idle);
            std::thread::Builder::new()
                .name("zkphire-net-acceptor".into())
                .spawn(move || {
                    let _recording = session.enter();
                    accept_loop(&listener, handler_txs, &service, &stats, &draining, &idle)
                })
                .map_err(|e| ServeError::Invariant(format!("spawn net acceptor: {e}")))?
        };

        Ok(Self {
            service: Some(service),
            local_addr,
            draining,
            acceptor: Some(acceptor),
            handlers,
            router: Some(router),
            stats,
        })
    }

    /// The address the listener actually bound — connect clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The fronted service, for in-process probes (queue depth, clock)
    /// alongside wire traffic.
    ///
    /// # Errors
    ///
    /// [`ServeError::AlreadyShutDown`] after [`Self::shutdown`].
    pub fn service(&self) -> Result<&ProvingService, ServeError> {
        self.service.as_deref().ok_or(ServeError::AlreadyShutDown)
    }

    /// Live snapshot of the wire counters.
    pub fn stats(&self) -> NetStats {
        self.stats.snapshot()
    }

    /// Graceful drain: stop accepting, flush every in-flight
    /// connection (pending outcomes stream out, then `Bye`), join the
    /// pool, then drain the fronted service itself to a
    /// [`ServeReport`] whose conservation and
    /// [`crate::reconcile_wall`] contracts still hold.
    ///
    /// # Errors
    ///
    /// [`ServeError::AlreadyShutDown`] on a second call; otherwise
    /// whatever [`ProvingService::shutdown`] reports.
    pub fn shutdown(&mut self) -> Result<NetReport, ServeError> {
        let service = self.service.take().ok_or(ServeError::AlreadyShutDown)?;
        self.draining.store(true, Ordering::SeqCst);
        if let Some(a) = self.acceptor.take() {
            a.join()
                .map_err(|_| ServeError::Invariant("net acceptor thread panicked".into()))?;
        }
        // The acceptor dropped the pool's handoff senders on exit, so
        // every parked handler unblocks; ones mid-connection see the
        // drain flag, flush, and say Bye.
        for (h, handle) in self.handlers.drain(..).enumerate() {
            handle
                .join()
                .map_err(|_| ServeError::Invariant(format!("net handler {h} thread panicked")))?;
        }
        let service = Arc::try_unwrap(service).map_err(|_| {
            ServeError::Invariant("net service still shared after pool join".into())
        })?;
        let serve = service.shutdown()?;
        // The service's drain dropped the router's sender; the router
        // finishes forwarding whatever was in flight and exits.
        if let Some(r) = self.router.take() {
            r.join()
                .map_err(|_| ServeError::Invariant("net router thread panicked".into()))?;
        }
        Ok(NetReport {
            serve,
            stats: self.stats.snapshot(),
        })
    }
}

impl Drop for NetServer {
    /// Best-effort: raises the drain flag so the acceptor and pool
    /// wind down even if [`Self::shutdown`] was never called. No joins
    /// here — drop must not block.
    fn drop(&mut self) {
        self.draining.store(true, Ordering::SeqCst);
    }
}

/// The accept loop: nonblocking accept + short poll so the drain flag
/// is honored within [`ACCEPT_POLL`]. A connection with no idle
/// handler gets a [`Frame::Busy`] carrying the live retry-after hint
/// and an immediate close — the cap spends no memory on excess peers.
fn accept_loop(
    listener: &TcpListener,
    handler_txs: Vec<SyncSender<(TcpStream, u64)>>,
    service: &ProvingService,
    stats: &StatsInner,
    draining: &AtomicBool,
    idle: &Mutex<Vec<usize>>,
) {
    let mut next_conn_id: u64 = 0;
    while !draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_id = next_conn_id;
                next_conn_id += 1;
                let slot = lock_or_recover(idle).pop();
                match slot {
                    Some(h) => {
                        stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
                        wall_event(
                            WallEventKind::ConnOpen,
                            conn_id,
                            0,
                            0,
                            service.now_ms(),
                            0.0,
                        );
                        // Depth-1 channel to an idle handler: the send
                        // cannot block. A send error means the handler
                        // died; put the connection down and retire the
                        // slot rather than panic.
                        if handler_txs
                            .get(h)
                            .is_none_or(|tx| tx.send((stream, conn_id)).is_err())
                        {
                            stats.conns_refused.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    None => {
                        stats.conns_refused.fetch_add(1, Ordering::Relaxed);
                        let hint = hint_u32(service.retry_after_hint_ms());
                        wall_event(
                            WallEventKind::ConnBusy,
                            conn_id,
                            0,
                            0,
                            service.now_ms(),
                            f64::from(hint),
                        );
                        let mut stream = stream;
                        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                        let _ = stream.write_all(&encode_frame(&Frame::Busy {
                            retry_after_ms: hint,
                        }));
                        // stream drops: FIN closes the connection.
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            // Transient accept errors (peer reset during handshake):
            // keep serving. The listener socket itself cannot error
            // permanently in a way worth crashing the loop over.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // handler_txs drop here, unparking every idle handler for exit.
}

/// One pool slot: park on the private handoff channel, serve the
/// connection start to finish, re-register as idle, repeat. Exits when
/// the acceptor drops the channel at drain.
#[allow(clippy::too_many_arguments)]
fn handler_pool_loop(
    slot: usize,
    rx: &Receiver<(TcpStream, u64)>,
    service: &ProvingService,
    registry: &Registry,
    stats: &StatsInner,
    draining: &AtomicBool,
    idle: &Mutex<Vec<usize>>,
    opts: crate::ServeOpts,
) {
    while let Ok((stream, conn_id)) = rx.recv() {
        let reason = serve_conn(stream, service, registry, stats, draining, &opts);
        match reason {
            CloseReason::Drained | CloseReason::ClientClosed => {
                stats.clean_closes.fetch_add(1, Ordering::Relaxed)
            }
            CloseReason::Truncated => stats.truncated_closes.fetch_add(1, Ordering::Relaxed),
            CloseReason::Disconnected => stats.disconnects.fetch_add(1, Ordering::Relaxed),
            CloseReason::Protocol => stats.protocol_errors.fetch_add(1, Ordering::Relaxed),
            CloseReason::Stalled => stats.stalled_closes.fetch_add(1, Ordering::Relaxed),
            CloseReason::Idle => stats.idle_closes.fetch_add(1, Ordering::Relaxed),
            CloseReason::Internal | CloseReason::Io => 0,
        };
        wall_event(
            WallEventKind::ConnClose,
            conn_id,
            0,
            reason.discriminant(),
            service.now_ms(),
            0.0,
        );
        lock_or_recover(idle).push(slot);
    }
}

/// Serves one connection to completion. Returns how it closed; every
/// abnormal path writes a final [`Frame::Error`] naming the cause
/// (best-effort — the peer may already be gone) before the socket
/// drops.
fn serve_conn(
    mut stream: TcpStream,
    service: &ProvingService,
    registry: &Registry,
    stats: &StatsInner,
    draining: &AtomicBool,
    opts: &crate::ServeOpts,
) -> CloseReason {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    if stream.set_read_timeout(Some(READ_SLICE)).is_err() {
        return CloseReason::Io;
    }
    if stream
        .write_all(&encode_frame(&Frame::Welcome {
            version: VERSION,
            max_frame: MAX_FRAME as u32,
        }))
        .is_err()
    {
        return CloseReason::Io;
    }

    let (outcome_tx, outcome_rx) = mpsc::channel::<OutcomeRecord>();
    let mut pending: BTreeSet<u64> = BTreeSet::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 1024];
    let mut goodbye = false;
    let mut last_activity = Instant::now();
    let mut frame_deadline: Option<Instant> = None;
    let read_timeout = Duration::from_millis(opts.read_timeout_ms);
    let idle_timeout = Duration::from_millis(opts.idle_timeout_ms);

    let bail = |stream: &mut TcpStream, code: ErrorCode, detail: String, reason: CloseReason| {
        let _ = stream.write_all(&encode_frame(&Frame::Error { code, detail }));
        reason
    };

    loop {
        // Flush any outcomes the router delivered for our requests.
        while let Ok(rec) = outcome_rx.try_recv() {
            pending.remove(&rec.id);
            stats.outcomes_streamed.fetch_add(1, Ordering::Relaxed);
            if stream
                .write_all(&encode_frame(&outcome_frame(&rec)))
                .is_err()
            {
                return CloseReason::Io;
            }
        }
        // A drained connection: the client said Goodbye (or the server
        // is draining), and nothing is pending. Say Bye and close.
        if (goodbye || draining.load(Ordering::SeqCst)) && pending.is_empty() {
            let _ = stream.write_all(&encode_frame(&Frame::Bye));
            return CloseReason::Drained;
        }
        match stream.read(&mut tmp) {
            Ok(0) => {
                return if !buf.is_empty() {
                    bail(
                        &mut stream,
                        ErrorCode::Truncated,
                        format!("peer closed with {} buffered bytes mid-frame", buf.len()),
                        CloseReason::Truncated,
                    )
                } else if !pending.is_empty() {
                    // Mid-proof disconnect: the proofs finish and their
                    // outcomes are counted as drops at the router.
                    CloseReason::Disconnected
                } else {
                    CloseReason::ClientClosed
                };
            }
            Ok(n) => {
                last_activity = Instant::now();
                buf.extend_from_slice(&tmp[..n]);
                loop {
                    match decode_frame(&buf) {
                        Ok(Some((frame, used))) => {
                            buf.drain(..used);
                            frame_deadline = None;
                            match on_frame(
                                frame,
                                &mut stream,
                                service,
                                registry,
                                stats,
                                &outcome_tx,
                                &mut pending,
                                &mut goodbye,
                            ) {
                                FrameStep::Continue => {}
                                FrameStep::Close(reason) => return reason,
                            }
                        }
                        Ok(None) => {
                            if !buf.is_empty() && frame_deadline.is_none() {
                                frame_deadline = Some(Instant::now() + read_timeout);
                            }
                            break;
                        }
                        Err(e) => {
                            return bail(
                                &mut stream,
                                ErrorCode::Protocol,
                                e.to_string(),
                                CloseReason::Protocol,
                            );
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if let Some(deadline) = frame_deadline {
                    if Instant::now() >= deadline {
                        return bail(
                            &mut stream,
                            ErrorCode::Stalled,
                            format!(
                                "peer stalled mid-frame past the {} ms read deadline",
                                opts.read_timeout_ms
                            ),
                            CloseReason::Stalled,
                        );
                    }
                } else if buf.is_empty()
                    && pending.is_empty()
                    && last_activity.elapsed() >= idle_timeout
                {
                    return bail(
                        &mut stream,
                        ErrorCode::IdleTimeout,
                        format!("idle past the {} ms reaper deadline", opts.idle_timeout_ms),
                        CloseReason::Idle,
                    );
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return CloseReason::Io,
        }
    }
}

/// What handling one client frame decided about the connection.
enum FrameStep {
    Continue,
    Close(CloseReason),
}

/// Handles one decoded client frame. `Submit` maps straight onto
/// [`ProvingService::submit`], with every typed refusal becoming a
/// distinct [`Frame::Rejected`] reason carrying a live retry hint;
/// `Goodbye` flips the drain flag for this connection; a peer sending
/// server-only frames is a protocol error.
#[allow(clippy::too_many_arguments)]
fn on_frame(
    frame: Frame,
    stream: &mut TcpStream,
    service: &ProvingService,
    registry: &Registry,
    stats: &StatsInner,
    outcome_tx: &Sender<OutcomeRecord>,
    pending: &mut BTreeSet<u64>,
    goodbye: &mut bool,
) -> FrameStep {
    match frame {
        Frame::Submit {
            seq,
            gate,
            mu,
            tenant,
        } => {
            stats.submits.fetch_add(1, Ordering::Relaxed);
            let class = RequestClass::new(gate, mu as usize);
            match service.submit(class, tenant) {
                Ok(id) => {
                    // Register before acking so the router can never
                    // see the outcome earlier than the registration.
                    // (It cannot anyway — the proof has to run — but
                    // the invariant should not rest on timing.)
                    lock_or_recover(registry).insert(id, outcome_tx.clone());
                    pending.insert(id);
                    stats.accepted_submits.fetch_add(1, Ordering::Relaxed);
                    let depth = service.queue_depth().min(u32::MAX as usize) as u32;
                    if stream
                        .write_all(&encode_frame(&Frame::Accepted {
                            seq,
                            id,
                            queue_depth: depth,
                        }))
                        .is_err()
                    {
                        return FrameStep::Close(CloseReason::Io);
                    }
                    FrameStep::Continue
                }
                Err(e) => {
                    let reason = match &e {
                        ServeError::TenantCapExceeded { cap, .. } => {
                            Some(RejectReason::TenantCap {
                                cap: (*cap).min(u32::MAX as usize) as u32,
                            })
                        }
                        ServeError::QueueFull { capacity } => Some(RejectReason::QueueFull {
                            capacity: (*capacity).min(u32::MAX as usize) as u32,
                        }),
                        ServeError::ShuttingDown => Some(RejectReason::ShuttingDown),
                        ServeError::UnknownClass(_) => Some(RejectReason::UnknownClass),
                        _ => None,
                    };
                    match reason {
                        Some(reason) => {
                            stats.rejected_submits.fetch_add(1, Ordering::Relaxed);
                            let hint = hint_u32(service.retry_after_hint_ms());
                            if stream
                                .write_all(&encode_frame(&Frame::Rejected {
                                    seq,
                                    reason,
                                    retry_after_ms: hint,
                                }))
                                .is_err()
                            {
                                return FrameStep::Close(CloseReason::Io);
                            }
                            FrameStep::Continue
                        }
                        None => {
                            let _ = stream.write_all(&encode_frame(&Frame::Error {
                                code: ErrorCode::Internal,
                                detail: e.to_string(),
                            }));
                            FrameStep::Close(CloseReason::Internal)
                        }
                    }
                }
            }
        }
        Frame::Goodbye => {
            *goodbye = true;
            FrameStep::Continue
        }
        // Everything else is server→client only; a peer sending one is
        // misusing the protocol.
        other => {
            let _ = stream.write_all(&encode_frame(&Frame::Error {
                code: ErrorCode::Protocol,
                detail: format!(
                    "unexpected client frame of server-only kind ({:?} discriminant)",
                    std::mem::discriminant(&other)
                ),
            }));
            FrameStep::Close(CloseReason::Protocol)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hint_clamps_to_wire_range() {
        assert_eq!(hint_u32(f64::NAN), 1);
        assert_eq!(hint_u32(-5.0), 1);
        assert_eq!(hint_u32(0.2), 1);
        assert_eq!(hint_u32(1.2), 2);
        assert_eq!(hint_u32(1e12), u32::MAX);
    }

    #[test]
    fn close_reason_discriminants_are_stable() {
        // These land in golden-pinned telemetry exports; renumbering
        // them is a format break.
        assert_eq!(CloseReason::Drained.discriminant(), 0);
        assert_eq!(CloseReason::Io.discriminant(), 8);
    }
}
