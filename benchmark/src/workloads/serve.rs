//! `serve_tcp` / `serve_inproc`: one client keeping a window of eight
//! requests outstanding against the live proving service (one worker of
//! one prover thread) — a closed loop, so the service is saturated and
//! goodput is its capacity. One worker, because two busy threads in the
//! acceptance host's guest slow each other by up to 1.8x whenever its two
//! vCPUs land on one physical core; the ledger's mini runs use
//! `min(nproc, 4)` workers. The two
//! workloads replay the same seeded mix through the same window; the first
//! goes through `NetServer` and the framed TCP protocol, the second calls
//! `ProvingService::submit` and reads the outcome stream, so the difference
//! between them is the wire's cost.
//!
//! The TCP client is written here against the public codec
//! (`encode_frame`/`decode_frame`) rather than `loadgen::NetClient`: that
//! client buffers outcome frames it meets while awaiting an admission
//! verdict and only hands them back at `finish`, so a caller holding a
//! window cannot stamp them. Here every frame is stamped when it is read.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zkphire_core::protocol::Gate;
use zkphire_fleet::{Outcome, OutcomeRecord, PolicyKind, RequestClass, RequestRecord, TenantId};
use zkphire_serve::codec::{decode_frame, encode_frame, Frame};
use zkphire_serve::{NetClient, NetServer, ProvingService, ServeConfig, ServeOpts, ServeReport};

use super::{mean_or_nan, Config, Samples, Workload};
use crate::stats::median;
use crate::trace::{Layer, Recorder};

/// Requests the client keeps outstanding.
pub const WINDOW: usize = 8;
/// Longest the client waits for any one frame or outcome.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Share of Vanilla requests in the mix; the rest are Jellyfish.
const VANILLA_SHARE: f64 = 0.75;
/// log2 rows of every request: tiny proofs, so per-request overhead
/// (codec, dispatcher wake-ups, thread fan-out) is as large a share of
/// the latency as it gets.
const MU: usize = 5;

fn classes() -> [RequestClass; 2] {
    [
        RequestClass::new(Gate::Vanilla, MU),
        RequestClass::new(Gate::Jellyfish, MU),
    ]
}

/// Seed of the circuits the service bakes at start. They are the server's
/// assets, not the client's input, and at 2^5 rows a random circuit's cost
/// varies by tens of percent from one seed to the next; the run's seed
/// drives the request mix only.
const SERVICE_SEED: u64 = 0x5e72_7665;

/// The service configuration both workloads (and the ledger's mini runs)
/// share: `cfg.threads` workers of one prover thread each, batches of up
/// to 4, weighted-fair dispatch over two tenants, unbounded queue.
pub fn serve_config(cfg: Config) -> ServeConfig {
    ServeConfig::new(classes().to_vec())
        .with_policy(PolicyKind::WeightedFair)
        .with_tenant_weights(vec![(0, 2.0), (1, 1.0)])
        .with_seed(SERVICE_SEED)
        .with_opts(
            ServeOpts::default()
                .with_workers(cfg.threads)
                .with_prover_threads(1)
                .with_max_batch(4),
        )
}

/// The raw framed-TCP client side of one connection.
struct Wire {
    stream: TcpStream,
    buf: Vec<u8>,
    next_seq: u64,
    /// Outcome frames read while awaiting an admission verdict.
    early: VecDeque<(u64, Outcome, Instant)>,
}

impl Wire {
    fn connect(server: &NetServer) -> Result<Self, String> {
        let stream = TcpStream::connect(server.local_addr()).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
            .map_err(|e| e.to_string())?;
        let mut wire = Self {
            stream,
            buf: Vec::new(),
            next_seq: 0,
            early: VecDeque::new(),
        };
        match wire.read_frame()? {
            Frame::Welcome { .. } => Ok(wire),
            other => Err(format!("expected Welcome, got {other:?}")),
        }
    }

    fn read_frame(&mut self) -> Result<Frame, String> {
        loop {
            if let Some((frame, used)) = decode_frame(&self.buf).map_err(|e| e.to_string())? {
                self.buf.drain(..used);
                return Ok(frame);
            }
            let mut tmp = [0u8; 1024];
            match self.stream.read(&mut tmp) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    fn send(&mut self, frame: &Frame) -> Result<(), String> {
        self.stream
            .write_all(&encode_frame(frame))
            .map_err(|e| format!("write: {e}"))
    }

    fn submit(&mut self, class: RequestClass, tenant: TenantId) -> Result<u64, String> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.send(&Frame::Submit {
            seq,
            gate: class.gate,
            mu: class.mu as u32,
            tenant,
        })?;
        loop {
            match self.read_frame()? {
                Frame::Accepted { seq: s, id, .. } if s == seq => return Ok(id),
                Frame::Outcome { id, outcome, .. } => {
                    self.early.push_back((id, outcome, Instant::now()));
                }
                other => return Err(format!("awaiting admission verdict, got {other:?}")),
            }
        }
    }

    fn wait_outcome(&mut self) -> Result<(u64, Outcome, Instant), String> {
        if let Some(early) = self.early.pop_front() {
            return Ok(early);
        }
        match self.read_frame()? {
            Frame::Outcome { id, outcome, .. } => Ok((id, outcome, Instant::now())),
            other => Err(format!("awaiting an outcome, got {other:?}")),
        }
    }
}

enum Link {
    Tcp {
        server: NetServer,
        wire: Wire,
    },
    Inproc {
        service: ProvingService,
        outcomes: Receiver<OutcomeRecord>,
    },
}

impl Link {
    fn service(&self) -> Result<&ProvingService, String> {
        match self {
            Link::Tcp { server, .. } => server.service().map_err(|e| e.to_string()),
            Link::Inproc { service, .. } => Ok(service),
        }
    }

    fn submit(&mut self, class: RequestClass, tenant: TenantId) -> Result<u64, String> {
        match self {
            Link::Tcp { wire, .. } => wire.submit(class, tenant),
            Link::Inproc { service, .. } => {
                service.submit(class, tenant).map_err(|e| e.to_string())
            }
        }
    }

    fn wait_outcome(&mut self) -> Result<(u64, Outcome, Instant), String> {
        match self {
            Link::Tcp { wire, .. } => wire.wait_outcome(),
            Link::Inproc { outcomes, .. } => outcomes
                .recv_timeout(IO_TIMEOUT)
                .map(|rec| (rec.id, rec.outcome, Instant::now()))
                .map_err(|e| format!("outcome stream: {e}")),
        }
    }
}

struct Pending {
    submitted: Instant,
    admitted: Instant,
    slot: u32,
}

/// What the service and the wire reported at drain, for the ledger.
pub struct Closed {
    /// The service's own report.
    pub report: ServeReport,
    /// Wall time of the drain + shutdown call (ms).
    pub shutdown_ms: f64,
    /// Frames that crossed the socket per request (TCP only).
    pub frames_per_request: Option<f64>,
}

/// A started service with its client.
pub struct Serve {
    link: Option<Link>,
    tcp: bool,
    mix: StdRng,
    pending: HashMap<u64, Pending>,
    free_slots: Vec<u32>,
    submits: u64,
    completed: u64,
    /// Span index of each traced request's root, by request id.
    roots: HashMap<u64, usize>,
    /// Recorder ns at service-clock zero, fixed when tracing starts.
    clock_offset_ns: Option<f64>,
    broken: bool,
    /// Submit to admission verdict (ms), one per request.
    pub admit_ms: Vec<f64>,
    /// The request ids each round submitted, as `first..end`.
    round_ids: Vec<std::ops::Range<usize>>,
}

impl Serve {
    /// Starts the service (baking and calibrating both classes) and, for
    /// TCP, the listener and one client connection.
    pub fn setup(tcp: bool, cfg: Config) -> Result<Self, String> {
        let link = if tcp {
            let server = NetServer::start(serve_config(cfg)).map_err(|e| e.to_string())?;
            let wire = Wire::connect(&server)?;
            Link::Tcp { server, wire }
        } else {
            let (tx, outcomes) = mpsc::channel();
            let service = ProvingService::start(serve_config(cfg).with_outcome_stream(tx))
                .map_err(|e| e.to_string())?;
            Link::Inproc { service, outcomes }
        };
        Ok(Self {
            link: Some(link),
            tcp,
            // A stream of its own, so the mix does not depend on how many
            // draws circuit generation made.
            mix: StdRng::seed_from_u64(cfg.seed ^ 0x6d69_7800),
            pending: HashMap::new(),
            free_slots: (0..WINDOW as u32).rev().collect(),
            submits: 0,
            completed: 0,
            roots: HashMap::new(),
            clock_offset_ns: None,
            broken: false,
            admit_ms: Vec::new(),
            round_ids: Vec::new(),
        })
    }

    /// Opens and closes a second, well-behaved connection through
    /// `NetClient` (connect, greeting, goodbye) while the first stays up;
    /// returns connect + greeting time in µs. TCP only.
    pub fn connect_us(&self) -> Result<f64, String> {
        let Some(Link::Tcp { server, .. }) = &self.link else {
            return Err("not a TCP service".into());
        };
        let t0 = Instant::now();
        let client = NetClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
        let us = t0.elapsed().as_secs_f64() * 1e6;
        client
            .finish(Duration::from_secs(5))
            .map_err(|e| e.to_string())?;
        Ok(us)
    }

    fn layer(&self) -> Layer {
        if self.tcp {
            Layer::Net
        } else {
            Layer::Serve
        }
    }

    fn submit_one(&mut self, samples: &mut Samples) -> Result<(), String> {
        let class = classes()[usize::from(!self.mix.gen_bool(VANILLA_SHARE))];
        let tenant: TenantId = self.mix.gen_range(0u32..2);
        let link = self.link.as_mut().ok_or("service already shut down")?;
        samples.attempted += 1;
        self.submits += 1;
        let submitted = Instant::now();
        let id = link.submit(class, tenant)?;
        let admitted = Instant::now();
        self.admit_ms
            .push((admitted - submitted).as_secs_f64() * 1e3);
        let slot = self.free_slots.pop().unwrap_or(0);
        self.pending.insert(
            id,
            Pending {
                submitted,
                admitted,
                slot,
            },
        );
        Ok(())
    }

    /// Submits while the window has room, else waits for one outcome.
    /// Returns whether a request completed.
    fn step(&mut self, rec: &mut Recorder, samples: &mut Samples) -> Result<bool, String> {
        if self.pending.len() < WINDOW {
            self.submit_one(samples).map(|()| false)
        } else {
            self.await_one(rec, samples)
        }
    }

    fn await_one(&mut self, rec: &mut Recorder, samples: &mut Samples) -> Result<bool, String> {
        let link = self.link.as_mut().ok_or("service already shut down")?;
        let (id, outcome, seen) = link.wait_outcome()?;
        let p = self
            .pending
            .remove(&id)
            .ok_or_else(|| format!("outcome for request {id}, which is not outstanding"))?;
        self.free_slots.push(p.slot);
        samples
            .primary_ms
            .push((seen - p.submitted).as_secs_f64() * 1e3);
        if rec.enabled() {
            rec.set_sample(id, p.slot);
            let (root_name, submit_name) = if self.tcp {
                ("net.request", "net.submit")
            } else {
                ("serve.request", "serve.submit")
            };
            let layer = self.layer();
            let root = rec
                .add(
                    root_name,
                    layer,
                    rec.ns_of(p.submitted),
                    rec.ns_of(seen),
                    None,
                )
                .index();
            rec.add(
                submit_name,
                layer,
                rec.ns_of(p.submitted),
                rec.ns_of(p.admitted),
                root,
            );
            if let Some(root) = root {
                self.roots.insert(id, root);
            }
        }
        if outcome == Outcome::Completed {
            self.completed += 1;
            Ok(true)
        } else {
            samples.fail(format!("request {id} ended {outcome:?}"));
            Ok(false)
        }
    }

    /// Adds, under each traced request's root, the queue wait and the
    /// worker's service interval the service itself reported.
    fn add_server_spans(&self, rec: &mut Recorder, records: &[RequestRecord]) {
        let Some(offset) = self.clock_offset_ns else {
            return;
        };
        let to_ns = |ms: f64| (offset + ms * 1e6).max(0.0) as u64;
        for r in records {
            let Some(&root) = self.roots.get(&r.id) else {
                continue;
            };
            rec.add(
                "serve.queue_wait",
                Layer::Serve,
                to_ns(r.arrival_ms),
                to_ns(r.start_ms),
                Some(root),
            );
            rec.add(
                "hyperplonk.prove+verify(worker batch)",
                Layer::Hyperplonk,
                to_ns(r.start_ms),
                to_ns(r.finish_ms),
                Some(root),
            );
        }
    }

    /// The secondary operation: each request's worker service time (its
    /// batch's wall time divided by the batch size), which the service only
    /// reports at drain. The single client submits in id order, so ids
    /// index the requests and each round owns a contiguous range of them.
    fn add_service_times(&self, records: &[RequestRecord], samples: &mut Samples) {
        let mut service = vec![f64::NAN; self.submits as usize];
        for r in records {
            if let Some(slot) = service.get_mut(r.id as usize) {
                *slot = service_ms(r);
            }
        }
        let first_round = samples.rounds.len().saturating_sub(self.round_ids.len());
        for (round, ids) in samples.rounds[first_round..]
            .iter_mut()
            .zip(&self.round_ids)
        {
            let of_round: Vec<f64> = service[ids.clone()]
                .iter()
                .copied()
                .filter(|ms| ms.is_finite())
                .collect();
            round.secondary_ms = mean_or_nan(&of_round);
        }
        samples
            .secondary_ms
            .extend(service.into_iter().filter(|ms| ms.is_finite()));
    }

    /// Says goodbye, drains and shuts the service down, checks the run's
    /// accounting, and returns what the service reported.
    pub fn close(mut self, rec: &mut Recorder, samples: &mut Samples) -> Option<Closed> {
        while !self.broken && !self.pending.is_empty() {
            if let Err(e) = self.await_one(rec, samples) {
                samples.fail(format!("client: {e}"));
                self.broken = true;
            }
        }
        let link = self.link.take()?;
        let t0 = Instant::now();
        let (report, frames_per_request) = match link {
            Link::Tcp {
                mut server,
                mut wire,
            } => {
                let bye = wire.send(&Frame::Goodbye).and_then(|()| wire.read_frame());
                if !matches!(bye, Ok(Frame::Bye)) {
                    samples.fail(format!("expected Bye after Goodbye, got {bye:?}"));
                }
                match server.shutdown() {
                    Ok(net) => {
                        let s = net.stats;
                        if s.submits != self.submits
                            || s.accepted_submits != self.submits
                            || s.outcomes_streamed != self.submits
                            || s.outcomes_dropped != 0
                        {
                            samples.fail(format!(
                                "wire counters disagree with {} submits: {s:?}",
                                self.submits
                            ));
                        }
                        let frames = (s.submits + s.accepted_submits + s.outcomes_streamed) as f64
                            / self.submits.max(1) as f64;
                        (net.serve, Some(frames))
                    }
                    Err(e) => {
                        samples.fail(format!("net shutdown: {e}"));
                        return None;
                    }
                }
            }
            Link::Inproc { service, .. } => match service.shutdown() {
                Ok(report) => (report, None),
                Err(e) => {
                    samples.fail(format!("service shutdown: {e}"));
                    return None;
                }
            },
        };
        let shutdown_ms = t0.elapsed().as_secs_f64() * 1e3;

        let s = &report.summary;
        if s.arrivals != s.completed + s.rejected + s.shed + s.lost {
            samples.fail(format!(
                "accounting not conserved: {} arrivals vs {} completed + {} rejected + {} shed + {} lost",
                s.arrivals, s.completed, s.rejected, s.shed, s.lost
            ));
        }
        if s.lost != 0 {
            samples.fail(format!("{} requests lost", s.lost));
        }
        if s.arrivals != self.submits
            || s.completed != self.completed
            || self.completed != self.submits
        {
            samples.fail(format!(
                "client saw {} submits and {} completions; service reports {} arrivals, {} completed",
                self.submits, self.completed, s.arrivals, s.completed
            ));
        }
        if let Some(f) = frames_per_request {
            samples.exact("frames_per_request", f);
        }
        self.add_service_times(&report.records, samples);
        self.add_server_spans(rec, &report.records);
        Some(Closed {
            report,
            shutdown_ms,
            frames_per_request,
        })
    }
}

impl Workload for Serve {
    /// `start` already proved and verified each class twice (calibration).
    /// This fills the window and waits for one window's worth of outcomes,
    /// so the first round starts in the steady state and not with requests
    /// that found the service idle. A failure here surfaces at `close`,
    /// whose accounting counts these requests too.
    fn warm(&mut self) {
        let mut scratch = Samples::default();
        let mut off = Recorder::new(false);
        while !self.broken && scratch.primary_ms.len() < WINDOW {
            self.broken = self.step(&mut off, &mut scratch).is_err();
        }
    }

    /// Keeps the window full until `deadline`. The window stays full from
    /// one round to the next (rounds are slices of one saturated run, not
    /// runs of their own); `close` collects what is outstanding at the end.
    fn round(&mut self, deadline: Instant, rec: &mut Recorder, samples: &mut Samples) {
        let started = Instant::now();
        let (p0, s0) = (samples.primary_ms.len(), samples.secondary_ms.len());
        if rec.enabled() && self.clock_offset_ns.is_none() {
            if let Some(Ok(service)) = self.link.as_ref().map(Link::service) {
                self.clock_offset_ns = Some(rec.now_ns() as f64 - service.now_ms() * 1e6);
            }
        }
        let first_id = self.submits as usize;
        let mut ops = 0;
        while !self.broken && Instant::now() < deadline {
            match self.step(rec, samples) {
                Ok(completed) => ops += u64::from(completed),
                Err(e) => {
                    samples.fail(format!("client: {e}"));
                    self.broken = true;
                }
            }
        }
        self.round_ids.push(first_id..self.submits as usize);
        samples.close_round(started, ops, p0, s0);
    }

    fn finish(self: Box<Self>, rec: &mut Recorder, samples: &mut Samples) {
        self.close(rec, samples);
    }
}

/// A request's worker service time (ms): the batch it rode in shares one
/// start and finish, so its share is the batch time over the batch size.
fn service_ms(r: &RequestRecord) -> f64 {
    (r.finish_ms - r.start_ms) / r.batch_size.max(1) as f64
}

/// Median time (ms) the requests of a drained report waited for a worker.
pub fn queue_wait_ms_p50(records: &[RequestRecord]) -> f64 {
    let wait: Vec<f64> = records.iter().map(|r| r.start_ms - r.arrival_ms).collect();
    median(&wait)
}
