//! The benchmark's own span recorder. Spans wrap the benchmark's calls into
//! each layer's public functions (nothing inside the crates under test is
//! instrumented); they are kept in memory and written out once at exit.

use std::fmt::Write as _;
use std::time::Instant;

use crate::json::escape;

/// The layers of the repository, one per crate the benchmark calls into,
/// plus `Host` for the benchmark's own bookkeeping spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Field,
    Curve,
    Poly,
    Transcript,
    Sumcheck,
    Pcs,
    Hyperplonk,
    Serve,
    Net,
    Core,
    Dse,
    Fleet,
    Host,
}

impl Layer {
    /// Every layer, in stack order (bottom first).
    pub const ALL: [Layer; 13] = [
        Layer::Field,
        Layer::Curve,
        Layer::Poly,
        Layer::Transcript,
        Layer::Sumcheck,
        Layer::Pcs,
        Layer::Hyperplonk,
        Layer::Serve,
        Layer::Net,
        Layer::Core,
        Layer::Dse,
        Layer::Fleet,
        Layer::Host,
    ];

    /// The crate name without its `zkphire-` prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Field => "field",
            Layer::Curve => "curve",
            Layer::Poly => "poly",
            Layer::Transcript => "transcript",
            Layer::Sumcheck => "sumcheck",
            Layer::Pcs => "pcs",
            Layer::Hyperplonk => "hyperplonk",
            Layer::Serve => "serve",
            Layer::Net => "net",
            Layer::Core => "core",
            Layer::Dse => "dse",
            Layer::Fleet => "fleet",
            Layer::Host => "host",
        }
    }
}

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// The function or phase the span wraps, e.g. `pcs.commit`.
    pub name: &'static str,
    /// The layer the wrapped call belongs to.
    pub layer: Layer,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request or sample id shared by all spans of one operation.
    pub sample: u64,
    /// Display lane (overlapping requests get lanes of their own).
    pub lane: u32,
    /// Recorded by a ledger probe, not by the workload's own pass.
    pub ledger: bool,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Recorder::begin`]; `None` while recording is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// Index into [`Recorder::spans`], if the span was recorded.
    pub fn index(self) -> Option<usize> {
        self.0
    }
}

/// In-memory span buffer for one run. Driven from the benchmark's main
/// thread only; work done on other threads (service workers) is added
/// afterwards with [`Recorder::add`] from the timestamps those layers
/// report.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    sample: u64,
    lane: u32,
    ledger: bool,
}

/// Per-layer totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans attributed to the layer.
    pub spans: u64,
    /// Sum of their durations (ns).
    pub total_ns: u64,
    /// Sum of their self times (ns): duration minus the part of the
    /// interval their child spans cover.
    pub self_ns: u64,
}

impl Recorder {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            sample: 0,
            lane: 0,
            ledger: false,
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Ns since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `at` on the recorder's clock (0 for instants before its creation).
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Sets the sample id and lane stamped on spans begun from now on.
    pub fn set_sample(&mut self, sample: u64, lane: u32) {
        self.sample = sample;
        self.lane = lane;
    }

    /// Marks spans begun from now on as ledger-probe spans (or not).
    pub fn set_ledger(&mut self, ledger: bool) {
        self.ledger = ledger;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: Layer) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            sample: self.sample,
            lane: self.lane,
            ledger: self.ledger,
        });
        self.stack.push(idx);
        SpanId(Some(idx))
    }

    /// Closes a span opened by [`begin`](Self::begin). Spans close in
    /// reverse order of opening; a stray id is ignored.
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        if self.stack.last() == Some(&idx) {
            self.stack.pop();
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Adds a finished span from timestamps measured elsewhere. With a
    /// parent, the interval is clamped into the parent's so that clock
    /// mapping error can never break enclosure.
    pub fn add(
        &mut self,
        name: &'static str,
        layer: Layer,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let (mut start_ns, mut end_ns) = (start_ns, end_ns.max(start_ns));
        let (mut sample, mut lane) = (self.sample, self.lane);
        if let Some(p) = parent.and_then(|p| self.spans.get(p)) {
            start_ns = start_ns.clamp(p.start_ns, p.end_ns);
            end_ns = end_ns.clamp(start_ns, p.end_ns);
            sample = p.sample;
            lane = p.lane;
        }
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            sample,
            lane,
            ledger: self.ledger,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its direct children cover (children may overlap one
    /// another, so the cover is a union, not a sum).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.clamp(cursor, s.end_ns);
                    let b = b.clamp(a, s.end_ns);
                    covered += b - a;
                    cursor = cursor.max(b);
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Per-layer totals over the workload's own spans (`ledger == false`)
    /// or over the ledger probes' spans.
    pub fn layer_totals(&self, ledger: bool) -> Vec<(Layer, LayerTotal)> {
        let selfs = self.self_times_ns();
        Layer::ALL
            .iter()
            .map(|&layer| {
                let mut t = LayerTotal::default();
                for (s, &self_ns) in self.spans.iter().zip(&selfs) {
                    if s.layer == layer && s.ledger == ledger {
                        t.spans += 1;
                        t.total_ns += s.dur_ns();
                        t.self_ns += self_ns;
                    }
                }
                (layer, t)
            })
            .collect()
    }

    /// Checks the forest: every span is closed, ends after it starts, and
    /// has a parent that exists, precedes it, and encloses it.
    pub fn check_well_formed(&self) -> Result<(), String> {
        if !self.stack.is_empty() {
            return Err(format!("{} spans still open", self.stack.len()));
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let Some(parent) = self.spans.get(p).filter(|_| p < i) else {
                    return Err(format!("span {i} ({}) has no parent {p}", s.name));
                };
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {i} ({}) is not enclosed by its parent {p} ({})",
                        s.name, parent.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Chrome trace-event JSON (loads in Perfetto / `chrome://tracing`):
    /// complete (`X`) events, `cat` = layer, one `tid` per lane, and the
    /// span's id, parent, workload and sample id in `args`.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"workload\":\"{}\",\
                 \"sample\":{},\"start_ns\":{},\"end_ns\":{}}}}}",
                escape(s.name),
                s.layer.name(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                if s.ledger { 2 } else { 1 },
                s.lane,
                i,
                parent,
                escape(if s.ledger { "ledger" } else { workload }),
                s.sample,
                s.start_ns,
                s.end_ns,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built forest:
    /// root [0,100] ── a [10,40] ── a1 [15,25]
    ///              ├─ b [30,60]      (overlaps a by 10)
    ///              └─ c [90,100]
    /// lone [200,250]
    fn forest() -> Recorder {
        let mut r = Recorder::new(true);
        let root = r.add("root", Layer::Hyperplonk, 0, 100, None).index();
        let a = r.add("a", Layer::Pcs, 10, 40, root).index();
        r.add("a1", Layer::Curve, 15, 25, a);
        r.add("b", Layer::Sumcheck, 30, 60, root);
        r.add("c", Layer::Pcs, 90, 100, root);
        r.add("lone", Layer::Fleet, 200, 250, None);
        r
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let r = forest();
        // root: 100 - |[10,60] ∪ [90,100]| = 100 - 60 = 40
        // a: 30 - 10 = 20; a1: 10; b: 30; c: 10; lone: 50
        assert_eq!(r.self_times_ns(), vec![40, 20, 10, 30, 10, 50]);
        r.check_well_formed().expect("well formed");
    }

    #[test]
    fn layer_totals_group_by_layer() {
        let r = forest();
        let totals = r.layer_totals(false);
        let get = |l: Layer| totals.iter().find(|(x, _)| *x == l).map(|(_, t)| *t);
        assert_eq!(
            get(Layer::Pcs),
            Some(LayerTotal {
                spans: 2,
                total_ns: 40,
                self_ns: 30
            })
        );
        assert_eq!(get(Layer::Net), Some(LayerTotal::default()));
        // Self times partition the root intervals: 40+20+10+30+10 = 110 is
        // root (100) plus the 10 ns a and b overlap; lone adds its own 50.
        let all_self: u64 = totals.iter().map(|(_, t)| t.self_ns).sum();
        assert_eq!(all_self, 160);
    }

    #[test]
    fn added_children_are_clamped_into_their_parent() {
        let mut r = Recorder::new(true);
        let root = r.add("root", Layer::Net, 100, 200, None).index();
        r.add("early", Layer::Serve, 50, 150, root);
        r.add("late", Layer::Serve, 180, 260, root);
        r.add("outside", Layer::Serve, 300, 400, root);
        r.check_well_formed().expect("clamped");
        assert_eq!(r.spans()[1].start_ns, 100);
        assert_eq!(r.spans()[2].end_ns, 200);
        assert_eq!(r.spans()[3].dur_ns(), 0);
    }

    #[test]
    fn begin_end_nest_and_off_records_nothing() {
        let mut r = Recorder::new(true);
        let a = r.begin("a", Layer::Host);
        let b = r.begin("b", Layer::Host);
        r.end(b);
        r.end(a);
        assert_eq!(r.spans()[1].parent, Some(0));
        r.check_well_formed().expect("nested");

        let mut off = Recorder::new(false);
        let s = off.begin("x", Layer::Host);
        off.end(s);
        assert!(off.add("y", Layer::Host, 0, 1, None).index().is_none());
        assert!(off.spans().is_empty());
    }

    #[test]
    fn detects_a_child_outside_its_parent() {
        let mut r = forest();
        r.spans[2].end_ns = 1_000;
        assert!(r.check_well_formed().is_err());
    }
}
