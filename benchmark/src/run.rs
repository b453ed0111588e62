//! One run of one workload: set-up, warm-up, timed rounds with tracing off,
//! and — in a traced run — a second pass with the recorder on, the layer
//! ledger, and the trace artefacts. The compute workloads run pinned to one
//! CPU (`cpu.rs`); the ledger's probes get every core back.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::cpu;
use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::{Layer, Recorder};
use crate::workloads::{self, Config, RoundStats, Samples};

/// Set-ups per untraced run; `setup_s` is their lower decile (the fastest
/// when there are fewer than eleven), the same rule as for rounds. At
/// least `MIN_SETUPS`; cheap set-ups repeat until they have used
/// `SETUP_BUDGET_S` or ran `MAX_SETUPS` times.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 20;
const SETUP_BUDGET_S: f64 = 1.5;
/// Slices a run's seconds are cut into. Every timing is taken per round
/// and the run reports the quiet rounds (`workloads::RoundStats`), so the
/// rounds are short: a co-tenant's burst spoils a few of them, not the run.
const ROUNDS: u32 = 20;
/// The same for a `--smoke` run, whose second holds few operations.
const SMOKE_ROUNDS: u32 = 4;
/// Share of a traced run's seconds that goes to the untraced reference
/// pass; the traced pass takes the rest, ten rounds each, and the ledger's
/// probes do a fixed amount of work after.
const TRACED_REFERENCE_SHARE: f64 = 0.5;

/// Where and on what the numbers were taken.
#[derive(Clone, Debug)]
pub struct Meta {
    /// CPUs the process may run on when it starts.
    pub nproc: usize,
    /// Threads the ledger's parallel probes use: `min(nproc, 4)`.
    pub threads: usize,
    pub git_rev: String,
    pub rustc: String,
}

impl Meta {
    /// Reads the host's core count, the checkout's revision (from `.git`
    /// in the working directory, if there is one) and the compiler version.
    pub fn capture() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            nproc,
            threads: nproc.min(4),
            git_rev: git_rev(Path::new(".")).unwrap_or_else(|| "unknown".into()),
            rustc: std::process::Command::new("rustc")
                .arg("--version")
                .output()
                .ok()
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map_or_else(|| "unknown".into(), |s| s.trim().to_string()),
        }
    }

    fn to_json(&self, seed: u64, seconds: f64) -> Value {
        Value::obj([
            ("nproc", Value::Num(self.nproc as f64)),
            ("threads", Value::Num(self.threads as f64)),
            ("git_rev", Value::str(self.git_rev.clone())),
            ("rustc", Value::str(self.rustc.clone())),
            ("seed", Value::Num(seed as f64)),
            ("seconds", Value::Num(seconds)),
        ])
    }
}

/// `HEAD`'s commit from the files under `root/.git`, without running git
/// (which would walk up out of the checkout looking for a repository).
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => match std::fs::read_to_string(git.join(reference)) {
            Ok(rev) => rev.trim().to_string(),
            Err(_) => std::fs::read_to_string(git.join("packed-refs"))
                .ok()?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))?,
        },
    };
    rev.get(..12)
        .filter(|r| r.bytes().all(|b| b.is_ascii_hexdigit()))
        .map(str::to_string)
}

/// The host-noise reference, sampled at the start of every round: a fixed
/// loop of eight independent 64x64 -> 128-bit multiply chains that touches
/// no repository code. Like Montgomery multiplication it is bound by the
/// multiplier ports, so a busy sibling hyperthread slows it (a dependent
/// chain of cheap operations would not notice). Returns its wall ns.
fn spin_ns() -> f64 {
    let t0 = Instant::now();
    let mut lanes: [u64; 8] = [1, 3, 5, 7, 11, 13, 17, 19];
    for _ in 0..400_000 {
        for x in &mut lanes {
            let p = u128::from(*x) * 0x9e37_79b9_7f4a_7c15u128;
            *x = (p as u64) ^ ((p >> 64) as u64);
        }
    }
    std::hint::black_box(lanes);
    t0.elapsed().as_nanos() as f64
}

/// What one run is asked to do.
pub struct RunSpec<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: &'a Path,
}

/// What one run measured.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics the contract asks for in this mode, by name.
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Human-readable `workload metric value unit` lines.
    pub lines: String,
    /// The run-file record (`--out`), for `compare`.
    pub record: Value,
}

impl RunResult {
    /// The contract's result line.
    pub fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, &(value, unit))| {
                (
                    *name,
                    Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]),
                )
            })
            .collect::<Vec<_>>();
        Value::obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .to_json()
    }
}

/// Runs `w` for `total` seconds in rounds of `slice` seconds. A round ends
/// with the first operation that finishes past its slice, and the next
/// round's slice is the one the clock is in by then, so operations longer
/// than a slice make fewer rounds, never a longer run.
fn run_rounds(
    w: &mut dyn workloads::Workload,
    total: f64,
    slice: f64,
    rec: &mut Recorder,
    samples: &mut Samples,
    host: &mut HostRounds,
) {
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= total {
            break;
        }
        host.spin_ns.push(spin_ns());
        alloc::reset_peak();
        let slice_end = ((elapsed / slice).floor() + 1.0) * slice;
        w.round(start + Duration::from_secs_f64(slice_end), rec, samples);
        host.heap_peak.push(alloc::stats().peak as f64);
    }
}

/// What the harness itself measures around each round.
#[derive(Default)]
struct HostRounds {
    /// The noise reference, taken just before the round.
    spin_ns: Vec<f64>,
    /// Peak live heap (bytes) during the round.
    heap_peak: Vec<f64>,
}

/// Runs one workload once.
pub fn run(spec: &RunSpec, meta: &Meta) -> Result<RunResult, String> {
    let wall = Instant::now();
    let name = spec.workload;
    let info = workloads::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let pinned = if info.one_cpu {
        cpu::pin_to_one_cpu()
    } else {
        None
    };
    let cfg = Config {
        seed: spec.seed,
        threads: 1,
        smoke: spec.smoke,
    };
    let mut lines = String::new();
    let _ = writeln!(
        lines,
        "# {name} seed={} seconds={} trace={} nproc={} cpu={} git={} {}",
        spec.seed,
        spec.seconds,
        spec.trace,
        meta.nproc,
        match (&pinned, info.one_cpu) {
            (Some(p), _) => format!("pinned:{}", p.cpu),
            (None, true) => "pinning-refused".into(),
            (None, false) => "all".into(),
        },
        meta.git_rev,
        meta.rustc
    );

    // Set-up, several times over in an untraced run.
    let (min_setups, max_setups) = if spec.trace || spec.smoke {
        (1, 1)
    } else {
        (MIN_SETUPS, MAX_SETUPS)
    };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut state: Option<Box<dyn workloads::Workload>> = None;
    while setup_s.len() < min_setups
        || (setup_s.len() < max_setups && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        if let Some(previous) = state.take() {
            previous.finish(&mut Recorder::new(false), &mut Samples::default());
        }
        let t0 = Instant::now();
        state = Some(workloads::setup(name, cfg)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = state.ok_or("no set-up ran")?;
    w.warm();

    let mut samples = Samples::default();
    let mut host = HostRounds::default();
    let mut off = Recorder::new(false);
    let mut rec = Recorder::new(spec.trace);
    let slice = spec.seconds / f64::from(if spec.smoke { SMOKE_ROUNDS } else { ROUNDS });
    let untraced_seconds = if spec.trace {
        spec.seconds * TRACED_REFERENCE_SHARE
    } else {
        spec.seconds
    };
    run_rounds(
        w.as_mut(),
        untraced_seconds,
        slice,
        &mut off,
        &mut samples,
        &mut host,
    );
    let untraced_rounds = samples.rounds.len();
    // Lower decile over rounds, like the timings: the service keeps a
    // record of every request until drain, so its later rounds sit higher
    // by however many requests the host let through.
    let heap_peak_mb = percentile(&host.heap_peak, 10.0) / (1024.0 * 1024.0);
    if spec.trace {
        let seconds = spec.seconds * (1.0 - TRACED_REFERENCE_SHARE);
        run_rounds(
            w.as_mut(),
            seconds,
            slice,
            &mut rec,
            &mut samples,
            &mut host,
        );
    }
    // `finish` may complete the rounds (the service reports its workers'
    // times only at drain), so the rounds are summarized after it.
    w.finish(&mut rec, &mut samples);
    let (untraced, traced) = samples.rounds.split_at(untraced_rounds);
    let (untraced, traced) = (RoundStats::of(untraced), RoundStats::of(traced));
    let spins = host.spin_ns;

    let spin = median(&spins);
    let spin_drift_pct = if spin > 0.0 {
        let lo = spins.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = spins.iter().copied().fold(0.0, f64::max);
        (hi - lo) / spin * 100.0
    } else {
        0.0
    };
    for (i, s) in spins.iter().enumerate() {
        let _ = writeln!(lines, "# round {i} host.spin_ns {s:.0}");
    }
    if spin_drift_pct > 5.0 {
        let _ = writeln!(
            lines,
            "# NOTE host.spin_ns moved {spin_drift_pct:.1}% between rounds: the host was not quiet"
        );
    }

    let mut metrics: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();

    if !spec.trace {
        let values = [
            percentile(&setup_s, 10.0),
            untraced.primary_ms,
            untraced.secondary_ms,
            untraced.ops_per_s,
            heap_peak_mb,
        ];
        for (m, v) in END_TO_END.iter().zip(values) {
            metrics.insert(m.name, (v, m.unit));
        }
    } else {
        // The ledger's parallel probes get every core back.
        if let Some(p) = &pinned {
            p.release();
        }
        let ledger = probes::run(
            &mut rec,
            Config {
                threads: meta.threads,
                ..cfg
            },
        );
        let mut values: BTreeMap<&'static str, f64> = ledger.values;
        // A failed probe check, a malformed trace or a missing metric each
        // count as one failed operation.
        let mut broken = ledger.failures;
        if let Err(e) = rec.check_well_formed() {
            broken.push(format!("trace: {e}"));
        }

        let totals = rec.layer_totals(false);
        let all_self: u64 = totals.iter().map(|(_, t)| t.self_ns).sum();
        for (layer, t) in &totals {
            if let Some(m) = PER_LAYER
                .iter()
                .find(|m| m.layer == *layer && m.name.starts_with("share."))
            {
                values.insert(m.name, t.self_ns as f64 / all_self.max(1) as f64);
            }
        }
        values.insert("host.nproc", meta.nproc as f64);
        values.insert("host.threads", meta.threads as f64);
        values.insert("host.spin_ns", spin);
        values.insert("host.spin_drift_pct", spin_drift_pct);
        values.insert(
            "host.trace_spans",
            rec.spans().iter().filter(|s| !s.ledger).count() as f64,
        );
        values.insert("host.primary_ms", untraced.primary_ms);
        values.insert("host.traced_primary_ms", traced.primary_ms);
        values.insert(
            "host.trace_overhead_pct",
            (traced.primary_ms - untraced.primary_ms) / untraced.primary_ms * 100.0,
        );
        values.insert("host.wall_s", wall.elapsed().as_secs_f64());
        for m in PER_LAYER {
            let value = values.get(m.name).copied().unwrap_or_else(|| {
                broken.push(format!("no probe produced {}", m.name));
                0.0
            });
            metrics.insert(m.name, (value, m.unit));
        }
        for why in broken {
            samples.attempted += 1;
            samples.fail(why);
        }
        write_artefacts(spec.out_dir, name, &rec, &totals)?;
    }

    for (metric, (value, unit)) in &metrics {
        let _ = writeln!(lines, "{name} {metric} {value} {unit}");
    }
    if !spec.trace {
        let primary = &samples.primary_ms;
        let n = primary.len();
        let _ = writeln!(
            lines,
            "# {name} samples primary={n} secondary={} rounds={}",
            samples.secondary_ms.len(),
            samples.rounds.len()
        );
        let _ = writeln!(
            lines,
            "# {name} primary_ms median over all samples {} ms (what the host gave; the metric is the quiet rounds)",
            median(primary)
        );
        if let Some(p) = highest_supported_percentile(n) {
            let _ = writeln!(
                lines,
                "# {name} primary_ms_p{p} {} ms (highest percentile with 10 samples beyond it, n={n})",
                percentile(primary, p)
            );
        }
    }
    for (k, v) in &samples.exact {
        let _ = writeln!(lines, "# {name} exact {k} {v}");
    }
    for why in &samples.notes {
        let _ = writeln!(lines, "# FAILED {why}");
    }

    // Only an untraced run's rounds feed `compare`'s spread estimate.
    let rounds = if spec.trace {
        &[][..]
    } else {
        &samples.rounds[..]
    };
    let record = Value::obj([
        ("workload", Value::str(name)),
        ("trace", Value::Bool(spec.trace)),
        ("meta", meta.to_json(spec.seed, spec.seconds)),
        ("attempted", Value::Num(samples.attempted as f64)),
        ("failed", Value::Num(samples.failed as f64)),
        (
            "metrics",
            Value::obj(metrics.iter().map(|(k, &(v, _))| (*k, Value::Num(v)))),
        ),
        (
            "exact",
            Value::obj(samples.exact.iter().map(|&(k, v)| (k, Value::Num(v)))),
        ),
        (
            "rounds",
            Value::Arr(
                rounds
                    .iter()
                    .zip(&spins)
                    .map(|(r, &spin)| {
                        Value::obj([
                            ("spin_ns", Value::Num(spin)),
                            ("primary_ms", Value::Num(r.primary_ms)),
                            ("secondary_ms", Value::Num(r.secondary_ms)),
                            ("ops_per_s", Value::Num(r.ops_per_s())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);

    Ok(RunResult {
        attempted: samples.attempted.max(1),
        failed: samples.failed,
        metrics,
        lines,
        record,
    })
}

/// Writes `trace.json` (Chrome trace events) and `layers.json` (per-layer
/// and per-span-name totals of the workload's traced pass).
fn write_artefacts(
    dir: &Path,
    workload: &str,
    rec: &Recorder,
    totals: &[(Layer, crate::trace::LayerTotal)],
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |file: &str, text: String| {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write("trace.json", rec.chrome_json(workload))?;

    let selfs = rec.self_times_ns();
    let mut by_name: BTreeMap<&str, (Layer, u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in rec.spans().iter().zip(selfs).filter(|(s, _)| !s.ledger) {
        let e = by_name.entry(s.name).or_insert((s.layer, 0, 0, 0));
        e.1 += 1;
        e.2 += s.dur_ns();
        e.3 += self_ns;
    }
    let ms = |ns: u64| Value::Num(ns as f64 / 1e6);
    let layers = totals.iter().filter(|(_, t)| t.spans > 0).map(|(l, t)| {
        (
            l.name(),
            Value::obj([
                ("spans", Value::Num(t.spans as f64)),
                ("total_ms", ms(t.total_ns)),
                ("self_ms", ms(t.self_ns)),
            ]),
        )
    });
    let spans = by_name.iter().map(|(name, &(layer, n, total, own))| {
        (
            *name,
            Value::obj([
                ("layer", Value::str(layer.name())),
                ("spans", Value::Num(n as f64)),
                ("total_ms", ms(total)),
                ("self_ms", ms(own)),
            ]),
        )
    });
    let doc = Value::obj([
        ("workload", Value::str(workload)),
        ("layers", Value::obj(layers)),
        ("spans", Value::obj(spans)),
    ]);
    write("layers.json", doc.to_json() + "\n")
}
