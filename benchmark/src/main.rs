//! The repository benchmark.
//!
//! ```text
//! zkphire-benchmark run [--workload <name>] [--seed <u64>] [--seconds <s>]
//!                       [--trace <0|1>] [--smoke] [--out <file>] [--out-dir <dir>]
//! zkphire-benchmark compare <a> <b>
//! zkphire-benchmark manifest [--full]
//! ```
//!
//! `run` prints every metric as `workload metric value unit`, checks every
//! output, and — for a single workload — ends with the one-line JSON result
//! the driver reads. See `benchmark/README.md`.

mod alloc;
mod compare;
mod cpu;
mod json;
mod metrics;
mod probes;
mod run;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  zkphire-benchmark run [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>]
                        [--smoke] [--out <file>] [--out-dir <dir>]
  zkphire-benchmark compare <a> <b>
  zkphire-benchmark manifest [--full]";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.to_string()),
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|_| "--seed takes a u64")?;
            }
            "--seconds" => {
                let seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?;
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--out-dir" => parsed.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let default_seconds = if args.smoke {
        1.0
    } else {
        metrics::RUN_SECONDS as f64
    };
    let seconds = args.seconds.unwrap_or(default_seconds);
    let meta = run::Meta::capture();
    let mut all_ok = true;
    let mut last = None;
    for name in &names {
        let result = run::run(
            &run::RunSpec {
                workload: name,
                seed: args.seed,
                seconds,
                trace: args.trace,
                smoke: args.smoke,
                out_dir: &args.out_dir,
            },
            &meta,
        )?;
        print!("{}", result.lines);
        if let Some(path) = &args.out {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            writeln!(file, "{}", result.record.to_json())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        all_ok &= result.failed == 0;
        last = Some(result);
    }
    // The driver's contract: the last line of a single-workload run is the
    // JSON result.
    if let (Some(result), Some(_)) = (&last, &args.workload) {
        println!("{}", result.result_json());
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") if args.len() == 3 => {
            compare::compare(&args[1], &args[2]).map(|(table, bad)| {
                print!("{table}");
                !bad
            })
        }
        Some("manifest") => {
            let full = args.get(1).is_some_and(|a| a == "--full");
            print!("{}", metrics::manifest(full).to_json_pretty());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}
