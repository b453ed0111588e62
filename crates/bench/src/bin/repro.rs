//! Regenerates the paper's tables and figures from this repository's
//! models. Usage: `repro <experiment|all> [flags...]`; see `repro list`.
//! (`repro obs` accepts `--out-dir <dir>`.)

use std::io::{self, Write};
use std::process::ExitCode;

use zkphire_bench::experiments;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((which, rest)) = args.split_first() else {
        eprintln!("usage: repro <experiment|all|list> [flags...]");
        eprintln!("experiments: {}", experiments::ALL.join(", "));
        return ExitCode::FAILURE;
    };
    let mut out = io::stdout().lock();
    let written = match which.as_str() {
        "list" => writeln!(out, "{}", experiments::ALL.join("\n")),
        "all" => experiments::ALL.iter().try_for_each(|name| {
            writeln!(out, "=== {name} ===")?;
            let output = experiments::run_with_args(name, rest).expect("registered");
            writeln!(out, "{output}")
        }),
        name => match experiments::run_with_args(name, rest) {
            Some(output) => writeln!(out, "{output}"),
            None => {
                eprintln!("unknown experiment '{name}'; try `repro list`");
                return ExitCode::FAILURE;
            }
        },
    };
    match written.and_then(|()| out.flush()) {
        // A reader that stops early (`repro all | head`) is not a failure.
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            eprintln!("repro: writing stdout failed: {e}");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}
