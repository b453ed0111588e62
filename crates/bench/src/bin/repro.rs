//! Regenerates the paper's tables and figures from this repository's
//! models. Usage: `repro <experiment|all> [flags...]`; see `repro list`.
//! (`repro obs` accepts `--out-dir <dir>`.)

use std::process::ExitCode;

use zkphire_bench::experiments;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((which, rest)) = args.split_first() else {
        eprintln!("usage: repro <experiment|all|list> [flags...]");
        eprintln!("experiments: {}", experiments::ALL.join(", "));
        return ExitCode::FAILURE;
    };
    match which.as_str() {
        "list" => {
            println!("{}", experiments::ALL.join("\n"));
            ExitCode::SUCCESS
        }
        "all" => {
            for name in experiments::ALL {
                println!("=== {name} ===");
                println!(
                    "{}",
                    experiments::run_with_args(name, rest).expect("registered")
                );
            }
            ExitCode::SUCCESS
        }
        name => match experiments::run_with_args(name, rest) {
            Some(output) => {
                println!("{output}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown experiment '{name}'; try `repro list`");
                ExitCode::FAILURE
            }
        },
    }
}
