//! Command-line driver that regenerates the paper's tables and figures.
//!
//! ```text
//! koc-experiments all              # every experiment at the default length
//! koc-experiments fig9 --len 30000 # one experiment, longer traces
//! koc-experiments table1
//! ```

use koc_bench::{experiments, DEFAULT_TRACE_LEN};
use std::process::ExitCode;

fn print_usage() {
    eprintln!("usage: koc-experiments <experiment|all> [--len N]");
    eprintln!("experiments: {}", experiments::ALL.join(", "));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage();
        return ExitCode::FAILURE;
    }
    let mut trace_len = DEFAULT_TRACE_LEN;
    let mut names: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--len" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("--len requires a value");
                    return ExitCode::FAILURE;
                };
                match v.parse() {
                    Ok(n) => trace_len = n,
                    Err(_) => {
                        eprintln!("invalid --len value '{v}'");
                        return ExitCode::FAILURE;
                    }
                }
                i += 2;
            }
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            name => {
                names.push(name.to_string());
                i += 1;
            }
        }
    }
    if names.iter().any(|n| n == "all") {
        names = experiments::ALL.iter().map(|s| s.to_string()).collect();
    }
    if names.is_empty() {
        print_usage();
        return ExitCode::FAILURE;
    }
    for name in &names {
        match experiments::run_by_name(name, trace_len) {
            Ok(report) => {
                if let Err(code) = koc_bench::print(report) {
                    return code;
                }
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
