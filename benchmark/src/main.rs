//! Command-line driver of the repository benchmark.
//!
//! ```text
//! nsta-benchmark --workload <bus64|mesh32|eco64|table1> --seed <n>
//!                --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a context line (run, host and workload facts) and, as the last
//! line of standard output, the result object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! A traced run also writes its spans as a Chrome trace under
//! `.bench_out/`. Exit code 2 means a usage error,
//! 1 a run that could not be set up; a run with failed units still exits
//! 0 and reports them in `failed` and `correct`.

use nsta_benchmark::{run, RunConfig, WorkloadKind};
use std::path::PathBuf;

const USAGE: &str = "usage: nsta-benchmark --workload <bus64|mesh32|eco64|table1> \
--seed <n> --seconds <s> --trace <0|1>";

fn usage(msg: &str) -> ! {
    eprintln!("nsta-benchmark: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    v.as_deref()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage(&format!("bad or missing value for {flag}")))
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => {
                let name: String = value("--workload", args.next());
                workload = Some(
                    WorkloadKind::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => seed = Some(value::<u64>("--seed", args.next())),
            "--seconds" => seconds = Some(value::<f64>("--seconds", args.next())),
            "--trace" => {
                trace = Some(match value::<u8>("--trace", args.next()) {
                    0 => false,
                    1 => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage("--workload, --seed, --seconds and --trace are required");
    };
    if !(seconds.is_finite() && seconds >= 0.0) {
        usage("--seconds must be a non-negative number");
    }
    let mut cfg = RunConfig::new(workload, seed, seconds, trace);
    cfg.trace_dir = trace.then(|| PathBuf::from(".bench_out"));
    match run(&cfg) {
        Ok(outcome) => {
            for p in outcome.problems.iter().take(10) {
                eprintln!("nsta-benchmark: {p}");
            }
            println!("{}", outcome.context_line());
            println!("{}", outcome.result_line());
        }
        Err(e) => {
            eprintln!("nsta-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
