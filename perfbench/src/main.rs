//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the resolved run config, one line per metric with its unit, and
//! last a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when a correctness check failed and 2 when the run
//! was refused or could not be set up. A traced run also writes its spans
//! to `perfbench/out/<workload>.trace.jsonl`.

use perfbench::{run, BenchError, RunOptions, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args(args: &[String]) -> Result<RunOptions, BenchError> {
    let usage = |msg: String| {
        BenchError::Usage(format!(
            "{msg}\n  perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            Workload::ALL.map(Workload::name).join("|")
        ))
    };
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| usage(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| usage(format!("unknown workload {value:?}")))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| usage(format!("bad --seed {value:?}")))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| usage(format!("bad --seconds {value:?}")))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage(format!("bad --trace {value:?}"))),
                }
            }
            _ => return Err(usage(format!("unknown flag {flag:?}"))),
        }
    }
    let workload = workload.ok_or_else(|| usage("--workload is required".into()))?;
    Ok(RunOptions {
        workload,
        seed,
        seconds,
        trace,
        trace_out: trace
            .then(|| PathBuf::from(format!("perfbench/out/{}.trace.jsonl", workload.name()))),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|opts| run(&opts)) {
        Ok(report) => {
            println!("{}", report.render());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
