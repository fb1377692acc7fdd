//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <tall|wide|governed> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <base-dir> <new-dir> [--spec BENCHMARK.json]
//! ```
//!
//! A run prints a summary on stderr and, as the last line of stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. See README.md next to this file.

mod catalog;
mod checks;
mod compare;
mod miners;
mod oracle;
mod report;
mod run;
mod scratch;
mod spans;
mod trace;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use workload::Workload;

const USAGE: &str = "usage: perfbench --workload <tall|wide|governed> --seed <n> --seconds <s> --trace <0|1>\n       perfbench compare <base-dir> <new-dir> [--spec BENCHMARK.json]";

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    // Every miner runs on one thread: `Parallelism::Auto` (the default of
    // every miner, and the only setting FDEP and approximate TANE have)
    // resolves from this variable once, on first use.
    std::env::set_var("DEPMINER_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str);
    if command == Some("compare") {
        let mut spec = "BENCHMARK.json".to_string();
        let mut dirs = Vec::new();
        let mut it = args[1..].iter();
        while let Some(a) = it.next() {
            if a == "--spec" {
                match it.next() {
                    Some(s) => spec = s.clone(),
                    None => {
                        eprintln!("--spec needs a value\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            } else {
                dirs.push(a.clone());
            }
        }
        let spec = Path::new(&spec);
        let verdict = match dirs.as_slice() {
            [base, new] => compare::compare(Path::new(base), Path::new(new), spec),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        };
        return match verdict {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(3),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let run_args = match parse_run(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let RunArgs {
        workload,
        seed,
        seconds,
        trace,
    } = run_args;
    let outcome = if trace {
        trace::run(workload, seed, seconds)
    } else {
        run::run(workload, seed, seconds)
    };
    match outcome {
        Ok(o) => {
            for m in &o.metrics {
                eprintln!("{:<28} {:>14.6} {}", m.name, m.value, m.unit);
            }
            eprintln!(
                "{}: {} operations, {} failed, correct = {}",
                workload.name(),
                o.attempted,
                o.failed,
                o.correct
            );
            println!(
                "{}",
                report::result_json(o.correct, o.attempted, o.failed, &o.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
