//! Command line: `fila-svcbench --workload NAME --seed N --seconds S
//! --trace 0|1 [--spans PATH]`.  Prints a report, then one JSON result
//! line; exits non-zero when any outcome mismatches the reference.

use std::path::PathBuf;
use std::process::ExitCode;

use fila_svcbench::workload::Workload;
use fila_svcbench::{run, Options};

const USAGE: &str = "usage: fila-svcbench --workload warm_mix|cold_admission|bulk_stream \
                     --seed N --seconds S --trace 0|1 [--spans PATH]";

fn parse() -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::WarmMix,
        seed: 0,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--spans" => opts.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    print!("{}", outcome.report);
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
