//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then one JSON result line. Exits 1 when any
//! run failed an output check, 2 on a usage error.

use perfbench::runner::{run, Config};
use perfbench::workload::{Workload, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <tables-wide|overload-soak|mixed-policy> \
     [--seed N] [--seconds S] [--trace 0|1] [--workers N] [--systems N] [--horizon PERIODS]";

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut workers = rt_experiments::available_workers();
    let mut systems = None;
    let mut horizon = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--workers" => workers = value.parse().map_err(|e| bad(&e))?,
            "--systems" => systems = Some(value.parse().map_err(|e| bad(&e))?),
            "--horizon" => horizon = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let mut size = workload.full_size();
    if let Some(systems) = systems {
        size.systems = systems;
        size.exec_systems = size.exec_systems.min(systems);
        if workload == Workload::TablesWide {
            size.exec_systems = systems;
        }
    }
    if let Some(horizon) = horizon {
        size.horizon_periods = horizon;
    }
    if seconds.is_nan()
        || seconds <= 0.0
        || workers == 0
        || size.systems == 0
        || size.horizon_periods == 0
    {
        return Err("--seconds, --workers, --systems and --horizon must be positive".into());
    }
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        workers,
        size,
    })
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&config);
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
