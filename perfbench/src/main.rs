//! `mosc-perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! mosc-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                --daemon PATH/TO/mosc-cli --out-dir DIR [--emit-reference]
//! ```
//!
//! Workloads: `solver-tpt`, `solver-phase` (in-process `mosc_core::solve`)
//! and `serve-hit`, `serve-miss` (the `mosc-cli serve` daemon). An
//! untraced run (`--trace 0`) prints the end-to-end metrics, a traced run
//! the per-layer metrics; the last line of standard output is the JSON
//! result. Any wrong answer makes the run exit with code 1. See README.md.

mod gen;
mod json;
mod procfs;
mod report;
mod rng;
mod serve;
mod solver;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: &[&str] = &["solver-tpt", "solver-phase", "serve-hit", "serve-miss"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub daemon: PathBuf,
    pub out_dir: PathBuf,
    emit_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<&str> {
        argv.iter().position(|a| a == name).and_then(|i| argv.get(i + 1)).map(String::as_str)
    };
    let workload = flag("--workload").ok_or("--workload is required")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}' (expected one of {WORKLOADS:?})"));
    }
    let num = |name: &str, default: &str| -> Result<f64, String> {
        flag(name).unwrap_or(default).parse::<f64>().map_err(|e| format!("{name}: {e}"))
    };
    let seconds = num("--seconds", "10")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        seed: flag("--seed").unwrap_or("0").parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match flag("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
        },
        daemon: flag("--daemon")
            .map_or_else(|| PathBuf::from("target/release/mosc-cli"), PathBuf::from),
        out_dir: flag("--out-dir").map_or_else(|| PathBuf::from("perfbench/out"), PathBuf::from),
        emit_reference: argv.iter().any(|a| a == "--emit-reference"),
        workload,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mosc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_reference && args.workload.starts_with("solver-") {
        return match solver::emit_reference(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("mosc-perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!(
        "# mosc-perfbench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        procfs::nproc()
    );
    let report = if args.workload.starts_with("solver-") {
        Ok(solver::run(&args))
    } else {
        serve::run(&args)
    };
    match report {
        Ok(report) => {
            report.print(args.trace);
            if report.wrong == 0 && report.attempted > 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("mosc-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
