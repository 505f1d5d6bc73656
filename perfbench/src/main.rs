//! The suite's benchmark: four seeded workloads, each run in its own
//! process, printing end-to-end metrics (untraced) or per-layer metrics
//! (traced) and ending with one JSON result line.
//!
//! ```text
//! perfbench --workload <explore-cold|verify-catalog|pipeline-s8|serve-closed>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! See `README.md` next to this crate for the metric table.

mod explore;
mod host;
mod pipeline;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;
mod verify;

use report::Report;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = [
    "explore-cold",
    "verify-catalog",
    "pipeline-s8",
    "serve-closed",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, seed: u64, seconds: u64, trace: bool, report: &mut Report) {
    match name {
        "explore-cold" => explore::run(seed, seconds, trace, report),
        "verify-catalog" => verify::run(seed, seconds, trace, report),
        "pipeline-s8" => pipeline::run(seed, seconds, trace, report),
        "serve-closed" => serve::run(seed, seconds, trace, report),
        other => unreachable!("unknown workload {other}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let steal_start = host::steal_seconds();
    let reference_start = host::reference_ms();
    let mut report = Report::default();
    if args.trace {
        // Every layer's metrics, each from its home workload's seeded
        // inputs, so every traced run reports the full set. They come first:
        // the explore probe's memory figure needs a heap no earlier build
        // has grown.
        explore::layers(args.seed, &mut report);
        verify::layers(args.seed, &mut report);
        pipeline::layers(args.seed, &mut report);
        serve::layers(args.seed, &mut report);
    }
    run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &mut report,
    );
    let steal_s = host::steal_seconds() - steal_start;
    let reference_end = host::reference_ms();
    let nproc = host::nproc();
    println!(
        "{{\"noise\": {{\"workload\": \"{}\", \"seed\": {}, \"steal_s\": {steal_s:?}, \"nproc\": {nproc}, \"reference_ms\": [{reference_start:?}, {reference_end:?}]}}}}",
        args.workload, args.seed
    );
    report.print();
    ExitCode::SUCCESS
}
