//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path nocbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload through the simulator's public API, checks its
//! outputs, and prints as the last line of standard output one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, from a replay of the engine loop timed from outside.
//! The line before it carries the run's host-independent work counts. Any
//! failed check makes the exit code 1. `README.md` beside this file lists
//! the workloads, the metrics and what each layer metric should move.

mod measure;
mod stats;
mod trace;
mod workloads;

use measure::Report;
use std::process::ExitCode;
use workloads::Plan;

const USAGE: &str = "usage: nocbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace))
            if seconds.is_finite() && seconds > 0.0 =>
        {
            Ok(Args {
                workload,
                seed,
                seconds,
                trace,
            })
        }
        _ => Err(USAGE.to_string()),
    }
}

/// A JSON number; non-finite values (never expected) print as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn work_line(workload: &str, seed: u64, r: &Report) -> String {
    let work: Vec<String> = r
        .work
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"work\": {{{}}}}}",
        work.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let Some(plan) = Plan::named(&args.workload) else {
        eprintln!(
            "unknown workload {}; one of be_uniform_16x16, shmem_rw_4x4, \
             hotspot_16x16_shard2_par, gt_ff_16x16",
            args.workload
        );
        return ExitCode::from(2);
    };
    let report = if args.trace {
        measure::traced(&plan, args.seed, args.seconds)
    } else {
        measure::untraced(&plan, args.seed, args.seconds)
    };
    let mut failures = report.failures.clone();
    failures.dedup();
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", work_line(&args.workload, args.seed, &report));
    println!("{}", result_line(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
