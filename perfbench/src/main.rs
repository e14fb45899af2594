//! Seeded end-to-end and per-layer benchmark of the sketch library and
//! its serving stack. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --hmh PATH
//! ```
//!
//! Prints one JSON object as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero, printing no result, when any output of
//! the system differs from the model of it.

mod daemon;
mod docs;
mod layers;
mod load;
mod plan;
mod report;
mod rng;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Metrics;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// The release `hmh` binary.
    hmh: PathBuf,
    /// Scratch directory for stores; removed at exit.
    work: PathBuf,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace, mut hmh) =
            (None, None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))? != 0),
                "--hmh" => hmh = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        let seed = seed.ok_or("--seed is required")?;
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds {seconds} is out of 0..=120"));
        }
        let work = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
        Ok(Self {
            workload,
            seed,
            seconds,
            trace: trace.unwrap_or(false),
            hmh: hmh.ok_or("--hmh is required")?,
            work,
        })
    }
}

pub struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let trace_file =
        PathBuf::from(".perfbench-trace").join(format!("{}-seed{}.tsv", args.workload, args.seed));
    if args.workload == "sketch-docs" {
        return if args.trace {
            docs::run_traced(args.seed, args.seconds, &trace_file)
        } else {
            docs::run(args.seed, args.seconds)
        };
    }
    let spec = [&plan::SERVE_READ, &plan::ROUTED]
        .into_iter()
        .find(|spec| spec.name == args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    if !args.hmh.is_file() {
        return Err(format!("no hmh binary at {}", args.hmh.display()));
    }
    std::fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
    if args.trace {
        serve::run_traced(spec, args, &trace_file)
    } else {
        serve::run(spec, args)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args);
    if args.work.exists() {
        let _ = std::fs::remove_dir_all(&args.work);
        let _ = std::fs::remove_dir(".perfbench-work");
    }
    match result {
        Ok(out) => {
            println!("{}", out.metrics.to_json(out.attempted, out.failed));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
