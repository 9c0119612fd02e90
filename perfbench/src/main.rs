//! The alic benchmark: three workloads run against the real binaries and the
//! public library entry points, each measured end to end (untraced) or split
//! into layers (traced). See `README.md` next to this crate.
//!
//! ```text
//! alic-perfbench --workload learner_paper|campaign_laptop|serve_session
//!                --seed N --seconds S --trace 0|1 --work-dir DIR [--serve-bin PATH]
//! ```
//!
//! Progress and diagnostics go to stdout and stderr; the last stdout line is
//! the result object `{"correct", "attempted", "failed", "metrics"}`. The
//! exit code is non-zero when any output check failed.

mod campaign;
mod layers;
mod learner;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;

use report::Outcome;
use trace::Tracer;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Disk-backed scratch directory for ledgers, checkpoints and traces.
    pub work_dir: PathBuf,
    pub serve_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut serve_bin = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs a u64")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work_dir: work_dir.ok_or("--work-dir is required")?,
        serve_bin,
    })
}

/// Writes the traced run's spans under the work directory.
pub fn write_trace(args: &Args, tracers: &[(&str, &Tracer)]) {
    for (label, tracer) in tracers {
        let path = args.work_dir.join(format!(
            "trace-{}-seed{}-{label}.json",
            args.workload, args.seed
        ));
        match tracer.write_json(&path) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("alic-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!(
            "alic-perfbench: cannot create {}: {e}",
            args.work_dir.display()
        );
        std::process::exit(2);
    }
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rayon::current_num_threads()
    );
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "learner_paper" => learner::run(&args, &mut out),
        "campaign_laptop" => campaign::run(&args, &mut out),
        "serve_session" => serve::run(&args, &mut out),
        other => {
            eprintln!("alic-perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    }
    println!("{}", out.to_json());
    if !out.correct() {
        std::process::exit(1);
    }
}
