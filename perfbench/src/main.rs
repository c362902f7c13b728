//! `omega-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--out <dir>] [--rev <text>]`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The line before it records the host: `nproc`, the OS
//! thread counts, the simulated thread count, the seed and the source
//! revision.

use omega_perfbench::{host_json, result_json, run_workload, RunOpts, Size};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: omega-perfbench --workload embed_twin|serve_exact|plane_ivf \
--seed N --seconds S --trace 0|1 [--out DIR] [--rev TEXT]";

fn run(args: &[String]) -> Result<(), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = None;
    let mut rev = String::from("unknown");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--out" => out_dir = Some(PathBuf::from(value()?)),
            "--rev" => rev = value()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let opts = RunOpts {
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        size: Size::Full,
        out_dir,
    };

    let out = run_workload(&workload, &opts)?;
    for failure in &out.checks.failed {
        eprintln!("check failed: {failure}");
    }
    println!("host {}", host_json(&workload, &opts, &out, &rev));
    println!("{}", result_json(&out, opts.trace)?);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
