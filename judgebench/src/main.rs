//! `judgebench` — the watermark judge's benchmark.
//!
//! ```text
//! judgebench --workload NAME --seed N --seconds S --trace 0|1
//!            --rates dispute-distinct=R,dispute-repeat=R,fleet-repeat=R,embed-register=R
//! ```
//!
//! Runs one workload against in-process judges on loopback (WDTP v4 auth
//! on, one secret per tenant), checks every served verdict against the
//! in-process reference, and prints as its last line one JSON object:
//! `{"correct": true, "attempted": N, "failed": N, "metrics": {...}}`.
//! With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones from a traced run. `--rates` gives each workload's
//! open-loop rate in dockets per second. Exit code 2 means a served
//! verdict was wrong; 1 that the harness failed; 64 a usage error.

mod context;
mod fixture;
mod layers;
mod stats;
mod trace;
mod wire;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::{json_string, metrics_json};
use workload::{Failure, RunConfig, Workload, SETUP_REPEATS};

fn parse_args(args: impl Iterator<Item = String>) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rates = None;
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--rates" => rates = Some(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let rates = rates.ok_or("--rates is required")?;
    let rate = rates
        .split(',')
        .filter_map(|pair| pair.split_once('='))
        .find(|(name, _)| *name == workload.name())
        .ok_or_else(|| format!("--rates names no rate for {}", workload.name()))?
        .1
        .parse::<f64>()
        .map_err(|e| format!("--rates: {e}"))?;
    if rate.is_nan() || rate <= 0.0 {
        return Err("rates must be positive".into());
    }
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        rate,
        setup_repeats: SETUP_REPEATS,
        conns: std::thread::available_parallelism().map_or(1, usize::from),
        corrupt_reference: false,
        out_dir: PathBuf::from(".bench_out"),
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(message) => {
            eprintln!("judgebench: {message}");
            return ExitCode::from(64);
        }
    };
    // The judges' pool is sized to the core count, as `serve_judge
    // --workers` would size it.
    if let Err(err) = rayon::ThreadPoolBuilder::new().num_threads(cfg.conns).build_global() {
        eprintln!("judgebench: sizing the pool: {err}");
        return ExitCode::FAILURE;
    }
    match workload::run(&cfg) {
        Ok(out) => {
            for line in &out.report {
                println!("# {line}");
            }
            let context: Vec<String> = out
                .context
                .iter()
                .map(|(key, value)| format!("{}: {value}", json_string(key)))
                .collect();
            println!("{{\"context\": {{{}}}}}", context.join(", "));
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                out.attempted,
                out.failed,
                metrics_json(&out.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(Failure::Correctness(message)) => {
            eprintln!("judgebench: CORRECTNESS VIOLATION: {message}");
            ExitCode::from(2)
        }
        Err(Failure::Harness(message)) => {
            eprintln!("judgebench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload) -> RunConfig {
        RunConfig {
            workload,
            seed: 7,
            seconds: 0.6,
            trace: false,
            rate: 100.0,
            setup_repeats: 1,
            conns: 2,
            corrupt_reference: false,
            out_dir: PathBuf::from(".bench_out"),
        }
    }

    #[test]
    fn a_correct_run_passes_the_gate() {
        let out = workload::run(&tiny(Workload::DisputeRepeat)).expect("an honest run passes");
        assert!(out.attempted > 0);
        assert_eq!(out.failed, 0);
        assert!(out.metrics["claims_per_s"].value > 0.0);
    }

    #[test]
    fn a_corrupted_reference_verdict_fails_the_run() {
        for workload in [Workload::DisputeDistinct, Workload::DisputeRepeat] {
            let cfg = RunConfig {
                corrupt_reference: true,
                ..tiny(workload)
            };
            match workload::run(&cfg) {
                Err(Failure::Correctness(_)) => {}
                Err(Failure::Harness(message)) => panic!("harness failure instead: {message}"),
                Ok(_) => panic!("a corrupted reference verdict must fail {}", workload.name()),
            }
        }
    }

    #[test]
    fn arguments_parse() {
        let args = [
            "--workload",
            "fleet-repeat",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]
        .into_iter()
        .chain(["--rates", "dispute-distinct=1,fleet-repeat=250.5"])
        .map(String::from);
        let cfg = parse_args(args).unwrap();
        assert_eq!(cfg.workload, Workload::FleetRepeat);
        assert_eq!(cfg.rate, 250.5);
        assert!(cfg.trace);
        let missing = [
            "--workload",
            "embed-register",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ]
        .into_iter()
        .chain(["--rates", "dispute-distinct=1"])
        .map(String::from);
        assert!(parse_args(missing).is_err());
    }
}
