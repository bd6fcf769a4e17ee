//! `scaling_smoke` — multi-core scaling check for the nested dispute
//! pipeline, built for the CI `bench-multicore` lane.
//!
//! Embeds a deterministic watermarked model, assembles a docket of genuine
//! and forged claims, and resolves it through
//! `DisputeService::resolve_many` — the two-level (dispute × batch-shard)
//! fan-out — at each requested worker-pool size. **Each width runs in its
//! own child process whose global pool is sized to exactly that width**
//! (a process can size its pool only once, and an `install`-style scoped
//! limit on a wider pool would bound split counts, not the threads doing
//! the work — the child-per-width design makes every row a true pool
//! size, the same thing `serve_judge --workers` configures). For every
//! width the child reports best-of-`--samples` wall time plus a
//! fingerprint of the full verdict vector; the parent asserts all
//! fingerprints are **bit-identical**, computes speedups against the
//! always-included 1-worker (strictly serial) run, and writes a JSON
//! artifact.
//!
//! ```text
//! scaling_smoke [--workers 1,2,4] [--claims N] [--samples N]
//!               [--out PATH] [--enforce-speedup X.Y]
//! ```
//!
//! The fixture is [`wdte_bench::smoke`]'s with its own seed and heavy
//! decoy batches, so every run measures the identical workload.
//!
//! Exit codes: `2` = bit-identity violation (always fatal), `3` = the
//! widest run fell below the `--enforce-speedup` floor (CI passes a
//! generous `0.85` so noisy runners don't flake). Without it, timings are
//! informational — useful on single-core hosts where the expected
//! speedup is exactly 1.0.

use std::process::ExitCode;
use std::time::{Duration, Instant};
use wdte_bench::smoke::{self, Fixture};
use wdte_core::{Dispute, DisputeService, BATCH_SHARD_ROWS};

struct Args {
    workers: Vec<usize>,
    claims: usize,
    samples: usize,
    out: String,
    enforce_speedup: Option<f64>,
    /// Hidden child mode: measure exactly one pool width and print a
    /// machine-readable result line.
    bench_one: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workers: vec![1, 2, 4],
        claims: 48,
        samples: 5,
        out: "target/bench-results/scaling_smoke.json".to_string(),
        enforce_speedup: None,
        bench_one: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workers" => {
                args.workers = value("--workers")?
                    .split(',')
                    .map(|w| w.trim().parse::<usize>().map_err(|e| format!("--workers: {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
                if args.workers.is_empty() || args.workers.contains(&0) {
                    return Err("--workers needs a comma-separated list of positive counts".into());
                }
            }
            "--claims" => {
                args.claims = value("--claims")?.parse().map_err(|e| format!("--claims: {e}"))?;
                if args.claims < 2 {
                    return Err("--claims must be at least 2".into());
                }
            }
            "--samples" => {
                args.samples = value("--samples")?.parse().map_err(|e| format!("--samples: {e}"))?;
                if args.samples == 0 {
                    return Err("--samples must be at least 1".into());
                }
            }
            "--out" => args.out = value("--out")?,
            "--enforce-speedup" => {
                args.enforce_speedup = Some(
                    value("--enforce-speedup")?
                        .parse()
                        .map_err(|e| format!("--enforce-speedup: {e}"))?,
                )
            }
            "--bench-one" => {
                args.bench_one =
                    Some(value("--bench-one")?.parse().map_err(|e| format!("--bench-one: {e}"))?)
            }
            "--help" | "-h" => {
                println!(
                    "usage: scaling_smoke [--workers 1,2,4] [--claims N] [--samples N] \
                     [--out PATH] [--enforce-speedup X.Y]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// One measured width: true pool size, best wall time, throughput and the
/// verdict-vector fingerprint its child process reported.
struct Measurement {
    workers: usize,
    best: Duration,
    claims_per_sec: f64,
    fingerprint: u64,
}

/// The fixture at `claims` disputes, served by an in-process judge. Its
/// heavy decoy draw makes each claim's verification batch
/// deployment-sized (thousands of disguised queries), so each dispute
/// splits into several [`BATCH_SHARD_ROWS`]-row shard jobs: the real
/// inner fan-out this binary exists to measure.
fn build_docket(claims: usize) -> Result<(DisputeService, Vec<Dispute>), String> {
    let fixture = Fixture::embed(0x5CA1E, 0.8, Some(8.0))?;
    let ids = ["scaling-deployment".to_string()];
    Ok((fixture.service(&ids)?, fixture.docket(claims, &ids, false)))
}

/// Child mode: size the global pool to exactly `width`, run the fixture,
/// and print one machine-readable result line for the parent.
fn bench_one(width: usize, args: &Args) -> ExitCode {
    if let Err(err) = rayon::ThreadPoolBuilder::new().num_threads(width).build_global() {
        eprintln!("scaling_smoke: could not size the global pool to {width}: {err}");
        return ExitCode::FAILURE;
    }
    let (service, docket) = match build_docket(args.claims) {
        Ok(built) => built,
        Err(message) => {
            eprintln!("scaling_smoke: {message}");
            return ExitCode::FAILURE;
        }
    };
    // Warm-up run doubles as the fingerprint source.
    let verdicts = service.resolve_many(&docket);
    if let Err(message) = smoke::check_split(&verdicts) {
        eprintln!("scaling_smoke: {message}");
        return ExitCode::FAILURE;
    }
    let mut best = Duration::MAX;
    for _ in 0..args.samples {
        let start = Instant::now();
        let timed = service.resolve_many(&docket);
        let elapsed = start.elapsed();
        std::hint::black_box(&timed);
        best = best.min(elapsed);
    }
    println!(
        "bench-one width={width} best_ns={} fingerprint={:016x}",
        best.as_nanos(),
        smoke::fingerprint(&verdicts)
    );
    ExitCode::SUCCESS
}

/// Spawns this binary back on itself in `--bench-one` mode and parses the
/// child's result line.
fn measure_width(width: usize, args: &Args) -> Result<Measurement, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(&exe)
        .arg("--bench-one")
        .arg(width.to_string())
        .arg("--claims")
        .arg(args.claims.to_string())
        .arg("--samples")
        .arg(args.samples.to_string())
        .output()
        .map_err(|e| format!("spawning the width-{width} child: {e}"))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !stderr.is_empty() {
        eprint!("{stderr}");
    }
    if !output.status.success() {
        return Err(format!("width-{width} child failed with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("bench-one "))
        .ok_or_else(|| format!("width-{width} child printed no result line:\n{stdout}"))?;
    let mut best_ns: Option<u128> = None;
    let mut fp: Option<u64> = None;
    for token in line.split_whitespace() {
        if let Some(v) = token.strip_prefix("best_ns=") {
            best_ns = v.parse().ok();
        } else if let Some(v) = token.strip_prefix("fingerprint=") {
            fp = u64::from_str_radix(v, 16).ok();
        }
    }
    let (Some(best_ns), Some(fp)) = (best_ns, fp) else {
        return Err(format!("width-{width} child result line is malformed: {line}"));
    };
    let best = Duration::from_nanos(best_ns as u64);
    Ok(Measurement {
        workers: width,
        best,
        claims_per_sec: args.claims as f64 / best.as_secs_f64(),
        fingerprint: fp,
    })
}

fn json_artifact(args: &Args, host_cores: usize, rows: &[Measurement]) -> String {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!("  \"claims\": {},\n", args.claims));
    json.push_str(&format!("  \"shard_rows\": {BATCH_SHARD_ROWS},\n"));
    json.push_str(&format!("  \"samples_per_width\": {},\n", args.samples));
    json.push_str("  \"pipeline\": \"resolve_many: disputes x batch shards (nested pool jobs)\",\n");
    json.push_str(
        "  \"measurement\": \"one child process per width; global pool sized to exactly that width\",\n",
    );
    json.push_str("  \"widths\": [\n");
    // Rows are sorted and always include width 1 (the strictly serial
    // baseline), so rows[0] is the true serial reference.
    let baseline = rows[0].best.as_secs_f64();
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"workers\": {}, \"best_ns\": {}, \"claims_per_sec\": {:.0}, \
             \"speedup_vs_1\": {:.3} }}{}\n",
            row.workers,
            row.best.as_nanos(),
            row.claims_per_sec,
            baseline / row.best.as_secs_f64(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("scaling_smoke: {message}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(width) = args.bench_one {
        return bench_one(width, &args);
    }

    // Width 1 is always measured: it is both the bit-identity reference
    // and the denominator of every speedup (including the enforced one).
    let mut widths = args.workers.clone();
    widths.push(1);
    widths.sort_unstable();
    widths.dedup();

    let host_cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    println!(
        "scaling_smoke: {} claims x {} widths on a {host_cores}-core host \
         (one child process per width)",
        args.claims,
        widths.len()
    );

    let mut rows: Vec<Measurement> = Vec::with_capacity(widths.len());
    for &width in &widths {
        match measure_width(width, &args) {
            Ok(row) => {
                println!(
                    "  {} workers: best {:?} over {} samples = {:.0} claims/s",
                    row.workers, row.best, args.samples, row.claims_per_sec
                );
                rows.push(row);
            }
            Err(message) => {
                eprintln!("scaling_smoke: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    for row in &rows[1..] {
        if row.fingerprint != rows[0].fingerprint {
            eprintln!(
                "scaling_smoke: BIT-IDENTITY VIOLATION at {} workers: verdict fingerprint \
                 {:016x} differs from the serial reference {:016x}",
                row.workers, row.fingerprint, rows[0].fingerprint
            );
            return ExitCode::from(2);
        }
    }

    let widest = rows.last().expect("at least width 1 was measured");
    let speedup = rows[0].best.as_secs_f64() / widest.best.as_secs_f64();
    println!(
        "scaling_smoke: speedup at {} workers vs 1 = {speedup:.2}x",
        widest.workers
    );

    let artifact = json_artifact(&args, host_cores, &rows);
    let path = std::path::Path::new(&args.out);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(path, &artifact) {
        Ok(()) => println!("scaling_smoke: wrote {}", path.display()),
        Err(err) => {
            eprintln!("scaling_smoke: could not write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    }

    if let Some(min) = args.enforce_speedup {
        if speedup < min {
            eprintln!(
                "scaling_smoke: FAIL: speedup {speedup:.2}x at {} workers is below the \
                 {min:.2}x floor — the nested pipeline is running slower with more workers",
                widest.workers
            );
            return ExitCode::from(3);
        }
    }
    println!("scaling_smoke: PASS (all widths bit-identical to the serial reference)");
    ExitCode::SUCCESS
}
