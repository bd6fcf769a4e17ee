//! `serve_judge` — the judge as a standalone process.
//!
//! Binds a TCP socket, optionally warm-starts the model registry from a
//! directory of persisted artefacts (`results/models/` as written by the
//! `table2` experiment), and serves the WDTP dispute-resolution protocol
//! until killed.
//!
//! ```text
//! serve_judge [--addr 127.0.0.1:7431] [--warm-start DIR]...
//!             [--port-file PATH] [--max-docket N]
//!             [--workers N] [--max-connections N] [--max-pipeline N]
//!             [--claim-cache-mb N] [--key-file PATH]
//!             [--quota-models N] [--quota-claim-mb N]
//!             [--quota-in-flight N] [--stats-interval-secs N]
//! ```
//!
//! `--addr 127.0.0.1:0` binds an ephemeral port; `--port-file` writes the
//! actually-bound address to a file once listening, so scripts (the CI
//! smoke job) can discover it race-free.
//!
//! The judge speaks WDTP v5: every connection may pipeline requests (up
//! to `--max-pipeline` in flight each; `0` = unbounded) and claims are
//! content-addressed — bodies travel once and later dockets reference
//! them by digest against a bounded claim cache (`--claim-cache-mb`, `0`
//! = unbounded). One readiness-driven thread owns every socket, so
//! `--max-connections` (`0` = unlimited) bounds descriptors, not threads.
//!
//! `--key-file PATH` turns on multi-tenant authentication: one
//! `tenant:secret` line per tenant (`#` comments and blank lines are
//! skipped), and every frame must then carry a valid HMAC-SHA-256 tag and
//! a strictly increasing per-connection sequence. Each tenant sees only
//! its own models, claims and stats. Without the flag the judge is open:
//! auth fields are ignored and everything runs as the anonymous tenant.
//!
//! The `--quota-*` flags cap each tenant's models, attributed
//! claim-cache bytes and in-flight requests (`0` = unlimited); docket
//! size has the one cap `--max-docket`, which applies to every tenant.
//! `--stats-interval-secs` logs one per-tenant accounting line at that
//! cadence (`0` = never).
//!
//! `--workers N` sizes the one process-global work-stealing pool every
//! connection shares (`0` = one worker per core) and is also installed as
//! each request's fan-out width limit. The limit bounds how finely one
//! request *splits*, not how many workers it may occupy — a large docket
//! can still keep the whole pool busy while it runs; fairness between
//! connections comes from work stealing's fine task granularity, and
//! admission control from `--max-connections` / `--max-docket`.
//!
//! ## Router mode
//!
//! `--router --backends HOST:PORT,HOST:PORT,...` serves the *fleet
//! router* instead of a judge: requests are consistent-hashed by
//! `(tenant, model id)` across the listed backend judges, dockets are
//! split into per-backend shards and stitched back in input order, and
//! a dead backend degrades to bounded sibling retry
//! (`--retry-siblings`) or typed faults. The backends are started
//! separately, as ordinary judges. `--ring-replicas` sets the virtual
//! points per backend and `--health-interval-secs` the cadence of the
//! TCP health probe. The same `--key-file` both verifies client frames
//! at the router and signs the router's requests towards the backends.
//!
//! A flag the chosen mode would ignore is refused: the judge-only flags
//! (`--warm-start`, `--max-docket`, `--workers`, `--max-connections`,
//! `--max-pipeline`, `--claim-cache-mb`, `--quota-*`,
//! `--stats-interval-secs`) under `--router`, and the router-only flags
//! (`--backends`, `--ring-replicas`, `--retry-siblings`,
//! `--health-interval-secs`) without it.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use wdte_core::{DisputeService, KeyRing, TenantQuotas};
use wdte_server::{JudgeRouter, JudgeServer, RouterConfig, ServerConfig};

struct Args {
    addr: String,
    warm_start: Vec<String>,
    port_file: Option<String>,
    max_docket: Option<usize>,
    workers: usize,
    max_connections: usize,
    max_pipeline: Option<usize>,
    claim_cache_bytes: Option<usize>,
    read_timeout_secs: Option<u64>,
    key_file: Option<String>,
    quotas: TenantQuotas,
    stats_interval_secs: u64,
    router: bool,
    backends: Vec<String>,
    ring_replicas: usize,
    retry_siblings: usize,
    health_interval_secs: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7431".to_string(),
        warm_start: Vec::new(),
        port_file: None,
        max_docket: None,
        workers: 0,
        max_connections: 64,
        max_pipeline: None,
        claim_cache_bytes: None,
        read_timeout_secs: None,
        key_file: None,
        quotas: TenantQuotas::default(),
        stats_interval_secs: 60,
        router: false,
        backends: Vec::new(),
        ring_replicas: RouterConfig::default().ring_replicas,
        retry_siblings: 1,
        health_interval_secs: 1,
    };
    let mut given = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--warm-start" => args.warm_start.push(value("--warm-start")?),
            "--port-file" => args.port_file = Some(value("--port-file")?),
            "--max-docket" => {
                args.max_docket =
                    Some(value("--max-docket")?.parse().map_err(|e| format!("--max-docket: {e}"))?)
            }
            "--workers" => {
                args.workers = value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--max-connections" => {
                args.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?
            }
            "--max-pipeline" => {
                args.max_pipeline =
                    Some(value("--max-pipeline")?.parse().map_err(|e| format!("--max-pipeline: {e}"))?)
            }
            "--claim-cache-mb" => {
                args.claim_cache_bytes =
                    Some(mib_to_bytes("--claim-cache-mb", &value("--claim-cache-mb")?)?)
            }
            "--read-timeout-secs" => {
                args.read_timeout_secs = Some(
                    value("--read-timeout-secs")?
                        .parse()
                        .map_err(|e| format!("--read-timeout-secs: {e}"))?,
                )
            }
            "--key-file" => args.key_file = Some(value("--key-file")?),
            "--quota-models" => {
                args.quotas.max_models =
                    value("--quota-models")?.parse().map_err(|e| format!("--quota-models: {e}"))?
            }
            "--quota-claim-mb" => {
                args.quotas.max_claim_bytes =
                    mib_to_bytes("--quota-claim-mb", &value("--quota-claim-mb")?)?
            }
            "--quota-in-flight" => {
                args.quotas.max_in_flight = value("--quota-in-flight")?
                    .parse()
                    .map_err(|e| format!("--quota-in-flight: {e}"))?
            }
            "--stats-interval-secs" => {
                args.stats_interval_secs = value("--stats-interval-secs")?
                    .parse()
                    .map_err(|e| format!("--stats-interval-secs: {e}"))?
            }
            "--router" => args.router = true,
            "--backends" => args
                .backends
                .extend(value("--backends")?.split(',').map(|s| s.trim().to_string())),
            "--ring-replicas" => {
                args.ring_replicas =
                    value("--ring-replicas")?.parse().map_err(|e| format!("--ring-replicas: {e}"))?
            }
            "--retry-siblings" => {
                args.retry_siblings = value("--retry-siblings")?
                    .parse()
                    .map_err(|e| format!("--retry-siblings: {e}"))?
            }
            "--health-interval-secs" => {
                args.health_interval_secs = value("--health-interval-secs")?
                    .parse()
                    .map_err(|e| format!("--health-interval-secs: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: serve_judge [--addr HOST:PORT] [--warm-start DIR]... \
                     [--port-file PATH] [--max-docket N] \
                     [--workers N (shared pool size; 0 = one per core)] \
                     [--max-connections N (0 = unlimited)] \
                     [--max-pipeline N (in-flight requests per connection; 0 = unbounded)] \
                     [--claim-cache-mb N (content-addressed claim cache; 0 = unbounded)] \
                     [--read-timeout-secs N (0 = never)] \
                     [--key-file PATH (tenant:secret lines; enables authentication)] \
                     [--quota-models N] [--quota-claim-mb N] \
                     [--quota-in-flight N (all quotas per tenant; 0 = unlimited)] \
                     [--stats-interval-secs N (per-tenant accounting log; 0 = never)] \
                     [--router (serve the fleet router instead of a judge)] \
                     [--backends HOST:PORT,... (router backends, comma-separated)] \
                     [--ring-replicas N (virtual ring points per backend)] \
                     [--retry-siblings N (failover attempts beyond the home backend)] \
                     [--health-interval-secs N (backend TCP probe cadence)]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        given.push(flag);
    }
    let (ignored, refusal) = if args.router {
        (JUDGE_FLAGS, "has no effect under --router")
    } else {
        (ROUTER_FLAGS, "needs --router")
    };
    match given.iter().find(|flag| ignored.contains(&flag.as_str())) {
        Some(flag) => Err(format!("{flag} {refusal}")),
        None => Ok(args),
    }
}

/// Flags only a judge reads; the router refuses them.
const JUDGE_FLAGS: &[&str] = &[
    "--warm-start",
    "--max-docket",
    "--workers",
    "--max-connections",
    "--max-pipeline",
    "--claim-cache-mb",
    "--quota-models",
    "--quota-claim-mb",
    "--quota-in-flight",
    "--stats-interval-secs",
];

/// Flags only the router reads; a judge refuses them.
const ROUTER_FLAGS: &[&str] = &[
    "--backends",
    "--ring-replicas",
    "--retry-siblings",
    "--health-interval-secs",
];

/// Parses a MiB count into bytes. An overflow is refused: wrapping would
/// turn a huge budget into 0, which every MiB flag reads as "no limit".
fn mib_to_bytes(flag: &str, text: &str) -> Result<usize, String> {
    let mb: usize = text.parse().map_err(|e| format!("{flag}: {e}"))?;
    mb.checked_mul(1 << 20)
        .ok_or_else(|| format!("{flag}: {mb} MiB overflows a byte count"))
}

/// Serves the fleet router: health-checked consistent-hash routing of
/// WDTP requests across the configured backends.
fn run_router(args: Args, key_ring: Option<Arc<KeyRing>>) -> ExitCode {
    if args.backends.is_empty() {
        eprintln!("serve_judge: --router needs --backends");
        return ExitCode::FAILURE;
    }
    let mut config = RouterConfig {
        backends: args.backends.clone(),
        ring_replicas: args.ring_replicas,
        retry_siblings: args.retry_siblings,
        health_interval: Duration::from_secs(args.health_interval_secs.max(1)),
        key_ring: key_ring.clone(),
        ..RouterConfig::default()
    };
    if let Some(secs) = args.read_timeout_secs {
        config.read_timeout = (secs > 0).then(|| Duration::from_secs(secs));
    }
    let router = match JudgeRouter::bind(args.addr.as_str(), config) {
        Ok(router) => router,
        Err(err) => {
            eprintln!("serve_judge: {err}");
            return ExitCode::FAILURE;
        }
    };
    let addr = router.local_addr();
    let auth = match &key_ring {
        Some(ring) => format!("authenticated, {} tenants", ring.len()),
        None => "open".to_string(),
    };
    println!(
        "serve_judge router listening on {addr} (backends [{}], protocol v{}, {auth})",
        args.backends.join(", "),
        wdte_core::PROTOCOL_VERSION,
    );
    if let Some(path) = &args.port_file {
        let tmp = format!("{path}.tmp");
        let write = std::fs::write(&tmp, addr.to_string()).and_then(|()| std::fs::rename(&tmp, path));
        if let Err(err) = write {
            eprintln!("serve_judge: could not write --port-file {path}: {err}");
            return ExitCode::FAILURE;
        }
    }
    match router.serve() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("serve_judge: {err}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("serve_judge: {message}");
            return ExitCode::FAILURE;
        }
    };

    // `--workers` sizes the one process-global work-stealing pool every
    // connection shares (0 = one worker per core). Sized before any
    // parallel work — warm-start compilation included — so the pool can
    // never lazily self-size first.
    if let Err(err) = rayon::ThreadPoolBuilder::new().num_threads(args.workers).build_global() {
        eprintln!("serve_judge: could not size the global worker pool: {err}");
        return ExitCode::FAILURE;
    }

    let key_ring = match &args.key_file {
        Some(path) => match KeyRing::load(std::path::Path::new(path)) {
            Ok(ring) if ring.is_empty() => {
                eprintln!("serve_judge: key file {path} enrolls no tenants");
                return ExitCode::FAILURE;
            }
            Ok(ring) => Some(Arc::new(ring)),
            Err(err) => {
                eprintln!("serve_judge: could not load --key-file {path}: {err}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    if args.router {
        return run_router(args, key_ring);
    }

    let mut builder = DisputeService::builder().tenant_quotas(args.quotas);
    if let Some(bytes) = args.claim_cache_bytes {
        // 0 disables the budget (unbounded cache) by the same convention
        // as the other limits.
        builder = builder.claim_cache_bytes(bytes);
    }
    if let Some(max) = args.max_docket {
        builder = builder.max_docket(max);
    }
    for dir in &args.warm_start {
        builder = builder.warm_start_dir(dir);
    }
    let service = match builder.build() {
        Ok(service) => Arc::new(service),
        Err(err) => {
            eprintln!("serve_judge: could not build the dispute service: {err}");
            return ExitCode::FAILURE;
        }
    };
    let warm = service.len();

    let mut config = ServerConfig {
        max_connections: args.max_connections,
        worker_threads: args.workers,
        key_ring: key_ring.clone(),
        ..ServerConfig::default()
    };
    if let Some(depth) = args.max_pipeline {
        config.max_pipeline = depth;
    }
    if let Some(secs) = args.read_timeout_secs {
        // 0 disables idle reaping entirely (trusted networks only).
        config.read_timeout = (secs > 0).then(|| std::time::Duration::from_secs(secs));
    }
    let server = match JudgeServer::bind(args.addr.as_str(), Arc::clone(&service), config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("serve_judge: {err}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    let auth = match &key_ring {
        Some(ring) => format!("authenticated, {} tenants", ring.len()),
        None => "open".to_string(),
    };
    println!(
        "serve_judge listening on {addr} (protocol v{}, {warm} models warm-started, \
         {} shared pool workers, {} kernel, {auth})",
        wdte_core::PROTOCOL_VERSION,
        rayon::current_num_threads(),
        service.kernel()
    );
    if args.stats_interval_secs > 0 {
        // Periodic per-tenant accounting line. The thread holds its own
        // Arc and dies with the process; a judge with no traffic yet
        // prints nothing rather than an empty line.
        let stats_service = Arc::clone(&service);
        let interval = std::time::Duration::from_secs(args.stats_interval_secs);
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            let rows = stats_service.stats_all();
            if rows.is_empty() {
                continue;
            }
            let summary: Vec<String> = rows
                .iter()
                .map(|row| {
                    format!(
                        "{}: models={} dockets={} claims={} hits={} misses={} \
                         auth_failures={} claim_bytes={} in_flight={}",
                        row.tenant,
                        row.models,
                        row.dockets,
                        row.claims,
                        row.cache_hits,
                        row.cache_misses,
                        row.auth_failures,
                        row.claim_bytes,
                        row.in_flight
                    )
                })
                .collect();
            println!("serve_judge stats [{}]", summary.join(" | "));
        });
    }
    if let Some(path) = &args.port_file {
        // Write-then-rename so a watcher never reads a half-written file.
        let tmp = format!("{path}.tmp");
        let write = std::fs::write(&tmp, addr.to_string()).and_then(|()| std::fs::rename(&tmp, path));
        if let Err(err) = write {
            eprintln!("serve_judge: could not write --port-file {path}: {err}");
            return ExitCode::FAILURE;
        }
    }
    match server.serve() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("serve_judge: {err}");
            ExitCode::FAILURE
        }
    }
}
