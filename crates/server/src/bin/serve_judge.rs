//! `serve_judge` — the judge as a standalone process.
//!
//! Binds a TCP socket, optionally warm-starts the model registry from a
//! directory of persisted artefacts (`results/models/` as written by the
//! `table2` experiment), and serves the WDTP dispute-resolution protocol
//! until killed.
//!
//! ```text
//! serve_judge [--addr 127.0.0.1:7431] [--warm-start DIR]...
//!             [--port-file PATH] [--max-docket N] [--shard-rows N]
//!             [--workers N] [--max-connections N] [--max-pipeline N]
//!             [--claim-cache-mb N] [--model-cache-mb N] [--key-file PATH]
//!             [--quota-models N] [--quota-docket N]
//!             [--quota-claim-mb N] [--quota-in-flight N]
//!             [--stats-interval-secs N]
//! ```
//!
//! `--addr 127.0.0.1:0` binds an ephemeral port; `--port-file` writes the
//! actually-bound address to a file once listening, so scripts (the CI
//! smoke job) can discover it race-free.
//!
//! The judge speaks WDTP v4: every connection may pipeline requests (up
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
//! `--model-cache-mb N` bounds the bytes of resident compiled forests;
//! over budget, the least-recently-used file-backed model is evicted and
//! transparently recompiled from its artefact on next use (warm-started
//! models are pinned). The `--quota-*` flags cap each tenant's models,
//! docket size, attributed claim-cache bytes and in-flight requests
//! (`0` = unlimited); `--stats-interval-secs` logs one per-tenant
//! accounting line at that cadence (`0` = never).
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
//! (`--retry-siblings`) or typed faults. `--spawn-backends N` launches
//! N child `serve_judge` processes on ephemeral ports (inheriting
//! `--warm-start`, `--key-file`, cache and quota flags, so
//! every backend replicates the same warm start) and routes across
//! them; the children are killed when the router exits cleanly.
//! `--ring-replicas` sets the virtual points per backend and
//! `--health-interval-secs` the cadence of the TCP health probe. The
//! same `--key-file` both verifies client frames at the router and
//! signs the router's requests towards the backends.

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
    shard_rows: Option<usize>,
    workers: usize,
    max_connections: usize,
    max_pipeline: Option<usize>,
    claim_cache_mb: Option<usize>,
    model_cache_mb: Option<usize>,
    read_timeout_secs: Option<u64>,
    key_file: Option<String>,
    quotas: TenantQuotas,
    stats_interval_secs: u64,
    router: bool,
    backends: Vec<String>,
    spawn_backends: usize,
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
        shard_rows: None,
        workers: 0,
        max_connections: 64,
        max_pipeline: None,
        claim_cache_mb: None,
        model_cache_mb: None,
        read_timeout_secs: None,
        key_file: None,
        quotas: TenantQuotas::default(),
        stats_interval_secs: 60,
        router: false,
        backends: Vec::new(),
        spawn_backends: 0,
        ring_replicas: 64,
        retry_siblings: 1,
        health_interval_secs: 1,
    };
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
            "--shard-rows" => {
                args.shard_rows =
                    Some(value("--shard-rows")?.parse().map_err(|e| format!("--shard-rows: {e}"))?)
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
                args.claim_cache_mb = Some(
                    value("--claim-cache-mb")?
                        .parse()
                        .map_err(|e| format!("--claim-cache-mb: {e}"))?,
                )
            }
            "--model-cache-mb" => {
                args.model_cache_mb = Some(
                    value("--model-cache-mb")?
                        .parse()
                        .map_err(|e| format!("--model-cache-mb: {e}"))?,
                )
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
            "--quota-docket" => {
                args.quotas.max_docket =
                    value("--quota-docket")?.parse().map_err(|e| format!("--quota-docket: {e}"))?
            }
            "--quota-claim-mb" => {
                let mb: usize = value("--quota-claim-mb")?
                    .parse()
                    .map_err(|e| format!("--quota-claim-mb: {e}"))?;
                args.quotas.max_claim_bytes = mb << 20;
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
            "--spawn-backends" => {
                args.spawn_backends = value("--spawn-backends")?
                    .parse()
                    .map_err(|e| format!("--spawn-backends: {e}"))?
            }
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
                     [--port-file PATH] [--max-docket N] [--shard-rows N] \
                     [--workers N (shared pool size; 0 = one per core)] \
                     [--max-connections N (0 = unlimited)] \
                     [--max-pipeline N (in-flight requests per connection; 0 = unbounded)] \
                     [--claim-cache-mb N (content-addressed claim cache; 0 = unbounded)] \
                     [--model-cache-mb N (resident compiled forests; 0 = unbounded)] \
                     [--read-timeout-secs N (0 = never)] \
                     [--key-file PATH (tenant:secret lines; enables authentication)] \
                     [--quota-models N] [--quota-docket N] [--quota-claim-mb N] \
                     [--quota-in-flight N (all quotas per tenant; 0 = unlimited)] \
                     [--stats-interval-secs N (per-tenant accounting log; 0 = never)] \
                     [--router (serve the fleet router instead of a judge)] \
                     [--backends HOST:PORT,... (router backends, comma-separated)] \
                     [--spawn-backends N (launch N child judges on ephemeral ports)] \
                     [--ring-replicas N (virtual ring points per backend)] \
                     [--retry-siblings N (failover attempts beyond the home backend)] \
                     [--health-interval-secs N (backend TCP probe cadence)]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Launches `count` child `serve_judge` processes on ephemeral ports,
/// inheriting the service-shaping flags so every backend replicates the
/// same warm start, and returns their bound addresses (discovered via
/// per-child `--port-file`s).
fn spawn_backends(args: &Args, count: usize) -> Result<(Vec<std::process::Child>, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|err| format!("cannot locate own binary: {err}"))?;
    let mut children = Vec::with_capacity(count);
    let mut port_files = Vec::with_capacity(count);
    for index in 0..count {
        let port_file =
            std::env::temp_dir().join(format!("wdte-fleet-{}-{index}.port", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .arg("--stats-interval-secs")
            .arg("0")
            .arg("--workers")
            .arg(args.workers.to_string());
        for dir in &args.warm_start {
            cmd.arg("--warm-start").arg(dir);
        }
        if let Some(path) = &args.key_file {
            cmd.arg("--key-file").arg(path);
        }
        if let Some(max) = args.max_docket {
            cmd.arg("--max-docket").arg(max.to_string());
        }
        if let Some(rows) = args.shard_rows {
            cmd.arg("--shard-rows").arg(rows.to_string());
        }
        if let Some(mb) = args.claim_cache_mb {
            cmd.arg("--claim-cache-mb").arg(mb.to_string());
        }
        if let Some(mb) = args.model_cache_mb {
            cmd.arg("--model-cache-mb").arg(mb.to_string());
        }
        if args.quotas.max_models > 0 {
            cmd.arg("--quota-models").arg(args.quotas.max_models.to_string());
        }
        if args.quotas.max_docket > 0 {
            cmd.arg("--quota-docket").arg(args.quotas.max_docket.to_string());
        }
        if args.quotas.max_claim_bytes > 0 {
            cmd.arg("--quota-claim-mb").arg((args.quotas.max_claim_bytes >> 20).to_string());
        }
        if args.quotas.max_in_flight > 0 {
            cmd.arg("--quota-in-flight").arg(args.quotas.max_in_flight.to_string());
        }
        match cmd.spawn() {
            Ok(child) => children.push(child),
            Err(err) => {
                for mut child in children {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                return Err(format!("could not spawn backend {index}: {err}"));
            }
        }
        port_files.push(port_file);
    }
    // Discover each child's bound address race-free: the child writes the
    // port file via write-then-rename only after it is listening.
    let mut backends = Vec::with_capacity(count);
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    for (index, port_file) in port_files.iter().enumerate() {
        loop {
            if let Ok(contents) = std::fs::read_to_string(port_file) {
                backends.push(contents.trim().to_string());
                let _ = std::fs::remove_file(port_file);
                break;
            }
            let died = children[index].try_wait().map(|status| status.is_some()).unwrap_or(true);
            if died || std::time::Instant::now() >= deadline {
                for mut child in children {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                return Err(format!("backend {index} never came up"));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    Ok((children, backends))
}

/// Serves the fleet router: health-checked consistent-hash routing of
/// WDTP requests across the configured (or freshly spawned) backends.
fn run_router(args: Args, key_ring: Option<Arc<KeyRing>>) -> ExitCode {
    let mut backends = args.backends.clone();
    let mut children = Vec::new();
    if args.spawn_backends > 0 {
        match spawn_backends(&args, args.spawn_backends) {
            Ok((spawned, addrs)) => {
                children = spawned;
                backends.extend(addrs);
            }
            Err(message) => {
                eprintln!("serve_judge: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    if backends.is_empty() {
        eprintln!("serve_judge: --router needs --backends and/or --spawn-backends");
        return ExitCode::FAILURE;
    }
    let mut config = RouterConfig {
        backends: backends.clone(),
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
            for mut child in children {
                let _ = child.kill();
                let _ = child.wait();
            }
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
        backends.join(", "),
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
    let result = router.serve();
    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
    match result {
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

    if args.router || args.spawn_backends > 0 {
        return run_router(args, key_ring);
    }

    let mut builder = DisputeService::builder().tenant_quotas(args.quotas);
    if let Some(rows) = args.shard_rows {
        builder = builder.batch_shard_rows(rows);
    }
    if let Some(mb) = args.claim_cache_mb {
        // 0 disables the budget (unbounded cache) by the same convention
        // as the other limits.
        builder = builder.claim_cache_bytes(mb << 20);
    }
    if let Some(mb) = args.model_cache_mb {
        builder = builder.model_cache_bytes(mb << 20);
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
                        "{}: models={} dockets={} claims={} hits={} misses={} evictions={} \
                         auth_failures={} claim_bytes={} in_flight={}",
                        row.tenant,
                        row.models,
                        row.dockets,
                        row.claims,
                        row.cache_hits,
                        row.cache_misses,
                        row.evictions,
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
