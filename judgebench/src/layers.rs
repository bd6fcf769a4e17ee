//! Per-layer metrics of the traced run.
//!
//! Every layer is measured from outside, by replaying the run's own
//! generated dockets through that layer's public functions, one docket at
//! a time on one pool thread. The same dockets also go, one at a time,
//! through a width-1 loopback judge and through a router over two such
//! judges; the layer self times along that blocking path are then
//! reconciled against the measured round trip (`ladder.residual_frac`).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use wdte_core::tenant::frame_tag;
use wdte_core::{
    adjust_hyperparameters, persist, proto, train_with_trigger, verify_ownership, DisputeRef,
    DisputeService, DocketVerdict, Format, HashRing, Kernel, ModelOracle, OwnershipClaim, PayloadDigest,
    Request, Response, SharedDispute, TenantQuotas,
};
use wdte_data::{Dataset, Label};
use wdte_server::RouterConfig;
use wdte_trees::{CompiledForest, ForestParams, RandomForest};

use crate::fixture::{Docket, Generated, Traffic};
use crate::stats::{fingerprint, median, ms, us, Metric, Metrics};
use crate::trace::{Span, SpanLog};
use crate::wire::{send, PhaseOutcome, Topology, CLAIM_CACHE_BYTES};
use crate::workload::{Bench, Failure, Measured, RunConfig, Workload, FLEET_BACKENDS};

/// Dockets of the traced run replayed through every layer.
const REPLAY_DOCKETS: usize = 32;
/// Repetitions of the one-shot layer calls (compile, digest, persist).
const REPEATS: usize = 5;

/// Runs `phase`, and when the run is traced pings the front door from a
/// separate connection every few milliseconds while it runs (a proxy for
/// event-loop and queue wait under load). Returns the phase and the
/// median ping round trip in microseconds (`NaN` untraced).
pub fn with_loaded_ping(
    topology: &Topology,
    cfg: &RunConfig,
    phase: impl FnOnce() -> PhaseOutcome,
) -> (PhaseOutcome, f64) {
    if !cfg.trace {
        return (phase(), f64::NAN);
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let pinger = scope.spawn(|| {
            let mut rtts = Vec::new();
            let Ok(mut client) = topology.connect(0) else {
                return rtts;
            };
            while !stop.load(Ordering::SeqCst) {
                let started = Instant::now();
                if client.ping().is_err() {
                    break;
                }
                rtts.push(us(started.elapsed()));
                std::thread::sleep(Duration::from_millis(5));
            }
            rtts
        });
        let outcome = phase();
        stop.store(true, Ordering::SeqCst);
        let rtts = pinger.join().expect("the pinger thread panicked");
        (outcome, median(&rtts))
    })
}

/// An oracle answering through the kernel the service is configured with,
/// as the service's own sharded oracle does.
struct KernelOracle<'a> {
    compiled: &'a CompiledForest,
    kernel: Kernel,
}

impl ModelOracle for KernelOracle<'_> {
    fn num_trees(&self) -> usize {
        self.compiled.num_trees()
    }

    fn query(&self, instance: &[f64]) -> Vec<Label> {
        self.compiled.predict_all(instance)
    }

    fn query_batch(&self, batch: &Dataset) -> Vec<Vec<Label>> {
        self.compiled
            .predict_all_batch_with(batch.features(), self.kernel)
            .iter()
            .map(<[Label]>::to_vec)
            .collect()
    }
}

/// Per-docket costs of one replayed docket, in microseconds.
#[derive(Default, Clone)]
struct DocketCosts {
    request_bytes: f64,
    payload_bytes: f64,
    encode: f64,
    tag: f64,
    verify_frame: f64,
    decode: f64,
    service: f64,
    response_encode: f64,
    verdict_decode: f64,
    /// Σ over the docket's distinct claims.
    verify: f64,
    infer: f64,
    batch_build: f64,
    rows: f64,
    distinct: f64,
    /// Width-1 loopback round trips, direct and through the router.
    round_trip: f64,
    routed_round_trip: f64,
    send: f64,
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// The request a client sends for `generated`, bodies inlined as a fresh
/// connection would send them (all of them for distinct traffic; none for
/// warm repeat traffic, whose bodies the judge already holds).
fn request_for(generated: &Generated) -> Request {
    match &generated.docket {
        Docket::Full(disputes) => {
            let mut seen = HashSet::new();
            let mut bodies = Vec::new();
            let refs = disputes
                .iter()
                .map(|d| {
                    let digest = PayloadDigest::of_claim(&d.claim);
                    if seen.insert(digest) {
                        bodies.push(d.claim.clone());
                    }
                    DisputeRef::new(d.model_id.clone(), digest)
                })
                .collect();
            Request::ResolveDocketRef {
                bodies,
                disputes: refs,
            }
        }
        Docket::Refs(refs) => Request::ResolveDocketRef {
            bodies: Vec::new(),
            disputes: refs.clone(),
        },
    }
}

/// Starts a width-1 topology with every fixture registered under every
/// tenant and, for repeat traffic, every pool body uploaded.
fn ladder_topology(
    bench: &Bench,
    cfg: &RunConfig,
    routed: bool,
) -> Result<(Topology, Vec<wdte_server::DisputeClient>), Failure> {
    let harness = |e: String| Failure::Harness(e);
    let (backends, routed) = if routed {
        (FLEET_BACKENDS, true)
    } else {
        (1, false)
    };
    let topology = Topology::start(backends, routed, 1, cfg.conns).map_err(harness)?;
    let mut clients = Vec::new();
    for conn in 0..cfg.conns {
        let mut client = topology.connect(conn).map_err(harness)?;
        for fixture in &bench.fixtures {
            client
                .register_model(fixture.id.clone(), &fixture.outcome.model)
                .map_err(|e| harness(format!("ladder registration: {e}")))?;
        }
        if let Traffic::Repeat { pools } = &bench.traffic {
            let refs: Vec<DisputeRef> = pools[conn]
                .claims
                .iter()
                .map(|c| DisputeRef::new(c.model_id.clone(), c.digest))
                .collect();
            let ticket = client
                .send_docket_ref(&pools[conn].bodies, &refs)
                .map_err(|e| harness(format!("ladder warm-up: {e}")))?;
            client
                .recv_docket(ticket)
                .map_err(|e| harness(format!("ladder warm-up: {e}")))?;
        }
        clients.push(client);
    }
    Ok((topology, clients))
}

/// Median idle ping round trip of a topology's front door, in µs.
fn idle_ping_us(client: &mut wdte_server::DisputeClient) -> Result<f64, Failure> {
    let mut rtts = Vec::with_capacity(200);
    for _ in 0..200 {
        let started = Instant::now();
        client.ping().map_err(|e| Failure::Harness(format!("ping: {e}")))?;
        rtts.push(us(started.elapsed()));
    }
    Ok(median(&rtts))
}

fn median_of<T>(repeats: usize, mut call: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let started = Instant::now();
        last = Some(std::hint::black_box(call()));
        times.push(ms(started.elapsed()));
    }
    (median(&times), last.expect("at least one repeat"))
}

/// Measures every layer and returns the per-layer metrics; appends the
/// ladder reconciliation to `report` and the replay spans to `spans`.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    bench: &mut Bench,
    cfg: &RunConfig,
    measured: &Measured,
    ping_loaded_us: f64,
    failed_frac: f64,
    log: &SpanLog,
    spans: &mut Vec<Span>,
    report: &mut Vec<String>,
) -> Result<Metrics, Failure> {
    let harness = |e: String| Failure::Harness(e);
    let serial = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| harness(format!("width-1 pool handle: {e}")))?;

    // The run's own dockets: the first served ones of the traced capacity
    // phase, round-robin over connections.
    let mut served: Vec<(usize, u64)> =
        measured.capacity.served.iter().map(|s| (s.conn, s.index)).collect();
    served.sort_by_key(|&(conn, index)| (index, conn));
    served.truncate(REPLAY_DOCKETS);
    let replays: Vec<(usize, Generated)> = served
        .iter()
        .map(|&(conn, index)| (conn, bench.traffic.generate(cfg.seed, conn, index)))
        .collect();

    // The in-process replay service: same budget and kernel as the judge,
    // every fixture registered under every tenant, warm pools inserted.
    let service = DisputeService::builder()
        .claim_cache_bytes(CLAIM_CACHE_BYTES)
        .build()
        .map_err(|e| harness(e.to_string()))?;
    let kernel = service.kernel();
    let quotas = TenantQuotas::default();
    for tenant in &bench.topology.tenants {
        for fixture in &bench.fixtures {
            service
                .register_digested_as(&tenant.id, fixture.id.clone(), &fixture.outcome.model)
                .map_err(|e| harness(e.to_string()))?;
        }
    }
    if let Traffic::Repeat { pools } = &bench.traffic {
        for (conn, pool) in pools.iter().enumerate() {
            for claim in &pool.claims {
                service
                    .claims()
                    .insert_for(&bench.topology.tenants[conn].id, &quotas, (*claim.claim).clone())
                    .map_err(|e| harness(e.to_string()))?;
            }
        }
    }
    // Warm the kernel probe of every compiled model before timing.
    for (conn, generated) in &replays {
        if let Docket::Full(disputes) = &generated.docket {
            let tenant = &bench.topology.tenants[*conn].id;
            for d in disputes.iter().take(1) {
                let _ = service.resolve_as(tenant, &d.model_id, &d.claim);
            }
        }
    }
    for tenant in &bench.topology.tenants {
        for fixture in &bench.fixtures {
            if let Ok(compiled) = service.model_as(&tenant.id, &fixture.id) {
                let probe = fixture.decoys.features();
                let _ = compiled.predict_all_batch_with(probe, kernel);
            }
        }
    }

    // Width-1 loopback judge, and a router over two width-1 judges.
    let (direct, mut direct_clients) = ladder_topology(bench, cfg, false)?;
    let (fleet, mut fleet_clients) = ladder_topology(bench, cfg, true)?;
    let server_self = idle_ping_us(&mut direct_clients[0])?;

    let mut costs: Vec<DocketCosts> = Vec::with_capacity(replays.len());
    for (i, (conn, generated)) in replays.iter().enumerate() {
        let conn = *conn;
        let docket = i as u64;
        let tenant = &bench.topology.tenants[conn];
        let mut c = DocketCosts::default();
        let expected = bench.expected_for(conn, generated)?;

        // Loopback round trips at one docket in flight.
        for (routed, clients) in [(false, &mut direct_clients), (true, &mut fleet_clients)] {
            let root = log.next_id();
            let started = Instant::now();
            let ticket = send(&mut clients[conn], &bench.traffic, conn, generated)
                .map_err(|e| harness(format!("ladder send: {e}")))?;
            let sent = Instant::now();
            let verdicts = clients[conn]
                .recv_docket(ticket)
                .map_err(|e| harness(format!("ladder recv: {e}")))?;
            let done = Instant::now();
            spans.push(log.span("client.send_docket", root, docket, started, sent));
            spans.push(log.span("client.recv_docket", root, docket, sent, done));
            spans.push(log.root(
                root,
                if routed {
                    "ladder.routed_docket"
                } else {
                    "ladder.docket"
                },
                docket,
                started,
                done,
            ));
            if fingerprint(&verdicts) != expected {
                return Err(Failure::Correctness(format!(
                    "ladder docket {i} ({}) differs from the in-process reference",
                    if routed { "routed" } else { "direct" }
                )));
            }
            if routed {
                c.routed_round_trip = us(done - started);
            } else {
                c.round_trip = us(done - started);
                c.send = us(sent - started);
            }
        }

        // The same docket through each layer's public calls.
        let root = log.next_id();
        let began = Instant::now();
        let request = request_for(generated);
        let corr = 7;
        let frame = log.timed(spans, "proto.encode_frame", root, docket, || {
            proto::encode_frame(corr, &request)
        });
        let frame = frame.map_err(|e| harness(e.to_string()))?;
        let payload = &frame[proto::FRAME_HEADER_BYTES..];
        let field = tenant.id.field();
        let t = Instant::now();
        let _tag = std::hint::black_box(frame_tag(&tenant.secret, corr, 1, &field, payload));
        c.tag = us(t.elapsed());
        let auth_frame = proto::encode_frame_auth(corr, &request, &tenant.id, 1, &tenant.secret)
            .map_err(|e| harness(e.to_string()))?;
        let header = proto::check_header(
            &auth_frame[..proto::FRAME_HEADER_BYTES],
            proto::DEFAULT_MAX_FRAME_BYTES,
        )
        .map_err(|e| harness(e.to_string()))?;
        let ring = direct_key_ring(bench);
        let t = Instant::now();
        ring.verify_frame(&header, &auth_frame[proto::FRAME_HEADER_BYTES..], 0)
            .map_err(|e| harness(format!("verify_frame: {e}")))?;
        c.verify_frame = us(t.elapsed());
        let t = Instant::now();
        let decoded = proto::decode_frame::<Request>(&frame, proto::DEFAULT_MAX_FRAME_BYTES);
        c.decode = us(t.elapsed());
        let (_, decoded) = decoded.map_err(|e| harness(e.to_string()))?;
        let Request::ResolveDocketRef { bodies, disputes } = decoded else {
            return Err(harness("replayed request decoded to another kind".into()));
        };
        c.request_bytes = frame.len() as f64;
        c.payload_bytes = payload.len() as f64;
        c.encode = spans.last().map_or(0.0, Span::duration_us);

        let t = Instant::now();
        let verdicts = serial.install(|| -> Result<_, Failure> {
            let mut local: HashMap<PayloadDigest, std::sync::Arc<OwnershipClaim>> = HashMap::new();
            for body in bodies {
                let (digest, claim) = service
                    .claims()
                    .insert_for(&tenant.id, &quotas, body)
                    .map_err(|e| harness(e.to_string()))?;
                local.insert(digest, claim);
            }
            let mut shared = Vec::with_capacity(disputes.len());
            for d in disputes {
                let claim = match local.get(&d.digest) {
                    Some(claim) => claim.clone(),
                    None => service
                        .claims()
                        .get(&d.digest)
                        .ok_or_else(|| harness("replay cache miss".into()))?,
                };
                shared.push(SharedDispute::new(d.model_id, d.digest, claim));
            }
            service
                .resolve_docket_shared_as(&tenant.id, &shared)
                .map_err(|e| harness(e.to_string()))
        })?;
        c.service = us(t.elapsed());
        spans.push(log.span(
            "service.resolve_docket_shared_as",
            root,
            docket,
            t,
            Instant::now(),
        ));
        if fingerprint(&verdicts) != expected {
            return Err(Failure::Correctness(format!(
                "replayed docket {i} differs from the reference"
            )));
        }
        let response = Response::Docket {
            verdicts: verdicts.into_iter().map(DocketVerdict::from_result).collect(),
        };
        let t = Instant::now();
        let response_frame = proto::encode_frame(corr, &response).map_err(|e| harness(e.to_string()))?;
        c.response_encode = us(t.elapsed());
        let t = Instant::now();
        let answer = proto::decode_frame::<Response>(&response_frame, proto::DEFAULT_MAX_FRAME_BYTES);
        c.verdict_decode = us(t.elapsed());
        answer.map_err(|e| harness(e.to_string()))?;

        // Verification and inference of each distinct claim.
        for (model_id, claim) in distinct_claims(bench, conn, generated) {
            let compiled =
                service.model_as(&tenant.id, &model_id).map_err(|e| harness(e.to_string()))?;
            let mut rng = SmallRng::seed_from_u64(claim.disguise_seed());
            let t = Instant::now();
            let (batch, _) = claim.verification_batch(&mut rng);
            c.batch_build += us(t.elapsed());
            let t = Instant::now();
            std::hint::black_box(compiled.predict_all_batch_with(batch.features(), kernel));
            c.infer += us(t.elapsed());
            c.rows += batch.len() as f64;
            let oracle = KernelOracle {
                compiled: &compiled,
                kernel,
            };
            let t = Instant::now();
            std::hint::black_box(verify_ownership(&oracle, &claim));
            c.verify += us(t.elapsed());
            c.distinct += 1.0;
        }
        spans.push(log.root(root, "replay.docket", docket, began, Instant::now()));
        costs.push(c);
    }
    drop(direct_clients);
    drop(fleet_clients);
    direct.shutdown();
    fleet.shutdown();

    let avg = |f: fn(&DocketCosts) -> f64| mean(costs.iter().map(f));
    let rt = avg(|c| c.round_trip);
    let per_claim = |total: f64| total / avg(|c| c.distinct);
    let encode = avg(|c| c.encode) + avg(|c| c.response_encode);
    let proto_total = encode + avg(|c| c.decode) + avg(|c| c.verdict_decode);
    let auth = avg(|c| c.tag) + avg(|c| c.verify_frame);
    let client_self = avg(|c| c.send) - avg(|c| c.encode) - avg(|c| c.tag);
    let service_self = avg(|c| c.service) - avg(|c| c.verify);
    let verify_self = avg(|c| c.verify) - avg(|c| c.infer);
    let infer = avg(|c| c.infer);
    let ladder = [
        ("server::client", client_self),
        ("core::proto", proto_total),
        ("core::tenant", auth),
        ("core::service", service_self),
        ("core::verify", verify_self),
        ("trees::infer", infer),
        ("server::server", server_self),
    ];
    let attributed: f64 = ladder.iter().map(|(_, t)| t).sum();
    let residual_frac = (rt - attributed) / rt;
    let untraced_cps = measured.untraced_capacity.as_ref().map_or(f64::NAN, PhaseOutcome::claims_per_s);
    let overhead_frac = 1.0 - measured.capacity.claims_per_s() / untraced_cps;

    report.push(format!(
        "ladder ({}): {} dockets replayed one at a time, width-1 judge; mean round trip {rt:.1} us",
        cfg.workload.name(),
        costs.len()
    ));
    for (layer, self_us) in &ladder {
        report.push(format!(
            "  {layer:<16} self {self_us:>10.1} us  ({:>5.1}%)",
            100.0 * self_us / rt
        ));
    }
    report.push(format!(
        "  {:<16} self {:>10.1} us  ({:>5.1}%) unattributed",
        "residual",
        rt - attributed,
        100.0 * residual_frac
    ));
    report.push(format!(
        "  router adds {:.1} us per docket; trace overhead {:.4} of untraced claims/s",
        avg(|c| c.routed_round_trip) - rt,
        overhead_frac
    ));

    let mut metrics = Metrics::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.insert(name.to_string(), Metric { value, unit });
    };
    let infer_s = costs.iter().map(|c| c.infer).sum::<f64>() / 1e6;
    let rows: f64 = costs.iter().map(|c| c.rows).sum();
    put("infer.rows_per_s", rows / infer_s, "rows/s");
    put("infer.ns_per_row", infer_s * 1e9 / rows, "ns");
    let model = bench.fixtures[0].outcome.model.clone();
    put(
        "infer.compile_ms",
        median_of(REPEATS, || CompiledForest::compile(&model)).0,
        "ms",
    );
    put("verify.us_per_claim", per_claim(avg(|c| c.verify)), "us");
    put("verify.self_us_per_claim", per_claim(verify_self), "us");
    put("verify.batch_build_us", per_claim(avg(|c| c.batch_build)), "us");
    put("service.us_per_docket", avg(|c| c.service), "us");
    put("service.self_us_per_docket", service_self, "us");
    put("service.dedup_ratio", measured.dedup_ratio, "ratio");
    let (hit_ratio, evictions, misses) = cache_counters(bench, measured)?;
    put("service.cache_hit_ratio", hit_ratio, "ratio");
    put("service.cache_evictions", evictions, "count");
    let tag_s = costs.iter().map(|c| c.tag).sum::<f64>() / 1e6;
    put(
        "tenant.hmac_mb_per_s",
        costs.iter().map(|c| c.payload_bytes).sum::<f64>() / 1e6 / tag_s,
        "MB/s",
    );
    put("tenant.auth_us_per_docket", auth, "us");
    put(
        "proto.request_bytes_per_docket",
        avg(|c| c.request_bytes),
        "bytes",
    );
    put("proto.encode_us_per_docket", encode, "us");
    put("proto.decode_us_per_docket", avg(|c| c.decode), "us");
    put(
        "proto.verdict_decode_us_per_docket",
        avg(|c| c.verdict_decode),
        "us",
    );
    put(
        "proto.model_digest_ms",
        median_of(REPEATS, || PayloadDigest::of_model(&model)).0,
        "ms",
    );
    let send_spans: Vec<f64> = measured
        .capacity
        .spans
        .iter()
        .filter(|s| s.name == "client.send_docket")
        .map(Span::duration_us)
        .collect();
    put("client.send_us_per_docket", mean(send_spans.into_iter()), "us");
    put("client.need_payload_resends", misses, "count");
    put("server.self_us_per_docket", server_self, "us");
    put("server.ping_rtt_us_loaded", ping_loaded_us, "us");
    put(
        "router.self_us_per_docket",
        avg(|c| c.routed_round_trip) - rt,
        "us",
    );
    put(
        "router.shards_per_docket",
        shards_per_docket(bench, &replays)?,
        "count",
    );
    for (name, value, unit) in training_layers(bench, cfg, measured)? {
        put(name, value, unit);
    }
    put("ladder.residual_frac", residual_frac, "fraction");
    put("gen.late_max_ms", measured.latency.late_max_ms, "ms");
    put("trace.overhead_frac", overhead_frac, "fraction");
    put("failed_frac", failed_frac, "fraction");
    Ok(metrics)
}

/// The key ring of the run's judges (every tenant's secret).
fn direct_key_ring(bench: &Bench) -> wdte_core::KeyRing {
    let mut ring = wdte_core::KeyRing::new();
    for tenant in &bench.topology.tenants {
        ring.insert(tenant.id.clone(), tenant.secret.clone());
    }
    ring
}

/// The distinct `(model, claim)` pairs of a docket.
fn distinct_claims(bench: &Bench, conn: usize, generated: &Generated) -> Vec<(String, OwnershipClaim)> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    match (&generated.docket, &bench.traffic) {
        (Docket::Full(disputes), _) => {
            for d in disputes {
                if seen.insert((d.model_id.clone(), PayloadDigest::of_claim(&d.claim))) {
                    out.push((d.model_id.clone(), d.claim.clone()));
                }
            }
        }
        (Docket::Refs(_), Traffic::Repeat { pools }) => {
            for &k in &generated.picks {
                let claim = &pools[conn].claims[k];
                if seen.insert((claim.model_id.clone(), claim.digest)) {
                    out.push((claim.model_id.clone(), (*claim.claim).clone()));
                }
            }
        }
        (Docket::Refs(_), Traffic::Distinct { .. }) => {}
    }
    out
}

/// Claim-cache hit ratio, evictions and misses (each miss makes the judge
/// answer `NeedPayload`, which the client resends), from the tenants'
/// `Stats` rows and the judges' cache occupancy.
fn cache_counters(bench: &mut Bench, measured: &Measured) -> Result<(f64, f64, f64), Failure> {
    let (mut hits, mut misses, mut model_evictions) = (0u64, 0u64, 0u64);
    for client in &mut bench.clients {
        for row in client.stats().map_err(|e| Failure::Harness(format!("stats: {e}")))? {
            hits += row.cache_hits;
            misses += row.cache_misses;
            model_evictions += row.evictions;
        }
    }
    let resident: usize =
        bench.topology.backends.iter().map(|(service, _)| service.claims().len()).sum();
    let uploaded = match &bench.traffic {
        Traffic::Repeat { pools } => pools.iter().map(|p| p.claims.len() as u64).sum(),
        Traffic::Distinct { .. } => {
            let phases = [
                Some(&measured.capacity),
                Some(&measured.latency),
                measured.untraced_capacity.as_ref(),
            ];
            phases.into_iter().flatten().map(|p| p.claims).sum::<u64>()
        }
    };
    let claim_evictions = uploaded.saturating_sub(resident as u64);
    let lookups = hits + misses;
    let ratio = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    Ok((ratio, (claim_evictions + model_evictions) as f64, misses as f64))
}

/// Mean number of backends a replayed docket splits into under the
/// router's consistent-hash placement over two backends.
fn shards_per_docket(bench: &Bench, replays: &[(usize, Generated)]) -> Result<f64, Failure> {
    let ring = HashRing::new(FLEET_BACKENDS, RouterConfig::default().ring_replicas)
        .map_err(|e| Failure::Harness(e.to_string()))?;
    Ok(mean(replays.iter().map(|(conn, generated)| {
        let tenant = &bench.topology.tenants[*conn].id;
        let homes: HashSet<usize> = match &generated.docket {
            Docket::Full(disputes) => disputes.iter().map(|d| ring.home(tenant, &d.model_id)).collect(),
            Docket::Refs(refs) => refs.iter().map(|r| ring.home(tenant, &r.model_id)).collect(),
        };
        homes.len() as f64
    })))
}

/// Training and persistence layers, replayed on the first embedding input
/// of the run (the dispute fixture, or the owner's first pair).
fn training_layers(
    bench: &Bench,
    cfg: &RunConfig,
    measured: &Measured,
) -> Result<Vec<(&'static str, f64, &'static str)>, Failure> {
    let harness = |e: String| Failure::Harness(e);
    let (input, seed) = &bench.owner_inputs[0];
    let (train, _) = input.generate(*seed);
    let config = input.config();
    let signature = input.signature(*seed);
    let tuned = ForestParams {
        num_trees: config.num_trees,
        tree: config.tree_params,
        feature_subset: config.feature_subset,
    };
    let mut rng = input.embed_rng(*seed, 0);
    let _ = train.presort();
    let (adjust_ms, adjusted) = median_of(REPEATS, || adjust_hyperparameters(&train, &tuned, &mut rng));
    let k = ((train.len() as f64) * config.trigger_fraction).round().max(1.0) as usize;
    let trigger = train.sample_indices(k, &mut rng);
    let params = ForestParams {
        num_trees: signature.zeros().max(1),
        tree: adjusted,
        feature_subset: config.feature_subset,
    };
    let (train_ms, (_, diagnostics)) = median_of(REPEATS, || {
        train_with_trigger(&train, &trigger, &params, &config, &mut rng)
    });
    let full = ForestParams {
        tree: adjusted,
        ..tuned
    };
    let (fit_ms, forest) = median_of(REPEATS, || RandomForest::fit(&train, &full, &mut rng));

    let dir = cfg.out_dir.join(format!("layers-{}", std::process::id()));
    let path = dir.join("model.wdte");
    let (save_ms, saved) = median_of(REPEATS, || persist::save(&path, &forest, Format::Binary));
    saved.map_err(|e| harness(e.to_string()))?;
    let (load_ms, loaded) = median_of(REPEATS, || persist::load::<RandomForest>(&path));
    loaded.map_err(|e| harness(e.to_string()))?;
    let _ = std::fs::remove_dir_all(&dir);
    let save_ms = if cfg.workload == Workload::EmbedRegister && !measured.owner.save_ms.is_empty() {
        median(&measured.owner.save_ms)
    } else {
        save_ms
    };
    Ok(vec![
        ("watermark.train_with_trigger_ms", train_ms, "ms"),
        ("watermark.rounds", diagnostics.rounds as f64, "count"),
        ("watermark.adjust_ms", adjust_ms, "ms"),
        ("forest.fit_ms_per_tree", fit_ms / full.num_trees as f64, "ms"),
        ("persist.save_ms", save_ms, "ms"),
        ("persist.load_ms", load_ms, "ms"),
    ])
}
