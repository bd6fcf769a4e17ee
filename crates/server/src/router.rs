//! The fleet front door: a router that consistent-hashes
//! `(tenant, model id)` keys across N backend judge processes and
//! forwards WDTP requests through per-backend [`DisputeClient`]s.
//!
//! The router terminates the protocol rather than shuffling raw bytes —
//! it has to, because splitting one docket across backends produces
//! frames the end client never signed. Pass-through is *semantic*:
//! client frames are verified against the same key ring the backends
//! use (identical per-connection sequence floors and replay rules),
//! requests are re-signed towards each backend with the tenant's own
//! secret, correlation ids are echoed back unchanged, and a backend's
//! `NeedPayload` demand for claim bodies the router never held is
//! relayed upstream so the end client's content-addressed retry logic
//! works exactly as against a single judge.
//!
//! Placement is the [`HashRing`] of `wdte_core::fleet`: deterministic,
//! process-independent, and minimally disruptive on backend loss. A
//! docket is split into per-backend shards with
//! [`fleet::split_indices`], the shards travel concurrently (all sends
//! before any receive), and verdicts are stitched back into input order
//! with [`fleet::scatter`]. On a fleet whose backends warm-started from
//! the same directory, every backend holds every model, so a dead
//! backend degrades to bounded retry-on-sibling with bit-identical
//! verdicts; models only the dead backend knew degrade to *typed*
//! faults for exactly their disputes — never a hung connection.
//!
//! The router is served by the judge's own `poll(2)` event loop: framing,
//! frame authentication with its sequence floor, pipelining, the
//! connection cap, idle reaping, write deadlines and panic containment
//! all live there, and this module is only the routing handler. Each
//! request runs on its own thread, because it blocks on backend sockets,
//! and checks its backend clients out of one router-wide pool keyed by
//! `(backend, tenant)`, so a connection's pipelined requests route
//! concurrently.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;
use wdte_core::error::{WatermarkError, WatermarkResult};
use wdte_core::fleet::{self, HashRing};
use wdte_core::proto::{self, DisputeRef, DocketVerdict, PayloadDigest, Request, Response};
use wdte_core::{persist, KeyRing, OwnershipClaim, TenantId, TenantStatsEntry};

use crate::client::{ClientAuth, ClientConfig, DisputeClient, DocketOutcome};
use crate::server::{fault_response, FrontEnd, Handler, RunningServer, ServerConfig, ServerHandle};

/// Tuning knobs of a [`JudgeRouter`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Addresses of the backend judge processes, in ring order. The ring
    /// is built over the *positions* of this list, so every router (and
    /// every router restart) given the same list computes identical
    /// placement. At least one backend is required.
    pub backends: Vec<String>,
    /// Virtual ring points per backend; more points spread keys more
    /// evenly at slightly higher lookup cost.
    pub ring_replicas: usize,
    /// How many sibling backends to try (beyond the home) before a
    /// request or docket shard is failed with a typed fault. `0`
    /// disables failover entirely.
    pub retry_siblings: usize,
    /// Interval of the background health monitor, which TCP-probes every
    /// backend and flips its healthy flag. The probe is connect-only —
    /// keyed backends refuse anonymous frames, so a protocol-level ping
    /// would demote healthy keyed fleets.
    pub health_interval: Duration,
    /// Idle deadline on a client connection: a connection with no
    /// request in flight that sends nothing for this long is closed.
    /// `None` keeps idle clients forever.
    pub read_timeout: Option<Duration>,
    /// Read deadline on backend responses. `None` (the default) waits as
    /// long as the backend needs — a large docket shard legitimately
    /// takes a while, and a *dead* backend fails the read immediately
    /// rather than timing out.
    pub backend_read_timeout: Option<Duration>,
    /// Tenant keys for frame authentication, shared with the backends.
    /// `None` runs an open fleet (anonymous frames end to end); `Some`
    /// verifies every client frame here at the edge and re-signs each
    /// backend request with the same tenant secret.
    pub key_ring: Option<Arc<KeyRing>>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            backends: Vec::new(),
            ring_replicas: 64,
            retry_siblings: 1,
            health_interval: Duration::from_secs(1),
            read_timeout: Some(Duration::from_secs(120)),
            backend_read_timeout: None,
            key_ring: None,
        }
    }
}

/// Per-attempt TCP connect deadline for backend connections and health
/// probes.
const BACKEND_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// One backend judge as the router tracks it.
#[derive(Debug)]
struct Backend {
    addr: String,
    /// Flipped by the background health monitor (TCP probe) and by
    /// passive demotion when a request-path transport failure proves the
    /// backend is gone. An unhealthy backend is skipped by placement
    /// until a probe succeeds again.
    healthy: AtomicBool,
}

/// The routing handler: state shared between the event loop's request
/// threads and the health monitor.
#[derive(Debug)]
struct RouterShared {
    ring: HashRing,
    backends: Vec<Backend>,
    key_ring: Option<Arc<KeyRing>>,
    retry_siblings: usize,
    health_interval: Duration,
    /// Configuration of every backend client; `auth` is filled in per
    /// tenant when a client connects.
    client: ClientConfig,
    /// Idle backend clients, keyed by `(backend, tenant)` because each
    /// backend connection authenticates as one tenant and carries its own
    /// sequence counter. Requests check clients out and return them, so
    /// one client never carries two requests at once.
    idle: Mutex<HashMap<(usize, TenantId), Vec<DisputeClient>>>,
    threads: RouteThreads,
}

impl RouterShared {
    fn healthy(&self, backend: usize) -> bool {
        self.backends[backend].healthy.load(Ordering::Relaxed)
    }

    /// Passive demotion: a request-path transport failure is stronger
    /// evidence than a stale probe, so the flag drops immediately; the
    /// monitor re-promotes once probes succeed again.
    fn demote(&self, backend: usize) {
        self.backends[backend].healthy.store(false, Ordering::Relaxed);
    }

    /// The typed fault a dispute receives when the backend holding its
    /// model cannot be reached (directly or via siblings).
    fn unreachable(&self, home: usize, model_id: &str) -> WatermarkError {
        WatermarkError::Remote {
            message: format!(
                "model `{model_id}` is homed on backend {home} ({}), which is unreachable",
                self.backends[home].addr
            ),
        }
    }

    /// Checks out a client for `backend` as `tenant`: an idle one the
    /// backend has not closed meanwhile, or a fresh connection. A failed
    /// connect demotes the backend. [`restore`](Self::restore) hands the
    /// client back.
    fn lease(&self, backend: usize, tenant: &TenantId) -> WatermarkResult<DisputeClient> {
        let key = (backend, tenant.clone());
        while let Some(client) = self
            .idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_mut(&key)
            .and_then(Vec::pop)
        {
            if client.is_reusable() {
                return Ok(client);
            }
        }
        let auth = match &self.key_ring {
            Some(ring) if !tenant.is_anonymous() => {
                let secret = ring.key(tenant).ok_or_else(|| WatermarkError::ProtocolViolation {
                    detail: format!("tenant `{tenant}` is missing from the router's key ring"),
                })?;
                Some(ClientAuth::new(tenant.clone(), secret.to_vec()))
            }
            _ => None,
        };
        let config = ClientConfig {
            auth,
            ..self.client.clone()
        };
        DisputeClient::connect_with(self.backends[backend].addr.as_str(), config)
            .inspect_err(|_| self.demote(backend))
    }

    /// Returns a leased client to the pool, unless it is broken. A client
    /// with a docket still in flight is never returned: the early exits
    /// of docket routing drop theirs.
    fn restore(&self, backend: usize, tenant: &TenantId, client: DisputeClient) {
        if !client.is_broken() {
            let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
            idle.entry((backend, tenant.clone())).or_default().push(client);
        }
    }
}

impl Handler for RouterShared {
    fn handle(&self, tenant: &TenantId, request: Request) -> Response {
        route_request(self, tenant, request)
    }

    /// A routed request blocks on backend sockets, so each one runs on a
    /// thread of its own, never on the shared pool: an in-process fleet
    /// whose pool workers were all blocked in router requests could not
    /// resolve the backend shards those requests wait for.
    fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.threads.run(Box::new(job));
    }
}

/// One routed request's job.
type Job = Box<dyn FnOnce() + Send>;

/// The threads routed requests run on, one request per thread at a time.
/// A job goes to a parked thread if there is one, else to a new thread,
/// so no request waits behind a blocked one; the event loop's connection
/// cap times its pipeline depth bounds the threads. A finished thread
/// parks for the next job instead of exiting, because spawning a thread
/// costs more than routing a small docket. Parked threads exit once the
/// router is dropped.
#[derive(Debug, Default)]
struct RouteThreads {
    parked: Arc<Mutex<Vec<mpsc::Sender<Job>>>>,
}

impl RouteThreads {
    fn run(&self, mut job: Job) {
        if let Some(thread) = self.parked.lock().unwrap_or_else(PoisonError::into_inner).pop() {
            // A parked thread waits in `recv` until it gets a job, so the
            // send cannot fail; if it did, the dropped job still answers.
            let _ = thread.send(job);
            return;
        }
        let parked = Arc::downgrade(&self.parked);
        // A failed spawn drops the job, whose reply answers with a fault.
        let _ = std::thread::Builder::new().name("wdte-route".to_string()).spawn(move || loop {
            job();
            let (wake, next) = mpsc::channel();
            match parked.upgrade() {
                Some(parked) => parked.lock().unwrap_or_else(PoisonError::into_inner).push(wake),
                None => return,
            }
            match next.recv() {
                Ok(next) => job = next,
                Err(_) => return,
            }
        });
    }
}

/// A bound, not-yet-serving fleet router. [`serve`](JudgeRouter::serve)
/// blocks the calling thread; [`spawn`](JudgeRouter::spawn) serves from
/// a background thread and returns a [`RunningRouter`].
#[derive(Debug)]
pub struct JudgeRouter {
    front: FrontEnd<RouterShared>,
}

impl JudgeRouter {
    /// Binds to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    /// Refuses an empty backend list — a router with nowhere to route is
    /// a misconfiguration, not a degraded fleet. The router's connection
    /// cap and pipeline depth are those of [`ServerConfig::default`].
    pub fn bind(
        addr: impl ToSocketAddrs + std::fmt::Display,
        config: RouterConfig,
    ) -> WatermarkResult<Self> {
        let ring = HashRing::new(config.backends.len(), config.ring_replicas)?;
        let backends = config
            .backends
            .into_iter()
            .map(|addr| Backend {
                addr,
                healthy: AtomicBool::new(true),
            })
            .collect();
        let shared = RouterShared {
            ring,
            backends,
            key_ring: config.key_ring.clone(),
            retry_siblings: config.retry_siblings,
            health_interval: config.health_interval,
            client: ClientConfig {
                connect_attempts: 1,
                connect_timeout: Some(BACKEND_CONNECT_TIMEOUT),
                read_timeout: config.backend_read_timeout,
                ..ClientConfig::default()
            },
            idle: Mutex::default(),
            threads: RouteThreads::default(),
        };
        let front = ServerConfig {
            read_timeout: config.read_timeout,
            key_ring: config.key_ring,
            ..ServerConfig::default()
        };
        Ok(Self {
            front: FrontEnd::bind(addr, Arc::new(shared), front)?,
        })
    }

    /// The address actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// A shutdown handle for this router.
    pub fn handle(&self) -> ServerHandle {
        self.front.handle()
    }

    /// Runs the event loop and the backend health monitor until
    /// [`ServerHandle::shutdown`] is called, blocking the calling thread.
    pub fn serve(self) -> WatermarkResult<()> {
        let stop = Arc::clone(&self.front.stop);
        let monitor = {
            let (shared, stop) = (Arc::clone(&self.front.handler), Arc::clone(&stop));
            std::thread::spawn(move || health_monitor(&shared, &stop))
        };
        let result = self.front.serve();
        // The loop also ends on a poll failure, which sets no flag.
        stop.store(true, Ordering::SeqCst);
        let _ = monitor.join();
        result
    }

    /// Serves from a background thread, returning immediately.
    pub fn spawn(self) -> RunningRouter {
        RunningServer::start(self.handle(), move || self.serve())
    }
}

/// A [`JudgeRouter`] serving from a background thread.
pub type RunningRouter = RunningServer;

/// TCP-probes every backend, then sleeps `health_interval` (in short
/// slices, so shutdown is prompt), until stopped.
fn health_monitor(shared: &RouterShared, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        for backend in &shared.backends {
            let alive = probe(&backend.addr);
            backend.healthy.store(alive, Ordering::Relaxed);
            if stop.load(Ordering::SeqCst) {
                return;
            }
        }
        let mut slept = Duration::ZERO;
        while slept < shared.health_interval {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let nap = (shared.health_interval - slept).min(Duration::from_millis(50));
            std::thread::sleep(nap);
            slept += nap;
        }
    }
}

/// Connect-only liveness probe. Deliberately below the protocol: a keyed
/// backend refuses anonymous frames, so any frame-level probe would need
/// tenant credentials the monitor has no business holding.
fn probe(addr: &str) -> bool {
    match addr.to_socket_addrs() {
        Ok(addrs) => addrs
            .into_iter()
            .any(|addr| TcpStream::connect_timeout(&addr, BACKEND_CONNECT_TIMEOUT).is_ok()),
        Err(_) => false,
    }
}

/// Maps one decoded request onto the fleet.
fn route_request(shared: &RouterShared, tenant: &TenantId, request: Request) -> Response {
    match request {
        Request::Ping => aggregate_ping(shared, tenant),
        // Registrations go to the key's home backend, with bounded
        // failover onto ring siblings.
        Request::RegisterModel { ref model_id, .. } | Request::RegisterModelRef { ref model_id, .. } => {
            route_single(shared, tenant, model_id, &request)
        }
        Request::ResolveDocketRef { bodies, disputes } => {
            let mut map: HashMap<PayloadDigest, Arc<OwnershipClaim>> =
                HashMap::with_capacity(bodies.len());
            for body in bodies {
                let digest = PayloadDigest::of_claim(&body);
                map.entry(digest).or_insert_with(|| Arc::new(body));
            }
            route_docket(shared, tenant, &map, disputes)
        }
        Request::ListModels => {
            let mut union: BTreeSet<String> = BTreeSet::new();
            fan_out(shared, tenant, &request, "Models", |answer| match answer {
                Response::Models { model_ids } => {
                    union.extend(model_ids);
                    Ok(())
                }
                other => Err(other),
            })
            .unwrap_or_else(|| Response::Models {
                model_ids: union.into_iter().collect(),
            })
        }
        // Every backend: replicated warm starts put the model on each of
        // them, and degradation-era registrations may have landed it on a
        // sibling.
        Request::Deregister { ref model_id } => {
            let mut existed = false;
            fan_out(shared, tenant, &request, "Deregistered", |answer| match answer {
                Response::Deregistered { existed: here, .. } => {
                    existed |= here;
                    Ok(())
                }
                other => Err(other),
            })
            .unwrap_or_else(|| Response::Deregistered {
                model_id: model_id.clone(),
                existed,
            })
        }
        Request::Stats => {
            let mut merged: BTreeMap<String, TenantStatsEntry> = BTreeMap::new();
            fan_out(shared, tenant, &request, "Stats", |answer| match answer {
                Response::Stats { tenants } => {
                    for entry in tenants {
                        merge_stats(merged.entry(entry.tenant.clone()).or_default(), entry);
                    }
                    Ok(())
                }
                other => Err(other),
            })
            .unwrap_or_else(|| Response::Stats {
                tenants: merged.into_values().collect(),
            })
        }
    }
}

/// Sends `request` to every reachable backend and hands each answer to
/// `merge`, which gives back an answer of the wrong kind. Unreachable
/// backends are skipped. Returns the refusal to answer with instead of
/// the merged result, if any: the first typed `Error` a backend sent, an
/// answer of the wrong kind, or no backend answering at all.
fn fan_out(
    shared: &RouterShared,
    tenant: &TenantId,
    request: &Request,
    wanted: &str,
    mut merge: impl FnMut(Response) -> Result<(), Response>,
) -> Option<Response> {
    let mut answered = false;
    for backend in 0..shared.backends.len() {
        match backend_call(shared, tenant, backend, request) {
            None => {}
            Some(Response::Error { fault }) => return Some(Response::Error { fault }),
            Some(answer) => {
                if let Err(other) = merge(answer) {
                    return Some(fault_response(&WatermarkError::ProtocolViolation {
                        detail: format!("expected a {wanted} response, backend answered {other:?}"),
                    }));
                }
                answered = true;
            }
        }
    }
    (!answered).then(|| {
        fault_response(&WatermarkError::Remote {
            message: format!(
                "no reachable backend among the {} configured",
                shared.backends.len()
            ),
        })
    })
}

/// One best-effort call to one backend: `None` means the backend was
/// skipped (unhealthy) or failed at the transport level (and has been
/// demoted). Used by the fleet-wide requests, which tolerate partial
/// fleets.
fn backend_call(
    shared: &RouterShared,
    tenant: &TenantId,
    backend: usize,
    request: &Request,
) -> Option<Response> {
    if !shared.healthy(backend) {
        return None;
    }
    let mut client = shared.lease(backend, tenant).ok()?;
    let response = client.raw_request(request);
    if client.is_broken() {
        shared.demote(backend);
    }
    shared.restore(backend, tenant, client);
    response.ok()
}

/// Sums every backend's pong into a fleet-wide view. The router answers
/// its own protocol/format versions (it *is* the peer the client
/// negotiates with); model and claim counts aggregate whatever part of
/// the fleet is reachable — a ping is a liveness probe, so a degraded
/// fleet still pongs.
fn aggregate_ping(shared: &RouterShared, tenant: &TenantId) -> Response {
    let mut models_registered = 0u64;
    let mut claims_cached = 0u64;
    for backend in 0..shared.backends.len() {
        if let Some(Response::Pong {
            models_registered: models,
            claims_cached: claims,
            ..
        }) = backend_call(shared, tenant, backend, &Request::Ping)
        {
            models_registered += models;
            claims_cached += claims;
        }
    }
    Response::Pong {
        protocol_version: proto::PROTOCOL_VERSION,
        format_version: persist::FORMAT_VERSION,
        models_registered,
        claims_cached,
    }
}

/// Routes one registration: home first, then ring siblings in
/// deterministic order, skipping unhealthy backends, bounded by
/// `1 + retry_siblings` actual attempts.
fn route_single(
    shared: &RouterShared,
    tenant: &TenantId,
    model_id: &str,
    request: &Request,
) -> Response {
    let candidates = shared.ring.candidates(tenant, model_id);
    let home = candidates[0];
    let max_attempts = 1 + shared.retry_siblings;
    let mut attempts = 0usize;
    for &backend in &candidates {
        if attempts >= max_attempts {
            break;
        }
        if !shared.healthy(backend) {
            continue;
        }
        attempts += 1;
        let Ok(mut client) = shared.lease(backend, tenant) else {
            continue;
        };
        let response = client.raw_request(request);
        let broken = client.is_broken();
        shared.restore(backend, tenant, client);
        match response {
            Ok(response) => return response,
            Err(err) => {
                if broken {
                    shared.demote(backend);
                    continue;
                }
                // The connection is fine — the request itself could not
                // be encoded; a sibling would refuse it identically.
                return fault_response(&err);
            }
        }
    }
    fault_response(&shared.unreachable(home, model_id))
}

/// Splits one docket across the fleet and stitches the verdicts back in
/// input order.
///
/// Within one round every shard is *sent* before any shard is
/// *received*, so backends resolve concurrently. A shard lost to a
/// transport failure demotes its backend and re-enters the next round,
/// where its disputes re-route onto their next healthy candidates —
/// `retry_siblings` bounds the extra rounds. A backend demanding claim
/// bodies the router cannot supply turns the whole docket into one
/// upstream `NeedPayload` (the client retries with bodies inlined); a
/// typed refusal (quota, oversized shard) fails the whole docket, the
/// same verdict a single judge would have given.
fn route_docket(
    shared: &RouterShared,
    tenant: &TenantId,
    bodies: &HashMap<PayloadDigest, Arc<OwnershipClaim>>,
    disputes: Vec<DisputeRef>,
) -> Response {
    let total = disputes.len();
    let mut slots: Vec<Option<WatermarkResult<wdte_core::VerificationReport>>> = Vec::new();
    slots.resize_with(total, || None);
    let homes: Vec<usize> = disputes
        .iter()
        .map(|dispute| shared.ring.home(tenant, &dispute.model_id))
        .collect();
    let mut demanded: Vec<PayloadDigest> = Vec::new();
    let mut demanded_seen: HashSet<PayloadDigest> = HashSet::new();
    let mut pending: Vec<usize> = (0..total).collect();
    // Backends that failed *this docket*: stronger than the shared
    // healthy flag (which the monitor may flip back mid-docket) — a
    // backend that already ate one shard of this docket never gets
    // another.
    let mut failed: HashSet<usize> = HashSet::new();
    for _round in 0..=shared.retry_siblings {
        if pending.is_empty() {
            break;
        }
        // Assign every still-pending dispute to its first live
        // candidate; usize::MAX marks "no candidate left".
        let choices: Vec<usize> = pending
            .iter()
            .map(|&idx| {
                shared
                    .ring
                    .candidates(tenant, &disputes[idx].model_id)
                    .into_iter()
                    .find(|&backend| !failed.contains(&backend) && shared.healthy(backend))
                    .unwrap_or(usize::MAX)
            })
            .collect();
        let mut plan: Vec<(usize, Vec<usize>)> = Vec::new();
        for (backend, positions) in fleet::split_indices(pending.len(), |pos| choices[pos]) {
            let indices: Vec<usize> = positions.iter().map(|&pos| pending[pos]).collect();
            if backend == usize::MAX {
                // Out of candidates now; no later round can help.
                for idx in indices {
                    slots[idx] = Some(Err(shared.unreachable(homes[idx], &disputes[idx].model_id)));
                }
            } else {
                plan.push((backend, indices));
            }
        }
        // Send phase: every shard goes on the wire before any verdict is
        // awaited, so the backends overlap.
        let mut sent = Vec::with_capacity(plan.len());
        let mut next_pending: Vec<usize> = Vec::new();
        for (backend, indices) in plan {
            let shard: Vec<DisputeRef> = indices.iter().map(|&idx| disputes[idx].clone()).collect();
            match shared.lease(backend, tenant) {
                Ok(mut client) => match client.send_docket_ref(bodies, &shard) {
                    Ok(ticket) => sent.push((backend, indices, ticket, client)),
                    Err(err) => {
                        if client.is_broken() {
                            shared.demote(backend);
                            failed.insert(backend);
                            next_pending.extend(indices);
                        } else {
                            return fault_response(&err);
                        }
                    }
                },
                Err(_err) => {
                    failed.insert(backend);
                    next_pending.extend(indices);
                }
            }
        }
        // Receive phase, in send order.
        for (backend, indices, ticket, mut client) in sent {
            let outcome = client.recv_docket_outcome(ticket);
            let broken = client.is_broken();
            shared.restore(backend, tenant, client);
            match outcome {
                Ok(DocketOutcome::Verdicts(verdicts)) => {
                    if let Err(err) = fleet::scatter(&mut slots, &indices, verdicts) {
                        return fault_response(&err);
                    }
                    for &idx in &indices {
                        if backend != homes[idx]
                            && matches!(slots[idx], Some(Err(WatermarkError::UnknownModel { .. })))
                        {
                            slots[idx] =
                                Some(Err(shared.unreachable(homes[idx], &disputes[idx].model_id)));
                        }
                    }
                }
                Ok(DocketOutcome::NeedPayload(digests)) => {
                    if digests.is_empty() {
                        return fault_response(&WatermarkError::ProtocolViolation {
                            detail: "backend demanded an empty payload list".to_string(),
                        });
                    }
                    // The whole docket bounces as one NeedPayload; these
                    // disputes leave the retry loop (the client's clean
                    // resend covers them).
                    for digest in digests {
                        if demanded_seen.insert(digest) {
                            demanded.push(digest);
                        }
                    }
                }
                Err(err) => {
                    if broken {
                        shared.demote(backend);
                        failed.insert(backend);
                        next_pending.extend(indices);
                    } else {
                        // A typed whole-shard refusal (tenant quota,
                        // oversized docket): the single-judge answer to
                        // this docket would have been the same error.
                        return fault_response(&err);
                    }
                }
            }
        }
        pending = next_pending;
    }
    // Rounds exhausted with shards still unplaced.
    for idx in pending {
        slots[idx] = Some(Err(shared.unreachable(homes[idx], &disputes[idx].model_id)));
    }
    if !demanded.is_empty() {
        return Response::NeedPayload { digests: demanded };
    }
    let verdicts: Vec<DocketVerdict> = slots
        .into_iter()
        .map(|slot| {
            DocketVerdict::from_result(slot.unwrap_or_else(|| {
                Err(WatermarkError::ProtocolViolation {
                    detail: "a dispute fell through docket routing without a verdict".to_string(),
                })
            }))
        })
        .collect();
    Response::Docket { verdicts }
}

/// Adds `from`'s counters into `into` (field-by-field sum), keeping the
/// tenant name.
fn merge_stats(into: &mut TenantStatsEntry, from: TenantStatsEntry) {
    into.tenant = from.tenant;
    into.models += from.models;
    into.dockets += from.dockets;
    into.claims += from.claims;
    into.cache_hits += from.cache_hits;
    into.cache_misses += from.cache_misses;
    into.evictions += from.evictions;
    into.auth_failures += from.auth_failures;
    into.claim_bytes += from.claim_bytes;
    into.in_flight += from.in_flight;
}
