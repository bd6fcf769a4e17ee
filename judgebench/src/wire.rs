//! The wire side: in-process judges (and optionally a router) on
//! loopback, and the load generator's closed-loop (capacity) and
//! open-loop (latency) phases.

use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wdte_core::{
    DisputeService, KeyRing, TenantId, VerificationReport, WatermarkError, WatermarkResult,
};
use wdte_server::{
    ClientAuth, ClientConfig, DisputeClient, DocketTicket, JudgeRouter, JudgeServer, RouterConfig,
    RunningRouter, RunningServer, ServerConfig,
};

use crate::fixture::{Docket, Generated, Traffic};
use crate::stats::{fingerprint, ms};
use crate::trace::{Span, SpanLog};

/// Dockets each connection keeps in flight in the capacity phase: deep
/// enough that the judge always has queued work, which makes the rate
/// repeat better from run to run than a shallow pipeline does.
pub const PIPELINE_DEPTH: usize = 16;

/// Claim-cache budget of every judge: small enough that distinct traffic
/// reaches steady state (evicting) within the first second of a run.
pub const CLAIM_CACHE_BYTES: usize = 32 << 20;

/// How long a client waits for one response before the docket counts as
/// timed out.
pub const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// One enrolled tenant: id and HMAC secret.
pub struct Tenant {
    pub id: TenantId,
    pub secret: Vec<u8>,
}

/// Judges on loopback, optionally fronted by a router, keyed with one
/// secret per tenant (WDTP v4 auth on).
pub struct Topology {
    pub backends: Vec<(Arc<DisputeService>, RunningServer)>,
    pub router: Option<RunningRouter>,
    pub tenants: Vec<Tenant>,
}

impl Topology {
    /// Starts `backends` judges, fronted by a router when `routed`. Each
    /// request may use `width` pool threads (`0` = the whole pool).
    pub fn start(backends: usize, routed: bool, width: usize, tenants: usize) -> Result<Self, String> {
        let tenants: Vec<Tenant> = (0..tenants)
            .map(|i| Tenant {
                id: TenantId::new(format!("tenant-{i}")).expect("tenant ids are short and valid"),
                secret: format!("judgebench secret of tenant {i}").into_bytes(),
            })
            .collect();
        let mut ring = KeyRing::new();
        for tenant in &tenants {
            ring.insert(tenant.id.clone(), tenant.secret.clone());
        }
        let ring = Arc::new(ring);
        let mut running = Vec::with_capacity(backends);
        for _ in 0..backends {
            let service = Arc::new(
                DisputeService::builder()
                    .claim_cache_bytes(CLAIM_CACHE_BYTES)
                    .build()
                    .map_err(|e| format!("judge service: {e}"))?,
            );
            let config = ServerConfig {
                key_ring: Some(Arc::clone(&ring)),
                worker_threads: width,
                ..ServerConfig::default()
            };
            let server = JudgeServer::bind("127.0.0.1:0", Arc::clone(&service), config)
                .map_err(|e| format!("binding a loopback judge: {e}"))?;
            running.push((service, server.spawn()));
        }
        let router = if routed {
            let config = RouterConfig {
                backends: running.iter().map(|(_, s)| s.addr().to_string()).collect(),
                key_ring: Some(ring),
                ..RouterConfig::default()
            };
            let router = JudgeRouter::bind("127.0.0.1:0", config)
                .map_err(|e| format!("binding the loopback router: {e}"))?;
            Some(router.spawn())
        } else {
            None
        };
        Ok(Self {
            backends: running,
            router,
            tenants,
        })
    }

    /// The front door: the router if there is one, else the first judge.
    pub fn addr(&self) -> SocketAddr {
        self.router.as_ref().map_or_else(|| self.backends[0].1.addr(), |r| r.addr())
    }

    /// An authenticated client of the front door, as tenant `tenant`.
    pub fn connect(&self, tenant: usize) -> Result<DisputeClient, String> {
        let addr = self.addr();
        let tenant = &self.tenants[tenant];
        let config = ClientConfig {
            auth: Some(ClientAuth::new(tenant.id.clone(), tenant.secret.clone())),
            read_timeout: Some(READ_TIMEOUT),
            ..ClientConfig::default()
        };
        DisputeClient::connect_with(addr, config).map_err(|e| format!("connecting to {addr}: {e}"))
    }

    /// Stops the router, then every judge, and waits for their threads.
    pub fn shutdown(self) {
        if let Some(router) = self.router {
            let _ = router.shutdown();
        }
        for (_, server) in self.backends {
            let _ = server.shutdown();
        }
    }
}

/// Sends one generated docket the way its traffic travels.
pub fn send(
    client: &mut DisputeClient,
    traffic: &Traffic,
    conn: usize,
    generated: &Generated,
) -> WatermarkResult<DocketTicket> {
    match (&generated.docket, traffic) {
        (Docket::Full(disputes), _) => client.send_docket(disputes),
        (Docket::Refs(refs), Traffic::Repeat { pools }) => {
            client.send_docket_ref(&pools[conn].bodies, refs)
        }
        (Docket::Refs(_), Traffic::Distinct { .. }) => {
            unreachable!("distinct traffic sends full dockets")
        }
    }
}

/// A served docket, for the correctness gate.
pub struct Served {
    pub conn: usize,
    pub index: u64,
    pub fingerprint: u64,
}

/// Request accounting of one phase.
#[derive(Debug, Default, Clone)]
pub struct Accounting {
    pub sent: u64,
    pub succeeded: u64,
    /// Typed refusals by error kind.
    pub refused: BTreeMap<String, u64>,
    pub timed_out: u64,
}

impl Accounting {
    pub fn failed(&self) -> u64 {
        self.refused.values().sum::<u64>() + self.timed_out
    }

    pub fn merge(&mut self, other: &Accounting) {
        self.sent += other.sent;
        self.succeeded += other.succeeded;
        self.timed_out += other.timed_out;
        for (kind, n) in &other.refused {
            *self.refused.entry(kind.clone()).or_insert(0) += n;
        }
    }

    fn fail(&mut self, err: &WatermarkError) {
        let text = err.to_string();
        if matches!(err, WatermarkError::Io { .. })
            && (text.contains("timed out") || text.contains("temporarily unavailable"))
        {
            self.timed_out += 1;
        } else {
            let debug = format!("{err:?}");
            let kind = debug.split(|c: char| !c.is_alphanumeric()).next().unwrap_or("Unknown");
            *self.refused.entry(kind.to_string()).or_insert(0) += 1;
        }
    }
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Schedule {
    /// Each connection keeps `depth` dockets in flight.
    Closed { depth: usize },
    /// Dockets are due at a fixed total rate (per second), spread evenly
    /// over the connections; each is timed from when it was due.
    Open { rate: f64 },
}

/// Everything one phase measured.
#[derive(Default)]
pub struct PhaseOutcome {
    pub accounting: Accounting,
    /// Claims in dockets answered.
    pub claims: u64,
    /// From the common start to the last answer.
    pub wall: Duration,
    /// Per answered docket: from send (closed) or due time (open) to
    /// verdicts received.
    pub latencies_ms: Vec<f64>,
    /// Per answered docket: when it completed and its claim count.
    completions: Vec<(Instant, u64)>,
    /// Claims per second in each throughput window.
    window_rates: Vec<f64>,
    /// How far sends ran behind schedule (open loop only).
    pub late_max_ms: f64,
    pub served: Vec<Served>,
    pub spans: Vec<Span>,
}

/// Runs one phase on `clients` (one per connection; connection `i`
/// authenticates as tenant `i`). Docket indices start at `index_base`.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    topology: &Topology,
    traffic: &Traffic,
    seed: u64,
    clients: &mut [DisputeClient],
    index_base: u64,
    duration: Duration,
    schedule: Schedule,
    spans: Option<&SpanLog>,
) -> PhaseOutcome {
    let conns = clients.len();
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + duration;
    let results: Vec<(PhaseOutcome, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                scope.spawn(move || {
                    let generator = Generator {
                        topology,
                        traffic,
                        seed,
                        conn,
                        conns,
                        spans,
                    };
                    generator.run(client, index_base, start, end, schedule)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a generator thread panicked"))
            .collect()
    });
    let mut total = PhaseOutcome::default();
    let mut last = start;
    for (outcome, finished) in results {
        total.accounting.merge(&outcome.accounting);
        total.claims += outcome.claims;
        total.latencies_ms.extend(outcome.latencies_ms);
        total.completions.extend(outcome.completions);
        total.late_max_ms = total.late_max_ms.max(outcome.late_max_ms);
        total.served.extend(outcome.served);
        total.spans.extend(outcome.spans);
        last = last.max(finished);
    }
    total.wall = last.saturating_duration_since(start);
    total.window_rates = total.window_rates(start);
    total.completions.clear();
    total
}

/// Window of the capacity phase's median-of-windows throughput.
pub const THROUGHPUT_WINDOW: Duration = Duration::from_millis(500);

impl PhaseOutcome {
    /// Claims answered per second in each `THROUGHPUT_WINDOW` of the phase.
    fn window_rates(&self, start: Instant) -> Vec<f64> {
        let window = THROUGHPUT_WINDOW.as_secs_f64();
        let windows = ((self.wall.as_secs_f64() / window).floor() as usize).max(1);
        let mut claims = vec![0u64; windows];
        for &(done, n) in &self.completions {
            let slot = (done.saturating_duration_since(start).as_secs_f64() / window) as usize;
            if slot < windows {
                claims[slot] += n;
            }
        }
        claims.iter().map(|&n| n as f64 / window).collect()
    }

    /// Claims answered per second: the median over every window of every
    /// segment, so a stalled window (a noisy neighbour, a page-fault
    /// storm) moves it less than it moves the average.
    pub fn claims_per_s(&self) -> f64 {
        crate::stats::median(&self.window_rates)
    }

    /// Appends a later segment of the same phase.
    pub fn absorb(&mut self, other: PhaseOutcome) {
        self.accounting.merge(&other.accounting);
        self.claims += other.claims;
        self.wall += other.wall;
        self.latencies_ms.extend(other.latencies_ms);
        self.late_max_ms = self.late_max_ms.max(other.late_max_ms);
        self.served.extend(other.served);
        self.spans.extend(other.spans);
        self.window_rates.extend(other.window_rates);
    }
}

struct InFlight {
    index: u64,
    ticket: DocketTicket,
    /// Send time (closed loop) or due time (open loop).
    origin: Instant,
    claims: usize,
    span: u64,
}

struct Generator<'a> {
    topology: &'a Topology,
    traffic: &'a Traffic,
    seed: u64,
    conn: usize,
    conns: usize,
    spans: Option<&'a SpanLog>,
}

impl Generator<'_> {
    fn run(
        &self,
        client: &mut DisputeClient,
        index_base: u64,
        start: Instant,
        end: Instant,
        schedule: Schedule,
    ) -> (PhaseOutcome, Instant) {
        let mut out = PhaseOutcome::default();
        let mut inflight: VecDeque<InFlight> = VecDeque::new();
        let mut next = index_base;
        let mut finished = start;
        if let Some(wait) = start.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        match schedule {
            Schedule::Closed { depth } => loop {
                if client.is_broken() && inflight.is_empty() {
                    self.reconnect(client);
                }
                while Instant::now() < end && inflight.len() < depth && !client.is_broken() {
                    let sent_at = Instant::now();
                    if let Some(entry) = self.send_one(client, next, sent_at, &mut out) {
                        inflight.push_back(entry);
                    }
                    next += 1;
                }
                match inflight.pop_front() {
                    Some(entry) => finished = self.recv_one(client, entry, &mut out),
                    None if Instant::now() >= end => break,
                    None => {}
                }
            },
            Schedule::Open { rate } => {
                let interval = Duration::from_secs_f64(self.conns as f64 / rate);
                let offset = Duration::from_secs_f64(self.conn as f64 / rate);
                let mut k = 0u32;
                loop {
                    let due = start + offset + interval * k;
                    if due >= end {
                        break;
                    }
                    loop {
                        let now = Instant::now();
                        if now >= due {
                            break;
                        }
                        match inflight.pop_front() {
                            Some(entry) => finished = self.recv_one(client, entry, &mut out),
                            None => std::thread::sleep(due - now),
                        }
                    }
                    if client.is_broken() && inflight.is_empty() {
                        self.reconnect(client);
                    }
                    out.late_max_ms = out.late_max_ms.max(ms(Instant::now() - due));
                    if let Some(entry) = self.send_one(client, next, due, &mut out) {
                        inflight.push_back(entry);
                    }
                    next += 1;
                    k += 1;
                }
                while let Some(entry) = inflight.pop_front() {
                    finished = self.recv_one(client, entry, &mut out);
                }
            }
        }
        (out, finished)
    }

    fn reconnect(&self, client: &mut DisputeClient) {
        if let Ok(fresh) = self.topology.connect(self.conn) {
            *client = fresh;
        }
    }

    fn docket_id(&self, index: u64) -> u64 {
        ((self.conn as u64) << 48) | index
    }

    fn send_one(
        &self,
        client: &mut DisputeClient,
        index: u64,
        origin: Instant,
        out: &mut PhaseOutcome,
    ) -> Option<InFlight> {
        let generated = self.traffic.generate(self.seed, self.conn, index);
        out.accounting.sent += 1;
        let docket = self.docket_id(index);
        let root = self.spans.map_or(0, SpanLog::next_id);
        let began = Instant::now();
        let sent = send(client, self.traffic, self.conn, &generated);
        if let Some(log) = self.spans {
            out.spans
                .push(log.span("client.send_docket", root, docket, began, Instant::now()));
        }
        match sent {
            Ok(ticket) => Some(InFlight {
                index,
                ticket,
                origin,
                claims: generated.claims(),
                span: root,
            }),
            Err(err) => {
                out.accounting.fail(&err);
                None
            }
        }
    }

    fn recv_one(&self, client: &mut DisputeClient, entry: InFlight, out: &mut PhaseOutcome) -> Instant {
        let began = Instant::now();
        let received: WatermarkResult<Vec<WatermarkResult<VerificationReport>>> =
            client.recv_docket(entry.ticket);
        let done = Instant::now();
        if let Some(log) = self.spans {
            let docket = self.docket_id(entry.index);
            out.spans.push(log.span("client.recv_docket", entry.span, docket, began, done));
            out.spans.push(log.root(entry.span, "docket", docket, entry.origin, done));
        }
        match received {
            Ok(verdicts) => {
                out.accounting.succeeded += 1;
                out.claims += entry.claims as u64;
                out.latencies_ms.push(ms(done - entry.origin));
                out.completions.push((done, entry.claims as u64));
                out.served.push(Served {
                    conn: self.conn,
                    index: entry.index,
                    fingerprint: fingerprint(&verdicts),
                });
            }
            Err(err) => out.accounting.fail(&err),
        }
        done
    }
}
