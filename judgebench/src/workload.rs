//! The four workloads: set-up, the measured phases, the correctness gate
//! and the end-to-end metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wdte_core::{persist, Dispute, DisputeService, Format, OwnershipClaim, PayloadDigest, Watermarker};
use wdte_server::DisputeClient;

use crate::fixture::{
    build_pool, derive_seed, embed_fixture, EmbedInput, Generated, ModelFixture, Pool, PoolClaim,
    Traffic,
};
use crate::stats::{fingerprint, median, ms, peak_rss_mib, percentile, Metric, Metrics};
use crate::trace::SpanLog;
use crate::wire::{run_phase, send, Accounting, PhaseOutcome, Schedule, Topology, PIPELINE_DEPTH};

/// Workload names, fixed: later changes claim their gains against them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DisputeDistinct,
    DisputeRepeat,
    FleetRepeat,
    EmbedRegister,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DisputeDistinct,
        Workload::DisputeRepeat,
        Workload::FleetRepeat,
        Workload::EmbedRegister,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DisputeDistinct => "dispute-distinct",
            Workload::DisputeRepeat => "dispute-repeat",
            Workload::FleetRepeat => "fleet-repeat",
            Workload::EmbedRegister => "embed-register",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn routed(self) -> bool {
        self == Workload::FleetRepeat
    }

    fn repeat(self) -> bool {
        matches!(self, Workload::DisputeRepeat | Workload::FleetRepeat)
    }
}

/// Model ids the fleet workload cycles, so every docket splits into shards.
pub const FLEET_MODELS: usize = 4;
/// Backends behind the fleet router.
pub const FLEET_BACKENDS: usize = 2;
/// Set-ups per run before the measured segments; `setup_s` is the median
/// of these and of the probes' set-ups.
pub const SETUP_REPEATS: usize = 3;
/// Throwaway set-ups timed by each probe between measured segments.
pub const PROBE_SETUPS: usize = 2;
/// Registrations timed by each probe between measured segments.
pub const PROBE_REGISTRATIONS: usize = 16;
/// Fixture embeddings timed by each probe between measured segments.
pub const PROBE_EMBEDS: usize = 6;
/// Model id the probes register under. No docket addresses it, so a
/// probe leaves the traffic's compiled models and cached claims alone.
const PROBE_MODEL_ID: &str = "register-probe";
/// (dataset, seed) pairs the owner's path cycles through.
pub const OWNER_PAIRS: usize = 6;
/// Seed of the fixture models and of the owner's (dataset, seed) pairs.
/// Fixed, so every workload seed runs against the same models and the
/// seed varies only the generated claims and dockets.
const FIXTURE_SEED: u64 = 0x5CA1E;
/// Rounds of (capacity, latency) segments in a run.
pub const SEGMENTS: usize = 4;
/// Docket indices of segment `k` start at `k << SEGMENT_SHIFT`.
const SEGMENT_SHIFT: u32 = 28;
/// Docket index where the latency segments start (capacity starts at 0).
const LATENCY_BASE: u64 = 1 << 32;
/// Docket index of the traced run's untraced capacity segment.
const UNTRACED_BASE: u64 = 1 << 36;
/// Docket index of the warm-up dockets.
const WARMUP_BASE: u64 = 1 << 40;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Offered rate of the latency phase, in dockets per second.
    pub rate: f64,
    pub setup_repeats: usize,
    /// Connections (= tenants = generator threads).
    pub conns: usize,
    /// Flip one expected verdict, to show the correctness gate bites.
    pub corrupt_reference: bool,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

/// Why a run stopped.
#[derive(Debug)]
pub enum Failure {
    /// A served verdict differed from the in-process reference, or the
    /// genuine/forged split was wrong. Never reported as a slow or failed
    /// operation.
    Correctness(String),
    /// The harness itself could not run.
    Harness(String),
}

fn harness(message: impl Into<String>) -> Failure {
    Failure::Harness(message.into())
}

/// What the benchmark prints.
pub struct RunOutput {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub context: Vec<(String, String)>,
    pub report: Vec<String>,
}

/// Everything set-up leaves behind for the measured phases.
pub struct Bench {
    pub topology: Topology,
    pub clients: Vec<DisputeClient>,
    /// The in-process reference: same models, anonymous namespace.
    pub reference: DisputeService,
    pub traffic: Traffic,
    /// Every model the run registered.
    pub fixtures: Vec<Arc<ModelFixture>>,
    pub embed_s: Vec<f64>,
    pub register_ms: Vec<f64>,
    /// For the owner's path: the datasets of each pair.
    pub owner_inputs: Vec<(EmbedInput, u64)>,
}

impl Bench {
    pub fn shutdown(self) {
        drop(self.clients);
        self.topology.shutdown();
    }

    /// The reference fingerprint of docket `generated` of connection
    /// `conn`, after checking that the reference itself upholds exactly
    /// the genuine claims.
    pub fn expected_for(&self, conn: usize, generated: &Generated) -> Result<u64, Failure> {
        let reports = match (&self.traffic, &generated.docket) {
            (Traffic::Repeat { pools }, _) => generated
                .picks
                .iter()
                .map(|&k| Ok(pools[conn].claims[k].expected.clone()))
                .collect(),
            (Traffic::Distinct { .. }, crate::fixture::Docket::Full(disputes)) => {
                self.reference.resolve_many(disputes)
            }
            (Traffic::Distinct { .. }, crate::fixture::Docket::Refs(_)) => {
                return Err(harness("distinct traffic produced a digest-only docket"))
            }
        };
        check_split(&reports, &generated.genuine)?;
        Ok(fingerprint(&reports))
    }
}

fn check_split(
    reports: &[wdte_core::WatermarkResult<wdte_core::VerificationReport>],
    genuine: &[bool],
) -> Result<(), Failure> {
    for (report, &is_genuine) in reports.iter().zip(genuine) {
        match report {
            Ok(r) if r.verified == is_genuine => {}
            Ok(r) => {
                return Err(Failure::Correctness(format!(
                    "the reference {} a {} claim",
                    if r.verified { "upheld" } else { "rejected" },
                    if is_genuine { "genuine" } else { "forged" }
                )))
            }
            Err(err) => {
                return Err(Failure::Correctness(format!(
                    "the reference refused a claim: {err}"
                )))
            }
        }
    }
    Ok(())
}

/// Model ids of a dispute workload.
fn dispute_model_ids(workload: Workload) -> Vec<String> {
    if workload.routed() {
        (0..FLEET_MODELS).map(|i| format!("deployment-{i}")).collect()
    } else {
        vec!["deployment".to_string()]
    }
}

/// Set-up of a dispute workload: fixture generation and embedding,
/// judges (and router), registration of the model under every tenant over
/// the wire, the reference, the warm pools and a warm-up that uploads the
/// pool bodies and lets `Kernel::Auto` probe.
fn setup_dispute(cfg: &RunConfig) -> Result<Bench, Failure> {
    let input = EmbedInput::dispute_fixture();
    let base = embed_fixture(&input, FIXTURE_SEED, String::new()).map_err(harness)?;
    let fixtures: Vec<Arc<ModelFixture>> = dispute_model_ids(cfg.workload)
        .into_iter()
        .map(|id| {
            Arc::new(ModelFixture {
                id,
                outcome: base.outcome.clone(),
                train: base.train.clone(),
                decoys: base.decoys.clone(),
            })
        })
        .collect();
    let (backends, routed) = if cfg.workload.routed() {
        (FLEET_BACKENDS, true)
    } else {
        (1, false)
    };
    let topology = Topology::start(backends, routed, 0, cfg.conns).map_err(harness)?;
    let reference = DisputeService::builder().build().map_err(|e| harness(e.to_string()))?;
    for fixture in &fixtures {
        reference.register(fixture.id.clone(), &fixture.outcome.model);
    }
    let mut clients = (0..cfg.conns)
        .map(|conn| topology.connect(conn))
        .collect::<Result<Vec<_>, _>>()
        .map_err(harness)?;
    for client in &mut clients {
        for fixture in &fixtures {
            client
                .register_model(fixture.id.clone(), &fixture.outcome.model)
                .map_err(|e| harness(format!("registering {}: {e}", fixture.id)))?;
        }
    }
    let traffic = if cfg.workload.repeat() {
        let pools = (0..cfg.conns)
            .map(|conn| {
                let drawn = build_pool(cfg.seed, conn, &fixtures);
                let disputes: Vec<Dispute> = drawn
                    .iter()
                    .map(|(id, claim, _)| Dispute::new(id.clone(), claim.clone()))
                    .collect();
                let reports = reference.resolve_many(&disputes);
                let mut claims = Vec::with_capacity(drawn.len());
                let mut bodies = std::collections::HashMap::new();
                for ((model_id, claim, genuine), report) in drawn.into_iter().zip(reports) {
                    let expected =
                        report.map_err(|e| Failure::Correctness(format!("reference refused: {e}")))?;
                    if expected.verified != genuine {
                        return Err(Failure::Correctness(
                            "the reference misjudged a pool claim".into(),
                        ));
                    }
                    let digest = PayloadDigest::of_claim(&claim);
                    let claim = Arc::new(claim);
                    bodies.insert(digest, Arc::clone(&claim));
                    claims.push(PoolClaim {
                        model_id,
                        digest,
                        claim,
                        genuine,
                        expected,
                    });
                }
                Ok(Pool { claims, bodies })
            })
            .collect::<Result<Vec<_>, Failure>>()?;
        Traffic::Repeat { pools }
    } else {
        Traffic::Distinct {
            models: vec![fixtures.clone(); cfg.conns],
        }
    };
    let mut bench = Bench {
        topology,
        clients,
        reference,
        traffic,
        fixtures,
        embed_s: Vec::new(),
        register_ms: Vec::new(),
        owner_inputs: vec![(input, FIXTURE_SEED)],
    };
    warm_up(&mut bench, cfg)?;
    Ok(bench)
}

/// Uploads every pool body (repeat traffic) and resolves two generated
/// dockets per connection, checked against the reference. The first
/// resolution against each compiled model runs the `Kernel::Auto` probe.
fn warm_up(bench: &mut Bench, cfg: &RunConfig) -> Result<(), Failure> {
    for conn in 0..cfg.conns {
        if let Traffic::Repeat { pools } = &bench.traffic {
            let pool = &pools[conn];
            let refs: Vec<wdte_core::DisputeRef> = pool
                .claims
                .iter()
                .map(|c| wdte_core::DisputeRef::new(c.model_id.clone(), c.digest))
                .collect();
            let client = &mut bench.clients[conn];
            let ticket = client
                .send_docket_ref(&pool.bodies, &refs)
                .map_err(|e| harness(e.to_string()))?;
            let verdicts = client.recv_docket(ticket).map_err(|e| harness(e.to_string()))?;
            let expected: Vec<_> = pool.claims.iter().map(|c| Ok(c.expected.clone())).collect();
            if fingerprint(&verdicts) != fingerprint(&expected) {
                return Err(Failure::Correctness(
                    "warm-up verdicts differ from the reference".into(),
                ));
            }
        }
        for i in 0..2 {
            let generated = bench.traffic.generate(cfg.seed, conn, WARMUP_BASE + i);
            let client = &mut bench.clients[conn];
            let ticket =
                send(client, &bench.traffic, conn, &generated).map_err(|e| harness(e.to_string()))?;
            let verdicts = client.recv_docket(ticket).map_err(|e| harness(e.to_string()))?;
            if fingerprint(&verdicts) != bench.expected_for(conn, &generated)? {
                return Err(Failure::Correctness(
                    "warm-up verdicts differ from the reference".into(),
                ));
            }
        }
    }
    Ok(())
}

/// Times `PROBE_REGISTRATIONS` registrations of the dispute fixture's model
/// (each over a fresh connection, so each is a full upload and compile)
/// and `PROBE_EMBEDS` embeddings of its training rows. Probes run between
/// the measured segments, so `register_ms` and `embed_s` sample the whole
/// run rather than the few hundred milliseconds of set-up.
fn probe_owner_ops(bench: &mut Bench, cfg: &RunConfig) -> Result<(), Failure> {
    let fixture = Arc::clone(&bench.fixtures[0]);
    for k in 0..PROBE_REGISTRATIONS {
        let mut client = bench.topology.connect(k % cfg.conns).map_err(harness)?;
        client.list_models().map_err(|e| harness(e.to_string()))?;
        let started = Instant::now();
        client
            .register_model(PROBE_MODEL_ID, &fixture.outcome.model)
            .map_err(|e| harness(format!("registering {PROBE_MODEL_ID}: {e}")))?;
        bench.register_ms.push(ms(started.elapsed()));
    }
    let (input, seed) = &bench.owner_inputs[0];
    let signature = input.signature(*seed);
    let watermarker = Watermarker::new(input.config());
    for _ in 0..PROBE_EMBEDS {
        let started = Instant::now();
        watermarker
            .embed(&fixture.train, &signature, &mut input.embed_rng(*seed, 0))
            .map_err(|e| harness(format!("embedding {}: {e}", input.name)))?;
        bench.embed_s.push(started.elapsed().as_secs_f64());
    }
    Ok(())
}

/// Set-up of the owner's path: the pair datasets, the judge, the
/// reference and one idle connection per tenant for the dispute phases.
fn setup_owner(cfg: &RunConfig) -> Result<Bench, Failure> {
    let inputs = EmbedInput::owner_inputs();
    let owner_inputs: Vec<(EmbedInput, u64)> = (0..OWNER_PAIRS)
        .map(|p| {
            (
                inputs[p % inputs.len()].clone(),
                derive_seed(FIXTURE_SEED, &[p as u64]),
            )
        })
        .collect();
    // Generating the datasets (and their presorted columns) is fixture
    // work; the measured embeddings regenerate nothing.
    for (input, seed) in &owner_inputs {
        let (train, _) = input.generate(*seed);
        let _ = train.presort();
    }
    let topology = Topology::start(1, false, 0, cfg.conns).map_err(harness)?;
    let reference = DisputeService::builder().build().map_err(|e| harness(e.to_string()))?;
    let mut clients = Vec::with_capacity(cfg.conns);
    for conn in 0..cfg.conns {
        let mut client = topology.connect(conn).map_err(harness)?;
        client.ping().map_err(|e| harness(e.to_string()))?;
        clients.push(client);
    }
    Ok(Bench {
        topology,
        clients,
        reference,
        traffic: Traffic::Distinct { models: Vec::new() },
        fixtures: Vec::new(),
        embed_s: Vec::new(),
        register_ms: Vec::new(),
        owner_inputs,
    })
}

/// Timings of the owner's path that only the traced run reports.
#[derive(Default)]
pub struct OwnerTimings {
    pub save_ms: Vec<f64>,
    pub cycles: usize,
}

/// The owner's path, repeated until `duration` is spent (and every pair
/// ran once): embed → save → register over the wire → one wire resolve
/// of the owner's genuine claim. Leaves every pair's latest model
/// registered for the dispute phases that follow.
fn owner_loop(bench: &mut Bench, cfg: &RunConfig, duration: Duration) -> Result<OwnerTimings, Failure> {
    let started = Instant::now();
    let mut timings = OwnerTimings::default();
    let mut registered: BTreeMap<usize, Arc<ModelFixture>> = BTreeMap::new();
    let dir = cfg.out_dir.join(format!("models-{}", std::process::id()));
    let mut cycle = 0usize;
    while cycle < OWNER_PAIRS || started.elapsed() < duration {
        let pair = cycle % OWNER_PAIRS;
        let tenant = pair % cfg.conns;
        let (input, seed) = &bench.owner_inputs[pair];
        let (train, decoys) = input.generate(*seed);
        let signature = input.signature(*seed);
        let watermarker = Watermarker::new(input.config());
        let embed_started = Instant::now();
        let outcome = watermarker
            .embed(&train, &signature, &mut input.embed_rng(*seed, 0))
            .map_err(|e| harness(format!("embedding pair {pair}: {e}")))?;
        bench.embed_s.push(embed_started.elapsed().as_secs_f64());
        if !wdte_core::watermark_holds(&outcome.model, &outcome.signature, &outcome.trigger_set) {
            return Err(Failure::Correctness(format!(
                "the watermark of pair {pair} does not hold"
            )));
        }
        let path = dir.join(format!("owner-{pair}.wdte"));
        let save_started = Instant::now();
        persist::save(&path, &outcome.model, Format::Binary).map_err(|e| harness(e.to_string()))?;
        timings.save_ms.push(ms(save_started.elapsed()));

        let id = format!("owner-{pair}");
        let mut client = bench.topology.connect(tenant).map_err(harness)?;
        let register_started = Instant::now();
        client
            .register_model(id.clone(), &outcome.model)
            .map_err(|e| harness(format!("registering {id}: {e}")))?;
        bench.register_ms.push(ms(register_started.elapsed()));
        bench.reference.register(id.clone(), &outcome.model);

        let claim = OwnershipClaim::new(
            outcome.signature.clone(),
            outcome.trigger_set.clone(),
            decoys.clone(),
        );
        let verdicts = client
            .resolve_docket(&[Dispute::new(id.clone(), claim.clone())])
            .map_err(|e| harness(format!("resolving the owner's claim on {id}: {e}")))?;
        let expected = vec![bench.reference.resolve(&id, &claim)];
        let upheld = matches!(verdicts.first(), Some(Ok(r)) if r.verified);
        if !upheld || fingerprint(&verdicts) != fingerprint(&expected) {
            return Err(Failure::Correctness(format!(
                "the owner's claim on {id} was not upheld as in process"
            )));
        }
        registered.insert(
            pair,
            Arc::new(ModelFixture {
                id,
                outcome,
                train,
                decoys,
            }),
        );
        cycle += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);
    timings.cycles = cycle;
    let mut models = vec![Vec::new(); cfg.conns];
    for (pair, fixture) in &registered {
        models[pair % cfg.conns].push(Arc::clone(fixture));
    }
    bench.fixtures = registered.into_values().collect();
    bench.traffic = Traffic::Distinct { models };
    Ok(timings)
}

/// Checks every served docket against the reference and returns the
/// distinct-verification count of the phase's dockets.
fn gate(bench: &Bench, cfg: &RunConfig, phase: &PhaseOutcome, corrupt: bool) -> Result<u64, Failure> {
    let mut distinct = 0u64;
    for (i, served) in phase.served.iter().enumerate() {
        let generated = bench.traffic.generate(cfg.seed, served.conn, served.index);
        let mut expected = bench.expected_for(served.conn, &generated)?;
        if corrupt && i == 0 {
            expected ^= 1;
        }
        if expected != served.fingerprint {
            return Err(Failure::Correctness(format!(
                "docket {} of connection {}: served verdicts {:016x} differ from the in-process \
                 reference {expected:016x}",
                served.index, served.conn, served.fingerprint
            )));
        }
        distinct += generated.distinct() as u64;
    }
    Ok(distinct)
}

/// Everything the measured part of a run produced.
pub struct Measured {
    pub capacity: PhaseOutcome,
    pub latency: PhaseOutcome,
    /// Distinct verifications over claims, capacity phase.
    pub dedup_ratio: f64,
    pub owner: OwnerTimings,
    /// Traced run only: the untraced capacity phase run first.
    pub untraced_capacity: Option<PhaseOutcome>,
}

/// Runs one workload end to end.
pub fn run(cfg: &RunConfig) -> Result<RunOutput, Failure> {
    let setup = |cfg: &RunConfig| match cfg.workload {
        Workload::EmbedRegister => setup_owner(cfg),
        _ => setup_dispute(cfg),
    };
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..cfg.setup_repeats.max(1) {
        if let Some(previous) = bench.take() {
            Bench::shutdown(previous);
        }
        let started = Instant::now();
        bench = Some(setup(cfg)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up ran");
    let spans = cfg.trace.then(SpanLog::new);

    let total = Duration::from_secs_f64(cfg.seconds);
    let (owner_share, capacity_share) = match cfg.workload {
        Workload::EmbedRegister => (0.4, 0.2),
        _ => (0.0, 0.4),
    };
    let owner = if cfg.workload == Workload::EmbedRegister {
        owner_loop(&mut bench, cfg, total.mul_f64(owner_share))?
    } else {
        OwnerTimings::default()
    };
    let capacity_time = total.mul_f64(capacity_share);
    let latency_time = total.saturating_sub(total.mul_f64(owner_share)).saturating_sub(capacity_time);
    let closed = Schedule::Closed {
        depth: PIPELINE_DEPTH,
    };

    // Capacity and latency alternate in `SEGMENTS` rounds, so both phases
    // sample the whole run rather than one stretch of it.
    let segment = |time: Duration| time.div_f64(SEGMENTS as f64);
    let untraced_capacity = cfg.trace.then(|| {
        run_phase(
            &bench.topology,
            &bench.traffic,
            cfg.seed,
            &mut bench.clients,
            UNTRACED_BASE,
            segment(capacity_time),
            closed,
            None,
        )
    });
    let mut capacity = PhaseOutcome::default();
    let mut latency = PhaseOutcome::default();
    let mut ping_loaded_us = f64::NAN;
    // Probes between the measured segments time throwaway set-ups and, in
    // the dispute workloads, the owner's operations, so `setup_s`,
    // `register_ms` and `embed_s` sample the whole run as the phases do.
    let probe = |bench: &mut Bench, setup_s: &mut Vec<f64>| -> Result<(), Failure> {
        for _ in 0..PROBE_SETUPS {
            let started = Instant::now();
            let spare = setup(cfg)?;
            setup_s.push(started.elapsed().as_secs_f64());
            spare.shutdown();
        }
        if cfg.workload != Workload::EmbedRegister {
            probe_owner_ops(bench, cfg)?;
        }
        Ok(())
    };
    for k in 0..SEGMENTS as u64 {
        let Bench {
            topology,
            traffic,
            clients,
            ..
        } = &mut bench;
        let (part, ping) = crate::layers::with_loaded_ping(topology, cfg, || {
            let base = k << SEGMENT_SHIFT;
            run_phase(
                topology,
                traffic,
                cfg.seed,
                clients,
                base,
                segment(capacity_time),
                closed,
                spans.as_ref(),
            )
        });
        capacity.absorb(part);
        if k == 0 {
            ping_loaded_us = ping;
        }
        probe(&mut bench, &mut setup_s)?;
        let Bench {
            topology,
            traffic,
            clients,
            ..
        } = &mut bench;
        latency.absorb(run_phase(
            topology,
            traffic,
            cfg.seed,
            clients,
            LATENCY_BASE + (k << SEGMENT_SHIFT),
            segment(latency_time),
            Schedule::Open { rate: cfg.rate },
            spans.as_ref(),
        ));
        probe(&mut bench, &mut setup_s)?;
    }

    let capacity_distinct = gate(&bench, cfg, &capacity, cfg.corrupt_reference)?;
    gate(&bench, cfg, &latency, false)?;
    if let Some(untraced) = &untraced_capacity {
        gate(&bench, cfg, untraced, false)?;
    }
    let dedup_ratio = capacity_distinct as f64 / capacity.claims.max(1) as f64;
    let measured = Measured {
        capacity,
        latency,
        dedup_ratio,
        owner,
        untraced_capacity,
    };

    let mut accounting = Accounting::default();
    accounting.merge(&measured.capacity.accounting);
    accounting.merge(&measured.latency.accounting);
    let mut latencies = measured.latency.latencies_ms.clone();
    latencies.sort_by(f64::total_cmp);
    let p99 = percentile(&latencies, 99.0);
    let beyond_p99 = latencies.iter().filter(|&&l| l > p99).count();
    let claims_per_s = measured.capacity.claims_per_s();

    let mut metrics = Metrics::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.insert(name.to_string(), Metric { value, unit });
    };
    put("claims_per_s", claims_per_s, "claims/s");
    put("verifications_per_s", claims_per_s * measured.dedup_ratio, "1/s");
    put("docket_p50_ms", percentile(&latencies, 50.0), "ms");
    put("embed_s", median(&bench.embed_s), "s");
    put("register_ms", median(&bench.register_ms), "ms");
    put("setup_s", median(&setup_s), "s");
    put("peak_rss_mb", peak_rss_mib(), "MiB");

    let mut report = vec![
        phase_line("capacity", &measured.capacity, None),
        phase_line("latency", &measured.latency, Some(cfg.rate)),
        format!(
            "latency samples {} ({} beyond p99); dedup ratio {:.4}; failed {} of {} dockets",
            latencies.len(),
            beyond_p99,
            measured.dedup_ratio,
            accounting.failed(),
            accounting.sent
        ),
    ];
    if cfg.workload == Workload::EmbedRegister {
        report.push(format!(
            "owner path: {} cycles of embed, save, register and resolve over {} (dataset, seed) pairs",
            measured.owner.cycles, OWNER_PAIRS
        ));
    }
    let failed_frac = accounting.failed() as f64 / accounting.sent.max(1) as f64;
    let context = crate::context::collect(cfg, &bench);

    let metrics = match &spans {
        Some(log) => {
            let mut all = measured.capacity.spans.clone();
            all.extend(measured.latency.spans.iter().cloned());
            let mut layers = crate::layers::measure(
                &mut bench,
                cfg,
                &measured,
                ping_loaded_us,
                failed_frac,
                log,
                &mut all,
                &mut report,
            )?;
            layers.insert(
                "docket_p99_ms".to_string(),
                Metric {
                    value: p99,
                    unit: "ms",
                },
            );
            let path = cfg
                .out_dir
                .join(format!("spans-{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
            match crate::trace::write_spans(&path, &all) {
                Ok(()) => report.push(format!("{} spans written to {}", all.len(), path.display())),
                Err(err) => report.push(format!("could not write spans to {}: {err}", path.display())),
            }
            layers
        }
        None => metrics,
    };
    bench.shutdown();
    Ok(RunOutput {
        metrics,
        attempted: accounting.sent,
        failed: accounting.failed(),
        context,
        report,
    })
}

fn phase_line(name: &str, phase: &PhaseOutcome, rate: Option<f64>) -> String {
    let a = &phase.accounting;
    format!(
        "{name} phase{}: sent {} succeeded {} refused {:?} timed out {}; {} claims in {:.3} s; \
         generator late by at most {:.3} ms",
        rate.map(|r| format!(" at {r} dockets/s")).unwrap_or_default(),
        a.sent,
        a.succeeded,
        a.refused,
        a.timed_out,
        phase.claims,
        phase.wall.as_secs_f64(),
        phase.late_max_ms
    )
}
