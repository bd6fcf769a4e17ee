//! `fleet_smoke` — end-to-end smoke check against a running judge fleet
//! (`serve_judge --router` + backend judges as real processes).
//!
//! Normal phase: registers eight models through the router, verifies
//! each landed exactly on its consistent-hash home backend (by asking
//! every backend directly), resolves a mixed genuine/forged docket that
//! cycles all eight models plus one unknown id, and fails unless every
//! served verdict is *bit-identical* to in-process
//! `DisputeService::resolve_many` on the same docket — the fleet must
//! never change a verdict. Three pipelined dockets redeemed out of
//! order, a fleet-wide ping and a stats sweep round out the check.
//! Models are deliberately left registered so a degraded run can follow.
//!
//! Degraded phase (`--degraded DEAD_ADDR`, run after killing the backend
//! listening on `DEAD_ADDR`): the same docket must now yield
//! bit-identical verdicts for every dispute homed on a surviving
//! backend, and a *typed* fault — never a hang — for every dispute homed
//! on the dead one.
//!
//! ```text
//! fleet_smoke --addr ROUTER --backend HOST:PORT [--backend HOST:PORT]...
//!             [--claims N] [--key-file PATH --tenant NAME]
//!             [--degraded DEAD_ADDR]
//! ```
//!
//! `--backend` flags must list the backends in the router's `--backends`
//! order — ring placement is positional, and the placement check
//! recomputes it with the same [`HashRing`].

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::process::ExitCode;
use wdte_core::{
    Dispute, DisputeService, HashRing, KeyRing, OwnershipClaim, Signature, TenantId, WatermarkConfig,
    WatermarkError, Watermarker,
};
use wdte_data::SyntheticSpec;
use wdte_server::{ClientAuth, DisputeClient};

/// Distinct model ids spread across the ring. Eight ids across two or
/// three backends makes both a multi-backend docket split and at least
/// one dead-homed id overwhelmingly likely (and the run asserts both).
const MODELS: usize = 8;

fn model_id(index: usize) -> String {
    format!("fleet-m{index}")
}

/// The deterministic fixture: one watermarked model (registered under
/// every fleet id), plus the mixed docket. Same seed every run and both
/// phases, so the degraded phase replays the exact docket of the normal
/// phase.
struct Fixture {
    model: wdte_trees::RandomForest,
    docket: Vec<Dispute>,
}

fn build_fixture(claims: usize) -> Result<Fixture, String> {
    let mut rng = SmallRng::seed_from_u64(0xF1EE7);
    let dataset = SyntheticSpec::breast_cancer_like().scaled(0.6).generate(&mut rng);
    let (train, test) = dataset.split_stratified(0.8, &mut rng);
    let signature = Signature::from_identity("alice@fleetcorp.example", 16);
    let config = WatermarkConfig {
        num_trees: 16,
        ..WatermarkConfig::fast()
    };
    let outcome = Watermarker::new(config)
        .embed(&train, &signature, &mut rng)
        .map_err(|err| format!("embedding failed: {err}"))?;
    let genuine = OwnershipClaim::new(
        outcome.signature.clone(),
        outcome.trigger_set.clone(),
        test.clone(),
    );
    let forged = OwnershipClaim::new(
        Signature::from_identity("mallory@pirate.example", 16),
        test.select(&(0..outcome.trigger_set.len()).collect::<Vec<_>>())
            .map_err(|err| format!("forged trigger selection failed: {err}"))?,
        test.clone(),
    );
    let docket: Vec<Dispute> = (0..claims)
        .map(|i| {
            let claim = if i % 2 == 0 {
                genuine.clone()
            } else {
                forged.clone()
            };
            // One dispute names an unknown model, so typed-error
            // transport is exercised through the split/stitch path too.
            let id = if i == claims / 2 {
                "fleet-ghost".to_string()
            } else {
                model_id(i % MODELS)
            };
            Dispute::new(id, claim)
        })
        .collect();
    Ok(Fixture {
        model: outcome.model,
        docket,
    })
}

/// The in-process reference verdicts for the fixture docket.
fn reference_verdicts(
    fixture: &Fixture,
) -> Result<Vec<wdte_core::error::WatermarkResult<wdte_core::VerificationReport>>, String> {
    let service = DisputeService::builder().build().map_err(|err| err.to_string())?;
    for index in 0..MODELS {
        service.register(model_id(index), &fixture.model);
    }
    Ok(service.resolve_many(&fixture.docket))
}

fn connect(addr: &str, auth: &Option<ClientAuth>) -> Result<DisputeClient, String> {
    match auth {
        Some(auth) => DisputeClient::connect_authenticated(addr, auth.clone()),
        None => DisputeClient::connect(addr),
    }
    .map_err(|err| format!("could not reach {addr}: {err}"))
}

/// Ring home (backend index) of every fleet model id, under the same
/// hash the router uses.
fn homes(backends: usize, tenant: &TenantId) -> Result<Vec<usize>, String> {
    let ring = HashRing::new(backends, 64).map_err(|err| err.to_string())?;
    Ok((0..MODELS).map(|index| ring.home(tenant, &model_id(index))).collect())
}

/// Normal phase: register, check placement, resolve, compare.
fn run_normal(
    addr: &str,
    backends: &[String],
    claims: usize,
    auth: &Option<ClientAuth>,
) -> Result<(), String> {
    let fixture = build_fixture(claims)?;
    let reference = reference_verdicts(&fixture)?;
    let tenant = auth.as_ref().map_or_else(TenantId::anonymous, |a| a.tenant().clone());
    let homes = homes(backends.len(), &tenant)?;

    let mut client = connect(addr, auth)?;
    let pong = client.ping().map_err(|err| format!("fleet ping failed: {err}"))?;
    println!(
        "router at {addr}: protocol v{}, format v{}, {} models across the fleet",
        pong.protocol_version, pong.format_version, pong.models_registered
    );
    for index in 0..MODELS {
        let trees = client
            .register_model(model_id(index), &fixture.model)
            .map_err(|err| format!("registering {} failed: {err}", model_id(index)))?;
        if trees != fixture.model.num_trees() {
            return Err(format!(
                "router registered {trees} trees for {}, expected {}",
                model_id(index),
                fixture.model.num_trees()
            ));
        }
    }
    // The router's ListModels is the fleet union and must show all ids.
    let listed = client.list_models().map_err(|err| format!("list_models failed: {err}"))?;
    for index in 0..MODELS {
        if !listed.contains(&model_id(index)) {
            return Err(format!("{} missing from the fleet listing", model_id(index)));
        }
    }
    // Placement check: each model must live on exactly its ring home —
    // asked of every backend *directly*, bypassing the router.
    for (backend, backend_addr) in backends.iter().enumerate() {
        let mut direct = connect(backend_addr, auth)?;
        let here = direct.list_models().map_err(|err| {
            format!("direct list_models on backend {backend} ({backend_addr}) failed: {err}")
        })?;
        for (index, home) in homes.iter().enumerate().take(MODELS) {
            let expect_here = *home == backend;
            let is_here = here.contains(&model_id(index));
            if expect_here != is_here {
                return Err(format!(
                    "{} on backend {backend} ({backend_addr}): expected {expect_here}, found {is_here} \
                     — consistent-hash placement diverged",
                    model_id(index)
                ));
            }
        }
    }
    let spread: std::collections::HashSet<usize> = homes.iter().copied().collect();
    if spread.len() < 2 {
        return Err(format!(
            "all {MODELS} models landed on backend {:?}; the docket would not split",
            spread
        ));
    }
    println!(
        "placement verified: {MODELS} models spread over {} of {} backends, homes {homes:?}",
        spread.len(),
        backends.len()
    );

    // The docket, resolved through the split/stitch path.
    let served = client
        .resolve_docket(&fixture.docket)
        .map_err(|err| format!("fleet docket resolution failed: {err}"))?;
    if served.len() != reference.len() {
        return Err(format!(
            "fleet docket has {} verdicts, expected {}",
            served.len(),
            reference.len()
        ));
    }
    let mut upheld = 0usize;
    for (i, (remote, local)) in served.iter().zip(&reference).enumerate() {
        if remote != local {
            return Err(format!(
                "verdict {i} differs between fleet and in-process:\n  fleet: {remote:?}\n  local: {local:?}"
            ));
        }
        if remote.as_ref().is_ok_and(|report| report.verified) {
            upheld += 1;
        }
    }
    if upheld == 0 || upheld >= claims {
        return Err(format!(
            "implausible verdict split ({upheld}/{claims} upheld): the fixture must mix genuine and forged claims"
        ));
    }
    println!(
        "resolved {} disputes across the fleet: {upheld} upheld, all bit-identical to in-process resolution",
        served.len()
    );

    // Pipelined dockets redeemed out of order must survive the fan-out.
    let tickets = [
        client
            .send_docket(&fixture.docket)
            .map_err(|err| format!("pipelined send failed: {err}"))?,
        client
            .send_docket(&fixture.docket)
            .map_err(|err| format!("pipelined send failed: {err}"))?,
        client
            .send_docket(&fixture.docket)
            .map_err(|err| format!("pipelined send failed: {err}"))?,
    ];
    for (i, ticket) in tickets.into_iter().rev().enumerate() {
        let pipelined = client
            .recv_docket(ticket)
            .map_err(|err| format!("pipelined recv failed: {err}"))?;
        if pipelined != served {
            return Err(format!(
                "pipelined docket {i} differs from the sequential verdicts"
            ));
        }
    }
    println!("pipelined 3 dockets out of order, bit-identical again");

    // Fleet accounting: the merged stats must show this traffic.
    let stats = client.stats().map_err(|err| format!("stats failed: {err}"))?;
    let dockets: u64 = stats.iter().map(|row| row.dockets).sum();
    if dockets < 4 {
        return Err(format!(
            "fleet stats report {dockets} dockets across {} tenants after four resolutions",
            stats.len()
        ));
    }
    // Models stay registered: the degraded phase reuses them.
    Ok(())
}

/// Degraded phase: one backend is gone; live shards stay bit-identical,
/// dead shards fail typed.
fn run_degraded(
    addr: &str,
    backends: &[String],
    dead_addr: &str,
    claims: usize,
    auth: &Option<ClientAuth>,
) -> Result<(), String> {
    let dead = backends
        .iter()
        .position(|backend| backend == dead_addr)
        .ok_or_else(|| format!("--degraded {dead_addr} does not match any --backend"))?;
    let fixture = build_fixture(claims)?;
    let reference = reference_verdicts(&fixture)?;
    let tenant = auth.as_ref().map_or_else(TenantId::anonymous, |a| a.tenant().clone());
    let homes = homes(backends.len(), &tenant)?;

    let mut client = connect(addr, auth)?;
    let served = client
        .resolve_docket(&fixture.docket)
        .map_err(|err| format!("degraded docket resolution failed: {err}"))?;
    if served.len() != reference.len() {
        return Err(format!(
            "degraded docket has {} verdicts, expected {}",
            served.len(),
            reference.len()
        ));
    }
    let mut dead_homed = 0usize;
    let mut live_identical = 0usize;
    for (i, (remote, local)) in served.iter().zip(&reference).enumerate() {
        let dispute = &fixture.docket[i];
        // The ghost id was never registered anywhere; its verdict is a
        // typed error in both topologies (UnknownModel from a live home,
        // unreachable from a dead one), so only Err-ness is asserted.
        let on_dead = dispute.model_id != "fleet-ghost"
            && homes
                .get(
                    dispute
                        .model_id
                        .strip_prefix("fleet-m")
                        .and_then(|n| n.parse::<usize>().ok())
                        .ok_or_else(|| format!("unparseable fixture id {}", dispute.model_id))?,
                )
                .copied()
                == Some(dead);
        if on_dead || dispute.model_id == "fleet-ghost" {
            match remote {
                Ok(report) => {
                    return Err(format!(
                        "dispute {i} ({}) should have failed typed, got a report: {report:?}",
                        dispute.model_id
                    ));
                }
                Err(WatermarkError::ProtocolViolation { detail }) => {
                    return Err(format!(
                        "dispute {i} ({}) died with a protocol violation, not a typed fault: {detail}",
                        dispute.model_id
                    ));
                }
                Err(_) => {
                    if on_dead {
                        dead_homed += 1;
                    }
                }
            }
        } else {
            if remote != local {
                return Err(format!(
                    "live-homed verdict {i} ({}) differs from in-process:\n  fleet: {remote:?}\n  local: {local:?}",
                    dispute.model_id
                ));
            }
            live_identical += 1;
        }
    }
    if dead_homed == 0 {
        return Err(format!(
            "no dispute was homed on dead backend {dead} ({dead_addr}); the degradation path went untested"
        ));
    }
    if live_identical == 0 {
        return Err(
            "every dispute was homed on the dead backend; the survival path went untested".to_string(),
        );
    }
    println!(
        "degraded fleet: {live_identical} live-homed verdicts bit-identical, \
         {dead_homed} dead-homed disputes failed with typed faults"
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut addr = None;
    let mut backends: Vec<String> = Vec::new();
    let mut claims = 64usize;
    let mut key_file: Option<String> = None;
    let mut tenant: Option<String> = None;
    let mut degraded: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--addr" => addr = argv.next(),
            "--backend" => match argv.next() {
                Some(backend) => backends.push(backend),
                None => {
                    eprintln!("fleet_smoke: --backend needs an address");
                    return ExitCode::FAILURE;
                }
            },
            "--claims" => match argv.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 2 * MODELS => claims = n,
                _ => {
                    eprintln!("fleet_smoke: --claims needs an integer >= {}", 2 * MODELS);
                    return ExitCode::FAILURE;
                }
            },
            "--key-file" => key_file = argv.next(),
            "--tenant" => tenant = argv.next(),
            "--degraded" => degraded = argv.next(),
            other => {
                eprintln!(
                    "fleet_smoke: unknown flag `{other}` \
                     (usage: --addr ROUTER --backend HOST:PORT... [--claims N] \
                     [--key-file PATH --tenant NAME] [--degraded DEAD_ADDR])"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("fleet_smoke: --addr ROUTER_HOST:PORT is required");
        return ExitCode::FAILURE;
    };
    if backends.len() < 2 {
        eprintln!("fleet_smoke: at least two --backend addresses are required");
        return ExitCode::FAILURE;
    }
    let auth = match (key_file, tenant) {
        (None, None) => None,
        (Some(path), Some(name)) => {
            let ring = match KeyRing::load(std::path::Path::new(&path)) {
                Ok(ring) => ring,
                Err(err) => {
                    eprintln!("fleet_smoke: could not load --key-file {path}: {err}");
                    return ExitCode::FAILURE;
                }
            };
            let tenant = match TenantId::new(name) {
                Ok(tenant) => tenant,
                Err(err) => {
                    eprintln!("fleet_smoke: --tenant: {err}");
                    return ExitCode::FAILURE;
                }
            };
            let Some(secret) = ring.key(&tenant) else {
                eprintln!("fleet_smoke: tenant `{tenant}` is not enrolled in {path}");
                return ExitCode::FAILURE;
            };
            Some(ClientAuth::new(tenant, secret.to_vec()))
        }
        _ => {
            eprintln!("fleet_smoke: --key-file and --tenant must be given together");
            return ExitCode::FAILURE;
        }
    };
    let result = match &degraded {
        None => run_normal(&addr, &backends, claims, &auth),
        Some(dead_addr) => run_degraded(&addr, &backends, dead_addr, claims, &auth),
    };
    match result {
        Ok(()) => {
            println!("fleet_smoke: PASS");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("fleet_smoke: FAIL: {message}");
            ExitCode::FAILURE
        }
    }
}
