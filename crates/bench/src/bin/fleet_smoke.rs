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
//! recomputes it with the same [`HashRing`] at the router's default
//! `--ring-replicas`.

use std::process::ExitCode;
use wdte_bench::smoke::{self, Fixture, GHOST_MODEL};
use wdte_core::{HashRing, TenantId, WatermarkError};
use wdte_server::{ClientAuth, RouterConfig};

/// Distinct model ids spread across the ring. Eight ids across two or
/// three backends makes both a multi-backend docket split and at least
/// one dead-homed id overwhelmingly likely (and the run asserts both).
const MODELS: usize = 8;

fn model_ids() -> Vec<String> {
    (0..MODELS).map(|index| format!("fleet-m{index}")).collect()
}

/// Ring home (backend index) of every fleet model id, under the hash
/// and the default ring size the router uses.
fn homes(backends: usize, tenant: &TenantId) -> Result<Vec<usize>, String> {
    let ring =
        HashRing::new(backends, RouterConfig::default().ring_replicas).map_err(|err| err.to_string())?;
    Ok(model_ids().iter().map(|id| ring.home(tenant, id)).collect())
}

/// Normal phase: register, check placement, resolve, compare.
fn run_normal(
    addr: &str,
    backends: &[String],
    claims: usize,
    auth: Option<&ClientAuth>,
) -> Result<(), String> {
    let fixture = Fixture::smoke()?;
    let ids = model_ids();
    let docket = fixture.docket(claims, &ids, true);
    let reference = fixture.service(&ids)?.resolve_many(&docket);
    let tenant = auth.map_or_else(TenantId::anonymous, |a| a.tenant().clone());
    let homes = homes(backends.len(), &tenant)?;

    let mut client = smoke::connect(addr, auth)?;
    let pong = client.ping().map_err(|err| format!("fleet ping failed: {err}"))?;
    println!(
        "router at {addr}: protocol v{}, format v{}, {} models across the fleet",
        pong.protocol_version, pong.format_version, pong.models_registered
    );
    for id in &ids {
        let trees = client
            .register_model(id.clone(), &fixture.model)
            .map_err(|err| format!("registering {id} failed: {err}"))?;
        if trees != fixture.model.num_trees() {
            return Err(format!(
                "router registered {trees} trees for {id}, expected {}",
                fixture.model.num_trees()
            ));
        }
    }
    // The router's ListModels is the fleet union and must show all ids.
    let listed = client.list_models().map_err(|err| format!("list_models failed: {err}"))?;
    if let Some(id) = ids.iter().find(|id| !listed.contains(id)) {
        return Err(format!("{id} missing from the fleet listing"));
    }
    // Placement check: each model must live on exactly its ring home —
    // asked of every backend *directly*, bypassing the router.
    for (backend, backend_addr) in backends.iter().enumerate() {
        let mut direct = smoke::connect(backend_addr, auth)?;
        let here = direct.list_models().map_err(|err| {
            format!("direct list_models on backend {backend} ({backend_addr}) failed: {err}")
        })?;
        for (id, home) in ids.iter().zip(&homes) {
            let expect_here = *home == backend;
            let is_here = here.contains(id);
            if expect_here != is_here {
                return Err(format!(
                    "{id} on backend {backend} ({backend_addr}): expected {expect_here}, found {is_here} \
                     — consistent-hash placement diverged (this check assumes the router runs \
                     with the default --ring-replicas {})",
                    RouterConfig::default().ring_replicas
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

    // The docket, resolved through the split/stitch path, then pipelined.
    smoke::serve_and_compare(&mut client, &docket, &reference, "fleet")?;
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
    auth: Option<&ClientAuth>,
) -> Result<(), String> {
    let dead = backends
        .iter()
        .position(|backend| backend == dead_addr)
        .ok_or_else(|| format!("--degraded {dead_addr} does not match any --backend"))?;
    let fixture = Fixture::smoke()?;
    let ids = model_ids();
    let docket = fixture.docket(claims, &ids, true);
    let reference = fixture.service(&ids)?.resolve_many(&docket);
    let tenant = auth.map_or_else(TenantId::anonymous, |a| a.tenant().clone());
    let homes = homes(backends.len(), &tenant)?;

    let mut client = smoke::connect(addr, auth)?;
    let served = client
        .resolve_docket(&docket)
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
        let dispute = &docket[i];
        // The ghost id was never registered anywhere; its verdict is a
        // typed error in both topologies (UnknownModel from a live home,
        // unreachable from a dead one), so only Err-ness is asserted.
        let ghost = dispute.model_id == GHOST_MODEL;
        let on_dead = ids.iter().position(|id| *id == dispute.model_id).map(|k| homes[k]) == Some(dead);
        if on_dead || ghost {
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
    let auth = match smoke::client_auth(key_file.as_deref(), tenant.as_deref()) {
        Ok(auth) => auth,
        Err(message) => {
            eprintln!("fleet_smoke: {message}");
            return ExitCode::FAILURE;
        }
    };
    let result = match &degraded {
        None => run_normal(&addr, &backends, claims, auth.as_ref()),
        Some(dead_addr) => run_degraded(&addr, &backends, dead_addr, claims, auth.as_ref()),
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
