//! Integration suite for the judge-fleet router: bit-identity of routed
//! dockets against in-process resolution (anonymous and authenticated),
//! consistent-hash placement across real backend servers, degradation of
//! a dead backend into typed faults, sibling retry over a replicated
//! warm start, `NeedPayload` relay through the fan-out, and the
//! fleet-wide aggregation requests.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;
use wdte_core::error::WatermarkError;
use wdte_core::{
    persist, Dispute, DisputeService, HashRing, KeyRing, OwnershipClaim, Signature, TenantId,
    WatermarkConfig, WatermarkOutcome, Watermarker,
};
use wdte_data::{Dataset, SyntheticSpec};
use wdte_server::{
    ClientAuth, DisputeClient, JudgeRouter, JudgeServer, RouterConfig, RunningRouter, RunningServer,
    ServerConfig,
};

fn embedded(seed: u64) -> (Dataset, WatermarkOutcome) {
    let dataset = SyntheticSpec::breast_cancer_like()
        .scaled(0.6)
        .generate(&mut SmallRng::seed_from_u64(seed));
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
    let (train, test) = dataset.split_stratified(0.75, &mut rng);
    let signature = Signature::random(12, 0.5, &mut rng);
    let watermarker = Watermarker::new(WatermarkConfig {
        num_trees: 12,
        ..WatermarkConfig::fast()
    });
    let outcome = watermarker.embed(&train, &signature, &mut rng).unwrap();
    (test, outcome)
}

fn claim_for(outcome: &WatermarkOutcome, test: &Dataset) -> OwnershipClaim {
    OwnershipClaim::new(
        outcome.signature.clone(),
        outcome.trigger_set.clone(),
        test.clone(),
    )
}

/// A genuine/forged docket cycling `models` model ids with one ghost id
/// in the middle — the shape every routing test resolves.
fn mixed_docket(
    test: &Dataset,
    outcome: &WatermarkOutcome,
    models: usize,
    claims: usize,
) -> Vec<Dispute> {
    let genuine = claim_for(outcome, test);
    let mut rng = SmallRng::seed_from_u64(0x0DD);
    let forged = OwnershipClaim::new(
        Signature::random(12, 0.5, &mut rng),
        test.select(&test.sample_indices(outcome.trigger_set.len(), &mut rng)).unwrap(),
        test.clone(),
    );
    (0..claims)
        .map(|i| {
            let claim = if i % 2 == 0 {
                genuine.clone()
            } else {
                forged.clone()
            };
            let id = if i == claims / 2 {
                "fleet-ghost".to_string()
            } else {
                format!("fleet-m{}", i % models)
            };
            Dispute::new(id, claim)
        })
        .collect()
}

fn start_backend(service: Arc<DisputeService>, ring: Option<Arc<KeyRing>>) -> RunningServer {
    JudgeServer::bind(
        "127.0.0.1:0",
        service,
        ServerConfig {
            key_ring: ring,
            ..ServerConfig::default()
        },
    )
    .expect("loopback bind succeeds")
    .spawn()
}

fn start_router(backends: &[&RunningServer], ring: Option<Arc<KeyRing>>) -> RunningRouter {
    JudgeRouter::bind(
        "127.0.0.1:0",
        RouterConfig {
            backends: backends.iter().map(|b| b.addr().to_string()).collect(),
            key_ring: ring,
            ..RouterConfig::default()
        },
    )
    .expect("loopback bind succeeds")
    .spawn()
}

fn fresh_fleet(n: usize) -> (Vec<RunningServer>, RunningRouter) {
    let backends: Vec<RunningServer> = (0..n)
        .map(|_| start_backend(Arc::new(DisputeService::builder().build().unwrap()), None))
        .collect();
    let router = start_router(&backends.iter().collect::<Vec<_>>(), None);
    (backends, router)
}

/// Ring home of each `fleet-m{i}` id under the router's default ring.
fn homes(models: usize, backends: usize, tenant: &TenantId) -> Vec<usize> {
    let ring = HashRing::new(backends, RouterConfig::default().ring_replicas).unwrap();
    (0..models).map(|i| ring.home(tenant, &format!("fleet-m{i}"))).collect()
}

/// Acceptance gate of the fleet layer: a 48-claim docket resolved
/// through the router across two live backends — including a dispute
/// naming a model no backend knows — is bit-identical to in-process
/// `resolve_many`, sequentially and when pipelined out of order.
#[test]
fn routed_docket_is_bit_identical_to_in_process_resolution() {
    let (test, outcome) = embedded(71);
    let docket = mixed_docket(&test, &outcome, 4, 48);
    let reference_service = DisputeService::builder().build().unwrap();
    for i in 0..4 {
        reference_service.register(format!("fleet-m{i}"), &outcome.model);
    }
    let reference = reference_service.resolve_many(&docket);

    let (_backends, router) = fresh_fleet(2);
    let mut client = DisputeClient::connect(router.addr().to_string()).unwrap();
    for i in 0..4 {
        assert_eq!(
            client.register_model(format!("fleet-m{i}"), &outcome.model).unwrap(),
            outcome.model.num_trees()
        );
    }
    let served = client.resolve_docket(&docket).unwrap();
    assert_eq!(served.len(), reference.len());
    for (i, (remote, local)) in served.iter().zip(&reference).enumerate() {
        assert_eq!(remote, local, "verdict {i} diverged through the fleet");
    }
    let upheld = served.iter().filter(|v| v.as_ref().is_ok_and(|r| r.verified)).count();
    assert!(
        upheld > 0 && upheld < docket.len(),
        "docket must mix verdicts, got {upheld} upheld"
    );

    // Pipelined dockets redeemed in reverse must stitch identically.
    let tickets = [
        client.send_docket(&docket).unwrap(),
        client.send_docket(&docket).unwrap(),
        client.send_docket(&docket).unwrap(),
    ];
    for ticket in tickets.into_iter().rev() {
        assert_eq!(client.recv_docket(ticket).unwrap(), served);
    }
    router.shutdown().unwrap();
}

/// Wire registration places each model on exactly its ring home, and
/// the routed `ListModels` is the union of the per-backend inventories.
#[test]
fn models_land_on_their_consistent_hash_homes() {
    let (test, outcome) = embedded(72);
    let _ = test;
    let (backends, router) = fresh_fleet(3);
    let mut client = DisputeClient::connect(router.addr().to_string()).unwrap();
    let models = 8;
    for i in 0..models {
        client.register_model(format!("fleet-m{i}"), &outcome.model).unwrap();
    }
    let union = client.list_models().unwrap();
    assert_eq!(union.len(), models);

    let homes = homes(models, backends.len(), &TenantId::anonymous());
    let distinct: std::collections::HashSet<usize> = homes.iter().copied().collect();
    assert!(
        distinct.len() >= 2,
        "8 keys over 3 backends should spread, got homes {homes:?}"
    );
    for (backend, server) in backends.iter().enumerate() {
        let mut direct = DisputeClient::connect(server.addr().to_string()).unwrap();
        let here = direct.list_models().unwrap();
        for (i, home) in homes.iter().enumerate() {
            assert_eq!(
                here.contains(&format!("fleet-m{i}")),
                *home == backend,
                "fleet-m{i} misplaced on backend {backend} (homes {homes:?})"
            );
        }
    }
    router.shutdown().unwrap();
}

/// The authenticated fleet: a keyed router in front of keyed backends
/// re-signs per backend, verdicts stay bit-identical, and a client with
/// the wrong secret is refused at the router.
#[test]
fn authenticated_routed_docket_is_bit_identical() {
    let ring = Arc::new(KeyRing::parse("acme:correct horse battery staple\n").unwrap());
    let tenant = TenantId::new("acme").unwrap();
    let auth = ClientAuth::new(tenant.clone(), ring.key(&tenant).unwrap().to_vec());

    let (test, outcome) = embedded(73);
    let docket = mixed_docket(&test, &outcome, 4, 32);
    let reference_service = DisputeService::builder().build().unwrap();
    for i in 0..4 {
        reference_service
            .register_digested_as(&tenant, format!("fleet-m{i}"), &outcome.model)
            .unwrap();
    }
    let reference: Vec<_> = docket
        .iter()
        .map(|d| reference_service.resolve_as(&tenant, &d.model_id, &d.claim))
        .collect();

    let backends: Vec<RunningServer> = (0..2)
        .map(|_| {
            start_backend(
                Arc::new(DisputeService::builder().build().unwrap()),
                Some(Arc::clone(&ring)),
            )
        })
        .collect();
    let router = start_router(&backends.iter().collect::<Vec<_>>(), Some(Arc::clone(&ring)));

    let mut client = DisputeClient::connect_authenticated(router.addr().to_string(), auth).unwrap();
    for i in 0..4 {
        client.register_model(format!("fleet-m{i}"), &outcome.model).unwrap();
    }
    let served = client.resolve_docket(&docket).unwrap();
    assert_eq!(served, reference);

    // A forged secret must be refused before any request is served.
    let intruder = ClientAuth::new(tenant.clone(), b"wrong secret".to_vec());
    let refused = DisputeClient::connect_authenticated(router.addr().to_string(), intruder)
        .and_then(|mut c| c.ping());
    assert!(refused.is_err(), "router accepted a forged tenant secret");
    router.shutdown().unwrap();
}

/// Graceful degradation: with one backend dead, disputes homed on the
/// survivors stay bit-identical while disputes homed on the corpse fail
/// with a *typed* fault naming the unreachable backend — the docket
/// still completes, nothing hangs.
#[test]
fn dead_backend_degrades_to_typed_faults_for_its_shard_only() {
    let (test, outcome) = embedded(74);
    let models = 6;
    let docket = mixed_docket(&test, &outcome, models, 36);
    let reference_service = DisputeService::builder().build().unwrap();
    for i in 0..models {
        reference_service.register(format!("fleet-m{i}"), &outcome.model);
    }
    let reference = reference_service.resolve_many(&docket);

    let (mut backends, router) = fresh_fleet(2);
    let mut client = DisputeClient::connect(router.addr().to_string()).unwrap();
    for i in 0..models {
        client.register_model(format!("fleet-m{i}"), &outcome.model).unwrap();
    }
    let homes = homes(models, 2, &TenantId::anonymous());
    let dead = 0usize;
    assert!(
        homes.contains(&dead) && homes.iter().any(|h| *h != dead),
        "homes {homes:?}"
    );
    backends.remove(dead).shutdown().unwrap();

    let served = client.resolve_docket(&docket).unwrap();
    // The ghost id exists nowhere, but the router only asserts
    // nonexistence while the ghost's authoritative home is alive; with
    // that home dead it reports unreachability instead.
    let ghost_home = HashRing::new(2, RouterConfig::default().ring_replicas)
        .unwrap()
        .home(&TenantId::anonymous(), "fleet-ghost");
    let mut dead_homed = 0;
    for (i, (remote, local)) in served.iter().zip(&reference).enumerate() {
        let id = &docket[i].model_id;
        let on_dead = if id == "fleet-ghost" {
            ghost_home == dead
        } else {
            homes[id.strip_prefix("fleet-m").unwrap().parse::<usize>().unwrap()] == dead
        };
        if on_dead {
            dead_homed += 1;
            match remote {
                Err(WatermarkError::Remote { message }) => {
                    assert!(
                        message.contains("unreachable"),
                        "dead-homed verdict {i} carries the wrong fault: {message}"
                    );
                }
                other => panic!("dead-homed verdict {i} should be a typed Remote fault, got {other:?}"),
            }
        } else {
            assert_eq!(
                remote, local,
                "live-homed verdict {i} diverged after backend loss"
            );
        }
    }
    assert!(dead_homed > 0, "no dispute exercised the dead backend");
    router.shutdown().unwrap();
}

/// Replicated warm start: when every backend boots the same directory,
/// losing one backend loses nothing — the router retries the shard on a
/// ring sibling and the full docket stays bit-identical.
#[test]
fn replicated_warm_start_lets_siblings_absorb_a_dead_backend() {
    let (test, outcome) = embedded(75);
    let models = 4;
    let dir = std::env::temp_dir().join(format!("wdte-fleet-warm-{}", std::process::id()));
    for i in 0..models {
        let path = dir.join(format!("fleet-m{i}.model.wdte"));
        persist::save(path, &outcome.model, persist::Format::Binary).unwrap();
    }

    let docket = mixed_docket(&test, &outcome, models, 24);
    let reference_service = DisputeService::builder().warm_start_dir(&dir).build().unwrap();
    let reference = reference_service.resolve_many(&docket);

    let mut backends: Vec<RunningServer> = (0..2)
        .map(|_| {
            let service = DisputeService::builder().warm_start_dir(&dir).build().unwrap();
            start_backend(Arc::new(service), None)
        })
        .collect();
    let router = start_router(&backends.iter().collect::<Vec<_>>(), None);
    let mut client = DisputeClient::connect(router.addr().to_string()).unwrap();
    backends.remove(0).shutdown().unwrap();

    // Every shard homed on the dead backend must fail over to its
    // replicated sibling with full bit-identity. The one exception is
    // the ghost id when its home is the corpse: the surviving sibling
    // answers UnknownModel, which the router refuses to present as
    // nonexistence while the authoritative home is down.
    let ghost_home = HashRing::new(2, RouterConfig::default().ring_replicas)
        .unwrap()
        .home(&TenantId::anonymous(), "fleet-ghost");
    let served = client.resolve_docket(&docket).unwrap();
    for (i, (remote, local)) in served.iter().zip(&reference).enumerate() {
        if docket[i].model_id == "fleet-ghost" && ghost_home == 0 {
            assert!(
                matches!(remote, Err(WatermarkError::Remote { message }) if message.contains("unreachable")),
                "dead-homed ghost verdict {i} should be an unreachable fault, got {remote:?}"
            );
        } else {
            assert_eq!(remote, local, "sibling retry changed verdict {i}");
        }
    }
    router.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A backend whose claim cache cannot retain bodies answers later
/// by-digest dockets with `NeedPayload`; the router must relay the
/// demand to the claimant, whose transparent resend then succeeds.
#[test]
fn need_payload_is_relayed_through_the_router() {
    let (test, outcome) = embedded(76);
    let docket = mixed_docket(&test, &outcome, 2, 12);
    let backends: Vec<RunningServer> = (0..2)
        .map(|_| {
            // 1-byte claim budget: every body is evicted on arrival.
            let service = DisputeService::builder().claim_cache_bytes(1).build().unwrap();
            start_backend(Arc::new(service), None)
        })
        .collect();
    let router = start_router(&backends.iter().collect::<Vec<_>>(), None);
    let mut client = DisputeClient::connect(router.addr().to_string()).unwrap();
    for i in 0..2 {
        client.register_model(format!("fleet-m{i}"), &outcome.model).unwrap();
    }
    let first = client.resolve_docket(&docket).unwrap();
    // The second round trips over by-digest refs, hits the evicted
    // cache, and must converge through the relayed NeedPayload.
    let second = client.resolve_docket(&docket).unwrap();
    assert_eq!(first, second, "NeedPayload relay changed verdicts");
    router.shutdown().unwrap();
}

/// Two client connections of one tenant share the router's pooled
/// backend client. The second connection inlines a body the first
/// already sent through that pooled client, next to a body it sends
/// digest-only; the router forwards both digest-only, the evicting
/// backend demands both, and the router relays the whole demand. The
/// claimant's docket has a digest-only reference, so it must resend
/// rather than call the demand for its inlined body a violation.
#[test]
fn a_relayed_demand_for_a_body_the_claimant_inlined_is_resent() {
    let (test, outcome) = embedded(77);
    let genuine = claim_for(&outcome, &test);
    let docket = mixed_docket(&test, &outcome, 1, 2);
    let forged = docket[1].claim.clone();
    assert_ne!(genuine, forged);
    // 1-byte claim budget: every body is evicted on arrival.
    let service = DisputeService::builder().claim_cache_bytes(1).build().unwrap();
    let backend = start_backend(Arc::new(service), None);
    let router = start_router(&[&backend], None);
    let mut first = DisputeClient::connect(router.addr().to_string()).unwrap();
    let mut second = DisputeClient::connect(router.addr().to_string()).unwrap();
    first.register_model("fleet-m0", &outcome.model).unwrap();

    let by_first = first.resolve_docket(&[Dispute::new("fleet-m0", genuine.clone())]).unwrap();
    let by_second = second.resolve_docket(&[Dispute::new("fleet-m0", forged.clone())]).unwrap();
    // `genuine` is new to `second` and goes inline; `forged` goes by digest.
    let both = [
        Dispute::new("fleet-m0", genuine),
        Dispute::new("fleet-m0", forged),
    ];
    let verdicts = second.resolve_docket(&both).unwrap();
    assert_eq!(verdicts, [by_first, by_second].concat());
    assert!(!second.is_broken());
    router.shutdown().unwrap();
    backend.shutdown().unwrap();
}

/// Fleet-wide requests: `Ping` sums registries, `Stats` merges tenant
/// rows, `Deregister` removes a model wherever it lives.
#[test]
fn fleet_wide_requests_aggregate_across_backends() {
    let (test, outcome) = embedded(77);
    let _ = test;
    let (_backends, router) = fresh_fleet(2);
    let mut client = DisputeClient::connect(router.addr().to_string()).unwrap();
    for i in 0..5 {
        client.register_model(format!("fleet-m{i}"), &outcome.model).unwrap();
    }
    let pong = client.ping().unwrap();
    assert_eq!(
        pong.models_registered, 5,
        "fleet ping must sum backend registries"
    );

    let docket = mixed_docket(&test, &outcome, 5, 10);
    client.resolve_docket(&docket).unwrap();
    let stats = client.stats().unwrap();
    let models: u64 = stats.iter().map(|row| row.models).sum();
    let dockets: u64 = stats.iter().map(|row| row.dockets).sum();
    assert_eq!(models, 5, "fleet stats must merge per-backend model counts");
    assert!(dockets >= 1, "fleet stats lost the docket count");

    for i in 0..5 {
        assert!(
            client.deregister(format!("fleet-m{i}")).unwrap(),
            "fleet-m{i} existed"
        );
        assert!(
            !client.deregister(format!("fleet-m{i}")).unwrap(),
            "fleet-m{i} double-freed"
        );
    }
    assert!(client.list_models().unwrap().is_empty());
    router.shutdown().unwrap();
}

/// Pooled backend clients outlive the client connections that opened
/// them, so a backend may reap one while it sits idle in the pool. The
/// router must then connect afresh, not mistake the closed socket for a
/// dead backend: with a single backend, a demotion would turn every
/// later dispute into an unreachable fault.
#[test]
fn a_backend_reaping_an_idle_pooled_client_is_not_a_failure() {
    let (test, outcome) = embedded(76);
    let claim = claim_for(&outcome, &test);
    let service = Arc::new(DisputeService::builder().build().unwrap());
    service.register("m", &outcome.model);
    let reference = service.resolve("m", &claim).unwrap();
    let backend = JudgeServer::bind(
        "127.0.0.1:0",
        service,
        ServerConfig {
            read_timeout: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        },
    )
    .expect("loopback bind succeeds")
    .spawn();
    let router = start_router(&[&backend], None);
    for round in 0..3 {
        let mut client = DisputeClient::connect(router.addr().to_string()).unwrap();
        assert_eq!(
            client.resolve("m", &claim).unwrap(),
            reference,
            "round {round} after the backend reaped the pooled client"
        );
        drop(client);
        std::thread::sleep(Duration::from_millis(600));
    }
    router.shutdown().unwrap();
    backend.shutdown().unwrap();
}

/// A router without backends is a configuration error, refused at bind.
#[test]
fn router_refuses_an_empty_backend_list() {
    assert!(JudgeRouter::bind("127.0.0.1:0", RouterConfig::default()).is_err());
}
