//! Integration suite for the judge-as-a-service layer: loopback
//! round-trips that must be bit-identical to in-process resolution, the
//! WDTP pipelining and content-addressing paths, frame authentication and
//! tenant isolation, and the protocol's negative paths (malformed frames,
//! old peers, hostile length prefixes, forged or replayed auth tags,
//! quota refusals, unknown correlation ids, half-closed sockets). The
//! framing and authentication cases run against both front ends: a judge,
//! and a router over one in-process judge (`via_router::`).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wdte_core::error::{WatermarkError, WatermarkResult};
use wdte_core::proto::{self, DisputeRef, PayloadDigest, Request, Response, WireFault};
use wdte_core::{
    Dispute, DisputeService, KeyRing, OwnershipClaim, Signature, TenantId, TenantQuotas,
    WatermarkConfig, WatermarkOutcome, Watermarker,
};
use wdte_data::{Dataset, SyntheticSpec};
use wdte_server::{
    ClientAuth, ClientConfig, DisputeClient, DocketOutcome, JudgeRouter, JudgeServer, RouterConfig,
    RunningServer, ServerConfig, MAX_REMEMBERED_CLAIMS,
};
use wdte_trees::{ForestParams, RandomForest};

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

fn start_server(service: Arc<DisputeService>) -> RunningServer {
    JudgeServer::bind("127.0.0.1:0", service, ServerConfig::default())
        .expect("loopback bind succeeds")
        .spawn()
}

/// Cheap non-watermarked fixture for tests that only need wire parity or
/// structural validity, not an upheld verdict — skips the expensive
/// embedding loop.
fn plain_fixture(seed: u64) -> (RandomForest, OwnershipClaim) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dataset = SyntheticSpec::breast_cancer_like().scaled(0.3).generate(&mut rng);
    let (trigger, test) = dataset.split_train_test(0.2, &mut rng);
    let model = RandomForest::fit(&dataset, &ForestParams::with_trees(8), &mut rng);
    let claim = OwnershipClaim::new(Signature::random(8, 0.5, &mut rng), trigger, test);
    (model, claim)
}

/// A two-tenant key ring shared by the authentication tests.
fn two_tenant_ring() -> KeyRing {
    KeyRing::parse("acme:correct horse battery staple\nglobex:hunter2\n").unwrap()
}

fn auth_for(ring: &KeyRing, name: &str) -> ClientAuth {
    let tenant = TenantId::new(name).unwrap();
    let secret = ring.key(&tenant).expect("tenant is enrolled").to_vec();
    ClientAuth::new(tenant, secret)
}

fn keyed_server(service: Arc<DisputeService>, ring: KeyRing) -> RunningServer {
    JudgeServer::bind(
        "127.0.0.1:0",
        service,
        ServerConfig {
            key_ring: Some(Arc::new(ring)),
            ..ServerConfig::default()
        },
    )
    .expect("loopback bind succeeds")
    .spawn()
}

/// Hand-builds one anonymous v4 header (sequence, tenant and tag all
/// zero) announcing `announced` payload bytes.
fn raw_anonymous_header(corr: u64, announced: u32) -> Vec<u8> {
    let mut header = Vec::new();
    header.extend_from_slice(proto::PROTO_MAGIC);
    header.extend_from_slice(&proto::PROTOCOL_VERSION.to_le_bytes());
    header.extend_from_slice(&corr.to_le_bytes());
    header.extend_from_slice(&0u64.to_le_bytes()); // sequence
    header.extend_from_slice(&[0u8; 16]); // tenant
    header.extend_from_slice(&[0u8; 16]); // tag
    header.extend_from_slice(&announced.to_le_bytes());
    header
}

/// Acceptance gate of the network layer: a 64-claim docket resolved
/// through `DisputeClient` is bit-identical to `resolve_many` in process,
/// even though the wire deduplicates the repeated claim bodies.
#[test]
fn loopback_docket_is_bit_identical_to_in_process_resolution() {
    let (test, outcome) = embedded(71);
    let genuine = claim_for(&outcome, &test);
    let mut rng = SmallRng::seed_from_u64(99);
    let forged = OwnershipClaim::new(
        Signature::random(12, 0.5, &mut rng),
        test.select(&test.sample_indices(outcome.trigger_set.len(), &mut rng)).unwrap(),
        test.clone(),
    );
    let docket: Vec<Dispute> = (0..64)
        .map(|i| {
            let claim = if i % 2 == 0 {
                genuine.clone()
            } else {
                forged.clone()
            };
            // A few disputes name an unregistered model so typed errors
            // cross the wire too.
            let model_id = if i % 13 == 5 { "ghost" } else { "deployment" };
            Dispute::new(model_id, claim)
        })
        .collect();

    let service = Arc::new(DisputeService::builder().build().unwrap());
    service.register("deployment", &outcome.model);
    let reference = service.resolve_many(&docket);

    let server = start_server(Arc::clone(&service));
    let mut client = DisputeClient::connect(server.addr()).unwrap();
    let served = client.resolve_docket(&docket).unwrap();

    assert_eq!(served.len(), 64);
    assert_eq!(
        served, reference,
        "wire and in-process verdicts must be bit-identical"
    );
    assert!(served.iter().filter_map(|v| v.as_ref().ok()).any(|r| r.verified));
    assert!(served.iter().any(|v| matches!(
        v,
        Err(WatermarkError::UnknownModel { model_id }) if model_id == "ghost"
    )));
    // The docket never triggered extra compilations server-side.
    assert_eq!(service.compile_count(), 1);
    server.shutdown().unwrap();
}

/// Several dockets in flight at once must produce exactly the verdicts of
/// resolving them one at a time — and of resolving them in process.
#[test]
fn pipelined_dockets_are_bit_identical_to_sequential_ones() {
    let (test, outcome) = embedded(75);
    let genuine = claim_for(&outcome, &test);
    let mut rng = SmallRng::seed_from_u64(123);
    let forged = OwnershipClaim::new(
        Signature::random(12, 0.5, &mut rng),
        test.select(&test.sample_indices(outcome.trigger_set.len(), &mut rng)).unwrap(),
        test.clone(),
    );
    let dockets: Vec<Vec<Dispute>> = (0..6)
        .map(|d| {
            (0..8)
                .map(|i| {
                    let claim = if (d + i) % 2 == 0 {
                        genuine.clone()
                    } else {
                        forged.clone()
                    };
                    let model_id = if i == 3 && d == 2 { "ghost" } else { "deployment" };
                    Dispute::new(model_id, claim)
                })
                .collect()
        })
        .collect();

    let service = Arc::new(DisputeService::builder().build().unwrap());
    service.register("deployment", &outcome.model);
    let reference: Vec<_> = dockets.iter().map(|d| service.resolve_many(d)).collect();

    let server = start_server(Arc::clone(&service));

    let mut sequential_client = DisputeClient::connect(server.addr()).unwrap();
    let sequential: Vec<_> =
        dockets.iter().map(|d| sequential_client.resolve_docket(d).unwrap()).collect();

    let mut pipelined_client = DisputeClient::connect(server.addr()).unwrap();
    let pipelined = pipelined_client.pipeline_dockets(&dockets).unwrap();

    assert_eq!(pipelined, sequential, "pipelining must not change verdicts");
    assert_eq!(pipelined, reference, "wire verdicts must match in-process ones");
    assert_eq!(pipelined_client.pending_dockets(), 0);
    server.shutdown().unwrap();
}

/// Tickets may be redeemed in any order: responses that arrive for a
/// not-yet-redeemed ticket are stashed, not lost or misattributed.
#[test]
fn tickets_can_be_received_out_of_order() {
    let (test, outcome) = embedded(76);
    let claim = claim_for(&outcome, &test);
    let service = Arc::new(DisputeService::builder().build().unwrap());
    service.register("m", &outcome.model);
    let big: Vec<Dispute> = (0..16).map(|_| Dispute::new("m", claim.clone())).collect();
    let small = vec![Dispute::new("m", claim.clone())];
    let reference_big = service.resolve_many(&big);
    let reference_small = service.resolve_many(&small);

    let server = start_server(Arc::clone(&service));
    let mut client = DisputeClient::connect(server.addr()).unwrap();
    let ticket_big = client.send_docket(&big).unwrap();
    let ticket_small = client.send_docket(&small).unwrap();
    assert_eq!(client.pending_dockets(), 2);

    // Redeem in reverse send order; whichever response lands first for
    // the other ticket is stashed.
    assert_eq!(client.recv_docket(ticket_small).unwrap(), reference_small);
    assert_eq!(client.recv_docket(ticket_big).unwrap(), reference_big);
    assert_eq!(client.pending_dockets(), 0);
    assert!(!client.is_broken());
    server.shutdown().unwrap();
}

/// A judge whose claim cache is too small to hold anything answers every
/// digest-only docket with `NeedPayload`; the client must recover
/// transparently (resend with bodies inlined) and still produce verdicts
/// bit-identical to the in-process ones.
#[test]
fn need_payload_recovery_survives_a_tiny_claim_cache() {
    let (test, outcome) = embedded(77);
    let claim = claim_for(&outcome, &test);
    // A 1-byte budget evicts every inserted claim immediately.
    let service = Arc::new(DisputeService::builder().claim_cache_bytes(1).build().unwrap());
    service.register("m", &outcome.model);
    let docket: Vec<Dispute> = (0..4).map(|_| Dispute::new("m", claim.clone())).collect();
    let reference = service.resolve_many(&docket);

    let server = start_server(Arc::clone(&service));
    let mut client = DisputeClient::connect(server.addr()).unwrap();
    // First docket inlines the body (never sent before) — resolves from
    // the request-local bodies even though the cache forgets it at once.
    assert_eq!(client.resolve_docket(&docket).unwrap(), reference);
    // Second docket references the claim digest-only, the judge answers
    // NeedPayload, and the client resends with the body inlined.
    assert_eq!(client.resolve_docket(&docket).unwrap(), reference);
    assert!(!client.is_broken());
    server.shutdown().unwrap();
}

/// One connection carrying more distinct claims than the client
/// remembers: the remembered-digest set stays bounded (it is cleared when
/// full, so later bodies simply travel inline again) and every verdict is
/// still bit-identical to in-process resolution.
#[test]
fn remembered_claim_digests_stay_bounded_on_distinct_traffic() {
    let (model, claim) = plain_fixture(81);
    let rows = claim.test_set.len();
    let test_pair = claim.test_set.select(&[0, 1]).unwrap();
    let mut rng = SmallRng::seed_from_u64(82);
    // Tiny distinct claims: a two-row trigger set drawn from the test rows
    // (every index pair is distinct) and a fresh signature.
    let dockets: Vec<Vec<Dispute>> = (0..MAX_REMEMBERED_CLAIMS + 600)
        .map(|i| {
            let trigger = claim.test_set.select(&[i % rows, i / rows]).unwrap();
            let signature = Signature::random(claim.signature.len(), 0.5, &mut rng);
            Dispute::new("m", OwnershipClaim::new(signature, trigger, test_pair.clone()))
        })
        .collect::<Vec<_>>()
        .chunks(200)
        .map(<[Dispute]>::to_vec)
        .collect();
    assert!(
        MAX_REMEMBERED_CLAIMS + 600 < rows * rows,
        "the fixture yields distinct claims"
    );

    let service = Arc::new(DisputeService::builder().build().unwrap());
    service.register("m", &model);
    let server = start_server(Arc::clone(&service));
    let mut client = DisputeClient::connect(server.addr()).unwrap();
    let mut peak = 0;
    for docket in &dockets {
        assert_eq!(
            client.resolve_docket(docket).unwrap(),
            service.resolve_many(docket)
        );
        peak = peak.max(client.remembered_claims());
    }
    assert!(peak <= MAX_REMEMBERED_CLAIMS, "peak {peak} over the cap");
    assert!(
        peak > MAX_REMEMBERED_CLAIMS / 2,
        "the set filled before clearing (peak {peak})"
    );
    // A docket repeated after the clears still resolves identically.
    assert_eq!(
        client.resolve_docket(&dockets[0]).unwrap(),
        service.resolve_many(&dockets[0])
    );
    assert!(!client.is_broken());
    server.shutdown().unwrap();
}

#[test]
fn full_client_surface_round_trips() {
    let (test, outcome) = embedded(72);
    let claim = claim_for(&outcome, &test);
    let service = Arc::new(DisputeService::builder().max_docket(4).build().unwrap());
    let server = start_server(Arc::clone(&service));
    let mut client = DisputeClient::connect(server.addr()).unwrap();

    let pong = client.ping().unwrap();
    assert_eq!(pong.protocol_version, proto::PROTOCOL_VERSION);
    assert_eq!(pong.models_registered, 0);
    assert_eq!(pong.claims_cached, 0);

    assert_eq!(client.register_model("m", &outcome.model).unwrap(), 12);
    // Same model again: the client registers by digest reference, and the
    // judge reuses the compiled form instead of recompiling.
    assert_eq!(client.register_model("aaa", &outcome.model).unwrap(), 12);
    assert_eq!(
        service.compile_count(),
        1,
        "digest re-registration reuses the compiled form"
    );
    assert_eq!(client.list_models().unwrap(), ["aaa", "m"], "listings are sorted");

    let report = client.resolve("m", &claim).unwrap();
    assert_eq!(report, service.resolve("m", &claim).unwrap());
    assert!(report.verified);

    // Typed errors reconstruct on the client side.
    assert!(matches!(
        client.resolve("ghost", &claim).unwrap_err(),
        WatermarkError::UnknownModel { model_id } if model_id == "ghost"
    ));
    // A single resolution is a docket of one, so its claim is cached.
    let cached = client.ping().unwrap().claims_cached;
    assert_eq!(cached, 1);
    let oversized: Vec<Dispute> = (0..5).map(|_| Dispute::new("m", claim.clone())).collect();
    assert!(matches!(
        client.resolve_docket(&oversized).unwrap_err(),
        WatermarkError::DocketTooLarge { size: 5, max: 4 }
    ));
    // The cap is checked before any claim body is cached.
    assert_eq!(
        client.ping().unwrap().claims_cached,
        cached,
        "refused dockets cache nothing"
    );

    // Dockets feed the judge's content cache, visible in the next pong.
    let docket: Vec<Dispute> = (0..2).map(|_| Dispute::new("m", claim.clone())).collect();
    assert!(client.resolve_docket(&docket).unwrap()[0].as_ref().unwrap().verified);
    assert_eq!(client.ping().unwrap().claims_cached, 1, "duplicates cached once");

    assert!(client.deregister("aaa").unwrap());
    assert!(
        !client.deregister("aaa").unwrap(),
        "second deregister reports absence"
    );
    assert_eq!(client.list_models().unwrap(), ["m"]);
    // The connection survives all of the above on one socket.
    assert!(client.resolve("m", &claim).unwrap().verified);
    server.shutdown().unwrap();
}

#[test]
fn register_over_wire_matches_local_registration() {
    let (test, outcome) = embedded(73);
    let claim = claim_for(&outcome, &test);
    let service = Arc::new(DisputeService::builder().build().unwrap());
    let server = start_server(Arc::clone(&service));
    let mut client = DisputeClient::connect(server.addr()).unwrap();
    client.register_model("wire", &outcome.model).unwrap();

    // The model deserialized server-side behaves exactly like the local one.
    let local = DisputeService::builder().build().unwrap();
    local.register("wire", &outcome.model);
    assert_eq!(
        client.resolve("wire", &claim).unwrap(),
        local.resolve("wire", &claim).unwrap()
    );
    server.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Negative paths, driven over a raw socket
// ---------------------------------------------------------------------------

fn raw_connection(server: &RunningServer) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
}

fn read_error_response(stream: &mut TcpStream) -> (u64, WireFault) {
    let mut reader = BufReader::new(stream);
    let (corr, response): (u64, Response) =
        proto::read_message(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
            .expect("server answers before closing")
            .expect("server answers before closing");
    match response {
        Response::Error { fault } => (corr, fault),
        other => panic!("expected an error response, got {other:?}"),
    }
}

/// One raw request/response exchange with correlation id `corr`.
fn exchange(reader: &mut BufReader<TcpStream>, corr: u64, request: &Request) -> (u64, Response) {
    reader
        .get_mut()
        .write_all(&proto::encode_frame(corr, request).unwrap())
        .unwrap();
    proto::read_message(reader, proto::DEFAULT_MAX_FRAME_BYTES)
        .unwrap()
        .expect("server answers")
}

/// A digest the judge has never seen — in a docket reference or a model
/// reference — is answered with `NeedPayload` naming exactly that digest;
/// resending the docket with the body inlined (the client's recovery)
/// resolves it and caches the body, so the digest-only docket then
/// resolves too.
#[test]
fn unknown_digests_get_a_need_payload_answer_and_uploads_cure_it() {
    let (test, outcome) = embedded(78);
    let claim = claim_for(&outcome, &test);
    let digest = PayloadDigest::of_claim(&claim);
    let service = Arc::new(DisputeService::builder().build().unwrap());
    service.register("m", &outcome.model);
    let reference = service.resolve("m", &claim).unwrap();
    let server = start_server(Arc::clone(&service));
    let mut reader = BufReader::new(raw_connection(&server));

    // Digest-only docket before any upload: NeedPayload, no verdicts.
    let request = Request::ResolveDocketRef {
        bodies: vec![],
        disputes: vec![DisputeRef::new("m", digest)],
    };
    let (corr, response) = exchange(&mut reader, 5, &request);
    assert_eq!(corr, 5);
    assert_eq!(
        response,
        Response::NeedPayload {
            digests: vec![digest]
        }
    );

    // Resend with the body inlined, then digest-only again: both
    // resolve, bit-identical.
    let resend = Request::ResolveDocketRef {
        bodies: vec![claim.clone()],
        disputes: vec![DisputeRef::new("m", digest)],
    };
    for (corr_sent, request) in [(6, &resend), (7, &request)] {
        let (corr, response) = exchange(&mut reader, corr_sent, request);
        assert_eq!(corr, corr_sent);
        match response {
            Response::Docket { verdicts } => {
                assert_eq!(verdicts.len(), 1);
                assert_eq!(verdicts[0].clone().into_result().unwrap(), reference);
            }
            other => panic!("expected verdicts, got {other:?}"),
        }
    }

    // Model references behave the same way.
    let ghost = PayloadDigest::of_claim(&claim); // any digest no *model* has
    let (corr, response) = exchange(
        &mut reader,
        8,
        &Request::RegisterModelRef {
            model_id: "copy".to_string(),
            digest: ghost,
        },
    );
    assert_eq!(corr, 8);
    assert_eq!(response, Response::NeedPayload { digests: vec![ghost] });
    server.shutdown().unwrap();
}

/// A judge answering a correlation id the client never sent poisons the
/// connection: pairing is lost, so any further exchange could
/// misattribute verdicts.
#[test]
fn an_unknown_correlation_id_poisons_the_client() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let rogue = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (corr, _request): (u64, Request) =
            proto::read_message(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
        // Answer under a different id than the request carried.
        let stray = Response::Models { model_ids: vec![] };
        stream.write_all(&proto::encode_frame(corr ^ 0xDEAD, &stray).unwrap()).unwrap();
    });

    let mut client = DisputeClient::connect(addr).unwrap();
    match client.ping().unwrap_err() {
        WatermarkError::ProtocolViolation { detail } => {
            assert!(detail.contains("correlation id"), "unexpected detail: {detail}")
        }
        other => panic!("expected a correlation violation, got {other:?}"),
    }
    assert!(client.is_broken());
    rogue.join().unwrap();
}

/// A judge demanding a body for a docket whose frame inlined every body
/// is breaking the protocol (inlined bodies resolve from the request
/// itself): both receive paths fail the docket after that one demand,
/// with a violation naming the digest, instead of resending.
#[test]
fn a_demand_for_an_inlined_body_fails_after_one_demand() {
    let (_, claim) = plain_fixture(83);
    let digest = PayloadDigest::of_claim(&claim);
    for surface in [false, true] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Answers every request frame with a demand for `digest` and
        // counts the demands until the client hangs up.
        let rogue = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut demands = 0;
            while let Ok(Some((corr, _request))) =
                proto::read_message::<Request, _>(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
            {
                let demand = Response::NeedPayload {
                    digests: vec![digest],
                };
                if stream.write_all(&proto::encode_frame(corr, &demand).unwrap()).is_err() {
                    break;
                }
                demands += 1;
            }
            demands
        });

        let mut client = DisputeClient::connect(addr).unwrap();
        let ticket = client.send_docket(&[Dispute::new("m", claim.clone())]).unwrap();
        let err = if surface {
            client.recv_docket_outcome(ticket).map(|_| ()).unwrap_err()
        } else {
            client.recv_docket(ticket).map(|_| ()).unwrap_err()
        };
        match err {
            WatermarkError::ProtocolViolation { detail } => assert!(
                detail.contains(&digest.to_string()) && detail.contains("inlined"),
                "unexpected detail: {detail}"
            ),
            other => panic!("expected a protocol violation, got {other:?}"),
        }
        assert!(!client.is_broken());
        assert_eq!(client.pending_dockets(), 0);
        drop(client);
        assert_eq!(rogue.join().unwrap(), 1, "surface = {surface}");
    }
}

/// A judge that first demands a body the docket holds, then one it never
/// held: `recv_docket` resends once and then fails naming the foreign
/// digest, instead of resending everything and blaming inline bodies;
/// `recv_docket_outcome` hands the second demand back to its caller.
#[test]
fn a_demand_for_a_body_the_docket_never_held_names_it() {
    let (_, held) = plain_fixture(85);
    let (_, foreign) = plain_fixture(86);
    let held_digest = PayloadDigest::of_claim(&held);
    let foreign_digest = PayloadDigest::of_claim(&foreign);
    for surface in [false, true] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Leaves the first docket (which uploads `held`) unanswered,
        // demands `held` for the second (which references it digest-only)
        // and answers every later frame with a demand for `foreign`.
        let rogue = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut frames = 0;
            while let Ok(Some((corr, _request))) =
                proto::read_message::<Request, _>(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
            {
                frames += 1;
                let digest = match frames {
                    1 => continue,
                    2 => held_digest,
                    _ => foreign_digest,
                };
                let demand = Response::NeedPayload {
                    digests: vec![digest],
                };
                if stream.write_all(&proto::encode_frame(corr, &demand).unwrap()).is_err() {
                    break;
                }
            }
            frames
        });

        let mut client = DisputeClient::connect(addr).unwrap();
        let docket = [Dispute::new("m", held.clone())];
        let _upload = client.send_docket(&docket).unwrap();
        let ticket = client.send_docket(&docket).unwrap();
        if surface {
            match client.recv_docket_outcome(ticket).unwrap() {
                DocketOutcome::NeedPayload(digests) => assert_eq!(digests, vec![foreign_digest]),
                DocketOutcome::Verdicts(verdicts) => panic!("expected a demand, got {verdicts:?}"),
            }
        } else {
            match client.recv_docket(ticket).map(|_| ()).unwrap_err() {
                WatermarkError::ProtocolViolation { detail } => assert!(
                    detail.contains(&foreign_digest.to_string()),
                    "unexpected detail: {detail}"
                ),
                other => panic!("expected a protocol violation, got {other:?}"),
            }
        }
        assert!(!client.is_broken());
        drop(client);
        // Two dockets and one resend; no all-inline second resend.
        assert_eq!(rogue.join().unwrap(), 3, "surface = {surface}");
    }
}

#[test]
fn connect_retry_covers_a_late_binding_judge() {
    // Nothing is listening on this port yet.
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap();
    drop(probe);

    let service = Arc::new(DisputeService::builder().build().unwrap());
    let server_thread = std::thread::spawn(move || {
        // Bind only after the client's first attempt has likely failed.
        std::thread::sleep(Duration::from_millis(150));
        JudgeServer::bind(addr, service, ServerConfig::default()).unwrap().spawn()
    });
    let mut client = DisputeClient::connect_with(
        addr,
        ClientConfig {
            connect_attempts: 10,
            retry_backoff: Duration::from_millis(50),
            ..ClientConfig::default()
        },
    )
    .expect("retries outlast the judge's late bind");
    assert_eq!(client.ping().unwrap().models_registered, 0);
    server_thread.join().unwrap().shutdown().unwrap();

    // With no judge at all, the retries exhaust into a typed Io error.
    let gone = TcpListener::bind("127.0.0.1:0").unwrap();
    let dead_addr = gone.local_addr().unwrap();
    drop(gone);
    let err = DisputeClient::connect_with(
        dead_addr,
        ClientConfig {
            connect_attempts: 2,
            retry_backoff: Duration::from_millis(10),
            connect_timeout: Some(Duration::from_millis(200)),
            ..ClientConfig::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, WatermarkError::Io { .. }));
}

/// The exponential backoff between connect attempts is capped by
/// `max_retry_backoff`: many attempts retry steadily instead of doubling
/// into multi-minute sleeps.
#[test]
fn connect_backoff_is_capped() {
    let gone = TcpListener::bind("127.0.0.1:0").unwrap();
    let dead_addr = gone.local_addr().unwrap();
    drop(gone);

    let started = Instant::now();
    let err = DisputeClient::connect_with(
        dead_addr,
        ClientConfig {
            connect_attempts: 4,
            retry_backoff: Duration::from_millis(200),
            max_retry_backoff: Duration::from_millis(250),
            connect_timeout: Some(Duration::from_millis(100)),
            ..ClientConfig::default()
        },
    )
    .unwrap_err();
    let elapsed = started.elapsed();
    assert!(matches!(err, WatermarkError::Io { .. }));
    // Capped sleeps: 200 + 250 + 250 = 700 ms. Uncapped doubling would be
    // 200 + 400 + 800 = 1400 ms; leave slack for scheduling noise.
    assert!(
        elapsed < Duration::from_millis(1200),
        "backoff was not capped: took {elapsed:?}"
    );
    assert!(
        elapsed >= Duration::from_millis(600),
        "backoff did not happen at all: took {elapsed:?}"
    );
}

/// A socket-option failure after a successful connect counts as one
/// failed attempt — it must not abort the retry loop. `Duration::ZERO` is
/// rejected by `set_read_timeout`, which makes it a deterministic way to
/// force that path.
#[test]
fn a_socket_option_failure_counts_as_a_failed_attempt() {
    let server = start_server(Arc::new(DisputeService::builder().build().unwrap()));
    let err = DisputeClient::connect_with(
        server.addr(),
        ClientConfig {
            connect_attempts: 2,
            retry_backoff: Duration::from_millis(10),
            read_timeout: Some(Duration::ZERO),
            ..ClientConfig::default()
        },
    )
    .unwrap_err();
    match err {
        WatermarkError::Io { message, .. } => assert!(
            message.contains("could not connect after 2 attempts"),
            "the option failure must exhaust the retry budget, not abort: {message}"
        ),
        other => panic!("expected an Io error, got {other:?}"),
    }
    server.shutdown().unwrap();
}

/// `max_connections: 0` means unlimited: many held-open idle connections
/// must not stop new arrivals from being served.
#[test]
fn zero_max_connections_means_unlimited() {
    let service = Arc::new(DisputeService::builder().build().unwrap());
    let server = JudgeServer::bind(
        "127.0.0.1:0",
        service,
        ServerConfig {
            max_connections: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn();

    // Dozens of idle peers holding their sockets open.
    let idle: Vec<TcpStream> = (0..32).map(|_| TcpStream::connect(server.addr()).unwrap()).collect();

    // A real client is served immediately alongside them.
    let mut client = DisputeClient::connect(server.addr()).unwrap();
    assert_eq!(client.ping().unwrap().protocol_version, proto::PROTOCOL_VERSION);
    drop(idle);
    drop(client);
    server.shutdown().unwrap();
}

/// Idle connections are reaped after `read_timeout` with no in-flight
/// requests, so slow-loris peers cost a descriptor only temporarily.
#[test]
fn idle_connections_are_reaped_after_the_read_timeout() {
    let service = Arc::new(DisputeService::builder().build().unwrap());
    let server = JudgeServer::bind(
        "127.0.0.1:0",
        service,
        ServerConfig {
            read_timeout: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn();

    let mut idle = raw_connection(&server);
    std::thread::sleep(Duration::from_millis(700));
    let mut rest = Vec::new();
    assert_eq!(
        idle.read_to_end(&mut rest).unwrap(),
        0,
        "the server closed the idle connection"
    );
    server.shutdown().unwrap();
}

#[test]
fn a_transport_error_poisons_the_client_connection() {
    let (_, claim) = plain_fixture(74);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // A scripted judge answers the first request with a header announcing
    // one byte more than the client's frame cap, and sends nothing else:
    // the exchange fails mid-stream (FrameTooLarge on the answer) with the
    // connection still open.
    let rogue = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (header, _payload) =
            proto::read_frame(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES).unwrap().unwrap();
        let announced = u32::try_from(proto::DEFAULT_MAX_FRAME_BYTES + 1).unwrap();
        stream
            .write_all(&raw_anonymous_header(header.correlation_id, announced))
            .unwrap();
        // Hold the socket until the client hangs up.
        while let Ok(Some(_)) = proto::read_frame(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES) {}
    });

    let mut client = DisputeClient::connect(addr).unwrap();
    assert!(!client.is_broken());
    match client.resolve("m", &claim).unwrap_err() {
        WatermarkError::FrameTooLarge { size, max } => {
            assert_eq!(size, proto::DEFAULT_MAX_FRAME_BYTES as u64 + 1);
            assert_eq!(max, proto::DEFAULT_MAX_FRAME_BYTES as u64);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }

    // Without poisoning, a retry would read the announced payload as the
    // answer to the next request and misattribute it. The client refuses
    // instead.
    assert!(client.is_broken());
    match client.ping().unwrap_err() {
        WatermarkError::ProtocolViolation { detail } => {
            assert!(detail.contains("poisoned"), "unexpected detail: {detail}")
        }
        other => panic!("expected a poisoned-connection error, got {other:?}"),
    }
    drop(client);
    rogue.join().unwrap();
}

// ---------------------------------------------------------------------------
// Frame authentication, tenant isolation, quotas (WDTP v4)
// ---------------------------------------------------------------------------

/// Tenants are namespaces: a model registered by one tenant is invisible
/// to another — resolution and deregistration are `Forbidden`, listings
/// are empty — while the owner's verdicts stay bit-identical to
/// in-process resolution.
#[test]
fn cross_tenant_model_access_is_forbidden() {
    let (model, claim) = plain_fixture(41);
    let ring = two_tenant_ring();
    let service = Arc::new(DisputeService::builder().build().unwrap());
    let server = keyed_server(Arc::clone(&service), two_tenant_ring());

    let mut acme = DisputeClient::connect_authenticated(server.addr(), auth_for(&ring, "acme")).unwrap();
    let mut globex =
        DisputeClient::connect_authenticated(server.addr(), auth_for(&ring, "globex")).unwrap();

    acme.register_model("m", &model).unwrap();
    assert_eq!(acme.list_models().unwrap(), ["m"]);

    // The in-process reference, resolved in acme's namespace.
    let reference = service.resolve_as(&TenantId::new("acme").unwrap(), "m", &claim).unwrap();
    assert_eq!(acme.resolve("m", &claim).unwrap(), reference);

    // globex sees nothing of it.
    assert_eq!(globex.list_models().unwrap(), Vec::<String>::new());
    assert!(matches!(
        globex.resolve("m", &claim).unwrap_err(),
        WatermarkError::Forbidden { .. }
    ));
    assert!(matches!(
        globex.deregister("m").unwrap_err(),
        WatermarkError::Forbidden { .. }
    ));
    // And an id registered nowhere stays UnknownModel, not Forbidden.
    assert!(matches!(
        globex.resolve("nowhere", &claim).unwrap_err(),
        WatermarkError::UnknownModel { .. }
    ));

    // Stats are scoped: each tenant sees exactly its own row.
    let acme_stats = acme.stats().unwrap();
    assert_eq!(acme_stats.len(), 1);
    assert_eq!(acme_stats[0].tenant, "acme");
    assert_eq!(acme_stats[0].models, 1);
    let globex_stats = globex.stats().unwrap();
    assert_eq!(globex_stats.len(), 1);
    assert_eq!(globex_stats[0].tenant, "globex");
    assert_eq!(globex_stats[0].models, 0);
    server.shutdown().unwrap();
}

/// The models and claim-bytes quotas each refuse with a typed
/// `QuotaExceeded` naming the exhausted axis, and a refusal never poisons
/// the connection.
#[test]
fn quota_refusals_name_the_axis_and_keep_the_connection() {
    let (model, claim) = plain_fixture(42);
    let quotas = TenantQuotas {
        max_models: 1,
        max_claim_bytes: 1,
        max_in_flight: 0,
    };
    let service = Arc::new(DisputeService::builder().tenant_quotas(quotas).build().unwrap());
    let server = start_server(Arc::clone(&service));
    let mut client = DisputeClient::connect(server.addr()).unwrap();

    // Models axis: the second distinct registration is refused...
    client.register_model("first", &model).unwrap();
    match client.register_model("second", &model).unwrap_err() {
        WatermarkError::QuotaExceeded {
            resource,
            used,
            limit,
        } => {
            assert_eq!(resource, "models");
            assert_eq!((used, limit), (2, 1));
        }
        other => panic!("expected a models quota refusal, got {other:?}"),
    }
    // ...but re-registering the held id is not growth.
    client.register_model("first", &model).unwrap();

    // Claim-bytes axis: a docket cannot allocate cache bytes beyond the
    // tenant's budget.
    let docket: Vec<Dispute> = (0..2).map(|_| Dispute::new("first", claim.clone())).collect();
    match client.resolve_docket(&docket).unwrap_err() {
        WatermarkError::QuotaExceeded { resource, .. } => assert_eq!(resource, "claim-bytes"),
        other => panic!("expected a claim-bytes quota refusal, got {other:?}"),
    }
    assert_eq!(service.claims().len(), 0);

    // The connection survived every refusal.
    assert!(!client.is_broken());
    assert_eq!(client.list_models().unwrap(), ["first"]);
    server.shutdown().unwrap();
}

/// The in-flight quota refuses the second of two pipelined requests while
/// the first still occupies the tenant's only slot — before any work is
/// spawned for it.
#[test]
fn the_in_flight_quota_sheds_pipelined_load() {
    let mut rng = SmallRng::seed_from_u64(43);
    let dataset = SyntheticSpec::breast_cancer_like().scaled(0.3).generate(&mut rng);
    let (trigger, test) = dataset.split_train_test(0.2, &mut rng);
    let model = RandomForest::fit(&dataset, &ForestParams::with_trees(8), &mut rng);
    let quotas = TenantQuotas {
        max_in_flight: 1,
        ..TenantQuotas::default()
    };
    let service = Arc::new(DisputeService::builder().tenant_quotas(quotas).build().unwrap());
    service.register("m", &model);
    let server = start_server(Arc::clone(&service));
    let mut reader = BufReader::new(raw_connection(&server));

    // One slow docket and one ping in a single write burst: the ping is
    // dispatched while the docket still holds the only in-flight slot.
    // Each dispute carries a *distinct* signature so the service cannot
    // deduplicate them — 64 genuine resolutions keep the worker busy far
    // beyond the event loop's hop from the docket dispatch to the ping
    // dispatch. The overlap still depends on both frames reaching one
    // socket read (loopback may split the burst and let the docket
    // finish in the gap), so the burst retries until the shed is
    // observed — each round also re-proves the slot was released.
    let claims: Vec<OwnershipClaim> = (0..64)
        .map(|_| OwnershipClaim::new(Signature::random(8, 0.5, &mut rng), trigger.clone(), test.clone()))
        .collect();
    let docket = Request::ResolveDocketRef {
        disputes: claims
            .iter()
            .map(|claim| DisputeRef::new("m", PayloadDigest::of_claim(claim)))
            .collect(),
        bodies: claims,
    };
    let mut shed = None;
    for round in 0..50u64 {
        let (docket_corr, ping_corr) = (200 + 2 * round, 201 + 2 * round);
        let mut burst = proto::encode_frame(docket_corr, &docket).unwrap();
        burst.extend_from_slice(&proto::encode_frame(ping_corr, &Request::Ping).unwrap());
        reader.get_mut().write_all(&burst).unwrap();

        let mut docket_response = None;
        let mut ping_response = None;
        for _ in 0..2 {
            let (corr, response): (u64, Response) =
                proto::read_message(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
                    .unwrap()
                    .unwrap();
            if corr == docket_corr {
                docket_response = Some(response);
            } else {
                assert_eq!(corr, ping_corr, "response for a request never sent");
                ping_response = Some(response);
            }
        }
        match docket_response.expect("the docket is always served") {
            Response::Docket { .. } => {}
            other => panic!("the docket itself must never be refused, got {other:?}"),
        }
        match ping_response.expect("the ping is always answered") {
            Response::Error { fault } => {
                match fault.into_error() {
                    WatermarkError::QuotaExceeded { resource, .. } => {
                        assert_eq!(resource, "in-flight")
                    }
                    other => panic!("expected an in-flight quota refusal, got {other:?}"),
                }
                shed = Some(round);
                break;
            }
            // Pong: the docket finished before the ping dispatched
            // (split burst) — the slot demonstrably freed, go again.
            Response::Pong { .. } => {}
            other => panic!("unexpected ping response {other:?}"),
        }
    }
    shed.expect("50 pipelined bursts against a 1-slot quota never overlapped");

    // The slot was released: a fresh request is served.
    reader
        .get_mut()
        .write_all(&proto::encode_frame(202, &Request::Ping).unwrap())
        .unwrap();
    let (corr, response): (u64, Response) =
        proto::read_message(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
    assert_eq!(corr, 202);
    assert!(matches!(response, Response::Pong { .. }));
    server.shutdown().unwrap();
}

/// Deregistering a model drops its cached claim bodies: a digest-only
/// docket that resolved before the deregistration demands the payload
/// again afterwards — stale digests can never be served against a new
/// model under the same id.
#[test]
fn deregistration_drops_cached_claims_over_the_wire() {
    let (model, claim) = plain_fixture(45);
    let digest = PayloadDigest::of_claim(&claim);
    let service = Arc::new(DisputeService::builder().build().unwrap());
    let server = start_server(Arc::clone(&service));
    let mut reader = BufReader::new(raw_connection(&server));

    let (_, registered) = exchange(
        &mut reader,
        1,
        &Request::RegisterModel {
            model_id: "m".to_string(),
            model: model.clone(),
        },
    );
    assert!(matches!(registered, Response::Registered { .. }));

    // A docket with the body inlined caches the claim and associates it
    // with "m".
    let (_, first) = exchange(
        &mut reader,
        2,
        &Request::ResolveDocketRef {
            bodies: vec![claim.clone()],
            disputes: vec![DisputeRef::new("m", digest)],
        },
    );
    assert!(matches!(first, Response::Docket { .. }));
    // Digest-only resolves while the association lives.
    let by_ref = Request::ResolveDocketRef {
        bodies: vec![],
        disputes: vec![DisputeRef::new("m", digest)],
    };
    let (_, second) = exchange(&mut reader, 3, &by_ref);
    assert!(matches!(second, Response::Docket { .. }));

    let (_, gone) = exchange(
        &mut reader,
        4,
        &Request::Deregister {
            model_id: "m".to_string(),
        },
    );
    assert_eq!(
        gone,
        Response::Deregistered {
            model_id: "m".to_string(),
            existed: true
        }
    );
    assert_eq!(service.claims().len(), 0, "the model's claims died with it");

    // Re-register under the same id: the old digest must NOT resolve from
    // a stale cache entry — the judge demands the body afresh.
    let (_, re_registered) = exchange(
        &mut reader,
        5,
        &Request::RegisterModel {
            model_id: "m".to_string(),
            model,
        },
    );
    assert!(matches!(re_registered, Response::Registered { .. }));
    let (_, demanded) = exchange(&mut reader, 6, &by_ref);
    assert_eq!(
        demanded,
        Response::NeedPayload {
            digests: vec![digest]
        }
    );
    server.shutdown().unwrap();
}

/// An authenticated client and an anonymous client of an open judge get
/// bit-identical verdicts for the same docket: authentication wraps the
/// frames, never the resolution.
#[test]
fn authenticated_verdicts_are_bit_identical_to_anonymous_ones() {
    let (model, claim) = plain_fixture(46);
    let docket: Vec<Dispute> = (0..4)
        .map(|i| Dispute::new(if i == 2 { "ghost" } else { "m" }, claim.clone()))
        .collect();

    // Anonymous service + open judge.
    let open_service = Arc::new(DisputeService::builder().build().unwrap());
    open_service.register("m", &model);
    let open = start_server(Arc::clone(&open_service));
    let mut anonymous = DisputeClient::connect(open.addr()).unwrap();
    let plain_verdicts = anonymous.resolve_docket(&docket).unwrap();

    // Keyed judge, same docket resolved as a tenant.
    let ring = two_tenant_ring();
    let keyed_service = Arc::new(DisputeService::builder().build().unwrap());
    let keyed = keyed_server(Arc::clone(&keyed_service), two_tenant_ring());
    let mut tenant_client =
        DisputeClient::connect_authenticated(keyed.addr(), auth_for(&ring, "acme")).unwrap();
    tenant_client.register_model("m", &model).unwrap();
    let auth_verdicts = tenant_client.resolve_docket(&docket).unwrap();

    assert_eq!(
        auth_verdicts, plain_verdicts,
        "authentication must never change a verdict"
    );
    // The tenant's accounting saw the docket.
    let stats = tenant_client.stats().unwrap();
    assert_eq!(stats[0].tenant, "acme");
    assert_eq!(stats[0].dockets, 1);
    assert_eq!(stats[0].claims, 4);
    open.shutdown().unwrap();
    keyed.shutdown().unwrap();
}

/// A peer with no key cannot grow the ledger by naming tenants: a failed
/// frame from a tenant the ring does not enroll is charged to the
/// anonymous row, however many names the peer makes up.
#[test]
fn auth_failures_from_unenrolled_tenants_share_the_anonymous_row() {
    let service = Arc::new(DisputeService::builder().build().unwrap());
    let server = keyed_server(Arc::clone(&service), two_tenant_ring());
    let mut reader = BufReader::new(raw_connection(&server));
    for i in 0..200u64 {
        let intruder = TenantId::new(format!("intruder{i}")).unwrap();
        let frame = proto::encode_frame_auth(i + 1, &Request::Ping, &intruder, 1, b"no key").unwrap();
        reader.get_mut().write_all(&frame).unwrap();
        let (corr, response): (u64, Response) =
            proto::read_message(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
        assert_eq!(corr, i + 1);
        assert!(
            matches!(response, Response::Error { .. }),
            "frame {i}: {response:?}"
        );
    }
    let rows = service.ledger().snapshot();
    assert!(
        rows.len() <= 3,
        "one ledger row per made-up tenant: {}",
        rows.len()
    );
    assert_eq!(
        service.ledger().counters(&TenantId::anonymous()).auth_failures,
        200
    );
    server.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// The failure contract on both front ends
// ---------------------------------------------------------------------------

/// The two front ends the framing and authentication cases run against:
/// a judge, and a router over one in-process judge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Front {
    Judge,
    Router,
}

/// A running front end; for the router, also the judge behind it.
struct Fixture {
    server: RunningServer,
    backend: Option<RunningServer>,
}

impl Fixture {
    /// Serves `service` at `addr` through `front`. A router takes its
    /// idle timeout and key ring from `config`; its backend runs `config`
    /// as given.
    fn start_at(front: Front, addr: &str, service: Arc<DisputeService>, config: ServerConfig) -> Self {
        if front == Front::Judge {
            let server = JudgeServer::bind(addr, service, config).expect("bind succeeds").spawn();
            return Self {
                server,
                backend: None,
            };
        }
        let backend = JudgeServer::bind("127.0.0.1:0", service, config.clone())
            .expect("loopback bind succeeds")
            .spawn();
        let router = RouterConfig {
            backends: vec![backend.addr().to_string()],
            read_timeout: config.read_timeout,
            key_ring: config.key_ring,
            ..RouterConfig::default()
        };
        Self {
            server: JudgeRouter::bind(addr, router).expect("bind succeeds").spawn(),
            backend: Some(backend),
        }
    }

    /// Stops the front end, then its backend.
    fn shutdown(self) -> WatermarkResult<()> {
        self.server.shutdown()?;
        self.backend.map_or(Ok(()), RunningServer::shutdown)
    }
}

/// The client-facing server, so the judge-only helpers apply as is.
impl std::ops::Deref for Fixture {
    type Target = RunningServer;

    fn deref(&self) -> &RunningServer {
        &self.server
    }
}

fn start_front(front: Front, service: Arc<DisputeService>) -> Fixture {
    Fixture::start_at(front, "127.0.0.1:0", service, ServerConfig::default())
}

fn keyed_front(front: Front, service: Arc<DisputeService>, ring: KeyRing) -> Fixture {
    let config = ServerConfig {
        key_ring: Some(Arc::new(ring)),
        ..ServerConfig::default()
    };
    Fixture::start_at(front, "127.0.0.1:0", service, config)
}

/// Declares each case once as a test against the judge (under its own
/// name) and once against the router (under `via_router::`).
macro_rules! on_both_front_ends {
    ($($case:ident),* $(,)?) => {
        $(
            #[test]
            fn $case() {
                cases::$case(Front::Judge);
            }
        )*
        mod via_router {
            $(
                #[test]
                fn $case() {
                    super::cases::$case(super::Front::Router);
                }
            )*
        }
    };
}

on_both_front_ends!(
    bad_magic_gets_an_error_response_and_a_closed_connection,
    v1_client_is_refused_with_a_version_fault,
    future_protocol_version_is_refused_with_a_structured_fault,
    oversized_length_prefix_is_refused_without_reading_the_payload,
    half_closed_socket_mid_frame_does_not_wedge_the_server,
    half_closed_socket_between_frames_is_a_clean_goodbye,
    garbage_payload_in_a_valid_frame_keeps_the_connection_usable,
    a_keyed_judge_refuses_anonymous_frames_but_keeps_the_connection,
    bad_and_truncated_tags_are_refused_without_poisoning_the_connection,
    a_replayed_frame_is_refused_by_the_sequence_check,
    interleaved_requests_complete_out_of_order_by_correlation_id,
    shutdown_completes_on_an_unspecified_address_bind,
    each_dispute_of_a_docket_is_refused_with_its_own_typed_error,
    a_slow_drip_is_answered_like_whole_frames,
    a_mixed_docket_survives_evicting_every_body_before_the_resend,
);

mod cases {
    use super::*;

    pub(crate) fn bad_magic_gets_an_error_response_and_a_closed_connection(front: Front) {
        let server = start_front(front, Arc::new(DisputeService::builder().build().unwrap()));
        let mut stream = raw_connection(&server);
        stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let (corr, fault) = read_error_response(&mut stream);
        assert_eq!(
            corr,
            proto::NO_CORRELATION,
            "frame-level faults carry the reserved id"
        );
        assert!(matches!(fault, WireFault::BadRequest { .. }));
        // The server closed its side: the next read is EOF.
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
        server.shutdown().unwrap();
    }

    /// A WDTP v1 peer has a 10-byte header (no correlation id). The server
    /// must refuse it with a version fault as soon as the 6-byte prelude
    /// arrives — not stall waiting for the full v4 header or misparse the v1
    /// length prefix as correlation bits.
    pub(crate) fn v1_client_is_refused_with_a_version_fault(front: Front) {
        let server = start_front(front, Arc::new(DisputeService::builder().build().unwrap()));
        let mut stream = raw_connection(&server);
        // Hand-built v1 frame: magic + version 1 + u32 length + payload.
        let payload = b"\x00";
        let mut frame = Vec::new();
        frame.extend_from_slice(proto::PROTO_MAGIC);
        frame.extend_from_slice(&1u16.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        stream.write_all(&frame).unwrap();
        match read_error_response(&mut stream) {
            (corr, WireFault::UnsupportedProtocolVersion { found, supported }) => {
                assert_eq!(corr, proto::NO_CORRELATION);
                assert_eq!(found, 1);
                assert_eq!(supported, proto::PROTOCOL_VERSION);
            }
            (_, other) => panic!("expected a version fault, got {other:?}"),
        }
        server.shutdown().unwrap();
    }

    pub(crate) fn future_protocol_version_is_refused_with_a_structured_fault(front: Front) {
        let server = start_front(front, Arc::new(DisputeService::builder().build().unwrap()));
        let mut stream = raw_connection(&server);
        let mut frame = proto::encode_frame(1, &Request::Ping).unwrap();
        frame[4..6].copy_from_slice(&999u16.to_le_bytes());
        stream.write_all(&frame).unwrap();
        match read_error_response(&mut stream) {
            (_, WireFault::UnsupportedProtocolVersion { found, supported }) => {
                assert_eq!(found, 999);
                assert_eq!(supported, proto::PROTOCOL_VERSION);
            }
            (_, other) => panic!("expected a version fault, got {other:?}"),
        }
        server.shutdown().unwrap();
    }

    pub(crate) fn oversized_length_prefix_is_refused_without_reading_the_payload(front: Front) {
        let service = Arc::new(DisputeService::builder().build().unwrap());
        let server = start_front(front, service);
        let mut stream = raw_connection(&server);
        stream.write_all(&raw_anonymous_header(77, u32::MAX)).unwrap();
        // No payload is ever sent — the server must answer from the header
        // alone instead of waiting for 4 GiB.
        match read_error_response(&mut stream) {
            (corr, WireFault::FrameTooLarge { size, max }) => {
                assert_eq!(corr, 77, "the offending request's id is echoed");
                assert_eq!(size, u64::from(u32::MAX));
                assert_eq!(max, proto::DEFAULT_MAX_FRAME_BYTES as u64);
            }
            (_, other) => panic!("expected a frame-size fault, got {other:?}"),
        }
        server.shutdown().unwrap();
    }

    pub(crate) fn half_closed_socket_mid_frame_does_not_wedge_the_server(front: Front) {
        let service = Arc::new(DisputeService::builder().build().unwrap());
        let server = start_front(front, Arc::clone(&service));

        // A client sends half a frame, then closes its write side.
        let frame = proto::encode_frame(3, &Request::ListModels).unwrap();
        let mut stream = raw_connection(&server);
        stream.write_all(&frame[..frame.len() / 2]).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        // The server detects the truncation and answers a BadRequest fault
        // (best effort) before closing — it must not hang on the missing half.
        assert!(matches!(
            read_error_response(&mut stream),
            (_, WireFault::BadRequest { .. })
        ));

        // And the server is still fully alive for the next client.
        let mut client = DisputeClient::connect(server.addr()).unwrap();
        assert_eq!(client.ping().unwrap().protocol_version, proto::PROTOCOL_VERSION);
        server.shutdown().unwrap();
    }

    pub(crate) fn half_closed_socket_between_frames_is_a_clean_goodbye(front: Front) {
        let server = start_front(front, Arc::new(DisputeService::builder().build().unwrap()));
        let mut stream = raw_connection(&server);
        // A complete ping, then a write-side shutdown: the server answers the
        // ping and closes without inventing an error.
        stream.write_all(&proto::encode_frame(9, &Request::Ping).unwrap()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reader = BufReader::new(&mut stream);
        let (corr, response): (u64, Response) =
            proto::read_message(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .expect("the ping sent before the shutdown is answered");
        assert_eq!(corr, 9);
        assert!(matches!(response, Response::Pong { .. }));
        assert!(
            proto::read_message::<Response, _>(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .is_none(),
            "no further frames: the server closes cleanly"
        );
        server.shutdown().unwrap();
    }

    pub(crate) fn garbage_payload_in_a_valid_frame_keeps_the_connection_usable(front: Front) {
        let server = start_front(front, Arc::new(DisputeService::builder().build().unwrap()));
        let mut stream = raw_connection(&server);
        // A well-framed payload that is not a decodable Request: framing stays
        // synchronized, so the server answers an error and keeps the socket.
        let payload = [0x3Fu8; 16]; // unknown value tag
        let mut frame = raw_anonymous_header(21, payload.len() as u32);
        frame.extend_from_slice(&payload);
        // Follow up with a valid ping *on the same socket*.
        frame.extend_from_slice(&proto::encode_frame(22, &Request::Ping).unwrap());
        stream.write_all(&frame).unwrap();

        let mut reader = BufReader::new(stream);
        let (first_corr, first): (u64, Response) =
            proto::read_message(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
        assert_eq!(first_corr, 21, "the decode failure is attributed to its frame");
        assert!(matches!(
            first,
            Response::Error {
                fault: WireFault::BadRequest { .. }
            }
        ));
        let (second_corr, second): (u64, Response) =
            proto::read_message(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
        assert_eq!(second_corr, 22);
        assert!(
            matches!(second, Response::Pong { .. }),
            "the connection survived the bad payload"
        );
        server.shutdown().unwrap();
    }

    /// A keyed judge refuses anonymous frames with `AuthenticationFailed`,
    /// and — because framing is intact — keeps the connection open for a
    /// correctly authenticated retry.
    pub(crate) fn a_keyed_judge_refuses_anonymous_frames_but_keeps_the_connection(front: Front) {
        let ring = two_tenant_ring();
        let auth = auth_for(&ring, "acme");
        let server = keyed_front(front, Arc::new(DisputeService::builder().build().unwrap()), ring);
        let mut reader = BufReader::new(raw_connection(&server));

        reader
            .get_mut()
            .write_all(&proto::encode_frame(1, &Request::Ping).unwrap())
            .unwrap();
        let (corr, response): (u64, Response) =
            proto::read_message(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
        assert_eq!(corr, 1, "the refusal is attributed to the offending frame");
        match response {
            Response::Error { fault } => assert!(
                matches!(fault.into_error(), WatermarkError::AuthenticationFailed { .. }),
                "anonymous frames must fail authentication"
            ),
            other => panic!("expected an auth fault, got {other:?}"),
        }

        // The same socket, now with credentials: served normally.
        let tenant = auth.tenant().clone();
        let ring = two_tenant_ring();
        let frame =
            proto::encode_frame_auth(2, &Request::Ping, &tenant, 1, ring.key(&tenant).unwrap()).unwrap();
        reader.get_mut().write_all(&frame).unwrap();
        let (corr, response): (u64, Response) =
            proto::read_message(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
        assert_eq!(corr, 2);
        assert!(matches!(response, Response::Pong { .. }));
        server.shutdown().unwrap();
    }

    /// A frame tagged under the wrong key — and one whose genuine tag was
    /// truncated (trailing tag bytes zeroed) — are both refused without
    /// poisoning the connection or advancing the sequence floor.
    pub(crate) fn bad_and_truncated_tags_are_refused_without_poisoning_the_connection(front: Front) {
        let ring = two_tenant_ring();
        let tenant = TenantId::new("acme").unwrap();
        let key = ring.key(&tenant).unwrap().to_vec();
        let server = keyed_front(front, Arc::new(DisputeService::builder().build().unwrap()), ring);
        let mut reader = BufReader::new(raw_connection(&server));

        let expect_auth_fault = |reader: &mut BufReader<TcpStream>, want_corr: u64| {
            let (corr, response): (u64, Response) =
                proto::read_message(reader, proto::DEFAULT_MAX_FRAME_BYTES).unwrap().unwrap();
            assert_eq!(corr, want_corr);
            match response {
                Response::Error { fault } => assert!(matches!(
                    fault.into_error(),
                    WatermarkError::AuthenticationFailed { .. }
                )),
                other => panic!("expected an auth fault, got {other:?}"),
            }
        };

        // Wrong key: the tag never matches.
        let forged = proto::encode_frame_auth(7, &Request::Ping, &tenant, 1, b"not the key").unwrap();
        reader.get_mut().write_all(&forged).unwrap();
        expect_auth_fault(&mut reader, 7);

        // Genuine tag with its second half zeroed — a truncated MAC must be
        // treated as no MAC at all.
        let mut truncated = proto::encode_frame_auth(8, &Request::Ping, &tenant, 1, &key).unwrap();
        for byte in &mut truncated[46..54] {
            *byte = 0;
        }
        reader.get_mut().write_all(&truncated).unwrap();
        expect_auth_fault(&mut reader, 8);

        // Sequence 1 is still available: the refused frames must not have
        // advanced the replay floor.
        let genuine = proto::encode_frame_auth(9, &Request::Ping, &tenant, 1, &key).unwrap();
        reader.get_mut().write_all(&genuine).unwrap();
        let (corr, response): (u64, Response) =
            proto::read_message(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
        assert_eq!(corr, 9);
        assert!(matches!(response, Response::Pong { .. }));
        server.shutdown().unwrap();
    }

    /// Replaying a previously accepted frame — a byte-identical copy, genuine
    /// tag included — is refused: the sequence must be strictly increasing
    /// within a connection.
    pub(crate) fn a_replayed_frame_is_refused_by_the_sequence_check(front: Front) {
        let ring = two_tenant_ring();
        let tenant = TenantId::new("acme").unwrap();
        let key = ring.key(&tenant).unwrap().to_vec();
        let service = Arc::new(DisputeService::builder().build().unwrap());
        let server = keyed_front(front, Arc::clone(&service), ring);
        let mut reader = BufReader::new(raw_connection(&server));

        let frame = proto::encode_frame_auth(11, &Request::Ping, &tenant, 1, &key).unwrap();
        reader.get_mut().write_all(&frame).unwrap();
        let (_, first): (u64, Response) =
            proto::read_message(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
        assert!(matches!(first, Response::Pong { .. }));

        // The identical bytes again: same genuine tag, same stale sequence.
        reader.get_mut().write_all(&frame).unwrap();
        let (corr, replayed): (u64, Response) =
            proto::read_message(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
        assert_eq!(corr, 11);
        match replayed {
            Response::Error { fault } => match fault.into_error() {
                WatermarkError::AuthenticationFailed { detail } => {
                    assert!(detail.contains("replayed"), "unexpected detail: {detail}")
                }
                other => panic!("expected an auth failure, got {other:?}"),
            },
            other => panic!("expected an auth fault, got {other:?}"),
        }
        // The refusal is visible in the judge's tenant accounting (a router
        // keeps no ledger, and the refused frame never reaches its backend).
        if front == Front::Judge {
            assert!(service.ledger().counters(&tenant).auth_failures >= 1);
        }

        // The connection survives; the next sequence is accepted.
        let next = proto::encode_frame_auth(12, &Request::Ping, &tenant, 2, &key).unwrap();
        reader.get_mut().write_all(&next).unwrap();
        let (corr, response): (u64, Response) =
            proto::read_message(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
        assert_eq!(corr, 12);
        assert!(matches!(response, Response::Pong { .. }));
        server.shutdown().unwrap();
    }

    /// Raw interleaving: two requests written back-to-back are both answered,
    /// each under its own correlation id, whatever order the judge finishes
    /// them in.
    pub(crate) fn interleaved_requests_complete_out_of_order_by_correlation_id(front: Front) {
        let (test, outcome) = embedded(79);
        let claim = claim_for(&outcome, &test);
        let service = Arc::new(DisputeService::builder().build().unwrap());
        service.register("m", &outcome.model);
        let server = start_front(front, Arc::clone(&service));
        let mut reader = BufReader::new(raw_connection(&server));

        // A slow docket then a fast ping, pipelined in one write burst.
        let digest = PayloadDigest::of_claim(&claim);
        let docket = Request::ResolveDocketRef {
            bodies: vec![claim],
            disputes: (0..8).map(|_| DisputeRef::new("m", digest)).collect(),
        };
        let mut burst = proto::encode_frame(100, &docket).unwrap();
        burst.extend_from_slice(&proto::encode_frame(101, &Request::Ping).unwrap());
        reader.get_mut().write_all(&burst).unwrap();

        let mut seen = std::collections::HashMap::new();
        for _ in 0..2 {
            let (corr, response): (u64, Response) =
                proto::read_message(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
                    .unwrap()
                    .expect("both pipelined requests are answered");
            seen.insert(corr, response);
        }
        assert!(matches!(seen.get(&101), Some(Response::Pong { .. })));
        match seen.get(&100) {
            Some(Response::Docket { verdicts }) => assert_eq!(verdicts.len(), 8),
            other => panic!("expected docket verdicts, got {other:?}"),
        }
        server.shutdown().unwrap();
    }

    /// A docket's refusals are per dispute and typed: one docket holding
    /// the caller's own model, another tenant's model and an unregistered
    /// id answers a report, `Forbidden` and `UnknownModel`, in that order.
    pub(crate) fn each_dispute_of_a_docket_is_refused_with_its_own_typed_error(front: Front) {
        let (model, claim) = plain_fixture(47);
        let ring = two_tenant_ring();
        let service = Arc::new(DisputeService::builder().build().unwrap());
        let server = keyed_front(front, Arc::clone(&service), two_tenant_ring());
        let mut acme =
            DisputeClient::connect_authenticated(server.addr(), auth_for(&ring, "acme")).unwrap();
        let mut globex =
            DisputeClient::connect_authenticated(server.addr(), auth_for(&ring, "globex")).unwrap();
        acme.register_model("mine", &model).unwrap();
        globex.register_model("theirs", &model).unwrap();

        let docket: Vec<Dispute> = ["mine", "theirs", "nowhere"]
            .into_iter()
            .map(|model_id| Dispute::new(model_id, claim.clone()))
            .collect();
        let verdicts = acme.resolve_docket(&docket).unwrap();
        assert_eq!(verdicts.len(), 3);
        let reference = service.resolve_as(&TenantId::new("acme").unwrap(), "mine", &claim).unwrap();
        assert_eq!(verdicts[0], Ok(reference));
        assert!(
            matches!(verdicts[1], Err(WatermarkError::Forbidden { .. })),
            "another tenant's model: {:?}",
            verdicts[1]
        );
        assert!(
            matches!(&verdicts[2], Err(WatermarkError::UnknownModel { model_id }) if model_id == "nowhere"),
            "an unregistered id: {:?}",
            verdicts[2]
        );
        server.shutdown().unwrap();
    }

    /// A docket mixing a digest-only reference with an inlined body,
    /// against a judge whose 1-byte claim cache evicts every body as soon
    /// as it is inserted: the demand for the digest-only body is answered
    /// by a resend that sends the inlined body digest-only, the judge
    /// demands that one too, and only a client that kept *every* body can
    /// finish with the all-inline retry. The verdicts match `resolve_as`.
    pub(crate) fn a_mixed_docket_survives_evicting_every_body_before_the_resend(front: Front) {
        let (model, claim) = plain_fixture(84);
        let other = OwnershipClaim::new(
            claim.signature.clone(),
            claim.test_set.clone(),
            claim.trigger_set.clone(),
        );
        let service = Arc::new(DisputeService::builder().claim_cache_bytes(1).build().unwrap());
        let server = start_front(front, Arc::clone(&service));
        let mut client = DisputeClient::connect(server.addr()).unwrap();
        client.register_model("m", &model).unwrap();
        let anonymous = TenantId::anonymous();
        let reference = |claim: &OwnershipClaim| service.resolve_as(&anonymous, "m", claim);

        // Uploads `claim`, so the next docket references it digest-only.
        let first = client.resolve_docket(&[Dispute::new("m", claim.clone())]).unwrap();
        assert_eq!(first, vec![reference(&claim)]);
        let mixed = [Dispute::new("m", claim.clone()), Dispute::new("m", other.clone())];
        let verdicts = client.resolve_docket(&mixed).unwrap();
        assert_eq!(verdicts, vec![reference(&claim), reference(&other)]);
        assert!(!client.is_broken());
        server.shutdown().unwrap();
    }

    /// Two pipelined frames written one byte per `write` are answered
    /// bit-identically to the same frames sent whole. The drip outlasts
    /// the idle timeout, so the partial reads must keep it from reaping
    /// the connection.
    pub(crate) fn a_slow_drip_is_answered_like_whole_frames(front: Front) {
        let (model, claim) = plain_fixture(53);
        let config = ServerConfig {
            read_timeout: Some(Duration::from_millis(1000)),
            ..ServerConfig::default()
        };
        let service = Arc::new(DisputeService::builder().build().unwrap());
        let server = Fixture::start_at(front, "127.0.0.1:0", service, config);
        let mut client = DisputeClient::connect(server.addr()).unwrap();
        client.register_model("m", &model).unwrap();
        // Caches the claim body, so the dripped docket can name it by digest.
        assert!(client.resolve_docket(&[Dispute::new("m", claim.clone())]).unwrap()[0].is_ok());

        let docket = Request::ResolveDocketRef {
            bodies: vec![],
            disputes: vec![DisputeRef::new("m", PayloadDigest::of_claim(&claim))],
        };
        let mut burst = proto::encode_frame(31, &docket).unwrap();
        burst.extend_from_slice(&proto::encode_frame(32, &Request::Ping).unwrap());
        let answers = |stream: TcpStream| {
            let mut reader = BufReader::new(stream);
            (0..2)
                .map(|_| {
                    let (header, payload) =
                        proto::read_frame(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
                            .unwrap()
                            .expect("both pipelined requests are answered");
                    (header.correlation_id, payload)
                })
                .collect::<std::collections::HashMap<u64, Vec<u8>>>()
        };
        let mut whole = raw_connection(&server);
        whole.write_all(&burst).unwrap();
        let expected = answers(whole);
        match proto::decode_payload::<Response>(&expected[&31]).unwrap() {
            Response::Docket { verdicts } => assert!(verdicts[0].clone().into_result().is_ok()),
            other => panic!("expected docket verdicts, got {other:?}"),
        }

        let mut drip = raw_connection(&server);
        drip.set_nodelay(true).unwrap();
        let started = Instant::now();
        for byte in &burst {
            drip.write_all(std::slice::from_ref(byte)).unwrap();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            started.elapsed() > Duration::from_millis(1000),
            "the drip outlasts the idle timeout"
        );
        assert_eq!(answers(drip), expected);
        server.shutdown().unwrap();
    }

    /// Regression test for the shutdown nudge: a server bound to the
    /// unspecified address reports `0.0.0.0:port`, and the wake-up nudge must
    /// target loopback instead of connecting to `0.0.0.0` (whose behaviour is
    /// platform-dependent).
    pub(crate) fn shutdown_completes_on_an_unspecified_address_bind(front: Front) {
        let service = Arc::new(DisputeService::builder().build().unwrap());
        let server = Fixture::start_at(front, "0.0.0.0:0", service, ServerConfig::default());
        assert!(server.addr().ip().is_unspecified());

        let finished = std::thread::spawn(move || server.shutdown());
        let deadline = Instant::now() + Duration::from_secs(10);
        while !finished.is_finished() {
            assert!(
                Instant::now() < deadline,
                "shutdown wedged on an unspecified-address bind"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        finished.join().unwrap().unwrap();
    }
}
