//! Evidence that decodes structurally but violates a type's invariant is
//! refused at decode time with a typed fault, and the refusal leaves the
//! connection serving later dockets bit-identically. A claim that decodes
//! but whose rows no verification batch against its model can hold is
//! refused per dispute, with no panic, in process, through one judge and
//! through the router, and its docket neighbours still resolve.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Serialize, Value};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;
use wdte_core::proto::{self, DisputeRef, DocketVerdict, PayloadDigest, Request, Response, WireFault};
use wdte_core::{
    Dispute, DisputeService, OwnershipClaim, SharedDispute, Signature, TenantId, TenantQuotas,
    VerificationReport, WatermarkError, WatermarkResult,
};
use wdte_data::{Dataset, DenseMatrix, Label, SyntheticSpec};
use wdte_server::{DisputeClient, JudgeRouter, JudgeServer, RouterConfig, ServerConfig};
use wdte_trees::{ForestParams, RandomForest};

fn docket(claim: &OwnershipClaim) -> Request {
    Request::ResolveDocketRef {
        bodies: vec![claim.clone()],
        disputes: vec![DisputeRef::new("m", PayloadDigest::of_claim(claim))],
    }
}

/// `docket(claim)` with the claim's signature bits replaced by `[]`.
fn docket_with_empty_signature(claim: &OwnershipClaim) -> Value {
    let mut value = docket(claim).to_value();
    let Value::Map(variant) = &mut value else {
        unreachable!("a request is a map")
    };
    let Value::Map(fields) = &mut variant[0].1 else {
        unreachable!("a struct variant")
    };
    let Value::Seq(bodies) = &mut fields[0].1 else {
        unreachable!("bodies is a sequence")
    };
    let Value::Map(claim_fields) = &mut bodies[0] else {
        unreachable!("a claim is a map")
    };
    claim_fields[0].1 = Value::Map(vec![("bits".to_string(), Value::Seq(Vec::new()))]);
    value
}

#[test]
fn an_empty_signature_is_a_bad_request_and_the_connection_keeps_serving() {
    let (model, claim) = fixture();
    let service = Arc::new(DisputeService::builder().build().unwrap());
    service.register("m", &model);
    let reference = service.resolve("m", &claim).unwrap();
    let server = JudgeServer::bind("127.0.0.1:0", service, ServerConfig::default())
        .unwrap()
        .spawn();

    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(stream);
    let mut burst = proto::encode_frame(1, &docket_with_empty_signature(&claim)).unwrap();
    burst.extend_from_slice(&proto::encode_frame(2, &docket(&claim)).unwrap());
    reader.get_mut().write_all(&burst).unwrap();

    let mut answers: Vec<(u64, Response)> = (0..2)
        .map(|_| {
            proto::read_message(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .expect("the judge answers both frames")
        })
        .collect();
    answers.sort_by_key(|(corr, _)| *corr);
    match &answers[0] {
        (
            1,
            Response::Error {
                fault: WireFault::BadRequest { detail },
            },
        ) => assert!(detail.contains("at least one bit"), "{detail}"),
        other => panic!("expected a BadRequest for the empty signature, got {other:?}"),
    }
    assert_eq!(
        answers[1],
        (
            2,
            Response::Docket {
                verdicts: vec![DocketVerdict::Report(reference)],
            }
        ),
        "the next docket on the connection resolves bit-identically"
    );
    server.shutdown().unwrap();
}

/// A model and a genuine claim against it.
fn fixture() -> (RandomForest, OwnershipClaim) {
    let mut rng = SmallRng::seed_from_u64(41);
    let dataset = SyntheticSpec::breast_cancer_like().scaled(0.3).generate(&mut rng);
    let (trigger, test) = dataset.split_train_test(0.2, &mut rng);
    let model = RandomForest::fit(&dataset, &ForestParams::with_trees(8), &mut rng);
    let claim = OwnershipClaim::new(Signature::random(8, 0.5, &mut rng), trigger, test);
    (model, claim)
}

/// `docket(claim)` with every binary label sent as its pre-k-class
/// variant name.
fn docket_with_named_labels(claim: &OwnershipClaim) -> Value {
    fn rename(value: &mut Value) {
        match value {
            Value::Map(entries) => {
                for (key, item) in entries.iter_mut() {
                    match (key.as_str(), item) {
                        ("labels", Value::Seq(labels)) => {
                            for label in labels.iter_mut() {
                                match label {
                                    Value::U64(0) => *label = Value::Str("Negative".into()),
                                    Value::U64(1) => *label = Value::Str("Positive".into()),
                                    _ => {}
                                }
                            }
                        }
                        (_, item) => rename(item),
                    }
                }
            }
            Value::Seq(items) => items.iter_mut().for_each(rename),
            _ => {}
        }
    }
    let mut value = docket(claim).to_value();
    rename(&mut value);
    value
}

#[test]
fn variant_name_labels_are_a_bad_request_and_the_connection_keeps_serving() {
    let (model, claim) = fixture();
    let service = Arc::new(DisputeService::builder().build().unwrap());
    service.register("m", &model);
    let reference = service.resolve("m", &claim).unwrap();
    let server = JudgeServer::bind("127.0.0.1:0", service, ServerConfig::default())
        .unwrap()
        .spawn();

    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(stream);
    let named = docket_with_named_labels(&claim);
    assert!(
        format!("{named:?}").contains("Positive"),
        "the claim has positive labels"
    );
    let mut burst = proto::encode_frame(1, &named).unwrap();
    burst.extend_from_slice(&proto::encode_frame(2, &docket(&claim)).unwrap());
    reader.get_mut().write_all(&burst).unwrap();

    let mut answers: Vec<(u64, Response)> = (0..2)
        .map(|_| {
            proto::read_message(&mut reader, proto::DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .expect("the judge answers both frames")
        })
        .collect();
    answers.sort_by_key(|(corr, _)| *corr);
    match &answers[0] {
        (
            1,
            Response::Error {
                fault: WireFault::BadRequest { detail },
            },
        ) => assert!(detail.contains("class index"), "{detail}"),
        other => panic!("expected a BadRequest for the named labels, got {other:?}"),
    }
    assert_eq!(
        answers[1],
        (
            2,
            Response::Docket {
                verdicts: vec![DocketVerdict::Report(reference)],
            }
        ),
        "the next docket on the connection resolves bit-identically"
    );
    server.shutdown().unwrap();
}

/// Panics anywhere in this test process since the first call, counted
/// by a hook that then defers to the default one.
fn panics() -> &'static AtomicUsize {
    static COUNT: AtomicUsize = AtomicUsize::new(0);
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            COUNT.fetch_add(1, Ordering::SeqCst);
            default(info);
        }));
    });
    &COUNT
}

/// `set` with every row cut to its first `cols` columns.
fn narrowed(set: &Dataset, cols: usize) -> Dataset {
    let values = set.features().iter_rows().flat_map(|row| &row[..cols]).copied().collect();
    let features = DenseMatrix::from_vec(set.len(), cols, values).unwrap();
    Dataset::with_classes(
        set.name.clone(),
        features,
        set.labels().to_vec(),
        set.num_classes(),
    )
    .unwrap()
}

/// The three claim shapes no verification batch against the fixture's
/// model can hold, named: disguise rows one column narrower than the
/// trigger rows, every row one column narrower than the model, and an
/// empty 0×0 trigger set with no disguise rows.
fn malformed_claims(
    model: &RandomForest,
    claim: &OwnershipClaim,
) -> Vec<(&'static str, OwnershipClaim)> {
    let narrow = model.num_features() - 1;
    let empty = Dataset::with_classes("empty", DenseMatrix::zeros(0, 0), Vec::new(), 2).unwrap();
    vec![
        (
            "narrow disguise rows",
            OwnershipClaim::new(
                claim.signature.clone(),
                claim.trigger_set.clone(),
                narrowed(&claim.test_set, narrow),
            ),
        ),
        (
            "rows narrower than the model",
            OwnershipClaim::new(
                claim.signature.clone(),
                narrowed(&claim.trigger_set, narrow),
                narrowed(&claim.test_set, narrow),
            ),
        ),
        (
            "empty claim",
            OwnershipClaim::new(claim.signature.clone(), empty.clone(), empty),
        ),
    ]
}

fn assert_refused(verdict: &WatermarkResult<VerificationReport>, shape: &str) {
    assert!(
        matches!(verdict, Err(WatermarkError::ProtocolViolation { detail }) if detail.contains("features")),
        "{shape}: expected a typed ProtocolViolation, got {verdict:?}"
    );
}

#[test]
fn malformed_claim_shapes_are_refused_in_process_without_a_panic() {
    let panics = panics();
    let before = panics.load(Ordering::SeqCst);
    let (model, claim) = fixture();
    let service = DisputeService::builder().build().unwrap();
    service.register("m", &model);
    let reference = service.resolve("m", &claim).unwrap();
    let tenant = TenantId::anonymous();
    for (shape, malformed) in malformed_claims(&model, &claim) {
        assert_refused(&service.resolve("m", &malformed), shape);
        let verdicts = service.resolve_many(&[
            Dispute::new("m", malformed.clone()),
            Dispute::new("m", claim.clone()),
        ]);
        assert_refused(&verdicts[0], shape);
        assert_eq!(
            verdicts[1],
            Ok(reference.clone()),
            "{shape}: the genuine neighbour"
        );

        let shared: Vec<SharedDispute> = [malformed, claim.clone()]
            .into_iter()
            .map(|body| {
                let (digest, body) =
                    service.claims().insert_for(&tenant, &TenantQuotas::default(), body).unwrap();
                SharedDispute::new("m", digest, body)
            })
            .collect();
        let verdicts = service.resolve_docket_shared_as(&tenant, &shared).unwrap();
        assert_refused(&verdicts[0], shape);
        assert_eq!(
            verdicts[1],
            Ok(reference.clone()),
            "{shape}: the genuine neighbour"
        );
    }
    assert_eq!(
        panics.load(Ordering::SeqCst),
        before,
        "resolving a malformed claim panicked"
    );
}

/// `set` relabelled over the widest label space a claim may declare,
/// with its first row in the last class.
fn widest_label_space(set: &Dataset) -> Dataset {
    let mut labels = set.labels().to_vec();
    labels[0] = Label::new(Label::MAX_CLASSES - 1, Label::MAX_CLASSES).unwrap();
    Dataset::with_classes(
        set.name.clone(),
        set.features().clone(),
        labels,
        Label::MAX_CLASSES,
    )
    .unwrap()
}

#[test]
fn a_claim_over_the_widest_label_space_resolves_without_a_panic() {
    let panics = panics();
    let before = panics.load(Ordering::SeqCst);
    let (model, claim) = fixture();
    let service = DisputeService::builder().build().unwrap();
    service.register("m", &model);
    let wide = OwnershipClaim::new(
        Signature::from_bits(vec![true; model.num_trees()]),
        widest_label_space(&claim.trigger_set),
        claim.test_set.clone(),
    );
    let report = service.resolve("m", &wide).unwrap();
    assert!(!report.verified, "no tree predicts the last of 65536 classes");
    assert_eq!(
        panics.load(Ordering::SeqCst),
        before,
        "resolving the claim panicked"
    );
}

/// Through `client`, each malformed claim docketed before a genuine one
/// gets the in-process refusal and the genuine neighbour its in-process
/// report, and the connection then serves the next docket.
fn assert_served_per_dispute(client: &mut DisputeClient, model: &RandomForest, claim: &OwnershipClaim) {
    let service = DisputeService::builder().build().unwrap();
    service.register("m", model);
    for (shape, malformed) in malformed_claims(model, claim) {
        let docket = [Dispute::new("m", malformed), Dispute::new("m", claim.clone())];
        let reference = service.resolve_many(&docket);
        assert_refused(&reference[0], shape);
        let served = client.resolve_docket(&docket).unwrap();
        assert_eq!(
            served, reference,
            "{shape}: served verdicts differ from in-process"
        );
        let next = client.resolve_docket(&docket[1..]).unwrap();
        assert_eq!(next, reference[1..], "{shape}: the next docket on the connection");
    }
}

#[test]
fn malformed_claim_shapes_are_refused_per_dispute_through_one_judge() {
    let panics = panics();
    let before = panics.load(Ordering::SeqCst);
    let (model, claim) = fixture();
    let server = JudgeServer::bind(
        "127.0.0.1:0",
        Arc::new(DisputeService::builder().build().unwrap()),
        ServerConfig::default(),
    )
    .unwrap()
    .spawn();
    let mut client = DisputeClient::connect(server.addr().to_string()).unwrap();
    client.register_model("m", &model).unwrap();
    assert_served_per_dispute(&mut client, &model, &claim);
    assert_eq!(panics.load(Ordering::SeqCst), before, "the judge panicked");
    server.shutdown().unwrap();
}

#[test]
fn malformed_claim_shapes_are_refused_per_dispute_through_the_router() {
    let panics = panics();
    let before = panics.load(Ordering::SeqCst);
    let (model, claim) = fixture();
    let backends: Vec<_> = (0..2)
        .map(|_| {
            JudgeServer::bind(
                "127.0.0.1:0",
                Arc::new(DisputeService::builder().build().unwrap()),
                ServerConfig::default(),
            )
            .unwrap()
            .spawn()
        })
        .collect();
    let router = JudgeRouter::bind(
        "127.0.0.1:0",
        RouterConfig {
            backends: backends.iter().map(|b| b.addr().to_string()).collect(),
            ..RouterConfig::default()
        },
    )
    .unwrap()
    .spawn();
    let mut client = DisputeClient::connect(router.addr().to_string()).unwrap();
    client.register_model("m", &model).unwrap();
    assert_served_per_dispute(&mut client, &model, &claim);
    assert_eq!(panics.load(Ordering::SeqCst), before, "the fleet panicked");
    router.shutdown().unwrap();
}
