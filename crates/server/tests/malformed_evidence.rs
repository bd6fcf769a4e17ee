//! Evidence that decodes structurally but violates a type's invariant is
//! refused at decode time with a typed fault, and the refusal leaves the
//! connection serving later dockets bit-identically.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Serialize, Value};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use wdte_core::proto::{self, DisputeRef, DocketVerdict, PayloadDigest, Request, Response, WireFault};
use wdte_core::{DisputeService, OwnershipClaim, Signature};
use wdte_data::SyntheticSpec;
use wdte_server::{JudgeServer, ServerConfig};
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
    let mut rng = SmallRng::seed_from_u64(41);
    let dataset = SyntheticSpec::breast_cancer_like().scaled(0.3).generate(&mut rng);
    let (trigger, test) = dataset.split_train_test(0.2, &mut rng);
    let model = RandomForest::fit(&dataset, &ForestParams::with_trees(8), &mut rng);
    let claim = OwnershipClaim::new(Signature::random(8, 0.5, &mut rng), trigger, test);
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
