//! Routing on a one-worker pool. An in-process fleet puts the router and
//! its backend judges in one process with one global work-stealing pool.
//! A routed request blocks on backend sockets, so if it ran on that pool
//! it could occupy the only worker while the backend shards it waits for
//! sit queued behind it, and the fleet would hang. This binary sizes the
//! global pool to one worker (which `build_global` allows once per
//! process, hence a binary of its own) and drives pipelined dockets on
//! two router connections at once.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;
use wdte_core::{Dispute, DisputeService, OwnershipClaim, Signature};
use wdte_data::SyntheticSpec;
use wdte_server::{DisputeClient, JudgeRouter, JudgeServer, RouterConfig, ServerConfig};
use wdte_trees::{ForestParams, RandomForest};

const MODELS: usize = 4;
const DOCKETS_PER_CONNECTION: usize = 4;

/// A cheap model and a 16-dispute docket cycling the model ids over four
/// distinct claims; the verdicts need not be upheld, only reproduced.
fn fixture() -> (RandomForest, Vec<Dispute>) {
    let mut rng = SmallRng::seed_from_u64(0x51_4E_47);
    let dataset = SyntheticSpec::breast_cancer_like().scaled(0.3).generate(&mut rng);
    let model = RandomForest::fit(&dataset, &ForestParams::with_trees(8), &mut rng);
    let claims: Vec<OwnershipClaim> = (0..4)
        .map(|_| {
            let (trigger, test) = dataset.split_train_test(0.2, &mut rng);
            OwnershipClaim::new(Signature::random(8, 0.5, &mut rng), trigger, test)
        })
        .collect();
    let docket = (0..16)
        .map(|i| Dispute::new(format!("m{}", i % MODELS), claims[i % claims.len()].clone()))
        .collect();
    (model, docket)
}

/// Two backends and a router, pipelined dockets on one connection while a
/// second connection sends at the same time; every verdict is compared
/// with in-process `resolve_many`.
fn routed_dockets_match_in_process_resolution() {
    let (model, docket) = fixture();
    let reference_service = DisputeService::builder().build().unwrap();
    for i in 0..MODELS {
        reference_service.register(format!("m{i}"), &model);
    }
    let reference = reference_service.resolve_many(&docket);

    let backends: Vec<_> = (0..2)
        .map(|_| {
            let service = Arc::new(DisputeService::builder().build().unwrap());
            JudgeServer::bind("127.0.0.1:0", service, ServerConfig::default())
                .expect("loopback bind succeeds")
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
    .expect("loopback bind succeeds")
    .spawn();

    let mut client = DisputeClient::connect(router.addr()).unwrap();
    for i in 0..MODELS {
        client.register_model(format!("m{i}"), &model).unwrap();
    }
    let second = {
        let (addr, docket) = (router.addr(), docket.clone());
        std::thread::spawn(move || {
            let mut client = DisputeClient::connect(addr).unwrap();
            client.pipeline_dockets(&vec![docket; DOCKETS_PER_CONNECTION]).unwrap()
        })
    };
    let tickets: Vec<_> = (0..DOCKETS_PER_CONNECTION)
        .map(|_| client.send_docket(&docket).unwrap())
        .collect();
    let mut served: Vec<_> =
        tickets.into_iter().map(|ticket| client.recv_docket(ticket).unwrap()).collect();
    served.extend(second.join().expect("the second connection's thread panicked"));

    assert_eq!(served.len(), 2 * DOCKETS_PER_CONNECTION);
    for verdicts in &served {
        assert_eq!(
            verdicts, &reference,
            "a routed docket diverged from in-process resolution"
        );
    }
    router.shutdown().unwrap();
    for backend in backends {
        backend.shutdown().unwrap();
    }
}

#[test]
fn pipelined_routed_dockets_resolve_on_a_one_worker_pool() {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .expect("nothing in this binary has touched the global pool yet");
    // A hang is the failure this test exists to catch, so the fleet runs
    // on its own thread under a watchdog.
    let (done, finished) = mpsc::channel();
    let fleet = std::thread::spawn(move || {
        routed_dockets_match_in_process_resolution();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => fleet.join().unwrap(),
        Err(RecvTimeoutError::Timeout) => {
            panic!("routed dockets hung for 60 s on a one-worker pool")
        }
        Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(
            fleet.join().expect_err("the fleet thread ended without reporting"),
        ),
    }
}
