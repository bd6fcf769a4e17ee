//! Benchmarks of batch inference: the recursive pointer-tree walk versus
//! the compiled structure-of-arrays path, plus end-to-end verification
//! throughput over both. The committed baseline lives in
//! `BENCH_inference.json` at the repository root.
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use wdte_bench::{serving_image, small_tabular};
use wdte_core::{
    verify_ownership, Dispute, DisputeService, ModelOracle, OwnershipClaim, Signature, WatermarkConfig,
    Watermarker,
};
use wdte_data::Label;
use wdte_server::{DisputeClient, JudgeServer, ServerConfig};
use wdte_trees::{CompiledForest, ForestParams, Kernel, RandomForest};

/// Oracle that walks the pointer trees one instance at a time — the
/// pre-compilation behaviour, kept as the verification baseline.
struct RecursiveOracle<'a>(&'a RandomForest);

impl ModelOracle for RecursiveOracle<'_> {
    fn num_trees(&self) -> usize {
        self.0.num_trees()
    }

    fn query(&self, instance: &[f64]) -> Vec<Label> {
        self.0.predict_all(instance)
    }
}

fn bench_batch_prediction(c: &mut Criterion) {
    let image = serving_image();
    let tabular = small_tabular();
    let mut rng = SmallRng::seed_from_u64(17);
    let image_forest = RandomForest::fit(&image, &ForestParams::with_trees(16), &mut rng);
    let tabular_forest = RandomForest::fit(&tabular, &ForestParams::with_trees(16), &mut rng);
    let image_compiled = CompiledForest::compile(&image_forest);
    let tabular_compiled = CompiledForest::compile(&tabular_forest);

    let mut group = c.benchmark_group("inference");
    group.sample_size(20);
    group.bench_function("image_784_recursive_batch", |b| {
        b.iter(|| image_forest.predict_dataset(&image))
    });
    group.bench_function("image_784_compiled_batch", |b| {
        b.iter(|| image_compiled.predict_batch(image.features()))
    });
    group.bench_function("image_784_compile", |b| {
        b.iter(|| CompiledForest::compile(&image_forest))
    });
    group.bench_function("tabular_recursive_batch", |b| {
        b.iter(|| tabular_forest.predict_dataset(&tabular))
    });
    group.bench_function("tabular_compiled_batch", |b| {
        b.iter(|| tabular_compiled.predict_batch(tabular.features()))
    });
    group.bench_function("tabular_compiled_predict_all_batch", |b| {
        b.iter(|| tabular_compiled.predict_all_batch(tabular.features()))
    });
    // One row per kernel on each fixture; both resolve to the same
    // blocked walk, so the rows should agree within noise.
    for kernel in Kernel::ALL {
        group.bench_function(format!("image_784_kernel_{kernel}"), |b| {
            b.iter(|| image_compiled.predict_all_batch_with(image.features(), kernel))
        });
        group.bench_function(format!("tabular_kernel_{kernel}"), |b| {
            b.iter(|| tabular_compiled.predict_all_batch_with(tabular.features(), kernel))
        });
    }
    // The sharded entry point on a batch no larger than one shard: must
    // cost the same as the serial call above, not a pool round-trip.
    group.bench_function("tabular_par_small_batch_serial_fallback", |b| {
        b.iter(|| tabular_compiled.par_predict_all_batch(tabular.features(), usize::MAX, Kernel::Auto))
    });
    group.finish();
}

fn bench_verification_throughput(c: &mut Criterion) {
    let dataset = small_tabular();
    let mut rng = SmallRng::seed_from_u64(18);
    let (train, test) = dataset.split_stratified(0.8, &mut rng);
    let signature = Signature::random(12, 0.5, &mut rng);
    let config = WatermarkConfig {
        num_trees: 12,
        ..WatermarkConfig::fast()
    };
    let outcome = Watermarker::new(config).embed(&train, &signature, &mut rng).unwrap();
    let claim = OwnershipClaim::new(signature, outcome.trigger_set.clone(), test);
    let compiled = CompiledForest::compile(&outcome.model);

    let mut group = c.benchmark_group("verification_throughput");
    group.sample_size(20);
    group.bench_function("verify_recursive_per_instance", |b| {
        b.iter(|| verify_ownership(&RecursiveOracle(&outcome.model), &claim))
    });
    group.bench_function("verify_compiled_batch", |b| {
        b.iter(|| verify_ownership(&compiled, &claim))
    });
    group.bench_function("verify_forest_autocompiled", |b| {
        b.iter(|| verify_ownership(&outcome.model, &claim))
    });

    // Multi-claim throughput: the service's amortized-compile, concurrent
    // docket against resolving the same docket one `verify_ownership` call
    // at a time (recompiling the forest per claim).
    const DOCKET: usize = 32;
    let disputes: Vec<Dispute> = (0..DOCKET).map(|_| Dispute::new("m", claim.clone())).collect();
    let service = DisputeService::builder().build().unwrap();
    service.register("m", &outcome.model);
    group.bench_function("verify_32_claims_recompile_each", |b| {
        b.iter(|| {
            disputes
                .iter()
                .map(|dispute| verify_ownership(&outcome.model, &dispute.claim))
                .filter(|report| report.verified)
                .count()
        })
    });
    group.bench_function("service_resolve_32_claims", |b| {
        b.iter(|| {
            service
                .resolve_many(&disputes)
                .into_iter()
                .filter(|verdict| verdict.as_ref().is_ok_and(|r| r.verified))
                .count()
        })
    });

    // The same service behind the TCP front-end: a judge on loopback, a
    // 64-claim docket per request. The delta against the in-process numbers
    // above is the whole wire cost (framing, serde, socket hops).
    let served = Arc::new(DisputeService::builder().build().unwrap());
    served.register("m", &outcome.model);
    let server = JudgeServer::bind("127.0.0.1:0", Arc::clone(&served), ServerConfig::default())
        .expect("loopback bind succeeds")
        .spawn();
    let wire_docket: Vec<Dispute> = (0..64).map(|_| Dispute::new("m", claim.clone())).collect();
    let mut client = DisputeClient::connect(server.addr()).expect("bench client connects");
    group.bench_function("served_loopback_64_claim_docket", |b| {
        b.iter(|| {
            client
                .resolve_docket(&wire_docket)
                .expect("docket resolves")
                .into_iter()
                .filter(|verdict| verdict.as_ref().is_ok_and(|r| r.verified))
                .count()
        })
    });

    // Open-loop load: four independent connections fire 16-claim dockets
    // concurrently, each submitting its next docket the moment the
    // previous answer lands — the judge's accept loop, connection threads
    // and the shared registry all under simultaneous fire.
    let open_docket: Vec<Dispute> = (0..16).map(|_| Dispute::new("m", claim.clone())).collect();
    group.bench_function("served_4_connections_16_claims_each", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let addr = server.addr();
                        let docket = &open_docket;
                        scope.spawn(move || {
                            let mut client =
                                DisputeClient::connect(addr).expect("bench client connects");
                            client
                                .resolve_docket(docket)
                                .expect("docket resolves")
                                .into_iter()
                                .filter(|verdict| verdict.as_ref().is_ok_and(|r| r.verified))
                                .count()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("no panics")).sum::<usize>()
            })
        })
    });
    drop(client);
    server.shutdown().expect("clean shutdown");
    group.finish();
}

criterion_group!(benches, bench_batch_prediction, bench_verification_throughput);
criterion_main!(benches);
