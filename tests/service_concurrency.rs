//! Concurrency determinism suite for the shared work-stealing pool.
//!
//! The parallel layers of the dispute service — concurrent `T0`/`T1`
//! training, grid-search fold fan-out, sharded verification batches,
//! multi-claim resolution — must all be *schedule-free*: fixed-seed results
//! are bit-identical with 1 worker and N workers, and concurrent claims
//! against a shared registry never observe partially compiled state.
//!
//! Worker counts are pinned through the rayon compat layer's
//! `ThreadPoolBuilder::num_threads(k)`, a scoped width limit over the one
//! process-global pool that *travels with the jobs it spawns*: every
//! nested fan-out reached from `install` — the T0/T1 `join` fork, folds
//! inside a grid point, batch shards inside a dispute — obeys the limit on
//! whichever worker thread it lands. `num_threads(1)` is strictly serial;
//! wider limits let the pool steal nested jobs freely, and the outputs'
//! bit-identity across all of them comes from per-task derived seeds plus
//! input-order stitching, not from scheduling.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::sync::Arc;
use wdte::core::BATCH_SHARD_ROWS;
use wdte::prelude::*;

fn fixture() -> (wdte::data::Dataset, wdte::data::Dataset, Signature, Watermarker) {
    let dataset = SyntheticSpec::breast_cancer_like()
        .scaled(0.7)
        .generate(&mut SmallRng::seed_from_u64(91));
    let mut rng = SmallRng::seed_from_u64(92);
    let (train, test) = dataset.split_stratified(0.75, &mut rng);
    let signature = Signature::random(12, 0.5, &mut rng);
    let watermarker = Watermarker::new(WatermarkConfig {
        num_trees: 12,
        ..WatermarkConfig::fast()
    });
    (train, test, signature, watermarker)
}

/// A claim whose verification batch spans more than two
/// [`BATCH_SHARD_ROWS`]-row shards, so resolving it really splits one
/// claim across several pool tasks: the test set is repeated until the
/// batch (trigger set plus test set) is that large.
fn sharded_claim(
    signature: Signature,
    trigger_set: wdte::data::Dataset,
    test: &wdte::data::Dataset,
) -> OwnershipClaim {
    let mut decoys = test.clone();
    while trigger_set.len() + decoys.len() <= 2 * BATCH_SHARD_ROWS {
        decoys = decoys.concat(test).unwrap();
    }
    let claim = OwnershipClaim::new(signature, trigger_set, decoys);
    let (batch, _) = claim.verification_batch(&mut SmallRng::seed_from_u64(0));
    assert!(
        batch.len() > 2 * BATCH_SHARD_ROWS,
        "a {}-row batch does not split into nested shards",
        batch.len()
    );
    claim
}

#[test]
fn fixed_seed_embedding_is_identical_with_one_worker_and_many() {
    let (train, _, signature, watermarker) = fixture();
    let parallel = watermarker.embed(&train, &signature, &mut SmallRng::seed_from_u64(93)).unwrap();
    let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let serial = pool
        .install(|| watermarker.embed(&train, &signature, &mut SmallRng::seed_from_u64(93)))
        .unwrap();
    assert_eq!(parallel.model, serial.model);
    assert_eq!(parallel.trigger_indices, serial.trigger_indices);
    assert_eq!(parallel.diagnostics, serial.diagnostics);
}

#[test]
fn fixed_seed_resolution_is_identical_with_one_worker_and_many() {
    let (train, test, signature, watermarker) = fixture();
    let outcome = watermarker.embed(&train, &signature, &mut SmallRng::seed_from_u64(94)).unwrap();
    let claim = sharded_claim(signature, outcome.trigger_set.clone(), &test);
    let disputes: Vec<Dispute> = (0..6).map(|_| Dispute::new("m", claim.clone())).collect();

    let service = DisputeService::builder().build().unwrap();
    service.register("m", &outcome.model);
    let parallel = service.resolve_many(&disputes);
    let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let serial = pool.install(|| service.resolve_many(&disputes));
    assert_eq!(parallel.len(), serial.len());
    for (a, b) in parallel.iter().zip(&serial) {
        assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        assert!(a.as_ref().unwrap().verified);
    }
    // And both match the plain one-shot verification path.
    assert_eq!(
        *parallel[0].as_ref().unwrap(),
        verify_ownership(&outcome.model, &claim)
    );
}

#[test]
fn concurrent_claims_share_exactly_one_compile() {
    let (train, test, signature, watermarker) = fixture();
    let outcome = watermarker.embed(&train, &signature, &mut SmallRng::seed_from_u64(95)).unwrap();
    let claim = OwnershipClaim::new(signature, outcome.trigger_set.clone(), test);
    let service = Arc::new(DisputeService::builder().build().unwrap());
    service.register("shared", &outcome.model);

    let reference = service.resolve("shared", &claim).unwrap();
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let service = Arc::clone(&service);
            let claim = claim.clone();
            std::thread::spawn(move || service.resolve("shared", &claim).unwrap())
        })
        .collect();
    for handle in handles {
        let report = handle.join().unwrap();
        assert_eq!(report, reference);
        assert!(report.verified);
    }
    assert_eq!(
        service.compile_count(),
        1,
        "claim count must not affect compile count"
    );
}

#[test]
fn resolution_never_observes_a_partially_compiled_forest() {
    let (train, test, signature, watermarker) = fixture();
    let outcome = watermarker.embed(&train, &signature, &mut SmallRng::seed_from_u64(96)).unwrap();
    let claim = OwnershipClaim::new(signature.clone(), outcome.trigger_set.clone(), test.clone());
    let service = Arc::new(DisputeService::builder().build().unwrap());
    service.register("target", &outcome.model);
    let reference = service.resolve("target", &claim).unwrap();

    // Hammer the target model from several threads while the registry
    // churns: other models register and deregister concurrently, and
    // "target" itself is re-registered (replaced with the same model)
    // under load. Every resolution must return the complete, identical
    // report — a torn or half-published compiled forest would change
    // per-tree votes (or panic).
    let resolvers: Vec<_> = (0..4)
        .map(|_| {
            let service = Arc::clone(&service);
            let claim = claim.clone();
            std::thread::spawn(move || {
                (0..20).map(|_| service.resolve("target", &claim).unwrap()).collect::<Vec<_>>()
            })
        })
        .collect();
    let churn = {
        let service = Arc::clone(&service);
        let model = outcome.model.clone();
        std::thread::spawn(move || {
            for round in 0..10 {
                let id = format!("churn-{round}");
                service.register(&id, &model);
                service.register("target", &model);
                service.deregister_as(&TenantId::anonymous(), &id).unwrap();
            }
        })
    };
    for handle in resolvers {
        for report in handle.join().unwrap() {
            assert_eq!(report, reference);
            assert!(report.verified);
        }
    }
    churn.join().unwrap();
    assert!(service.model_as(&TenantId::anonymous(), "target").is_ok());
}

#[test]
fn baseline_training_is_identical_with_one_worker_and_many() {
    let (train, _, _, watermarker) = fixture();
    let parallel = watermarker.train_baseline(&train, &mut SmallRng::seed_from_u64(97));
    let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let serial = pool.install(|| watermarker.train_baseline(&train, &mut SmallRng::seed_from_u64(97)));
    assert_eq!(parallel, serial);
}

/// The acceptance bar of the work-stealing pool rewrite: the three
/// fixed-seed pipelines the paper's protocol depends on — embedding,
/// docket resolution, grid search — produce bit-identical output at every
/// pool width, with 1 worker (strictly serial) as the reference.
#[test]
fn embed_resolve_and_grid_are_bit_identical_across_1_2_4_8_workers() {
    let (train, test, signature, watermarker) = fixture();
    let serial = ThreadPoolBuilder::new().num_threads(1).build().unwrap();

    let reference_outcome = serial
        .install(|| watermarker.embed(&train, &signature, &mut SmallRng::seed_from_u64(98)))
        .unwrap();
    let claim = sharded_claim(signature.clone(), reference_outcome.trigger_set.clone(), &test);
    let disputes: Vec<Dispute> = (0..5).map(|_| Dispute::new("m", claim.clone())).collect();
    let service = DisputeService::builder().build().unwrap();
    service.register("m", &reference_outcome.model);
    let reference_verdicts = serial.install(|| service.resolve_many(&disputes));

    let search = wdte::trees::GridSearch::fast(wdte::trees::ForestParams::with_trees(5));
    let reference_grid = serial.install(|| search.run(&train, &mut SmallRng::seed_from_u64(99)));

    for workers in [2, 4, 8] {
        let pool = ThreadPoolBuilder::new().num_threads(workers).build().unwrap();

        let outcome = pool
            .install(|| watermarker.embed(&train, &signature, &mut SmallRng::seed_from_u64(98)))
            .unwrap();
        assert_eq!(
            outcome.model, reference_outcome.model,
            "embed at {workers} workers"
        );
        assert_eq!(outcome.trigger_indices, reference_outcome.trigger_indices);
        assert_eq!(outcome.diagnostics, reference_outcome.diagnostics);

        let verdicts = pool.install(|| service.resolve_many(&disputes));
        assert_eq!(verdicts.len(), reference_verdicts.len());
        for (got, want) in verdicts.iter().zip(&reference_verdicts) {
            assert_eq!(
                got.as_ref().unwrap(),
                want.as_ref().unwrap(),
                "resolve at {workers} workers"
            );
        }

        let grid = pool.install(|| search.run(&train, &mut SmallRng::seed_from_u64(99)));
        assert_eq!(
            grid.best_params, reference_grid.best_params,
            "grid at {workers} workers"
        );
        assert_eq!(grid.all_results, reference_grid.all_results);
    }
}

/// Nested-depth stress on the real workload shape: an outer `par_iter`
/// over dockets, `resolve_many`'s per-dispute fan-out inside it, and the
/// batch-shard fan-out inside *that* — three nested levels scheduled on
/// one shared pool, all inside `install`. Every level must come back in
/// input order with verdicts identical to the serial reference.
#[test]
fn nested_docket_resolution_composes_three_levels_deep() {
    let (train, test, signature, watermarker) = fixture();
    let outcome = watermarker
        .embed(&train, &signature, &mut SmallRng::seed_from_u64(101))
        .unwrap();
    let claim = sharded_claim(signature, outcome.trigger_set.clone(), &test);
    let service = DisputeService::builder().build().unwrap();
    service.register("m", &outcome.model);
    let docket: Vec<Dispute> = (0..4).map(|_| Dispute::new("m", claim.clone())).collect();
    let reference = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| service.resolve_many(&docket));

    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let many: Vec<Vec<_>> =
        pool.install(|| (0..6usize).into_par_iter().map(|_| service.resolve_many(&docket)).collect());
    assert_eq!(many.len(), 6);
    for verdicts in &many {
        assert_eq!(verdicts.len(), reference.len());
        for (got, want) in verdicts.iter().zip(&reference) {
            assert_eq!(got.as_ref().unwrap(), want.as_ref().unwrap());
            assert!(got.as_ref().unwrap().verified);
        }
    }
}

/// Pool handles are virtual width limits over the one global pool, so
/// churning them — the old per-connection server pattern, or a test suite
/// building one per case — must be free and leak nothing: results stay
/// identical through hundreds of build/install/drop cycles at shifting
/// widths, including from several OS threads at once.
#[test]
fn pool_churn_and_reuse_stays_deterministic() {
    let (train, test, signature, watermarker) = fixture();
    let outcome = watermarker
        .embed(&train, &signature, &mut SmallRng::seed_from_u64(102))
        .unwrap();
    let claim = sharded_claim(signature, outcome.trigger_set.clone(), &test);
    let service = Arc::new(DisputeService::builder().build().unwrap());
    service.register("m", &outcome.model);
    let reference = service.resolve("m", &claim).unwrap();

    std::thread::scope(|scope| {
        for thread in 0..3 {
            let service = Arc::clone(&service);
            let claim = claim.clone();
            let reference = reference.clone();
            scope.spawn(move || {
                for round in 0..40 {
                    let width = 1 + (thread + round) % 5;
                    let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
                    let report = pool.install(|| service.resolve("m", &claim).unwrap());
                    assert_eq!(report, reference, "thread {thread}, round {round}");
                }
            });
        }
    });
}

/// A panic inside one parallel job must reach the submitting caller as a
/// normal unwinding panic — after every sibling task has finished, so no
/// borrow held by a still-running job can dangle — and the shared pool
/// must keep serving afterwards.
#[test]
fn panic_in_a_pool_job_propagates_and_the_pool_survives() {
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let attempt = std::panic::catch_unwind(|| -> Vec<usize> {
        pool.install(|| {
            (0..32usize)
                .into_par_iter()
                .map(|i| {
                    if i == 13 {
                        panic!("injected fault in job {i}")
                    } else {
                        i * 2
                    }
                })
                .collect()
        })
    });
    assert!(attempt.is_err(), "the job panic must unwind out of collect()");

    // The pool is not poisoned: the very next pipeline — including a real
    // service resolution — behaves normally.
    let doubled: Vec<usize> = pool.install(|| (0..32usize).into_par_iter().map(|x| x * 2).collect());
    assert_eq!(doubled, (0..32).map(|x| x * 2).collect::<Vec<usize>>());

    let (train, test, signature, watermarker) = fixture();
    let outcome = watermarker
        .embed(&train, &signature, &mut SmallRng::seed_from_u64(103))
        .unwrap();
    let claim = OwnershipClaim::new(signature, outcome.trigger_set.clone(), test);
    let service = DisputeService::builder().build().unwrap();
    service.register("m", &outcome.model);
    assert!(pool.install(|| service.resolve("m", &claim).unwrap()).verified);
}
