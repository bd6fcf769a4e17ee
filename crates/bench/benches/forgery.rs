//! Benchmarks of the forgery constraint solver (the Z3 stand-in) across
//! distortion budgets and ensemble sizes.
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wdte_bench::small_tabular;
use wdte_core::{Signature, WatermarkConfig, Watermarker};
use wdte_solver::{ForgeryQuery, ForgerySolver, LeafIndex, SolverConfig};

fn bench_forgery(c: &mut Criterion) {
    let dataset = small_tabular();
    let mut rng = SmallRng::seed_from_u64(5);
    let (train, test) = dataset.split_stratified(0.8, &mut rng);

    let mut group = c.benchmark_group("forgery_solver");
    group.sample_size(10);
    for &num_trees in &[8usize, 16] {
        let signature = Signature::random(num_trees, 0.5, &mut rng);
        let config = WatermarkConfig {
            num_trees,
            ..WatermarkConfig::fast()
        };
        let outcome = Watermarker::new(config).embed(&train, &signature, &mut rng).unwrap();
        let index = LeafIndex::new(&outcome.model);
        let fake = Signature::random(num_trees, 0.5, &mut rng);
        for &epsilon in &[0.3f64, 0.7] {
            group.bench_function(format!("{num_trees}_trees_eps_{epsilon}"), |b| {
                b.iter(|| {
                    let solver = ForgerySolver::new(SolverConfig::fast());
                    let mut forged = 0usize;
                    for i in 0..10.min(test.len()) {
                        let reference = test.instance(i);
                        let query = ForgeryQuery::from_signature_bits_k(
                            fake.bits(),
                            test.label(i),
                            outcome.model.num_classes(),
                            Some((reference, epsilon)),
                        );
                        if solver.solve(&index, &query).is_forged() {
                            forged += 1;
                        }
                    }
                    forged
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_forgery);
criterion_main!(benches);
