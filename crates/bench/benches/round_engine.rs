//! Tentpole bench: rounds/sec of the phase-pipeline engine at 1 vs. N worker
//! threads on an 8-committee configuration. The `ShardExecutor` parallelises
//! intra-committee consensus, recovery retries and per-shard block
//! application, so the gap between the two series is the measured speed-up of
//! per-committee parallel consensus (the paper's headline structural claim).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cycledger_bench::bench_config;
use cycledger_protocol::Simulation;

fn bench_round_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_engine");
    group.sample_size(10);

    // Compare the inline engine against a fixed-width pool (not
    // `available_parallelism`, which collapses the comparison to 1-vs-1 on
    // single-core CI boxes). On multicore hardware the second series shows
    // the per-committee parallel speed-up; on one core it bounds the
    // executor's overhead instead.
    let parallel_workers = std::thread::available_parallelism()
        .map(|n| n.get().max(4))
        .unwrap_or(4);
    for workers in [1usize, parallel_workers] {
        let mut config = bench_config(8, 16, 4242);
        config.worker_threads = workers;
        group.bench_with_input(
            BenchmarkId::new("rounds_per_sec", workers),
            &config,
            |b, config| {
                let mut sim = Simulation::new(*config).expect("valid bench config");
                b.iter(|| {
                    sim.run_round();
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_round_engine);
criterion_main!(benches);
