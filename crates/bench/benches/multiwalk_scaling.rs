//! Criterion bench behind Tables III–V / Figures 2–3: virtual-cluster multi-walk
//! completion as a function of the number of simulated cores.  The paper-shaped
//! tables are produced by the `table3_ha8000` / `table4_jugene` / `table5_grid5000`
//! harness binaries; this bench tracks the min-of-K scaling on a small instance so
//! `cargo bench` exercises the full multi-walk code path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use multiwalk::{PlatformProfile, RunControls, ThreadRunner, VirtualCluster, WalkSpec};
use xrand::SeedSequence;

fn bench_virtual_cluster(c: &mut Criterion) {
    let mut group = c.benchmark_group("virtual_cluster_cap12");
    group.sample_size(10);
    let spec = WalkSpec::costas(12);
    let cluster = VirtualCluster::new(PlatformProfile::ha8000());
    for &cores in &[1usize, 4, 16, 64] {
        let seeds = SeedSequence::new(99);
        group.bench_with_input(BenchmarkId::new("run_exact", cores), &cores, |b, &cores| {
            let mut run = 0u64;
            b.iter(|| {
                run += 1;
                let sim = cluster.run_exact(&spec, cores, seeds.child(run).seed());
                black_box(sim.winner_iterations)
            });
        });
    }
    group.finish();
}

fn bench_thread_runner(c: &mut Criterion) {
    let mut group = c.benchmark_group("thread_runner_cap12");
    group.sample_size(10);
    for &walks in &[1usize, 2, 4] {
        let seeds = SeedSequence::new(7);
        group.bench_with_input(BenchmarkId::new("walks", walks), &walks, |b, &walks| {
            let runner = ThreadRunner::new(WalkSpec::costas(12), walks);
            let mut run = 0u64;
            b.iter(|| {
                run += 1;
                let result = runner.run(seeds.child(run).seed(), &RunControls::default());
                assert!(result.solved());
                black_box(result.total_iterations())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_virtual_cluster, bench_thread_runner);
criterion_main!(benches);
