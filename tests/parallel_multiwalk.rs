//! Cross-crate integration tests for the parallel layer: thread runner, MPI-style
//! runner and virtual cluster must agree with each other and with the sequential
//! solver on what a solution is, and the min-of-K law must show up in the virtual
//! clock.

use bench::protocol::{iteration_samples, sequential_batch};
use costas_lab::prelude::*;

#[test]
fn thread_and_mpi_runners_both_solve_and_validate() {
    let spec = WalkSpec::costas(11);

    let threaded = ThreadRunner::new(spec.clone(), 3).run(21, &RunControls::default());
    assert!(threaded.solved());
    assert!(is_costas_permutation(threaded.solution.as_ref().unwrap()));
    assert_eq!(threaded.walk_results.len(), 3);

    let mpi = MpiRunner::new(spec, 3).run(21);
    assert!(mpi.solved());
    assert!(is_costas_permutation(mpi.solution.as_ref().unwrap()));
    assert_eq!(mpi.walk_results.len(), 3);
}

#[test]
fn virtual_cluster_solution_is_a_real_costas_array() {
    let cluster = VirtualCluster::new(PlatformProfile::ha8000());
    let run = cluster.run_exact(&WalkSpec::costas(12), 8, 3);
    assert!(run.solved());
    assert!(is_costas_permutation(run.solution.as_ref().unwrap()));
    assert!(run.virtual_seconds > 0.0);
}

#[test]
fn min_of_k_law_reduces_expected_iterations() {
    // The core statistical claim behind the paper's linear speed-up, checked on the
    // virtual clock: the average winning-walk iteration count over several jobs
    // decreases (weakly) as the core count rises.
    let cluster = VirtualCluster::new(PlatformProfile::local());
    let spec = WalkSpec::costas(11);
    let runs = 8;
    let avg = |cores: usize, salt: u64| -> f64 {
        let sims = cluster.run_exact_many(&spec, cores, runs, 100 + salt);
        sims.iter().map(|r| r.winner_iterations as f64).sum::<f64>() / runs as f64
    };
    let one = avg(1, 0);
    let sixteen = avg(16, 1);
    assert!(
        sixteen <= one,
        "16 cores should not be slower on the virtual clock: {sixteen} vs {one}"
    );
}

#[test]
fn sampled_and_exact_modes_agree_on_ordering() {
    // Build an empirical sample from sequential runs, then check that the sampled
    // simulator produces completion iterations within the range of the sample and
    // decreasing in the core count.
    let samples = iteration_samples(&sequential_batch(10, 12, 5));
    let lo = *samples.iter().min().unwrap();
    let hi = *samples.iter().max().unwrap();

    let cluster = VirtualCluster::new(PlatformProfile::jugene());
    let spec = WalkSpec::costas(10);
    let few = cluster.run_sampled_many(&samples, spec.check_interval(), 2, 10, 9);
    let many = cluster.run_sampled_many(&samples, spec.check_interval(), 512, 10, 9);
    let mean = |runs: &[SimulatedRun]| {
        runs.iter().map(|r| r.winner_iterations as f64).sum::<f64>() / runs.len() as f64
    };
    assert!(mean(&many) <= mean(&few));
    for r in few.iter().chain(many.iter()) {
        // rounded up to the check interval, hence the small allowance
        assert!(r.winner_iterations + spec.check_interval() >= lo);
        assert!(r.winner_iterations <= hi + spec.check_interval());
    }
}

#[test]
fn chaotic_seeding_makes_walks_diverge() {
    // Two ranks of the same job must explore different trajectories (the §III-B3
    // requirement); identical master seeds must reproduce identical jobs.
    let spec = WalkSpec::costas(13);
    let a = spec.build_engine(5, 0).solve();
    let b = spec.build_engine(5, 1).solve();
    let a_again = spec.build_engine(5, 0).solve();
    assert_eq!(a.stats.iterations, a_again.stats.iterations);
    assert_eq!(a.solution, a_again.solution);
    assert!(
        a.stats.iterations != b.stats.iterations || a.solution != b.solution,
        "distinct ranks should not replay the same walk"
    );
}

#[test]
fn runtime_distribution_analysis_pipeline_runs_on_real_data() {
    // Sequential sample → TTT curve → exponential fit → predicted speed-up, all on
    // real solver output (small instance so the test stays fast).
    let results = sequential_batch(12, 30, 11);
    let iters: Vec<f64> = results.iter().map(|r| r.stats.iterations as f64).collect();
    let ttt = TimeToTarget::from_sample("cap12", &iters);
    assert_eq!(ttt.points.len(), 30);
    if let Some(fit) = ttt.fit {
        let predicted = fit.predicted_speedup(16);
        assert!(predicted > 1.0);
        assert!(predicted <= 16.0 + 1e-9);
    }
}
