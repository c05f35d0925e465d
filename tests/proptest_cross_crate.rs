//! Cross-crate property tests: invariants that tie the engine, the domain crate and
//! the statistics crate together for arbitrary seeds and sizes.

use costas_lab::prelude::*;
use proptest::prelude::*;

proptest! {
    // Solving is expensive, so keep the case count low but the sizes meaningful.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Whatever the seed, the sequential solver returns a permutation that the
    /// independent oracle accepts, and its reported cost is zero.
    #[test]
    fn solver_output_is_always_a_costas_array(seed in any::<u64>(), n in 6usize..=12) {
        let result = SolveRequest::new("costas", n, seed).run().unwrap();
        prop_assert!(result.is_solved());
        let solution = result.solution.unwrap();
        prop_assert!(is_costas_permutation(&solution));
        prop_assert_eq!(solution.len(), n);
    }

    /// The engine is a pure function of (instance, configuration, seed).
    #[test]
    fn solver_is_deterministic_in_the_seed(seed in any::<u64>(), n in 6usize..=11) {
        let request = SolveRequest::new("costas", n, seed);
        let a = request.run().unwrap();
        let b = request.run().unwrap();
        prop_assert_eq!(a.solution, b.solution);
        prop_assert_eq!(a.stats.iterations, b.stats.iterations);
        prop_assert_eq!(a.stats.resets, b.stats.resets);
    }

    /// Multi-walk jobs return solutions of the requested order for any master seed
    /// and small walk count, and the winner index is in range.
    #[test]
    fn multiwalk_jobs_return_valid_winners(seed in any::<u64>(), walks in 1usize..=4) {
        let job = ThreadRunner::new(WalkSpec::costas(10), walks).run(seed, &RunControls::default());
        prop_assert!(job.solved());
        prop_assert!(job.winner.unwrap() < walks);
        prop_assert!(is_costas_permutation(job.solution.as_ref().unwrap()));
        prop_assert_eq!(job.walk_results.len(), walks);
    }

    /// The virtual cluster's exact mode never reports a winner-iteration count larger
    /// than the total work it executed, and its solution always validates.
    #[test]
    fn virtual_cluster_accounting_is_sane(seed in any::<u64>(), cores in 1usize..=6) {
        let cluster = VirtualCluster::new(PlatformProfile::local());
        let run = cluster.run_exact(&WalkSpec::costas(10), cores, seed);
        prop_assert!(run.solved());
        prop_assert!(run.winner_iterations <= run.total_iterations);
        prop_assert!(is_costas_permutation(run.solution.as_ref().unwrap()));
    }
}
