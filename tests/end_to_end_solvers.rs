//! Cross-crate integration tests: every solver in the workspace, from the public API,
//! produces verified Costas arrays, and their outputs agree with the domain crate's
//! oracles (validity check, enumeration, constructions).  The registry-level tests
//! at the bottom cover every workload of `adaptive_search::problems` — solvability
//! on known-solvable instances and bit-identical deterministic replay.

use adaptive_search::{problems, AsConfig, Engine};
use baselines::{all_solvers, solve_registry, SolverBudget};
use costas_lab::prelude::*;

#[test]
fn sequential_adaptive_search_solves_and_validates() {
    for n in [8usize, 11, 13] {
        let result = solve_costas(n, 1234 + n as u64);
        assert!(result.is_solved(), "n = {n}");
        let solution = result.solution.unwrap();
        assert!(is_costas_permutation(&solution), "n = {n}");
        // the checked constructor agrees
        let array = CostasArray::try_new(solution).unwrap();
        assert_eq!(array.order(), n);
        assert!(DifferenceTriangle::new(array.values()).is_costas());
    }
}

#[test]
fn every_baseline_solver_agrees_with_the_oracle() {
    let budget = SolverBudget::unlimited();
    for mut solver in all_solvers() {
        let result = solver.solve(10, 77, &budget);
        assert!(result.solved, "{}", solver.name());
        let solution = result.solution.expect("solved implies solution");
        assert!(is_costas_permutation(&solution), "{}", solver.name());
    }
}

#[test]
fn search_solutions_are_members_of_the_enumerated_set() {
    // For a small order the full solution set is known by enumeration; any solver
    // output must be one of them.
    let all: std::collections::HashSet<Vec<usize>> = costas_lab::costas::enumerate_costas(9)
        .into_iter()
        .map(|a| a.values().to_vec())
        .collect();
    assert_eq!(
        all.len() as u64,
        costas_lab::costas::known_costas_count(9).unwrap()
    );
    for seed in 0..5u64 {
        let result = solve_costas(9, seed);
        let solution = result.solution.unwrap();
        assert!(all.contains(&solution), "seed {seed}: {solution:?}");
    }
}

#[test]
fn constructions_and_search_produce_equally_valid_arrays() {
    // Welch order 12 and Golomb order 11 exist; the solver also finds arrays of those
    // orders, and both kinds pass the same validity oracle.
    let welch = welch_construction(12).unwrap();
    let golomb = golomb_construction(11).unwrap();
    assert!(is_costas_permutation(welch.values()));
    assert!(is_costas_permutation(golomb.values()));
    let searched = solve_costas(12, 5).solution.unwrap();
    assert!(is_costas_permutation(&searched));
}

/// Deterministic-replay regression: for every registered workload, the same seed
/// and the same registry key produce a **bit-identical** run — same status, same
/// solution, same cost trajectory endpoints, same statistics counters — across
/// two independently constructed engines.  The iteration budget is capped so the
/// property holds (and stays fast) whether or not the instance solves in time.
#[test]
fn deterministic_replay_for_every_registry_key() {
    for info in problems::registry() {
        let size = *info.solvable_sizes.last().expect("registry lists sizes");
        let config = AsConfig {
            max_iterations: 2_000,
            ..(info.default_config)(size)
        };
        let run = |seed: u64| {
            let mut engine = Engine::new((info.build)(size), config.clone(), seed);
            let result = engine.solve();
            (
                result.status,
                result.solution,
                result.final_cost,
                result.best_cost,
                result.stats,
            )
        };
        for seed in [1u64, 0xDEAD_BEEF] {
            let a = run(seed);
            let b = run(seed);
            assert_eq!(a, b, "{} (size {size}, seed {seed})", info.key);
        }
    }
}

/// FNV-1a over little-endian `u64` words: a hash that is stable across builds,
/// toolchains and hosts, unlike `std`'s `DefaultHasher`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Fingerprint of one finished walk: status, solution, final and best cost,
/// every stats counter (`culprit_scans` counts every culprit selection) and
/// the final configuration.
fn walk_fingerprint<P: adaptive_search::PermutationProblem>(
    engine: &Engine<P>,
    result: &adaptive_search::SolveResult,
) -> u64 {
    use adaptive_search::SolveStatus;
    let s = &result.stats;
    let mut words = vec![
        match result.status {
            SolveStatus::Solved => 0,
            SolveStatus::IterationLimit => 1,
            SolveStatus::ExternallyStopped => 2,
            SolveStatus::Panicked => 3,
        },
        result.final_cost,
        result.best_cost,
        s.iterations,
        s.local_minima,
        s.improving_moves,
        s.plateau_moves,
        s.tabu_marks,
        s.resets,
        s.custom_resets,
        s.custom_reset_escapes,
        s.restarts,
        s.coordinated_restarts,
        s.injections_offered,
        s.injections_adopted,
        s.stop_checks,
        s.culprit_scans,
    ];
    match &result.solution {
        None => words.push(u64::MAX),
        Some(sol) => {
            words.push(sol.len() as u64);
            words.extend(sol.iter().map(|&v| v as u64));
        }
    }
    words.extend(engine.problem().configuration().iter().map(|&v| v as u64));
    fnv1a(words)
}

/// Cross-commit replay pin: the fingerprint of a 2 000-step walk per registry
/// key (default config, largest solvable size) and per seed is a recorded
/// constant, so a change to any trajectory fails here even though it would
/// still replay identically within one build.  The last key is a Costas n=15
/// walk with `RL = 32`, where freezes outlive a single iteration without a
/// reset.  A deliberate trajectory change must re-record these constants and
/// say so.
#[test]
fn replay_fingerprints_match_recorded_constants() {
    const SEEDS: [u64; 2] = [1, 0xDEAD_BEEF];
    // Recorded before the carried culprit-selection cache was removed; the
    // RL = 32 walks took 664 and 763 of their selections through that cache.
    const PINNED: &[(&str, [u64; 2])] = &[
        ("costas", [0x2984859986636dea, 0x54b2179936f8947a]),
        ("n-queens", [0xa78fe66da850d551, 0xab83d12bb6f4b57b]),
        ("all-interval", [0x75f466b165c68480, 0xa18c7f7a6b7d1967]),
        ("magic-square", [0x0921c2dcfac72d42, 0xef317e6f8c3f6d5b]),
        ("langford", [0x87b2b8d1b171a0a6, 0x70d4c42a728b5f82]),
        (
            "number-partitioning",
            [0x76efd3cd9279d83e, 0xb843f61a0917d4d2],
        ),
        ("costas-15-rl32", [0x93bd19d603615ff2, 0xd0d1d329f4d83454]),
    ];
    let mut observed: Vec<(&str, [u64; 2])> = Vec::new();
    for info in problems::registry() {
        let size = *info.solvable_sizes.last().expect("registry lists sizes");
        let config = AsConfig {
            max_iterations: 2_000,
            ..(info.default_config)(size)
        };
        let prints = SEEDS.map(|seed| {
            let mut engine = Engine::new((info.build)(size), config.clone(), seed);
            let result = engine.solve();
            walk_fingerprint(&engine, &result)
        });
        observed.push((info.key, prints));
    }
    let rl32 = AsConfig::builder()
        .reset_limit(32)
        .plateau_probability(0.4)
        .tabu_tenure(6)
        .use_custom_reset(false)
        .max_iterations(2_000)
        .build();
    let prints = SEEDS.map(|seed| {
        let mut engine = Engine::new(adaptive_search::CostasProblem::new(15), rl32.clone(), seed);
        let result = engine.solve();
        walk_fingerprint(&engine, &result)
    });
    observed.push(("costas-15-rl32", prints));
    let table: String = observed
        .iter()
        .map(|(key, p)| format!("\n    (\"{key}\", [{:#018x}, {:#018x}]),", p[0], p[1]))
        .collect();
    assert_eq!(observed, PINNED, "observed fingerprints:{table}");
}

/// Every registered workload solves its registry-declared solvable instances end
/// to end, and the claimed solutions pass the model's independent known-optimum
/// predicate.
#[test]
fn registry_workloads_solve_their_known_solvable_instances() {
    for info in problems::registry() {
        for &size in info.solvable_sizes {
            let result = solve_registry(
                info.key,
                size,
                2024 + size as u64,
                &SolverBudget::unlimited(),
            )
            .expect("registered key");
            assert!(result.solved, "{} (size {size})", info.key);
            assert!(
                (info.is_optimum)(result.solution.as_ref().unwrap()),
                "{} (size {size}): claimed solution fails the optimum predicate",
                info.key
            );
        }
    }
}

/// Determinism regression for the thread-backed multi-walk runner: the same
/// master seed and thread count reproduce the identical winning permutation and
/// identical per-walk statistics, run after run.  This is the property the
/// strong-scaling harness (`bench::scaling`) leans on — its cells are labelled
/// by `(model, threads, seed)` and must mean the same walks on every host —
/// and it only holds for `run_deterministic`: the racy `run` path elects
/// whichever solver reaches the winner mutex first.
#[test]
fn thread_runner_is_deterministic_for_fixed_seed_and_thread_count() {
    use multiwalk::{ThreadRunner, WalkSpec};
    for workers in [1usize, 2, 4] {
        let spec = WalkSpec::costas(11);
        let runner = ThreadRunner::new(spec, workers);
        let a = runner.run_deterministic(0xC057_A512);
        let b = runner.run_deterministic(0xC057_A512);
        assert!(a.solved(), "{workers} workers");
        assert_eq!(a.winner, b.winner, "{workers} workers");
        assert_eq!(a.solution, b.solution, "{workers} workers");
        assert!(is_costas_permutation(a.solution.as_ref().unwrap()));
        for (rank, (ra, rb)) in a.walk_results.iter().zip(&b.walk_results).enumerate() {
            assert_eq!(ra.status, rb.status, "{workers} workers, rank {rank}");
            assert_eq!(ra.stats, rb.stats, "{workers} workers, rank {rank}");
        }
    }
}

#[test]
fn solver_statistics_are_consistent_with_solving() {
    let result = solve_costas(14, 99);
    assert!(result.is_solved());
    assert_eq!(result.final_cost, 0);
    assert_eq!(result.best_cost, 0);
    let stats = &result.stats;
    assert!(stats.iterations > 0);
    assert!(stats.improving_moves + stats.plateau_moves <= stats.iterations);
    assert!(stats.custom_reset_escapes <= stats.custom_resets);
    assert!(stats.custom_resets <= stats.resets);
}
