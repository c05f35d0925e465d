//! The experimental protocol shared by the table/figure harnesses.
//!
//! * [`sequential_batch`] — the Table I protocol: `runs` independent sequential solves
//!   of one instance, returning the per-run results.
//! * [`parallel_cell`] — one cell of Tables III–V: `runs` simulated multi-walk jobs at
//!   a given core count, either *exact* (every walk really executed) or *sampled*
//!   (min-of-K over an empirical sample of sequential completion iteration counts);
//!   the sampled mode is used for very large core counts, see DESIGN.md §4.
//! * [`iteration_samples`] — gather the empirical sequential distribution that feeds
//!   the sampled mode and the time-to-target / exponential-fit analyses.
//! * [`cooperative_cell`] — the cooperative counterpart of [`parallel_cell`]: `runs`
//!   cooperative multi-walk jobs on the deterministic virtual-cluster substrate,
//!   seeded identically to the independent cell so `coop_vs_independent` comparisons
//!   isolate the effect of the exchange layer.

use adaptive_search::{SolveOutcome, SolveRequest};
use multiwalk::{
    CoopConfig, CoopResult, CooperativeRunner, SimulatedRun, VirtualCluster, WalkSpec,
};
use runtime_stats::BatchStats;
use xrand::SeedSequence;

/// How a parallel cell is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellMode {
    /// Run every walk for real, interleaved on the virtual clock.
    Exact,
    /// Draw walk completions from an empirical sample of sequential runs.
    Sampled,
}

/// Run the Table I protocol: `runs` independent sequential solves of CAP `n` with
/// the paper's configuration and no iteration cap, run `r` seeded with child `r`
/// of `master_seed`.
pub fn sequential_batch(n: usize, runs: usize, master_seed: u64) -> Vec<SolveOutcome> {
    let seeds = SeedSequence::new(master_seed);
    (0..runs)
        .map(|r| {
            SolveRequest::new("costas", n, seeds.child(r as u64).seed())
                .run()
                .expect("costas is a registry key")
        })
        .collect()
}

/// Iteration counts of a batch of sequential solves (the empirical distribution used
/// by the sampled mode and the TTT analysis).
pub fn iteration_samples(results: &[SolveOutcome]) -> Vec<u64> {
    results.iter().map(|r| r.stats.iterations).collect()
}

/// Summary of one (instance, core count) cell.
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// Core count simulated.
    pub cores: usize,
    /// Statistics of the virtual completion times in seconds.
    pub seconds: BatchStats,
    /// Statistics of the winning walk's iteration count (machine-independent).
    pub iterations: BatchStats,
    /// Mode used to produce the cell.
    pub mode: CellMode,
}

/// Simulate one cell of a parallel table.
///
/// In [`CellMode::Exact`] every walk is executed; in [`CellMode::Sampled`] the
/// completions are drawn from `samples` (which must then be non-empty).
pub fn parallel_cell(
    cluster: &VirtualCluster,
    spec: &WalkSpec,
    cores: usize,
    runs: usize,
    master_seed: u64,
    mode: CellMode,
    samples: &[u64],
) -> CellSummary {
    let runs_vec: Vec<SimulatedRun> = match mode {
        CellMode::Exact => cluster.run_exact_many(spec, cores, runs, master_seed),
        CellMode::Sampled => {
            cluster.run_sampled_many(samples, spec.check_interval(), cores, runs, master_seed)
        }
    };
    let seconds: Vec<f64> = runs_vec.iter().map(|r| r.virtual_seconds).collect();
    let iterations: Vec<f64> = runs_vec
        .iter()
        .map(|r| r.winner_iterations as f64)
        .collect();
    CellSummary {
        cores,
        seconds: BatchStats::from_values(&seconds),
        iterations: BatchStats::from_values(&iterations),
        mode,
    }
}

/// Summary of one cooperative (instance, core count) cell.
#[derive(Debug, Clone)]
pub struct CoopCellSummary {
    /// Core count simulated.
    pub cores: usize,
    /// Statistics of the virtual completion times in seconds.
    pub seconds: BatchStats,
    /// Statistics of the winning walk's iteration count (machine-independent).
    pub iterations: BatchStats,
    /// Runs (out of `count`) that found a solution within the budget.
    pub solved: usize,
    /// Elite adoptions summed over all runs.
    pub adoptions: u64,
    /// Coordinated-restart events summed over all runs.
    pub coordinated_restarts: u64,
}

/// Simulate one cell of a *cooperative* parallel table: `runs` cooperative multi-walk
/// jobs on the deterministic virtual-cluster substrate (every walk really executed,
/// elite exchange every `coop.exchange_interval` iterations).
///
/// The per-run master seeds are derived exactly like [`parallel_cell`]'s, so a
/// cooperative cell and an independent cell with the same arguments face the same
/// sequence of job seeds — the comparison isolates the effect of the exchange layer.
pub fn cooperative_cell(
    cluster: &VirtualCluster,
    spec: &WalkSpec,
    coop: CoopConfig,
    cores: usize,
    runs: usize,
    master_seed: u64,
) -> CoopCellSummary {
    let runner = CooperativeRunner::new(spec.clone(), cores).with_coop(coop);
    let seeds = SeedSequence::new(master_seed);
    let runs_vec: Vec<CoopResult> = (0..runs)
        .map(|r| runner.run_virtual(cluster, seeds.child(r as u64).seed()))
        .collect();
    let seconds: Vec<f64> = runs_vec
        .iter()
        .map(|r| {
            r.virtual_seconds
                .expect("virtual substrate reports seconds")
        })
        .collect();
    let iterations: Vec<f64> = runs_vec
        .iter()
        .map(|r| r.winner_iterations as f64)
        .collect();
    CoopCellSummary {
        cores,
        seconds: BatchStats::from_values(&seconds),
        iterations: BatchStats::from_values(&iterations),
        solved: runs_vec.iter().filter(|r| r.solved()).count(),
        adoptions: runs_vec.iter().map(|r| r.adoptions).sum(),
        coordinated_restarts: runs_vec.iter().map(|r| r.coordinated_restarts).sum(),
    }
}

/// Decide the cell mode for a core count: exact up to `exact_core_limit`, sampled
/// beyond it (the paper's 512–8192-core points are far cheaper to sample, and the
/// independence of the walks makes the two statistically equivalent).
pub fn mode_for_cores(cores: usize, exact_core_limit: usize) -> CellMode {
    if cores <= exact_core_limit {
        CellMode::Exact
    } else {
        CellMode::Sampled
    }
}

/// Derive a per-cell master seed from an experiment seed, the instance and the core
/// count, so every cell is reproducible in isolation.
pub fn cell_seed(experiment_seed: u64, n: usize, cores: usize, salt: u64) -> u64 {
    SeedSequence::new(experiment_seed)
        .child(n as u64)
        .child(cores as u64)
        .child(salt)
        .seed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiwalk::PlatformProfile;

    #[test]
    fn sequential_batch_runs_and_solves() {
        let results = sequential_batch(10, 4, 1);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.is_solved()));
        let samples = iteration_samples(&results);
        assert_eq!(samples.len(), 4);
        assert!(samples.iter().all(|&s| s >= 1));
    }

    #[test]
    fn sequential_batch_runs_are_independent_and_reproducible() {
        let a = sequential_batch(10, 5, 123);
        let b = sequential_batch(10, 5, 123);
        assert_eq!(a.len(), 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.solution, y.solution);
            assert_eq!(x.stats, y.stats);
        }
        // different master seeds give (almost surely) different iteration profiles
        let c = sequential_batch(10, 5, 456);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.stats.iterations != y.stats.iterations));
    }

    #[test]
    fn exact_and_sampled_cells_have_consistent_shapes() {
        let cluster = VirtualCluster::new(PlatformProfile::local());
        let spec = WalkSpec::costas(10);
        let seq = sequential_batch(10, 8, 3);
        let samples = iteration_samples(&seq);

        let exact = parallel_cell(&cluster, &spec, 4, 5, 7, CellMode::Exact, &[]);
        assert_eq!(exact.cores, 4);
        assert_eq!(exact.mode, CellMode::Exact);
        assert!(exact.iterations.mean >= 1.0);

        let sampled = parallel_cell(&cluster, &spec, 64, 5, 7, CellMode::Sampled, &samples);
        assert_eq!(sampled.mode, CellMode::Sampled);
        // min-of-64 should not exceed the sample mean, modulo the rounding of the
        // critical path up to the termination-check interval
        assert!(
            sampled.iterations.mean
                <= BatchStats::from_u64(&samples).mean + spec.check_interval() as f64
        );
    }

    #[test]
    fn cooperative_cell_is_deterministic_and_consistent() {
        let cluster = VirtualCluster::new(PlatformProfile::local());
        let spec = WalkSpec::costas(11);
        let coop = CoopConfig::every(128);
        let a = cooperative_cell(&cluster, &spec, coop, 4, 4, 9);
        let b = cooperative_cell(&cluster, &spec, coop, 4, 4, 9);
        assert_eq!(a.cores, 4);
        assert_eq!(a.solved, 4, "CAP 11 solves within the default budget");
        assert_eq!(a.iterations.mean, b.iterations.mean, "seed-deterministic");
        assert_eq!(a.adoptions, b.adoptions);
        assert!(a.seconds.mean > 0.0);
    }

    /// Regression for the `coordinated_restarts: 0` blind spot: with the default
    /// `CoopConfig` the restart trigger needs `stagnation_limit` (64) consecutive
    /// non-improving exchange rounds — `64 × exchange_interval` stagnant
    /// iterations — which benchmark-sized budgets never reach, so every
    /// committed artefact showed zero and the restart path went unmeasured.
    /// Forcing stagnation (a hard instance on a tiny budget, exchanges every 64
    /// iterations, restart after a single stagnant round) proves the trigger
    /// actually fires and is counted through the whole protocol stack.
    #[test]
    fn forced_stagnation_fires_the_coordinated_restart_trigger() {
        let cluster = VirtualCluster::new(PlatformProfile::local());
        // Order 18 essentially never solves in 2 000 iterations, so the global
        // best stops improving almost immediately.
        let spec = WalkSpec::costas(18).with_config(
            adaptive_search::AsConfig::builder()
                .max_iterations(2_000)
                .build(),
        );
        let coop = CoopConfig::every(64).with_stagnation_limit(Some(1));
        let cell = cooperative_cell(&cluster, &spec, coop, 4, 2, 11);
        assert_eq!(cell.solved, 0, "the budget is chosen to be unsolvable");
        assert!(
            cell.coordinated_restarts >= 1,
            "stagnation must fire the coordinated-restart trigger at least once, \
             got {}",
            cell.coordinated_restarts
        );
        // The same job with restarts disabled counts none: the counter measures
        // the trigger, not some unrelated event.
        let disabled = CoopConfig::every(64).with_stagnation_limit(None);
        let cell = cooperative_cell(&cluster, &spec, disabled, 4, 2, 11);
        assert_eq!(cell.coordinated_restarts, 0);
    }

    #[test]
    fn mode_switches_at_the_limit() {
        assert_eq!(mode_for_cores(256, 256), CellMode::Exact);
        assert_eq!(mode_for_cores(512, 256), CellMode::Sampled);
    }

    #[test]
    fn cell_seeds_are_distinct() {
        let a = cell_seed(1, 18, 32, 0);
        let b = cell_seed(1, 18, 64, 0);
        let c = cell_seed(1, 19, 32, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, cell_seed(1, 18, 32, 0));
    }
}
