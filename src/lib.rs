//! # costas-lab — parallel local search for the Costas Array Problem
//!
//! Umbrella crate for the workspace reproducing *"Parallel local search for the Costas
//! Array Problem"* (Diaz, Richoux, Caniou, Codognet, Abreu — IPPS 2012).  It re-exports
//! the individual crates under stable names and hosts the runnable examples
//! (`examples/`) and the cross-crate integration tests (`tests/`).
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`costas`] | `costas` | Costas-array domain: difference triangle, validity, symmetry, Welch/Golomb constructions, enumeration, incremental conflict table |
//! | [`adaptive_search`] | `adaptive-search` | The Adaptive Search metaheuristic, the CAP model (§IV), the N-Queens / All-Interval / Magic-Square / Langford / number-partitioning models, and the string-keyed workload registry (`problems`) |
//! | [`multiwalk`] | `multiwalk` | Independent + cooperative multi-walk runners (threads, message passing) and the virtual cluster simulator (§V) |
//! | [`mpi_sim`] | `mpi-sim` | MPI-shaped in-process message passing (ranks, iprobe, collectives) |
//! | [`runtime_stats`] | `runtime-stats` | Time-to-target plots, shifted-exponential fits, speed-up models, table rendering |
//! | [`baselines`] | `baselines` | Dialectic Search, quadratic tabu search, random-restart hill climbing, complete backtracking |
//! | [`solverd`] | `solverd` | Long-running solver service: solve requests over line-delimited JSON (stdin/stdout or localhost TCP), bounded admission queue, deadline enforcement |
//! | [`xrand`] | `xrand` | Deterministic PRNGs and the chaotic-map seed generator (§III-B3) |
//!
//! ## Quickstart
//!
//! ```
//! use costas_lab::prelude::*;
//!
//! // Solve CAP 12 with the paper's sequential Adaptive Search configuration.
//! let result = SolveRequest::new("costas", 12, 42).run().expect("registered key");
//! assert!(result.is_solved());
//! let solution = result.solution.unwrap();
//! assert!(is_costas_permutation(&solution));
//!
//! // Or run an independent multi-walk job across 4 walks (first solution wins).
//! let job = ThreadRunner::new(WalkSpec::costas(12), 4).run(42, &RunControls::default());
//! assert!(job.solved());
//!
//! // Or let the walks cooperate (elite exchange + coordinated restarts) on the
//! // deterministic virtual cluster: same seed, same winning iteration count.
//! let cluster = VirtualCluster::new(PlatformProfile::local());
//! let coop = CooperativeRunner::new(WalkSpec::costas(12), 4).run_virtual(&cluster, 42);
//! assert!(coop.solved());
//! ```

pub use adaptive_search;
pub use baselines;
pub use costas;
pub use mpi_sim;
pub use multiwalk;
pub use runtime_stats;
pub use solverd;
pub use xrand;

/// The most common imports, for examples and quick experiments.
pub mod prelude {
    pub use adaptive_search::{
        problems, AsConfig, CostasModelConfig, CostasProblem, DynProblem, Engine,
        PermutationProblem, ProblemInfo, SearchStats, SolveOutcome, SolveRequest, SolveResult,
        SolveStatus, Termination, TieBreak,
    };
    pub use costas::{
        golomb_construction, is_costas_permutation, welch_construction, CostasArray,
        DifferenceTriangle, Permutation,
    };
    pub use multiwalk::{
        CoopConfig, CoopResult, CooperativeRunner, MpiRunner, MultiWalkResult, PlatformProfile,
        RunControls, SimulatedRun, ThreadRunner, VirtualCluster, WalkSpec,
    };
    pub use runtime_stats::{BatchStats, Series, ShiftedExponential, TimeToTarget};
    pub use xrand::{default_rng, ChaoticSeeder, RandExt, SeedSequence};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_types_compose() {
        let result = SolveRequest::new("costas", 10, 7).run().unwrap();
        assert!(result.is_solved());
        let triangle = DifferenceTriangle::new(&result.solution.unwrap());
        assert!(triangle.is_costas());
    }
}
