//! # baselines — comparison solvers for the Costas Array Problem
//!
//! The paper's sequential evaluation (§IV-C, Table II) compares Adaptive Search
//! against **Dialectic Search** (Kadioglu & Sellmann, CP'09) — the metaheuristic that
//! originally proposed the CAP as a local-search benchmark — and mentions a
//! Comet-based **tabu search with the quadratic swap neighbourhood** as well as a
//! propagation-based CP model that is roughly 400× slower than AS on CAP 19.
//!
//! Since none of those systems can be linked from Rust, this crate re-implements the
//! baselines from their published descriptions so the comparison benches measure real
//! algorithms rather than placeholder numbers:
//!
//! * [`DialecticSearch`] — thesis/antithesis/greedy-synthesis search on permutations.
//! * [`QuadraticTabuSearch`] — best-improvement tabu search over the full O(n²) swap
//!   neighbourhood (the Comet model of Kadioglu & Sellmann's comparison).
//! * [`RandomRestartHillClimbing`] — min-conflict hill climbing with restarts: the
//!   "too simple restart policy" family the paper contrasts with (§II, Rickard &
//!   Healy).
//! * [`CompleteBacktracking`] — the systematic solver (wrapping `costas::enumerate`),
//!   standing in for the propagation-based CP reference point.
//! * [`AdaptiveSearchSolver`] — adapter exposing the real AS engine through the same
//!   [`CostasSolver`] interface so harnesses can sweep all solvers uniformly.
//!
//! Every solver implements [`CostasSolver`]; results are reported as
//! [`BaselineResult`] records with comparable fields (moves, wall-clock, success).
//! All best-of-neighbourhood sweeps share the
//! engine's uniform tie-break accumulator ([`adaptive_search::TieBreak`]), so
//! equal-cost candidates are resolved uniformly at random — with a single RNG
//! draw per selection — here exactly as in the engine.

pub mod common;
pub mod complete;
pub mod dialectic;
pub mod random_restart;
pub mod tabu_quadratic;

pub use common::{AdaptiveSearchSolver, BaselineResult, CostasSolver, SolverBudget};
pub use complete::CompleteBacktracking;
pub use dialectic::DialecticSearch;
pub use random_restart::RandomRestartHillClimbing;
pub use tabu_quadratic::QuadraticTabuSearch;

/// All baseline solvers (plus AS itself), boxed, for uniform sweeps in harnesses.
pub fn all_solvers() -> Vec<Box<dyn CostasSolver>> {
    vec![
        Box::new(AdaptiveSearchSolver::default()),
        Box::new(DialecticSearch::default()),
        Box::new(QuadraticTabuSearch::default()),
        Box::new(RandomRestartHillClimbing::default()),
        Box::new(CompleteBacktracking),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use costas::is_costas_permutation;

    #[test]
    fn every_solver_solves_a_small_instance() {
        let budget = SolverBudget::unlimited();
        for mut solver in all_solvers() {
            let result = solver.solve(9, 42, &budget);
            assert!(result.solved, "{} failed on n=9", solver.name());
            assert!(
                is_costas_permutation(result.solution.as_ref().unwrap()),
                "{} returned a non-Costas array",
                solver.name()
            );
        }
    }
}
