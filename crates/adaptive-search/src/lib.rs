//! # adaptive-search — constraint-based local search (Adaptive Search) in Rust
//!
//! Adaptive Search (AS) is the generic, domain-independent local-search metaheuristic
//! of Codognet & Diaz (SAGA'01, MIC'03) that the IPPS 2012 paper uses to solve the
//! Costas Array Problem.  Its ingredients (paper §III):
//!
//! * per-constraint **error functions**, projected onto the variables they constrain,
//!   so the search knows *which variable* is most responsible for the current cost;
//! * selection of the worst ("culprit") variable and a **min-conflict** move — the
//!   value/swap whose resulting global cost is minimal;
//! * a short-term **Tabu** memory: a variable with no improving move is frozen for a
//!   number of iterations;
//! * **plateau** handling: equal-cost moves are followed with a configurable
//!   probability (§III-B1, worth an order of magnitude on some problems);
//! * **reset / diversification**: when `RL` variables are simultaneously frozen, a
//!   percentage `RP` of the variables is re-randomised — or a *problem-specific reset*
//!   is invoked (§III-B2), which for the CAP is the three-perturbation procedure of
//!   §IV-B worth a 3.7× speed-up;
//! * optional **restart** from scratch after a configurable number of iterations.
//!
//! The crate is organised as a reusable library:
//!
//! * [`PermutationProblem`] — the problem interface (all six models in this crate are
//!   permutation problems, as in the original AS C library).
//! * [`Engine`] — the AS algorithm itself, stepable one iteration at a time (which is
//!   what the virtual-cluster simulator in the `multiwalk` crate builds on).
//! * [`AsConfig`] — every tuning knob of the paper, with the paper's defaults.
//! * [`costas_model::CostasProblem`] — the CAP model (basic and optimised variants).
//! * [`queens::QueensProblem`], [`all_interval::AllIntervalProblem`],
//!   [`magic_square::MagicSquareProblem`], [`langford::LangfordProblem`],
//!   [`partition::PartitionProblem`] — classical CSPLib benchmarks on the same
//!   engine, demonstrating domain independence.
//! * [`problems`] — the workload registry: every model keyed by a stable string,
//!   with per-model metadata (constructor, default configuration, known-optimum
//!   predicate, standard bench sizes) so harnesses dispatch by name.
//! * [`tie_break`] — the uniform tie-break accumulator shared by the engine's
//!   min-conflict scan and the baseline solvers.
//! * [`request`] — the unified solve API ([`SolveRequest`] / [`SolveOutcome`]):
//!   one typed request shape for every solve path in the workspace (baselines,
//!   multi-walk fan-out, the `solverd` service), with typed errors instead of
//!   panics for unknown keys and invalid warm starts.
//! * [`fault`] — deterministic fault injection ([`FaultPlan`] /
//!   [`FaultyProblem`]) behind a runtime registry hook, powering the chaos
//!   tests of the fault-tolerant runners and the `solverd` supervisor.

pub mod all_interval;
pub mod config;
pub mod costas_model;
pub mod engine;
pub mod fault;
pub mod langford;
pub mod magic_square;
pub mod partition;
pub mod problem;
pub mod problems;
pub mod queens;
pub mod request;
pub mod stats;
pub mod tabu;
pub mod termination;
pub mod tie_break;

pub use config::{AsConfig, AsConfigBuilder, ResetPolicy, RestartPolicy};
pub use costas_model::{CostasModelConfig, CostasProblem};
pub use engine::{Engine, EngineSnapshot, InjectOutcome, SnapshotError, StepOutcome};
pub use fault::{Fault, FaultPlan, FaultyProblem};
pub use problem::PermutationProblem;
pub use problems::{DynProblem, ProblemInfo};
pub use request::{RequestError, SolveOutcome, SolveRequest, Termination};
pub use stats::{SearchStats, SolveResult, SolveStatus};
pub use tabu::TabuList;
pub use termination::{CancelToken, StopCondition, StopReason};
pub use tie_break::{pick_uniform, TieBreak};

#[cfg(test)]
mod tests {
    use super::*;
    use costas::is_costas_permutation;

    /// End-to-end smoke test: the default engine solves a small CAP instance.
    #[test]
    fn solves_small_costas_instance() {
        let problem = CostasProblem::new(10);
        let config = AsConfig::costas_defaults(10);
        let mut engine = Engine::new(problem, config, 42);
        let result = engine.solve();
        assert_eq!(result.status, SolveStatus::Solved);
        let sol = result.solution.expect("solution present when solved");
        assert!(is_costas_permutation(&sol));
    }
}
