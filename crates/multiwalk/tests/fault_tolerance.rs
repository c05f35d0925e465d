//! Runner-level fault tolerance: one panicking walk must never abort the race.
//!
//! Before this layer existed, `handle.join().expect("walk thread panicked")`
//! aborted the whole process the moment any walk died.  These tests prove the
//! replacement behaviour with the deterministic fault-injection harness
//! (`adaptive_search::fault`): under a seeded plan that kills a known subset
//! of walks, the surviving walks still race to a winner, the per-walk results
//! account for every rank, and the whole outcome replays identically.

use std::sync::Once;

use adaptive_search::fault::{self, Fault, FaultPlan};
use adaptive_search::{CostasProblem, Engine, PermutationProblem, SolveStatus};
use multiwalk::{CoopConfig, CooperativeRunner, RunControls, ThreadRunner, WalkSpec};

/// One plan per test binary: every test in this file shares it, so the
/// process-global installation can never race between tests.
const PLAN: FaultPlan = FaultPlan {
    seed: 0xFA11_7001,
    panic_per_mille: 450,
    stall_per_mille: 0,
    stall_ms: 0,
    // Trip within the first ~50 ops: no order-12 walk ever solves that fast,
    // so an assigned panic always fires before the walk could finish — which
    // is what makes the per-rank prediction exact.
    min_op: 1,
    op_spread: 48,
};

static ARM: Once = Once::new();

fn chaos_spec(n: usize) -> WalkSpec {
    ARM.call_once(|| {
        fault::ensure_chaos_registered();
        fault::install_plan(PLAN);
    });
    WalkSpec::for_problem(fault::CHAOS_PROBLEM, n).expect("chaos problem registered")
}

/// Predict, per rank, whether the plan kills that walk — by rebuilding a
/// *bare* engine with the identical seeding (the initial configuration is a
/// pure function of `(spec, master_seed, rank)`) and hashing it through the
/// plan, exactly as the wrapper will.
fn predicted_panics(spec: &WalkSpec, master_seed: u64, walks: usize) -> Vec<bool> {
    (0..walks)
        .map(|rank| {
            let seed = spec.seeder(master_seed).seed_for_rank(rank as u64);
            let engine = Engine::new(CostasProblem::new(spec.n), spec.config.clone(), seed);
            matches!(
                PLAN.fault_for(engine.problem().configuration()),
                Fault::PanicAt { .. }
            )
        })
        .collect()
}

/// A master seed where the plan kills at least one walk and spares at least
/// one — the interesting regime for "survivors keep racing".
fn mixed_seed(spec: &WalkSpec, walks: usize) -> (u64, Vec<bool>) {
    for master_seed in 0..64u64 {
        let dead = predicted_panics(spec, master_seed, walks);
        if dead.iter().any(|&d| d) && dead.iter().any(|&d| !d) {
            return (master_seed, dead);
        }
    }
    panic!("no mixed seed in 0..64 under a 45% panic plan — implausible");
}

#[test]
fn a_panicking_walk_costs_only_itself_in_the_racing_runner() {
    let spec = chaos_spec(12);
    let walks = 4;
    let runner = ThreadRunner::new(spec.clone(), walks);
    let (master_seed, dead) = mixed_seed(&spec, walks);

    let result = runner.run(master_seed, &RunControls::default());
    assert_eq!(result.walk_results.len(), walks, "every rank accounted for");
    for (rank, died) in dead.iter().enumerate() {
        let status = result.walk_results[rank].status;
        if *died {
            assert_eq!(
                status,
                SolveStatus::Panicked,
                "rank {rank} was assigned a panic"
            );
        } else {
            assert_ne!(
                status,
                SolveStatus::Panicked,
                "rank {rank} was not assigned a panic"
            );
        }
    }
    assert_eq!(result.panicked_walks(), dead.iter().filter(|&&d| d).count());
    // The survivors still won the race: order 12 always solves unbounded.
    assert!(result.solved(), "survivors must still produce the winner");
    let winner = result.winner.expect("solved implies winner");
    assert!(!dead[winner], "a dead walk cannot win");
    assert!(costas::is_costas_permutation(
        result.solution.as_ref().unwrap()
    ));
}

#[test]
fn deterministic_runner_replays_identically_under_faults() {
    let spec = chaos_spec(12);
    let walks = 4;
    let runner = ThreadRunner::new(spec.clone(), walks);
    let (master_seed, dead) = mixed_seed(&spec, walks);

    let replay = RunControls {
        replay: true,
        ..RunControls::default()
    };
    let a = runner.run(master_seed, &replay);
    let b = runner.run(master_seed, &replay);
    assert_eq!(a.winner, b.winner, "same winner across replays");
    assert_eq!(a.solution, b.solution);
    assert!(a.solved(), "survivors solve order 12");
    assert!(!dead[a.winner.unwrap()]);
    for (rank, (ra, rb)) in a.walk_results.iter().zip(&b.walk_results).enumerate() {
        assert_eq!(ra.status, rb.status, "rank {rank} classifies identically");
        assert_eq!(ra.stats, rb.stats, "rank {rank} stats replay");
        assert_eq!(
            ra.status == SolveStatus::Panicked,
            dead[rank],
            "rank {rank} dies iff the plan says so"
        );
    }
}

#[test]
fn cooperative_thread_runner_survives_panicking_walks() {
    let spec = chaos_spec(12);
    let walks = 4;
    let (master_seed, dead) = mixed_seed(&spec, walks);
    let runner = CooperativeRunner::new(spec, walks).with_coop(CoopConfig::every(128));
    let result = runner.run_threads(master_seed);
    // The job must complete with per-walk stats for every rank and a winner
    // from the survivor set (order 12 with an unbounded budget always solves).
    assert_eq!(result.walk_stats.len(), walks);
    assert!(result.solved(), "cooperative survivors still win");
    assert!(!dead[result.winner.unwrap()], "a dead walk cannot win");
    assert!(costas::is_costas_permutation(
        result.solution.as_ref().unwrap()
    ));
}
