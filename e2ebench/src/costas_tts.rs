//! `costas-tts`: the paper's sequential time-to-solution workload.
//!
//! Two closed loops (see [`crate::report::closed_loops`]) of
//! `SolveRequest::run` to solution on Costas arrays of order [`N`], one
//! request per seed drawn from the workload seed.  Each solve is sequential,
//! as in the paper's Table 1.  An op is one solve; it fails when it ends
//! unsolved or its solution is not a Costas array by the registry's
//! independent `is_optimum`.
//!
//! Order 14 rather than the paper's 16: solve lengths are roughly
//! exponential, so a run's median and 90th percentile move by about
//! 1.4/√ops between seeds.  Order 14 (about 6 ms a solve) fits over 5000
//! solves in a 20-second run, which keeps that spread near 2%; order 16
//! (about 150 ms a solve) fits about 250, which leaves it near 9%.

use std::hint::black_box;
use std::time::Instant;

use adaptive_search::problems::{self, ProblemInfo};
use adaptive_search::{Engine, PermutationProblem, SolveRequest};
use xrand::Rng64;

use crate::report::{closed_loops, op_count, Op, Run};
use crate::traced::{timer_floor_ns, Budget, Profile, WalkOutcome};
use crate::Args;

const N: usize = 14;
/// Solves per second of `--seconds` (sized on a 2-vCPU x86-64 VM).
const OPS_PER_SECOND: f64 = 280.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// A traced run replays every this many-th op, bare and through the model
/// wrapper.
const TRACE_EVERY: usize = 3;

/// The request list: one solve per seed drawn from the workload seed.
fn requests(seed: u64, count: usize) -> Vec<SolveRequest> {
    let mut rng = xrand::default_rng(seed ^ 0x00C0_57A5);
    (0..count)
        .map(|_| SolveRequest::new("costas", N, rng.next_u64()))
        .collect()
}

/// Set-up: build the request list, then every request's problem and engine
/// with one probe each (the first `ConflictTable` kernel dispatch included),
/// split over the closed-loop clients.
fn set_up(seed: u64, count: usize, info: &ProblemInfo) -> Vec<SolveRequest> {
    let requests = requests(seed, count);
    closed_loops(count, |i| {
        let request = &requests[i];
        let config = request.engine_config().expect("costas is registered");
        let engine = Engine::new((info.build)(N), config, request.seed);
        let mut probe = Vec::new();
        engine.problem().probe_partners(0, &mut probe);
        black_box(probe);
    });
    requests
}

pub fn run(args: &Args) -> Run {
    let info = problems::find("costas").expect("costas is registered");
    let count = op_count(args.seconds, OPS_PER_SECOND);
    let mut run = Run::default();
    let mut requests = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        requests = set_up(args.seed, count, info);
        run.setup.push(start.elapsed());
    }

    let (outcomes, wall) = closed_loops(count, |i| {
        let start = Instant::now();
        let outcome = requests[i].run().expect("costas is registered");
        (start.elapsed(), outcome)
    });
    run.wall = wall;
    for (request, (latency, outcome)) in requests.iter().zip(&outcomes) {
        let solution = outcome.solution.as_deref();
        let valid = solution.is_some_and(|s| (info.is_optimum)(s));
        run.check(solution.is_none() || valid, || {
            format!(
                "seed {}: solution {solution:?} is not a Costas array",
                request.seed
            )
        });
        run.ops.push(Op {
            latency: *latency,
            iterations: outcome.stats.iterations,
            ok: outcome.is_solved() && valid,
        });
        run.fingerprint.op(outcome.stats.iterations, solution);
    }

    if args.trace {
        let floor_ns = timer_floor_ns();
        let sampled: Vec<usize> = (0..count).step_by(TRACE_EVERY).collect();
        let (replays, _) = closed_loops(sampled.len(), |k| {
            let request = &requests[sampled[k]];
            let config = request.engine_config().expect("costas is registered");
            let mut profile = Profile::new(floor_ns);
            let replayed =
                profile.replay_both(|| (info.build)(N), &config, request.seed, Budget::Solve);
            (profile, replayed)
        });
        let mut profile = Profile::new(floor_ns);
        for (&i, (part, replayed)) in sampled.iter().zip(&replays) {
            profile.merge(part);
            let outcome = &outcomes[i].1;
            let served = WalkOutcome {
                stats: outcome.stats.clone(),
                solutions: outcome.solution.clone().into_iter().collect(),
            };
            match replayed {
                Ok(replayed) => run.check(*replayed == served, || {
                    format!("seed {}: replay differs from the solve", requests[i].seed)
                }),
                Err(e) => run.errors.push(e.clone()),
            }
        }
        run.layers = profile.metrics();
        run.layers.push((
            "engine.iters_per_op",
            run.fingerprint.iterations as f64 / run.ops.len() as f64,
        ));
    }
    run
}
