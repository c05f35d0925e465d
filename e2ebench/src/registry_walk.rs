//! `registry-walk`: fixed-step walks over four registry models.
//!
//! Each op is one engine built from the registry (`ProblemInfo::build` and
//! `default_config`) that takes exactly its model's step budget, restarting
//! after every solution as a campaign walker does, so the work per op does
//! not depend on when a walk happens to solve.  Ops cycle through the models
//! and run as two closed loops (see [`crate::report::closed_loops`]); the
//! budgets are set so every op takes about the same time.  An op fails
//! when it panics, runs past its budget, or yields a solution the registry's
//! `is_optimum` rejects.
//!
//! Engine self time (culprit selection, Tabu, tie-breaks, generic reset) is a
//! large share of a step on these models and the Costas reset never runs, so
//! this is where engine-layer changes show and Costas-model changes must not.
//! n-queens is left out: it solves in about 30 steps, which measures
//! construction only.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use adaptive_search::problems::{self, ProblemInfo};
use adaptive_search::{Engine, PermutationProblem};
use xrand::Rng64;

use crate::report::{closed_loops, op_count, Op, Run};
use crate::traced::{timer_floor_ns, walk, Budget, Profile};
use crate::Args;

/// `(registry key, size, steps per walk)`.
const MODELS: [(&str, usize, u64); 4] = [
    ("all-interval", 50, 8_000),
    ("magic-square", 10, 16_000),
    ("langford", 32, 22_000),
    ("number-partitioning", 64, 36_000),
];
/// Walks per second of `--seconds` (sized on a 2-vCPU x86-64 VM).
const OPS_PER_SECOND: f64 = 75.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// A traced run replays every this many-th op, bare and through the model
/// wrapper.
const TRACE_EVERY: usize = 3;

struct WalkJob {
    info: &'static ProblemInfo,
    n: usize,
    steps: u64,
    seed: u64,
}

fn jobs(seed: u64, count: usize) -> Vec<WalkJob> {
    let mut rng = xrand::default_rng(seed ^ 0x0E61_5791);
    (0..count)
        .map(|i| {
            let (key, n, steps) = MODELS[i % MODELS.len()];
            WalkJob {
                info: problems::find(key).expect("registry-walk models are registered"),
                n,
                steps,
                seed: rng.next_u64(),
            }
        })
        .collect()
}

/// Set-up: build the walk list and every walk's problem and engine, with one
/// probe each, split over the closed-loop clients.
fn set_up(seed: u64, count: usize) -> Vec<WalkJob> {
    let jobs = jobs(seed, count);
    closed_loops(count, |i| {
        let job = &jobs[i];
        let engine = Engine::new(
            (job.info.build)(job.n),
            (job.info.default_config)(job.n),
            job.seed,
        );
        let mut probe = Vec::new();
        engine.problem().probe_partners(0, &mut probe);
        black_box(probe);
    });
    jobs
}

pub fn run(args: &Args) -> Run {
    let count = op_count(args.seconds, OPS_PER_SECOND);
    let mut run = Run::default();
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        jobs = set_up(args.seed, count);
        run.setup.push(start.elapsed());
    }

    let (outcomes, wall) = closed_loops(count, |i| {
        let job = &jobs[i];
        let config = (job.info.default_config)(job.n);
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            walk(
                (job.info.build)(job.n),
                config,
                job.seed,
                Budget::Steps(job.steps),
            )
            .0
        }));
        (start.elapsed(), outcome.ok())
    });
    run.wall = wall;
    for (job, (latency, outcome)) in jobs.iter().zip(&outcomes) {
        let Some(outcome) = outcome else {
            run.errors
                .push(format!("{} seed {} panicked", job.info.key, job.seed));
            run.ops.push(Op {
                latency: *latency,
                iterations: 0,
                ok: false,
            });
            continue;
        };
        let iterations = outcome.stats.iterations;
        let valid = outcome.solutions.iter().all(|s| (job.info.is_optimum)(s));
        run.check(valid, || {
            format!(
                "{} seed {}: a solution fails is_optimum",
                job.info.key, job.seed
            )
        });
        run.ops.push(Op {
            latency: *latency,
            iterations,
            ok: valid && iterations <= job.steps,
        });
        run.fingerprint
            .op(iterations, outcome.solutions.iter().map(Vec::as_slice));
    }

    if args.trace {
        let floor_ns = timer_floor_ns();
        let sampled: Vec<usize> = (0..count).step_by(TRACE_EVERY).collect();
        let (replays, _) = closed_loops(sampled.len(), |k| {
            let job = &jobs[sampled[k]];
            let mut profile = Profile::new(floor_ns);
            let replayed = profile.replay_both(
                || (job.info.build)(job.n),
                &(job.info.default_config)(job.n),
                job.seed,
                Budget::Steps(job.steps),
            );
            (profile, replayed)
        });
        let mut profile = Profile::new(floor_ns);
        for (&i, (part, replayed)) in sampled.iter().zip(&replays) {
            profile.merge(part);
            let job = &jobs[i];
            match replayed {
                Ok(replayed) => run.check(outcomes[i].1.as_ref() == Some(replayed), || {
                    format!(
                        "{} seed {}: replay differs from the walk",
                        job.info.key, job.seed
                    )
                }),
                Err(e) => run.errors.push(format!("{}: {e}", job.info.key)),
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
