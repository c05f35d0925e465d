//! `campaign`: rounds of a checkpointing Costas search campaign.
//!
//! A `multiwalk::Campaign` hunts Costas arrays of order [`N`] with
//! [`WALKERS`] walkers in a fresh directory under the benchmark's scratch
//! directory, checkpointing every round.  Before the timed phase it runs
//! [`PREP_ROUNDS`] rounds and is dropped; the set-up is `Campaign::open`
//! resuming that checkpoint (repeated on a copy of it during the timed
//! phase).  An op is one round: every walker takes
//! [`ROUND_STEPS`] steps, every solution is canonicalised, new classes are
//! appended to the result log and a checkpoint is written and synced.  An op
//! fails on a `CampaignError`.  After the last round the result log must hold
//! exactly the campaign's distinct classes (no more than its solutions), each
//! a Costas array and the canonical form of its logged solution.
//!
//! This is the only workload that writes, so a gain that costs I/O or
//! checkpoint size shows here.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use multiwalk::campaign::parse_records;
use multiwalk::{Campaign, CampaignSpec, WalkSpec};
use runtime_stats::json::Json;

use crate::ledger::SCRATCH_DIR;
use crate::report::{median, op_count, Op, Run};
use crate::traced::{timer_floor_ns, Budget, Profile};
use crate::Args;

const N: usize = 11;
const WALKERS: usize = 2;
/// Steps per walker per round (the checkpoint interval).
const ROUND_STEPS: u64 = 10_000;
/// Rounds run and checkpointed before the timed phase.
const PREP_ROUNDS: u64 = 10;
/// Rounds per second of `--seconds` (sized on a 2-vCPU x86-64 VM).
const OPS_PER_SECOND: f64 = 24.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 15;

fn total_steps(campaign: &Campaign) -> u64 {
    campaign.walker_stats().iter().map(|s| s.iterations).sum()
}

fn open(spec: &CampaignSpec) -> Result<Campaign, String> {
    match Campaign::open(spec.clone()) {
        Ok((campaign, true)) => Ok(campaign),
        Ok((_, false)) => Err("the campaign started fresh instead of resuming".into()),
        Err(e) => Err(format!("open: {e}")),
    }
}

/// Per-round timings a traced run splits out of `run_round`.
#[derive(Default)]
struct RoundSplit {
    walk: Vec<f64>,
    checkpoint: Vec<f64>,
}

pub fn run(args: &Args) -> Run {
    let dir = PathBuf::from(SCRATCH_DIR).join(format!("campaign-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut run = Run::default();
    if let Err(e) = run_in(args, &dir, &mut run) {
        run.errors.push(e);
    }
    let _ = fs::remove_dir_all(&dir);
    if run.setup.is_empty() {
        run.setup.push(Duration::ZERO);
    }
    run.wall = run.wall.max(Duration::from_nanos(1));
    run
}

fn run_in(args: &Args, dir: &Path, run: &mut Run) -> Result<(), String> {
    let count = op_count(args.seconds, OPS_PER_SECOND);
    let spec = CampaignSpec {
        problem: "costas".to_string(),
        n: N,
        walkers: WALKERS,
        master_seed: args.seed,
        rounds: PREP_ROUNDS + count as u64,
        checkpoint_interval: ROUND_STEPS,
        checkpoint_every: 1,
        dir: dir.join("live"),
    };
    let (mut campaign, _) = Campaign::open(spec.clone()).map_err(|e| format!("open: {e}"))?;
    for _ in 0..PREP_ROUNDS {
        campaign
            .run_round()
            .map_err(|e| format!("prep round: {e}"))?;
    }
    drop(campaign);
    // A copy of the prep state, resumed again at points spread over the
    // timed phase for the further set-up repetitions.
    let copy = CampaignSpec {
        dir: dir.join("resume"),
        ..spec.clone()
    };
    copy_dir(&spec.dir, &copy.dir)?;

    let start = Instant::now();
    let mut campaign = open(&spec)?;
    run.setup.push(start.elapsed());
    let walker0_after_prep = campaign.walker_stats()[0].clone();

    let mut split = RoundSplit::default();
    let mut excluded = Duration::ZERO;
    let phase = Instant::now();
    for round in 0..count {
        if setup_due(round, count, SETUP_REPS) {
            let start = Instant::now();
            let rebuilt = open(&copy)?;
            run.setup.push(start.elapsed());
            drop(rebuilt);
            excluded += start.elapsed();
        }
        let before = total_steps(&campaign);
        let start = Instant::now();
        let result = if args.trace {
            let walked = campaign.run_round_crash_before_checkpoint();
            let walk_ms = start.elapsed().as_secs_f64() * 1e3;
            let checkpoint = Instant::now();
            let result = walked.and_then(|()| campaign.write_checkpoint());
            split.walk.push(walk_ms);
            split
                .checkpoint
                .push(checkpoint.elapsed().as_secs_f64() * 1e3);
            result
        } else {
            campaign.run_round()
        };
        let latency = start.elapsed();
        let iterations = total_steps(&campaign) - before;
        if let Err(e) = &result {
            run.errors.push(format!("round {round}: {e}"));
        }
        run.ops.push(Op {
            latency,
            iterations,
            ok: result.is_ok(),
        });
        run.fingerprint.op(iterations, []);
    }
    run.wall = phase.elapsed() - excluded;

    let logged = check_log(&campaign, run)?;
    run.fingerprint.count(campaign.solutions_found());
    run.fingerprint.count(campaign.classes().len() as u64);

    if args.trace {
        let file_len = |path: PathBuf| fs::metadata(path).map_or(0, |m| m.len()) as f64;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let mut resume_ms: Vec<f64> = run.setup.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        let calls = 20_000usize.div_ceil(logged.len().max(1)) * logged.len();
        let start = Instant::now();
        for solution in logged.iter().cycle().take(calls) {
            std::hint::black_box(costas::canonical_form(solution));
        }
        let canonical_ns = start.elapsed().as_nanos() as f64 / calls.max(1) as f64;
        run.layers = vec![
            ("campaign.walk_ms", mean(&split.walk)),
            ("campaign.checkpoint_ms", mean(&split.checkpoint)),
            (
                "campaign.checkpoint_bytes",
                file_len(spec.checkpoint_path()),
            ),
            ("campaign.log_bytes", file_len(spec.log_path())),
            ("campaign.resume_ms", median(&mut resume_ms)),
            ("costas.canonical_ns", canonical_ns),
            (
                "engine.iters_per_op",
                run.fingerprint.iterations as f64 / run.ops.len() as f64,
            ),
        ];
        // Walker 0's prep rounds, replayed bare and traced, must land on the
        // statistics the campaign checkpointed for it.
        let walk = WalkSpec::for_problem("costas", N).expect("costas is registered");
        let seed = walk.seeder(spec.master_seed).seed_for_rank(0);
        let mut profile = Profile::new(timer_floor_ns());
        let replayed = profile.replay_both(
            || walk.build_problem(),
            &walk.config,
            seed,
            Budget::Steps(PREP_ROUNDS * ROUND_STEPS),
        )?;
        run.check(replayed.stats == walker0_after_prep, || {
            "replay of walker 0 diverged from the campaign's walker".to_string()
        });
        run.layers.extend(profile.metrics());
    }
    Ok(())
}

/// Whether a set-up repetition runs before round `index` of `rounds`: the
/// repetitions after the first are spread evenly over the timed phase, so
/// their median samples the same stretch of host time as the rounds.
fn setup_due(index: usize, rounds: usize, reps: usize) -> bool {
    index > 0 && index.is_multiple_of(rounds.div_ceil(reps).max(1))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let failed = |e: std::io::Error| format!("copying {} to {}: {e}", from.display(), to.display());
    fs::create_dir_all(to).map_err(failed)?;
    for entry in fs::read_dir(from).map_err(failed)? {
        let entry = entry.map_err(failed)?;
        fs::copy(entry.path(), to.join(entry.file_name())).map_err(failed)?;
    }
    Ok(())
}

/// Check the result log against the campaign; returns the logged solutions.
fn check_log(campaign: &Campaign, run: &mut Run) -> Result<Vec<Vec<usize>>, String> {
    let artifact = campaign.artifact_section();
    let field = |key: &str| {
        artifact
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("artifact lacks {key}"))
    };
    let (records, classes, solutions) = (
        field("log_records")?,
        field("distinct_classes")?,
        field("solutions_found")?,
    );
    run.check(records == classes && classes <= solutions, || {
        format!("log_records {records}, distinct_classes {classes}, solutions_found {solutions}")
    });

    let path = campaign.spec().log_path();
    let bytes = fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let log = parse_records(&bytes).map_err(|e| format!("result log: {e:?}"))?;
    run.check(!log.torn && log.records.len() as u64 == records, || {
        format!(
            "result log holds {} records (torn: {}), expected {records}",
            log.records.len(),
            log.torn
        )
    });
    let as_values = |json: Option<&Json>| -> Option<Vec<usize>> {
        json?
            .as_array()?
            .iter()
            .map(|v| v.as_u64().map(|v| v as usize))
            .collect()
    };
    let mut logged_classes = BTreeSet::new();
    let mut logged = Vec::new();
    for record in &log.records {
        let doc = Json::parse(record).map_err(|e| format!("log record {record:?}: {e:?}"))?;
        let canonical = as_values(doc.get("canonical"));
        let solution = as_values(doc.get("solution"));
        let sound = match (&canonical, &solution) {
            (Some(c), Some(s)) => {
                costas::is_costas_permutation(c)
                    && costas::is_costas_permutation(s)
                    && costas::canonical_form(s) == *c
            }
            _ => false,
        };
        run.check(sound, || {
            format!("log record {record:?} is not a sound Costas class")
        });
        logged_classes.extend(canonical);
        logged.extend(solution);
    }
    run.check(&logged_classes == campaign.classes(), || {
        "logged classes differ from the campaign's class set".to_string()
    });
    Ok(logged)
}
