//! Real-hardware strong-scaling measurement (`scaling_curve/v1`).
//!
//! The paper's headline claim (Tables III–V, Figures 2–4) is near-linear speedup
//! of independent multi-walk Adaptive Search up to thousands of cores.  The
//! virtual cluster reproduces that *shape* deterministically on one host; this
//! module measures the real thing, at laptop scale: registry workloads on
//! 1/2/4/… actual OS threads via [`multiwalk::ThreadRunner`], pinned seeds,
//! reported as a `scaling_curve/v1` section of the `BENCH_*.json` artefacts.
//!
//! Two legs per `(model, thread-count)` cell:
//!
//! * **Throughput** — every walk runs a fixed iteration budget at the model's
//!   bench size with **no cross-walk stop flag**
//!   ([`RunControls::replay`]): no walk is cut short by a sibling's
//!   success, so on a hard bench size (Costas n = 18) all threads stay busy for
//!   the whole window.  A walk that solves its own instance still stops at the
//!   solution — easy models (N-Queens) can finish under budget, which the
//!   recorded `total_steps` makes visible.  Aggregate steps/sec over wall-clock
//!   is the strong-scaling number; with perfect scaling it grows linearly in
//!   the thread count until the hardware runs out of cores.
//! * **Time-to-target** — repeated racing jobs ([`ThreadRunner::run`] with
//!   default controls, the paper's first-solution-wins scheme) at the model's largest
//!   registry-declared solvable size, summarised as wall-clock percentiles.
//!   This is the quantity the paper's speedup tables are built from.
//!
//! The artefact records `hardware_threads` (what the host actually has) next to
//! the requested thread counts, so a curve measured on a single-core CI runner
//! is readable as such rather than as a scaling failure — thread counts beyond
//! the hardware add scheduling overhead, not speedup.

use std::num::NonZeroUsize;

use adaptive_search::problems;
use adaptive_search::AsConfig;
use multiwalk::{RunControls, ThreadRunner, WalkSpec};
use runtime_stats::{BatchStats, Json};

use crate::protocol::cell_seed;
use crate::HarnessOptions;

/// Knobs of one scaling sweep.
#[derive(Debug, Clone)]
pub struct ScalingOptions {
    /// OS-thread counts to measure, in order (the first is the speedup baseline).
    pub thread_counts: Vec<usize>,
    /// Per-walk iteration budget of the throughput leg.
    pub steps_per_walk: u64,
    /// Racing repetitions of the time-to-target leg.
    pub ttt_runs: usize,
}

impl ScalingOptions {
    /// Read the sweep shape from the process-wide [`crate::BenchConfig`] on
    /// top of the shared harness options: `COSTAS_THREADS` (comma-separated,
    /// default `1,2,4`) and `COSTAS_SCALING_STEPS` (per-walk budget, default
    /// 20k quick / 200k full); repetitions follow `COSTAS_RUNS` /
    /// `COSTAS_FULL` as everywhere else.
    pub fn from_env(harness: &HarnessOptions) -> Self {
        let config = crate::BenchConfig::get();
        let thread_counts = config
            .thread_counts
            .clone()
            .unwrap_or_else(|| vec![1, 2, 4]);
        let steps_per_walk =
            config
                .scaling_steps
                .unwrap_or(if harness.full { 200_000 } else { 20_000 });
        Self {
            thread_counts,
            steps_per_walk,
            ttt_runs: harness.runs(5, 50),
        }
    }
}

/// Parse a `COSTAS_THREADS`-style list (`"1,2,4"`); invalid or empty input
/// falls back to the single-thread baseline so a typo cannot silently measure
/// nothing.
pub fn parse_thread_counts(spec: &str) -> Vec<usize> {
    let counts: Vec<usize> = spec
        .split(',')
        .filter_map(|part| part.trim().parse().ok())
        .filter(|&t| t > 0)
        .collect();
    if counts.is_empty() {
        vec![1]
    } else {
        counts
    }
}

/// The host's available hardware threads (1 when undetectable).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// One `(model, thread-count)` measurement.
#[derive(Debug, Clone)]
pub struct ScalingCell {
    /// OS threads (= concurrent walks) of this cell.
    pub threads: usize,
    /// Total engine iterations executed across all walks of the throughput leg.
    pub total_steps: u64,
    /// Wall-clock seconds of the throughput leg.
    pub seconds: f64,
    /// Aggregate steps per second (`total_steps / seconds`).
    pub steps_per_sec: f64,
    /// Racing repetitions of the time-to-target leg.
    pub ttt_runs: usize,
    /// How many of them solved.
    pub ttt_solved: usize,
    /// Median wall-clock seconds of the solved racing runs (NaN when none solved;
    /// rendered as JSON `null`).
    pub ttt_p50_s: f64,
    /// 90th-percentile wall-clock seconds of the solved racing runs (NaN → `null`).
    pub ttt_p90_s: f64,
}

impl ScalingCell {
    /// The cell as a JSON object; `speedup` is relative to the sweep's first cell.
    pub fn to_json(&self, baseline_steps_per_sec: f64) -> Json {
        let speedup = if baseline_steps_per_sec > 0.0 {
            self.steps_per_sec / baseline_steps_per_sec
        } else {
            f64::NAN
        };
        Json::object(vec![
            ("threads", Json::from(self.threads)),
            ("total_steps", Json::from(self.total_steps)),
            ("seconds", Json::from(self.seconds)),
            ("steps_per_sec", Json::from(self.steps_per_sec)),
            ("speedup", Json::from(speedup)),
            ("ttt_runs", Json::from(self.ttt_runs)),
            ("ttt_solved", Json::from(self.ttt_solved)),
            ("ttt_p50_s", Json::from(self.ttt_p50_s)),
            ("ttt_p90_s", Json::from(self.ttt_p90_s)),
        ])
    }
}

/// The scaling curve of one registered workload.
#[derive(Debug, Clone)]
pub struct ModelCurve {
    /// Registry key.
    pub model: &'static str,
    /// Instance size of the throughput leg (the registry bench size).
    pub bench_size: usize,
    /// Instance size of the time-to-target leg (largest registry-solvable size).
    pub target_size: usize,
    /// One cell per measured thread count, in sweep order.
    pub cells: Vec<ScalingCell>,
}

impl ModelCurve {
    /// The curve as a JSON object (cell speedups are relative to the first cell).
    pub fn to_json(&self) -> Json {
        let baseline = self.cells.first().map_or(0.0, |c| c.steps_per_sec);
        Json::object(vec![
            ("model", Json::from(self.model)),
            ("bench_size", Json::from(self.bench_size)),
            ("target_size", Json::from(self.target_size)),
            (
                "cells",
                Json::Array(self.cells.iter().map(|c| c.to_json(baseline)).collect()),
            ),
        ])
    }
}

/// Measure one registered workload across the sweep's thread counts.
///
/// Seeds are pinned per `(master_seed, size, threads, leg/run)` through the
/// same [`cell_seed`] derivation the cooperative harness uses, so re-running
/// the sweep replays the identical walks (the throughput leg is bit-for-bit
/// reproducible modulo wall-clock; the racing leg replays the same walk set
/// with a scheduling-dependent winner).
///
/// # Panics
/// Panics if `key` is not a registered problem.
pub fn measure_model(key: &str, opts: &ScalingOptions, master_seed: u64) -> ModelCurve {
    let info = problems::find(key)
        .unwrap_or_else(|| panic!("unknown problem key {key:?}; see problems::registry()"));
    let target_size = *info
        .solvable_sizes
        .last()
        .expect("registry declares solvable sizes");
    let mut cells = Vec::with_capacity(opts.thread_counts.len());
    for &threads in &opts.thread_counts {
        // Throughput leg: fixed budget per walk, no cross-walk stop flag.
        let config = AsConfig {
            max_iterations: opts.steps_per_walk,
            ..(info.default_config)(info.bench_size)
        };
        let spec = WalkSpec::for_problem(key, info.bench_size)
            .expect("registry key resolved above")
            .with_config(config);
        let runner = ThreadRunner::new(spec, threads);
        let replay = RunControls {
            replay: true,
            ..RunControls::default()
        };
        let result = runner.run(
            cell_seed(master_seed, info.bench_size, threads, 0xBEAC),
            &replay,
        );
        let total_steps = result.total_iterations();
        let seconds = result.elapsed.as_secs_f64();

        // Time-to-target leg: racing jobs at the solvable size.
        let ttt_spec =
            WalkSpec::for_problem(key, target_size).expect("registry key resolved above");
        let ttt_runner = ThreadRunner::new(ttt_spec, threads);
        let mut times = Vec::with_capacity(opts.ttt_runs);
        for run in 0..opts.ttt_runs {
            let seed = cell_seed(master_seed, target_size, threads, 0x7717 + run as u64);
            let ttt = ttt_runner.run(seed, &RunControls::default());
            if ttt.solved() {
                times.push(ttt.elapsed.as_secs_f64());
            }
        }
        cells.push(ScalingCell {
            threads,
            total_steps,
            seconds,
            steps_per_sec: total_steps as f64 / seconds.max(f64::MIN_POSITIVE),
            ttt_runs: opts.ttt_runs,
            ttt_solved: times.len(),
            ttt_p50_s: percentile_or_nan(&times, 0.5),
            ttt_p90_s: percentile_or_nan(&times, 0.9),
        });
    }
    ModelCurve {
        model: info.key,
        bench_size: info.bench_size,
        target_size,
        cells,
    }
}

fn percentile_or_nan(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        BatchStats::quantile_of(values, q)
    }
}

/// Assemble the `scaling_curve/v1` section from measured curves.
pub fn scaling_section(curves: &[ModelCurve], opts: &ScalingOptions, master_seed: u64) -> Json {
    Json::object(vec![
        ("schema", Json::from("scaling_curve/v1")),
        ("hardware_threads", Json::from(hardware_threads())),
        ("master_seed", Json::from(master_seed)),
        ("steps_per_walk", Json::from(opts.steps_per_walk)),
        ("ttt_runs", Json::from(opts.ttt_runs)),
        ("thread_counts", Json::from(opts.thread_counts.clone())),
        (
            "models",
            Json::Array(curves.iter().map(ModelCurve::to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> ScalingOptions {
        ScalingOptions {
            thread_counts: vec![1, 2],
            steps_per_walk: 300,
            ttt_runs: 2,
        }
    }

    #[test]
    fn thread_count_parsing_is_forgiving() {
        assert_eq!(parse_thread_counts("1,2,4"), vec![1, 2, 4]);
        assert_eq!(parse_thread_counts(" 2 , 8 "), vec![2, 8]);
        assert_eq!(parse_thread_counts("0,x"), vec![1], "garbage falls back");
        assert_eq!(parse_thread_counts(""), vec![1]);
    }

    #[test]
    fn measured_curve_has_one_cell_per_thread_count() {
        let opts = tiny_options();
        let curve = measure_model("costas", &opts, 7);
        assert_eq!(curve.model, "costas");
        assert_eq!(curve.bench_size, 18);
        assert_eq!(curve.cells.len(), 2);
        for (cell, &threads) in curve.cells.iter().zip(&opts.thread_counts) {
            assert_eq!(cell.threads, threads);
            // every walk ran its full budget (n=18 does not solve in 300 steps)
            assert_eq!(cell.total_steps, opts.steps_per_walk * threads as u64);
            assert!(cell.steps_per_sec > 0.0);
            assert_eq!(cell.ttt_runs, 2);
            assert!(cell.ttt_solved <= 2);
            if cell.ttt_solved > 0 {
                assert!(cell.ttt_p50_s.is_finite() && cell.ttt_p50_s >= 0.0);
                assert!(cell.ttt_p90_s >= cell.ttt_p50_s);
            }
        }
    }

    #[test]
    fn throughput_leg_replays_the_same_walks() {
        let opts = ScalingOptions {
            thread_counts: vec![2],
            steps_per_walk: 200,
            ttt_runs: 1,
        };
        let a = measure_model("costas", &opts, 42);
        let b = measure_model("costas", &opts, 42);
        assert_eq!(a.cells[0].total_steps, b.cells[0].total_steps);
    }

    #[test]
    fn section_renders_and_round_trips_with_the_v1_schema() {
        let opts = tiny_options();
        let curves = vec![measure_model("n-queens", &opts, 3)];
        let section = scaling_section(&curves, &opts, 3);
        let rendered = section.render();
        let parsed = Json::parse(&rendered).expect("own section parses");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("scaling_curve/v1")
        );
        assert!(parsed.get("hardware_threads").and_then(Json::as_u64) >= Some(1));
        let models = parsed.get("models").and_then(Json::as_array).unwrap();
        assert_eq!(models.len(), 1);
        let cells = models[0].get("cells").and_then(Json::as_array).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("threads").and_then(Json::as_u64), Some(1));
        // the baseline cell's speedup is 1 by construction
        assert!((cells[0].get("speedup").and_then(Json::as_f64).unwrap() - 1.0).abs() < 1e-12);
    }
}
