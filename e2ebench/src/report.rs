//! What a workload run produces, and its reduction to the printed metrics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use runtime_stats::json::Json;

use crate::Args;

/// One attempted op of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Client-side wall time of the op.
    pub latency: Duration,
    /// Engine iterations the op performed.
    pub iterations: u64,
    /// `false` when the op failed by its workload's definition.
    pub ok: bool,
}

/// Exact record of the work a run did: the iteration total and a hash over
/// every op's iterations and solutions.  Two runs of one binary on one seed
/// must produce the same fingerprint (see [`crate::ledger`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub iterations: u64,
    pub digest: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self {
            iterations: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Fingerprint {
    fn mix(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.digest = (self.digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Record one op: its iteration count and the solutions it produced.
    pub fn op<'a>(&mut self, iterations: u64, solutions: impl IntoIterator<Item = &'a [usize]>) {
        self.iterations += iterations;
        self.mix(iterations);
        for solution in solutions {
            self.mix(solution.len() as u64);
            for &v in solution {
                self.mix(v as u64);
            }
        }
    }

    /// Record a derived count that must also repeat exactly.
    pub fn count(&mut self, value: u64) {
        self.mix(value);
    }
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Wall time of each repetition of the workload's set-up.
    pub setup: Vec<Duration>,
    /// Every attempted op of the timed phase, in order.
    pub ops: Vec<Op>,
    /// Wall time of the timed phase.
    pub wall: Duration,
    /// Output checks that failed; empty means the outputs are correct.
    pub errors: Vec<String>,
    pub fingerprint: Fingerprint,
    /// Per-layer metrics (traced runs only); names come from [`PER_LAYER`].
    pub layers: Vec<(&'static str, f64)>,
}

impl Run {
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(message());
        }
    }
}

/// The end-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_sec", "1/s"),
    ("steps_per_sec", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_frac", "frac"),
];

/// The per-layer metrics, printed with `--trace 1` on every workload.  A
/// metric whose layer is not on a workload's path reads 0 there.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("model.probe_ns", "ns"),
    ("model.probe_share", "frac"),
    ("model.apply_ns", "ns"),
    ("model.apply_share", "frac"),
    ("model.reset_ns", "ns"),
    ("model.reset_share", "frac"),
    ("model.other_share", "frac"),
    ("model.resets_per_kstep", "count"),
    ("engine.self_share", "frac"),
    ("engine.self_ns_per_step", "ns"),
    ("engine.iters_per_op", "count"),
    ("trace.overhead_frac", "frac"),
    ("solverd.queue_ms", "ms"),
    ("solverd.solve_ms", "ms"),
    ("solverd.overhead_ms", "ms"),
    ("proto.parse_us", "us"),
    ("json.parse_us", "us"),
    ("multiwalk.fanout_ms", "ms"),
    ("campaign.walk_ms", "ms"),
    ("campaign.checkpoint_ms", "ms"),
    ("campaign.checkpoint_bytes", "bytes"),
    ("campaign.log_bytes", "bytes"),
    ("campaign.resume_ms", "ms"),
    ("costas.canonical_ns", "ns"),
];

/// Ops a run of `seconds` performs at a nominal rate, never fewer than 100 so
/// the 90th percentile has at least ten samples beyond it.
pub fn op_count(seconds: u64, nominal_per_second: f64) -> usize {
    ((seconds as f64 * nominal_per_second).round() as usize).max(100)
}

/// Closed-loop clients of the single-process compute workloads: one per vCPU
/// of the reference VM.  With one busy vCPU the same work measured about
/// twice as noisy there (presumably the idle vCPU's core is lent to other
/// tenants).
pub const CLIENTS: usize = 2;

/// Run `op(i)` for every `i < count` as [`CLIENTS`] closed loops, each client
/// taking the next unstarted op as soon as its last one finishes, and return
/// the results in op order with the wall time of the whole phase.  Which
/// client runs an op varies between runs; what the op does does not.
pub fn closed_loops<R: Send>(count: usize, op: impl Fn(usize) -> R + Sync) -> (Vec<R>, Duration) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            return done;
                        }
                        done.push((i, op(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop clients do not panic"))
            .collect()
    });
    let wall = start.elapsed();
    results.sort_by_key(|&(i, _)| i);
    (results.into_iter().map(|(_, r)| r).collect(), wall)
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank quantile of the op latencies in ms.  A failed op counts as
/// slower than every completed op; should the quantile land on one, the
/// whole timed phase's wall time stands in for its latency.
pub fn latency_quantile_ms(ops: &[Op], wall: Duration, q: f64) -> f64 {
    let mut latencies: Vec<f64> = ops
        .iter()
        .map(|op| {
            if op.ok {
                op.latency.as_secs_f64() * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
    let value = latencies[rank - 1];
    if value.is_finite() {
        value
    } else {
        wall.as_secs_f64() * 1e3
    }
}

fn end_to_end(run: &Run) -> Vec<f64> {
    let wall = run.wall.as_secs_f64();
    let completed = run.ops.iter().filter(|op| op.ok).count();
    let steps: u64 = run.ops.iter().map(|op| op.iterations).sum();
    let mut setup: Vec<f64> = run.setup.iter().map(Duration::as_secs_f64).collect();
    vec![
        median(&mut setup),
        completed as f64 / wall,
        steps as f64 / wall,
        latency_quantile_ms(&run.ops, run.wall, 0.5),
        latency_quantile_ms(&run.ops, run.wall, 0.9),
        completed as f64 / run.ops.len() as f64,
    ]
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(args: &Args, run: &Run) -> String {
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = run
                    .layers
                    .iter()
                    .find(|(layer, _)| *layer == name)
                    .map_or(0.0, |&(_, v)| v);
                (name, unit, value)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end(run))
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect()
    };
    let metrics = metrics
        .into_iter()
        .map(|(name, unit, value)| {
            (
                name,
                Json::object(vec![
                    ("value", Json::from(value)),
                    ("unit", Json::from(unit)),
                ]),
            )
        })
        .collect();
    Json::object(vec![
        ("correct", Json::from(run.errors.is_empty())),
        ("attempted", Json::from(run.ops.len())),
        (
            "failed",
            Json::from(run.ops.iter().filter(|op| !op.ok).count()),
        ),
        ("metrics", Json::object(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(ms: u64, ok: bool) -> Op {
        Op {
            latency: Duration::from_millis(ms),
            iterations: 1,
            ok,
        }
    }

    #[test]
    fn quantiles_are_nearest_rank_and_count_failures_as_slowest() {
        let ops: Vec<Op> = (1..=10).map(|ms| op(ms, true)).collect();
        let wall = Duration::from_secs(1);
        assert_eq!(latency_quantile_ms(&ops, wall, 0.5), 5.0);
        assert_eq!(latency_quantile_ms(&ops, wall, 0.9), 9.0);
        let mut failing = ops.clone();
        failing[0].ok = false;
        failing[1].ok = false;
        assert_eq!(latency_quantile_ms(&failing, wall, 0.9), 1000.0);
        assert_eq!(latency_quantile_ms(&failing, wall, 0.5), 7.0);
    }

    #[test]
    fn fingerprints_see_iterations_and_solutions() {
        let mut a = Fingerprint::default();
        let mut b = Fingerprint::default();
        a.op(5, [&[1usize, 2][..]]);
        b.op(5, [&[2usize, 1][..]]);
        assert_eq!(a.iterations, b.iterations);
        assert_ne!(a, b);
    }

    #[test]
    fn closed_loops_run_every_op_once_and_keep_op_order() {
        let (results, _) = closed_loops(101, |i| i * 2);
        assert_eq!(results, (0..101).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
