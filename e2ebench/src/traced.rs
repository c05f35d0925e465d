//! Model-layer tracing from outside the engine.
//!
//! [`Traced`] wraps a [`PermutationProblem`] and forwards every trait method
//! — the defaulted ones included, exactly as the `Box<T>` impl in
//! `adaptive-search` does — so the engine walks the same trajectory it walks
//! on the bare model.  Calls are counted always and timed on a sample (see
//! [`SAMPLE_MASK`]) to keep the timer's cost from skewing the shares.
//!
//! A traced run replays walks twice, bare and wrapped, checks that both give
//! the same statistics and solutions as each other and as the op they
//! replay, and reports the layer split of the wrapped walks plus the
//! throughput the wrapper cost ([`Profile::metrics`]).

use std::cell::Cell;
use std::time::{Duration, Instant};

use adaptive_search::{AsConfig, Engine, PermutationProblem, SearchStats, StepOutcome};
use xrand::Rng64;

/// The model calls the engine makes, grouped by what they do.
#[derive(Debug, Clone, Copy)]
enum Layer {
    /// `probe_partners` / `probe_partners_reference`: the batched neighbourhood probe.
    Probe = 0,
    /// `apply_swap` / `set_configuration`: moves, generic-reset swaps, restarts.
    Apply = 1,
    /// `custom_reset`: the model's own reset procedure (Costas).
    Reset = 2,
    /// Everything else: cost and error reads, single-pair deltas, queries.
    Other = 3,
}

const LAYERS: usize = 4;

/// A call is timed when its per-layer call index `& mask == 0`: every reset,
/// one in eight probes and moves, one in 64 of the cheap queries.
const SAMPLE_MASK: [u64; LAYERS] = [7, 7, 0, 63];

#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    calls: u64,
    sampled: u64,
    sampled_ns: u64,
}

impl Tally {
    fn mean_ns(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.sampled_ns as f64 / self.sampled as f64
        }
    }

    /// Estimated total time of all calls, from the sampled mean.
    fn estimated_ns(&self) -> f64 {
        self.mean_ns() * self.calls as f64
    }

    fn add(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }
}

/// Median cost of an empty `Instant` pair, subtracted from every sample.
pub fn timer_floor_ns() -> u64 {
    let mut samples: Vec<u64> = (0..20_001)
        .map(|_| Instant::now().elapsed().as_nanos() as u64)
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// A forwarding [`PermutationProblem`] that counts and samples-times calls.
pub struct Traced<P> {
    inner: P,
    floor_ns: u64,
    tally: [Cell<Tally>; LAYERS],
}

impl<P: PermutationProblem> Traced<P> {
    pub fn new(inner: P, floor_ns: u64) -> Self {
        Self {
            inner,
            floor_ns,
            tally: Default::default(),
        }
    }
}

/// Run `f` as one call of `layer`, timing it when it falls on the sample.
#[inline(always)]
fn timed<R>(slot: &Cell<Tally>, layer: Layer, floor_ns: u64, f: impl FnOnce() -> R) -> R {
    let mut tally = slot.get();
    let sample = tally.calls & SAMPLE_MASK[layer as usize] == 0;
    tally.calls += 1;
    if !sample {
        slot.set(tally);
        return f();
    }
    let start = Instant::now();
    let result = f();
    let ns = start.elapsed().as_nanos() as u64;
    tally.sampled += 1;
    tally.sampled_ns += ns.saturating_sub(floor_ns);
    slot.set(tally);
    result
}

macro_rules! traced {
    ($self:ident, $layer:ident, $call:expr) => {
        timed(
            &$self.tally[Layer::$layer as usize],
            Layer::$layer,
            $self.floor_ns,
            || $call,
        )
    };
}

impl<P: PermutationProblem> PermutationProblem for Traced<P> {
    fn size(&self) -> usize {
        traced!(self, Other, self.inner.size())
    }
    fn set_configuration(&mut self, values: &[usize]) {
        traced!(self, Apply, self.inner.set_configuration(values))
    }
    fn configuration(&self) -> &[usize] {
        traced!(self, Other, self.inner.configuration())
    }
    fn global_cost(&self) -> u64 {
        traced!(self, Other, self.inner.global_cost())
    }
    fn variable_errors(&self, out: &mut Vec<u64>) {
        traced!(self, Other, self.inner.variable_errors(out))
    }
    fn cached_errors(&self) -> Option<&[u64]> {
        traced!(self, Other, self.inner.cached_errors())
    }
    fn delta_for_swap(&self, i: usize, j: usize) -> i64 {
        traced!(self, Other, self.inner.delta_for_swap(i, j))
    }
    fn probe_partners(&self, culprit: usize, out: &mut Vec<u64>) {
        traced!(self, Probe, self.inner.probe_partners(culprit, out))
    }
    fn probe_partners_reference(&self, culprit: usize, out: &mut Vec<u64>) {
        traced!(
            self,
            Probe,
            self.inner.probe_partners_reference(culprit, out)
        )
    }
    fn has_accelerated_probe(&self) -> bool {
        traced!(self, Other, self.inner.has_accelerated_probe())
    }
    fn cost_after_swap(&mut self, i: usize, j: usize) -> u64 {
        traced!(self, Other, self.inner.cost_after_swap(i, j))
    }
    fn apply_swap(&mut self, i: usize, j: usize) {
        traced!(self, Apply, self.inner.apply_swap(i, j))
    }
    fn custom_reset(&mut self, worst_var: usize, rng: &mut dyn Rng64) -> Option<u64> {
        traced!(self, Reset, self.inner.custom_reset(worst_var, rng))
    }
    fn name(&self) -> &'static str {
        traced!(self, Other, self.inner.name())
    }
    fn is_solution(&self) -> bool {
        traced!(self, Other, self.inner.is_solution())
    }
}

/// How long a walk runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// `Engine::solve`: to the first solution or the configured iteration cap.
    Solve,
    /// Exactly this many `Engine::step` calls, restarting after each solution
    /// (the campaign walker's loop).
    Steps(u64),
}

/// What one walk did; equal between a bare and a traced replay.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkOutcome {
    pub stats: SearchStats,
    pub solutions: Vec<Vec<usize>>,
}

/// Run one walk; returns its outcome, its wall time (engine construction
/// included) and the problem, so a traced caller can collect its tallies.
pub fn walk<P: PermutationProblem>(
    problem: P,
    config: AsConfig,
    seed: u64,
    budget: Budget,
) -> (WalkOutcome, Duration, P) {
    let start = Instant::now();
    let mut engine = Engine::new(problem, config, seed);
    let mut solutions = Vec::new();
    match budget {
        Budget::Solve => solutions.extend(engine.solve().solution),
        Budget::Steps(steps) => {
            for _ in 0..steps {
                if engine.step() == StepOutcome::Solved {
                    solutions.push(engine.problem().configuration().to_vec());
                    engine.restart();
                }
            }
        }
    }
    let elapsed = start.elapsed();
    let outcome = WalkOutcome {
        stats: engine.stats().clone(),
        solutions,
    };
    (outcome, elapsed, engine.into_problem())
}

/// Layer split accumulated over the traced replays of one run.
#[derive(Debug)]
pub struct Profile {
    floor_ns: u64,
    tally: [Tally; LAYERS],
    bare: Duration,
    traced: Duration,
    iterations: u64,
    resets: u64,
}

impl Profile {
    /// An empty profile whose samples subtract `floor_ns` (see [`timer_floor_ns`]).
    pub fn new(floor_ns: u64) -> Self {
        Self {
            floor_ns,
            tally: [Tally::default(); LAYERS],
            bare: Duration::ZERO,
            traced: Duration::ZERO,
            iterations: 0,
            resets: 0,
        }
    }

    pub fn merge(&mut self, other: &Profile) {
        for (total, part) in self.tally.iter_mut().zip(&other.tally) {
            total.add(part);
        }
        self.bare += other.bare;
        self.traced += other.traced;
        self.iterations += other.iterations;
        self.resets += other.resets;
    }

    /// Run a walk bare, then wrapped in [`Traced`], and record the wrapped
    /// walk's split.  The two must agree on every statistic and solution;
    /// returns the bare walk's outcome.
    pub fn replay_both<P: PermutationProblem>(
        &mut self,
        build: impl Fn() -> P,
        config: &AsConfig,
        seed: u64,
        budget: Budget,
    ) -> Result<WalkOutcome, String> {
        let (bare, bare_elapsed, _) = walk(build(), config.clone(), seed, budget);
        let (outcome, elapsed, traced) = walk(
            Traced::new(build(), self.floor_ns),
            config.clone(),
            seed,
            budget,
        );
        if outcome != bare {
            return Err(format!(
                "traced replay of seed {seed} diverged from the untraced walk \
                 ({} vs {} iterations)",
                outcome.stats.iterations, bare.stats.iterations
            ));
        }
        for (total, slot) in self.tally.iter_mut().zip(&traced.tally) {
            total.add(&slot.get());
        }
        self.bare += bare_elapsed;
        self.traced += elapsed;
        self.iterations += outcome.stats.iterations;
        self.resets += outcome.stats.resets;
        Ok(bare)
    }

    /// The model- and engine-layer metrics.  Shares are of the traced wall
    /// time less the timer's own cost (two clock reads per sampled call).
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let [probe, apply, reset, other] = self.tally;
        let sampled: u64 = self.tally.iter().map(|t| t.sampled).sum();
        let busy_ns =
            (self.traced.as_nanos() as f64 - (2 * sampled * self.floor_ns) as f64).max(1.0);
        let model_ns: f64 = self.tally.iter().map(Tally::estimated_ns).sum();
        let self_ns = (busy_ns - model_ns).max(0.0);
        let iterations = self.iterations.max(1) as f64;
        vec![
            ("model.probe_ns", probe.mean_ns()),
            ("model.probe_share", probe.estimated_ns() / busy_ns),
            ("model.apply_ns", apply.mean_ns()),
            ("model.apply_share", apply.estimated_ns() / busy_ns),
            ("model.reset_ns", reset.mean_ns()),
            ("model.reset_share", reset.estimated_ns() / busy_ns),
            ("model.other_share", other.estimated_ns() / busy_ns),
            (
                "model.resets_per_kstep",
                self.resets as f64 * 1e3 / iterations,
            ),
            ("engine.self_share", self_ns / busy_ns),
            ("engine.self_ns_per_step", self_ns / iterations),
            (
                "trace.overhead_frac",
                1.0 - self.bare.as_secs_f64() / self.traced.as_secs_f64().max(1e-9),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_search::problems;

    #[test]
    fn traced_walks_replay_bare_walks_exactly_on_every_model() {
        for info in problems::registry() {
            let n = info.solvable_sizes[0];
            let config = (info.default_config)(n);
            for budget in [Budget::Solve, Budget::Steps(3_000)] {
                let mut profile = Profile::new(timer_floor_ns());
                profile
                    .replay_both(|| (info.build)(n), &config, 11, budget)
                    .unwrap_or_else(|e| panic!("{}: {e}", info.key));
                let calls: u64 = profile.tally.iter().map(|t| t.calls).sum();
                assert!(calls > 0, "{}: no model calls seen", info.key);
            }
        }
    }
}
