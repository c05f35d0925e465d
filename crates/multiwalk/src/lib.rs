//! # multiwalk — independent and cooperative multi-walk parallel local search
//!
//! The parallelisation scheme of the IPPS 2012 paper (§V) is *independent
//! multiple-walk* (also called multi-start): fork one sequential Adaptive Search
//! engine per core, each with its own decorrelated random seed, no communication
//! during the search, and terminate the whole job as soon as any walk finds a
//! solution (each walk polls for a termination message every `c` iterations).
//!
//! This crate provides three execution substrates for that scheme:
//!
//! * [`ThreadRunner`] — real OS-thread parallelism on the host, termination via a
//!   shared atomic flag.  This is what a user running on a multi-core workstation
//!   wants.
//! * [`MpiRunner`] — the same algorithm written against the [`mpi_sim`] message
//!   passing API (non-blocking probe every `c` iterations, winner announcement to all
//!   ranks), mirroring the paper's OpenMPI implementation structure.
//! * [`VirtualCluster`] — a deterministic simulator that reproduces the paper's
//!   *cluster-scale* experiments (32 … 8 192 cores) on a small host.  Walks are
//!   interleaved step by step and time is measured on a virtual clock whose unit is
//!   the engine iteration (the machine-independent unit Table I also reports); a
//!   [`PlatformProfile`] converts iterations to seconds for a given machine
//!   (HA8000, Grid'5000 Suno/Helios, JUGENE).  Because the walks are independent, the
//!   wall-clock of a K-core run is exactly the minimum over K walks of their
//!   completion times — the simulator computes that minimum by actually running the
//!   walks, not by assuming a distribution.  See DESIGN.md §4 for why this
//!   substitution preserves the paper's observable behaviour.
//!
//! [`WalkSpec`] describes the instance + engine configuration shared by every walk,
//! and seeds are derived per rank through the chaotic-map seeder of §III-B3.
//!
//! ## Cooperative mode
//!
//! Beyond the paper, [`CooperativeRunner`] runs the same walks *cooperatively*: every
//! `exchange_interval` iterations the globally best configuration is shared and
//! adopted by lagging walks ([`adaptive_search::Engine::inject_candidate`]), and a
//! stagnating job performs coordinated restarts
//! ([`adaptive_search::Engine::schedule_restart`]).  All three substrates are
//! supported — OS threads (shared elite pool), `mpi-sim` ranks
//! ([`mpi_sim::collectives::allreduce_min`] rounds) and the virtual cluster
//! (deterministic interleaved exchange on the virtual clock).
//!
//! **Use cooperation judiciously.**  Elite exchange helps on deep, hard instances
//! where a low intermediate cost signals genuine progress towards a solution, and it
//! makes coordinated diversification possible at cluster scale.  On small instances
//! it tends to *hurt*: the independent min-of-K effect already collapses the runtime
//! distribution (the paper's linear speed-ups rely exactly on the K walks being
//! i.i.d.), and adopting a shared elite correlates the walks, shrinking the effective
//! number of independent samples the minimum is taken over.  The
//! `coop_vs_independent` harness in the `bench` crate measures the ratio per core
//! count so the decision can be made from data.

pub mod campaign;
pub mod cooperative;
pub mod mpi_runner;
pub mod platform;
pub mod thread_runner;
pub mod virtual_cluster;
pub mod walker;

pub use campaign::{Campaign, CampaignError, CampaignSpec};
pub use cooperative::{CoopConfig, CoopResult, CooperativeRunner};
pub use mpi_runner::MpiRunner;
pub use platform::PlatformProfile;
pub use thread_runner::{MultiWalkResult, RunControls, ThreadRunner};
pub use virtual_cluster::{SimulatedRun, VirtualCluster};
pub use walker::WalkSpec;

#[cfg(test)]
mod tests {
    use super::*;
    use costas::is_costas_permutation;

    #[test]
    fn thread_runner_end_to_end() {
        let spec = WalkSpec::costas(12);
        let runner = ThreadRunner::new(spec, 4);
        let result = runner.run(2024, &RunControls::default());
        assert!(result.solved());
        assert!(is_costas_permutation(result.solution.as_ref().unwrap()));
    }
}
