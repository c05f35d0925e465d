//! The fixed-work check across runs.
//!
//! Every run of one binary on one workload, seed and `--seconds` must do
//! exactly the same work.  The first such run records its [`Fingerprint`]
//! under `.bench_scratch/ledger/` in the working directory; every later run
//! of the same binary compares against it and fails on a mismatch.  A
//! different binary (another build of the code) replaces the record.

use std::fs;
use std::path::PathBuf;

use crate::report::Fingerprint;
use crate::Args;

/// Directory (relative to the working directory) for the benchmark's own
/// scratch files.
pub const SCRATCH_DIR: &str = ".bench_scratch";

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Identity of the running binary: a hash of its bytes.
fn binary_id() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let bytes = fs::read(&exe).map_err(|e| format!("reading {}: {e}", exe.display()))?;
    Ok(fnv1a(&bytes))
}

pub fn check(args: &Args, fingerprint: &Fingerprint) -> Result<(), String> {
    let dir = PathBuf::from(SCRATCH_DIR).join("ledger");
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        args.seconds
    ));
    let binary = format!("binary={:016x}", binary_id()?);
    let work = format!(
        "iterations={} digest={:016x}",
        fingerprint.iterations, fingerprint.digest
    );
    if let Ok(recorded) = fs::read_to_string(&path) {
        if let Some(previous) = recorded.trim().strip_prefix(&format!("{binary} ")) {
            return if previous == work {
                Ok(())
            } else {
                Err(format!(
                    "work differs from an earlier run of this binary on seed {}: \
                     recorded {previous}, now {work}",
                    args.seed
                ))
            };
        }
    }
    fs::write(&path, format!("{binary} {work}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}
