//! `e2ebench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Four fixed-work workloads drive the public APIs of `adaptive-search`,
//! `solverd` and `multiwalk` (see each module for what an op is):
//!
//! * `costas-tts` — sequential `SolveRequest::run` to solution on Costas arrays;
//! * `registry-walk` — fixed-step walks over four registry models;
//! * `solverd-mix` — a closed loop over one TCP connection into an in-process
//!   `solverd::Service`;
//! * `campaign` — rounds of a checkpointing Costas `multiwalk::Campaign`.
//!
//! The seed makes the inputs; `--seconds` sizes the work (ops scale with it),
//! so one binary, seed and `--seconds` always do exactly the same work.  The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  Every output check
//! that fails is printed to standard error and makes the exit code 1.

mod campaign;
mod costas_tts;
mod ledger;
mod registry_walk;
mod report;
mod solverd_mix;
mod traced;

use std::process::ExitCode;

use report::Run;

const USAGE: &str = "usage: e2ebench --workload <costas-tts|registry-walk|solverd-mix|campaign> \
     --seed <n> --seconds <s> --trace <0|1>";

/// The command line, checked.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CostasTts,
    RegistryWalk,
    SolverdMix,
    Campaign,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::CostasTts,
        Workload::RegistryWalk,
        Workload::SolverdMix,
        Workload::Campaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CostasTts => "costas-tts",
            Workload::RegistryWalk => "registry-walk",
            Workload::SolverdMix => "solverd-mix",
            Workload::Campaign => "campaign",
        }
    }
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} expects a non-negative integer, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => match number()? {
                    s @ 1..=3600 => seconds = Some(s),
                    _ => return Err("--seconds must be in 1..=3600".into()),
                },
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                },
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2ebench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut run: Run = match args.workload {
        Workload::CostasTts => costas_tts::run(&args),
        Workload::RegistryWalk => registry_walk::run(&args),
        Workload::SolverdMix => solverd_mix::run(&args),
        Workload::Campaign => campaign::run(&args),
    };
    if run.ops.is_empty() {
        run.errors.push("the run attempted no op".into());
        run.ops.push(report::Op {
            latency: run.wall,
            iterations: 0,
            ok: false,
        });
    }
    if let Err(message) = ledger::check(&args, &run.fingerprint) {
        run.errors.push(message);
    }
    for error in &run.errors {
        eprintln!("e2ebench: output check failed: {error}");
    }
    println!("{}", report::result_line(&args, &run));
    if run.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse("--workload solverd-mix --seed 7 --seconds 15 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::SolverdMix);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 15, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload campaign --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload campaign --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload campaign --seed 1 --seconds 1").is_err());
        assert!(parse("--workload campaign --seed").is_err());
    }
}
