//! Radar / sonar frequency-hop waveform design with Costas arrays.
//!
//! ```text
//! cargo run --release --example radar_waveform [order]
//! ```
//!
//! Costas arrays were invented (Costas, 1965/1984) to schedule the frequency hops of a
//! sonar/radar pulse train so that the waveform's *ambiguity function* has ideal
//! "thumbtack" behaviour: any non-zero combination of time shift and Doppler (frequency)
//! shift of the pattern coincides with the original in **at most one** pulse.  That is
//! exactly the distinct-difference-vectors property.
//!
//! This example builds a hop schedule for a requested number of pulses by solving the
//! CAP with Adaptive Search, then *verifies the radar-relevant property directly*: it
//! computes the full discrete cross-ambiguity table (number of coincidences for every
//! (delay, Doppler) offset) and checks that all sidelobes are ≤ 1, comparing against a
//! naive linear-sweep schedule whose ambiguity function is terrible.

use costas_lab::prelude::*;

/// Number of (time, frequency) coincidences between the hop pattern and itself shifted
/// by `dt` time slots and `df` frequency bins.
fn coincidences(pattern: &[usize], dt: i64, df: i64) -> usize {
    let n = pattern.len() as i64;
    let mut count = 0;
    for t in 0..n {
        let t_shifted = t + dt;
        if t_shifted < 0 || t_shifted >= n {
            continue;
        }
        let f = pattern[t as usize] as i64;
        let f_shifted = pattern[t_shifted as usize] as i64 + df;
        if f == f_shifted {
            count += 1;
        }
    }
    count
}

/// Largest sidelobe of the discrete ambiguity table (all (dt, df) ≠ (0, 0)).
fn max_sidelobe(pattern: &[usize]) -> usize {
    let n = pattern.len() as i64;
    let mut max = 0;
    for dt in -(n - 1)..n {
        for df in -(n - 1)..n {
            if dt == 0 && df == 0 {
                continue;
            }
            max = max.max(coincidences(pattern, dt, df));
        }
    }
    max
}

fn main() {
    let pulses: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(16);
    println!("=== Frequency-hop schedule for a {pulses}-pulse radar waveform ===\n");

    // Solve the CAP: column = time slot, value = frequency bin.
    let result = SolveRequest::new("costas", pulses, 7)
        .run()
        .expect("costas is a registry key");
    let schedule = result.solution.expect("Adaptive Search finds a schedule");
    println!("Costas hop schedule (time slot -> frequency bin):");
    for (slot, freq) in schedule.iter().enumerate() {
        println!("  t={slot:>2}  f={freq}");
    }
    println!(
        "\nfound in {} iterations / {:.3} s",
        result.stats.iterations,
        result.elapsed.as_secs_f64()
    );

    // Verify the thumbtack property.
    let costas_sidelobe = max_sidelobe(&schedule);
    println!("\nAmbiguity analysis");
    println!("  Costas schedule   : worst sidelobe = {costas_sidelobe} coincidence(s)");
    assert!(
        costas_sidelobe <= 1,
        "a Costas array must have all ambiguity sidelobes at most 1"
    );

    // Compare with the naive linearly increasing hop pattern (a chirp-like ladder):
    // shifting it by (dt, df) = (1, 1) realigns almost every pulse.
    let ladder: Vec<usize> = (1..=pulses).collect();
    let ladder_sidelobe = max_sidelobe(&ladder);
    println!("  linear sweep      : worst sidelobe = {ladder_sidelobe} coincidence(s)");
    println!(
        "\nThe Costas schedule keeps every delayed/Doppler-shifted copy nearly orthogonal\n\
         to the original ({}x lower worst-case ambiguity than the linear sweep).",
        ladder_sidelobe.max(1) / costas_sidelobe.max(1)
    );
}
