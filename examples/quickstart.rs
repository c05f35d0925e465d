//! Quickstart: solve a Costas Array Problem instance three ways.
//!
//! ```text
//! cargo run --release --example quickstart [order]
//! ```
//!
//! 1. Sequential Adaptive Search with the paper's configuration (§IV).
//! 2. Independent multi-walk across several threads, first solution wins (§V).
//! 3. An algebraic construction (Welch/Golomb) when one exists for the order, as a
//!    cross-check that search and construction agree on what "Costas" means.

use costas_lab::prelude::*;

fn main() {
    let order: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(14);
    let seed = 2012;

    println!("=== Costas Array Problem, order {order} ===\n");

    // 1. Sequential Adaptive Search.
    let result = SolveRequest::new("costas", order, seed)
        .run()
        .expect("costas is a registry key");
    let solution = result
        .solution
        .clone()
        .expect("sequential AS finds a solution");
    println!("Adaptive Search (sequential)");
    println!("  solution   : {:?}", solution);
    println!("  iterations : {}", result.stats.iterations);
    println!("  local min  : {}", result.stats.local_minima);
    println!("  resets     : {}", result.stats.resets);
    println!("  time       : {:.3} s", result.elapsed.as_secs_f64());
    assert!(is_costas_permutation(&solution));

    // Show the difference triangle of the solution, as in §IV-A of the paper.
    let array = CostasArray::try_new(solution).expect("validated above");
    println!("\n  grid:\n{}", indent(&array.to_grid_string(), 4));
    println!(
        "  difference triangle:\n{}",
        indent(&DifferenceTriangle::new(array.values()).to_string(), 4)
    );

    // 2. Independent multi-walk on real threads.
    let walks = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .max(2);
    let job = ThreadRunner::new(WalkSpec::costas(order), walks).run(seed, &RunControls::default());
    println!("Independent multi-walk ({walks} walks)");
    println!("  winner walk     : {:?}", job.winner);
    println!("  winner iterations: {:?}", job.winner_iterations());
    println!("  total iterations : {}", job.total_iterations());
    println!("  wall-clock       : {:.3} s", job.elapsed.as_secs_f64());
    assert!(job.solved());

    // 3. Algebraic construction, when available for this order.
    match costas_lab::costas::construction::any_construction(order) {
        Ok(constructed) => {
            println!("\nAlgebraic construction for order {order}: {constructed}");
            assert!(is_costas_permutation(constructed.values()));
        }
        Err(_) => {
            println!("\nNo Welch/Golomb construction exists for order {order} (search only).");
        }
    }

    if let Some(count) = costas_lab::costas::known_costas_count(order) {
        println!(
            "Published census: {count} Costas arrays of order {order} among {order}! permutations."
        );
    }
}

fn indent(text: &str, spaces: usize) -> String {
    let pad = " ".repeat(spaces);
    text.lines().map(|l| format!("{pad}{l}\n")).collect()
}
