//! Design-space exploration: regenerate a Figure-5-style study for any
//! workload from the command line.
//!
//! Sweeps every configuration of the paper's space (single-level 1–256KB
//! plus all `L1:L2` pairs with `L2 ≥ 2×L1`) on the chosen workload and
//! prints the full scatter with the best-performance envelope marked,
//! exactly like the paper's figures.
//!
//! ```text
//! cargo run --release --example design_space -- gcc1
//! cargo run --release --example design_space -- tomcatv 200
//! ```
//!
//! The optional second argument is the off-chip miss service time in ns
//! (50 = with board-level cache, 200 = without; default 50).

use two_level_cache::area::AreaModel;
use two_level_cache::study::configspace::{full_space, SpaceOptions};
use two_level_cache::study::report::{envelope_table, points_table};
use two_level_cache::study::runner::{default_threads, try_sweep_threads};
use two_level_cache::study::SimBudget;
use two_level_cache::timing::TimingModel;
use two_level_cache::trace::spec::SpecBenchmark;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "gcc1".to_string());
    let offchip: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(50.0);

    let Some(benchmark) = SpecBenchmark::from_name(&name) else {
        eprintln!(
            "unknown workload {name:?}; choose one of: {}",
            SpecBenchmark::ALL.map(|b| b.name()).join(" ")
        );
        std::process::exit(2);
    };

    let timing = TimingModel::paper();
    let area = AreaModel::new();
    let opts = SpaceOptions { offchip_ns: offchip, ..SpaceOptions::baseline() };
    let configs = full_space(&opts);

    eprintln!("sweeping {} configurations on {benchmark}...", configs.len());
    let budget = SimBudget::standard();
    let points =
        match try_sweep_threads(&configs, benchmark, budget, &timing, &area, default_threads()) {
            Ok(points) => points,
            Err(e) => {
                eprintln!("sweep failed: {e}");
                std::process::exit(1);
            }
        };

    println!(
        "{}",
        points_table(
            &format!(
                "{benchmark}: {offchip}ns off-chip, 4-way conventional L2 (envelope marked *)"
            ),
            &points
        )
    );
    println!("{}", envelope_table("best performance envelope:", &points));
}
