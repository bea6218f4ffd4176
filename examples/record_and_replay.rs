//! Record a workload to a trace file, replay it through a hierarchy, and
//! verify the replay reproduces the live run exactly.
//!
//! The 1993 study was trace-driven (§2.2); this repository's workloads
//! are synthetic, but the same harness accepts recorded traces — yours
//! included — via the `TLCITR01` instruction-trace format and
//! [`ReplaySource`].
//!
//! ```text
//! cargo run --release --example record_and_replay [-- /path/to/trace.bin]
//! ```
//!
//! With a path argument, the example replays *that* trace instead of
//! recording a synthetic one.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use two_level_cache::study::experiment::{simulate_source, SimBudget};
use two_level_cache::study::{L2Policy, MachineConfig};
use two_level_cache::trace::io::{read_instruction_trace, write_instruction_trace};
use two_level_cache::trace::spec::SpecBenchmark;
use two_level_cache::trace::ReplaySource;

fn main() -> std::io::Result<()> {
    let cfg = MachineConfig::two_level(4, 32, 4, L2Policy::Exclusive, 50.0);
    let budget = SimBudget { instructions: 200_000, warmup_instructions: 50_000 };
    let n_total = (budget.instructions + budget.warmup_instructions) as usize;

    let (records, name) = match std::env::args().nth(1) {
        Some(path) => {
            println!("replaying user trace {path}...");
            let recs = read_instruction_trace(BufReader::new(File::open(&path)?))?;
            (recs, path)
        }
        None => {
            // Record the li workload to a temporary trace file.
            let path = std::env::temp_dir().join("tlc_li_trace.bin");
            println!("recording {} instructions of li to {}...", n_total, path.display());
            let recs = SpecBenchmark::Li.workload().take_instructions(n_total);
            write_instruction_trace(BufWriter::new(File::create(&path)?), &recs)?;
            let size = std::fs::metadata(&path)?.len();
            println!(
                "trace file: {} bytes ({:.1} bytes/instruction)",
                size,
                size as f64 / n_total as f64
            );

            // Read it back — everything downstream uses only the file.
            let recs = read_instruction_trace(BufReader::new(File::open(&path)?))?;
            (recs, "li (recorded)".to_string())
        }
    };

    println!("replaying {} instructions from {name} through {cfg}...", records.len());
    let mut replay = ReplaySource::new(&name, records);
    let replay_stats = simulate_source(&cfg, &mut replay, budget);
    println!("replay : {replay_stats}");

    if name.starts_with("li") {
        // Cross-check against the live generator.
        let mut live = SpecBenchmark::Li.workload();
        let live_stats = simulate_source(&cfg, &mut live, budget);
        println!("live   : {live_stats}");
        assert_eq!(replay_stats, live_stats, "replay must reproduce the live run exactly");
        println!("replay == live: the trace file round-trips losslessly.");
    }
    Ok(())
}
