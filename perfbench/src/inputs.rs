//! Workload definitions and seeded input generation.
//!
//! The seed only selects *which window* of each preset's deterministic
//! stream the program sees: the generator is advanced by a seed-derived
//! number of instructions before capture, outside any timed region, so
//! the program receives nothing but the generated inputs. Seed 0 skips
//! nothing and reproduces `capture_benchmark` byte for byte.

use std::io::{BufWriter, Write};
use std::path::Path;
use tlc_core::configspace::{full_space, SpaceOptions};
use tlc_core::experiment::SimBudget;
use tlc_core::sampling::SampleOptions;
use tlc_core::{L2Policy, MachineConfig};
use tlc_trace::compact::CompactTraceWriter;
use tlc_trace::spec::SpecBenchmark;
use tlc_trace::{TraceArena, Workload};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// Seven presets over the paper's 90-point space, exact family engine.
    PaperSweep,
    /// Seven presets over the 450-point scaling grid, predict engine.
    WidePredict,
    /// One long on-disk trace, phase-sampled, 90-point space.
    TraceSampled,
    /// Every exhibit of the reproduction at the quick budget.
    ReproQuick,
}

impl Bench {
    pub fn parse(name: &str) -> Option<Bench> {
        Some(match name {
            "paper-sweep" => Bench::PaperSweep,
            "wide-predict" => Bench::WidePredict,
            "trace-sampled" => Bench::TraceSampled,
            "repro-quick" => Bench::ReproQuick,
            _ => return None,
        })
    }
}

/// Distinct input windows a seed can select. Seeds map onto a fixed set
/// of windows so every window's exact reference is computed once per
/// checkout (and window 0's is committed), not once per seed.
pub const WINDOWS: u64 = 8;

/// Instructions between consecutive windows: the last window starts
/// 875K instructions in, within half a standard budget of the first.
const WINDOW_STRIDE: u64 = 125_000;

/// SplitMix64 finaliser: decorrelates consecutive seeds.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The input window `seed` selects (window 0 for seed 0).
pub fn window_for(seed: u64) -> u64 {
    if seed == 0 {
        0
    } else {
        mix(seed) % WINDOWS
    }
}

/// Instructions skipped before capture for `seed` (0 for seed 0).
pub fn skip_for(seed: u64) -> u64 {
    window_for(seed) * WINDOW_STRIDE
}

/// The preset's stream, advanced past the seed's window offset.
pub fn seeded_workload(b: SpecBenchmark, seed: u64) -> Workload {
    let mut w = b.workload();
    for _ in 0..skip_for(seed) {
        w.next_instruction();
    }
    w
}

/// Captures one budget's worth of a seeded preset window. The caller
/// passes a workload already advanced by [`seeded_workload`] so that
/// only the capture itself lands in a timed region.
pub fn capture(w: &mut Workload, budget: SimBudget) -> TraceArena {
    TraceArena::capture(w, budget.warmup_instructions + budget.instructions)
}

/// The paper's §4 full space, conventional then exclusive (90 points,
/// 4-way pseudo-random L2, 50 ns off-chip), as `tlc sweep` enumerates it.
pub fn paper_space() -> Vec<MachineConfig> {
    let mut configs = full_space(&SpaceOptions::baseline());
    configs.extend(full_space(&SpaceOptions {
        l2_policy: L2Policy::Exclusive,
        ..SpaceOptions::baseline()
    }));
    configs
}

/// The 450-point conventional scaling grid: 3 L1 groups (1, 2, 4 KB),
/// L2 sizes 256 B – 64 MB, 1–256 ways where the geometry admits them.
/// Many L2 points per L1 group is what makes the predictor pay.
pub fn wide_space() -> Vec<MachineConfig> {
    let mut v = Vec::new();
    'grid: for l1_kb in [1u64, 2, 4] {
        for i in 0..19u32 {
            let l2_bytes = 256u64 << i;
            for ways in [1u32, 2, 4, 8, 16, 32, 64, 128, 256] {
                if u64::from(ways) <= l2_bytes / 16 {
                    let mut c =
                        MachineConfig::two_level(l1_kb, 1, ways, L2Policy::Conventional, 50.0);
                    c.l2.as_mut().expect("two-level").size_bytes = l2_bytes;
                    v.push(c);
                    if v.len() == 450 {
                        break 'grid;
                    }
                }
            }
        }
    }
    v
}

/// Preset of the `trace-sampled` workload's on-disk trace.
pub const TRACE_PRESET: SpecBenchmark = SpecBenchmark::Eqntott;

/// Length of the on-disk trace: ten times a standard per-preset stream.
pub const TRACE_INSTRUCTIONS: u64 = 20_000_000;

/// Phase-sampling parameters (interval = a tenth of the standard
/// measured budget, as the repository's sampled-sweep guidance uses).
/// Slice capture reads the trace up to the last representative, so
/// with few phases its cost follows where that one falls: 37–100 % of
/// the trace across the windows at 5 phases, 93–99 % at 16.
pub fn sample_options() -> SampleOptions {
    SampleOptions { interval: 150_000, phases: 16, seed: 0xC1 }
}

/// Warm-up prefix replayed before each representative slice.
pub const SAMPLE_WARMUP: u64 = 75_000;

/// Writes the `trace-sampled` input: the seeded window of the preset
/// as a `TLCTRC01` compact trace. Returns the file size in bytes.
pub fn write_trace(path: &Path, seed: u64) -> std::io::Result<u64> {
    let mut w = seeded_workload(TRACE_PRESET, seed);
    let file = std::fs::File::create(path)?;
    let mut out = CompactTraceWriter::new(BufWriter::with_capacity(1 << 20, file))?;
    for _ in 0..TRACE_INSTRUCTIONS {
        out.write(&w.next_instruction())?;
    }
    let mut inner = out.into_inner()?;
    inner.flush()?;
    let file = inner.into_inner().map_err(|e| e.into_error())?;
    file.sync_all()?;
    Ok(file.metadata()?.len())
}

/// The `repro-quick` budget: `Harness::quick()`'s, plus a small
/// window-derived number of measured instructions (none for seed 0),
/// at most 1.2 % of the quick budget so that the seed moves the
/// workload's cost by less than its run-to-run noise.
pub fn quick_budget(seed: u64) -> SimBudget {
    let mut b = SimBudget::quick();
    b.instructions += window_for(seed) * 256;
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_core::experiment::capture_benchmark;

    fn records(a: &TraceArena) -> Vec<tlc_trace::InstructionRecord> {
        a.replay().collect()
    }

    #[test]
    fn seed_zero_reproduces_capture_benchmark() {
        let budget = SimBudget { instructions: 40_000, warmup_instructions: 10_000 };
        for b in SpecBenchmark::ALL {
            let ours = capture(&mut seeded_workload(b, 0), budget);
            let theirs = capture_benchmark(b, budget);
            assert_eq!(ours.name(), theirs.name());
            assert_eq!(ours.len(), theirs.len());
            assert_eq!(ours.bytes(), theirs.bytes());
            assert!(records(&ours) == records(&theirs), "{} differs at seed 0", b.name());
        }
    }

    #[test]
    fn other_seeds_select_other_windows() {
        let budget = SimBudget { instructions: 5_000, warmup_instructions: 0 };
        let b = SpecBenchmark::Li;
        let seed = (1..).find(|&s| window_for(s) != 0).expect("some seed leaves window 0");
        assert!(skip_for(seed) > 0);
        assert!((1..64).all(|s| window_for(s) < WINDOWS));
        let a = records(&capture(&mut seeded_workload(b, seed), budget));
        let z = records(&capture(&mut seeded_workload(b, 0), budget));
        assert!(a != z);
        let again = records(&capture(&mut seeded_workload(b, seed), budget));
        assert!(a == again, "a seed must always give the same window");
    }

    #[test]
    fn spaces_have_their_documented_sizes() {
        assert_eq!(paper_space().len(), 90);
        assert_eq!(wide_space().len(), 450);
        assert_eq!(quick_budget(0), SimBudget::quick());
    }
}
