//! Per-configuration arena sweep throughput over a real slice of the
//! design space: capture once and replay per configuration, and replay
//! alone against a shared capture. The capture amortises over the
//! configurations sharing it, so the benchmark sweeps the config count
//! too.
//!
//! The end-to-end and per-layer numbers of the whole pipeline come from
//! `python3 perfbench/run.py`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tlc_area::AreaModel;
use tlc_core::configspace::{full_space, SpaceOptions};
use tlc_core::experiment::{capture_benchmark, SimBudget};
use tlc_core::runner::{default_threads, try_sweep_arena_threads};
use tlc_core::L2Policy;
use tlc_timing::TimingModel;
use tlc_trace::spec::SpecBenchmark;

const BUDGET: SimBudget = SimBudget { instructions: 120_000, warmup_instructions: 30_000 };

fn bench_sweep_engines(c: &mut Criterion) {
    let timing = TimingModel::paper();
    let area = AreaModel::new();
    // Baseline (conventional) plus the paper's §8 exclusive variant:
    // the 90-configuration space a `repro` policy comparison sweeps.
    let mut space = full_space(&SpaceOptions::baseline());
    space.extend(full_space(&SpaceOptions {
        l2_policy: L2Policy::Exclusive,
        ..SpaceOptions::baseline()
    }));
    let threads = default_threads();
    let mut group = c.benchmark_group("sweep_150k_instructions");

    for n in [8usize, 32, space.len()] {
        let configs = &space[..n.min(space.len())];
        let instructions =
            (BUDGET.warmup_instructions + BUDGET.instructions) * configs.len() as u64;
        group.throughput(Throughput::Elements(instructions));
        group.bench_function(BenchmarkId::new("arena_capture_and_replay", configs.len()), |b| {
            b.iter(|| {
                let arena = capture_benchmark(SpecBenchmark::Espresso, BUDGET);
                try_sweep_arena_threads(configs, &arena, BUDGET, &timing, &area, threads)
            })
        });
    }

    // Replay alone, against a pre-built capture: the steady-state cost
    // when one arena is shared across several sweeps (CSV export does
    // four sweeps per capture).
    let arena = capture_benchmark(SpecBenchmark::Espresso, BUDGET);
    let configs = &space[..];
    group.throughput(Throughput::Elements(
        (BUDGET.warmup_instructions + BUDGET.instructions) * configs.len() as u64,
    ));
    group.bench_function(BenchmarkId::new("arena_replay_only", configs.len()), |b| {
        b.iter(|| try_sweep_arena_threads(configs, &arena, BUDGET, &timing, &area, threads))
    });
    group.finish();
}

criterion_group!(benches, bench_sweep_engines);
criterion_main!(benches);
