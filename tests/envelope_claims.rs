//! Integration tests of the paper's envelope-level claims, run at a
//! reduced simulation budget. Each test encodes one conclusion from the
//! paper's §3–§8; EXPERIMENTS.md records the same checks at full budget.

use two_level_cache::area::{AreaModel, CellKind};
use two_level_cache::study::configspace::{full_space, single_level_configs, SpaceOptions};
use two_level_cache::study::envelope::{envelope_at, mean_improvement};
use two_level_cache::study::report::envelope_of;
use two_level_cache::study::runner::{default_threads, sweep_threads};
use two_level_cache::study::{DesignPoint, L2Policy, SimBudget};
use two_level_cache::timing::TimingModel;
use two_level_cache::trace::spec::SpecBenchmark;

fn budget() -> SimBudget {
    SimBudget { instructions: 250_000, warmup_instructions: 120_000 }
}

fn run_space(opts: &SpaceOptions, b: SpecBenchmark) -> Vec<DesignPoint> {
    let timing = TimingModel::paper();
    let area = AreaModel::new();
    sweep_threads(&full_space(opts), b, budget(), &timing, &area, default_threads())
}

fn run_singles(opts: &SpaceOptions, b: SpecBenchmark) -> Vec<DesignPoint> {
    let timing = TimingModel::paper();
    let area = AreaModel::new();
    sweep_threads(&single_level_configs(opts), b, budget(), &timing, &area, default_threads())
}

#[test]
fn single_level_tpi_minimum_is_interior() {
    // §3: every workload's single-level TPI has a minimum between 8KB and
    // 128KB — neither the smallest nor the largest cache wins.
    for b in SpecBenchmark::ALL {
        let pts = run_singles(&SpaceOptions::baseline(), b);
        let best = pts
            .iter()
            .min_by(|x, y| x.tpi_ns.partial_cmp(&y.tpi_ns).expect("no NaN"))
            .expect("nonempty");
        let kb = best.machine.l1_size_bytes / 1024;
        assert!((8..=128).contains(&kb), "{b}: minimum at {kb}KB, paper says 8KB–128KB");
    }
}

#[test]
fn fig5_singles_dominate_small_areas() {
    // §4: "single-level configurations tend to dominate the performance
    // envelope for areas below about 300,000 rbe's."
    let pts = run_space(&SpaceOptions::baseline(), SpecBenchmark::Gcc1);
    for e in envelope_of(&pts) {
        if e.area < 300_000.0 {
            assert!(
                pts[e.index].machine.l2.is_none(),
                "two-level {} on the small-area envelope at {:.0} rbe",
                pts[e.index].label,
                e.area
            );
        }
    }
}

#[test]
fn fig5_vs_fig17_longer_offchip_helps_two_level() {
    // §7: "for every workload, the 'distance' between the single-level
    // and two-level best-performance envelopes is larger when the
    // off-chip time is 200ns."
    let gap = |offchip: f64| {
        let opts = SpaceOptions { offchip_ns: offchip, ..SpaceOptions::baseline() };
        let pts = run_space(&opts, SpecBenchmark::Gcc1);
        let singles: Vec<DesignPoint> =
            pts.iter().filter(|p| p.machine.l2.is_none()).cloned().collect();
        mean_improvement(&envelope_of(&pts), &envelope_of(&singles))
    };
    let g50 = gap(50.0);
    let g200 = gap(200.0);
    assert!(
        g200 > g50,
        "two-level advantage must grow with off-chip time: 50ns {g50:.4}, 200ns {g200:.4}"
    );
}

#[test]
fn fig17_small_caches_pay_3x_at_200ns() {
    // §7: "A system with 1KB on-chip caches pays a penalty of about 3X in
    // run time, as compared to a machine with 50ns off-chip service
    // times."
    let p50 = run_singles(&SpaceOptions::baseline(), SpecBenchmark::Gcc1);
    let p200 = run_singles(
        &SpaceOptions { offchip_ns: 200.0, ..SpaceOptions::baseline() },
        SpecBenchmark::Gcc1,
    );
    let ratio_1k = p200[0].tpi_ns / p50[0].tpi_ns;
    assert!((2.0..4.5).contains(&ratio_1k), "1KB 200ns/50ns TPI ratio {ratio_1k:.2} (paper ~3x)");
    // Large two-level systems are much less affected.
    let last50 = p50.last().expect("nonempty").tpi_ns;
    let last200 = p200.last().expect("nonempty").tpi_ns;
    assert!(last200 / last50 < ratio_1k, "big caches must be hurt less by slow memory");
}

#[test]
fn exclusive_envelope_not_worse_than_conventional() {
    // §8: exclusive caching "was also found to improve the performance of
    // two-level on-chip caching."
    for b in [SpecBenchmark::Gcc1, SpecBenchmark::Li] {
        let conv = run_space(&SpaceOptions::baseline(), b);
        let excl = run_space(
            &SpaceOptions { l2_policy: L2Policy::Exclusive, ..SpaceOptions::baseline() },
            b,
        );
        let gain = mean_improvement(&envelope_of(&excl), &envelope_of(&conv));
        assert!(
            gain > -0.01,
            "{b}: exclusive envelope must not lose to conventional (gain {gain:.4})"
        );
    }
}

#[test]
fn exclusive_dm_l2_competitive_with_conventional_4way() {
    // §8: "for gcc1 the exclusive caching scheme with a direct-mapped
    // second-level cache performs about as well as a system that ... uses
    // a 4-way set-associative second-level cache."
    let conv4 = run_space(&SpaceOptions::baseline(), SpecBenchmark::Gcc1);
    let excl_dm = run_space(
        &SpaceOptions { l2_ways: 1, l2_policy: L2Policy::Exclusive, ..SpaceOptions::baseline() },
        SpecBenchmark::Gcc1,
    );
    // Compare the two envelopes where they overlap: within a few percent.
    let env_c = envelope_of(&conv4);
    let env_e = envelope_of(&excl_dm);
    let mut worst: f64 = 0.0;
    for p in &env_c {
        if let Some(tpi_e) = envelope_at(&env_e, p.area) {
            worst = worst.max((tpi_e / p.tpi - 1.0).abs());
        }
    }
    assert!(
        worst < 0.10,
        "exclusive-DM vs conventional-4way envelopes diverge by {:.1}%",
        worst * 100.0
    );
}

#[test]
fn dual_ported_crossover_exists() {
    // §6: "the base cell is preferred for small caches, while for larger
    // caches, the dual-ported cell gives a better performance for a fixed
    // area. The cross-over point ranges from 50,000 rbe's to 400,000
    // rbe's."
    let base = run_singles(&SpaceOptions::baseline(), SpecBenchmark::Espresso);
    let dual = run_singles(
        &SpaceOptions { l1_cell: CellKind::DualPorted, ..SpaceOptions::baseline() },
        SpecBenchmark::Espresso,
    );
    let env_base = envelope_of(&base);
    let env_dual = envelope_of(&dual);
    let crossover = env_dual
        .iter()
        .find(|p| envelope_at(&env_base, p.area).is_some_and(|t| p.tpi < t))
        .map(|p| p.area);
    let x = crossover.expect("dual-ported must overtake the base cell somewhere");
    assert!((30_000.0..2_000_000.0).contains(&x), "crossover at {x:.0} rbe is implausible");
}

#[test]
fn dual_ported_same_capacity_always_faster() {
    // §6: "Moving from a cache with single-ported cells to the
    // same-capacity cache with dual-ported cells, however, always
    // improves performance."
    let base = run_singles(&SpaceOptions::baseline(), SpecBenchmark::Gcc1);
    let dual = run_singles(
        &SpaceOptions { l1_cell: CellKind::DualPorted, ..SpaceOptions::baseline() },
        SpecBenchmark::Gcc1,
    );
    for (b, d) in base.iter().zip(&dual) {
        assert!(
            d.tpi_ns < b.tpi_ns,
            "{}: dual-ported {:.2} should beat single-ported {:.2} at equal capacity",
            b.label,
            d.tpi_ns,
            b.tpi_ns
        );
    }
}
