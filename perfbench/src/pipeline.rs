//! The workloads' passes: the untraced pass (the program's own
//! multi-threaded entry points, timed end to end), the traced pass
//! (single-threaded, each layer's public functions timed from outside
//! in the runner's order), the exact reference, and the per-run
//! accuracy side computations.

use crate::inputs::{self, Bench};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;
use tlc_area::AreaModel;
use tlc_bench::{figures, Harness};
use tlc_cache::{HierarchyStats, MissStream, ReuseProfile};
use tlc_core::envelope::best_envelope;
use tlc_core::experiment::{
    capture_miss_stream, capture_miss_stream_segments, config_is_predictable, l2_config,
    simulate_arena, simulate_family, simulate_family_segments, DesignPoint, SimBudget,
};
use tlc_core::runner::{
    l1_groups, try_sweep_arena_threads, try_sweep_family_arena_threads,
    try_sweep_predict_arena_threads, try_sweep_sampled_threads, SweepError,
    MISS_STREAM_BYTES_LIMIT,
};
use tlc_core::sampling::{capture_phase_slices, combine_weighted, sample_source};
use tlc_core::{tpi, L2Policy, MachineConfig, MachineTiming};
use tlc_timing::TimingModel;
use tlc_trace::spec::SpecBenchmark;
use tlc_trace::{TraceArena, TraceReader, Workload};

/// What one pass produced: design points, or exhibit texts on
/// `repro-quick`. A failed unit leaves `None` in its slots.
#[derive(Debug, Default)]
pub struct Output {
    pub points: Vec<Option<DesignPoint>>,
    pub exhibits: Vec<(String, Option<String>)>,
}

/// End-to-end measurements of one untraced pass.
#[derive(Debug, Default)]
pub struct PassTimes {
    pub wall_s: f64,
    pub setup_s: f64,
    /// Simulated instructions × design points.
    pub sim_work: f64,
}

/// `repro-quick` set-ups timed per pass.
const QUICK_SETUP_REPS: usize = 5;

fn models() -> (TimingModel, AreaModel) {
    (TimingModel::paper(), AreaModel::new())
}

fn seeded_presets(seed: u64) -> Vec<Workload> {
    SpecBenchmark::ALL.iter().map(|&b| inputs::seeded_workload(b, seed)).collect()
}

fn trace_reader(path: &Path) -> TraceReader<BufReader<File>> {
    let file = File::open(path).expect("trace file written before the pass");
    TraceReader::new(BufReader::with_capacity(1 << 16, file), inputs::TRACE_PRESET.name())
        .expect("a valid TLCTRC01 header")
}

fn push_sweep(out: &mut Output, n: usize, result: Result<Vec<DesignPoint>, SweepError>) {
    match result {
        Ok(points) => out.points.extend(points.into_iter().map(Some)),
        Err(e) => {
            eprintln!("perfbench: sweep failed: {e}");
            out.points.extend((0..n).map(|_| None));
        }
    }
}

fn envelope(points: &[DesignPoint]) -> usize {
    let pts: Vec<(f64, f64)> = points.iter().map(|p| (p.area_rbe, p.tpi_ns)).collect();
    best_envelope(&pts).len()
}

/// Harness for `repro-quick`: the quick budget plus the seed's offset.
pub fn quick_harness(seed: u64, threads: usize) -> Harness {
    let mut h = Harness::quick().with_budget(inputs::quick_budget(seed));
    h.threads = threads;
    h
}

fn run_exhibit(id: &str, h: &Harness) -> Option<String> {
    catch_unwind(AssertUnwindSafe(|| figures::run(id, h))).ok().flatten()
}

/// One untraced pass of `bench`, as a user runs it, at `threads`.
pub fn untraced(bench: Bench, seed: u64, threads: usize, trace: &Path) -> (PassTimes, Output) {
    let mut out = Output::default();
    let mut times = PassTimes::default();
    match bench {
        Bench::PaperSweep | Bench::WidePredict => {
            let mut presets = seeded_presets(seed);
            let t0 = Instant::now();
            let (timing, area) = models();
            let configs = if bench == Bench::PaperSweep {
                inputs::paper_space()
            } else {
                inputs::wide_space()
            };
            let budget = SimBudget::standard();
            let arenas: Vec<TraceArena> =
                presets.iter_mut().map(|w| inputs::capture(w, budget)).collect();
            times.setup_s = t0.elapsed().as_secs_f64();
            for arena in arenas {
                let result = if bench == Bench::PaperSweep {
                    try_sweep_family_arena_threads(
                        &configs, &arena, budget, &timing, &area, threads,
                    )
                } else {
                    try_sweep_predict_arena_threads(
                        &configs, &arena, budget, &timing, &area, threads,
                    )
                };
                if let Ok(points) = &result {
                    envelope(points);
                }
                push_sweep(&mut out, configs.len(), result);
            }
            times.wall_s = t0.elapsed().as_secs_f64();
            let per_point = (budget.warmup_instructions + budget.instructions) as f64;
            times.sim_work = per_point * (configs.len() * SpecBenchmark::ALL.len()) as f64;
        }
        Bench::TraceSampled => {
            let t0 = Instant::now();
            let (timing, area) = models();
            let configs = inputs::paper_space();
            let mut reader = trace_reader(trace);
            let sample = sample_source(&mut reader, &inputs::sample_options());
            times.setup_s = t0.elapsed().as_secs_f64();
            let mut reader2 = trace_reader(trace);
            let slices = capture_phase_slices(&mut reader2, &sample, inputs::SAMPLE_WARMUP);
            let decode_failed = reader.take_error().or(reader2.take_error());
            let result = try_sweep_sampled_threads(&configs, &slices, &timing, &area, threads);
            if let Ok(points) = &result {
                envelope(points);
            }
            times.wall_s = t0.elapsed().as_secs_f64();
            times.sim_work = sample.instructions as f64 * configs.len() as f64;
            match decode_failed {
                Some(e) => {
                    eprintln!("perfbench: trace decode failed: {e}");
                    out.points.extend((0..configs.len()).map(|_| None));
                }
                None => push_sweep(&mut out, configs.len(), result),
            }
        }
        Bench::ReproQuick => {
            let completed = || tlc_obs::counters().get(tlc_obs::Counter::RunnerConfigsCompleted);
            // `repro` sets up only its harness, a few microseconds of
            // system calls that vary by half between runs. The set-up
            // timed here adds what every sweep exhibit starts from: a
            // quick-budget capture of each preset's stream, captured
            // and dropped one at a time so that peak RSS stays the
            // exhibits' own. It runs before, and apart from, `wall_s`,
            // QUICK_SETUP_REPS times; the median is kept.
            let mut setups: Vec<f64> = (0..QUICK_SETUP_REPS)
                .map(|_| {
                    let mut presets = seeded_presets(0);
                    let t = Instant::now();
                    let h = std::hint::black_box(quick_harness(seed, threads));
                    for w in &mut presets {
                        std::hint::black_box(inputs::capture(w, h.budget));
                    }
                    t.elapsed().as_secs_f64()
                })
                .collect();
            setups.sort_by(f64::total_cmp);
            times.setup_s = setups[setups.len() / 2];
            let before = completed();
            let t0 = Instant::now();
            let h = quick_harness(seed, threads);
            for id in figures::ALL_IDS {
                out.exhibits.push((id.to_string(), run_exhibit(id, &h)));
            }
            times.wall_s = t0.elapsed().as_secs_f64();
            let per_point = (h.budget.warmup_instructions + h.budget.instructions) as f64;
            times.sim_work = per_point * (completed() - before) as f64;
        }
    }
    (times, out)
}

/// Per-layer busy times and work counts of the traced pass, by metric
/// name.
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += v;
    }
    fn max(&mut self, name: &str, v: f64) {
        let e = self.0.entry(name.to_string()).or_insert(0.0);
        *e = e.max(v);
    }
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
    /// Times a closure, adding its seconds to `name`.
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let v = f();
        let dt = t.elapsed().as_secs_f64();
        self.add(name, dt);
        (v, dt)
    }
}

/// Groups member indices by (policy, ways, replacement), in first
/// appearance order — the runner's family partition.
fn families(configs: &[MachineConfig], idxs: &[usize]) -> Vec<Vec<usize>> {
    let mut fams: Vec<(_, Vec<usize>)> = Vec::new();
    for &i in idxs {
        let key = configs[i].l2.map(|s| (s.policy, s.ways, s.repl));
        match fams.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(i),
            None => fams.push((key, vec![i])),
        }
    }
    fams.into_iter().map(|(_, v)| v).collect()
}

/// Replays one family over `segments` (a single stream, or stitched
/// phase segments), recording the `filter_family` layer.
fn traced_family(
    l: &mut Layers,
    configs: &[MachineConfig],
    members: &[usize],
    segments: &[MissStream],
) -> Vec<Vec<HierarchyStats>> {
    let cfgs: Vec<MachineConfig> = members.iter().map(|&i| configs[i]).collect();
    let (per_seg, dt) = l.time("filter_family.replay_s", || {
        if segments.len() == 1 {
            vec![simulate_family(&cfgs, &segments[0])]
        } else {
            simulate_family_segments(&cfgs, segments)
        }
    });
    match cfgs[0].l2.map(|s| s.policy) {
        Some(L2Policy::Conventional) => l.add("filter_family.conventional_s", dt),
        Some(L2Policy::Exclusive) => l.add("filter_family.exclusive_s", dt),
        None => {}
    }
    l.add("filter_family.units", 1.0);
    let events: u64 = segments.iter().map(|s| s.len()).sum();
    let bytes: usize = segments.iter().map(|s| s.bytes()).sum();
    l.add("filter_family.member_events", (events * members.len() as u64) as f64);
    l.add("filter_family.bytes_read", bytes as f64);
    l.max("filter_family.max_unit_s", dt);
    per_seg
}

fn record_streams(l: &mut Layers, streams: &[MissStream], walked_bytes: usize) {
    l.add("filter.walks", 1.0);
    for s in streams {
        l.add("filter.refs_walked", s.l1_stats().total_refs() as f64);
        l.add("filter.events", s.len() as f64);
        l.add("filter.event_bytes", s.bytes() as f64);
    }
    l.add("filter.bytes_walked", walked_bytes as f64);
}

/// Derives timing/area/TPI for every simulated point (the `machine`
/// layer) and builds the envelope (the `envelope` layer).
fn traced_machine(
    l: &mut Layers,
    configs: &[MachineConfig],
    stats: Vec<Option<HierarchyStats>>,
    name: &str,
    timing: &TimingModel,
    area: &AreaModel,
    out: &mut Output,
) {
    let (points, _) = l.time("machine.derive_s", || {
        configs
            .iter()
            .zip(stats)
            .map(|(cfg, s)| {
                let s = s?;
                let t = MachineTiming::derive(cfg, timing, area);
                let tpi = tpi::tpi_ns(&s, &t);
                Some(DesignPoint {
                    machine: *cfg,
                    label: cfg.label(),
                    workload: name.to_string(),
                    area_rbe: t.area_rbe,
                    l1_cycle_ns: t.l1_cycle_ns,
                    l2_cycles: t.l2_cycles,
                    tpi_ns: tpi,
                    cpi: tpi::cpi(tpi, &t),
                    stats: s,
                })
            })
            .collect::<Vec<_>>()
    });
    l.add("machine.points", points.len() as f64);
    let done: Vec<DesignPoint> = points.iter().flatten().cloned().collect();
    l.time("envelope.build_s", || envelope(&done));
    out.points.extend(points);
}

/// One traced pass: single-threaded, each layer's public function timed
/// around its call. Returns the layers, the output (for parity with the
/// untraced pass), and the traced pass's own wall time.
pub fn traced(bench: Bench, seed: u64, trace: &Path) -> (Layers, Output, f64) {
    let mut l = Layers::default();
    let mut out = Output::default();
    if bench == Bench::TraceSampled {
        // A bare decode of the whole file: the `compact` layer alone,
        // outside the traced pipeline's wall time.
        let (decoded, _) = l.time("compact.decode_s", || {
            let mut r = trace_reader(trace);
            let mut n = 0u64;
            while let Ok(Some(_)) = r.try_next() {
                n += 1;
            }
            n
        });
        let trace_bytes = std::fs::metadata(trace).map(|m| m.len()).unwrap_or(0);
        l.add("compact.records", decoded as f64);
        l.add("compact.bytes", trace_bytes as f64);
    }
    let t0 = Instant::now();
    match bench {
        Bench::PaperSweep | Bench::WidePredict => {
            let mut presets = seeded_presets(seed);
            let (timing, area) = models();
            let configs = if bench == Bench::PaperSweep {
                inputs::paper_space()
            } else {
                inputs::wide_space()
            };
            let budget = SimBudget::standard();
            let groups = l1_groups(&configs);
            for w in &mut presets {
                let (arena, _) = l.time("arena.capture_s", || inputs::capture(w, budget));
                l.add("arena.records", arena.len() as f64);
                l.add("arena.bytes", arena.bytes() as f64);
                let mut stats: Vec<Option<HierarchyStats>> = vec![None; configs.len()];
                for ((l1, line), idxs) in &groups {
                    let stream = if idxs.len() < 2 {
                        None
                    } else {
                        let (s, _) = l.time("filter.capture_s", || {
                            capture_miss_stream(*l1, *line, &arena, budget, MISS_STREAM_BYTES_LIMIT)
                        });
                        if let Some(s) = &s {
                            record_streams(&mut l, std::slice::from_ref(s), arena.bytes());
                        }
                        s
                    };
                    let Some(stream) = stream else {
                        for &i in idxs {
                            l.add("filter.fallbacks", 1.0);
                            let (s, _) = l.time("filter.fallback_s", || {
                                simulate_arena(&configs[i], &arena, budget)
                            });
                            stats[i] = Some(s);
                        }
                        continue;
                    };
                    let replayed: Vec<usize> = if bench == Bench::WidePredict {
                        let (predictable, replayed): (Vec<usize>, Vec<usize>) =
                            idxs.iter().partition(|&&i| config_is_predictable(&configs[i]));
                        traced_predict(&mut l, &configs, &predictable, &stream, &mut stats);
                        l.add("predict.replayed_points", replayed.len() as f64);
                        replayed
                    } else {
                        idxs.clone()
                    };
                    for members in families(&configs, &replayed) {
                        let per_seg = traced_family(
                            &mut l,
                            &configs,
                            &members,
                            std::slice::from_ref(&stream),
                        );
                        for (m, &i) in members.iter().enumerate() {
                            stats[i] = Some(per_seg[0][m]);
                        }
                    }
                }
                traced_machine(&mut l, &configs, stats, arena.name(), &timing, &area, &mut out);
            }
        }
        Bench::TraceSampled => {
            let (timing, area) = models();
            let configs = inputs::paper_space();
            let (sample, _) = l.time("sampling.signature_s", || {
                sample_source(&mut trace_reader(trace), &inputs::sample_options())
            });
            let (slices, _) = l.time("sampling.slice_capture_s", || {
                capture_phase_slices(&mut trace_reader(trace), &sample, inputs::SAMPLE_WARMUP)
            });
            l.add("sampling.phases", slices.len() as f64);
            let replayed: u64 = slices.iter().map(|s| s.arena.len()).sum();
            l.add("sampling.replayed_frac", replayed as f64 / sample.instructions.max(1) as f64);
            let slice_bytes: usize = slices.iter().map(|s| s.arena.bytes()).sum();
            let mut stats: Vec<Option<HierarchyStats>> = vec![None; configs.len()];
            for ((l1, line), idxs) in &l1_groups(&configs) {
                let (segs, _) = l.time("filter.capture_s", || {
                    capture_miss_stream_segments(*l1, *line, &slices, MISS_STREAM_BYTES_LIMIT)
                });
                let Some(segs) = segs else {
                    for &i in idxs {
                        l.add("filter.fallbacks", 1.0);
                        let (s, _) = l.time("filter.fallback_s", || {
                            let parts: Vec<(f64, HierarchyStats)> = slices
                                .iter()
                                .map(|s| {
                                    (s.weight, simulate_arena(&configs[i], &s.arena, s.budget))
                                })
                                .collect();
                            combine_weighted(&parts)
                        });
                        stats[i] = Some(s);
                    }
                    continue;
                };
                record_streams(&mut l, &segs, slice_bytes);
                for members in families(&configs, idxs) {
                    let per_seg = traced_family(&mut l, &configs, &members, &segs);
                    l.time("sampling.combine_s", || {
                        for (m, &i) in members.iter().enumerate() {
                            let parts: Vec<(f64, HierarchyStats)> = per_seg
                                .iter()
                                .zip(&slices)
                                .map(|(row, slice)| (slice.weight, row[m]))
                                .collect();
                            stats[i] = Some(combine_weighted(&parts));
                        }
                    });
                }
            }
            let name = slices[0].arena.name().to_string();
            traced_machine(&mut l, &configs, stats, &name, &timing, &area, &mut out);
            let replay = l.get("filter.capture_s")
                + l.get("filter.fallback_s")
                + l.get("filter_family.replay_s")
                + l.get("sampling.combine_s");
            l.add("sampling.replay_s", replay);
        }
        Bench::ReproQuick => {
            let h = quick_harness(seed, 1);
            for id in figures::ALL_IDS {
                let (text, _) = l.time(&format!("figures.{id}_s"), || run_exhibit(id, &h));
                out.exhibits.push((id.to_string(), text));
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    (l, out, wall)
}

/// The predict layer for one L1 group: one reuse-distance profile, then
/// an analytical solve per member (as `simulate_predicted` does).
fn traced_predict(
    l: &mut Layers,
    configs: &[MachineConfig],
    members: &[usize],
    stream: &MissStream,
    stats: &mut [Option<HierarchyStats>],
) {
    if members.is_empty() {
        return;
    }
    let mut dm_sets: Vec<u64> = members
        .iter()
        .filter_map(|&i| {
            let c = &configs[i];
            c.l2.filter(|s| s.ways == 1).map(|s| s.size_bytes / c.line_bytes)
        })
        .collect();
    dm_sets.sort_unstable();
    dm_sets.dedup();
    let (profile, _) = l.time("predict.profile_s", || ReuseProfile::capture(stream, &dm_sets));
    l.add("predict.profile_events", stream.len() as f64);
    l.time("predict.solve_s", || {
        for &i in members {
            stats[i] = Some(match l2_config(&configs[i]).expect("valid L2 configuration") {
                None => profile.predict_single(stream),
                Some(l2) => profile.predict_conventional(stream, &l2),
            });
        }
    });
    l.add("predict.points", members.len() as f64);
}

/// The correctness reference for `bench` at `seed`: the per-access arena
/// engine on `paper-sweep`, exact family replay on `wide-predict` and
/// (over the whole trace) on `trace-sampled`, and a single-threaded run
/// of every exhibit on `repro-quick`.
pub fn reference(bench: Bench, seed: u64, threads: usize, trace: &Path) -> Output {
    let mut out = Output::default();
    let (timing, area) = models();
    match bench {
        Bench::PaperSweep | Bench::WidePredict => {
            let budget = SimBudget::standard();
            for mut w in seeded_presets(seed) {
                let arena = inputs::capture(&mut w, budget);
                let result = if bench == Bench::PaperSweep {
                    let configs = inputs::paper_space();
                    try_sweep_arena_threads(&configs, &arena, budget, &timing, &area, threads)
                } else {
                    let configs = inputs::wide_space();
                    try_sweep_family_arena_threads(
                        &configs, &arena, budget, &timing, &area, threads,
                    )
                };
                let n = if bench == Bench::PaperSweep { 90 } else { 450 };
                push_sweep(&mut out, n, result);
            }
        }
        Bench::TraceSampled => {
            let configs = inputs::paper_space();
            let arena = TraceArena::capture(&mut trace_reader(trace), u64::MAX);
            let budget = SimBudget { instructions: arena.len(), warmup_instructions: 0 };
            let result =
                try_sweep_family_arena_threads(&configs, &arena, budget, &timing, &area, threads);
            push_sweep(&mut out, configs.len(), result);
        }
        Bench::ReproQuick => {
            let h = quick_harness(seed, 1);
            for id in figures::ALL_IDS {
                out.exhibits.push((id.to_string(), run_exhibit(id, &h)));
            }
        }
    }
    out
}

/// The accuracy metrics' inputs, always on window 0 (seed 0) so the
/// figures describe the program's model rather than the seed's window:
/// `(approx, exact)` point sets, computed by the current program.
///
/// - `paper-sweep`: predict and the default exact engine over the
///   90-point space — what switching this space to the analytical
///   engine would cost; the exact rows hold the 32 KB anchors.
/// - `wide-predict`: the workload's own predict sweep, and the 32 KB
///   single-level anchor points on the same inputs (the grid has none).
/// - `trace-sampled`: the workload's own sampled sweep (its rows hold
///   the anchor for the trace's preset).
/// - `repro-quick`: as `paper-sweep`, on the quick-budget inputs.
pub fn accuracy(bench: Bench, threads: usize, trace: &Path) -> (Output, Output) {
    let (timing, area) = models();
    let mut approx = Output::default();
    let mut exact = Output::default();
    let space = inputs::paper_space();
    match bench {
        Bench::PaperSweep | Bench::ReproQuick => {
            let budget = if bench == Bench::PaperSweep {
                SimBudget::standard()
            } else {
                inputs::quick_budget(0)
            };
            for mut w in seeded_presets(0) {
                let arena = inputs::capture(&mut w, budget);
                let r = try_sweep_predict_arena_threads(
                    &space, &arena, budget, &timing, &area, threads,
                );
                push_sweep(&mut approx, space.len(), r);
                let r =
                    try_sweep_family_arena_threads(&space, &arena, budget, &timing, &area, threads);
                push_sweep(&mut exact, space.len(), r);
            }
        }
        Bench::WidePredict => {
            approx = untraced(bench, 0, threads, trace).1;
            let budget = SimBudget::standard();
            let anchor = [MachineConfig::single_level(32, 50.0)];
            for b in [SpecBenchmark::Espresso, SpecBenchmark::Eqntott, SpecBenchmark::Tomcatv] {
                let arena = inputs::capture(&mut inputs::seeded_workload(b, 0), budget);
                let r = try_sweep_arena_threads(&anchor, &arena, budget, &timing, &area, 1);
                push_sweep(&mut exact, 1, r);
            }
        }
        Bench::TraceSampled => approx = untraced(bench, 0, threads, trace).1,
    }
    (approx, exact)
}
