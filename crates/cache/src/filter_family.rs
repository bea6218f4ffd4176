//! Family-batched replay: one pass over a miss stream drives *every* L2
//! size of a configuration family at once.
//!
//! The design spaces of the paper vary, for a fixed L1, only the L2
//! *capacity* (§2.1: L2 from 2×L1 up to 256KB, same 16B lines, same
//! associativity). [`L2Family`] decodes each packed 17-byte event of a
//! captured [`MissStream`] once and fans it into N members, each a plain
//! [`Cache`] — its own ways, replacement state, [`Lfsr16`], hit counts
//! and liveness tallies — stepped by the very policy code the per-access
//! hierarchies run (`conventional_l2_step`, `exclusive_l2_step`). A
//! family of one member is the per-configuration replay; there is no
//! separate scalar back-end.
//!
//! [`Lfsr16`]: crate::Lfsr16
//!
//! ## Why batching preserves the bit-exact contract
//!
//! Each member's L2 observes the same event sequence it would see alone:
//! the batched loop applies one event to every member before moving on,
//! and members never share mutable state. A member *is* the L2 `Cache`
//! of the monolithic hierarchy, driven through the same L2 step, so its
//! stamp clocks, tree bits, RRPVs and pseudo-random LFSR draws evolve
//! exactly as in a standalone hierarchy — by construction, not by a
//! replica kept in step. Members may even mix replacement policies: each
//! cache is built from its own member's configuration. The exclusive
//! policy's per-L1-set fill-dirty mirror must also be per member — its
//! entries come out of the member's own L2 extracts, whose dirty bits
//! depend on L2 capacity — so it is carried per configuration, not once
//! per family (see `docs/models.md`).
//!
//! ## The direct-mapped fast path
//!
//! For a conventional family of direct-mapped L2s the batched loop
//! collapses further: nested power-of-two DM caches index with prefix
//! bits, and demand-filled content is *inclusive* across sizes (resident
//! at size S ⇒ resident at 2S), so one "smallest hitting size" threshold
//! per access answers the whole family. Hits and victim writebacks then
//! accumulate into per-threshold histograms instead of per-member
//! counters — see `DmConventionalFamily` for the invariant. Replacement
//! policy is irrelevant at one way per set, so the fast path serves every
//! [`ReplacementKind`](crate::ReplacementKind).
//!
//! ## Segments
//!
//! A family walks one or more [`MissStream`] segments through **one**
//! persistent set of L2 states: segment `k` starts from the (stale)
//! contents segment `k-1` left behind, and each segment's warm-up prefix
//! refreshes that state before the counters reset at the segment's own
//! warm-up boundary. This is the L2 half of stitched warming for sampled
//! sweeps; a whole stream is simply a family's only segment.

use crate::cache::{Cache, Evicted, Liveness};
use crate::config::CacheConfig;
use crate::exclusive::{exclusive_l2_step, ExclusiveOutcome};
use crate::filter::{flush_l2_counters, walk_events, EventSink, MissStream};
use crate::stats::HierarchyStats;
use crate::twolevel::conventional_l2_step;
use tlc_trace::LineAddr;

/// One member of a two-level family: the member's L2 and its counters.
#[derive(Debug)]
struct Member {
    l2: Cache,
    /// Measured-window `l2_hits`, `l2_misses` and `offchip_writebacks`.
    stats: HierarchyStats,
    /// Lifetime Figure 21-a swaps (exclusive members, instrumented
    /// builds only). Never reset, like the LFSR draw count.
    swaps: u64,
    /// Exclusive members only (empty otherwise): per L1 set, "the current
    /// resident was filled from a dirty L2 extract" — `[L1D, L1I]`.
    mirror: [Vec<bool>; 2],
}

impl Member {
    fn new(cfg: &CacheConfig, l1_sets: usize) -> Self {
        Member {
            l2: Cache::new(*cfg),
            stats: HierarchyStats::default(),
            swaps: 0,
            mirror: [vec![false; l1_sets], vec![false; l1_sets]],
        }
    }

    fn counters(&self) -> (u64, u64, u64) {
        (self.stats.l2_hits, self.stats.l2_misses, self.stats.offchip_writebacks)
    }
}

/// Lifetime `(lfsr_draws, swaps, liveness)` summed over `members`.
fn lifetime(members: &[Member]) -> (u64, u64, Liveness) {
    let mut live = Liveness::default();
    for m in members {
        live.merge(m.l2.liveness());
    }
    let draws = members.iter().map(|m| m.l2.lfsr_draws()).sum();
    (draws, members.iter().map(|m| m.swaps).sum(), live)
}

/// Clears every member's measured counters at a warm-up boundary.
fn reset_members(members: &mut [Member]) {
    for m in members {
        m.stats = HierarchyStats::default();
    }
}

/// Batched conventional back-end: every member runs
/// [`conventional_l2_step`], the step behind
/// [`ConventionalTwoLevel`](crate::ConventionalTwoLevel).
#[derive(Debug)]
struct ConventionalFamily {
    members: Vec<Member>,
}

impl EventSink for ConventionalFamily {
    #[inline]
    fn consume(&mut self, _fetch: bool, line: LineAddr, victim: Option<(LineAddr, bool)>) {
        // A conventional L1 fills with the store bit only, so the
        // recorded written bit *is* the victim's dirty bit.
        let victim = victim.map(|(line, dirty)| Evicted { line, dirty });
        for m in &mut self.members {
            conventional_l2_step(&mut m.l2, line, victim, &mut m.stats);
        }
    }

    fn reset_counters(&mut self) {
        reset_members(&mut self.members);
    }
}

/// Batched exclusive back-end: every member runs [`exclusive_l2_step`],
/// the step behind [`ExclusiveTwoLevel`](crate::ExclusiveTwoLevel).
///
/// The one L2-dependent bit of L1 state is reconstructed here: when an
/// L1-miss/L2-hit fills the L1, the monolithic hierarchy marks the L1
/// line dirty if the extracted L2 copy was dirty. Each member keeps a
/// per-L1-set mirror (one bool per set per side, the L1 being
/// direct-mapped) of exactly that bit for the *current* resident; a
/// victim's true dirty bit is then `written || mirror[set]`, read before
/// the new fill overwrites the mirror entry (victim and filled line share
/// the set by construction). The mirror is carried **per member**: its
/// entries come out of the member's own L2 extracts, whose dirty bits
/// depend on that member's capacity (see the module docs).
#[derive(Debug)]
struct ExclusiveFamily {
    members: Vec<Member>,
    l1_set_mask: u64,
}

impl EventSink for ExclusiveFamily {
    #[inline]
    fn consume(&mut self, fetch: bool, line: LineAddr, victim: Option<(LineAddr, bool)>) {
        let set = (line.0 & self.l1_set_mask) as usize;
        for m in &mut self.members {
            let mirror = &mut m.mirror[fetch as usize];
            // The "L1 fill" of the shared step: hand back the recorded
            // victim with its fill-dirty component, read BEFORE this
            // fill's extract bit overwrites the set's mirror entry.
            let fill_l1 = |dirty| {
                let victim =
                    victim.map(|(line, written)| Evicted { line, dirty: written || mirror[set] });
                mirror[set] = dirty;
                victim
            };
            let outcome = exclusive_l2_step(&mut m.l2, line, fill_l1, &mut m.stats);
            if tlc_obs::ENABLED && outcome == ExclusiveOutcome::Swap {
                m.swaps += 1;
            }
        }
    }

    fn reset_counters(&mut self) {
        reset_members(&mut self.members);
    }
}

/// Batched conventional direct-mapped fast path.
///
/// Invariant (maintained inductively, sizes sorted ascending): a
/// demand-filled DM cache's set `s` holds exactly the most recent event
/// line in `s`'s conflict group, and nested power-of-two set masks nest
/// the conflict groups — so residency is *inclusive* across the family
/// (resident at size `k` ⇒ resident at every larger size). Each access
/// therefore has one threshold `t` = smallest size index that hits; the
/// event is a hit for every member `k ≥ t` and installs (evicting) for
/// every `k < t`. Victim merges get the same treatment with their own
/// threshold. Hits and victim writebacks accumulate into per-threshold
/// histograms (index `K` = "nowhere"), turned into per-member counters
/// by prefix sums at the end.
///
/// Dirty bits are *not* inclusive (an install at a small size clears the
/// bit a larger size preserves), so each size keeps its own direct-mapped
/// [`Cache`] as usual — and so its own hit counts and liveness tallies,
/// which follow that member's fill generations.
#[derive(Debug)]
struct DmConventionalFamily {
    /// Per size (ascending): the member's direct-mapped L2.
    caches: Vec<Cache>,
    /// `order[k]`: the input index of the `k`-th smallest member.
    order: Vec<usize>,
    /// `hit_hist[t]`: events whose smallest hitting size index is `t`.
    hit_hist: Vec<u64>,
    /// `vic_hist[t]`: written victims whose smallest resident size is `t`.
    vic_hist: Vec<u64>,
    /// Dirty evictions on install, per size.
    evict_wb: Vec<u64>,
}

impl DmConventionalFamily {
    fn new(l2_cfgs: &[CacheConfig]) -> Self {
        // Sort members by capacity (stably, so duplicates keep their
        // relative order); `counters` scatters back to input order.
        let mut order: Vec<usize> = (0..l2_cfgs.len()).collect();
        order.sort_by_key(|&i| l2_cfgs[i].size_bytes());
        let k = order.len();
        DmConventionalFamily {
            caches: order.iter().map(|&i| Cache::new(l2_cfgs[i])).collect(),
            order,
            hit_hist: vec![0; k + 1],
            vic_hist: vec![0; k + 1],
            evict_wb: vec![0; k],
        }
    }

    /// Smallest size index at which `line` is resident, or `len` if none.
    #[inline]
    fn threshold(&self, line: LineAddr) -> usize {
        self.caches.iter().position(|c| c.contains(line)).unwrap_or(self.caches.len())
    }

    /// Per-member `(l2_hits, l2_misses, offchip_writebacks)` in input
    /// order, by prefix sums over the threshold histograms.
    fn counters(&self) -> Vec<(u64, u64, u64)> {
        let total_hits: u64 = self.hit_hist.iter().sum();
        let total_vics: u64 = self.vic_hist.iter().sum();
        let mut hits = 0u64;
        let mut vics = 0u64;
        let mut out = vec![(0, 0, 0); self.order.len()];
        for (k, &i) in self.order.iter().enumerate() {
            hits += self.hit_hist[k];
            vics += self.vic_hist[k];
            out[i] = (hits, total_hits - hits, self.evict_wb[k] + (total_vics - vics));
        }
        out
    }
}

impl EventSink for DmConventionalFamily {
    #[inline]
    fn consume(&mut self, _fetch: bool, line: LineAddr, victim: Option<(LineAddr, bool)>) {
        let t = self.threshold(line);
        self.hit_hist[t] += 1;
        if tlc_obs::ENABLED {
            // Sizes at or above the threshold hit: a demand hit on each
            // member's resident generation, for the liveness tallies.
            for c in &mut self.caches[t..] {
                c.access(line, false);
            }
        }
        for (c, wb) in self.caches[..t].iter_mut().zip(&mut self.evict_wb) {
            if let Some(ev) = c.fill_after_miss(line, false) {
                *wb += ev.dirty as u64;
            }
        }
        if let Some((vline, true)) = victim {
            let tv = self.threshold(vline);
            self.vic_hist[tv] += 1;
            for c in &mut self.caches[tv..] {
                c.merge_if_present(vline, true);
            }
        }
    }

    fn reset_counters(&mut self) {
        self.hit_hist.iter_mut().for_each(|h| *h = 0);
        self.vic_hist.iter_mut().for_each(|h| *h = 0);
        self.evict_wb.iter_mut().for_each(|h| *h = 0);
    }
}

/// The single-level back-end for [`SingleLevel`](crate::SingleLevel):
/// every L1 miss is an off-chip demand fetch; a written victim is an
/// off-chip writeback. There is no L2 state, so one sink serves every
/// member of a single-level family.
#[derive(Debug, Default)]
struct SingleBack {
    misses: u64,
    writebacks: u64,
}

impl EventSink for SingleBack {
    #[inline]
    fn consume(&mut self, _fetch: bool, _line: LineAddr, victim: Option<(LineAddr, bool)>) {
        self.misses += 1;
        if let Some((_, true)) = victim {
            self.writebacks += 1;
        }
    }

    fn reset_counters(&mut self) {
        self.misses = 0;
        self.writebacks = 0;
    }
}

/// One family's back-end behind the per-segment interface
/// [`L2Family`] drives. Each implementation monomorphises its own event
/// walk, so dispatch is dynamic once per segment, never per event.
trait Family: EventSink + std::fmt::Debug {
    /// Walks one segment from the current L2 state, returning each
    /// member's `(l2_hits, l2_misses, offchip_writebacks)` counted since
    /// the segment's warm-up boundary, in input order.
    fn walk(&mut self, segment: &MissStream) -> Vec<(u64, u64, u64)>;

    /// Lifetime `(lfsr_draws, swaps, liveness)` summed over the members,
    /// or `None` when there is no L2 to probe (single-level).
    fn lifetime(&self) -> Option<(u64, u64, Liveness)>;
}

impl Family for SingleBack {
    fn walk(&mut self, segment: &MissStream) -> Vec<(u64, u64, u64)> {
        walk_events(self, segment);
        vec![(0, self.misses, self.writebacks)]
    }

    fn lifetime(&self) -> Option<(u64, u64, Liveness)> {
        None
    }
}

impl Family for DmConventionalFamily {
    fn walk(&mut self, segment: &MissStream) -> Vec<(u64, u64, u64)> {
        walk_events(self, segment);
        self.counters()
    }

    fn lifetime(&self) -> Option<(u64, u64, Liveness)> {
        // Direct-mapped members have no replacement choice: no draws.
        let mut live = Liveness::default();
        for c in &self.caches {
            live.merge(c.liveness());
        }
        Some((0, 0, live))
    }
}

impl Family for ConventionalFamily {
    fn walk(&mut self, segment: &MissStream) -> Vec<(u64, u64, u64)> {
        walk_events(self, segment);
        self.members.iter().map(Member::counters).collect()
    }

    fn lifetime(&self) -> Option<(u64, u64, Liveness)> {
        Some(lifetime(&self.members))
    }
}

impl Family for ExclusiveFamily {
    fn walk(&mut self, segment: &MissStream) -> Vec<(u64, u64, u64)> {
        walk_events(self, segment);
        self.members.iter().map(Member::counters).collect()
    }

    fn lifetime(&self) -> Option<(u64, u64, Liveness)> {
        Some(lifetime(&self.members))
    }
}

/// Validates a two-level family against the stream geometry and returns
/// its shared associativity.
///
/// # Panics
///
/// Panics if a member's line size differs from the stream's, or members
/// disagree on associativity (a family is one associativity, and the
/// direct-mapped fast path needs every member direct-mapped).
/// Replacement policies may differ per member — each member is its own
/// [`Cache`].
fn family_ways(l2_cfgs: &[CacheConfig], geometry: &MissStream) -> u32 {
    let ways = l2_cfgs.first().map_or(1, CacheConfig::ways);
    for cfg in l2_cfgs {
        assert_eq!(cfg.line_bytes(), geometry.line_bytes(), "L1 and L2 must share a line size");
        assert_eq!(cfg.ways(), ways, "family members disagree on associativity");
    }
    ways
}

/// One configuration family's persistent L2 state: every member's L2
/// (or none, single-level), walked over one or more [`MissStream`]
/// segments with each event decoded once for the whole family.
///
/// Build it with [`single`](L2Family::single),
/// [`conventional`](L2Family::conventional) or
/// [`exclusive`](L2Family::exclusive), call [`replay`](L2Family::replay)
/// once per segment in trace order, then [`finish`](L2Family::finish) to
/// flush the pass's `l2.*` counters. Each member's statistics are
/// bit-identical to the corresponding monolithic hierarchy's on the
/// reference stream the segments were captured from.
#[derive(Debug)]
pub struct L2Family {
    back: Box<dyn Family>,
    l1_size_bytes: u64,
    line_bytes: u64,
    /// Events walked so far, over every segment.
    events: u64,
    /// Measured counters summed over every segment and member.
    measured: HierarchyStats,
}

impl L2Family {
    fn with_back(back: Box<dyn Family>, geometry: &MissStream) -> Self {
        L2Family {
            back,
            l1_size_bytes: geometry.l1_size_bytes(),
            line_bytes: geometry.line_bytes(),
            events: 0,
            measured: HierarchyStats::default(),
        }
    }

    /// The single-level "family" for segments captured through the same
    /// L1 as `geometry`: there is no L2, so [`replay`](L2Family::replay)
    /// returns one statistics record that every single-level member
    /// shares.
    pub fn single(geometry: &MissStream) -> Self {
        L2Family::with_back(Box::<SingleBack>::default(), geometry)
    }

    /// A family of conventional L2s, one member per entry of `l2_cfgs`,
    /// for segments captured through the same L1 as `geometry`.
    ///
    /// A family of direct-mapped members takes the threshold/histogram
    /// fast path (`DmConventionalFamily`); any other associativity steps
    /// each member's [`Cache`] in turn. Every replacement policy is supported,
    /// and members may mix policies.
    ///
    /// # Panics
    ///
    /// Panics if a member's line size differs from `geometry`'s or the
    /// members disagree on associativity.
    pub fn conventional(l2_cfgs: &[CacheConfig], geometry: &MissStream) -> Self {
        let back: Box<dyn Family> = if family_ways(l2_cfgs, geometry) == 1 {
            Box::new(DmConventionalFamily::new(l2_cfgs))
        } else {
            let members = l2_cfgs.iter().map(|cfg| Member::new(cfg, 0)).collect();
            Box::new(ConventionalFamily { members })
        };
        L2Family::with_back(back, geometry)
    }

    /// A family of exclusive (victim-swap) L2s, one member per entry of
    /// `l2_cfgs`, for segments captured through the same L1 as
    /// `geometry`. Every replacement policy is supported, and members may
    /// mix policies.
    ///
    /// # Panics
    ///
    /// As [`conventional`](L2Family::conventional).
    pub fn exclusive(l2_cfgs: &[CacheConfig], geometry: &MissStream) -> Self {
        family_ways(l2_cfgs, geometry);
        let sets = geometry.l1_sets();
        let members = l2_cfgs.iter().map(|cfg| Member::new(cfg, sets)).collect();
        let l1_set_mask = sets as u64 - 1;
        L2Family::with_back(Box::new(ExclusiveFamily { members, l1_set_mask }), geometry)
    }

    /// Walks the next segment through the family's L2 state and returns
    /// one [`HierarchyStats`] per member, in input order (one shared
    /// record for [`single`](L2Family::single)): the segment's L1-side
    /// counters plus the member's measured L2 counters.
    ///
    /// # Panics
    ///
    /// Panics if the segment's L1 geometry differs from the family's.
    pub fn replay(&mut self, segment: &MissStream) -> Vec<HierarchyStats> {
        assert_eq!(segment.line_bytes(), self.line_bytes, "segments must share a line size");
        assert_eq!(segment.l1_size_bytes(), self.l1_size_bytes, "segments must share an L1 size");
        self.back.reset_counters();
        let counters = self.back.walk(segment);
        self.events += segment.len();
        counters
            .into_iter()
            .map(|(l2_hits, l2_misses, offchip_writebacks)| {
                self.measured.l2_hits += l2_hits;
                self.measured.l2_misses += l2_misses;
                self.measured.offchip_writebacks += offchip_writebacks;
                HierarchyStats { l2_hits, l2_misses, offchip_writebacks, ..*segment.l1_stats() }
            })
            .collect()
    }

    /// Ends the pass and flushes its totals to the global counters. The
    /// stream was decoded once (`l2.events_replayed` counts passes ×
    /// events, exposing the family's fan-in), while probes, hits, misses,
    /// writebacks and liveness sum over the members. A single-level pass
    /// contributes replayed events and off-chip writebacks but no probes
    /// (`l2.probes` counts real L2 lookups only, keeping the hits+misses
    /// invariant meaningful).
    pub fn finish(self) {
        match self.back.lifetime() {
            None => {
                tlc_obs::obs_count!(tlc_obs::Counter::L2EventsReplayed, self.events);
                tlc_obs::obs_count!(
                    tlc_obs::Counter::L2Writebacks,
                    self.measured.offchip_writebacks
                );
            }
            Some((draws, swaps, live)) => {
                flush_l2_counters(self.events, &self.measured, draws, swaps, live)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Associativity, ReplacementKind};
    use crate::filter::L1FrontEnd;
    use crate::hierarchy::MemorySystem;
    use crate::oracle::{naive_replay_conventional, naive_replay_exclusive, NaiveSystem};
    use crate::{ConventionalTwoLevel, ExclusiveTwoLevel};
    use tlc_trace::spec::SpecBenchmark;
    use tlc_trace::{Addr, InstructionSource, MemRef};

    fn l1_cfg(bytes: u64) -> CacheConfig {
        CacheConfig::new(bytes, 16, Associativity::Direct, ReplacementKind::PseudoRandom).unwrap()
    }

    fn l2_cfg(bytes: u64, ways: u32) -> CacheConfig {
        l2_policy_cfg(bytes, ways, ReplacementKind::PseudoRandom)
    }

    fn l2_policy_cfg(bytes: u64, ways: u32, repl: ReplacementKind) -> CacheConfig {
        let assoc = if ways == 1 { Associativity::Direct } else { Associativity::SetAssoc(ways) };
        CacheConfig::new(bytes, 16, assoc, repl).unwrap()
    }

    fn capture(b: SpecBenchmark, l1_bytes: u64, warm: u64, n: u64) -> MissStream {
        let mut fe = L1FrontEnd::new(l1_cfg(l1_bytes));
        let mut w = b.workload();
        for _ in 0..warm {
            fe.access_instruction(&w.next_instruction_opt().unwrap());
        }
        fe.reset_stats();
        for _ in 0..n {
            fe.access_instruction(&w.next_instruction_opt().unwrap());
        }
        fe.finish(b.name())
    }

    fn conventional(cfgs: &[CacheConfig], stream: &MissStream) -> Vec<HierarchyStats> {
        L2Family::conventional(cfgs, stream).replay(stream)
    }

    fn exclusive(cfgs: &[CacheConfig], stream: &MissStream) -> Vec<HierarchyStats> {
        L2Family::exclusive(cfgs, stream).replay(stream)
    }

    fn naive_conventional(cfg: &CacheConfig, stream: &MissStream) -> HierarchyStats {
        naive_replay_conventional(cfg.size_bytes(), cfg.ways(), cfg.replacement(), stream)
    }

    fn naive_exclusive(cfg: &CacheConfig, stream: &MissStream) -> HierarchyStats {
        naive_replay_exclusive(cfg.size_bytes(), cfg.ways(), cfg.replacement(), stream)
    }

    #[test]
    fn conventional_family_matches_naive_oracle() {
        for ways in [1u32, 4] {
            let stream = capture(SpecBenchmark::Gcc1, 1024, 2_000, 8_000);
            let cfgs: Vec<CacheConfig> =
                [2048u64, 4096, 8192, 32768].map(|b| l2_cfg(b, ways)).to_vec();
            let batched = conventional(&cfgs, &stream);
            for (cfg, got) in cfgs.iter().zip(&batched) {
                assert_eq!(*got, naive_conventional(cfg, &stream), "ways={ways} {cfg}");
            }
        }
    }

    #[test]
    fn exclusive_family_matches_naive_oracle() {
        for ways in [1u32, 4] {
            let stream = capture(SpecBenchmark::Li, 1024, 2_000, 8_000);
            let cfgs: Vec<CacheConfig> =
                [2048u64, 4096, 8192, 32768].map(|b| l2_cfg(b, ways)).to_vec();
            let batched = exclusive(&cfgs, &stream);
            for (cfg, got) in cfgs.iter().zip(&batched) {
                assert_eq!(*got, naive_exclusive(cfg, &stream), "ways={ways} {cfg}");
            }
        }
    }

    #[test]
    fn family_matches_naive_oracle_for_every_policy() {
        let conv_stream = capture(SpecBenchmark::Gcc1, 1024, 2_000, 8_000);
        let excl_stream = capture(SpecBenchmark::Li, 1024, 2_000, 8_000);
        for repl in ReplacementKind::ALL {
            for ways in [2u32, 4] {
                let cfgs: Vec<CacheConfig> =
                    [2048u64, 8192, 32768].map(|b| l2_policy_cfg(b, ways, repl)).to_vec();
                let conv = conventional(&cfgs, &conv_stream);
                let excl = exclusive(&cfgs, &excl_stream);
                for (cfg, (c, e)) in cfgs.iter().zip(conv.iter().zip(&excl)) {
                    assert_eq!(*c, naive_conventional(cfg, &conv_stream), "{repl} {cfg}");
                    assert_eq!(*e, naive_exclusive(cfg, &excl_stream), "{repl} {cfg}");
                }
            }
        }
    }

    #[test]
    fn mixed_policy_family_matches_naive_oracle() {
        // Members carry their own replacement banks, so one family can
        // mix policies freely.
        let stream = capture(SpecBenchmark::Espresso, 1024, 1_000, 6_000);
        let cfgs: Vec<CacheConfig> = ReplacementKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &r)| l2_policy_cfg(2048 << i, 4, r))
            .collect();
        let batched = conventional(&cfgs, &stream);
        for (cfg, got) in cfgs.iter().zip(&batched) {
            assert_eq!(*got, naive_conventional(cfg, &stream), "{cfg}");
        }
    }

    #[test]
    fn dm_fast_path_handles_unsorted_and_duplicate_sizes() {
        let stream = capture(SpecBenchmark::Espresso, 1024, 1_000, 6_000);
        let cfgs: Vec<CacheConfig> = [8192u64, 2048, 8192, 4096].map(|b| l2_cfg(b, 1)).to_vec();
        let batched = conventional(&cfgs, &stream);
        for (cfg, got) in cfgs.iter().zip(&batched) {
            assert_eq!(*got, naive_conventional(cfg, &stream), "{cfg}");
        }
        assert_eq!(batched[0], batched[2], "duplicate sizes share statistics");
    }

    #[test]
    fn dm_fast_path_misses_are_monotone_in_size() {
        let stream = capture(SpecBenchmark::Tomcatv, 1024, 1_000, 8_000);
        let cfgs: Vec<CacheConfig> =
            [2048u64, 4096, 8192, 16384, 32768].map(|b| l2_cfg(b, 1)).to_vec();
        let stats = conventional(&cfgs, &stream);
        for pair in stats.windows(2) {
            assert!(
                pair[1].l2_misses <= pair[0].l2_misses,
                "a bigger DM L2 can never miss more on the same stream"
            );
        }
    }

    #[test]
    fn warmup_boundary_resets_family_counters() {
        let stream = capture(SpecBenchmark::Fpppp, 1024, 3_000, 3_000);
        for cfgs in [[l2_cfg(4096, 4), l2_cfg(16384, 4)], [l2_cfg(4096, 1), l2_cfg(16384, 1)]] {
            let conv = conventional(&cfgs, &stream);
            let excl = exclusive(&cfgs, &stream);
            for (cfg, (c, e)) in cfgs.iter().zip(conv.iter().zip(&excl)) {
                assert_eq!(*c, naive_conventional(cfg, &stream));
                assert_eq!(*e, naive_exclusive(cfg, &stream));
                assert_eq!(c.instructions, 3_000);
            }
        }
    }

    #[test]
    fn stitched_segments_carry_l2_state() {
        // Two copies of one stream: the second segment starts warm, so a
        // big L2 misses less there than on a cold replay, while a lone
        // segment is exactly the whole-stream replay.
        let seg = || capture(SpecBenchmark::Gcc1, 1024, 0, 6_000);
        let cfgs = [l2_cfg(65536, 4)];
        let cold = conventional(&cfgs, &seg())[0];
        let mut fam = L2Family::conventional(&cfgs, &seg());
        assert_eq!(fam.replay(&seg())[0], cold);
        let warm = fam.replay(&seg())[0];
        assert!(warm.l2_misses < cold.l2_misses, "warm {warm:?} vs cold {cold:?}");
        assert_eq!(warm.instructions, cold.instructions);
    }

    #[test]
    fn empty_family_and_empty_window() {
        let stream = capture(SpecBenchmark::Li, 1024, 500, 0);
        assert!(conventional(&[], &stream).is_empty());
        assert!(exclusive(&[], &stream).is_empty());
        let cfgs = [l2_cfg(4096, 4)];
        assert_eq!(conventional(&cfgs, &stream)[0], HierarchyStats::default());
        assert_eq!(exclusive(&cfgs, &stream)[0], HierarchyStats::default());
        assert_eq!(L2Family::single(&stream).replay(&stream), vec![HierarchyStats::default()]);
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn rejects_mixed_associativity() {
        let stream = capture(SpecBenchmark::Li, 1024, 500, 500);
        let _ = L2Family::exclusive(&[l2_cfg(4096, 4), l2_cfg(8192, 2)], &stream);
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn rejects_mismatched_line_size() {
        let stream = capture(SpecBenchmark::Li, 1024, 500, 500);
        let wide_line =
            CacheConfig::new(4096, 32, Associativity::SetAssoc(4), ReplacementKind::Lru).unwrap();
        let _ = L2Family::conventional(&[wide_line], &stream);
    }

    #[test]
    #[should_panic(expected = "L1 size")]
    fn rejects_segment_from_another_l1() {
        let stream = capture(SpecBenchmark::Li, 1024, 500, 500);
        let other = capture(SpecBenchmark::Li, 2048, 500, 500);
        let _ = L2Family::conventional(&[l2_cfg(8192, 4)], &stream).replay(&other);
    }

    /// Drives `sys` through the same window [`capture`] records.
    fn drive<M: MemorySystem>(sys: &mut M, b: SpecBenchmark, warm: u64, n: u64) {
        let mut w = b.workload();
        for _ in 0..warm {
            sys.access_instruction(&w.next_instruction_opt().unwrap());
        }
        sys.reset_stats();
        for _ in 0..n {
            sys.access_instruction(&w.next_instruction_opt().unwrap());
        }
    }

    #[test]
    fn family_lifetime_counters_match_per_access_l2s() {
        // Draws and liveness come from each member's own `Cache`, so a
        // family's lifetime totals are the sum of the per-access
        // hierarchies' L2 counters — the DM fast path included.
        if !tlc_obs::ENABLED {
            return;
        }
        let stream = capture(SpecBenchmark::Gcc1, 1024, 2_000, 8_000);
        for repl in ReplacementKind::ALL {
            for ways in [1u32, 4] {
                let cfgs = [l2_policy_cfg(16384, ways, repl), l2_policy_cfg(4096, ways, repl)];
                for exclusive in [false, true] {
                    let mut fam = if exclusive {
                        L2Family::exclusive(&cfgs, &stream)
                    } else {
                        L2Family::conventional(&cfgs, &stream)
                    };
                    fam.replay(&stream);
                    let (draws, _, live) = fam.back.lifetime().unwrap();
                    let (mut want_draws, mut want_live) = (0, Liveness::default());
                    for cfg in &cfgs {
                        let (d, l) = if exclusive {
                            let mut sys = ExclusiveTwoLevel::new(l1_cfg(1024), *cfg);
                            drive(&mut sys, SpecBenchmark::Gcc1, 2_000, 8_000);
                            (sys.l2().lfsr_draws(), sys.l2().liveness())
                        } else {
                            let mut sys = ConventionalTwoLevel::new(l1_cfg(1024), *cfg);
                            drive(&mut sys, SpecBenchmark::Gcc1, 2_000, 8_000);
                            (sys.l2().lfsr_draws(), sys.l2().liveness())
                        };
                        want_draws += d;
                        want_live.merge(l);
                    }
                    let what = format!("{repl} {ways}-way exclusive={exclusive}");
                    assert_eq!((draws, live), (want_draws, want_live), "{what}");
                    assert_eq!(live.fills, live.dead_on_arrival + live.live_fills, "{what}");
                    assert!(live.multi_hit <= live.live_fills, "{what}");
                }
            }
        }
    }

    #[test]
    fn lines_at_the_top_of_the_address_space_do_not_alias() {
        // With 4-byte lines, 2^63 + 0x10 and 0x10 are lines 2^61 + 4 and
        // 4: distinct, and same-set in both levels. The packed way word
        // keeps them apart in every engine.
        let line = 4;
        let l1 = CacheConfig::new(64, line, Associativity::Direct, ReplacementKind::Lru).unwrap();
        let refs = [
            MemRef::store(Addr::new((1 << 63) + 0x10)),
            MemRef::load(Addr::new(0x10)),
            MemRef::load(Addr::new(u64::MAX)),
            MemRef::store(Addr::new(1 << 63)),
            MemRef::fetch(Addr::new(u64::MAX - 3)),
            MemRef::load(Addr::new((1 << 63) + 0x10)),
            MemRef::load(Addr::new(0x10)),
            MemRef::load(Addr::new(0)),
            MemRef::load(Addr::new(u64::MAX)),
            MemRef::fetch(Addr::new(0x3c)),
            MemRef::load(Addr::new(1 << 63)),
        ];
        for ways in [1u32, 4] {
            let repl = ReplacementKind::PseudoRandom;
            let assoc =
                if ways == 1 { Associativity::Direct } else { Associativity::SetAssoc(ways) };
            let l2 = CacheConfig::new(256, line, assoc, repl).unwrap();
            let mut fe = L1FrontEnd::new(l1);
            let mut conv = ConventionalTwoLevel::new(l1, l2);
            let mut excl = ExclusiveTwoLevel::new(l1, l2);
            let mut naive_conv = NaiveSystem::conventional(64, line, 256, ways, repl);
            let mut naive_excl = NaiveSystem::exclusive(64, line, 256, ways, repl);
            for r in refs {
                fe.access(r);
                conv.access(r);
                excl.access(r);
                naive_conv.access(r);
                naive_excl.access(r);
            }
            let stream = fe.finish("top");
            assert_eq!(conv.stats(), naive_conv.stats(), "{ways}-way conventional");
            assert_eq!(conventional(&[l2], &stream)[0], *naive_conv.stats(), "{ways}-way");
            assert_eq!(excl.stats(), naive_excl.stats(), "{ways}-way exclusive");
            assert_eq!(exclusive(&[l2], &stream)[0], *naive_excl.stats(), "{ways}-way");
            // The aliasing pair alone: two cold misses, no false hit.
            let mut fe = L1FrontEnd::new(l1);
            fe.access(refs[0]);
            fe.access(refs[1]);
            let pair = conventional(&[l2], &fe.finish("pair"))[0];
            assert_eq!((pair.l2_hits, pair.l2_misses), (0, 2), "{ways}-way");
        }
    }
}
