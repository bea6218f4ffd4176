//! Family-batched replay: one pass over a miss stream drives *every* L2
//! size of a configuration family at once.
//!
//! The design spaces of the paper vary, for a fixed L1, only the L2
//! *capacity* (§2.1: L2 from 2×L1 up to 256KB, same 16B lines, same
//! associativity). [`L2Family`] decodes each packed 17-byte event of a
//! captured [`MissStream`] once and fans it into N structure-of-arrays L2
//! states — per-configuration slot arrays, counters, a per-member
//! replacement bank (`ReplBank`) holding the policy words
//! (LRU/FIFO stamps, PLRU tree bits, SRRIP RRPVs) alongside the
//! `(line<<1)|dirty` slot words, and crucially a **per-configuration
//! [`Lfsr16`]**, so pseudo-random replacement draws happen in exactly the
//! order a standalone L2 would make them and every statistic stays
//! bit-identical to the monolithic hierarchies. A family of one member is
//! the per-configuration replay; there is no separate scalar back-end.
//!
//! ## Why batching preserves the bit-exact contract
//!
//! Each member's L2 observes the same event sequence it would see alone:
//! the batched loop applies one event to every member before moving on,
//! and members never share mutable state. Replacement state is a replica
//! of the scalar [`Cache`](crate::Cache)'s: the same `ReplBank` state
//! machines, driven by the same touch/fill/victim call sequence — so
//! stamp clocks, tree bits, and RRPVs evolve identically, and the only
//! stateful randomness (the pseudo-random LFSR, consulted *only* when a
//! set-associative fill finds no free way) is carried per member with the
//! same seed as a fresh `Cache`. Members may even mix replacement
//! policies: each bank is built from its own member's configuration. The
//! exclusive policy's per-L1-set fill-dirty mirror must also be per
//! member — its entries come out of the member's own L2 extracts, whose
//! dirty bits depend on L2 capacity — so it is carried per configuration,
//! not once per family (see `docs/models.md`).
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

use crate::cache::{LiveTally, Liveness, ReplBank};
use crate::config::CacheConfig;
use crate::filter::{flush_l2_counters, walk_events, EventSink, MissStream};
use crate::replacement::Lfsr16;
use crate::stats::HierarchyStats;
use tlc_trace::LineAddr;

/// Slot encoding: `(line << 1) | dirty`, with `u64::MAX` as the invalid
/// sentinel. `INVALID >> 1` is `2^63 - 1`, which can never equal a real
/// line address (lines are byte addresses divided by the line size), so
/// a single shifted compare tests "valid and tag matches".
const INVALID: u64 = u64::MAX;

/// One member's L2 array plus its private replacement bank, counters,
/// liveness tallies, and LFSR.
///
/// Slots are set-major (`slots[set * ways + way]`), matching
/// [`Cache`](crate::Cache)'s layout, but hold one packed `u64` per way
/// instead of a 16-byte `Way` struct: half the memory touched per probe.
/// The policy words live in the member's [`ReplBank`] — the same state
/// machines the scalar cache uses, so bit-compatibility holds by
/// construction.
#[derive(Debug)]
struct L2State {
    slots: Vec<u64>,
    set_mask: u64,
    repl: ReplBank,
    lfsr: Lfsr16,
    hits: u64,
    misses: u64,
    writebacks: u64,
    /// Lifetime LFSR victim draws (instrumented builds only; only
    /// pseudo-random members ever draw). Not touched by
    /// [`L2State::reset_counters`] — the LFSR itself is never reset,
    /// matching the scalar [`Cache`](crate::Cache) count.
    lfsr_draws: u64,
    /// Lifetime fig-21a swaps (instrumented exclusive families only;
    /// lifetime for the same reason as `lfsr_draws`).
    swaps: u64,
    /// Per-slot demand-hit counts since the slot's last fill, saturating
    /// at 255 (instrumented builds only; empty otherwise).
    hit_counts: Vec<u8>,
    /// Departed fill-generation tallies (see
    /// [`Liveness`](crate::Liveness)); lifetime, like `lfsr_draws`.
    live: LiveTally,
}

impl L2State {
    fn new(cfg: &CacheConfig) -> Self {
        let lines = cfg.lines() as usize;
        L2State {
            slots: vec![INVALID; lines],
            set_mask: cfg.num_sets() - 1,
            repl: ReplBank::new(cfg.replacement(), cfg.num_sets() as usize, cfg.ways() as usize),
            lfsr: Lfsr16::default(),
            hits: 0,
            misses: 0,
            writebacks: 0,
            lfsr_draws: 0,
            swaps: 0,
            hit_counts: if tlc_obs::ENABLED { vec![0; lines] } else { Vec::new() },
            live: LiveTally::default(),
        }
    }

    fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }

    /// Counts a demand hit on the slot at `idx` (no-op uninstrumented).
    #[inline]
    fn note_hit(&mut self, idx: usize) {
        if tlc_obs::ENABLED {
            let c = &mut self.hit_counts[idx];
            *c = c.saturating_add(1);
        }
    }

    /// Lifetime liveness, classifying still-resident slots by their hits
    /// so far — the member-level analogue of
    /// [`Cache::liveness`](crate::Cache::liveness).
    fn liveness(&self) -> Liveness {
        self.live.snapshot(
            self.slots.iter().zip(&self.hit_counts).filter(|(&s, _)| s != INVALID).map(|(_, &h)| h),
        )
    }

    /// Replica of
    /// [`Cache::fill_after_miss`](crate::Cache::fill_after_miss) for any
    /// policy: a 1-way set fills its only way with no replacement
    /// bookkeeping; otherwise a free way is taken first (no draw), else
    /// the bank picks a victim (one LFSR draw for pseudo-random members)
    /// — exactly the scalar call order, so stamp clocks and RRPVs match.
    /// Counts a dirty eviction as an off-chip writeback.
    #[inline]
    fn fill_after_miss(&mut self, ways: usize, line: u64, dirty: bool) {
        let set = (line & self.set_mask) as usize;
        let base = set * ways;
        let way = if ways == 1 {
            0
        } else if let Some(i) = (0..ways).find(|&i| self.slots[base + i] == INVALID) {
            self.repl.filled(set, ways, i as u32, ways as u32);
            i
        } else {
            if tlc_obs::ENABLED && matches!(self.repl, ReplBank::Random) {
                self.lfsr_draws += 1;
            }
            let w = self.repl.victim(set, ways, ways as u32, &mut self.lfsr);
            self.repl.filled(set, ways, w, ways as u32);
            w as usize
        };
        let old = self.slots[base + way];
        if tlc_obs::ENABLED {
            self.live.fill();
            if old != INVALID {
                self.live.retire(self.hit_counts[base + way]);
            }
            self.hit_counts[base + way] = 0;
        }
        if old != INVALID && old & 1 == 1 {
            self.writebacks += 1;
        }
        self.slots[base + way] = (line << 1) | dirty as u64;
    }

    /// Replica of
    /// [`Cache::merge_if_present`](crate::Cache::merge_if_present):
    /// merge the dirty bit into a resident copy and refresh its
    /// replacement state, reporting whether one was found. A write-back
    /// merge is not a demand hit, so the liveness tallies don't move.
    #[inline]
    fn merge_if_present(&mut self, ways: usize, line: u64, dirty: bool) -> bool {
        let set = (line & self.set_mask) as usize;
        let base = set * ways;
        for i in 0..ways {
            if self.slots[base + i] >> 1 == line {
                self.slots[base + i] |= dirty as u64;
                self.repl.touch(set, ways, i as u32, ways as u32);
                return true;
            }
        }
        false
    }
}

/// Batched conventional back-end, one [`L2State`] per member: the same
/// L2 call sequence as
/// [`ConventionalTwoLevel`](crate::ConventionalTwoLevel)'s miss path.
///
/// `W` is the compile-time associativity — the hot set scans unroll for
/// the common widths (2/4/8-way); `W = 0` selects the dynamic fallback
/// that reads the width from `ways` at run time.
#[derive(Debug)]
struct ConventionalFamily<const W: usize> {
    states: Vec<L2State>,
    ways: usize,
}

impl<const W: usize> ConventionalFamily<W> {
    fn new(l2_cfgs: &[CacheConfig], ways: usize) -> Self {
        ConventionalFamily { states: l2_cfgs.iter().map(L2State::new).collect(), ways }
    }
}

impl<const W: usize> EventSink for ConventionalFamily<W> {
    #[inline]
    fn consume(&mut self, _fetch: bool, line: LineAddr, victim: Option<(LineAddr, bool)>) {
        let l = line.0;
        let ways = if W == 0 { self.ways } else { W };
        for st in &mut self.states {
            let set = (l & st.set_mask) as usize;
            let base = set * ways;
            let hit = (0..ways).find(|&i| st.slots[base + i] >> 1 == l);
            if let Some(hw) = hit {
                // `access(line, false)`: the dirty-merge of `false` is a
                // no-op, but the policy touch is not (LRU/PLRU/SRRIP all
                // promote on hits).
                st.hits += 1;
                if ways > 1 {
                    st.repl.touch(set, ways, hw as u32, ways as u32);
                }
                st.note_hit(base + hw);
            } else {
                st.misses += 1;
                st.fill_after_miss(ways, l, false);
            }
            if let Some((vline, written)) = victim {
                if written && !st.merge_if_present(ways, vline.0, true) {
                    st.writebacks += 1;
                }
            }
        }
    }

    fn reset_counters(&mut self) {
        for st in &mut self.states {
            st.reset_counters();
        }
    }
}

/// Batched exclusive back-end: the same L2 call sequence as
/// [`ExclusiveTwoLevel`](crate::ExclusiveTwoLevel)'s miss path.
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
struct ExclusiveFamilyMember {
    l2: L2State,
    /// "Current resident was filled from a dirty L2 extract", per L1I set.
    mirror_i: Vec<bool>,
    /// Same, per L1D set.
    mirror_d: Vec<bool>,
}

#[derive(Debug)]
struct ExclusiveFamily<const W: usize> {
    members: Vec<ExclusiveFamilyMember>,
    ways: usize,
    l1_set_mask: u64,
}

impl<const W: usize> ExclusiveFamily<W> {
    fn new(l2_cfgs: &[CacheConfig], ways: usize, l1_sets: usize) -> Self {
        ExclusiveFamily {
            members: l2_cfgs
                .iter()
                .map(|cfg| ExclusiveFamilyMember {
                    l2: L2State::new(cfg),
                    mirror_i: vec![false; l1_sets],
                    mirror_d: vec![false; l1_sets],
                })
                .collect(),
            ways,
            l1_set_mask: l1_sets as u64 - 1,
        }
    }
}

impl<const W: usize> EventSink for ExclusiveFamily<W> {
    #[inline]
    fn consume(&mut self, fetch: bool, line: LineAddr, victim: Option<(LineAddr, bool)>) {
        let l = line.0;
        let ways = if W == 0 { self.ways } else { W };
        let set = (l & self.l1_set_mask) as usize;
        for m in &mut self.members {
            let mirror = if fetch { &mut m.mirror_i } else { &mut m.mirror_d };
            // Read the victim's fill-dirty component BEFORE the new fill
            // overwrites the set's mirror entry.
            let victim = victim.map(|(vline, written)| (vline.0, written || mirror[set]));
            let st = &mut m.l2;
            let l2_set = (l & st.set_mask) as usize;
            let base = l2_set * ways;
            let hit_way = (0..ways).find(|&w| st.slots[base + w] >> 1 == l);
            if let Some(hw) = hit_way {
                // `access`: count the hit, touch, bump the hit count...
                st.hits += 1;
                if ways > 1 {
                    st.repl.touch(l2_set, ways, hw as u32, ways as u32);
                }
                st.note_hit(base + hw);
                // ...then `extract`: read the dirty bit, end the slot's
                // fill generation (its hits include the one just
                // counted), and free the slot.
                let dirty = st.slots[base + hw] & 1;
                st.slots[base + hw] = INVALID;
                if tlc_obs::ENABLED {
                    st.live.retire(st.hit_counts[base + hw]);
                    st.hit_counts[base + hw] = 0;
                }
                mirror[set] = dirty == 1;
                match victim {
                    Some((vl, vdirty)) => {
                        if (vl & st.set_mask) == (l & st.set_mask)
                            && !st.slots[base..base + ways].iter().any(|&s| s >> 1 == vl)
                        {
                            // Figure 21-a swap: the victim takes the
                            // requested line's way (`fill_at(vline)`).
                            if tlc_obs::ENABLED {
                                st.swaps += 1;
                                st.live.fill();
                            }
                            st.slots[base + hw] = (vl << 1) | vdirty as u64;
                            st.repl.filled(l2_set, ways, hw as u32, ways as u32);
                        } else {
                            // `fill_at(line)` back into its freed way,
                            // then send the victim separately.
                            if tlc_obs::ENABLED {
                                st.live.fill();
                            }
                            st.slots[base + hw] = (l << 1) | dirty;
                            st.repl.filled(l2_set, ways, hw as u32, ways as u32);
                            if !st.merge_if_present(ways, vl, vdirty) {
                                st.fill_after_miss(ways, vl, vdirty);
                            }
                        }
                    }
                    None => {
                        if tlc_obs::ENABLED {
                            st.live.fill();
                        }
                        st.slots[base + hw] = (l << 1) | dirty;
                        st.repl.filled(l2_set, ways, hw as u32, ways as u32);
                    }
                }
            } else {
                st.misses += 1;
                // Off-chip refill bypasses the L2: no fill-dirty component.
                mirror[set] = false;
                if let Some((vl, vdirty)) = victim {
                    if !st.merge_if_present(ways, vl, vdirty) {
                        st.fill_after_miss(ways, vl, vdirty);
                    }
                }
            }
        }
    }

    fn reset_counters(&mut self) {
        for m in &mut self.members {
            m.l2.reset_counters();
        }
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
/// bit a larger size preserves), so they live in the per-size slot
/// arrays as usual — and so do the per-set hit counts behind the
/// liveness tallies, which follow each member's own fill generations.
#[derive(Debug)]
struct DmConventionalFamily {
    /// Per size (ascending): one slot per set.
    slots: Vec<Vec<u64>>,
    set_masks: Vec<u64>,
    /// `order[k]`: the input index of the `k`-th smallest member.
    order: Vec<usize>,
    /// `hit_hist[t]`: events whose smallest hitting size index is `t`.
    hit_hist: Vec<u64>,
    /// `vic_hist[t]`: written victims whose smallest resident size is `t`.
    vic_hist: Vec<u64>,
    /// Dirty evictions on install, per size.
    evict_wb: Vec<u64>,
    /// Per size: per-set demand-hit counts since the slot's last install
    /// (instrumented builds only; empty otherwise).
    hit_counts: Vec<Vec<u8>>,
    /// Per size: departed fill-generation tallies.
    live: Vec<LiveTally>,
}

impl DmConventionalFamily {
    fn new(l2_cfgs: &[CacheConfig]) -> Self {
        // Sort members by capacity (stably, so duplicates keep their
        // relative order); `counters` scatters back to input order.
        let mut order: Vec<usize> = (0..l2_cfgs.len()).collect();
        order.sort_by_key(|&i| l2_cfgs[i].size_bytes());
        let sets: Vec<u64> = order.iter().map(|&i| l2_cfgs[i].num_sets()).collect();
        let k = sets.len();
        DmConventionalFamily {
            slots: sets.iter().map(|&n| vec![INVALID; n as usize]).collect(),
            set_masks: sets.iter().map(|&n| n - 1).collect(),
            order,
            hit_hist: vec![0; k + 1],
            vic_hist: vec![0; k + 1],
            evict_wb: vec![0; k],
            hit_counts: if tlc_obs::ENABLED {
                sets.iter().map(|&n| vec![0; n as usize]).collect()
            } else {
                Vec::new()
            },
            live: vec![LiveTally::default(); k],
        }
    }

    /// Smallest size index at which `line` is resident, or `len` if none.
    #[inline]
    fn threshold(&self, line: u64) -> usize {
        for (k, mask) in self.set_masks.iter().enumerate() {
            if self.slots[k][(line & mask) as usize] >> 1 == line {
                return k;
            }
        }
        self.set_masks.len()
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

    /// Family-total liveness: each member's tallies snapshotted over its
    /// residents, then summed (the obs counters aggregate members).
    fn liveness_total(&self) -> Liveness {
        if !tlc_obs::ENABLED {
            return Liveness::default();
        }
        let mut total = Liveness::default();
        for (k, live) in self.live.iter().enumerate() {
            total.merge(
                live.snapshot(
                    self.slots[k]
                        .iter()
                        .zip(&self.hit_counts[k])
                        .filter(|(&s, _)| s != INVALID)
                        .map(|(_, &h)| h),
                ),
            );
        }
        total
    }
}

impl EventSink for DmConventionalFamily {
    #[inline]
    fn consume(&mut self, _fetch: bool, line: LineAddr, victim: Option<(LineAddr, bool)>) {
        let l = line.0;
        let t = self.threshold(l);
        self.hit_hist[t] += 1;
        if tlc_obs::ENABLED {
            // Sizes at or above the threshold hit: a demand hit on each
            // member's resident generation.
            for k in t..self.set_masks.len() {
                let c = &mut self.hit_counts[k][(l & self.set_masks[k]) as usize];
                *c = c.saturating_add(1);
            }
        }
        for k in 0..t {
            let idx = (l & self.set_masks[k]) as usize;
            let slot = self.slots[k][idx];
            if slot != INVALID && slot & 1 == 1 {
                self.evict_wb[k] += 1;
            }
            if tlc_obs::ENABLED {
                self.live[k].fill();
                if slot != INVALID {
                    self.live[k].retire(self.hit_counts[k][idx]);
                }
                self.hit_counts[k][idx] = 0;
            }
            self.slots[k][idx] = l << 1;
        }
        if let Some((vline, written)) = victim {
            if written {
                let vl = vline.0;
                let tv = self.threshold(vl);
                self.vic_hist[tv] += 1;
                // Write-back merges refresh the dirty bit only — not a
                // demand hit, so the hit counts stay put.
                for k in tv..self.set_masks.len() {
                    self.slots[k][(vl & self.set_masks[k]) as usize] |= 1;
                }
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
        Some((0, 0, self.liveness_total()))
    }
}

impl<const W: usize> Family for ConventionalFamily<W> {
    fn walk(&mut self, segment: &MissStream) -> Vec<(u64, u64, u64)> {
        walk_events(self, segment);
        self.states.iter().map(|st| (st.hits, st.misses, st.writebacks)).collect()
    }

    fn lifetime(&self) -> Option<(u64, u64, Liveness)> {
        let mut live = Liveness::default();
        for st in &self.states {
            live.merge(st.liveness());
        }
        Some((self.states.iter().map(|st| st.lfsr_draws).sum(), 0, live))
    }
}

impl<const W: usize> Family for ExclusiveFamily<W> {
    fn walk(&mut self, segment: &MissStream) -> Vec<(u64, u64, u64)> {
        walk_events(self, segment);
        self.members.iter().map(|m| (m.l2.hits, m.l2.misses, m.l2.writebacks)).collect()
    }

    fn lifetime(&self) -> Option<(u64, u64, Liveness)> {
        let mut live = Liveness::default();
        for m in &self.members {
            live.merge(m.l2.liveness());
        }
        let draws = self.members.iter().map(|m| m.l2.lfsr_draws).sum();
        Some((draws, self.members.iter().map(|m| m.l2.swaps).sum(), live))
    }
}

/// Validates a two-level family against the stream geometry and returns
/// its shared associativity.
///
/// # Panics
///
/// Panics if a member's line size differs from the stream's, or members
/// disagree on associativity (the batched set scans monomorphise on one
/// way count). Replacement policies may differ per member — each member
/// carries its own [`ReplBank`].
fn family_ways(l2_cfgs: &[CacheConfig], geometry: &MissStream) -> usize {
    let ways = l2_cfgs.first().map_or(1, CacheConfig::ways);
    for cfg in l2_cfgs {
        assert_eq!(cfg.line_bytes(), geometry.line_bytes(), "L1 and L2 must share a line size");
        assert_eq!(cfg.ways(), ways, "family members disagree on associativity");
    }
    ways as usize
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
    /// fast path (`DmConventionalFamily`); any other associativity takes
    /// the generic batched loop. Every replacement policy is supported,
    /// and members may mix policies.
    ///
    /// # Panics
    ///
    /// Panics if a member's line size differs from `geometry`'s or the
    /// members disagree on associativity.
    pub fn conventional(l2_cfgs: &[CacheConfig], geometry: &MissStream) -> Self {
        let ways = family_ways(l2_cfgs, geometry);
        // Monomorphise the common associativities so the set scans unroll.
        let back: Box<dyn Family> = match ways {
            1 => Box::new(DmConventionalFamily::new(l2_cfgs)),
            2 => Box::new(ConventionalFamily::<2>::new(l2_cfgs, ways)),
            4 => Box::new(ConventionalFamily::<4>::new(l2_cfgs, ways)),
            8 => Box::new(ConventionalFamily::<8>::new(l2_cfgs, ways)),
            _ => Box::new(ConventionalFamily::<0>::new(l2_cfgs, ways)),
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
        let ways = family_ways(l2_cfgs, geometry);
        let sets = geometry.l1_sets();
        let back: Box<dyn Family> = match ways {
            1 => Box::new(ExclusiveFamily::<1>::new(l2_cfgs, ways, sets)),
            2 => Box::new(ExclusiveFamily::<2>::new(l2_cfgs, ways, sets)),
            4 => Box::new(ExclusiveFamily::<4>::new(l2_cfgs, ways, sets)),
            8 => Box::new(ExclusiveFamily::<8>::new(l2_cfgs, ways, sets)),
            _ => Box::new(ExclusiveFamily::<0>::new(l2_cfgs, ways, sets)),
        };
        L2Family::with_back(back, geometry)
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
    use crate::cache::Cache;
    use crate::config::{Associativity, ReplacementKind};
    use crate::filter::L1FrontEnd;
    use crate::hierarchy::MemorySystem;
    use crate::oracle::{naive_replay_conventional, naive_replay_exclusive};
    use tlc_trace::spec::SpecBenchmark;
    use tlc_trace::InstructionSource;

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

    /// Drives a plain [`Cache`] with the conventional back-end's exact
    /// call order — the reference for the family's liveness tallies.
    struct ScalarConvSink {
        l2: Cache,
    }

    impl EventSink for ScalarConvSink {
        fn consume(&mut self, _f: bool, line: LineAddr, victim: Option<(LineAddr, bool)>) {
            if !self.l2.access(line, false) {
                self.l2.fill_after_miss(line, false);
            }
            if let Some((vl, written)) = victim {
                if written {
                    self.l2.merge_if_present(vl, true);
                }
            }
        }

        fn reset_counters(&mut self) {}
    }

    #[test]
    fn family_liveness_matches_scalar_cache() {
        if !tlc_obs::ENABLED {
            return;
        }
        let stream = capture(SpecBenchmark::Gcc1, 1024, 2_000, 8_000);
        for repl in ReplacementKind::ALL {
            let cfgs = [l2_policy_cfg(4096, 4, repl), l2_policy_cfg(16384, 4, repl)];
            let mut fam = ConventionalFamily::<4>::new(&cfgs, 4);
            walk_events(&mut fam, &stream);
            for (cfg, st) in cfgs.iter().zip(&fam.states) {
                let mut scalar = ScalarConvSink { l2: Cache::new(*cfg) };
                walk_events(&mut scalar, &stream);
                let got = st.liveness();
                assert_eq!(got, scalar.l2.liveness(), "{repl} {cfg}");
                assert_eq!(got.fills, got.dead_on_arrival + got.live_fills, "{repl} {cfg}");
                assert!(got.multi_hit <= got.live_fills, "{repl} {cfg}");
            }
        }
    }

    #[test]
    fn dm_family_liveness_matches_scalar_caches() {
        if !tlc_obs::ENABLED {
            return;
        }
        let stream = capture(SpecBenchmark::Tomcatv, 1024, 1_000, 8_000);
        let cfgs = [l2_cfg(8192, 1), l2_cfg(2048, 1)];
        let mut fam = DmConventionalFamily::new(&cfgs);
        walk_events(&mut fam, &stream);
        let mut expected = Liveness::default();
        for cfg in &cfgs {
            let mut scalar = ScalarConvSink { l2: Cache::new(*cfg) };
            walk_events(&mut scalar, &stream);
            expected.merge(scalar.l2.liveness());
        }
        assert_eq!(fam.liveness_total(), expected);
    }
}
