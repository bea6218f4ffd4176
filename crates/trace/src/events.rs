//! [`EventArena`]: an L1 miss/victim event stream, captured once per L1
//! front-end and replayed by every L2 configuration sharing that L1.
//!
//! The second level of a hierarchy never sees the full reference stream —
//! only the L1's *misses* (each carrying the requested line and the L1
//! victim it displaced). Because the paper's L1s always fill the
//! requested line on a miss regardless of what lies behind them, that
//! miss/victim stream is independent of the L2 configuration, so a sweep
//! can simulate the L1 once and fan every L2 over the much smaller event
//! stream (1–10% of the references, per Table 1's miss rates). This
//! module encodes that stream into the shared [`store`](crate::store);
//! its front-end producer and back-end consumers live in `tlc-cache`.
//!
//! ## Memory layout
//!
//! One record per event in the chunked column store
//! [`TraceArena`](crate::TraceArena) also uses ([`store`](crate::store)):
//! requested line (`u64`), victim line (`u64`, zero when absent), and a
//! one-byte flag — 17 bytes per event.
//! The flag packs the access kind (fetch/load/store) in its low two bits
//! plus "has victim" and "victim written" bits.
//!
//! ## Example
//!
//! ```
//! use tlc_trace::events::{EventArena, MissEvent, VictimLine};
//! use tlc_trace::{AccessKind, LineAddr};
//!
//! let mut events = EventArena::new();
//! events.push(MissEvent {
//!     kind: AccessKind::Load,
//!     line: LineAddr(0x40),
//!     victim: Some(VictimLine { line: LineAddr(0x140), written: true }),
//! });
//! assert_eq!(events.len(), 1);
//! let replayed: Vec<MissEvent> = events.iter().collect();
//! assert_eq!(replayed[0].victim.unwrap().line, LineAddr(0x140));
//! ```

use crate::addr::LineAddr;
use crate::record::AccessKind;
use crate::store::{ChunkView, ColumnStore, PackedRecord, DEFAULT_CHUNK_LEN};

/// Flag bits 0–1: the access kind that missed (instruction fetch).
pub const EVENT_KIND_FETCH: u8 = 0;
/// Flag bits 0–1: the access kind that missed (data load).
pub const EVENT_KIND_LOAD: u8 = 1;
/// Flag bits 0–1: the access kind that missed (data store).
pub const EVENT_KIND_STORE: u8 = 2;
/// Mask selecting the access-kind bits of an event flag.
pub const EVENT_KIND_MASK: u8 = 0b0011;
/// Flag bit 2: the L1 fill displaced a valid line (the `victim` column
/// holds its address).
pub const EVENT_HAS_VICTIM: u8 = 0b0100;
/// Flag bit 3: the displaced line had been written by a store while it
/// was resident in the L1 (store-only dirty; an exclusive back-end adds
/// the filled-from-dirty-L2 component itself).
pub const EVENT_VICTIM_WRITTEN: u8 = 0b1000;

/// The L1 line displaced by a miss fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimLine {
    /// The displaced line.
    pub line: LineAddr,
    /// Whether a store wrote it while it was resident in the L1.
    pub written: bool,
}

/// One L1 miss: the access kind that missed, the line the L1 filled, and
/// the victim that fill displaced (if the slot held a valid line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissEvent {
    /// The kind of access that missed ([`AccessKind::InstrFetch`],
    /// [`AccessKind::Load`] or [`AccessKind::Store`]).
    pub kind: AccessKind,
    /// The requested (and L1-filled) line.
    pub line: LineAddr,
    /// The displaced line, if the fill evicted one.
    pub victim: Option<VictimLine>,
}

impl MissEvent {
    /// Encodes the flag byte of this event.
    pub fn flags(&self) -> u8 {
        let mut f = match self.kind {
            AccessKind::InstrFetch => EVENT_KIND_FETCH,
            AccessKind::Load => EVENT_KIND_LOAD,
            AccessKind::Store => EVENT_KIND_STORE,
        };
        if let Some(v) = self.victim {
            f |= EVENT_HAS_VICTIM;
            if v.written {
                f |= EVENT_VICTIM_WRITTEN;
            }
        }
        f
    }
}

/// Packed as (requested line, victim line, [`MissEvent::flags`]); the
/// victim line is zero where [`EVENT_HAS_VICTIM`] is clear.
impl PackedRecord for MissEvent {
    fn pack(&self) -> (u64, u64, u8) {
        (self.line.0, self.victim.map_or(0, |v| v.line.0), self.flags())
    }

    fn unpack(line: u64, victim: u64, f: u8) -> Self {
        let kind = match f & EVENT_KIND_MASK {
            EVENT_KIND_FETCH => AccessKind::InstrFetch,
            EVENT_KIND_LOAD => AccessKind::Load,
            EVENT_KIND_STORE => AccessKind::Store,
            other => unreachable!("corrupt event kind {other}"),
        };
        let victim = (f & EVENT_HAS_VICTIM != 0).then_some(VictimLine {
            line: LineAddr(victim),
            written: f & EVENT_VICTIM_WRITTEN != 0,
        });
        MissEvent { kind, line: LineAddr(line), victim }
    }
}

/// An L1 front-end's miss/victim event stream, captured once into packed
/// structure-of-arrays chunks and replayed by every L2 back-end sharing
/// that front-end.
///
/// Arenas are immutable after capture and safely shared across threads by
/// reference; each replay is an independent walk over [`EventArena::chunks`].
#[derive(Debug)]
pub struct EventArena {
    store: ColumnStore,
}

impl Default for EventArena {
    fn default() -> Self {
        Self::new()
    }
}

impl EventArena {
    /// An empty arena with the default chunk size.
    pub fn new() -> Self {
        Self::with_chunk_len(DEFAULT_CHUNK_LEN)
    }

    /// An empty arena with an explicit chunk size (exposed so tests can
    /// prove replays are chunking-invariant).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn with_chunk_len(chunk_len: usize) -> Self {
        EventArena { store: ColumnStore::new(chunk_len, u64::MAX) }
    }

    /// Appends one event.
    #[inline]
    pub fn push(&mut self, ev: MissEvent) {
        let mut ev = Some(ev);
        self.store.fill(|| ev.take());
    }

    /// Events captured.
    pub fn len(&self) -> u64 {
        self.store.len()
    }

    /// Whether the arena holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident size of the packed buffers, in bytes.
    pub fn bytes(&self) -> usize {
        self.store.bytes()
    }

    /// Iterates over the arena's chunks as packed column views: per
    /// event, (requested line, victim line, flag byte).
    pub fn chunks(&self) -> impl ExactSizeIterator<Item = ChunkView<'_>> {
        self.store.chunks()
    }

    /// Iterates over all events in capture order (decoded; tests and
    /// generic consumers — back-ends walk [`EventArena::chunks`] instead).
    pub fn iter(&self) -> impl Iterator<Item = MissEvent> + '_ {
        self.store.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: AccessKind, line: u64, victim: Option<(u64, bool)>) -> MissEvent {
        MissEvent {
            kind,
            line: LineAddr(line),
            victim: victim.map(|(l, w)| VictimLine { line: LineAddr(l), written: w }),
        }
    }

    #[test]
    fn round_trips_all_kinds_and_victim_states() {
        let cases = [
            ev(AccessKind::InstrFetch, 0x10, None),
            ev(AccessKind::Load, 0x20, Some((0x120, false))),
            ev(AccessKind::Store, 0x30, Some((0x130, true))),
            ev(AccessKind::InstrFetch, 0, Some((0, true))),
        ];
        let mut arena = EventArena::new();
        for &e in &cases {
            arena.push(e);
        }
        assert_eq!(arena.len(), cases.len() as u64);
        let got: Vec<MissEvent> = arena.iter().collect();
        assert_eq!(got, cases);
    }

    #[test]
    fn flags_pack_kind_and_victim_bits() {
        let e = ev(AccessKind::Store, 1, Some((2, true)));
        assert_eq!(e.flags(), EVENT_KIND_STORE | EVENT_HAS_VICTIM | EVENT_VICTIM_WRITTEN);
        let e = ev(AccessKind::InstrFetch, 1, None);
        assert_eq!(e.flags(), EVENT_KIND_FETCH);
    }

    #[test]
    fn empty_arena_is_well_formed() {
        let arena = EventArena::new();
        assert!(arena.is_empty());
        assert_eq!(arena.bytes(), 0);
        assert_eq!(arena.iter().count(), 0);
    }
}
