//! [`TraceArena`]: a benchmark's instruction stream, materialised once
//! and replayed many times.
//!
//! Design-space sweeps evaluate dozens of cache configurations against
//! the *same* workload. Regenerating the synthetic stream for every
//! configuration pays the full generator cost (two `Box<dyn AddrSource>`
//! virtual calls plus up to three RNG draws per instruction) once per
//! *configuration*; capturing it into an arena pays that cost once per
//! *benchmark* and turns every subsequent replay into a linear scan over
//! packed slices.
//!
//! ## Memory layout
//!
//! One record per instruction in the shared chunked column store
//! ([`store`](crate::store)): fetch address (`u64`), data address
//! (`u64`, zero when absent), and a one-byte flag (none/load/store) —
//! 17 bytes per instruction. A standard-budget capture (500 K warmup +
//! 1.5 M measured) is therefore ≈ 34 MB, shared by every configuration
//! and thread in the sweep.
//!
//! ## Example
//!
//! ```
//! use tlc_trace::spec::SpecBenchmark;
//! use tlc_trace::{InstructionSource, TraceArena};
//!
//! let arena = TraceArena::capture(&mut SpecBenchmark::Li.workload(), 10_000);
//! assert_eq!(arena.len(), 10_000);
//!
//! // Replays are cheap, independent cursors over the shared buffer.
//! let mut a = arena.replay();
//! let mut b = arena.replay();
//! assert_eq!(a.next_instruction_opt(), b.next_instruction_opt());
//! ```

use crate::addr::Addr;
use crate::record::{AccessKind, InstructionRecord, MemRef};
use crate::source::InstructionSource;
use crate::store::{ChunkView, ColumnStore, PackedRecord, DEFAULT_CHUNK_LEN};

/// Flag value for an instruction with no data reference.
pub const FLAG_NONE: u8 = 0;
/// Flag value for an instruction carrying a data load.
pub const FLAG_LOAD: u8 = 1;
/// Flag value for an instruction carrying a data store.
pub const FLAG_STORE: u8 = 2;

/// Packed as (fetch address, data address, flag); the data address is
/// zero where the flag is [`FLAG_NONE`].
impl PackedRecord for InstructionRecord {
    fn pack(&self) -> (u64, u64, u8) {
        match self.data {
            None => (self.fetch.raw(), 0, FLAG_NONE),
            Some(d) => {
                let flag = if d.kind == AccessKind::Store { FLAG_STORE } else { FLAG_LOAD };
                (self.fetch.raw(), d.addr.raw(), flag)
            }
        }
    }

    fn unpack(fetch: u64, data_addr: u64, flag: u8) -> Self {
        let data = match flag {
            FLAG_NONE => None,
            FLAG_LOAD => Some(MemRef::load(Addr::new(data_addr))),
            FLAG_STORE => Some(MemRef::store(Addr::new(data_addr))),
            other => unreachable!("corrupt arena flag {other}"),
        };
        InstructionRecord { fetch: Addr::new(fetch), data }
    }
}

/// A benchmark's instruction stream, captured once into packed
/// structure-of-arrays chunks and replayed arbitrarily many times.
///
/// Arenas are immutable after capture and safely shared across threads
/// (`&TraceArena` / `Arc<TraceArena>`); each replay is an independent
/// cursor.
#[derive(Debug)]
pub struct TraceArena {
    name: String,
    store: ColumnStore,
}

impl TraceArena {
    /// Captures up to `len` instructions from `source` using the default
    /// chunk size. Stops early (with a shorter arena) if the source is
    /// exhausted first; synthetic [`Workload`](crate::Workload)s never
    /// exhaust.
    pub fn capture<S: InstructionSource + ?Sized>(source: &mut S, len: u64) -> Self {
        Self::capture_chunked(source, len, DEFAULT_CHUNK_LEN)
    }

    /// [`TraceArena::capture`] with an explicit chunk size (exposed so
    /// tests can prove results are chunking-invariant).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn capture_chunked<S: InstructionSource + ?Sized>(
        source: &mut S,
        len: u64,
        chunk_len: usize,
    ) -> Self {
        let mut store = ColumnStore::new(chunk_len, len);
        store.fill(|| source.next_instruction_opt());
        let arena = TraceArena { name: source.source_name().to_string(), store };
        tlc_obs::obs_count!(tlc_obs::Counter::TraceInstructions, arena.len());
        tlc_obs::obs_count!(tlc_obs::Counter::TraceChunks, arena.chunks().len() as u64);
        tlc_obs::obs_count!(tlc_obs::Counter::TraceBytesPacked, arena.bytes() as u64);
        arena
    }

    /// The captured source's name (e.g. `"gcc1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instructions captured.
    pub fn len(&self) -> u64 {
        self.store.len()
    }

    /// Whether the arena holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident size of the packed buffers, in bytes.
    pub fn bytes(&self) -> usize {
        self.store.bytes()
    }

    /// Iterates over the arena's chunks as packed column views: per
    /// instruction, (fetch address, data address, flag).
    pub fn chunks(&self) -> impl ExactSizeIterator<Item = ChunkView<'_>> {
        self.store.chunks()
    }

    /// A fresh replay cursor over the whole arena.
    pub fn replay(&self) -> ArenaReplay<'_> {
        ArenaReplay { arena: self, chunk: 0, offset: 0 }
    }
}

/// A cursor replaying a [`TraceArena`] as an [`InstructionSource`].
///
/// Ends (returns `None`) after the arena's last captured instruction.
#[derive(Debug, Clone)]
pub struct ArenaReplay<'a> {
    arena: &'a TraceArena,
    chunk: usize,
    offset: usize,
}

impl InstructionSource for ArenaReplay<'_> {
    fn next_instruction_opt(&mut self) -> Option<InstructionRecord> {
        loop {
            let chunk = self.arena.store.chunk(self.chunk)?;
            if self.offset < chunk.len() {
                let rec = chunk.record(self.offset);
                self.offset += 1;
                return Some(rec);
            }
            self.chunk += 1;
            self.offset = 0;
        }
    }

    fn source_name(&self) -> &str {
        &self.arena.name
    }
}

impl Iterator for ArenaReplay<'_> {
    type Item = InstructionRecord;

    fn next(&mut self) -> Option<InstructionRecord> {
        self.next_instruction_opt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ReplaySource;
    use crate::spec::SpecBenchmark;

    #[test]
    fn capture_matches_generator_stream() {
        let expected = SpecBenchmark::Eqntott.workload().take_instructions(3000);
        let arena = TraceArena::capture_chunked(
            &mut SpecBenchmark::Eqntott.workload(),
            3000,
            257, // deliberately odd, non-dividing chunk size
        );
        assert_eq!(arena.len(), 3000);
        assert_eq!(arena.name(), "eqntott");
        let replayed: Vec<_> = arena.replay().collect();
        assert_eq!(replayed, expected);
    }

    #[test]
    fn capture_stops_at_exhausted_source() {
        let records = SpecBenchmark::Doduc.workload().take_instructions(100);
        let mut short = ReplaySource::new("short", records.clone());
        let arena = TraceArena::capture_chunked(&mut short, 1000, 32);
        assert_eq!(arena.len(), 100);
        let replayed: Vec<_> = arena.replay().collect();
        assert_eq!(replayed, records);
    }

    #[test]
    fn empty_capture_is_well_formed() {
        let mut empty = ReplaySource::new("empty", Vec::new());
        let arena = TraceArena::capture(&mut empty, 1000);
        assert!(arena.is_empty());
        assert_eq!(arena.len(), 0);
        assert_eq!(arena.replay().next_instruction_opt(), None);
    }

    #[test]
    fn bytes_reflects_packed_layout() {
        let arena = TraceArena::capture_chunked(&mut SpecBenchmark::Gcc1.workload(), 4000, 1024);
        // 17 bytes per record, exact: the last chunk reserves only the
        // 928 records still to come.
        assert_eq!(arena.chunks().len(), 4);
        assert_eq!(arena.bytes(), 4000 * 17);
    }

    #[test]
    fn replay_cursors_are_independent() {
        let arena = TraceArena::capture(&mut SpecBenchmark::Tomcatv.workload(), 200);
        let mut a = arena.replay();
        let first = a.next_instruction_opt();
        let mut b = arena.replay();
        assert_eq!(b.next_instruction_opt(), first, "fresh cursor starts at the beginning");
    }

    #[test]
    fn flags_round_trip_all_kinds() {
        use crate::record::AccessKind;
        let arena = TraceArena::capture(&mut SpecBenchmark::Gcc1.workload(), 20_000);
        let mut seen = [false; 3];
        for rec in arena.replay() {
            match rec.data.map(|d| d.kind) {
                None => seen[0] = true,
                Some(AccessKind::Load) => seen[1] = true,
                Some(AccessKind::Store) => seen[2] = true,
                Some(AccessKind::InstrFetch) => unreachable!("fetch in data slot"),
            }
        }
        assert_eq!(seen, [true; 3], "capture exercises none/load/store flags");
    }
}
