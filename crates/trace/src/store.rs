//! The packed record store behind [`TraceArena`](crate::TraceArena) and
//! [`EventArena`](crate::EventArena), and the one warm-up/measure walk
//! over it.
//!
//! ## Memory layout
//!
//! Records are stored structure-of-arrays in fixed-size chunks: two
//! `u64` columns and a one-byte flag column — [`BYTES_PER_RECORD`]
//! (17) bytes per record. What the columns mean is the wrapper's
//! business ([`PackedRecord`]): an instruction is (fetch address, data
//! address, none/load/store); a miss event is (requested line, victim
//! line, kind and victim bits). Chunked allocation keeps capture cost
//! linear (no doubling copies of a multi-gigabyte `Vec`) and gives the
//! sweep scheduler natural work granules.
//!
//! ## The warm-up walk
//!
//! Every replay of a captured stream follows one protocol: replay up to
//! `warm` records, reset the consumer's statistics, replay up to
//! `total` records in all. [`walk_chunks`] does the bookkeeping once —
//! the chunk the boundary falls in is split there, and a window that
//! ends inside warm-up measures nothing — while the caller supplies its
//! own monomorphized per-chunk loop.

/// Records per chunk (64 Ki): large enough that per-chunk overhead
/// vanishes, small enough to be a useful parallel work granule.
pub const DEFAULT_CHUNK_LEN: usize = 1 << 16;

/// Packed bytes per record (two `u64` columns plus the flag byte); used
/// to predict or bound a capture's footprint.
pub const BYTES_PER_RECORD: usize = 2 * std::mem::size_of::<u64>() + 1;

/// A record type the store can pack into its two `u64` columns and flag
/// byte, and decode again.
pub trait PackedRecord: Sized {
    /// Encodes the record as `(primary, secondary, flags)`.
    fn pack(&self) -> (u64, u64, u8);

    /// Decodes a record packed by [`PackedRecord::pack`].
    fn unpack(primary: u64, secondary: u64, flags: u8) -> Self;
}

/// One structure-of-arrays block of records.
#[derive(Debug)]
struct Chunk {
    primary: Vec<u64>,
    secondary: Vec<u64>,
    flags: Vec<u8>,
}

impl Chunk {
    #[inline]
    fn push<R: PackedRecord>(&mut self, rec: &R) {
        let (primary, secondary, flags) = rec.pack();
        self.primary.push(primary);
        self.secondary.push(secondary);
        self.flags.push(flags);
    }

    fn view(&self) -> ChunkView<'_> {
        ChunkView { primary: &self.primary, secondary: &self.secondary, flags: &self.flags }
    }
}

/// A borrowed, read-only view of one chunk's packed columns.
///
/// The three columns always have equal length; index `i` across them
/// describes one record.
#[derive(Debug, Clone, Copy)]
pub struct ChunkView<'a> {
    primary: &'a [u64],
    secondary: &'a [u64],
    flags: &'a [u8],
}

impl<'a> ChunkView<'a> {
    /// Records in this chunk.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the chunk holds no records.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// The `(primary, secondary, flags)` columns of records
    /// `start..end` — what a replay fast path iterates over.
    ///
    /// # Panics
    ///
    /// Panics if `start..end` is not within the chunk.
    #[inline]
    pub fn columns(&self, start: usize, end: usize) -> (&'a [u64], &'a [u64], &'a [u8]) {
        (&self.primary[start..end], &self.secondary[start..end], &self.flags[start..end])
    }

    /// Decodes record `i` (for tests and generic consumers; the replay
    /// fast paths read [`ChunkView::columns`] directly).
    pub fn record<R: PackedRecord>(&self, i: usize) -> R {
        R::unpack(self.primary[i], self.secondary[i], self.flags[i])
    }
}

/// A growable sequence of packed records in fixed-size chunks.
#[derive(Debug)]
pub(crate) struct ColumnStore {
    chunks: Vec<Chunk>,
    chunk_len: usize,
    /// Records the owner expects to push in all (`u64::MAX` when
    /// unknown): a chunk never reserves room past it.
    expected: u64,
    len: u64,
}

impl ColumnStore {
    /// An empty store of `chunk_len`-record chunks that will hold at
    /// most `expected` records.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub(crate) fn new(chunk_len: usize, expected: u64) -> Self {
        assert!(chunk_len > 0, "chunk_len must be positive");
        ColumnStore { chunks: Vec::new(), chunk_len, expected, len: 0 }
    }

    /// Appends records from `next` until it returns `None` or the store
    /// holds `expected` records, opening a new chunk whenever the last is
    /// full; `next` is not called again once it returns `None`.
    pub(crate) fn fill<R: PackedRecord>(&mut self, mut next: impl FnMut() -> Option<R>) {
        while self.len < self.expected {
            let Some(first) = next() else { return };
            let filled = self.chunks.last().map_or(self.chunk_len, |c| c.flags.len());
            let full = filled == self.chunk_len; // or there is no chunk yet
            let free = if full { self.chunk_len } else { self.chunk_len - filled };
            let room = (free as u64).min(self.expected - self.len) as usize;
            if full {
                self.chunks.push(Chunk {
                    primary: Vec::with_capacity(room),
                    secondary: Vec::with_capacity(room),
                    flags: Vec::with_capacity(room),
                });
            }
            let chunk = self.chunks.last_mut().expect("chunk just ensured");
            chunk.push(&first);
            self.len += 1;
            for _ in 1..room {
                let Some(rec) = next() else { return };
                chunk.push(&rec);
                self.len += 1;
            }
        }
    }

    /// Records stored.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Approximate resident size of the packed buffers (their allocated
    /// capacity), in bytes.
    pub(crate) fn bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| {
                (c.primary.capacity() + c.secondary.capacity()) * std::mem::size_of::<u64>()
                    + c.flags.capacity()
            })
            .sum()
    }

    /// The chunks as packed column views, in order.
    pub(crate) fn chunks(&self) -> impl ExactSizeIterator<Item = ChunkView<'_>> {
        self.chunks.iter().map(Chunk::view)
    }

    /// Chunk `i`, if there is one.
    pub(crate) fn chunk(&self, i: usize) -> Option<ChunkView<'_>> {
        self.chunks.get(i).map(Chunk::view)
    }

    /// Every record in order, decoded.
    pub(crate) fn iter<R: PackedRecord>(&self) -> impl Iterator<Item = R> + '_ {
        self.chunks().flat_map(|view| (0..view.len()).map(move |i| view.record(i)))
    }
}

/// Walks `chunks` through `state` under the warm-up/measure protocol:
/// up to `warm` records, then `reset`, then records up to `total` in
/// all. `replay(state, chunk, start, end)` consumes records
/// `start..end` of one chunk; the chunk the warm-up boundary falls in is
/// replayed in two parts with the reset between them. A window that
/// ends inside warm-up (or at the boundary) is reset at the end too, so
/// it measures nothing.
///
/// `within_limit` is consulted before each chunk; the walk stops and
/// returns `false` as soon as it refuses (captures bound their footprint
/// this way). Every closure is a type parameter, so the caller's replay
/// loop is monomorphized into the walk.
pub fn walk_chunks<'a, T: ?Sized>(
    state: &mut T,
    chunks: impl IntoIterator<Item = ChunkView<'a>>,
    warm: u64,
    total: u64,
    mut replay: impl FnMut(&mut T, ChunkView<'a>, usize, usize),
    mut reset: impl FnMut(&mut T),
    mut within_limit: impl FnMut(&T) -> bool,
) -> bool {
    let mut pos = 0u64; // stream index of the chunk's first record
    for chunk in chunks {
        if pos >= total {
            break;
        }
        if !within_limit(state) {
            return false;
        }
        let end = (chunk.len() as u64).min(total - pos);
        // Records of this chunk before the boundary (none once past it).
        let split = warm.saturating_sub(pos).min(end);
        if split > 0 {
            replay(state, chunk, 0, split as usize);
            if pos + split == warm {
                reset(state);
            }
        }
        if split < end {
            replay(state, chunk, split as usize, end as usize);
        }
        pos += end;
    }
    if pos <= warm {
        reset(state);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PackedRecord for (u64, u64, u8) {
        fn pack(&self) -> (u64, u64, u8) {
            *self
        }

        fn unpack(primary: u64, secondary: u64, flags: u8) -> Self {
            (primary, secondary, flags)
        }
    }

    fn store(n: u64, chunk_len: usize) -> ColumnStore {
        let mut s = ColumnStore::new(chunk_len, u64::MAX);
        let mut records = (0..n).map(|i| (i, i * 3, (i % 3) as u8));
        s.fill(|| records.next());
        s
    }

    #[test]
    fn round_trips_in_order_across_chunks() {
        let s = store(10, 3);
        assert_eq!((s.len(), s.chunks().len()), (10, 4), "10 records, 3 per chunk");
        let got: Vec<(u64, u64, u8)> = s.iter().collect();
        assert_eq!(got, (0..10).map(|i| (i, i * 3, (i % 3) as u8)).collect::<Vec<_>>());
    }

    #[test]
    fn bytes_count_reserved_capacity() {
        assert_eq!(store(64, 64).bytes(), 64 * BYTES_PER_RECORD);
        assert_eq!(store(1, 64).bytes(), 64 * BYTES_PER_RECORD, "a chunk reserves its length");
        assert_eq!(store(0, 64).bytes(), 0);
    }

    #[test]
    fn walk_resets_once_at_the_boundary_for_every_chunking() {
        let n = 10;
        for chunk_len in [1, 2, 3, 4, 5, 10, 64] {
            let s = store(n, chunk_len);
            for warm in 0..=n + 2 {
                for total in warm..=n + 2 {
                    // The log holds `Some(i)` per record and `None` per reset.
                    let mut got = Vec::new();
                    let replay = |log: &mut Vec<_>, c: ChunkView<'_>, a, b| {
                        log.extend(c.columns(a, b).0.iter().map(|&i| Some(i)));
                    };
                    walk_chunks(
                        &mut got,
                        s.chunks(),
                        warm,
                        total,
                        replay,
                        |l| l.push(None),
                        |_| true,
                    );
                    // A window ending at the boundary is also reset at the
                    // end; two resets in a row measure the same as one.
                    got.dedup();
                    let mut want: Vec<_> = (0..warm.min(n)).map(Some).collect();
                    if warm > 0 || total == 0 {
                        want.push(None);
                    }
                    want.extend((warm..total.min(n)).map(Some));
                    assert_eq!(got, want, "chunk_len={chunk_len} warm={warm} total={total}");
                }
            }
        }
    }

    #[test]
    fn walk_stops_when_the_limit_refuses() {
        let s = store(10, 3);
        let mut seen = 0usize;
        let done =
            walk_chunks(&mut seen, s.chunks(), 0, 10, |n, _, a, b| *n += b - a, |_| {}, |n| *n < 4);
        assert!(!done);
        assert_eq!(seen, 6, "two chunks pass the check, the third is refused");
    }
}
