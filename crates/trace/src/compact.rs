//! The `TLCTRC01` compact on-disk instruction-trace format.
//!
//! This is the interchange format for *real* traces: a versioned header
//! followed by delta/varint-encoded instruction records, typically 3–5
//! bytes per instruction against 9–17 for the flat formats in
//! [`crate::io`]. The module provides:
//!
//! * [`CompactTraceWriter`] / [`write_compact_trace`] — encoding;
//! * [`TraceReader`] — a streaming decoder that implements
//!   [`InstructionSource`], so a trace file can
//!   feed [`TraceArena::capture`](crate::TraceArena::capture)
//!   chunk-by-chunk under a bounded memory budget without ever holding
//!   the decoded stream in memory;
//! * [`import_to_compact`] — a streaming importer that converts the
//!   other formats this crate knows (flat text/binary reference streams,
//!   `TLCITR01`, plain address lists) into `TLCTRC01`.
//!
//! ## Encoding
//!
//! Header: the 8-byte magic [`COMPACT_MAGIC`] then a single version byte
//! ([`COMPACT_VERSION`]). Per record:
//!
//! * one control byte — `bit0` = instruction carries a data reference,
//!   `bit1` = that data reference is a store (only valid with `bit0`);
//!   all other bits are reserved and must be zero;
//! * the fetch address as a zigzag-varint delta against the previous
//!   record's fetch address (first record deltas against 0);
//! * when `bit0` is set, the data address as a zigzag-varint delta
//!   against the previous data address (first data ref deltas against 0).
//!
//! The stream is EOF-delimited: a clean end is only legal at a record
//! boundary; anything else is a typed
//! [`TraceIoError::Truncated`](crate::io::TraceIoError) with the byte
//! offset where the record began.

use crate::addr::Addr;
use crate::io::{self, TraceIoError};
use crate::record::{AccessKind, MemRef};
use crate::source::InstructionSource;
use crate::InstructionRecord;
use std::io::{BufRead, Read, Write};

/// Magic bytes identifying a compact instruction trace.
pub const COMPACT_MAGIC: &[u8; 8] = b"TLCTRC01";

/// Newest compact-format version this build reads and writes.
pub const COMPACT_VERSION: u8 = 1;

/// Control-byte bit: the instruction carries a data reference.
const CTRL_HAS_DATA: u8 = 1;
/// Control-byte bit: the data reference is a store.
const CTRL_STORE: u8 = 2;

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a LEB128 varint to `buf`, returning the bytes used.
fn push_uvarint(buf: &mut [u8], mut v: u64) -> usize {
    let mut n = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[n] = byte;
            return n + 1;
        }
        buf[n] = byte | 0x80;
        n += 1;
    }
}

/// Writes [`InstructionRecord`]s in the compact `TLCTRC01` format.
///
/// The header is written on construction; call
/// [`CompactTraceWriter::write`] per record.
///
/// # Examples
///
/// ```
/// use tlc_trace::compact::{read_compact_trace, CompactTraceWriter};
/// use tlc_trace::{Addr, InstructionRecord, MemRef};
///
/// # fn main() -> std::io::Result<()> {
/// let recs = vec![
///     InstructionRecord::fetch_only(Addr::new(0x100)),
///     InstructionRecord::with_data(Addr::new(0x104), MemRef::load(Addr::new(0x2000))),
/// ];
/// let mut buf = Vec::new();
/// let mut w = CompactTraceWriter::new(&mut buf)?;
/// for r in &recs {
///     w.write(r)?;
/// }
/// drop(w);
/// assert_eq!(read_compact_trace(&buf[..])?, recs);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CompactTraceWriter<W: Write> {
    out: W,
    prev_fetch: u64,
    prev_data: u64,
    written: u64,
}

impl<W: Write> CompactTraceWriter<W> {
    /// Creates the writer and emits the magic + version header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header.
    pub fn new(mut out: W) -> std::io::Result<Self> {
        out.write_all(COMPACT_MAGIC)?;
        out.write_all(&[COMPACT_VERSION])?;
        Ok(CompactTraceWriter { out, prev_fetch: 0, prev_data: 0, written: 0 })
    }

    /// Appends one instruction record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&mut self, r: &InstructionRecord) -> std::io::Result<()> {
        // Worst case: control byte + two 10-byte varints.
        let mut buf = [0u8; 21];
        let mut n = 1;
        buf[0] = match r.data {
            None => 0,
            Some(d) => CTRL_HAS_DATA | if d.kind == AccessKind::Store { CTRL_STORE } else { 0 },
        };
        let fetch = r.fetch.raw();
        n += push_uvarint(&mut buf[n..], zigzag(fetch.wrapping_sub(self.prev_fetch) as i64));
        self.prev_fetch = fetch;
        if let Some(d) = r.data {
            let addr = d.addr.raw();
            n += push_uvarint(&mut buf[n..], zigzag(addr.wrapping_sub(self.prev_data) as i64));
            self.prev_data = addr;
        }
        self.out.write_all(&buf[..n])?;
        self.written += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from flushing.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Writes a whole slice of records as a compact trace.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_compact_trace<W: Write>(out: W, records: &[InstructionRecord]) -> std::io::Result<()> {
    let mut w = CompactTraceWriter::new(out)?;
    for r in records {
        w.write(r)?;
    }
    w.into_inner().map(|_| ())
}

/// Streaming decoder for the compact `TLCTRC01` format.
///
/// Decodes one record at a time, so a multi-gigabyte trace never has to
/// exist in memory: wrap the file in a `BufReader`, then hand the reader
/// to [`TraceArena::capture_chunked`](crate::TraceArena::capture_chunked)
/// (which packs it 17 bytes/record, chunk-by-chunk) or walk it manually
/// with [`TraceReader::try_next`].
///
/// As an [`InstructionSource`] the reader cannot surface decode errors
/// through `next_instruction_opt`; a corrupt or truncated tail instead
/// ends the stream and parks the error, which callers **must** check via
/// [`TraceReader::error`] (or [`TraceReader::take_error`]) after capture.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    input: R,
    name: String,
    offset: u64,
    prev_fetch: u64,
    prev_data: u64,
    decoded: u64,
    error: Option<TraceIoError>,
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Opens a compact trace stream, validating the magic and version.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] on a short or mismatched header or an
    /// unknown version byte.
    pub fn new(mut input: R, name: impl Into<String>) -> Result<Self, TraceIoError> {
        io::expect_magic(&mut input, COMPACT_MAGIC)?;
        let mut version = [0u8; 1];
        io::read_exact_at(&mut input, &mut version, 8, || {
            "stream ended before the version byte".into()
        })?;
        if version[0] != COMPACT_VERSION {
            return Err(TraceIoError::UnknownVersion {
                found: version[0],
                supported: COMPACT_VERSION,
            });
        }
        Ok(TraceReader {
            input,
            name: name.into(),
            offset: 9,
            prev_fetch: 0,
            prev_data: 0,
            decoded: 0,
            error: None,
            done: false,
        })
    }

    /// Records decoded so far.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Byte offset of the next unread byte.
    pub fn byte_offset(&self) -> u64 {
        self.offset
    }

    /// The decode error the source-driven interface swallowed, if any.
    pub fn error(&self) -> Option<&TraceIoError> {
        self.error.as_ref()
    }

    /// Takes ownership of the parked decode error, if any.
    pub fn take_error(&mut self) -> Option<TraceIoError> {
        self.error.take()
    }

    fn read_uvarint(&mut self, record_offset: u64) -> Result<u64, TraceIoError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let mut byte = [0u8; 1];
            let decoded = self.decoded;
            io::read_exact_at(&mut self.input, &mut byte, record_offset, || {
                format!("record {decoded} cut short inside a varint")
            })?;
            self.offset += 1;
            let byte = byte[0];
            if shift == 63 && byte > 1 {
                return Err(TraceIoError::Corrupt {
                    offset: record_offset,
                    detail: format!("varint overflows u64 in record {}", self.decoded),
                });
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(TraceIoError::Corrupt {
                    offset: record_offset,
                    detail: format!("varint longer than 10 bytes in record {}", self.decoded),
                });
            }
        }
    }

    /// Decodes the next record, `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] on corrupt or truncated input; the same
    /// error is also parked for [`TraceReader::error`], and the stream
    /// yields nothing further.
    pub fn try_next(&mut self) -> Result<Option<InstructionRecord>, TraceIoError> {
        if self.done {
            return Ok(None);
        }
        match self.decode_next() {
            Ok(Some(rec)) => Ok(Some(rec)),
            Ok(None) => {
                self.done = true;
                Ok(None)
            }
            Err(e) => {
                self.done = true;
                let parked = match &e {
                    TraceIoError::Io(inner) => {
                        TraceIoError::Io(std::io::Error::new(inner.kind(), inner.to_string()))
                    }
                    TraceIoError::BadMagic { found, expected } => {
                        TraceIoError::BadMagic { found: *found, expected }
                    }
                    TraceIoError::UnknownVersion { found, supported } => {
                        TraceIoError::UnknownVersion { found: *found, supported: *supported }
                    }
                    TraceIoError::Corrupt { offset, detail } => {
                        TraceIoError::Corrupt { offset: *offset, detail: detail.clone() }
                    }
                    TraceIoError::Truncated { offset, detail } => {
                        TraceIoError::Truncated { offset: *offset, detail: detail.clone() }
                    }
                };
                self.error = Some(parked);
                Err(e)
            }
        }
    }

    fn decode_next(&mut self) -> Result<Option<InstructionRecord>, TraceIoError> {
        let record_offset = self.offset;
        let mut ctrl = [0u8; 1];
        match self.input.read_exact(&mut ctrl) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(TraceIoError::Io(e)),
        }
        self.offset += 1;
        let ctrl = ctrl[0];
        if ctrl & !(CTRL_HAS_DATA | CTRL_STORE) != 0 || ctrl == CTRL_STORE {
            return Err(TraceIoError::Corrupt {
                offset: record_offset,
                detail: format!("invalid control byte {ctrl:#04x} in record {}", self.decoded),
            });
        }
        let delta = unzigzag(self.read_uvarint(record_offset)?);
        self.prev_fetch = self.prev_fetch.wrapping_add(delta as u64);
        let data = if ctrl & CTRL_HAS_DATA != 0 {
            let delta = unzigzag(self.read_uvarint(record_offset)?);
            self.prev_data = self.prev_data.wrapping_add(delta as u64);
            let addr = Addr::new(self.prev_data);
            Some(if ctrl & CTRL_STORE != 0 { MemRef::store(addr) } else { MemRef::load(addr) })
        } else {
            None
        };
        self.decoded += 1;
        Ok(Some(InstructionRecord { fetch: Addr::new(self.prev_fetch), data }))
    }
}

impl<R: Read + Send> InstructionSource for TraceReader<R> {
    fn next_instruction_opt(&mut self) -> Option<InstructionRecord> {
        self.try_next().ok().flatten()
    }

    fn source_name(&self) -> &str {
        &self.name
    }
}

/// Reads an entire compact trace into memory.
///
/// Convenience for tests and small files; large traces should stream
/// through [`TraceReader`] instead.
///
/// # Errors
///
/// Returns a [`TraceIoError`] on any header or record violation.
pub fn read_compact_trace<R: Read>(input: R) -> Result<Vec<InstructionRecord>, TraceIoError> {
    let mut reader = TraceReader::new(input, "compact")?;
    let mut out = Vec::new();
    while let Some(rec) = reader.try_next()? {
        out.push(rec);
    }
    Ok(out)
}

/// External formats [`import_to_compact`] can ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportFormat {
    /// A compact `TLCTRC01` trace (re-encoded, e.g. to apply a limit).
    Compact,
    /// A flat `TLCITR01` instruction trace.
    Instr,
    /// A flat `TLCREF01` binary reference stream.
    Refs,
    /// The `K 0xADDR` text trace format.
    Text,
    /// A plain text address list: one `[R|W] ADDR` per line, address in
    /// `0x` hex or decimal, the tag defaulting to a read.
    AddrText,
    /// A raw binary address list: little-endian u64 addresses, all
    /// treated as reads.
    AddrBinary,
}

impl ImportFormat {
    /// Parses a user-facing format name.
    pub fn parse(s: &str) -> Option<ImportFormat> {
        match s {
            "compact" | "trc" => Some(ImportFormat::Compact),
            "instr" | "itr" => Some(ImportFormat::Instr),
            "refs" | "ref" => Some(ImportFormat::Refs),
            "text" => Some(ImportFormat::Text),
            "addr-text" | "addrs" => Some(ImportFormat::AddrText),
            "addr-bin" => Some(ImportFormat::AddrBinary),
            _ => None,
        }
    }

    /// The user-facing name [`ImportFormat::parse`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            ImportFormat::Compact => "compact",
            ImportFormat::Instr => "instr",
            ImportFormat::Refs => "refs",
            ImportFormat::Text => "text",
            ImportFormat::AddrText => "addr-text",
            ImportFormat::AddrBinary => "addr-bin",
        }
    }

    /// Guesses the format from the first bytes of a stream.
    ///
    /// Magic-bearing formats are recognised exactly; otherwise mostly
    /// printable content is treated as text (`K 0xADDR` lines when the
    /// first payload line starts with a kind code, a plain address list
    /// otherwise) and anything else as a raw binary address list.
    pub fn detect(prefix: &[u8]) -> ImportFormat {
        if prefix.starts_with(COMPACT_MAGIC) {
            return ImportFormat::Compact;
        }
        if prefix.starts_with(io::INSTR_MAGIC) {
            return ImportFormat::Instr;
        }
        if prefix.starts_with(io::BINARY_MAGIC) {
            return ImportFormat::Refs;
        }
        let printable = prefix
            .iter()
            .all(|&b| b == b'\n' || b == b'\r' || b == b'\t' || (0x20..0x7f).contains(&b));
        if !prefix.is_empty() && printable {
            let text = String::from_utf8_lossy(prefix);
            for line in text.lines() {
                let t = line.trim();
                if t.is_empty() || t.starts_with('#') {
                    continue;
                }
                let mut chars = t.chars();
                let first = chars.next().unwrap_or(' ');
                if matches!(first, 'I' | 'L' | 'S') && chars.next() == Some(' ') {
                    return ImportFormat::Text;
                }
                return ImportFormat::AddrText;
            }
            return ImportFormat::AddrText;
        }
        ImportFormat::AddrBinary
    }
}

/// Base of the synthetic fetch loop used for data-only address lists:
/// sixteen 4-byte PCs inside one 64-byte line, so the synthesised
/// instruction stream is trivially cacheable and the data stream
/// dominates, as it should for a data-address trace.
const SYNTHETIC_FETCH_BASE: u64 = 0x1000;

fn synthetic_fetch(n: u64) -> Addr {
    Addr::new(SYNTHETIC_FETCH_BASE + (n % 16) * 4)
}

/// Folds a flat `I`/`L`/`S` reference stream into instruction records:
/// a fetch opens a record, the next data reference completes it, and a
/// data reference with no open record gets a synthetic fetch.
#[derive(Debug, Default)]
struct RefFolder {
    pending: Option<InstructionRecord>,
    emitted: u64,
}

impl RefFolder {
    fn push(&mut self, r: MemRef) -> Option<InstructionRecord> {
        match r.kind {
            AccessKind::InstrFetch => {
                let done = self.pending.take();
                self.pending = Some(InstructionRecord::fetch_only(r.addr));
                if done.is_some() {
                    self.emitted += 1;
                }
                done
            }
            AccessKind::Load | AccessKind::Store => {
                let rec = match self.pending.take() {
                    Some(open) => InstructionRecord { fetch: open.fetch, data: Some(r) },
                    None => {
                        InstructionRecord { fetch: synthetic_fetch(self.emitted), data: Some(r) }
                    }
                };
                self.emitted += 1;
                Some(rec)
            }
        }
    }

    fn finish(&mut self) -> Option<InstructionRecord> {
        let done = self.pending.take();
        if done.is_some() {
            self.emitted += 1;
        }
        done
    }
}

/// Folds the references `next` yields into instruction records
/// ([`RefFolder`]) and writes them until `limit` records are written.
fn fold_refs<W: Write>(
    writer: &mut CompactTraceWriter<W>,
    limit: u64,
    mut next: impl FnMut() -> Result<Option<MemRef>, TraceIoError>,
) -> Result<(), TraceIoError> {
    let mut folder = RefFolder::default();
    while let Some(r) = next()? {
        if let Some(rec) = folder.push(r) {
            if writer.written() >= limit {
                return Ok(());
            }
            writer.write(&rec)?;
        }
    }
    match folder.finish() {
        Some(rec) if writer.written() < limit => Ok(writer.write(&rec)?),
        _ => Ok(()),
    }
}

/// Reads until `buf` is full or the input ends; returns the bytes read.
fn read_up_to<R: Read>(input: &mut R, buf: &mut [u8]) -> Result<usize, TraceIoError> {
    let mut got = 0;
    while got < buf.len() {
        match input.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(TraceIoError::Io(e)),
        }
    }
    Ok(got)
}

fn parse_addr_list_line(t: &str, lineno: usize, offset: u64) -> Result<MemRef, TraceIoError> {
    let bad = |detail: String| TraceIoError::Corrupt { offset, detail };
    let (kind, addr_s) = match t.split_once(char::is_whitespace) {
        Some((tag, rest)) => {
            let kind = match tag {
                "R" | "r" | "L" | "l" => AccessKind::Load,
                "W" | "w" | "S" | "s" => AccessKind::Store,
                other => {
                    return Err(bad(format!(
                        "unknown access tag {other:?} on address-list line {}",
                        lineno + 1
                    )))
                }
            };
            (kind, rest.trim())
        }
        None => (AccessKind::Load, t),
    };
    let addr = match addr_s.strip_prefix("0x").or_else(|| addr_s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => addr_s.parse(),
    }
    .map_err(|_| bad(format!("bad address {addr_s:?} on address-list line {}", lineno + 1)))?;
    Ok(MemRef { addr: Addr::new(addr), kind })
}

/// Streams an external trace into the compact `TLCTRC01` format.
///
/// Converts record-at-a-time, so input and output sizes are unbounded by
/// memory. `limit` caps the number of instruction records written.
/// Returns the number of records written.
///
/// # Errors
///
/// Returns a [`TraceIoError`] on malformed input and propagates I/O
/// errors from either side.
pub fn import_to_compact<R: BufRead, W: Write>(
    format: ImportFormat,
    mut input: R,
    out: W,
    limit: Option<u64>,
) -> Result<u64, TraceIoError> {
    let limit = limit.unwrap_or(u64::MAX);
    let mut writer = CompactTraceWriter::new(out)?;
    match format {
        ImportFormat::Compact => {
            let mut reader = TraceReader::new(input, "import")?;
            while writer.written() < limit {
                match reader.try_next()? {
                    Some(rec) => writer.write(&rec)?,
                    None => break,
                }
            }
        }
        ImportFormat::Instr => {
            // TLCITR01 is an in-memory archival format; whole-file decode
            // keeps the reader single-sourced in `io`.
            for rec in io::read_instruction_trace(input)? {
                if writer.written() >= limit {
                    break;
                }
                writer.write(&rec)?;
            }
        }
        ImportFormat::Refs => {
            io::expect_magic(&mut input, io::BINARY_MAGIC)?;
            let mut index = 0u64;
            fold_refs(&mut writer, limit, || {
                index += 1;
                io::read_ref_record(&mut input, index - 1)
            })?;
        }
        ImportFormat::Text | ImportFormat::AddrText => {
            let (mut offset, mut lineno, mut line) = (0u64, 0usize, String::new());
            fold_refs(&mut writer, limit, || loop {
                line.clear();
                if input.read_line(&mut line)? == 0 {
                    return Ok(None);
                }
                let line_offset = offset;
                offset += line.len() as u64;
                lineno += 1;
                let t = line.trim();
                if t.is_empty() || t.starts_with('#') {
                    continue;
                }
                return if format == ImportFormat::Text {
                    io::parse_text_ref(t, lineno - 1, line_offset).map(Some)
                } else {
                    parse_addr_list_line(t, lineno - 1, line_offset).map(Some)
                };
            })?;
        }
        ImportFormat::AddrBinary => {
            let mut index = 0u64;
            fold_refs(&mut writer, limit, || {
                let mut addr = [0u8; 8];
                match read_up_to(&mut input, &mut addr)? {
                    0 => return Ok(None),
                    8 => {}
                    // Raw address lists have no header to anchor a record
                    // boundary, so a trailing partial word is the only
                    // truncation they can show: name it.
                    got => {
                        return Err(TraceIoError::Truncated {
                            offset: 8 * index,
                            detail: format!("address word {index} cut short ({got} of 8 bytes)"),
                        })
                    }
                }
                index += 1;
                Ok(Some(MemRef::load(Addr::new(u64::from_le_bytes(addr)))))
            })?;
        }
    }
    let written = writer.written();
    writer.into_inner()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<InstructionRecord> {
        vec![
            InstructionRecord::fetch_only(Addr::new(0x4000)),
            InstructionRecord::with_data(Addr::new(0x4004), MemRef::load(Addr::new(0x1_0000))),
            InstructionRecord::with_data(
                Addr::new(0x4008),
                MemRef::store(Addr::new(0xFFFF_FFFF_FFFF_FFF0)),
            ),
            InstructionRecord::with_data(Addr::new(0x3FF0), MemRef::load(Addr::new(0x0))),
        ]
    }

    #[test]
    fn compact_roundtrip() {
        let mut buf = Vec::new();
        write_compact_trace(&mut buf, &sample_records()).unwrap();
        assert_eq!(read_compact_trace(&buf[..]).unwrap(), sample_records());
        // Sequential records are a few bytes each, not 9–17.
        assert!(buf.len() < 9 + sample_records().len() * 15, "compact too big: {}", buf.len());
    }

    #[test]
    fn compact_rejects_bad_header() {
        match read_compact_trace(&b"WRONGMAG\x01"[..]).unwrap_err() {
            TraceIoError::BadMagic { expected, .. } => assert_eq!(expected, COMPACT_MAGIC),
            other => panic!("expected BadMagic, got {other}"),
        }
        let mut buf = Vec::new();
        buf.extend_from_slice(COMPACT_MAGIC);
        buf.push(9);
        match read_compact_trace(&buf[..]).unwrap_err() {
            TraceIoError::UnknownVersion { found: 9, supported } => {
                assert_eq!(supported, COMPACT_VERSION)
            }
            other => panic!("expected UnknownVersion, got {other}"),
        }
        match read_compact_trace(&COMPACT_MAGIC[..]).unwrap_err() {
            TraceIoError::Truncated { offset: 8, .. } => {}
            other => panic!("expected Truncated, got {other}"),
        }
    }

    #[test]
    fn compact_rejects_truncated_and_corrupt_records() {
        let mut buf = Vec::new();
        write_compact_trace(&mut buf, &sample_records()).unwrap();
        let mut cut = buf.clone();
        cut.truncate(buf.len() - 1);
        assert!(matches!(
            read_compact_trace(&cut[..]).unwrap_err(),
            TraceIoError::Truncated { .. }
        ));

        let mut bad_ctrl = Vec::new();
        bad_ctrl.extend_from_slice(COMPACT_MAGIC);
        bad_ctrl.push(COMPACT_VERSION);
        bad_ctrl.push(0b100); // reserved control bit
        assert!(matches!(
            read_compact_trace(&bad_ctrl[..]).unwrap_err(),
            TraceIoError::Corrupt { offset: 9, .. }
        ));

        // A store bit without the data bit is meaningless.
        let mut store_only = Vec::new();
        store_only.extend_from_slice(COMPACT_MAGIC);
        store_only.push(COMPACT_VERSION);
        store_only.push(CTRL_STORE);
        store_only.push(0);
        assert!(matches!(
            read_compact_trace(&store_only[..]).unwrap_err(),
            TraceIoError::Corrupt { .. }
        ));

        // An 11-byte varint can never encode a u64.
        let mut long_varint = Vec::new();
        long_varint.extend_from_slice(COMPACT_MAGIC);
        long_varint.push(COMPACT_VERSION);
        long_varint.push(0);
        long_varint.extend_from_slice(&[0x80; 10]);
        long_varint.push(0);
        assert!(matches!(
            read_compact_trace(&long_varint[..]).unwrap_err(),
            TraceIoError::Corrupt { .. }
        ));
    }

    #[test]
    fn reader_parks_error_for_source_interface() {
        let mut buf = Vec::new();
        write_compact_trace(&mut buf, &sample_records()).unwrap();
        buf.truncate(buf.len() - 1);
        let mut reader = TraceReader::new(&buf[..], "cut").unwrap();
        let mut seen = 0;
        while reader.next_instruction_opt().is_some() {
            seen += 1;
        }
        assert_eq!(seen, sample_records().len() - 1);
        assert!(matches!(reader.error(), Some(TraceIoError::Truncated { .. })));
        assert!(reader.take_error().is_some());
        assert!(reader.error().is_none());
    }

    #[test]
    fn zigzag_varint_roundtrip_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 0x7f, -0x80, 1 << 40] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut buf = [0u8; 10];
        for v in [0u64, 1, 127, 128, u64::MAX] {
            let n = push_uvarint(&mut buf, v);
            assert!(n <= 10);
        }
    }

    #[test]
    fn import_text_trace_folds_refs() {
        let src = "# demo\nI 0x100\nL 0x2000\nI 0x104\nI 0x108\nS 0x2040\n";
        let mut out = Vec::new();
        let n = import_to_compact(ImportFormat::Text, src.as_bytes(), &mut out, None).unwrap();
        assert_eq!(n, 3);
        let recs = read_compact_trace(&out[..]).unwrap();
        assert_eq!(
            recs,
            vec![
                InstructionRecord::with_data(Addr::new(0x100), MemRef::load(Addr::new(0x2000))),
                InstructionRecord::fetch_only(Addr::new(0x104)),
                InstructionRecord::with_data(Addr::new(0x108), MemRef::store(Addr::new(0x2040))),
            ]
        );
    }

    #[test]
    fn import_addr_list_synthesises_fetches() {
        let src = "0x1000\nW 0x2000\n# comment\nR 4096\n";
        let mut out = Vec::new();
        let n = import_to_compact(ImportFormat::AddrText, src.as_bytes(), &mut out, None).unwrap();
        assert_eq!(n, 3);
        let recs = read_compact_trace(&out[..]).unwrap();
        assert_eq!(recs[0].data, Some(MemRef::load(Addr::new(0x1000))));
        assert_eq!(recs[1].data, Some(MemRef::store(Addr::new(0x2000))));
        assert_eq!(recs[2].data, Some(MemRef::load(Addr::new(4096))));
        // Synthetic fetches stay inside one 64-byte line.
        for r in &recs {
            assert_eq!(r.fetch.raw() & !63, SYNTHETIC_FETCH_BASE);
        }
    }

    #[test]
    fn import_addr_binary_and_limit() {
        let mut src = Vec::new();
        for a in [0x10u64, 0x20, 0x30, 0x40] {
            src.extend_from_slice(&a.to_le_bytes());
        }
        let mut out = Vec::new();
        let n =
            import_to_compact(ImportFormat::AddrBinary, src.as_slice(), &mut out, Some(2)).unwrap();
        assert_eq!(n, 2);
        let recs = read_compact_trace(&out[..]).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].data, Some(MemRef::load(Addr::new(0x20))));
    }

    #[test]
    fn addr_binary_trailing_partial_word_is_truncation() {
        let words: Vec<u8> = (0..100u64).flat_map(|i| (0x1000 + 16 * i).to_le_bytes()).collect();
        let whole = import_to_compact(ImportFormat::AddrBinary, &words[..], Vec::new(), None);
        assert_eq!(whole.unwrap(), 100);
        let mut cut = words.clone();
        cut.extend_from_slice(&[1, 2, 3]);
        let err = import_to_compact(ImportFormat::AddrBinary, &cut[..], Vec::new(), None);
        match err.unwrap_err() {
            TraceIoError::Truncated { offset, .. } => assert_eq!(offset, 800),
            other => panic!("expected a truncation at 800, got {other}"),
        }
    }

    #[test]
    fn import_rejects_bad_addr_lines() {
        for bad in ["X 0x100", "0xZZ", "R", "R nope"] {
            let mut out = Vec::new();
            let err = import_to_compact(ImportFormat::AddrText, bad.as_bytes(), &mut out, None)
                .unwrap_err();
            assert!(matches!(err, TraceIoError::Corrupt { .. }), "{bad:?}: {err}");
        }
    }

    #[test]
    fn detect_recognises_all_formats() {
        let mut compact = Vec::new();
        write_compact_trace(&mut compact, &sample_records()).unwrap();
        assert_eq!(ImportFormat::detect(&compact), ImportFormat::Compact);
        assert_eq!(ImportFormat::detect(io::INSTR_MAGIC), ImportFormat::Instr);
        assert_eq!(ImportFormat::detect(io::BINARY_MAGIC), ImportFormat::Refs);
        assert_eq!(ImportFormat::detect(b"# c\nI 0x100\n"), ImportFormat::Text);
        assert_eq!(ImportFormat::detect(b"0x1000\n0x2000\n"), ImportFormat::AddrText);
        assert_eq!(ImportFormat::detect(b"W 0x2000\n"), ImportFormat::AddrText);
        assert_eq!(ImportFormat::detect(&[0u8, 1, 2, 0xff]), ImportFormat::AddrBinary);
        for f in
            [ImportFormat::Compact, ImportFormat::Instr, ImportFormat::Refs, ImportFormat::Text]
        {
            assert_eq!(ImportFormat::parse(f.name()), Some(f));
        }
    }

    #[test]
    fn reader_streams_into_arena_chunks() {
        let recs: Vec<InstructionRecord> = (0..10_000u64)
            .map(|i| {
                InstructionRecord::with_data(
                    Addr::new(0x4000 + (i % 64) * 4),
                    MemRef::load(Addr::new(0x10_0000 + i * 8)),
                )
            })
            .collect();
        let mut buf = Vec::new();
        write_compact_trace(&mut buf, &recs).unwrap();
        let mut reader = TraceReader::new(&buf[..], "stream").unwrap();
        let arena = crate::TraceArena::capture_chunked(&mut reader, u64::MAX, 1024);
        assert!(reader.error().is_none());
        assert_eq!(arena.len(), recs.len() as u64);
        let replayed: Vec<InstructionRecord> = arena.replay().collect();
        assert_eq!(replayed, recs);
    }
}
