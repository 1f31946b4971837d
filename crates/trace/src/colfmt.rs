//! The compact columnar on-disk journal format and its streaming
//! compactor.
//!
//! An in-memory [`Journal`](crate::Journal) is bounded and lossy; this
//! module gives the accepted event stream a durable home that is both
//! much smaller than JSONL and queryable without a full scan. The
//! design mirrors the workspace's columnar fleet store: per-column
//! encodings, interned strings, and indexes over block summaries.
//!
//! # Segment layout
//!
//! A **segment** (`seg-NNNNN.vdoj`) holds a contiguous, strictly
//! seq-ordered slice of the stream:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic "VDOJSEG1"                                             │
//! │ varint header_len · header bytes (opaque UTF-8 run metadata) │
//! ├──────────────────────────────────────────────────────────────┤
//! │ block 0 │ block 1 │ … │ block N-1        (≤ block_events ea.) │
//! ├──────────────────────────────────────────────────────────────┤
//! │ footer: dictionary (all interned names/keys/str values)      │
//! │         block index: offset, len, count, min/max seq,        │
//! │                      min/max tick, severity bitmask          │
//! ├──────────────────────────────────────────────────────────────┤
//! │ trailer: u64 LE footer offset · magic "VDOJIDX1"             │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Inside a block every column is encoded independently: sequence
//! numbers as varint deltas (strictly increasing, so deltas are ≥ 1
//! and almost always one byte), logical ticks as zigzag varint deltas,
//! severities packed four-per-byte, event names / field keys / string
//! values as varint symbols into the segment dictionary, trace
//! contexts behind a presence bitmap (the ids themselves are SplitMix
//! hashes — incompressible — and stored raw). There is no generic
//! compression library in this workspace; delta + varint + interning
//! *is* the compression, and it lands well under a third of the JSONL
//! rendering (measured by experiment E18).
//!
//! The per-block `min/max seq`, `min/max tick`, and severity bitmask
//! in the footer index let readers skip whole blocks when asked for a
//! seq range or a severity floor — the same skip-scan trick as the
//! fleet auditor's bitmask sweep.
//!
//! # Writers and readers
//!
//! [`SegmentWriter`]/[`SegmentReader`] handle one file;
//! [`DirWriter`] is the [`JournalSink`] that rolls segments inside a
//! journal directory, and [`JournalDir`] reads one back.
//!
//! **Encode on record.** [`SegmentWriter::append`] writes each event
//! straight into the open block's column buffers; only field values
//! are copied, to wait with their keys for the block's flush, since a
//! block's names take dictionary symbols before its keys and values.
//!
//! **Filtered decode.** A [`SegmentReader`] reads a segment's header,
//! footer and block index once and keeps them; it never holds the
//! block bodies. A scan opens the file once and reads only the blocks
//! its filter can match, each by its offset into one reused buffer, so
//! memory stays at one block per scanning thread. It decodes a block's
//! seq, tick and severity columns first and builds only the rows the
//! query keeps; the others' names, traces and fields are stepped over
//! without allocating. Names and keys become `&'static str` once per
//! segment symbol. [`JournalDir`] keeps one reader per segment, loaded
//! on first use, and scans segments on up to one scoped thread per
//! available CPU, concatenating their rows in segment order: the rows,
//! and the first error, are a sequential scan's.
//!
//! The [`compact`] pass merges a directory into fresh segments, dropping
//! events below a severity floor **except** those belonging to a
//! protected trace — any trace that ever produced a `Warn`-or-worse
//! event keeps its complete causal chain, so an incident's
//! root-resolution path (detection → requirement ingestion) survives
//! compaction by construction.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fs::{self, File};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::context::{SpanId, TraceContext, TraceId};
use crate::journal::{Event, FieldValue, JournalSink, Severity};
use vdo_obs::hash::mix64;

/// Leading file magic of a segment.
pub const SEGMENT_MAGIC: &[u8; 8] = b"VDOJSEG1";
/// Trailing magic after the footer offset.
pub const TRAILER_MAGIC: &[u8; 8] = b"VDOJIDX1";
/// Default events per encoded block.
pub const DEFAULT_BLOCK_EVENTS: usize = 1024;
/// Default events per segment before [`DirWriter`] rolls a new file.
pub const DEFAULT_EVENTS_PER_SEGMENT: u64 = 65_536;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ---------------------------------------------------------------- codecs

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Severity codes on disk: `Debug`=0 … `Error`=3, the index in this
/// table (and the enum's declaration order, so `severity as u8`).
const SEVERITIES: [Severity; 4] = [
    Severity::Debug,
    Severity::Info,
    Severity::Warn,
    Severity::Error,
];

/// Bitmask matching severities at or above `floor` (for index skips).
fn sev_mask_at_or_above(floor: Severity) -> u8 {
    (0b1111 << floor as u8) & 0b1111
}

/// Event names and field keys are `&'static str` in [`Event`]; decoded
/// strings are promoted through a global bounded intern pool (the
/// vocabulary is the couple dozen dotted names the loop emits, so the
/// leak is a few hundred bytes per process, not per event).
fn intern_static(s: &str) -> &'static str {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut pool = POOL.lock().expect("static intern pool poisoned");
    if let Some(&v) = pool.get(s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.into());
    pool.insert(leaked);
    leaked
}

/// Writer-side string dictionary: same shape as the `vdo-host`
/// interner — dense `u32` symbols, insertion-ordered storage. `by_addr`
/// caches `&'static str` names and keys by address and length, direct
/// mapped, so they skip hashing their bytes; a miss falls to `lookup`.
#[derive(Debug, Default)]
struct StrTable {
    strings: Vec<String>,
    lookup: HashMap<String, u32>,
    by_addr: Vec<((usize, usize), u32)>,
}

impl StrTable {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&sym) = self.lookup.get(s) {
            return sym;
        }
        let sym = u32::try_from(self.strings.len()).expect("dictionary overflow");
        self.strings.push(s.to_string());
        self.lookup.insert(s.to_string(), sym);
        sym
    }

    fn intern_static(&mut self, s: &'static str) -> u32 {
        const SLOTS: usize = 256;
        let addr = (s.as_ptr() as usize, s.len());
        let slot = mix64(addr.0 as u64 ^ addr.1 as u64) as usize % SLOTS;
        match self.by_addr.get(slot) {
            Some(&(cached, sym)) if cached == addr => sym,
            _ => {
                let sym = self.intern(s);
                // A pointer is never null, so `(0, 0)` marks a free slot.
                self.by_addr.resize(SLOTS, ((0, 0), 0));
                self.by_addr[slot] = (addr, sym);
                sym
            }
        }
    }
}

// ---------------------------------------------------------------- writer

/// Summary of one encoded block, stored in the footer index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Byte offset of the block within the file.
    pub offset: u64,
    /// Encoded length in bytes.
    pub len: u64,
    /// Events held.
    pub count: u64,
    /// Smallest sequence number in the block.
    pub min_seq: u64,
    /// Largest sequence number in the block.
    pub max_seq: u64,
    /// Smallest logical tick in the block.
    pub min_tick: u64,
    /// Largest logical tick in the block.
    pub max_tick: u64,
    /// Bit `1 << code` set for every severity present (Debug=0 …
    /// Error=3) — lets severity-floor scans skip whole blocks.
    pub severity_mask: u8,
}

/// What [`SegmentWriter::finish`] reports about the sealed file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentStats {
    /// Path of the sealed segment.
    pub path: PathBuf,
    /// Events written.
    pub events: u64,
    /// Total file size in bytes.
    pub bytes: u64,
    /// Encoded blocks.
    pub blocks: u64,
}

/// Encodes one segment file: append strictly seq-ordered events, then
/// [`finish`](SegmentWriter::finish) to write the dictionary footer,
/// block index, and trailer. An unfinished segment (process died
/// mid-write) is detected by readers via the missing trailer magic.
#[derive(Debug)]
pub struct SegmentWriter {
    file: File,
    path: PathBuf,
    offset: u64,
    dict: StrTable,
    block: OpenBlock,
    blocks: Vec<BlockMeta>,
    block_events: usize,
    last_seq: Option<u64>,
}

/// The block being filled, encoded column by column as rows arrive
/// (see "Encode on record" in the module docs).
#[derive(Debug, Default)]
struct OpenBlock {
    rows: usize,
    seqs: Vec<u8>,
    ticks: Vec<u8>,
    sevs: Vec<u8>,
    names: Vec<u8>,
    present: Vec<u8>,
    traces: Vec<u8>,
    field_counts: Vec<usize>,
    fields: Vec<(&'static str, FieldValue)>,
    min_seq: u64,
    last_tick: u64,
    min_tick: u64,
    max_tick: u64,
    severity_mask: u8,
}

impl SegmentWriter {
    /// Creates `path` and writes the magic + `header` (opaque run
    /// metadata, e.g. the replay engine's serialized `RunSpec`).
    pub fn create(path: &Path, header: &str, block_events: usize) -> io::Result<Self> {
        assert!(block_events > 0, "blocks must hold at least one event");
        let mut w = SegmentWriter {
            file: File::create(path)?,
            path: path.to_path_buf(),
            offset: 0,
            dict: StrTable::default(),
            block: OpenBlock::default(),
            blocks: Vec::new(),
            block_events,
            last_seq: None,
        };
        let mut head = Vec::with_capacity(16 + header.len());
        head.extend_from_slice(SEGMENT_MAGIC);
        put_varint(&mut head, header.len() as u64);
        head.extend_from_slice(header.as_bytes());
        w.write(&head)?;
        Ok(w)
    }

    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)?;
        self.offset += bytes.len() as u64;
        Ok(())
    }

    /// Appends one event. `seq` must be strictly greater than the
    /// previous one — the block index relies on sorted seq ranges.
    pub fn append(&mut self, seq: u64, event: &Event) -> io::Result<()> {
        if let Some(last) = self.last_seq.filter(|&last| seq <= last) {
            return Err(bad(format!("seq {seq} not after {last}")));
        }
        let (i, at) = (self.block.rows, event.at);
        let b = &mut self.block;
        // Seq column: first value raw, then strictly positive deltas.
        // Tick column: first value raw, then zigzag deltas (ticks are
        // near-sorted but development-phase events sit at 0).
        if i == 0 {
            put_varint(&mut b.seqs, seq);
            put_varint(&mut b.ticks, at);
            (b.min_seq, b.min_tick, b.max_tick) = (seq, at, at);
        } else {
            put_varint(&mut b.seqs, seq - self.last_seq.unwrap_or(0));
            put_varint(&mut b.ticks, zigzag(at.wrapping_sub(b.last_tick) as i64));
            (b.min_tick, b.max_tick) = (b.min_tick.min(at), b.max_tick.max(at));
        }
        b.last_tick = at;
        // Severity column: four 2-bit codes per byte, LSB first.
        let code = event.severity as u8;
        if i % 4 == 0 {
            b.sevs.push(0);
        }
        b.sevs[i / 4] |= code << ((i % 4) * 2);
        b.severity_mask |= 1 << code;
        // Name column: dictionary symbols.
        put_varint(&mut b.names, u64::from(self.dict.intern_static(event.name)));
        // Trace columns: presence bitmap, then raw ids (SplitMix
        // hashes — incompressible by design).
        if i % 8 == 0 {
            b.present.push(0);
        }
        if let Some(t) = &event.trace {
            b.present[i / 8] |= 1 << (i % 8);
            b.traces.extend_from_slice(&t.trace_id.0.to_le_bytes());
            b.traces.extend_from_slice(&t.span_id.0.to_le_bytes());
            b.traces.push(u8::from(t.parent.is_some()));
            if let Some(p) = t.parent {
                b.traces.extend_from_slice(&p.0.to_le_bytes());
            }
        }
        b.field_counts.push(event.fields.len());
        b.fields.extend(event.fields.iter().cloned());
        b.rows += 1;
        self.last_seq = Some(seq);
        if b.rows >= self.block_events {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> io::Result<()> {
        let b = &mut self.block;
        if b.rows == 0 {
            return Ok(());
        }
        let columns = [&b.seqs, &b.ticks, &b.sevs, &b.names, &b.present, &b.traces];
        let mut body = Vec::with_capacity(10 + columns.iter().map(|c| c.len()).sum::<usize>());
        put_varint(&mut body, b.rows as u64);
        // The byte columns move into the body and keep their capacity.
        for column in [
            &mut b.seqs,
            &mut b.ticks,
            &mut b.sevs,
            &mut b.names,
            &mut b.present,
            &mut b.traces,
        ] {
            body.append(column);
        }
        // Field columns: count, then (key symbol, tag, payload) per
        // field; string values are interned too.
        let mut fields = b.fields.iter();
        for &n in &b.field_counts {
            put_varint(&mut body, n as u64);
            for (k, v) in fields.by_ref().take(n) {
                put_varint(&mut body, u64::from(self.dict.intern_static(k)));
                let (tag, payload) = match v {
                    FieldValue::U64(n) => (0, *n),
                    FieldValue::I64(n) => (1, zigzag(*n)),
                    FieldValue::F64(x) => (2, x.to_bits()),
                    FieldValue::Bool(b) => (3 + u8::from(*b), 0),
                    FieldValue::Str(s) => (5, u64::from(self.dict.intern(s))),
                };
                body.push(tag);
                match tag {
                    2 => body.extend_from_slice(&payload.to_le_bytes()),
                    3 | 4 => {}
                    _ => put_varint(&mut body, payload),
                }
            }
        }
        let meta = BlockMeta {
            offset: self.offset,
            len: body.len() as u64,
            count: b.rows as u64,
            min_seq: b.min_seq,
            max_seq: self.last_seq.unwrap_or(b.min_seq),
            min_tick: b.min_tick,
            max_tick: b.max_tick,
            severity_mask: b.severity_mask,
        };
        (b.rows, b.severity_mask) = (0, 0);
        b.field_counts.clear();
        b.fields.clear();
        self.write(&body)?;
        self.blocks.push(meta);
        Ok(())
    }

    /// Flushes the open block, writes the dictionary footer + block
    /// index + trailer, and syncs the file.
    pub fn finish(mut self) -> io::Result<SegmentStats> {
        self.flush_block()?;
        let footer_offset = self.offset;
        let mut footer = Vec::new();
        put_varint(&mut footer, self.dict.strings.len() as u64);
        for s in &self.dict.strings {
            put_varint(&mut footer, s.len() as u64);
            footer.extend_from_slice(s.as_bytes());
        }
        put_varint(&mut footer, self.blocks.len() as u64);
        for b in &self.blocks {
            let index = [
                b.offset, b.len, b.count, b.min_seq, b.max_seq, b.min_tick, b.max_tick,
            ];
            for v in index {
                put_varint(&mut footer, v);
            }
            footer.push(b.severity_mask);
        }
        footer.extend_from_slice(&footer_offset.to_le_bytes());
        footer.extend_from_slice(TRAILER_MAGIC);
        self.write(&footer)?;
        self.file.flush()?;
        Ok(SegmentStats {
            path: self.path.clone(),
            events: self.blocks.iter().map(|b| b.count).sum(),
            bytes: self.offset,
            blocks: self.blocks.len() as u64,
        })
    }
}

// ---------------------------------------------------------------- reader

struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| bad("overflow"))?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| bad("truncated"))?;
        self.pos = end;
        Ok(s)
    }

    /// A varint count of items of `min_bytes` or more that must fit.
    fn count(&mut self, min_bytes: u64) -> io::Result<usize> {
        let n = self.varint()?;
        let left = (self.buf.len() - self.pos) as u64;
        if n.checked_mul(min_bytes).is_none_or(|need| need > left) {
            return Err(bad(format!("count {n} exceeds the {left} bytes left")));
        }
        Ok(n as usize)
    }

    /// A varint length, then that many bytes of UTF-8.
    fn string(&mut self) -> io::Result<String> {
        let len = self.varint()? as usize;
        String::from_utf8(self.bytes(len)?.to_vec()).map_err(|_| bad("string is not UTF-8"))
    }

    fn u64_le(&mut self) -> io::Result<u64> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn varint(&mut self) -> io::Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            v |= u64::from(b & 0x7f)
                .checked_shl(shift)
                .ok_or_else(|| bad("varint overflow"))?;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(bad("varint too long"));
            }
        }
    }
}

/// Decodes one segment file. Opening reads the header, the footer
/// and the block index and keeps them; block bodies are read from the
/// file by offset when a scan needs them (see "Filtered decode" in the
/// module docs), so the file must not change while the reader lives.
#[derive(Debug)]
pub struct SegmentReader {
    path: PathBuf,
    header: String,
    dict: Vec<String>,
    /// Each entry as a `&'static str`, set when a name or key uses it.
    statics: Vec<OnceLock<&'static str>>,
    blocks: Vec<BlockMeta>,
    events: u64,
}

/// Reads exactly `len` bytes at `offset`, or reports the file too
/// short as `InvalidData` — a truncated segment is corrupt data.
fn read_at(file: &mut File, offset: u64, len: u64, buf: &mut Vec<u8>) -> io::Result<()> {
    let len = usize::try_from(len).map_err(|_| bad("length overflow"))?;
    buf.clear();
    buf.resize(len, 0);
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => bad("truncated"),
        _ => e,
    })
}

impl SegmentReader {
    /// Opens and indexes `path`, reading its header, footer and
    /// trailer (not its blocks). A footer count that the bytes left
    /// cannot hold is `InvalidData`; nothing is sized by it unchecked.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut head = Vec::new();
        read_at(&mut file, 0, len.min(18), &mut head)?;
        if len < 24 || &head[..8] != SEGMENT_MAGIC {
            return Err(bad(format!("{}: not a journal segment", path.display())));
        }
        let mut tail = Vec::new();
        read_at(&mut file, len - 16, 16, &mut tail)?;
        if &tail[8..] != TRAILER_MAGIC {
            return Err(bad(format!(
                "{}: missing trailer (unfinished segment?)",
                path.display()
            )));
        }
        let footer_end = len - 16;
        let footer_offset = Cur::new(&tail).u64_le()?;
        if footer_offset > footer_end {
            return Err(bad("footer offset out of range"));
        }
        // The header: a varint length (at most ten bytes), then that
        // many bytes of UTF-8, all inside the file.
        let mut cur = Cur::new(&head[8..]);
        let header_len = cur.varint()?;
        let header_at = 8 + cur.pos as u64;
        if header_len > len - header_at {
            return Err(bad("truncated"));
        }
        let mut bytes = Vec::new();
        read_at(&mut file, header_at, header_len, &mut bytes)?;
        let header = String::from_utf8(bytes).map_err(|_| bad("string is not UTF-8"))?;
        let mut footer = Vec::new();
        read_at(
            &mut file,
            footer_offset,
            footer_end - footer_offset,
            &mut footer,
        )?;
        let mut cur = Cur::new(&footer);
        let dict_len = cur.count(1)?;
        let dict = (0..dict_len)
            .map(|_| cur.string())
            .collect::<io::Result<Vec<_>>>()?;
        let n_blocks = cur.count(8)?;
        let mut blocks = Vec::with_capacity(n_blocks);
        let mut events = 0u64;
        for _ in 0..n_blocks {
            let meta = BlockMeta {
                offset: cur.varint()?,
                len: cur.varint()?,
                count: cur.varint()?,
                min_seq: cur.varint()?,
                max_seq: cur.varint()?,
                min_tick: cur.varint()?,
                max_tick: cur.varint()?,
                severity_mask: cur.u8()?,
            };
            // Every row takes at least one byte of its block.
            let end = meta.offset.checked_add(meta.len);
            if meta.count > meta.len || end.is_none_or(|end| end > footer_offset) {
                return Err(bad("block index entry out of range"));
            }
            let total = events.checked_add(meta.count);
            events = total.ok_or_else(|| bad("event count overflow"))?;
            blocks.push(meta);
        }
        Ok(SegmentReader {
            path: path.to_path_buf(),
            header,
            statics: dict.iter().map(|_| OnceLock::new()).collect(),
            dict,
            blocks,
            events,
        })
    }

    /// The opaque header the writer stored.
    #[must_use]
    pub fn header(&self) -> &str {
        &self.header
    }

    /// Block summaries, in file order.
    #[must_use]
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// Events held.
    #[must_use]
    pub fn event_count(&self) -> u64 {
        self.events
    }

    /// Smallest seq held (`None` for an empty segment).
    #[must_use]
    pub fn min_seq(&self) -> Option<u64> {
        self.blocks.first().map(|b| b.min_seq)
    }

    /// Largest seq held (`None` for an empty segment).
    #[must_use]
    pub fn max_seq(&self) -> Option<u64> {
        self.blocks.last().map(|b| b.max_seq)
    }

    fn sym(&self, sym: u64) -> io::Result<&str> {
        self.dict
            .get(sym as usize)
            .map(String::as_str)
            .ok_or_else(|| bad(format!("symbol {sym} outside dictionary")))
    }

    /// An event name or field key: symbol `sym` as a `&'static str`.
    fn name(&self, sym: u64) -> io::Result<&'static str> {
        let s = self.sym(sym)?;
        Ok(self.statics[sym as usize].get_or_init(|| intern_static(s)))
    }

    /// Opens the file once and hands `f` the body of every block
    /// `want` accepts, in file order, each read by its offset into one
    /// reused buffer. Opens nothing when no block is wanted.
    fn for_each_body(
        &self,
        want: impl Fn(&BlockMeta) -> bool,
        mut f: impl FnMut(&BlockMeta, &[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut blocks = self.blocks.iter().filter(|meta| want(meta));
        let Some(first) = blocks.next() else {
            return Ok(());
        };
        let mut file = File::open(&self.path)?;
        let mut body = Vec::new();
        for meta in std::iter::once(first).chain(blocks) {
            read_at(&mut file, meta.offset, meta.len, &mut body)?;
            f(meta, &body)?;
        }
        Ok(())
    }

    /// Appends the rows of one block body that `keep(seq, severity)`
    /// accepts to `out` (see "Filtered decode" in the module docs).
    fn decode_block(
        &self,
        meta: &BlockMeta,
        body: &[u8],
        keep: impl Fn(u64, Severity) -> bool,
        out: &mut Vec<(u64, Event)>,
    ) -> io::Result<()> {
        let mut cur = Cur::new(body);
        let count = cur.count(1)?;
        if count as u64 != meta.count {
            return Err(bad("block count mismatch with index"));
        }
        let mut seqs: Vec<u64> = Vec::with_capacity(count);
        for _ in 0..count {
            let delta = cur.varint()?;
            let seq = seqs.last().map_or(Some(delta), |&s| s.checked_add(delta));
            seqs.push(seq.ok_or_else(|| bad("seq overflow"))?);
        }
        let mut ticks: Vec<u64> = Vec::with_capacity(count);
        for _ in 0..count {
            let v = cur.varint()?;
            let tick = match ticks.last() {
                None => Some(v),
                Some(&t) => (t as i64)
                    .checked_add(unzigzag(v))
                    .and_then(|t| u64::try_from(t).ok()),
            };
            ticks.push(tick.ok_or_else(|| bad("tick out of range"))?);
        }
        // Each kept row's index in `out`; rejected rows are only skipped.
        const SKIP: usize = usize::MAX;
        let sevs = cur.bytes(count.div_ceil(4))?;
        let mut slots = Vec::with_capacity(count);
        for (i, (&seq, &at)) in seqs.iter().zip(&ticks).enumerate() {
            let severity = SEVERITIES[usize::from(sevs[i / 4] >> ((i % 4) * 2)) & 0b11];
            slots.push(if keep(seq, severity) {
                out.push((seq, Event::new("", severity).at(at)));
                out.len() - 1
            } else {
                SKIP
            });
        }
        for &slot in &slots {
            let sym = cur.varint()?;
            if let Some((_, e)) = out.get_mut(slot) {
                e.name = self.name(sym)?;
            }
        }
        let present = cur.bytes(count.div_ceil(8))?;
        for (i, &slot) in slots.iter().enumerate() {
            if present[i / 8] & (1 << (i % 8)) == 0 {
                continue;
            }
            let trace = TraceContext {
                trace_id: TraceId(cur.u64_le()?),
                span_id: SpanId(cur.u64_le()?),
                parent: match cur.u8()? {
                    0 => None,
                    1 => Some(SpanId(cur.u64_le()?)),
                    other => return Err(bad(format!("invalid parent flag {other}"))),
                },
            };
            if let Some((_, e)) = out.get_mut(slot) {
                e.trace = Some(trace);
            }
        }
        for &slot in &slots {
            for _ in 0..cur.varint()? {
                let key = cur.varint()?;
                let value = match cur.u8()? {
                    0 => FieldValue::U64(cur.varint()?),
                    1 => FieldValue::I64(unzigzag(cur.varint()?)),
                    2 => FieldValue::F64(f64::from_bits(cur.u64_le()?)),
                    3 => FieldValue::Bool(false),
                    4 => FieldValue::Bool(true),
                    5 if slot == SKIP => FieldValue::U64(cur.varint()?),
                    5 => FieldValue::Str(self.sym(cur.varint()?)?.to_string()),
                    other => return Err(bad(format!("invalid field tag {other}"))),
                };
                if let Some((_, e)) = out.get_mut(slot) {
                    e.fields.push(self.name(key)?, value);
                }
            }
        }
        Ok(())
    }

    /// Every event in the segment, in seq order.
    pub fn events(&self) -> io::Result<Vec<(u64, Event)>> {
        self.events_where(None, None, None)
    }

    /// Index-guided scan: events with severity ≥ `min_severity` (when
    /// given) whose seq lies in `[min_seq, max_seq]` (when given).
    /// Blocks whose summary cannot match are skipped without decoding,
    /// and rows the filter rejects are never built.
    pub fn events_where(
        &self,
        min_severity: Option<Severity>,
        min_seq: Option<u64>,
        max_seq: Option<u64>,
    ) -> io::Result<Vec<(u64, Event)>> {
        self.scan(&Filter::new(min_severity, min_seq, max_seq))
    }

    /// The rows `filter` keeps, from the blocks it can match.
    fn scan(&self, filter: &Filter) -> io::Result<Vec<(u64, Event)>> {
        let mut out = Vec::new();
        self.for_each_body(
            |meta| filter.wants(meta),
            |meta, body| self.decode_block(meta, body, |seq, sev| filter.keeps(seq, sev), &mut out),
        )?;
        Ok(out)
    }
}

/// A scan's filter: an optional severity floor and an optional
/// inclusive seq range.
#[derive(Debug, Clone, Copy)]
struct Filter {
    floor: Option<Severity>,
    min_seq: Option<u64>,
    max_seq: Option<u64>,
}

impl Filter {
    fn new(floor: Option<Severity>, min_seq: Option<u64>, max_seq: Option<u64>) -> Self {
        Filter {
            floor,
            min_seq,
            max_seq,
        }
    }

    /// Whether the block's summary admits a row this filter keeps.
    fn wants(&self, meta: &BlockMeta) -> bool {
        let mask = self.floor.map(sev_mask_at_or_above);
        !(mask.is_some_and(|mask| meta.severity_mask & mask == 0)
            || self.min_seq.is_some_and(|lo| meta.max_seq < lo)
            || self.max_seq.is_some_and(|hi| meta.min_seq > hi))
    }

    fn keeps(&self, seq: u64, severity: Severity) -> bool {
        self.floor.is_none_or(|floor| severity >= floor)
            && self.min_seq.is_none_or(|lo| seq >= lo)
            && self.max_seq.is_none_or(|hi| seq <= hi)
    }
}

// ---------------------------------------------------------------- dir sink

/// The durable [`JournalSink`]: writes the accepted event stream into
/// a directory of columnar segments, rolling a new file every
/// `events_per_segment` events. [`JournalSink::flush`] (reached via
/// [`Journal::sync`](crate::Journal::sync)) seals the open segment so
/// readers can consume everything recorded so far; dropping the
/// writer seals it too.
///
/// I/O errors panic — the sink sits behind the journal's infallible
/// `emit` path, and a forensics journal that silently loses events
/// would defeat its purpose.
#[derive(Debug)]
pub struct DirWriter {
    dir: PathBuf,
    header: String,
    events_per_segment: u64,
    block_events: usize,
    current: Option<SegmentWriter>,
    in_current: u64,
    next_index: u32,
    /// Bytes in the segments sealed so far.
    bytes: u64,
}

impl DirWriter {
    /// Creates (or reuses) `dir` and opens the first segment with
    /// default roll/block sizes. `header` is stored verbatim in every
    /// segment — the replay engine keeps the run's `RunSpec` there.
    pub fn create(dir: &Path, header: &str) -> io::Result<Self> {
        DirWriter::with_limits(
            dir,
            header,
            DEFAULT_EVENTS_PER_SEGMENT,
            DEFAULT_BLOCK_EVENTS,
        )
    }

    /// [`create`](DirWriter::create) with explicit segment roll
    /// threshold and block size.
    pub fn with_limits(
        dir: &Path,
        header: &str,
        events_per_segment: u64,
        block_events: usize,
    ) -> io::Result<Self> {
        let mut w = DirWriter::lazy(dir, header, events_per_segment, block_events)?;
        // Open the first segment eagerly so even an event-free run
        // leaves a readable (header-bearing) journal behind.
        w.open_segment()?;
        Ok(w)
    }

    /// A writer that creates its first segment at its first event.
    fn lazy(dir: &Path, header: &str, per_segment: u64, block: usize) -> io::Result<Self> {
        assert!(per_segment > 0, "segments must hold events");
        fs::create_dir_all(dir)?;
        Ok(DirWriter {
            dir: dir.to_path_buf(),
            header: header.to_string(),
            events_per_segment: per_segment,
            block_events: block,
            current: None,
            in_current: 0,
            next_index: 0,
            bytes: 0,
        })
    }

    fn open_segment(&mut self) -> io::Result<()> {
        let path = self.dir.join(format!("seg-{:05}.vdoj", self.next_index));
        self.next_index += 1;
        let writer = SegmentWriter::create(&path, &self.header, self.block_events)?;
        self.current = Some(writer);
        self.in_current = 0;
        Ok(())
    }

    fn seal_current(&mut self) -> io::Result<()> {
        if let Some(writer) = self.current.take() {
            self.bytes += writer.finish()?.bytes;
        }
        Ok(())
    }

    fn try_record(&mut self, seq: u64, event: &Event) -> io::Result<()> {
        if self.current.is_none() {
            self.open_segment()?;
        }
        let writer = self.current.as_mut().expect("segment just opened");
        writer.append(seq, event)?;
        self.in_current += 1;
        if self.in_current >= self.events_per_segment {
            self.seal_current()?;
        }
        Ok(())
    }
}

impl JournalSink for DirWriter {
    fn record(&mut self, seq: u64, event: &Event) {
        self.try_record(seq, event)
            .unwrap_or_else(|e| panic!("persistent journal write failed: {e}"));
    }

    fn flush(&mut self) {
        self.seal_current()
            .unwrap_or_else(|e| panic!("persistent journal flush failed: {e}"));
    }
}

impl Drop for DirWriter {
    fn drop(&mut self) {
        // Drop-safety guarantee (unit-tested below): a writer that is
        // dropped without an explicit `Journal::sync` still finalizes
        // the open segment — trailing block, dictionary, and footer —
        // so the directory is fully readable. Panicking in drop would
        // abort during unwinding, so a drop-path failure is reported
        // on stderr instead of being swallowed; `Journal::sync` stays
        // the loud (panicking) variant.
        if let Err(e) = self.seal_current() {
            eprintln!("vdo-trace: failed to seal journal segment on drop: {e}");
        }
    }
}

// ---------------------------------------------------------------- dir reader

/// Reads a [`DirWriter`] directory: finished segments in name (= seq)
/// order. Each segment's index (header, footer, block index) is read on
/// first use and kept; its blocks are read per scan (see "Filtered
/// decode" in the module docs).
#[derive(Debug)]
pub struct JournalDir {
    segments: Vec<PathBuf>,
    /// Each segment's reader, or the kind and text of the error opening
    /// it gave, so every later call reports that error again.
    readers: Vec<OnceLock<Result<SegmentReader, (io::ErrorKind, String)>>>,
}

impl JournalDir {
    /// Lists the `.vdoj` segments under `dir`. Fails when the
    /// directory holds none (nothing was ever synced); a segment's
    /// index is read, and its errors reported, on first use.
    pub fn open(dir: &Path) -> io::Result<Self> {
        let mut segments: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "vdoj"))
            .collect();
        segments.sort();
        if segments.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{}: no journal segments", dir.display()),
            ));
        }
        let readers = segments.iter().map(|_| OnceLock::new()).collect();
        Ok(JournalDir { segments, readers })
    }

    /// The segment paths, in seq order.
    #[must_use]
    pub fn segment_paths(&self) -> &[PathBuf] {
        &self.segments
    }

    /// Segment `i`'s reader, indexed on first use.
    fn segment(&self, i: usize) -> io::Result<&SegmentReader> {
        let open = || SegmentReader::open(&self.segments[i]).map_err(|e| (e.kind(), e.to_string()));
        match self.readers[i].get_or_init(open) {
            Ok(reader) => Ok(reader),
            Err((kind, msg)) => Err(io::Error::new(*kind, msg.clone())),
        }
    }

    /// The opaque header (identical across segments; read from the
    /// first).
    pub fn header(&self) -> io::Result<String> {
        Ok(self.segment(0)?.header().to_string())
    }

    /// Total on-disk size of all segments.
    pub fn total_bytes(&self) -> io::Result<u64> {
        self.segments
            .iter()
            .map(|p| Ok(fs::metadata(p)?.len()))
            .sum()
    }

    /// Total events across segments (index-only; no block decoding).
    pub fn event_count(&self) -> io::Result<u64> {
        (0..self.segments.len())
            .map(|i| Ok(self.segment(i)?.event_count()))
            .sum()
    }

    /// Every event, in global seq order.
    pub fn events(&self) -> io::Result<Vec<(u64, Event)>> {
        self.events_where(None, None, None)
    }

    /// Index-guided scan across all segments (see
    /// [`SegmentReader::events_where`]). Segments with a block the
    /// filter can match are decoded on up to one scoped thread per
    /// available CPU; their rows are concatenated in segment order, and
    /// the error returned is the first a sequential scan would meet.
    pub fn events_where(
        &self,
        min_severity: Option<Severity>,
        min_seq: Option<u64>,
        max_seq: Option<u64>,
    ) -> io::Result<Vec<(u64, Event)>> {
        let filter = Filter::new(min_severity, min_seq, max_seq);
        // A sequential scan stops at the first segment it cannot open:
        // scan the segments before it, then report it.
        let mut wanted = Vec::new();
        let mut unopened = None;
        for i in 0..self.segments.len() {
            match self.segment(i) {
                Ok(reader) if reader.blocks.iter().any(|meta| filter.wants(meta)) => {
                    wanted.push(reader);
                }
                Ok(_) => {}
                Err(e) => {
                    unopened = Some(e);
                    break;
                }
            }
        }
        let mut out = Vec::new();
        for rows in scan_segments(&wanted, |reader| reader.scan(&filter)) {
            let mut rows = rows?;
            if out.is_empty() {
                out = rows;
            } else {
                out.append(&mut rows);
            }
        }
        unopened.map_or(Ok(out), Err)
    }

    /// The logical tick of the event holding `seq`, found via the
    /// block index (only the one containing block is decoded).
    pub fn tick_for_seq(&self, seq: u64) -> io::Result<Option<u64>> {
        for i in 0..self.segments.len() {
            let hit = self.segment(i)?.events_where(None, Some(seq), Some(seq))?;
            if let Some((_, event)) = hit.first() {
                return Ok(Some(event.at));
            }
        }
        Ok(None)
    }
}

/// Runs `scan` on every reader, on up to `min(readers, available
/// CPUs)` scoped threads (the caller is one of them), and returns the
/// results in reader order.
fn scan_segments<T: Send>(
    readers: &[&SegmentReader],
    scan: impl Fn(&SegmentReader) -> T + Sync,
) -> Vec<T> {
    let threads = match readers.len() {
        0 | 1 => 1,
        n => std::thread::available_parallelism()
            .map_or(1, NonZeroUsize::get)
            .min(n),
    };
    if threads == 1 {
        return readers.iter().map(|reader| scan(reader)).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(reader) = readers.get(i) else {
                return done;
            };
            done.push((i, scan(reader)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

// ---------------------------------------------------------------- compactor

/// What [`compact`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Events scanned in the source directory.
    pub events_in: u64,
    /// Events kept in the compacted output.
    pub events_out: u64,
    /// Source bytes on disk.
    pub bytes_in: u64,
    /// Compacted bytes on disk.
    pub bytes_out: u64,
    /// Source segment count.
    pub segments_in: u64,
    /// Output segment count.
    pub segments_out: u64,
    /// Distinct protected traces (incident chains kept whole).
    pub protected_traces: u64,
}

impl CompactionStats {
    /// Size reduction factor (`bytes_in / bytes_out`).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.bytes_out == 0 {
            return f64::INFINITY;
        }
        self.bytes_in as f64 / self.bytes_out as f64
    }
}

/// Streaming two-pass compaction of the journal directory at `src`
/// into fresh segments under `dst`.
///
/// Pass 1 scans only `Warn`-and-above events (block skipping via the
/// severity index) to collect the **protected** trace set — every
/// trace that produced a detection, violation, dead letter, or alert.
/// Pass 2 streams each segment block by block and keeps an event iff
/// its severity is ≥ `floor` *or* its trace is protected; because a
/// requirement's ingestion event shares its trace id with every
/// incident derived from it, each surviving incident keeps its full
/// root-resolution chain. Memory stays bounded by one decoded block
/// plus the protected id set; original seqs are preserved (the delta
/// codec absorbs the gaps).
pub fn compact(
    src: &Path,
    dst: &Path,
    floor: Severity,
    events_per_segment: u64,
) -> io::Result<CompactionStats> {
    let src_dir = JournalDir::open(src)?;
    let header = src_dir.header()?;
    let protected: HashSet<u64> = src_dir
        .events_where(Some(Severity::Warn), None, None)?
        .iter()
        .filter_map(|(_, e)| e.trace.map(|t| t.trace_id.0))
        .collect();
    let mut stats = CompactionStats {
        events_in: 0,
        events_out: 0,
        bytes_in: src_dir.total_bytes()?,
        bytes_out: 0,
        segments_in: src_dir.segment_paths().len() as u64,
        segments_out: 0,
        protected_traces: protected.len() as u64,
    };
    let mut out = DirWriter::lazy(dst, &header, events_per_segment, DEFAULT_BLOCK_EVENTS)?;
    let mut rows = Vec::new();
    for i in 0..src_dir.segments.len() {
        let reader = src_dir.segment(i)?;
        reader.for_each_body(
            |_| true,
            |meta, body| {
                reader.decode_block(meta, body, |_, _| true, &mut rows)?;
                for (seq, event) in rows.drain(..) {
                    stats.events_in += 1;
                    if event.severity >= floor
                        || event
                            .trace
                            .is_some_and(|t| protected.contains(&t.trace_id.0))
                    {
                        out.try_record(seq, &event)?;
                        stats.events_out += 1;
                    }
                }
                Ok(())
            },
        )?;
    }
    out.seal_current()?;
    stats.bytes_out = out.bytes;
    stats.segments_out = u64::from(out.next_index);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, JournalConfig};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vdo-colfmt-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn sample_events(n: u64, seed: u64) -> Vec<Event> {
        (0..n)
            .map(|i| {
                let root = TraceContext::root(seed, &format!("V-{}", i % 7));
                let sev = match i % 10 {
                    0 => Severity::Warn,
                    1..=3 => Severity::Info,
                    9 => Severity::Error,
                    _ => Severity::Debug,
                };
                let mut e = Event::new(
                    match i % 3 {
                        0 => "soc.drift",
                        1 => "soc.detection",
                        _ => "soc.remediation.attempt",
                    },
                    sev,
                )
                .at(i / 4)
                .field("host", i % 64)
                .field("rule", format!("V-{}", i % 7));
                if i % 5 != 4 {
                    e = e.trace(root.child_u64("tick", i));
                }
                if i % 11 == 0 {
                    e = e
                        .field("latency", 0.25 * (i % 8) as f64)
                        .field("ok", i % 2 == 0);
                }
                e
            })
            .collect()
    }

    #[test]
    fn roundtrips_every_column_bit_exactly() {
        let dir = tmp("roundtrip");
        let path = dir.join("seg-00000.vdoj");
        let events = sample_events(500, 3);
        let mut w = SegmentWriter::create(&path, "hdr k=v", 64).unwrap();
        for (i, e) in events.iter().enumerate() {
            w.append(i as u64 * 3, e).unwrap();
        }
        let stats = w.finish().unwrap();
        assert_eq!(stats.events, 500);
        assert_eq!(stats.blocks, 500usize.div_ceil(64) as u64);

        let r = SegmentReader::open(&path).unwrap();
        assert_eq!(r.header(), "hdr k=v");
        assert_eq!(r.event_count(), 500);
        let got = r.events().unwrap();
        assert_eq!(got.len(), 500);
        for (i, (seq, e)) in got.iter().enumerate() {
            assert_eq!(*seq, i as u64 * 3);
            assert_eq!(e, &events[i], "event {i} must round-trip exactly");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// FNV-1a of the segment [`encoder_bytes_are_pinned`] writes. A
    /// change here changes the on-disk format: every journal on disk
    /// and every replay digest moves with it.
    const SAMPLE_SEGMENT_DIGEST: u64 = 0xf5e3_e129_894a_6ba1;

    #[test]
    fn encoder_bytes_are_pinned() {
        let dir = tmp("pinned");
        let path = dir.join("seg-00000.vdoj");
        let mut w = SegmentWriter::create(&path, "pinned", 64).unwrap();
        for (i, e) in sample_events(5_000, 7).iter().enumerate() {
            w.append(i as u64 * 2 + 1, e).unwrap();
        }
        w.finish().unwrap();
        let bytes = fs::read(&path).unwrap();
        let digest = vdo_obs::hash::fnv1a(vdo_obs::hash::FNV_OFFSET, &bytes);
        assert_eq!(
            digest,
            SAMPLE_SEGMENT_DIGEST,
            "segment bytes changed: {digest:#018x} ({} B)",
            bytes.len()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A segment of `n` sample events in `block_events`-event blocks,
    /// read back as bytes.
    fn sample_segment(dir: &Path, n: u64, block_events: usize) -> Vec<u8> {
        let path = dir.join("seg-00000.vdoj");
        let mut w = SegmentWriter::create(&path, "hdr", block_events).unwrap();
        for (i, e) in sample_events(n, 4).iter().enumerate() {
            w.append(i as u64 * 2, e).unwrap();
        }
        w.finish().unwrap();
        fs::read(&path).unwrap()
    }

    /// `bytes` with `bytes[at]` (a one-byte varint) replaced by a
    /// nine-byte varint of 2^63 - 1.
    fn splice_huge_varint(bytes: &[u8], at: usize) -> Vec<u8> {
        assert!(bytes[at] < 0x80, "the replaced varint must be one byte");
        let mut out = bytes[..at].to_vec();
        put_varint(&mut out, u64::MAX >> 1);
        assert_eq!(out.len() - at, 9);
        out.extend_from_slice(&bytes[at + 1..]);
        out
    }

    fn footer_offset(bytes: &[u8]) -> usize {
        Cur::new(&bytes[bytes.len() - 16..]).u64_le().unwrap() as usize
    }

    #[test]
    fn oversized_counts_are_invalid_data_not_aborts() {
        let dir = tmp("oversized");
        let path = dir.join("seg-00000.vdoj");
        let clean = sample_segment(&dir, 10, 64);
        let meta = SegmentReader::open(&path).unwrap().blocks()[0];
        let invalid = |bytes: &[u8]| {
            fs::write(&path, bytes).unwrap();
            let err = SegmentReader::open(&path)
                .and_then(|r| r.events())
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        };
        // The dictionary length: the footer starts where it did.
        invalid(&splice_huge_varint(&clean, footer_offset(&clean)));
        // The block index's event count, in the footer's last entry.
        let mut entry = Vec::new();
        for v in [
            meta.offset,
            meta.len,
            meta.count,
            meta.min_seq,
            meta.max_seq,
        ] {
            put_varint(&mut entry, v);
        }
        for v in [meta.min_tick, meta.max_tick] {
            put_varint(&mut entry, v);
        }
        let entry_at = clean.len() - 16 - entry.len() - 1;
        let mut lead = Vec::new();
        put_varint(&mut lead, meta.offset);
        put_varint(&mut lead, meta.len);
        invalid(&splice_huge_varint(&clean, entry_at + lead.len()));
        // The block's own row count: the footer moves 8 bytes later.
        let mut spliced = splice_huge_varint(&clean, meta.offset as usize);
        let n = spliced.len();
        let moved = (footer_offset(&clean) + 8) as u64;
        spliced[n - 16..n - 8].copy_from_slice(&moved.to_le_bytes());
        let r = {
            fs::write(&path, &spliced).unwrap();
            SegmentReader::open(&path).unwrap()
        };
        for result in [r.events(), r.events_where(Some(Severity::Warn), None, None)] {
            assert_eq!(result.unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_bits_in_the_footer_or_first_block_never_panic() {
        let dir = tmp("bitflip");
        let path = dir.join("seg-00000.vdoj");
        let clean = sample_segment(&dir, 70, 64);
        let first = SegmentReader::open(&path).unwrap().blocks()[0];
        let block = first.offset as usize..(first.offset + first.len) as usize;
        let footer = footer_offset(&clean)..clean.len();
        let mut flips = 0;
        for at in block.chain(footer) {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[at] ^= 1 << bit;
                fs::write(&path, &bytes).unwrap();
                let rd = JournalDir::open(&dir).unwrap();
                // Any result but a panic (or an abort) is acceptable.
                let _ = rd.events();
                let _ = rd.events_where(Some(Severity::Info), Some(20), Some(200));
                let _ = rd.tick_for_seq(42);
                flips += 1;
            }
        }
        assert!(flips > 8_000, "{flips} flips");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_readers_are_sync() {
        fn sync<T: Sync>() {}
        sync::<SegmentReader>();
    }

    #[test]
    fn appends_must_be_seq_ordered() {
        let dir = tmp("order");
        let path = dir.join("seg.vdoj");
        let mut w = SegmentWriter::create(&path, "", 8).unwrap();
        w.append(5, &Event::info("a")).unwrap();
        assert!(w.append(5, &Event::info("b")).is_err());
        assert!(w.append(4, &Event::info("c")).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn severity_index_skips_blocks() {
        let dir = tmp("skip");
        let path = dir.join("seg.vdoj");
        let mut w = SegmentWriter::create(&path, "", 16).unwrap();
        // 10 blocks: only block 7 holds anything above Debug.
        for i in 0..160u64 {
            let e = if i / 16 == 7 {
                Event::warn("finding").at(i)
            } else {
                Event::debug("noise").at(i)
            };
            w.append(i, &e).unwrap();
        }
        w.finish().unwrap();
        let r = SegmentReader::open(&path).unwrap();
        let hits = r.events_where(Some(Severity::Warn), None, None).unwrap();
        assert_eq!(hits.len(), 16);
        assert!(hits.iter().all(|(_, e)| e.name == "finding"));
        let masked = r
            .blocks()
            .iter()
            .filter(|b| b.severity_mask & sev_mask_at_or_above(Severity::Warn) != 0)
            .count();
        assert_eq!(masked, 1, "only one block needs decoding");
        let ranged = r.events_where(None, Some(32), Some(47)).unwrap();
        assert_eq!(ranged.len(), 16);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_writer_rolls_segments_and_reads_back_in_order() {
        let dir = tmp("roll");
        let sink = DirWriter::with_limits(&dir, "run spec here", 100, 32).unwrap();
        let j = Journal::with_sink(
            JournalConfig {
                shards: 4,
                capacity_per_shard: 8, // tiny ring: the disk must not care
                min_severity: Severity::Debug,
            },
            Box::new(sink),
        );
        let events = sample_events(350, 9);
        for e in &events {
            j.emit(e.clone());
        }
        j.sync();
        assert!(j.dropped() > 0, "ring overflow is the scenario under test");

        let rd = JournalDir::open(&dir).unwrap();
        assert_eq!(rd.segment_paths().len(), 4, "350 events / 100 per segment");
        assert_eq!(rd.header().unwrap(), "run spec here");
        assert_eq!(rd.event_count().unwrap(), 350);
        let got = rd.events().unwrap();
        assert_eq!(got.len(), 350, "disk has no lossy tail");
        for (i, (seq, e)) in got.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(e, &events[i]);
        }
        assert_eq!(rd.tick_for_seq(123).unwrap(), Some(events[123].at));
        assert_eq!(rd.tick_for_seq(9_999).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn columnar_is_at_least_three_times_smaller_than_jsonl() {
        let dir = tmp("size");
        let events = sample_events(4_000, 1);
        let sink = DirWriter::create(&dir, "").unwrap();
        let j = Journal::with_sink(JournalConfig::default(), Box::new(sink));
        for e in &events {
            j.emit(e.clone());
        }
        j.sync();
        let colf = JournalDir::open(&dir).unwrap().total_bytes().unwrap();
        let jsonl = crate::export::jsonl(&j.snapshot()).len() as u64;
        assert!(
            colf * 3 <= jsonl,
            "columnar {colf} B must be ≤ 1/3 of JSONL {jsonl} B"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_noise_but_keeps_incident_chains_whole() {
        let src = tmp("compact-src");
        let dst = tmp("compact-dst");
        let sink = DirWriter::with_limits(&src, "spec", 64, 16).unwrap();
        let j = Journal::with_sink(JournalConfig::default(), Box::new(sink));
        // Trace A: debug noise then a detection (protected). Trace B:
        // debug noise only (droppable). Plus untraced debug chatter.
        let a = TraceContext::root(1, "V-A");
        let b = TraceContext::root(1, "V-B");
        j.emit(Event::info("requirement.ingested").trace(a));
        j.emit(Event::info("requirement.ingested").trace(b));
        for i in 0..200u64 {
            j.emit(Event::debug("soc.drift").at(i).trace(a.child_u64("t", i)));
            j.emit(Event::debug("soc.drift").at(i).trace(b.child_u64("t", i)));
            j.emit(Event::debug("chatter").at(i));
        }
        j.emit(Event::warn("soc.detection").at(77).trace(a.child("detect")));
        j.sync();

        let stats = compact(&src, &dst, Severity::Warn, 1_000).unwrap();
        assert_eq!(stats.events_in, 603);
        assert_eq!(stats.protected_traces, 1);
        // Kept: trace A entirely (1 root + 200 drifts + 1 detection).
        assert_eq!(stats.events_out, 202);
        assert!(stats.ratio() > 1.0);

        let rd = JournalDir::open(&dst).unwrap();
        assert_eq!(rd.header().unwrap(), "spec", "header survives compaction");
        let kept = rd.events().unwrap();
        assert_eq!(kept.len(), 202);
        assert!(kept
            .iter()
            .all(|(_, e)| e.trace.is_some_and(|t| t.trace_id == a.trace_id)));
        // The root-resolution chain is intact: the detection's trace
        // still has its (Info) root present after a Warn-floor compact.
        let root = kept
            .iter()
            .find(|(_, e)| e.trace.is_some_and(|t| t.is_root()))
            .expect("root survived");
        assert_eq!(root.1.name, "requirement.ingested");
        // Seqs are original (gaps encode the dropped noise).
        assert!(kept.windows(2).all(|w| w[0].0 < w[1].0));
        let _ = fs::remove_dir_all(&src);
        let _ = fs::remove_dir_all(&dst);
    }

    #[test]
    fn unfinished_segments_are_rejected() {
        let dir = tmp("unfinished");
        let path = dir.join("seg.vdoj");
        let mut w = SegmentWriter::create(&path, "x", 8).unwrap();
        w.append(0, &Event::info("a")).unwrap();
        drop(w); // never finished: no footer, no trailer
        let err = SegmentReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_run_still_leaves_a_readable_header() {
        let dir = tmp("empty");
        let sink = DirWriter::create(&dir, "spec only").unwrap();
        let j = Journal::with_sink(JournalConfig::default(), Box::new(sink));
        j.sync();
        let rd = JournalDir::open(&dir).unwrap();
        assert_eq!(rd.header().unwrap(), "spec only");
        assert_eq!(rd.event_count().unwrap(), 0);
        assert!(rd.events().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_an_unsynced_writer_finalizes_the_open_segment() {
        let dir = tmp("drop-safety");
        let events = sample_events(37, 5);
        {
            // Small blocks so the tail of the stream lives in a
            // not-yet-flushed block when the writer goes away.
            let mut w = DirWriter::with_limits(&dir, "drop hdr", 1_000, 8).unwrap();
            for (i, e) in events.iter().enumerate() {
                w.record(i as u64, e);
            }
            // No flush, no sync — just drop.
        }
        let rd = JournalDir::open(&dir).unwrap();
        assert_eq!(rd.header().unwrap(), "drop hdr");
        let got = rd.events().unwrap();
        assert_eq!(got.len(), 37, "trailing partial block survived the drop");
        assert_eq!(got[36].1, events[36], "last event intact");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_a_journal_owned_writer_is_equivalent_to_sync() {
        let dir = tmp("drop-journal");
        let synced = tmp("drop-journal-synced");
        let write = |dir: &Path, sync: bool| {
            let sink = DirWriter::with_limits(dir, "hdr", 1_000, 8).unwrap();
            let j = Journal::with_sink(JournalConfig::default(), Box::new(sink));
            for e in sample_events(21, 9) {
                j.emit(e);
            }
            if sync {
                j.sync();
            }
            // Journal drop flushes the sink; sink drop seals.
        };
        write(&dir, false);
        write(&synced, true);
        let a = JournalDir::open(&dir).unwrap().events().unwrap();
        let b = JournalDir::open(&synced).unwrap().events().unwrap();
        assert_eq!(a.len(), 21);
        assert_eq!(a, b, "drop-only and synced runs read back identically");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&synced);
    }

    #[test]
    fn varint_and_zigzag_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(Cur::new(&buf).varint().unwrap(), v);
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
