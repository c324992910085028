//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! frame := len:varint  body:len bytes
//! ```
//!
//! reusing the storage layer's LEB128 codec ([`cind_storage::varint`]).
//! The body's first byte is a tag; the payload layout per tag is fixed and
//! self-contained (no negotiation, no versioning handshake — the protocol
//! is an internal engine surface, not a public API). `len` is capped at
//! [`MAX_FRAME`] so a hostile or corrupt length prefix cannot make the
//! server allocate unboundedly; anything larger is a typed
//! [`ProtoError::Oversize`], never an OOM.
//!
//! Entities cross the wire with attribute *names*, not ids: `AttrId`s are
//! an engine-side interning artifact, and the server's catalog is the only
//! authority on them. The server interns unseen names on write requests
//! and resolves names on queries (unknown name ⇒ typed error response).
//!
//! Decoding is total: every byte sequence either parses or produces a
//! [`ProtoError`] — malformed input can never panic the server (audit rule
//! CIND-A002 applies to this crate).
//!
//! A `Rows` body has two producers that write the same bytes through the
//! same cell codec: [`encode_response`] from typed rows (clients and
//! in-process callers), and [`WireRows`] + [`frame_rows`] from cells still
//! lying in stored records — the server's network path, which never builds
//! a typed row.

use std::io::Read;

use cind_model::{Value, ValueRef};
use cind_query::{QueryResult, RowSink};
use cind_storage::record::RawValue;
use cind_storage::{varint, StorageError};

/// Hard cap on one frame's body length (16 MiB).
pub const MAX_FRAME: u64 = 16 * 1024 * 1024;

/// An entity as it crosses the wire: the id plus `(attribute name, value)`
/// pairs. The server interns the names into its catalog on write requests.
#[derive(Clone, Debug, PartialEq)]
pub struct WireEntity {
    /// The entity id (must be unique table-wide for inserts).
    pub id: u64,
    /// Instantiated attributes, by name.
    pub attrs: Vec<(String, Value)>,
}

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Insert a new entity (Algorithm 1 placement).
    Insert(WireEntity),
    /// Replace a stored entity's attributes (may move it).
    Update(WireEntity),
    /// Delete an entity by id.
    Delete(u64),
    /// Run a `SELECT attrs WHERE any IS NOT NULL` query; payload is the
    /// requested attribute names.
    Query(Vec<String>),
    /// Engine-wide statistics.
    Stats,
    /// Run the full structural invariant validation.
    Validate,
    /// Graceful shutdown: stop accepting, drain, flush, validate.
    Shutdown,
    /// Health check; the connection's server thread sleeps `delay_ms`
    /// before answering [`Response::Pong`]. The delay exists so tests can
    /// keep a request in flight deterministically and observe admission
    /// control.
    Ping(u64),
    /// Insert a batch of entities in one frame: the server routes them per
    /// shard in one pass and amortises the writer-lock handoff and group
    /// commit across the batch. Answered by [`Response::Batch`] with one
    /// per-item result in request order.
    InsertBatch(Vec<WireEntity>),
    /// Run several queries in one frame (each is an attribute-name list,
    /// as in [`Request::Query`]). Answered by [`Response::Batch`]; the
    /// legs share the server's per-epoch snapshot.
    QueryBatch(Vec<Vec<String>>),
    /// Server and WAL I/O counters (syscall/fsync observability).
    IoCounters,
}

/// Aggregate measurements of one remote query execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Entities scanned, matching or not — the records read; those the
    /// scan skipped by signature are not among them.
    pub entities_scanned: u64,
    /// Segments scanned (the `UNION ALL` width).
    pub segments_read: u64,
    /// Partitions pruned before touching data.
    pub segments_pruned: u64,
    /// Pages touched by this query (per-access attribution, exact under
    /// concurrency).
    pub logical_reads: u64,
    /// Buffer-pool misses among them.
    pub physical_reads: u64,
}

impl From<&QueryResult> for QueryStats {
    fn from(result: &QueryResult) -> Self {
        Self {
            entities_scanned: result.entities_scanned,
            segments_read: result.segments_read as u64,
            segments_pruned: result.segments_pruned as u64,
            logical_reads: result.io.logical_reads,
            physical_reads: result.io.physical_reads,
        }
    }
}

/// Engine-wide counters answered to [`Request::Stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Stored entities.
    pub entities: u64,
    /// Live partitions.
    pub partitions: u64,
    /// Cataloged attributes.
    pub attributes: u64,
    /// Cumulative logical page reads (all sessions).
    pub logical_reads: u64,
    /// Cumulative buffer-pool misses.
    pub physical_reads: u64,
    /// Cumulative page writes.
    pub page_writes: u64,
    /// Cumulative evictions.
    pub evictions: u64,
}

/// Cumulative server-side I/O counters answered to
/// [`Request::IoCounters`]: the observability surface that makes the
/// group-commit and pipelining amortisation measurable over the wire
/// (the `serve_hotpath` bench — EXPERIMENTS.md, historical PR 7 row —
/// records fsyncs-per-op and syscalls-per-op from deltas of
/// these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// Socket `read` calls the server issued (each may carry many frames).
    pub net_reads: u64,
    /// Socket write calls the server issued (each may carry many frames).
    pub net_writes: u64,
    /// Request frames decoded.
    pub frames_in: u64,
    /// Response frames sent.
    pub frames_out: u64,
    /// WAL file `write` calls (one per flushed commit group).
    pub wal_appends: u64,
    /// WAL fsyncs (one per flushed commit group).
    pub wal_syncs: u64,
    /// Commit groups flushed.
    pub wal_groups: u64,
    /// WAL transaction groups submitted (≥ `wal_groups`; the ratio is the
    /// coalescing factor).
    pub wal_ops: u64,
}

/// Why a request failed, as a machine-readable code on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame or its body did not parse.
    Malformed,
    /// A query named an attribute absent from the catalog.
    UnknownAttribute,
    /// The storage/partitioning engine rejected the operation (duplicate
    /// id, missing entity, …).
    Engine,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// Anything else.
    Internal,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::UnknownAttribute => 2,
            ErrorCode::Engine => 3,
            ErrorCode::ShuttingDown => 4,
            ErrorCode::Internal => 5,
        }
    }

    fn from_u8(b: u8) -> Self {
        match b {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownAttribute,
            3 => ErrorCode::Engine,
            4 => ErrorCode::ShuttingDown,
            _ => ErrorCode::Internal,
        }
    }
}

/// One server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A write (insert/update) landed in `segment`; `split` reports
    /// whether placing it split a partition.
    Written {
        /// The segment now holding the entity.
        segment: u32,
        /// Whether the insert triggered a split.
        split: bool,
    },
    /// The delete succeeded.
    Deleted,
    /// Query result: the projected rows (query attribute order, `None`
    /// for NULL) plus execution measurements.
    Rows {
        /// Materialised rows.
        rows: Vec<Vec<Option<Value>>>,
        /// Execution measurements.
        stats: QueryStats,
    },
    /// Engine statistics.
    Stats(EngineStats),
    /// Structural validation report: one rendered line per violation
    /// (empty = all invariants hold).
    Validated(Vec<String>),
    /// Graceful shutdown acknowledged; the server drains and exits.
    ShutdownAck,
    /// Ping answered.
    Pong,
    /// Server I/O counters.
    IoCounters(IoCounters),
    /// Per-item results for a batch request, in request order. Items are
    /// ordinary responses (`Written`, `Rows`, `Error`, …); nesting another
    /// `Batch` is a protocol violation.
    Batch(Vec<Response>),
    /// Admission control: the bounded request queue is full. The request
    /// was *not* executed; retry after backing off.
    Busy,
    /// The request failed; `code` is machine-readable, `message` human.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Decoding failures. `Closed` is the clean end-of-stream (no partial
/// frame); everything else is a protocol violation or truncation.
#[derive(Debug)]
pub enum ProtoError {
    /// The peer closed the connection between frames.
    Closed,
    /// The stream ended (or errored) inside a frame.
    ShortRead(std::io::ErrorKind),
    /// A length prefix exceeded [`MAX_FRAME`].
    Oversize(u64),
    /// The body did not parse; the payload says what was expected.
    Malformed(&'static str),
    /// Socket-level failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::ShortRead(k) => write!(f, "short read mid-frame ({k:?})"),
            ProtoError::Oversize(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME}-byte cap")
            }
            ProtoError::Malformed(what) => write!(f, "malformed body: expected {what}"),
            ProtoError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

// ---- framing ----------------------------------------------------------

/// Writes `body` as one frame into `buf` (length prefix + body).
pub fn frame(body: &[u8], buf: &mut Vec<u8>) {
    varint::encode(body.len() as u64, buf);
    buf.extend_from_slice(body);
}

/// Reads one frame's body from `r`.
///
/// The length prefix is consumed byte-by-byte (it is at most
/// [`varint::MAX_LEN`] bytes), checked against [`MAX_FRAME`], and the body
/// read exactly. EOF before the first byte is the clean [`ProtoError::Closed`];
/// EOF anywhere later is a [`ProtoError::ShortRead`].
///
/// # Errors
/// [`ProtoError`] as described; never panics on any input.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtoError> {
    let mut prefix = [0u8; varint::MAX_LEN];
    let mut have = 0usize;
    let len = loop {
        if have == varint::MAX_LEN {
            return Err(ProtoError::Malformed("a terminated varint length"));
        }
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) if have == 0 => return Err(ProtoError::Closed),
            Ok(0) => return Err(ProtoError::ShortRead(std::io::ErrorKind::UnexpectedEof)),
            Ok(_) => {
                prefix[have] = byte[0];
                have += 1;
                if byte[0] & 0x80 == 0 {
                    match varint::decode(&prefix[..have]) {
                        Some((len, used)) if used == have => break len,
                        _ => return Err(ProtoError::Malformed("a varint length")),
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if have == 0 && would_block(&e) => return Err(ProtoError::Io(e)),
            Err(e) => return Err(ProtoError::Io(e)),
        }
    };
    if len > MAX_FRAME {
        return Err(ProtoError::Oversize(len));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => {
            ProtoError::ShortRead(std::io::ErrorKind::UnexpectedEof)
        }
        _ => ProtoError::Io(e),
    })?;
    Ok(body)
}

/// Attempts to split one complete frame off the front of `buf` — the
/// zero-syscall path of the pipelined reader, which drains every complete
/// frame from each socket `read` before reading again.
///
/// Returns `Ok(Some((body, consumed)))` when a whole frame is present
/// (`consumed` covers the length prefix plus the body), `Ok(None)` when
/// more bytes are needed.
///
/// # Errors
/// [`ProtoError::Oversize`] / [`ProtoError::Malformed`] on a hostile
/// length prefix — exactly the cases [`read_frame`] rejects.
pub fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, ProtoError> {
    let mut used = 0usize;
    loop {
        if used == varint::MAX_LEN {
            return Err(ProtoError::Malformed("a terminated varint length"));
        }
        match buf.get(used) {
            None => return Ok(None),
            Some(b) => {
                used += 1;
                if b & 0x80 == 0 {
                    break;
                }
            }
        }
    }
    let len = match varint::decode(&buf[..used]) {
        Some((len, n)) if n == used => len,
        _ => return Err(ProtoError::Malformed("a varint length")),
    };
    if len > MAX_FRAME {
        return Err(ProtoError::Oversize(len));
    }
    let Some(end) = used.checked_add(len as usize) else {
        return Err(ProtoError::Oversize(len));
    };
    if buf.len() < end {
        return Ok(None);
    }
    Ok(Some((&buf[used..end], end)))
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

// ---- primitive codecs -------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ProtoError> {
        let (v, n) =
            varint::decode(&self.buf[self.pos..]).ok_or(ProtoError::Malformed(what))?;
        self.pos += n;
        Ok(v)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ProtoError> {
        let b = *self.buf.get(self.pos).ok_or(ProtoError::Malformed(what))?;
        self.pos += 1;
        Ok(b)
    }

    fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Malformed(what))?;
        if end > self.buf.len() {
            return Err(ProtoError::Malformed(what));
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn string(&mut self, what: &'static str) -> Result<String, ProtoError> {
        let len = self.u64(what)?;
        if len > MAX_FRAME {
            return Err(ProtoError::Malformed(what));
        }
        let raw = self.bytes(len as usize, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| ProtoError::Malformed(what))
    }

    fn done(&self, what: &'static str) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed(what))
        }
    }
}

fn put_string(s: &str, out: &mut Vec<u8>) {
    varint::encode(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The one value encoder: an owned [`Value`] and a cell still lying in a
/// stored record both come here borrowed, so they cannot encode apart.
fn put_value(v: ValueRef<'_>, out: &mut Vec<u8>) {
    match v {
        ValueRef::Bool(b) => {
            out.push(0);
            out.push(u8::from(b));
        }
        ValueRef::Int(i) => {
            out.push(1);
            varint::encode(zigzag(i), out);
        }
        ValueRef::Float(x) => {
            out.push(2);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        ValueRef::Text(s) => {
            out.push(3);
            put_string(s, out);
        }
    }
}

/// One cell of a `Rows` body: a flag byte, then the value unless NULL.
fn put_cell(cell: Option<ValueRef<'_>>, out: &mut Vec<u8>) {
    match cell {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_value(v, out);
        }
    }
}

fn get_value(c: &mut Cursor<'_>) -> Result<Value, ProtoError> {
    match c.u8("a value tag")? {
        0 => Ok(Value::Bool(c.u8("a bool byte")? != 0)),
        1 => Ok(Value::Int(unzigzag(c.u64("an int")?))),
        2 => {
            let raw = c.bytes(8, "a float")?;
            let mut bits = [0u8; 8];
            bits.copy_from_slice(raw);
            Ok(Value::Float(f64::from_bits(u64::from_le_bytes(bits))))
        }
        3 => Ok(Value::Text(c.string("a text value")?)),
        _ => Err(ProtoError::Malformed("a known value tag")),
    }
}

fn put_entity(e: &WireEntity, out: &mut Vec<u8>) {
    varint::encode(e.id, out);
    varint::encode(e.attrs.len() as u64, out);
    for (name, value) in &e.attrs {
        put_string(name, out);
        put_value(value.borrowed(), out);
    }
}

fn get_entity(c: &mut Cursor<'_>) -> Result<WireEntity, ProtoError> {
    let id = c.u64("an entity id")?;
    let n = c.u64("an attribute count")?;
    if n > MAX_FRAME {
        return Err(ProtoError::Malformed("a sane attribute count"));
    }
    let mut attrs = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        let name = c.string("an attribute name")?;
        let value = get_value(c)?;
        attrs.push((name, value));
    }
    Ok(WireEntity { id, attrs })
}

// ---- request codec ----------------------------------------------------

const REQ_INSERT: u8 = 1;
const REQ_UPDATE: u8 = 2;
const REQ_DELETE: u8 = 3;
const REQ_QUERY: u8 = 4;
const REQ_STATS: u8 = 5;
const REQ_VALIDATE: u8 = 6;
const REQ_SHUTDOWN: u8 = 7;
const REQ_PING: u8 = 8;
const REQ_IO_COUNTERS: u8 = 9;
const REQ_INSERT_BATCH: u8 = 10;
const REQ_QUERY_BATCH: u8 = 11;

/// Encodes one request body (unframed).
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Insert(e) => {
            out.push(REQ_INSERT);
            put_entity(e, &mut out);
        }
        Request::Update(e) => {
            out.push(REQ_UPDATE);
            put_entity(e, &mut out);
        }
        Request::Delete(id) => {
            out.push(REQ_DELETE);
            varint::encode(*id, &mut out);
        }
        Request::Query(attrs) => {
            out.push(REQ_QUERY);
            varint::encode(attrs.len() as u64, &mut out);
            for a in attrs {
                put_string(a, &mut out);
            }
        }
        Request::Stats => out.push(REQ_STATS),
        Request::Validate => out.push(REQ_VALIDATE),
        Request::Shutdown => out.push(REQ_SHUTDOWN),
        Request::Ping(ms) => {
            out.push(REQ_PING);
            varint::encode(*ms, &mut out);
        }
        Request::InsertBatch(entities) => {
            out.push(REQ_INSERT_BATCH);
            varint::encode(entities.len() as u64, &mut out);
            for e in entities {
                put_entity(e, &mut out);
            }
        }
        Request::QueryBatch(queries) => {
            out.push(REQ_QUERY_BATCH);
            varint::encode(queries.len() as u64, &mut out);
            for attrs in queries {
                varint::encode(attrs.len() as u64, &mut out);
                for a in attrs {
                    put_string(a, &mut out);
                }
            }
        }
        Request::IoCounters => out.push(REQ_IO_COUNTERS),
    }
    out
}

/// Decodes one request body.
///
/// # Errors
/// [`ProtoError::Malformed`] on any byte sequence that is not a complete,
/// exact encoding of one request.
pub fn decode_request(body: &[u8]) -> Result<Request, ProtoError> {
    let mut c = Cursor::new(body);
    let req = match c.u8("a request tag")? {
        REQ_INSERT => Request::Insert(get_entity(&mut c)?),
        REQ_UPDATE => Request::Update(get_entity(&mut c)?),
        REQ_DELETE => Request::Delete(c.u64("an entity id")?),
        REQ_QUERY => {
            let n = c.u64("an attribute count")?;
            if n > MAX_FRAME {
                return Err(ProtoError::Malformed("a sane attribute count"));
            }
            let mut attrs = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                attrs.push(c.string("an attribute name")?);
            }
            Request::Query(attrs)
        }
        REQ_STATS => Request::Stats,
        REQ_VALIDATE => Request::Validate,
        REQ_SHUTDOWN => Request::Shutdown,
        REQ_PING => Request::Ping(c.u64("a delay")?),
        REQ_INSERT_BATCH => {
            let n = c.u64("a batch entity count")?;
            if n > MAX_FRAME {
                return Err(ProtoError::Malformed("a sane batch entity count"));
            }
            let mut entities = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                entities.push(get_entity(&mut c)?);
            }
            Request::InsertBatch(entities)
        }
        REQ_QUERY_BATCH => {
            let n = c.u64("a batch query count")?;
            if n > MAX_FRAME {
                return Err(ProtoError::Malformed("a sane batch query count"));
            }
            let mut queries = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                let m = c.u64("an attribute count")?;
                if m > MAX_FRAME {
                    return Err(ProtoError::Malformed("a sane attribute count"));
                }
                let mut attrs = Vec::with_capacity(m.min(1024) as usize);
                for _ in 0..m {
                    attrs.push(c.string("an attribute name")?);
                }
                queries.push(attrs);
            }
            Request::QueryBatch(queries)
        }
        REQ_IO_COUNTERS => Request::IoCounters,
        _ => return Err(ProtoError::Malformed("a known request tag")),
    };
    c.done("no trailing bytes")?;
    Ok(req)
}

// ---- response codec ---------------------------------------------------

const RESP_WRITTEN: u8 = 1;
const RESP_DELETED: u8 = 2;
const RESP_ROWS: u8 = 3;
const RESP_STATS: u8 = 4;
const RESP_VALIDATED: u8 = 5;
const RESP_SHUTDOWN_ACK: u8 = 6;
const RESP_PONG: u8 = 7;
const RESP_IO_COUNTERS: u8 = 8;
const RESP_BATCH: u8 = 9;
const RESP_BUSY: u8 = 0xFE;
const RESP_ERROR: u8 = 0xFF;

/// What follows the tag in a `Rows` body, ahead of the cells: the five
/// execution measurements, the row count, and the row width — which is 0
/// when there is no row to take it from.
fn rows_header(stats: &QueryStats, rows: u64, width: usize) -> [u64; 7] {
    [
        stats.entities_scanned,
        stats.segments_read,
        stats.segments_pruned,
        stats.logical_reads,
        stats.physical_reads,
        rows,
        if rows == 0 { 0 } else { width as u64 },
    ]
}

/// Starts a `Batch` body of `n` items in `body`. Each item then follows
/// length-prefixed — exactly what [`frame`] and [`frame_rows`] append — so
/// a decoder can skip or slice items without understanding every tag.
pub fn begin_batch(n: usize, body: &mut Vec<u8>) {
    body.push(RESP_BATCH);
    varint::encode(n as u64, body);
}

/// The wire sink: a scan's rows, appended as they are matched in the cell
/// format of a `Rows` body, straight off the record bytes — no [`Value`],
/// no `String`. Text is still UTF-8-checked on the way, so a corrupt page
/// surfaces as a typed storage error and never as a frame the client
/// rejects.
#[derive(Default)]
pub struct WireRows {
    cells: Vec<u8>,
    rows: u64,
}

impl RowSink for WireRows {
    fn row(&mut self, cells: &[Option<RawValue<'_>>]) -> Result<(), StorageError> {
        for cell in cells {
            put_cell(cell.map(|raw| raw.decode()).transpose()?, &mut self.cells);
        }
        self.rows += 1;
        Ok(())
    }
}

/// Appends the `Rows` answer whose rows lie in `legs`, in that order, to
/// `out` as `len:varint body`: one whole frame, or one item of a `Batch`
/// body. The bytes are those of [`frame`]ing [`encode_response`] of the
/// typed [`Response::Rows`] with the same rows and `stats`. The length is
/// worked out from the header and the legs' sizes first, so the cells are
/// copied once, into their final place.
pub fn frame_rows(stats: &QueryStats, width: usize, legs: &[WireRows], out: &mut Vec<u8>) {
    let header = rows_header(stats, legs.iter().map(|leg| leg.rows).sum(), width);
    let len = 1
        + header.iter().map(|&v| varint::encoded_len(v)).sum::<usize>()
        + legs.iter().map(|leg| leg.cells.len()).sum::<usize>();
    out.reserve(varint::encoded_len(len as u64) + len);
    varint::encode(len as u64, out);
    out.push(RESP_ROWS);
    for v in header {
        varint::encode(v, out);
    }
    for leg in legs {
        out.extend_from_slice(&leg.cells);
    }
}

/// Encodes one response body (unframed).
#[must_use]
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Written { segment, split } => {
            out.push(RESP_WRITTEN);
            varint::encode(u64::from(*segment), &mut out);
            out.push(u8::from(*split));
        }
        Response::Deleted => out.push(RESP_DELETED),
        Response::Rows { rows, stats } => {
            let width = rows.first().map_or(0, Vec::len);
            out.push(RESP_ROWS);
            for v in rows_header(stats, rows.len() as u64, width) {
                varint::encode(v, &mut out);
            }
            for cell in rows.iter().flatten() {
                put_cell(cell.as_ref().map(Value::borrowed), &mut out);
            }
        }
        Response::Stats(s) => {
            out.push(RESP_STATS);
            for v in [
                s.entities,
                s.partitions,
                s.attributes,
                s.logical_reads,
                s.physical_reads,
                s.page_writes,
                s.evictions,
            ] {
                varint::encode(v, &mut out);
            }
        }
        Response::Validated(violations) => {
            out.push(RESP_VALIDATED);
            varint::encode(violations.len() as u64, &mut out);
            for v in violations {
                put_string(v, &mut out);
            }
        }
        Response::ShutdownAck => out.push(RESP_SHUTDOWN_ACK),
        Response::Pong => out.push(RESP_PONG),
        Response::IoCounters(io) => {
            out.push(RESP_IO_COUNTERS);
            for v in [
                io.net_reads,
                io.net_writes,
                io.frames_in,
                io.frames_out,
                io.wal_appends,
                io.wal_syncs,
                io.wal_groups,
                io.wal_ops,
            ] {
                varint::encode(v, &mut out);
            }
        }
        Response::Batch(items) => {
            begin_batch(items.len(), &mut out);
            for item in items {
                frame(&encode_response(item), &mut out);
            }
        }
        Response::Busy => out.push(RESP_BUSY),
        Response::Error { code, message } => {
            out.push(RESP_ERROR);
            out.push(code.to_u8());
            put_string(message, &mut out);
        }
    }
    out
}

/// Decodes one response body.
///
/// # Errors
/// [`ProtoError::Malformed`] on any byte sequence that is not a complete,
/// exact encoding of one response.
pub fn decode_response(body: &[u8]) -> Result<Response, ProtoError> {
    let mut c = Cursor::new(body);
    let resp = match c.u8("a response tag")? {
        RESP_WRITTEN => {
            let segment = c.u64("a segment id")?;
            let segment =
                u32::try_from(segment).map_err(|_| ProtoError::Malformed("a segment id"))?;
            Response::Written { segment, split: c.u8("a split flag")? != 0 }
        }
        RESP_DELETED => Response::Deleted,
        RESP_ROWS => {
            let stats = QueryStats {
                entities_scanned: c.u64("entities_scanned")?,
                segments_read: c.u64("segments_read")?,
                segments_pruned: c.u64("segments_pruned")?,
                logical_reads: c.u64("logical_reads")?,
                physical_reads: c.u64("physical_reads")?,
            };
            let nrows = c.u64("a row count")?;
            let width = c.u64("a row width")?;
            if nrows.saturating_mul(width.max(1)) > MAX_FRAME {
                return Err(ProtoError::Malformed("a sane row count"));
            }
            let mut rows = Vec::with_capacity(nrows.min(4096) as usize);
            for _ in 0..nrows {
                let mut row = Vec::with_capacity(width as usize);
                for _ in 0..width {
                    match c.u8("a cell flag")? {
                        0 => row.push(None),
                        1 => row.push(Some(get_value(&mut c)?)),
                        _ => return Err(ProtoError::Malformed("a cell flag")),
                    }
                }
                rows.push(row);
            }
            Response::Rows { rows, stats }
        }
        RESP_STATS => Response::Stats(EngineStats {
            entities: c.u64("entities")?,
            partitions: c.u64("partitions")?,
            attributes: c.u64("attributes")?,
            logical_reads: c.u64("logical_reads")?,
            physical_reads: c.u64("physical_reads")?,
            page_writes: c.u64("page_writes")?,
            evictions: c.u64("evictions")?,
        }),
        RESP_VALIDATED => {
            let n = c.u64("a violation count")?;
            if n > MAX_FRAME {
                return Err(ProtoError::Malformed("a sane violation count"));
            }
            let mut out = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                out.push(c.string("a violation line")?);
            }
            Response::Validated(out)
        }
        RESP_SHUTDOWN_ACK => Response::ShutdownAck,
        RESP_PONG => Response::Pong,
        RESP_IO_COUNTERS => Response::IoCounters(IoCounters {
            net_reads: c.u64("net_reads")?,
            net_writes: c.u64("net_writes")?,
            frames_in: c.u64("frames_in")?,
            frames_out: c.u64("frames_out")?,
            wal_appends: c.u64("wal_appends")?,
            wal_syncs: c.u64("wal_syncs")?,
            wal_groups: c.u64("wal_groups")?,
            wal_ops: c.u64("wal_ops")?,
        }),
        RESP_BATCH => {
            let n = c.u64("a batch item count")?;
            if n > MAX_FRAME {
                return Err(ProtoError::Malformed("a sane batch item count"));
            }
            let mut items = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                let len = c.u64("a batch item length")?;
                if len > MAX_FRAME {
                    return Err(ProtoError::Malformed("a sane batch item length"));
                }
                let body = c.bytes(len as usize, "a batch item body")?;
                if body.first() == Some(&RESP_BATCH) {
                    return Err(ProtoError::Malformed("no nested batch"));
                }
                items.push(decode_response(body)?);
            }
            Response::Batch(items)
        }
        RESP_BUSY => Response::Busy,
        RESP_ERROR => Response::Error {
            code: ErrorCode::from_u8(c.u8("an error code")?),
            message: c.string("an error message")?,
        },
        _ => return Err(ProtoError::Malformed("a known response tag")),
    };
    c.done("no trailing bytes")?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let body = encode_request(&req);
        assert_eq!(decode_request(&body).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let body = encode_response(&resp);
        assert_eq!(decode_response(&body).unwrap(), resp);
    }

    fn entity() -> WireEntity {
        WireEntity {
            id: 42,
            attrs: vec![
                ("name".into(), Value::Text("WD4000".into())),
                ("rpm".into(), Value::Int(-7200)),
                ("price".into(), Value::Float(129.5)),
                ("ssd".into(), Value::Bool(false)),
            ],
        }
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Insert(entity()));
        roundtrip_request(Request::Update(entity()));
        roundtrip_request(Request::Delete(7));
        roundtrip_request(Request::Query(vec!["a".into(), "b".into()]));
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Validate);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Ping(250));
        roundtrip_request(Request::InsertBatch(vec![entity(), entity()]));
        roundtrip_request(Request::InsertBatch(vec![]));
        roundtrip_request(Request::QueryBatch(vec![
            vec!["a".into(), "b".into()],
            vec![],
            vec!["c".into()],
        ]));
        roundtrip_request(Request::IoCounters);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Written { segment: 9, split: true });
        roundtrip_response(Response::Deleted);
        roundtrip_response(Response::Rows {
            rows: vec![
                vec![Some(Value::Int(1)), None],
                vec![None, Some(Value::Text("x".into()))],
            ],
            stats: QueryStats {
                entities_scanned: 10,
                segments_read: 2,
                segments_pruned: 3,
                logical_reads: 5,
                physical_reads: 4,
            },
        });
        roundtrip_response(Response::Rows {
            rows: vec![],
            stats: QueryStats::default(),
        });
        roundtrip_response(Response::Stats(EngineStats {
            entities: 1,
            partitions: 2,
            attributes: 3,
            logical_reads: 4,
            physical_reads: 5,
            page_writes: 6,
            evictions: 7,
        }));
        roundtrip_response(Response::Validated(vec!["arena: bad slot".into()]));
        roundtrip_response(Response::Validated(vec![]));
        roundtrip_response(Response::ShutdownAck);
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Busy);
        roundtrip_response(Response::Error {
            code: ErrorCode::UnknownAttribute,
            message: "no such attribute \"nope\"".into(),
        });
        roundtrip_response(Response::IoCounters(IoCounters {
            net_reads: 1,
            net_writes: 2,
            frames_in: 3,
            frames_out: 4,
            wal_appends: 5,
            wal_syncs: 6,
            wal_groups: 7,
            wal_ops: 8,
        }));
        roundtrip_response(Response::Batch(vec![
            Response::Written { segment: 3, split: false },
            Response::Error { code: ErrorCode::Engine, message: "dup".into() },
            Response::Rows { rows: vec![], stats: QueryStats::default() },
        ]));
        roundtrip_response(Response::Batch(vec![]));
    }

    #[test]
    fn nested_batch_is_rejected() {
        let evil = encode_response(&Response::Batch(vec![Response::Pong]));
        // Hand-craft a batch whose single item is itself a batch body.
        let inner = encode_response(&Response::Batch(vec![Response::Pong]));
        let mut body = vec![9u8]; // RESP_BATCH
        varint::encode(1, &mut body);
        varint::encode(inner.len() as u64, &mut body);
        body.extend_from_slice(&inner);
        assert!(matches!(decode_response(&body), Err(ProtoError::Malformed(_))));
        // The legal outer batch still decodes.
        assert!(decode_response(&evil).is_ok());
    }

    #[test]
    fn split_frame_drains_multiple_frames_from_one_buffer() {
        let a = encode_request(&Request::Ping(1));
        let b = encode_request(&Request::Stats);
        let mut wire = Vec::new();
        frame(&a, &mut wire);
        frame(&b, &mut wire);
        // Plus half of a third frame.
        let c = encode_request(&Request::Delete(7));
        let mut partial = Vec::new();
        frame(&c, &mut partial);
        wire.extend_from_slice(&partial[..partial.len() - 1]);

        let (body, used) = split_frame(&wire).unwrap().expect("first frame");
        assert_eq!(body, &a[..]);
        let rest = &wire[used..];
        let (body, used2) = split_frame(rest).unwrap().expect("second frame");
        assert_eq!(body, &b[..]);
        // The incomplete tail asks for more bytes, without error.
        assert!(split_frame(&rest[used2..]).unwrap().is_none());
        assert!(split_frame(&[]).unwrap().is_none());
    }

    #[test]
    fn split_frame_rejects_hostile_prefixes() {
        let mut oversize = Vec::new();
        varint::encode(MAX_FRAME + 1, &mut oversize);
        assert!(matches!(split_frame(&oversize), Err(ProtoError::Oversize(_))));
        let unterminated = [0x80u8; 12];
        assert!(matches!(split_frame(&unterminated), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn zigzag_covers_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 123_456, -123_456] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn frames_roundtrip_through_a_stream() {
        let mut wire = Vec::new();
        let a = encode_request(&Request::Ping(1));
        let b = encode_request(&Request::Stats);
        frame(&a, &mut wire);
        frame(&b, &mut wire);
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), a);
        assert_eq!(read_frame(&mut r).unwrap(), b);
        assert!(matches!(read_frame(&mut r), Err(ProtoError::Closed)));
    }

    #[test]
    fn oversize_length_is_rejected_without_allocating() {
        let mut wire = Vec::new();
        cind_storage::varint::encode(MAX_FRAME + 1, &mut wire);
        let mut r = &wire[..];
        assert!(matches!(read_frame(&mut r), Err(ProtoError::Oversize(_))));
    }

    #[test]
    fn truncated_frame_is_a_short_read() {
        let mut wire = Vec::new();
        frame(&encode_request(&Request::Stats), &mut wire);
        wire.pop(); // lose the last body byte
        let mut r = &wire[..];
        assert!(matches!(read_frame(&mut r), Err(ProtoError::ShortRead(_))));
    }

    #[test]
    fn unterminated_varint_is_malformed() {
        let wire = [0x80u8; 12];
        let mut r = &wire[..];
        assert!(matches!(read_frame(&mut r), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn garbage_bodies_never_panic() {
        // Every prefix of a valid body, and random-ish garbage, must come
        // back as Malformed — not a panic or a bogus success.
        let good = encode_request(&Request::Insert(entity()));
        for cut in 0..good.len() {
            let _ = decode_request(&good[..cut]);
        }
        for seed in 0..64u8 {
            let garbage: Vec<u8> = (0..48u8)
                .map(|i| seed.wrapping_mul(31).wrapping_add(i.wrapping_mul(17)))
                .collect();
            let _ = decode_request(&garbage);
            let _ = decode_response(&garbage);
        }
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[99]).is_err());
        // Trailing bytes after a complete request are rejected too.
        let mut padded = good;
        padded.push(0);
        assert!(decode_request(&padded).is_err());
    }
}
