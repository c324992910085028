//! The TCP serving loop: the accept thread, one thread per connection that
//! reads, executes and answers its own frames, and the shutdown machinery.
//!
//! # Threading model
//!
//! ```text
//! accept thread ──spawns──▶ connection thread (one per connection)
//!                               │ one read() → decode *all* complete frames
//!                               │ admit each: in-flight bound hit → Busy
//!                               ▼
//!                 answer in frame order into one buffer
//!                   run of Inserts → engine.insert_batch
//!                   IoCounters     → engine + socket counters
//!                   anything else  → engine.answer_frame
//!                               │
//!                               ▼
//!                     one write_all() per read
//! ```
//!
//! **Pipelining.** A client may send any number of frames without waiting.
//! Every complete frame one socket `read` delivered is decoded before any
//! is answered, and the answers to all of them — real results, `Busy`
//! sheds, malformed-body errors, shutting-down errors — leave in one
//! `write`. The thread that read a frame answers it, in the order it read
//! them, so clients receive responses in request order by construction:
//! there is no hand-off between threads and nothing to reorder.
//!
//! **Admission control.** [`ServeConfig::queue_depth`] bounds the frames
//! admitted but not yet answered, across all connections. A frame is
//! admitted when it is decoded and released once its read's answers are
//! written; a frame decoded while the bound is full is answered
//! [`Response::Busy`] in its slot.
//!
//! # Shutdown
//!
//! *Graceful* ([`ServerHandle::shutdown`] or a wire [`Request::Shutdown`]):
//! stop accepting, refuse new requests (typed `ShuttingDown` error), answer
//! every frame already read, join every connection thread, then flush the
//! WAL through the group-commit coordinators, write a checkpoint snapshot,
//! and run the full structural validation — the report is returned from
//! [`ServerHandle::join`]. A wire `Shutdown` is acked in its slot: after the
//! answers to everything the same connection sent before it.
//!
//! *Hard kill* ([`ServerHandle::hard_kill`]): stop everything as fast as
//! possible and skip the flush/checkpoint/validate entirely. A connection
//! thread abandons its read's remaining frames between two frames and
//! writes nothing. This is the crash lever for recovery tests — whatever
//! reached the WAL survives, everything else is lost, exactly like
//! `SIGKILL`.
//!
//! Connection threads hold the engine, so the handle owns them: teardown
//! shuts each connection's socket (the read half on graceful shutdown, both
//! halves on a hard kill) to wake a blocked `read`, and joins the thread
//! before anything else touches the engine.
//!
//! No socket or file is ever flushed/synced here — durability belongs to
//! the commit coordinator alone (audit rule CIND-A007).

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use crate::protocol::{
    decode_request, encode_response, frame, split_frame, ErrorCode, Request, Response,
};
use crate::sharded::ShardedEngine;
use crate::{ServeConfig, ServerError};

/// Reader buffer growth per socket `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// What graceful shutdown found after the drain.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Rendered invariant violations from the post-drain validation
    /// (empty = the store shut down structurally clean).
    pub violations: Vec<String>,
}

/// Network-side syscall/frame counters (relaxed; observability only).
#[derive(Default)]
struct NetCounters {
    reads: AtomicU64,
    writes: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
}

/// Flags shared by every thread of one server instance.
struct Shared {
    /// Set first on any shutdown path: the accept loop exits and
    /// connection threads refuse new requests.
    closing: AtomicBool,
    /// Set only on [`ServerHandle::hard_kill`]: connection threads abandon
    /// admitted frames instead of answering them.
    killed: AtomicBool,
    /// Signalled when shutdown is requested (by the handle or by a wire
    /// `Shutdown` request); [`ServerHandle::join`] waits on it.
    requested: Mutex<bool>,
    cond: Condvar,
    /// Frames admitted but not yet answered, across all connections; the
    /// admission gate.
    in_flight: AtomicUsize,
    /// The admission bound ([`ServeConfig::queue_depth`]).
    depth: usize,
    net: NetCounters,
}

impl Shared {
    fn closing(&self) -> bool {
        self.closing.load(Ordering::SeqCst)
    }

    fn killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    fn request_shutdown(&self) {
        self.closing.store(true, Ordering::SeqCst);
        let mut g = self.requested.lock().unwrap_or_else(PoisonError::into_inner);
        *g = true;
        self.cond.notify_all();
    }

    fn wait_requested(&self) {
        let mut g = self.requested.lock().unwrap_or_else(PoisonError::into_inner);
        while !*g {
            g = self
                .cond
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Admission control: reserve one in-flight slot, or refuse (`Busy`).
    fn try_admit(&self) -> bool {
        let prev = self.in_flight.fetch_add(1, Ordering::SeqCst);
        if prev >= self.depth {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        true
    }
}

/// One connection thread and a clone of its socket: teardown shuts the
/// socket to wake a blocked `read`, then joins the thread.
struct Reader {
    socket: TcpStream,
    thread: JoinHandle<()>,
}

/// What one decoded frame gets: run against the engine, or an answer
/// settled at decode (`Busy`, `Malformed`, `ShuttingDown`, `ShutdownAck`).
enum Slot {
    Run(Request),
    Answer(Response),
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Binds `127.0.0.1:{cfg.port}` (port `0` = OS-assigned) and starts
    /// the accept loop over `engine`.
    ///
    /// # Errors
    /// Socket bind/inspect failures.
    pub fn start(
        engine: Arc<ShardedEngine>,
        cfg: &ServeConfig,
    ) -> Result<ServerHandle, ServerError> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let port = listener.local_addr()?.port();
        let shared = Arc::new(Shared {
            closing: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            requested: Mutex::new(false),
            cond: Condvar::new(),
            in_flight: AtomicUsize::new(0),
            depth: cfg.effective_queue_depth(),
            net: NetCounters::default(),
        });

        let accept = {
            let engine = Arc::clone(&engine);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cind-accept".to_string())
                .spawn(move || accept_loop(&listener, &engine, &shared))?
        };

        Ok(ServerHandle {
            engine,
            port,
            shared,
            accept: Some(accept),
        })
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::join`] or [`ServerHandle::hard_kill`] leaves the
/// threads running detached.
pub struct ServerHandle {
    engine: Arc<ShardedEngine>,
    port: u16,
    shared: Arc<Shared>,
    /// The accept thread; it returns the connection threads it started.
    accept: Option<JoinHandle<Vec<Reader>>>,
}

impl ServerHandle {
    /// The bound TCP port (useful with `port: 0`).
    #[must_use]
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The (sharded) engine this server fronts.
    #[must_use]
    pub fn engine(&self) -> &Arc<ShardedEngine> {
        &self.engine
    }

    /// Requests graceful shutdown (idempotent); [`ServerHandle::join`]
    /// performs the drain and returns the report.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Waits until shutdown is requested (via [`ServerHandle::shutdown`]
    /// or a wire [`Request::Shutdown`]), then tears down gracefully:
    /// stops accepting, lets every connection thread answer the frames it
    /// has read and joins it, then flushes, checkpoints, and validates
    /// every shard.
    ///
    /// # Errors
    /// WAL-flush / snapshot failures during the final checkpoint.
    pub fn join(mut self) -> Result<ShutdownReport, ServerError> {
        self.shared.wait_requested();
        self.stop_threads(Shutdown::Read);
        self.engine.flush_wal()?;
        self.engine.checkpoint()?;
        let violations = self.engine.validate()?;
        Ok(ShutdownReport { violations })
    }

    /// Crash-stops the server: abandon admitted requests, skip the WAL
    /// flush, checkpoint, and validation. Only what already reached the
    /// WAL survives — the lever for recovery tests.
    pub fn hard_kill(mut self) {
        self.shared.killed.store(true, Ordering::SeqCst);
        self.shared.request_shutdown();
        self.stop_threads(Shutdown::Both);
    }

    /// Stops accepting, then shuts every connection's socket (`how`) and
    /// joins its thread. The read half alone lets a thread still write
    /// the answers to what it has read before it finds end of stream.
    fn stop_threads(&mut self, how: Shutdown) {
        self.shared.closing.store(true, Ordering::SeqCst);
        // Poke the blocking accept() so the accept thread observes the
        // flag even if no client ever connects again.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        let readers = self
            .accept
            .take()
            .map(|accept| accept.join().unwrap_or_default())
            .unwrap_or_default();
        for r in &readers {
            let _ = r.socket.shutdown(how);
        }
        for r in readers {
            let _ = r.thread.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    engine: &Arc<ShardedEngine>,
    shared: &Arc<Shared>,
) -> Vec<Reader> {
    let mut readers: Vec<Reader> = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.closing() {
                    return readers; // the poke connection, or a late client
                }
                // A thread that has exited has nothing left to join.
                readers.retain(|r| !r.thread.is_finished());
                let Ok(socket) = stream.try_clone() else { continue };
                let engine = Arc::clone(engine);
                let shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("cind-reader".to_string())
                    .spawn(move || reader_loop(stream, &engine, &shared));
                match spawned {
                    Ok(thread) => readers.push(Reader { socket, thread }),
                    Err(_) => return readers, // thread exhaustion: stop accepting
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return readers,
        }
    }
}

/// One connection: one `read` syscall, then decode every complete frame it
/// delivered, answer them all in frame order, and write the answers with
/// one `write_all` before reading again.
fn reader_loop(mut stream: TcpStream, engine: &ShardedEngine, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    // Input bytes are `buf[..end]`. The buffer is zeroed once and reused;
    // it grows only when a frame outgrows it.
    let mut buf: Vec<u8> = vec![0; READ_CHUNK];
    let mut end = 0usize;
    let mut slots: Vec<Slot> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    loop {
        let mut consumed = 0usize;
        let mut admitted = 0usize;
        let mut damaged = false;
        loop {
            match split_frame(&buf[consumed..end]) {
                Ok(Some((body, used))) => {
                    shared.net.frames_in.fetch_add(1, Ordering::Relaxed);
                    slots.push(admit(body, shared, &mut admitted));
                    consumed += used;
                }
                Ok(None) => break,
                // Framing-level damage (oversize length, unterminated
                // varint): the stream position is unrecoverable, so
                // answer in order and close.
                Err(e) => {
                    slots.push(Slot::Answer(Response::Error {
                        code: ErrorCode::Malformed,
                        message: e.to_string(),
                    }));
                    damaged = true;
                    break;
                }
            }
        }
        if consumed > 0 {
            buf.copy_within(consumed..end, 0);
            end -= consumed;
        }
        let answers = slots.len() as u64;
        let answered = answer(engine, &mut slots, &mut out, shared);
        if answered && !out.is_empty() {
            // A vanished client is not an error.
            let _ = stream.write_all(&out);
            shared.net.writes.fetch_add(1, Ordering::Relaxed);
            shared.net.frames_out.fetch_add(answers, Ordering::Relaxed);
        }
        out.clear();
        shared.in_flight.fetch_sub(admitted, Ordering::SeqCst);
        if !answered || damaged || shared.closing() {
            break;
        }
        // Refill: exactly one syscall per iteration, however many frames
        // it carries.
        if buf.len() < end + READ_CHUNK {
            buf.resize(end + READ_CHUNK, 0);
        }
        match stream.read(&mut buf[end..]) {
            Ok(0) => break,
            Ok(n) => {
                end += n;
                shared.net.reads.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // The accept loop holds a clone of this socket until it joins or
    // prunes this thread, so dropping ours would not end the connection.
    let _ = stream.shutdown(Shutdown::Both);
}

/// Settles one decoded frame's slot: protocol errors, shutdown and
/// admission are answered at decode; everything else is admitted to run.
fn admit(body: &[u8], shared: &Shared, admitted: &mut usize) -> Slot {
    match decode_request(body) {
        // Shutdown bypasses admission control — an overloaded server must
        // still be stoppable — and every frame decoded after it is refused.
        Ok(Request::Shutdown) => {
            shared.request_shutdown();
            Slot::Answer(Response::ShutdownAck)
        }
        Ok(_) if shared.closing() => Slot::Answer(Response::Error {
            code: ErrorCode::ShuttingDown,
            message: "server is shutting down".to_string(),
        }),
        Ok(req) => {
            if shared.try_admit() {
                *admitted += 1;
                Slot::Run(req)
            } else {
                // The in-flight bound is hit: shed the request instead
                // of stalling behind it.
                Slot::Answer(Response::Busy)
            }
        }
        // The frame arrived intact but its body is garbage: answer a
        // typed error and keep the connection usable.
        Err(e) => Slot::Answer(Response::Error {
            code: ErrorCode::Malformed,
            message: e.to_string(),
        }),
    }
}

/// Answers one read's slots in frame order, appending each answer frame to
/// `out`. Returns `false` on hard kill: the remaining frames are abandoned
/// and `out` must not be written.
fn answer(
    engine: &ShardedEngine,
    slots: &mut Vec<Slot>,
    out: &mut Vec<u8>,
    shared: &Shared,
) -> bool {
    let mut it = slots.drain(..).peekable();
    while let Some(slot) = it.next() {
        if shared.killed() {
            return false;
        }
        match slot {
            Slot::Answer(resp) => frame(&encode_response(&resp), out),
            // A run of consecutive pipelined inserts collapses into one
            // engine batch: one routing pass, one shard-lock acquisition,
            // and one durability wait per shard — the commit coordinator
            // sees the whole run as a single group. Per-item results are
            // identical to per-op dispatch (`ShardedEngine::insert_batch`
            // pins that down).
            Slot::Run(Request::Insert(first))
                if matches!(it.peek(), Some(Slot::Run(Request::Insert(_)))) =>
            {
                let mut entities = vec![first];
                while let Some(Slot::Run(Request::Insert(e))) =
                    it.next_if(|s| matches!(s, Slot::Run(Request::Insert(_))))
                {
                    entities.push(e);
                }
                for r in engine.insert_batch(&entities) {
                    let resp = crate::engine::to_frame(
                        r.map(|(segment, split)| Response::Written { segment, split }),
                    );
                    frame(&encode_response(&resp), out);
                }
            }
            // Merge engine-side WAL counters with server-side net
            // counters — the full syscall observability picture.
            Slot::Run(Request::IoCounters) => {
                let mut io = engine.io_counters();
                io.net_reads = shared.net.reads.load(Ordering::Relaxed);
                io.net_writes = shared.net.writes.load(Ordering::Relaxed);
                io.frames_in = shared.net.frames_in.load(Ordering::Relaxed);
                io.frames_out = shared.net.frames_out.load(Ordering::Relaxed);
                frame(&encode_response(&Response::IoCounters(io)), out);
            }
            // Everything else leaves the engine as a finished frame: query
            // rows are scanned straight into wire bytes, and no typed
            // answer is built — or freed — on this thread.
            Slot::Run(req) => engine.answer_frame(&req, out),
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::{Client, EngineOptions, ShardedOptions, WireEntity};
    use cind_model::Value;
    use cind_storage::{Segment, UniversalTable};

    const NOTE: &str = "a note long enough to find";

    /// A copy of `table` — same catalog, same segment ids, same records —
    /// with one byte of the record holding [`NOTE`] overwritten, `back`
    /// bytes ahead of the note (0 = its first byte, 2 = the text tag in
    /// front of its length byte). Records are copied as bytes and segments
    /// attached whole, which indexes entity ids and checks nothing else —
    /// the one way bytes get into a table undecoded.
    fn damaged(table: &UniversalTable, back: usize, byte: u8) -> UniversalTable {
        let mut copy = UniversalTable::new(64);
        for (_, name) in table.catalog().iter() {
            copy.catalog_mut().intern(name);
        }
        let mut hits = 0;
        for id in table.segment_ids() {
            let mut segment = Segment::new(id);
            for (_, record) in table.segment(id).expect("listed segment").iter() {
                let mut record = record.to_vec();
                if let Some(at) = record.windows(NOTE.len()).position(|w| w == NOTE.as_bytes()) {
                    record[at - back] = byte;
                    hits += 1;
                }
                segment.insert(&record).expect("copy record");
            }
            assert_eq!(copy.attach_segment(segment).expect("attach"), id, "segment ids kept");
        }
        assert_eq!(hits, 1, "exactly one record carries the note");
        copy
    }

    /// A page that rots under a live server — a text payload that is no
    /// longer UTF-8, a value tag that is no longer one — must reach the
    /// client as a typed error response, alone or inside a batch: never a
    /// frame the client rejects, never a dead connection.
    #[test]
    fn a_damaged_page_is_a_typed_error_over_loopback() {
        for (back, byte) in [(0, 0xff), (2, 9)] {
            let engine = Arc::new(ShardedEngine::in_memory(ShardedOptions::new(
                EngineOptions::default(),
                2,
            )));
            for id in 0..40u64 {
                let mut attrs = vec![("first".to_string(), Value::Int(id as i64))];
                if id == 7 {
                    attrs.push(("note".to_string(), Value::Text(NOTE.to_string())));
                }
                engine.insert(&WireEntity { id, attrs }).expect("insert");
            }
            engine
                .shard_engine(engine.shard_of(7))
                .replace_table(|table| damaged(table, back, byte));

            let handle =
                Server::start(Arc::clone(&engine), &ServeConfig::default()).expect("start");
            let mut client = Client::connect(("127.0.0.1", handle.port())).expect("connect");
            client.set_timeout(Some(Duration::from_secs(5))).expect("timeout");
            let note = vec!["note".to_string()];
            let first = vec!["first".to_string()];

            let resp = client.roundtrip(&Request::Query(note.clone())).expect("a decodable frame");
            let Response::Error { code: ErrorCode::Engine, message } = resp else {
                panic!("damage {back}/{byte}: expected a typed engine error, got {resp:?}");
            };
            assert!(message.contains("corrupt"), "{message}");

            // A walk that stops ahead of the damage is not hurt by it, and
            // a batch carries the failure as one item among good ones.
            let batch = Request::QueryBatch(vec![first.clone(), note, first.clone()]);
            match client.roundtrip(&batch).expect("a decodable frame") {
                Response::Batch(items) => {
                    assert_eq!(items.len(), 3);
                    for good in [&items[0], &items[2]] {
                        assert!(matches!(good, Response::Rows { rows, .. } if rows.len() == 40));
                    }
                    assert!(matches!(&items[1], Response::Error { code: ErrorCode::Engine, .. }));
                }
                other => panic!("expected a batch, got {other:?}"),
            }
            client.ping(0).expect("the connection answers the next request");
            assert_eq!(client.query(["first"]).expect("query").0.len(), 40);

            drop(client);
            handle.hard_kill();
        }
    }
}
