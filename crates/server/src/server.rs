//! The TCP serving loop: accept thread, pipelined per-connection readers,
//! a fixed worker pool with connection affinity, and the shutdown
//! machinery.
//!
//! # Threading model
//!
//! ```text
//! accept thread ──spawns──▶ reader thread (one per connection)
//!                               │ one read() → drain *all* complete frames
//!                               │ admit → per-connection job queue
//!                               │        │ full globally → answer Busy
//!                               ▼        ▼
//!                    ready queue (connections with pending jobs)
//!                               │
//!                   worker pool (cfg.workers threads)
//!                               │ claims a connection, drains its batch,
//!                               │ engine.answer_frame(req) per job
//!                               ▼
//!                 seq-ordered response writer (one write() per batch)
//! ```
//!
//! **Pipelining.** A client may send any number of frames without waiting;
//! the reader performs buffered multi-frame decode — every complete frame
//! in one socket `read` is decoded and enqueued before the next syscall —
//! so one syscall round-trip carries many requests. Each frame gets a
//! per-connection sequence number at decode time, and *every* response
//! (real result, `Busy` shed, malformed-body error, shutting-down error)
//! flows through the connection's sequencer, which releases responses in
//! frame order and writes consecutive ready responses with a single
//! `write` call. Clients therefore always receive responses in request
//! order, pipelined or not.
//!
//! **Connection affinity.** The shared queue holds *connections with
//! pending jobs*, not individual jobs: a worker claims a connection,
//! drains its whole backlog as one batch, answers the batch with one
//! buffered write, and returns the connection to the pool only when its
//! queue is empty. Jobs from one connection never execute concurrently or
//! out of order, which is what makes per-connection response sequencing
//! sound; different connections spread across the pool as before. The
//! *global* job count is still bounded by `queue_depth` — a request
//! arriving while that many are queued is answered [`Response::Busy`]
//! immediately (admission control unchanged from the unpipelined server).
//!
//! # Shutdown
//!
//! *Graceful* ([`ServerHandle::shutdown`] or a wire [`Request::Shutdown`]):
//! stop accepting, refuse new requests (typed `ShuttingDown` error), let
//! the workers drain everything already queued, then flush the WAL through
//! the group-commit coordinators, write a checkpoint snapshot, and run the
//! full structural validation — the report is returned from
//! [`ServerHandle::join`]. A wire `Shutdown` is acked *in sequence*: the
//! ack never overtakes responses to requests the same connection sent
//! before it.
//!
//! *Hard kill* ([`ServerHandle::hard_kill`]): stop everything as fast as
//! possible and skip the flush/checkpoint/validate entirely. This is the
//! crash lever for recovery tests — whatever reached the WAL survives,
//! everything else is lost, exactly like `SIGKILL`.
//!
//! No socket or file is ever flushed/synced here — durability belongs to
//! the commit coordinator alone (audit rule CIND-A007).

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::{
    decode_request, encode_response, frame, split_frame, ErrorCode, Request, Response,
};
use crate::sharded::ShardedEngine;
use crate::{ServeConfig, ServerError};

/// How often idle workers re-check the drain/kill flags.
const WORKER_POLL: Duration = Duration::from_millis(25);

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
    /// Set first on any shutdown path: the accept loop exits and readers
    /// refuse new requests.
    closing: AtomicBool,
    /// Set only on [`ServerHandle::hard_kill`]: workers abandon queued
    /// jobs instead of draining them.
    killed: AtomicBool,
    /// Signalled when shutdown is requested (by the handle or by a wire
    /// `Shutdown` request); [`ServerHandle::join`] waits on it.
    requested: Mutex<bool>,
    cond: Condvar,
    /// Jobs currently queued across all connections; the admission gate.
    queued: AtomicUsize,
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

    /// Admission control: reserve one queue slot, or refuse (`Busy`).
    fn try_admit(&self) -> bool {
        let prev = self.queued.fetch_add(1, Ordering::SeqCst);
        if prev >= self.depth {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        true
    }
}

/// The sequencer half of one connection: responses keyed by the sequence
/// number their request frame was assigned, released strictly in order.
/// The socket itself lives outside this mutex ([`Conn::stream`]) so the
/// actual `write` syscall never runs under the sequencer lock.
struct OutState {
    /// The next sequence number the client is owed.
    next_seq: u64,
    /// Completed-but-not-yet-writable responses (framed bytes).
    pending: BTreeMap<u64, Vec<u8>>,
    /// Whether some thread currently owns the stream for writing. Set and
    /// cleared under the lock: at most one writer at a time, so released
    /// batches hit the socket in sequence order even when the reader
    /// thread (Busy/Malformed/Shutdown answers) races a draining worker.
    writing: bool,
}

/// The per-connection job queue plus its scheduling state.
struct ConnQueue {
    jobs: VecDeque<(u64, Request)>,
    /// Whether a ready-queue token for this connection is outstanding
    /// (in the channel or held by a draining worker). Guarded by the same
    /// mutex as `jobs` so enqueue/claim cannot race into a lost wakeup.
    scheduled: bool,
}

/// One live connection, shared by its reader thread and whichever worker
/// currently holds its token.
struct Conn {
    /// Writer half of the socket; guarded by `OutState::writing`, not a
    /// mutex, so writes proceed without holding the sequencer lock.
    stream: TcpStream,
    out: Mutex<OutState>,
    jobs: Mutex<ConnQueue>,
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Binds `127.0.0.1:{cfg.port}` (port `0` = OS-assigned) and starts
    /// the accept loop and worker pool over `engine`.
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
            queued: AtomicUsize::new(0),
            depth: cfg.effective_queue_depth(),
            net: NetCounters::default(),
        });

        let (tx, rx) = std::sync::mpsc::channel::<Arc<Conn>>();
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(cfg.effective_workers());
        for i in 0..cfg.effective_workers() {
            let engine = Arc::clone(&engine);
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("cind-worker-{i}"))
                    .spawn(move || worker_loop(&engine, &rx, &shared))?,
            );
        }

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cind-accept".to_string())
                .spawn(move || accept_loop(&listener, &tx, &shared))?
        };

        Ok(ServerHandle {
            engine,
            port,
            shared,
            accept: Some(accept),
            workers,
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
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
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
    /// stops accepting, drains the queued requests, joins the workers,
    /// then flushes, checkpoints, and validates every shard.
    ///
    /// # Errors
    /// WAL-flush / snapshot failures during the final checkpoint.
    pub fn join(mut self) -> Result<ShutdownReport, ServerError> {
        self.shared.wait_requested();
        self.stop_threads();
        self.engine.flush_wal()?;
        self.engine.checkpoint()?;
        let violations = self.engine.validate()?;
        Ok(ShutdownReport { violations })
    }

    /// Crash-stops the server: abandon queued requests, skip the WAL
    /// flush, checkpoint, and validation. Only what already reached the
    /// WAL survives — the lever for recovery tests.
    pub fn hard_kill(mut self) {
        self.shared.killed.store(true, Ordering::SeqCst);
        self.shared.request_shutdown();
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.shared.closing.store(true, Ordering::SeqCst);
        // Poke the blocking accept() so the accept thread observes the
        // flag even if no client ever connects again.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, tx: &Sender<Arc<Conn>>, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.closing() {
                    return; // the poke connection, or a late client
                }
                let tx = tx.clone();
                let shared = Arc::clone(shared);
                // Readers are detached: they exit when their connection
                // closes, and never outlive usefulness because they only
                // touch the ready queue and their own socket.
                let spawned = std::thread::Builder::new()
                    .name("cind-reader".to_string())
                    .spawn(move || reader_loop(stream, &tx, &shared));
                if spawned.is_err() {
                    return; // thread exhaustion: stop accepting
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Pipelined reader: one `read` syscall, then decode and dispatch every
/// complete frame it delivered before reading again.
fn reader_loop(stream: TcpStream, ready: &Sender<Arc<Conn>>, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone() else { return };
    let conn = Arc::new(Conn {
        stream: writer,
        out: Mutex::new(OutState {
            next_seq: 0,
            pending: BTreeMap::new(),
            writing: false,
        }),
        jobs: Mutex::new(ConnQueue { jobs: VecDeque::new(), scheduled: false }),
    });
    let mut input = stream;
    let mut buf: Vec<u8> = Vec::with_capacity(READ_CHUNK);
    let mut seq = 0u64;
    loop {
        // Drain every complete frame already buffered.
        let mut consumed = 0usize;
        loop {
            match split_frame(&buf[consumed..]) {
                Ok(Some((body, used))) => {
                    shared.net.frames_in.fetch_add(1, Ordering::Relaxed);
                    let this_seq = seq;
                    seq += 1;
                    dispatch_frame(&conn, this_seq, body, ready, shared);
                    consumed += used;
                }
                Ok(None) => break,
                // Framing-level damage (oversize length, unterminated
                // varint): the stream position is unrecoverable, so
                // answer in sequence and close.
                Err(e) => {
                    complete(
                        &conn,
                        seq,
                        &Response::Error {
                            code: ErrorCode::Malformed,
                            message: e.to_string(),
                        },
                        shared,
                    );
                    return;
                }
            }
        }
        if consumed > 0 {
            buf.drain(..consumed);
        }
        // Refill: exactly one syscall per iteration, however many frames
        // it carries.
        let old_len = buf.len();
        buf.resize(old_len + READ_CHUNK, 0);
        match input.read(&mut buf[old_len..]) {
            Ok(0) => return,
            Ok(n) => {
                buf.truncate(old_len + n);
                shared.net.reads.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                buf.truncate(old_len);
            }
            Err(_) => return,
        }
    }
}

/// Routes one decoded frame: admission control and protocol errors are
/// answered inline (through the sequencer, so ordering holds); real work
/// joins the connection's job queue.
fn dispatch_frame(
    conn: &Arc<Conn>,
    seq: u64,
    body: &[u8],
    ready: &Sender<Arc<Conn>>,
    shared: &Arc<Shared>,
) {
    match decode_request(body) {
        // Shutdown is acked in sequence and bypasses admission control —
        // an overloaded server must still be stoppable.
        Ok(Request::Shutdown) => {
            complete(conn, seq, &Response::ShutdownAck, shared);
            shared.request_shutdown();
        }
        Ok(req) => {
            if shared.closing() {
                complete(
                    conn,
                    seq,
                    &Response::Error {
                        code: ErrorCode::ShuttingDown,
                        message: "server is shutting down".to_string(),
                    },
                    shared,
                );
            } else if !shared.try_admit() {
                // Admission control: the global queue bound is hit, so
                // shed the request instead of queueing behind it.
                complete(conn, seq, &Response::Busy, shared);
            } else {
                enqueue(conn, seq, req, ready);
            }
        }
        // The frame arrived intact but its body is garbage: answer a
        // typed error and keep the connection usable.
        Err(e) => complete(
            conn,
            seq,
            &Response::Error {
                code: ErrorCode::Malformed,
                message: e.to_string(),
            },
            shared,
        ),
    }
}

/// Adds a job to the connection's queue and publishes a ready token if
/// none is outstanding (the `scheduled` flag, updated under the queue
/// lock, makes the token unique — so at most one worker drains a
/// connection at a time and per-connection order is preserved).
fn enqueue(conn: &Arc<Conn>, seq: u64, req: Request, ready: &Sender<Arc<Conn>>) {
    let token = {
        let mut q = conn.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        q.jobs.push_back((seq, req));
        if q.scheduled {
            false
        } else {
            q.scheduled = true;
            true
        }
    };
    if token {
        // A send can only fail after every worker exited, i.e. during
        // teardown; the job is then abandoned like any other in-flight
        // work at that point.
        let _ = ready.send(Arc::clone(conn));
    }
}

fn worker_loop(
    engine: &ShardedEngine,
    rx: &Arc<Mutex<Receiver<Arc<Conn>>>>,
    shared: &Arc<Shared>,
) {
    loop {
        if shared.killed() {
            return;
        }
        let token = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            // audit:allow(A009, the shared Receiver is only usable under its mutex and WORKER_POLL bounds the hold)
            guard.recv_timeout(WORKER_POLL)
        };
        match token {
            Ok(conn) => {
                if !drain_conn(engine, &conn, shared) {
                    return; // hard kill observed mid-batch
                }
            }
            // Ready queue empty: during graceful shutdown that means the
            // drain is complete.
            Err(RecvTimeoutError::Timeout) => {
                if shared.closing() {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Executes one connection's backlog to exhaustion. Each sweep takes the
/// whole current batch, handles it, and answers it with a single buffered
/// write; the connection is released (token retired) only when its queue
/// is observed empty under the lock. Returns `false` on hard kill.
fn drain_conn(engine: &ShardedEngine, conn: &Arc<Conn>, shared: &Arc<Shared>) -> bool {
    loop {
        let batch: Vec<(u64, Request)> = {
            let mut q = conn.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            if q.jobs.is_empty() {
                q.scheduled = false;
                return true;
            }
            q.jobs.drain(..).collect()
        };
        shared.queued.fetch_sub(batch.len(), Ordering::SeqCst);
        let mut done: Vec<(u64, Vec<u8>)> = Vec::with_capacity(batch.len());
        let mut it = batch.into_iter().peekable();
        while let Some((seq, req)) = it.next() {
            if shared.killed() {
                return false; // crash-stop: abandon un-answered
            }
            match req {
                // A run of consecutive pipelined inserts collapses into one
                // engine batch: one routing pass, one shard-lock
                // acquisition, and one durability wait per shard — the
                // commit coordinator sees the whole run as a single group
                // instead of `workers` trickled singletons. Per-item
                // results are identical to per-op dispatch
                // (`ShardedEngine::insert_batch` pins that down).
                Request::Insert(first)
                    if matches!(it.peek(), Some((_, Request::Insert(_)))) =>
                {
                    let mut seqs = vec![seq];
                    let mut entities = vec![first];
                    while matches!(it.peek(), Some((_, Request::Insert(_)))) {
                        if let Some((s, Request::Insert(e))) = it.next() {
                            seqs.push(s);
                            entities.push(e);
                        }
                    }
                    for (s, r) in seqs.into_iter().zip(engine.insert_batch(&entities)) {
                        let resp = crate::engine::to_frame(
                            r.map(|(segment, split)| Response::Written { segment, split }),
                        );
                        done.push((s, framed(&resp)));
                    }
                }
                // Merge engine-side WAL counters with server-side net
                // counters — the full syscall observability picture.
                Request::IoCounters => {
                    let mut io = engine.io_counters();
                    io.net_reads = shared.net.reads.load(Ordering::Relaxed);
                    io.net_writes = shared.net.writes.load(Ordering::Relaxed);
                    io.frames_in = shared.net.frames_in.load(Ordering::Relaxed);
                    io.frames_out = shared.net.frames_out.load(Ordering::Relaxed);
                    done.push((seq, framed(&Response::IoCounters(io))));
                }
                // Everything else leaves the engine as a finished frame:
                // query rows are scanned straight into wire bytes, and no
                // typed answer is built — or freed — on this worker.
                req => {
                    let mut wire = Vec::new();
                    engine.answer_frame(&req, &mut wire);
                    done.push((seq, wire));
                }
            }
        }
        complete_many(conn, done, shared);
    }
}

/// One typed response as a frame of its own.
fn framed(resp: &Response) -> Vec<u8> {
    let body = encode_response(resp);
    let mut wire = Vec::with_capacity(body.len() + 4);
    frame(&body, &mut wire);
    wire
}

/// Completes one response through the sequencer.
fn complete(conn: &Conn, seq: u64, resp: &Response, shared: &Shared) {
    complete_many(conn, vec![(seq, framed(resp))], shared);
}

/// Parks framed responses in the sequencer and writes out every response
/// that is now next-in-order — consecutive ready responses leave in one
/// `write` call, and a lone one leaves as the buffer it arrived in,
/// uncopied. A vanished client is not an error.
///
/// The `write` syscall runs with the sequencer lock *released*: a slow
/// client must not stall the reader thread or another worker completing
/// into the same connection (that hold was a CIND-A009 finding). The
/// `writing` flag makes the stream single-writer — a completer that finds
/// a writer active parks its items and returns; the active writer re-scans
/// after every write and drains them in order before clearing the flag, so
/// no response is ever stranded.
fn complete_many(conn: &Conn, items: Vec<(u64, Vec<u8>)>, shared: &Shared) {
    let mut out = conn.out.lock().unwrap_or_else(PoisonError::into_inner);
    for (seq, wire) in items {
        out.pending.insert(seq, wire);
    }
    if out.writing {
        return; // the active writer will release these in order
    }
    out.writing = true;
    loop {
        let mut batch = Vec::new();
        let mut released = 0u64;
        loop {
            let next = out.next_seq;
            let Some(wire) = out.pending.remove(&next) else { break };
            if released == 0 {
                batch = wire;
            } else {
                batch.extend_from_slice(&wire);
            }
            out.next_seq += 1;
            released += 1;
        }
        if released == 0 {
            out.writing = false;
            return;
        }
        drop(out);
        let _ = (&conn.stream).write_all(&batch);
        shared.net.writes.fetch_add(1, Ordering::Relaxed);
        shared.net.frames_out.fetch_add(released, Ordering::Relaxed);
        out = conn.out.lock().unwrap_or_else(PoisonError::into_inner);
    }
}

#[cfg(test)]
mod tests {
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
