//! A blocking request/reply client for the wire protocol.
//!
//! One [`Client`] owns one TCP connection. The typed wrappers
//! ([`Client::insert`], [`Client::query`], …) issue strictly one request
//! at a time, so responses can never interleave. For throughput-sensitive
//! callers there is an explicit *pipelined* mode — [`Client::send`]
//! buffers encoded request frames locally and [`Client::recv`] ships the
//! whole buffer in one `write` before reading the next in-order response
//! — and wire-level batch calls ([`Client::insert_batch`],
//! [`Client::query_batch`]) that move many operations per frame. Typed
//! server failures come back as [`ServerError::Remote`]; an admission-
//! control shed comes back as [`ServerError::Busy`] so callers can back
//! off and retry.

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    decode_response, encode_request, frame, read_frame, EngineStats, IoCounters, QueryStats,
    Request, Response, WireEntity,
};
use crate::ServerError;

/// One connection to a `cind serve` instance.
pub struct Client {
    stream: TcpStream,
    /// Encoded-but-unsent request frames (pipelined mode). Shipped in one
    /// `write` call by the next [`Client::recv`] / [`Client::flush_out`].
    outbox: Vec<u8>,
    /// Requests sent (or buffered) whose responses have not been read.
    inflight: usize,
}

/// Per-item outcomes of a wire-level batch, in input order — one rejected
/// item does not fail its batch-mates.
pub type BatchResults<T> = Vec<Result<T, ServerError>>;

/// A materialised result row (query attribute order, `None` for NULL).
pub type Row = Vec<Option<cind_model::Value>>;

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7070"`).
    ///
    /// # Errors
    /// Socket failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServerError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, outbox: Vec::new(), inflight: 0 })
    }

    /// Sets (or clears) the read timeout for responses.
    ///
    /// # Errors
    /// Socket failures.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ServerError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Queues one request without waiting for its response (pipelined
    /// mode). The frame is buffered locally; the next [`Client::recv`] or
    /// [`Client::flush_out`] ships every buffered frame with a single
    /// `write` call, so K queued requests cost one syscall, not K.
    ///
    /// Responses arrive strictly in send order — pair each `send` with a
    /// later [`Client::recv`]. Don't mix with the one-shot typed wrappers
    /// while responses are outstanding ([`Client::in_flight`] `> 0`): the
    /// wrapper would read the oldest outstanding response, not its own.
    ///
    /// # Errors
    /// Never fails today (encoding is infallible; I/O is deferred) — the
    /// `Result` reserves the right to bound the buffer later.
    pub fn send(&mut self, req: &Request) -> Result<(), ServerError> {
        let body = encode_request(req);
        frame(&body, &mut self.outbox);
        self.inflight += 1;
        Ok(())
    }

    /// Ships every buffered request frame now (one `write` call) without
    /// reading anything. [`Client::recv`] does this implicitly; explicit
    /// flushing only matters for keeping the server busy while the caller
    /// does other work.
    ///
    /// # Errors
    /// Transport failures.
    pub fn flush_out(&mut self) -> Result<(), ServerError> {
        if !self.outbox.is_empty() {
            self.stream.write_all(&self.outbox)?;
            self.outbox.clear();
        }
        Ok(())
    }

    /// Reads the next in-order response for a pipelined [`Client::send`],
    /// shipping any still-buffered requests first.
    ///
    /// # Errors
    /// Transport and decode failures.
    pub fn recv(&mut self) -> Result<Response, ServerError> {
        self.flush_out()?;
        let resp = read_frame(&mut self.stream)?;
        self.inflight = self.inflight.saturating_sub(1);
        Ok(decode_response(&resp)?)
    }

    /// Requests sent or queued whose responses have not been received.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.inflight
    }

    /// Sends one request and reads one response frame.
    ///
    /// # Errors
    /// Socket and protocol failures; never returns [`ServerError::Remote`]
    /// or [`ServerError::Busy`] itself — those are decoded `Response`
    /// values the typed wrappers below translate.
    pub fn roundtrip(&mut self, req: &Request) -> Result<Response, ServerError> {
        self.send(req)?;
        self.recv()
    }

    fn expect<T>(
        resp: Response,
        ok: impl FnOnce(Response) -> Option<T>,
    ) -> Result<T, ServerError> {
        match resp {
            Response::Busy => Err(ServerError::Busy),
            Response::Error { code, message } => Err(ServerError::Remote { code, message }),
            other => ok(other).ok_or(ServerError::UnexpectedResponse),
        }
    }

    /// Inserts an entity; returns `(segment, split?)`.
    ///
    /// # Errors
    /// [`ServerError::Busy`] when shed, [`ServerError::Remote`] on engine
    /// rejection, transport failures.
    pub fn insert(&mut self, entity: WireEntity) -> Result<(u32, bool), ServerError> {
        let resp = self.roundtrip(&Request::Insert(entity))?;
        Self::expect(resp, |r| match r {
            Response::Written { segment, split } => Some((segment, split)),
            _ => None,
        })
    }

    /// Inserts many entities in **one** request frame; the server routes
    /// them per shard and commits each shard's share under a single
    /// writer-lock acquisition and durability wait. Returns per-item
    /// results in input order — one rejected entity does not fail its
    /// batch-mates.
    ///
    /// # Errors
    /// The outer `Err` is transport/whole-batch failure (including a
    /// whole-batch [`ServerError::Busy`] shed); per-item engine rejections
    /// are the inner results.
    pub fn insert_batch(
        &mut self,
        entities: Vec<WireEntity>,
    ) -> Result<BatchResults<(u32, bool)>, ServerError> {
        let resp = self.roundtrip(&Request::InsertBatch(entities))?;
        let items = Self::expect(resp, |r| match r {
            Response::Batch(items) => Some(items),
            _ => None,
        })?;
        Ok(items.into_iter().map(Self::written_item).collect())
    }

    /// Runs many queries in **one** request frame. Per-item results in
    /// input order.
    ///
    /// # Errors
    /// As [`Client::insert_batch`].
    pub fn query_batch(
        &mut self,
        queries: Vec<Vec<String>>,
    ) -> Result<BatchResults<(Vec<Row>, QueryStats)>, ServerError> {
        let resp = self.roundtrip(&Request::QueryBatch(queries))?;
        let items = Self::expect(resp, |r| match r {
            Response::Batch(items) => Some(items),
            _ => None,
        })?;
        Ok(items
            .into_iter()
            .map(|item| {
                Self::expect(item, |r| match r {
                    Response::Rows { rows, stats } => Some((rows, stats)),
                    _ => None,
                })
            })
            .collect())
    }

    fn written_item(item: Response) -> Result<(u32, bool), ServerError> {
        Self::expect(item, |r| match r {
            Response::Written { segment, split } => Some((segment, split)),
            _ => None,
        })
    }

    /// Replaces a stored entity; returns `(segment, split?)`.
    ///
    /// # Errors
    /// As [`Client::insert`].
    pub fn update(&mut self, entity: WireEntity) -> Result<(u32, bool), ServerError> {
        let resp = self.roundtrip(&Request::Update(entity))?;
        Self::expect(resp, |r| match r {
            Response::Written { segment, split } => Some((segment, split)),
            _ => None,
        })
    }

    /// Deletes an entity by id.
    ///
    /// # Errors
    /// As [`Client::insert`].
    pub fn delete(&mut self, id: u64) -> Result<(), ServerError> {
        let resp = self.roundtrip(&Request::Delete(id))?;
        Self::expect(resp, |r| matches!(r, Response::Deleted).then_some(()))
    }

    /// Runs a query by attribute names; returns the rows plus execution
    /// measurements.
    ///
    /// # Errors
    /// As [`Client::insert`]; unknown attributes arrive as
    /// [`ServerError::Remote`] with [`crate::ErrorCode::UnknownAttribute`].
    pub fn query(
        &mut self,
        attrs: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<(Vec<Row>, QueryStats), ServerError> {
        let attrs: Vec<String> = attrs.into_iter().map(Into::into).collect();
        let resp = self.roundtrip(&Request::Query(attrs))?;
        Self::expect(resp, |r| match r {
            Response::Rows { rows, stats } => Some((rows, stats)),
            _ => None,
        })
    }

    /// Fetches engine-wide counters.
    ///
    /// # Errors
    /// As [`Client::insert`].
    pub fn stats(&mut self) -> Result<EngineStats, ServerError> {
        let resp = self.roundtrip(&Request::Stats)?;
        Self::expect(resp, |r| match r {
            Response::Stats(s) => Some(s),
            _ => None,
        })
    }

    /// Fetches the server's I/O syscall counters (WAL appends/fsyncs and
    /// network reads/writes) — the observability hook benchmarks use to
    /// report syscalls-per-operation.
    ///
    /// # Errors
    /// As [`Client::insert`].
    pub fn io_counters(&mut self) -> Result<IoCounters, ServerError> {
        let resp = self.roundtrip(&Request::IoCounters)?;
        Self::expect(resp, |r| match r {
            Response::IoCounters(io) => Some(io),
            _ => None,
        })
    }

    /// Runs the server-side structural validation; returns the rendered
    /// violation lines (empty = clean).
    ///
    /// # Errors
    /// As [`Client::insert`].
    pub fn validate(&mut self) -> Result<Vec<String>, ServerError> {
        let resp = self.roundtrip(&Request::Validate)?;
        Self::expect(resp, |r| match r {
            Response::Validated(v) => Some(v),
            _ => None,
        })
    }

    /// Health check; the connection's server thread sleeps `delay_ms`
    /// before answering. Subject to admission control like any other request.
    ///
    /// # Errors
    /// [`ServerError::Busy`] when shed; transport failures.
    pub fn ping(&mut self, delay_ms: u64) -> Result<(), ServerError> {
        let resp = self.roundtrip(&Request::Ping(delay_ms))?;
        Self::expect(resp, |r| matches!(r, Response::Pong).then_some(()))
    }

    /// Requests graceful shutdown. The ack is sequenced after the
    /// responses to everything this connection sent before it.
    ///
    /// # Errors
    /// Transport failures.
    pub fn shutdown(&mut self) -> Result<(), ServerError> {
        let resp = self.roundtrip(&Request::Shutdown)?;
        Self::expect(resp, |r| matches!(r, Response::ShutdownAck).then_some(()))
    }

    /// Sends raw bytes as one frame body — protocol-robustness tests use
    /// this to deliver deliberately malformed requests.
    ///
    /// # Errors
    /// Transport and response-decode failures.
    pub fn send_raw(&mut self, body: &[u8]) -> Result<Response, ServerError> {
        let mut wire = Vec::with_capacity(body.len() + 4);
        frame(body, &mut wire);
        self.stream.write_all(&wire)?;
        let resp = read_frame(&mut self.stream)?;
        Ok(decode_response(&resp)?)
    }

    /// Writes arbitrary bytes *without* framing them — for tests that
    /// need to damage the framing layer itself (oversize lengths,
    /// truncated frames).
    ///
    /// # Errors
    /// Transport failures.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), ServerError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// Reads one response frame without sending anything first.
    ///
    /// # Errors
    /// Transport and decode failures.
    pub fn read_response(&mut self) -> Result<Response, ServerError> {
        let resp = read_frame(&mut self.stream)?;
        Ok(decode_response(&resp)?)
    }
}
