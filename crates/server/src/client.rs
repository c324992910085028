//! A blocking request/reply client for the wire protocol.
//!
//! One [`Client`] owns one TCP connection. The typed wrappers
//! ([`Client::insert`], [`Client::query`], …) issue strictly one request
//! at a time, so responses can never interleave. For throughput-sensitive
//! callers there is an explicit *pipelined* mode — [`Client::send`]
//! buffers encoded request frames locally and [`Client::recv`] ships the
//! whole buffer in one `write` before reading the next in-order response
//! — and a wire-level batch call ([`Client::insert_batch`]) that moves
//! many inserts per frame. Typed
//! server failures come back as [`ServerError::Remote`]; an admission-
//! control shed comes back as [`ServerError::Busy`] so callers can back
//! off and retry.
//!
//! Responses are cut from one receive buffer with [`split_frame`], the
//! server's own framing path: a `read` that ends mid-frame, a timeout
//! included, leaves the bytes it got in the buffer for the next
//! [`Client::recv`], so the stream never loses its place.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use cind_storage::varint;

use crate::protocol::{
    decode_response, encode_request, frame, split_frame, EngineStats, IoCounters, ProtoError,
    QueryStats, Request, Response, WireEntity,
};
use crate::ServerError;

/// Receive buffer growth while a response's length is not yet known.
const READ_CHUNK: usize = 64 * 1024;

/// One connection to a `cind serve` instance.
pub struct Client {
    stream: TcpStream,
    /// Encoded-but-unsent request frames (pipelined mode). Shipped in one
    /// `write` call by the next [`Client::recv`] / [`Client::flush_out`].
    outbox: Vec<u8>,
    /// Requests sent (or buffered) whose responses have not been read.
    inflight: usize,
    /// Received bytes are `inbox[..received]`: the front of the next
    /// response, or several. It grows to the largest response met, zeroed
    /// once as it grows, and is reused.
    inbox: Vec<u8>,
    received: usize,
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
        Ok(Self { stream, outbox: Vec::new(), inflight: 0, inbox: Vec::new(), received: 0 })
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
    /// Transport and decode failures. A read timeout keeps what arrived
    /// of the response, and the next `recv` picks it up where it stopped.
    pub fn recv(&mut self) -> Result<Response, ServerError> {
        self.flush_out()?;
        let resp = self.next_response()?;
        self.inflight = self.inflight.saturating_sub(1);
        Ok(resp)
    }

    /// Cuts the next response off the receive buffer, reading only while
    /// the buffered frame is incomplete. End of stream between frames is
    /// [`ProtoError::Closed`], inside one [`ProtoError::ShortRead`].
    fn next_response(&mut self) -> Result<Response, ServerError> {
        loop {
            if let Some((body, used)) = split_frame(&self.inbox[..self.received])? {
                let resp = decode_response(body);
                self.inbox.copy_within(used..self.received, 0);
                self.received -= used;
                return Ok(resp?);
            }
            if self.received == self.inbox.len() {
                // To the whole frame once its length prefix is in (split_frame
                // has bounded it), else by a chunk.
                let size = varint::decode(&self.inbox[..self.received])
                    .map_or(self.received + READ_CHUNK, |(len, prefix)| prefix + len as usize);
                self.inbox.resize(size, 0);
            }
            match self.stream.read(&mut self.inbox[self.received..]) {
                Ok(0) if self.received == 0 => return Err(ProtoError::Closed.into()),
                Ok(0) => return Err(ProtoError::ShortRead.into()),
                Ok(n) => self.received += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
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

    fn written_item(item: Response) -> Result<(u32, bool), ServerError> {
        Self::expect(item, |r| match r {
            Response::Written { segment, split } => Some((segment, split)),
            _ => None,
        })
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
        self.next_response()
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
        self.next_response()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::encode_response;
    use std::io::ErrorKind;
    use std::net::TcpListener;
    use std::thread;

    /// A one-connection fake server. It reads one request frame if
    /// `request` is set, then writes `chunks` with `pause` between them and
    /// closes the connection.
    fn fake_server(
        request: bool,
        chunks: Vec<Vec<u8>>,
        pause: Duration,
    ) -> (String, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let server = thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut got = Vec::new();
            while request && !matches!(split_frame(&got), Ok(Some(_))) {
                let mut byte = [0u8; 1];
                assert_eq!(conn.read(&mut byte).expect("request"), 1, "request cut short");
                got.push(byte[0]);
            }
            for (i, chunk) in chunks.iter().enumerate() {
                if i > 0 {
                    thread::sleep(pause);
                }
                conn.write_all(chunk).expect("write");
            }
        });
        (addr, server)
    }

    fn framed(responses: &[Response]) -> Vec<u8> {
        let mut wire = Vec::new();
        for resp in responses {
            frame(&encode_response(resp), &mut wire);
        }
        wire
    }

    #[test]
    fn a_timeout_mid_frame_keeps_the_bytes_for_the_next_recv() {
        let resp = Response::Validated(vec!["a".repeat(60), "b".repeat(60)]);
        let wire = framed(std::slice::from_ref(&resp));
        let half = wire.len() / 2;
        let chunks = vec![wire[..half].to_vec(), wire[half..].to_vec()];
        let (addr, server) = fake_server(true, chunks, Duration::from_millis(300));
        let mut client = Client::connect(&addr).expect("connect");
        client.set_timeout(Some(Duration::from_millis(100))).expect("timeout");
        client.send(&Request::Validate).expect("send");
        match client.recv() {
            Err(ServerError::Io(e))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            other => panic!("the first recv should time out, got {other:?}"),
        }
        assert_eq!((client.received, client.in_flight()), (half, 1), "the first half is kept");
        client.set_timeout(Some(Duration::from_secs(5))).expect("timeout");
        assert_eq!(client.recv().expect("the whole response"), resp);
        assert_eq!((client.received, client.in_flight()), (0, 0));
        server.join().expect("fake server");
    }

    #[test]
    fn end_of_stream_is_closed_between_frames_and_a_short_read_inside_one() {
        let mut wire = framed(&[Response::Pong, Response::Deleted, Response::Pong]);
        let (addr, server) = fake_server(false, vec![wire.clone()], Duration::ZERO);
        let mut client = Client::connect(&addr).expect("connect");
        for want in [Response::Pong, Response::Deleted, Response::Pong] {
            assert_eq!(client.read_response().expect("a whole frame"), want);
        }
        let end = client.read_response();
        assert!(matches!(end, Err(ServerError::Protocol(ProtoError::Closed))), "{end:?}");
        server.join().expect("fake server");

        wire.pop();
        let (addr, server) = fake_server(false, vec![wire], Duration::ZERO);
        let mut client = Client::connect(&addr).expect("connect");
        client.read_response().expect("pong");
        client.read_response().expect("deleted");
        let cut = client.read_response();
        assert!(matches!(cut, Err(ServerError::Protocol(ProtoError::ShortRead))), "{cut:?}");
        server.join().expect("fake server");
    }

    #[test]
    fn oversize_length_is_rejected_without_allocating() {
        let mut wire = Vec::new();
        varint::encode(crate::protocol::MAX_FRAME + 1, &mut wire);
        let (addr, server) = fake_server(false, vec![wire], Duration::ZERO);
        let mut client = Client::connect(&addr).expect("connect");
        let got = client.read_response();
        assert!(matches!(got, Err(ServerError::Protocol(ProtoError::Oversize(_)))), "{got:?}");
        assert!(client.inbox.len() <= READ_CHUNK, "sized by the hostile prefix");
        server.join().expect("fake server");
    }

    #[test]
    fn unterminated_varint_is_malformed() {
        let (addr, server) = fake_server(false, vec![vec![0x80u8; 12]], Duration::ZERO);
        let mut client = Client::connect(&addr).expect("connect");
        let got = client.read_response();
        assert!(matches!(got, Err(ServerError::Protocol(ProtoError::Malformed(_)))), "{got:?}");
        server.join().expect("fake server");
    }

    #[test]
    fn a_response_larger_than_the_buffer_grows_it_to_the_frame() {
        let resp = Response::Validated(vec!["v".repeat(3 * READ_CHUNK)]);
        let large = framed(std::slice::from_ref(&resp)).len();
        let wire = framed(&[resp.clone(), Response::Pong]);
        let (addr, server) = fake_server(false, vec![wire], Duration::ZERO);
        let mut client = Client::connect(&addr).expect("connect");
        assert_eq!(client.read_response().expect("large"), resp);
        assert_eq!(client.inbox.len(), large, "sized by the length prefix");
        assert_eq!(client.read_response().expect("after it"), Response::Pong);
        server.join().expect("fake server");
    }
}
