//! Protocol robustness and admission control: malformed frames come back
//! as typed errors (never a panic or a hang), overload produces bounded
//! `Busy` sheds, a pipelined burst is answered in frame order, and neither
//! shutdown path waits on an idle or a blocked connection.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cind_model::Value;
use cind_server::protocol::{encode_request, frame, MAX_FRAME};
use cind_server::{
    Client, EngineOptions, ErrorCode, ProtoError, Request, Response, ServeConfig, Server,
    ServerError, ShardedEngine, ShardedOptions, WireEntity,
};
use cind_storage::varint;

fn start_server(cfg: &ServeConfig) -> (cind_server::ServerHandle, String) {
    let engine = Arc::new(ShardedEngine::in_memory(ShardedOptions::new(
        EngineOptions::default(),
        cfg.effective_shards(),
    )));
    let handle = Server::start(engine, cfg).expect("server start");
    let addr = format!("127.0.0.1:{}", handle.port());
    (handle, addr)
}

fn wire(id: u64, name: &str, v: i64) -> WireEntity {
    WireEntity { id, attrs: vec![(name.to_string(), Value::Int(v))] }
}

#[test]
fn malformed_body_gets_typed_error_and_connection_survives() {
    let (handle, addr) = start_server(&ServeConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(5))).expect("timeout");

    // Unknown tag, garbage payload, empty body: all typed Malformed.
    for body in [&[99u8, 1, 2, 3][..], &[0xAB, 0xCD][..], &[][..]] {
        let resp = client.send_raw(body).expect("error frame expected");
        assert!(
            matches!(resp, Response::Error { code: ErrorCode::Malformed, .. }),
            "body {body:?} should be rejected as malformed, got {resp:?}"
        );
    }
    // A truncated-but-valid-tag body too (Insert with no entity).
    let resp = client.send_raw(&[1]).expect("error frame expected");
    assert!(matches!(resp, Response::Error { code: ErrorCode::Malformed, .. }));

    // The same connection still serves real requests afterwards.
    client.ping(0).expect("connection must survive malformed bodies");
    client.insert(wire(1, "rpm", 7200)).expect("insert after garbage");

    handle.shutdown();
    let report = handle.join().expect("join");
    assert!(report.violations.is_empty());
}

#[test]
fn oversize_frame_is_rejected_then_connection_closed() {
    let (handle, addr) = start_server(&ServeConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(5))).expect("timeout");

    let mut prefix = Vec::new();
    varint::encode(MAX_FRAME + 1, &mut prefix);
    client.send_bytes(&prefix).expect("send oversize length");
    let resp = client.read_response().expect("typed error before close");
    assert!(matches!(resp, Response::Error { code: ErrorCode::Malformed, .. }));

    // The server closed this stream; a fresh connection works fine.
    let mut fresh = Client::connect(&addr).expect("reconnect");
    fresh.ping(0).expect("server must stay up");

    handle.shutdown();
    handle.join().expect("join");
}

#[test]
fn short_read_and_abrupt_close_never_take_the_server_down() {
    let (handle, addr) = start_server(&ServeConfig::default());

    // Half a frame, then drop the socket mid-body.
    {
        let mut client = Client::connect(&addr).expect("connect");
        let mut partial = Vec::new();
        varint::encode(100, &mut partial); // promise 100 bytes …
        partial.extend_from_slice(&[7u8; 10]); // … deliver 10
        client.send_bytes(&partial).expect("send partial");
    } // drop = RST/FIN mid-frame

    // An unterminated varint length (10 continuation bytes).
    {
        let mut client = Client::connect(&addr).expect("connect");
        client.send_bytes(&[0x80u8; 11]).expect("send bad varint");
    }

    let mut fresh = Client::connect(&addr).expect("reconnect");
    fresh.set_timeout(Some(Duration::from_secs(5))).expect("timeout");
    fresh.ping(0).expect("server survived short reads");

    handle.shutdown();
    handle.join().expect("join");
}

/// Overload behaviour is bounded: with two slow pings in flight on two
/// connections and an in-flight bound of 2, a request on a third
/// connection is answered `Busy` within the client timeout rather than
/// waiting — and once load drops the same server serves normally again.
#[test]
fn overload_sheds_with_busy_and_recovers() {
    let (handle, addr) = start_server(&ServeConfig { queue_depth: 2, ..ServeConfig::default() });

    // One slow ping in flight per connection, on two connections.
    let slow: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect slow");
                c.set_timeout(Some(Duration::from_secs(5))).expect("timeout");
                c.ping(600)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150)); // both are now in flight

    // The bound is saturated: this request must be shed, fast.
    let mut c = Client::connect(&addr).expect("connect shed");
    c.set_timeout(Some(Duration::from_secs(2))).expect("timeout");
    let t0 = Instant::now();
    match c.ping(0) {
        Err(ServerError::Busy) => {}
        other => panic!("expected Busy under saturation, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "Busy took {:?} — load shedding must answer immediately",
        t0.elapsed()
    );

    for t in slow {
        t.join().expect("slow ping thread").expect("slow ping completes");
    }

    // Load dropped: the very same server answers normally again.
    c.ping(0).expect("responsive after overload");
    c.insert(wire(1, "rpm", 7200)).expect("writes accepted again");

    handle.shutdown();
    let report = handle.join().expect("join");
    assert!(report.violations.is_empty());
}

/// One pipelined burst on one connection, sent as one write so one server
/// read carries it all: the answers come back in frame order — a
/// malformed body, a query and a batch in their slots, exactly the inserts
/// past the in-flight bound shed `Busy` — the shutdown ack last, and the
/// final validate sees every acknowledged insert.
#[test]
fn a_pipelined_burst_is_answered_in_frame_order() {
    const DEPTH: usize = 8;
    let engine = Arc::new(ShardedEngine::in_memory(ShardedOptions::new(
        EngineOptions::default(),
        2,
    )));
    let handle = Server::start(
        Arc::clone(&engine),
        &ServeConfig { queue_depth: DEPTH, shards: 2, ..ServeConfig::default() },
    )
    .expect("server start");
    let mut client = Client::connect(("127.0.0.1", handle.port())).expect("connect");
    client.set_timeout(Some(Duration::from_secs(5))).expect("timeout");

    let rpm = || vec!["rpm".to_string()];
    let put = |req: &Request, burst: &mut Vec<u8>| frame(&encode_request(req), burst);
    let mut burst = Vec::new();
    for id in 0..3 {
        put(&Request::Insert(wire(id, "rpm", id as i64)), &mut burst);
    }
    frame(&[99u8, 1, 2, 3][..], &mut burst); // an intact frame, a garbage body
    put(&Request::Query(rpm()), &mut burst);
    put(&Request::QueryBatch(vec![rpm(), vec!["ghost".to_string()]]), &mut burst);
    // Three inserts, the query and the batch are admitted ahead of these,
    // so DEPTH - 5 of the ten are admitted and the rest shed.
    for id in 3..13 {
        put(&Request::Insert(wire(id, "rpm", id as i64)), &mut burst);
    }
    put(&Request::Shutdown, &mut burst);
    client.send_bytes(&burst).expect("send burst");

    let admitted_late = DEPTH - 5;
    let mut acked = Vec::new();
    for id in 0..3u64 {
        let resp = client.read_response().expect("insert answer");
        assert!(matches!(resp, Response::Written { .. }), "insert {id}: {resp:?}");
        acked.push(id);
    }
    let resp = client.read_response().expect("malformed answer");
    assert!(matches!(resp, Response::Error { code: ErrorCode::Malformed, .. }), "{resp:?}");
    match client.read_response().expect("query answer") {
        Response::Rows { rows, .. } => assert_eq!(rows.len(), 3, "the query follows three inserts"),
        other => panic!("expected rows, got {other:?}"),
    }
    match client.read_response().expect("batch answer") {
        Response::Batch(items) => {
            assert_eq!(items.len(), 2);
            assert!(matches!(&items[0], Response::Rows { rows, .. } if rows.len() == 3));
            assert!(matches!(items[1], Response::Error { code: ErrorCode::UnknownAttribute, .. }));
        }
        other => panic!("expected a batch, got {other:?}"),
    }
    for id in 3..13u64 {
        let resp = client.read_response().expect("late insert answer");
        if id < 3 + admitted_late as u64 {
            assert!(matches!(resp, Response::Written { .. }), "insert {id}: {resp:?}");
            acked.push(id);
        } else {
            assert!(matches!(resp, Response::Busy), "insert {id} must be shed: {resp:?}");
        }
    }
    let resp = client.read_response().expect("shutdown ack");
    assert!(matches!(resp, Response::ShutdownAck), "the ack comes last: {resp:?}");
    assert!(
        matches!(client.read_response(), Err(ServerError::Protocol(ProtoError::Closed))),
        "nothing follows the ack"
    );

    let report = handle.join().expect("graceful join");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(engine.stats().entities, acked.len() as u64);
    let (rows, _) = engine.query(&rpm()).expect("query");
    let mut stored: Vec<u64> = rows
        .iter()
        .map(|row| match row[..] {
            [Some(Value::Int(v))] => v as u64,
            _ => panic!("unexpected row {row:?}"),
        })
        .collect();
    stored.sort_unstable();
    assert_eq!(stored, acked, "exactly the acknowledged inserts are stored");
}

/// Neither shutdown path waits on a connection: one client holds an idle
/// connection open while a second is blocked reading a slow ping, and
/// `hard_kill()` and `shutdown(); join()` each return within 2 s. Every
/// connection thread is gone when they return — the engine has no other
/// owner left and the idle client reads end of stream.
#[test]
fn idle_and_blocked_connections_cannot_hang_teardown() {
    for graceful in [false, true] {
        let engine = Arc::new(ShardedEngine::in_memory(ShardedOptions::new(
            EngineOptions::default(),
            1,
        )));
        let handle = Server::start(Arc::clone(&engine), &ServeConfig::default()).expect("start");
        let addr = format!("127.0.0.1:{}", handle.port());

        let mut idle = Client::connect(&addr).expect("connect idle");
        idle.set_timeout(Some(Duration::from_secs(5))).expect("timeout");
        idle.ping(0).expect("the idle connection is being served");

        let blocked = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect blocked");
                c.set_timeout(Some(Duration::from_secs(5))).expect("timeout");
                c.ping(500)
            })
        };
        std::thread::sleep(Duration::from_millis(100)); // the slow ping is running

        let t0 = Instant::now();
        if graceful {
            handle.shutdown();
            let report = handle.join().expect("join");
            assert!(report.violations.is_empty());
        } else {
            handle.hard_kill();
        }
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(2), "graceful={graceful}: teardown took {took:?}");
        assert_eq!(
            Arc::strong_count(&engine),
            1,
            "graceful={graceful}: a connection thread outlived teardown"
        );
        match idle.read_response() {
            Err(ServerError::Protocol(ProtoError::Closed)) => {}
            other => panic!("graceful={graceful}: idle connection should be closed, got {other:?}"),
        }

        let slow = blocked.join().expect("blocked client thread");
        if graceful {
            slow.expect("a frame already read is answered on graceful shutdown");
        }
    }
}

/// Graceful shutdown: requests already admitted are answered (answered, and
/// durably applied) before the final validate, and late requests get a
/// typed `ShuttingDown` error rather than silence.
#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let (handle, addr) = start_server(&ServeConfig { queue_depth: 32, ..ServeConfig::default() });

    let mut client = Client::connect(&addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(10))).expect("timeout");
    for i in 0..50 {
        client.insert(wire(i, if i % 2 == 0 { "rpm" } else { "mp" }, i as i64)).expect("insert");
    }
    client.shutdown().expect("shutdown ack");

    let report = handle.join().expect("graceful join");
    assert!(report.violations.is_empty(), "{:?}", report.violations);

    // A request after shutdown must fail loudly, not hang: either the
    // connection is refused or a typed ShuttingDown error comes back.
    match Client::connect(&addr) {
        Err(_) => {}
        Ok(mut late) => {
            late.set_timeout(Some(Duration::from_secs(2))).expect("timeout");
            match late.ping(0) {
                Err(_) => {}
                Ok(()) => panic!("server accepted work after graceful shutdown"),
            }
        }
    }
}

/// Soak for the rows-as-wire-bytes path (nightly Soak and TSan jobs): four
/// connections pipeline `Query` and `QueryBatch` frames while a fifth
/// inserts. Every response must decode, and — every entity carrying the
/// queried attribute — each answer's row count must lie between the
/// inserts acknowledged before its window was sent and the inserts begun
/// by the time the window was answered.
#[test]
#[ignore = "soak: ~5 s in release, ~40 s in debug; run by the nightly Soak and TSan jobs"]
fn pipelined_queries_against_a_concurrent_inserter_stay_consistent() {
    const PRELOAD: u64 = 2_000;
    const INSERTS: u64 = 20_000;
    const WINDOW: usize = 3;
    let (handle, addr) = start_server(&ServeConfig { shards: 2, ..ServeConfig::default() });
    let mut loader = Client::connect(&addr).expect("connect");
    for chunk in (0..PRELOAD).collect::<Vec<_>>().chunks(100) {
        let batch = chunk.iter().map(|&id| wire(id, "x", id as i64)).collect();
        for item in loader.insert_batch(batch).expect("preload") {
            item.expect("preload insert");
        }
    }
    let begun = AtomicU64::new(0);
    let acked = AtomicU64::new(0);
    let x = || vec!["x".to_string()];

    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut client = Client::connect(&addr).expect("connect");
            for i in 0..INSERTS {
                begun.fetch_add(1, Ordering::SeqCst);
                client.insert(wire(PRELOAD + i, "x", i as i64)).expect("insert");
                acked.fetch_add(1, Ordering::SeqCst);
            }
        });
        for conn in 0..4usize {
            let (begun, acked, addr) = (&begun, &acked, &addr);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.set_timeout(Some(Duration::from_secs(30))).expect("timeout");
                let mut windows = 0u64;
                while acked.load(Ordering::SeqCst) < INSERTS {
                    let at_least = PRELOAD + acked.load(Ordering::SeqCst);
                    for k in 0..WINDOW {
                        let req = if (conn + k) % 2 == 0 {
                            Request::Query(x())
                        } else {
                            Request::QueryBatch(vec![x(), vec!["ghost".to_string()], x()])
                        };
                        client.send(&req).expect("send");
                    }
                    let answers: Vec<Response> = (0..WINDOW)
                        .map(|_| client.recv().expect("every response decodes"))
                        .collect();
                    let at_most = PRELOAD + begun.load(Ordering::SeqCst);
                    let check = |resp: &Response| match resp {
                        Response::Rows { rows, .. } => {
                            let n = rows.len() as u64;
                            assert!(
                                (at_least..=at_most).contains(&n),
                                "{n} rows outside [{at_least}, {at_most}]"
                            );
                            let one_int = |row: &Vec<_>| matches!(row[..], [Some(Value::Int(_))]);
                            assert!(rows.iter().all(one_int));
                        }
                        other => panic!("expected rows, got {other:?}"),
                    };
                    for answer in &answers {
                        match answer {
                            Response::Batch(items) => {
                                assert_eq!(items.len(), 3);
                                check(&items[0]);
                                assert!(matches!(
                                    items[1],
                                    Response::Error { code: ErrorCode::UnknownAttribute, .. }
                                ));
                                check(&items[2]);
                            }
                            single => check(single),
                        }
                    }
                    windows += 1;
                }
                assert!(windows > 0);
            });
        }
    });

    let (rows, _) = loader.query(["x"]).expect("final query");
    assert_eq!(rows.len() as u64, PRELOAD + INSERTS);
    handle.shutdown();
    let report = handle.join().expect("join");
    assert!(report.violations.is_empty());
}
