//! Protocol robustness and admission control: malformed frames come back
//! as typed errors (never a panic or a hang), overload produces bounded
//! `Busy` sheds, and graceful shutdown drains in-flight work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cind_model::Value;
use cind_server::protocol::MAX_FRAME;
use cind_server::{
    Client, EngineOptions, ErrorCode, Request, Response, ServeConfig, Server, ServerError,
    ShardedEngine, ShardedOptions, WireEntity,
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

/// Overload behaviour is bounded: with one worker pinned and the depth-1
/// queue full, the next request is answered `Busy` within the client
/// timeout rather than queueing indefinitely — and once load drops the
/// same server serves normally again.
#[test]
fn overload_sheds_with_busy_and_recovers() {
    let (handle, addr) = start_server(&ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    });

    // Pin the single worker with a slow ping on its own connection.
    let pin = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect pin");
            c.ping(600).expect("slow ping")
        })
    };
    std::thread::sleep(Duration::from_millis(150)); // worker is now busy

    // Fill the depth-1 queue with a second slow ping.
    let queued = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect queued");
            c.ping(0).expect("queued ping")
        })
    };
    std::thread::sleep(Duration::from_millis(150)); // it is now queued

    // The queue is saturated: this request must be shed, fast.
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

    pin.join().expect("pinned ping completes");
    queued.join().expect("queued ping completes");

    // Load dropped: the very same server answers normally again.
    c.ping(0).expect("responsive after overload");
    c.insert(wire(1, "rpm", 7200)).expect("writes accepted again");

    handle.shutdown();
    let report = handle.join().expect("join");
    assert!(report.violations.is_empty());
}

/// Graceful shutdown: requests already queued are drained (answered, and
/// durably applied) before the final validate, and late requests get a
/// typed `ShuttingDown` error rather than silence.
#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let (handle, addr) = start_server(&ServeConfig {
        workers: 2,
        queue_depth: 32,
        ..ServeConfig::default()
    });

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
