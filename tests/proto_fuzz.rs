//! Protocol fuzz/property suite.
//!
//! Three layers of assurance over `cind_server::protocol`:
//!
//! 1. **Round-trip properties**: for every request and response variant,
//!    `decode ∘ encode = id` under generated payloads (ids, attribute
//!    names, all four `Value` kinds, row matrices, stats counters).
//! 2. **Totality under mutation**: seeded random byte strings and
//!    single-byte mutations of valid encodings must *decode or error* —
//!    never panic, never hang, never allocate unboundedly. The decoders
//!    return `Result`, so totality here means these tests complete.
//!    The owned decoder and the in-place one (`decode_request_view`, the
//!    server's) accept and reject every one of these inputs alike, with
//!    equal values and equal errors.
//! 3. **Committed corpus**: the byte files under
//!    `crates/server/tests/corpus/` pin
//!    known-interesting inputs (one valid encoding per variant family
//!    plus malformed shapes). Every file is fed to both decoders raw and
//!    through the framing layer. Files named `valid_req_*` / `valid_resp_*`
//!    must additionally decode `Ok` — a codec change that breaks reading
//!    old bytes fails here first. Regenerate with
//!    `cargo test --test proto_fuzz regen_corpus -- --ignored`.

use std::path::PathBuf;

use cind_model::{Value, ValueRef};
use cind_server::protocol::{
    decode_request, decode_request_view, decode_response, encode_request, encode_response, frame,
    split_frame, EngineStats, ErrorCode, IoCounters, QueryStats, Request, RequestView, Response,
    WireCell, WireEntity,
};
use cind_server::{EngineOptions, ShardedEngine, ShardedOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---- generators -------------------------------------------------------

fn value_from(kind: u32, i: i64, f: f64, s: &str) -> Value {
    match kind % 4 {
        0 => Value::Bool(i & 1 == 1),
        1 => Value::Int(i),
        2 => Value::Float(f),
        _ => Value::Text(s.to_owned()),
    }
}

fn entity_from(id: u64, raw: &[(u32, i64, f64, String)]) -> WireEntity {
    let attrs = raw
        .iter()
        .enumerate()
        .map(|(i, (kind, int, float, text))| {
            (format!("a{i}_{text}"), value_from(*kind, *int, *float, text))
        })
        .collect();
    WireEntity { id, attrs }
}

fn attr_raw() -> impl Strategy<Value = Vec<(u32, i64, f64, String)>> {
    prop::collection::vec(
        (0u32..4, -1_000_000i64..1_000_000, -1e9f64..1e9, "[a-z]{0,6}"),
        0..10,
    )
}

// ---- round-trip properties -------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn insert_and_update_roundtrip(
        id in 0u64..u64::MAX,
        raw in attr_raw(),
        update in any::<bool>(),
    ) {
        let e = entity_from(id, &raw);
        let req = if update { Request::Update(e) } else { Request::Insert(e) };
        let body = encode_request(&req);
        assert_decoders_agree(&body);
        prop_assert_eq!(decode_request(&body).expect("valid encoding"), req);
    }

    #[test]
    fn delete_query_stats_validate_shutdown_ping_roundtrip(
        id in 0u64..u64::MAX,
        attrs in prop::collection::vec("[a-z_]{0,12}", 0..8),
        delay in 0u64..100_000,
        pick in 0u32..6,
    ) {
        let req = match pick {
            0 => Request::Delete(id),
            1 => Request::Query(attrs),
            2 => Request::Stats,
            3 => Request::Validate,
            4 => Request::Shutdown,
            _ => Request::Ping(delay),
        };
        let body = encode_request(&req);
        prop_assert_eq!(decode_request(&body).expect("valid encoding"), req);
    }

    #[test]
    fn written_deleted_acks_roundtrip(
        segment in 0u32..u32::MAX,
        split in any::<bool>(),
        pick in 0u32..5,
    ) {
        let resp = match pick {
            0 => Response::Written { segment, split },
            1 => Response::Deleted,
            2 => Response::ShutdownAck,
            3 => Response::Pong,
            _ => Response::Busy,
        };
        let body = encode_response(&resp);
        prop_assert_eq!(decode_response(&body).expect("valid encoding"), resp);
    }

    #[test]
    fn rows_roundtrip(
        width in 0usize..6,
        cells in prop::collection::vec(
            prop::option::of((0u32..4, -5_000i64..5_000, -1e6f64..1e6, "[a-z]{0,4}")),
            0..48,
        ),
        counters in prop::collection::vec(0u64..1_000_000, 5..6),
    ) {
        // Reshape the flat cell stream into rows of a constant width: the
        // codec stores one width for the whole matrix.
        let rows: Vec<Vec<Option<Value>>> = if width == 0 {
            Vec::new()
        } else {
            cells
                .chunks_exact(width)
                .map(|row| {
                    row.iter()
                        .map(|c| c.as_ref().map(|(k, i, f, s)| value_from(*k, *i, *f, s)))
                        .collect()
                })
                .collect()
        };
        let resp = Response::Rows {
            rows,
            stats: QueryStats {
                entities_scanned: counters[0],
                segments_read: counters[1],
                segments_pruned: counters[2],
                logical_reads: counters[3],
                physical_reads: counters[4],
            },
        };
        let body = encode_response(&resp);
        prop_assert_eq!(decode_response(&body).expect("valid encoding"), resp);
    }

    #[test]
    fn stats_validated_error_roundtrip(
        counters in prop::collection::vec(0u64..u64::MAX, 7..8),
        violations in prop::collection::vec("[a-z :]{0,20}", 0..6),
        code in 1u32..6,
        message in "[a-z ]{0,30}",
        pick in 0u32..3,
    ) {
        let resp = match pick {
            0 => Response::Stats(EngineStats {
                entities: counters[0],
                partitions: counters[1],
                attributes: counters[2],
                logical_reads: counters[3],
                physical_reads: counters[4],
                page_writes: counters[5],
                evictions: counters[6],
            }),
            1 => Response::Validated(violations),
            _ => Response::Error {
                code: match code {
                    1 => ErrorCode::Malformed,
                    2 => ErrorCode::UnknownAttribute,
                    3 => ErrorCode::Engine,
                    4 => ErrorCode::ShuttingDown,
                    _ => ErrorCode::Internal,
                },
                message,
            },
        };
        let body = encode_response(&resp);
        prop_assert_eq!(decode_response(&body).expect("valid encoding"), resp);
    }

    #[test]
    fn batch_requests_roundtrip(
        ids in prop::collection::vec(0u64..u64::MAX, 0..6),
        raw in attr_raw(),
        queries in prop::collection::vec(
            prop::collection::vec("[a-z_]{0,10}", 0..4),
            0..5,
        ),
        pick in 0u32..3,
    ) {
        let req = match pick {
            0 => Request::InsertBatch(
                ids.iter().map(|&id| entity_from(id, &raw)).collect(),
            ),
            1 => Request::QueryBatch(queries),
            _ => Request::IoCounters,
        };
        let body = encode_request(&req);
        prop_assert_eq!(decode_request(&body).expect("valid encoding"), req);
    }

    #[test]
    fn batch_and_io_counter_responses_roundtrip(
        counters in prop::collection::vec(0u64..u64::MAX, 8..9),
        picks in prop::collection::vec(0u32..4, 0..8),
        segment in 0u32..u32::MAX,
    ) {
        // A batch is a vector of ordinary (non-batch) responses; mix the
        // simple ack variants plus typed errors, like a real insert batch.
        let items: Vec<Response> = picks
            .iter()
            .map(|p| match p {
                0 => Response::Written { segment, split: segment & 1 == 1 },
                1 => Response::Busy,
                2 => Response::Pong,
                _ => Response::Error {
                    code: ErrorCode::Engine,
                    message: "duplicate id".into(),
                },
            })
            .collect();
        let io = Response::IoCounters(IoCounters {
            net_reads: counters[0],
            net_writes: counters[1],
            frames_in: counters[2],
            frames_out: counters[3],
            wal_appends: counters[4],
            wal_syncs: counters[5],
            wal_groups: counters[6],
            wal_ops: counters[7],
        });
        for resp in [Response::Batch(items), io] {
            let body = encode_response(&resp);
            prop_assert_eq!(decode_response(&body).expect("valid encoding"), resp);
        }
    }

    #[test]
    fn framing_roundtrips_any_body(bytes in prop::collection::vec(0u8..=255, 0..200)) {
        let mut wire = Vec::new();
        frame(&bytes, &mut wire);
        let (body, used) = split_frame(&wire).expect("valid framing").expect("a whole frame");
        prop_assert_eq!((body, used), (&bytes[..], wire.len()));
        prop_assert!(matches!(split_frame(&wire[used..]), Ok(None)));
    }

    #[test]
    fn split_frame_drains_every_frame_of_a_buffer(
        bodies in prop::collection::vec(prop::collection::vec(0u8..=255, 0..60), 1..5),
    ) {
        // However many frames share one buffer (what one socket read hands
        // the server's reader or the client), splitting yields each body
        // in turn and then asks for more bytes.
        let mut wire = Vec::new();
        for b in &bodies {
            frame(b, &mut wire);
        }
        let mut at = 0usize;
        for b in &bodies {
            let (body, used) = split_frame(&wire[at..])
                .expect("valid framing")
                .expect("complete frame available");
            prop_assert_eq!(body, &b[..]);
            at += used;
        }
        prop_assert_eq!(at, wire.len());
        prop_assert!(matches!(split_frame(&wire[at..]), Ok(None)));
    }

    #[test]
    fn an_accepted_rows_body_holds_its_rows(
        nrows in prop_oneof![3 => 0u64..24, 1 => any::<u64>()],
        width in prop_oneof![2 => Just(0u64), 3 => 0u64..5, 1 => any::<u64>()],
        filled in any::<bool>(),
        cells in prop::collection::vec(prop_oneof![3 => Just(0u8), 1 => 0u8..=255], 0..80),
    ) {
        // A `Rows` header with any row count and width, then either one
        // NULL flag per cell it claims or bytes that are mostly NULL flags.
        // Whatever decodes must have had a flag byte in the body for every
        // cell of every row, and a row has at least one cell.
        let mut body = vec![3u8, 0, 0, 0, 0, 0];
        cind_storage::varint::encode(nrows, &mut body);
        cind_storage::varint::encode(width, &mut body);
        match nrows.checked_mul(width) {
            Some(flags) if filled && flags <= 64 => body.resize(body.len() + flags as usize, 0),
            _ => body.extend_from_slice(&cells),
        }
        if let Ok(Response::Rows { rows, .. }) = decode_response(&body) {
            prop_assert_eq!(rows.len() as u64, nrows);
            prop_assert!(rows.iter().all(|row| row.len() as u64 == width));
            prop_assert!(nrows * width.max(1) <= body.len() as u64);
        }
    }
}

/// The rows of an accepted `Rows` body: each has at least one cell, and
/// together they need no more flag bytes than the body has.
fn assert_rows_fit(body: &[u8]) {
    if let Ok(Response::Rows { rows, .. }) = decode_response(body) {
        let width = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == width && width > 0), "a zero-width row");
        let (n, len) = (rows.len(), body.len());
        assert!(n * width <= len, "{n} rows of width {width} in a {len}-byte body");
    }
}

// ---- seeded fuzz corpora ---------------------------------------------

/// Response bodies as the server's network path writes them — rows scanned
/// straight into wire bytes by a live two-shard engine, never a typed
/// `Response` — for the same queries alone and batched: rows with NULL
/// columns and every value kind, a zero-row answer, a typed error item.
fn wire_path_bodies() -> Vec<(&'static str, Vec<u8>)> {
    let engine = ShardedEngine::in_memory(ShardedOptions::new(EngineOptions::default(), 2));
    for id in 0..12u64 {
        let value = match id % 4 {
            0 => Value::Bool(id % 8 == 0),
            1 => Value::Int(i64::MIN + id as i64),
            2 => Value::Float(-0.0),
            _ => Value::Text("é".repeat(70 * (id as usize % 3))),
        };
        let mut attrs = vec![("v".to_string(), value)];
        if id % 3 == 0 {
            attrs.push((format!("only{}", engine.shard_of(id)), Value::Int(id as i64)));
        }
        if id >= 10 {
            attrs = vec![("gone".to_string(), Value::Bool(true))];
        }
        engine.insert(&WireEntity { id, attrs }).expect("insert");
    }
    for id in 10..12 {
        engine.delete(id).expect("delete");
    }
    let q = |attrs: &[&str]| attrs.iter().map(|a| (*a).to_string()).collect::<Vec<_>>();
    let body_of = |req: Request| {
        let mut wire = Vec::new();
        engine.answer_frame(&req, &mut wire);
        let (body, _) = split_frame(&wire).expect("well framed").expect("a whole frame");
        body.to_vec()
    };
    vec![
        ("valid_resp_wire_rows", body_of(Request::Query(q(&["only0", "v", "only1", "v"])))),
        ("valid_resp_wire_rows_empty", body_of(Request::Query(q(&["gone"])))),
        (
            "valid_resp_wire_batch",
            body_of(Request::QueryBatch(vec![q(&["v"]), q(&["ghost"]), q(&["gone"]), q(&[])])),
        ),
    ]
}

/// A spread of valid bodies covering every variant family — the mutation
/// substrate and (framed) the corpus seed material.
fn valid_bodies() -> Vec<(&'static str, Vec<u8>)> {
    let mut bodies = typed_bodies();
    bodies.extend(wire_path_bodies());
    bodies
}

fn typed_bodies() -> Vec<(&'static str, Vec<u8>)> {
    let entity = WireEntity {
        id: 42,
        attrs: vec![
            ("name".into(), Value::Text("WD4000".into())),
            ("rpm".into(), Value::Int(-7200)),
            ("price".into(), Value::Float(129.5)),
            ("ssd".into(), Value::Bool(false)),
        ],
    };
    vec![
        ("valid_req_insert", encode_request(&Request::Insert(entity.clone()))),
        ("valid_req_update", encode_request(&Request::Update(entity))),
        ("valid_req_delete", encode_request(&Request::Delete(7))),
        (
            "valid_req_query",
            encode_request(&Request::Query(vec!["rpm".into(), "price".into()])),
        ),
        ("valid_req_stats", encode_request(&Request::Stats)),
        ("valid_req_validate", encode_request(&Request::Validate)),
        ("valid_req_shutdown", encode_request(&Request::Shutdown)),
        ("valid_req_ping", encode_request(&Request::Ping(250))),
        ("valid_req_io_counters", encode_request(&Request::IoCounters)),
        (
            "valid_req_insert_batch",
            encode_request(&Request::InsertBatch(vec![
                WireEntity { id: 1, attrs: vec![("a".into(), Value::Int(1))] },
                WireEntity { id: 2, attrs: vec![("b".into(), Value::Bool(true))] },
            ])),
        ),
        (
            "valid_req_query_batch",
            encode_request(&Request::QueryBatch(vec![
                vec!["rpm".into(), "price".into()],
                vec!["name".into()],
            ])),
        ),
        (
            "valid_resp_written",
            encode_response(&Response::Written { segment: 9, split: true }),
        ),
        (
            "valid_resp_rows",
            encode_response(&Response::Rows {
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
            }),
        ),
        (
            "valid_resp_stats",
            encode_response(&Response::Stats(EngineStats {
                entities: 1,
                partitions: 2,
                attributes: 3,
                logical_reads: 4,
                physical_reads: 5,
                page_writes: 6,
                evictions: 7,
            })),
        ),
        (
            "valid_resp_validated",
            encode_response(&Response::Validated(vec!["arena: bad slot".into()])),
        ),
        (
            "valid_resp_error",
            encode_response(&Response::Error {
                code: ErrorCode::UnknownAttribute,
                message: "no such attribute".into(),
            }),
        ),
        (
            "valid_resp_batch",
            encode_response(&Response::Batch(vec![
                Response::Written { segment: 3, split: false },
                Response::Busy,
                Response::Error { code: ErrorCode::Engine, message: "duplicate id".into() },
            ])),
        ),
        (
            "valid_resp_io_counters",
            encode_response(&Response::IoCounters(IoCounters {
                net_reads: 1,
                net_writes: 2,
                frames_in: 3,
                frames_out: 4,
                wal_appends: 5,
                wal_syncs: 6,
                wal_groups: 7,
                wal_ops: 8,
            })),
        ),
    ]
}

/// Hand-built malformed shapes worth pinning: each must decode to `Err`.
fn malformed_bodies() -> Vec<(&'static str, Vec<u8>)> {
    let mut truncated = encode_request(&Request::Query(vec!["abc".into()]));
    truncated.truncate(truncated.len() - 2);
    // Only claimed malformed as a *request*: the same bytes happen to spell
    // a valid empty Validated response (tag overlap is fine; the two codecs
    // never share a stream direction).
    let mut trailing = encode_request(&Request::Stats);
    trailing.push(0);
    // Tag says Query, count says 2^40 attributes: must reject, not allocate.
    let mut huge_count = vec![4u8];
    cind_storage::varint::encode(1 << 40, &mut huge_count);
    // A batch response whose single item is itself a batch: the decoder
    // must refuse recursion rather than nest unboundedly.
    let inner_batch = vec![9u8, 0];
    let mut nested_batch = vec![9u8];
    cind_storage::varint::encode(1, &mut nested_batch);
    cind_storage::varint::encode(inner_batch.len() as u64, &mut nested_batch);
    nested_batch.extend_from_slice(&inner_batch);
    // An insert batch that claims 2^40 entities up front.
    let mut huge_batch = vec![10u8];
    cind_storage::varint::encode(1 << 40, &mut huge_batch);
    // Eleven bytes: a `Rows` tag, five zero stats, 2^24 rows of width 0.
    // No byte per row bounds the count; it must not become 16 M rows.
    let zero_width_rows = vec![3u8, 0, 0, 0, 0, 0, 0x80, 0x80, 0x80, 0x08, 0];
    vec![
        ("bad_req_tag", vec![99u8]),
        ("bad_resp_tag", vec![0xA0u8, 1, 2, 3]),
        ("bad_empty", Vec::new()),
        ("bad_truncated_query", truncated),
        ("bad_req_trailing_byte", trailing),
        ("bad_huge_count", huge_count),
        ("bad_unterminated_varint", vec![0x80u8; 12]),
        ("bad_resp_nested_batch", nested_batch),
        ("bad_req_huge_batch_count", huge_batch),
        ("bad_resp_zero_width_rows", zero_width_rows),
    ]
}

/// Whether a cell read in place holds what the owned decode holds (floats
/// by bits, so a NaN equals itself).
fn same_cell((name, value): WireCell<'_>, (owned_name, owned): &(String, Value)) -> bool {
    let same_value = match (value, owned.borrowed()) {
        (ValueRef::Float(a), ValueRef::Float(b)) => a.to_bits() == b.to_bits(),
        (a, b) => a == b,
    };
    name == owned_name && same_value
}

/// The owned decoder and the in-place one accept and reject the same
/// bodies, with equal errors; where they accept, every entity and cell read
/// in place equals its owned counterpart, and every other request is the
/// owned one.
fn assert_decoders_agree(body: &[u8]) {
    let (owned, view) = match (decode_request(body), decode_request_view(body)) {
        (Ok(owned), Ok(view)) => (owned, view),
        (Err(a), Err(b)) => return assert_eq!(a, b, "the decoders refuse alike"),
        (a, b) => panic!("one decoder accepts: owned {a:?}, in place {b:?}"),
    };
    let entities = match (&owned, &view) {
        (Request::Insert(e), RequestView::Insert(v)) | (Request::Update(e), RequestView::Update(v)) => {
            (std::slice::from_ref(e), v)
        }
        (Request::InsertBatch(es), RequestView::InsertBatch(v)) => (es.as_slice(), v),
        (owned, RequestView::Other(other)) => return assert_eq!(owned, other),
        (owned, view) => panic!("decoded as different requests: {owned:?} vs {view:?}"),
    };
    let (owned_entities, views) = entities;
    assert_eq!(views.len(), owned_entities.len());
    for (view, owned) in views.views().zip(owned_entities) {
        assert_eq!((view.id, view.cells.len()), (owned.id, owned.attrs.len()));
        assert!(view.cells.iter().zip(&owned.attrs).all(|(v, o)| same_cell(*v, o)), "{view:?}");
    }
    assert_eq!(encode_request(&view.into_owned()), encode_request(&owned));
}

/// Feed a body to everything that consumes untrusted bytes. Totality =
/// this returns (no panic); callers add per-case expectations on top.
fn exercise(body: &[u8]) -> (bool, bool) {
    assert_decoders_agree(body);
    let req_ok = decode_request(body).is_ok();
    let resp_ok = decode_response(body).is_ok();
    assert_rows_fit(body);
    // The body itself as hostile *framing* input: must return, not panic.
    let _ = split_frame(body);
    let mut wire = Vec::new();
    frame(body, &mut wire);
    let (split_body, used) = split_frame(&wire)
        .expect("valid framing")
        .expect("complete frame");
    assert_eq!((split_body, used), (body, wire.len()));
    // Truncated, the framing layer reports incompleteness, never panics or
    // yields bytes.
    assert!(matches!(split_frame(&wire[..wire.len() - 1]), Ok(None)));
    (req_ok, resp_ok)
}

#[test]
fn random_bytes_never_panic_the_decoders() {
    let mut rng = StdRng::seed_from_u64(0xF022_5EED_D00D);
    for _ in 0..4_000 {
        let len = rng.gen_range(0..96usize);
        let body: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        exercise(&body);
    }
}

#[test]
fn single_byte_mutations_never_panic_the_decoders() {
    let mut rng = StdRng::seed_from_u64(0x5EED_AB1E);
    for (_, body) in valid_bodies() {
        for pos in 0..body.len() {
            // All 8 single-bit flips plus a few random byte swaps per
            // position: cheap, deterministic, covers tag/length/payload
            // corruption at every offset.
            for bit in 0..8 {
                let mut m = body.clone();
                m[pos] ^= 1 << bit;
                exercise(&m);
            }
            for _ in 0..2 {
                let mut m = body.clone();
                m[pos] = rng.gen_range(0..=255u32) as u8;
                exercise(&m);
            }
        }
    }
}

// ---- committed corpus -------------------------------------------------

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/server/tests/corpus")
}

#[test]
fn committed_corpus_decodes_as_labelled() {
    let dir = corpus_dir();
    let entries = std::fs::read_dir(&dir).expect("crates/server/tests/corpus/ must be committed");
    let mut seen = 0usize;
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("bin") {
            continue;
        }
        seen += 1;
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_owned();
        let body = std::fs::read(&path).expect("corpus file readable");
        let (req_ok, resp_ok) = exercise(&body);
        if name.starts_with("valid_req_") {
            assert!(req_ok, "{name}: a committed valid request stopped decoding");
        } else if name.starts_with("valid_resp_") {
            assert!(resp_ok, "{name}: a committed valid response stopped decoding");
        } else if name.starts_with("bad_req_") {
            assert!(!req_ok, "{name}: a committed malformed request started decoding");
        } else if name.starts_with("bad_resp_") {
            assert!(!resp_ok, "{name}: a committed malformed response started decoding");
        } else if name.starts_with("bad_") {
            assert!(
                !req_ok && !resp_ok,
                "{name}: a committed malformed input started decoding"
            );
        }
    }
    let expected = valid_bodies().len() + malformed_bodies().len();
    assert!(
        seen >= expected,
        "corpus has {seen} files, expected at least {expected} — regenerate with \
         `cargo test --test proto_fuzz regen_corpus -- --ignored`"
    );
}

/// The wire format is frozen: what the codec — typed encoder and wire sink
/// alike — writes today is, byte for byte, what was committed.
#[test]
fn committed_corpus_is_what_the_codec_writes_today() {
    for (name, body) in valid_bodies() {
        let committed = std::fs::read(corpus_dir().join(format!("{name}.bin")))
            .unwrap_or_else(|e| panic!("{name}.bin must be committed: {e}"));
        assert_eq!(body, committed, "{name}: the encoding of a fixed input moved");
    }
}

/// Rewrites `crates/server/tests/corpus/` from the current codec. Run manually after a
/// deliberate (compatible) protocol change; commit the result.
#[test]
#[ignore]
fn regen_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    for (name, body) in valid_bodies().into_iter().chain(malformed_bodies()) {
        std::fs::write(dir.join(format!("{name}.bin")), body).expect("write corpus file");
    }
}
