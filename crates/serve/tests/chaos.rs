//! Socket-level chaos harness: a real daemon on a real localhost socket,
//! fed deterministic adversarial schedules — truncated frames, garbage
//! bytes, lying length prefixes, slow-loris stalls, mid-stream
//! disconnects, overload storms, and a store yanked out from under the
//! daemon. After every schedule the same invariants hold:
//!
//! * the daemon never panics or hangs — a healthy client still gets
//!   correct answers afterwards;
//! * hostile input earns a typed error (or a BUSY shed), never silence
//!   with a wedged worker behind it;
//! * connection slots drain back to zero — no leak survives the storm;
//! * the store stays salvageable: whatever the sockets saw, a fresh open
//!   reports clean-or-salvaged, never unrecoverable.
//!
//! The garbage-bytes schedule also runs through a router, which shares
//! the daemon's connection front end.
//!
//! Everything is seeded (SplitMix64): a failing schedule replays
//! bit-for-bit.

mod targets;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use hmh_core::format;
use hmh_core::{HmhParams, HyperMinHash};
use hmh_hash::splitmix::SplitMix64;
use hmh_hash::RandomOracle;
use hmh_serve::proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    Request, Response, MAX_BATCH_ITEMS, MAX_FRAME_LEN, MAX_ITEM_LEN,
};
use hmh_serve::{
    serve, Client, ClientError, ClientOptions, ErrCode, FrontOptions, ServeOptions, ServerHandle,
};
use hmh_store::{RetryPolicy, SketchStore, StoreOptions};
use targets::{Endpoint, Target};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("hmh-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn opts(workers: usize, queue_depth: usize) -> ServeOptions {
    ServeOptions {
        front: FrontOptions {
            workers,
            queue_depth,
            // Short deadlines keep the whole suite fast: a stalled peer costs
            // a worker at most 300ms.
            read_timeout: Duration::from_millis(300),
            write_timeout: Duration::from_millis(300),
            ..FrontOptions::default()
        },
        store: StoreOptions::no_sleep(),
        ..ServeOptions::default()
    }
}

fn start(dir: &TempDir, workers: usize, queue_depth: usize) -> ServerHandle {
    serve(&dir.0, "127.0.0.1:0", opts(workers, queue_depth)).unwrap()
}

fn client(handle: &impl Endpoint) -> Client {
    Client::with_options(
        handle.addr(),
        ClientOptions {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            retry: RetryPolicy::default().with_jitter_seed(0xC0FFEE),
            ..ClientOptions::default()
        },
    )
}

fn sketch(lo: u64, hi: u64) -> HyperMinHash {
    let params = HmhParams::new(8, 6, 6).unwrap();
    HyperMinHash::from_items(params, lo..hi)
}

/// The post-chaos invariant: the daemon still serves a healthy client
/// correctly, and its connection slots have drained.
fn assert_still_healthy(handle: &impl Endpoint, tag: &str) {
    let mut c = client(handle);
    let name = format!("healthy-{tag}");
    let s = sketch(0, 2_000);
    c.put(&name, &s).unwrap_or_else(|e| panic!("{tag}: put after chaos: {e}"));
    let got = c.get(&name).unwrap_or_else(|e| panic!("{tag}: get after chaos: {e}"));
    assert_eq!(got, s, "{tag}: round trip intact after chaos");
    let health = c.health().unwrap_or_else(|e| panic!("{tag}: health after chaos: {e}"));
    // Our own connection may still be counted while the worker serves
    // this very HEALTH request; anything beyond that is a leaked slot.
    assert!(health.active <= 1, "{tag}: connection slots leaked: {health:?}");
    assert_eq!(health.queue_depth, 0, "{tag}: queue not drained: {health:?}");
}

fn raw(handle: &impl Endpoint) -> TcpStream {
    let conn = TcpStream::connect(handle.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    conn.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
    conn
}

#[test]
fn truncated_frames_at_every_cut_never_wedge_the_daemon() {
    let dir = TempDir::new("truncate");
    let handle = start(&dir, 2, 8);

    let body =
        encode_request(&Request::Put { name: "t".into(), sketch: format::encode(&sketch(0, 100)) });
    let mut framed = Vec::new();
    write_frame(&mut framed, &body).unwrap();

    // Cut the framed bytes at every prefix length (capped for the long
    // tail — every interesting boundary is in the first bytes and the
    // exact cut points are swept densely there).
    let cuts: Vec<usize> =
        (0..framed.len().min(64)).chain([framed.len() / 2, framed.len() - 1]).collect();
    for cut in cuts {
        let mut conn = raw(&handle);
        conn.write_all(&framed[..cut]).unwrap();
        // Half a frame, then a clean shutdown of the write half: the
        // server sees EOF (or a short read) mid-frame and must hang up
        // without panicking.
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut rest = Vec::new();
        let _ = conn.read_to_end(&mut rest); // reply or clean close, never a hang
    }
    assert_still_healthy(&handle, "truncate");
    handle.join();
}

#[test]
fn garbage_bytes_get_typed_errors_or_clean_closes() {
    for target in Target::ALL {
        let dir = TempDir::new(&format!("garbage-{}", target.tag()));
        let handle = target.start(&dir.0, opts(2, 8));
        let mut rng = SplitMix64::new(0xBAD5EED);

        for round in 0..32 {
            let len = (rng.next_u64() % 200) as usize + 1;
            let mut bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
            if round % 4 == 0 {
                // Well-framed garbage: a correct length prefix over a hostile
                // body. This must earn a *typed* error reply.
                let mut framed = Vec::new();
                write_frame(&mut framed, &bytes).unwrap();
                bytes = framed;
            }
            let mut conn = raw(&handle);
            conn.write_all(&bytes).unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let mut reply = Vec::new();
            let _ = conn.read_to_end(&mut reply);
            if round % 4 == 0 && !reply.is_empty() {
                let body =
                    read_frame(&mut &reply[..], MAX_FRAME_LEN).unwrap().expect("framed reply");
                match decode_response(&body).expect("server replies in protocol") {
                    Response::Err { .. } | Response::Busy => {}
                    other => panic!("garbage earned a success reply: {other:?}"),
                }
            }
        }
        assert_still_healthy(&handle, "garbage");
        handle.join();
    }
}

#[test]
fn lying_length_prefix_is_rejected_without_allocation() {
    let dir = TempDir::new("lying-len");
    let handle = start(&dir, 2, 8);

    for declared in [MAX_FRAME_LEN as u64 + 1, u32::MAX as u64] {
        let mut conn = raw(&handle);
        // Declare a huge body, send only 8 bytes of it: the server must
        // answer TOO_LARGE from the prefix alone, never waiting for (or
        // allocating) the declared length.
        conn.write_all(&u32::try_from(declared).unwrap().to_le_bytes()).unwrap();
        conn.write_all(&[0u8; 8]).unwrap();
        let body = read_frame(&mut conn, MAX_FRAME_LEN).unwrap().expect("typed reply");
        match decode_response(&body).unwrap() {
            Response::Err { code: ErrCode::TooLarge, .. } => {}
            other => panic!("declared {declared}: expected TooLarge, got {other:?}"),
        }
    }
    assert_still_healthy(&handle, "lying-len");
    handle.join();
}

#[test]
fn slow_loris_costs_a_deadline_not_a_worker() {
    let dir = TempDir::new("loris");
    let handle = start(&dir, 2, 8);

    // Two stallers — as many as there are workers — each dribbling one
    // byte then going quiet. Without read deadlines this would wedge the
    // entire pool.
    let stallers: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut conn = raw(&handle);
            conn.write_all(&[7]).unwrap(); // first byte of a length prefix, then silence
            conn
        })
        .collect();

    // A healthy client gets served once the deadlines (300ms) reclaim
    // the workers; the retry policy absorbs the wait.
    let mut c = client(&handle);
    c.put("after-loris", &sketch(0, 500)).unwrap();
    drop(stallers);
    // Close our keep-alive connection before the slot-leak check — an
    // open client legitimately occupies a worker.
    drop(c);
    assert_still_healthy(&handle, "loris");
    handle.join();
}

#[test]
fn midstream_disconnect_sweep_leaks_nothing() {
    let dir = TempDir::new("disconnect");
    let handle = start(&dir, 2, 8);
    let mut rng = SplitMix64::new(0xD15C0);

    let body = encode_request(&Request::Merge {
        name: "d".into(),
        sketch: format::encode(&sketch(0, 3_000)),
    });
    let mut framed = Vec::new();
    write_frame(&mut framed, &body).unwrap();

    for _ in 0..40 {
        let cut = (rng.next_u64() as usize) % framed.len();
        let conn = raw(&handle);
        let mut conn = conn;
        let _ = conn.write_all(&framed[..cut]);
        // Hard drop: RST or FIN mid-frame at a seeded random offset.
        drop(conn);
    }
    assert_still_healthy(&handle, "disconnect");
    handle.join();
}

#[test]
fn overload_sheds_with_busy_and_recovers() {
    let dir = TempDir::new("overload");
    // One worker, depth-2 queue: the 4th concurrent connection must shed.
    // The server's read deadline is long here so the silent holders pin
    // the worker (and keep the queue full) for the whole storm — with a
    // short deadline the worker abandons them and drains the queue
    // before the storm can observe a shed.
    let handle = serve(
        &dir.0,
        "127.0.0.1:0",
        ServeOptions {
            front: FrontOptions { read_timeout: Duration::from_secs(2), ..opts(1, 2).front },
            ..opts(1, 2)
        },
    )
    .unwrap();

    // Occupy the worker and fill the queue with idle connections (the
    // worker blocks reading the first for up to its 300ms deadline).
    let holders: Vec<TcpStream> = (0..3).map(|_| raw(&handle)).collect();
    std::thread::sleep(Duration::from_millis(50)); // let the accept loop enqueue them

    // Storm the server: open all eight connections at once (reading
    // serially would let the worker's deadline drain the queue between
    // attempts), then collect replies. Each should be an explicit BUSY
    // frame, not silence.
    let mut storm: Vec<TcpStream> = (0..8).map(|_| raw(&handle)).collect();
    std::thread::sleep(Duration::from_millis(100)); // accept loop processes the burst
    let mut sheds = 0;
    for conn in &mut storm {
        conn.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
        let mut reply = Vec::new();
        let _ = conn.read_to_end(&mut reply);
        if !reply.is_empty() {
            let body = read_frame(&mut &reply[..], MAX_FRAME_LEN).unwrap().expect("framed");
            if decode_response(&body).unwrap() == Response::Busy {
                sheds += 1;
            }
        }
    }
    assert!(sheds >= 6, "overload must shed explicitly, saw {sheds}/8 BUSY");
    drop(storm);

    // A client with a tiny retry budget surfaces ClientError::Busy...
    let mut impatient = Client::with_options(
        handle.addr(),
        ClientOptions {
            retry: RetryPolicy::no_sleep().with_budget(Duration::ZERO),
            ..ClientOptions::default()
        },
    );
    match impatient.list() {
        Err(ClientError::Busy | ClientError::Io(_)) => {}
        other => panic!("expected Busy under storm, got {other:?}"),
    }

    // ...while a patient client's backoff outlives the stall: deadlines
    // reclaim the worker, the queue drains, service resumes.
    drop(holders);
    let mut patient = client(&handle);
    patient.put("after-storm", &sketch(0, 800)).unwrap();
    let health = patient.health().unwrap();
    assert!(health.shed >= 6, "shed counter records the storm: {health:?}");
    drop(patient);
    assert_still_healthy(&handle, "overload");
    handle.join();
}

#[test]
fn store_write_failure_degrades_to_read_only() {
    let dir = TempDir::new("degrade");
    let handle = start(&dir, 2, 8);
    let mut c = client(&handle);
    let s = sketch(0, 4_000);
    c.put("kept", &s).unwrap();

    // Yank the store directory out from under the daemon: every further
    // append fails at open-by-path. (Permission tricks don't work under
    // root; deletion does.)
    std::fs::remove_dir_all(&dir.0).unwrap();

    // The write that hits the dead disk reports a store error and trips
    // degradation...
    match c.put("lost", &sketch(0, 10)) {
        Err(ClientError::Server { code: ErrCode::Store, message }) => {
            assert!(message.contains("read-only"), "{message}");
        }
        other => panic!("expected a store error, got {other:?}"),
    }
    // ...after which writes are refused up front...
    match c.put("lost2", &sketch(0, 10)) {
        Err(ClientError::ReadOnly) => {}
        other => panic!("expected ReadOnly, got {other:?}"),
    }
    match c.merge("kept", &sketch(0, 10)) {
        Err(ClientError::ReadOnly) => {}
        other => panic!("expected ReadOnly for merge, got {other:?}"),
    }
    // ...but acknowledged state keeps serving, and HEALTH tells the truth.
    // (store_clean stays true here: fsck scans the on-disk files, and an
    // absent log is vacuously clean — read_only is the operator signal.)
    assert_eq!(c.get("kept").unwrap(), s, "reads survive degradation");
    let health = c.health().unwrap();
    assert!(health.read_only, "{health:?}");
    assert_eq!(health.sketches, 1, "acknowledged state still served: {health:?}");
    handle.join();
}

#[test]
fn shutdown_drains_queued_connections_before_exit() {
    let dir = TempDir::new("drain");
    let handle = start(&dir, 1, 8);

    // Stall the single worker, then queue two connections with requests
    // already written.
    let mut staller = raw(&handle);
    staller.write_all(&[1]).unwrap();
    std::thread::sleep(Duration::from_millis(30));

    let queued: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut conn = raw(&handle);
            let list = Request::ListPage { after: String::new() };
            write_frame(&mut conn, &encode_request(&list)).unwrap();
            conn
        })
        .collect();
    std::thread::sleep(Duration::from_millis(60)); // accept loop enqueues both

    // Shutdown now: already-queued connections must still be answered.
    handle.shutdown();
    for mut conn in queued {
        let body = read_frame(&mut conn, MAX_FRAME_LEN)
            .expect("queued connection answered during drain")
            .expect("reply frame, not EOF");
        assert!(matches!(decode_response(&body).unwrap(), Response::NamesPage { .. }));
    }
    drop(staller);
    handle.join();
}

#[test]
fn kill_mid_put_leaves_store_salvageable() {
    // In-process stand-in for SIGKILL-mid-PUT (the full process-level
    // version lives in the CLI's serve_kill test): drop the daemon with
    // a PUT frame half-written into the socket, then reopen the store
    // directly and demand clean-or-salvaged.
    let dir = TempDir::new("kill");
    let handle = start(&dir, 2, 8);
    let mut c = client(&handle);
    let s = sketch(0, 5_000);
    c.put("durable", &s).unwrap();

    let body = encode_request(&Request::Put {
        name: "torn".into(),
        sketch: format::encode(&sketch(0, 2_000)),
    });
    let mut framed = Vec::new();
    write_frame(&mut framed, &body).unwrap();
    let mut conn = raw(&handle);
    conn.write_all(&framed[..framed.len() / 2]).unwrap();

    // Abandon everything mid-exchange. join() only drains what the
    // workers already hold; the half-written PUT never completes.
    drop(conn);
    handle.join();

    let store = SketchStore::open(&dir.0).unwrap();
    assert!(
        store.recovery_report().is_clean(),
        "a half-received PUT never touches the log: {:?}",
        store.recovery_report()
    );
    assert_eq!(
        store.get("durable").unwrap().unwrap(),
        s,
        "acknowledged write survives the abandon"
    );
}

// ---------------------------------------------------------------------
// BATCH_PUT adversarial cases: the batched ingest op faces the same
// chaos as everything else — truncated item lists, lying counts,
// oversize batches, disconnects mid-batch — and must answer with typed
// errors or clean closes, never a panic, a hang, or a leaked slot.
// ---------------------------------------------------------------------

/// A raw BATCH_PUT body with an arbitrary claimed item count over an
/// arbitrary actual item list — the tamperable building block.
fn batch_body(name: &str, claimed_count: u32, items: &[&[u8]]) -> Vec<u8> {
    let mut b = vec![1u8, 9]; // PROTO_VERSION, op::BATCH_PUT
    b.extend_from_slice(&u16::try_from(name.len()).unwrap().to_le_bytes());
    b.extend_from_slice(name.as_bytes());
    b.extend_from_slice(&[8, 6, 6, 0]); // p, q, r, algorithm (murmur3)
    b.extend_from_slice(&7u64.to_le_bytes()); // seed
    b.extend_from_slice(&claimed_count.to_le_bytes());
    for item in items {
        b.extend_from_slice(&u16::try_from(item.len()).unwrap().to_le_bytes());
        b.extend_from_slice(item);
    }
    b
}

/// Send one framed body and decode the (required) reply frame.
fn exchange_raw(handle: &ServerHandle, body: &[u8]) -> Response {
    let mut conn = raw(handle);
    write_frame(&mut conn, body).unwrap();
    let frame = read_frame(&mut conn, MAX_FRAME_LEN)
        .expect("server must reply in protocol")
        .expect("server must not hang up before replying to a well-framed body");
    decode_response(&frame).expect("server replies are always decodable")
}

#[test]
fn batch_put_round_trip_matches_local_build() {
    let dir = TempDir::new("batch-roundtrip");
    let handle = start(&dir, 2, 8);
    let params = HmhParams::new(8, 6, 6).unwrap();
    let oracle = RandomOracle::with_seed(7);

    let items: Vec<Vec<u8>> = (0u64..5_000).map(|i| i.to_le_bytes().to_vec()).collect();
    let slices: Vec<&[u8]> = items.iter().map(Vec::as_slice).collect();
    let mut c = client(&handle);
    // Two frames' worth through one call, plus a second call on the same
    // name: server-side ingest must accumulate, idempotently.
    c.batch_put("batch", params, oracle, &slices).unwrap();
    c.batch_put("batch", params, oracle, &slices[..100]).unwrap();

    let mut local = HyperMinHash::with_oracle(params, oracle);
    local.insert_batch(&slices);
    assert_eq!(c.get("batch").unwrap(), local, "server-side ingest matches a local build");

    // Seeded item sets, into an existing sketch or an absent name
    // (`None`), for every batch size including the empty one: BATCH_PUT
    // stores exactly the bytes that MERGE of a locally built operand
    // stores, and that inserting the items locally gives.
    let mut rng = SplitMix64::new(0xBA7C_4F01);
    let mut seeded = |n: u64| -> Vec<Vec<u8>> {
        (0..n).map(|_| format!("item-{}", rng.next_u64() % 6_000).into_bytes()).collect()
    };
    let cases = [(Some(3_000), 0), (Some(3_000), 1), (Some(3_000), 64), (Some(3_000), 20_000)];
    for (round, (base, n)) in cases.into_iter().chain([(None, 500), (None, 0)]).enumerate() {
        let (via_batch, via_merge) = (format!("eq-batch-{round}"), format!("eq-merge-{round}"));
        let mut expected = HyperMinHash::with_oracle(params, oracle);
        if let Some(base) = base {
            expected = local_build(params, oracle, &seeded(base));
            c.put(&via_batch, &expected).unwrap();
            c.put(&via_merge, &expected).unwrap();
        }
        let items = seeded(n);
        c.batch_put(&via_batch, params, oracle, &as_slices(&items)).unwrap();
        c.merge(&via_merge, &local_build(params, oracle, &items)).unwrap();
        expected.insert_batch(&as_slices(&items));
        let stored = stored_bytes(&handle, &via_batch);
        assert_eq!(stored, stored_bytes(&handle, &via_merge), "round {round}: BATCH_PUT != MERGE");
        assert_eq!(stored, format::encode(&expected), "round {round}: BATCH_PUT != insert");
    }

    // Other params, or the same params under another oracle seed, are
    // refused typed and leave the stored bytes untouched.
    let before = stored_bytes(&handle, "batch");
    let other = HmhParams::new(6, 4, 4).unwrap();
    for (params, oracle) in [(other, oracle), (params, RandomOracle::with_seed(8))] {
        match c.batch_put("batch", params, oracle, &slices[..100]) {
            Err(ClientError::Server { code: ErrCode::Incompatible, .. }) => {}
            got => panic!("{params} / {oracle:?} must be Incompatible, got {got:?}"),
        }
        assert_eq!(stored_bytes(&handle, "batch"), before, "a refused batch changed the sketch");
    }
    drop(c);
    assert_still_healthy(&handle, "batch-roundtrip");
    handle.join();
}

fn as_slices(items: &[Vec<u8>]) -> Vec<&[u8]> {
    items.iter().map(Vec::as_slice).collect()
}

fn local_build(params: HmhParams, oracle: RandomOracle, items: &[Vec<u8>]) -> HyperMinHash {
    let mut sketch = HyperMinHash::with_oracle(params, oracle);
    sketch.insert_batch(&as_slices(items));
    sketch
}

/// The payload the daemon stores under `name`, as raw wire bytes.
fn stored_bytes(handle: &ServerHandle, name: &str) -> Vec<u8> {
    match exchange_raw(handle, &encode_request(&Request::Get { name: name.into() })) {
        Response::Sketch(bytes) => bytes,
        other => panic!("GET {name:?}: {other:?}"),
    }
}

#[test]
fn batch_put_truncated_item_list_is_a_typed_error() {
    let dir = TempDir::new("batch-truncated");
    let handle = start(&dir, 2, 8);

    // The frame is complete; the body inside lies: three items declared,
    // the second one's bytes cut short, the third missing entirely.
    let mut body = batch_body("trunc", 3, &[b"alpha"]);
    body.extend_from_slice(&9u16.to_le_bytes());
    body.extend_from_slice(b"shor"); // 4 of 9 declared bytes
    match exchange_raw(&handle, &body) {
        Response::Err { code: ErrCode::BadFrame, .. } => {}
        other => panic!("truncated item list must be BadFrame, got {other:?}"),
    }

    // Nothing may have been ingested from the mangled frame.
    let mut c = client(&handle);
    match c.get("trunc") {
        Err(ClientError::NotFound(_)) => {}
        other => panic!("a rejected batch must not create the sketch: {other:?}"),
    }
    drop(c);
    assert_still_healthy(&handle, "batch-truncated");
    handle.join();
}

#[test]
fn batch_put_lying_item_count_is_a_typed_error() {
    let dir = TempDir::new("batch-lying");
    let handle = start(&dir, 2, 8);

    // Claims 10_000 items, carries two: in-cap count, unbacked by bytes.
    let body = batch_body("liar", 10_000, &[b"a", b"b"]);
    match exchange_raw(&handle, &body) {
        Response::Err { code: ErrCode::BadFrame, .. } => {}
        other => panic!("lying count must be BadFrame, got {other:?}"),
    }

    let mut c = client(&handle);
    match c.get("liar") {
        Err(ClientError::NotFound(_)) => {}
        other => panic!("a rejected batch must not create the sketch: {other:?}"),
    }
    drop(c);
    assert_still_healthy(&handle, "batch-lying");
    handle.join();
}

#[test]
fn batch_put_oversize_batch_and_items_are_shed_with_too_large() {
    let dir = TempDir::new("batch-oversize");
    let handle = start(&dir, 2, 8);

    // Count over the protocol cap: rejected before any item is believed.
    let body = batch_body("big", u32::try_from(MAX_BATCH_ITEMS + 1).unwrap(), &[]);
    match exchange_raw(&handle, &body) {
        Response::Err { code: ErrCode::TooLarge, .. } => {}
        other => panic!("oversize count must be TooLarge, got {other:?}"),
    }

    // One item over the per-item cap: same fate.
    let mut body = batch_body("big", 1, &[]);
    body.extend_from_slice(&u16::try_from(MAX_ITEM_LEN + 1).unwrap().to_le_bytes());
    body.extend_from_slice(&vec![0x55u8; MAX_ITEM_LEN + 1]);
    match exchange_raw(&handle, &body) {
        Response::Err { code: ErrCode::TooLarge, .. } => {}
        other => panic!("oversize item must be TooLarge, got {other:?}"),
    }

    // The client refuses oversize items before they reach the wire.
    let mut c = client(&handle);
    let params = HmhParams::new(8, 6, 6).unwrap();
    let fat = vec![0u8; MAX_ITEM_LEN + 1];
    match c.batch_put("big", params, RandomOracle::with_seed(7), &[&fat]) {
        Err(ClientError::ItemTooLarge { len, max }) => {
            assert_eq!(len, MAX_ITEM_LEN + 1);
            assert_eq!(max, MAX_ITEM_LEN);
        }
        other => panic!("client must refuse oversize items locally, got {other:?}"),
    }
    drop(c);
    assert_still_healthy(&handle, "batch-oversize");
    handle.join();
}

#[test]
fn batch_put_disconnect_mid_batch_leaks_nothing_and_ingests_nothing() {
    let dir = TempDir::new("batch-disconnect");
    let handle = start(&dir, 2, 8);
    let mut rng = SplitMix64::new(0xBA7C);

    let items: Vec<Vec<u8>> = (0u64..2_000).map(|i| i.to_le_bytes().to_vec()).collect();
    let slices: Vec<&[u8]> = items.iter().map(Vec::as_slice).collect();
    let body = batch_body("cutoff", u32::try_from(slices.len()).unwrap(), &slices);
    let mut framed = Vec::new();
    write_frame(&mut framed, &body).unwrap();

    for _ in 0..40 {
        let cut = (rng.next_u64() as usize) % framed.len();
        let mut conn = raw(&handle);
        let _ = conn.write_all(&framed[..cut]);
        // Hard drop: RST or FIN mid-batch at a seeded random offset.
        drop(conn);
    }

    // Batches are atomic per frame: a frame that never fully arrived
    // must not have ingested a single item.
    let mut c = client(&handle);
    match c.get("cutoff") {
        Err(ClientError::NotFound(_)) => {}
        other => panic!("a torn batch frame must ingest nothing: {other:?}"),
    }
    drop(c);
    assert_still_healthy(&handle, "batch-disconnect");
    handle.join();
}

#[test]
fn batch_put_respects_read_only_degradation() {
    let dir = TempDir::new("batch-readonly");
    let handle = start(&dir, 2, 8);
    let params = HmhParams::new(8, 6, 6).unwrap();
    let oracle = RandomOracle::with_seed(7);

    let mut c = client(&handle);
    c.batch_put("pre", params, oracle, &[b"one", b"two"]).unwrap();

    // Yank the store directory: the next durable write fails, tripping
    // sticky read-only degradation — batches must then be refused.
    std::fs::remove_dir_all(&dir.0).unwrap();
    let mut tripped = false;
    for round in 0..8 {
        let item = format!("post-{round}");
        match c.batch_put("pre", params, oracle, &[item.as_bytes()]) {
            Err(ClientError::Server { code: ErrCode::Store, .. }) => tripped = true,
            Err(ClientError::ReadOnly) => {
                tripped = true;
                break;
            }
            Ok(()) => {}
            Err(e) => panic!("unexpected batch failure: {e}"),
        }
    }
    assert!(tripped, "a dead store must trip degradation");
    match c.batch_put("fresh", params, oracle, &[b"x"]) {
        Err(ClientError::ReadOnly) => {}
        other => panic!("read-only server must refuse batches: {other:?}"),
    }
    // Reads still work in degradation.
    assert!(c.get("pre").is_ok(), "acknowledged state stays servable");
    handle.join();
}

/// The reconnect blind spot (fixed): a server that dies *after* the
/// request frame is flushed — clean close before replying on one
/// connection, a torn half-reply on the next — used to surface as a
/// fatal `UnexpectedEof`/`BrokenPipe` instead of a retried transient.
/// Every HMS1 operation is idempotent (PUT is last-write-wins on
/// identical bytes, MERGE is the CRDT max), so retrying a request whose
/// fate is unknown is always safe. The client must ride through both
/// failure shapes and succeed on the third connection.
#[test]
fn disconnect_after_request_flushed_is_retried_not_fatal() {
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accepts = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&accepts);

    let server = std::thread::spawn(move || {
        for attempt in 0u64.. {
            let Ok((mut conn, _)) = listener.accept() else { return };
            seen.fetch_add(1, Ordering::SeqCst);
            conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            // Always consume the full request frame first: the client has
            // flushed it and committed to reading a reply.
            let Ok(Some(body)) = read_frame(&mut conn, MAX_FRAME_LEN) else { return };
            match attempt {
                // Attempt 1: clean close after the request — the client
                // sees EOF where a reply should start.
                0 => drop(conn),
                // Attempt 2: a torn reply — length prefix promises a
                // frame, the connection dies mid-body (UnexpectedEof,
                // the historical blind spot).
                1 => {
                    let reply = encode_response(&Response::Ok);
                    let mut framed = Vec::new();
                    write_frame(&mut framed, &reply).unwrap();
                    conn.write_all(&framed[..framed.len() - 1]).unwrap();
                    drop(conn);
                }
                // Attempt 3: behave. Echo a well-formed OK and stop.
                _ => {
                    assert!(
                        decode_request(&body).is_ok(),
                        "retried frame must still be well-formed"
                    );
                    let reply = encode_response(&Response::Ok);
                    let mut framed = Vec::new();
                    write_frame(&mut framed, &reply).unwrap();
                    conn.write_all(&framed).unwrap();
                    return;
                }
            }
        }
    });

    let mut c = Client::with_options(
        addr,
        ClientOptions {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            // Enough budget for both chaos connections plus the good one
            // (no_sleep's default is 4 attempts — stated here because the
            // accept-count assertion depends on it).
            retry: {
                let mut retry = RetryPolicy::no_sleep();
                retry.max_attempts = 4;
                retry
            },
            ..ClientOptions::default()
        },
    );
    c.put("retried", &sketch(0, 500)).expect("post-flush disconnects must be retried");
    server.join().unwrap();
    assert_eq!(
        accepts.load(Ordering::SeqCst),
        3,
        "one clean-close retry, one torn-reply retry, one success"
    );
}
