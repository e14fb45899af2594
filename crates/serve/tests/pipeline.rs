//! Pipeline conformance and chaos suite: the in-order reply contract
//! under adversarial framing.
//!
//! A pipelined HMS1 connection has no correlation tags — *order is the
//! contract*. These tests pin it from the socket up:
//!
//! * replies come back in receipt order under seeded interleavings of
//!   the request byte stream (split points, stalls, coalesced writes);
//! * a disconnect with frames in flight leaks no worker slot and never
//!   wedges the daemon;
//! * the client's depth cap is a typed refusal before any bytes move,
//!   while a raw peer writing past the server's batch cap is simply
//!   served in multiple batches — bounded memory, not a hang;
//! * v1 (no budget) and v2 (budgeted) frames mix freely in one window;
//! * a slow-loris stall *mid-pipeline* still gets the completed frames
//!   answered, then costs only the read deadline;
//! * a deadline that expires mid-window burns exactly its own frame —
//!   neighbours in the same batch are served;
//! * a pipelined stream leaves byte-identical replies and store state
//!   to the same stream issued serially (the property the whole
//!   optimisation must preserve).
//!
//! The ordering, depth-cap and expiry properties run against both
//! front ends that share the connection loop: a daemon and a router.
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
use hmh_serve::proto::{
    decode_response, encode_request, encode_request_budget, read_frame, write_frame, Request,
    Response, MAX_FRAME_LEN, MAX_PIPELINE_DEPTH,
};
use hmh_serve::{
    serve, Client, ClientError, ClientOptions, FrontOptions, ServeOptions, ServerHandle,
};
use hmh_store::{RetryPolicy, StoreOptions};
use targets::{Endpoint, Target};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("hmh-pipeline-{tag}-{}", std::process::id()));
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

/// Post-chaos invariant: the daemon still serves a healthy client and
/// its connection slots have drained.
fn assert_still_healthy(handle: &impl Endpoint, tag: &str) {
    let mut c = client(handle);
    let name = format!("healthy-{tag}");
    let s = sketch(0, 2_000);
    c.put(&name, &s).unwrap_or_else(|e| panic!("{tag}: put after chaos: {e}"));
    assert_eq!(c.get(&name).unwrap(), s, "{tag}: round trip intact after chaos");
    let health = c.health().unwrap_or_else(|e| panic!("{tag}: health after chaos: {e}"));
    assert!(health.active <= 1, "{tag}: connection slots leaked: {health:?}");
    assert_eq!(health.queue_depth, 0, "{tag}: queue not drained: {health:?}");
}

fn raw(handle: &impl Endpoint) -> TcpStream {
    let conn = TcpStream::connect(handle.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    conn.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
    conn
}

/// Frame a list of request bodies into one contiguous byte stream.
fn framed_stream(bodies: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for body in bodies {
        write_frame(&mut out, body).unwrap();
    }
    out
}

/// Read exactly `n` reply frames, decoded.
fn read_replies(conn: &mut TcpStream, n: usize) -> Vec<Response> {
    (0..n)
        .map(|i| {
            let body = read_frame(conn, MAX_FRAME_LEN)
                .unwrap_or_else(|e| panic!("reply {i} of {n}: {e}"))
                .unwrap_or_else(|| panic!("EOF before reply {i} of {n}"));
            decode_response(&body).expect("server replies are always decodable")
        })
        .collect()
}

/// What reply the i-th request of a conformance case must earn. The
/// payload (a sketch's exact encoded bytes, a cardinality computed
/// serially beforehand) makes a reordered reply stream unmistakable.
enum Expect {
    Ok,
    Sketch(Vec<u8>),
    Value(f64),
}

#[test]
fn replies_stay_in_receipt_order_under_seeded_interleavings() {
    for target in Target::ALL {
        const CASES: u64 = 64;
        let dir = TempDir::new(&format!("interleave-{}", target.tag()));
        let handle = target.start(&dir.0, opts(2, 8));

        // Preload distinguishable sketches; cache their exact encodings and
        // serially-computed cardinalities as the order oracle.
        let mut setup = client(&handle);
        let names: Vec<String> = (0..8).map(|i| format!("pre-{i}")).collect();
        let mut encodings = Vec::new();
        let mut cards = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let s = sketch(i as u64 * 10_000, i as u64 * 10_000 + 500 * (i as u64 + 1));
            setup.put(name, &s).unwrap();
            encodings.push(format::encode(&s));
            cards.push(setup.card(name).unwrap());
        }
        drop(setup);

        let put_payload = format::encode(&sketch(0, 64));
        let mut rng = SplitMix64::new(0x5EED_11E5);
        for case in 0..CASES {
            let depth = 1 + (rng.next_u64() as usize) % MAX_PIPELINE_DEPTH;
            let mut bodies = Vec::with_capacity(depth);
            let mut expected = Vec::with_capacity(depth);
            for j in 0..depth {
                let k = (rng.next_u64() as usize) % names.len();
                match rng.next_u64() % 3 {
                    0 => {
                        bodies.push(encode_request(&Request::Get { name: names[k].clone() }));
                        expected.push(Expect::Sketch(encodings[k].clone()));
                    }
                    1 => {
                        bodies.push(encode_request(&Request::Card { name: names[k].clone() }));
                        expected.push(Expect::Value(cards[k]));
                    }
                    _ => {
                        bodies.push(encode_request(&Request::Put {
                            name: format!("case{case}-{j}"),
                            sketch: put_payload.clone(),
                        }));
                        expected.push(Expect::Ok);
                    }
                }
            }

            // Write the stream in seeded chunks with occasional stalls: the
            // server sees the window arrive in every shape — one syscall,
            // byte dribbles, stalls that split it across batches.
            let stream = framed_stream(&bodies);
            let mut conn = raw(&handle);
            let mut off = 0;
            while off < stream.len() {
                let chunk = 1 + (rng.next_u64() as usize) % (stream.len() - off);
                conn.write_all(&stream[off..off + chunk]).unwrap();
                off += chunk;
                if rng.next_u64().is_multiple_of(8) {
                    std::thread::sleep(Duration::from_millis(rng.next_u64() % 5));
                }
            }

            let replies = read_replies(&mut conn, depth);
            for (i, (reply, want)) in replies.iter().zip(&expected).enumerate() {
                match (reply, want) {
                    (Response::Ok, Expect::Ok) => {}
                    (Response::Sketch(got), Expect::Sketch(want)) if got == want => {}
                    (Response::Value(got), Expect::Value(want)) if got == want => {}
                    (got, _) => {
                        panic!("case {case} slot {i}: out-of-order or wrong reply: {got:?}")
                    }
                }
            }
        }
        assert_still_healthy(&handle, "interleave");
        handle.join();
    }
}

#[test]
fn disconnect_with_frames_in_flight_leaks_no_slot() {
    let dir = TempDir::new("inflight-drop");
    let handle = start(&dir, 2, 8);
    let mut rng = SplitMix64::new(0x00D4_0D40);

    let mut setup = client(&handle);
    setup.put("inflight", &sketch(0, 1_000)).unwrap();
    drop(setup);

    let body = encode_request(&Request::Card { name: "inflight".into() });
    for round in 0..24 {
        let k = 1 + (rng.next_u64() as usize) % 8;
        let stream = framed_stream(&vec![body.clone(); k]);
        let mut conn = raw(&handle);
        if round % 2 == 0 {
            // k complete frames plus a torn (k+1)-th, then a hard drop:
            // the tail poisons nothing that matters — the peer is gone.
            conn.write_all(&stream).unwrap();
            let torn = &stream[..(rng.next_u64() as usize) % stream.len().clamp(1, 5)];
            let _ = conn.write_all(torn);
        } else {
            // k frames in flight, zero replies read, immediate drop: the
            // server writes into a dead socket and must shrug it off.
            conn.write_all(&stream).unwrap();
        }
        drop(conn);
    }
    // The daemon answered (or abandoned) every schedule without leaking
    // a slot — the healthy check is the leak detector.
    assert_still_healthy(&handle, "inflight-drop");
    handle.join();
}

#[test]
fn client_depth_cap_is_a_typed_refusal_and_raw_overdepth_never_hangs() {
    for target in Target::ALL {
        let dir = TempDir::new(&format!("depth-cap-{}", target.tag()));
        let handle = target.start(&dir.0, opts(2, 8));

        let mut setup = client(&handle);
        setup.put("cap", &sketch(0, 500)).unwrap();
        drop(setup);

        // Client side: one request over the cap is refused before any bytes
        // move — no partial window ever reaches the wire.
        let requests: Vec<Request> =
            (0..=MAX_PIPELINE_DEPTH).map(|_| Request::Card { name: "cap".into() }).collect();
        let mut c = client(&handle);
        match c.pipeline(&requests) {
            Err(ClientError::PipelineOverflow { submitted, max }) => {
                assert_eq!(submitted, MAX_PIPELINE_DEPTH + 1);
                assert_eq!(max, MAX_PIPELINE_DEPTH);
            }
            other => panic!("expected PipelineOverflow, got {other:?}"),
        }
        // The refusal is local: the connection still works at the cap.
        let replies = c.pipeline(&requests[..MAX_PIPELINE_DEPTH]).unwrap();
        assert_eq!(replies.len(), MAX_PIPELINE_DEPTH);
        assert!(replies.iter().all(|r| matches!(r, Response::Value(_))));
        drop(c);

        // Raw side: a peer writing 2× the depth cap in one burst is not an
        // error — the server serves it in multiple bounded batches. Every
        // reply arrives, in order, and nothing hangs.
        let body = encode_request(&Request::Card { name: "cap".into() });
        let stream = framed_stream(&vec![body; 2 * MAX_PIPELINE_DEPTH]);
        let mut conn = raw(&handle);
        conn.write_all(&stream).unwrap();
        let replies = read_replies(&mut conn, 2 * MAX_PIPELINE_DEPTH);
        assert!(replies.iter().all(|r| matches!(r, Response::Value(_))));
        drop(conn);

        assert_still_healthy(&handle, "depth-cap");
        handle.join();
    }
}

#[test]
fn v1_and_v2_frames_mix_freely_in_one_window() {
    let dir = TempDir::new("mixed-versions");
    let handle = start(&dir, 2, 8);

    let mut setup = client(&handle);
    setup.put("mixed", &sketch(0, 1_000)).unwrap();
    drop(setup);

    // Alternate unbudgeted v1 frames with generously-budgeted v2 ones:
    // version is per-frame state, not per-connection.
    let card = Request::Card { name: "mixed".into() };
    let put = Request::Put { name: "mixed-2".into(), sketch: format::encode(&sketch(0, 64)) };
    let bodies = vec![
        encode_request(&card),
        encode_request_budget(&card, 60_000),
        encode_request(&put),
        encode_request_budget(&card, 60_000),
        encode_request_budget(&put, 60_000),
        encode_request(&card),
    ];
    let mut conn = raw(&handle);
    conn.write_all(&framed_stream(&bodies)).unwrap();
    let replies = read_replies(&mut conn, bodies.len());
    for (i, reply) in replies.iter().enumerate() {
        match (i, reply) {
            (0 | 1 | 3 | 5, Response::Value(_)) => {}
            (2 | 4, Response::Ok) => {}
            (i, other) => panic!("slot {i}: wrong reply for its version/op: {other:?}"),
        }
    }
    drop(conn);
    assert_still_healthy(&handle, "mixed-versions");
    handle.join();
}

#[test]
fn slow_loris_mid_pipeline_gets_completed_frames_answered() {
    let dir = TempDir::new("loris-mid");
    let handle = start(&dir, 2, 8);

    let mut setup = client(&handle);
    setup.put("loris", &sketch(0, 1_000)).unwrap();
    drop(setup);

    // Two complete frames, then two bytes of a third frame's length
    // prefix, then silence: the completed frames must be answered; the
    // stall then costs the read deadline (300ms), not a worker.
    let body = encode_request(&Request::Card { name: "loris".into() });
    let mut conn = raw(&handle);
    conn.write_all(&framed_stream(&vec![body; 2])).unwrap();
    conn.write_all(&[9, 0]).unwrap();
    let replies = read_replies(&mut conn, 2);
    assert!(replies.iter().all(|r| matches!(r, Response::Value(_))));
    // After the deadline the server hangs up on the stalled tail.
    let mut rest = Vec::new();
    let _ = conn.read_to_end(&mut rest);
    assert!(rest.is_empty(), "no reply may exist for a never-completed frame");
    drop(conn);
    assert_still_healthy(&handle, "loris-mid");
    handle.join();
}

#[test]
fn mid_pipeline_expiry_burns_only_its_own_frame() {
    for target in Target::ALL {
        let dir = TempDir::new(&format!("expire-one-{}", target.tag()));
        // One worker with a long read deadline: a slow loris pins it for
        // ~700ms, which is the clock that expires the victim's budget.
        let handle = target.start(
            &dir.0,
            ServeOptions {
                front: FrontOptions {
                    read_timeout: Duration::from_millis(700),
                    ..opts(1, 8).front
                },
                ..opts(1, 8)
            },
        );

        let mut setup = client(&handle);
        setup.put("expire", &sketch(0, 1_000)).unwrap();
        drop(setup);
        std::thread::sleep(Duration::from_millis(30)); // setup conn fully released

        // Pin the only worker.
        let mut loris = raw(&handle);
        loris.write_all(&64u32.to_le_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(50));

        // The victim queues a whole window while pinned: an unbudgeted
        // frame, a 100ms-budget frame, another unbudgeted frame. By the
        // time the worker dequeues the connection (~700ms later) only the
        // budgeted frame's deadline has passed.
        let card = Request::Card { name: "expire".into() };
        let bodies =
            vec![encode_request(&card), encode_request_budget(&card, 100), encode_request(&card)];
        let mut victim = raw(&handle);
        victim.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        victim.write_all(&framed_stream(&bodies)).unwrap();

        let replies = read_replies(&mut victim, 3);
        assert!(matches!(replies[0], Response::Value(_)), "unbudgeted frame served: {replies:?}");
        assert!(matches!(replies[1], Response::Expired), "budgeted frame expired: {replies:?}");
        assert!(
            matches!(replies[2], Response::Value(_)),
            "expiry must not poison the next frame: {replies:?}"
        );
        drop(victim);
        drop(loris);
        assert_still_healthy(&handle, "expire-one");
        handle.join();
    }
}

/// The property the whole optimisation must preserve: a pipelined
/// stream is *semantically invisible*. The same seeded op sequence,
/// issued one-frame-per-round-trip against one daemon and in windows of
/// eight against another, must produce byte-identical reply streams and
/// byte-identical store state (digests and every stored payload).
#[test]
fn pipelined_and_serial_streams_are_byte_identical() {
    let dir_serial = TempDir::new("prop-serial");
    let dir_piped = TempDir::new("prop-piped");
    let serial = start(&dir_serial, 2, 8);
    let piped = start(&dir_piped, 2, 8);

    // Seeded op stream over a small name pool; includes reads of names
    // that may not exist yet (typed NOT_FOUND replies must match too).
    let mut rng = SplitMix64::new(0x001D_EA11);
    let names: Vec<String> = (0..6).map(|i| format!("s{i}")).collect();
    let mut bodies = Vec::new();
    for _ in 0..96 {
        let name = names[(rng.next_u64() as usize) % names.len()].clone();
        let lo = rng.next_u64() % 5_000;
        let hi = lo + 1 + rng.next_u64() % 3_000;
        bodies.push(encode_request(&match rng.next_u64() % 5 {
            0 => Request::Put { name, sketch: format::encode(&sketch(lo, hi)) },
            1 => Request::Merge { name, sketch: format::encode(&sketch(lo, hi)) },
            2 => Request::Card { name },
            3 => Request::Get { name },
            _ => Request::ListPage { after: String::new() },
        }));
    }

    let serial_replies = {
        let mut conn = raw(&serial);
        let mut out = Vec::new();
        for body in &bodies {
            write_frame(&mut conn, body).unwrap();
            out.push(read_frame(&mut conn, MAX_FRAME_LEN).unwrap().expect("serial reply"));
        }
        out
    };
    let piped_replies = {
        let mut conn = raw(&piped);
        let mut out = Vec::new();
        for window in bodies.chunks(8) {
            conn.write_all(&framed_stream(window)).unwrap();
            for _ in window {
                out.push(read_frame(&mut conn, MAX_FRAME_LEN).unwrap().expect("piped reply"));
            }
        }
        out
    };
    assert_eq!(serial_replies.len(), piped_replies.len());
    for (i, (s, p)) in serial_replies.iter().zip(&piped_replies).enumerate() {
        assert_eq!(s, p, "reply {i} diverged between serial and pipelined issue");
    }

    // Store state: the digest page and every stored payload match byte
    // for byte.
    let digest = encode_request(&Request::Digest { after: String::new() });
    let mut conn_s = raw(&serial);
    let mut conn_p = raw(&piped);
    write_frame(&mut conn_s, &digest).unwrap();
    write_frame(&mut conn_p, &digest).unwrap();
    let dig_s = read_frame(&mut conn_s, MAX_FRAME_LEN).unwrap().expect("digest");
    let dig_p = read_frame(&mut conn_p, MAX_FRAME_LEN).unwrap().expect("digest");
    assert_eq!(dig_s, dig_p, "store digests diverged");
    let mut cs = client(&serial);
    let mut cp = client(&piped);
    for name in &names {
        let got_s = cs.get(name).map(|s| format::encode(&s)).ok();
        let got_p = cp.get(name).map(|s| format::encode(&s)).ok();
        assert_eq!(got_s, got_p, "stored payload for {name:?} diverged");
    }
    drop((cs, cp, conn_s, conn_p));
    serial.join();
    piped.join();
}
