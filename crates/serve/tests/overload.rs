//! Deadline propagation under queueing: a request whose `budget_ms`
//! is already spent when a worker finally dequeues it must come back
//! as a typed EXPIRED — the server refuses the dead work instead of
//! doing it — while v1 requests (no budget on the wire) are served no
//! matter how long they waited. The expiry check runs against a router
//! as well, which shares the daemon's connection front end.

mod targets;

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hmh_serve::{serve, Client, ClientError, ClientOptions, FrontOptions, ServeOptions};
use hmh_store::{RetryPolicy, StoreOptions};
use targets::{Endpoint, Target};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("hmh-overload-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp store dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One worker and a short server-side read deadline: a slow-loris
/// connection pins the whole service for exactly `read_timeout`,
/// which is the queue delay every concurrently arriving request sees.
const PIN: Duration = Duration::from_millis(700);

fn opts() -> ServeOptions {
    ServeOptions {
        front: FrontOptions { workers: 1, read_timeout: PIN, ..FrontOptions::default() },
        store: StoreOptions::no_sleep(),
        ..ServeOptions::default()
    }
}

fn start(dir: &TempDir) -> hmh_serve::ServerHandle {
    serve(&dir.0, "127.0.0.1:0", opts()).expect("start daemon")
}

fn sketch() -> hmh_core::HyperMinHash {
    let params = hmh_core::HmhParams::new(10, 6, 10).expect("params");
    hmh_core::HyperMinHash::from_items(params, 0u64..512)
}

/// Pin the single worker: connect and send one length prefix but no
/// body, so the worker sits in `read_frame` until its read deadline.
/// (A zero-byte connect can be raced out by the worker's dequeue; a
/// half-frame cannot.)
fn slow_loris(addr: std::net::SocketAddr) -> TcpStream {
    let mut conn = TcpStream::connect(addr).expect("loris connect");
    conn.write_all(&64u32.to_le_bytes()).expect("loris half-frame");
    conn.flush().expect("loris flush");
    conn
}

#[test]
fn budgeted_request_queued_past_its_deadline_expires_typed() {
    for target in Target::ALL {
        let dir = TempDir::new(&format!("expire-{}", target.tag()));
        let node = target.start(&dir.0, opts());

        // Preload while the worker is idle.
        let mut setup = Client::connect(node.addr());
        setup.put("ovl/x", &sketch()).expect("preload");
        drop(setup);

        let mut victim = Client::with_options(
            node.addr(),
            ClientOptions {
                retry: RetryPolicy::none(),
                op_budget: Some(Duration::from_millis(100)),
                ..ClientOptions::default()
            },
        );

        let loris = slow_loris(node.addr());
        // Give the worker time to dequeue the loris before the victim
        // arrives; the victim then queues behind it for ~PIN.
        std::thread::sleep(Duration::from_millis(150));

        let started = Instant::now();
        match victim.card("ovl/x") {
            Err(ClientError::Expired) => {}
            other => panic!("queued-past-budget CARD should expire typed, got {other:?}"),
        }
        let waited = started.elapsed();
        assert!(
            waited >= Duration::from_millis(150),
            "EXPIRED after {waited:?}: the server answered before the queue drained, \
             so the expiry did not happen at dequeue"
        );
        assert!(waited < Duration::from_secs(5), "EXPIRED took {waited:?}; not a refusal, a hang");
        drop(loris);

        // Expiry is a keep-alive reply, not a hangup: the same connection
        // serves the next (freshly budgeted) request, because budget burn
        // restarts at frame receipt for later requests on a connection.
        let estimate = victim.card("ovl/x").expect("post-expiry request on the same connection");
        assert!(estimate > 0.0);

        // The refusal is visible in HEALTH.
        let mut probe = Client::connect(node.addr());
        let health = probe.health().expect("health");
        assert!(health.expired >= 1, "expired counter did not move: {health:?}");
        drop(probe);

        node.shutdown();
        node.join();
    }
}

#[test]
fn v1_request_with_no_budget_is_served_no_matter_how_long_it_queued() {
    let dir = TempDir::new("v1-waits");
    let node = start(&dir);

    let mut setup = Client::connect(node.addr());
    setup.put("ovl/y", &sketch()).expect("preload");
    drop(setup);

    // No op_budget: the client emits byte-identical v1 frames, and the
    // server has no deadline to enforce.
    let mut patient = Client::with_options(
        node.addr(),
        ClientOptions { retry: RetryPolicy::none(), ..ClientOptions::default() },
    );

    let loris = slow_loris(node.addr());
    std::thread::sleep(Duration::from_millis(150));

    let started = Instant::now();
    let estimate = patient.card("ovl/y").expect("v1 request must be served after the queue wait");
    assert!(estimate > 0.0);
    assert!(
        started.elapsed() >= Duration::from_millis(150),
        "the request did not actually queue behind the loris"
    );
    drop(loris);

    let mut probe = Client::connect(node.addr());
    let health = probe.health().expect("health");
    assert_eq!(health.expired, 0, "a v1 request must never be expired");
    drop(probe);

    node.shutdown();
    node.join();
}
