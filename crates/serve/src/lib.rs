//! A hardened TCP service over the crash-safe sketch store.
//!
//! `hmh-serve` is deliberately dependency-free (`std::net` only): a
//! length-prefixed binary protocol ([`proto`]), a connection front end
//! with a bounded worker pool, per-connection deadlines, explicit load
//! shedding and pipelining ([`front`]), a daemon over the store with
//! read-only degradation ([`server`]), and a client with jittered,
//! budgeted backoff ([`client`]). The routing tier (`hmh-route`) runs the
//! same front end.
//!
//! The threat model assumed throughout: the network is untrusted.
//! Length fields from the wire never drive unbounded allocation (frames
//! are capped *before* their bodies are read, and bodies are read in
//! chunks so memory tracks received bytes, not declared lengths);
//! malformed input produces typed errors, never panics; slow or stalled
//! peers hit deadlines; overload is shed with an explicit BUSY rather
//! than queued without bound; and a `SIGKILL` at any byte leaves the
//! store salvageable by the next open's recovery scan.
//!
//! ```no_run
//! use hmh_core::{HmhParams, HyperMinHash};
//! use hmh_serve::{serve, Client, ServeOptions};
//!
//! let handle = serve("/var/lib/hmh", "127.0.0.1:7700", ServeOptions::default()).unwrap();
//! let mut client = Client::connect(handle.addr());
//!
//! let params = HmhParams::new(12, 6, 6).unwrap();
//! client.put("events", &HyperMinHash::from_items(params, 0u64..10_000)).unwrap();
//! println!("≈{} distinct", client.card("events").unwrap());
//! handle.join();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod front;
pub mod proto;
pub mod server;

pub use client::{
    typed_response, Breaker, Client, ClientError, ClientOptions, FailoverClient, RetryBudget,
};
pub use front::FrontOptions;
pub use proto::{
    DigestEntry, ErrCode, Health, PeerHealth, PeerState, ProtoError, Request, Response,
    ScrubReport, SyncEntry, MAX_BATCH_ITEMS, MAX_BUDGET_MS, MAX_DIGEST_ENTRIES, MAX_FRAME_LEN,
    MAX_ITEM_LEN, MAX_LIST_NAMES, MAX_PEERS, MAX_PIPELINE_DEPTH, MAX_SCRUB_PAGE, MAX_SYNC_NAMES,
};
pub use server::{serve, ReplicationStatus, ServeError, ServeOptions, ServerHandle};
