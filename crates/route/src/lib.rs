//! Consistent-hash routing for `hmh-serve` clusters: partitioning on
//! top of PR 5's replication.
//!
//! Replication gave N full copies; this crate gives *sharding* — the
//! step the paper's merge algebra makes safe. Sketch names map onto a
//! consistent-hash [`ring::Ring`] of replica groups, a scatter-gather
//! [`router`] speaks the ordinary `HMS1` protocol over the whole
//! cluster, and ring changes are executed by a two-phase
//! [`rebalance()`] (copy, verify by domination, release) whose every
//! step is idempotent because the sketch union is a per-register max:
//! a crash mid-move leaves the sketch owned by at least one group, and
//! re-running the move converges instead of corrupting.
//!
//! ```no_run
//! use hmh_route::{rebalance, route, RebalanceOptions, Ring, RingConfig, RouteOptions};
//!
//! let config = RingConfig::from_text(
//!     "hmh-ring v1\nepoch 1\nvnodes 128\n\
//!      group east 10.0.0.7:7700,10.0.0.8:7700\n\
//!      group west 10.0.1.7:7700,10.0.1.8:7700\n",
//! )
//! .unwrap();
//! let ring = Ring::build(config).unwrap();
//! let handle = route(ring, "127.0.0.1:7800", RouteOptions::default()).unwrap();
//! // ... clients talk to 127.0.0.1:7800 exactly as to a single daemon ...
//! handle.join();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod rebalance;
pub mod ring;
pub mod router;

pub use rebalance::{plan_moves, rebalance, RebalanceError, RebalanceOptions, RebalanceReport};
pub use ring::{
    GroupConfig, Ring, RingConfig, RingError, DEFAULT_VNODES, MAX_GROUPS, MAX_GROUP_REPLICAS,
    MAX_VNODES, RING_SEED,
};
pub use router::{route, RouteError, RouteOptions, RouterHandle};
