//! The two front ends a conformance test can drive. A daemon and a
//! router run the same connection front end, so batching, expiry,
//! shedding and framing properties must hold through either.

use std::net::SocketAddr;
use std::path::Path;

use hmh_route::{route, Ring, RingConfig, RouteOptions, RouterHandle};
use hmh_serve::{serve, ServeOptions, ServerHandle};

/// Something a test connects to.
pub trait Endpoint {
    /// The address clients dial.
    fn addr(&self) -> SocketAddr;
}

impl Endpoint for ServerHandle {
    fn addr(&self) -> SocketAddr {
        ServerHandle::addr(self)
    }
}

/// Which front end a test drives.
#[derive(Debug, Clone, Copy)]
pub enum Target {
    /// A daemon serving its store directly.
    Daemon,
    /// A router over one group of one daemon.
    Router,
}

impl Target {
    /// Every target, daemon first.
    pub const ALL: [Target; 2] = [Target::Daemon, Target::Router];

    /// A short name for temp directories.
    pub fn tag(self) -> &'static str {
        match self {
            Target::Daemon => "daemon",
            Target::Router => "router",
        }
    }

    /// Start this target over the store at `dir`. A router gets
    /// `opts.front`, so the settings under test are the router's; the
    /// daemon behind it keeps `opts` but the default front end.
    pub fn start(self, dir: &Path, mut opts: ServeOptions) -> Running {
        let front = match self {
            Target::Daemon => None,
            Target::Router => Some(std::mem::take(&mut opts.front)),
        };
        let daemon = serve(dir, "127.0.0.1:0", opts).unwrap();
        let router = front.map(|front| {
            let ring = format!("hmh-ring v1\nepoch 1\nvnodes 64\ngroup g {}\n", daemon.addr());
            let ring = RingConfig::from_text(&ring).and_then(Ring::build).unwrap();
            route(ring, "127.0.0.1:0", RouteOptions { front, ..RouteOptions::default() }).unwrap()
        });
        Running { daemon, router }
    }
}

/// A started target.
pub struct Running {
    daemon: ServerHandle,
    router: Option<RouterHandle>,
}

impl Endpoint for Running {
    fn addr(&self) -> SocketAddr {
        self.router.as_ref().map_or_else(|| self.daemon.addr(), RouterHandle::addr)
    }
}

impl Running {
    /// Signal shutdown to the front end clients talk to.
    #[allow(dead_code)] // only the overload suite shuts down before joining
    pub fn shutdown(&self) {
        match &self.router {
            Some(router) => router.shutdown(),
            None => self.daemon.shutdown(),
        }
    }

    /// Drain and stop the router (if any), then the daemon.
    pub fn join(self) {
        if let Some(router) = self.router {
            router.join();
        }
        self.daemon.join();
    }
}
