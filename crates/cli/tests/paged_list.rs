//! `hmh client ADDR list` walks LIST_PAGE to the last page: a store with
//! more names than one page lists every name once, in order, then the
//! `N sketches` trailer the CI drills parse. Through a router with a
//! group down it fails instead of printing a short list.

use std::net::SocketAddr;
use std::time::Duration;

use hmh_core::{format, HmhParams, HyperMinHash};
use hmh_route::{route, Ring, RingConfig, RouteOptions};
use hmh_serve::{serve, ClientOptions, FrontOptions, ServeOptions, ServerHandle, MAX_LIST_NAMES};
use hmh_store::{RetryPolicy, SketchStore, StoreOptions};

fn start(dir: &std::path::Path) -> ServerHandle {
    let opts = ServeOptions {
        front: FrontOptions { workers: 2, ..FrontOptions::default() },
        store: StoreOptions::no_sleep(),
        ..ServeOptions::default()
    };
    serve(dir, "127.0.0.1:0", opts).unwrap()
}

fn list(addr: SocketAddr) -> Result<String, hmh_cli::CliError> {
    hmh_cli::run_to_string(&["client", &addr.to_string(), "list"])
}

#[test]
fn list_walks_every_page_and_refuses_a_partial_listing() {
    let root = std::env::temp_dir().join(format!("hmh-paged-list-{}", std::process::id()));
    let (dir_a, dir_b) = (root.join("a"), root.join("b"));
    let names: Vec<String> = (0..MAX_LIST_NAMES + 50).map(|i| format!("page/{i:05}")).collect();
    {
        // Written in reverse: the listing's order must come from the store.
        let mut store = SketchStore::open_opts(&dir_a, StoreOptions::no_sleep()).unwrap();
        let small = HyperMinHash::from_items(HmhParams::new(4, 4, 4).unwrap(), 0u64..8);
        for name in names.iter().rev() {
            store.put_encoded(name, &format::encode(&small)).unwrap();
        }
    }
    let expected = format!("{}\n{} sketches\n", names.join("\n"), names.len());
    let (node_a, node_b) = (start(&dir_a), start(&dir_b));
    // `assert!`, not `assert_eq!`: a 2098-line diff would bury the failure.
    assert!(list(node_a.addr()).unwrap() == expected, "direct listing differs");

    let ring = format!(
        "hmh-ring v1\nepoch 1\nvnodes 64\ngroup a {}\ngroup b {}\n",
        node_a.addr(),
        node_b.addr()
    );
    let ring = RingConfig::from_text(&ring).and_then(Ring::build).unwrap();
    let shard = ClientOptions {
        connect_timeout: Duration::from_millis(250),
        retry: RetryPolicy::none(),
        ..ClientOptions::default()
    };
    let router =
        route(ring, "127.0.0.1:0", RouteOptions { shard, ..RouteOptions::default() }).unwrap();
    assert!(list(router.addr()).unwrap() == expected, "routed listing differs");

    node_b.join();
    let Err(err) = list(router.addr()) else { panic!("a listing missing a group must fail") };
    assert_eq!(err.code, 1, "{}", err.message);
    assert!(err.message.contains("partial"), "{}", err.message);
    router.join();
    node_a.join();
    let _ = std::fs::remove_dir_all(&root);
}
