//! CARD and JACCARD answer from the store's cached cardinality estimates.
//! This suite proves the cache changes no reply: under a seeded
//! interleaving of every way a stored entry can change — PUT, MERGE,
//! BATCH_PUT, DELETE, writes applied by an anti-entropy SYNC pull, a
//! triggered SCRUB that repairs by compacting, an at-rest quarantine
//! fence later released by a write, and a daemon restart — every CARD is
//! bit-identical to `format::decode(GET).cardinality()` and every
//! JACCARD to `decode(a).jaccard(&decode(b))`, recomputed from the bytes
//! GET returns. GET itself must equal a reference model's
//! `format::encode`, and a fenced name must answer CARD and JACCARD with
//! the typed CORRUPT_QUARANTINED, never a stale estimate.
//!
//! Every check pass reads each name twice, so the second CARD is always
//! a cache hit; in debug builds the store also recomputes the estimate
//! on every hit and asserts it matches.

use std::collections::{BTreeMap, BTreeSet};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use hmh_core::format;
use hmh_core::{HmhParams, HyperMinHash};
use hmh_hash::splitmix::SplitMix64;
use hmh_replica::{sync_with_peer, ReplicaOptions};
use hmh_serve::proto::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, MAX_FRAME_LEN,
};
use hmh_serve::{serve, ErrCode, FrontOptions, ServeOptions, ServerHandle};
use hmh_store::log::{RECORD_HEADER, RECORD_TRAILER};
use hmh_store::{StoreOptions, SNAPSHOT_FILE, WAL_FILE};

const NAMES: [&str; 5] = ["n0", "n1", "n2", "n3", "n4"];

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("hmh-estimate-{tag}-{}", std::process::id()));
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

fn params() -> HmhParams {
    HmhParams::new(8, 6, 6).unwrap()
}

fn sketch(lo: u64, hi: u64) -> HyperMinHash {
    HyperMinHash::from_items(params(), lo..hi)
}

/// A daemon plus one keep-alive connection to it. The background scrub
/// is off, so the only scrub passes are the ones a step triggers.
struct Daemon {
    handle: ServerHandle,
    conn: TcpStream,
}

impl Daemon {
    fn start(dir: &Path) -> Self {
        let opts = ServeOptions {
            front: FrontOptions { workers: 2, ..FrontOptions::default() },
            scrub_interval: Duration::ZERO,
            store: StoreOptions::no_sleep(),
            ..ServeOptions::default()
        };
        let handle = serve(dir, "127.0.0.1:0", opts).unwrap();
        let conn = TcpStream::connect(handle.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
        Self { handle, conn }
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    fn ask(&mut self, request: &Request) -> Response {
        write_frame(&mut self.conn, &encode_request(request)).unwrap();
        let body = read_frame(&mut self.conn, MAX_FRAME_LEN).unwrap().unwrap();
        decode_response(&body).unwrap()
    }

    fn stop(self) {
        drop(self.conn);
        self.handle.join();
    }
}

/// Offsets of one payload byte in each `Put` record of `name` in `file`,
/// oldest first. Walks the record framing: magic 4, kind 1, `u16` name
/// length, `u32` payload length, name, payload, checksum.
fn put_records(dir: &Path, file: &str, name: &str) -> Vec<usize> {
    let bytes = std::fs::read(dir.join(file)).unwrap_or_default();
    let mut hits = Vec::new();
    let mut off = 0;
    while off + RECORD_HEADER <= bytes.len() {
        let name_len = usize::from(u16::from_le_bytes([bytes[off + 5], bytes[off + 6]]));
        let payload_len = u32::from_le_bytes(bytes[off + 7..off + 11].try_into().unwrap());
        let payload_len = usize::try_from(payload_len).unwrap();
        let name_at = off + RECORD_HEADER;
        if bytes[off + 4] == 1
            && payload_len > 0
            && &bytes[name_at..name_at + name_len] == name.as_bytes()
        {
            hits.push(name_at + name_len + payload_len / 2);
        }
        off += RECORD_HEADER + name_len + payload_len + RECORD_TRAILER;
    }
    hits
}

fn flip(dir: &Path, file: &str, offsets: &[usize]) {
    let path = dir.join(file);
    let mut bytes = std::fs::read(&path).unwrap();
    for &at in offsets {
        bytes[at] ^= 0x01;
    }
    std::fs::write(&path, &bytes).unwrap();
}

fn value_bits(response: &Response) -> Option<u64> {
    match response {
        Response::Value(v) => Some(v.to_bits()),
        _ => None,
    }
}

fn err_code(response: &Response) -> Option<ErrCode> {
    match response {
        Response::Err { code, .. } => Some(*code),
        _ => None,
    }
}

/// The reference model: the expected stored sketches, and the fenced
/// names (present on disk only as rot; readable by no one).
#[derive(Default)]
struct Model {
    sketches: BTreeMap<String, HyperMinHash>,
    fenced: BTreeSet<String>,
}

impl Model {
    fn write(&mut self, name: &str, sketch: HyperMinHash) {
        self.sketches.insert(name.to_string(), sketch);
        self.fenced.remove(name);
    }

    fn merge(&mut self, name: &str, incoming: &HyperMinHash) {
        match self.sketches.get_mut(name) {
            Some(existing) => existing.merge(incoming).unwrap(),
            None => self.write(name, incoming.clone()),
        }
    }
}

/// Every read the cache serves, checked against recomputation from the
/// bytes GET returns and against the model.
fn check_reads(daemon: &mut Daemon, model: &Model, step: &str) {
    let mut stored: BTreeMap<&str, HyperMinHash> = BTreeMap::new();
    let mut refusal: BTreeMap<&str, ErrCode> = BTreeMap::new();
    for name in NAMES {
        let get = daemon.ask(&Request::Get { name: name.into() });
        let cards = [(); 2].map(|()| daemon.ask(&Request::Card { name: name.into() }));
        match get {
            Response::Sketch(bytes) => {
                let expect = model.sketches.get(name).map(format::encode);
                assert_eq!(Some(&bytes), expect.as_ref(), "{step}: GET {name} differs from model");
                let sketch = format::decode(&bytes).unwrap();
                for card in &cards {
                    assert_eq!(
                        value_bits(card),
                        Some(sketch.cardinality().to_bits()),
                        "{step}: CARD {name} = {card:?}, recomputed {}",
                        sketch.cardinality()
                    );
                }
                stored.insert(name, sketch);
            }
            Response::Err { code, .. } => {
                let expect = if model.fenced.contains(name) {
                    ErrCode::CorruptQuarantined
                } else {
                    assert!(!model.sketches.contains_key(name), "{step}: {name} lost");
                    ErrCode::NotFound
                };
                assert_eq!(code, expect, "{step}: GET {name}");
                for card in &cards {
                    assert_eq!(err_code(card), Some(expect), "{step}: CARD {name} = {card:?}");
                }
                refusal.insert(name, code);
            }
            other => panic!("{step}: GET {name} answered {other:?}"),
        }
    }
    for a in NAMES {
        for b in NAMES {
            let reply = daemon.ask(&Request::Jaccard { a: a.into(), b: b.into() });
            match (stored.get(a), stored.get(b)) {
                (Some(sa), Some(sb)) => {
                    let expect = sa.jaccard(sb).unwrap().estimate;
                    assert_eq!(
                        value_bits(&reply),
                        Some(expect.to_bits()),
                        "{step}: JACCARD {a} {b} = {reply:?}, recomputed {expect}"
                    );
                }
                _ => {
                    let expect = refusal.get(a).or_else(|| refusal.get(b)).copied();
                    assert_eq!(err_code(&reply), expect, "{step}: JACCARD {a} {b} = {reply:?}");
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Put,
    Merge,
    BatchPut,
    Delete,
    Sync,
    ScrubCompact,
    Fence,
    Restart,
}

const STEPS: [Step; 8] = [
    Step::Put,
    Step::Merge,
    Step::BatchPut,
    Step::Delete,
    Step::Sync,
    Step::ScrubCompact,
    Step::Fence,
    Step::Restart,
];

fn pick<'a>(rng: &mut SplitMix64, from: &[&'a str]) -> &'a str {
    from[usize::try_from(rng.next_u64() % from.len() as u64).unwrap()]
}

fn random_sketch(rng: &mut SplitMix64) -> HyperMinHash {
    let lo = rng.next_u64() % 50_000;
    sketch(lo, lo + 1 + rng.next_u64() % 3_000)
}

/// How often the interleaving hit the cases the cache could get wrong.
#[derive(Default)]
struct Coverage {
    fences: usize,
    released_by_merge: usize,
    compactions: usize,
}

fn run(seed: u64, coverage: &mut Coverage) {
    let dir = TempDir::new(&format!("local-{seed}"));
    let peer_dir = TempDir::new(&format!("peer-{seed}"));
    let mut daemon = Daemon::start(&dir.0);
    let mut peer = Daemon::start(&peer_dir.0);
    let mut model = Model::default();
    let mut peer_model = Model::default();
    let mut rng = SplitMix64::new(seed);

    // Every step kind three times, in a seeded order.
    let mut plan: Vec<Step> = STEPS.iter().copied().cycle().take(3 * STEPS.len()).collect();
    for i in (1..plan.len()).rev() {
        plan.swap(i, usize::try_from(rng.next_u64() % (i as u64 + 1)).unwrap());
    }
    check_reads(&mut daemon, &model, "start");
    for (i, step) in plan.into_iter().enumerate() {
        let live: Vec<&str> =
            NAMES.iter().copied().filter(|n| model.sketches.contains_key(*n)).collect();
        match step {
            Step::Put => {
                let (name, sketch) = (pick(&mut rng, &NAMES), random_sketch(&mut rng));
                let put = Request::Put { name: name.into(), sketch: format::encode(&sketch) };
                assert_eq!(daemon.ask(&put), Response::Ok);
                model.write(name, sketch);
            }
            Step::Merge => {
                // Prefer a fenced name: MERGE into one must release it.
                let fenced: Vec<&str> =
                    NAMES.iter().copied().filter(|n| model.fenced.contains(*n)).collect();
                let name = pick(&mut rng, if fenced.is_empty() { &NAMES } else { &fenced });
                coverage.released_by_merge += usize::from(model.fenced.contains(name));
                let sketch = random_sketch(&mut rng);
                let merge = Request::Merge { name: name.into(), sketch: format::encode(&sketch) };
                assert_eq!(daemon.ask(&merge), Response::Ok);
                model.merge(name, &sketch);
            }
            Step::BatchPut => {
                let name = pick(&mut rng, &NAMES);
                let lo = rng.next_u64();
                let items: Vec<Vec<u8>> =
                    (lo..lo + 500).map(|item| item.to_le_bytes().to_vec()).collect();
                let oracle = sketch(0, 0).oracle();
                let batch = Request::BatchPut {
                    name: name.into(),
                    p: 8,
                    q: 6,
                    r: 6,
                    algorithm: format::algorithm_to_byte(oracle.algorithm()),
                    seed: oracle.seed(),
                    items: items.clone(),
                };
                assert_eq!(daemon.ask(&batch), Response::Ok);
                let mut sketch = match model.sketches.get(name) {
                    Some(existing) => existing.clone(),
                    None => HyperMinHash::with_oracle(params(), oracle),
                };
                let slices: Vec<&[u8]> = items.iter().map(Vec::as_slice).collect();
                sketch.insert_batch(&slices);
                model.write(name, sketch);
            }
            Step::Delete => {
                let name = pick(&mut rng, &NAMES);
                let reply = daemon.ask(&Request::Delete { name: name.into() });
                let held = model.sketches.remove(name).is_some() | model.fenced.remove(name);
                if held {
                    assert_eq!(reply, Response::Ok, "DELETE {name}");
                } else {
                    assert_eq!(err_code(&reply), Some(ErrCode::NotFound), "DELETE {name}");
                }
            }
            Step::Sync => {
                // The peer takes a write; one anti-entropy pull applies
                // every name whose bytes differ here, through MERGE.
                let (name, sketch) = (pick(&mut rng, &NAMES), random_sketch(&mut rng));
                let merge = Request::Merge { name: name.into(), sketch: format::encode(&sketch) };
                assert_eq!(peer.ask(&merge), Response::Ok);
                peer_model.merge(name, &sketch);
                sync_with_peer(daemon.addr(), peer.addr(), &ReplicaOptions::default()).unwrap();
                for (name, theirs) in &peer_model.sketches {
                    let ours = model.sketches.get(name).map(format::encode);
                    if ours != Some(format::encode(theirs)) {
                        model.merge(name, theirs);
                    }
                }
            }
            Step::ScrubCompact => {
                // Rot the newest on-disk record of a live name: the scrub
                // finds it, repairs by compacting from memory, and the
                // entry — with its cached estimate — survives unchanged.
                let name = if live.is_empty() {
                    let sketch = random_sketch(&mut rng);
                    let put = Request::Put { name: "n0".into(), sketch: format::encode(&sketch) };
                    assert_eq!(daemon.ask(&put), Response::Ok);
                    model.write("n0", sketch);
                    "n0"
                } else {
                    pick(&mut rng, &live)
                };
                let file = if put_records(&dir.0, WAL_FILE, name).is_empty() {
                    SNAPSHOT_FILE
                } else {
                    WAL_FILE
                };
                let newest = *put_records(&dir.0, file, name).last().unwrap();
                flip(&dir.0, file, &[newest]);
                match daemon.ask(&Request::Scrub { trigger: true, after: String::new() }) {
                    Response::Scrub(report) => {
                        assert!(report.corrupt_found >= 1, "{report:?}");
                        assert_eq!(report.quarantined as usize, model.fenced.len(), "{report:?}");
                    }
                    other => panic!("SCRUB answered {other:?}"),
                }
                let wal = std::fs::metadata(dir.0.join(WAL_FILE)).unwrap().len();
                assert_eq!(wal, 0, "the repair compacted");
                coverage.compactions += 1;
            }
            Step::Fence => {
                // Rot every record of a live name while the daemon is
                // down: the reopen fences it.
                let Some(&name) = live.first() else { continue };
                daemon.stop();
                for file in [SNAPSHOT_FILE, WAL_FILE] {
                    flip(&dir.0, file, &put_records(&dir.0, file, name));
                }
                daemon = Daemon::start(&dir.0);
                model.sketches.remove(name);
                model.fenced.insert(name.to_string());
                coverage.fences += 1;
            }
            Step::Restart => {
                daemon.stop();
                daemon = Daemon::start(&dir.0);
            }
        }
        check_reads(&mut daemon, &model, &format!("seed {seed} step {i} {step:?}"));
    }

    // Release whatever is still fenced with a MERGE, as read-repair does.
    let fenced: Vec<String> = model.fenced.iter().cloned().collect();
    for name in fenced {
        let sketch = random_sketch(&mut rng);
        let merge = Request::Merge { name: name.clone(), sketch: format::encode(&sketch) };
        assert_eq!(daemon.ask(&merge), Response::Ok);
        model.merge(&name, &sketch);
        coverage.released_by_merge += 1;
        check_reads(&mut daemon, &model, &format!("seed {seed} release {name}"));
    }
    daemon.stop();
    peer.stop();
}

#[test]
fn cached_estimates_match_recomputation_across_seeded_interleavings() {
    let mut coverage = Coverage::default();
    for seed in [1, 2, 3] {
        run(seed, &mut coverage);
    }
    assert!(coverage.fences > 0, "no name was fenced");
    assert!(coverage.released_by_merge > 0, "no fence was released by MERGE");
    assert!(coverage.compactions > 0, "no scrub compacted");
}
