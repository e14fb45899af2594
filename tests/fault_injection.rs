//! Deterministic fault-injection harness for the crash-safe sketch store.
//!
//! Three attack surfaces, all seed-replayable (a failing seed is a
//! reproducible unit test):
//!
//! 1. **Fault schedules** — ≥100 seeded multi-session workloads through
//!    [`FaultyIo`], which injects short writes, transient and permanent
//!    `io::Error`s from a SplitMix64 schedule. A plausible-state model
//!    tracks, per name, exactly which payloads the disk may legally
//!    hold; every reopen must land inside the model, acknowledged
//!    writes must survive bit-identical, and nothing may ever panic.
//! 2. **Single-bit-flip sweep** — every bit of every byte of the
//!    snapshot and WAL is flipped in turn; reopen must quarantine only
//!    the record containing the flipped bit and recover every other
//!    record bit-identical.
//! 3. **Kill-at-any-point** — the WAL (and snapshot) are truncated at
//!    every byte offset; reopen must never panic and must recover
//!    exactly the records fully contained in the surviving prefix.

use std::collections::HashMap;
use std::path::Path;

use hyperminhash::prelude::*;
use hyperminhash::sketch::format;
use hyperminhash::store::{
    BitRotPlan, FaultPlan, FaultyIo, MemBackend, SketchStore, StoreError, StoreOptions,
    SNAPSHOT_FILE, WAL_FILE,
};

const DIR: &str = "/db";
const NAMES: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

/// A small encoded sketch whose content is a function of `tag` (so every
/// payload is distinct, valid, and reconstructible from the model).
fn payload(tag: u64) -> Vec<u8> {
    let params = HmhParams::new(2, 6, 4).unwrap();
    let items = (tag * 1000)..(tag * 1000 + 20 + tag % 30);
    format::encode(&HyperMinHash::from_items(params, items))
}

/// What the disk may legally hold for one name.
#[derive(Debug, Clone, Default)]
struct Plausible {
    /// The name may be absent after reopen.
    absent: bool,
    /// Payloads the name may hold after reopen.
    values: Vec<Vec<u8>>,
}

impl Plausible {
    fn exactly(value: Option<Vec<u8>>) -> Self {
        match value {
            Some(v) => Self { absent: false, values: vec![v] },
            None => Self { absent: true, values: Vec::new() },
        }
    }

    fn allows(&self, observed: Option<&[u8]>) -> bool {
        match observed {
            None => self.absent,
            Some(bytes) => self.values.iter().any(|v| v == bytes),
        }
    }
}

/// One seeded multi-session workload. Returns the number of faults the
/// schedule actually injected (so the suite can prove it exercised real
/// failures, not a quiet run).
fn run_schedule(seed: u64) -> usize {
    let mem = MemBackend::new();
    let mut driver = FaultPlan::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15), 0);
    let mut plausible: HashMap<&str, Plausible> =
        NAMES.iter().map(|&n| (n, Plausible { absent: true, values: Vec::new() })).collect();
    let mut injected = 0usize;

    for session in 0..4u64 {
        let io_plan = FaultPlan::new(seed ^ (session << 56) ^ 0x5eed, 48);
        let io = FaultyIo::new(mem.clone(), io_plan);
        // Opening never hits faulted ops (reads pass through), and a
        // corrupt disk must salvage, not error — so open always succeeds.
        let mut store = SketchStore::open_with(io, DIR, StoreOptions::no_sleep())
            .expect("open never fails under write-path faults");

        // The reopened state must sit inside the plausible-state model;
        // in particular a name whose model is a single acknowledged
        // value MUST come back bit-identical.
        for name in NAMES {
            let observed = store.get_encoded(name);
            assert!(
                plausible[name].allows(observed),
                "seed {seed} session {session}: {name} recovered {:?} outside model {:?}",
                observed.map(<[u8]>::len),
                plausible[name],
            );
        }
        // Disk state is concrete now — collapse the model to it, and
        // mirror the store's in-memory view for exact mid-session checks.
        let mut memory: HashMap<&str, Vec<u8>> = HashMap::new();
        for name in NAMES {
            let observed = store.get_encoded(name).map(<[u8]>::to_vec);
            if let Some(v) = &observed {
                memory.insert(name, v.clone());
            }
            *plausible.get_mut(name).unwrap() = Plausible::exactly(observed);
        }

        for op in 0..12u64 {
            let name = NAMES[driver.pick(NAMES.len() as u64) as usize];
            match driver.pick(10) {
                // put: 5/10
                0..=4 => {
                    let value = payload(seed * 1000 + session * 100 + op);
                    match store.put_encoded(name, &value) {
                        Ok(()) => {
                            memory.insert(name, value.clone());
                            *plausible.get_mut(name).unwrap() = Plausible::exactly(Some(value));
                        }
                        Err(_) => {
                            // The record may or may not have landed.
                            plausible.get_mut(name).unwrap().values.push(value);
                        }
                    }
                }
                // remove: 2/10
                5 | 6 => match store.remove(name) {
                    Ok(true) => {
                        memory.remove(name);
                        *plausible.get_mut(name).unwrap() = Plausible::exactly(None);
                    }
                    Ok(false) => {}
                    Err(_) => {
                        // Tombstone may or may not have landed.
                        plausible.get_mut(name).unwrap().absent = true;
                    }
                },
                // get: 2/10 — in-process reads are exact, faults or not.
                7 | 8 => {
                    assert_eq!(
                        store.get_encoded(name),
                        memory.get(name).map(Vec::as_slice),
                        "seed {seed} session {session} op {op}: {name} diverged in memory"
                    );
                }
                // compact: 1/10 — success or failure, state is unchanged
                // (snapshot replacement is atomic; WAL replay is
                // idempotent), so the model does not move.
                _ => {
                    let _ = store.compact();
                }
            }
        }
        injected += store.backend().injected;
    }
    injected
}

#[test]
fn fault_schedules_recover_or_quarantine_only() {
    let mut injected = 0usize;
    for seed in 0..128u64 {
        injected += run_schedule(seed);
    }
    // ~18% of ~48 mutating calls per op stream across 128×4 sessions:
    // the sweep must have exercised real failures, not a quiet run.
    assert!(injected > 500, "only {injected} faults injected — schedule too quiet");
}

/// One seeded **bit-rot-at-rest** session: the disk rots *under a live
/// store* on a SplitMix64 schedule while the online scrub runs, then
/// the store reopens cold on whatever the rot left behind. Returns
/// `(bits rotted, spans found, spans repaired, names fenced at reopen)`
/// so the sweep can prove the schedule drew blood.
fn run_rot_schedule(seed: u64) -> (usize, u64, u64, u64) {
    let mem = MemBackend::new();
    // No operation faults: this schedule isolates at-rest rot, so every
    // put is acknowledged and the scrub is the only repair path.
    let io = FaultyIo::new(mem.clone(), FaultPlan::new(seed, 0))
        .with_bit_rot(BitRotPlan::new(seed ^ 0x0b17_0707, 64, 1), mem.clone());
    let mut store = SketchStore::open_with(io, DIR, StoreOptions::no_sleep()).unwrap();

    let mut truth: HashMap<&str, Vec<u8>> = HashMap::new();
    for (i, name) in NAMES.into_iter().enumerate() {
        let v = payload(9_000 + seed * 10 + i as u64);
        store.put_encoded(name, &v).expect("no op faults scheduled");
        truth.insert(name, v);
    }

    // Several online passes in deliberately small slices (exercises the
    // cursor and the compact-resets-cursor path).
    for _ in 0..4 {
        store.scrub_full(64).expect("scrub never fails on a fault-free backend");
        // The in-memory copies were validated at put: reads stay exact
        // no matter how the disk rots, and a live store never fences a
        // name it still holds a valid copy of.
        for name in NAMES {
            assert_eq!(store.get_encoded(name), Some(&truth[name][..]), "seed {seed}: {name}");
            assert!(!store.is_quarantined(name), "seed {seed}: fenced live name {name}");
        }
    }

    let stats = store.scrub_stats();
    // Every finding is either repaired from the surviving memory copy or
    // fenced. (Rot that rewrites a record's *name bytes* fences the
    // phantom name it now spells — the real name keeps its valid copy.)
    assert_eq!(
        stats.corrupt_found,
        stats.repaired + store.quarantined_count() as u64,
        "seed {seed}: scrub accounting must balance"
    );
    let rotted = store.backend().rotted_bits;
    drop(store);

    // Reopen without the rot schedule. Rot injected after the last
    // compact salvages into (a) the acknowledged payload, bit-identical,
    // (b) a typed fence, or (c) — when the rot destroyed the record
    // header beyond attribution — a salvage drop; never a torn payload
    // served as real.
    let reopened = SketchStore::open_with(mem, DIR, StoreOptions::no_sleep()).unwrap();
    let mut fenced = 0u64;
    for name in NAMES {
        match reopened.get_encoded(name) {
            Some(got) => {
                assert_eq!(got, &truth[name][..], "seed {seed}: {name} torn at reopen");
            }
            None if reopened.is_quarantined(name) => {
                fenced += 1;
                assert!(
                    matches!(reopened.get(name), Err(StoreError::CorruptQuarantined(_))),
                    "seed {seed}: fenced {name} must read as a typed error"
                );
            }
            None => {}
        }
    }
    (rotted, stats.corrupt_found, stats.repaired, fenced)
}

#[test]
fn bit_rot_sweep_scrub_repairs_live_and_fences_at_reopen() {
    let (mut rotted, mut found, mut repaired, mut fenced) = (0usize, 0u64, 0u64, 0u64);
    for seed in 0..96u64 {
        let (r, f, rep, q) = run_rot_schedule(seed);
        rotted += r;
        found += f;
        repaired += rep;
        fenced += q;
    }
    // The schedule must have drawn blood, the scrub must have seen it
    // and healed it, and at least some rot must have survived to the
    // cold reopen and been fenced — not a quiet run on any axis.
    assert!(rotted > 200, "only {rotted} bits rotted — schedule too quiet");
    assert!(found > 50, "scrub found only {found} spans across the sweep");
    assert!(repaired > 25, "scrub repaired only {repaired} spans across the sweep");
    assert!(fenced > 0, "no reopen ever fenced a record — rot never outlived a session");
}

/// Build a store image with three compacted records in the snapshot and
/// two newer records in the WAL, returning the backing memory plus the
/// true encoded payload per name.
fn build_reference_image() -> (MemBackend, HashMap<&'static str, Vec<u8>>) {
    let mem = MemBackend::new();
    let mut store = SketchStore::open_with(mem.clone(), DIR, StoreOptions::no_sleep()).unwrap();
    let mut truth = HashMap::new();
    for (i, name) in ["alpha", "beta", "gamma"].into_iter().enumerate() {
        let v = payload(500 + i as u64);
        store.put_encoded(name, &v).unwrap();
        truth.insert(name, v);
    }
    store.compact().unwrap();
    for (i, name) in ["delta", "epsilon"].into_iter().enumerate() {
        let v = payload(600 + i as u64);
        store.put_encoded(name, &v).unwrap();
        truth.insert(name, v);
    }
    (mem, truth)
}

/// Copy one file image into a fresh in-memory disk.
fn image_with(file: &str, bytes: &[u8], other: (&str, &[u8])) -> MemBackend {
    use hyperminhash::store::Backend;
    let mut mem = MemBackend::new();
    mem.write_new(&Path::new(DIR).join(file), bytes).unwrap();
    mem.write_new(&Path::new(DIR).join(other.0), other.1).unwrap();
    mem
}

#[test]
fn single_bit_flip_sweep_quarantines_only_hit_records() {
    let (mem, truth) = build_reference_image();
    let snapshot = mem.raw(&Path::new(DIR).join(SNAPSHOT_FILE)).unwrap();
    let wal = mem.raw(&Path::new(DIR).join(WAL_FILE)).unwrap();

    for (file, bytes, other) in [
        (SNAPSHOT_FILE, &snapshot, (WAL_FILE, wal.as_slice())),
        (WAL_FILE, &wal, (SNAPSHOT_FILE, snapshot.as_slice())),
    ] {
        // Record boundaries in this file, in order, with their names.
        let salvage = hyperminhash::store::log::salvage_scan(bytes);
        let mut bounds = Vec::new();
        let mut pos = 0usize;
        for record in &salvage.records {
            let len =
                hyperminhash::store::log::encode_record(&record.name, record.kind, &record.payload)
                    .len();
            bounds.push((pos, pos + len, record.name.clone()));
            pos += len;
        }
        assert_eq!(pos, bytes.len(), "reference image is dense records");

        for byte in 0..bytes.len() {
            for bit in 0..8u32 {
                let disk = image_with(file, bytes, other);
                assert!(disk.flip_bit(&Path::new(DIR).join(file), byte, bit));
                let store = SketchStore::open_with(disk, DIR, StoreOptions::no_sleep()).unwrap();
                let hit = &bounds
                    .iter()
                    .find(|(a, b, _)| (*a..*b).contains(&byte))
                    .expect("byte inside a record")
                    .2;
                for (&name, value) in &truth {
                    match store.get_encoded(name) {
                        Some(got) => assert_eq!(
                            got,
                            &value[..],
                            "{file} byte {byte} bit {bit}: {name} must be bit-identical"
                        ),
                        None => assert_eq!(
                            name, hit,
                            "{file} byte {byte} bit {bit}: lost {name}, which the flip \
                             did not touch"
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn kill_at_any_point_preserves_flushed_records() {
    let (mem, truth) = build_reference_image();
    let snapshot = mem.raw(&Path::new(DIR).join(SNAPSHOT_FILE)).unwrap();
    let wal = mem.raw(&Path::new(DIR).join(WAL_FILE)).unwrap();

    // Record layout of the WAL: [delta][epsilon].
    let delta_len = wal.len() - {
        let s = hyperminhash::store::log::salvage_scan(&wal);
        hyperminhash::store::log::encode_record(
            &s.records[1].name,
            s.records[1].kind,
            &s.records[1].payload,
        )
        .len()
    };

    // Cut the WAL at every byte offset: records wholly inside the kept
    // prefix must survive bit-identical; the snapshot is untouched so
    // alpha/beta/gamma must always survive.
    for cut in 0..=wal.len() {
        let disk = image_with(WAL_FILE, &wal[..cut], (SNAPSHOT_FILE, snapshot.as_slice()));
        let store = SketchStore::open_with(disk, DIR, StoreOptions::no_sleep()).unwrap();
        for name in ["alpha", "beta", "gamma"] {
            assert_eq!(store.get_encoded(name), Some(&truth[name][..]), "cut {cut}: {name}");
        }
        let expect_delta = cut >= delta_len;
        let expect_epsilon = cut >= wal.len();
        assert_eq!(
            store.get_encoded("delta"),
            expect_delta.then_some(&truth["delta"][..]),
            "cut {cut}"
        );
        assert_eq!(
            store.get_encoded("epsilon"),
            expect_epsilon.then_some(&truth["epsilon"][..]),
            "cut {cut}"
        );
    }

    // Same sweep over the snapshot (an at-rest torn snapshot cannot be
    // produced by our write path, but salvage must still handle one):
    // a prefix of k intact records recovers exactly those records.
    let bounds: Vec<usize> = {
        let s = hyperminhash::store::log::salvage_scan(&snapshot);
        let mut ends = Vec::new();
        let mut pos = 0;
        for r in &s.records {
            pos += hyperminhash::store::log::encode_record(&r.name, r.kind, &r.payload).len();
            ends.push(pos);
        }
        ends
    };
    for cut in 0..=snapshot.len() {
        let disk = image_with(SNAPSHOT_FILE, &snapshot[..cut], (WAL_FILE, wal.as_slice()));
        let store = SketchStore::open_with(disk, DIR, StoreOptions::no_sleep()).unwrap();
        for (i, name) in ["alpha", "beta", "gamma"].into_iter().enumerate() {
            let survives = cut >= bounds[i];
            assert_eq!(
                store.get_encoded(name),
                survives.then_some(&truth[name][..]),
                "snapshot cut {cut}: {name}"
            );
        }
        // WAL records are independent of snapshot damage.
        for name in ["delta", "epsilon"] {
            assert_eq!(store.get_encoded(name), Some(&truth[name][..]), "cut {cut}: {name}");
        }
    }
}
