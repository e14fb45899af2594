//! The daemon workloads: `serve-read` and `routed`.

use std::hint::black_box;
use std::io;
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use hmh_core::format;
use hmh_serve::proto::{decode_response, encode_request, read_frame, write_frame, MAX_FRAME_LEN};
use hmh_serve::{Health, Request, Response};

use crate::daemon::Cluster;
use crate::layers::Layers;
use crate::load;
use crate::plan::{expect, plan, reply_digest, Expected, Kind, Plan, ServeSpec, CONNECTIONS};
use crate::report::{latency_metrics, median_f64, percentile, ratio, Length, Metrics};
use crate::trace::{Replayer, Trace};
use crate::{Args, Outcome, SETUPS};

fn io_err(e: io::Error) -> String {
    e.to_string()
}

fn start(spec: &ServeSpec, args: &Args) -> Result<(Plan, Cluster), String> {
    let plan = plan(spec, args.seed);
    let cluster = Cluster::start(&args.hmh, &args.work, spec.routed).map_err(io_err)?;
    cluster.preload(&plan.preload).map_err(io_err)?;
    Ok((plan, cluster))
}

/// GET every key through the entry address and compare it with the
/// model's state under `format::encode`.
fn check_final_state(cluster: &Cluster, expected: &Expected) -> Result<(), String> {
    let mut conn = load::connect(cluster.entry).map_err(io_err)?;
    for (name, bytes) in &expected.settled {
        let (reply, _) =
            load::exchange(&mut conn, &Request::Get { name: name.clone() }).map_err(io_err)?;
        if reply != Response::Sketch(bytes.clone()) {
            return Err(format!("final GET {name}: differs from the model"));
        }
    }
    Ok(())
}

/// Latencies of all ops, of reads and of writes, by round.
type ByRound = Vec<Vec<u64>>;

fn split(samples: &[Vec<(Kind, u64)>]) -> (ByRound, ByRound, ByRound) {
    let pick = |keep: fn(Kind) -> bool| -> ByRound {
        samples.iter().map(|r| r.iter().filter(|s| keep(s.0)).map(|s| s.1).collect()).collect()
    };
    (pick(|_| true), pick(|k| !k.is_write()), pick(Kind::is_write))
}

pub fn run(spec: &ServeSpec, args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let (plan, cluster) = start(spec, args)?;
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            cluster.stop().map_err(io_err)?;
        } else {
            kept = Some((plan, cluster));
        }
    }
    let (plan, cluster) = kept.expect("at least one set-up");
    let expected = expect(&plan);

    let before = cluster.store_bytes().map_err(io_err)?;
    let length = Length::rounds(args.seconds, spec.rounds_per_second);
    let run = load::run(cluster.entry, &plan, CONNECTIONS, length).map_err(io_err)?;
    let grown = cluster.store_bytes().map_err(io_err)? - before;
    let rss_mb = cluster.peak_rss_mb().map_err(io_err)?;
    check_final_state(&cluster, &expected)?;
    cluster.stop().map_err(io_err)?;
    load::verify(&run.replies, 0, &expected)?;

    let mut m = Metrics::default();
    m.add("setup_s", median_f64(setups), "s");
    m.add("ops_per_s", run.ops_per_s, "1/s");
    let (all, reads, writes) = split(&run.samples);
    latency_metrics(&mut m, &all, &reads, &writes);
    m.add("ok_ratio", 1.0 - ratio(run.failed as f64, run.attempted as f64), "ratio");
    m.add("write_amp", ratio(grown as f64, run.write_bytes as f64), "ratio");
    m.add("rss_mb", rss_mb, "MB");
    Ok(Outcome { metrics: m, attempted: run.attempted, failed: run.failed })
}

/// Median latency per op kind, in ns.
fn p50_by_kind(samples: &[(Kind, u64)]) -> [f64; Kind::ALL.len()] {
    Kind::ALL.map(|kind| {
        let mut v: Vec<u64> = samples.iter().filter(|s| s.0 == kind).map(|s| s.1).collect();
        percentile(&mut v, 50.0) as f64
    })
}

fn all_p50(samples: &[(Kind, u64)]) -> f64 {
    let mut v: Vec<u64> = samples.iter().map(|s| s.1).collect();
    percentile(&mut v, 50.0) as f64
}

/// The HEALTH counters the trace reports.
fn health_counts(h: &Health) -> [u64; 4] {
    [h.served, h.shed, h.expired, h.records_scrubbed]
}

/// What the routed workload adds to the trace.
#[derive(Default)]
struct RouteTrace {
    /// Routed minus direct round trip, summed per kind, with counts.
    hop_ns: [i64; Kind::ALL.len()],
    hops: [u64; Kind::ALL.len()],
    fetch_ns: u64,
    fetches: u64,
}

/// The traced phase: one connection, every op's round trip recorded as a
/// span and then replayed in process; `prior` rounds ran before it.
#[allow(clippy::too_many_arguments)]
fn traced_phase(
    cluster: &Cluster,
    plan: &Plan,
    expected: &Expected,
    replayer: &mut Replayer,
    tr: &mut Trace,
    kinds: &mut Vec<Kind>,
    route: &mut RouteTrace,
    prior: usize,
    duration: Duration,
) -> Result<Vec<(Kind, u64)>, String> {
    let mut conn = load::connect(cluster.entry).map_err(io_err)?;
    let mut direct = if cluster.ring.is_some() {
        cluster.connect_daemons().map_err(io_err)?
    } else {
        Vec::new()
    };
    // One untimed exchange on every connection first. Each router worker
    // keeps a connection to every daemon, and a daemon worker serves one
    // connection until it idles out its read deadline, so a new
    // connection can wait that long for a worker; it waits here, not in
    // a measured op.
    let warm_up = Request::Get { name: String::from("warm-up") };
    for c in std::iter::once(&mut conn).chain(&mut direct) {
        load::exchange(c, &warm_up).map_err(io_err)?;
    }
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut round = prior;
    loop {
        for (list, ops) in plan.conns.iter().enumerate() {
            for (i, request) in ops.iter().enumerate() {
                let op = kinds.len();
                let kind = Kind::of(request);
                kinds.push(kind);
                let t0 = Instant::now();
                let body = encode_request(request);
                let t1 = Instant::now();
                write_frame(&mut conn, &body).map_err(io_err)?;
                let reply = read_frame(&mut conn, MAX_FRAME_LEN)
                    .map_err(|e| format!("reply frame: {e:?}"))?
                    .ok_or("connection closed before the reply")?;
                let t2 = Instant::now();
                let response = decode_response(&reply).map_err(|e| e.to_string())?;
                let t3 = Instant::now();
                let root = tr.record(op, "serve.rtt", t0, t3, None);
                tr.record(op, "proto.encode_request", t0, t1, Some(root));
                tr.record(op, "proto.decode_response", t2, t3, Some(root));
                let rtt = t3.duration_since(t0);
                samples.push((kind, rtt.as_nanos() as u64));

                let digest = reply_digest(&reply);
                if digest != expected.reply(round, list, i) {
                    return Err(format!(
                        "traced op {op} ({}): reply differs from the model",
                        kind.name()
                    ));
                }
                let replayed = replayer.replay(tr, op, root, &body)?;
                if replayed != reply {
                    return Err(format!(
                        "traced op {op} ({}): replay differs from the daemon",
                        kind.name()
                    ));
                }
                if !direct.is_empty() {
                    route_extras(cluster, &mut direct, route, request, &response, rtt)?;
                }
            }
        }
        round += 1;
        if start.elapsed() >= duration {
            return Ok(samples);
        }
    }
}

/// For a single-owner op, the same request sent straight to the owner
/// (the hop is the difference); for a cross-shard JACCARD, the router's
/// fetch replayed: both GETs, both decodes and the estimate.
fn route_extras(
    cluster: &Cluster,
    direct: &mut [TcpStream],
    route: &mut RouteTrace,
    request: &Request,
    routed: &Response,
    rtt: Duration,
) -> Result<(), String> {
    let owner = match request {
        Request::Card { name } | Request::Merge { name, .. } => Some(cluster.owner(name)),
        Request::Jaccard { a, b } if cluster.owner(a) == cluster.owner(b) => Some(cluster.owner(a)),
        _ => None,
    };
    if let Some(g) = owner {
        let t = Instant::now();
        let (reply, _) = load::exchange(&mut direct[g], request).map_err(io_err)?;
        let d = t.elapsed();
        if reply != *routed {
            return Err("a direct reply differs from the routed one".into());
        }
        let k = Kind::of(request).index();
        route.hop_ns[k] += rtt.as_nanos() as i64 - d.as_nanos() as i64;
        route.hops[k] += 1;
    } else if let Request::Jaccard { a, b } = request {
        let t = Instant::now();
        let mut fetch = |name: &String| -> Result<_, String> {
            let conn = &mut direct[cluster.owner(name)];
            match load::exchange(conn, &Request::Get { name: name.clone() }).map_err(io_err)? {
                (Response::Sketch(bytes), _) => format::decode(&bytes).map_err(|e| e.to_string()),
                (other, _) => Err(format!("fetch {name}: {other:?}")),
            }
        };
        let (sa, sb) = (fetch(a)?, fetch(b)?);
        let estimate = sa.jaccard(&sb).map_err(|e| e.to_string())?.estimate;
        route.fetch_ns += t.elapsed().as_nanos() as u64;
        route.fetches += 1;
        if Response::Value(estimate) != *routed {
            return Err("the replayed cross-shard JACCARD differs from the routed one".into());
        }
    }
    Ok(())
}

pub fn run_traced(spec: &ServeSpec, args: &Args, trace_file: &Path) -> Result<Outcome, String> {
    let (plan, cluster) = start(spec, args)?;
    let expected = expect(&plan);
    let secs = args.seconds;

    // A: the two-connection closed loop, untraced, with HEALTH around it.
    let h0 = health_counts(&cluster.health().map_err(io_err)?);
    let phase = |share: f64| Length::Time(Duration::from_secs_f64(secs * share));
    let a = load::run(cluster.entry, &plan, CONNECTIONS, phase(0.4)).map_err(io_err)?;
    let h1 = health_counts(&cluster.health().map_err(io_err)?);
    load::verify(&a.replies, 0, &expected)?;
    // B: one connection, untraced.
    let b = load::run(cluster.entry, &plan, 1, phase(0.2)).map_err(io_err)?;
    load::verify(&b.replies, a.rounds, &expected)?;
    // C: one connection, traced and replayed on a scratch store that
    // starts from the daemon's state at a round boundary.
    let mut replayer = Replayer::open(&args.work.join("replay"), &expected.settled)?;
    let io0 = replayer.io();
    let mut tr = Trace::new();
    let mut kinds = Vec::new();
    let mut route = RouteTrace::default();
    let c = traced_phase(
        &cluster,
        &plan,
        &expected,
        &mut replayer,
        &mut tr,
        &mut kinds,
        &mut route,
        a.rounds + b.rounds,
        Duration::from_secs_f64(secs * 0.4),
    )?;
    let io = replayer.io().since(io0);
    check_final_state(&cluster, &expected)?;
    let ring_lookup_ns = cluster.ring.as_ref().map(|ring| {
        let names: Vec<&String> = expected.settled.keys().collect();
        let reps = 200;
        let t = Instant::now();
        for _ in 0..reps {
            for name in &names {
                black_box(ring.owner_index(black_box(name)));
            }
        }
        t.elapsed().as_nanos() as f64 / (reps * names.len()) as f64
    });
    let cross_shard_share = {
        let pairs: Vec<(&String, &String)> = plan
            .conns
            .iter()
            .flatten()
            .filter_map(|r| match r {
                Request::Jaccard { a, b } => Some((a, b)),
                _ => None,
            })
            .collect();
        let cross = pairs.iter().filter(|(a, b)| cluster.owner(a) != cluster.owner(b)).count();
        ratio(cross as f64, pairs.len() as f64)
    };
    cluster.stop().map_err(io_err)?;
    tr.write(trace_file).map_err(io_err)?;

    let mut layers = Layers::default();
    let self_ns = tr.self_ns();
    // No replayed op inserts items, so nothing is hashed.
    layers.set_core(&tr, &self_ns, 0);
    layers.set_round_trips(&tr, &self_ns, &kinds)?;

    let writes = replayer.writes as f64;
    layers.set("store.append_us", ratio(io.append_ns as f64, writes) / 1e3);
    layers.set("store.fsync_us", ratio(io.fsync_ns as f64, writes) / 1e3);
    layers.set("store.fsyncs_per_write", ratio(io.fsyncs as f64, writes));
    layers.set("store.bytes_per_write", ratio(io.append_bytes as f64, writes));
    layers.set("store.scrub_records", (h1[3] - h0[3]) as f64);
    layers.set("serve.served", (h1[0] - h0[0]) as f64);
    layers.set("serve.shed", (h1[1] - h0[1]) as f64);
    layers.set("serve.expired", (h1[2] - h0[2]) as f64);

    let a_samples: Vec<(Kind, u64)> = a.samples.concat();
    let (loaded, traced) = (p50_by_kind(&a_samples), p50_by_kind(&c));
    for kind in Kind::ALL {
        let k = kind.index();
        if loaded[k] > 0.0 && traced[k] > 0.0 {
            layers.set(format!("serve.wait_us.{}", kind.name()), (loaded[k] - traced[k]) / 1e3);
        }
    }
    let traced_p50 = all_p50(&c);
    layers.set("serve.wait_us", (all_p50(&a_samples) - traced_p50) / 1e3);
    layers.set("trace.overhead_us", (traced_p50 - all_p50(&b.samples.concat())) / 1e3);

    if let Some(ns) = ring_lookup_ns {
        layers.set("route.ring_lookup_ns", ns);
        layers.set("route.cross_shard_share", cross_shard_share);
        let hops: u64 = route.hops.iter().sum();
        layers
            .set("route.hop_us", ratio(route.hop_ns.iter().sum::<i64>() as f64, hops as f64) / 1e3);
        for kind in [Kind::Card, Kind::Merge, Kind::Jaccard] {
            let k = kind.index();
            let hop = ratio(route.hop_ns[k] as f64, route.hops[k] as f64) / 1e3;
            layers.set(format!("route.hop_us.{}", kind.name()), hop);
        }
        layers.set("route.fetch_us", ratio(route.fetch_ns as f64, route.fetches as f64) / 1e3);
    }

    let attempted = a.attempted + b.attempted + c.len() as u64;
    Ok(Outcome { metrics: layers.into_metrics(), attempted, failed: a.failed + b.failed })
}
