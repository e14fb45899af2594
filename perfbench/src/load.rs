//! The closed loop: each client connection sends its next request only
//! after the previous reply, replaying its op list in rounds until the
//! run's time is up.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use hmh_serve::proto::{decode_response, encode_request, read_frame, write_frame, MAX_FRAME_LEN};
use hmh_serve::{Request, Response};

use crate::plan::{reply_digest, write_payload, Expected, Kind, Plan};
use crate::report::{rate_per_s, Length};

const IO_TIMEOUT: Duration = Duration::from_secs(30);

pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(IO_TIMEOUT))?;
    conn.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(conn)
}

/// One request and its reply; also returns the reply frame body.
pub fn exchange(conn: &mut TcpStream, request: &Request) -> io::Result<(Response, Vec<u8>)> {
    write_frame(conn, &encode_request(request))?;
    let body = read_frame(conn, MAX_FRAME_LEN)
        .map_err(|e| io::Error::other(format!("reply frame: {e:?}")))?
        .ok_or_else(|| io::Error::other("connection closed before the reply"))?;
    let reply = decode_response(&body).map_err(|e| io::Error::other(e.to_string()))?;
    Ok((reply, body))
}

/// A refusal the protocol types: the op was attempted and failed.
pub fn is_refusal(reply: &Response) -> bool {
    matches!(reply, Response::Busy | Response::ReadOnly | Response::Expired | Response::Err { .. })
}

/// What one closed-loop run measured.
#[derive(Default)]
pub struct LoopRun {
    /// Rounds every op list was replayed, at least.
    pub rounds: usize,
    /// Each connection's median rate over its rounds, summed.
    pub ops_per_s: f64,
    /// `samples[round]`: `(kind, latency in ns)` of every op of a round.
    pub samples: Vec<Vec<(Kind, u64)>>,
    /// `replies[conn][round][op]`: reply digests.
    pub replies: Vec<Vec<Vec<u64>>>,
    pub attempted: u64,
    pub failed: u64,
    /// Payload bytes sent in writes.
    pub write_bytes: u64,
}

/// Replay the plan's op lists over `threads` connections to `addr` (one
/// op list per connection with two threads; both lists in turn on one
/// connection with one thread), each connection in rounds for `length`.
pub fn run(addr: SocketAddr, plan: &Plan, threads: usize, length: Length) -> io::Result<LoopRun> {
    let lists = plan.conns.len();
    let start = Barrier::new(threads);
    let conns: Vec<TcpStream> = (0..threads).map(|_| connect(addr)).collect::<io::Result<_>>()?;
    let outcomes: Vec<io::Result<(LoopRun, Vec<usize>)>> = thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(t, mut conn)| {
                let start = &start;
                let mine: Vec<usize> = (t..lists).step_by(threads).collect();
                s.spawn(move || {
                    let mut out =
                        LoopRun { replies: vec![Vec::new(); mine.len()], ..LoopRun::default() };
                    let (mut round_ops, mut round_ns) = (Vec::new(), Vec::new());
                    start.wait();
                    let began = Instant::now();
                    while !length.done(out.rounds, began.elapsed()) {
                        let round_start = Instant::now();
                        let mut samples = Vec::new();
                        for (slot, &list) in mine.iter().enumerate() {
                            let mut digests = Vec::with_capacity(plan.conns[list].len());
                            for request in &plan.conns[list] {
                                let t0 = Instant::now();
                                let (reply, body) = exchange(&mut conn, request)?;
                                samples.push((Kind::of(request), t0.elapsed().as_nanos() as u64));
                                out.attempted += 1;
                                out.failed += u64::from(is_refusal(&reply));
                                out.write_bytes += write_payload(request);
                                digests.push(reply_digest(&body));
                            }
                            out.replies[slot].push(digests);
                        }
                        round_ns.push(round_start.elapsed().as_nanos() as u64);
                        round_ops.push(samples.len());
                        out.samples.push(samples);
                        out.rounds += 1;
                    }
                    out.ops_per_s = rate_per_s(&round_ops, &round_ns);
                    Ok((out, mine))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });

    let mut run =
        LoopRun { rounds: usize::MAX, replies: vec![Vec::new(); lists], ..LoopRun::default() };
    for outcome in outcomes {
        let (part, mine) = outcome?;
        run.rounds = run.rounds.min(part.rounds);
        run.ops_per_s += part.ops_per_s;
        run.samples.resize(run.samples.len().max(part.rounds), Vec::new());
        for (round, samples) in part.samples.into_iter().enumerate() {
            run.samples[round].extend(samples);
        }
        run.attempted += part.attempted;
        run.failed += part.failed;
        run.write_bytes += part.write_bytes;
        for (slot, list) in mine.into_iter().enumerate() {
            run.replies[list] = part.replies[slot].clone();
        }
    }
    Ok(run)
}

/// Check every reply against the model. `prior` rounds of the same op
/// lists ran before these.
pub fn verify(replies: &[Vec<Vec<u64>>], prior: usize, expected: &Expected) -> Result<(), String> {
    for (conn, rounds) in replies.iter().enumerate() {
        for (round, digests) in rounds.iter().enumerate() {
            for (op, &digest) in digests.iter().enumerate() {
                if digest != expected.reply(prior + round, conn, op) {
                    return Err(format!(
                        "connection {conn}, round {}, op {op}: reply differs from the model",
                        prior + round
                    ));
                }
            }
        }
    }
    Ok(())
}
