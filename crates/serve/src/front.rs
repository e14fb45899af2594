//! The connection front end the daemon ([`crate::server`]) and the
//! routing tier (`hmh-route`) both run: bind, accept loop, bounded
//! queue with BUSY shedding, worker pool, pipelined batch loop, and the
//! lifecycle handle. A [`Handler`] answers one decoded request at a time.
//!
//! * **Backpressure.** When the accept queue is full the connection is
//!   *shed*: a best-effort BUSY frame, then close. Clients treat BUSY as
//!   transient and back off (see [`crate::client`]).
//! * **Deadlines.** A connection may go at most `read_timeout` without
//!   delivering a byte while a worker waits on it, so a slow-loris peer
//!   costs one deadline, never a worker forever. A frame whose budget
//!   was spent before its dispatch is answered EXPIRED, not executed.
//! * **Drain, then exit.** Shutdown stops accepting; workers finish every
//!   queued connection. Idle connections are waited on in 50 ms slices
//!   that re-check the shutdown flag, so a keep-alive peer never holds
//!   the drain for a whole `read_timeout`.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use crate::proto::{
    decode_request_budget, encode_response, write_frame, write_frames_vectored, ErrCode,
    FrameBuffer, FrameError, Health, Request, Response, MAX_FRAME_LEN, MAX_PIPELINE_DEPTH,
};

/// How often blocked loops re-check the shutdown flag.
pub(crate) const POLL_TICK: Duration = Duration::from_millis(5);
/// How long one wait for an idle connection's next frame blocks.
const IDLE_SLICE: Duration = Duration::from_millis(50);
/// The longest the accept loop spends telling a shed connection BUSY.
const SHED_DEADLINE: Duration = Duration::from_millis(100);

/// Connection front-end settings, embedded in both the daemon's and the
/// router's options.
#[derive(Debug, Clone)]
pub struct FrontOptions {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Accept-queue depth; connections beyond it are shed with BUSY.
    pub queue_depth: usize,
    /// Per-connection read deadline: the longest a connection may go
    /// without delivering a byte while a worker waits on it.
    pub read_timeout: Duration,
    /// Per-connection write deadline (each blocking write).
    pub write_timeout: Duration,
    /// Frame body ceiling (tests shrink it; the protocol caps it anyway).
    pub max_frame: usize,
}

impl Default for FrontOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 16,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_frame: MAX_FRAME_LEN,
        }
    }
}

/// What the front end does after a request's reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Keep serving the connection.
    KeepAlive,
    /// Flush the batch's replies, then shut this front end down.
    Shutdown,
}

/// Answers one decoded request for a front end.
pub trait Handler: Send + Sync + 'static {
    /// Per-worker state, built once per worker and reused for every
    /// connection that worker serves.
    type Worker;

    /// Build one worker's state.
    fn worker(&self) -> Self::Worker;

    /// Called for every frame of a batch, in receipt order, before it is
    /// decoded or checked for expiry.
    fn frame_received(&self) {}

    /// Answer `request`. `deadline` is the caller's, when the frame
    /// carried a budget that had not yet run out at dispatch.
    fn handle(
        &self,
        worker: &mut Self::Worker,
        request: Request,
        deadline: Option<Instant>,
    ) -> (Response, Disposition);
}

/// State shared by a front end's threads and its handler: the
/// connection queue, the shutdown flag, and the counters HEALTH reports.
#[derive(Debug)]
pub struct FrontEnd {
    /// Accepted connections waiting for a worker, each stamped with its
    /// accept time so dispatch can expire budgets spent in the queue.
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    /// Signals workers that the queue gained a connection or shutdown began.
    wake: Condvar,
    shutdown: AtomicBool,
    shed: AtomicU64,
    served: AtomicU64,
    /// Requests answered with a typed EXPIRED instead of executed.
    expired: AtomicU64,
    active: AtomicU32,
    opts: FrontOptions,
}

impl FrontEnd {
    fn queue(&self) -> MutexGuard<'_, VecDeque<(TcpStream, Instant)>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Signal shutdown without waiting: stop accepting, drain the queue.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }

    /// True once shutdown has been signalled.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Count one EXPIRED answered by the handler itself (a router
    /// relaying a shard's refusal).
    pub fn count_expired(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
    }

    /// A HEALTH snapshot with the front-end fields filled (`workers`,
    /// `queue_capacity`, `queue_depth`, `active`, `shed`, `served`,
    /// `expired`) and every other field at its default.
    pub fn health(&self) -> Health {
        let clamp = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        Health {
            workers: clamp(self.opts.workers),
            queue_capacity: clamp(self.opts.queue_depth),
            queue_depth: clamp(self.queue().len()),
            active: self.active.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            ..Health::default()
        }
    }
}

/// Bind `addr` and start a front end: an accept loop and the worker
/// pool, on threads named `{name}-accept` and `{name}-worker-{i}`.
/// `handler` builds the handler from the front end's shared state, which
/// it may keep (for the shutdown flag and the HEALTH counters).
pub fn start<H: Handler>(
    addr: impl ToSocketAddrs,
    opts: FrontOptions,
    name: &str,
    handler: impl FnOnce(Arc<FrontEnd>) -> H,
) -> io::Result<(FrontHandle, Arc<H>)> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let front = Arc::new(FrontEnd {
        queue: Mutex::new(VecDeque::new()),
        wake: Condvar::new(),
        shutdown: AtomicBool::new(false),
        shed: AtomicU64::new(0),
        served: AtomicU64::new(0),
        expired: AtomicU64::new(0),
        active: AtomicU32::new(0),
        opts,
    });
    let handler = Arc::new(handler(Arc::clone(&front)));
    // A failed spawn drops the handle, which stops what already started.
    let mut handle = FrontHandle { addr: listener.local_addr()?, front, threads: Vec::new() };
    let accept = Arc::clone(&handle.front);
    handle.spawn(format!("{name}-accept"), move || accept_loop(&accept, &listener))?;
    for i in 0..handle.front.opts.workers.max(1) {
        let (front, handler) = (Arc::clone(&handle.front), Arc::clone(&handler));
        handle.spawn(format!("{name}-worker-{i}"), move || worker_loop(&front, &*handler))?;
    }
    Ok((handle, handler))
}

/// A running front end. Dropping the handle signals shutdown (without
/// waiting); [`FrontHandle::join`] drains, then returns.
pub struct FrontHandle {
    addr: SocketAddr,
    front: Arc<FrontEnd>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl FrontHandle {
    /// The address actually bound (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal shutdown without waiting.
    pub fn shutdown(&self) {
        self.front.shutdown();
    }

    /// Signal shutdown and wait for every thread, including those added
    /// with [`FrontHandle::spawn`], to finish.
    pub fn join(mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            // A worker that panicked already lost its connection; there
            // is nothing more to salvage from its JoinHandle.
            let _ = t.join();
        }
    }

    /// True once every thread has exited (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.threads.iter().all(thread::JoinHandle::is_finished)
    }

    /// Run `f` on a named thread that [`FrontHandle::join`] waits for;
    /// `f` should return once [`FrontEnd::is_shutdown`] is true.
    pub fn spawn(&mut self, name: String, f: impl FnOnce() + Send + 'static) -> io::Result<()> {
        self.threads.push(thread::Builder::new().name(name).spawn(f)?);
        Ok(())
    }
}

impl Drop for FrontHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(front: &FrontEnd, listener: &TcpListener) {
    while !front.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => enqueue(front, stream),
            // Nothing pending, or a transient error (EMFILE under a
            // connection storm, an aborted handshake): back off a tick.
            Err(_) => thread::sleep(POLL_TICK),
        }
    }
    // Wake every worker so they observe shutdown and drain.
    front.wake.notify_all();
}

fn enqueue(front: &FrontEnd, mut stream: TcpStream) {
    let mut queue = front.queue();
    if queue.len() >= front.opts.queue_depth {
        drop(queue);
        front.shed.fetch_add(1, Ordering::Relaxed);
        // Best effort, under a short deadline so a non-reading peer
        // cannot stall the accept loop.
        let _ = stream.set_write_timeout(Some(front.opts.write_timeout.min(SHED_DEADLINE)));
        let _ = write_frame(&mut stream, &encode_response(&Response::Busy));
        return;
    }
    queue.push_back((stream, Instant::now()));
    drop(queue);
    front.wake.notify_one();
}

fn worker_loop<H: Handler>(front: &FrontEnd, handler: &H) {
    let mut worker = handler.worker();
    loop {
        let stream = {
            let mut queue = front.queue();
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if front.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                // Timed wait: a missed notify can only delay one tick.
                let (guard, _timeout) = front
                    .wake
                    .wait_timeout(queue, POLL_TICK)
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
            }
        };
        let Some((stream, queued_at)) = stream else { return };
        front.active.fetch_add(1, Ordering::SeqCst);
        handle_connection(front, handler, &mut worker, stream, queued_at);
        front.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn too_large(got: usize, max: usize) -> Response {
    let message = format!("frame length {got} exceeds maximum {max}");
    Response::Err { code: ErrCode::TooLarge, message }
}

fn handle_connection<H: Handler>(
    front: &FrontEnd,
    handler: &H,
    worker: &mut H::Worker,
    mut stream: TcpStream,
    queued_at: Instant,
) {
    let opts = &front.opts;
    // Reads block one idle slice at a time (see `next_frame`).
    if stream.set_read_timeout(Some(opts.read_timeout.min(IDLE_SLICE))).is_err()
        || stream.set_write_timeout(Some(opts.write_timeout)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);

    // Each pass gathers one batch — the first frame read blocking, then
    // every complete frame already arrived, up to MAX_PIPELINE_DEPTH —
    // answers it in receipt order and flushes the replies as one
    // vectored write. Bounded by the deadlines, EOF and the shutdown flag.
    let mut frames = FrameBuffer::new();
    let mut first_batch = true;
    loop {
        let first = match next_frame(front, &mut frames, &mut stream) {
            Ok(Some(body)) => body,
            // EOF, deadline, reset, truncation, or drain: hang up.
            Ok(None) | Err(FrameError::Io(_)) => return,
            // A lying length prefix gets a typed answer, then a close:
            // resynchronizing after an unread body is guesswork.
            Err(FrameError::TooLarge { got, max }) => {
                let _ = write_frame(&mut stream, &encode_response(&too_large(got, max)));
                return;
            }
        };

        // The first batch's frames waited in the kernel while the
        // connection waited in the queue, so their budgets burn from
        // accept. Later batches burn from receipt: time between batches
        // is client think-time, not queueing.
        let batch_epoch = if first_batch { queued_at } else { Instant::now() };
        first_batch = false;

        let mut batch = vec![first];
        let mut poison: Option<Response> = None;
        // Never blocks; a transport error resurfaces on the flush or the
        // next blocking read, and buffered frames still get answers.
        let _ = frames.fill_nonblocking(&stream);
        while batch.len() < MAX_PIPELINE_DEPTH {
            match frames.take_frame(opts.max_frame) {
                Ok(Some(body)) => batch.push(body),
                // take_frame never touches the transport.
                Ok(None) | Err(FrameError::Io(_)) => break,
                // A lying prefix poisons the tail; earlier frames are
                // still answered.
                Err(FrameError::TooLarge { got, max }) => {
                    poison = Some(too_large(got, max));
                    break;
                }
            }
        }

        let mut replies: Vec<Vec<u8>> = Vec::with_capacity(batch.len());
        let mut disposition = Disposition::KeepAlive;
        for body in batch {
            handler.frame_received();
            match decode_request_budget(&body) {
                Ok((request, budget_ms)) => {
                    // Expiry is checked per frame at dispatch, so time
                    // spent on earlier frames of the batch counts. An
                    // expired frame burns only its own reply slot.
                    let budget = Duration::from_millis(u64::from(budget_ms));
                    if budget_ms > 0 && batch_epoch.elapsed() >= budget {
                        front.expired.fetch_add(1, Ordering::Relaxed);
                        replies.push(encode_response(&Response::Expired));
                        continue;
                    }
                    let deadline = (budget_ms > 0).then(|| batch_epoch + budget);
                    let (resp, then) = handler.handle(worker, request, deadline);
                    replies.push(encode_response(&resp));
                    if then == Disposition::Shutdown {
                        disposition = then;
                        break;
                    }
                }
                // A parse failure poisons the tail too.
                Err(e) => {
                    poison = Some(Response::Err { code: e.code(), message: e.to_string() });
                    break;
                }
            }
        }
        let close = poison.is_some();
        replies.extend(poison.as_ref().map(encode_response));

        let flushed = write_frames_vectored(&mut stream, &replies).is_ok();
        front.served.fetch_add(replies.len() as u64, Ordering::Relaxed);
        if disposition == Disposition::Shutdown {
            front.shutdown();
            return;
        }
        // Write failure, poisoned tail, or draining: this batch was the
        // connection's last.
        if !flushed || close || front.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Block for the connection's next frame, one idle slice at a time. A
/// drain hangs up (`Ok(None)`) at a slice boundary if nothing is
/// buffered; a partial frame is waited for until `read_timeout` passes
/// with no new byte. A busy connection never sees a slice expire.
fn next_frame(
    front: &FrontEnd,
    frames: &mut FrameBuffer,
    stream: &mut TcpStream,
) -> Result<Option<Vec<u8>>, FrameError> {
    let slice = front.opts.read_timeout.min(IDLE_SLICE);
    // A read that times out blocked one whole slice with no data.
    let mut stalled = Duration::ZERO;
    loop {
        let before = frames.buffered();
        match frames.read_frame_buffered(stream, front.opts.max_frame) {
            Err(FrameError::Io(e))
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                stalled = if frames.buffered() == before { stalled + slice } else { slice };
                if stalled >= front.opts.read_timeout {
                    return Err(FrameError::Io(e));
                }
                if frames.buffered() == 0 && front.shutdown.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            other => return other,
        }
    }
}
