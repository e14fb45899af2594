//! Outcome taxonomy and the per-phase report.

use std::time::Duration;

use hmh_serve::{ClientError, ErrCode, Response};

/// How one operation ended, from the load generator's point of view.
///
/// The split that matters for the degradation contract is *typed*
/// versus *untyped*: a typed outcome is the service saying "no" in a
/// way the caller can act on (back off, expire, route elsewhere); an
/// untyped one is a transport failure the caller can only guess about.
/// Graceful degradation means overload moves traffic into the typed
/// rows, never the untyped one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The operation succeeded.
    Ok,
    /// Typed BUSY: the server shed the connection at the accept queue.
    Busy,
    /// Typed EXPIRED: the deadline budget was spent (server-side
    /// refusal of dead work, or the client expired it locally).
    Expired,
    /// Typed local refusal: the shared retry budget had no token.
    RetryExhausted,
    /// Typed refusal without a dial: every replica's breaker was open,
    /// or a routing tier answered UNAVAILABLE for the owning group.
    Unavailable,
    /// Any other typed server answer (NOT_FOUND, TOO_LARGE, ...). The
    /// server was healthy enough to parse, decide and answer; these
    /// are contract bugs in the workload, not overload collapse.
    TypedOther,
    /// Untyped transport failure: reset, timeout, refused connection,
    /// or an unparseable reply. The failure mode overload must not
    /// amplify.
    Transport,
}

/// Classify a client result for accounting.
pub fn classify<T>(result: &Result<T, ClientError>) -> Outcome {
    match result {
        Ok(_) => Outcome::Ok,
        Err(ClientError::Busy) => Outcome::Busy,
        Err(ClientError::Expired) => Outcome::Expired,
        Err(ClientError::RetryBudgetExhausted) => Outcome::RetryExhausted,
        Err(ClientError::BreakerOpen { .. } | ClientError::PartialListing) => Outcome::Unavailable,
        Err(ClientError::Server { code: ErrCode::Unavailable, .. }) => Outcome::Unavailable,
        Err(
            ClientError::ReadOnly
            | ClientError::NotFound(_)
            | ClientError::Server { .. }
            | ClientError::ItemTooLarge { .. }
            | ClientError::PipelineOverflow { .. },
        ) => Outcome::TypedOther,
        Err(
            ClientError::Io(_)
            | ClientError::BadReply(_)
            | ClientError::Format(_)
            | ClientError::AllReplicasDown { .. },
        ) => Outcome::Transport,
    }
}

/// Classify one reply slot of a pipelined exchange.
///
/// [`Client::pipeline`](hmh_serve::Client::pipeline) returns the raw
/// per-slot responses so one refused frame does not hide its siblings;
/// this maps each slot onto the same taxonomy `classify` applies to
/// whole-call errors. Typed per-frame refusals (EXPIRED, READ_ONLY,
/// server errors) land in their usual rows; any payload-bearing reply
/// counts as success.
pub fn classify_response(response: &Response) -> Outcome {
    match response {
        Response::Busy => Outcome::Busy,
        Response::Expired => Outcome::Expired,
        Response::Err { code: ErrCode::Unavailable, .. } => Outcome::Unavailable,
        Response::ReadOnly | Response::Err { .. } => Outcome::TypedOther,
        _ => Outcome::Ok,
    }
}

/// Counters and latency sample for one load phase.
///
/// Latencies are recorded for successful operations only (microseconds
/// per op), so the percentiles price the service a caller actually
/// received, not the speed of rejections.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that succeeded.
    pub ok: u64,
    /// Typed BUSY rejections.
    pub busy: u64,
    /// Typed EXPIRED rejections.
    pub expired: u64,
    /// Typed retry-budget refusals (local, zero dials spent).
    pub retry_exhausted: u64,
    /// Typed unavailable / breaker-open refusals.
    pub unavailable: u64,
    /// Other typed server answers.
    pub typed_other: u64,
    /// Untyped transport failures.
    pub transport: u64,
    /// Wall-clock time the phase actually took.
    pub elapsed: Duration,
    /// Success latencies in microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
}

impl Report {
    /// Fold one classified outcome (and its latency, if successful)
    /// into the counters.
    pub(crate) fn record(&mut self, outcome: Outcome, latency_us: u64) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {
                self.ok += 1;
                self.latencies_us.push(latency_us);
            }
            Outcome::Busy => self.busy += 1,
            Outcome::Expired => self.expired += 1,
            Outcome::RetryExhausted => self.retry_exhausted += 1,
            Outcome::Unavailable => self.unavailable += 1,
            Outcome::TypedOther => self.typed_other += 1,
            Outcome::Transport => self.transport += 1,
        }
    }

    /// Merge another worker's report into this one.
    pub(crate) fn merge(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.busy += other.busy;
        self.expired += other.expired;
        self.retry_exhausted += other.retry_exhausted;
        self.unavailable += other.unavailable;
        self.typed_other += other.typed_other;
        self.transport += other.transport;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.latencies_us.extend(other.latencies_us);
    }

    /// Sort the latency sample; called once after all workers merged.
    pub(crate) fn finalize(&mut self) {
        self.latencies_us.sort_unstable();
    }

    /// Successful operations per second of wall clock.
    pub fn goodput(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// All rejections the service (or client) answered with a type.
    pub fn typed_rejections(&self) -> u64 {
        self.busy + self.expired + self.retry_exhausted + self.unavailable
    }

    /// Failures with no typed answer — the metastable failure mode.
    pub fn untyped_failures(&self) -> u64 {
        self.transport
    }

    /// The `k`-th percentile (0.0 ..= 1.0) of success latency, in
    /// microseconds, by the nearest-rank convention
    /// (`ceil(k·n)`-th smallest). Zero when nothing succeeded.
    pub fn percentile_us(&self, k: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let last = self.latencies_us.len() - 1;
        let rank = (self.latencies_us.len() as f64 * k.clamp(0.0, 1.0)).ceil() as usize;
        self.latencies_us[rank.saturating_sub(1).min(last)]
    }

    /// Median success latency in microseconds.
    pub fn p50_us(&self) -> u64 {
        self.percentile_us(0.50)
    }

    /// 99th-percentile success latency in microseconds.
    pub fn p99_us(&self) -> u64 {
        self.percentile_us(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_typed_untyped_split() {
        assert_eq!(classify::<()>(&Ok(())), Outcome::Ok);
        assert_eq!(classify::<()>(&Err(ClientError::Busy)), Outcome::Busy);
        assert_eq!(classify::<()>(&Err(ClientError::Expired)), Outcome::Expired);
        assert_eq!(
            classify::<()>(&Err(ClientError::RetryBudgetExhausted)),
            Outcome::RetryExhausted
        );
        assert_eq!(
            classify::<()>(&Err(ClientError::BreakerOpen { replicas: 3 })),
            Outcome::Unavailable
        );
        assert_eq!(
            classify::<()>(&Err(ClientError::Server {
                code: ErrCode::Unavailable,
                message: "group \"b\" is down".into(),
            })),
            Outcome::Unavailable
        );
        assert_eq!(classify::<()>(&Err(ClientError::NotFound("x".into()))), Outcome::TypedOther);
        assert_eq!(
            classify::<()>(&Err(ClientError::Io(std::io::Error::other("reset")))),
            Outcome::Transport
        );
        assert_eq!(
            classify::<()>(&Err(ClientError::AllReplicasDown { attempts: 2, last_errors: vec![] })),
            Outcome::Transport
        );
    }

    #[test]
    fn reply_slots_classify_like_whole_call_errors() {
        assert_eq!(classify_response(&Response::Ok), Outcome::Ok);
        assert_eq!(classify_response(&Response::Value(42.0)), Outcome::Ok);
        assert_eq!(
            classify_response(&Response::NamesPage { names: vec![], partial: false }),
            Outcome::Ok
        );
        assert_eq!(classify_response(&Response::Busy), Outcome::Busy);
        assert_eq!(classify_response(&Response::Expired), Outcome::Expired);
        assert_eq!(classify_response(&Response::ReadOnly), Outcome::TypedOther);
        assert_eq!(
            classify_response(&Response::Err {
                code: ErrCode::Unavailable,
                message: "group \"b\" is down".into(),
            }),
            Outcome::Unavailable
        );
        assert_eq!(
            classify_response(&Response::Err {
                code: ErrCode::NotFound,
                message: "no sketch named \"x\"".into(),
            }),
            Outcome::TypedOther
        );
    }

    #[test]
    fn percentiles_and_goodput_from_a_known_sample() {
        let mut r = Report::default();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 1000] {
            r.record(Outcome::Ok, us);
        }
        r.record(Outcome::Busy, 0);
        r.record(Outcome::Expired, 0);
        r.record(Outcome::Transport, 0);
        r.elapsed = Duration::from_secs(2);
        r.finalize();

        assert_eq!(r.attempted, 13);
        assert_eq!(r.ok, 10);
        assert_eq!(r.typed_rejections(), 2);
        assert_eq!(r.untyped_failures(), 1);
        assert!((r.goodput() - 5.0).abs() < 1e-9);
        assert_eq!(r.p50_us(), 50);
        assert_eq!(r.p99_us(), 1000);
        assert_eq!(r.percentile_us(0.0), 10);
        assert_eq!(r.percentile_us(1.0), 1000);

        let empty = Report::default();
        assert_eq!(empty.p50_us(), 0);
    }

    #[test]
    fn merge_accumulates_and_keeps_the_longest_elapsed() {
        let mut a = Report::default();
        a.record(Outcome::Ok, 5);
        a.elapsed = Duration::from_secs(1);
        let mut b = Report::default();
        b.record(Outcome::Ok, 3);
        b.record(Outcome::Busy, 0);
        b.elapsed = Duration::from_secs(3);
        a.merge(b);
        a.finalize();
        assert_eq!(a.attempted, 3);
        assert_eq!(a.ok, 2);
        assert_eq!(a.busy, 1);
        assert_eq!(a.elapsed, Duration::from_secs(3));
        assert_eq!(a.latencies_us, vec![3, 5]);
    }
}
