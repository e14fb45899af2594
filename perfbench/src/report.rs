//! Run lengths, percentiles and the one-line JSON result.

use std::time::Duration;

/// How long a run is: a fixed number of rounds of its op list (cut
/// short only past a time cap, so a much slower build still finishes),
/// or whole rounds until a time has passed.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    Rounds { rounds: usize, cap: Duration },
    Time(Duration),
}

impl Length {
    /// Rounds that take about `seconds` at `rounds_per_second`, capped
    /// at 1.25 times `seconds`, which keeps a run in a slow phase of the
    /// machine within the time all runs are allowed.
    pub fn rounds(seconds: f64, rounds_per_second: f64) -> Self {
        let rounds = ((seconds * rounds_per_second).round() as usize).max(1);
        Length::Rounds { rounds, cap: Duration::from_secs_f64(seconds * 1.25) }
    }

    pub fn done(self, rounds: usize, elapsed: Duration) -> bool {
        match self {
            Length::Rounds { rounds: n, cap } => rounds >= n || elapsed >= cap,
            Length::Time(d) => elapsed >= d,
        }
    }
}

/// Samples a latency window holds at least: enough for ten beyond the
/// 99th percentile.
const WINDOW_SAMPLES: usize = 1000;

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
pub fn percentile(values: &mut [u64], pct: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((pct / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median; 0 when empty.
pub fn median_f64(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metrics in the order they were added.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The result line: `attempted` ops of which `failed` were refused.
    pub fn to_json(&self, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// `pct` percentile within each window of consecutive rounds holding at
/// least [`WINDOW_SAMPLES`] samples, and the median over the windows: a
/// stall that hits one window moves one window's value, not the result.
pub fn windowed_percentile(by_round: &[Vec<u64>], pct: f64) -> f64 {
    let mut windows: Vec<Vec<u64>> = Vec::new();
    let mut current = Vec::new();
    for round in by_round {
        current.extend_from_slice(round);
        if current.len() >= WINDOW_SAMPLES {
            windows.push(std::mem::take(&mut current));
        }
    }
    match windows.last_mut() {
        Some(last) => last.extend(current),
        None => windows.push(current),
    }
    median_f64(windows.iter_mut().map(|w| percentile(w, pct) as f64).collect())
}

/// Median of the per-round rates, where round `r` did `ops[r]` ops in
/// `ns[r]` nanoseconds.
pub fn rate_per_s(ops: &[usize], ns: &[u64]) -> f64 {
    median_f64(ops.iter().zip(ns).map(|(&o, &t)| o as f64 / (t as f64 / 1e9)).collect())
}

/// Latency metrics in µs from latencies in ns grouped by round: median
/// and 99th percentile of all ops, 99th percentile of reads, median of
/// writes. Two are left out because they move far more from run to run
/// than any bound could allow: the median of reads, which in a mix of
/// fast and slow read kinds falls where their distributions meet, and
/// the 99th percentile of writes, which follows the disk's `fsync` tail.
pub fn latency_metrics(m: &mut Metrics, all: &[Vec<u64>], reads: &[Vec<u64>], writes: &[Vec<u64>]) {
    for (label, by_round) in [("", all), ("read_", reads), ("write_", writes)] {
        let n: usize = by_round.iter().map(Vec::len).sum();
        eprintln!("{label}samples: {n} in {} rounds", by_round.len());
    }
    for (name, by_round, pct) in [
        ("p50_us", all, 50.0),
        ("p99_us", all, 99.0),
        ("read_p99_us", reads, 99.0),
        ("write_p50_us", writes, 50.0),
    ] {
        m.add(name, windowed_percentile(by_round, pct) / 1e3, "us");
    }
}
