//! The overload sweep: measure closed-loop peak, then apply open-loop
//! offered load at multiples of it and check graceful degradation.

use std::net::SocketAddr;
use std::time::Duration;

use crate::report::Report;
use crate::run::{run, LoadOptions, LoadgenError, Pacing};

/// Interleaved serial/pipelined calibration pairs a pipelined sweep
/// runs; the speed-up is the median of their ratios. One back-to-back
/// pair of 2 s windows read anywhere from 1.11x to 1.73x on one commit
/// of one machine, so a single pair cannot carry a threshold.
const SPEEDUP_PAIRS: usize = 5;

/// Sweep configuration. Everything not listed here is taken from the
/// embedded [`LoadOptions`] base (seed, mix, keys, timeouts, budget).
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Base phase configuration; the calibration phase runs it as-is
    /// under closed pacing.
    pub base: LoadOptions,
    /// Offered-load multipliers applied to the measured peak, in
    /// order. The degradation contract is checked at the last (the
    /// deepest overload).
    pub multipliers: Vec<u32>,
    /// Extra connections per multiplier step: overload phase `m` runs
    /// with `base.connections × m` connections (capped at
    /// [`SweepOptions::max_connections`]) so the schedule can actually
    /// be offered while ops block.
    pub max_connections: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self { base: LoadOptions::default(), multipliers: vec![1, 2, 4], max_connections: 16 }
    }
}

/// One overload phase's result.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Offered load as a multiple of the measured peak.
    pub multiplier: u32,
    /// The scheduled (offered) operation rate, ops/sec.
    pub offered_ops_per_sec: f64,
    /// Connections used for this phase.
    pub connections: usize,
    /// The measured phase report.
    pub report: Report,
}

/// The whole sweep: calibration plus one row per multiplier.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Master seed the op streams derive from.
    pub seed: u64,
    /// Wall-clock duty of each phase, seconds.
    pub duty_secs: f64,
    /// Logical CPUs of the driving machine (a single-core box
    /// serializes generator and server; peak numbers are not
    /// comparable across different counts).
    pub cpus: usize,
    /// Pipeline depth the overload rows ran at (1 = serial).
    pub pipeline_depth: usize,
    /// Calibration phase (closed loop at base concurrency), always
    /// measured *unpipelined* so the serial baseline is printed next to
    /// the pipelined one at any depth. In a pipelined sweep, the serial
    /// half of the median pair.
    pub peak: Report,
    /// Second calibration at [`Sweep::pipeline_depth`] frames in
    /// flight; present only when the sweep ran with depth > 1. The
    /// pipelined half of the pair whose ratio is the median of
    /// [`Sweep::pair_speedups`], so it prices what pipelining buys on
    /// this machine.
    pub peak_pipelined: Option<Report>,
    /// Pipelined-over-serial goodput ratio of each interleaved
    /// calibration pair, in run order; empty for a serial sweep.
    pub pair_speedups: Vec<f64>,
    /// Overload phases, in multiplier order.
    pub rows: Vec<SweepRow>,
}

impl Sweep {
    /// The effective peak goodput the overload rows are priced
    /// against, ops/sec: the pipelined calibration when one ran,
    /// otherwise the serial one.
    pub fn peak_goodput(&self) -> f64 {
        self.peak_pipelined.as_ref().unwrap_or(&self.peak).goodput()
    }

    /// Pipelined-over-serial goodput ratio of the median pair, when
    /// both calibrations ran.
    pub fn pipeline_speedup(&self) -> Option<f64> {
        let pipelined = self.peak_pipelined.as_ref()?;
        Some(pipelined.goodput() / self.peak.goodput().max(1e-9))
    }

    /// Render the sweep as the `BENCH_serve.json` artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"experiment\": \"serve_overload\",\n");
        out.push_str(&format!("  \"cpus\": {},\n", self.cpus));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"duty_secs\": {},\n", fmt_f64(self.duty_secs)));
        out.push_str(&format!("  \"pipeline_depth\": {},\n", self.pipeline_depth));
        out.push_str(&format!(
            "  \"peak\": {{\"goodput_ops_per_sec\": {}, \"p50_us\": {}, \"p99_us\": {}}},\n",
            fmt_f64(self.peak.goodput()),
            self.peak.p50_us(),
            self.peak.p99_us()
        ));
        if let Some(pipelined) = &self.peak_pipelined {
            out.push_str(&format!(
                "  \"peak_pipelined\": {{\"goodput_ops_per_sec\": {}, \"p50_us\": {}, \
                 \"p99_us\": {}}},\n",
                fmt_f64(pipelined.goodput()),
                pipelined.p50_us(),
                pipelined.p99_us()
            ));
            out.push_str(&format!(
                "  \"pipeline_speedup\": {},\n",
                fmt_f64(self.pipeline_speedup().unwrap_or(0.0))
            ));
            let pairs: Vec<String> = self.pair_speedups.iter().map(|&r| fmt_f64(r)).collect();
            out.push_str(&format!("  \"pair_speedups\": [{}],\n", pairs.join(", ")));
        }
        out.push_str("  \"sweep\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let r = &row.report;
            out.push_str(&format!(
                "    {{\"multiplier\": {}, \"connections\": {}, \
                 \"offered_ops_per_sec\": {}, \"goodput_ops_per_sec\": {}, \
                 \"goodput_vs_peak\": {}, \"p50_us\": {}, \"p99_us\": {}, \
                 \"ok\": {}, \"busy\": {}, \"expired\": {}, \"retry_exhausted\": {}, \
                 \"unavailable\": {}, \"typed_other\": {}, \"transport\": {}}}{}\n",
                row.multiplier,
                row.connections,
                fmt_f64(row.offered_ops_per_sec),
                fmt_f64(r.goodput()),
                fmt_f64(r.goodput() / self.peak_goodput().max(1e-9)),
                r.p50_us(),
                r.p99_us(),
                r.ok,
                r.busy,
                r.expired,
                r.retry_exhausted,
                r.unavailable,
                r.typed_other,
                r.transport,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// JSON-safe float: finite, fixed precision, no scientific notation.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "0.0".to_string()
    }
}

/// Run the full sweep against `addr`.
///
/// Phase order: one closed-loop *serial* calibration at base
/// concurrency; when `base.pipeline > 1`, `SPEEDUP_PAIRS` pairs of a
/// serial and a pipelined closed-loop calibration, interleaved so drift
/// hits both halves alike, of which the pair with the median ratio
/// supplies both peaks; then one open-loop phase per multiplier
/// offering `multiplier × effective peak` scheduled ops/sec from
/// `base.connections × multiplier` connections, all at `base.pipeline`
/// frames in flight.
pub fn sweep(addr: SocketAddr, opts: &SweepOptions) -> Result<Sweep, LoadgenError> {
    if opts.multipliers.is_empty() {
        return Err(LoadgenError::Config("the sweep needs at least one multiplier".into()));
    }
    if opts.multipliers.contains(&0) {
        return Err(LoadgenError::Config("multiplier 0 offers no load".into()));
    }
    let calibration = LoadOptions { pacing: Pacing::Closed, pipeline: 1, ..opts.base.clone() };
    let deep = LoadOptions { pacing: Pacing::Closed, ..opts.base.clone() };
    let pipelined = opts.base.pipeline > 1;
    let pair_count = if pipelined { SPEEDUP_PAIRS } else { 1 };
    let mut pairs = Vec::with_capacity(pair_count);
    for _ in 0..pair_count {
        let serial = run(addr, &calibration)?;
        if serial.ok == 0 {
            return Err(LoadgenError::Config(
                "calibration measured zero goodput; nothing to sweep against".into(),
            ));
        }
        let deep = if pipelined { Some(run(addr, &deep)?) } else { None };
        if deep.as_ref().is_some_and(|r| r.ok == 0) {
            return Err(LoadgenError::Config(
                "pipelined calibration measured zero goodput; nothing to sweep against".into(),
            ));
        }
        pairs.push((serial, deep));
    }
    let ratio = |(serial, deep): &(Report, Option<Report>)| {
        deep.as_ref().map_or(1.0, Report::goodput) / serial.goodput().max(1e-9)
    };
    let pair_speedups: Vec<f64> =
        if pipelined { pairs.iter().map(ratio).collect() } else { Vec::new() };
    // The median pair (the count is odd) supplies both peaks, so the
    // printed peaks and the speed-up always come from one pair.
    pairs.sort_by(|a, b| ratio(a).total_cmp(&ratio(b)));
    let (peak, peak_pipelined) = pairs.swap_remove(pair_count / 2);
    let peak_rate = peak_pipelined.as_ref().unwrap_or(&peak).goodput();

    let mut rows = Vec::with_capacity(opts.multipliers.len());
    for &multiplier in &opts.multipliers {
        let connections = opts
            .base
            .connections
            .saturating_mul(multiplier as usize)
            .clamp(1, opts.max_connections.max(1));
        let offered = peak_rate * f64::from(multiplier);
        let phase = LoadOptions {
            connections,
            pacing: Pacing::Open { ops_per_sec: offered },
            // Decorrelate each phase's op stream while keeping the
            // whole sweep a pure function of the master seed.
            seed: opts.base.seed.wrapping_add(u64::from(multiplier)),
            ..opts.base.clone()
        };
        let report = run(addr, &phase)?;
        rows.push(SweepRow { multiplier, offered_ops_per_sec: offered, connections, report });
    }
    Ok(Sweep {
        seed: opts.base.seed,
        duty_secs: opts.base.duty.as_secs_f64(),
        cpus: std::thread::available_parallelism().map_or(1, usize::from),
        pipeline_depth: opts.base.pipeline,
        peak,
        peak_pipelined,
        pair_speedups,
        rows,
    })
}

/// Check the graceful-degradation contract and describe the first
/// violation.
///
/// * **Goodput band**: at the deepest overload, goodput ≥ `band` ×
///   peak. A metastable collapse (retry storms, dead work) shows up
///   here as goodput falling off a cliff as offered load grows.
/// * **Typed rejections**: untyped transport failures stay under 1% of
///   attempts per phase (the shed race — a RST overtaking the BUSY
///   frame on a loopback socket — makes a hard zero flaky; a service
///   *collapsing* into resets blows far past 1%).
/// * **Bounded wall clock**: every phase finished within its duty plus
///   the client-timeout tail — the harness never hung.
pub fn degradation_ok(sweep: &Sweep, band: f64) -> Result<(), String> {
    let peak_rate = sweep.peak_goodput();
    let tail = Duration::from_secs_f64(sweep.duty_secs) + Duration::from_secs(10);
    if sweep.peak.elapsed > tail {
        return Err(format!(
            "calibration overran its duty: {:?} vs {:?} allowed",
            sweep.peak.elapsed, tail
        ));
    }
    for row in &sweep.rows {
        let r = &row.report;
        let untyped_cap = r.attempted / 100;
        if r.untyped_failures() > untyped_cap {
            return Err(format!(
                "at {}x offered load, {} of {} ops failed untyped (cap {}): \
                 overload is leaking transport errors instead of typed rejections",
                row.multiplier,
                r.untyped_failures(),
                r.attempted,
                untyped_cap
            ));
        }
        if r.elapsed > tail {
            return Err(format!(
                "at {}x offered load the phase overran: {:?} vs {:?} allowed (a hang)",
                row.multiplier, r.elapsed, tail
            ));
        }
    }
    let deepest = sweep.rows.last().ok_or_else(|| "empty sweep".to_string())?;
    let ratio = deepest.report.goodput() / peak_rate.max(1e-9);
    if ratio < band {
        return Err(format!(
            "goodput collapsed under overload: {:.1}% of peak at {}x offered load \
             (contract: >= {:.0}%)",
            ratio * 100.0,
            deepest.multiplier,
            band * 100.0
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Outcome;

    fn phase(ok: u64, busy: u64, transport: u64, secs: u64) -> Report {
        let mut r = Report::default();
        for _ in 0..ok {
            r.record(Outcome::Ok, 100);
        }
        for _ in 0..busy {
            r.record(Outcome::Busy, 0);
        }
        for _ in 0..transport {
            r.record(Outcome::Transport, 0);
        }
        r.elapsed = Duration::from_secs(secs);
        r.finalize();
        r
    }

    fn sweep_of(peak: Report, rows: Vec<(u32, Report)>) -> Sweep {
        Sweep {
            seed: 7,
            duty_secs: 2.0,
            cpus: 1,
            pipeline_depth: 1,
            peak,
            peak_pipelined: None,
            pair_speedups: Vec::new(),
            rows: rows
                .into_iter()
                .map(|(multiplier, report)| SweepRow {
                    multiplier,
                    offered_ops_per_sec: 0.0,
                    connections: 1,
                    report,
                })
                .collect(),
        }
    }

    #[test]
    fn contract_passes_on_graceful_degradation() {
        // Peak 500 ops/s; at 4x the service sheds typed and keeps 80%.
        let s = sweep_of(
            phase(1000, 0, 0, 2),
            vec![(1, phase(950, 50, 0, 2)), (4, phase(800, 2400, 0, 2))],
        );
        assert_eq!(degradation_ok(&s, 0.7), Ok(()));
    }

    #[test]
    fn contract_fails_on_goodput_collapse() {
        let s = sweep_of(phase(1000, 0, 0, 2), vec![(4, phase(100, 3000, 0, 2))]);
        let err = degradation_ok(&s, 0.7).unwrap_err();
        assert!(err.contains("collapsed"), "{err}");
        assert!(err.contains("4x"), "{err}");
    }

    #[test]
    fn contract_fails_on_untyped_leakage() {
        // 10% of ops failing with resets is a collapse even if goodput
        // stays high.
        let s = sweep_of(phase(1000, 0, 0, 2), vec![(4, phase(900, 0, 100, 2))]);
        let err = degradation_ok(&s, 0.7).unwrap_err();
        assert!(err.contains("untyped"), "{err}");
    }

    #[test]
    fn contract_tolerates_the_rare_shed_race() {
        // Under 1% transport errors is the documented allowance.
        let s = sweep_of(phase(1000, 0, 0, 2), vec![(4, phase(995, 200, 5, 2))]);
        assert_eq!(degradation_ok(&s, 0.7), Ok(()));
    }

    #[test]
    fn contract_fails_on_a_hung_phase() {
        let s = sweep_of(phase(1000, 0, 0, 2), vec![(4, phase(900, 0, 0, 600))]);
        let err = degradation_ok(&s, 0.7).unwrap_err();
        assert!(err.contains("overran"), "{err}");
    }

    #[test]
    fn pipelined_calibration_sets_the_effective_peak() {
        let mut s = sweep_of(phase(1000, 0, 0, 2), vec![(4, phase(1600, 2400, 0, 2))]);
        s.pipeline_depth = 8;
        s.peak_pipelined = Some(phase(2000, 0, 0, 2));
        s.pair_speedups = vec![2.5, 2.0, 1.5];
        // The serial calibration stays reported as `peak`, but the
        // effective peak — what the rows were priced against — is the
        // pipelined one.
        assert!((s.peak.goodput() - 500.0).abs() < 1e-9);
        assert!((s.peak_goodput() - 1000.0).abs() < 1e-9);
        assert!((s.pipeline_speedup().expect("speedup") - 2.0).abs() < 1e-9);
        let json = s.to_json();
        assert!(json.contains("\"pipeline_depth\": 8"));
        assert!(json.contains("\"peak_pipelined\""));
        assert!(json.contains("\"pipeline_speedup\": 2.0000"));
        assert!(json.contains("\"pair_speedups\": [2.5000, 2.0000, 1.5000]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Degradation prices against the effective peak: 800/1000.
        assert_eq!(degradation_ok(&s, 0.7), Ok(()));
    }

    #[test]
    fn serial_sweeps_omit_the_pipelined_block() {
        let s = sweep_of(phase(1000, 0, 0, 2), vec![(4, phase(800, 0, 0, 2))]);
        assert!(s.pipeline_speedup().is_none());
        let json = s.to_json();
        assert!(json.contains("\"pipeline_depth\": 1"));
        assert!(!json.contains("peak_pipelined"));
        assert!(!json.contains("pipeline_speedup"));
        assert!(!json.contains("pair_speedups"));
    }

    #[test]
    fn json_is_balanced_and_carries_the_degradation_fields() {
        let s = sweep_of(
            phase(1000, 0, 0, 2),
            vec![(1, phase(950, 50, 0, 2)), (4, phase(800, 2400, 1, 2))],
        );
        let json = s.to_json();
        assert!(json.contains("\"experiment\": \"serve_overload\""));
        assert!(json.contains("\"cpus\": 1"));
        assert!(json.contains("\"goodput_vs_peak\""));
        assert!(json.contains("\"expired\""));
        assert!(json.contains("\"transport\""));
        assert!(json.contains("\"multiplier\": 4"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // Floats render plain: no NaN/inf, no scientific notation.
        for bad in ["NaN", "inf", "e-", "e+"] {
            assert!(!json.contains(bad), "{bad} leaked into {json}");
        }
    }
}
