//! **§1.3–1.4 b-bit MinHash comparison** — two claims:
//!
//! 1. For plain two-set Jaccard, b-bit MinHash matches HyperMinHash at
//!    similar byte budgets (both are ~`O(ε⁻²)` fingerprints there).
//! 2. b-bit MinHash "sketches cannot be merged together" — composed
//!    queries like `|(A ∪ B) ∩ C|` are impossible. We demonstrate by
//!    evaluating that query with HyperMinHash (works) and with the naive
//!    register-wise-min "merge" of b-bit fingerprints (garbage): the
//!    low bits of two minima say nothing about the low bits of the min.

use super::Config;
use crate::table::{fnum, Table};
use hmh_core::HmhParams;
use hmh_hash::RandomOracle;
use hmh_math::stats::relative_error;
use hmh_math::Welford;
use hmh_minhash::{BBitMinHash, KHashMinHash};
use hmh_workloads::pairs::{pair_with_overlap, OverlapSpec};

/// Pairwise accuracy: b-bit (k=2048, b=2 → 512 B) vs HyperMinHash
/// (p=8, q=6, r=10 → 512 B), inserted sets (not simulated — b-bit needs
/// full-width construction, which is part of the point).
pub fn run_pairwise(cfg: &Config) -> Table {
    let hmh_params = HmhParams::new(8, 6, 10).expect("valid");
    let (k, b) = (2048usize, 2u32);
    let n = 20_000u64;
    let mut table = Table::new(
        "Pairwise Jaccard: b-bit MinHash (2048×2b = 512 B) vs HyperMinHash (2^8×16b = 512 B), n = 20k",
        &["jaccard", "bbit_re", "hmh_re"],
    );
    let targets: Vec<f64> =
        if cfg.quick { vec![0.1, 0.5] } else { vec![0.05, 0.1, 0.2, 0.333, 0.5, 0.8] };
    let trials = cfg.trials.min(8); // insertion-heavy (k-hash MinHash is Θ(nk))
    for (i, t) in targets.into_iter().enumerate() {
        let spec = OverlapSpec::equal_sized_with_jaccard(n, t);
        let truth = spec.jaccard();
        let (mut bb_err, mut hmh_err) = (Welford::new(), Welford::new());
        for trial in 0..trials {
            let seed = cfg.seed ^ (i as u64 * 131 + trial);
            let (items_a, items_b) = pair_with_overlap(spec, seed);
            let oracle = RandomOracle::with_seed(seed);

            let mut mh_a = KHashMinHash::new(k, oracle);
            let mut mh_b = KHashMinHash::new(k, oracle);
            let mut hmh_a = hmh_core::HyperMinHash::with_oracle(hmh_params, oracle);
            let mut hmh_b = hmh_core::HyperMinHash::with_oracle(hmh_params, oracle);
            for &x in &items_a {
                mh_a.insert(&x);
                hmh_a.insert(&x);
            }
            for &x in &items_b {
                mh_b.insert(&x);
                hmh_b.insert(&x);
            }
            let fa = BBitMinHash::from_minhash(&mh_a, b);
            let fb = BBitMinHash::from_minhash(&mh_b, b);
            bb_err.add(relative_error(fa.jaccard(&fb).expect("same build"), truth));
            let est = hmh_a.jaccard(&hmh_b).expect("same params");
            hmh_err.add(relative_error(est.estimate, truth));
        }
        table.push_row(vec![fnum(truth), fnum(bb_err.mean()), fnum(hmh_err.mean())]);
    }
    table
}

/// Composability: evaluate `|(A ∪ B) ∩ C|` with HyperMinHash vs the naive
/// b-bit "merge" (register-wise min of fingerprints — the only merge a
/// fingerprint admits, and a wrong one).
pub fn run_composition(cfg: &Config) -> Table {
    let hmh_params = HmhParams::new(10, 6, 10).expect("valid");
    let n = 30_000u64;
    // A = [0, n), B = [n/2, 3n/2), C = [n, 2n):
    // A∪B = [0, 3n/2); (A∪B) ∩ C = [n, 3n/2) → n/2.
    let truth = n as f64 / 2.0;
    let (k, b) = (2048usize, 4u32);
    let mut table = Table::new(
        "Composed query |(A∪B) ∩ C|, truth = n/2: HyperMinHash vs naive b-bit merge",
        &["trial", "hmh_estimate", "hmh_re", "bbit_naive_jaccard", "bbit_note"],
    );
    let trials = cfg.trials.min(6);
    for trial in 0..trials {
        let oracle = RandomOracle::with_seed(cfg.seed ^ (trial + 77));
        let mut hmh = [
            hmh_core::HyperMinHash::with_oracle(hmh_params, oracle),
            hmh_core::HyperMinHash::with_oracle(hmh_params, oracle),
            hmh_core::HyperMinHash::with_oracle(hmh_params, oracle),
        ];
        let mut mh = [
            KHashMinHash::new(k, oracle),
            KHashMinHash::new(k, oracle),
            KHashMinHash::new(k, oracle),
        ];
        let ranges = [(0, n), (n / 2, 3 * n / 2), (n, 2 * n)];
        for (idx, &(lo, hi)) in ranges.iter().enumerate() {
            for x in lo..hi {
                hmh[idx].insert(&x);
                mh[idx].insert(&x);
            }
        }
        // HyperMinHash: union then intersect — the supported path.
        let ab = hmh[0].union(&hmh[1]).expect("same params");
        let est = ab.intersection(&hmh[2]).expect("same params");

        // b-bit: fingerprints of A and B, then the only "merge" available
        // — register-wise min of the b-bit values — then Jaccard vs C's
        // fingerprint. The true Jaccard((A∪B), C) = (n/2)/2n = 0.25.
        let fa = BBitMinHash::from_minhash(&mh[0], b);
        let fb = BBitMinHash::from_minhash(&mh[1], b);
        let fc = BBitMinHash::from_minhash(&mh[2], b);
        let naive = naive_bbit_merge_jaccard(&fa, &fb, &fc);

        table.push_row(vec![
            format!("{trial}"),
            fnum(est.intersection),
            fnum(relative_error(est.intersection, truth)),
            fnum(naive),
            "true J((A∪B),C)=0.25".into(),
        ]);
    }
    table
}

/// The wrong merge a b-bit fingerprint forces: register-wise min of the
/// truncated values, compared against the third fingerprint.
fn naive_bbit_merge_jaccard(a: &BBitMinHash, b: &BBitMinHash, c: &BBitMinHash) -> f64 {
    // Reconstruct registers through the public API: jaccard() only gives
    // the corrected match rate, so recompute from a merged clone. The
    // BBitMinHash type deliberately offers no union; we model the naive
    // attempt here in the experiment instead.
    let k = a.k();
    let mut matches = 0usize;
    for i in 0..k {
        let merged = a.register(i).min(b.register(i));
        if merged == c.register(i) {
            matches += 1;
        }
    }
    let m = matches as f64 / k as f64;
    let coll = 2f64.powi(-(a.b() as i32));
    ((m - coll) / (1.0 - coll)).clamp(0.0, 1.0)
}

/// Run both parts.
pub fn run(cfg: &Config) -> Vec<Table> {
    vec![run_pairwise(cfg), run_composition(cfg)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bbit_matches_hmh_pairwise_but_fails_composition() {
        let cfg = Config { trials: 4, seed: 21, quick: true };
        let pairwise = run_pairwise(&cfg);
        for row in 0..pairwise.num_rows() {
            let bb = pairwise.cell_f64(row, pairwise.col("bbit_re"));
            let hmh = pairwise.cell_f64(row, pairwise.col("hmh_re"));
            // Same ballpark pairwise (within 4x either way at smoke scale).
            assert!(
                bb < 4.0 * hmh.max(0.02) && hmh < 4.0 * bb.max(0.02),
                "row {row}: bbit {bb} vs hmh {hmh}"
            );
        }

        let comp = run_composition(&cfg);
        for row in 0..comp.num_rows() {
            let hmh_re = comp.cell_f64(row, comp.col("hmh_re"));
            assert!(hmh_re < 0.15, "HMH composed query error {hmh_re}");
            let naive = comp.cell_f64(row, comp.col("bbit_naive_jaccard"));
            // Truth is 0.25; the naive merge lands systematically far off
            // (>20% relative error — the low bits of two minima carry no
            // information about the low bits of the min), while the HMH
            // path above stays within its sampling noise.
            assert!(
                (naive / 0.25 - 1.0).abs() > 0.2,
                "naive b-bit merge accidentally worked: {naive}"
            );
            assert!(
                hmh_re < (naive / 0.25 - 1.0).abs(),
                "HMH ({hmh_re}) must beat the naive merge ({naive})"
            );
        }
    }
}
