//! **§1.3 at the query level** — CNF evaluation strategies compared:
//! the k-way register-agreement method (what HyperMinHash uniquely
//! enables) vs inclusion–exclusion over clause-union cardinalities (what
//! any mergeable count-distinct sketch can do).
//!
//! The paper: with inclusion–exclusion "the relative error is then in the
//! size of the union … and compounds when taking the intersections of
//! multiple sets". Both effects are measured: the error gap grows as the
//! result shrinks, and again when a third clause is added.

use super::Config;
use crate::table::{fnum, Table};
use hmh_cnf::ast::CnfQuery;
use hmh_cnf::eval::{evaluate, evaluate_inclusion_exclusion};
use hmh_cnf::SketchCatalog;
use hmh_core::{HmhParams, HyperMinHash};
use hmh_hash::RandomOracle;
use hmh_math::stats::relative_error;
use hmh_math::Welford;

/// Two- and three-clause AND queries over inserted sets with controlled
/// overlap; relative error of each evaluation strategy.
pub fn run(cfg: &Config) -> Table {
    let params = HmhParams::new(11, 6, 10).expect("valid");
    let n = 100_000u64;
    let mut table = Table::new(
        "CNF evaluation: k-way registers vs inclusion-exclusion (|each set| = 100k)",
        &["clauses", "result_fraction", "truth", "kway_re", "ie_re"],
    );
    let fractions: Vec<f64> =
        if cfg.quick { vec![0.01, 0.1] } else { vec![0.003, 0.01, 0.03, 0.1, 0.3] };
    let trials = cfg.trials.min(8);
    for (fi, frac) in fractions.iter().enumerate() {
        for clauses in [2usize, 3] {
            // Sliding windows: clause i covers [i·d, i·d + n); the k-way
            // intersection is [ (k−1)·d, n ) with size n − (k−1)·d.
            // Choose d so the intersection is `frac` of each set.
            let inter = (*frac * n as f64) as u64;
            let d = (n - inter) / (clauses as u64 - 1);
            let truth = (n - (clauses as u64 - 1) * d) as f64;
            let (mut kway, mut ie) = (Welford::new(), Welford::new());
            for t in 0..trials {
                let oracle =
                    RandomOracle::with_seed(cfg.seed ^ (fi as u64 * 100 + clauses as u64 * 10 + t));
                let mut cat = SketchCatalog::with_oracle(params, oracle);
                let mut names = Vec::new();
                for c in 0..clauses as u64 {
                    let mut s = HyperMinHash::with_oracle(params, oracle);
                    for x in (c * d)..(c * d + n) {
                        s.insert(&x);
                    }
                    let name = format!("s{c}");
                    cat.adopt(name.clone(), s).expect("compatible");
                    names.push(name);
                }
                let query =
                    CnfQuery::new(names.iter().map(|n| vec![n.clone()])).expect("non-empty");
                kway.add(relative_error(evaluate(&cat, &query).expect("evaluates").count, truth));
                ie.add(relative_error(
                    evaluate_inclusion_exclusion(&cat, &query).expect("evaluates"),
                    truth,
                ));
            }
            table.push_row(vec![
                format!("{clauses}"),
                fnum(*frac),
                fnum(truth),
                fnum(kway.mean()),
                fnum(ie.mean()),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kway_beats_ie_on_small_results_and_ie_compounds() {
        let cfg = Config { trials: 5, seed: 31, quick: true };
        let t = run(&cfg);
        let (kway, ie) = (t.col("kway_re"), t.col("ie_re"));
        // Smallest fraction, 2 clauses (row 0): k-way clearly better.
        assert!(
            t.cell_f64(0, kway) < t.cell_f64(0, ie),
            "kway {} vs ie {}",
            t.cell_f64(0, kway),
            t.cell_f64(0, ie)
        );
        // Compounding: 3-clause IE at the small fraction is no better
        // than 2-clause IE (more terms, each with union-scale error).
        assert!(t.cell_f64(1, ie) * 3.0 > t.cell_f64(0, ie));
        // k-way stays usable everywhere.
        for row in 0..t.num_rows() {
            assert!(t.cell_f64(row, kway) < 1.0, "row {row}");
        }
    }
}
