//! **Algorithm 6 accuracy** — the fast approximation vs the exact
//! Algorithm 5 across cardinalities and `n/m` skew ratios, including the
//! paper's note that it "generally underestimates collisions" and the
//! `φ = 4(n/m)/(1+n/m)²` skew law.

use super::Config;
use crate::table::{fnum, Table};
use hmh_core::collisions::{approx_expected_collisions, expected_collisions};
use hmh_core::HmhParams;

/// Run the comparison grid.
pub fn run(cfg: &Config) -> Table {
    let params = HmhParams::new(12, 6, 10).expect("valid");
    let mut table = Table::new(
        format!("Algorithm 6 vs Algorithm 5, {params}"),
        &["n", "m", "exact(Alg5)", "approx(Alg6)", "approx/exact"],
    );
    let exps: Vec<i32> =
        if cfg.quick { vec![4, 10, 16] } else { vec![3, 4, 6, 8, 10, 12, 14, 16, 18] };
    for e in exps {
        for ratio_exp in [0, 2, 6] {
            let n = 10f64.powi(e);
            let m = n / 2f64.powi(ratio_exp);
            if m < 1.0 {
                continue;
            }
            let exact = expected_collisions(params, n, m);
            match approx_expected_collisions(params, n, m) {
                Ok(approx) => table.push_row(vec![
                    format!("1e{e}"),
                    fnum(m),
                    fnum(exact),
                    fnum(approx),
                    fnum(approx / exact),
                ]),
                Err(_) => table.push_row(vec![
                    format!("1e{e}"),
                    fnum(m),
                    fnum(exact),
                    "too-large".into(),
                    "-".into(),
                ]),
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approximation_tracks_exact_within_35_percent() {
        let t = run(&Config::smoke());
        let mut checked = 0;
        for row in 0..t.num_rows() {
            if t.cell(row, t.col("approx/exact")) == "-" {
                continue;
            }
            let ratio = t.cell_f64(row, t.col("approx/exact"));
            assert!((0.6..=1.4).contains(&ratio), "row {row}: approx/exact = {ratio}");
            checked += 1;
        }
        assert!(checked >= 5);
    }
}
