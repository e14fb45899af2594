//! CNF query evaluation over a sketch catalog.
//!
//! Pipeline, per the paper's §5 pitch:
//!
//! 1. **OR-clauses → unions.** Each clause's sketches merge losslessly
//!    (Algorithm 2), producing one sketch per clause.
//! 2. **AND → k-way agreement.** The fraction of buckets on which all
//!    clause sketches agree estimates `|∩ clauses| / |∪ clauses|`;
//!    multiplied by the union cardinality (Algorithm 3 on the merged
//!    sketch) this gives the intersection count with error relative to the
//!    *result*, not the universe.
//!
//! For two clauses the pairwise collision-corrected Jaccard (Algorithm 4)
//! is used; for `k > 2` the uncorrected k-way rate (see
//! `hmh_core::intersect::jaccard_many`).
//!
//! [`evaluate`] also reports the inclusion–exclusion union bound to make
//! the error structure visible in examples and experiments.

use crate::ast::CnfQuery;
use crate::catalog::SketchCatalog;
use crate::error::CnfError;
use hmh_core::intersect;
use hmh_core::HyperMinHash;

/// The answer to a CNF query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// Estimated cardinality of the query result (the AND of the clauses).
    pub count: f64,
    /// Estimated k-way Jaccard of the clauses (`1.0` for a single clause).
    pub jaccard: f64,
    /// Estimated cardinality of the union of all clauses.
    pub union: f64,
    /// Per-clause cardinality estimates, in query order.
    pub clause_counts: Vec<f64>,
}

/// Evaluate `query` against `catalog`.
pub fn evaluate(catalog: &SketchCatalog, query: &CnfQuery) -> Result<QueryAnswer, CnfError> {
    let clause_sketches: Vec<HyperMinHash> = query
        .clauses()
        .iter()
        .map(|clause| clause_union(catalog, clause))
        .collect::<Result<_, _>>()?;
    let clause_counts: Vec<f64> = clause_sketches.iter().map(HyperMinHash::cardinality).collect();

    match clause_sketches.as_slice() {
        [] => Err(CnfError::EmptyQuery),
        [single] => {
            let count = single.cardinality();
            Ok(QueryAnswer { count, jaccard: 1.0, union: count, clause_counts })
        }
        [a, b] => {
            let est = a.intersection(b)?;
            Ok(QueryAnswer {
                count: est.intersection,
                jaccard: est.jaccard,
                union: est.union,
                clause_counts,
            })
        }
        many => {
            let refs: Vec<&HyperMinHash> = many.iter().collect();
            let est = intersect::intersection_many(&refs)?;
            Ok(QueryAnswer {
                count: est.intersection,
                jaccard: est.jaccard,
                union: est.union,
                clause_counts,
            })
        }
    }
}

/// Parse-and-evaluate convenience.
pub fn query(catalog: &SketchCatalog, text: &str) -> Result<QueryAnswer, CnfError> {
    evaluate(catalog, &crate::parser::parse(text)?)
}

/// Evaluate `query` by inclusion–exclusion over clause-union
/// cardinalities: `|∩ᵢ Cᵢ| = Σ_{∅≠S} (−1)^{|S|+1} |∪_{i∈S} Cᵢ|`.
///
/// This is the strategy available to *any* mergeable count-distinct
/// sketch (plain HyperLogLog included) and exists as the baseline the
/// paper criticizes: every term carries error relative to a **union**,
/// and the alternating sum "compounds when taking the intersections of
/// multiple sets" (§1.3). [`evaluate`]'s k-way register method keeps the
/// error relative to the result instead — the `cnf-ie` experiment
/// measures the gap.
///
/// Exponential in the clause count; refused beyond 12 clauses.
pub fn evaluate_inclusion_exclusion(
    catalog: &SketchCatalog,
    query: &CnfQuery,
) -> Result<f64, CnfError> {
    let clause_sketches: Vec<HyperMinHash> = query
        .clauses()
        .iter()
        .map(|clause| clause_union(catalog, clause))
        .collect::<Result<_, _>>()?;
    let k = clause_sketches.len();
    if k > 12 {
        return Err(CnfError::Parse {
            at: 0,
            message: format!("inclusion–exclusion over {k} clauses needs 2^{k} terms; refusing"),
        });
    }
    let mut total = 0.0f64;
    for mask in 1u32..(1 << k) {
        let mut union: Option<HyperMinHash> = None;
        for (i, sketch) in clause_sketches.iter().enumerate() {
            if mask & (1 << i) != 0 {
                union = Some(match union {
                    None => sketch.clone(),
                    Some(mut acc) => {
                        acc.merge(sketch)?;
                        acc
                    }
                });
            }
        }
        let card =
            union.expect("invariant: mask non-empty, so at least one sketch merged").cardinality();
        if mask.count_ones() % 2 == 1 {
            total += card;
        } else {
            total -= card;
        }
    }
    Ok(total.max(0.0))
}

fn clause_union(catalog: &SketchCatalog, clause: &[String]) -> Result<HyperMinHash, CnfError> {
    let [first, rest @ ..] = clause else {
        return Err(CnfError::EmptyQuery);
    };
    let mut acc = catalog.get(first)?.clone();
    for name in rest {
        acc.merge(catalog.get(name)?)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmh_core::HmhParams;

    /// Catalog with three overlapping ranges:
    /// a = [0, 30k), b = [10k, 40k), c = [20k, 50k).
    fn catalog() -> SketchCatalog {
        let mut cat = SketchCatalog::new(HmhParams::new(11, 6, 10).unwrap());
        cat.insert_all("a", 0..30_000u64);
        cat.insert_all("b", 10_000..40_000u64);
        cat.insert_all("c", 20_000..50_000u64);
        cat
    }

    #[test]
    fn single_variable_is_cardinality() {
        let cat = catalog();
        let ans = query(&cat, "a").unwrap();
        assert!((ans.count / 30_000.0 - 1.0).abs() < 0.05, "{ans:?}");
        assert_eq!(ans.jaccard, 1.0);
    }

    #[test]
    fn single_clause_union() {
        let cat = catalog();
        let ans = query(&cat, "(a | c)").unwrap();
        // |a ∪ c| = 30k + 30k − 10k = 50k.
        assert!((ans.count / 50_000.0 - 1.0).abs() < 0.05, "{ans:?}");
    }

    #[test]
    fn pairwise_and() {
        let cat = catalog();
        let ans = query(&cat, "a & b").unwrap();
        // |a ∩ b| = 20k.
        assert!((ans.count / 20_000.0 - 1.0).abs() < 0.12, "{ans:?}");
        assert_eq!(ans.clause_counts.len(), 2);
    }

    #[test]
    fn intersection_of_unions() {
        let cat = catalog();
        // (a ∪ b) ∩ c = [20k, 40k) → 20k; union of clauses = 50k.
        let ans = query(&cat, "(a | b) & c").unwrap();
        assert!((ans.count / 20_000.0 - 1.0).abs() < 0.15, "{ans:?}");
        assert!((ans.union / 50_000.0 - 1.0).abs() < 0.05, "{ans:?}");
    }

    #[test]
    fn three_way_and() {
        let cat = catalog();
        // a ∩ b ∩ c = [20k, 30k) → 10k.
        let ans = query(&cat, "a & b & c").unwrap();
        assert!((ans.count / 10_000.0 - 1.0).abs() < 0.2, "{ans:?}");
    }

    #[test]
    fn inclusion_exclusion_agrees_on_easy_queries() {
        // Large intersections: IE and the k-way method should both land.
        let cat = catalog();
        let query = crate::parser::parse("a & b").unwrap();
        let ie = evaluate_inclusion_exclusion(&cat, &query).unwrap();
        assert!((ie / 20_000.0 - 1.0).abs() < 0.2, "IE estimate {ie}");
        let kway = evaluate(&cat, &query).unwrap().count;
        assert!((ie - kway).abs() / kway < 0.3, "ie {ie} vs kway {kway}");
    }

    #[test]
    fn inclusion_exclusion_degrades_on_small_intersections() {
        // Small result relative to the unions: the k-way method must beat
        // IE on average — the §1.3 claim, at the CNF level.
        use hmh_hash::RandomOracle;
        let (mut ie_err, mut kway_err) = (0.0f64, 0.0f64);
        let trials = 8u64;
        let truth = 2_000.0;
        for t in 0..trials {
            let params = HmhParams::new(11, 6, 10).unwrap();
            // a = [0, 100k), b = [98k, 198k): overlap 2k, unions 100k.
            let oracle = RandomOracle::with_seed(40 + t);
            let mut cat = SketchCatalog::with_oracle(params, oracle);
            let mut a = HyperMinHash::with_oracle(params, oracle);
            let mut b = HyperMinHash::with_oracle(params, oracle);
            for i in 0..100_000u64 {
                a.insert(&i);
                b.insert(&(i + 98_000));
            }
            cat.adopt("a", a).unwrap();
            cat.adopt("b", b).unwrap();
            let query = crate::parser::parse("a & b").unwrap();
            ie_err += (evaluate_inclusion_exclusion(&cat, &query).unwrap() / truth - 1.0).abs();
            kway_err += (evaluate(&cat, &query).unwrap().count / truth - 1.0).abs();
        }
        assert!(kway_err < ie_err, "k-way ({kway_err}) should beat IE ({ie_err}) at J ≈ 0.01");
    }

    #[test]
    fn inclusion_exclusion_refuses_huge_queries() {
        let cat = catalog();
        let clauses: Vec<Vec<String>> = (0..13).map(|_| vec!["a".to_string()]).collect();
        let query = CnfQuery::new(clauses).unwrap();
        assert!(evaluate_inclusion_exclusion(&cat, &query).is_err());
    }

    #[test]
    fn unknown_set_reports_name() {
        let cat = catalog();
        assert_eq!(
            query(&cat, "a & nope").unwrap_err(),
            CnfError::UnknownSet { name: "nope".into() }
        );
    }

    #[test]
    fn survey_scenario_end_to_end() {
        // The intro's motivating question, end to end on synthetic data.
        use hmh_workloads::survey::Survey;
        let survey = Survey::generate(200_000, 11);
        let mut cat = SketchCatalog::new(HmhParams::new(12, 6, 10).unwrap());
        for (key, ids) in &survey.groups {
            cat.insert_all(key, ids.iter().copied());
        }
        let ans = query(&cat, "party:independent & view:favorable").unwrap();
        let truth = survey.exact_and(&["party:independent", "view:favorable"]) as f64;
        assert!((ans.count / truth - 1.0).abs() < 0.25, "estimate {} vs truth {truth}", ans.count);
    }
}
