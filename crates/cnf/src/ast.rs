//! CNF query representation: an AND of OR-clauses over named sets.

use crate::error::CnfError;

/// A query in conjunctive normal form: `clause₁ ∧ clause₂ ∧ …` where each
/// clause is `var₁ ∨ var₂ ∨ …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CnfQuery {
    clauses: Vec<Vec<String>>,
}

impl CnfQuery {
    /// Build from clauses; every clause must be non-empty.
    pub fn new<C, V>(clauses: C) -> Result<Self, CnfError>
    where
        C: IntoIterator<Item = V>,
        V: IntoIterator<Item = String>,
    {
        let clauses: Vec<Vec<String>> =
            clauses.into_iter().map(|c| c.into_iter().collect()).collect();
        if clauses.is_empty() || clauses.iter().any(Vec::is_empty) {
            return Err(CnfError::EmptyQuery);
        }
        Ok(Self { clauses })
    }

    /// A single-clause helper.
    pub fn single_clause<I: IntoIterator<Item = String>>(vars: I) -> Result<Self, CnfError> {
        Self::new(std::iter::once(vars.into_iter().collect::<Vec<_>>()))
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Vec<String>] {
        &self.clauses
    }

    /// All distinct variable names, in first-appearance order.
    pub fn variables(&self) -> Vec<&str> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for clause in &self.clauses {
            for v in clause {
                if seen.insert(v.as_str()) {
                    out.push(v.as_str());
                }
            }
        }
        out
    }
}

impl std::fmt::Display for CnfQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, clause) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            if clause.len() > 1 {
                write!(f, "({})", clause.join(" | "))?;
            } else {
                write!(f, "{}", clause[0])?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(clauses: &[&[&str]]) -> CnfQuery {
        CnfQuery::new(clauses.iter().map(|c| c.iter().map(|s| s.to_string()).collect::<Vec<_>>()))
            .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let query = q(&[&["a", "b"], &["c"]]);
        assert_eq!(query.clauses().len(), 2);
        assert_eq!(query.variables(), vec!["a", "b", "c"]);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(CnfQuery::new(Vec::<Vec<String>>::new()).unwrap_err(), CnfError::EmptyQuery);
        assert_eq!(CnfQuery::new(vec![Vec::<String>::new()]).unwrap_err(), CnfError::EmptyQuery);
    }

    #[test]
    fn display_round_trips_through_parser() {
        let query = q(&[&["a", "b"], &["c"], &["d", "e", "f"]]);
        let text = query.to_string();
        assert_eq!(text, "(a | b) & c & (d | e | f)");
        let parsed = crate::parser::parse(&text).unwrap();
        assert_eq!(parsed, query);
    }

    #[test]
    fn variables_deduplicate() {
        let query = q(&[&["a", "b"], &["b", "a"]]);
        assert_eq!(query.variables(), vec!["a", "b"]);
    }
}
