//! A tiny recursive-descent parser for CNF query strings.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! query  := clause ( AND clause )*
//! clause := var | '(' var ( OR var )* ')'
//! var    := [A-Za-z0-9_:.+-]+
//! AND    := '&' | '&&' | 'AND' | 'and'
//! OR     := '|' | '||' | 'OR' | 'or'
//! ```
//!
//! Only CNF shapes are accepted — ORs must be parenthesized when mixed
//! with ANDs, which keeps the grammar unambiguous and mirrors the sketch
//! engine's actual capability (it cannot evaluate arbitrary nesting).

use crate::ast::CnfQuery;
use crate::error::CnfError;

struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.text.len() && self.text.as_bytes()[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn error(&self, message: impl Into<String>) -> CnfError {
        CnfError::Parse { at: self.pos, message: message.into() }
    }

    fn ident(&mut self) -> Result<String, CnfError> {
        self.skip_ws();
        let start = self.pos;
        while self.text.as_bytes().get(self.pos).is_some_and(|b| {
            b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'.' | b'+' | b'-')
        }) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a set name"));
        }
        Ok(self.text[start..self.pos].to_string())
    }

    /// Consume an operator token; returns true for AND, false for OR.
    fn operator(&mut self) -> Option<bool> {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        for (tok, is_and) in [("&&", true), ("&", true), ("||", false), ("|", false)] {
            if rest.starts_with(tok) {
                self.pos += tok.len();
                return Some(is_and);
            }
        }
        for (tok, is_and) in [("AND", true), ("and", true), ("OR", false), ("or", false)] {
            if rest.starts_with(tok) {
                // Keyword must not glue onto an identifier.
                let after = rest.as_bytes().get(tok.len());
                let boundary = after.is_none_or(|b| {
                    !(b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'.' | b'+' | b'-'))
                });
                if boundary {
                    self.pos += tok.len();
                    return Some(is_and);
                }
            }
        }
        None
    }

    fn clause(&mut self) -> Result<Vec<String>, CnfError> {
        if self.peek() == Some(b'(') {
            self.pos += 1;
            let mut vars = vec![self.ident()?];
            loop {
                match self.peek() {
                    Some(b')') => {
                        self.pos += 1;
                        return Ok(vars);
                    }
                    _ => match self.operator() {
                        Some(false) => vars.push(self.ident()?),
                        Some(true) => {
                            return Err(self.error("AND inside a clause; CNF needs ORs here"))
                        }
                        None => return Err(self.error("expected '|' or ')'")),
                    },
                }
            }
        } else {
            Ok(vec![self.ident()?])
        }
    }
}

/// Parse a CNF query string.
pub fn parse(text: &str) -> Result<CnfQuery, CnfError> {
    let mut cur = Cursor { text, pos: 0 };
    let mut clauses = vec![cur.clause()?];
    loop {
        if cur.peek().is_none() {
            break;
        }
        match cur.operator() {
            Some(true) => clauses.push(cur.clause()?),
            Some(false) => return Err(cur.error("top-level OR; parenthesize OR-clauses in CNF")),
            None => return Err(cur.error("expected '&' between clauses")),
        }
    }
    CnfQuery::new(clauses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_variable() {
        let q = parse("alpha").unwrap();
        assert_eq!(q.clauses(), &[vec!["alpha".to_string()]]);
    }

    #[test]
    fn ands_of_ors() {
        let q = parse("(a | b) & c & (d || e)").unwrap();
        assert_eq!(q.clauses().len(), 3);
        assert_eq!(q.clauses()[0], vec!["a", "b"]);
        assert_eq!(q.clauses()[1], vec!["c"]);
        assert_eq!(q.clauses()[2], vec!["d", "e"]);
    }

    #[test]
    fn keyword_operators() {
        let q = parse("(a OR b) AND c and (d or e)").unwrap();
        assert_eq!(q.clauses().len(), 3);
    }

    #[test]
    fn identifier_charset() {
        let q = parse("(party:independent | view:favorable) & age:18-29").unwrap();
        assert_eq!(q.variables().len(), 3);
    }

    #[test]
    fn whitespace_insensitive() {
        assert_eq!(parse(" ( a|b )&c ").unwrap(), parse("(a | b) & c").unwrap());
    }

    #[test]
    fn rejects_non_cnf() {
        assert!(parse("a | b").is_err(), "top-level OR");
        assert!(parse("(a & b)").is_err(), "AND inside a clause");
        assert!(parse("").is_err());
        assert!(parse("(a").is_err());
        assert!(parse("a &").is_err());
        assert!(parse("a b").is_err());
        assert!(parse("()").is_err());
    }

    #[test]
    fn keyword_must_break() {
        // "orange" is an identifier, not "or" + "ange"... it appears where
        // an operator is required, so parsing fails rather than
        // misinterpreting.
        assert!(parse("a orange b").is_err());
        // But a variable may *contain* keyword letters.
        let q = parse("oracle & android").unwrap();
        assert_eq!(q.variables(), vec!["oracle", "android"]);
    }
}
