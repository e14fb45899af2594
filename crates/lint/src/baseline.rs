//! The findings ratchet: a committed `lint-baseline.json` records every
//! currently-accepted finding, and `--ratchet` makes the count one-way.
//!
//! A check run under `--ratchet` fails in two directions:
//!
//! * a finding **not** in the baseline — new debt is rejected at the
//!   door;
//! * a baseline entry that **no longer fires** — the baseline must be
//!   regenerated (`--write-baseline`) so fixed findings cannot silently
//!   come back later under the cover of a stale entry.
//!
//! Entries are identified by `(rule, file, line)`. Line numbers do make
//! entries brittle against unrelated edits to the same file; that is
//! accepted on purpose — an entry that drifted is an entry someone must
//! re-look at, which is the ratchet's whole job. The workspace baseline
//! is empty today (every finding was fixed or suppressed with a reason
//! at introduction time), so in practice this file is the contract that
//! keeps it empty.
//!
//! The parser below reads exactly what [`render_baseline`] writes — a
//! JSON array of flat `{"rule","file","line"}` objects — plus arbitrary
//! whitespace. It is not a general JSON parser and rejects anything
//! else; a hand-edited baseline that drifts from the format is a config
//! error, not something to guess about.

use crate::diag::Diagnostic;

/// One accepted finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BaselineEntry {
    pub rule: String,
    pub file: String,
    pub line: usize,
}

impl BaselineEntry {
    pub fn of(d: &Diagnostic) -> Self {
        Self { rule: d.rule.clone(), file: d.file.clone(), line: d.line }
    }
}

/// Result of diffing a report against the baseline.
#[derive(Debug, Default)]
pub struct RatchetDiff {
    /// Findings not covered by the baseline — the check must fail.
    pub new: Vec<BaselineEntry>,
    /// Baseline entries that no longer fire — stale; the check must
    /// also fail until the baseline is regenerated.
    pub stale: Vec<BaselineEntry>,
}

impl RatchetDiff {
    pub fn is_clean(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }
}

/// Diff current findings against the baseline. Both directions are
/// set-wise on `(rule, file, line)`; duplicates collapse.
pub fn diff(findings: &[Diagnostic], baseline: &[BaselineEntry]) -> RatchetDiff {
    let current: std::collections::BTreeSet<BaselineEntry> =
        findings.iter().map(BaselineEntry::of).collect();
    let accepted: std::collections::BTreeSet<BaselineEntry> = baseline.iter().cloned().collect();
    RatchetDiff {
        new: current.difference(&accepted).cloned().collect(),
        stale: accepted.difference(&current).cloned().collect(),
    }
}

/// Serialize entries in the committed-file format: sorted, one object
/// per line, trailing newline — byte-stable so regeneration diffs are
/// minimal.
pub fn render_baseline(findings: &[Diagnostic]) -> String {
    let mut entries: Vec<BaselineEntry> = findings.iter().map(BaselineEntry::of).collect();
    entries.sort();
    entries.dedup();
    let mut out = String::from("[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(&format!(
            "{{\"rule\": {}, \"file\": {}, \"line\": {}}}",
            crate::diag::json_str(&e.rule),
            crate::diag::json_str(&e.file),
            e.line
        ));
    }
    if !entries.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Render a ratchet diff as JSON (the CI artifact format).
pub fn render_diff_json(diff: &RatchetDiff) -> String {
    fn entries(list: &[BaselineEntry]) -> String {
        let mut out = String::from("[");
        for (i, e) in list.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"rule\": {}, \"file\": {}, \"line\": {}}}",
                crate::diag::json_str(&e.rule),
                crate::diag::json_str(&e.file),
                e.line
            ));
        }
        out.push(']');
        out
    }
    format!("{{\"new\": {}, \"stale\": {}}}\n", entries(&diff.new), entries(&diff.stale))
}

/// Parse the committed baseline format.
///
/// # Errors
/// A human-readable message naming the first malformed construct.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let mut p = Cursor { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    p.eat(b'[')?;
    let mut out = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b']') {
        p.pos += 1;
        p.skip_ws();
        return p.at_end().map(|()| out);
    }
    loop {
        out.push(p.object()?);
        p.skip_ws();
        match p.next() {
            Some(b',') => p.skip_ws(),
            Some(b']') => break,
            _ => return Err(p.err("expected `,` or `]` after entry")),
        }
    }
    p.skip_ws();
    p.at_end().map(|()| out)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, what: &str) -> String {
        let line = 1 + self.bytes[..self.pos.min(self.bytes.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        format!("baseline line {line}: {what}")
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        if self.next() == Some(want) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", want as char)))
        }
    }

    fn at_end(&self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing content after baseline array"))
        }
    }

    /// One `{"rule": "...", "file": "...", "line": N}` object; keys in
    /// any order, each required exactly once.
    fn object(&mut self) -> Result<BaselineEntry, String> {
        self.skip_ws();
        self.eat(b'{')?;
        let (mut rule, mut file, mut line) = (None, None, None);
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            match key.as_str() {
                "rule" => rule = Some(self.string()?),
                "file" => file = Some(self.string()?),
                "line" => line = Some(self.number()?),
                other => return Err(self.err(&format!("unknown key `{other}`"))),
            }
            self.skip_ws();
            match self.next() {
                Some(b',') => {}
                Some(b'}') => break,
                _ => return Err(self.err("expected `,` or `}` in entry")),
            }
        }
        match (rule, file, line) {
            (Some(rule), Some(file), Some(line)) => Ok(BaselineEntry { rule, file, line }),
            _ => Err(self.err("entry must have `rule`, `file` and `line`")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    _ => return Err(self.err("unsupported escape in string")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(_) => {
                    // Re-read the full UTF-8 sequence from the source.
                    let start = self.pos - 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    match std::str::from_utf8(&self.bytes[start..self.pos]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid UTF-8 in string")),
                    }
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<usize, String> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a line number"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("line number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn d(rule: &str, file: &str, line: usize) -> Diagnostic {
        Diagnostic::new(rule, Severity::Error, file, line, 1, "m".to_string())
    }

    #[test]
    fn empty_baseline_round_trips() {
        assert_eq!(render_baseline(&[]), "[]\n");
        assert_eq!(parse_baseline("[]\n").unwrap(), vec![]);
        assert_eq!(parse_baseline("  [\n]  ").unwrap(), vec![]);
    }

    #[test]
    fn entries_round_trip_sorted_and_deduped() {
        let findings = vec![
            d("wire-drift", "crates/b/src/lib.rs", 9),
            d("lock-order", "crates/a/src/lib.rs", 3),
            d("lock-order", "crates/a/src/lib.rs", 3),
        ];
        let text = render_baseline(&findings);
        let parsed = parse_baseline(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].rule, "lock-order");
        assert_eq!(parsed[1].line, 9);
    }

    #[test]
    fn diff_reports_both_directions() {
        let baseline = vec![BaselineEntry { rule: "r".into(), file: "f".into(), line: 1 }];
        let findings = vec![d("r", "f", 2)];
        let diff = diff(&findings, &baseline);
        assert_eq!(diff.new.len(), 1);
        assert_eq!(diff.new[0].line, 2);
        assert_eq!(diff.stale.len(), 1);
        assert_eq!(diff.stale[0].line, 1);
        assert!(!diff.is_clean());
        assert!(super::diff(&[], &[]).is_clean());
    }

    #[test]
    fn malformed_baselines_are_errors() {
        for bad in [
            "",
            "{}",
            "[{}]",
            "[{\"rule\": \"r\"}]",
            "[{\"rule\": \"r\", \"file\": \"f\", \"line\": 1}] x",
            "[{\"rule\": \"r\", \"file\": \"f\", \"line\": 1, \"extra\": 2}]",
        ] {
            assert!(parse_baseline(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn diff_json_shape() {
        let diff = RatchetDiff {
            new: vec![BaselineEntry { rule: "r".into(), file: "f".into(), line: 1 }],
            stale: vec![],
        };
        assert_eq!(
            render_diff_json(&diff),
            "{\"new\": [{\"rule\": \"r\", \"file\": \"f\", \"line\": 1}], \"stale\": []}\n"
        );
    }
}
