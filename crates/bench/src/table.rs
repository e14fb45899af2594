//! Aligned text tables, CSV and JSON output for experiment results.

use std::fmt::Write as _;

/// A simple column-aligned results table that can also render as CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Cell accessor (row, column) as text.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// Cell parsed as `f64` (panics on non-numeric cells — experiment
    /// assertions only).
    pub fn cell_f64(&self, row: usize, col: usize) -> f64 {
        self.rows[row][col].parse().unwrap_or_else(|_| {
            panic!("cell ({row},{col}) = {:?} is not numeric", self.rows[row][col])
        })
    }

    /// Column index by header name.
    pub fn col(&self, header: &str) -> usize {
        self.headers
            .iter()
            .position(|h| h == header)
            .unwrap_or_else(|| panic!("no column {header:?}"))
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ =
            writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Render as CSV (RFC-4180-lite: quotes only when needed).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ =
            writeln!(out, "{}", self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Render as the `BENCH_<name>.json` artifact a timing experiment
    /// publishes: the experiment name, the table title, the machine's
    /// core count and the `command` that regenerates it, then one object
    /// per row keyed by the column headers. Cells that are JSON numbers
    /// are written bare; every other cell is an escaped string.
    pub fn to_json(&self, experiment: &str, command: &str) -> String {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"experiment\": {},", json_string(experiment));
        let _ = writeln!(out, "  \"title\": {},", json_string(&self.title));
        let _ = writeln!(out, "  \"cpus\": {cpus},");
        let _ = writeln!(out, "  \"command\": {},", json_string(command));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let fields: Vec<String> = self
                .headers
                .iter()
                .zip(row)
                .map(|(h, cell)| {
                    let value = if is_json_number(cell) { cell.clone() } else { json_string(cell) };
                    format!("{}: {value}", json_string(h))
                })
                .collect();
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(out, "    {{{}}}{comma}", fields.join(", "));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// A JSON string literal: quotes, backslashes and control characters escaped.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// True iff `s` is a number in JSON's grammar: `-?(0|[1-9][0-9]*)`, an
/// optional `.[0-9]+` and an optional `[eE][+-]?[0-9]+`. (Rust's `f64`
/// parser also takes `inf`, `NaN`, `+1` and `.5`, none of which is JSON.)
fn is_json_number(s: &str) -> bool {
    fn digits(b: &[u8]) -> usize {
        b.iter().take_while(|c| c.is_ascii_digit()).count()
    }
    let b = s.as_bytes();
    let mut i = usize::from(b.first() == Some(&b'-'));
    match digits(&b[i..]) {
        0 => return false,
        n if n > 1 && b[i] == b'0' => return false,
        n => i += n,
    }
    if b.get(i) == Some(&b'.') {
        match digits(&b[i + 1..]) {
            0 => return false,
            n => i += 1 + n,
        }
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        match digits(&b[i..]) {
            0 => return false,
            n => i += n,
        }
    }
    i == b.len()
}

/// Format a float compactly: scientific for extremes, fixed otherwise.
pub fn fnum(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if !v.is_finite() {
        format!("{v}")
    } else if v.abs() >= 1e6 || v.abs() < 1e-4 {
        format!("{v:.3e}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_aligns_columns() {
        let mut t = Table::new("demo", &["n", "error"]);
        t.push_row(vec!["16".into(), "0.05".into()]);
        t.push_row(vec!["1048576".into(), "0.5".into()]);
        let text = t.render();
        assert!(text.contains("# demo"));
        assert!(text.lines().count() >= 4);
        // Right-aligned numbers: the "16" line must pad to width 7.
        assert!(text.contains("     16"));
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1,5".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"1,5\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn json_quotes_strings_and_leaves_numbers_bare() {
        let mut t = Table::new("say \"hi\"", &["name", "ns_per_op", "odd"]);
        t.push_row(vec!["a\\b\"c\nd\u{1}é".into(), "1.250e-3".into(), "inf".into()]);
        t.push_row(vec!["0".into(), "-12".into(), ".5".into()]);
        let json = t.to_json("kernels", "repro kernels --quick");
        assert!(json.starts_with("{\n  \"experiment\": \"kernels\",\n"), "{json}");
        assert!(json.contains("  \"title\": \"say \\\"hi\\\"\",\n"), "{json}");
        assert!(json.contains("  \"command\": \"repro kernels --quick\",\n"), "{json}");
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        assert!(json.contains(&format!("  \"cpus\": {cpus},\n")), "{json}");
        assert!(
            json.contains(
                "    {\"name\": \"a\\\\b\\\"c\\u000ad\\u0001é\", \"ns_per_op\": 1.250e-3, \"odd\": \"inf\"},\n"
            ),
            "{json}"
        );
        assert!(
            json.contains("    {\"name\": 0, \"ns_per_op\": -12, \"odd\": \".5\"}\n  ]\n}\n"),
            "{json}"
        );
    }

    #[test]
    fn json_number_grammar() {
        for ok in ["0", "-0", "7", "12.5", "1e19", "1.000e19", "3.200e-9", "2E+3"] {
            assert!(is_json_number(ok), "{ok}");
        }
        for bad in ["", "-", "01", "+1", ".5", "5.", "1e", "inf", "NaN", "0x10", "1,5", "p=8"] {
            assert!(!is_json_number(bad), "{bad}");
        }
    }

    #[test]
    fn accessors() {
        let mut t = Table::new("x", &["n", "e"]);
        t.push_row(vec!["10".into(), "0.25".into()]);
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.col("e"), 1);
        assert_eq!(t.cell(0, 0), "10");
        assert_eq!(t.cell_f64(0, 1), 0.25);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        Table::new("x", &["a"]).push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(0.1234567), "0.1235");
        assert_eq!(fnum(1e19), "1.000e19");
        assert_eq!(fnum(3.2e-9), "3.200e-9");
        assert_eq!(fnum(123.456), "123.5");
    }
}
