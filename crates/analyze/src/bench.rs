//! The one reader of the committed `BENCH_*.json` reports.
//!
//! Each bench bin writes one JSON object: top-level fields that describe
//! the run (element count, host threads, …) and one array of flat row
//! objects (`"results"` or `"rows"`), one row per measured cell.
//! [`BenchFile::read`] checks the document with
//! [`alya_telemetry::export::validate_json`], then returns the top-level
//! numbers and the rows. A missing file, a malformed one, or one without
//! rows is an `Err` naming the file, so a check that reads it reports a
//! violation instead of passing on nothing. Passes 4, 8 and 9 and the
//! integration tests that hold a committed report read it through here.

use std::path::Path;

use alya_telemetry::export::validate_json;

/// One row object of a bench report: its fields as written.
#[derive(Debug, Clone, Default)]
pub struct Row {
    /// `(key, value)` pairs in document order; string values keep their
    /// quotes.
    fields: Vec<(String, String)>,
}

impl Row {
    fn raw(&self, key: &str) -> Option<&str> {
        let (_, value) = self.fields.iter().find(|(k, _)| k == key)?;
        Some(value)
    }

    /// The number in field `key` (`None` when absent or not a number).
    pub fn num(&self, key: &str) -> Option<f64> {
        self.raw(key)?.parse().ok()
    }

    /// The string in field `key` (`None` when absent or not a string).
    pub fn str(&self, key: &str) -> Option<&str> {
        self.raw(key)?.strip_prefix('"')?.strip_suffix('"')
    }
}

/// A parsed bench report: its top-level numbers and its rows.
#[derive(Debug, Clone)]
pub struct BenchFile {
    /// Top-level `"key": number` fields in document order.
    top: Vec<(String, f64)>,
    /// The objects of the document's row array (never empty).
    rows: Vec<Row>,
}

impl BenchFile {
    /// Reads and parses the report at `path`.
    pub fn read(path: &Path) -> Result<Self, String> {
        let name = path.display().to_string();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{name}: {e}"))?;
        Self::parse(&name, &text)
    }

    /// Parses report text; every error starts with `name`.
    pub fn parse(name: &str, text: &str) -> Result<Self, String> {
        validate_json(text).map_err(|e| format!("{name}: {e}"))?;
        let mut cur = Cursor { text, pos: 0 };
        let mut top = Vec::new();
        let mut rows = None;
        if cur.eat(b'{') {
            while cur.peek() == Some(b'"') {
                let key = unquote(cur.token());
                cur.eat(b':');
                let at = cur.pos;
                if rows.is_none() && cur.eat(b'[') && cur.peek() == Some(b'{') {
                    rows = Some(cur.rows().map_err(|e| format!("{name}: \"{key}\": {e}"))?);
                } else {
                    cur.pos = at;
                    if let Ok(x) = cur.token().parse() {
                        top.push((key.to_string(), x));
                    }
                }
                cur.eat(b',');
            }
        }
        match rows {
            Some(rows) => Ok(Self { top, rows }),
            None => Err(format!("{name}: no array of row objects")),
        }
    }

    /// The top-level number `key`.
    pub fn top_num(&self, key: &str) -> Option<f64> {
        let &(_, x) = self.top.iter().find(|(k, _)| k == key)?;
        Some(x)
    }

    /// The row objects, in document order; at least one.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }
}

fn unquote(token: &str) -> &str {
    token.trim_start_matches('"').trim_end_matches('"')
}

/// A cursor over a document [`validate_json`] accepted: every scan below
/// relies on that, and none can run past the end.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// The next non-whitespace byte, after skipping to it.
    fn peek(&mut self) -> Option<u8> {
        let b = self.text.as_bytes();
        while b.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
        b.get(self.pos).copied()
    }

    /// Consumes `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        let next = self.peek() == Some(c);
        self.pos += usize::from(next);
        next
    }

    /// The source text of the next key or value, up to the `:`, `,` or
    /// closing bracket that ends it.
    fn token(&mut self) -> &'a str {
        self.peek();
        let b = self.text.as_bytes();
        let start = self.pos;
        let (mut depth, mut in_string) = (0usize, false);
        while let Some(&c) = b.get(self.pos) {
            match (in_string, c) {
                (true, b'\\') => self.pos += 1,
                (true, b'"') => in_string = false,
                (true, _) => {}
                (false, b'"') => in_string = true,
                (false, b'{' | b'[') => depth += 1,
                (false, b'}' | b']' | b',' | b':') if depth == 0 => break,
                (false, b'}' | b']') => depth -= 1,
                (false, _) => {}
            }
            self.pos += 1;
        }
        self.text[start..self.pos].trim_end()
    }

    /// The objects of an array whose `[` is consumed, through its `]`.
    fn rows(&mut self) -> Result<Vec<Row>, String> {
        let mut rows = Vec::new();
        loop {
            if !self.eat(b'{') {
                return Err(format!("row {} is not an object", rows.len()));
            }
            let mut row = Row::default();
            while !self.eat(b'}') {
                let key = unquote(self.token()).to_string();
                self.eat(b':');
                row.fields.push((key, self.token().to_string()));
                self.eat(b',');
            }
            rows.push(row);
            if !self.eat(b',') {
                self.eat(b']');
                return Ok(rows);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> std::path::PathBuf {
        crate::sources::workspace_root_from(env!("CARGO_MANIFEST_DIR"))
    }

    const COMMITTED: [&str; 3] = ["BENCH_comm.json", "BENCH_drivers.json", "BENCH_serve.json"];

    #[test]
    fn committed_reports_read_into_top_level_numbers_and_rows() {
        for name in COMMITTED {
            let bench = BenchFile::read(&root().join(name)).unwrap_or_else(|e| panic!("{e}"));
            assert!(bench.top_num("elements").is_some_and(|n| n > 0.0), "{name}");
            assert!(bench.rows.len() >= 4, "{name}: {} rows", bench.rows.len());
        }
        let drivers = BenchFile::read(&root().join("BENCH_drivers.json")).unwrap();
        // The nested shard summary is neither a top-level number nor the
        // row array.
        assert_eq!(drivers.top_num("count"), None);
        assert!(drivers.rows.iter().all(|r| r.str("strategy").is_some()));

        let row = r#"{"predicted_halo_bytes": 15708, "strategy": "serial-packed",
                      "variant": "RSPR", "threads": 1, "melem_per_s": 9.566,
                      "halo_bytes": 15700, "note": "a, b: {c}"}"#;
        let bench = BenchFile::parse("fixture", &format!("{{\"n\": 2, \"rows\": [{row}]}}"))
            .unwrap_or_else(|e| panic!("{e}"));
        let r = &bench.rows[0];
        assert_eq!(r.str("strategy"), Some("serial-packed"));
        assert_eq!(r.str("variant"), Some("RSPR"));
        assert_eq!(r.num("threads"), Some(1.0));
        assert_eq!(r.num("melem_per_s"), Some(9.566));
        // A key is matched whole: `halo_bytes` is not the tail of
        // `predicted_halo_bytes`, whichever comes first.
        assert_eq!(r.num("halo_bytes"), Some(15700.0));
        assert_eq!(r.num("predicted_halo_bytes"), Some(15708.0));
        assert_eq!(r.str("note"), Some("a, b: {c}"));
        assert_eq!(r.num("strategy"), None);
        assert_eq!(r.num("missing"), None);
        assert_eq!(bench.top_num("n"), Some(2.0));
    }

    /// A fresh directory holding the first half of each committed report.
    fn truncated_copies(tag: &str) -> std::path::PathBuf {
        let scratch =
            std::env::temp_dir().join(format!("alya-bench-reader-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        for name in COMMITTED {
            let text = std::fs::read_to_string(root().join(name)).unwrap();
            std::fs::write(scratch.join(name), &text[..text.len() / 2]).unwrap();
        }
        scratch
    }

    #[test]
    fn a_truncated_rowless_or_missing_report_is_an_error_naming_the_file() {
        let scratch = truncated_copies("err");
        for name in COMMITTED {
            let err = BenchFile::read(&scratch.join(name)).expect_err(name);
            assert!(err.contains(name) && err.contains("invalid JSON"), "{err}");
        }
        for (doc, why) in [
            (
                r#"{"elements": 5, "results": []}"#,
                "no array of row objects",
            ),
            (
                r#"{"elements": 5, "thread_counts": [1, 2]}"#,
                "no array of row objects",
            ),
            (
                r#"{"results": [{"threads": 1}, 7]}"#,
                "row 1 is not an object",
            ),
            ("[]", "no array of row objects"),
        ] {
            let err = BenchFile::parse("BENCH_x.json", doc).expect_err(doc);
            assert!(
                err.starts_with("BENCH_x.json") && err.contains(why),
                "{err}"
            );
        }
        let missing = scratch.join("absent").join("BENCH_drivers.json");
        let err = BenchFile::read(&missing).expect_err("missing file");
        assert!(err.contains("absent"), "{err}");
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn a_report_that_fails_to_load_is_exactly_one_violation() {
        // Pass 8's workspace check turns each error into a violation.
        let scratch = truncated_copies("pass8");
        for root in [scratch.as_path(), &scratch.join("absent")] {
            let report = crate::simd::check_workspace_simd(root);
            assert_eq!(report.violations.len(), 1, "{report}");
            assert!(
                report.violations[0].contains("BENCH_drivers.json"),
                "{report}"
            );
            assert!(report.cells.is_empty());
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
