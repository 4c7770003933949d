//! Chrome `trace_event` export and a dependency-free JSON validator.
//!
//! The export follows the Trace Event Format's JSON-object flavour:
//! `"M"` metadata events name each process (rank) and thread, then one
//! complete `"X"` event per [`SpanRecord`] with microsecond `ts`/`dur`.
//! The resulting file opens directly in `chrome://tracing` or Perfetto.

use std::fmt::Write as _;

use crate::{SpanRecord, TelemetryReport};

/// Renders `report` as chrome `trace_event` JSON.
pub fn chrome_trace(report: &TelemetryReport) -> String {
    let mut out = String::with_capacity(256 + report.spans.len() * 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for ((pid, tid), label) in &report.track_labels {
        let (ph_name, key) = if *tid == 0 {
            ("process_name", "name")
        } else {
            ("thread_name", "name")
        };
        push_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{ph_name}\",\"args\":{{\"{key}\":"
        );
        push_json_string(&mut out, label);
        out.push_str("}}");
    }
    for span in &report.spans {
        push_sep(&mut out, &mut first);
        push_span(&mut out, span);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn push_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

fn push_span(out: &mut String, s: &SpanRecord) {
    // trace_event timestamps are microseconds; keep sub-µs resolution
    // with fractional values (the format accepts doubles).
    let ts = s.start_ns as f64 / 1000.0;
    let dur = (s.end_ns.saturating_sub(s.start_ns)) as f64 / 1000.0;
    let _ = write!(out, "{{\"ph\":\"X\",\"name\":");
    push_json_string(out, &s.name);
    let _ = write!(
        out,
        ",\"cat\":\"alya\",\"pid\":{},\"tid\":{},\"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"id\":{}",
        s.pid, s.tid, s.id
    );
    if let Some(parent) = s.parent {
        let _ = write!(out, ",\"parent\":{parent}");
    }
    out.push_str("}}");
}

/// Appends `s` as a JSON string literal (quoted, escaped).
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Checks that `text` is one complete, well-formed JSON value.
///
/// A minimal recursive-descent parser (no external crates) used by the
/// tests, the analyzer's telemetry pass and the bench bins to prove the
/// trace files they emit actually parse.
pub fn validate_json(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = skip_ws(bytes, 0);
    pos = value(bytes, pos, 0)?;
    pos = skip_ws(bytes, pos);
    if pos == bytes.len() {
        Ok(())
    } else {
        Err(format!("trailing data at byte {pos}"))
    }
}

const MAX_DEPTH: usize = 128;

fn err(pos: usize, what: &str) -> String {
    format!("invalid JSON at byte {pos}: {what}")
}

fn skip_ws(b: &[u8], mut pos: usize) -> usize {
    while pos < b.len() && matches!(b[pos], b' ' | b'\t' | b'\n' | b'\r') {
        pos += 1;
    }
    pos
}

fn value(b: &[u8], pos: usize, depth: usize) -> Result<usize, String> {
    if depth > MAX_DEPTH {
        return Err(err(pos, "nesting too deep"));
    }
    match b.get(pos) {
        Some(b'{') => object(b, pos + 1, depth + 1),
        Some(b'[') => array(b, pos + 1, depth + 1),
        Some(b'"') => string(b, pos + 1),
        Some(b't') => literal(b, pos, b"true"),
        Some(b'f') => literal(b, pos, b"false"),
        Some(b'n') => literal(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        Some(_) => Err(err(pos, "expected a value")),
        None => Err(err(pos, "unexpected end of input")),
    }
}

fn object(b: &[u8], mut pos: usize, depth: usize) -> Result<usize, String> {
    pos = skip_ws(b, pos);
    if b.get(pos) == Some(&b'}') {
        return Ok(pos + 1);
    }
    loop {
        pos = skip_ws(b, pos);
        if b.get(pos) != Some(&b'"') {
            return Err(err(pos, "expected an object key"));
        }
        pos = string(b, pos + 1)?;
        pos = skip_ws(b, pos);
        if b.get(pos) != Some(&b':') {
            return Err(err(pos, "expected ':' after key"));
        }
        pos = skip_ws(b, pos + 1);
        pos = value(b, pos, depth)?;
        pos = skip_ws(b, pos);
        match b.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => return Ok(pos + 1),
            _ => return Err(err(pos, "expected ',' or '}'")),
        }
    }
}

fn array(b: &[u8], mut pos: usize, depth: usize) -> Result<usize, String> {
    pos = skip_ws(b, pos);
    if b.get(pos) == Some(&b']') {
        return Ok(pos + 1);
    }
    loop {
        pos = skip_ws(b, pos);
        pos = value(b, pos, depth)?;
        pos = skip_ws(b, pos);
        match b.get(pos) {
            Some(b',') => pos += 1,
            Some(b']') => return Ok(pos + 1),
            _ => return Err(err(pos, "expected ',' or ']'")),
        }
    }
}

fn string(b: &[u8], mut pos: usize) -> Result<usize, String> {
    // `pos` is just past the opening quote.
    while let Some(&c) = b.get(pos) {
        match c {
            b'"' => return Ok(pos + 1),
            b'\\' => match b.get(pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => pos += 2,
                Some(b'u') => {
                    let hex = b
                        .get(pos + 2..pos + 6)
                        .ok_or_else(|| err(pos, "truncated \\u escape"))?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(err(pos, "bad \\u escape"));
                    }
                    pos += 6;
                }
                _ => return Err(err(pos, "bad escape")),
            },
            c if c < 0x20 => return Err(err(pos, "raw control character in string")),
            _ => pos += 1,
        }
    }
    Err(err(pos, "unterminated string"))
}

fn number(b: &[u8], mut pos: usize) -> Result<usize, String> {
    let start = pos;
    if b.get(pos) == Some(&b'-') {
        pos += 1;
    }
    let int_digits = digits(b, &mut pos);
    if int_digits == 0 {
        return Err(err(start, "expected digits"));
    }
    if int_digits > 1 && b[start + usize::from(b[start] == b'-')] == b'0' {
        return Err(err(start, "leading zero"));
    }
    if b.get(pos) == Some(&b'.') {
        pos += 1;
        if digits(b, &mut pos) == 0 {
            return Err(err(pos, "expected fraction digits"));
        }
    }
    if matches!(b.get(pos), Some(b'e' | b'E')) {
        pos += 1;
        if matches!(b.get(pos), Some(b'+' | b'-')) {
            pos += 1;
        }
        if digits(b, &mut pos) == 0 {
            return Err(err(pos, "expected exponent digits"));
        }
    }
    Ok(pos)
}

fn digits(b: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    *pos - start
}

fn literal(b: &[u8], pos: usize, word: &[u8]) -> Result<usize, String> {
    if b.get(pos..pos + word.len()) == Some(word) {
        Ok(pos + word.len())
    } else {
        Err(err(pos, "bad literal"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanRecord;

    fn sample_report() -> TelemetryReport {
        TelemetryReport {
            spans: vec![
                SpanRecord {
                    id: 1,
                    parent: None,
                    name: "assemble:pipelined:rsp".into(),
                    pid: 1,
                    tid: 0,
                    start_ns: 1_000,
                    end_ns: 9_000,
                },
                SpanRecord {
                    id: 2,
                    parent: Some(1),
                    name: "halo \"drain\"\n".into(),
                    pid: 1,
                    tid: 4,
                    start_ns: 2_500,
                    end_ns: 7_500,
                },
            ],
            track_labels: vec![((1, 0), "rank 0".into()), ((1, 4), "halo-drain".into())],
            ..TelemetryReport::default()
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_metadata_and_complete_events() {
        let json = chrome_trace(&sample_report());
        validate_json(&json).expect("export parses");
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":8.000"));
        assert!(json.contains("\"parent\":1"));
        // The awkward name round-trips escaped.
        assert!(json.contains("halo \\\"drain\\\"\\n"));
    }

    #[test]
    fn empty_report_still_exports_a_parsable_skeleton() {
        let json = chrome_trace(&TelemetryReport::default());
        validate_json(&json).expect("skeleton parses");
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn validator_accepts_json_shapes() {
        for ok in [
            "null",
            "true",
            " false ",
            "0",
            "-12.5e+3",
            "\"a\\u00e9\\n\"",
            "[]",
            "[1, [2, {\"k\": null}]]",
            "{}",
            "{\"a\": 1, \"b\": [true, \"x\"]}",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok:?} should parse: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{'a': 1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad\\q\"",
            "nul",
            "[1] trailing",
            "\"raw\u{1}control\"",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
