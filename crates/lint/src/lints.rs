//! The lint rules applied to the hot-reachable set, plus the workspace-wide
//! unsafe-linkage audit.

use std::collections::BTreeSet;

use crate::callgraph::{CallGraph, FnId};
use crate::items::FileModel;
use crate::lexer::{Token, TokenKind};
use crate::UnsafeSanction;

/// The lint families pass 7 enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintKind {
    /// Allocation in a hot function (`push`/`collect`/`to_vec`/`Box::new`/
    /// `format!`/`vec!`/`String` construction).
    HotAlloc,
    /// Panic path in a hot function (`unwrap`/`expect`/`panic!`/`assert!`;
    /// `debug_assert!` is allowed).
    HotPanic,
    /// `HashMap`/`HashSet` in a hot function — iteration order would feed
    /// nondeterminism into numeric accumulation.
    HashIter,
    /// Per-element telemetry in a hot function (`tally_*` or span creation;
    /// the batch-rate policy keeps those at driver granularity).
    HotTelemetry,
    /// `unsafe` without a `SAFETY:` comment linking it to the analyzer pass
    /// that proves its invariant, or outside the sanctioned allowlist.
    MissingSafety,
    /// Malformed `alya:` marker comment.
    BadMarker,
}

impl LintKind {
    /// The name used in reports and in `alya:allow(<name>)`.
    pub fn name(self) -> &'static str {
        match self {
            Self::HotAlloc => "hot-alloc",
            Self::HotPanic => "hot-panic",
            Self::HashIter => "hash-iter",
            Self::HotTelemetry => "hot-telemetry",
            Self::MissingSafety => "missing-safety",
            Self::BadMarker => "bad-marker",
        }
    }
}

/// One finding, carrying file:line and the lint name.
#[derive(Debug)]
pub struct Violation {
    pub lint: LintKind,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.lint.name(),
            self.message
        )
    }
}

/// Panicking macros banned on hot paths (`debug_assert*` stays legal: it
/// compiles out of release builds, which is the configuration the paper's
/// numbers are about).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Allocating macros banned on hot paths.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Allocating (or reallocating) methods banned on hot paths. Note
/// `extend_from_slice` into a pre-sized scratch buffer is the sanctioned
/// reuse pattern and is deliberately absent.
const ALLOC_METHODS: &[&str] = &["push", "collect", "to_vec", "to_string", "to_owned"];

/// Types whose associated constructors allocate.
const ALLOC_TYPES: &[&str] = &["Vec", "String", "Box", "VecDeque", "BTreeMap", "HashMap"];
const ALLOC_CTORS: &[&str] = &["new", "from", "with_capacity"];

/// Hash-keyed collections whose iteration order is arbitrary.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Span-creating telemetry calls (per-element spans would swamp both the
/// run and the trace; the batch-rate policy keeps them at driver scope).
const SPAN_FNS: &[&str] = &["span"];

/// Scans one hot-reachable function body for hot-path violations.
pub fn scan_hot_fn(file: &FileModel, fn_idx: usize, out: &mut Vec<Violation>) {
    let f = &file.fns[fn_idx];
    let toks = &file.tokens;
    let rng = f.body.clone();
    let mut push = |lint: LintKind, tok: &Token, what: String| {
        out.push(Violation {
            lint,
            file: file.path.clone(),
            line: tok.line,
            message: format!("{what} in hot-reachable fn `{}`", f.name),
        });
    };
    let mut i = rng.start;
    while i < rng.end {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let next = next_non_comment(toks, rng.end, i);
        let nt = next.map(|j| &toks[j]);
        // Macros.
        if nt.is_some_and(|n| n.is_punct('!')) {
            let delim = next
                .and_then(|j| next_non_comment(toks, rng.end, j))
                .map(|j| &toks[j]);
            if delim.is_some_and(|d| d.is_punct('(') || d.is_punct('[') || d.is_punct('{')) {
                if PANIC_MACROS.contains(&t.text.as_str()) {
                    push(LintKind::HotPanic, t, format!("`{}!` may panic", t.text));
                } else if ALLOC_MACROS.contains(&t.text.as_str()) {
                    push(LintKind::HotAlloc, t, format!("`{}!` allocates", t.text));
                }
            }
            i = next.unwrap_or(i + 1);
            continue;
        }
        // Hash-keyed collections anywhere in the body.
        if HASH_TYPES.contains(&t.text.as_str()) {
            push(
                LintKind::HashIter,
                t,
                format!("`{}` has arbitrary iteration order", t.text),
            );
            i += 1;
            continue;
        }
        let prev = prev_non_comment(toks, rng.start, i);
        let after_dot = prev.is_some_and(|p| toks[p].is_punct('.'));
        let callish = nt.is_some_and(|n| n.is_punct('(') || n.is_punct(':') || n.is_punct('<'));
        // Methods.
        if after_dot && callish {
            if t.text == "unwrap" || t.text == "expect" {
                push(LintKind::HotPanic, t, format!("`.{}()` may panic", t.text));
            } else if ALLOC_METHODS.contains(&t.text.as_str()) {
                push(LintKind::HotAlloc, t, format!("`.{}()` allocates", t.text));
            } else if SPAN_FNS.contains(&t.text.as_str()) {
                push(
                    LintKind::HotTelemetry,
                    t,
                    format!("`.{}()` creates a telemetry span", t.text),
                );
            }
        }
        // Associated constructors: `Vec::new(...)` etc.
        if ALLOC_TYPES.contains(&t.text.as_str()) {
            if let Some((ctor, ctor_tok)) = path_segment_after(toks, rng.end, i) {
                if ALLOC_CTORS.contains(&ctor.as_str()) {
                    push(
                        LintKind::HotAlloc,
                        ctor_tok,
                        format!("`{}::{ctor}` allocates", t.text),
                    );
                }
            }
        }
        // Telemetry calls: bare or path `span(` / `tally_*(`.
        if !after_dot && nt.is_some_and(|n| n.is_punct('(')) {
            if SPAN_FNS.contains(&t.text.as_str()) {
                push(
                    LintKind::HotTelemetry,
                    t,
                    format!("`{}()` creates a telemetry span", t.text),
                );
            } else if t.text.starts_with("tally_") {
                push(
                    LintKind::HotTelemetry,
                    t,
                    format!("`{}()` tallies per call", t.text),
                );
            }
        }
        i += 1;
    }
}

/// If token `i` is followed by `::ident`, returns that segment.
fn path_segment_after(toks: &[Token], end: usize, i: usize) -> Option<(String, &Token)> {
    let c1 = next_non_comment(toks, end, i)?;
    let c2 = next_non_comment(toks, end, c1)?;
    let seg = next_non_comment(toks, end, c2)?;
    (toks[c1].is_punct(':') && toks[c2].is_punct(':') && toks[seg].kind == TokenKind::Ident)
        .then(|| (toks[seg].text.clone(), &toks[seg]))
}

fn next_non_comment(toks: &[Token], end: usize, i: usize) -> Option<usize> {
    let mut j = i + 1;
    while j < end {
        if !toks[j].is_comment() {
            return Some(j);
        }
        j += 1;
    }
    None
}

fn prev_non_comment(toks: &[Token], start: usize, i: usize) -> Option<usize> {
    let mut j = i;
    while j > start {
        j -= 1;
        if !toks[j].is_comment() {
            return Some(j);
        }
    }
    None
}

/// Audits every `unsafe` keyword in the workspace against the sanctioned
/// allowlist: each site must sit in an allowlisted file, carry a `SAFETY:`
/// comment naming the analyzer pass that proves its invariant, and match
/// exactly one allowlist marker. Stale allowlist entries are violations too
/// (removing an unsafe site must also be a reviewed allowlist edit).
pub fn check_unsafe_linkage(files: &[FileModel], sanctioned: &[UnsafeSanction]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut used = vec![false; sanctioned.len()];
    for file in files {
        let entries: Vec<usize> = sanctioned
            .iter()
            .enumerate()
            .filter(|(_, s)| s.file == file.path)
            .map(|(k, _)| k)
            .collect();
        for site in &file.unsafe_sites {
            let mut fail = |message: String| {
                out.push(Violation {
                    lint: LintKind::MissingSafety,
                    file: file.path.clone(),
                    line: site.line,
                    message,
                });
            };
            if entries.is_empty() {
                fail(
                    "`unsafe` in a file with no sanctioned sites (allowlist: \
                     SANCTIONED_UNSAFE in alya-lint)"
                        .to_string(),
                );
                continue;
            }
            if !site.comment_above.contains("SAFETY:") {
                fail("`unsafe` site has no `// SAFETY:` comment directly above it".to_string());
                continue;
            }
            if !site.comment_above.contains("pass") {
                fail(
                    "SAFETY comment does not name the analyzer pass that proves the invariant"
                        .to_string(),
                );
                continue;
            }
            let hit = entries
                .iter()
                .find(|&&k| !used[k] && site.comment_above.contains(sanctioned[k].marker));
            match hit {
                Some(&k) => used[k] = true,
                None => fail(format!(
                    "SAFETY comment matches no unused sanctioned marker for this file \
                     (expected one of: {})",
                    entries
                        .iter()
                        .map(|&k| format!("`{}`", sanctioned[k].marker))
                        .collect::<Vec<_>>()
                        .join(", ")
                )),
            }
        }
    }
    for (k, s) in sanctioned.iter().enumerate() {
        if !used[k] && files.iter().any(|f| f.path == s.file) {
            out.push(Violation {
                lint: LintKind::MissingSafety,
                file: s.file.to_string(),
                line: 0,
                message: format!(
                    "stale allowlist entry: no unsafe site matched marker `{}`",
                    s.marker
                ),
            });
        }
    }
    out
}

/// Drops violations covered by an `alya:allow` on the same or previous
/// line, returning the survivors and the number of allows honored.
pub fn apply_allows(files: &[FileModel], violations: Vec<Violation>) -> (Vec<Violation>, usize) {
    let mut honored = 0usize;
    let kept = violations
        .into_iter()
        .filter(|v| {
            let covered = files.iter().any(|f| {
                f.path == v.file
                    && f.allows.iter().any(|a| {
                        a.lint == v.lint.name() && (a.line == v.line || a.covers == v.line)
                    })
            });
            if covered {
                honored += 1;
            }
            !covered
        })
        .collect();
    (kept, honored)
}

/// Runs the hot-path lints over the reachable set.
pub fn scan_reachable(files: &[FileModel], reach: &BTreeSet<FnId>) -> Vec<Violation> {
    let mut out = Vec::new();
    for &(fi, ki) in reach {
        scan_hot_fn(&files[fi], ki, &mut out);
    }
    out
}

/// Builds the graph, runs reachability, and returns (reach, graph is kept
/// internal). Convenience wrapper used by `analyze`.
pub fn hot_reachable(files: &[FileModel]) -> BTreeSet<FnId> {
    CallGraph::build(files).reach(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot(src: &str) -> Vec<Violation> {
        let files = vec![FileModel::build("crates/x/src/a.rs", src)];
        let reach = hot_reachable(&files);
        let raw = scan_reachable(&files, &reach);
        apply_allows(&files, raw).0
    }

    #[test]
    fn alloc_panic_hash_and_telemetry_fire() {
        let v = hot("// alya:hot\nfn k(out: &mut Vec<f64>) {\n\
             out.push(1.0);\n\
             let x: Option<u32> = None; x.unwrap();\n\
             let m: HashMap<u32, f64> = HashMap::new();\n\
             tally_elements(\"rsp\", 1);\n\
             }\n");
        let names: Vec<&str> = v.iter().map(|x| x.lint.name()).collect();
        assert!(names.contains(&"hot-alloc"));
        assert!(names.contains(&"hot-panic"));
        assert!(names.contains(&"hash-iter"));
        assert!(names.contains(&"hot-telemetry"));
    }

    #[test]
    fn debug_assert_and_extend_from_slice_are_legal() {
        let v = hot("// alya:hot\nfn k(s: &mut Vec<f64>, xs: &[f64]) {\n\
             debug_assert!(xs.len() > 0);\ns.clear();\ns.extend_from_slice(xs);\n}\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn violations_only_fire_on_reachable_fns() {
        let v = hot("fn cold_helper(v: &mut Vec<u32>) { v.push(1); v2.unwrap(); }\n");
        assert!(v.is_empty());
    }

    #[test]
    fn allow_comment_suppresses_exactly_its_lint() {
        let v = hot("// alya:hot\nfn k(s: &mut Vec<f64>) {\n\
             // alya:allow(hot-alloc): bounded stash append, drained each batch\n\
             s.push(1.0);\n\
             s.to_vec();\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, LintKind::HotAlloc);
        assert!(v[0].message.contains("to_vec"));
    }

    #[test]
    fn unsafe_linkage_wants_safety_marker_and_pass() {
        let sanction = [UnsafeSanction {
            file: "crates/x/src/a.rs",
            marker: "disjoint rows (pass 2, races::check_coloring)",
        }];
        let good = FileModel::build(
            "crates/x/src/a.rs",
            "// SAFETY: disjoint rows (pass 2, races::check_coloring).\n\
             unsafe impl Send for X {}\n",
        );
        assert!(check_unsafe_linkage(&[good], &sanction).is_empty());

        let missing = FileModel::build("crates/x/src/a.rs", "unsafe impl Send for X {}\n");
        let v = check_unsafe_linkage(&[missing], &sanction);
        assert_eq!(v.len(), 2); // no SAFETY comment + stale allowlist entry
        assert!(v.iter().all(|x| x.lint == LintKind::MissingSafety));

        let wrong_file = FileModel::build(
            "crates/x/src/b.rs",
            "// SAFETY: disjoint rows (pass 2, races::check_coloring).\n\
             unsafe impl Send for X {}\n",
        );
        let v = check_unsafe_linkage(&[wrong_file], &sanction);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("no sanctioned sites"));
    }

    #[test]
    fn duplicate_sites_cannot_share_one_marker() {
        let sanction = [UnsafeSanction {
            file: "crates/x/src/a.rs",
            marker: "pass 2 proves it",
        }];
        let m = FileModel::build(
            "crates/x/src/a.rs",
            "// SAFETY: pass 2 proves it.\nunsafe impl Send for X {}\n\
             // SAFETY: pass 2 proves it.\nunsafe impl Sync for X {}\n",
        );
        let v = check_unsafe_linkage(&[m], &sanction);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("no unused sanctioned marker"));
    }
}
