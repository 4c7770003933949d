//! Name-based call extraction and fixpoint reachability.
//!
//! Without type information the graph is an over-approximation: a method
//! call `.add(...)` reaches *every* method named `add` in the workspace.
//! That errs exactly the right way for a hot-path lint — anything that
//! might run inside the assembly loop is held to the hot-path rules — and
//! the `// alya:cold` marker prunes the instrumentation-only impls that
//! monomorphization removes from production builds (e.g. `TraceRecorder`,
//! which is only reachable when `R::ENABLED`). Known gap: functions passed
//! as values (`v.iter().map(f64::abs)`) are not treated as
//! calls; hot paths in this workspace invoke everything directly.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::items::FileModel;
use crate::lexer::TokenKind;

/// One syntactic call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    /// `name(...)` — resolves to free functions named `name`.
    Bare(String),
    /// `qualifier::name(...)` — resolves to methods of type `qualifier`, or
    /// free functions of the module file named `qualifier`.
    Path(String, String),
    /// `.name(...)` — resolves to every method named `name`.
    Method(String),
    /// `name!(...)` — not resolved; lints match macros directly.
    Macro(String),
}

/// Keywords that can precede `(` without being calls.
const NOT_CALLS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "in", "as",
    "let", "move", "ref", "mut", "fn", "impl", "trait", "pub", "use", "where", "unsafe", "dyn",
    "crate", "super", "self", "const", "static", "enum", "struct", "mod", "type", "async", "await",
    "box", "yield",
];

/// Extracts the call sites in `file.fns[fn_idx]`'s body. `self_container`
/// resolves `Self::x(...)` to the enclosing impl type.
pub fn calls_in(file: &FileModel, fn_idx: usize) -> Vec<Call> {
    let f = &file.fns[fn_idx];
    let toks = &file.tokens;
    let mut out = Vec::new();
    let rng = f.body.clone();
    let mut i = rng.start;
    while i < rng.end {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || t.is_comment() {
            i += 1;
            continue;
        }
        // Next non-comment token.
        let mut j = i + 1;
        while j < rng.end && toks[j].is_comment() {
            j += 1;
        }
        let next = toks.get(j);
        if next.is_some_and(|n| n.is_punct('!')) {
            // `name!(...)` / `name![...]` / `name! {...}`.
            let after = toks.get(j + 1);
            if after.is_some_and(|a| a.is_punct('(') || a.is_punct('[') || a.is_punct('{')) {
                out.push(Call::Macro(t.text.clone()));
            }
            i = j + 1;
            continue;
        }
        let calls_through_turbofish = |mut k: usize| {
            // Accept `name(`, `name::<T>(`; reject anything else.
            if toks.get(k).is_some_and(|n| n.is_punct('(')) {
                return true;
            }
            if toks.get(k).is_some_and(|n| n.is_punct(':'))
                && toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(k + 2).is_some_and(|n| n.is_punct('<'))
            {
                let mut depth = 0i32;
                k += 2;
                while let Some(n) = toks.get(k) {
                    if n.is_punct('<') {
                        depth += 1;
                    } else if n.is_punct('>') {
                        depth -= 1;
                        if depth == 0 {
                            return toks.get(k + 1).is_some_and(|p| p.is_punct('('));
                        }
                    } else if n.is_punct(';') || n.is_punct('{') {
                        break;
                    }
                    k += 1;
                }
            }
            false
        };
        if !calls_through_turbofish(j) {
            i += 1;
            continue;
        }
        if NOT_CALLS.contains(&t.text.as_str()) {
            i += 1;
            continue;
        }
        // Previous non-comment token decides the call flavor.
        let prev = prev_non_comment(toks, rng.start, i);
        let prev2 = prev.and_then(|p| prev_non_comment(toks, rng.start, p));
        let is_path = matches!((prev, prev2), (Some(p1), Some(p2))
            if toks[p1].is_punct(':') && toks[p2].is_punct(':'));
        if is_path {
            let seg = prev2
                .and_then(|p2| prev_non_comment(toks, rng.start, p2))
                .map(|q| &toks[q]);
            if let Some(q) = seg.filter(|q| q.kind == TokenKind::Ident) {
                let qual = if q.text == "Self" {
                    file.fns[fn_idx].container.clone().unwrap_or_default()
                } else {
                    q.text.clone()
                };
                out.push(Call::Path(qual, t.text.clone()));
            } else {
                out.push(Call::Bare(t.text.clone()));
            }
        } else if prev.is_some_and(|p| toks[p].is_punct('.')) {
            out.push(Call::Method(t.text.clone()));
        } else {
            out.push(Call::Bare(t.text.clone()));
        }
        i = j;
    }
    out
}

fn prev_non_comment(toks: &[crate::lexer::Token], start: usize, i: usize) -> Option<usize> {
    let mut j = i;
    while j > start {
        j -= 1;
        if !toks[j].is_comment() {
            return Some(j);
        }
    }
    None
}

/// Global function id: (file index, fn index).
pub type FnId = (usize, usize);

/// The workspace-wide call graph with its resolution indexes.
pub struct CallGraph {
    /// Free functions by name.
    free: BTreeMap<String, Vec<FnId>>,
    /// Methods (and trait default methods) by name.
    methods: BTreeMap<String, Vec<FnId>>,
    /// Functions by (container, name).
    qualified: BTreeMap<(String, String), Vec<FnId>>,
    /// Free functions by (module stem, name).
    by_module: BTreeMap<(String, String), Vec<FnId>>,
    /// Extracted calls per function.
    calls: BTreeMap<FnId, Vec<Call>>,
}

/// Module name a file's free functions are addressed by in path calls:
/// the file stem, except `lib.rs`/`mod.rs` which take their directory name
/// (with a leading `alya-` prefix dropped, matching the `use alya_x as x`
/// aliasing convention in this workspace).
pub fn module_stem(path: &str) -> String {
    let parts: Vec<&str> = path.rsplit('/').collect();
    let stem = parts[0].trim_end_matches(".rs");
    if stem != "lib" && stem != "mod" {
        return stem.to_string();
    }
    let dir = parts
        .iter()
        .skip(1)
        .find(|d| **d != "src")
        .copied()
        .unwrap_or(stem);
    dir.trim_start_matches("alya-").replace('-', "_")
}

impl CallGraph {
    pub fn build(files: &[FileModel]) -> Self {
        let mut g = Self {
            free: BTreeMap::new(),
            methods: BTreeMap::new(),
            qualified: BTreeMap::new(),
            by_module: BTreeMap::new(),
            calls: BTreeMap::new(),
        };
        for (fi, file) in files.iter().enumerate() {
            let module = module_stem(&file.path);
            for (ki, f) in file.fns.iter().enumerate() {
                let id: FnId = (fi, ki);
                match &f.container {
                    None => {
                        g.free.entry(f.name.clone()).or_default().push(id);
                        g.by_module
                            .entry((module.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                    }
                    Some(c) => {
                        g.methods.entry(f.name.clone()).or_default().push(id);
                        g.qualified
                            .entry((c.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                    }
                }
                g.calls.insert(id, calls_in(file, ki));
            }
        }
        g
    }

    /// Resolves one call to candidate definitions.
    fn resolve(&self, call: &Call) -> Vec<FnId> {
        match call {
            Call::Bare(n) => self.free.get(n).cloned().unwrap_or_default(),
            Call::Method(n) => self.methods.get(n).cloned().unwrap_or_default(),
            Call::Path(q, n) => {
                let mut out = self
                    .qualified
                    .get(&(q.clone(), n.clone()))
                    .cloned()
                    .unwrap_or_default();
                out.extend(
                    self.by_module
                        .get(&(q.clone(), n.clone()))
                        .cloned()
                        .unwrap_or_default(),
                );
                out
            }
            Call::Macro(_) => Vec::new(),
        }
    }

    /// Fixpoint reachability from the hot roots, pruned at `alya:cold`
    /// functions. Returns the reachable set (roots included).
    pub fn reach(&self, files: &[FileModel]) -> BTreeSet<FnId> {
        let mut seen = BTreeSet::new();
        let mut work: VecDeque<FnId> = VecDeque::new();
        for (fi, file) in files.iter().enumerate() {
            for (ki, f) in file.fns.iter().enumerate() {
                if f.hot && !f.cold {
                    seen.insert((fi, ki));
                    work.push_back((fi, ki));
                }
            }
        }
        while let Some(id) = work.pop_front() {
            for call in self.calls.get(&id).into_iter().flatten() {
                for cand in self.resolve(call) {
                    if files[cand.0].fns[cand.1].cold || seen.contains(&cand) {
                        continue;
                    }
                    seen.insert(cand);
                    work.push_back(cand);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::build("crates/x/src/a.rs", src)
    }

    #[test]
    fn extracts_bare_path_method_and_macro_calls() {
        let m = model(
            "fn f(m: &M) { helper(); gather::conn(m); m.element(3); vec![1]; \
             let v: Vec<u32> = it.collect::<Vec<u32>>(); }",
        );
        let calls = calls_in(&m, 0);
        assert!(calls.contains(&Call::Bare("helper".into())));
        assert!(calls.contains(&Call::Path("gather".into(), "conn".into())));
        assert!(calls.contains(&Call::Method("element".into())));
        assert!(calls.contains(&Call::Macro("vec".into())));
        assert!(calls.contains(&Call::Method("collect".into())));
    }

    #[test]
    fn keywords_and_tuples_are_not_calls() {
        let m = model("fn f() { if (a, b) == (c, d) { return (1, 2); } match (x) { _ => {} } }");
        let calls = calls_in(&m, 0);
        assert!(calls.is_empty());
    }

    #[test]
    fn self_paths_resolve_to_the_impl_type() {
        let m = model("impl Foo { fn a() { Self::b(); } fn b() {} }");
        let calls = calls_in(&m, 0);
        assert_eq!(calls, vec![Call::Path("Foo".into(), "b".into())]);
    }

    #[test]
    fn module_stems_for_lib_and_mod_files() {
        assert_eq!(module_stem("crates/core/src/gather.rs"), "gather");
        assert_eq!(module_stem("crates/telemetry/src/lib.rs"), "telemetry");
        assert_eq!(module_stem("crates/core/src/kernels/mod.rs"), "kernels");
        assert_eq!(module_stem("crates/core/src/kernels/rsp.rs"), "rsp");
    }

    #[test]
    fn reachability_follows_calls_and_stops_at_cold() {
        let src = "// alya:hot\nfn root() { step(); trace(); }\n\
                   fn step() { leaf(); }\n\
                   fn leaf() {}\n\
                   // alya:cold: instrumentation only\nfn trace() { expensive(); }\n\
                   fn expensive() {}\n\
                   fn unrelated() {}\n";
        let files = vec![model(src)];
        let g = CallGraph::build(&files);
        let reach = g.reach(&files);
        let names: Vec<&str> = reach
            .iter()
            .map(|&(fi, ki)| files[fi].fns[ki].name.as_str())
            .collect();
        assert_eq!(names, vec!["root", "step", "leaf"]);
    }

    #[test]
    fn method_calls_overapproximate_across_impls() {
        let src = "// alya:hot\nfn root(s: &mut S) { s.add(1); }\n\
                   impl A { fn add(&mut self, _x: u32) {} }\n\
                   impl B { fn add(&mut self, _x: u32) {} }\n";
        let files = vec![model(src)];
        let g = CallGraph::build(&files);
        let reach = g.reach(&files);
        assert_eq!(reach.len(), 3);
    }
}
