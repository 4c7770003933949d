//! Pass 3 — source lint gating.
//!
//! The compiler and clippy enforce the workspace's unsafety and
//! hash-order policy; this pass holds their configuration in place and
//! walks the sources for the one escape hatch:
//!
//! * the workspace `Cargo.toml` sets `unsafe_code = "deny"` and clippy's
//!   `undocumented_unsafe_blocks`, and the root `clippy.toml` disallows
//!   `HashMap`/`HashSet` and lets tests unwrap ([`REQUIRED`]). Clippy is
//!   not part of `cargo test`, so a deleted entry would otherwise pass
//!   unnoticed;
//! * every member opts in with `[lints] workspace = true`, so those lints
//!   cover every crate;
//! * an attribute that lowers `unsafe_code` — `#[allow(unsafe_code)]` at
//!   an `unsafe` site — appears in exactly the files of [`UNSAFE_FILES`],
//!   tests, benches and examples included;
//! * every crate's `lib.rs` carries `#![forbid(unsafe_code)]`, except the
//!   crates holding one of those files (only `alya-core`, whose
//!   `SharedRhs` scatter invariants the race detector and the shard
//!   validator prove).

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The files allowed to hold `#[allow(unsafe_code)]`: the shared-RHS
/// scatter and the counting allocator of the allocation test.
pub const UNSAFE_FILES: [&str; 2] = ["crates/core/src/drivers.rs", "tests/alloc.rs"];

/// `(file, text)`: each file must contain its text.
pub const REQUIRED: [(&str, &str); 8] = [
    ("Cargo.toml", "[workspace.lints.rust]"),
    ("Cargo.toml", "unsafe_code = \"deny\""),
    ("Cargo.toml", "undocumented_unsafe_blocks = \"warn\""),
    ("clippy.toml", "{ path = \"std::collections::HashMap\""),
    ("clippy.toml", "{ path = \"std::collections::HashSet\""),
    ("clippy.toml", "allow-unwrap-in-tests = true"),
    ("clippy.toml", "allow-expect-in-tests = true"),
    ("clippy.toml", "allow-panic-in-tests = true"),
];

/// One policy breach found in the sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceViolation {
    /// Path (workspace-relative where possible) of the offending file.
    pub file: String,
    /// What the policy expected.
    pub message: String,
}

impl std::fmt::Display for SourceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.file, self.message)
    }
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .display()
        .to_string()
        .replace('\\', "/")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    out.sort();
}

/// Crate directory names (under `crates/`) that hold a file of
/// [`UNSAFE_FILES`] and therefore cannot carry `#![forbid(unsafe_code)]`.
fn unsafe_crates() -> BTreeSet<&'static str> {
    UNSAFE_FILES
        .iter()
        .filter_map(|f| f.strip_prefix("crates/"))
        .filter_map(|f| f.split('/').next())
        .collect()
}

/// Lines (1-based) of `src` holding an attribute that lowers the
/// `unsafe_code` lint. Only a line that starts with `#[` or `#![` counts,
/// so the words in a comment or a string literal do not.
pub fn unsafe_allow_lines(src: &str) -> Vec<usize> {
    src.lines()
        .enumerate()
        .filter(|(_, l)| {
            let l = l.trim_start();
            (l.starts_with("#[") || l.starts_with("#!["))
                && l.contains("unsafe_code")
                && ["allow(", "expect(", "warn("].iter().any(|a| l.contains(a))
        })
        .map(|(i, _)| i + 1)
        .collect()
}

/// Runs the whole source audit over a workspace root.
pub fn check_workspace(root: &Path) -> Vec<SourceViolation> {
    let mut out = Vec::new();
    let exempt_crates = unsafe_crates();

    for (file, text) in REQUIRED {
        match fs::read_to_string(root.join(file)) {
            Ok(s) if s.contains(text) => {}
            Ok(_) => out.push(SourceViolation {
                file: file.into(),
                message: format!("lacks `{text}`"),
            }),
            Err(e) => out.push(SourceViolation {
                file: file.into(),
                message: format!("unreadable: {e}"),
            }),
        }
    }

    let Ok(entries) = fs::read_dir(root.join("crates")) else {
        out.push(SourceViolation {
            file: "crates/".into(),
            message: "workspace crates directory not found".into(),
        });
        return out;
    };
    let mut crate_dirs: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    // Every source the workspace compiles: each crate's targets, and the
    // top-level tests and examples the bench crate builds.
    let mut files = Vec::new();
    for dir in &crate_dirs {
        let name = dir
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .to_string();

        // Every member opts into the workspace lints.
        let manifest = dir.join("Cargo.toml");
        match fs::read_to_string(&manifest) {
            Ok(s) if s.contains("[lints]") && s.contains("workspace = true") => {}
            Ok(_) => out.push(SourceViolation {
                file: rel(root, &manifest),
                message: "crate does not opt into workspace lints ([lints] workspace = true)"
                    .into(),
            }),
            Err(e) => out.push(SourceViolation {
                file: rel(root, &manifest),
                message: format!("unreadable manifest: {e}"),
            }),
        }

        // forbid(unsafe_code) everywhere but the crates holding an
        // allowed site.
        let lib = dir.join("src/lib.rs");
        let lib_src = fs::read_to_string(&lib).unwrap_or_default();
        if exempt_crates.contains(name.as_str()) {
            if lib_src.contains("#![forbid(unsafe_code)]") {
                out.push(SourceViolation {
                    file: rel(root, &lib),
                    message: format!(
                        "crate holds allowed unsafe sites; forbid(unsafe_code) in alya-{name} cannot compile — remove it or the sites"
                    ),
                });
            }
        } else if !lib_src.contains("#![forbid(unsafe_code)]") {
            out.push(SourceViolation {
                file: rel(root, &lib),
                message: "missing #![forbid(unsafe_code)]".into(),
            });
        }

        for sub in ["src", "tests", "benches", "examples"] {
            rust_files(&dir.join(sub), &mut files);
        }
    }
    rust_files(&root.join("tests"), &mut files);
    rust_files(&root.join("examples"), &mut files);

    // `#[allow(unsafe_code)]` in exactly the listed files.
    let mut holders = BTreeSet::new();
    for f in &files {
        let lines = unsafe_allow_lines(&fs::read_to_string(f).unwrap_or_default());
        if lines.is_empty() {
            continue;
        }
        let path = rel(root, f);
        if !UNSAFE_FILES.contains(&path.as_str()) {
            out.push(SourceViolation {
                file: path.clone(),
                message: format!(
                    "lowers the unsafe_code lint at line(s) {lines:?}; only the files of sources::UNSAFE_FILES may"
                ),
            });
        }
        holders.insert(path);
    }
    for file in UNSAFE_FILES {
        if !holders.contains(file) {
            out.push(SourceViolation {
                file: file.into(),
                message: "listed in sources::UNSAFE_FILES but holds no #[allow(unsafe_code)]: drop the entry".into(),
            });
        }
    }

    out
}

/// Locates the workspace root from a crate's manifest dir (`crates/<x>`).
pub fn workspace_root_from(manifest_dir: &str) -> PathBuf {
    Path::new(manifest_dir)
        .ancestors()
        .nth(2)
        .expect("crates/<name> has a workspace root two levels up")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PathBuf {
        workspace_root_from(env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn this_workspace_passes_the_source_audit() {
        let violations = check_workspace(&root());
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn allowlist_derives_the_exempt_crate_set() {
        assert_eq!(
            unsafe_crates().into_iter().collect::<Vec<_>>(),
            vec!["core"]
        );
    }

    #[test]
    fn attribute_scan_ignores_strings_and_comments() {
        assert!(unsafe_allow_lines("// #[allow(unsafe_code)]\nlet x = 1;").is_empty());
        assert!(unsafe_allow_lines("let s = \"#[allow(unsafe_code)]\";").is_empty());
        assert!(unsafe_allow_lines("#![forbid(unsafe_code)]\n#![deny(unsafe_code)]").is_empty());
        assert_eq!(
            unsafe_allow_lines("#[allow(unsafe_code)]\nunsafe impl Send for T {}\n  #![allow(dead_code, unsafe_code)]"),
            vec![1, 3]
        );
    }

    #[test]
    fn missing_lint_table_is_reported() {
        // A fabricated empty root: everything is missing, nothing panics.
        let tmp = std::env::temp_dir().join("alya-analyze-empty-root");
        let _ = fs::create_dir_all(tmp.join("crates"));
        let violations = check_workspace(&tmp);
        assert!(violations.iter().any(|v| v.file == "Cargo.toml"));
        assert!(violations.iter().any(|v| v.file == "clippy.toml"));
        let _ = fs::remove_dir_all(&tmp);
    }

    #[test]
    fn an_allow_outside_the_listed_files_is_reported() {
        let tmp = std::env::temp_dir().join(format!("alya-analyze-stray-{}", std::process::id()));
        let src = tmp.join("crates/x/src");
        fs::create_dir_all(&src).expect("temp dir");
        fs::write(
            src.join("lib.rs"),
            "#![forbid(unsafe_code)]\n#[allow(unsafe_code)]\nfn f() {}\n",
        )
        .expect("temp file");
        let violations = check_workspace(&tmp);
        let _ = fs::remove_dir_all(&tmp);
        let stray: Vec<_> = violations
            .iter()
            .filter(|v| {
                v.message
                    .contains("lowers the unsafe_code lint at line(s) [2]")
            })
            .collect();
        assert_eq!(stray.len(), 1, "{violations:#?}");
        assert_eq!(stray[0].file, "crates/x/src/lib.rs");
        // Both listed files are absent here, so both entries read stale.
        for file in UNSAFE_FILES {
            assert!(
                violations
                    .iter()
                    .any(|v| v.file == file && v.message.contains("drop the entry")),
                "{file}: {violations:#?}"
            );
        }
    }
}
