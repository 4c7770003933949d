//! The run lines in the docs stay true: every `--bin X` and `--example X`
//! that a document, CI step or hook names is a target the workspace
//! builds, and `README.md` runs every bin and example there is.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The files whose `--bin` / `--example` lines must name real targets.
const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    ".github/workflows/ci.yml",
    ".githooks/pre-push",
    ".claude/skills/verify/SKILL.md",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `(kind, name)` target of the workspace's member crates: `bin`s
/// from `src/bin/*.rs` and `[[bin]]`, `example`s from `[[example]]`.
fn targets() -> BTreeSet<(&'static str, String)> {
    let mut out = BTreeSet::new();
    let crates = fs::read_dir(root().join("crates")).expect("crates/ lists");
    for krate in crates.map(|e| e.expect("crates/ entry").path()) {
        if let Ok(bins) = fs::read_dir(krate.join("src/bin")) {
            for bin in bins.map(|e| e.expect("src/bin entry").path()) {
                if bin.extension().is_some_and(|x| x == "rs") {
                    let stem = bin.file_stem().expect("a file name").to_string_lossy();
                    out.insert(("bin", stem.into_owned()));
                }
            }
        }
        let mut section = "";
        for line in read(&krate.join("Cargo.toml")).lines().map(str::trim) {
            match line {
                "[[bin]]" => section = "bin",
                "[[example]]" => section = "example",
                _ if line.starts_with('[') => section = "",
                _ => {
                    if let Some(name) = line.strip_prefix("name = ") {
                        if !section.is_empty() {
                            out.insert((section, name.trim_matches('"').to_owned()));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Every `(kind, name)` that `text` runs through `--bin name` or
/// `--example name`.
fn named(text: &str) -> BTreeSet<(&'static str, String)> {
    let mut out = BTreeSet::new();
    for kind in ["bin", "example"] {
        let flag = format!("--{kind} ");
        for (at, _) in text.match_indices(&flag) {
            let name: String = text[at + flag.len()..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
                .collect();
            if !name.is_empty() {
                out.insert((kind, name));
            }
        }
    }
    out
}

#[test]
fn every_bin_and_example_the_docs_run_exists() {
    let targets = targets();
    let mut stale = Vec::new();
    for doc in DOCS {
        for (kind, name) in named(&read(&root().join(doc))) {
            if !targets.contains(&(kind, name.clone())) {
                stale.push(format!("{doc}: --{kind} {name}"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "run lines naming no target:\n{}",
        stale.join("\n")
    );
}

#[test]
fn the_readme_runs_every_bin_and_example() {
    let readme = named(&read(&root().join("README.md")));
    let missing: Vec<String> = targets()
        .difference(&readme)
        .map(|(kind, name)| format!("--{kind} {name}"))
        .collect();
    assert!(
        missing.is_empty(),
        "README.md never runs:\n{}",
        missing.join("\n")
    );
}
