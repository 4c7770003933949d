//! The run lines in the docs stay true: every `--bin X` and `--example X`
//! that a document, CI step or hook names is a target the workspace
//! builds, every `cargo test` filter there names a test that exists (a
//! filter matching nothing exits 0, so a renamed test would silently turn
//! a run line into a no-op), and `README.md` runs every bin and example
//! there is. And the one build configuration holds: `.cargo/config.toml`'s
//! flags are in force, and `benchmark/` compiles the crates as the
//! workspace does.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The files whose `--bin`, `--example` and `cargo test` lines must name
/// real targets.
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
/// from `src/bin/*.rs` and `[[bin]]`, `test`s from `tests/*.rs` and
/// `[[test]]`, `example`s from `[[example]]`.
fn targets() -> BTreeSet<(&'static str, String)> {
    let mut out = BTreeSet::new();
    let crates = fs::read_dir(root().join("crates")).expect("crates/ lists");
    for krate in crates.map(|e| e.expect("crates/ entry").path()) {
        for (kind, dir) in [("bin", "src/bin"), ("test", "tests")] {
            let Ok(files) = fs::read_dir(krate.join(dir)) else {
                continue;
            };
            for file in files.map(|e| e.expect("a dir entry").path()) {
                if file.extension().is_some_and(|x| x == "rs") {
                    let stem = file.file_stem().expect("a file name").to_string_lossy();
                    out.insert((kind, stem.into_owned()));
                }
            }
        }
        let mut section = "";
        for line in read(&krate.join("Cargo.toml")).lines().map(str::trim) {
            match line {
                "[[bin]]" => section = "bin",
                "[[test]]" => section = "test",
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

/// Every name that follows `flag` and a space in `text`.
fn names_after(text: &str, flag: &str) -> BTreeSet<String> {
    let flag = format!("{flag} ");
    text.match_indices(&flag)
        .map(|(at, _)| {
            text[at + flag.len()..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
                .collect::<String>()
        })
        .filter(|name| !name.is_empty())
        .collect()
}

/// Every `(kind, name)` that `text` runs through `--bin name` or
/// `--example name`.
fn named(text: &str) -> BTreeSet<(&'static str, String)> {
    let mut out = BTreeSet::new();
    for kind in ["bin", "example"] {
        for name in names_after(text, &format!("--{kind}")) {
            out.insert((kind, name));
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

/// Every `fn` name in the `.rs` files under `dir`.
fn fn_names(dir: &Path, out: &mut BTreeSet<String>) {
    for path in fs::read_dir(dir)
        .expect("a source dir lists")
        .map(|e| e.expect("an entry").path())
    {
        if path.is_dir() {
            fn_names(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            let src = read(&path);
            for (at, _) in src.match_indices("fn ") {
                let name: String = src[at + 3..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                out.insert(name);
            }
        }
    }
}

/// `(--test target, filter)` of every `cargo test` run in `text`. A run
/// ends at the end of its line, an inline-code backtick or a shell `#`,
/// `;`, `&&` or `|`; cargo's `--` ends the part that can hold a filter.
fn test_runs(text: &str) -> Vec<(Option<String>, Option<String>)> {
    text.match_indices("cargo test")
        .map(|(at, run)| {
            let line = text[at + run.len()..].lines().next().unwrap_or_default();
            let line = line
                .split(['`', '#', ';', '&', '|'])
                .next()
                .unwrap_or_default();
            let mut words = line.split_whitespace();
            let (mut target, mut filter) = (None, None);
            while let Some(word) = words.next() {
                match word {
                    "--" => break,
                    "--test" => target = words.next().map(str::to_owned),
                    "-p" | "--package" | "--manifest-path" | "--features" | "-j" => {
                        words.next();
                    }
                    _ if word.starts_with('-') => {}
                    _ => {
                        filter = Some(word.to_owned());
                        break;
                    }
                }
            }
            (target, filter)
        })
        .collect()
}

#[test]
fn every_test_filter_the_docs_run_exists() {
    let targets = targets();
    let mut fns = BTreeSet::new();
    fn_names(&root().join("crates"), &mut fns);
    fn_names(&root().join("tests"), &mut fns);
    let mut stale = Vec::new();
    let mut runs = 0;
    for doc in DOCS {
        for (target, filter) in test_runs(&read(&root().join(doc))) {
            runs += 1;
            if let Some(target) = target.filter(|t| !targets.contains(&("test", t.clone()))) {
                stale.push(format!("{doc}: --test {target} is no test target"));
            }
            if let Some(filter) = filter {
                let last = filter.rsplit("::").next().unwrap_or_default();
                if last.is_empty() || !fns.iter().any(|f| f.starts_with(last)) {
                    stale.push(format!("{doc}: filter {filter} matches no fn"));
                }
            }
        }
    }
    assert!(runs > 0, "no `cargo test` run lines found");
    assert!(
        stale.is_empty(),
        "`cargo test` run lines that run nothing:\n{}",
        stale.join("\n")
    );
}

#[test]
fn the_readme_runs_every_bin_and_example() {
    let readme = named(&read(&root().join("README.md")));
    let missing: Vec<String> = targets()
        .difference(&readme)
        .filter(|(kind, _)| *kind != "test")
        .map(|(kind, name)| format!("--{kind} {name}"))
        .collect();
    assert!(
        missing.is_empty(),
        "README.md never runs:\n{}",
        missing.join("\n")
    );
}

/// `.cargo/config.toml` targets x86-64-v3, so the packed Gauss loop runs
/// as 256-bit ops. A `RUSTFLAGS` environment variable replaces the
/// config's flags wholesale; this fails such a build instead of letting it
/// lose the vector lanes quietly.
#[test]
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
fn the_build_targets_x86_64_v3() {
    assert!(
        cfg!(target_feature = "avx2") && cfg!(target_feature = "fma"),
        "built without AVX2 + FMA: is RUSTFLAGS set? It overrides .cargo/config.toml"
    );
}

/// The `[profile.release]` lines of a manifest, comments and blanks
/// dropped.
fn release_profile(manifest: &str) -> Vec<String> {
    let text = read(&root().join(manifest));
    let mut lines = text.lines().map(str::trim);
    lines.find(|&l| l == "[profile.release]");
    lines
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect()
}

#[test]
fn the_benchmark_builds_with_the_workspaces_release_profile() {
    let workspace = release_profile("Cargo.toml");
    assert!(!workspace.is_empty(), "Cargo.toml has no [profile.release]");
    assert_eq!(release_profile("benchmark/Cargo.toml"), workspace);
}

#[test]
fn the_benchmark_has_no_build_configuration_of_its_own() {
    let own = root().join("benchmark/.cargo");
    assert!(
        !own.exists(),
        "{} would override .cargo/config.toml",
        own.display()
    );
}
