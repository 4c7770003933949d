//! End-to-end exercise of the `audit` binary: the full audit must pass on
//! the real kernels, and each seeded-violation mode must be caught (exit 0
//! in seed mode means "the analyzer saw the breach").

use std::process::Command;

fn audit(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_audit"))
        .args(args)
        .output()
        .expect("audit binary runs")
}

#[test]
fn full_audit_is_clean_on_the_real_kernels() {
    let out = audit(&[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "audit failed:\n{stdout}");
    assert!(stdout.contains("audit clean"), "{stdout}");
}

#[test]
fn seeded_violations_are_all_caught() {
    for mode in ["coloring", "contract-store", "contract-registers"] {
        let out = audit(&["--seed-violation", mode]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "seeded {mode} violation was not caught:\n{stdout}"
        );
        assert!(stdout.contains("caught"), "{stdout}");
    }
}

#[test]
fn list_names_every_pass_and_seed_mode() {
    let out = audit(&["--list"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for pass in ["1 ", "2 ", "3 ", "4 ", "5 ", "6 ", "7 "] {
        assert!(
            stdout.contains(&format!("  {pass}")),
            "pass {pass}: {stdout}"
        );
    }
    for retired in ["5 ", "7 "] {
        assert!(stdout.contains(&format!("  {retired} retired")), "{stdout}");
    }
    for mode in [
        "coloring",
        "contract-store",
        "contract-registers",
        "shard-mismatch",
        "comm-drop",
        "overlap-stall",
        "telemetry-skew",
    ] {
        assert!(stdout.contains(mode), "mode {mode}: {stdout}");
    }
}

#[test]
fn unknown_arguments_fail_fast() {
    assert!(!audit(&["--nonsense"]).status.success());
    assert!(!audit(&["--seed-violation", "bogus"]).status.success());
}
