//! Integration tests of the `rasengan` CLI binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rasengan"))
}

#[test]
fn list_shows_all_benchmarks() {
    let out = cli().arg("list").output().expect("cli runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for id in ["F1", "K4", "J2", "S3", "G4", "M2", "B1", "P4"] {
        assert!(text.contains(id), "missing {id} in listing");
    }
    // Header + 32 rows.
    assert_eq!(text.lines().count(), 33);
}

#[test]
fn solve_reports_metrics() {
    let out = cli()
        .args(["solve", "-b", "J1", "-i", "40", "--seed", "3"])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ARG"));
    assert!(text.contains("feasible      : true"));
}

#[test]
fn solve_with_baseline_algorithm() {
    for alg in ["chocoq", "pqaoa", "hea"] {
        let out = cli()
            .args(["solve", "-b", "F1", "-a", alg, "-i", "40"])
            .output()
            .expect("cli runs");
        assert!(out.status.success(), "{alg} failed");
        assert!(String::from_utf8_lossy(&out.stdout).contains("objective"));
    }
}

#[test]
fn solve_rejects_removed_algorithm() {
    let out = cli()
        .args(["solve", "-b", "F1", "-a", "gas"])
        .output()
        .expect("cli runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));
}

#[test]
fn inspect_shows_chain() {
    let out = cli()
        .args(["inspect", "-b", "S1"])
        .output()
        .expect("cli runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("basis size"));
    assert!(text.contains("τ_0"));
}

#[test]
fn export_emits_qasm() {
    let out = cli()
        .args(["export", "-b", "F1"])
        .output()
        .expect("cli runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("OPENQASM 3.0;"));
    assert!(text.contains("measure"));
}

#[test]
fn save_and_load_roundtrip() {
    let path = std::env::temp_dir().join("rasengan-cli-roundtrip.problem");
    let out = cli()
        .args(["save", "-b", "S1", "-o", path.to_str().unwrap()])
        .output()
        .expect("cli runs");
    assert!(out.status.success());
    let out = cli()
        .args(["solve", "-f", path.to_str().unwrap(), "-i", "30"])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("feasible      : true"));
}

#[test]
fn unknown_benchmark_fails_cleanly() {
    let out = cli()
        .args(["solve", "-b", "Z9"])
        .output()
        .expect("cli runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"));
}

#[test]
fn unknown_flag_fails_cleanly() {
    let out = cli()
        .args(["solve", "--frobnicate"])
        .output()
        .expect("cli runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn missing_command_prints_usage() {
    let out = cli().output().expect("cli runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}
