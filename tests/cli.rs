//! `mutation_matrix` and `oracle_diff` gate CI, so their command lines
//! must not fail open: every malformed command line exits with code 2,
//! prints nothing on standard output and writes no report, and `--help`
//! prints the usage without running anything.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("holistic_root_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run(bin: &str, dir: &Path, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("{bin} runs: {e}"))
}

fn assert_rejected(bin: &str, dir: &Path, cases: &[(&str, Vec<&str>)]) {
    for (what, args) in cases {
        let out = run(bin, dir, args);
        assert_eq!(out.status.code(), Some(2), "{what}: {args:?}");
        assert!(out.stdout.is_empty(), "{what}: printed {:?}", out.stdout);
        assert!(!out.stderr.is_empty(), "{what}: no error message");
        assert!(
            std::fs::read_dir(dir).unwrap().next().is_none(),
            "{what}: wrote a file"
        );
    }
}

fn assert_help(bin: &str, name: &str, dir: &Path, out_flag: &[&str]) {
    for args in [&["--help"][..], &["-h"], &["--smoke", "--help"]] {
        let args = [args, out_flag].concat();
        let out = run(bin, dir, &args);
        assert!(out.status.success(), "{args:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 usage");
        assert!(stdout.starts_with(&format!("usage: {name}")), "{stdout}");
        assert!(
            std::fs::read_dir(dir).unwrap().next().is_none(),
            "{args:?} ran and wrote a report"
        );
    }
}

const MUTATION_MATRIX: &str = env!("CARGO_BIN_EXE_mutation_matrix");
const ORACLE_DIFF: &str = env!("CARGO_BIN_EXE_oracle_diff");

#[test]
fn mutation_matrix_rejects_malformed_command_lines() {
    let dir = scratch_dir("mutation_matrix");
    let out = ["--out", "kill.json"];
    let with_out = |args: &[&'static str]| [args, &out[..]].concat();
    let cases: Vec<(&str, Vec<&str>)> = vec![
        ("NaN gate", with_out(&["--smoke", "--gate", "nan"])),
        ("negative gate", with_out(&["--smoke", "--gate", "-1"])),
        ("gate above one", with_out(&["--smoke", "--gate", "1.5"])),
        ("malformed gate", with_out(&["--smoke", "--gate", "0.O9"])),
        ("flag as value", vec!["--out", "--smoke"]),
        ("repeated flag", with_out(&["--smoke", "--smoke"])),
        (
            "repeated value flag",
            with_out(&["--smoke", "--threads", "1", "--threads", "2"]),
        ),
        ("zero threads", with_out(&["--smoke", "--threads", "0"])),
        ("zero budget", with_out(&["--smoke", "--budget-secs", "0"])),
        ("unknown automaton", with_out(&["--automaton", "naive"])),
        (
            "smoke on the simplified corpus",
            with_out(&["--smoke", "--automaton", "simplified"]),
        ),
        (
            "checkpoint and resume",
            with_out(&["--smoke", "--checkpoint", "a", "--resume", "b"]),
        ),
        (
            "resume without a checkpoint",
            with_out(&["--smoke", "--resume", "ck"]),
        ),
        ("unknown flag", with_out(&["--smoke", "--gates", "0.9"])),
        ("stray positional", with_out(&["--smoke", "extra"])),
        ("missing value", vec!["--smoke", "--gate"]),
    ];
    assert_rejected(MUTATION_MATRIX, &dir, &cases);
    assert_help(MUTATION_MATRIX, "mutation_matrix", &dir, &out);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oracle_diff_rejects_malformed_command_lines() {
    let dir = scratch_dir("oracle_diff");
    let out = ["--out", "diff.json"];
    let with_out = |args: &[&'static str]| [args, &out[..]].concat();
    let cases: Vec<(&str, Vec<&str>)> = vec![
        (
            "zero state budget",
            with_out(&["--smoke", "--max-states", "0"]),
        ),
        (
            "malformed state budget",
            with_out(&["--smoke", "--max-states", "1e6"]),
        ),
        ("zero bound", with_out(&["--smoke", "--bound", "0"])),
        ("negative bound", with_out(&["--smoke", "--bound", "-3"])),
        ("flag as value", vec!["--out", "--smoke"]),
        ("repeated flag", with_out(&["--smoke", "--smoke"])),
        ("unknown flag", with_out(&["--smoke", "--bounds", "4"])),
        ("stray positional", with_out(&["--smoke", "extra"])),
        ("missing value", vec!["--smoke", "--bound"]),
    ];
    assert_rejected(ORACLE_DIFF, &dir, &cases);
    assert_help(ORACLE_DIFF, "oracle_diff", &dir, &out);
    let _ = std::fs::remove_dir_all(&dir);
}
