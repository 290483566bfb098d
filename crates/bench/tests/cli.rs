//! `table2_bench` gates CI, so its command line must not fail open:
//! every malformed command line exits with code 2, prints nothing on
//! standard output and writes no bench file, and `--help` prints the
//! usage without running the matrix.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("holistic_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn table2_bench(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_table2_bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("table2_bench runs")
}

#[test]
fn malformed_command_lines_exit_2_and_run_nothing() {
    let dir = scratch_dir("malformed");
    let baseline = ["--baseline", "missing.json"];
    let cases: Vec<(&str, Vec<&str>)> = vec![
        (
            "malformed regression fraction",
            [&baseline[..], &["--max-total-regression", "0.O3"]].concat(),
        ),
        (
            "negative regression fraction",
            [&baseline[..], &["--max-total-regression", "-0.1"]].concat(),
        ),
        (
            "regression gate without baseline",
            vec!["--max-total-regression", "0.03"],
        ),
        ("malformed threads", vec!["--threads", "abc"]),
        ("zero threads", vec!["--threads", "0"]),
        ("malformed iters", vec!["--iters", "3x"]),
        (
            "malformed checkpoint cadence",
            vec!["--checkpoint", "ck", "--checkpoint-every", "often"],
        ),
        (
            "cadence without checkpoint",
            vec!["--checkpoint-every", "2"],
        ),
        ("unknown flag", vec!["--quick", "--thread", "1"]),
        ("stray positional", vec!["--quick", "extra"]),
        ("repeated flag", vec!["--threads", "1", "--threads", "2"]),
        ("missing value", vec!["--quick", "--iters"]),
        ("flag as value", vec!["--out", "--quick"]),
        ("malformed naive cap", vec!["--naive", "--naive-cap", "abc"]),
        ("zero naive cap", vec!["--naive", "--naive-cap", "0"]),
        ("naive cap without naive", vec!["--naive-cap", "60"]),
        ("repeated naive", vec!["--naive", "--naive"]),
        (
            "checkpoint and resume",
            vec!["--checkpoint", "a", "--resume", "b"],
        ),
    ];
    for (what, args) in cases {
        let out = table2_bench(&dir, &args);
        assert_eq!(out.status.code(), Some(2), "{what}: {args:?}");
        assert!(out.stdout.is_empty(), "{what}: printed {:?}", out.stdout);
        assert!(!out.stderr.is_empty(), "{what}: no error message");
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "{what}: wrote a file"
        );
    }
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    let dir = scratch_dir("help");
    for args in [&["--help"][..], &["-h"], &["--quick", "--help"]] {
        let out = table2_bench(&dir, args);
        assert!(out.status.success(), "{args:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 usage");
        assert!(stdout.starts_with("usage: table2_bench"), "{stdout}");
        assert!(
            !dir.join("BENCH_table2.json").exists(),
            "{args:?} ran the bench"
        );
    }
}
