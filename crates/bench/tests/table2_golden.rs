//! Golden-output test for the Table 2 report that `table2_bench`
//! prints on standard output.
//!
//! Pins `docs/table2_sample_output.txt` against the binary's actual
//! report of a `--quick` run so formatting regressions (dropped columns, renamed
//! properties, reordered blocks, changed verdicts or schema counts)
//! are caught. Timings vary run to run, so every duration token is
//! normalized to `<T>` and runs of spaces are collapsed (column
//! padding widens with the printed duration) before comparing.

use std::process::Command;

/// Whether a token is a rendered `Duration` (e.g. `7.99ms`, `1.40s`,
/// `22.4µs`, `391.2s`) — digits and dots followed by a time unit.
fn is_duration(token: &str) -> bool {
    for unit in ["ns", "µs", "us", "ms", "s"] {
        if let Some(prefix) = token.strip_suffix(unit) {
            if !prefix.is_empty()
                && prefix
                    .chars()
                    .all(|c| c.is_ascii_digit() || c == '.' || c == ',')
                && prefix.chars().any(|c| c.is_ascii_digit())
            {
                return true;
            }
        }
    }
    false
}

/// Normalizes a report: duration tokens become `<T>`, space runs
/// collapse, trailing whitespace is trimmed.
fn normalize(report: &str) -> String {
    let mut out = String::new();
    for line in report.lines() {
        let tokens: Vec<String> = line
            .split_whitespace()
            .map(|t| {
                if is_duration(t) {
                    "<T>".to_owned()
                } else {
                    t.to_owned()
                }
            })
            .collect();
        out.push_str(&tokens.join(" "));
        out.push('\n');
    }
    out
}

#[test]
fn table2_report_matches_the_golden_sample() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/table2_sample_output.txt"
    );
    let golden = std::fs::read_to_string(golden_path).expect("golden sample exists");

    let dir = std::env::temp_dir().join(format!("holistic_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let output = Command::new(env!("CARGO_BIN_EXE_table2_bench"))
        .args(["--quick", "--out"])
        .arg(dir.join("bench.json"))
        .output()
        .expect("table2_bench runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        output.status.success(),
        "table2_bench failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let actual = String::from_utf8(output.stdout).expect("utf-8 report");

    let (golden_n, actual_n) = (normalize(&golden), normalize(&actual));
    if golden_n != actual_n {
        for (i, (g, a)) in golden_n.lines().zip(actual_n.lines()).enumerate() {
            assert_eq!(
                g,
                a,
                "report line {} diverges from docs/table2_sample_output.txt \
                 (regenerate the sample if the format change is intentional)",
                i + 1
            );
        }
        panic!(
            "report length diverges: golden {} lines, actual {} lines",
            golden_n.lines().count(),
            actual_n.lines().count()
        );
    }
}

#[test]
fn normalizer_masks_durations_only() {
    assert!(is_duration("7.99ms"));
    assert!(is_duration("1.40s"));
    assert!(is_duration("22.4µs"));
    assert!(is_duration("391.2s"));
    assert!(!is_duration("s"));
    assert!(!is_duration("schemas"));
    assert!(!is_duration("4.68s,")); // trailing comma: not a bare token
    assert!(!is_duration("90"));
    assert!(!is_duration("BV-Just0"));
    assert_eq!(
        normalize("total:   3.2s  (paper: < 70 s)"),
        "total: <T> (paper: < 70 s)\n"
    );
}
