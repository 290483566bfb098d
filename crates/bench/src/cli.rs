//! The strict command-line parser shared by the workspace's binaries
//! (`table2_bench`, `mutation_matrix`, `oracle_diff`).
//!
//! These binaries gate CI, so a command line must never fail open. A
//! binary's flag loop reads values with [`value`], parses them with
//! [`positive`], [`fraction`] or [`rate`] and stores them with [`on`]
//! or [`set`]; [`parse`] runs the loop. An unknown or repeated flag, a
//! missing value, a flag where a value belongs, or a malformed or
//! out-of-range value is an error, never a silent fallback to a default.

use std::process::ExitCode;
use std::str::FromStr;

/// The flags still to be read.
pub type Flags<'a> = std::slice::Iter<'a, String>;

/// Parses the process's arguments with `flags`, the binary's flag loop.
///
/// `Err` is the exit code of a run that must do nothing else: success
/// after `--help` or `-h` (anywhere on the line) printed `usage` to
/// stdout, or 2 after the error and the usage went to stderr, with
/// nothing on stdout.
pub fn parse<T>(
    name: &str,
    usage: &str,
    flags: impl FnOnce(&mut Flags<'_>) -> Result<T, String>,
) -> Result<T, ExitCode> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{usage}");
        return Err(ExitCode::SUCCESS);
    }
    flags(&mut argv.iter()).map_err(|e| {
        eprintln!("{name}: {e}\n{usage}");
        ExitCode::from(2)
    })
}

/// The error for a flag the binary does not know.
pub fn unknown<T>(flag: &str) -> Result<T, String> {
    Err(format!("unknown argument {flag:?}"))
}

/// Switches on a boolean flag, rejecting a repeat.
pub fn on(slot: &mut bool, flag: &str) -> Result<(), String> {
    if std::mem::replace(slot, true) {
        return Err(format!("{flag} given more than once"));
    }
    Ok(())
}

/// Stores a flag's value, rejecting a repeat.
pub fn set<T>(slot: &mut Option<T>, flag: &str, value: T) -> Result<(), String> {
    if slot.replace(value).is_some() {
        return Err(format!("{flag} given more than once"));
    }
    Ok(())
}

/// The value following `flag`; a missing value or another flag in its
/// place is an error.
pub fn value<'a>(it: &mut Flags<'a>, flag: &str) -> Result<&'a str, String> {
    match it.next() {
        Some(v) if !v.starts_with("--") => Ok(v),
        _ => Err(format!("{flag} needs a value")),
    }
}

/// A strictly positive integer.
pub fn positive<T: FromStr + PartialOrd + Default>(flag: &str, value: &str) -> Result<T, String> {
    match value.parse::<T>() {
        Ok(n) if n > T::default() => Ok(n),
        _ => Err(format!("{flag} needs a positive integer, got {value:?}")),
    }
}

/// A finite, non-negative number (NaN and infinities are rejected).
pub fn fraction(flag: &str, value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(f) if f.is_finite() && f >= 0.0 => Ok(f),
        _ => Err(format!(
            "{flag} needs a non-negative fraction, got {value:?}"
        )),
    }
}

/// A rate in `[0, 1]`.
pub fn rate(flag: &str, value: &str) -> Result<f64, String> {
    match fraction(flag, value) {
        Ok(f) if f <= 1.0 => Ok(f),
        _ => Err(format!("{flag} needs a rate in [0, 1], got {value:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_must_be_well_formed_and_in_range() {
        assert_eq!(positive::<usize>("--n", "3"), Ok(3));
        assert_eq!(positive::<i64>("--b", "4"), Ok(4));
        for bad in ["0", "-1", "abc", "", "3x"] {
            assert!(positive::<usize>("--n", bad).is_err(), "{bad}");
            assert!(positive::<i64>("--b", bad).is_err(), "{bad}");
        }
        assert_eq!(fraction("--f", "2.5"), Ok(2.5));
        assert_eq!(rate("--r", "0"), Ok(0.0));
        assert_eq!(rate("--r", "1"), Ok(1.0));
        for bad in ["nan", "NaN", "inf", "-1", "-0.1", "0.O3"] {
            assert!(fraction("--f", bad).is_err(), "{bad}");
            assert!(rate("--r", bad).is_err(), "{bad}");
        }
        assert!(rate("--r", "1.5").is_err());
    }

    #[test]
    fn repeats_and_missing_values_are_errors() {
        let mut flag = false;
        assert!(on(&mut flag, "--x").is_ok());
        assert!(on(&mut flag, "--x").is_err());
        let mut slot = None;
        assert!(set(&mut slot, "--y", 1).is_ok());
        assert!(set(&mut slot, "--y", 2).is_err());
        let argv: Vec<String> = ["--smoke", "-1"].map(String::from).to_vec();
        let mut it = argv.iter();
        assert!(value(&mut it, "--out").is_err(), "a flag is not a value");
        assert_eq!(value(&mut it, "--gate"), Ok("-1"));
        assert!(value(&mut it, "--gate").is_err(), "missing value");
        assert!(unknown::<()>("--thread").is_err());
    }
}
