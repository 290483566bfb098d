//! The differential validation driver.
//!
//! Runs every Table-2 cell and every seeded mutant corpus through both
//! the symbolic checker and the explicit-state oracle at small concrete
//! parameters, compares verdicts under the soundness-approximation
//! rules, replays every symbolic counterexample through the oracle's
//! transition relation, and (in full scope) adjudicates the two
//! documented kill-matrix survivors.
//!
//! ```text
//! cargo run --release --bin oracle_diff                    # full sweep + adjudication
//! cargo run --release --bin oracle_diff -- --smoke         # CI subset (bv-broadcast only)
//! cargo run --release --bin oracle_diff -- --out diff.json # write the JSON report
//! cargo run --release --bin oracle_diff -- --max-states N  # oracle BFS budget per cell
//! cargo run --release --bin oracle_diff -- --bound B       # parameter sweep bound
//! ```
//!
//! Exit status 1 on any definite-verdict disagreement or replay
//! failure — those are soundness bugs in one of the two pipelines.
//!
//! The command line is strict: an unknown or repeated flag, a missing
//! value, or a count or bound that is not a positive integer exits with
//! code 2 before anything runs or prints on stdout. `--help` prints the
//! usage and runs nothing.

use std::process::ExitCode;

use holistic_bench::cli::{self, on, positive, set, value, Flags};
use holistic_oracle::{run_diff, DiffConfig};

const USAGE: &str = "\
usage: oracle_diff [--smoke] [--out PATH] [--max-states N] [--bound B]
";

#[derive(Default)]
struct Options {
    smoke: bool,
    out: Option<String>,
    max_states: Option<usize>,
    bound: Option<i64>,
}

fn parse_args(it: &mut Flags<'_>) -> Result<Options, String> {
    let mut opts = Options::default();
    while let Some(flag) = it.next() {
        let f = flag.as_str();
        match f {
            "--smoke" => on(&mut opts.smoke, f)?,
            "--out" => set(&mut opts.out, f, value(it, f)?.to_owned())?,
            "--max-states" => set(&mut opts.max_states, f, positive(f, value(it, f)?)?)?,
            "--bound" => set(&mut opts.bound, f, positive(f, value(it, f)?)?)?,
            _ => return cli::unknown(f),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match cli::parse("oracle_diff", USAGE, parse_args) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let mut cfg = if opts.smoke {
        DiffConfig::smoke()
    } else {
        DiffConfig::full()
    };
    if let Some(n) = opts.max_states {
        cfg.max_states = n;
    }
    if let Some(b) = opts.bound {
        cfg.param_bound = b;
    }
    println!(
        "oracle_diff: {} scope, state budget {}, parameters <= {}",
        if cfg.smoke { "smoke" } else { "full" },
        cfg.max_states,
        cfg.param_bound
    );
    let start = std::time::Instant::now();
    let report = run_diff(&cfg, |cell| {
        println!(
            "  {} {} -> {} [{}]",
            cell.subject,
            cell.name,
            cell.symbolic,
            cell.agreement.label()
        );
    });
    println!();
    println!("{}", report.render());
    println!("total wall clock: {:.1?}", start.elapsed());

    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("oracle_diff: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("diff report written to {path}");
    }

    if !report.passed() {
        eprintln!(
            "oracle_diff: {} DEFINITE-VERDICT DISAGREEMENT(S) — soundness bug in one of the \
             two pipelines",
            report.disagreements().len()
        );
        return ExitCode::FAILURE;
    }
    println!("oracle_diff: zero definite-verdict disagreements");
    ExitCode::SUCCESS
}
