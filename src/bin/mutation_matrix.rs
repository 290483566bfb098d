//! The mutation kill-matrix driver.
//!
//! Seeds semantic bugs into the verified automata (via
//! `holistic-mutate`), runs the Table-2 property matrix over every
//! mutant, and reports which properties killed which mutants — with
//! every kill confirmed by replaying the counterexample through the
//! concrete counter-system semantics.
//!
//! ```text
//! cargo run --release --bin mutation_matrix                       # both corpora
//! cargo run --release --bin mutation_matrix -- --automaton bv     # bv-broadcast only
//! cargo run --release --bin mutation_matrix -- --smoke            # CI subset (10 bv mutants)
//! cargo run --release --bin mutation_matrix -- --gate 0.9         # exit 1 below 90% caught
//! cargo run --release --bin mutation_matrix -- --out kill.json    # write the JSON report
//! cargo run --release --bin mutation_matrix -- --checkpoint ck/   # record per-cell progress
//! cargo run --release --bin mutation_matrix -- --resume ck/       # skip completed cells
//! ```
//!
//! `--checkpoint DIR` runs every (mutant, property) cell under the
//! resilient supervisor, recording each finished cell to `DIR` as it
//! completes. `--resume DIR` is the same supervised mode but insists
//! the checkpoint already exists: a run killed midway restarts with
//! every completed cell loaded from disk instead of re-verified. Each
//! corpus records under its own subdirectory of `DIR` (`bv_broadcast/`,
//! `simplified_consensus/`), so `--automaton all` keeps the two
//! checkpoints separate.
//!
//! The command line is strict: an unknown or repeated flag, a missing
//! or malformed value (a `--gate` outside `[0, 1]`, a zero count),
//! `--checkpoint` with `--resume`, or `--resume` without a checkpoint
//! exits with code 2 before anything runs or prints on stdout.
//! `--help` prints the usage and runs nothing.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use holistic_bench::cli::{self, on, positive, rate, set, value, Flags};
use holistic_ltl::Justice;
use holistic_mutate::{
    bv_broadcast_corpus, bv_kill_properties, run_kill_matrix, simplified_corpus,
    simplified_kill_properties, smoke_ids, KillConfig, KillMatrix,
};

const USAGE: &str = "\
usage: mutation_matrix [--automaton bv|simplified|all] [--smoke]
                       [--threads N] [--budget-secs N] [--gate RATE]
                       [--out PATH] [--checkpoint DIR | --resume DIR]
";

struct Options {
    automaton: String,
    smoke: bool,
    workers: usize,
    out: Option<String>,
    gate: Option<f64>,
    budget_secs: u64,
    checkpoint: Option<PathBuf>,
    resume: bool,
}

fn parse_args(it: &mut Flags<'_>) -> Result<Options, String> {
    let mut automaton = None;
    let mut smoke = false;
    let mut threads = None;
    let mut out = None;
    let mut gate = None;
    let mut budget_secs = None;
    let mut checkpoint = None;
    let mut resume = None;
    while let Some(flag) = it.next() {
        let f = flag.as_str();
        match f {
            "--automaton" => set(&mut automaton, f, value(it, f)?.to_owned())?,
            "--smoke" => on(&mut smoke, f)?,
            "--threads" => set(&mut threads, f, positive(f, value(it, f)?)?)?,
            "--out" => set(&mut out, f, value(it, f)?.to_owned())?,
            "--gate" => set(&mut gate, f, rate(f, value(it, f)?)?)?,
            "--budget-secs" => set(&mut budget_secs, f, positive(f, value(it, f)?)?)?,
            "--checkpoint" => set(&mut checkpoint, f, PathBuf::from(value(it, f)?))?,
            "--resume" => set(&mut resume, f, PathBuf::from(value(it, f)?))?,
            _ => return cli::unknown(f),
        }
    }
    let automaton = automaton.unwrap_or_else(|| "all".to_owned());
    if !matches!(automaton.as_str(), "bv" | "simplified" | "all") {
        return Err(format!(
            "--automaton must be bv, simplified or all (got {automaton})"
        ));
    }
    if smoke && automaton == "simplified" {
        return Err("--smoke is a bv-broadcast subset; drop --automaton simplified".into());
    }
    if checkpoint.is_some() && resume.is_some() {
        return Err("--checkpoint and --resume are exclusive".into());
    }
    let opts = Options {
        workers: threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(2, |n| n.get().min(8))),
        budget_secs: budget_secs.unwrap_or(60),
        resume: resume.is_some(),
        checkpoint: resume.or(checkpoint),
        automaton,
        smoke,
        out,
        gate,
    };
    if opts.resume {
        for corpus in opts.corpora() {
            let manifest = opts
                .checkpoint
                .as_ref()
                .unwrap()
                .join(corpus)
                .join("manifest.json");
            if !manifest.exists() {
                return Err(format!(
                    "--resume: no checkpoint manifest at {} (use --checkpoint to start one)",
                    manifest.display()
                ));
            }
        }
    }
    Ok(opts)
}

impl Options {
    /// The checkpoint subdirectories of the selected corpora.
    fn corpora(&self) -> Vec<&'static str> {
        let mut corpora = Vec::new();
        if self.automaton != "simplified" {
            corpora.push("bv_broadcast");
        }
        if !self.smoke && self.automaton != "bv" {
            corpora.push("simplified_consensus");
        }
        corpora
    }

    fn config(&self, corpus: &str) -> KillConfig {
        KillConfig {
            workers: self.workers,
            time_budget: Duration::from_secs(self.budget_secs),
            checkpoint: self.checkpoint.as_ref().map(|dir| dir.join(corpus)),
            ..KillConfig::default()
        }
    }
}

fn summarize(m: &KillMatrix) {
    println!("{}", m.render());
    println!(
        "{}: {} mutants — {} killed, {} rejected statically, {} survived, {} unknown \
         (caught rate {:.1}%)",
        m.automaton,
        m.total(),
        m.killed(),
        m.rejected(),
        m.survived(),
        m.unknown(),
        100.0 * m.caught_rate()
    );
    for (id, props) in m.unconfirmed_kills() {
        println!(
            "  !! {id}: unconfirmed counterexample for {}",
            props.join(", ")
        );
    }
    println!();
}

fn main() -> ExitCode {
    let opts = match cli::parse("mutation_matrix", USAGE, parse_args) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let start = std::time::Instant::now();
    let mut matrices = Vec::new();

    for corpus in opts.corpora() {
        let matrix = if corpus == "bv_broadcast" {
            let (model, mut corpus) = bv_broadcast_corpus();
            if opts.smoke {
                let keep = smoke_ids();
                corpus.retain(|m| keep.contains(&m.id.as_str()));
                assert_eq!(corpus.len(), keep.len(), "smoke ids must all exist");
            }
            let properties = bv_kill_properties(&model);
            println!(
                "bv-broadcast: {} mutants x {} properties",
                corpus.len(),
                properties.len()
            );
            run_kill_matrix(
                "bv_broadcast",
                &corpus,
                &properties,
                Justice::from_rules,
                &opts.config("bv_broadcast"),
            )
        } else {
            let (model, corpus) = simplified_corpus();
            let properties = simplified_kill_properties(&model);
            println!(
                "simplified-consensus: {} mutants x {} properties",
                corpus.len(),
                properties.len()
            );
            // The Appendix-F justice is requirement-based (location/variable
            // ids, which rule surgery leaves untouched), so the pristine
            // model's justice applies to every mutant.
            let justice = model.justice();
            run_kill_matrix(
                "simplified_consensus",
                &corpus,
                &properties,
                |_| justice.clone(),
                &opts.config("simplified_consensus"),
            )
        };
        summarize(&matrix);
        matrices.push(matrix);
    }

    println!("total wall clock: {:.1?}", start.elapsed());

    if let Some(path) = &opts.out {
        let body: Vec<String> = matrices.iter().map(KillMatrix::to_json).collect();
        let json = format!("[\n{}\n]\n", body.join(",\n"));
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("mutation_matrix: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("kill matrix written to {path}");
    }

    if let Some(min_rate) = opts.gate {
        for m in &matrices {
            if let Err(e) = m.gate(min_rate) {
                eprintln!("mutation_matrix: GATE FAILED for {}: {e}", m.automaton);
                return ExitCode::FAILURE;
            }
        }
        println!(
            "gate passed: every matrix caught >= {:.0}% with all kills confirmed",
            100.0 * min_rate
        );
    }
    ExitCode::SUCCESS
}
