//! Regenerates the paper's Table 2 and records `BENCH_table2.json`.
//!
//! ```text
//! cargo run --release -p holistic-bench --bin table2_bench -- \
//!     [--quick] [--iters N] [--threads N] [--out PATH] [--baseline PATH] \
//!     [--automaton NAME] [--property NAME] [--naive [--naive-cap N]] \
//!     [--trace PATH] [--profile] [--max-total-regression FRAC]
//! ```
//!
//! The command line is strict: an unknown or repeated flag, a missing
//! or malformed value, `--max-total-regression` without `--baseline`,
//! `--checkpoint-every` without a checkpoint, `--checkpoint` with
//! `--resume` or `--naive-cap` without `--naive` exits with code 2 and
//! runs nothing. `--help` prints the usage and runs nothing.
//!
//! Runs the full decomposed Table 2 matrix (bv-broadcast + simplified
//! consensus, nine properties, from [`holistic_bench::table2_cells`]).
//! Standard output is the paper-format table, rendered from the
//! reports of the last pass next to what the paper reports for each
//! row (`docs/table2_sample_output.txt` is a captured `--quick` run).
//! Progress, gate and diagnostic lines go to standard error. The JSON
//! file gets per-property wall time, schema counts, verdicts, SMT
//! solver statistics, exploration-cache hit rates and the thread count
//! — the repo's perf trajectory record.
//!
//! `--naive` also runs the naive (non-compositional) automaton, whose
//! lattice explodes: like ByMC, which timed out after a day on 64
//! cores, the checker gives up at the schema cap (`--naive-cap N`,
//! default 2000). These rows go to the table only, not to the JSON.
//!
//! Each iteration uses a fresh checker, so the exploration cache starts
//! cold and is shared across the properties of one matrix pass (the
//! intended production shape); the per-property time is the minimum over
//! iterations. `--quick` is a single pass for CI smoke use.
//!
//! With `--baseline PATH`, the run is compared against a previously
//! emitted file: the process exits nonzero if any verdict changed, any
//! property got more than 3x slower, or any deterministic solver
//! statistic (checks, case splits, pivots, propagations) regressed
//! beyond its own factor — wall time alone is too noisy on shared CI
//! machines to either trust or fake.
//!
//! `--automaton NAME` / `--property NAME` (substring match, repeatable
//! by intent via a comma list) restrict the matrix, so the dev loop on
//! one hot property doesn't pay for the full run. Filtered runs skip
//! the baseline *totals* block but still gate the selected rows.
//!
//! `--checkpoint DIR` persists every completed cell (and the
//! exploration cache) to a versioned checkpoint through the
//! supervisor; `--resume DIR` additionally loads whatever a previous
//! (killed) run completed and computes only the remainder.
//! `--checkpoint-every N` controls the cache-snapshot cadence
//! (default 1 = after every cell). Supervised runs are single-pass:
//! a second iteration would just reload the checkpoint. The
//! `HOLISTIC_CHAOS` env hook (`panic-every=N,budget-ms=M`) injects
//! worker panics and a tiny budget for the CI chaos-smoke job.
//!
//! `--trace PATH` enables the [`holistic_obs`] span collector and
//! writes a JSONL trace of the whole run; `--profile` prints the
//! hierarchical self/child time table (per phase and per property) to
//! stdout after the table. Both are verdict-inert: tracing only observes.
//! `--max-total-regression FRAC` (with `--baseline`) additionally
//! fails the run when the total wall time exceeds the baseline total
//! by more than the given fraction — the CI gate that keeps
//! disabled-mode tracing overhead honest.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use holistic_bench::cli::{self, fraction, on, positive, set, value, Flags};
use holistic_bench::json::{num, Json, Writer};
use holistic_bench::{render, table2_cells, trace, Table2Cell, Table2Row};
use holistic_checker::{
    count_schedules, CheckReport, Checker, CheckerConfig, GuardInfo, MatrixJob, Strategy, Verdict,
};
use holistic_supervise::{ChaosOptions, Checkpoint, SupervisedJob, Supervisor, SupervisorConfig};

/// Factor by which a property may slow down vs the baseline before the
/// comparison fails.
const REGRESSION_FACTOR: f64 = 3.0;

/// Factor by which a *deterministic* solver statistic (checks, case
/// splits, pivots, propagations) may grow vs the baseline before the
/// comparison fails. These counters don't depend on machine speed, so
/// the tolerance is much tighter than the wall-time gate — a noisy CI
/// machine can neither mask nor fake a solver-work regression.
const STAT_REGRESSION_FACTOR: f64 = 1.10;

/// Absolute slack under which a statistic increase is ignored (tiny
/// properties legitimately wobble by a handful of checks when encoding
/// details change).
const STAT_REGRESSION_SLACK: u64 = 64;

struct PropResult {
    automaton: &'static str,
    property: String,
    verdict: &'static str,
    schemas: usize,
    avg_segments: f64,
    /// Minimum wall time over iterations, in milliseconds.
    wall_ms: f64,
    cache_hits: u64,
    cache_misses: u64,
    replayed: bool,
    /// Core patterns newly learned while this property explored.
    cores_learned: u64,
    /// Extension attempts pruned by learned core patterns.
    schemas_pruned_by_core: u64,
    threads: usize,
    solver: holistic_lia::SolverStats,
}

fn verdict_name(v: &Verdict) -> &'static str {
    match v {
        Verdict::Verified => "verified",
        Verdict::Violated(_) => "violated",
        Verdict::Unknown(_) => "unknown",
    }
}

/// Row selection for the dev loop: comma-separated substring matches on
/// the automaton and/or property name; `None` selects everything.
struct Filter {
    automaton: Option<String>,
    property: Option<String>,
}

impl Filter {
    fn matches_list(selector: &Option<String>, name: &str) -> bool {
        match selector {
            None => true,
            Some(list) => list.split(',').any(|pat| name.contains(pat.trim())),
        }
    }

    fn keep(&self, automaton: &str, property: &str) -> bool {
        Self::matches_list(&self.automaton, automaton)
            && Self::matches_list(&self.property, property)
    }

    fn is_full(&self) -> bool {
        self.automaton.is_none() && self.property.is_none()
    }
}

/// Checkpoint/resume options for a supervised run.
struct SuperviseOpts {
    dir: PathBuf,
    resume: bool,
    every: usize,
}

/// One full pass over `cells` with a cold shared cache.
///
/// `--threads N` with `N > 1` hands the properties to the checker's
/// matrix scheduler: `N` workers pull whole properties off a shared
/// queue (each property itself running the inline deterministic walk),
/// so the dominant simplified-consensus properties overlap instead of
/// serializing. `N <= 1` (and the default) is the sequential,
/// byte-deterministic walk.
///
/// Returns the reports in cell order plus the supervisor's checkpoint
/// overhead (zero when checkpointing is off).
fn run_matrix(
    cells: &[Table2Cell],
    threads: Option<usize>,
    supervise: Option<&SuperviseOpts>,
    explain: bool,
) -> (Vec<CheckReport>, Duration) {
    let workers = threads.unwrap_or(1);
    let mut config = CheckerConfig {
        // Property-level concurrency subsumes intra-property pooling
        // here; each matrix job stays single-threaded internally.
        threads: if workers > 1 { Some(1) } else { threads },
        ..CheckerConfig::default()
    };
    if let Some(chaos) = ChaosOptions::from_env() {
        eprintln!("  chaos injection armed: {chaos:?}");
        chaos.apply(&mut config);
    }
    let ids: Vec<String> = cells
        .iter()
        .map(|c| format!("{}/{}", c.automaton, c.property))
        .collect();

    let Some(opts) = supervise else {
        let jobs: Vec<MatrixJob<'_>> = cells
            .iter()
            .map(|c| MatrixJob {
                ta: &c.ta,
                spec: &c.spec,
                justice: &c.justice,
                label: &c.property,
            })
            .collect();
        let checker = Checker::with_config(config);
        let reports = checker.check_matrix(&jobs, workers);
        if explain {
            for (i, c) in cells.iter().enumerate() {
                if i == 0 || cells[i - 1].automaton != c.automaton {
                    explain_prunes(&checker, c.automaton, &c.ta);
                }
            }
            for (id, report) in ids.iter().zip(&reports) {
                if let Ok(report) = report {
                    let s = report.solver_stats();
                    eprintln!(
                        "  [explain-prunes] {id}: {} propagation(s), \
                         {} presolve refutation(s), {} pervasive conflict(s), \
                         {} disjunct(s) skipped",
                        s.propagations,
                        s.propagation_refutations,
                        s.learned_conflicts,
                        s.disjuncts_skipped
                    );
                }
            }
        }
        let reports = ids
            .iter()
            .zip(reports)
            .map(|(id, report)| report.unwrap_or_else(|e| panic!("{id}: {e}")))
            .collect();
        return (reports, Duration::ZERO);
    };
    if explain {
        eprintln!("  --explain-prunes: not available on supervised (checkpointed) runs");
    }

    // Supervised path: per-cell isolation/retry/degradation plus the
    // on-disk checkpoint.
    let master_seed: u64 = env::var("HOLISTIC_MASTER_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let supervised: Vec<SupervisedJob<'_>> = cells
        .iter()
        .zip(&ids)
        .map(|(c, id)| SupervisedJob {
            id: id.clone(),
            property: c.property.clone(),
            ta: &c.ta,
            spec: &c.spec,
            justice: &c.justice,
        })
        .collect();
    let checkpoint = if opts.resume && opts.dir.join("manifest.json").exists() {
        let (cp, manifest) = Checkpoint::open(&opts.dir)
            .unwrap_or_else(|e| panic!("cannot resume from {}: {e}", opts.dir.display()));
        assert_eq!(
            manifest.cells,
            ids,
            "checkpoint at {} belongs to a different matrix",
            opts.dir.display()
        );
        cp
    } else {
        Checkpoint::create(&opts.dir, "table2", master_seed, &ids)
            .unwrap_or_else(|e| panic!("cannot create checkpoint {}: {e}", opts.dir.display()))
    };
    let supervisor = Supervisor::new(SupervisorConfig {
        checker: config,
        workers,
        checkpoint_every: opts.every,
        master_seed,
        ..SupervisorConfig::default()
    });
    let run = supervisor
        .run(&supervised, Some(&checkpoint))
        .unwrap_or_else(|e| panic!("supervised run failed: {e}"));
    if run.resumed_cells() > 0 {
        eprintln!(
            "  resumed {} completed cell(s) from {}",
            run.resumed_cells(),
            opts.dir.display()
        );
    }
    for cell in &run.cells {
        let r = &cell.record;
        if let Some(kind) = r.failure {
            eprintln!(
                "  {}: {} (rung {}, {} attempt(s){})",
                r.id,
                kind,
                r.rung,
                r.attempts,
                r.note
                    .as_deref()
                    .map(|n| format!("; {n}"))
                    .unwrap_or_default()
            );
        }
    }
    let reports = run.cells.into_iter().map(|c| c.record.report).collect();
    (reports, run.checkpoint_overhead)
}

/// The naive-consensus cells of Table 2.
fn naive_cells() -> Vec<Table2Cell> {
    table2_cells()
        .into_iter()
        .filter(|c| !c.is_decomposed())
        .collect()
}

/// Checks the naive cells with the schema cap `cap`: like ByMC on a
/// 64-core machine, the checker cannot finish — the DFS blows through
/// the cap, reproducing the `>100 000 schemas, >24h` rows. This
/// reproduction's feasibility-pruned DFS actually *finishes* Inv2_0
/// (its □-emptiness premise collapses the lattice) and blows the cap on
/// the other two — the shape of the explosion is preserved where it
/// exists.
fn naive_rows(cells: &[Table2Cell], cap: usize) -> Vec<Table2Row> {
    let checker = Checker::with_config(CheckerConfig {
        max_schemas: cap,
        strategy: Strategy::Enumerate,
        ..CheckerConfig::default()
    });
    cells
        .iter()
        .map(|c| {
            let report = checker
                .check_ltl(&c.ta, &c.spec, &c.justice)
                .expect("naive model in fragment");
            Table2Row::new(c, &report)
        })
        .collect()
}

/// The naive block of the report: the capped rows plus the raw lattice
/// size behind them, counted by the allocation-free counting DFS (no
/// SMT, no schedule storage).
fn naive_block(cap: usize) -> String {
    let cells = naive_cells();
    let rows = naive_rows(&cells, cap);
    let info = GuardInfo::analyse(&cells[0].ta).expect("naive TA guards analyse");
    let (count, capped) = count_schedules(&info, 1_000_000);
    format!(
        "\nnaive (non-compositional) automaton, schema cap {cap} — the paper's \
         run timed out after a day on 64 cores:\n{}\
         raw (unpruned) schedule lattice of the naive automaton: {}{count} schedules\n",
        render(&rows),
        if capped { ">" } else { "" }
    )
}

/// How many learned core patterns `--explain-prunes` renders per
/// automaton.
const EXPLAIN_TOP: usize = 10;

/// Dumps the learned core patterns for one automaton to stderr, most
/// general first, rendered with guard formulas and the rule names each
/// blocked guard gates — the human-readable face of the certificate
/// pipeline.
fn explain_prunes(checker: &Checker, label: &str, ta: &holistic_ta::ThresholdAutomaton) {
    let mut cores = checker.exploration_cache().cores_for(ta);
    if cores.is_empty() {
        eprintln!("  [explain-prunes] {label}: no learned core patterns");
        return;
    }
    // Most general first: fewer guards to unlock, fewer guards that
    // must be held, larger context mask.
    cores.sort_by_key(|&(m, h, d)| {
        (
            d.count_ones(),
            h.count_ones(),
            std::cmp::Reverse(m.count_ones()),
            d,
            h,
            m,
        )
    });
    let info = holistic_checker::GuardInfo::analyse(ta).expect("guard analysis");
    let render_guard = |gi: usize| -> String {
        let g = &info.guards[gi];
        let gated: Vec<&str> = ta
            .rules
            .iter()
            .filter(|r| info.rule_mask(r) & (1 << gi) != 0)
            .map(|r| r.name.as_str())
            .collect();
        format!(
            "g{gi}: {} {} {} (gates {})",
            g.lhs.display(&ta.variables),
            g.cmp,
            g.rhs.display(&ta.params),
            if gated.is_empty() {
                "no rules".to_owned()
            } else {
                gated.join(", ")
            }
        )
    };
    let render_mask = |mask: u64| -> String {
        if mask == 0 {
            return "(initial: no guards unlocked)".to_owned();
        }
        let names: Vec<String> = (0..info.len())
            .filter(|gi| mask & (1 << gi) != 0)
            .map(render_guard)
            .collect();
        names.join("; ")
    };
    eprintln!(
        "  [explain-prunes] {label}: {} learned core pattern(s), top {}:",
        cores.len(),
        cores.len().min(EXPLAIN_TOP)
    );
    for (i, &(m, h, d)) in cores.iter().take(EXPLAIN_TOP).enumerate() {
        eprintln!("    #{:<2} under contexts within {}", i + 1, render_mask(m));
        if h != 0 {
            eprintln!("        having already unlocked {}", render_mask(h));
        }
        eprintln!("        cannot newly unlock {}", render_mask(d));
    }
}

fn emit(
    results: &[PropResult],
    iters: usize,
    supervisor_overhead_ms: Option<f64>,
    baseline: Option<(&str, f64, f64)>,
) -> String {
    let total_ms: f64 = results.iter().map(|r| r.wall_ms).sum();
    let threads = results.first().map_or(1, |r| r.threads);
    // Farkas-certificate core pipeline: patterns learned, extension
    // attempts they pruned, and the average extracted-core size
    // (members per certificate, from the cumulative solver counters).
    let cores_learned: u64 = results.iter().map(|r| r.cores_learned).sum();
    let pruned_by_core: u64 = results.iter().map(|r| r.schemas_pruned_by_core).sum();
    let (extracted, members): (u64, u64) = results.iter().fold((0, 0), |(e, m), r| {
        (e + r.solver.cores_extracted, m + r.solver.core_members)
    });
    let core_avg_size = if extracted == 0 {
        0.0
    } else {
        members as f64 / extracted as f64
    };
    let mut w = Writer::pretty();
    w.begin_obj()
        .field_u64("schema_version", 1)
        .field_str("generated_by", "table2_bench")
        .field_u64("threads", threads as u64)
        .field_u64("iters", iters as u64)
        .field_raw("total_wall_ms", &num(total_ms))
        .field_u64("cores_learned", cores_learned)
        .field_u64("schemas_pruned_by_core", pruned_by_core)
        .field_raw("core_avg_size", &num(core_avg_size));
    // Supervisor overhead: time spent writing checkpoint files. Null
    // when checkpointing was off, so the perf trajectory can tell "no
    // checkpointing" from "free checkpointing".
    match supervisor_overhead_ms {
        Some(ms) => {
            w.field_raw("supervisor_overhead_ms", &num(ms));
        }
        None => {
            w.field_null("supervisor_overhead_ms");
        }
    }
    if let Some((file, base_ms, speedup)) = baseline {
        w.field_str("baseline_file", file)
            .field_raw("baseline_total_wall_ms", &num(base_ms))
            .field_raw("speedup_vs_baseline", &num(speedup));
    }
    w.key("properties").begin_arr();
    for r in results {
        let hit_rate = if r.cache_hits + r.cache_misses > 0 {
            r.cache_hits as f64 / (r.cache_hits + r.cache_misses) as f64
        } else {
            0.0
        };
        let s = &r.solver;
        w.begin_obj()
            .field_str("automaton", r.automaton)
            .field_str("property", &r.property)
            .field_str("verdict", r.verdict)
            .field_u64("schemas", r.schemas as u64)
            .field_raw("avg_segments", &num(r.avg_segments))
            .field_raw("wall_ms", &num(r.wall_ms))
            .field_u64("cache_hits", r.cache_hits)
            .field_u64("cache_misses", r.cache_misses)
            .field_raw("cache_hit_rate", &num(hit_rate))
            .field_bool("replayed", r.replayed)
            .field_u64("cores_learned", r.cores_learned)
            .field_u64("schemas_pruned_by_core", r.schemas_pruned_by_core)
            .key("solver")
            .begin_obj()
            .field_u64("checks", s.checks)
            .field_u64("branch_nodes", s.branch_nodes)
            .field_u64("case_splits", s.case_splits)
            .field_u64("pivots", s.pivots)
            .field_u64("propagations", s.propagations)
            .field_u64("propagation_refutations", s.propagation_refutations)
            .field_u64("learned_conflicts", s.learned_conflicts)
            .field_u64("disjuncts_skipped", s.disjuncts_skipped)
            .field_u64("intern_hits", s.intern_hits)
            .field_u64("intern_misses", s.intern_misses)
            .field_u64("cores_extracted", s.cores_extracted)
            .field_u64("core_members", s.core_members)
            .field_u64("core_micros", s.core_micros)
            .end_obj()
            .end_obj();
    }
    w.end_arr().end_obj();
    w.finish()
}

/// Compares this run against a baseline document. Returns the list of
/// failures (empty means the gate passes).
fn compare(results: &[PropResult], baseline: &Json) -> (Vec<String>, f64) {
    let mut failures = Vec::new();
    let empty: &[Json] = &[];
    let rows = baseline
        .get("properties")
        .and_then(|p| p.as_array())
        .unwrap_or(empty);
    // Timing and solver-work gates only make sense against a baseline
    // recorded at the same thread count; a cross-thread comparison
    // (e.g. the CI threads=4 divergence check against the threads=1
    // baseline) still gates everything deterministic — verdicts, schema
    // counts, average segment lengths.
    let base_threads = baseline
        .get("threads")
        .and_then(Json::as_f64)
        .map_or(1, |t| t as usize);
    let same_threads = results.first().is_none_or(|r| r.threads == base_threads);
    let mut base_total = 0.0;
    for r in results {
        let Some(base) = rows.iter().find(|row| {
            row.get("automaton").and_then(Json::as_str) == Some(r.automaton)
                && row.get("property").and_then(Json::as_str) == Some(r.property.as_str())
        }) else {
            failures.push(format!(
                "{}/{}: missing from baseline",
                r.automaton, r.property
            ));
            continue;
        };
        let base_verdict = base.get("verdict").and_then(Json::as_str).unwrap_or("?");
        if base_verdict != r.verdict {
            failures.push(format!(
                "{}/{}: verdict changed: {} -> {}",
                r.automaton, r.property, base_verdict, r.verdict
            ));
        }
        if let Some(base_schemas) = base.get("schemas").and_then(Json::as_f64) {
            if base_schemas as usize != r.schemas {
                failures.push(format!(
                    "{}/{}: schema count changed: {} -> {}",
                    r.automaton, r.property, base_schemas as usize, r.schemas
                ));
            }
        }
        if let Some(base_avg) = base.get("avg_segments").and_then(Json::as_f64) {
            // The emitter rounds (`num()`), so compare at its precision.
            if num(base_avg) != num(r.avg_segments) {
                failures.push(format!(
                    "{}/{}: avg segments changed: {} -> {}",
                    r.automaton, r.property, base_avg, r.avg_segments
                ));
            }
        }
        let base_ms = base
            .get("wall_ms")
            .and_then(Json::as_f64)
            .unwrap_or(f64::INFINITY);
        base_total += base_ms;
        if !same_threads {
            continue; // deterministic gates only across thread counts
        }
        if r.wall_ms > REGRESSION_FACTOR * base_ms {
            failures.push(format!(
                "{}/{}: {:.0} ms vs baseline {:.0} ms (> {REGRESSION_FACTOR}x regression)",
                r.automaton, r.property, r.wall_ms, base_ms
            ));
        }
        let base_solver = base.get("solver");
        let stats: [(&str, u64); 4] = [
            ("checks", r.solver.checks),
            ("case_splits", r.solver.case_splits),
            ("pivots", r.solver.pivots),
            ("propagations", r.solver.propagations),
        ];
        for (stat, current) in stats {
            let Some(base_stat) = base_solver.and_then(|s| s.get(stat)).and_then(Json::as_f64)
            else {
                continue; // pre-stats baseline: wall-time gate only
            };
            let limit = (base_stat * STAT_REGRESSION_FACTOR) + STAT_REGRESSION_SLACK as f64;
            if current as f64 > limit {
                failures.push(format!(
                    "{}/{}: solver {stat} regressed: {current} vs baseline {base_stat:.0} \
                     (> {STAT_REGRESSION_FACTOR}x + {STAT_REGRESSION_SLACK})",
                    r.automaton, r.property,
                ));
            }
        }
    }
    (failures, base_total)
}

const USAGE: &str = "\
usage: table2_bench [--quick] [--iters N] [--threads N] [--out PATH]
                    [--baseline PATH] [--max-total-regression FRAC]
                    [--automaton NAMES] [--property NAMES]
                    [--naive [--naive-cap N]]
                    [--trace PATH] [--profile] [--explain-prunes]
                    [--checkpoint DIR | --resume DIR] [--checkpoint-every N]
";

/// The parsed command line.
#[derive(Default)]
struct Args {
    quick: bool,
    explain: bool,
    profile: bool,
    naive: bool,
    naive_cap: Option<usize>,
    iters: Option<usize>,
    threads: Option<usize>,
    out: Option<String>,
    baseline: Option<String>,
    max_total_regression: Option<f64>,
    automaton: Option<String>,
    property: Option<String>,
    trace: Option<String>,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
    checkpoint_every: Option<usize>,
}

fn parse_args(it: &mut Flags<'_>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = it.next() {
        let f = flag.as_str();
        match f {
            "--quick" => on(&mut args.quick, f)?,
            "--explain-prunes" => on(&mut args.explain, f)?,
            "--profile" => on(&mut args.profile, f)?,
            "--naive" => on(&mut args.naive, f)?,
            "--naive-cap" => set(&mut args.naive_cap, f, positive(f, value(it, f)?)?)?,
            "--iters" => set(&mut args.iters, f, positive(f, value(it, f)?)?)?,
            "--threads" => set(&mut args.threads, f, positive(f, value(it, f)?)?)?,
            "--checkpoint-every" => {
                set(&mut args.checkpoint_every, f, positive(f, value(it, f)?)?)?
            }
            "--max-total-regression" => set(
                &mut args.max_total_regression,
                f,
                fraction(f, value(it, f)?)?,
            )?,
            "--out" => set(&mut args.out, f, value(it, f)?.to_owned())?,
            "--baseline" => set(&mut args.baseline, f, value(it, f)?.to_owned())?,
            "--automaton" => set(&mut args.automaton, f, value(it, f)?.to_owned())?,
            "--property" => set(&mut args.property, f, value(it, f)?.to_owned())?,
            "--trace" => set(&mut args.trace, f, value(it, f)?.to_owned())?,
            "--checkpoint" => set(&mut args.checkpoint, f, value(it, f)?.into())?,
            "--resume" => set(&mut args.resume, f, value(it, f)?.into())?,
            _ => return cli::unknown(f),
        }
    }
    if args.max_total_regression.is_some() && args.baseline.is_none() {
        return Err("--max-total-regression needs --baseline".to_owned());
    }
    if args.checkpoint.is_some() && args.resume.is_some() {
        return Err("--checkpoint and --resume are exclusive".to_owned());
    }
    if args.checkpoint_every.is_some() && args.checkpoint.is_none() && args.resume.is_none() {
        return Err("--checkpoint-every needs --checkpoint or --resume".to_owned());
    }
    if args.naive_cap.is_some() && !args.naive {
        return Err("--naive-cap needs --naive".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let Args {
        quick,
        explain,
        profile: profile_on,
        naive,
        naive_cap,
        iters,
        threads,
        out,
        baseline: baseline_file,
        max_total_regression,
        automaton,
        property,
        trace: trace_path,
        checkpoint,
        resume,
        checkpoint_every,
    } = match cli::parse("table2_bench", USAGE, parse_args) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let mut iters = iters.unwrap_or(if quick { 1 } else { 3 });
    let out_path = out.as_deref().unwrap_or("BENCH_table2.json");
    let baseline_path = baseline_file.as_deref();
    let filter = Filter {
        automaton,
        property,
    };
    let supervise = match (resume, checkpoint) {
        (Some(dir), _) => Some((dir, true)),
        (None, Some(dir)) => Some((dir, false)),
        (None, None) => None,
    }
    .map(|(dir, resume)| SuperviseOpts {
        dir,
        resume,
        every: checkpoint_every.unwrap_or(1),
    });
    if supervise.is_some() && iters > 1 {
        eprintln!("checkpointed runs are single-pass; forcing --iters 1");
        iters = 1;
    }

    // Read the baseline up front: `--out` may point at the same file.
    let baseline = baseline_path.map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        Json::parse(&text).unwrap_or_else(|e| panic!("cannot parse baseline {path}: {e}"))
    });

    let cells: Vec<Table2Cell> = table2_cells()
        .into_iter()
        .filter(|c| c.is_decomposed() && filter.keep(c.automaton, &c.property))
        .collect();
    if cells.is_empty() {
        eprintln!("no properties match the filter");
        return ExitCode::FAILURE;
    }

    eprintln!(
        "table2_bench: {iters} iteration(s), threads={}",
        threads.map_or("auto".to_owned(), |t| t.to_string())
    );
    // Tracing is strictly opt-in: without these flags the collector
    // stays disabled and every span/counter call is a near-no-op.
    if trace_path.is_some() || profile_on {
        holistic_obs::set_enabled(true);
    }
    let run_started = Instant::now();
    let run_span = holistic_obs::span("bench.run");
    let mut results: Vec<PropResult> = Vec::new();
    let mut last_pass: Vec<CheckReport> = Vec::new();
    let mut supervisor_overhead = Duration::ZERO;
    for iter in 0..iters {
        let (pass, overhead) =
            run_matrix(&cells, threads, supervise.as_ref(), explain && iter == 0);
        supervisor_overhead += overhead;
        for (idx, (cell, report)) in cells.iter().zip(&pass).enumerate() {
            let (automaton, property) = (cell.automaton, &cell.property);
            let wall_ms = report.duration.as_secs_f64() * 1e3;
            if iter == 0 {
                // Matrix-scheduled runs are 1 thread *per property*;
                // report the scheduler width, not the inner walk's.
                let stats_threads = report.queries.first().map_or(1, |q| q.stats.threads);
                let stats_threads = threads.map_or(stats_threads, |t| t.max(stats_threads));
                results.push(PropResult {
                    automaton,
                    property: property.clone(),
                    verdict: verdict_name(&report.verdict()),
                    schemas: report.total_schemas(),
                    avg_segments: report.avg_segments(),
                    wall_ms,
                    cache_hits: report.total_cache_hits(),
                    cache_misses: report.total_cache_misses(),
                    replayed: report.queries.iter().all(|q| q.stats.replayed)
                        && !report.queries.is_empty(),
                    cores_learned: report.total_cores_learned(),
                    schemas_pruned_by_core: report.total_schemas_pruned_by_core(),
                    threads: stats_threads,
                    solver: report.solver_stats(),
                });
                eprintln!(
                    "  {automaton}/{property}: {} in {:.2?} ({} schemas, {} cache hits)",
                    verdict_name(&report.verdict()),
                    report.duration,
                    report.total_schemas(),
                    report.total_cache_hits(),
                );
            } else {
                let slot = &mut results[idx];
                assert_eq!(
                    slot.verdict,
                    verdict_name(&report.verdict()),
                    "{automaton}/{property}: verdict must not vary across iterations"
                );
                if wall_ms < slot.wall_ms {
                    slot.wall_ms = wall_ms;
                }
            }
        }
        last_pass = pass;
        let total: f64 = results.iter().map(|r| r.wall_ms).sum();
        eprintln!(
            "  pass {}/{iters} done; best-total {:.1?}",
            iter + 1,
            Duration::from_secs_f64(total / 1e3)
        );
    }
    let naive = naive.then(|| naive_block(naive_cap.unwrap_or(2_000)));

    drop(run_span);
    let wall = run_started.elapsed();
    let wall_us = wall.as_micros() as u64;

    let comparison = baseline.as_ref().map(|b| compare(&results, b));
    // A filtered run still gates its rows but must not publish a
    // misleading "matrix" speedup computed over a subset.
    let baseline_block = comparison.as_ref().and_then(|(_, base_total)| {
        let total: f64 = results.iter().map(|r| r.wall_ms).sum();
        (*base_total > 0.0 && filter.is_full()).then(|| {
            (
                baseline_path.unwrap(),
                *base_total,
                *base_total / total.max(f64::MIN_POSITIVE),
            )
        })
    });

    let overhead_ms = supervise
        .as_ref()
        .map(|_| supervisor_overhead.as_secs_f64() * 1e3);
    let doc = emit(&results, iters, overhead_ms, baseline_block);
    std::fs::write(out_path, &doc).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");

    let rows: Vec<Table2Row> = cells
        .iter()
        .zip(&last_pass)
        .map(|(cell, report)| Table2Row::new(cell, report))
        .collect();
    let decomposed: Duration = rows.iter().map(|r| r.time).sum();
    println!("Table 2 — holistic verification of the Red Belly / DBFT consensus");
    println!("==================================================================");
    print!("{}", render(&rows));
    println!(
        "decomposed approach total: {decomposed:.1?} (paper: < 70 s on an 8-thread laptop with Z3)"
    );
    match &naive {
        Some(block) => print!("{block}"),
        None => println!("(pass --naive to also run the naive-automaton explosion block)"),
    }
    println!("total wall clock: {wall:.1?}");

    if trace_path.is_some() || profile_on {
        let snapshot = holistic_obs::drain();
        if let Some(path) = &trace_path {
            let trace_doc = trace::write_trace(&snapshot, wall_us, "table2_bench");
            std::fs::write(path, &trace_doc)
                .unwrap_or_else(|e| panic!("cannot write trace {path}: {e}"));
            eprintln!("wrote trace {path} ({} spans)", snapshot.spans.len());
        }
        if profile_on {
            println!();
            print!("{}", trace::render_profile(&snapshot, wall_us, 10));
        }
    }

    if let Some((failures, base_total)) = comparison {
        let total: f64 = results.iter().map(|r| r.wall_ms).sum();
        eprintln!(
            "baseline total {:.1?} -> current total {:.1?} ({:.2}x)",
            Duration::from_secs_f64(base_total / 1e3),
            Duration::from_secs_f64(total / 1e3),
            base_total / total.max(f64::MIN_POSITIVE),
        );
        if !failures.is_empty() {
            eprintln!("BASELINE COMPARISON FAILED:");
            for f in &failures {
                eprintln!("  {f}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!(
            "baseline comparison passed (verdicts stable, no >{REGRESSION_FACTOR}x regression)"
        );
        // The tight total-wall gate (CI: tracing-disabled overhead must
        // stay within a few percent of the recorded baseline). Only
        // meaningful for a full, same-thread-count matrix run.
        if let Some(frac) = max_total_regression {
            if filter.is_full() && base_total > 0.0 {
                let limit = base_total * (1.0 + frac);
                if total > limit {
                    eprintln!(
                        "TOTAL WALL REGRESSION: {total:.1} ms vs baseline {base_total:.1} ms \
                         (limit +{:.0}% = {limit:.1} ms)",
                        frac * 100.0
                    );
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "total-wall gate passed: {total:.1} ms <= {limit:.1} ms \
                     (baseline {base_total:.1} ms +{:.0}%)",
                    frac * 100.0
                );
            } else {
                eprintln!("total-wall gate skipped (filtered run or empty baseline)");
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(propagations: u64) -> PropResult {
        PropResult {
            automaton: "bv-broadcast",
            property: "BV-Just0".to_owned(),
            verdict: "verified",
            schemas: 4,
            avg_segments: 2.0,
            wall_ms: 10.0,
            cache_hits: 6,
            cache_misses: 6,
            replayed: false,
            cores_learned: 2,
            schemas_pruned_by_core: 10,
            threads: 1,
            solver: holistic_lia::SolverStats {
                propagations,
                ..Default::default()
            },
        }
    }

    #[test]
    fn propagations_are_gated_like_the_other_solver_counters() {
        let baseline = Json::parse(&emit(&[row(2320)], 1, None, None)).unwrap();
        let (failures, _) = compare(&[row(2600)], &baseline);
        assert!(failures.is_empty(), "{failures:?}");
        let (failures, _) = compare(&[row(75017)], &baseline);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("solver propagations regressed"),
            "{failures:?}"
        );
    }

    #[test]
    fn naive_rows_show_the_explosion() {
        // Tiny cap: enough to show the explosion signal quickly. Inv2_0
        // is the exception — its globally-empty premise collapses the
        // lattice and it verifies outright (beyond the paper).
        let rows = naive_rows(&naive_cells(), 40);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            if r.property == "Inv2_0" {
                assert!(r.verdict.is_verified(), "Inv2_0 verifies even naively");
            } else {
                assert!(r.schemas_capped, "{} should hit the cap", r.property);
            }
        }
        let table = render(&rows);
        assert!(
            table.contains("naive consensus (Fig. 3) 14/26/45"),
            "{table}"
        );
        assert!(
            table.contains(">100 000 schemas, >24h (timeout)"),
            "{table}"
        );
    }
}
