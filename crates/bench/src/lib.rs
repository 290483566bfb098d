//! # holistic-bench — the Table 2 harness
//!
//! The paper's evaluation is a single table (Table 2): per automaton and
//! property, the number of schemas, the average schema length, and the
//! verification time; the naive consensus automaton times out while the
//! decomposed approach finishes in under 70 seconds.
//!
//! * [`table2_cells`] lists the table's cells, each with what the paper
//!   reports for it;
//! * [`Table2Row`] and [`render`] turn checker reports on those cells
//!   into the paper-format table that the `table2_bench` binary prints
//!   (it also records `BENCH_table2.json`);
//! * [`cli`] is the strict flag parser the workspace's binaries share.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use holistic_core::json;

pub mod cli;
pub mod trace;

use std::time::Duration;

use holistic_checker::{CheckReport, Verdict};
use holistic_ltl::{Justice, Ltl};
use holistic_models::{BvBroadcastModel, NaiveConsensusModel, SimplifiedConsensusModel};
use holistic_ta::ThresholdAutomaton;

/// One Table-2 cell as a *checkable object*: the automaton, the
/// property and the justice assumption, independent of any particular
/// driver. `table2_bench` runs these through the symbolic checker;
/// `holistic-oracle`'s differential harness sweeps the same list
/// through explicit-state enumeration at small parameters, so the two
/// pipelines can never silently drift onto different cell sets.
pub struct Table2Cell {
    /// Automaton block name as used in reports (`bv-broadcast` …).
    pub automaton: &'static str,
    /// Property name (`BV-Just0`, `Inv1_0`, …).
    pub property: String,
    /// The automaton.
    pub ta: ThresholdAutomaton,
    /// The LTL property.
    pub spec: Ltl,
    /// The justice assumption the paper pairs with this automaton.
    pub justice: Justice,
    /// What the paper reports for this cell.
    pub paper: &'static str,
}

impl Table2Cell {
    /// Whether the cell belongs to the decomposed approach (bv-broadcast
    /// and simplified consensus) rather than the naive automaton.
    pub fn is_decomposed(&self) -> bool {
        self.automaton != "naive-consensus"
    }
}

/// The paper's row for every naive-consensus property: ByMC could not
/// verify any of the three within a day on 64 cores.
const NAIVE_TIMEOUT: &str = ">100 000 schemas, >24h (timeout)";

/// Every cell of the paper's Table 2, in row order: the four
/// bv-broadcast properties, the three naive-consensus properties and
/// the five simplified-consensus properties.
pub fn table2_cells() -> Vec<Table2Cell> {
    let mut cells = Vec::new();
    let bv = BvBroadcastModel::new();
    push_block(
        &mut cells,
        "bv-broadcast",
        &bv.ta,
        bv.justice(),
        bv.table2_specs(),
        &[
            "90 schemas, len 54, 5.61s",
            "90 schemas, len 79, 6.87s",
            "760 schemas, len 97, 27.64s",
            "90 schemas, len 79, 6.75s",
        ],
    );
    let naive = NaiveConsensusModel::new();
    push_block(
        &mut cells,
        "naive-consensus",
        &naive.ta,
        naive.justice(),
        naive.table2_specs(),
        &[NAIVE_TIMEOUT; 3],
    );
    let simplified = SimplifiedConsensusModel::new();
    push_block(
        &mut cells,
        "simplified-consensus",
        &simplified.ta,
        simplified.justice(),
        simplified.table2_specs(),
        &[
            "6 schemas, len 102, 4.68s",
            "2 schemas, len 73, 4.56s",
            "2 schemas, len 109, 4.13s",
            "2 schemas, len 67, 4.55s",
            "2 schemas, len 73, 4.62s",
        ],
    );
    cells
}

/// Appends one automaton's cells, pairing its specs with the paper's
/// rows in order.
fn push_block(
    cells: &mut Vec<Table2Cell>,
    automaton: &'static str,
    ta: &ThresholdAutomaton,
    justice: Justice,
    specs: Vec<(&'static str, Ltl)>,
    paper: &[&'static str],
) {
    assert_eq!(
        specs.len(),
        paper.len(),
        "{automaton}: one paper row per spec"
    );
    for ((name, spec), &paper) in specs.into_iter().zip(paper) {
        cells.push(Table2Cell {
            automaton,
            property: name.to_owned(),
            ta: ta.clone(),
            spec,
            justice: justice.clone(),
            paper,
        });
    }
}

/// One row of Table 2: a cell together with its checker report.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Automaton block name of the cell (`bv-broadcast` …).
    pub automaton: &'static str,
    /// Automaton size `(unique guards, locations, rules)`.
    pub size: (usize, usize, usize),
    /// Property name.
    pub property: String,
    /// Verdict.
    pub verdict: Verdict,
    /// Number of schemas.
    pub schemas: usize,
    /// Whether the schema count is a lower bound: the checker gave up
    /// (schema cap, budget) before enumerating them all.
    pub schemas_capped: bool,
    /// Average schema length.
    pub avg_segments: f64,
    /// Wall-clock time.
    pub time: Duration,
    /// What the paper reports for this row.
    pub paper: &'static str,
}

impl Table2Row {
    /// The row of `cell`, from the checker's report on it.
    pub fn new(cell: &Table2Cell, report: &CheckReport) -> Table2Row {
        let verdict = report.verdict();
        Table2Row {
            automaton: cell.automaton,
            size: cell.ta.size_summary(),
            property: cell.property.clone(),
            schemas_capped: matches!(verdict, Verdict::Unknown(_)),
            verdict,
            schemas: report.total_schemas(),
            avg_segments: report.avg_segments(),
            time: report.duration,
            paper: cell.paper,
        }
    }
}

/// The paper's name for an automaton block, with its figure.
fn block_title(automaton: &str) -> &str {
    match automaton {
        "bv-broadcast" => "bv-broadcast (Fig. 2)",
        "naive-consensus" => "naive consensus (Fig. 3)",
        "simplified-consensus" => "simplified consensus (Fig. 4)",
        other => other,
    }
}

/// Formats rows as aligned text tables, one per automaton block, each
/// with its own header and followed by a blank line.
pub fn render(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i == 0 || rows[i - 1].automaton != r.automaton {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&format!(
                "{:<40} {:<12} {:<10} {:>9} {:>8} {:>12}   {}\n",
                "TA (guards/locs/rules)",
                "property",
                "verdict",
                "#schemas",
                "avg len",
                "time",
                "paper reports"
            ));
        }
        let verdict = match &r.verdict {
            Verdict::Verified => "verified".to_owned(),
            Verdict::Violated(_) => "VIOLATED".to_owned(),
            Verdict::Unknown(_) => "gave up".to_owned(),
        };
        let schemas = if r.schemas_capped {
            format!(">{}", r.schemas)
        } else {
            r.schemas.to_string()
        };
        out.push_str(&format!(
            "{:<40} {:<12} {:<10} {:>9} {:>8.1} {:>12.2?}   {}\n",
            format!(
                "{} {}/{}/{}",
                block_title(r.automaton),
                r.size.0,
                r.size.1,
                r.size.2
            ),
            r.property,
            verdict,
            schemas,
            r.avg_segments,
            r.time,
            r.paper,
        ));
    }
    if !rows.is_empty() {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use holistic_checker::Checker;

    use super::*;

    #[test]
    fn bv_rows_all_verified() {
        let checker = Checker::new();
        let rows: Vec<Table2Row> = table2_cells()
            .iter()
            .filter(|c| c.automaton == "bv-broadcast")
            .map(|c| Table2Row::new(c, &checker.check_ltl(&c.ta, &c.spec, &c.justice).unwrap()))
            .collect();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.verdict.is_verified(), "{}", r.property);
            assert!(!r.schemas_capped, "{}", r.property);
        }
        let table = render(&rows);
        assert!(table.contains("bv-broadcast (Fig. 2) 4/10/19"), "{table}");
        assert!(table.contains("760 schemas, len 97, 27.64s"), "{table}");
        assert_eq!(table.matches("paper reports").count(), 1, "{table}");
    }

    #[test]
    fn table2_cells_cover_every_row() {
        let cells = table2_cells();
        assert_eq!(cells.len(), 12);
        let props: Vec<&str> = cells.iter().map(|c| c.property.as_str()).collect();
        assert_eq!(
            props,
            [
                "BV-Just0",
                "BV-Obl0",
                "BV-Unif0",
                "BV-Term",
                "Inv1_0",
                "Inv2_0",
                "SRoundTerm",
                "Inv1_0",
                "Inv2_0",
                "SRoundTerm",
                "Good_0",
                "Dec_0",
            ]
        );
        for c in &cells {
            assert!(c.ta.validate().is_ok(), "{}/{}", c.automaton, c.property);
        }
        assert_eq!(cells.iter().filter(|c| c.is_decomposed()).count(), 9);
        assert_eq!(cells[4].paper, NAIVE_TIMEOUT);
        assert_eq!(cells[11].paper, "2 schemas, len 73, 4.62s");
    }
}
