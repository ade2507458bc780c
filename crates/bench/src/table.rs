//! Output containers: phase-breakdown tables (the paper's Tables 2–9) and
//! generic named series (the figures).

use engine::report::{Phase, PhaseTimes};
use serde::{Deserialize, Serialize};

/// One column of a phase table: the result of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseColumn {
    /// Number of UPC threads (ranks).
    pub threads: usize,
    /// Per-phase times (max over ranks, summed over measured steps).
    pub phases: PhaseTimes,
    /// Total of the listed phases.
    pub total: f64,
}

/// A table in the paper's format: phases as rows, thread counts as columns,
/// each cell showing simulated seconds and the percentage of the column
/// total.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseTable {
    /// Table caption.
    pub title: String,
    /// One column per thread count.
    pub columns: Vec<PhaseColumn>,
}

impl PhaseTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>) -> Self {
        PhaseTable { title: title.into(), columns: Vec::new() }
    }

    /// Appends the result of one run.
    pub fn push(&mut self, threads: usize, phases: PhaseTimes) {
        self.columns.push(PhaseColumn { threads, total: phases.total(), phases });
    }

    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.title));
        out.push_str(&format!("{:<16}", "phase"));
        for c in &self.columns {
            out.push_str(&format!("{:>12}  {:>6}", format!("{} thr t(s)", c.threads), "%"));
        }
        out.push('\n');
        for phase in Phase::ALL {
            // Skip all-zero rows that the corresponding paper table also omits
            // (e.g. Redistribution before §5.2).
            if self.columns.iter().all(|c| c.phases.get(phase) == 0.0) {
                continue;
            }
            out.push_str(&format!("{:<16}", phase.label()));
            for c in &self.columns {
                out.push_str(&format!(
                    "{:>12.3}  {:>6.1}",
                    c.phases.get(phase),
                    c.phases.percent(phase)
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<16}", "Total"));
        for c in &self.columns {
            out.push_str(&format!("{:>12.3}  {:>6}", c.total, ""));
        }
        out.push('\n');
        out
    }
}

/// A generic named data series (used for the figures: speed-ups, per-rank
/// breakdowns, scaling curves).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Series {
    /// Series caption.
    pub title: String,
    /// Column headers (first is the x label).
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<f64>>,
}

impl Series {
    /// Creates an empty series with the given headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Series {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.headers.len(), "series row width mismatch");
        self.rows.push(row);
    }

    /// Renders the series as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.title));
        for h in &self.headers {
            out.push_str(&format!("{h:>16}"));
        }
        out.push('\n');
        for row in &self.rows {
            for v in row {
                if v.fract() == 0.0 && v.abs() < 1e9 {
                    out.push_str(&format!("{:>16}", *v as i64));
                } else {
                    out.push_str(&format!("{v:>16.4}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_table_render_includes_all_columns() {
        let mut t = PhaseTable::new("Table X");
        t.push(1, PhaseTimes { force: 2.0, tree: 1.0, ..Default::default() });
        t.push(4, PhaseTimes { force: 0.5, tree: 0.25, ..Default::default() });
        let text = t.render();
        assert!(text.contains("Table X"));
        assert!(text.contains("Force Comp."));
        assert!(text.contains("Tree-building"));
        assert!(!text.contains("Redistribution"), "all-zero rows are omitted");
        assert!(text.contains("Total"));
        assert_eq!(t.columns[1].total, 0.75);
    }

    #[test]
    fn series_render_and_width_check() {
        let mut s = Series::new("Figure Y", &["threads", "speedup"]);
        s.push(vec![1.0, 1.0]);
        s.push(vec![8.0, 5.5]);
        let text = s.render();
        assert!(text.contains("Figure Y"));
        assert!(text.contains("speedup"));
        assert!(text.contains("5.5"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn series_rejects_ragged_rows() {
        let mut s = Series::new("bad", &["a", "b"]);
        s.push(vec![1.0]);
    }
}
