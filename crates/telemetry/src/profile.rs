//! The Table-I view of a telemetry session: per kernel variant, the
//! elements it assembled, its loads, stores and flops per element, and
//! their products.
//!
//! The paper's Table I reports loads/stores and flops *per element* for
//! each kernel variant, measured with LIKWID. Here only the element
//! count is recorded; the per-element amounts are the variant's kernel
//! contract, the closed forms the analyzer's contract pass proves
//! against the traced event streams. The builder (in `alya-core`, which
//! owns the contracts) fills in one cell per column; this module renders
//! the table.

use std::fmt;

/// One Table-I column of one row.
#[derive(Debug, Clone)]
pub struct TableOneCell {
    /// Column label (metric name).
    pub metric: &'static str,
    /// The kernel contract's amount per element.
    pub per_element: u64,
}

/// One profile row: a kernel variant and its Table-I columns.
#[derive(Debug, Clone)]
pub struct TableOneRow {
    /// Row label (variant name).
    pub label: String,
    /// Elements this row's variant assembled in the session.
    pub elements: u64,
    /// One cell per column, in presentation order.
    pub cells: Vec<TableOneCell>,
}

/// The Table-I-shaped report. `Display` renders the table.
#[derive(Debug, Clone, Default)]
pub struct TableOneProfile {
    /// Heading line (mesh / strategy description).
    pub title: String,
    /// One row per variant that assembled elements this session.
    pub rows: Vec<TableOneRow>,
}

impl fmt::Display for TableOneProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table-I profile — {}", self.title)?;
        writeln!(
            f,
            "{:<8} {:>10}  {:<14} {:>12} {:>16}",
            "variant", "elements", "metric", "per element", "total"
        )?;
        for row in &self.rows {
            for (i, cell) in row.cells.iter().enumerate() {
                let (label, elems) = if i == 0 {
                    (row.label.as_str(), format!("{}", row.elements))
                } else {
                    ("", String::new())
                };
                writeln!(
                    f,
                    "{label:<8} {elems:>10}  {:<14} {:>12} {:>16}",
                    cell.metric,
                    cell.per_element,
                    cell.per_element * row.elements,
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_profile_renders_per_element_amounts_and_totals() {
        let p = TableOneProfile {
            title: "384 tets, serial".into(),
            rows: vec![TableOneRow {
                label: "rsp".into(),
                elements: 384,
                cells: vec![
                    TableOneCell {
                        metric: "flops",
                        per_element: 1064,
                    },
                    TableOneCell {
                        metric: "ws_loads",
                        per_element: 0,
                    },
                ],
            }],
        };
        let text = p.to_string();
        assert!(text.starts_with("Table-I profile — 384 tets, serial"));
        assert!(text.contains("rsp"));
        assert!(text.contains(" 1064 "));
        assert!(text.contains(&(1064 * 384).to_string()));
        // An empty profile renders its two heading lines only.
        assert_eq!(TableOneProfile::default().to_string().lines().count(), 2);
    }
}
