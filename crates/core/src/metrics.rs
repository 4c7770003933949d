//! The bridge between assembly and `alya-telemetry`: per-variant counter
//! scopes, the element tally, and the Table-I view.
//!
//! The counters record one fact: how many elements each variant
//! assembled (one add per driver call, nothing in the numeric inner
//! loops). The loads, stores and flops of Table I are not counted. Every
//! element of a variant performs exactly what its
//! [`KernelContract`] closed forms prescribe (the
//! contract analyzer proves this against the traced event streams), so
//! [`table_one`] derives them as contract × elements.

use alya_telemetry as telemetry;
use alya_telemetry::Scope;

use crate::variant::{KernelContract, Variant};

/// The telemetry counter scope of `variant`.
pub fn scope(variant: Variant) -> Scope {
    let i = Variant::ALL
        .iter()
        .position(|&v| v == variant)
        .expect("variant in ALL");
    Scope::variant(i)
}

/// Tallies `n` assembled elements of `variant` into the live session.
/// No-op outside a telemetry session.
pub(crate) fn tally_elements(variant: Variant, n: u64) {
    telemetry::add(scope(variant), n);
}

/// The Table-I columns, in Table-I order: traffic first, then compute,
/// then the register story.
const TABLE_ONE_COLUMNS: [&str; 7] = [
    "input_loads",
    "rhs_loads",
    "rhs_stores",
    "ws_loads",
    "ws_stores",
    "flops",
    "spill_elements",
];

/// A kernel contract's amount per element in each of
/// [`TABLE_ONE_COLUMNS`].
fn per_element(c: &KernelContract) -> [u64; 7] {
    [
        c.input_loads,
        c.rhs_loads,
        c.rhs_stores,
        c.workspace_loads.map_or(0, |(_, n)| n),
        c.workspace_stores.map_or(0, |(_, n)| n),
        c.flops,
        u64::from(c.spills_at_contract_budget == Some(true)),
    ]
}

/// The Table-I view of a finished session: one row per variant that
/// assembled elements, each column its contract's per-element amount.
pub fn table_one(report: &telemetry::TelemetryReport) -> telemetry::profile::TableOneProfile {
    let rows: Vec<_> = Variant::ALL
        .into_iter()
        .map(|variant| (variant, report.elements(scope(variant))))
        .filter(|&(_, elements)| elements > 0)
        .map(|(variant, elements)| telemetry::profile::TableOneRow {
            label: variant.name().to_string(),
            elements,
            cells: TABLE_ONE_COLUMNS
                .into_iter()
                .zip(per_element(&variant.contract()))
                .map(|(metric, per_element)| telemetry::profile::TableOneCell {
                    metric,
                    per_element,
                })
                .collect(),
        })
        .collect();
    telemetry::profile::TableOneProfile {
        title: format!(
            "{} elements assembled × kernel contracts",
            report.total_elements()
        ),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_has_a_distinct_non_global_scope() {
        let mut seen = Vec::new();
        for v in Variant::ALL {
            let s = scope(v);
            assert!(!seen.contains(&s), "{v} reuses a scope");
            seen.push(s);
        }
        assert_eq!(seen.len(), alya_telemetry::NUM_SCOPES);
    }

    /// The per-element amount of column `metric` for `variant`.
    fn column(variant: Variant, metric: &str) -> u64 {
        let i = TABLE_ONE_COLUMNS
            .iter()
            .position(|&m| m == metric)
            .expect("a Table-I column");
        per_element(&variant.contract())[i]
    }

    #[test]
    fn contract_rates_match_the_published_closed_forms() {
        // Spot-check the paper's headline numbers (Table I / §"optimal").
        assert_eq!(column(Variant::B, "flops"), 6084);
        assert_eq!(column(Variant::Rsp, "flops"), 1064);
        assert_eq!(column(Variant::Rspr, "flops"), 1064);
        // Only the workspace variants stage intermediates.
        assert!(column(Variant::B, "ws_stores") > 0);
        assert_eq!(column(Variant::Rsp, "ws_stores"), 0);
        // RSP is the spilling variant; RSPR is not.
        assert_eq!(column(Variant::Rsp, "spill_elements"), 1);
        assert_eq!(column(Variant::Rspr, "spill_elements"), 0);
    }

    #[test]
    fn table_one_of_an_untampered_session_is_exact() {
        let session = telemetry::session();
        tally_elements(Variant::Rsp, 384);
        tally_elements(Variant::B, 100);
        let report = session.finish();
        let profile = table_one(&report);
        assert_eq!(profile.rows.len(), 2);
        let rsp = profile
            .rows
            .iter()
            .find(|r| r.label == Variant::Rsp.name())
            .expect("rsp row");
        assert_eq!(rsp.elements, 384);
        let flops = rsp
            .cells
            .iter()
            .find(|c| c.metric == "flops")
            .expect("flops cell");
        assert_eq!(flops.per_element, 1064);
        assert!(profile.to_string().contains(&(1064 * 384).to_string()));
    }
}
