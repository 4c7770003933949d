//! The bridge between assembly and `alya-telemetry`: per-variant counter
//! scopes, contract-rate tallies, and the live Table-I profile builder.
//!
//! The drivers run on the *modeled* machine: every element of a variant
//! performs exactly the loads/stores/flops its [`KernelContract`](crate::KernelContract) closed
//! forms prescribe (the contract analyzer proves this against the traced
//! event streams). Tallying therefore happens per assembled element at
//! contract rates — one counter bump per element batch, nothing in the
//! numeric inner loops — and the telemetry cross-check closes the loop by
//! re-deriving the same totals from `per_element × n_elements`
//! independently. A tally at a wrong rate, a missed batch, or a skewed
//! counter all surface as a nonzero deviation column.

use alya_telemetry as telemetry;
use alya_telemetry::{Metric, Scope};

use crate::variant::Variant;

/// The telemetry counter scope of `variant` (scope 0 is global/comm).
pub fn scope(variant: Variant) -> Scope {
    let i = Variant::ALL
        .iter()
        .position(|&v| v == variant)
        .expect("variant in ALL");
    Scope::variant(i)
}

/// The variant whose telemetry scope is `s`, if `s` is a variant scope.
pub fn scope_variant(s: Scope) -> Option<Variant> {
    Variant::ALL.iter().copied().find(|&v| scope(v) == s)
}

/// Tallies `n` assembled elements of `variant` into the live session at
/// the variant's contract rates. No-op outside a telemetry session.
pub(crate) fn tally_elements(variant: Variant, n: u64) {
    if n == 0 || !telemetry::active() {
        return;
    }
    let sc = scope(variant);
    let c = variant.contract();
    telemetry::add(sc, Metric::ElementsAssembled, n);
    telemetry::add(sc, Metric::Flops, c.flops * n);
    telemetry::add(sc, Metric::InputLoads, c.input_loads * n);
    telemetry::add(sc, Metric::RhsLoads, c.rhs_loads * n);
    telemetry::add(sc, Metric::RhsStores, c.rhs_stores * n);
    if let Some((_, ws)) = c.workspace_loads {
        telemetry::add(sc, Metric::WsLoads, ws * n);
    }
    if let Some((_, ws)) = c.workspace_stores {
        telemetry::add(sc, Metric::WsStores, ws * n);
    }
    if c.spills_at_contract_budget == Some(true) {
        telemetry::add(sc, Metric::SpillElements, n);
    }
}

/// Per-element contract prediction for one metric of one variant —
/// the closed forms the Table-I deviation columns and the analyzer's
/// telemetry pass both compare against.
pub fn contract_per_element(variant: Variant, metric: Metric) -> u64 {
    let c = variant.contract();
    match metric {
        Metric::ElementsAssembled => 1,
        Metric::Flops => c.flops,
        Metric::InputLoads => c.input_loads,
        Metric::RhsLoads => c.rhs_loads,
        Metric::RhsStores => c.rhs_stores,
        Metric::WsLoads => c.workspace_loads.map_or(0, |(_, n)| n),
        Metric::WsStores => c.workspace_stores.map_or(0, |(_, n)| n),
        Metric::SpillElements => u64::from(c.spills_at_contract_budget == Some(true)),
        // Comm metrics have no per-element closed form here; the halo
        // budget lives in the `ExchangePlan`.
        Metric::HaloBytesPosted | Metric::HaloBytesReceived | Metric::BlockedWaitNs => 0,
    }
}

/// The assembly metrics a Table-I profile row reports, in Table-I column
/// order (traffic first, then compute, then the register story).
pub const TABLE_ONE_METRICS: [Metric; 7] = [
    Metric::InputLoads,
    Metric::RhsLoads,
    Metric::RhsStores,
    Metric::WsLoads,
    Metric::WsStores,
    Metric::Flops,
    Metric::SpillElements,
];

/// Builds the live Table-I profile of a finished session: one row per
/// variant that assembled elements, measured totals next to the contract
/// predictions recomputed from the element count.
pub fn table_one(report: &telemetry::TelemetryReport) -> telemetry::profile::TableOneProfile {
    let mut rows = Vec::new();
    let mut total_elements = 0u64;
    for variant in Variant::ALL {
        let sc = scope(variant);
        let elements = report.counter(sc, Metric::ElementsAssembled);
        if elements == 0 {
            continue;
        }
        total_elements += elements;
        let cells = TABLE_ONE_METRICS
            .iter()
            .map(|&m| telemetry::profile::TableOneCell {
                metric: m.name(),
                measured: report.counter(sc, m),
                predicted: contract_per_element(variant, m) * elements,
            })
            .collect();
        rows.push(telemetry::profile::TableOneRow {
            label: variant.name().to_string(),
            elements,
            cells,
        });
    }
    telemetry::profile::TableOneProfile {
        title: format!("{total_elements} elements assembled, measured vs. kernel contracts"),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_has_a_distinct_non_global_scope() {
        let mut seen = vec![Scope::GLOBAL];
        for v in Variant::ALL {
            let s = scope(v);
            assert!(!seen.contains(&s), "{v} reuses a scope");
            assert_eq!(scope_variant(s), Some(v));
            seen.push(s);
        }
        assert_eq!(seen.len(), alya_telemetry::NUM_SCOPES);
        assert_eq!(scope_variant(Scope::GLOBAL), None);
    }

    #[test]
    fn contract_rates_match_the_published_closed_forms() {
        // Spot-check the paper's headline numbers (Table I / §"optimal").
        assert_eq!(contract_per_element(Variant::B, Metric::Flops), 6084);
        assert_eq!(contract_per_element(Variant::Rsp, Metric::Flops), 1064);
        assert_eq!(contract_per_element(Variant::Rspr, Metric::Flops), 1064);
        // Only the workspace variants stage intermediates.
        assert!(contract_per_element(Variant::B, Metric::WsStores) > 0);
        assert_eq!(contract_per_element(Variant::Rsp, Metric::WsStores), 0);
        // RSP is the spilling variant; RSPR is not.
        assert_eq!(contract_per_element(Variant::Rsp, Metric::SpillElements), 1);
        assert_eq!(
            contract_per_element(Variant::Rspr, Metric::SpillElements),
            0
        );
    }

    #[test]
    fn table_one_of_an_untampered_session_is_exact() {
        let session = telemetry::session();
        tally_elements(Variant::Rsp, 384);
        tally_elements(Variant::B, 100);
        let report = session.finish();
        let profile = table_one(&report);
        assert_eq!(profile.rows.len(), 2);
        assert!(profile.is_exact(), "{profile}");
        let rsp = profile
            .rows
            .iter()
            .find(|r| r.label == Variant::Rsp.name())
            .expect("rsp row");
        assert_eq!(rsp.elements, 384);
        let flops = rsp
            .cells
            .iter()
            .find(|c| c.metric == Metric::Flops.name())
            .expect("flops cell");
        assert_eq!(flops.measured, 1064 * 384);
    }

    #[test]
    fn table_one_exposes_a_skewed_counter() {
        let session = telemetry::session();
        tally_elements(Variant::Rspr, 50);
        let mut report = session.finish();
        let sc = scope(Variant::Rspr);
        report.set_counter(sc, Metric::Flops, report.counter(sc, Metric::Flops) - 13);
        let profile = table_one(&report);
        assert!(!profile.is_exact());
        assert_eq!(profile.max_abs_deviation(), 13);
    }
}
