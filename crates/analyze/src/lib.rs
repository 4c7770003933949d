//! # alya-analyze — static verification of the kernel contracts
//!
//! The instrumented kernels in `alya-core` don't just feed the performance
//! models — their event streams, the modelled address-space layout, and
//! the coloring infrastructure together make the paper's optimization
//! claims *mechanically checkable*. This crate runs eleven passes:
//!
//! 1. **Contract checker** ([`contracts`]) — per variant, captures element
//!    traces under **both** addressing conventions (`Layout::gpu` and
//!    `Layout::cpu`) plus whole CPU packs, and verifies them against the
//!    declarative [`alya_core::KernelContract`]: exact FP-op totals, exact
//!    traffic per address region (RSP/RSPR: zero global intermediate
//!    stores besides the RHS scatter; pack streams scale every count by
//!    `CPU_VECTOR_DIM`), the closed-form workspace formulas of the B/P and
//!    RS kernels, and the register story at the 128-register budget (RSPR:
//!    zero spills; RSP: must spill — single-element streams only; pack
//!    streams have per-lane `Def` ids and carry no register story).
//! 2. **Race detector** ([`races`]) — proves the invariants the `unsafe`
//!    scatter sites rest on: no two same-color elements share a node
//!    (colored scatter), and shard-interior nodes are exclusive to their
//!    shard with mutually consistent compact maps (sharded writeback).
//! 3. **Source lints** ([`sources`]) — `#![forbid(unsafe_code)]` in every
//!    crate except those hosting sanctioned unsafe, `unsafe` tokens only
//!    in files on the shared `alya_lint::SANCTIONED_UNSAFE` allowlist,
//!    and workspace-lint opt-in in every manifest.
//! 4. **Comm contract** ([`comm`]) — runs a fully-traced distributed
//!    assembly and holds the live exchange accounting against the
//!    closed-form halo budget: posted bytes equal
//!    `ShardSet::halo_send_slots × HALO_ENTRY_BYTES`, every message is
//!    delivered (dual-sided counters), no self-sends, and each traced
//!    slot list matches the exchange plan exactly once (no double
//!    count). The same budget validates a committed `BENCH_comm.json`.
//! 5. **Schedule contract** ([`sched`]) — replays each rank's
//!    `alya-sched` pipeline trace from a live overlapped assembly:
//!    every stage enqueued/started/retired exactly once and only after
//!    its dependencies, no buffer read before its producer retired, and
//!    the halo combine folds senders in ascending rank order — overlap
//!    may reorder arrival, never the combine.
//! 6. **Telemetry contract** ([`telemetry`]) — runs a distributed
//!    assembly inside an `alya-telemetry` session and holds the emitted
//!    report against the same closed forms: every counter equals its
//!    kernel-contract rate × elements (live Table-I deviation is zero),
//!    halo byte counters equal the exchange plan's budget, blocked-wait
//!    matches the `CommReport` (single chokepoint, no double count),
//!    span trees nest, every rank's trace carries all five pipeline
//!    stage spans, and the chrome-trace export parses.
//! 7. **Static hot-path lints** (`alya-lint`) — lexes every workspace
//!    source, builds a name-based call graph, computes the set of
//!    functions reachable from `// alya:hot` roots by fixpoint, and
//!    enforces allocation freedom, panic freedom, hash-order freedom,
//!    and telemetry granularity on that set, plus per-site `SAFETY:`
//!    linkage for every sanctioned `unsafe` block (each comment must
//!    name the proving analyzer pass and its allowlist marker).
//! 8. **SIMD contract** ([`simd`]) — holds the committed
//!    `BENCH_drivers.json` packed-vs-scalar measurements against the
//!    lane-packed execution path's two claims: packed serial assembly
//!    beats scalar at one thread for every measured variant, and the
//!    measured speedup agrees (within a generous band) with the CPU
//!    machine model's [`alya_machine::cpu::CpuModel::packed_speedup`]
//!    prediction from the traced instruction mix.
//! 9. **Serve contract** ([`serve`]) — runs a deterministic multi-tenant
//!    pooled-service scenario (`alya-serve`: three tenants, three
//!    admission waves reusing every slot warm) and checks isolation
//!    (identical work ⇒ bitwise-identical state digests across slot
//!    reuse), conservation (per-tenant telemetry equals the closed-form
//!    element total of that tenant's sessions; bind counters balance the
//!    outcome ledger), and deficit-round-robin fairness (equally loaded
//!    tenants inside the no-starvation band). The committed
//!    `BENCH_serve.json` is held to the service floor: ≥ 512 concurrent
//!    sessions, zero steady-state cold builds, ordered latency quantiles.
//! 10. **IR-derivation checker** ([`form`]) — derives every variant's
//!     program from `alya-form`'s single symbolic base description and
//!     holds the handwritten kernels to that oracle: generated event
//!     streams equal to the handwritten kernels' event-for-event (sampled
//!     elements, both addressing conventions), the derived program's
//!     serial whole-mesh run **bitwise** identical to `assemble_serial`,
//!     and the trace-derived [`alya_core::KernelContract`] equal to the
//!     hand-maintained table field-for-field.
//! 11. **Probe contract** ([`probe`]) — proves the always-on `alya-probe`
//!     flight recorder is inert and useful: a pipelined distributed
//!     assembly with the recorder on is **bitwise** identical to one with
//!     it off (and actually recorded events), every per-thread ring stays
//!     inside its fixed capacity, a seeded [`alya_core::HaloFault`] stall
//!     leaves a black-box dump naming the stalled stage and the blocking
//!     rank (with a parsing chrome-trace export), and the regression
//!     sentinel armed from the committed `BENCH_drivers.json` /
//!     `BENCH_comm.json` baselines stays quiet.
//!
//! Run all passes via the audit binary:
//!
//! ```text
//! cargo run -p alya-bench --bin audit
//! ```
//!
//! or programmatically with [`run_audit`]. The passes also run as ordinary
//! `cargo test` tests of this crate.
#![forbid(unsafe_code)]

pub mod comm;
pub mod contracts;
pub mod form;
pub mod probe;
pub mod races;
pub mod sched;
pub mod serve;
pub mod simd;
pub mod sources;
pub mod telemetry;

pub use alya_form::fixture::Fixture;

use std::path::Path;

/// Shard count the audit proves the sharded-scatter invariants for (a
/// several-way decomposition exercises interior/boundary classification
/// properly; the invariants are count-independent).
pub const AUDIT_SHARDS: usize = 8;

/// Combined result of all eleven passes.
#[derive(Debug)]
pub struct AuditReport {
    /// Kernel-contract violations (pass 1).
    pub contract_violations: Vec<contracts::Violation>,
    /// Race report of the production coloring on the fixture mesh (pass 2).
    pub races: races::RaceReport,
    /// Shard-invariant report of the production shard set on the fixture
    /// mesh (pass 2, sharded scatter).
    pub shards: races::ShardReport,
    /// Source-policy violations (pass 3); empty when no root was given.
    pub source_violations: Vec<sources::SourceViolation>,
    /// Comm-contract report of a fully-traced distributed assembly on the
    /// fixture mesh (pass 4).
    pub comm: comm::CommContractReport,
    /// Schedule-contract report of an overlapped distributed assembly on
    /// the fixture mesh (pass 5).
    pub sched: sched::SchedContractReport,
    /// Telemetry-contract report of a distributed assembly run inside a
    /// telemetry session on the fixture mesh (pass 6).
    pub telemetry: telemetry::TelemetryContractReport,
    /// Static hot-path/determinism/unsafe-linkage report (pass 7); a
    /// default (empty) report when no workspace root was given or the
    /// sources could not be read.
    pub lint: alya_lint::LintReport,
    /// SIMD-contract report over the committed packed-vs-scalar bench
    /// measurements (pass 8); clean-skipped when no workspace root or no
    /// `BENCH_drivers.json` was available.
    pub simd: simd::SimdContractReport,
    /// Serve isolation + fairness report of a live pooled multi-tenant
    /// scenario, plus the committed `BENCH_serve.json` when a workspace
    /// root carried one (pass 9).
    pub serve: serve::ServeContractReport,
    /// IR-derivation report: the handwritten kernels and contract table
    /// held to the derived programs (pass 10).
    pub form: form::FormReport,
    /// Probe-contract report: recorder transparency, bounded retention,
    /// seeded-stall black-box dump, and sentinel quietness over the
    /// committed bench baselines (pass 11; the sentinel half is
    /// clean-skipped without a workspace root).
    pub probe: probe::ProbeContractReport,
}

impl AuditReport {
    /// Whether every pass came back clean.
    pub fn is_clean(&self) -> bool {
        self.contract_violations.is_empty()
            && self.races.is_race_free()
            && self.shards.is_valid()
            && self.source_violations.is_empty()
            && self.comm.is_clean()
            && self.sched.is_clean()
            && self.telemetry.is_clean()
            && self.lint.is_clean()
            && self.simd.is_clean()
            && self.serve.is_clean()
            && self.form.is_clean()
            && self.probe.is_clean()
    }

    /// Total violation count (a race counts once, a shard violation once).
    pub fn num_violations(&self) -> usize {
        self.contract_violations.len()
            + usize::from(!self.races.is_race_free())
            + usize::from(!self.shards.is_valid())
            + self.source_violations.len()
            + self.comm.violations.len()
            + self.sched.violations.len()
            + self.telemetry.violations.len()
            + self.lint.violations.len()
            + self.simd.violations.len()
            + self.serve.violations.len()
            + self.form.violations.len()
            + self.probe.violations.len()
    }
}

/// Runs all passes on the canonical fixture. `workspace_root` enables the
/// workspace-gated passes (3, 7, 8, 9's bench half and 11's sentinel
/// half; pass it `None` when the sources aren't on disk, e.g. from an
/// installed binary).
pub fn run_audit(workspace_root: Option<&Path>) -> AuditReport {
    let fx = Fixture::new();
    let input = fx.input();
    let (comm_report, _, _) = comm::check_distributed(&input, AUDIT_SHARDS);
    let (sched_report, _, _) = sched::check_distributed_schedule(&input, AUDIT_SHARDS, true);
    let (telemetry_report, _, _) = telemetry::check_distributed_telemetry(&input, AUDIT_SHARDS);
    AuditReport {
        contract_violations: contracts::check_all(&input),
        races: races::check_mesh(&fx.mesh),
        shards: races::check_mesh_shards(&fx.mesh, AUDIT_SHARDS),
        source_violations: workspace_root
            .map(sources::check_workspace)
            .unwrap_or_default(),
        comm: comm_report,
        sched: sched_report,
        telemetry: telemetry_report,
        lint: workspace_root
            .and_then(|r| alya_lint::check_workspace(r).ok())
            .unwrap_or_default(),
        simd: simd::check_workspace_simd(workspace_root),
        serve: serve::check_serve(workspace_root),
        form: form::check_form(&input),
        probe: probe::check_probe(&input, workspace_root),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_audit_of_this_workspace_is_clean() {
        let root = sources::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
        let report = run_audit(Some(&root));
        assert!(report.is_clean(), "{report:#?}");
        assert_eq!(report.num_violations(), 0);
        // Pass 7 actually ran: the workspace has hot roots and a
        // non-trivial reachable set, not a silently-empty report.
        assert!(report.lint.hot_roots > 0);
        assert!(report.lint.reachable_fns >= report.lint.hot_roots);
        assert!(report.lint.files_scanned > 50);
    }
}
