//! # alya-analyze — static verification of the kernel contracts
//!
//! The instrumented kernels in `alya-core` don't just feed the performance
//! models — their event streams, the modelled address-space layout, and
//! the coloring infrastructure together make the paper's optimization
//! claims *mechanically checkable*. This crate runs eight passes, numbered
//! 1–10 (passes 5 and 7 are retired):
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
//! 3. **Source lints** ([`sources`]) — workspace-lint opt-in in every
//!    manifest, `#![forbid(unsafe_code)]` in every crate except the one
//!    hosting the shared-RHS scatter, `#[allow(unsafe_code)]` (the only
//!    way past the workspace's `unsafe_code = "deny"`) in exactly the
//!    files on [`sources::UNSAFE_FILES`], and the root `Cargo.toml` /
//!    `clippy.toml` entries that make rustc and clippy hold the unsafe
//!    and hash-order policy.
//! 4. **Comm contract** ([`comm`]) — runs a fully-traced distributed
//!    assembly and holds the live exchange accounting against the
//!    closed-form halo budget: posted bytes equal
//!    `ShardSet::halo_send_slots × HALO_ENTRY_BYTES`, every message is
//!    delivered (dual-sided counters), no self-sends, and each traced
//!    slot list matches the exchange plan exactly once (no double
//!    count). The same budget validates a committed `BENCH_comm.json`.
//! 5. *Retired.* It replayed the trace of a stage scheduler the
//!    distributed driver no longer has: each rank now runs its phases in
//!    program order, pass 6 holds that order on the live spans, and the
//!    ascending-sender combine is pinned by the `distributed/2` and
//!    `distributed/4` rows of the equivalence suite's golden digests.
//!    The number stays retired so the other passes keep theirs.
//! 6. **Telemetry contract** ([`telemetry`]) — runs a distributed
//!    assembly inside an `alya-telemetry` session and holds the emitted
//!    report against the driver and the mesh: the element count equals
//!    the mesh's (the Table-I view is contract × that count), span trees
//!    nest, every rank's trace carries its five phase spans in program
//!    order (so the halo sends are posted before the interior is
//!    assembled), and the chrome-trace export parses.
//! 7. *Retired.* It linted the functions a name-based call graph reached
//!    from marked roots. `tests/alloc.rs` now counts what the warm hot
//!    calls allocate and which spans they open, rustc's `unsafe_code`
//!    lint and clippy's `undocumented_unsafe_blocks` hold the unsafe
//!    sites, clippy's `disallowed-types` holds hash order, and the hot
//!    modules deny `unwrap`/`expect`/`panic!` through clippy. The number
//!    stays retired so the other passes keep theirs.
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
//!
//! Number 11 is retired too: it held the committed throughputs to
//! themselves through a drift sentinel, and its one real comparison —
//! halo bytes against the closed-form prediction — is pass 4's.
//!
//! The committed `BENCH_*.json` reports that passes 4, 8 and 9 check are
//! read by one reader, [`bench::BenchFile`]: a missing or malformed file
//! is an error naming it, which the passes report as a violation.
//!
//! Each pass is a module of plain functions, and its checks run as named
//! tests of this crate (`cargo test -p alya-analyze`): per pass, one test
//! that the pass is clean on this workspace and at least one that tampers
//! with the pass's input and requires it to object. DESIGN.md §8 lists
//! each pass with its clean and tamper tests.
#![forbid(unsafe_code)]

pub mod bench;
pub mod comm;
pub mod contracts;
pub mod form;
pub mod races;
pub mod serve;
pub mod simd;
pub mod sources;
pub mod telemetry;

pub use alya_form::fixture::Fixture;
