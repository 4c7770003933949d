//! Pooled-service isolation: a recycled session slot must be
//! indistinguishable from a fresh one. The pool may keep solver state,
//! scratch buffers and telemetry contexts alive across sessions — but
//! the moment that reuse becomes *observable* in the numbers, pooling
//! has broken the service contract. These tests pin the two ways reuse
//! could leak: sequential slot recycling across *different* cases, and
//! cross-tenant interleaving under concurrent admission. A served session
//! is also held to the same digest whether its case steps serially (one
//! thread) or sharded over two.

use std::sync::Arc;
use std::thread;

use alya_analyze::serve::{check_report, FAIRNESS_BAND};
use alya_core::{ParallelStrategy, Variant};
use alya_mesh::BoxMeshBuilder;
use alya_serve::{PoolConfig, Service, ServiceConfig, SessionSpec, SharedCase, WorkKind};
use alya_solver::StepConfig;

fn service(capacity: usize, stripes: usize) -> Service {
    Service::new(ServiceConfig {
        pool: PoolConfig {
            capacity,
            stripes,
            leak_slot_state_for_audit: false,
        },
        ..ServiceConfig::default()
    })
}

fn case_a() -> Arc<SharedCase> {
    let mesh = BoxMeshBuilder::new(3, 3, 3).jitter(0.1).seed(11).build();
    let mut cfg = StepConfig::default();
    cfg.dt = 4e-4;
    Arc::new(SharedCase::new("case-a", mesh, cfg, Variant::Rsp, |p| {
        [0.2 + 0.4 * p[2], 0.1 * (3.0 * p[0]).sin(), 0.0]
    }))
}

fn case_b() -> Arc<SharedCase> {
    // A genuinely different case: other mesh resolution, other time step,
    // other inflow — a cold rebuild in a recycled slot, not a warm rewind.
    let mesh = BoxMeshBuilder::new(4, 3, 2).jitter(0.05).seed(23).build();
    let mut cfg = StepConfig::default();
    cfg.dt = 2e-4;
    Arc::new(SharedCase::new("case-b", mesh, cfg, Variant::Rspr, |p| {
        [0.05 * p[1], -0.3 * p[2], 0.1]
    }))
}

/// Runs one session of `spec` on a throwaway single-slot pool and returns
/// its state digest — the fresh-pool reference a recycled slot must match.
fn fresh_digest(spec: &SessionSpec) -> u64 {
    let svc = service(1, 1);
    let t = svc.add_tenant("fresh", 1, 1);
    svc.admit(t, spec).expect("fresh pool admits");
    svc.run_to_idle();
    let report = svc.report();
    assert_eq!(report.outcomes.len(), 1);
    report.outcomes[0].digest
}

/// The satellite contract: run a session, release it, re-admit a
/// *different* case into the same slot, and the results must be bitwise
/// identical to a fresh pool — across a cold rebuild (case switch), a
/// cold re-rebuild (switch back), and a warm rewind (same case again).
#[test]
fn recycled_slot_matches_a_fresh_pool_bitwise() {
    let (a, b) = (case_a(), case_b());
    let spec_a = SessionSpec::new(Arc::clone(&a), 3);
    let spec_b = SessionSpec::new(Arc::clone(&b), 3);
    let (ref_a, ref_b) = (fresh_digest(&spec_a), fresh_digest(&spec_b));

    let svc = service(1, 1);
    let t = svc.add_tenant("recycler", 1, 1);
    // a → b → a → a through the one slot: cold, cold, cold, warm.
    for spec in [&spec_a, &spec_b, &spec_a, &spec_a] {
        svc.admit(t, spec).expect("slot was drained");
        svc.run_to_idle();
    }
    let report = svc.report();
    assert_eq!(report.outcomes.len(), 4);
    for (i, out) in report.outcomes.iter().enumerate() {
        assert_eq!(out.slot, 0, "single-slot pool");
        assert_eq!(out.generation, i as u32, "generations count reuse");
        let expect = if out.case == "case-a" { ref_a } else { ref_b };
        assert_eq!(
            out.digest, expect,
            "session {i} ({}) in the recycled slot diverged from a fresh pool",
            out.case
        );
    }
    // The bind ledger proves which path each admission took.
    assert_eq!(report.cold_builds, 3, "a, b and the switch back are cold");
    assert_eq!(report.warm_binds, 1, "the final same-case re-admit is warm");
    let contract = check_report(&report);
    assert!(contract.is_clean(), "{contract}");
}

/// Eight tenants hammer one pool from eight threads; every session of the
/// same spec must still land on the fresh-pool digest, and the
/// deficit-round-robin ledger must stay inside the fairness band.
#[test]
fn eight_way_concurrent_tenants_stay_isolated() {
    const TENANTS: usize = 8;
    const SESSIONS_EACH: usize = 3;

    let a = case_a();
    let spec = SessionSpec::new(Arc::clone(&a), 2);
    let reference = fresh_digest(&spec);

    let svc = service(TENANTS, 4);
    let ids: Vec<u32> = (0..TENANTS)
        .map(|i| svc.add_tenant(&format!("tenant-{i}"), 1, 2))
        .collect();
    thread::scope(|s| {
        for &tenant in &ids {
            let svc = &svc;
            let spec = &spec;
            s.spawn(move || {
                let mut done = 0;
                while done < SESSIONS_EACH {
                    match svc.admit(tenant, spec) {
                        Ok(_) => done += 1,
                        // Quota or pool full: help drain the backlog.
                        Err(_) => {
                            svc.run_round();
                        }
                    }
                }
            });
        }
    });
    svc.run_to_idle();

    let report = svc.report();
    assert_eq!(report.outcomes.len(), TENANTS * SESSIONS_EACH);
    for out in &report.outcomes {
        assert_eq!(out.kind, WorkKind::Step);
        assert_eq!(
            out.digest, reference,
            "tenant {} leaked state into another tenant's session (slot {} gen {})",
            out.tenant, out.slot, out.generation
        );
    }
    for (i, t) in report.tenants.iter().enumerate() {
        assert_eq!(t.sessions, SESSIONS_EACH as u64, "tenant {i} lost sessions");
        assert_eq!(t.active, 0, "tenant {i} still holds slots after idle");
    }
    assert!(report.live == 0 && report.peak_live <= TENANTS);
    assert!(
        report.fairness_spread() <= FAIRNESS_BAND,
        "spread {} outside the no-starvation band",
        report.fairness_spread()
    );
    let contract = check_report(&report);
    assert!(contract.is_clean(), "{contract}");
}

/// The assembled projection matrix is built by a case's first *step*: a
/// case that only ever runs assemble items never pays its time or bytes,
/// and sessions that do step share the one copy the case holds.
#[test]
fn only_a_stepping_session_builds_the_case_projection_matrix() {
    let case = case_a();
    let svc = service(2, 1);
    let t = svc.add_tenant("assembler", 1, 2);
    let assemble = SessionSpec::new(Arc::clone(&case), 3).assemble_only();
    for _ in 0..2 {
        svc.admit(t, &assemble).expect("pool has room");
    }
    svc.run_to_idle();
    assert_eq!(svc.report().outcomes.len(), 2);
    assert!(
        case.parts.proj.get().is_none(),
        "an assemble-only case built the pressure matrix"
    );

    svc.admit(t, &SessionSpec::new(Arc::clone(&case), 1))
        .expect("pool has room");
    svc.run_to_idle();
    assert!(case.parts.proj.get().is_some());
}

/// A served session does not depend on the thread cap it ran under. At
/// cap 1, `auto` resolves a ≥ 4 096-element case to `serial`; at cap 2,
/// to `sharded/2`, and the parallel step splits its assembly and pressure
/// solve over two workers. One 3-step session through the service must
/// digest the same either way.
#[test]
fn a_served_session_digests_the_same_at_thread_caps_1_and_2() {
    use alya_machine::par;
    if par::hardware_threads() < 2 {
        eprintln!("skipped: one hardware thread, so cap 2 runs like cap 1");
        return;
    }
    let mut cfg = StepConfig::default();
    cfg.dt = 4e-4;
    cfg.parallel = true;
    let mut runs = Vec::new();
    for cap in [1, 2] {
        par::set_thread_cap(Some(cap));
        let mesh = BoxMeshBuilder::new(9, 9, 9).jitter(0.1).seed(7).build();
        assert!(mesh.num_elements() >= 4096);
        let case = Arc::new(SharedCase::new(
            "capped",
            mesh,
            cfg.clone(),
            Variant::Rsp,
            |p| [0.2 + 0.4 * p[2], 0.1 * (3.0 * p[0]).sin(), 0.0],
        ));
        let strategy = match &*case.parts.strategy {
            ParallelStrategy::Sharded(shards) => format!("sharded/{}", shards.num_shards()),
            other => other.name().to_string(),
        };
        runs.push((strategy, fresh_digest(&SessionSpec::new(case, 3))));
    }
    par::set_thread_cap(None);
    assert_eq!(runs[0].0, "serial", "cap 1");
    assert_eq!(runs[1].0, "sharded/2", "cap 2");
    assert_eq!(
        runs[0].1, runs[1].1,
        "the sharded session left the serial session's bits"
    );
}
