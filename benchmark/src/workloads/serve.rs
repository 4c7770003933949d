//! `serve-steps` / `serve-churn`: the pooled multi-tenant service, driven
//! closed loop from one thread.
//!
//! The generator admits sessions to seeded tenants as fast as the quotas
//! allow; a refusal (tenant at quota) is the service's back-pressure, so the
//! generator offers the session to the next tenant, and once all are at
//! quota runs one scheduling round and tries again. Every session is
//! eventually admitted and must produce an outcome.

use std::sync::Arc;
use std::time::Instant;

use alya_core::assemble_serial;
use alya_mesh::Rng64;
use alya_serve::{
    DrrScheduler, PoolConfig, Service, ServiceConfig, SessionPool, SessionSpec, SharedCase,
    WorkItem, WorkKind,
};
use alya_solver::{FractionalStep, TimeScheme};

use crate::case::{self, Flow};
use crate::harness::{measure, ns_per_call, time_call, timed_setup, Ctx, Gate, Rep, Report};
use crate::probes;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::step::VARIANT;

const TENANTS: usize = 4;

/// What distinguishes the two serve workloads.
pub struct Shape {
    /// Pool capacity; each of the four tenants may hold a quarter of it.
    pub capacity: usize,
    /// What one work item executes.
    pub kind: WorkKind,
    /// Work items per session.
    pub items_per_session: u32,
    /// Sessions per repetition (and under `--quick`).
    pub sessions_per_rep: (usize, usize),
    /// Complete set-ups timed for `setup_s`.
    pub setup_reps: usize,
}

/// `serve-steps`: long items, few sessions — dispatch → step end to end.
pub const STEPS: Shape = Shape {
    capacity: 8,
    kind: WorkKind::Step,
    items_per_session: 4,
    sessions_per_rep: (24, 8),
    setup_reps: 10,
};

/// `serve-churn`: one short item per session — admit/bind/retire dominate.
pub const CHURN: Shape = Shape {
    capacity: 64,
    kind: WorkKind::Assemble,
    items_per_session: 1,
    sessions_per_rep: (2000, 128),
    setup_reps: 30,
};

/// A service with every slot warm on `case`.
struct Prepared {
    case: Arc<SharedCase>,
    service: Service,
    tenants: Vec<u32>,
}

impl Shape {
    fn pool_config(&self) -> PoolConfig {
        PoolConfig {
            capacity: self.capacity,
            stripes: self.capacity.min(8),
            leak_slot_state_for_audit: false,
        }
    }

    fn sessions_per_rep(&self, ctx: &Ctx) -> usize {
        ctx.pick(self.sessions_per_rep.0, self.sessions_per_rep.1)
    }

    fn items_per_rep(&self, ctx: &Ctx) -> usize {
        self.sessions_per_rep(ctx) * self.items_per_session as usize
    }

    fn spec(&self, case: &Arc<SharedCase>, items: u32) -> SessionSpec {
        SessionSpec {
            case: Arc::clone(case),
            steps: items,
            kind: self.kind,
        }
    }

    /// One complete set-up: mesh, shared case, service, tenants with seeded
    /// weights, and one single-item session through every slot so that all
    /// cold builds happen here.
    fn prepare(&self, ctx: &Ctx, flow: &Flow, tr: &mut Tracer) -> Prepared {
        let mesh = tr.span("mesh.build", |_| case::mesh(case::SMALL_ELEMS));
        let bc = case::no_slip_ground(&mesh);
        let cfg = case::step_config(TimeScheme::ForwardEuler, false);
        let case = tr.span("serve.shared_case_new", |_| {
            Arc::new(
                SharedCase::new("bolund-serve", mesh, cfg, VARIANT, |p| flow.velocity(p))
                    .with_bc(bc),
            )
        });
        let service = Service::new(ServiceConfig {
            pool: self.pool_config(),
            // Exactly one repetition's items, so that after a repetition
            // the reservoir holds that repetition's item latencies.
            latency_window: self.items_per_rep(ctx),
            ..ServiceConfig::default()
        });
        let mut weights = case::rng(ctx.seed, 2);
        let quota = (self.capacity / TENANTS) as u32;
        let tenants: Vec<u32> = (0..TENANTS)
            .map(|i| {
                service.add_tenant(
                    &format!("tenant-{i}"),
                    weights.range_usize(1, 4) as u64,
                    quota,
                )
            })
            .collect();
        let warm = self.spec(&case, 1);
        for slot in 0..self.capacity {
            let admitted = service.admit(tenants[slot % TENANTS], &warm);
            assert!(
                admitted.is_ok(),
                "an empty pool refused a session: {admitted:?}"
            );
        }
        tr.span("serve.run_to_idle", |_| service.run_to_idle());
        Prepared {
            case,
            service,
            tenants,
        }
    }
}

/// Admission counters of the measured phase.
#[derive(Default)]
struct Admissions {
    accepted: u64,
    refused: u64,
    /// Seconds workers spent inside work items.
    busy_s: f64,
}

/// One repetition: `sessions` sessions through the warm pool, then the
/// item latencies the service recorded for them (its own clock around each
/// item) read back into `op_ms`.
fn repetition(
    p: &Prepared,
    spec: &SessionSpec,
    sessions: usize,
    order: &mut Rng64,
    tr: &mut Tracer,
    op_ms: &mut Vec<f64>,
    seen: &mut Admissions,
) -> Rep {
    let ops = tr.span("rep", |tr| {
        let mut items = 0;
        let mut admitted = 0;
        while admitted < sessions {
            // Offer the session to a seeded tenant first and to the others
            // in turn if that one is at quota; only when every tenant is,
            // run a round to retire something. The pool stays as full as
            // the quotas allow whatever the seed.
            let first = order.range_usize(0, TENANTS);
            let accepted = (0..TENANTS).any(|k| {
                let tenant = p.tenants[(first + k) % TENANTS];
                let ok = tr
                    .span("serve.admit", |_| p.service.admit(tenant, spec))
                    .is_ok();
                if !ok {
                    tr.relabel_last("serve.admit_refused");
                    seen.refused += 1;
                }
                ok
            });
            if accepted {
                admitted += 1;
            } else {
                items += tr.span("serve.run_round", |_| p.service.run_round());
            }
        }
        seen.accepted += admitted as u64;
        items + tr.span("serve.run_to_idle", |_| p.service.run_to_idle()) as usize
    });
    let t0 = Instant::now();
    let item_ns = p.service.report().step_ns_sorted;
    seen.busy_s += item_ns.iter().sum::<u64>() as f64 * 1e-9;
    op_ms.extend(item_ns.iter().map(|&ns| ns as f64 * 1e-6));
    Rep {
        ops,
        untimed_s: t0.elapsed().as_secs_f64(),
    }
}

/// The digest a session of `shape` must retire with, computed without the
/// service: the same steps on a directly driven solver, or the same
/// assembly over the case's initial fields.
fn direct_digest(shape: &Shape, case: &SharedCase) -> u64 {
    match shape.kind {
        WorkKind::Step => {
            let mut solver = direct_solver(case);
            for _ in 0..shape.items_per_session {
                solver.step(case.variant);
            }
            case::state_digest(solver.velocity(), solver.pressure())
        }
        WorkKind::Assemble => {
            let mut digest = case::FNV_OFFSET;
            for _ in 0..shape.items_per_session {
                digest = alya_serve::digest_bits(digest, direct_assembly(case).as_slice());
            }
            digest
        }
    }
}

fn direct_solver(case: &SharedCase) -> FractionalStep<'static> {
    let mut solver = FractionalStep::from_shared_parts(
        Arc::clone(&case.mesh),
        case.config.clone(),
        case.parts.clone(),
    );
    solver.set_bc((*case.bc).clone());
    solver.reset(&case.init_velocity);
    solver
}

fn direct_assembly(case: &SharedCase) -> alya_fem::VectorField {
    let input = alya_core::AssemblyInput::new(
        &case.mesh,
        &case.init_velocity,
        &case.init_pressure,
        &case.init_temperature,
    )
    .props(case.config.props)
    .body_force(case.config.body_force)
    .vreman_c(case.config.vreman_c);
    assemble_serial(case.variant, &input)
}

/// Runs the workload.
pub fn run(shape: &Shape, ctx: &Ctx, tr: &mut Tracer, gate: &mut Gate, report: &mut Report) {
    let flow = Flow::seeded(ctx.seed);
    let (p, setup_s) = timed_setup(ctx.pick(shape.setup_reps, 1), || {
        shape.prepare(ctx, &flow, tr)
    });
    report.set("setup_s", setup_s);
    report.note("elements", p.case.elements());
    report.note("capacity", shape.capacity);
    report.note("tenants", TENANTS);
    report.note("items_per_session", shape.items_per_session);
    let sessions = shape.sessions_per_rep(ctx);
    report.note("sessions_per_repetition", sessions);

    let warm = p.service.report();
    let spec = shape.spec(&p.case, shape.items_per_session);
    let mut order = case::rng(ctx.seed, 3);
    let mut seen = Admissions::default();
    let (seconds, min_reps) = ctx.measured_phase(tr);
    let [plain, traced] = measure(seconds, min_reps, tr, |tr, op_ms| {
        repetition(&p, &spec, sessions, &mut order, tr, op_ms, &mut seen)
    });

    // Every admitted session has an outcome, retired with the digest a
    // direct run of the same work produces, and none was built cold.
    let done = p.service.report();
    let expected = direct_digest(shape, &p.case);
    let measured = &done.outcomes[warm.outcomes.len()..];
    for o in measured {
        gate.check(
            o.digest == expected && o.steps == shape.items_per_session,
            || {
                format!(
                    "session in slot {}: {} items, digest {:#x} != {expected:#x}",
                    o.slot, o.steps, o.digest
                )
            },
        );
    }
    let cold_steady = done.cold_builds - warm.cold_builds;
    gate.check(
        measured.len() as u64 == seen.accepted && cold_steady == 0 && done.live == 0,
        || {
            format!(
                "{} outcomes for {} admitted sessions, {cold_steady} cold builds, {} still live",
                measured.len(),
                seen.accepted,
                done.live
            )
        },
    );
    plain.report_end_to_end(report);
    if !tr.enabled() {
        return;
    }

    plain.report_tail(report);
    report.set("trace.overhead_frac", traced.overhead_over(&plain));
    report.set("mesh.build_s", tr.fastest_s("mesh.build"));
    report.set(
        "serve.admit_us_p50",
        stats::median(&tr.durations_s("serve.admit")) * 1e6,
    );
    report.set("serve.cold_builds_steady", cold_steady as f64);
    report.set(
        "serve.warm_bind_ratio",
        (done.warm_binds - warm.warm_binds) as f64 / seen.accepted as f64,
    );
    report.set(
        "serve.admit_accept_ratio",
        seen.accepted as f64 / (seen.accepted + seen.refused) as f64,
    );
    report.set("serve.fairness_spread", done.fairness_spread());
    let wall_s = plain.wall_s + traced.wall_s;
    report.set(
        "serve.worker_utilisation",
        seen.busy_s / (wall_s * ctx.threads as f64),
    );

    // What one item costs when called directly, in this process; both sides
    // of each difference are read from their best repetition.
    let budget = ctx.probe_budget_s();
    match shape.kind {
        WorkKind::Step => {
            let mut solver = direct_solver(&p.case);
            let mut direct_ms = f64::INFINITY;
            time_call(4.0 * budget, 5, || {
                solver.reset(&p.case.init_velocity);
                let session: Vec<f64> = (0..shape.items_per_session)
                    .map(|_| {
                        let t0 = Instant::now();
                        tr.span("solver.step", |_| solver.step(p.case.variant));
                        t0.elapsed().as_secs_f64() * 1e3
                    })
                    .collect();
                direct_ms = direct_ms.min(stats::median(&session));
            });
            let item_ms = plain.best_op_ms_p50();
            report.note("direct_step_ms_p50", direct_ms);
            report.set("serve.overhead_frac", (item_ms - direct_ms) / direct_ms);
        }
        WorkKind::Assemble => {
            let direct_s = time_call(budget, 20, || {
                std::hint::black_box(tr.span("core.assemble_serial", |_| direct_assembly(&p.case)));
            });
            report.note("direct_assembly_ms", direct_s * 1e3);
            let worker_us_per_item = ctx.threads as f64 / plain.best_ops_per_s() * 1e6;
            report.set(
                "serve.churn_overhead_us_per_item",
                worker_us_per_item - direct_s * 1e6,
            );
        }
    }

    // The scheduler and the slot free-list on their own.
    let mut drr = DrrScheduler::new(0);
    for _ in 0..TENANTS {
        drr.add_tenant(1, shape.capacity + 1);
    }
    let mut batch = vec![WorkItem::default(); shape.capacity];
    let per_batch_ns = ns_per_call(200, || {
        for slot in 0..shape.capacity as u32 {
            drr.offer(WorkItem {
                slot,
                tenant: slot % TENANTS as u32,
                cost: case::SMALL_ELEMS as u64,
            });
        }
        std::hint::black_box(drr.next_batch(&mut batch));
    });
    report.set(
        "serve.drr_ns_per_item",
        per_batch_ns / shape.capacity as f64,
    );
    let pool = SessionPool::new(&shape.pool_config());
    let per_cycle_ns = ns_per_call(2_000, || {
        if let Some(idx) = pool.acquire_index() {
            pool.release_index(idx);
        }
    });
    report.set("serve.pool_ns_per_cycle", per_cycle_ns);

    if matches!(shape.kind, WorkKind::Assemble) {
        let mut unused = Admissions::default();
        let mut off = Tracer::new(false);
        probes::recorder_overhead(report, ctx.pick(7, 1), || {
            repetition(
                &p,
                &spec,
                sessions / 8,
                &mut order,
                &mut off,
                &mut Vec::new(),
                &mut unused,
            );
        });
    }
}
