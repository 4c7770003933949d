//! Admission control, batch execution and per-tenant accounting.
//!
//! The service composes the slab ([`crate::pool`]) and the fair scheduler
//! ([`crate::sched`]) behind a small API: register tenants with a quota
//! (max concurrent sessions) and a weight (fair share), [`Service::admit`]
//! sessions, then drive rounds. One round pulls a fair batch from the
//! scheduler and executes it on the `alya-machine` coarse worker helper —
//! each work item locks its slot, **adopts the slot's scoped telemetry
//! context** (pid = tenant + 1), runs one fractional step or one RHS
//! assembly, and releases the lock. A session whose items are exhausted
//! is retired: its final state is digested, its telemetry window rotated
//! out and absorbed into the owning tenant's usage report, and the slot
//! index recycled. Steps whose pressure solve did not converge are counted
//! per session ([`SessionOutcome::unconverged_steps`]) and warned about
//! once at retirement.
//!
//! Per-tenant Table-I profiles come straight out of that usage report via
//! [`alya_core::metrics::table_one`] — the same closed-form contract the
//! analyzer's pass 6 audits globally, here scoped to one tenant's
//! sessions.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use alya_core::{assemble_serial, AssemblyInput};
use alya_machine::par;
use alya_telemetry as telemetry;
use alya_telemetry::TelemetryReport;

use crate::pool::{lock, PoolConfig, SessionId, SessionPool, Slot};
use crate::sched::{DrrScheduler, WorkItem};
use crate::{digest_bits, SharedCase, WorkKind, FNV_OFFSET};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Slot pool sizing.
    pub pool: PoolConfig,
    /// DRR quantum in element-evaluations (0 = auto-size to the largest
    /// item cost seen).
    pub quantum: u64,
    /// Keep per-session span records in tenant usage reports (off by
    /// default: spans grow with session count; counters do not).
    pub keep_spans: bool,
    /// Max work items per round (0 = pool capacity).
    pub max_batch: usize,
    /// Step-latency reservoir size (most recent N item durations).
    pub latency_window: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            pool: PoolConfig::default(),
            quantum: 0,
            keep_spans: false,
            max_batch: 0,
            latency_window: 1 << 15,
        }
    }
}

/// Why an admission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// Tenant index was never registered.
    UnknownTenant,
    /// The tenant is at its concurrent-session quota.
    QuotaExceeded,
    /// Every pool slot is occupied.
    PoolFull,
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::UnknownTenant => write!(f, "unknown tenant"),
            AdmitError::QuotaExceeded => write!(f, "tenant quota exceeded"),
            AdmitError::PoolFull => write!(f, "session pool full"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// What to admit: a case, how many work items, and their kind.
#[derive(Clone)]
pub struct SessionSpec {
    /// The shared case to run.
    pub case: Arc<SharedCase>,
    /// Work items to execute (clamped to at least 1).
    pub steps: u32,
    /// What each item executes.
    pub kind: WorkKind,
}

impl SessionSpec {
    /// A [`WorkKind::Step`] session of `steps` fractional steps.
    pub fn new(case: Arc<SharedCase>, steps: u32) -> Self {
        Self {
            case,
            steps,
            kind: WorkKind::Step,
        }
    }

    /// Switches the session to [`WorkKind::Assemble`] items.
    #[must_use]
    pub fn assemble_only(mut self) -> Self {
        self.kind = WorkKind::Assemble;
        self
    }
}

struct Tenant {
    name: String,
    weight: u64,
    quota: u32,
    active: u32,
    sessions_done: u64,
    steps_done: u64,
    work_done: u64,
    usage: TelemetryReport,
}

/// Record of one completed session.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Owning tenant.
    pub tenant: u32,
    /// Case name.
    pub case: String,
    /// Work-item kind the session ran.
    pub kind: WorkKind,
    /// Items executed.
    pub steps: u32,
    /// Steps whose pressure solve did not converge (the state digested
    /// below then carries a divergence the projection did not remove).
    pub unconverged_steps: u32,
    /// Case mesh elements.
    pub elements: u64,
    /// RHS assemblies per item.
    pub rhs_evals: u64,
    /// FNV-1a digest of the final state (velocity‖pressure bits for
    /// step sessions; accumulated RHS bits for assemble sessions).
    pub digest: u64,
    /// Slot the session ran in.
    pub slot: u32,
    /// Slot generation the session ran under.
    pub generation: u32,
}

/// Per-tenant accounting snapshot.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Fair-share weight.
    pub weight: u64,
    /// Concurrent-session quota.
    pub quota: u32,
    /// Sessions admitted but not yet retired.
    pub active: u32,
    /// Sessions retired.
    pub sessions: u64,
    /// Work items executed.
    pub steps: u64,
    /// Dispatch cost executed (element-evaluations).
    pub work_done: u64,
    /// Merged telemetry of every retired session.
    pub usage: TelemetryReport,
}

/// Full service snapshot (the object the analyzer's pass 9 checks).
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Per-tenant accounting.
    pub tenants: Vec<TenantReport>,
    /// Every retired session, in retirement order.
    pub outcomes: Vec<SessionOutcome>,
    /// Cold binds (solver built from case parts).
    pub cold_builds: u64,
    /// Warm binds (pooled solver rewound in place).
    pub warm_binds: u64,
    /// Pool capacity.
    pub capacity: usize,
    /// Sessions still admitted at snapshot time.
    pub live: usize,
    /// High-water mark of concurrent sessions.
    pub peak_live: usize,
    /// Sorted recent work-item durations, nanoseconds.
    pub step_ns_sorted: Vec<u64>,
}

impl ServeReport {
    /// Steps, over every retired session, whose pressure solve did not
    /// converge; 0 in a healthy run.
    pub fn unconverged_steps(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| u64::from(o.unconverged_steps))
            .sum()
    }

    /// Latency quantile in nanoseconds over the recorded window
    /// (`q` in `[0, 1]`); 0 when nothing was recorded.
    pub fn step_latency_ns(&self, q: f64) -> u64 {
        if self.step_ns_sorted.is_empty() {
            return 0;
        }
        let last = self.step_ns_sorted.len() - 1;
        let at = ((last as f64) * q.clamp(0.0, 1.0)).round() as usize;
        self.step_ns_sorted[at.min(last)]
    }

    /// Fairness spread over tenants that completed work: the relative
    /// deviation of weight-normalized work shares,
    /// `(max − min) / mean` of `work_done / weight`. 0 = perfectly fair.
    pub fn fairness_spread(&self) -> f64 {
        let shares: Vec<f64> = self
            .tenants
            .iter()
            .filter(|t| t.work_done > 0)
            .map(|t| t.work_done as f64 / t.weight.max(1) as f64)
            .collect();
        if shares.len() < 2 {
            return 0.0;
        }
        let mean = shares.iter().sum::<f64>() / shares.len() as f64;
        let max = shares.iter().cloned().fold(f64::MIN, f64::max);
        let min = shares.iter().cloned().fold(f64::MAX, f64::min);
        if mean <= 0.0 {
            0.0
        } else {
            (max - min) / mean
        }
    }
}

struct LatencyRing {
    buf: Vec<u64>,
    used: usize,
    pos: usize,
}

impl LatencyRing {
    fn record(&mut self, v: u64) {
        let cap = self.buf.len();
        self.buf[self.pos] = v;
        self.pos = (self.pos + 1) % cap;
        if self.used < cap {
            self.used += 1;
        }
    }
}

/// The multi-tenant simulation service.
pub struct Service {
    config: ServiceConfig,
    pool: SessionPool,
    sched: Mutex<DrrScheduler>,
    tenants: Mutex<Vec<Tenant>>,
    outcomes: Mutex<Vec<SessionOutcome>>,
    latency: Mutex<LatencyRing>,
    batch: Mutex<Vec<WorkItem>>,
}

impl Service {
    /// Builds the service: pool slab, scheduler, dispatch buffer and
    /// latency reservoir are all allocated here, once.
    pub fn new(config: ServiceConfig) -> Self {
        let pool = SessionPool::new(&config.pool);
        let batch_len = if config.max_batch == 0 {
            pool.capacity()
        } else {
            config.max_batch.min(pool.capacity())
        };
        let window = config.latency_window.max(16);
        Self {
            sched: Mutex::new(DrrScheduler::new(config.quantum)),
            tenants: Mutex::new(Vec::new()),
            outcomes: Mutex::new(Vec::new()),
            latency: Mutex::new(LatencyRing {
                buf: vec![0; window],
                used: 0,
                pos: 0,
            }),
            batch: Mutex::new(vec![WorkItem::default(); batch_len.max(1)]),
            pool,
            config,
        }
    }

    /// Registers a tenant with a fair-share `weight` and a concurrent
    /// session `quota`; returns its index.
    pub fn add_tenant(&self, name: &str, weight: u64, quota: u32) -> u32 {
        let ring = self.pool.capacity() + 1;
        let id = lock(&self.sched).add_tenant(weight, ring);
        lock(&self.tenants).push(Tenant {
            name: name.to_string(),
            weight: weight.max(1),
            quota,
            active: 0,
            sessions_done: 0,
            steps_done: 0,
            work_done: 0,
            usage: TelemetryReport::default(),
        });
        id
    }

    /// Admits a session for `tenant`: reserves quota, pops a free slot,
    /// binds the case (warm when the slot last ran the same case) and
    /// queues the first work item. The warm path allocates nothing.
    pub fn admit(&self, tenant: u32, spec: &SessionSpec) -> Result<SessionId, AdmitError> {
        {
            let mut tenants = lock(&self.tenants);
            let t = tenants
                .get_mut(tenant as usize)
                .ok_or(AdmitError::UnknownTenant)?;
            if t.active >= t.quota {
                return Err(AdmitError::QuotaExceeded);
            }
            t.active += 1;
        }
        let Some(idx) = self.pool.acquire_index() else {
            lock(&self.tenants)[tenant as usize].active -= 1;
            return Err(AdmitError::PoolFull);
        };
        let id = {
            let mut slot = lock(self.pool.slot(idx));
            self.bind_slot(&mut slot, tenant, spec);
            SessionId {
                index: idx,
                generation: slot.generation,
            }
        };
        lock(&self.sched).offer(WorkItem {
            slot: idx,
            tenant,
            cost: spec.case.item_cost(spec.kind),
        });
        Ok(id)
    }

    fn bind_slot(&self, slot: &mut Slot, tenant: u32, spec: &SessionSpec) {
        let warm = slot.solver.is_some()
            && slot
                .case
                .as_ref()
                .is_some_and(|c| Arc::ptr_eq(c, &spec.case));
        if warm {
            self.pool.note_warm_bind();
            // The audit's seeded slot-leak skips exactly this rewind.
            if !self.pool.leak_for_audit() {
                if let Some(solver) = slot.solver.as_mut() {
                    solver.reset(&spec.case.init_velocity);
                }
            }
        } else {
            self.pool.note_cold_build();
            let case = &spec.case;
            let mut solver = alya_solver::FractionalStep::from_shared_parts(
                Arc::clone(&case.mesh),
                case.config.clone(),
                case.parts.clone(),
            );
            solver.set_bc((*case.bc).clone());
            solver.reset(&case.init_velocity);
            slot.solver = Some(solver);
            slot.case = Some(Arc::clone(case));
        }
        slot.tenant = tenant;
        slot.kind = spec.kind;
        slot.remaining = spec.steps.max(1);
        slot.steps_done = 0;
        slot.unconverged_steps = 0;
        slot.digest = FNV_OFFSET;
    }

    /// Pulls one fair batch and executes it in parallel over the machine
    /// worker helpers; retires sessions whose items ran out. Returns the
    /// number of items executed (0 = idle).
    pub fn run_round(&self) -> usize {
        let mut batch = lock(&self.batch);
        let n = lock(&self.sched).next_batch(&mut batch[..]);
        if n == 0 {
            return 0;
        }
        // Workers adopt per-slot telemetry contexts; restore the caller's
        // afterwards (the serial fast path runs items on this thread).
        let caller_ctx = telemetry::current_context();
        par::par_for_each_coarse(&batch[..n], |item| self.run_item(item));
        telemetry::adopt_context(caller_ctx);
        for i in 0..n {
            let item = batch[i];
            if self.finish_item(item) {
                self.retire_session(item);
            }
        }
        n
    }

    /// Runs rounds until the scheduler is empty; returns the total item
    /// count executed.
    pub fn run_to_idle(&self) -> u64 {
        let mut total = 0u64;
        loop {
            let n = self.run_round();
            if n == 0 {
                return total;
            }
            total += n as u64;
        }
    }

    /// Executes one work item: lock the slot, adopt its telemetry window
    /// as process `tenant + 1`, run the step/assembly, record its wall
    /// time in the (pre-allocated) latency ring.
    fn run_item(&self, item: &WorkItem) {
        let mut guard = lock(self.pool.slot(item.slot));
        let slot = &mut *guard;
        telemetry::adopt_context(slot.telemetry.context_on(item.tenant + 1));
        let t0 = Instant::now();
        match slot.kind {
            WorkKind::Step => {
                if let (Some(solver), Some(case)) = (slot.solver.as_mut(), slot.case.as_ref()) {
                    let stats = solver.step(case.variant);
                    slot.unconverged_steps += u32::from(!stats.cg.converged);
                }
            }
            WorkKind::Assemble => {
                if let Some(case) = slot.case.as_ref() {
                    let input = AssemblyInput::new(
                        &case.mesh,
                        &case.init_velocity,
                        &case.init_pressure,
                        &case.init_temperature,
                    )
                    .props(case.config.props)
                    .body_force(case.config.body_force)
                    .vreman_c(case.config.vreman_c);
                    let rhs = assemble_serial(case.variant, &input);
                    slot.digest = digest_bits(slot.digest, rhs.as_slice());
                }
            }
        }
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        slot.last_step_ns = ns;
        slot.steps_done += 1;
        slot.remaining = slot.remaining.saturating_sub(1);
        drop(guard);
        lock(&self.latency).record(ns);
    }

    /// Post-item bookkeeping: charge the tenant, requeue the session if
    /// it has items left. Returns `true` when the session is finished.
    // alya:hot
    fn finish_item(&self, item: WorkItem) -> bool {
        let done = {
            let slot = lock(self.pool.slot(item.slot));
            slot.remaining == 0
        };
        {
            let mut tenants = lock(&self.tenants);
            let t = &mut tenants[item.tenant as usize];
            t.steps_done += 1;
            t.work_done += item.cost;
        }
        if !done {
            lock(&self.sched).offer(item);
        }
        done
    }

    /// Retires a finished session: digest the final state, rotate the
    /// slot's telemetry window out and absorb it into the tenant's usage,
    /// record the outcome, recycle the slot index.
    fn retire_session(&self, item: WorkItem) {
        let outcome = {
            let mut guard = lock(self.pool.slot(item.slot));
            let slot = &mut *guard;
            let digest = match (slot.kind, slot.solver.as_ref()) {
                (WorkKind::Step, Some(solver)) => {
                    let h = digest_bits(FNV_OFFSET, solver.velocity().as_slice());
                    digest_bits(h, solver.pressure().as_slice())
                }
                _ => slot.digest,
            };
            let (case, elements, rhs_evals) = slot.case.as_ref().map_or_else(
                || (String::new(), 0, 0),
                |c| (c.name.clone(), c.elements(), c.rhs_evals(slot.kind)),
            );
            let mut report = slot.telemetry.rotate();
            if !self.config.keep_spans {
                report.spans.clear();
            }
            let outcome = SessionOutcome {
                tenant: slot.tenant,
                case,
                kind: slot.kind,
                steps: slot.steps_done,
                unconverged_steps: slot.unconverged_steps,
                elements,
                rhs_evals,
                digest,
                slot: item.slot,
                generation: slot.generation,
            };
            slot.generation = slot.generation.wrapping_add(1);
            {
                let mut tenants = lock(&self.tenants);
                let t = &mut tenants[item.tenant as usize];
                t.active = t.active.saturating_sub(1);
                t.sessions_done += 1;
                t.usage.absorb(&report);
            }
            outcome
        };
        if outcome.unconverged_steps > 0 {
            telemetry::warn(format!(
                "serve: session of case \"{}\" (tenant {}, slot {}) ran {} of {} steps \
                 with an unconverged pressure solve",
                outcome.case,
                outcome.tenant,
                outcome.slot,
                outcome.unconverged_steps,
                outcome.steps
            ));
        }
        lock(&self.outcomes).push(outcome);
        self.pool.release_index(item.slot);
    }

    /// Sessions currently admitted.
    pub fn live_sessions(&self) -> usize {
        self.pool.live()
    }

    /// The slot pool (counters: cold builds, warm binds, peak live).
    pub fn pool(&self) -> &SessionPool {
        &self.pool
    }

    /// Table-I profile over everything `tenant`'s retired sessions
    /// assembled — the per-tenant version of the paper's Table I.
    pub fn tenant_profile(&self, tenant: u32) -> Option<alya_telemetry::profile::TableOneProfile> {
        let tenants = lock(&self.tenants);
        tenants
            .get(tenant as usize)
            .map(|t| alya_core::metrics::table_one(&t.usage))
    }

    /// Snapshot of the whole service.
    pub fn report(&self) -> ServeReport {
        let tenants: Vec<TenantReport> = lock(&self.tenants)
            .iter()
            .map(|t| TenantReport {
                name: t.name.clone(),
                weight: t.weight,
                quota: t.quota,
                active: t.active,
                sessions: t.sessions_done,
                steps: t.steps_done,
                work_done: t.work_done,
                usage: t.usage.clone(),
            })
            .collect();
        let lat = lock(&self.latency);
        let mut step_ns_sorted: Vec<u64> = lat.buf[..lat.used].to_vec();
        drop(lat);
        step_ns_sorted.sort_unstable();
        ServeReport {
            tenants,
            outcomes: lock(&self.outcomes).clone(),
            cold_builds: self.pool.cold_builds(),
            warm_binds: self.pool.warm_binds(),
            capacity: self.pool.capacity(),
            live: self.pool.live(),
            peak_live: self.pool.peak_live(),
            step_ns_sorted,
        }
    }

    /// A `top`-style live sample of the service for the probe sentinel:
    /// latency quantiles over the recent window, fairness spread,
    /// cold/warm bind ledger and one row per tenant. `elapsed_s` is the
    /// caller's sample window (the service does not keep wall time).
    /// Also drops a breadcrumb in the flight recorder so dumps show
    /// when the service was last sampled.
    pub fn sample(&self, elapsed_s: f64) -> alya_probe::ServiceSample {
        let report = self.report();
        alya_probe::note_counter("serve-top-sample", 1);
        alya_probe::ServiceSample {
            elapsed_s,
            p50_step_ms: report.step_latency_ns(0.50) as f64 * 1e-6,
            p99_step_ms: report.step_latency_ns(0.99) as f64 * 1e-6,
            fairness_spread: report.fairness_spread(),
            cold_builds: report.cold_builds,
            warm_binds: report.warm_binds,
            tenants: report
                .tenants
                .iter()
                .map(|t| (t.name.clone(), t.active, t.sessions, t.steps, t.work_done))
                .collect(),
        }
    }

    /// Renders [`Service::sample`] as the periodic `top`-style table the
    /// serve bench prints: per-tenant throughput, latency quantiles,
    /// fairness and the cold/warm bind ratio.
    pub fn top_snapshot(&self, elapsed_s: f64) -> String {
        use std::fmt::Write as _;
        let s = self.sample(elapsed_s);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serve top — window {:.1}s · p50 {:.3} ms · p99 {:.3} ms · \
             fairness spread {:.3} · warm ratio {:.3} ({} warm / {} cold)",
            s.elapsed_s,
            s.p50_step_ms,
            s.p99_step_ms,
            s.fairness_spread,
            s.warm_ratio(),
            s.warm_binds,
            s.cold_builds,
        );
        let _ = writeln!(
            out,
            "  {:<16} {:>7} {:>9} {:>8} {:>12} {:>10}",
            "tenant", "active", "sessions", "steps", "work", "steps/s"
        );
        for (name, active, sessions, steps, work) in &s.tenants {
            let rate = if s.elapsed_s > 0.0 {
                *steps as f64 / s.elapsed_s
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {name:<16} {active:>7} {sessions:>9} {steps:>8} {work:>12} {rate:>10.1}"
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alya_core::Variant;
    use alya_mesh::BoxMeshBuilder;
    use alya_solver::StepConfig;
    use alya_telemetry::Metric;

    fn small_case(name: &str) -> Arc<SharedCase> {
        let mut cfg = StepConfig::default();
        cfg.dt = 5e-4;
        Arc::new(SharedCase::new(
            name,
            BoxMeshBuilder::new(3, 3, 3).build(),
            cfg,
            Variant::Rsp,
            |p| [0.1 * p[2], 0.0, 0.0],
        ))
    }

    fn service(capacity: usize) -> Service {
        let mut cfg = ServiceConfig::default();
        cfg.pool.capacity = capacity;
        Service::new(cfg)
    }

    #[test]
    fn quota_and_pool_limits_are_enforced() {
        let s = service(2);
        let t0 = s.add_tenant("a", 1, 1);
        let t1 = s.add_tenant("b", 1, 8);
        let case = small_case("c");
        let spec = SessionSpec::new(Arc::clone(&case), 1);
        assert!(s.admit(t0, &spec).is_ok());
        assert_eq!(s.admit(t0, &spec), Err(AdmitError::QuotaExceeded));
        assert!(s.admit(t1, &spec).is_ok());
        assert_eq!(s.admit(t1, &spec), Err(AdmitError::PoolFull));
        assert_eq!(s.admit(99, &spec), Err(AdmitError::UnknownTenant));
        s.run_to_idle();
        assert_eq!(s.live_sessions(), 0);
        // Quota released after retirement.
        assert!(s.admit(t0, &spec).is_ok());
        s.run_to_idle();
    }

    #[test]
    fn sessions_complete_and_account_per_tenant() {
        // Capacity 2 so the post-drain re-admission must land on a slot
        // that already ran this case (warm bind), deterministically.
        let s = service(2);
        let ta = s.add_tenant("a", 1, 4);
        let tb = s.add_tenant("b", 1, 4);
        let case = small_case("c");
        let elems = case.elements();
        s.admit(ta, &SessionSpec::new(Arc::clone(&case), 3))
            .unwrap();
        s.admit(tb, &SessionSpec::new(Arc::clone(&case), 2))
            .unwrap();
        let items = s.run_to_idle();
        assert_eq!(items, 5);
        let rep = s.report();
        assert_eq!(rep.outcomes.len(), 2);
        assert_eq!(rep.tenants[ta as usize].steps, 3);
        assert_eq!(rep.tenants[tb as usize].steps, 2);
        // Per-tenant telemetry: ElementsAssembled == steps × rhs_evals × E.
        let ea = rep.tenants[ta as usize]
            .usage
            .total(Metric::ElementsAssembled);
        assert_eq!(ea, 3 * case.rhs_evals(WorkKind::Step) * elems);
        let eb = rep.tenants[tb as usize]
            .usage
            .total(Metric::ElementsAssembled);
        assert_eq!(eb, 2 * case.rhs_evals(WorkKind::Step) * elems);
        // Cold once per slot used; zero warm binds so far.
        assert_eq!(rep.cold_builds, 2);
        // Re-admitting the same case warms a pooled slot.
        s.admit(ta, &SessionSpec::new(Arc::clone(&case), 1))
            .unwrap();
        s.run_to_idle();
        let rep = s.report();
        assert_eq!(rep.cold_builds + rep.warm_binds, 3);
        assert_eq!(rep.warm_binds, 1);
    }

    #[test]
    fn warm_digest_matches_cold_digest() {
        // Same case, same steps: slot reuse must be bitwise invisible.
        let s = service(1);
        let t = s.add_tenant("a", 1, 1);
        let case = small_case("c");
        let spec = SessionSpec::new(Arc::clone(&case), 2);
        s.admit(t, &spec).unwrap();
        s.run_to_idle();
        s.admit(t, &spec).unwrap();
        s.run_to_idle();
        let rep = s.report();
        assert_eq!(rep.outcomes.len(), 2);
        assert_eq!(rep.outcomes[0].slot, rep.outcomes[1].slot);
        assert_eq!(rep.outcomes[0].digest, rep.outcomes[1].digest);
        assert_eq!(rep.warm_binds, 1);
    }

    #[test]
    fn unconverged_pressure_solves_are_counted_and_warned_once_per_session() {
        let mut cfg = StepConfig::default();
        cfg.dt = 5e-4;
        cfg.cg_max_iters = 1;
        let starved = Arc::new(SharedCase::new(
            "starved-cg",
            BoxMeshBuilder::new(3, 3, 3).build(),
            cfg,
            Variant::Rsp,
            |p| [(2.0 * std::f64::consts::PI * p[0]).sin(), 0.0, 0.0],
        ));
        let s = service(2);
        let t = s.add_tenant("a", 1, 2);
        s.admit(t, &SessionSpec::new(starved, 3)).unwrap();
        s.admit(t, &SessionSpec::new(small_case("healthy"), 3))
            .unwrap();
        s.run_to_idle();
        let rep = s.report();
        let count = |case: &str| {
            let o = rep.outcomes.iter().find(|o| o.case == case).unwrap();
            o.unconverged_steps
        };
        assert_eq!(count("starved-cg"), 3);
        assert_eq!(count("healthy"), 0);
        assert_eq!(rep.unconverged_steps(), 3);
        let warnings = telemetry::drain_warnings();
        let ours: Vec<_> = warnings
            .iter()
            .filter(|w| w.contains("starved-cg"))
            .collect();
        assert_eq!(ours.len(), 1, "{warnings:?}");
        assert!(ours[0].contains("3 of 3 steps"), "{ours:?}");
    }

    #[test]
    fn assemble_sessions_digest_deterministically() {
        let s = service(2);
        let t = s.add_tenant("a", 1, 2);
        let case = small_case("c");
        let spec = SessionSpec::new(Arc::clone(&case), 2).assemble_only();
        s.admit(t, &spec).unwrap();
        s.admit(t, &spec).unwrap();
        s.run_to_idle();
        let rep = s.report();
        assert_eq!(rep.outcomes.len(), 2);
        assert_eq!(rep.outcomes[0].digest, rep.outcomes[1].digest);
        assert_eq!(rep.outcomes[0].rhs_evals, 1);
    }

    #[test]
    fn tenant_profile_reflects_only_that_tenant() {
        let s = service(2);
        let ta = s.add_tenant("a", 1, 2);
        let _tb = s.add_tenant("b", 1, 2);
        let case = small_case("c");
        s.admit(ta, &SessionSpec::new(Arc::clone(&case), 1))
            .unwrap();
        s.run_to_idle();
        let pa = s.tenant_profile(ta).unwrap();
        assert_eq!(pa.rows.len(), 1, "one variant assembled");
        assert_eq!(pa.max_abs_deviation(), 0, "per-tenant Table-I contract");
        let pb = s.tenant_profile(1).unwrap();
        assert!(pb.rows.is_empty(), "idle tenant has an empty profile");
        assert!(s.tenant_profile(42).is_none());
    }

    #[test]
    fn latency_and_fairness_reporting() {
        let s = service(4);
        let ta = s.add_tenant("a", 1, 2);
        let tb = s.add_tenant("b", 1, 2);
        let case = small_case("c");
        s.admit(ta, &SessionSpec::new(Arc::clone(&case), 2))
            .unwrap();
        s.admit(tb, &SessionSpec::new(Arc::clone(&case), 2))
            .unwrap();
        s.run_to_idle();
        let rep = s.report();
        assert_eq!(rep.step_ns_sorted.len(), 4);
        assert!(rep.step_latency_ns(0.5) > 0);
        assert!(rep.step_latency_ns(0.99) >= rep.step_latency_ns(0.5));
        // Equal weights, equal work: spread is exactly 0.
        assert_eq!(rep.fairness_spread(), 0.0);
    }
}
