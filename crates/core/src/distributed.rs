//! Rank-parallel distributed assembly over the `alya-comm` runtime,
//! scheduled by an `alya-sched` stage pipeline.
//!
//! Where [`crate::drivers::ParallelStrategy::Sharded`] keeps all shards in
//! one address space and merges boundary lists in-process, the
//! [`DistributedDriver`] runs **one rank per shard as its own OS thread
//! with no shared mutable state**: each rank assembles its elements into a
//! compact local buffer (the *same* element loop,
//! `drivers::assemble_list`, and `CompactSink` as the sharded
//! driver — per the paper, the per-rank kernel must not change when the
//! code goes distributed), then ships the contributions of
//! interface nodes it does not own to the owning rank as a sparse sorted
//! `(local_slot, value)` message ([`alya_comm::HaloMsg`]).
//!
//! ## The overlap pipeline
//!
//! Every rank runs one [`alya_sched::Pipeline`] of five stages:
//!
//! ```text
//! assemble-pre ──► halo-post ──► assemble-overlap ──┐
//!                      │                            ├──► combine
//!                      └────────► halo-drain ───────┘
//! ```
//!
//! With overlap **on** (the default), `assemble-pre` covers only the
//! *boundary* elements — the ones touching an interface node — so the
//! halo sends go out as early as possible; `assemble-overlap` then chews
//! through the interior bulk in chunks while `halo-drain` polls
//! [`alya_comm::RankHandle::try_recv_from`] between chunks, switching to
//! short parked waits once compute retires. With overlap **off**,
//! `assemble-pre` covers *all* elements (still boundary-first) and the
//! drain stage simply blocks. Either way a stall/deadlock surfaces as an
//! [`alya_sched::Stall`] from the watchdog instead of a hang, and the
//! run's [`SchedTrace`]s are what the analyzer's pass-5 schedule
//! contract audits.
//!
//! ## Why overlap cannot change a bit
//!
//! Interior elements never touch boundary slots (an element writing a
//! boundary node is by definition a boundary element), so the boundary
//! slot values are final once `assemble-pre` retires — posting the sends
//! before the interior bulk ships exactly the bytes the non-overlapped
//! schedule would. Both modes assemble in the same boundary-first element
//! order, and the combine folds incoming messages **in ascending sender
//! rank order** ([`alya_comm::ExchangeProgress::into_sorted`]) whatever
//! order they arrived in. The assembled RHS is therefore bitwise
//! reproducible run-to-run *and* across overlap modes at any fixed rank
//! count — only across *different* rank counts does the summation order
//! legitimately differ (floating-point reassociation), which the
//! equivalence suite bounds at 1e-12 against the serial reference.
//!
//! Communication volume is closed-form:
//! [`ShardSet::halo_send_slots`]` × `[`HALO_ENTRY_BYTES`] bytes per
//! assembly — the number the analyzer's comm contract checks the live
//! [`CommReport`] against.

use std::time::Duration;

use alya_comm::HALO_ENTRY_BYTES;
use alya_comm::{
    CommReport, Communicator, ExchangeProgress, HaloMsg, NeighborExchange, RankHandle, RecordMode,
};
use alya_fem::VectorField;
use alya_mesh::{ExchangePlan, Partition, ShardSet, TetMesh};
use alya_probe as probe;
use alya_sched::{Pipeline, SchedTrace, StageStatus, Stall, Watchdog};
use alya_telemetry as telemetry;

use crate::drivers::{assemble_list, with_nut, workspace, CompactSink, ExecMode};
use crate::input::AssemblyInput;
use crate::metrics;
use crate::variant::Variant;

/// One rank's owned output: `(global node, summed contribution)` pairs.
type OwnedValues = Vec<(u32, [f64; 3])>;

/// Elements a cooperative assembly stage processes per call — small
/// enough that the drain stage gets to poll between chunks, large enough
/// that scheduling overhead stays invisible next to the kernel work.
const ASSEMBLY_CHUNK: usize = 256;

/// How long one `halo-drain` parked wait lasts once compute has retired.
/// Short slices keep the stage cooperative so the watchdog — not the
/// comm layer — owns the stall decision.
const DRAIN_SLICE: Duration = Duration::from_millis(1);

/// A deliberately withheld halo message, for watchdog self-tests: rank
/// `from` skips its send to rank `to`, so `to`'s drain stage can never
/// complete and the scheduler watchdog must fire.
#[derive(Debug, Clone, Copy)]
pub struct HaloFault {
    /// The rank that withholds a send.
    pub from: u32,
    /// The rank robbed of its message.
    pub to: u32,
}

/// Per-rank element order: boundary positions first, then interior, each
/// ascending. Both overlap modes assemble in exactly this order.
#[derive(Debug, Clone)]
struct ElemSplit {
    order: Vec<u32>,
    num_boundary: usize,
}

/// Rank-parallel distributed assembly driver.
///
/// Owns the mesh decomposition ([`ShardSet`], compact renumbering), the
/// halo-exchange schedule ([`ExchangePlan`], owner/sender slots) and the
/// per-rank boundary-first element order; one driver is built once and
/// reused across assembly calls, like the other strategies' state.
pub struct DistributedDriver {
    shards: ShardSet,
    plan: ExchangePlan,
    splits: Vec<ElemSplit>,
    record: RecordMode,
    overlap: bool,
    mode: ExecMode,
    stall_timeout: Duration,
}

/// Shared mutable state of one rank's pipeline run. Stages communicate
/// only through this context and the recorded trace — there is nothing
/// else to race on.
struct RankCtx<'h> {
    local: Vec<f64>,
    ws_buf: Vec<f64>,
    pre_done: usize,
    rest_done: usize,
    progress: Option<ExchangeProgress<HaloMsg>>,
    handle: &'h mut RankHandle<HaloMsg>,
    owned: OwnedValues,
    /// Reusable pending-peer snapshot for the drain stage — allocated once
    /// per rank, not once per poll.
    drain_scratch: Vec<u32>,
}

/// One cooperative drain step: snapshot the pending peers into the reused
/// scratch buffer, then poll (compute still running) or park for one slice
/// (compute retired). Returns how many messages arrived.
// alya:hot
fn drain_step(
    p: &mut ExchangeProgress<HaloMsg>,
    handle: &mut RankHandle<HaloMsg>,
    compute_retired: bool,
    scratch: &mut Vec<u32>,
) -> usize {
    scratch.clear();
    scratch.extend_from_slice(p.pending());
    if compute_retired {
        p.wait_any(handle, DRAIN_SLICE)
    } else {
        p.poll(handle)
    }
}

/// Folds one received halo message into the compact accumulation buffer.
/// Callers fold in ascending sender rank order — the bitwise-
/// reproducibility anchor.
// alya:hot
#[inline]
fn fold_halo_msg(local: &mut [f64], nl: usize, msg: &HaloMsg) {
    for &(slot, v) in &msg.entries {
        let s = slot as usize;
        local[s] += v[0];
        local[nl + s] += v[1];
        local[2 * nl + s] += v[2];
    }
}

impl DistributedDriver {
    /// Decomposes `mesh` over `num_ranks` ranks by RCB (the partitioner
    /// every other owner-computes driver uses).
    pub fn new(mesh: &TetMesh, num_ranks: usize) -> Self {
        Self::from_shard_set(ShardSet::build(mesh, &Partition::rcb(mesh, num_ranks)))
    }

    /// Wraps an existing shard set (e.g. one shared with a
    /// [`crate::drivers::ParallelStrategy::Sharded`] strategy).
    pub fn from_shard_set(shards: ShardSet) -> Self {
        let plan = ExchangePlan::build(&shards);
        let splits = shards
            .shards()
            .map(|s| {
                let (boundary, interior) = s.element_split();
                let num_boundary = boundary.len();
                let mut order = boundary;
                order.extend(interior);
                ElemSplit {
                    order,
                    num_boundary,
                }
            })
            .collect();
        Self {
            shards,
            plan,
            splits,
            record: RecordMode::Counters,
            overlap: true,
            mode: ExecMode::Scalar,
            stall_timeout: Watchdog::default().stall_timeout,
        }
    }

    /// Enables full message tracing (slot lists per message) — the mode
    /// the analyzer's comm contract audits.
    pub fn traced(mut self, on: bool) -> Self {
        self.record = if on {
            RecordMode::Full
        } else {
            RecordMode::Counters
        };
        self
    }

    /// Enables (default) or disables compute/exchange overlap. Off means
    /// every rank assembles everything before posting its sends — the
    /// back-to-back schedule, kept as the bitwise-identical baseline the
    /// bench compares against.
    pub fn overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Sets the scheduler watchdog window (default 30 s): how long a
    /// rank's pipeline may sit idle before the run aborts with a
    /// [`Stall`].
    pub fn stall_timeout(mut self, window: Duration) -> Self {
        self.stall_timeout = window;
        self
    }

    /// Runs each rank's element loop in full packs
    /// ([`crate::drivers::ExecMode::Packed`]); chunk remainders run one
    /// element at a time. Element order, scatter order and therefore every
    /// assembled bit are unchanged.
    pub fn packed(mut self, on: bool) -> Self {
        self.mode = if on {
            ExecMode::Packed
        } else {
            ExecMode::Scalar
        };
        self
    }

    /// Whether compute/exchange overlap is enabled.
    pub fn overlap_enabled(&self) -> bool {
        self.overlap
    }

    /// Whether the lane-packed execution path is enabled.
    pub fn packed_enabled(&self) -> bool {
        self.mode == ExecMode::Packed
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.shards.num_shards()
    }

    /// The decomposition this driver assembles over.
    pub fn shard_set(&self) -> &ShardSet {
        &self.shards
    }

    /// The halo-exchange schedule.
    pub fn exchange_plan(&self) -> &ExchangePlan {
        &self.plan
    }

    /// Closed-form prediction of the bytes one assembly exchanges.
    pub fn expected_halo_bytes(&self) -> usize {
        self.shards.halo_send_slots() * HALO_ENTRY_BYTES
    }

    /// Assembles the RHS with `variant`, one rank per shard, and returns
    /// it together with the exchange accounting.
    ///
    /// Equal to [`crate::assemble_serial`] up to floating-point
    /// reassociation of the nodal sums; bitwise reproducible across runs
    /// *and* across overlap modes at this rank count.
    ///
    /// # Panics
    /// If the scheduler watchdog fires (a halo message never arrived) —
    /// use [`DistributedDriver::assemble_sched`] to handle that case.
    pub fn assemble(&self, variant: Variant, input: &AssemblyInput) -> (VectorField, CommReport) {
        match self.assemble_sched(variant, input, None) {
            Ok((rhs, report, _)) => (rhs, report),
            Err(stall) => panic!("distributed assembly stalled: {stall}"),
        }
    }

    /// [`DistributedDriver::assemble`] with the scheduler surfaced: also
    /// returns each rank's [`SchedTrace`] (rank order) for the pass-5
    /// schedule contract, reports a watchdog [`Stall`] as an error
    /// instead of panicking, and can inject a [`HaloFault`] so tests can
    /// prove the watchdog fires.
    pub fn assemble_sched(
        &self,
        variant: Variant,
        input: &AssemblyInput,
        fault: Option<HaloFault>,
    ) -> Result<(VectorField, CommReport, Vec<SchedTrace>), Stall> {
        with_nut(variant, input, |input| {
            let nn = input.mesh.num_nodes();
            let run = Communicator::run(
                self.num_ranks(),
                self.record,
                |r, handle: &mut RankHandle<HaloMsg>| {
                    self.rank_assemble(variant, input, r, handle, fault)
                },
            );
            // Scatter the owned outputs: node ownership is a partition of
            // the mesh nodes, so every node is written exactly once and
            // rank order cannot matter.
            let mut rhs = VectorField::zeros(nn);
            let mut traces = Vec::with_capacity(self.num_ranks());
            let mut stall = None;
            for res in run.results {
                match res {
                    Ok((owned, trace)) => {
                        for (g, v) in owned {
                            rhs.add(g as usize, v);
                        }
                        traces.push(trace);
                    }
                    Err(s) => {
                        if stall.is_none() {
                            stall = Some(s);
                        }
                    }
                }
            }
            match stall {
                Some(s) => {
                    // Black-box the whole fleet while the evidence is
                    // fresh: every rank's ring still holds the events
                    // leading up to the stall (the stalled rank's trail
                    // of comm timeouts names the rank it waited on).
                    probe::capture(&format!("watchdog stall: {s}"));
                    Err(s)
                }
                None => Ok((rhs, run.report, traces)),
            }
        })
    }

    /// The per-rank body: the five-stage pipeline described in the
    /// module docs, run to completion under the stall watchdog.
    fn rank_assemble(
        &self,
        variant: Variant,
        input: &AssemblyInput,
        r: u32,
        handle: &mut RankHandle<HaloMsg>,
        fault: Option<HaloFault>,
    ) -> Result<(OwnedValues, SchedTrace), Stall> {
        let shard = self.shards.shard(r as usize);
        let sched = self.plan.rank(r as usize);
        let split = &self.splits[r as usize];
        let nl = shard.num_local_nodes();
        // Overlap on: pre = boundary elements only, rest = interior.
        // Overlap off: pre = everything (same order), rest = empty.
        let cut = if self.overlap {
            split.num_boundary
        } else {
            split.order.len()
        };
        let (pre, rest) = split.order.split_at(cut);

        let pipe_name = if self.overlap {
            "rank-overlap"
        } else {
            "rank-serial"
        };
        let mut pipe: Pipeline<'_, RankCtx<'_>> = Pipeline::new(pipe_name);

        // One cooperative chunk of either compute stage: the next
        // `ASSEMBLY_CHUNK` shard positions of `order` through the shared
        // element loop into the compact buffer — the sharded strategy's
        // span, over this rank's boundary-first order.
        let mode = self.mode;
        let assemble_chunk = |order: &[u32], done: &mut usize, buf: &mut [f64], ws: &mut [f64]| {
            let end = (*done + ASSEMBLY_CHUNK).min(order.len());
            let span = &order[*done..end];
            let mut sink = CompactSink::new(shard, input.mesh, buf);
            let pos_at = |i| span[i] as usize;
            assemble_list(variant, mode, input, span.len(), pos_at, ws, &mut sink);
            *done = end;
            if end == order.len() {
                StageStatus::Done
            } else {
                StageStatus::Progress
            }
        };

        let s_pre = pipe.stage("assemble-pre", &[], |c, _ctx| {
            assemble_chunk(pre, &mut c.pre_done, &mut c.local, &mut c.ws_buf)
        });
        let b_pre = pipe.buffer("pre-acc", s_pre);

        let s_post = pipe.stage("halo-post", &[s_pre], |c, ctx| {
            // Boundary slot values are final here (interior elements never
            // touch them), so these are the exact bytes the back-to-back
            // schedule would send.
            ctx.buf_read(b_pre);
            let sends: Vec<(u32, HaloMsg)> = sched
                .sends
                .iter()
                .filter(|(to, _)| !matches!(fault, Some(f) if f.from == r && f.to == *to))
                .map(|(to, list)| {
                    let entries = list
                        .iter()
                        .map(|&(mine, theirs)| {
                            let m = mine as usize;
                            (theirs, [c.local[m], c.local[nl + m], c.local[2 * nl + m]])
                        })
                        .collect();
                    (*to, HaloMsg { entries })
                })
                .collect();
            ctx.note("posted", sends.len() as u64);
            let exchange = NeighborExchange::new(sched.recv_peers.clone());
            c.progress = Some(exchange.post(c.handle, sends));
            StageStatus::Done
        });

        let s_rest = pipe.stage("assemble-overlap", &[s_post], |c, _ctx| {
            assemble_chunk(rest, &mut c.rest_done, &mut c.local, &mut c.ws_buf)
        });
        let b_rest = pipe.buffer("overlap-acc", s_rest);

        let s_drain = pipe.stage("halo-drain", &[s_post], move |c, ctx| {
            // `halo-post` retires before this stage is scheduled (stage
            // dependency); if the exchange is somehow absent, go idle and
            // let the watchdog surface a stall instead of panicking mid-run.
            let Some(p) = c.progress.as_mut() else {
                return StageStatus::Idle;
            };
            if p.is_complete() {
                return StageStatus::Done;
            }
            // While compute still runs, poll without blocking; once it
            // retired, park in short slices so other rank threads get the
            // core but the watchdog can still fire.
            let n = drain_step(p, c.handle, ctx.retired(s_rest), &mut c.drain_scratch);
            if n > 0 {
                for &peer in &c.drain_scratch {
                    if !p.pending().contains(&peer) {
                        ctx.note("recv", u64::from(peer));
                    }
                }
            }
            if p.is_complete() {
                StageStatus::Done
            } else if n > 0 {
                StageStatus::Progress
            } else {
                StageStatus::Idle
            }
        });
        let b_in = pipe.buffer("halo-in", s_drain);

        let _s_combine = pipe.stage("combine", &[s_rest, s_drain], |c, ctx| {
            ctx.buf_read(b_pre);
            ctx.buf_read(b_rest);
            ctx.buf_read(b_in);
            // Messages fold in ascending sender rank order whatever order
            // they arrived in — the bitwise-reproducibility anchor. A
            // missing exchange is a scheduler bug surfaced as a stall (the
            // stage goes idle, the watchdog fires), not a panic.
            let Some(exchange) = c.progress.take() else {
                return StageStatus::Idle;
            };
            for (peer, msg) in exchange.into_sorted() {
                ctx.note("combine", u64::from(peer));
                fold_halo_msg(&mut c.local, nl, &msg);
            }
            // Owned writeback list: all interior nodes plus the boundary
            // nodes this rank owns.
            let ni = shard.num_interior();
            c.owned.reserve(ni + sched.owned_boundary_slots.len());
            for (l, &g) in shard.global_nodes()[..ni].iter().enumerate() {
                c.owned
                    .push((g, [c.local[l], c.local[nl + l], c.local[2 * nl + l]]));
            }
            for &slot in &sched.owned_boundary_slots {
                let l = slot as usize;
                let g = shard.global_nodes()[l];
                c.owned
                    .push((g, [c.local[l], c.local[nl + l], c.local[2 * nl + l]]));
            }
            StageStatus::Done
        });

        let mut ctx = RankCtx {
            local: vec![0.0; 3 * nl],
            ws_buf: workspace(variant),
            pre_done: 0,
            rest_done: 0,
            progress: None,
            handle,
            owned: Vec::new(),
            drain_scratch: Vec::new(),
        };
        // The whole pipeline run is one span on this rank's main trace
        // row; the executor puts each stage on its own sub-row, so a
        // chrome export shows halo-drain overlapping assemble-overlap.
        let trace = {
            let _sp = telemetry::span(format!("{}:{}", pipe_name, variant.name()));
            pipe.run(&mut ctx, Watchdog::after(self.stall_timeout))?
        };
        metrics::tally_elements(variant, shard.elements().len() as u64);
        Ok((ctx.owned, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble_serial;
    use alya_fem::{ConstantProperties, ScalarField};
    use alya_mesh::BoxMeshBuilder;

    fn setup(mesh: &TetMesh) -> (VectorField, ScalarField, ScalarField) {
        let v = VectorField::from_fn(mesh, |p| {
            [p[2] * p[2], 0.4 * p[0] - p[1], 0.2 * p[0] * p[1]]
        });
        let p = ScalarField::from_fn(mesh, |q| q[0] - q[1] * q[2]);
        let t = ScalarField::zeros(mesh.num_nodes());
        (v, p, t)
    }

    #[test]
    fn distributed_matches_serial_and_accounts_closed_form_bytes() {
        let mesh = BoxMeshBuilder::new(4, 4, 3).jitter(0.1).seed(3).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t).props(ConstantProperties::AIR);
        let serial = assemble_serial(Variant::Rsp, &input);
        let scale = serial.max_abs().max(1e-30);
        for ranks in [1, 2, 4, 8] {
            let driver = DistributedDriver::new(&mesh, ranks);
            let (rhs, report) = driver.assemble(Variant::Rsp, &input);
            let dev = rhs.max_abs_diff(&serial) / scale;
            assert!(dev < 1e-12, "{ranks} ranks deviate by {dev}");
            assert_eq!(
                report.total_bytes(),
                driver.expected_halo_bytes() as u64,
                "{ranks} ranks: live bytes diverge from the closed form"
            );
            assert_eq!(
                report.total_messages(),
                driver.exchange_plan().num_messages() as u64
            );
            assert!(report.all_delivered(), "{report:#?}");
            assert_eq!(report.self_send_attempts, 0);
            if ranks == 1 {
                assert_eq!(report.total_messages(), 0);
            }
        }
    }

    #[test]
    fn assembly_is_bitwise_reproducible_at_a_fixed_rank_count() {
        use alya_machine::par;
        let mesh = BoxMeshBuilder::new(4, 3, 3).jitter(0.12).seed(21).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t).props(ConstantProperties::AIR);
        let driver = DistributedDriver::new(&mesh, 6);
        // Two runs under different process-wide thread caps: the rank
        // count is fixed by the decomposition, so every bit must agree.
        par::set_thread_cap(Some(1));
        let (a, _) = driver.assemble(Variant::Rspr, &input);
        par::set_thread_cap(Some(8));
        let (b, _) = driver.assemble(Variant::Rspr, &input);
        par::set_thread_cap(None);
        assert_eq!(a.max_abs_diff(&b), 0.0, "rank combine is nondeterministic");
    }

    #[test]
    fn overlap_modes_agree_bitwise_and_trace_both_pipeline_shapes() {
        let mesh = BoxMeshBuilder::new(4, 3, 3).jitter(0.09).seed(5).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t).props(ConstantProperties::AIR);
        let on = DistributedDriver::new(&mesh, 4);
        let off = DistributedDriver::new(&mesh, 4).overlap(false);
        assert!(on.overlap_enabled() && !off.overlap_enabled());
        let (ra, _, ta) = on.assemble_sched(Variant::Rsp, &input, None).unwrap();
        let (rb, _, tb) = off.assemble_sched(Variant::Rsp, &input, None).unwrap();
        assert_eq!(
            ra.max_abs_diff(&rb),
            0.0,
            "overlap changed the assembled bits"
        );
        assert_eq!(ta.len(), 4);
        assert_eq!(tb.len(), 4);
        for (r, (a, b)) in ta.iter().zip(&tb).enumerate() {
            assert_eq!(a.pipeline, "rank-overlap");
            assert_eq!(b.pipeline, "rank-serial");
            // Both modes combine in ascending sender order, and the order
            // is exactly the plan's.
            let expected: Vec<u64> = on
                .exchange_plan()
                .rank(r)
                .recv_peers
                .iter()
                .map(|&p| u64::from(p))
                .collect();
            assert_eq!(a.notes("combine"), expected);
            assert_eq!(b.notes("combine"), expected);
        }
    }

    #[test]
    fn packed_ranks_are_bitwise_identical_to_scalar_ranks() {
        let mesh = BoxMeshBuilder::new(4, 3, 3).jitter(0.1).seed(17).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t).props(ConstantProperties::AIR);
        let scalar = DistributedDriver::new(&mesh, 4);
        let lanes = DistributedDriver::new(&mesh, 4).packed(true);
        assert!(!scalar.packed_enabled() && lanes.packed_enabled());
        for variant in Variant::ALL {
            let (a, ra) = scalar.assemble(variant, &input);
            let (b, rb) = lanes.assemble(variant, &input);
            assert_eq!(
                a.max_abs_diff(&b),
                0.0,
                "{variant}: packed ranks changed the assembled bits"
            );
            // The halo traffic is a function of the decomposition alone.
            assert_eq!(ra.total_bytes(), rb.total_bytes());
        }
    }

    #[test]
    fn a_withheld_halo_message_trips_the_watchdog() {
        let mesh = BoxMeshBuilder::new(3, 3, 2).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let driver = DistributedDriver::new(&mesh, 4).stall_timeout(Duration::from_millis(150));
        // Pick a real channel so the withheld message is actually owed.
        let plan = driver.exchange_plan();
        let (from, to) = (0..4u32)
            .find_map(|r| plan.rank(r as usize).sends.first().map(|&(to, _)| (r, to)))
            .expect("a 4-rank decomposition always exchanges something");
        let err = driver
            .assemble_sched(Variant::Rsp, &input, Some(HaloFault { from, to }))
            .unwrap_err();
        assert_eq!(err.pipeline, "rank-overlap");
        assert!(
            err.stalled.contains(&"halo-drain"),
            "the drain stage must be the one stalled: {err}"
        );
        assert!(err.waited >= Duration::from_millis(150));
    }

    #[test]
    fn traced_mode_records_the_slots_each_message_carries() {
        let mesh = BoxMeshBuilder::new(3, 3, 2).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let driver = DistributedDriver::new(&mesh, 4).traced(true);
        let (_, report) = driver.assemble(Variant::Rsp, &input);
        assert_eq!(report.traces.len() as u64, report.total_messages());
        let plan = driver.exchange_plan();
        for t in &report.traces {
            // Slots strictly increasing (sorted, no double count) and
            // exactly the plan's schedule for this channel.
            assert!(t.slots.windows(2).all(|w| w[0] < w[1]), "{t:?}");
            let sched: Vec<u32> = plan
                .rank(t.from as usize)
                .sends
                .iter()
                .find(|(to, _)| *to == t.to)
                .expect("traced message not in the plan")
                .1
                .iter()
                .map(|&(_, theirs)| theirs)
                .collect();
            assert_eq!(t.slots, sched);
        }
    }
}
