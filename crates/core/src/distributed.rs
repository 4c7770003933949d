//! Rank-parallel distributed assembly over the `alya-comm` runtime.
//!
//! Where [`crate::drivers::ParallelStrategy::Sharded`] keeps all shards in
//! one address space and replays the boundary in-process, the
//! [`DistributedDriver`] runs **one rank per shard as its own OS thread
//! with no shared mutable state**: each rank assembles its elements into a
//! compact local buffer (the *same* element loop,
//! `drivers::assemble_list`, packed, and `CompactSink` as the sharded
//! driver — per the paper, the per-rank kernel must not change when the
//! code goes distributed), folds each boundary (element, corner) pair
//! slot into its node's slot in slot order, then ships the contributions
//! of interface nodes it does not own to the owning rank as a sparse
//! sorted `(local_slot, value)` message ([`alya_comm::HaloMsg`]).
//!
//! ## The rank body
//!
//! Every rank runs the same straight-line code, in program order — the
//! plain MPI shape of `Isend` the boundary, compute the interior,
//! `Waitall`. Each step is one telemetry span on the rank's trace row,
//! inside the rank span `rank-overlap:<variant>` (`rank-serial:<variant>`
//! with overlap off):
//!
//! 1. `assemble-pre` — assemble the boundary elements (every element
//!    touching an interface node);
//! 2. `halo-post` — fold the pair slots and post one send per peer;
//! 3. `assemble-overlap` — assemble the interior elements;
//! 4. `halo-drain` — receive from each peer in ascending rank order
//!    against one [`DistributedDriver::stall_timeout`] deadline, folding
//!    each message as it arrives;
//! 5. `combine` — write back the owned nodes.
//!
//! Sends go out before the interior, and `alya-comm`'s channels are
//! unbounded queues, so a peer's message waits in the receiver's queue
//! while the receiver computes; that is the whole overlap. With overlap
//! **off**, `assemble-pre` covers every element (still boundary-first)
//! and `assemble-overlap` none. A message that never arrives surfaces as
//! a typed [`Stalled`] error naming the starved rank and the silent peer,
//! and the starved rank leaves a black-box dump (`alya_probe::capture`)
//! while its `halo-drain` span is still open.
//!
//! ## Why overlap cannot change a bit
//!
//! Interior elements never touch boundary slots (an element writing a
//! boundary node is by definition a boundary element), so the boundary
//! slot values are final once `assemble-pre` is done — posting the sends
//! before the interior ships exactly the bytes the back-to-back schedule
//! would. Both modes assemble in the same boundary-first element order,
//! and the drain folds incoming messages **in ascending sender rank
//! order** whatever order they arrived in. The assembled RHS is therefore
//! bitwise reproducible run-to-run *and* across overlap modes at any
//! fixed rank count — only across *different* rank counts does the
//! summation order legitimately differ (floating-point reassociation),
//! which the equivalence suite bounds at 1e-12 against the serial
//! reference.
//!
//! Communication volume is closed-form:
//! [`ShardSet::halo_send_slots`]` × `[`HALO_ENTRY_BYTES`] bytes per
//! assembly — the number the analyzer's comm contract checks the live
//! [`CommReport`] against.

use std::fmt;
use std::time::{Duration, Instant};

use alya_comm::HALO_ENTRY_BYTES;
use alya_comm::{CommReport, Communicator, HaloMsg, RankHandle, RecordMode};
use alya_fem::VectorField;
use alya_mesh::{ExchangePlan, Partition, Shard, ShardSet, TetMesh};
use alya_probe as probe;
use alya_telemetry as telemetry;

use crate::drivers::{assemble_list, with_nut, workspace, CompactSink, ExecMode};
use crate::input::AssemblyInput;
use crate::metrics;
use crate::variant::Variant;

/// One rank's owned output: `(global node, summed contribution)` pairs.
type OwnedValues = Vec<(u32, [f64; 3])>;

/// A deliberately withheld halo message, for stall self-tests: rank
/// `from` skips its send to rank `to`, so `to`'s drain can never complete
/// and must return a [`Stalled`] error.
#[derive(Debug, Clone, Copy)]
pub struct HaloFault {
    /// The rank that withholds a send.
    pub from: u32,
    /// The rank robbed of its message.
    pub to: u32,
}

/// A rank's halo drain gave up on a peer: the message never arrived
/// before the [`DistributedDriver::stall_timeout`] deadline, or every
/// other rank had already finished without sending it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stalled {
    /// The starved rank.
    pub rank: u32,
    /// The peer whose message never arrived.
    pub peer: u32,
    /// How long the rank had been draining when it gave up.
    pub waited: Duration,
}

impl fmt::Display for Stalled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} stalled in halo-drain after {:?}, waiting on rank {}",
            self.rank, self.waited, self.peer
        )
    }
}

impl std::error::Error for Stalled {}

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
    stall_timeout: Duration,
}

/// Folds each pair slot into its boundary node's slot, in slot order. Pair
/// slots are numbered in element order and start at zero, so a node's sum
/// is the one its slot would have accumulated had the elements scattered
/// into it directly.
fn fold_pairs(local: &mut [f64], shard: &Shard) {
    let nl = shard.num_slots();
    for (k, &b) in shard.pair_nodes().iter().enumerate() {
        let (b, p) = (b as usize, shard.num_local_nodes() + k);
        for d in 0..3 {
            local[d * nl + b] += local[d * nl + p];
        }
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
            stall_timeout: Duration::from_secs(30),
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

    /// Sets the halo-drain deadline (default 30 s): how long a rank may
    /// wait for its peers' messages before the assembly fails with
    /// [`Stalled`].
    pub fn stall_timeout(mut self, window: Duration) -> Self {
        self.stall_timeout = window;
        self
    }

    /// Whether compute/exchange overlap is enabled.
    pub fn overlap_enabled(&self) -> bool {
        self.overlap
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
    /// If a halo message never arrived — use
    /// [`DistributedDriver::try_assemble`] to handle that case.
    pub fn assemble(&self, variant: Variant, input: &AssemblyInput) -> (VectorField, CommReport) {
        match self.try_assemble(variant, input, None) {
            Ok(out) => out,
            Err(stall) => panic!("distributed assembly stalled: {stall}"),
        }
    }

    /// [`DistributedDriver::assemble`] that reports a stalled halo drain
    /// as an error instead of panicking, and can inject a [`HaloFault`]
    /// so tests can prove the stall is caught. Several starved ranks
    /// report the lowest one.
    pub fn try_assemble(
        &self,
        variant: Variant,
        input: &AssemblyInput,
        fault: Option<HaloFault>,
    ) -> Result<(VectorField, CommReport), Stalled> {
        with_nut(variant, input, |input| {
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
            let mut rhs = VectorField::zeros(input.mesh.num_nodes());
            for owned in run.results {
                for (g, v) in owned? {
                    rhs.add(g as usize, v);
                }
            }
            Ok((rhs, run.report))
        })
    }

    /// The rank body described in the module docs: five phases, in
    /// program order, each one span.
    fn rank_assemble(
        &self,
        variant: Variant,
        input: &AssemblyInput,
        r: u32,
        handle: &mut RankHandle<HaloMsg>,
        fault: Option<HaloFault>,
    ) -> Result<OwnedValues, Stalled> {
        let shard = self.shards.shard(r as usize);
        let plan = self.plan.rank(r as usize);
        let split = &self.splits[r as usize];
        let nl = shard.num_slots();
        // Overlap on: pre = boundary elements only, rest = interior.
        // Overlap off: pre = everything (same order), rest = empty.
        let cut = if self.overlap {
            split.num_boundary
        } else {
            split.order.len()
        };
        let (pre, rest) = split.order.split_at(cut);
        let body = if self.overlap {
            "rank-overlap"
        } else {
            "rank-serial"
        };
        let _rank_span = telemetry::span(format!("{body}:{}", variant.name()));

        let mut local = vec![0.0; 3 * nl];
        let mut ws = workspace(variant);
        // The sharded strategy's element loop over a run of this rank's
        // boundary-first order, into the compact buffer.
        let mut assemble = |positions: &[u32], local: &mut [f64]| {
            let mut sink = CompactSink::new(shard, input.mesh, local);
            let pos_at = |i| positions[i] as usize;
            assemble_list(
                variant,
                ExecMode::Packed,
                input,
                positions.len(),
                pos_at,
                &mut ws,
                &mut sink,
            );
        };

        {
            let _sp = telemetry::span("assemble-pre");
            assemble(pre, &mut local);
        }
        {
            // Pair slots are final here (interior elements never touch
            // them), so the folded node slots are the exact bytes the
            // back-to-back schedule would send.
            let _sp = telemetry::span("halo-post");
            fold_pairs(&mut local, shard);
            for (to, list) in &plan.sends {
                if matches!(fault, Some(f) if f.from == r && f.to == *to) {
                    continue;
                }
                let entries = list
                    .iter()
                    .map(|&(mine, theirs)| {
                        let m = mine as usize;
                        (theirs, [local[m], local[nl + m], local[2 * nl + m]])
                    })
                    .collect();
                handle.send(*to, HaloMsg { entries });
            }
        }
        {
            let _sp = telemetry::span("assemble-overlap");
            assemble(rest, &mut local);
        }
        {
            let _sp = telemetry::span("halo-drain");
            let start = Instant::now();
            let deadline = start + self.stall_timeout;
            for &peer in &plan.recv_peers {
                let left = deadline.saturating_duration_since(Instant::now());
                let Some(msg) = handle.recv_from_timeout(peer, left) else {
                    let stall = Stalled {
                        rank: r,
                        peer,
                        waited: start.elapsed(),
                    };
                    // Black-box the fleet while this rank's halo-drain
                    // span is still open: the dump names it, and the
                    // comm timeout just recorded names the silent peer.
                    probe::capture(&format!("halo stall: {stall}"));
                    return Err(stall);
                };
                fold_halo_msg(&mut local, nl, &msg);
            }
        }
        let _sp = telemetry::span("combine");
        // Owned writeback list: all interior nodes plus the boundary
        // nodes this rank owns.
        let ni = shard.num_interior();
        let mut owned = Vec::with_capacity(ni + plan.owned_boundary_slots.len());
        let slots = (0..ni as u32).chain(plan.owned_boundary_slots.iter().copied());
        for l in slots.map(|l| l as usize) {
            let g = shard.global_nodes()[l];
            owned.push((g, [local[l], local[nl + l], local[2 * nl + l]]));
        }
        metrics::tally_elements(variant, shard.elements().len() as u64);
        Ok(owned)
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
        let session = telemetry::session();
        let (ra, ca) = on.assemble(Variant::Rsp, &input);
        let (rb, cb) = off.assemble(Variant::Rsp, &input);
        let report = session.finish();
        assert_eq!(
            ra.max_abs_diff(&rb),
            0.0,
            "overlap changed the assembled bits"
        );
        assert_eq!(ca, cb);
        // Each rank's trace row carries one rank span per mode, and under
        // each the five phases in program order, one closing before the
        // next opens.
        for pid in 1..=4 {
            for body in ["rank-overlap:RSP", "rank-serial:RSP"] {
                let spans: Vec<_> = report.spans_named(body).filter(|s| s.pid == pid).collect();
                assert_eq!(spans.len(), 1, "rank {}: {body}", pid - 1);
                let mut phases: Vec<_> = report
                    .spans
                    .iter()
                    .filter(|s| s.parent == Some(spans[0].id))
                    .collect();
                phases.sort_by_key(|s| s.start_ns);
                let names: Vec<&str> = phases.iter().map(|s| s.name.as_str()).collect();
                assert_eq!(
                    names,
                    [
                        "assemble-pre",
                        "halo-post",
                        "assemble-overlap",
                        "halo-drain",
                        "combine"
                    ]
                );
                assert!(phases.windows(2).all(|w| w[0].end_ns <= w[1].start_ns));
            }
        }
    }

    #[test]
    fn a_withheld_halo_message_trips_the_watchdog() {
        const WINDOW: Duration = Duration::from_millis(150);
        let mesh = BoxMeshBuilder::new(3, 3, 2).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let driver = DistributedDriver::new(&mesh, 4).stall_timeout(WINDOW);
        // Pick a real channel so the withheld message is actually owed.
        let plan = driver.exchange_plan();
        let (from, to) = (0..4u32)
            .find_map(|r| plan.rank(r as usize).sends.first().map(|&(to, _)| (r, to)))
            .expect("a 4-rank decomposition always exchanges something");
        let t0 = Instant::now();
        let err = driver
            .try_assemble(Variant::Rsp, &input, Some(HaloFault { from, to }))
            .unwrap_err();
        let elapsed = t0.elapsed();
        assert_eq!((err.rank, err.peer), (to, from), "{err}");
        // The other ranks finish and hang up long before the window ends,
        // so the error comes back at once rather than after a sleep.
        assert!(err.waited <= elapsed);
        assert!(elapsed < WINDOW + Duration::from_secs(2), "{elapsed:?}");
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
