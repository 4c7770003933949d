//! Assembly drivers: serial, traced, and thread-parallel.
//!
//! The kernels compute one element; the drivers own iteration order,
//! workspace allocation, the ν_t precompute for the baseline variants, and
//! the scatter discipline. There is **one element loop**, `assemble_list`
//! — the paper's CPU shape, "a single vectorization loop and a scalar
//! scatter loop" — over **one kernel per variant**, [`kernels::element`]:
//! full packs at `L =` [`DEFAULT_LANES`] when the mode is
//! [`ExecMode::Packed`] (what every entry point without a mode parameter
//! runs), then the remainder at `L = 1` ([`ExecMode::Scalar`] is simply
//! "zero packs"). That kernel is the only element body a driver can run;
//! `alya-form`'s derived programs are an oracle it is checked against
//! (analyzer pass 10), not an alternative. Every driver is a list of
//! element ids plus a sink handed to that loop:
//!
//! * [`assemble_serial`] — ids `0..ne`, direct read-modify-write scatter;
//! * [`assemble_parallel`] with
//!   * [`ParallelStrategy::Partitioned`] — owner-computes over mesh
//!     partitions, each part into a pooled full-width buffer, then a dense
//!     reduction; a one-part partition runs straight into the output on the
//!     calling thread, bitwise [`assemble_serial`];
//!   * [`ParallelStrategy::Sharded`] — owner-computes over shards with
//!     **compact local-numbered** accumulation buffers (O(nodes-in-shard),
//!     not O(nn)), unsynchronized direct writeback of interior nodes, and
//!     a parallel **tree reduction** of only the shard-boundary
//!     contributions;
//!   * [`ParallelStrategy::Colored`] — races prevented by element
//!     coloring, every color class a fork-join with plain stores; only on
//!     request, [`ParallelStrategy::auto`] never picks it;
//!
//!   the `*_into` forms of both write a caller-owned RHS;
//! * [`crate::DistributedDriver`] — the sharded span, one rank per shard;
//! * [`assemble_traced`] / [`trace_element`] — the instrumented runs the
//!   performance models replay.

use std::sync::Mutex;

use alya_fem::VectorField;
use alya_machine::par;
use alya_machine::{NoRecord, Recorder, TraceRecorder};
use alya_mesh::{Coloring, ElementGraph, NodeToElements, Partition, Shard, ShardSet};
use alya_telemetry as telemetry;

use crate::gather::{self, DirectSink, ScatterSink};
use crate::input::AssemblyInput;
use crate::kernels;
use crate::layout::Layout;
use crate::metrics;
use crate::nut::compute_nu_t;
use crate::variant::Variant;
use crate::DEFAULT_LANES;

/// Elements per pack on the CPU path (the paper's optimal `VECTOR_DIM`).
pub const CPU_VECTOR_DIM: usize = 16;

/// Dispatches one element to the variant's kernel: [`kernels::element`] at
/// one lane.
#[allow(clippy::too_many_arguments)]
// alya:hot
pub fn assemble_element<R: Recorder, S: ScatterSink>(
    variant: Variant,
    input: &AssemblyInput,
    e: usize,
    lay: &Layout,
    ws_buf: &mut [f64],
    stride: usize,
    lane: usize,
    sink: &mut S,
    rec: &mut R,
) {
    kernels::element(variant, input, &[e], lay, ws_buf, stride, lane, sink, rec);
}

/// Attaches the ν_t pass output when the variant needs it, then calls `f`.
pub fn with_nut<T>(
    variant: Variant,
    input: &AssemblyInput,
    f: impl FnOnce(&AssemblyInput) -> T,
) -> T {
    if variant.needs_nut_pass() && input.nu_t.is_none() {
        let nut = compute_nu_t(input);
        let mut inp = *input;
        inp.nu_t = Some(&nut);
        f(&inp)
    } else {
        f(input)
    }
}

/// How many lanes the first phase of the element loop runs at.
///
/// Both modes execute the same kernel statements and produce
/// bitwise-identical RHS vectors under the same strategy: a lane computes
/// what a one-lane call computes, and lanes scatter in list order (pinned
/// by the equivalence suite). `Packed` is purely a throughput lever, and
/// the faster one on every committed `BENCH_drivers.json` row, so it is
/// what [`assemble_serial`] and [`assemble_parallel`] run; `Scalar` is
/// reached through the `*_with` / `*_into` forms (lane studies, the
/// scalar rows of the `drivers` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One element at a time: the whole list is "remainder".
    Scalar,
    /// Full packs of [`DEFAULT_LANES`] elements in lockstep, then the
    /// remainder one element at a time.
    Packed,
}

impl ExecMode {
    /// Stable short name (benchmark tables, reports).
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Scalar => "scalar",
            ExecMode::Packed => "packed",
        }
    }
}

/// Span name of one driver call: `assemble:<driver>[-packed]:<variant>`,
/// the suffix present exactly when packs run.
fn span_name(driver: &str, variant: Variant, mode: ExecMode) -> String {
    let suffix = match mode {
        ExecMode::Packed => "-packed",
        ExecMode::Scalar => "",
    };
    format!("assemble:{driver}{suffix}:{}", variant.name())
}

/// A [`ScatterSink`] the element loop can point at one entry of its id
/// list. The list holds *keys*; for every sink but the compact one a key
/// is the element id itself and the sink needs no aiming.
pub(crate) trait ListSink: ScatterSink {
    /// The element behind list key `key`.
    #[inline]
    fn element(&self, key: usize) -> usize {
        key
    }
    /// Called before the element behind `key` scatters.
    #[inline]
    fn aim(&mut self, _key: usize) {}
}

impl ListSink for DirectSink<'_> {}

/// One worker's kernel workspace: room for one pack of `variant`, which
/// the remainder reuses at stride 1 (a single slot for the
/// register-resident RSP/RSPR). Allocated per worker, never per element.
pub(crate) fn workspace(variant: Variant) -> Vec<f64> {
    vec![0.0; (variant.nvalues() * DEFAULT_LANES).max(1)]
}

/// Runs the `L` elements behind `keys` through `variant`'s kernel and
/// scatters them in key order: lane 0 inside the kernel, the rest from the
/// RHS it returns. Nothing is recorded here, so any `lay` will do.
// alya:hot
#[inline]
fn assemble_keys<const L: usize, S: ListSink>(
    variant: Variant,
    input: &AssemblyInput,
    keys: [usize; L],
    lay: &Layout,
    ws_buf: &mut [f64],
    sink: &mut S,
) {
    let mut elems = keys;
    for e in &mut elems {
        *e = sink.element(*e);
    }
    sink.aim(keys[0]);
    let rec = &mut NoRecord;
    let elrhs = kernels::element(variant, input, &elems, lay, ws_buf, L, 0, sink, rec);
    for l in 1..L {
        sink.aim(keys[l]);
        let nodes = input.mesh.element(elems[l]);
        gather::scatter_nth(sink, &nodes, &elrhs, l, lay, rec);
    }
}

/// **The** element loop, shared by every driver: the list `key_at(0..len)`
/// is consumed in full packs of [`DEFAULT_LANES`] when the mode is
/// [`ExecMode::Packed`], then one element at a time — the same kernel at
/// two lane counts — so a scalar-mode run is "zero packs" and a remainder
/// exists once per list, here. Elements scatter in list order in both
/// phases, which is what keeps the two modes bitwise equal under every
/// sink.
// alya:hot
pub(crate) fn assemble_list<S: ListSink>(
    variant: Variant,
    mode: ExecMode,
    input: &AssemblyInput,
    len: usize,
    key_at: impl Fn(usize) -> usize,
    ws_buf: &mut [f64],
    sink: &mut S,
) {
    const L: usize = DEFAULT_LANES;
    let lay = Layout::cpu(0, CPU_VECTOR_DIM, input.mesh.num_nodes());
    let mut done = 0;
    if mode == ExecMode::Packed {
        while done + L <= len {
            let keys: [usize; L] = std::array::from_fn(|l| key_at(done + l));
            assemble_keys(variant, input, keys, &lay, ws_buf, sink);
            done += L;
        }
    }
    for i in done..len {
        assemble_keys(variant, input, [key_at(i)], &lay, ws_buf, sink);
    }
}

/// Serial assembly over the whole mesh (the reference implementation).
pub fn assemble_serial(variant: Variant, input: &AssemblyInput) -> VectorField {
    assemble_serial_with(variant, input, ExecMode::Packed)
}

/// [`assemble_serial`] with the execution mode made explicit.
pub fn assemble_serial_with(
    variant: Variant,
    input: &AssemblyInput,
    mode: ExecMode,
) -> VectorField {
    let mut rhs = VectorField::zeros(input.mesh.num_nodes());
    assemble_serial_into(variant, input, mode, &mut rhs);
    rhs
}

/// [`assemble_serial_with`] into a caller-owned `rhs` (one entry per mesh
/// node), overwritten. Elements are tallied once per call — never per
/// pack or lane — so telemetry is invariant across modes.
pub fn assemble_serial_into(
    variant: Variant,
    input: &AssemblyInput,
    mode: ExecMode,
    rhs: &mut VectorField,
) {
    assert_eq!(rhs.num_nodes(), input.mesh.num_nodes(), "RHS size");
    let _sp = telemetry::span(span_name("serial", variant, mode));
    with_nut(variant, input, |input| {
        let ne = input.mesh.num_elements();
        metrics::tally_elements(variant, ne as u64);
        rhs.fill_zero();
        let mut sink = DirectSink { rhs };
        let mut ws_buf = workspace(variant);
        assemble_list(variant, mode, input, ne, |i| i, &mut ws_buf, &mut sink);
    });
}

/// Records the instrumented event stream of a single element.
///
/// `layout` decides the addressing convention (CPU pack vs GPU launch).
pub fn trace_element(
    variant: Variant,
    input: &AssemblyInput,
    e: usize,
    lay: &Layout,
) -> TraceRecorder {
    with_nut(variant, input, |input| {
        let nn = input.mesh.num_nodes();
        let mut rec = TraceRecorder::new();
        let nval = variant.nvalues().max(1);
        let mut ws_buf = vec![0.0; nval];
        let mut rhs = VectorField::zeros(nn);
        let mut sink = DirectSink { rhs: &mut rhs };
        assemble_element(
            variant,
            input,
            e,
            lay,
            &mut ws_buf,
            1,
            0,
            &mut sink,
            &mut rec,
        );
        rec
    })
}

/// Traces a whole CPU pack (`CPU_VECTOR_DIM` consecutive elements) — the
/// unit the CPU model replays.
pub fn trace_pack(variant: Variant, input: &AssemblyInput, pack: usize) -> TraceRecorder {
    with_nut(variant, input, |input| {
        let nn = input.mesh.num_nodes();
        let ne = input.mesh.num_elements();
        let mut rec = TraceRecorder::new();
        let nval = variant.nvalues().max(1);
        let mut ws_buf = vec![0.0; nval * CPU_VECTOR_DIM];
        let mut rhs = VectorField::zeros(nn);
        let mut sink = DirectSink { rhs: &mut rhs };
        for lane in 0..CPU_VECTOR_DIM {
            let e = (pack * CPU_VECTOR_DIM + lane) % ne;
            let lay = Layout::cpu(e, CPU_VECTOR_DIM, nn);
            assemble_element(
                variant,
                input,
                e,
                &lay,
                &mut ws_buf,
                CPU_VECTOR_DIM,
                lane,
                &mut sink,
                &mut rec,
            );
        }
        rec
    })
}

/// Convenience: serial assembly that also returns the whole-mesh trace of
/// element 0 (used by reports and tests).
pub fn assemble_traced(variant: Variant, input: &AssemblyInput) -> (VectorField, TraceRecorder) {
    let rhs = assemble_serial(variant, input);
    let lay = Layout::cpu(0, CPU_VECTOR_DIM, input.mesh.num_nodes());
    let rec = trace_element(variant, input, 0, &lay);
    (rhs, rec)
}

/// Scatter discipline for [`assemble_parallel`].
pub enum ParallelStrategy {
    /// Element coloring; every color class runs fully parallel.
    Colored(Coloring),
    /// Owner-computes over partitions with per-worker RHS buffers; one
    /// part is the serial loop on the calling thread.
    Partitioned(PartitionedState),
    /// Owner-computes over shards with compact local-numbered buffers,
    /// direct interior writeback, and a boundary tree reduction.
    Sharded(ShardSet),
}

/// Elements per worker below which [`ParallelStrategy::auto`] stays on
/// the calling thread: shard construction, the fork-join and boundary
/// merging only pay off once each shard amortizes them over enough
/// elements.
pub const SHARD_AUTO_MIN_ELEMS_PER_WORKER: usize = 2048;

/// Measured driver throughput parsed from a committed `BENCH_drivers.json`
/// report (the `drivers` benchmark's output).
///
/// Nothing reads it while assembling: analyzer pass 8 audits the packed
/// rows through it, and `tests/equivalence.rs` holds
/// [`ParallelStrategy::auto`]'s rule against the committed rows.
#[derive(Debug, Clone, Default)]
pub struct ThroughputDb {
    /// `(strategy, variant, threads, melem_per_s)` rows. Rows without a
    /// `"variant"` field (older reports) carry an empty variant name.
    rows: Vec<(String, String, usize, f64)>,
}

impl ThroughputDb {
    /// Parses the `results` rows of a `BENCH_drivers.json` document.
    /// Returns `None` when no well-formed row is found.
    pub fn parse(json: &str) -> Option<Self> {
        let mut rows = Vec::new();
        // Row-oriented scan over the writer's own stable format: each
        // result object carries "strategy", "threads" and "melem_per_s"
        // (and, since the packed path landed, "variant").
        for obj in json.split('{').skip(1) {
            let Some(strategy) = str_field(obj, "strategy") else {
                continue;
            };
            let variant = str_field(obj, "variant").unwrap_or_default();
            let (Some(threads), Some(melem)) =
                (num_field(obj, "threads"), num_field(obj, "melem_per_s"))
            else {
                continue;
            };
            if threads >= 1.0 && melem.is_finite() && melem > 0.0 {
                rows.push((strategy, variant, threads as usize, melem));
            }
        }
        if rows.is_empty() {
            None
        } else {
            Some(Self { rows })
        }
    }

    /// Loads and parses a report file. A missing or unparseable file
    /// returns `None` *and* pushes a warning onto the telemetry event
    /// channel.
    // alya:cold: an audit-time file read — the `.load(` calls in hot
    // counter code are `AtomicU64::load`, which the name-based call graph
    // cannot tell apart from this.
    pub fn load(path: &std::path::Path) -> Option<Self> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                telemetry::warn(format!("ThroughputDb: cannot read {}: {e}", path.display()));
                return None;
            }
        };
        let db = Self::parse(&text);
        if db.is_none() {
            telemetry::warn(format!(
                "ThroughputDb: no well-formed throughput rows in {}",
                path.display()
            ));
        }
        db
    }

    /// Measured Melem/s for one exact `(strategy, variant, threads)` cell
    /// (max over duplicate rows). `None` when the report has no such row.
    /// The SIMD-contract analyzer reads packed-vs-scalar pairs through
    /// this, so the match is exact — no nearest-thread fallback.
    pub fn melem_per_s(&self, strategy: &str, variant: &str, threads: usize) -> Option<f64> {
        self.rows
            .iter()
            .filter(|(s, v, t, _)| s == strategy && v == variant && *t == threads)
            .map(|&(_, _, _, m)| m)
            .max_by(f64::total_cmp)
    }
}

/// Value of a `"key": "string"` field within one scanned JSON object.
fn str_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = obj.find(&pat)? + pat.len();
    let end = obj[start..].find('"')?;
    Some(obj[start..start + end].to_string())
}

/// Value of a `"key": number` field within one scanned JSON object.
fn num_field(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

impl ParallelStrategy {
    /// Builds a coloring strategy for the mesh.
    pub fn colored(mesh: &alya_mesh::TetMesh) -> Self {
        let n2e = NodeToElements::build(mesh);
        let graph = ElementGraph::build(mesh, &n2e);
        ParallelStrategy::Colored(Coloring::greedy(&graph))
    }

    /// Builds a partitioned strategy with `parts` workers.
    pub fn partitioned(mesh: &alya_mesh::TetMesh, parts: usize) -> Self {
        ParallelStrategy::Partitioned(PartitionedState::new(Partition::rcb(mesh, parts)))
    }

    /// Builds a sharded strategy with `shards` compact-numbered shards.
    pub fn sharded(mesh: &alya_mesh::TetMesh, shards: usize) -> Self {
        let partition = Partition::rcb(mesh, shards);
        ParallelStrategy::Sharded(ShardSet::build(mesh, &partition))
    }

    /// Picks a strategy from the mesh size and the active worker count:
    /// one shard per worker once there is more than one worker and each
    /// gets at least [`SHARD_AUTO_MIN_ELEMS_PER_WORKER`] elements (the
    /// regime where the compact buffers and boundary-only reduction win);
    /// otherwise a one-part partition, which is the serial loop — the
    /// floor no parallel strategy may fall below. Never colored: no
    /// committed `BENCH_drivers.json` row has it ahead of either, and
    /// `tests/equivalence.rs` holds this rule against that table.
    pub fn auto(mesh: &alya_mesh::TetMesh) -> Self {
        Self::auto_with(mesh, par::num_threads())
    }

    /// [`Self::auto`] with the worker count made explicit.
    pub fn auto_with(mesh: &alya_mesh::TetMesh, workers: usize) -> Self {
        if workers > 1 && mesh.num_elements() >= workers * SHARD_AUTO_MIN_ELEMS_PER_WORKER {
            Self::sharded(mesh, workers)
        } else {
            Self::partitioned(mesh, 1)
        }
    }

    /// Stable short name (benchmark tables, reports).
    pub fn name(&self) -> &'static str {
        match self {
            ParallelStrategy::Colored(_) => "colored",
            ParallelStrategy::Partitioned(_) => "partitioned",
            ParallelStrategy::Sharded(_) => "sharded",
        }
    }
}

/// [`ParallelStrategy::Partitioned`]'s partition plus a pool of per-part
/// full-width RHS buffers, allocated on first use and reused across
/// assembly calls — re-allocating O(parts × nn) every call made the old
/// strategy an unfair baseline.
pub struct PartitionedState {
    /// The element partition workers iterate.
    pub partition: Partition,
    pool: Mutex<Vec<VectorField>>,
}

impl PartitionedState {
    /// Wraps a partition with an empty buffer pool.
    pub fn new(partition: Partition) -> Self {
        Self {
            partition,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Pops a pooled buffer (or allocates one), zeroed, over `nn` nodes.
    fn checkout(&self, nn: usize) -> VectorField {
        let recycled = self.pool.lock().expect("partitioned pool poisoned").pop();
        match recycled {
            Some(mut buf) if buf.num_nodes() == nn => {
                buf.fill_zero();
                buf
            }
            _ => VectorField::zeros(nn),
        }
    }

    /// Returns buffers to the pool for the next assembly call.
    fn restore(&self, buffers: Vec<VectorField>) {
        let mut pool = self.pool.lock().expect("partitioned pool poisoned");
        pool.extend(buffers);
    }

    #[cfg(test)]
    fn pooled(&self) -> usize {
        self.pool.lock().expect("partitioned pool poisoned").len()
    }
}

/// Shared mutable RHS for the colored strategy.
///
/// Safety contract: the driver processes one color class at a time, and the
/// coloring invariant — *no two elements of one color class share a node*
/// (checked statically by `Coloring::find_conflict`, the contract
/// `alya-analyze`'s race detector enforces, and re-validated here in debug
/// builds) — guarantees that the node/component slots written by
/// concurrently processed elements are disjoint. Plain non-atomic writes
/// therefore never alias across threads within a class, and the `for` loop
/// over classes is a synchronization point (the spawning thread joins all
/// workers) between classes.
struct SharedRhs {
    ptr: *mut f64,
    num_nodes: usize,
}
// SAFETY: unsafe[shared-rhs-send] — the raw pointer is only dereferenced
// through the scatter disciplines proven race-free by analyzer pass 2
// (races::check_coloring / races::check_shard_set); moving the handle to a
// worker thread transfers no aliasing it doesn't already audit.
unsafe impl Send for SharedRhs {}
// SAFETY: unsafe[shared-rhs-sync] — shared references are only used for
// writes to rows that analyzer pass 2 proves disjoint across concurrent
// workers (one color class / one shard's interior at a time).
unsafe impl Sync for SharedRhs {}

struct ColoredSink<'a> {
    shared: &'a SharedRhs,
}

// alya:hot
impl ScatterSink for ColoredSink<'_> {
    #[inline]
    fn add<R: Recorder>(&mut self, n: u32, d: usize, v: f64, _lay: &Layout, rec: &mut R) {
        rec.flop(1);
        debug_assert!(
            (n as usize) < self.shared.num_nodes,
            "scatter to node {n} outside the RHS ({} nodes)",
            self.shared.num_nodes
        );
        debug_assert!(d < 3, "scatter to component {d} of a 3-vector");
        // SAFETY: unsafe[colored-scatter] — `d * num_nodes + n` is in bounds
        // (asserted above against the allocation this pointer was taken
        // from), and the coloring invariant documented on `SharedRhs` —
        // proven per run by analyzer pass 2 (races::check_coloring) —
        // guarantees no other thread touches node `n` during this color
        // class.
        unsafe {
            let slot = self.shared.ptr.add(d * self.shared.num_nodes + n as usize);
            *slot += v;
        }
    }
}

impl ListSink for ColoredSink<'_> {}

/// A sink accumulating into a shard's **compact local-numbered** buffer —
/// the one sink whose list keys are not element ids but *positions in the
/// shard's element list*, so [`ParallelStrategy::Sharded`] hands the loop
/// `0..n` and [`crate::DistributedDriver`] a span of its boundary-first
/// order.
///
/// The kernels scatter by *global* node id; the sink resolves it to the
/// aimed element's corner through the global connectivity (≤ 4 compares)
/// and redirects the store through the precomputed local connectivity —
/// the inner loop never touches a global→local map.
pub(crate) struct CompactSink<'a> {
    shard: &'a Shard,
    mesh: &'a alya_mesh::TetMesh,
    /// The aimed element's corners in global numbering.
    gnodes: [u32; 4],
    /// The same corners in the shard's compact numbering.
    lnodes: [u32; 4],
    /// The shard's `3 × num_local_nodes` accumulation buffer.
    buf: &'a mut [f64],
}

impl<'a> CompactSink<'a> {
    /// A sink over `shard`'s compact buffer `buf`, aimed at nothing yet.
    pub(crate) fn new(shard: &'a Shard, mesh: &'a alya_mesh::TetMesh, buf: &'a mut [f64]) -> Self {
        Self {
            shard,
            mesh,
            gnodes: [0; 4],
            lnodes: [0; 4],
            buf,
        }
    }
}

// alya:hot
impl ScatterSink for CompactSink<'_> {
    #[inline]
    fn add<R: Recorder>(&mut self, n: u32, d: usize, v: f64, _lay: &Layout, rec: &mut R) {
        rec.flop(1);
        let a = self
            .gnodes
            .iter()
            .position(|&x| x == n)
            // alya:allow(hot-panic): a miss means the kernel scattered to a
            // node outside its own element — a contract breach pass 1 makes
            // impossible; the branch is never taken on valid kernels.
            .expect("scatter to a node outside the element");
        self.buf[d * self.shard.num_local_nodes() + self.lnodes[a] as usize] += v;
    }
}

// alya:hot
impl ListSink for CompactSink<'_> {
    #[inline]
    fn element(&self, pos: usize) -> usize {
        self.shard.elements()[pos] as usize
    }
    #[inline]
    fn aim(&mut self, pos: usize) {
        self.gnodes = self.mesh.element(self.element(pos));
        self.lnodes = self.shard.local_conn()[pos];
    }
}

/// Sparse boundary contributions of one shard (or a merge of several),
/// sorted ascending by global node id.
type BoundaryVec = Vec<(u32, [f64; 3])>;

/// Merges two sorted sparse contribution lists, summing equal node ids —
/// the combine step of the boundary tree reduction. O(|a| + |b|).
fn merge_boundary(a: BoundaryVec, b: BoundaryVec) -> BoundaryVec {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (a.into_iter().peekable(), b.into_iter().peekable());
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(&(ga, _)), Some(&(gb, _))) => {
                if ga < gb {
                    out.push(ia.next().expect("peeked"));
                } else if gb < ga {
                    out.push(ib.next().expect("peeked"));
                } else {
                    let (g, va) = ia.next().expect("peeked");
                    let (_, vb) = ib.next().expect("peeked");
                    out.push((g, [va[0] + vb[0], va[1] + vb[1], va[2] + vb[2]]));
                }
            }
            (Some(_), None) => out.push(ia.next().expect("peeked")),
            (None, Some(_)) => out.push(ib.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

/// Interior writeback (unsynchronized plain stores to this shard's
/// exclusive nodes) plus sparse sorted boundary extraction of one assembled
/// shard.
/// Interior nodes are exclusive to the shard (validated by the caller) and
/// the RHS started zeroed, so the store is exact and race-free; boundary
/// nodes go through the tree reduction as a sorted list (`global_nodes`'
/// boundary block is sorted ascending).
fn shard_finish(shard: &Shard, local: &[f64], shared: &SharedRhs, nn: usize) -> BoundaryVec {
    let nl = shard.num_local_nodes();
    let ni = shard.num_interior();
    for (l, &g) in shard.global_nodes()[..ni].iter().enumerate() {
        for d in 0..3 {
            // SAFETY: unsafe[sharded-writeback] — `g < nn` and `d < 3`
            // (shard maps validated by analyzer pass 2,
            // races::check_shard_set, and re-proven in debug builds by the
            // callers), and interior exclusivity means no other thread
            // writes node `g`.
            unsafe {
                *shared.ptr.add(d * nn + g as usize) = local[d * nl + l];
            }
        }
    }
    shard
        .boundary_global_nodes()
        .iter()
        .enumerate()
        .map(|(b, &g)| {
            let l = ni + b;
            (g, [local[l], local[nl + l], local[2 * nl + l]])
        })
        .collect()
}

/// Parallel assembly with the chosen scatter discipline. Produces the same
/// RHS as [`assemble_serial`] up to floating-point reassociation of the
/// nodal sums.
pub fn assemble_parallel(
    variant: Variant,
    input: &AssemblyInput,
    strategy: &ParallelStrategy,
) -> VectorField {
    assemble_parallel_with(variant, input, strategy, ExecMode::Packed)
}

/// [`assemble_parallel`] with the execution mode made explicit.
pub fn assemble_parallel_with(
    variant: Variant,
    input: &AssemblyInput,
    strategy: &ParallelStrategy,
    mode: ExecMode,
) -> VectorField {
    let mut rhs = VectorField::zeros(input.mesh.num_nodes());
    assemble_parallel_into(variant, input, strategy, mode, &mut rhs);
    rhs
}

/// [`assemble_parallel_with`] into a caller-owned `rhs` (one entry per
/// mesh node), overwritten. Each strategy is a choice of id lists and a
/// sink for the one element loop; its accumulation order does not depend
/// on the mode, so every strategy stays bitwise equal across modes.
pub fn assemble_parallel_into(
    variant: Variant,
    input: &AssemblyInput,
    strategy: &ParallelStrategy,
    mode: ExecMode,
    rhs: &mut VectorField,
) {
    let nn = input.mesh.num_nodes();
    // The colored and sharded arms store through a raw pointer at offsets
    // computed from `nn`.
    assert_eq!(rhs.num_nodes(), nn, "RHS size");
    let _sp = telemetry::span(span_name(strategy.name(), variant, mode));
    with_nut(variant, input, |input| {
        // Elements tallied once per call — never per pack or lane —
        // keeping the Table-I profile invariant across modes.
        metrics::tally_elements(variant, input.mesh.num_elements() as u64);
        rhs.fill_zero();
        match strategy {
            ParallelStrategy::Colored(coloring) => {
                // Debug builds statically re-prove the race-freedom
                // invariant the unsafe colored scatter relies on before any
                // parallel write happens.
                debug_assert!(
                    coloring.is_race_free(input.mesh),
                    "colored scatter invariant violated: {}",
                    coloring
                        .find_conflict(input.mesh)
                        .map(|c| c.to_string())
                        .unwrap_or_default()
                );
                let shared = SharedRhs {
                    ptr: rhs.as_mut_slice().as_mut_ptr(),
                    num_nodes: nn,
                };
                for class in coloring.classes() {
                    // Workers claim batches of one class; the lanes of a
                    // pack therefore belong to one color, so their scatters
                    // are node-disjoint by the same invariant the threads
                    // rely on.
                    par::par_for_each_init(
                        class,
                        || workspace(variant),
                        |ws, ids| {
                            let mut sink = ColoredSink { shared: &shared };
                            let key_at = |i| ids[i] as usize;
                            assemble_list(variant, mode, input, ids.len(), key_at, ws, &mut sink);
                        },
                    );
                }
            }
            ParallelStrategy::Partitioned(state) if state.partition.num_parts() == 1 => {
                // The serial floor: the whole mesh in id order straight
                // into the output — no fork, no pooled buffer, no
                // reduction pass.
                let ids = state.partition.part(0);
                let (mut sink, mut ws) = (DirectSink { rhs }, workspace(variant));
                let key_at = |i| ids[i] as usize;
                assemble_list(variant, mode, input, ids.len(), key_at, &mut ws, &mut sink);
            }
            ParallelStrategy::Partitioned(state) => {
                let partition = &state.partition;
                let partials: Vec<VectorField> = par::par_map_init(
                    partition.num_parts(),
                    || workspace(variant),
                    |ws_buf, p| {
                        let _part_sp = telemetry::span(format!("part:{p}"));
                        // Full-width per-part buffer from the reuse pool
                        // (allocated on the first call only).
                        let mut local = state.checkout(nn);
                        let mut sink = DirectSink { rhs: &mut local };
                        let ids = partition.part(p);
                        let key_at = |i| ids[i] as usize;
                        assemble_list(variant, mode, input, ids.len(), key_at, ws_buf, &mut sink);
                        local
                    },
                );
                let out = rhs.as_mut_slice();
                for part in &partials {
                    for (o, v) in out.iter_mut().zip(part.as_slice()) {
                        *o += v;
                    }
                }
                state.restore(partials);
            }
            ParallelStrategy::Sharded(shards) => {
                // Debug builds re-prove the compact-numbering invariants the
                // unsafe interior writeback rests on (element coverage,
                // map consistency, interior exclusivity).
                debug_assert!(
                    shards.validate(input.mesh).is_ok(),
                    "sharded scatter invariant violated: {}",
                    shards.validate(input.mesh).err().unwrap_or_default()
                );
                let shared = SharedRhs {
                    ptr: rhs.as_mut_slice().as_mut_ptr(),
                    num_nodes: nn,
                };
                let shared = &shared;
                let boundaries: Vec<BoundaryVec> = par::par_map_init(
                    shards.num_shards(),
                    || workspace(variant),
                    |ws_buf, s| {
                        let _shard_sp = telemetry::span(format!("shard:{s}"));
                        let shard = shards.shard(s);
                        // Compact accumulation: O(nodes-in-shard), not O(nn).
                        let mut local = vec![0.0; 3 * shard.num_local_nodes()];
                        let mut sink = CompactSink::new(shard, input.mesh, &mut local);
                        let len = shard.elements().len();
                        assemble_list(variant, mode, input, len, |i| i, ws_buf, &mut sink);
                        shard_finish(shard, &local, shared, nn)
                    },
                );
                if let Some(merged) = par::tree_reduce(boundaries, merge_boundary) {
                    for (g, v) in merged {
                        rhs.add(g as usize, v);
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use alya_fem::{ConstantProperties, ScalarField, VectorField};
    use alya_mesh::{BoxMeshBuilder, TetMesh};

    fn setup(mesh: &TetMesh) -> (VectorField, ScalarField, ScalarField) {
        let v = VectorField::from_fn(mesh, |p| {
            [
                p[2] * p[2] + 0.3 * p[1],
                0.5 * p[0] - p[2],
                0.2 * p[0] * p[1],
            ]
        });
        let p = ScalarField::from_fn(mesh, |q| q[0] - 0.5 * q[1] + q[2] * q[2]);
        let t = ScalarField::zeros(mesh.num_nodes());
        (v, p, t)
    }

    fn max_rel_diff(a: &VectorField, b: &VectorField) -> f64 {
        let scale = a.max_abs().max(1e-30);
        a.max_abs_diff(b) / scale
    }

    #[test]
    fn all_variants_produce_the_same_rhs() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).jitter(0.1).seed(11).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t)
            .props(ConstantProperties {
                density: 1.2,
                viscosity: 1e-3,
            })
            .body_force([0.1, 0.0, -0.5]);
        let reference = assemble_serial(Variant::Rsp, &input);
        assert!(reference.max_abs() > 0.0, "degenerate test input");
        for variant in Variant::ALL {
            let rhs = assemble_serial(variant, &input);
            let diff = max_rel_diff(&reference, &rhs);
            assert!(diff < 1e-11, "{variant} deviates by {diff}");
        }
    }

    #[test]
    fn packed_mode_is_bitwise_identical_to_scalar_everywhere() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).jitter(0.1).seed(11).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t)
            .props(ConstantProperties {
                density: 1.2,
                viscosity: 1e-3,
            })
            .body_force([0.1, 0.0, -0.5]);
        // Non-multiple-of-LANES element count exercises the remainder path.
        assert_ne!(mesh.num_elements() % DEFAULT_LANES, 0);
        for variant in Variant::ALL {
            let scalar = assemble_serial_with(variant, &input, ExecMode::Scalar);
            let lane = assemble_serial_with(variant, &input, ExecMode::Packed);
            assert_eq!(
                scalar.max_abs_diff(&lane),
                0.0,
                "{variant}: packed serial is not bitwise scalar"
            );
            for strategy in [
                ParallelStrategy::colored(&mesh),
                ParallelStrategy::partitioned(&mesh, 5),
                ParallelStrategy::sharded(&mesh, 5),
            ] {
                let s = assemble_parallel_with(variant, &input, &strategy, ExecMode::Scalar);
                let q = assemble_parallel_with(variant, &input, &strategy, ExecMode::Packed);
                assert_eq!(
                    s.max_abs_diff(&q),
                    0.0,
                    "{variant} × {}: packed is not bitwise scalar",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn element_loop_is_bitwise_equal_across_modes_on_ragged_id_lists() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).jitter(0.1).seed(11).build();
        let (v, p, t) = setup(&mesh);
        let nut = compute_nu_t(&AssemblyInput::new(&mesh, &v, &p, &t));
        let mut input = AssemblyInput::new(&mesh, &v, &p, &t).props(ConstantProperties::AIR);
        input.nu_t = Some(&nut);
        let run = |variant, mode, ids: &[usize]| {
            let mut rhs = VectorField::zeros(mesh.num_nodes());
            let mut sink = DirectSink { rhs: &mut rhs };
            let mut ws_buf = workspace(variant);
            let key_at = |i| ids[i];
            assemble_list(
                variant,
                mode,
                &input,
                ids.len(),
                key_at,
                &mut ws_buf,
                &mut sink,
            );
            rhs
        };
        // Shorter than one pack (all remainder), and two packs plus three.
        let ne = mesh.num_elements();
        let short: Vec<usize> = vec![5, 2, 9, 0, 7];
        let ragged: Vec<usize> = (0..2 * DEFAULT_LANES + 3)
            .map(|i| (i * 37 + 4) % ne)
            .collect();
        for ids in [&short, &ragged] {
            assert_ne!(ids.len() % DEFAULT_LANES, 0);
            for variant in Variant::ALL {
                let scalar = run(variant, ExecMode::Scalar, ids);
                assert!(scalar.max_abs() > 0.0, "{variant}: degenerate list");
                let packed = run(variant, ExecMode::Packed, ids);
                assert_eq!(scalar.max_abs_diff(&packed), 0.0, "{variant}");
            }
        }
    }

    #[test]
    fn parallel_strategies_match_serial() {
        let mesh = BoxMeshBuilder::new(3, 3, 2).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t).props(ConstantProperties::AIR);
        let serial = assemble_serial(Variant::Rsp, &input);
        for strategy in [
            ParallelStrategy::colored(&mesh),
            ParallelStrategy::partitioned(&mesh, 5),
            ParallelStrategy::sharded(&mesh, 5),
        ] {
            let par = assemble_parallel(Variant::Rsp, &input, &strategy);
            let diff = max_rel_diff(&serial, &par);
            assert!(diff < 1e-12, "{} deviation {diff}", strategy.name());
        }
    }

    #[test]
    fn sharded_matches_serial_across_variants_and_shard_counts() {
        let mesh = BoxMeshBuilder::new(4, 3, 3).jitter(0.1).seed(7).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t).props(ConstantProperties::AIR);
        for shards in [1, 2, 8] {
            let strategy = ParallelStrategy::sharded(&mesh, shards);
            for variant in Variant::ALL {
                let serial = assemble_serial(variant, &input);
                let par = assemble_parallel(variant, &input, &strategy);
                let diff = max_rel_diff(&serial, &par);
                assert!(diff < 1e-12, "{variant} × {shards} shards: {diff}");
            }
        }
    }

    #[test]
    fn partitioned_pool_reuses_buffers_across_calls() {
        let mesh = BoxMeshBuilder::new(3, 3, 2).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let strategy = ParallelStrategy::partitioned(&mesh, 4);
        let ParallelStrategy::Partitioned(state) = &strategy else {
            panic!("constructor built the wrong variant");
        };
        assert_eq!(state.pooled(), 0, "pool must start empty");
        let first = assemble_parallel(Variant::Rsp, &input, &strategy);
        let after_first = state.pooled();
        assert_eq!(after_first, state.partition.num_parts());
        let second = assemble_parallel(Variant::Rsp, &input, &strategy);
        // Buffers were recycled, not accumulated, and stale contents were
        // rezeroed (results identical).
        assert_eq!(state.pooled(), after_first);
        assert_eq!(first.max_abs_diff(&second), 0.0);
    }

    #[test]
    fn merge_boundary_sums_matching_nodes_and_keeps_order() {
        let a = vec![(1u32, [1.0, 0.0, 0.0]), (4, [0.5, 0.5, 0.5])];
        let b = vec![
            (0u32, [2.0, 0.0, 1.0]),
            (4, [0.5, -0.5, 1.5]),
            (9, [1.0; 3]),
        ];
        let m = merge_boundary(a, b);
        assert_eq!(
            m,
            vec![
                (0, [2.0, 0.0, 1.0]),
                (1, [1.0, 0.0, 0.0]),
                (4, [1.0, 0.0, 2.0]),
                (9, [1.0, 1.0, 1.0]),
            ]
        );
        assert_eq!(merge_boundary(vec![], vec![(3, [1.0; 3])]).len(), 1);
        assert!(merge_boundary(vec![], vec![]).is_empty());
    }

    #[test]
    fn auto_strategy_matches_serial_and_names_are_stable() {
        let mesh = BoxMeshBuilder::new(3, 3, 2).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let strategy = ParallelStrategy::auto(&mesh);
        // On a small mesh auto is the serial floor regardless of the
        // worker count (2048 elements/worker).
        assert_eq!(strategy.name(), "partitioned");
        let serial = assemble_serial(Variant::Rspr, &input);
        let par = assemble_parallel(Variant::Rspr, &input, &strategy);
        assert_eq!(serial.max_abs_diff(&par), 0.0);
        assert_eq!(ParallelStrategy::colored(&mesh).name(), "colored");
        assert_eq!(ParallelStrategy::sharded(&mesh, 2).name(), "sharded");
        assert_eq!(
            ParallelStrategy::partitioned(&mesh, 2).name(),
            "partitioned"
        );
    }

    #[test]
    fn throughput_db_parses_bench_rows_and_rejects_garbage() {
        let json = r#"{
          "bench": "drivers",
          "results": [
            {"strategy": "colored", "variant": "rsp", "threads": 4, "melem_per_s": 12.5},
            {"strategy": "colored", "variant": "rspr", "threads": 4, "melem_per_s": 14.0},
            {"strategy": "sharded", "variant": "rsp", "threads": 8, "melem_per_s": 21.0},
            {"strategy": "sharded", "variant": "rsp", "threads": 4, "melem_per_s": -3.0}
          ]
        }"#;
        let db = ThroughputDb::parse(json).expect("well-formed rows");
        // Exact-cell lookup (no nearest-thread fallback), as the
        // SIMD-contract analyzer uses it.
        assert_eq!(db.melem_per_s("colored", "rspr", 4), Some(14.0));
        assert_eq!(db.melem_per_s("colored", "rspr", 8), None);
        assert_eq!(db.melem_per_s("sharded", "rsp", 8), Some(21.0));
        // The negative-throughput row was rejected.
        assert_eq!(db.melem_per_s("sharded", "rsp", 4), None);
        assert!(ThroughputDb::parse("").is_none());
        assert!(ThroughputDb::parse("{\"results\": []}").is_none());
        assert!(ThroughputDb::parse("not json at all").is_none());
    }

    #[test]
    fn throughput_db_load_failures_warn_exactly_once() {
        // Both failure shapes in one test, run sequentially: the warning
        // channel is process-global, so parallel sibling tests could
        // interleave their own warnings — filtering each drain by this
        // test's unique path component keeps the exactly-one assertions
        // honest either way.

        // Missing file: load warns once (unreadable) and returns None.
        let missing = std::env::temp_dir().join("alya-db-missing-8f41/BENCH_drivers.json");
        let _ = telemetry::drain_warnings();
        assert!(ThroughputDb::load(&missing).is_none());
        let warns: Vec<String> = telemetry::drain_warnings()
            .into_iter()
            .filter(|w| w.contains("alya-db-missing-8f41"))
            .collect();
        assert_eq!(warns.len(), 1, "{warns:?}");
        assert!(warns[0].contains("cannot read"), "{warns:?}");

        // Unparseable file: load warns once (no well-formed rows) and
        // returns None all the same.
        let dir = std::env::temp_dir().join("alya-db-garbled-8f41");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_drivers.json");
        std::fs::write(&path, "{\"results\": [\"rows without fields\"]}").unwrap();
        assert!(ThroughputDb::load(&path).is_none());
        let warns: Vec<String> = telemetry::drain_warnings()
            .into_iter()
            .filter(|w| w.contains("alya-db-garbled-8f41"))
            .collect();
        assert_eq!(warns.len(), 1, "{warns:?}");
        assert!(
            warns[0].contains("no well-formed throughput rows"),
            "{warns:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_shards_large_meshes_floors_at_one_part_and_never_colours() {
        // Big enough that 4 workers clear the 2048 elements/worker floor.
        let large = BoxMeshBuilder::new(12, 12, 10).build();
        assert!(large.num_elements() >= 4 * SHARD_AUTO_MIN_ELEMS_PER_WORKER);
        let small = BoxMeshBuilder::new(3, 3, 2).build();
        let parts = |s: &ParallelStrategy| match s {
            ParallelStrategy::Partitioned(state) => state.partition.num_parts(),
            ParallelStrategy::Sharded(shards) => shards.num_shards(),
            ParallelStrategy::Colored(_) => panic!("auto coloured"),
        };
        for (mesh, workers, name, want_parts) in [
            (&large, 1, "partitioned", 1),
            (&small, 4, "partitioned", 1),
            (&large, 4, "sharded", 4),
            // One worker more than the 8640 elements feed at the floor.
            (&large, 5, "partitioned", 1),
        ] {
            let strategy = ParallelStrategy::auto_with(mesh, workers);
            assert_eq!(strategy.name(), name, "{workers} workers");
            assert_eq!(parts(&strategy), want_parts, "{workers} workers");
        }
    }

    #[test]
    fn one_part_partitioned_is_bitwise_serial_and_pools_nothing() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).jitter(0.1).seed(11).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t)
            .props(ConstantProperties::AIR)
            .body_force([0.1, 0.0, -0.5]);
        let strategy = ParallelStrategy::partitioned(&mesh, 1);
        let ParallelStrategy::Partitioned(state) = &strategy else {
            panic!("constructor built the wrong variant");
        };
        // A dirty, reused output buffer: `_into` overwrites.
        let mut out = VectorField::from_fn(&mesh, |p| [p[0], 7.0, -p[2]]);
        for variant in Variant::ALL {
            for mode in [ExecMode::Scalar, ExecMode::Packed] {
                let serial = assemble_serial_with(variant, &input, mode);
                assert!(serial.max_abs() > 0.0, "degenerate test input");
                assemble_parallel_into(variant, &input, &strategy, mode, &mut out);
                let bits =
                    |f: &VectorField| f.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&serial), "{variant} × {}", mode.name());
                assemble_serial_into(variant, &input, mode, &mut out);
                assert_eq!(bits(&out), bits(&serial), "{variant} × {}", mode.name());
            }
        }
        assert_eq!(state.pooled(), 0, "the serial floor checked out a buffer");
    }

    #[test]
    fn parallel_handles_all_variants() {
        let mesh = BoxMeshBuilder::new(2, 2, 2).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let serial = assemble_serial(Variant::B, &input);
        let strategy = ParallelStrategy::colored(&mesh);
        for variant in Variant::ALL {
            let par = assemble_parallel(variant, &input, &strategy);
            let diff = max_rel_diff(&serial, &par);
            assert!(diff < 1e-11, "{variant} deviates by {diff}");
        }
    }

    #[test]
    fn diffusion_of_linear_field_balances_interior() {
        // For u = (z, 0, 0), grad u constant: convection and diffusion
        // element contributions cancel at interior nodes of a symmetric
        // mesh... at minimum the assembly must be translation invariant:
        // adding a constant to u leaves the diffusion term unchanged and
        // alters convection consistently. Here: zero viscosity + zero
        // pressure + rigid-translation velocity => RHS is exactly zero
        // (gradients vanish).
        let mesh = BoxMeshBuilder::new(3, 3, 3).build();
        let v = VectorField::from_fn(&mesh, |_| [1.0, 2.0, -0.5]);
        let p = ScalarField::zeros(mesh.num_nodes());
        let t = ScalarField::zeros(mesh.num_nodes());
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        for variant in Variant::ALL {
            let rhs = assemble_serial(variant, &input);
            assert!(
                rhs.max_abs() < 1e-12,
                "{variant}: rigid translation produced forces ({})",
                rhs.max_abs()
            );
        }
    }

    #[test]
    fn pressure_gradient_pushes_flow() {
        // Constant pressure gradient in x: RHS x-component must sum ~0 over
        // the mesh (divergence theorem, zero BC contributions ignored), but
        // interior nodes should feel +grad terms; just check nonzero and
        // antisymmetric-ish: total sum equals boundary flux term.
        let mesh = BoxMeshBuilder::new(3, 3, 3).build();
        let v = VectorField::zeros(mesh.num_nodes());
        let p = ScalarField::from_fn(&mesh, |q| 10.0 * q[0]);
        let t = ScalarField::zeros(mesh.num_nodes());
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let rhs = assemble_serial(Variant::Rsp, &input);
        assert!(rhs.max_abs() > 1e-6);
        // For nodes away from the y-boundaries the weak pressure term has no
        // y-component (∮ p N_a n_y vanishes); on the y-faces it legitimately
        // does not.
        let y_max = mesh
            .coords()
            .iter()
            .enumerate()
            .filter(|(_, p)| p[1] > 1e-9 && p[1] < 1.0 - 1e-9)
            .fold(0.0f64, |m, (n, _)| m.max(rhs.get(n)[1].abs()));
        assert!(y_max < 1e-12, "interior y component {y_max}");
    }

    #[test]
    fn trace_pack_covers_vector_dim_elements() {
        let mesh = BoxMeshBuilder::new(2, 2, 2).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let one = trace_element(
            Variant::Rs,
            &input,
            0,
            &Layout::cpu(0, CPU_VECTOR_DIM, mesh.num_nodes()),
        );
        let pack = trace_pack(Variant::Rs, &input, 0);
        let c1 = one.counts();
        let cp = pack.counts();
        assert_eq!(cp.global_loads % c1.global_loads, 0);
        assert_eq!(cp.global_loads / c1.global_loads, CPU_VECTOR_DIM as u64);
    }

    #[test]
    fn traced_variants_have_expected_footprints() {
        let mesh = BoxMeshBuilder::new(2, 2, 2).build();
        let (v, p, t) = setup(&mesh);
        let input = AssemblyInput::new(&mesh, &v, &p, &t);
        let lay = Layout::cpu(0, CPU_VECTOR_DIM, mesh.num_nodes());
        let b = trace_element(Variant::B, &input, 0, &lay).counts();
        let pvt = trace_element(Variant::P, &input, 0, &lay).counts();
        let rs = trace_element(Variant::Rs, &input, 0, &lay).counts();
        let rsp = trace_element(Variant::Rsp, &input, 0, &lay).counts();

        // B: flood of global traffic, no local, no private values.
        assert!(b.global_ldst() > 2000, "B global {}", b.global_ldst());
        assert_eq!(b.local_ldst(), 0);
        assert_eq!(b.defs, 0);
        // P: the workspace moved to local memory wholesale.
        assert_eq!(pvt.global_ldst() + pvt.local_ldst(), b.global_ldst());
        assert!(pvt.local_ldst() > 2000);
        // RS: ~6x fewer ops than B (paper: 6x).
        assert!(
            rs.global_ldst() * 4 < b.global_ldst(),
            "RS {} vs B {}",
            rs.global_ldst(),
            b.global_ldst()
        );
        // RS: ~3-5x fewer flops than B.
        assert!(
            rs.flops() * 2 < b.flops(),
            "RS {} vs B {}",
            rs.flops(),
            b.flops()
        );
        // RSP: only gather/scatter remains as global traffic.
        assert!(rsp.global_ldst() < 100, "RSP {}", rsp.global_ldst());
        assert!(rsp.defs > 50, "RSP defs {}", rsp.defs);
        // Specialized flops match between array and scalar forms (modulo a
        // couple of bookkeeping stores the array form performs).
        let dflops = rs.flops() as i64 - rsp.flops() as i64;
        assert!(
            dflops.abs() < 16,
            "RS {} vs RSP {}",
            rs.flops(),
            rsp.flops()
        );
    }
}
