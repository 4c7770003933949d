//! # alya-telemetry — in-process spans and element counters
//!
//! Every subsystem (drivers, the distributed rank body, the solver, the
//! serve session pool) reports into one lock-light layer sharing **one
//! monotonic clock**: RAII spans, exported as a Chrome `trace_event`
//! JSON timeline ([`export::chrome_trace`]) that opens directly in
//! `chrome://tracing` / Perfetto, and one counter per kernel-variant
//! [`Scope`]: the elements assembled. That count is all the counters
//! record. The paper's Table I (loads, stores and flops per element,
//! measured with LIKWID) is a view derived from it: `alya-core`'s
//! `metrics::table_one` multiplies each variant's kernel contract by its
//! element count into a [`profile::TableOneProfile`]. Halo bytes and
//! blocked wait are recorded once, in `alya-comm`'s `CommReport`.
//!
//! ## Design rules
//!
//! * **Sessions are scoped.** [`scoped_session`] opens an independent
//!   measurement window with its own counter shards, span tracks and
//!   labels; any number coexist (the serve layer keys one per pooled
//!   session slot). [`session`] layers the original exclusive API on
//!   top — a process-wide lock around one scoped window — so single-run
//!   benchmarks keep exactly one attributable total.
//!   [`ScopedSession::rotate`] re-keys a window in place: contexts
//!   captured before the rotation become invisible, which lets a pooled
//!   slot hand its telemetry to the next tenant without leaking the
//!   previous tenant's counters.
//! * **Participation is inherited, not ambient.** A thread contributes
//!   only if it adopted a live session's [`Context`] — the session
//!   opener does so automatically, and `alya-machine::par` propagates the
//!   spawner's context into every worker/rank thread it creates. Threads
//!   of unrelated work running concurrently in the same process stay
//!   invisible, which is what makes exact counter assertions possible.
//! * **Counters are per-thread sharded and merge deterministically.**
//!   Each participating thread owns a shard of relaxed atomics it alone
//!   writes; the merge is a commutative `u64` sum, so totals do not
//!   depend on thread interleaving. Spans are sorted by
//!   `(pid, tid, start, id)` at merge.
//! * **Telemetry never touches numerics.** No instrumentation site adds,
//!   reorders or reassociates a floating-point operation, so enabling a
//!   session cannot perturb bitwise reproducibility — the equivalence
//!   suite asserts identical RHS bits with telemetry on and off.
//!
//! No external dependencies, no unsafe code.

#![forbid(unsafe_code)]

pub mod export;
pub mod profile;

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Counter attribution bucket: one scope per kernel variant.
/// `alya-core` owns the variant → scope mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Scope(u8);

/// Number of scopes: one per kernel variant.
pub const NUM_SCOPES: usize = 5;

impl Scope {
    /// The scope of kernel-variant `i` (presentation order).
    ///
    /// # Panics
    /// If `i >= NUM_SCOPES`.
    pub fn variant(i: usize) -> Scope {
        assert!(i < NUM_SCOPES, "variant scope {i} out of range");
        Scope(i as u8)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One thread's private accumulation: the elements it assembled per
/// scope (relaxed atomics it alone writes — the atomicity is only for the
/// merge read at session end) and the spans it completed.
struct Shard {
    elements: [AtomicU64; NUM_SCOPES],
    spans: Mutex<Vec<SpanRecord>>,
}

impl Shard {
    fn new() -> Self {
        Self {
            elements: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// One scoped measurement window's mutable state. Shared (`Arc`) between
/// the registry's session map, the owning [`ScopedSession`] guard, and
/// the TLS of every thread that adopted the window's context.
struct SessionState {
    /// The window's current key in the registry map. [`ScopedSession::
    /// rotate`] swaps this; a thread whose adopted key no longer matches
    /// is stale and stops contributing.
    id: AtomicU64,
    enabled: AtomicBool,
    shards: Mutex<Vec<Arc<Shard>>>,
    labels: Mutex<BTreeMap<(u32, u32), String>>,
    next_tid: AtomicU32,
}

impl SessionState {
    fn live(&self, adopted_id: u64) -> bool {
        self.enabled.load(Ordering::Acquire) && self.id.load(Ordering::Relaxed) == adopted_id
    }
}

/// The process-wide registry behind the free functions of this crate.
struct Registry {
    /// Monotonic session-id source; ids are never reused, so a stale
    /// [`Context`] can never alias a later window (no ABA).
    next_session: AtomicU64,
    /// Live scoped windows, keyed by current session id.
    sessions: Mutex<BTreeMap<u64, Arc<SessionState>>>,
    warnings: Mutex<Vec<String>>,
    /// Warnings the bounded channel had to drop since the last drain —
    /// the channel never fails *silently* anymore.
    warn_dropped: AtomicU64,
    next_span_id: AtomicU64,
    session_lock: Mutex<()>,
    clock: Instant,
}

/// Warning-channel capacity; beyond it new warnings are dropped (the
/// channel reports rare config problems, not a stream).
const MAX_WARNINGS: usize = 256;

impl Registry {
    /// Fresh empty registry. Runs exactly once per process, inside
    /// [`reg`]'s `OnceLock` initializer.
    // alya:cold: one-time process init behind the OnceLock — hot counter
    // adds only ever hit the already-initialized fast path.
    fn new() -> Self {
        Self {
            next_session: AtomicU64::new(0),
            sessions: Mutex::new(BTreeMap::new()),
            warnings: Mutex::new(Vec::new()),
            warn_dropped: AtomicU64::new(0),
            next_span_id: AtomicU64::new(0),
            session_lock: Mutex::new(()),
            clock: Instant::now(),
        }
    }
}

fn reg() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(Registry::new)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Tls {
    /// Session id this thread adopted (0 = none). Compared against the
    /// session's live id so a rotation invalidates stale adoptions.
    session_id: u64,
    /// The adopted window's shared state.
    session: Option<Arc<SessionState>>,
    /// This thread's shard, valid for `session_id`.
    shard: Option<Arc<Shard>>,
    /// Chrome-trace process id ("rank" in distributed runs).
    pid: u32,
    /// Chrome-trace thread id within `pid`.
    tid: u32,
    /// Open RAII span ids, innermost last.
    stack: Vec<u64>,
}

thread_local! {
    static TLS: RefCell<Tls> = const {
        RefCell::new(Tls {
            session_id: 0,
            session: None,
            shard: None,
            pid: 0,
            tid: 0,
            stack: Vec::new(),
        })
    };
}

/// A thread's participation token: capture with [`current_context`]
/// before spawning, hand to [`adopt_context`] inside the new thread.
/// `alya-machine::par` does this for every thread it creates.
#[derive(Debug, Clone, Copy)]
pub struct Context {
    epoch: u64,
    pid: u32,
}

/// The calling thread's participation token (cheap; callable anywhere).
pub fn current_context() -> Context {
    TLS.with(|t| {
        let t = t.borrow();
        Context {
            epoch: t.session_id,
            pid: t.pid,
        }
    })
}

/// Adopts `ctx` on the calling thread. If `ctx` names a live scoped
/// session, the thread gets its own counter shard and a fresh trace `tid`
/// under the spawner's `pid`; otherwise the thread stays invisible.
/// Re-adopting the session a thread already participates in only updates
/// the `pid` — the shard and `tid` are kept, so a pooled worker that is
/// handed the same session's context every batch allocates nothing.
pub fn adopt_context(ctx: Context) {
    let r = reg();
    let state = if ctx.epoch == 0 {
        None
    } else {
        lock(&r.sessions).get(&ctx.epoch).cloned()
    };
    let live = state
        .as_ref()
        .is_some_and(|s| s.enabled.load(Ordering::Acquire));
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.clear();
        t.pid = ctx.pid;
        if live && t.session_id == ctx.epoch && t.shard.is_some() {
            return;
        }
        t.session_id = ctx.epoch;
        if live {
            if let Some(s) = state {
                t.tid = s.next_tid.fetch_add(1, Ordering::Relaxed);
                let shard = Arc::new(Shard::new());
                lock(&s.shards).push(Arc::clone(&shard));
                t.shard = Some(shard);
                t.session = Some(s);
                return;
            }
        }
        t.shard = None;
        t.session = None;
    });
}

/// Whether the calling thread is inside a live session's measurement
/// window. All recording free functions are no-ops when this is false.
pub fn active() -> bool {
    TLS.with(|t| {
        let t = t.borrow();
        t.session.as_ref().is_some_and(|s| s.live(t.session_id))
    })
}

fn with_shard(f: impl FnOnce(&Shard, &mut Tls)) {
    if !active() {
        return;
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        let Some(shard) = t.shard.take() else {
            return;
        };
        f(&shard, &mut t);
        t.shard = Some(shard);
    });
}

/// Adds `elements` assembled elements to `scope` in the calling thread's
/// shard. No-op outside a live session.
pub fn add(scope: Scope, elements: u64) {
    if elements == 0 {
        return;
    }
    with_shard(|s, _| {
        s.elements[scope.index()].fetch_add(elements, Ordering::Relaxed);
    });
}

/// Nanoseconds on the process-wide monotonic registry clock. This is the
/// timeline every [`SpanRecord`] is stamped on; the probe flight recorder
/// uses the same clock so black-box dumps and chrome traces align.
pub fn now_ns() -> u64 {
    reg().clock.elapsed().as_nanos() as u64
}

/// A live telemetry event forwarded to the installed probe sink — the
/// hook `alya-probe`'s flight recorder taps to see every span and
/// warning without this crate depending on it.
#[derive(Debug)]
pub enum ProbeEvent<'a> {
    /// A RAII span opened on the calling thread.
    SpanBegin {
        /// Span display name.
        name: &'a str,
        /// Open timestamp on the registry clock.
        at_ns: u64,
    },
    /// A span completed (its RAII guard dropped).
    SpanEnd {
        /// Span display name.
        name: &'a str,
        /// Start timestamp on the registry clock.
        start_ns: u64,
        /// End timestamp on the registry clock.
        end_ns: u64,
    },
    /// A message pushed onto the warn channel (forwarded even when the
    /// bounded channel itself had to drop it).
    Warn {
        /// The warning text.
        message: &'a str,
        /// Emission timestamp on the registry clock.
        at_ns: u64,
    },
}

/// A probe sink: a plain `fn` so forwarding is one indirect call and the
/// recorder stays allocation-free on the hot side.
pub type ProbeSink = fn(&ProbeEvent<'_>);

static PROBE_SINK: OnceLock<ProbeSink> = OnceLock::new();

/// Installs the process-wide probe sink (first caller wins; later calls
/// are no-ops). `alya-probe` installs its flight recorder here.
pub fn install_probe_sink(sink: ProbeSink) {
    let _ = PROBE_SINK.set(sink);
}

#[inline]
fn probe_forward(ev: &ProbeEvent<'_>) {
    if let Some(fwd) = PROBE_SINK.get() {
        fwd(ev);
    }
}

/// One completed span on the shared timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the process.
    pub id: u64,
    /// Enclosing RAII span, if any (same thread).
    pub parent: Option<u64>,
    /// Display name.
    pub name: String,
    /// Trace process id (rank).
    pub pid: u32,
    /// Trace thread id within `pid`.
    pub tid: u32,
    /// Start, nanoseconds on the registry clock.
    pub start_ns: u64,
    /// End, nanoseconds on the registry clock.
    pub end_ns: u64,
}

/// An open RAII span: records itself (with its parent link) when dropped.
/// Outside a live session it records nothing here, but an installed probe
/// sink still sees it open and close — the flight recorder's view of
/// where each thread is.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    inner: Option<OpenSpan>,
}

struct OpenSpan {
    /// 0 for a span opened outside a session (probe sink only).
    id: u64,
    parent: Option<u64>,
    name: Cow<'static, str>,
    start_ns: u64,
}

/// Opens a parent-linked RAII span on the calling thread's track.
pub fn span(name: impl Into<Cow<'static, str>>) -> Span {
    let mut id = 0;
    let mut parent = None;
    if active() {
        id = reg().next_span_id.fetch_add(1, Ordering::Relaxed) + 1;
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            parent = t.stack.last().copied();
            t.stack.push(id);
        });
    } else if PROBE_SINK.get().is_none() {
        return Span { inner: None };
    }
    let name = name.into();
    let start_ns = now_ns();
    probe_forward(&ProbeEvent::SpanBegin {
        name: &name,
        at_ns: start_ns,
    });
    Span {
        inner: Some(OpenSpan {
            id,
            parent,
            name,
            start_ns,
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.inner.take() else {
            return;
        };
        let end_ns = now_ns();
        probe_forward(&ProbeEvent::SpanEnd {
            name: &open.name,
            start_ns: open.start_ns,
            end_ns,
        });
        if open.id == 0 {
            return;
        }
        with_shard(|shard, t| {
            // RAII discipline makes this a pop of our own id; a guard
            // outliving its parent is removed positionally.
            if let Some(pos) = t.stack.iter().rposition(|&x| x == open.id) {
                t.stack.remove(pos);
            }
            lock(&shard.spans).push(SpanRecord {
                id: open.id,
                parent: open.parent,
                name: open.name.clone().into_owned(),
                pid: t.pid,
                tid: t.tid,
                start_ns: open.start_ns,
                end_ns,
            });
        });
    }
}

/// Restores the thread's previous `pid` when dropped (see
/// [`set_thread_track`]).
#[must_use = "dropping restores the previous track immediately"]
pub struct TrackGuard {
    prev_pid: u32,
}

impl Drop for TrackGuard {
    fn drop(&mut self) {
        TLS.with(|t| t.borrow_mut().pid = self.prev_pid);
    }
}

/// Moves the calling thread onto trace process `pid` (labelled in the
/// chrome export) until the guard drops — the comm runtime does this so
/// every rank becomes its own process row. No-op outside a session.
pub fn set_thread_track(pid: u32, label: &str) -> TrackGuard {
    let prev_pid = TLS.with(|t| t.borrow().pid);
    if !active() {
        return TrackGuard { prev_pid };
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        t.pid = pid;
        if let Some(s) = t.session.as_ref() {
            lock(&s.labels)
                .entry((pid, 0))
                .or_insert_with(|| label.to_string());
        }
    });
    TrackGuard { prev_pid }
}

/// Pushes a warning onto the registry's event channel (bounded; works
/// with or without a live session) — the "never fail silently" path for
/// configuration problems like an unreadable bench baseline. When the
/// channel is full the message is dropped but **counted**: the next
/// [`drain_warnings`] surfaces the loss, and [`warn_overflow`] exposes
/// the live count (the probe flight recorder puts it in every dump).
pub fn warn(message: impl Into<String>) {
    let message = message.into();
    probe_forward(&ProbeEvent::Warn {
        message: &message,
        at_ns: now_ns(),
    });
    let r = reg();
    let mut w = lock(&r.warnings);
    if w.len() < MAX_WARNINGS {
        // alya:allow(hot-alloc): bounded (MAX_WARNINGS) config-problem
        // channel; warnings fire on rare setup errors, never per element.
        w.push(message);
    } else {
        r.warn_dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// Warnings dropped by the bounded channel since the last
/// [`drain_warnings`] — zero in a healthy run.
pub fn warn_overflow() -> u64 {
    reg().warn_dropped.load(Ordering::Relaxed)
}

/// Takes every pending warning (oldest first). [`Session::finish`] also
/// drains the channel into its report. If the bounded channel dropped
/// messages since the last drain, a final synthetic entry reports how
/// many were lost, and the overflow counter resets.
pub fn drain_warnings() -> Vec<String> {
    let r = reg();
    let mut out = std::mem::take(&mut *lock(&r.warnings));
    let dropped = r.warn_dropped.swap(0, Ordering::Relaxed);
    if dropped > 0 {
        out.push(format!(
            "telemetry: {dropped} warning(s) dropped (bounded channel full at {MAX_WARNINGS})"
        ));
    }
    out
}

/// Everything one session collected, deterministically merged.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Elements assembled, per scope (see accessors).
    elements: [u64; NUM_SCOPES],
    /// Completed spans, sorted by `(pid, tid, start_ns, id)`.
    pub spans: Vec<SpanRecord>,
    /// Warnings drained from the event channel.
    pub warnings: Vec<String>,
    /// `(pid, tid) → label` rows registered during the session, sorted.
    pub track_labels: Vec<((u32, u32), String)>,
}

impl TelemetryReport {
    /// Elements assembled in `scope` (0 on an empty report).
    pub fn elements(&self, scope: Scope) -> u64 {
        self.elements[scope.index()]
    }

    /// Elements assembled across all scopes.
    pub fn total_elements(&self) -> u64 {
        self.elements.iter().sum()
    }

    /// Overwrites a scope's element count — the analyzer's
    /// seeded-violation self-tests use this to forge a skew and prove the
    /// cross-check catches it.
    pub fn set_elements(&mut self, scope: Scope, value: u64) {
        self.elements[scope.index()] = value;
    }

    /// Merges `other` into `self`: element counts by commutative sum,
    /// spans and warnings appended (spans re-sorted into merge order),
    /// labels united first-writer-wins. The serve layer uses this to
    /// accumulate one report per tenant from many per-session windows.
    pub fn absorb(&mut self, other: &TelemetryReport) {
        for (e, o) in self.elements.iter_mut().zip(other.elements) {
            *e += o;
        }
        self.spans.extend(other.spans.iter().cloned());
        self.spans.sort_by_key(|s| (s.pid, s.tid, s.start_ns, s.id));
        self.warnings.extend(other.warnings.iter().cloned());
        for (key, label) in &other.track_labels {
            if !self.track_labels.iter().any(|(k, _)| k == key) {
                self.track_labels.push((*key, label.clone()));
            }
        }
        self.track_labels.sort_by_key(|a| a.0);
    }

    /// Spans named `name`, in merged order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The chrome `trace_event` export of this report (see
    /// [`export::chrome_trace`]).
    pub fn chrome_trace(&self) -> String {
        export::chrome_trace(self)
    }
}

/// Disables `state`, merges every shard into a report and clears the
/// window's accumulation (shards, labels, tid counter) so the same state
/// can be reused for another window. Counters merge by commutative sum;
/// spans sort by `(pid, tid, start_ns, id)` — both independent of thread
/// timing. The caller re-enables if the window continues.
fn collect_state(state: &SessionState) -> TelemetryReport {
    let mut elements = [0u64; NUM_SCOPES];
    let mut spans = Vec::new();
    {
        let mut shards = lock(&state.shards);
        for shard in shards.iter() {
            for (e, c) in elements.iter_mut().zip(&shard.elements) {
                *e += c.load(Ordering::Acquire);
            }
            spans.append(&mut lock(&shard.spans));
        }
        shards.clear();
    }
    spans.sort_by_key(|s| (s.pid, s.tid, s.start_ns, s.id));
    let track_labels = std::mem::take(&mut *lock(&state.labels))
        .into_iter()
        .collect();
    state.next_tid.store(16, Ordering::Relaxed);
    TelemetryReport {
        elements,
        spans,
        warnings: Vec::new(),
        track_labels,
    }
}

/// An independent scoped measurement window. Collection is enabled while
/// this guard lives; any number of scoped sessions coexist. Dropping the
/// guard without [`ScopedSession::finish`] discards the window's data.
#[must_use = "finish() the session to obtain its report"]
pub struct ScopedSession {
    state: Option<Arc<SessionState>>,
}

/// Opens a new scoped measurement window and returns its guard. The
/// calling thread does **not** adopt it automatically — call
/// [`ScopedSession::adopt`] or hand [`ScopedSession::context`] to the
/// threads that should contribute.
pub fn scoped_session() -> ScopedSession {
    let r = reg();
    let id = r.next_session.fetch_add(1, Ordering::Relaxed) + 1;
    let state = Arc::new(SessionState {
        id: AtomicU64::new(id),
        enabled: AtomicBool::new(true),
        shards: Mutex::new(Vec::new()),
        labels: Mutex::new(BTreeMap::new()),
        next_tid: AtomicU32::new(16),
    });
    lock(&r.sessions).insert(id, Arc::clone(&state));
    ScopedSession { state: Some(state) }
}

impl ScopedSession {
    /// The window's current session id (changes on [`Self::rotate`]).
    pub fn id(&self) -> u64 {
        self.state
            .as_ref()
            .map_or(0, |s| s.id.load(Ordering::Relaxed))
    }

    /// A participation token for this window with trace process id 0.
    pub fn context(&self) -> Context {
        self.context_on(0)
    }

    /// A participation token for this window on trace process `pid` —
    /// the serve layer keys `pid` per tenant so traces stay separable.
    pub fn context_on(&self, pid: u32) -> Context {
        Context {
            epoch: self.id(),
            pid,
        }
    }

    /// Adopts this window on the calling thread (trace process id 0).
    pub fn adopt(&self) {
        adopt_context(self.context());
    }

    /// Labels trace row `(pid, tid)` in this window's export.
    pub fn set_label(&self, pid: u32, tid: u32, label: &str) {
        if let Some(s) = self.state.as_ref() {
            lock(&s.labels)
                .entry((pid, tid))
                .or_insert_with(|| label.to_string());
        }
    }

    /// Takes everything collected so far and re-keys the window under a
    /// fresh session id, leaving it enabled: contexts captured before
    /// the rotation (and every thread that adopted them) become
    /// invisible, while the guard itself keeps working. This is the
    /// pooled-slot handoff primitive — rotate at release, and the next
    /// tenant admitted into the slot cannot observe or be observed by
    /// the previous one.
    pub fn rotate(&mut self) -> TelemetryReport {
        let r = reg();
        let Some(state) = self.state.as_ref() else {
            return TelemetryReport::default();
        };
        state.enabled.store(false, Ordering::Release);
        let old = state.id.load(Ordering::Relaxed);
        let new = r.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut sessions = lock(&r.sessions);
            sessions.remove(&old);
            sessions.insert(new, Arc::clone(state));
        }
        state.id.store(new, Ordering::Relaxed);
        let report = collect_state(state);
        state.enabled.store(true, Ordering::Release);
        report
    }

    /// Disables collection, unregisters the window and merges every
    /// shard into its report.
    pub fn finish(mut self) -> TelemetryReport {
        self.close()
    }

    fn close(&mut self) -> TelemetryReport {
        let Some(state) = self.state.take() else {
            return TelemetryReport::default();
        };
        state.enabled.store(false, Ordering::Release);
        let id = state.id.load(Ordering::Relaxed);
        lock(&reg().sessions).remove(&id);
        let report = collect_state(&state);
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            if t.session.as_ref().is_some_and(|s| Arc::ptr_eq(s, &state)) {
                t.session_id = 0;
                t.session = None;
                t.shard = None;
                t.stack.clear();
            }
        });
        report
    }
}

impl Drop for ScopedSession {
    fn drop(&mut self) {
        if self.state.is_some() {
            let _ = self.close();
        }
    }
}

/// An exclusive measurement window. Collection is enabled while this
/// guard lives; [`Session::finish`] produces the merged report.
#[must_use = "finish() the session to obtain its report"]
pub struct Session {
    scoped: ScopedSession,
    _guard: MutexGuard<'static, ()>,
}

/// Opens the process's exclusive telemetry session: locks out other
/// exclusive sessions, clears the warning channel, opens a scoped window
/// and adopts it on the calling thread (pid 0, tid 0). Scoped sessions
/// opened via [`scoped_session`] are unaffected by the lock — exclusivity
/// is a property single-run benchmarks opt into, not a global constraint.
pub fn session() -> Session {
    let r = reg();
    let guard = lock(&r.session_lock);
    lock(&r.warnings).clear();
    let scoped = scoped_session();
    scoped.adopt();
    TLS.with(|t| t.borrow_mut().tid = 0);
    scoped.set_label(0, 0, "main");
    Session {
        scoped,
        _guard: guard,
    }
}

impl Session {
    /// Disables collection and merges every shard into a report:
    /// counters by commutative sum, spans sorted by
    /// `(pid, tid, start_ns, id)` — both independent of thread timing.
    /// Also drains the global warning channel into the report.
    pub fn finish(self) -> TelemetryReport {
        let Session { scoped, _guard } = self;
        let mut report = scoped.finish();
        report.warnings = drain_warnings();
        report
        // The session lock releases here, after collection is disabled.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_require_an_adopted_context_and_merge_across_threads() {
        let s = session();
        add(Scope::variant(0), 5);
        let ctx = current_context();
        std::thread::scope(|scope| {
            // A participating thread contributes ...
            scope.spawn(|| {
                adopt_context(ctx);
                add(Scope::variant(0), 7);
            });
            // ... a non-participating one does not.
            scope.spawn(|| {
                add(Scope::variant(0), 1000);
                assert!(!active());
            });
        });
        let report = s.finish();
        assert_eq!(report.elements(Scope::variant(0)), 12);
        assert_eq!(report.total_elements(), 12);
        // Outside the window everything is inert.
        add(Scope::variant(0), 9);
        assert!(!active());
    }

    #[test]
    fn scoped_counters_do_not_bleed_between_scopes() {
        let s = session();
        add(Scope::variant(0), 3);
        add(Scope::variant(4), 4);
        let report = s.finish();
        assert_eq!(report.elements(Scope::variant(0)), 3);
        assert_eq!(report.elements(Scope::variant(4)), 4);
        assert_eq!(report.elements(Scope::variant(2)), 0);
        assert_eq!(report.total_elements(), 7);
    }

    #[test]
    fn raii_spans_nest_under_their_parent() {
        let s = session();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
        }
        let report = s.finish();
        let outer = report.spans_named("outer").next().expect("outer recorded");
        let inner = report.spans_named("inner").next().expect("inner recorded");
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn track_guard_restores_the_previous_pid() {
        let s = session();
        {
            let _t = set_thread_track(7, "rank 7");
            let _sp = span("on rank 7");
        }
        {
            let _sp = span("back on main");
        }
        let report = s.finish();
        assert_eq!(report.spans_named("on rank 7").next().unwrap().pid, 7);
        assert_eq!(report.spans_named("back on main").next().unwrap().pid, 0);
        assert!(report
            .track_labels
            .iter()
            .any(|((p, t), l)| *p == 7 && *t == 0 && l == "rank 7"));
    }

    #[test]
    fn warnings_flow_with_or_without_a_session() {
        // Standalone channel (no session).
        drain_warnings();
        warn("standalone problem");
        let w = drain_warnings();
        assert_eq!(w, vec!["standalone problem".to_string()]);
        // Session drains the channel into its report.
        let s = session();
        warn("in-session problem");
        let report = s.finish();
        assert_eq!(report.warnings, vec!["in-session problem".to_string()]);
        assert!(drain_warnings().is_empty());
    }

    #[test]
    fn sessions_reset_state_between_windows() {
        let s1 = session();
        add(Scope::variant(2), 42);
        let _sp = span("first window");
        drop(_sp);
        let r1 = s1.finish();
        assert_eq!(r1.elements(Scope::variant(2)), 42);
        let s2 = session();
        let r2 = s2.finish();
        assert_eq!(r2.elements(Scope::variant(2)), 0);
        assert!(r2.spans.is_empty());
    }

    #[test]
    fn concurrent_scoped_sessions_stay_isolated() {
        let a = scoped_session();
        let b = scoped_session();
        let (ca, cb) = (a.context(), b.context_on(3));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                adopt_context(ca);
                add(Scope::variant(0), 11);
                let _sp = span("window-a");
            });
            scope.spawn(|| {
                adopt_context(cb);
                add(Scope::variant(0), 22);
                let _sp = span("window-b");
            });
        });
        let ra = a.finish();
        let rb = b.finish();
        assert_eq!(ra.elements(Scope::variant(0)), 11);
        assert_eq!(rb.elements(Scope::variant(0)), 22);
        assert_eq!(ra.spans_named("window-a").count(), 1);
        assert_eq!(ra.spans_named("window-b").count(), 0);
        assert_eq!(rb.spans_named("window-b").next().unwrap().pid, 3);
    }

    #[test]
    fn rotate_splits_windows_and_invalidates_stale_contexts() {
        let mut s = scoped_session();
        let stale = s.context();
        s.adopt();
        add(Scope::variant(1), 5);
        let first = s.rotate();
        assert_eq!(first.elements(Scope::variant(1)), 5);
        // The pre-rotation context no longer lands anywhere ...
        adopt_context(stale);
        assert!(!active());
        add(Scope::variant(1), 100);
        // ... but the rotated window keeps collecting under its new id.
        s.adopt();
        add(Scope::variant(1), 7);
        let second = s.finish();
        assert_eq!(second.elements(Scope::variant(1)), 7);
    }

    #[test]
    fn readoption_of_the_same_window_keeps_the_shard() {
        let s = scoped_session();
        s.adopt();
        add(Scope::variant(3), 1);
        let tid_before = TLS.with(|t| t.borrow().tid);
        // Re-adopting the same session (as a pooled worker does every
        // batch) must keep the shard and tid, only moving the pid.
        adopt_context(s.context_on(9));
        let tid_after = TLS.with(|t| t.borrow().tid);
        assert_eq!(tid_before, tid_after);
        add(Scope::variant(3), 2);
        let r = s.finish();
        assert_eq!(r.elements(Scope::variant(3)), 3);
    }

    #[test]
    fn absorb_merges_reports_commutatively() {
        let a = scoped_session();
        a.adopt();
        add(Scope::variant(1), 10);
        let _sp = span("in-a");
        drop(_sp);
        let ra = a.finish();
        let b = scoped_session();
        b.adopt();
        add(Scope::variant(1), 4);
        add(Scope::variant(0), 6);
        let rb = b.finish();
        let mut merged = TelemetryReport::default();
        merged.absorb(&ra);
        merged.absorb(&rb);
        assert_eq!(merged.elements(Scope::variant(1)), 14);
        assert_eq!(merged.elements(Scope::variant(0)), 6);
        assert_eq!(merged.spans_named("in-a").count(), 1);
        // An untouched default report reads as all-zero, not a panic.
        assert_eq!(TelemetryReport::default().total_elements(), 0);
    }
}
