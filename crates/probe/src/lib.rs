//! # alya-probe — always-on flight recorder, black-box dumps, and the
//! # performance-regression sentinel
//!
//! The paper's method is measurement-driven: every optimization step is
//! attributed to measured traffic and runtime deltas. This crate keeps
//! that discipline alive *at runtime*:
//!
//! * **Flight recorder** — every thread that touches the instrumented
//!   runtime gets a bounded, pre-allocated ring buffer of recent events
//!   (span begin/end, comm post/block, counter deltas, warnings), stamped on the same monotonic clock
//!   `alya-telemetry` uses. Recording is allocation-free after the ring
//!   is built (`alya:hot`-clean: fixed-slot writes behind an
//!   uncontended per-thread mutex), and a relaxed atomic gate makes the
//!   disabled path two loads. Rings of finished threads are retained
//!   for post-mortems and recycled for new threads, so the registry is
//!   bounded by the peak live thread count.
//! * **Black-box dumps** ([`dump`]) — on a stalled halo drain (a lost
//!   message, or an injected `alya_core::HaloFault`), an analyzer
//!   violation, or an explicit [`capture`], the last events of every
//!   thread are stitched into a causally-ordered human-readable report —
//!   each thread's open spans say where it is stuck — plus a chrome-trace
//!   file reusing `telemetry::export`.
//! * **Regression sentinel** ([`sentinel`]) — compares live
//!   measurements (Melem/s, halo bytes, blocked-wait fractions) against
//!   committed `BENCH_*.json` baselines and closed-form predictions,
//!   emitting structured [`sentinel::Drift`]s outside a configurable
//!   band. Analyzer pass 11 proves the sentinel is silent on the
//!   committed baselines and fires on a seeded skew
//!   (`audit --seed-violation perf-regression`).
//!
//! The recorder is on by default ("always-on"): pass 11 and the
//! equivalence suite pin recorder-on bitwise identical to recorder-off,
//! so there is no accuracy reason to turn it off.
#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use alya_telemetry as telemetry;
use alya_telemetry::ProbeEvent;

pub mod dump;
pub mod sentinel;

pub use dump::{BlackBox, ThreadLog};
pub use sentinel::{Drift, Sentinel, ServiceSample};

/// Events each per-thread ring retains; at 64 bytes per slot a ring is
/// 128 KiB — deep enough to hold the full span history of a rank over
/// several assemblies, small enough to keep always-on.
pub const RING_CAP: usize = 2048;

/// Inline label bytes per event (longer names are truncated at a char
/// boundary) — labels are copied, never allocated, on the record path.
pub const TAG_LEN: usize = 40;

/// A fixed-size inline label: the flight recorder never allocates to
/// name an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag {
    len: u8,
    bytes: [u8; TAG_LEN],
}

impl Tag {
    /// Copies `s` (truncated to [`TAG_LEN`] at a char boundary).
    pub fn new(s: &str) -> Self {
        let raw = s.as_bytes();
        let mut n = raw.len().min(TAG_LEN);
        while n > 0 && !s.is_char_boundary(n) {
            n -= 1;
        }
        let mut bytes = [0u8; TAG_LEN];
        bytes[..n].copy_from_slice(&raw[..n]);
        Self {
            len: n as u8,
            bytes,
        }
    }

    /// The label text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize]).unwrap_or("<non-utf8>")
    }
}

/// What one recorded event describes. The `a`/`b` payload of
/// [`Event`] is kind-specific (documented per variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A telemetry RAII span opened (`a`/`b` unused).
    SpanBegin,
    /// A telemetry span completed; `a` = start ns on the shared clock.
    SpanEnd,
    /// A halo message posted; `a` = destination rank, `b` = bytes.
    CommPost,
    /// A blocking receive returned a message; `a` = peer rank,
    /// `b` = nanoseconds spent blocked.
    CommBlock,
    /// A blocking receive timed out with nothing from the peer;
    /// `a` = peer rank, `b` = nanoseconds spent blocked. A stalled rank
    /// leaves a trail of these naming the rank it is waiting on.
    CommTimeout,
    /// A counter delta; `a` = amount added (the tag names the counter).
    Counter,
    /// A warning crossed the telemetry warn channel (tag = truncated
    /// message; `a`/`b` unused).
    Warn,
    /// The sentinel flagged a baseline drift; `a` = measured as
    /// permille of expected (the tag names the drifted key).
    Drift,
}

/// One flight-recorder event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Timestamp, nanoseconds on [`telemetry::now_ns`]'s clock.
    pub at_ns: u64,
    /// Event class.
    pub kind: EventKind,
    /// Inline label (span/counter name, warn text, drift key).
    pub name: Tag,
    /// Kind-specific payload (see [`EventKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub b: u64,
}

/// One thread's bounded event history.
struct Ring {
    /// Fixed [`RING_CAP`] slots, written round-robin.
    events: Vec<Event>,
    /// Next slot to write.
    head: usize,
    /// Live slots (saturates at [`RING_CAP`]).
    used: usize,
    /// Events ever recorded; `seq - used` is how many the ring evicted.
    seq: u64,
    /// Thread label (thread name, or "rank N" once adopted).
    label: Tag,
    /// Rank this thread executes, when it told us via [`set_thread_rank`].
    rank: Option<u32>,
    /// The owning thread exited; the data stays for post-mortems until
    /// a new thread recycles the slot.
    retired: bool,
}

impl Ring {
    fn store_event(&mut self, ev: Event) {
        self.events[self.head] = ev;
        self.head = (self.head + 1) % RING_CAP;
        if self.used < RING_CAP {
            self.used += 1;
        }
        self.seq += 1;
    }

    /// Events oldest→newest (cold: dump path only).
    fn ordered(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.used);
        let start = (self.head + RING_CAP - self.used) % RING_CAP;
        for i in 0..self.used {
            out.push(self.events[(start + i) % RING_CAP]);
        }
        out
    }
}

struct ProbeRegistry {
    rings: Mutex<Vec<Arc<Mutex<Ring>>>>,
    enabled: AtomicBool,
    last_dump: Mutex<Option<String>>,
    /// Events recorded by retired rings that were since recycled (their
    /// `seq` restarts at zero) — keeps [`total_events`] monotonic.
    recycled: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// alya:cold: one-time process init behind the OnceLock — the hot record
// path only ever sees the already-initialized registry.
fn fresh_registry() -> ProbeRegistry {
    telemetry::install_probe_sink(forward_telemetry_event);
    ProbeRegistry {
        rings: Mutex::new(Vec::new()),
        enabled: AtomicBool::new(true),
        last_dump: Mutex::new(None),
        recycled: AtomicU64::new(0),
    }
}

fn preg() -> &'static ProbeRegistry {
    static REG: OnceLock<ProbeRegistry> = OnceLock::new();
    REG.get_or_init(fresh_registry)
}

/// Owns a thread's ring registration; marks it retired (data kept for
/// post-mortems, slot recyclable) when the thread exits.
struct RingHandle(Arc<Mutex<Ring>>);

impl Drop for RingHandle {
    fn drop(&mut self) {
        lock(&self.0).retired = true;
    }
}

thread_local! {
    static RING: RefCell<Option<RingHandle>> = const { RefCell::new(None) };
}

/// Builds (or recycles) a ring for the calling thread and registers it.
// alya:cold: runs once per thread lifetime; every later record call
// takes the TLS fast path.
fn init_ring() -> RingHandle {
    let label = std::thread::current()
        .name()
        .map(Tag::new)
        .unwrap_or_else(|| Tag::new("thread"));
    let rings = &mut *lock(&preg().rings);
    for arc in rings.iter() {
        let mut r = lock(arc);
        if r.retired {
            preg().recycled.fetch_add(r.seq, Ordering::Relaxed);
            r.retired = false;
            r.head = 0;
            r.used = 0;
            r.seq = 0;
            r.rank = None;
            r.label = label;
            return RingHandle(Arc::clone(arc));
        }
    }
    let blank = Event {
        at_ns: 0,
        kind: EventKind::Counter,
        name: Tag::new(""),
        a: 0,
        b: 0,
    };
    let arc = Arc::new(Mutex::new(Ring {
        events: vec![blank; RING_CAP],
        head: 0,
        used: 0,
        seq: 0,
        label,
        rank: None,
        retired: false,
    }));
    rings.push(Arc::clone(&arc));
    RingHandle(arc)
}

/// Installs the telemetry sink and materializes the registry. Recording
/// works without calling this (any record call initializes lazily), but
/// bench binaries call it first thing so even pre-session spans flow.
pub fn init() {
    let _ = preg();
}

/// Turns the flight recorder on or off process-wide. It is **on** by
/// default; pass 11 pins recorder-on bitwise identical to recorder-off,
/// so disabling is for overhead experiments, not correctness.
pub fn set_enabled(on: bool) {
    preg().enabled.store(on, Ordering::Relaxed);
}

/// Whether the flight recorder is currently recording.
pub fn enabled() -> bool {
    preg().enabled.load(Ordering::Relaxed)
}

/// Nanoseconds on the shared monotonic clock (same timeline as every
/// telemetry span, so dumps and traces align).
pub fn probe_clock_ns() -> u64 {
    telemetry::now_ns()
}

fn record_event(kind: EventKind, name: Tag, a: u64, b: u64) {
    if !preg().enabled.load(Ordering::Relaxed) {
        return;
    }
    let at_ns = telemetry::now_ns();
    RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.is_none() {
            *slot = Some(init_ring());
        }
        let Some(handle) = slot.as_ref() else {
            return;
        };
        lock(&handle.0).store_event(Event {
            at_ns,
            kind,
            name,
            a,
            b,
        });
    });
}

/// Tags the calling thread's ring as executing `rank` — the comm
/// runtime calls this so dumps can name ranks, not just threads.
pub fn set_thread_rank(rank: u32) {
    if !preg().enabled.load(Ordering::Relaxed) {
        return;
    }
    RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.is_none() {
            *slot = Some(init_ring());
        }
        let Some(handle) = slot.as_ref() else {
            return;
        };
        let mut r = lock(&handle.0);
        r.rank = Some(rank);
        let mut buf = [0u8; TAG_LEN];
        let prefix = b"rank ";
        buf[..prefix.len()].copy_from_slice(prefix);
        let digits = format_u32(rank, &mut buf[prefix.len()..]);
        r.label = Tag::new(std::str::from_utf8(&buf[..prefix.len() + digits]).unwrap_or("rank"));
    });
}

/// Writes `v` in decimal into `out`, returning the digit count (no
/// allocation; `out` must hold at least 10 bytes).
fn format_u32(v: u32, out: &mut [u8]) -> usize {
    let mut tmp = [0u8; 10];
    let mut n = 0;
    let mut v = v;
    loop {
        tmp[n] = b'0' + (v % 10) as u8;
        n += 1;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for i in 0..n {
        out[i] = tmp[n - 1 - i];
    }
    n
}

/// Records a halo message posted to `peer`.
pub fn note_comm_post(peer: u32, bytes: u64) {
    record_event(
        EventKind::CommPost,
        Tag::new("halo-send"),
        u64::from(peer),
        bytes,
    );
}

/// Records the outcome of a blocking receive: `got` says whether the
/// peer's message arrived before the wait gave up.
pub fn note_comm_block(peer: u32, waited_ns: u64, got: bool) {
    let kind = if got {
        EventKind::CommBlock
    } else {
        EventKind::CommTimeout
    };
    record_event(kind, Tag::new("halo-wait"), u64::from(peer), waited_ns);
}

/// Records a counter delta under `name`.
pub fn note_counter(name: &'static str, delta: u64) {
    if delta == 0 {
        return;
    }
    record_event(EventKind::Counter, Tag::new(name), delta, 0);
}

/// Records a warning (also reachable via the telemetry sink; this entry
/// point serves code that wants the recorder without the warn channel).
pub fn note_warn(message: &str) {
    record_event(EventKind::Warn, Tag::new(message), 0, 0);
}

/// Records a sentinel drift on `key`; `measured_permille` is the live
/// value as permille of the baseline (1000 = exactly on baseline).
pub fn note_drift(key: &str, measured_permille: u64) {
    record_event(EventKind::Drift, Tag::new(key), measured_permille, 0);
}

/// The telemetry sink: forwards every span begin/end (in a telemetry
/// session or not) and warning into the calling thread's ring.
fn forward_telemetry_event(ev: &ProbeEvent<'_>) {
    match ev {
        ProbeEvent::SpanBegin { name, .. } => {
            record_event(EventKind::SpanBegin, Tag::new(name), 0, 0);
        }
        ProbeEvent::SpanEnd { name, start_ns, .. } => {
            record_event(EventKind::SpanEnd, Tag::new(name), *start_ns, 0);
        }
        ProbeEvent::Warn { message, .. } => {
            record_event(EventKind::Warn, Tag::new(message), 0, 0);
        }
    }
}

/// Total events ever recorded across every ring (including evicted
/// ones) — the "did the recorder actually see the run" probe.
pub fn total_events() -> u64 {
    let live: u64 = lock(&preg().rings).iter().map(|r| lock(r).seq).sum();
    preg().recycled.load(Ordering::Relaxed) + live
}

/// Copies every ring (live and retired) into a [`BlackBox`] snapshot.
pub fn snapshot(reason: &str) -> BlackBox {
    let at_ns = telemetry::now_ns();
    let threads = lock(&preg().rings)
        .iter()
        .map(|arc| {
            let r = lock(arc);
            ThreadLog {
                label: r.label.as_str().to_string(),
                rank: r.rank,
                retired: r.retired,
                dropped: r.seq - r.used as u64,
                events: r.ordered(),
            }
        })
        .collect();
    BlackBox {
        reason: reason.to_string(),
        at_ns,
        warn_overflow: telemetry::warn_overflow(),
        threads,
    }
}

/// Takes a snapshot, renders it, stores it as the process's last dump
/// (readable via [`last_dump`]) and returns the rendered report. The
/// distributed driver calls this from a starved rank, inside its open
/// `halo-drain` span.
pub fn capture(reason: &str) -> String {
    let text = snapshot(reason).render();
    *lock(&preg().last_dump) = Some(text.clone());
    text
}

/// The most recent [`capture`] output, if any.
pub fn last_dump() -> Option<String> {
    lock(&preg().last_dump).clone()
}

/// Forgets the stored dump (tests isolate themselves with this).
pub fn clear_last_dump() {
    *lock(&preg().last_dump) = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test here that records: `set_enabled` is
    /// process-wide, so one test's disabled window must not land in the
    /// middle of another's recording.
    static RECORDING: Mutex<()> = Mutex::new(());

    fn recording() -> MutexGuard<'static, ()> {
        RECORDING.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn tags_truncate_at_char_boundaries() {
        let t = Tag::new("short");
        assert_eq!(t.as_str(), "short");
        let long = "x".repeat(TAG_LEN + 20);
        assert_eq!(Tag::new(&long).as_str().len(), TAG_LEN);
        // Multibyte char straddling the cut is dropped whole.
        let awkward = format!("{}é", "a".repeat(TAG_LEN - 1));
        let t = Tag::new(&awkward);
        assert_eq!(t.as_str(), &awkward[..TAG_LEN - 1]);
    }

    #[test]
    fn rings_are_bounded_and_count_evictions() {
        let _gate = recording();
        set_enabled(true);
        for i in 0..(RING_CAP + 7) {
            note_counter("overflow-test", i as u64 + 1);
        }
        let bb = snapshot("bound check");
        let me = bb
            .threads
            .iter()
            .find(|t| t.events.iter().any(|e| e.name.as_str() == "overflow-test"))
            .expect("this thread recorded");
        assert!(me.events.len() <= RING_CAP);
        assert!(me.dropped >= 7);
    }

    #[test]
    fn spans_reach_the_ring_outside_a_telemetry_session() {
        let _gate = recording();
        init();
        set_enabled(true);
        assert!(!telemetry::active());
        {
            let _sp = telemetry::span("probe-only-span");
        }
        let bb = snapshot("span check");
        let kinds: Vec<EventKind> = bb
            .threads
            .iter()
            .flat_map(|t| t.events.iter())
            .filter(|e| e.name.as_str() == "probe-only-span")
            .map(|e| e.kind)
            .collect();
        assert_eq!(kinds, [EventKind::SpanBegin, EventKind::SpanEnd]);
    }

    #[test]
    fn disabled_recorder_records_nothing_new() {
        let _gate = recording();
        note_counter("pre-disable", 1);
        let before = total_events();
        set_enabled(false);
        note_counter("while-disabled", 1);
        assert_eq!(total_events(), before);
        set_enabled(true);
        note_counter("post-enable", 1);
        assert!(total_events() > before);
    }

    #[test]
    fn warn_channel_overflow_is_counted_and_surfaced() {
        // This is the satellite fix's contract: the bounded warn channel
        // never loses messages silently. This test owns the process-wide
        // warn channel in this binary (no other test here warns).
        let _gate = recording();
        telemetry::drain_warnings();
        for i in 0..300 {
            telemetry::warn(format!("flood {i}"));
        }
        assert!(telemetry::warn_overflow() > 0);
        let drained = telemetry::drain_warnings();
        let last = drained.last().expect("drained something");
        assert!(
            last.contains("warning(s) dropped"),
            "synthetic overflow entry missing: {last:?}"
        );
        assert_eq!(telemetry::warn_overflow(), 0);
        // The flight recorder saw every message, including dropped ones.
        let bb = snapshot("warn overflow");
        let seen = bb
            .threads
            .iter()
            .flat_map(|t| t.events.iter())
            .filter(|e| e.kind == EventKind::Warn && e.name.as_str().starts_with("flood"))
            .count();
        assert!(seen > 256, "recorder saw {seen} of 300 warnings");
    }
}
