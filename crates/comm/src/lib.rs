//! # alya-comm — rank-parallel message passing for distributed assembly
//!
//! The paper's exascale execution model is one MPI rank per device: each
//! rank assembles its own elements and interface-node contributions are
//! exchanged and summed across ranks. This crate supplies that structure
//! without MPI: a [`Communicator`] runs every rank as its **own OS
//! thread** with typed nonblocking channels between ranks and **no shared
//! mutable state** — a rank can influence another rank only by sending it
//! a message, exactly the discipline an `MPI_Isend`/`Irecv` port needs.
//!
//! * [`RankHandle`] — one rank's endpoint: nonblocking [`RankHandle::send`],
//!   blocking [`RankHandle::recv_from`] / nonblocking
//!   [`RankHandle::try_recv_from`] with out-of-order stashing;
//! * [`NeighborExchange`] — the halo pattern: post all sends, then collect
//!   exactly one message from each expected peer, returned **sorted by
//!   sender rank** so downstream combines are deterministic;
//! * [`CommReport`] — per-channel message/byte accounting (sender *and*
//!   receiver side, so a dropped message is visible as a sent/received
//!   mismatch) plus, under [`RecordMode::Full`], a per-message trace of
//!   the slot ids exchanged — the evidence `alya-analyze`'s comm contract
//!   checks against the closed-form halo-volume prediction.
//!
//! Rank threads are spawned through
//! [`alya_machine::par::dedicated_threads`], which deliberately ignores
//! the process-wide worker cap: ranks model distributed processes whose
//! count is fixed by the decomposition, and capping them would deadlock a
//! blocking exchange.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use alya_machine::par;
use alya_probe as probe;
use alya_telemetry as telemetry;
use alya_telemetry::{Metric, Scope};

/// How long a blocking receive waits before declaring the exchange dead
/// (a missing message means a protocol bug, not a slow peer — every send
/// in this runtime is nonblocking and precedes the receive phase).
const RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// A message type the runtime can account for.
///
/// `payload_bytes` is the modelled wire size (what an MPI port would put
/// on the network, not Rust's in-memory size); `trace_slots` exposes the
/// slot ids a message carries so [`RecordMode::Full`] traces can prove
/// the no-double-count invariant.
pub trait Payload: Send {
    /// Modelled wire size of this message in bytes.
    fn payload_bytes(&self) -> usize;
    /// Slot ids carried by the message (empty when not applicable).
    fn trace_slots(&self) -> Vec<u32> {
        Vec::new()
    }
}

/// Wire bytes per halo entry: a `u32` destination slot + 3 × `f64`
/// contribution components.
pub const HALO_ENTRY_BYTES: usize = 4 + 3 * 8;

/// The halo-exchange message: sparse boundary contributions addressed by
/// the **receiver's** compact local slot, sorted ascending by slot.
#[derive(Debug, Clone, PartialEq)]
pub struct HaloMsg {
    /// `(receiver local slot, contribution)` pairs, sorted by slot.
    pub entries: Vec<(u32, [f64; 3])>,
}

impl Payload for HaloMsg {
    fn payload_bytes(&self) -> usize {
        self.entries.len() * HALO_ENTRY_BYTES
    }
    fn trace_slots(&self) -> Vec<u32> {
        self.entries.iter().map(|&(s, _)| s).collect()
    }
}

/// What the runtime records about the traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordMode {
    /// Per-channel message/byte counters only (production).
    Counters,
    /// Counters plus a per-message slot trace (audits and tests).
    Full,
}

/// One direction of one rank pair, with both endpoints' view of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Sending rank.
    pub from: u32,
    /// Receiving rank.
    pub to: u32,
    /// Messages posted by the sender.
    pub sent_messages: u64,
    /// Payload bytes posted by the sender.
    pub sent_bytes: u64,
    /// Largest single message posted, in bytes.
    pub max_message_bytes: u64,
    /// Messages actually delivered to (received by) the receiver.
    pub received_messages: u64,
    /// Payload bytes delivered.
    pub received_bytes: u64,
}

/// One recorded message ([`RecordMode::Full`] only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageTrace {
    /// Sending rank.
    pub from: u32,
    /// Receiving rank.
    pub to: u32,
    /// Payload bytes.
    pub bytes: u64,
    /// Slot ids the message carried (see [`Payload::trace_slots`]).
    pub slots: Vec<u32>,
}

/// Aggregated communication accounting of one [`Communicator::run`].
///
/// Equality deliberately ignores [`CommReport::blocked_wait_s`]: the
/// message accounting is deterministic (and tests assert reports equal
/// across runs), while blocked time is a wall-clock measurement that
/// legitimately varies run to run.
#[derive(Debug, Clone, Default)]
pub struct CommReport {
    /// Ranks that participated.
    pub num_ranks: usize,
    /// Per-channel statistics, sorted by `(from, to)`; only channels that
    /// saw traffic appear.
    pub channels: Vec<ChannelStats>,
    /// Sends a rank addressed to itself — always a protocol bug (a rank's
    /// own contributions never travel through a channel); the message is
    /// *not* delivered, only recorded.
    pub self_send_attempts: u64,
    /// Sends addressed to a nonexistent or already-finished rank; the
    /// message is not delivered, only recorded.
    pub dropped_sends: u64,
    /// Per-message traces in rank-major posting order
    /// ([`RecordMode::Full`] only).
    pub traces: Vec<MessageTrace>,
    /// Total wall-clock seconds ranks spent blocked inside
    /// [`RankHandle::recv_from`] / [`RankHandle::recv_from_timeout`],
    /// summed over ranks. This is the exchange dead time that
    /// compute/exchange overlap exists to shrink; excluded from `==`.
    pub blocked_wait_s: f64,
}

impl PartialEq for CommReport {
    fn eq(&self, other: &Self) -> bool {
        // Everything but `blocked_wait_s`, which is timing, not protocol.
        self.num_ranks == other.num_ranks
            && self.channels == other.channels
            && self.self_send_attempts == other.self_send_attempts
            && self.dropped_sends == other.dropped_sends
            && self.traces == other.traces
    }
}

impl CommReport {
    /// Total messages posted across all channels.
    pub fn total_messages(&self) -> u64 {
        self.channels.iter().map(|c| c.sent_messages).sum()
    }

    /// Total payload bytes posted across all channels.
    pub fn total_bytes(&self) -> u64 {
        self.channels.iter().map(|c| c.sent_bytes).sum()
    }

    /// Largest single message across all channels, in bytes.
    pub fn max_message_bytes(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.max_message_bytes)
            .max()
            .unwrap_or(0)
    }

    /// The stats of one directed channel, if it saw traffic.
    pub fn channel(&self, from: u32, to: u32) -> Option<&ChannelStats> {
        self.channels.iter().find(|c| c.from == from && c.to == to)
    }

    /// Whether every posted message was delivered and no send was
    /// misaddressed — the basic liveness invariant of an exchange.
    pub fn all_delivered(&self) -> bool {
        self.self_send_attempts == 0
            && self.dropped_sends == 0
            && self
                .channels
                .iter()
                .all(|c| c.sent_messages == c.received_messages && c.sent_bytes == c.received_bytes)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Counter {
    messages: u64,
    bytes: u64,
    max_message_bytes: u64,
}

impl Counter {
    fn record(&mut self, bytes: u64) {
        self.messages += 1;
        self.bytes += bytes;
        self.max_message_bytes = self.max_message_bytes.max(bytes);
    }
}

/// Accounting a rank accumulates privately; merged after the join.
#[derive(Debug)]
struct RankStats {
    sent: Vec<Counter>,
    received: Vec<Counter>,
    self_send_attempts: u64,
    dropped_sends: u64,
    traces: Vec<MessageTrace>,
    blocked: Duration,
}

/// One rank's endpoint of the communicator.
///
/// A handle is moved into its rank's thread and never shared: all state
/// here is rank-private, and the only inter-rank interaction is the
/// message channels themselves.
pub struct RankHandle<M: Payload> {
    rank: u32,
    /// `senders[to]` — `None` at the own index (no self channel exists).
    senders: Vec<Option<Sender<(u32, M)>>>,
    rx: Receiver<(u32, M)>,
    /// Messages received while waiting for a different peer.
    stash: Vec<(u32, M)>,
    mode: RecordMode,
    stats: RankStats,
}

impl<M: Payload> RankHandle<M> {
    /// This rank's id.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn num_ranks(&self) -> usize {
        self.senders.len()
    }

    /// Posts `msg` to rank `to` without blocking. Returns whether the
    /// message entered a live channel; self-sends and sends to
    /// nonexistent/finished ranks are recorded (visible in the
    /// [`CommReport`]) but not delivered.
    pub fn send(&mut self, to: u32, msg: M) -> bool {
        if to == self.rank || to as usize >= self.senders.len() {
            if to == self.rank {
                self.stats.self_send_attempts += 1;
            } else {
                self.stats.dropped_sends += 1;
            }
            return false;
        }
        let bytes = msg.payload_bytes() as u64;
        if self.mode == RecordMode::Full {
            self.stats.traces.push(MessageTrace {
                from: self.rank,
                to,
                bytes,
                slots: msg.trace_slots(),
            });
        }
        let Some(tx) = &self.senders[to as usize] else {
            self.stats.dropped_sends += 1;
            return false;
        };
        match tx.send((self.rank, msg)) {
            Ok(()) => {
                self.stats.sent[to as usize].record(bytes);
                telemetry::add(Scope::GLOBAL, Metric::HaloBytesPosted, bytes);
                probe::note_comm_post(to, bytes);
                true
            }
            Err(_) => {
                self.stats.dropped_sends += 1;
                false
            }
        }
    }

    fn account_received(&mut self, from: u32, msg: &M) {
        let bytes = msg.payload_bytes() as u64;
        self.stats.received[from as usize].record(bytes);
        telemetry::add(Scope::GLOBAL, Metric::HaloBytesReceived, bytes);
    }

    /// The single blocked-wait accounting point: every nanosecond a rank
    /// spends blocked in a receive flows through here, updating both the
    /// per-rank [`CommReport`] field and the session's
    /// [`Metric::BlockedWaitNs`] counter from one measurement — so the
    /// two views can never double-count or disagree.
    fn note_blocked(&mut self, waited: Duration) {
        self.stats.blocked += waited;
        telemetry::add(
            Scope::GLOBAL,
            Metric::BlockedWaitNs,
            waited.as_nanos() as u64,
        );
    }

    /// Nonblocking receive from `peer`: drains the channel into the stash
    /// and returns the oldest stashed message from `peer`, if any.
    // alya:hot
    pub fn try_recv_from(&mut self, peer: u32) -> Option<M> {
        while let Ok(pair) = self.rx.try_recv() {
            // alya:allow(hot-alloc): the stash holds at most one in-flight
            // message per peer rank; each append is taken back out by
            // `take_stashed` within the same exchange.
            self.stash.push(pair);
        }
        self.take_stashed(peer)
    }

    /// Blocking receive of the next message from `peer`; messages from
    /// other ranks arriving in the meantime are stashed for their own
    /// receives. Panics after `RECV_TIMEOUT` — a missing message is a
    /// protocol bug, and hanging forever would mask it.
    pub fn recv_from(&mut self, peer: u32) -> M {
        match self.recv_from_deadline(peer, RECV_TIMEOUT) {
            Some(m) => m,
            None => panic!(
                "rank {}: no message from rank {peer} ({} stashed from other peers) — \
                 halo exchange protocol violated",
                self.rank,
                self.stash.len()
            ),
        }
    }

    /// Bounded blocking receive from `peer`: waits up to `timeout`, then
    /// returns `None` instead of panicking. The overlap drain stage uses
    /// short slices of this so the scheduler watchdog — not this handle —
    /// decides when a missing message becomes an error.
    pub fn recv_from_timeout(&mut self, peer: u32, timeout: Duration) -> Option<M> {
        self.recv_from_deadline(peer, timeout)
    }

    fn recv_from_deadline(&mut self, peer: u32, timeout: Duration) -> Option<M> {
        if let Some(m) = self.take_stashed(peer) {
            return Some(m);
        }
        let start = Instant::now();
        let deadline = start + timeout;
        let got = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok((from, msg)) if from == peer => break Some(msg),
                // alya:allow(hot-alloc): same bounded per-peer stash as
                // `try_recv_from` — capacity amortizes across the run.
                Ok(pair) => self.stash.push(pair),
                // Disconnected means every other rank already finished:
                // the message can no longer arrive, so waiting is futile.
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break None,
            }
        };
        let waited = start.elapsed();
        self.note_blocked(waited);
        probe::note_comm_block(peer, waited.as_nanos() as u64, got.is_some());
        if let Some(msg) = &got {
            self.account_received(peer, msg);
        }
        got
    }

    fn take_stashed(&mut self, peer: u32) -> Option<M> {
        let pos = self.stash.iter().position(|&(from, _)| from == peer)?;
        let (from, msg) = self.stash.remove(pos);
        self.account_received(from, &msg);
        Some(msg)
    }

    fn finish(self) -> RankStats {
        self.stats
    }
}

/// The halo-exchange pattern: post every outgoing message, then collect
/// exactly one message from each expected peer.
///
/// The result is **sorted ascending by sender rank** regardless of
/// arrival order, so a combine that folds the messages in result order is
/// deterministic — the property the distributed driver's bitwise
/// reproducibility rests on.
#[derive(Debug, Clone)]
pub struct NeighborExchange {
    recv_peers: Vec<u32>,
}

impl NeighborExchange {
    /// An exchange expecting one message from each of `recv_peers`
    /// (deduplicated, sorted).
    pub fn new(mut recv_peers: Vec<u32>) -> Self {
        recv_peers.sort_unstable();
        recv_peers.dedup();
        Self { recv_peers }
    }

    /// Ranks this exchange expects a message from (sorted).
    pub fn recv_peers(&self) -> &[u32] {
        &self.recv_peers
    }

    /// Runs one exchange round on `handle`: posts every `(to, msg)` in
    /// `sends`, then blocks until one message from each expected peer has
    /// arrived. Returns `(peer, message)` pairs sorted by peer rank.
    pub fn run<M: Payload>(
        &self,
        handle: &mut RankHandle<M>,
        sends: Vec<(u32, M)>,
    ) -> Vec<(u32, M)> {
        let mut progress = self.post(handle, sends);
        progress.block(handle);
        progress.into_sorted()
    }

    /// Posts every outgoing message immediately and returns an
    /// [`ExchangeProgress`] to collect the incoming ones incrementally —
    /// the split the overlap pipeline needs: sends go out before interior
    /// assembly starts, receives drain while it runs.
    pub fn post<M: Payload>(
        &self,
        handle: &mut RankHandle<M>,
        sends: Vec<(u32, M)>,
    ) -> ExchangeProgress<M> {
        let _sp = telemetry::span("comm-post");
        for (to, msg) in sends {
            handle.send(to, msg);
        }
        ExchangeProgress {
            pending: self.recv_peers.clone(),
            got: Vec::new(),
        }
    }
}

/// Incremental receive side of one posted exchange round.
///
/// Collect with any mix of [`ExchangeProgress::poll`] (nonblocking),
/// [`ExchangeProgress::wait_any`] (bounded blocking) and
/// [`ExchangeProgress::block`]; arrival order does not matter because
/// [`ExchangeProgress::into_sorted`] always hands the messages back
/// sorted by sender rank — overlap cannot reorder the combine.
#[derive(Debug)]
pub struct ExchangeProgress<M> {
    /// Peers still owed a message, ascending.
    pending: Vec<u32>,
    /// Collected `(peer, message)` pairs, in arrival order.
    got: Vec<(u32, M)>,
}

impl<M: Payload> ExchangeProgress<M> {
    /// Peers still owed a message (sorted ascending).
    pub fn pending(&self) -> &[u32] {
        &self.pending
    }

    /// Whether every expected message has arrived.
    pub fn is_complete(&self) -> bool {
        self.pending.is_empty()
    }

    /// Nonblocking sweep: takes whatever already arrived from any pending
    /// peer. Returns how many messages were collected.
    // alya:hot
    pub fn poll(&mut self, handle: &mut RankHandle<M>) -> usize {
        let before = self.pending.len();
        let mut i = 0;
        while i < self.pending.len() {
            let p = self.pending[i];
            if let Some(m) = handle.try_recv_from(p) {
                // alya:allow(hot-alloc): `got` is bounded by the neighbor
                // count fixed at post time; capacity amortizes to zero
                // after the first exchange of a run.
                self.got.push((p, m));
                self.pending.remove(i);
            } else {
                i += 1;
            }
        }
        before - self.pending.len()
    }

    /// Bounded wait: blocks up to `timeout` for the lowest pending peer,
    /// then sweeps the rest nonblockingly (the wait may have stashed
    /// them). Returns how many messages were collected.
    // alya:hot
    pub fn wait_any(&mut self, handle: &mut RankHandle<M>, timeout: Duration) -> usize {
        let Some(&first) = self.pending.first() else {
            return 0;
        };
        let mut n = 0;
        if let Some(m) = handle.recv_from_timeout(first, timeout) {
            // alya:allow(hot-alloc): bounded by the neighbor count, same as
            // the `poll` sweep above.
            self.got.push((first, m));
            self.pending.remove(0);
            n = 1;
        }
        n + self.poll(handle)
    }

    /// Blocks (panicking on `RECV_TIMEOUT`) until every pending peer
    /// has delivered — the non-overlapped path.
    pub fn block(&mut self, handle: &mut RankHandle<M>) {
        let _sp = telemetry::span("comm-block");
        while let Some(&p) = self.pending.first() {
            let m = handle.recv_from(p);
            self.got.push((p, m));
            self.pending.remove(0);
        }
    }

    /// Consumes the progress, returning `(peer, message)` pairs sorted by
    /// sender rank.
    ///
    /// # Panics
    /// If the exchange is incomplete — combining early would silently
    /// drop contributions.
    pub fn into_sorted(mut self) -> Vec<(u32, M)> {
        assert!(
            self.pending.is_empty(),
            "exchange incomplete: still waiting on peers {:?}",
            self.pending
        );
        self.got.sort_by_key(|&(p, _)| p);
        self.got
    }
}

/// Results and accounting of one rank-parallel run.
#[derive(Debug)]
pub struct CommRun<R> {
    /// Per-rank results, in rank order.
    pub results: Vec<R>,
    /// Merged communication accounting.
    pub report: CommReport,
}

/// The rank-parallel runtime.
pub struct Communicator;

impl Communicator {
    /// Runs `f(rank, handle)` on `num_ranks` dedicated OS threads wired
    /// into a full mesh of typed channels, joins them, and merges every
    /// rank's private accounting into one [`CommReport`].
    ///
    /// The closure sees no shared mutable state: each rank owns its
    /// handle, and results come back by value in rank order.
    pub fn run<M, R, F>(num_ranks: usize, mode: RecordMode, f: F) -> CommRun<R>
    where
        M: Payload,
        R: Send,
        F: Fn(u32, &mut RankHandle<M>) -> R + Sync,
    {
        assert!(num_ranks > 0, "a communicator needs at least one rank");
        let mut txs: Vec<Sender<(u32, M)>> = Vec::with_capacity(num_ranks);
        let mut rxs: Vec<Receiver<(u32, M)>> = Vec::with_capacity(num_ranks);
        for _ in 0..num_ranks {
            let (tx, rx) = channel();
            txs.push(tx);
            rxs.push(rx);
        }
        let handles: Vec<RankHandle<M>> = rxs
            .into_iter()
            .enumerate()
            .map(|(r, rx)| RankHandle {
                rank: r as u32,
                senders: txs
                    .iter()
                    .enumerate()
                    .map(|(to, tx)| (to != r).then(|| tx.clone()))
                    .collect(),
                rx,
                stash: Vec::new(),
                mode,
                stats: RankStats {
                    sent: vec![Counter::default(); num_ranks],
                    received: vec![Counter::default(); num_ranks],
                    self_send_attempts: 0,
                    dropped_sends: 0,
                    traces: Vec::new(),
                    blocked: Duration::ZERO,
                },
            })
            .collect();
        drop(txs);

        let out = par::dedicated_threads(handles, |r, mut handle| {
            // Each rank gets its own trace process row (pid 0 is the main
            // thread); the guard restores the caller's row because a
            // single-rank run executes on the calling thread.
            let _track = telemetry::set_thread_track(r as u32 + 1, &format!("rank {r}"));
            probe::set_thread_rank(r as u32);
            let result = f(r as u32, &mut handle);
            (result, handle.finish())
        });

        let mut results = Vec::with_capacity(num_ranks);
        let mut stats = Vec::with_capacity(num_ranks);
        for (result, s) in out {
            results.push(result);
            stats.push(s);
        }
        CommRun {
            results,
            report: merge_stats(num_ranks, stats),
        }
    }
}

fn merge_stats(num_ranks: usize, stats: Vec<RankStats>) -> CommReport {
    let mut channels: BTreeMap<(u32, u32), ChannelStats> = BTreeMap::new();
    let mut report = CommReport {
        num_ranks,
        ..CommReport::default()
    };
    for (r, s) in stats.into_iter().enumerate() {
        report.self_send_attempts += s.self_send_attempts;
        report.dropped_sends += s.dropped_sends;
        report.blocked_wait_s += s.blocked.as_secs_f64();
        report.traces.extend(s.traces);
        for (to, c) in s.sent.iter().enumerate() {
            if c.messages == 0 {
                continue;
            }
            let e = channels.entry((r as u32, to as u32)).or_default();
            e.sent_messages += c.messages;
            e.sent_bytes += c.bytes;
            e.max_message_bytes = e.max_message_bytes.max(c.max_message_bytes);
        }
        for (from, c) in s.received.iter().enumerate() {
            if c.messages == 0 {
                continue;
            }
            let e = channels.entry((from as u32, r as u32)).or_default();
            e.received_messages += c.messages;
            e.received_bytes += c.bytes;
        }
    }
    report.channels = channels
        .into_iter()
        .map(|((from, to), mut c)| {
            c.from = from;
            c.to = to;
            c
        })
        .collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(slot: u32, v: f64) -> HaloMsg {
        HaloMsg {
            entries: vec![(slot, [v, 2.0 * v, -v])],
        }
    }

    #[test]
    fn ring_exchange_delivers_and_accounts_every_message() {
        let n = 5;
        let run = Communicator::run(n, RecordMode::Counters, |r, h: &mut RankHandle<HaloMsg>| {
            let next = (r + 1) % n as u32;
            let prev = (r + n as u32 - 1) % n as u32;
            h.send(next, msg(r, f64::from(r)));
            let got = h.recv_from(prev);
            assert_eq!(got.entries[0].0, prev);
            got.entries[0].1[0]
        });
        assert_eq!(run.results.len(), n);
        for (r, v) in run.results.iter().enumerate() {
            let prev = (r + n - 1) % n;
            assert_eq!(*v, prev as f64);
        }
        let rep = &run.report;
        assert_eq!(rep.total_messages(), n as u64);
        assert_eq!(rep.total_bytes(), (n * HALO_ENTRY_BYTES) as u64);
        assert!(rep.all_delivered(), "{rep:#?}");
        assert_eq!(rep.channels.len(), n);
        let c = rep.channel(0, 1).expect("ring edge 0→1");
        assert_eq!(c.sent_messages, 1);
        assert_eq!(c.received_messages, 1);
        assert_eq!(c.sent_bytes, HALO_ENTRY_BYTES as u64);
    }

    #[test]
    fn neighbor_exchange_returns_peers_sorted_whatever_the_arrival_order() {
        let n = 6usize;
        let run = Communicator::run(n, RecordMode::Counters, |r, h: &mut RankHandle<HaloMsg>| {
            // All-to-all: every rank sends to every other.
            let peers: Vec<u32> = (0..n as u32).filter(|&p| p != r).collect();
            let sends = peers.iter().map(|&p| (p, msg(r, f64::from(r)))).collect();
            let ex = NeighborExchange::new(peers.clone());
            let got = ex.run(h, sends);
            let order: Vec<u32> = got.iter().map(|&(p, _)| p).collect();
            assert_eq!(order, peers, "rank {r}: results not sorted by peer");
            for (p, m) in &got {
                assert_eq!(m.entries[0].1[0], f64::from(*p));
            }
            got.len()
        });
        assert!(run.results.iter().all(|&k| k == n - 1));
        assert_eq!(run.report.total_messages(), (n * (n - 1)) as u64);
        assert!(run.report.all_delivered());
    }

    #[test]
    fn self_and_out_of_range_sends_are_recorded_not_delivered() {
        let run = Communicator::run(2, RecordMode::Counters, |r, h: &mut RankHandle<HaloMsg>| {
            if r == 0 {
                assert!(
                    !h.send(0, msg(1, 1.0)),
                    "self-send must not enter a channel"
                );
                assert!(!h.send(9, msg(1, 1.0)), "out-of-range send must fail");
                assert!(h.send(1, msg(3, 4.0)));
            } else {
                let m = h.recv_from(0);
                assert_eq!(m.entries[0], (3, [4.0, 8.0, -4.0]));
                // Nothing else may ever arrive.
                assert!(h.try_recv_from(0).is_none());
            }
        });
        assert_eq!(run.report.self_send_attempts, 1);
        assert_eq!(run.report.dropped_sends, 1);
        assert_eq!(run.report.total_messages(), 1);
        assert!(!run.report.all_delivered());
    }

    #[test]
    fn full_mode_traces_slots_per_message() {
        let run = Communicator::run(3, RecordMode::Full, |r, h: &mut RankHandle<HaloMsg>| {
            if r > 0 {
                h.send(
                    0,
                    HaloMsg {
                        entries: vec![(2 * r, [1.0; 3]), (2 * r + 1, [0.5; 3])],
                    },
                );
            } else {
                let ex = NeighborExchange::new(vec![1, 2]);
                let got = ex.run(h, Vec::new());
                assert_eq!(got.len(), 2);
            }
        });
        let mut traces = run.report.traces.clone();
        traces.sort_by_key(|t| t.from);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].slots, vec![2, 3]);
        assert_eq!(traces[1].slots, vec![4, 5]);
        assert_eq!(traces[0].bytes, 2 * HALO_ENTRY_BYTES as u64);
        assert!(run.report.all_delivered());
    }

    #[test]
    fn reports_are_deterministic_across_runs() {
        let go = || {
            Communicator::run(4, RecordMode::Full, |r, h: &mut RankHandle<HaloMsg>| {
                let peers: Vec<u32> = (0..4).filter(|&p| p != r).collect();
                let sends = peers.iter().map(|&p| (p, msg(r, 1.5))).collect();
                NeighborExchange::new(peers).run(h, sends).len()
            })
        };
        let a = go();
        let b = go();
        assert_eq!(a.report, b.report);
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn single_rank_runs_without_channels() {
        let run = Communicator::run(1, RecordMode::Counters, |r, h: &mut RankHandle<HaloMsg>| {
            assert_eq!(h.num_ranks(), 1);
            assert!(h.try_recv_from(0).is_none());
            r
        });
        assert_eq!(run.results, vec![0]);
        assert_eq!(run.report.total_messages(), 0);
        assert!(run.report.all_delivered());
    }

    #[test]
    fn stashing_preserves_fifo_order_per_peer() {
        let run = Communicator::run(2, RecordMode::Counters, |r, h: &mut RankHandle<HaloMsg>| {
            if r == 0 {
                for k in 0..4 {
                    h.send(1, msg(k, f64::from(k)));
                }
                Vec::new()
            } else {
                // Receive out of band via try_recv first, then blocking.
                let mut got = Vec::new();
                while got.len() < 4 {
                    match h.try_recv_from(0) {
                        Some(m) => got.push(m.entries[0].0),
                        None => got.push(h.recv_from(0).entries[0].0),
                    }
                }
                got
            }
        });
        assert_eq!(run.results[1], vec![0, 1, 2, 3]);
    }

    #[test]
    fn try_recv_from_is_oldest_first_per_peer_with_interleaved_senders() {
        // Ranks 0 and 1 each stream 5 messages to rank 2, which drains
        // them with an interleaved mix of try_recv_from / recv_from
        // calls. Per-peer FIFO order and zero loss must hold no matter
        // how the two streams interleave on the shared inbox.
        let run = Communicator::run(3, RecordMode::Counters, |r, h: &mut RankHandle<HaloMsg>| {
            if r < 2 {
                for k in 0..5u32 {
                    h.send(2, msg(10 * r + k, f64::from(k)));
                }
                return (Vec::new(), Vec::new());
            }
            // Block for peer 1's first message: anything rank 0 delivered
            // ahead of it is forced through the stash.
            let mut from1 = vec![h.recv_from(1).entries[0].0];
            let mut from0 = Vec::new();
            while from0.len() < 5 || from1.len() < 5 {
                // Alternate nonblocking drains of both peers mid-stream.
                if from0.len() < 5 {
                    match h.try_recv_from(0) {
                        Some(m) => from0.push(m.entries[0].0),
                        None => from0.push(h.recv_from(0).entries[0].0),
                    }
                }
                if from1.len() < 5 {
                    if let Some(m) = h.try_recv_from(1) {
                        from1.push(m.entries[0].0);
                    }
                }
            }
            assert!(h.try_recv_from(0).is_none());
            assert!(h.try_recv_from(1).is_none());
            (from0, from1)
        });
        let (from0, from1) = &run.results[2];
        assert_eq!(*from0, vec![0, 1, 2, 3, 4], "peer 0 stream reordered");
        assert_eq!(*from1, vec![10, 11, 12, 13, 14], "peer 1 stream reordered");
        assert!(run.report.all_delivered());
    }

    #[test]
    fn recv_from_timeout_returns_none_on_silence_and_accounts_blocked_time() {
        let run = Communicator::run(2, RecordMode::Counters, |r, h: &mut RankHandle<HaloMsg>| {
            if r == 0 {
                // Stay alive past the peer's wait window so the timeout —
                // not channel disconnection — ends it.
                std::thread::sleep(Duration::from_millis(100));
            } else {
                let t0 = Instant::now();
                let got = h.recv_from_timeout(0, Duration::from_millis(40));
                assert!(got.is_none(), "no message was ever sent");
                assert!(t0.elapsed() >= Duration::from_millis(20));
            }
        });
        assert!(
            run.report.blocked_wait_s > 0.0,
            "timed-out wait must count as blocked time: {:?}",
            run.report.blocked_wait_s
        );
        // And blocked time must not leak into report equality.
        let mut twin = run.report.clone();
        twin.blocked_wait_s = 0.0;
        assert_eq!(run.report, twin);
    }

    #[test]
    fn posted_exchange_collected_by_polling_matches_the_blocking_run() {
        let n = 5usize;
        let run = Communicator::run(n, RecordMode::Counters, |r, h: &mut RankHandle<HaloMsg>| {
            let peers: Vec<u32> = (0..n as u32).filter(|&p| p != r).collect();
            let sends: Vec<_> = peers.iter().map(|&p| (p, msg(r, f64::from(r)))).collect();
            let ex = NeighborExchange::new(peers.clone());
            let mut progress = ex.post(h, sends);
            // Mix nonblocking polls with bounded waits until complete.
            let mut spins = 0u32;
            while !progress.is_complete() {
                if progress.poll(h) == 0 {
                    progress.wait_any(h, Duration::from_millis(5));
                }
                spins += 1;
                assert!(spins < 1_000_000, "exchange never completed");
            }
            assert_eq!(progress.wait_any(h, Duration::from_millis(1)), 0);
            let got = progress.into_sorted();
            let order: Vec<u32> = got.iter().map(|&(p, _)| p).collect();
            assert_eq!(order, peers, "rank {r}: polled collect not sorted");
            for (p, m) in &got {
                assert_eq!(m.entries[0].1[0], f64::from(*p));
            }
        });
        assert!(run.report.all_delivered());
        assert_eq!(run.report.total_messages(), (n * (n - 1)) as u64);
    }

    #[test]
    #[should_panic(expected = "exchange incomplete")]
    fn combining_an_incomplete_exchange_panics() {
        let progress: ExchangeProgress<HaloMsg> = ExchangeProgress {
            pending: vec![3],
            got: Vec::new(),
        };
        let _ = progress.into_sorted();
    }
}
