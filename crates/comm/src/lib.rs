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
//!   blocking [`RankHandle::recv_from`] / bounded
//!   [`RankHandle::recv_from_timeout`] with out-of-order stashing. Channels
//!   are unbounded queues, so a message sent early waits in the
//!   receiver's queue until the receiver asks for it — the distributed
//!   driver posts its sends, assembles its interior, then receives, with
//!   no polling in between;
//! * [`CommReport`] — per-channel message/byte accounting (sender *and*
//!   receiver side, so a dropped message is visible as a sent/received
//!   mismatch), the seconds ranks spent blocked in a receive, and, under
//!   [`RecordMode::Full`], a per-message trace of the slot ids exchanged —
//!   the evidence `alya-analyze`'s comm contract checks against the
//!   closed-form halo-volume prediction. It is the only record of halo
//!   traffic and blocked wait; telemetry holds spans only.
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
        self.stats.received[from as usize].record(msg.payload_bytes() as u64);
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
    /// returns `None` instead of panicking. It also returns `None` at once
    /// when every other rank has finished (the message can no longer
    /// come), so a caller with a deadline learns of a missing message as
    /// soon as it is certain. The distributed driver's halo drain runs on
    /// this, turning `None` into a typed stall.
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
                Ok(pair) => self.stash.push(pair),
                // Disconnected means every other rank already finished:
                // the message can no longer arrive, so waiting is futile.
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break None,
            }
        };
        let waited = start.elapsed();
        self.stats.blocked += waited;
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
                assert!(h.recv_from_timeout(0, Duration::from_millis(20)).is_none());
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
                assert_eq!(h.recv_from(1).entries.len(), 2);
                assert_eq!(h.recv_from(2).entries.len(), 2);
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
                for &p in &peers {
                    h.send(p, msg(r, 1.5));
                }
                peers
                    .iter()
                    .map(|&p| h.recv_from(p).entries[0].0)
                    .collect::<Vec<_>>()
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
            // No sender exists, so the wait ends at once.
            assert!(h.recv_from_timeout(0, RECV_TIMEOUT).is_none());
            r
        });
        assert_eq!(run.results, vec![0]);
        assert_eq!(run.report.total_messages(), 0);
        assert!(run.report.all_delivered());
    }

    #[test]
    fn stashing_preserves_fifo_order_per_peer() {
        // Ranks 0 and 1 each stream 5 messages to rank 2, which waits for
        // peer 1 first: whatever rank 0 delivered ahead of it goes through
        // the stash. Per-peer FIFO order and zero loss must hold however
        // the two streams interleave on the shared inbox.
        let run = Communicator::run(3, RecordMode::Counters, |r, h: &mut RankHandle<HaloMsg>| {
            if r < 2 {
                for k in 0..5u32 {
                    h.send(2, msg(10 * r + k, f64::from(k)));
                }
                return (Vec::new(), Vec::new());
            }
            let mut from1 = vec![h.recv_from(1).entries[0].0];
            let mut from0 = Vec::new();
            while from0.len() < 5 || from1.len() < 5 {
                if from0.len() < 5 {
                    from0.push(h.recv_from(0).entries[0].0);
                }
                if from1.len() < 5 {
                    from1.push(h.recv_from(1).entries[0].0);
                }
            }
            assert!(h.recv_from_timeout(0, Duration::ZERO).is_none());
            assert!(h.recv_from_timeout(1, Duration::ZERO).is_none());
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
    fn a_wait_that_succeeds_counts_at_least_the_senders_delay() {
        // Rank 1 sleeps only once rank 0 is about to receive, so rank 0's
        // successful receive blocks for at least the sleep.
        let delay = Duration::from_millis(30);
        let receiving = std::sync::atomic::AtomicBool::new(false);
        let run = Communicator::run(2, RecordMode::Counters, |r, h: &mut RankHandle<HaloMsg>| {
            if r == 0 {
                receiving.store(true, std::sync::atomic::Ordering::Release);
                assert_eq!(h.recv_from(1), msg(7, 1.0));
            } else {
                while !receiving.load(std::sync::atomic::Ordering::Acquire) {
                    std::thread::yield_now();
                }
                std::thread::sleep(delay);
                assert!(h.send(0, msg(7, 1.0)));
            }
        });
        assert!(run.report.all_delivered());
        assert!(
            run.report.blocked_wait_s >= delay.as_secs_f64(),
            "a {delay:?} wait recorded as {} s",
            run.report.blocked_wait_s
        );
    }
}
