//! Post-mortem black-box rendering: stitch every thread's ring into a
//! causally-ordered human-readable report, diagnose who was waiting on
//! whom, and export the same window as a chrome trace through
//! `telemetry::export` — the file a stalled run leaves behind.

use std::fmt::Write as _;

use alya_telemetry::{export, SpanRecord, TelemetryReport};

use crate::{Event, EventKind};

/// One thread's copied ring at snapshot time (oldest event first).
#[derive(Debug, Clone)]
pub struct ThreadLog {
    /// Thread label ("rank N" once the comm runtime adopted it).
    pub label: String,
    /// Rank the thread executed, when known.
    pub rank: Option<u32>,
    /// The thread had already exited at snapshot time.
    pub retired: bool,
    /// Events the bounded ring evicted before the snapshot.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
}

/// A full flight-recorder snapshot: every thread's recent history plus
/// the warn-channel overflow count, ready to render or export.
#[derive(Debug, Clone)]
pub struct BlackBox {
    /// Why the snapshot was taken (halo stall, fault, explicit...).
    pub reason: String,
    /// Snapshot timestamp on the shared monotonic clock.
    pub at_ns: u64,
    /// Warnings the bounded telemetry channel dropped (satellite fix:
    /// the loss is surfaced here and in `drain_warnings`).
    pub warn_overflow: u64,
    /// Per-thread logs, registry order.
    pub threads: Vec<ThreadLog>,
}

/// Maximum merged-timeline lines a rendered dump prints.
const TIMELINE_MAX: usize = 160;

fn ms(ns: u64) -> f64 {
    ns as f64 * 1e-6
}

fn describe(ev: &Event) -> String {
    let name = ev.name.as_str();
    match ev.kind {
        EventKind::SpanBegin => format!("span-begin   {name}"),
        EventKind::SpanEnd => format!(
            "span-end     {name} ({:.3} ms)",
            ms(ev.at_ns.saturating_sub(ev.a))
        ),
        EventKind::CommPost => format!("comm-post    → rank {} ({} bytes)", ev.a, ev.b),
        EventKind::CommBlock => format!("comm-recv    ← rank {} after {:.3} ms", ev.a, ms(ev.b)),
        EventKind::CommTimeout => {
            format!("comm-timeout rank {} silent for {:.3} ms", ev.a, ms(ev.b))
        }
        EventKind::Counter => format!("counter      {name} += {}", ev.a),
        EventKind::Warn => format!("warn         {name}"),
    }
}

/// A thread's spans still open at snapshot time (begun, never ended),
/// outermost first, each with its start.
fn open_spans(log: &ThreadLog) -> Vec<(&str, u64)> {
    let mut open: Vec<(&str, u64)> = Vec::new();
    for ev in &log.events {
        match ev.kind {
            EventKind::SpanBegin => open.push((ev.name.as_str(), ev.at_ns)),
            EventKind::SpanEnd => {
                if let Some(pos) = open.iter().rposition(|(n, _)| *n == ev.name.as_str()) {
                    open.remove(pos);
                }
            }
            _ => {}
        }
    }
    open
}

/// A thread's innermost open span — the phase it is stuck in, the
/// "still in assemble-overlap" half of the stall narrative.
fn open_phase(log: &ThreadLog) -> Option<(&str, u64)> {
    open_spans(log).last().copied()
}

/// Trailing blocked time on one peer: sums the run of `CommTimeout`
/// events (same peer) at the end of the log.
fn trailing_timeout(log: &ThreadLog) -> Option<(u32, u64)> {
    let mut peer = None;
    let mut waited = 0u64;
    for ev in log.events.iter().rev() {
        match ev.kind {
            EventKind::CommTimeout => {
                let p = ev.a as u32;
                match peer {
                    None => {
                        peer = Some(p);
                        waited = ev.b;
                    }
                    Some(q) if q == p => waited += ev.b,
                    Some(_) => break,
                }
            }
            // Counters and warnings don't end the wait; any real
            // progress (a span, a receive, a post) does.
            EventKind::Counter | EventKind::Warn => {
                if peer.is_some() {
                    break;
                }
            }
            _ => break,
        }
    }
    peer.map(|p| (p, waited))
}

impl BlackBox {
    /// Renders the human-readable post-mortem report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== alya-probe black box: {} ===", self.reason);
        let _ = writeln!(
            out,
            "captured at t={:.3} ms · {} thread(s) · warn overflow {}",
            ms(self.at_ns),
            self.threads.len(),
            self.warn_overflow
        );
        for log in &self.threads {
            let _ = writeln!(
                out,
                "  {}: {} event(s) retained, {} evicted{}",
                log.label,
                log.events.len(),
                log.dropped,
                if log.retired { " (thread exited)" } else { "" }
            );
        }

        // Causally-ordered merged timeline (ties broken by thread order).
        let mut merged: Vec<(&ThreadLog, &Event)> = self
            .threads
            .iter()
            .flat_map(|t| t.events.iter().map(move |e| (t, e)))
            .collect();
        merged.sort_by_key(|(_, e)| e.at_ns);
        let skip = merged.len().saturating_sub(TIMELINE_MAX);
        let _ = writeln!(out, "-- timeline (last {} events) --", merged.len() - skip);
        if skip > 0 {
            let _ = writeln!(out, "  ... {skip} earlier event(s) omitted ...");
        }
        for (t, e) in &merged[skip..] {
            let _ = writeln!(
                out,
                "[{:>12.3} ms] {:<10} {}",
                ms(e.at_ns),
                t.label,
                describe(e)
            );
        }

        // Diagnosis: who is stuck where, waiting on whom.
        let _ = writeln!(out, "-- diagnosis --");
        let mut diagnosed = 0;
        for log in &self.threads {
            let Some((phase, since)) = open_phase(log) else {
                continue;
            };
            diagnosed += 1;
            let _ = write!(
                out,
                "{} stalled in \"{phase}\" (open since t={:.3} ms)",
                log.label,
                ms(since)
            );
            if let Some((peer, waited)) = trailing_timeout(log) {
                let _ = write!(out, ", blocked {:.3} ms waiting on rank {peer}", ms(waited));
                if let Some(peer_log) = self.threads.iter().find(|t| t.rank == Some(peer)) {
                    match open_phase(peer_log) {
                        Some((pphase, _)) => {
                            let _ = write!(out, ", which was still in \"{pphase}\"");
                        }
                        None => {
                            if let Some(last) = peer_log.events.last() {
                                let _ = write!(
                                    out,
                                    "; rank {peer} last seen at t={:.3} ms: {}",
                                    ms(last.at_ns),
                                    describe(last)
                                );
                            }
                        }
                    }
                }
            }
            let _ = writeln!(out);
        }
        if diagnosed == 0 {
            let _ = writeln!(out, "no open spans — nothing was stuck at snapshot time");
        }
        out
    }

    /// Exports the snapshot as chrome `trace_event` JSON (reusing
    /// `telemetry::export::chrome_trace`): one trace process per rank /
    /// thread, complete spans for everything the rings can pair.
    pub fn chrome_trace(&self) -> String {
        let mut report = TelemetryReport::default();
        let mut next_id = 1u64;
        for (i, log) in self.threads.iter().enumerate() {
            let pid = log.rank.map_or(900 + i as u32, |r| r + 1);
            report.track_labels.push(((pid, 0), log.label.clone()));
            for ev in &log.events {
                let mut span = |name: String, start_ns: u64, end_ns: u64| {
                    report.spans.push(SpanRecord {
                        id: next_id,
                        parent: None,
                        name,
                        pid,
                        tid: 0,
                        start_ns,
                        end_ns,
                    });
                    next_id += 1;
                };
                match ev.kind {
                    EventKind::SpanEnd => span(ev.name.as_str().to_string(), ev.a, ev.at_ns),
                    EventKind::CommBlock => span(
                        format!("wait rank {}", ev.a),
                        ev.at_ns.saturating_sub(ev.b),
                        ev.at_ns,
                    ),
                    EventKind::CommTimeout => span(
                        format!("timeout rank {}", ev.a),
                        ev.at_ns.saturating_sub(ev.b),
                        ev.at_ns,
                    ),
                    _ => {}
                }
            }
            // Spans still open at snapshot time render to the capture
            // edge, flagged as unfinished.
            for (name, start) in open_spans(log) {
                report.spans.push(SpanRecord {
                    id: next_id,
                    parent: None,
                    name: format!("{name} (unfinished)"),
                    pid,
                    tid: 0,
                    start_ns: start,
                    end_ns: self.at_ns,
                });
                next_id += 1;
            }
        }
        report
            .spans
            .sort_by_key(|s| (s.pid, s.tid, s.start_ns, s.id));
        export::chrome_trace(&report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tag;

    fn ev(kind: EventKind, name: &str, at_ns: u64, a: u64, b: u64) -> Event {
        Event {
            at_ns,
            kind,
            name: Tag::new(name),
            a,
            b,
        }
    }

    fn stalled_box() -> BlackBox {
        BlackBox {
            reason: "test stall".into(),
            at_ns: 60_000_000,
            warn_overflow: 0,
            threads: vec![
                ThreadLog {
                    label: "rank 2".into(),
                    rank: Some(2),
                    retired: false,
                    dropped: 0,
                    events: vec![
                        ev(EventKind::SpanBegin, "rank-overlap:RSP", 1_000_000, 0, 0),
                        ev(EventKind::SpanBegin, "assemble-pre", 1_000_000, 0, 0),
                        ev(EventKind::SpanEnd, "assemble-pre", 9_000_000, 1_000_000, 0),
                        ev(EventKind::SpanBegin, "halo-drain", 10_000_000, 0, 0),
                        ev(
                            EventKind::CommTimeout,
                            "halo-wait",
                            30_000_000,
                            0,
                            20_000_000,
                        ),
                        ev(
                            EventKind::CommTimeout,
                            "halo-wait",
                            58_000_000,
                            0,
                            28_000_000,
                        ),
                    ],
                },
                ThreadLog {
                    label: "rank 0".into(),
                    rank: Some(0),
                    retired: false,
                    dropped: 0,
                    events: vec![ev(
                        EventKind::SpanBegin,
                        "assemble-overlap",
                        9_000_000,
                        0,
                        0,
                    )],
                },
            ],
        }
    }

    #[test]
    fn render_names_the_stalled_stage_and_the_blocking_rank() {
        let text = stalled_box().render();
        assert!(text.contains("rank 2 stalled in \"halo-drain\""), "{text}");
        assert!(text.contains("waiting on rank 0"), "{text}");
        assert!(text.contains("still in \"assemble-overlap\""), "{text}");
        // A span that ended is not where a thread is stuck.
        assert!(!text.contains("stalled in \"assemble-pre\""), "{text}");
    }

    #[test]
    fn chrome_export_parses_and_carries_unfinished_stages() {
        let json = stalled_box().chrome_trace();
        export::validate_json(&json).expect("dump trace parses");
        assert!(json.contains("halo-drain (unfinished)"));
        assert!(json.contains("rank-overlap:RSP (unfinished)"));
        assert!(!json.contains("assemble-pre (unfinished)"));
        assert!(json.contains("timeout rank 0"));
    }
}
