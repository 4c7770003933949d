//! The benchmark's own span recorder.
//!
//! Spans are opened from the benchmark's files around each call into a
//! layer's public function (the program under test is not instrumented),
//! held in memory, and written out once when the run ends. A disabled
//! tracer records nothing, so the untraced and the traced pass run the same
//! loop code and differ only in whether spans are kept.

use std::fmt::Write as _;
use std::time::Instant;

/// One completed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `solver.step`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder for one (single-threaded) benchmark driver.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that keeps spans iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (the traced pass alternates recorded
    /// and unrecorded repetitions to measure its own overhead).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. The tracer is handed back to `f` so it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Renames the span opened last — for a call whose outcome decides
    /// what it was (an admission that turned out to be a refusal).
    pub fn relabel_last(&mut self, name: &'static str) {
        if let (true, Some(last)) = (self.enabled, self.spans.last_mut()) {
            last.name = name;
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Seconds of the fastest span named `name` (0 if there is none).
    pub fn fastest_s(&self, name: &str) -> f64 {
        crate::stats::fastest(&self.durations_s(name))
    }

    /// The spans as a JSON array (`id` is the position in opening order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]\n");
        out
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its direct children cover (overlapping children are merged first, so
/// covered time is never counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 50),  // overlaps the previous child
            span(Some(0), 70, 120), // clipped to the parent
            span(Some(1), 12, 18),  // grandchild: only affects its parent
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 40 - 30, 20 - 6, 30, 50, 6]
        );
    }

    #[test]
    fn disabled_tracer_keeps_nothing_and_nesting_links_parents() {
        let mut off = Tracer::new(false);
        assert_eq!(off.span("a", |t| t.span("b", |_| 7)), 7);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        on.span("a", |t| {
            t.span("b", |_| ());
            t.span("b", |_| ());
        });
        let names: Vec<_> = on.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, [("a", None), ("b", Some(0)), ("b", Some(0))]);
        assert_eq!(on.durations_s("b").len(), 2);
        assert!(on.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert!(crate::json::parse(&on.to_json()).is_ok());
    }
}
