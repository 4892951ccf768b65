//! The benchmark's own spans around calls into each layer's public API.
//!
//! A disabled [`Tracer`] records nothing: the untraced run that gives the
//! end-to-end figures pays one branch per call site. An enabled one can
//! pause between windows, so a traced run interleaves traced and
//! untraced windows over the same stretch of time. While recording it
//! keeps, per span name, the count, total and self time and a duration
//! histogram, plus the first [`RAW_SPANS`] spans verbatim (name, request
//! key, parent, start, end) for writing out when the run ends.

use crate::stats::Hist;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept verbatim for the span file; aggregates cover all spans.
pub const RAW_SPANS: usize = 100_000;

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Sequence number, from 1.
    pub id: u32,
    /// The enclosing span's id, 0 for a root.
    pub parent: u32,
    /// Layer call, e.g. `cluster.submit`.
    pub name: &'static str,
    /// Request (or tenant) the span belongs to; spans of one request share it.
    pub key: u64,
    /// Start, nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was made.
    pub end_ns: u64,
}

/// Aggregates of every span with one name.
#[derive(Debug, Clone, Default)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus the time their child spans cover, ns.
    pub self_ns: u64,
    /// Duration distribution, ns.
    pub hist: Hist,
}

impl SpanTotals {
    /// Mean duration in ns (0 with no spans).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[derive(Debug)]
struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    key: u64,
    start_ns: u64,
    child_ns: u64,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    recording: bool,
    origin: Instant,
    next_id: u32,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, SpanTotals>,
    raw: Vec<Span>,
    recorded: u64,
}

impl Tracer {
    /// A tracer; a disabled one ignores every call.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            recording: enabled,
            origin: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            totals: BTreeMap::new(),
            raw: Vec::new(),
            recorded: 0,
        }
    }

    /// Whether this is a traced run's tracer.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether spans are being recorded right now.
    #[must_use]
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Pauses or resumes recording; a disabled tracer stays silent. Only
    /// between spans: nothing may be open.
    pub fn set_recording(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "pause with open spans");
        self.recording = self.enabled && on;
    }

    /// Nanoseconds since the tracer was made (its span clock).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished leaf span, for calls timed by the caller and
    /// named only once their outcome is known.
    pub fn record(&mut self, name: &'static str, key: u64, start_ns: u64, end_ns: u64) {
        self.enter_at(name, key, start_ns);
        self.exit_at(end_ns);
    }

    /// Opens a span named `name` for `key`, nested in the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, key: u64) {
        if self.recording {
            let t = self.now_ns();
            self.enter_at(name, key, t);
        }
    }

    /// Closes the innermost open span; returns its duration in ns.
    #[inline]
    pub fn exit(&mut self) -> Option<u64> {
        if self.recording {
            let t = self.now_ns();
            self.exit_at(t)
        } else {
            None
        }
    }

    /// [`enter`](Self::enter) at an explicit time.
    pub fn enter_at(&mut self, name: &'static str, key: u64, start_ns: u64) {
        if !self.recording {
            return;
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let parent = self.stack.last().map_or(0, |o| o.id);
        self.stack.push(Open {
            id,
            parent,
            name,
            key,
            start_ns,
            child_ns: 0,
        });
    }

    /// [`exit`](Self::exit) at an explicit time.
    pub fn exit_at(&mut self, end_ns: u64) -> Option<u64> {
        if !self.recording {
            return None;
        }
        let open = self.stack.pop()?;
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        t.hist.record(dur);
        self.recorded += 1;
        if self.raw.len() < RAW_SPANS {
            self.raw.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                key: open.key,
                start_ns: open.start_ns,
                end_ns,
            });
        }
        Some(dur)
    }

    /// Spans recorded so far (0 for a disabled tracer).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Aggregates for `name` (empty when no such span was recorded).
    #[must_use]
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.totals.get(name).cloned().unwrap_or_default()
    }

    /// Every span name with its aggregates.
    pub fn all_totals(&self) -> impl Iterator<Item = (&'static str, &SpanTotals)> {
        self.totals.iter().map(|(k, v)| (*k, v))
    }

    /// The verbatim spans, as tab-separated lines with a header.
    #[must_use]
    pub fn render_raw(&self) -> String {
        let mut out = String::from("id\tparent\tname\tkey\tstart_ns\tend_ns\n");
        for s in &self.raw {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage() {
        let mut t = Tracer::new(true);
        t.enter_at("frontend.pump", 7, 0);
        t.enter_at("service.flush", 7, 10);
        t.exit_at(30);
        t.enter_at("service.flush", 7, 50);
        t.enter_at("fabric.eval", 7, 52);
        t.exit_at(58);
        t.exit_at(60);
        assert_eq!(t.exit_at(100), Some(100));
        let pump = t.totals("frontend.pump");
        assert_eq!((pump.count, pump.total_ns, pump.self_ns), (1, 100, 70));
        let flush = t.totals("service.flush");
        assert_eq!((flush.count, flush.total_ns, flush.self_ns), (2, 30, 24));
        let eval = t.totals("fabric.eval");
        assert_eq!((eval.total_ns, eval.self_ns), (6, 6));
        assert_eq!(t.recorded(), 4);
        // parents link children to the enclosing span
        let raw = t.render_raw();
        assert!(raw.contains("4\t3\tfabric.eval\t7\t52\t58"), "{raw}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("cluster.submit", 1);
        assert_eq!(t.exit(), None);
        t.enter_at("cluster.submit", 1, 0);
        assert_eq!(t.exit_at(5), None);
        assert_eq!(t.recorded(), 0);
        assert_eq!(t.all_totals().count(), 0);
        assert_eq!(t.totals("cluster.submit").count, 0);
        t.set_recording(true);
        t.enter_at("cluster.submit", 1, 0);
        assert_eq!(t.exit_at(5), None, "a disabled tracer cannot be resumed");
    }

    #[test]
    fn paused_tracer_skips_spans() {
        let mut t = Tracer::new(true);
        t.set_recording(false);
        t.enter_at("cluster.submit", 1, 0);
        assert_eq!(t.exit_at(5), None);
        t.set_recording(true);
        t.enter_at("cluster.submit", 2, 10);
        assert_eq!(t.exit_at(15), Some(5));
        assert_eq!(t.totals("cluster.submit").count, 1);
    }
}
