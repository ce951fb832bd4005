//! Spans recorded from outside the program: the benchmark wraps each
//! call into a layer's public function in a span (name, start, end,
//! parent, operation id), keeps them in preallocated memory, writes
//! them out once the run is over, and derives each layer's self time
//! (its spans minus the part their children cover).
//!
//! A recorder that is off costs one branch per call site and never
//! reads the clock, so the untraced run measures the program alone.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// "No parent" / "not recorded".
const NONE: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer boundary the span wraps (`crate.function`).
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, [`NONE`] at top level.
    pub parent: u32,
    /// Operation the span belongs to (burst, wave, datagram … index).
    pub op: u64,
    /// Calls into the layer the span covers: 1 for a single call, the
    /// sweep length when one span covers a whole sweep of a per-packet
    /// function (never one clock read per 20 ns call).
    pub calls: u64,
}

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct SpanId(u32);

/// An in-memory span recorder for one thread.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    cap: usize,
    /// Spans not recorded because the preallocated memory was full.
    pub overflowed: u64,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cap: 0,
            overflowed: 0,
        }
    }

    /// A recorder with room for `cap` spans, stamping against `epoch`
    /// (shared between the threads of one run so their spans line up).
    pub fn on(epoch: Instant, cap: usize) -> Self {
        Recorder {
            epoch,
            spans: Vec::with_capacity(cap),
            open: Vec::with_capacity(16),
            cap,
            overflowed: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if self.cap == 0 {
            return SpanId(NONE);
        }
        if self.spans.len() >= self.cap {
            self.overflowed += 1;
            return SpanId(NONE);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op, calls: 1 });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span, recording
    /// how many calls into the layer it covered.
    #[inline]
    pub fn end(&mut self, id: SpanId, calls: u64) {
        if id.0 == NONE {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id.0), "spans must nest");
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        span.calls = calls;
    }

    /// Runs `f` inside a span covering `calls` calls into `name`.
    #[inline]
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        calls: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = self.begin(name, op);
        let r = f(self);
        self.end(id, calls);
        r
    }

    /// Appends another thread's spans (parent links stay intact).
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len() as u32;
        self.overflowed += other.overflowed;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += offset;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// What one layer boundary cost over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub spans: u64,
    pub calls: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans. Children of
    /// one span never overlap (each thread's spans nest), so the
    /// covered part is the sum of the children's durations.
    pub self_ns: u64,
    /// Self time per call, ns: the lower quartile over this name's
    /// spans of `self time ÷ calls`. Interference only ever lengthens a
    /// span, so the lower quartile is the layer's cost on an
    /// undisturbed host — the best pass of a sweep, the typical call of
    /// a per-call span. 0 when the layer was never called.
    pub ns_per_call: f64,
}

/// Per-name totals and self times.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            covered[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    let mut per_call: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(covered);
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.calls += s.calls;
        t.total_ns += dur;
        t.self_ns += own;
        if s.calls > 0 {
            per_call.entry(s.name).or_default().push(own as f64 / s.calls as f64);
        }
    }
    for (name, values) in per_call {
        let sorted = crate::stats::sorted(values);
        out.get_mut(name).expect("same names").ns_per_call =
            crate::stats::percentile(&sorted, 0.25).unwrap_or(0.0);
    }
    out
}

/// Writes one JSON object per span, one per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NONE { "null".to_string() } else { s.parent.to_string() };
        writeln!(
            w,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
             \"op\": {}, \"calls\": {}}}",
            s.name, s.start_ns, s.end_ns, s.op, s.calls
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_records_nothing() {
        let mut r = Recorder::off();
        let id = r.begin("a", 0);
        r.end(id, 1);
        assert!(r.spans().is_empty());
        assert!(!r.enabled());
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span { name: "outer", start_ns: 0, end_ns: 100, parent: NONE, op: 0, calls: 1 },
            Span { name: "inner", start_ns: 10, end_ns: 40, parent: 0, op: 0, calls: 3 },
            Span { name: "inner", start_ns: 50, end_ns: 70, parent: 0, op: 0, calls: 2 },
        ];
        let t = layer_times(&spans);
        assert_eq!(
            t["outer"],
            LayerTime { spans: 1, calls: 1, total_ns: 100, self_ns: 50, ns_per_call: 50.0 }
        );
        // Per call 30/3 = 10 and 20/2 = 10.
        assert_eq!(
            t["inner"],
            LayerTime { spans: 2, calls: 5, total_ns: 50, self_ns: 50, ns_per_call: 10.0 }
        );
    }

    #[test]
    fn full_recorder_counts_overflow_and_absorb_keeps_parents() {
        let mut a = Recorder::on(Instant::now(), 2);
        a.span("x", 0, 1, |r| r.span("y", 0, 1, |r| r.span("z", 0, 1, |_| ())));
        assert_eq!(a.spans().len(), 2);
        assert_eq!(a.overflowed, 1);
        let mut b = Recorder::on(a.epoch(), 8);
        b.span("w", 1, 1, |_| ());
        b.absorb(a);
        assert_eq!(b.spans()[2].parent, 1, "y's parent x moved from 0 to 1");
        assert_eq!(b.overflowed, 1);
    }
}
