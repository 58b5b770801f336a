//! Harness-side spans around every call into a layer's public function.
//!
//! The phase loops are generic over [`Tracer`]: the end-to-end run is
//! monomorphised with [`NoTrace`] (every method an empty inline), the
//! traced run with [`MemTrace`], which keeps spans in a preallocated
//! buffer and writes them out as JSON lines when the workload ends.
//! A span's self time is its duration minus its direct children's.

use std::io::Write;
use std::time::Instant;

/// The span vocabulary: `<layer>.<call>`; layer = crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    /// Root: one application-level operation (or one chain of 32).
    AppOp,
    /// `FfQp::post_send` / `post_send_batch`.
    CorePostSend,
    /// `FfQp::post_recv`.
    CorePostRecv,
    /// `Container::create_cq` + `create_qp`.
    CoreCreateQp,
    /// `FfQp::connect`.
    CoreQpConnect,
    /// `CompletionQueue::wait_one` / `poll_many`.
    VerbsCqWait,
    /// `FfStream::write_all`.
    SocketWriteAll,
    /// `FfStream::read_exact`.
    SocketReadExact,
    /// `SocketStack::connect`.
    SocketConnect,
}

impl SpanName {
    /// Every name, in discriminant order.
    pub const ALL: [SpanName; 9] = [
        SpanName::AppOp,
        SpanName::CorePostSend,
        SpanName::CorePostRecv,
        SpanName::CoreCreateQp,
        SpanName::CoreQpConnect,
        SpanName::VerbsCqWait,
        SpanName::SocketWriteAll,
        SpanName::SocketReadExact,
        SpanName::SocketConnect,
    ];

    /// The name as written to the trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::AppOp => "app.op",
            SpanName::CorePostSend => "core.post_send",
            SpanName::CorePostRecv => "core.post_recv",
            SpanName::CoreCreateQp => "core.create_qp",
            SpanName::CoreQpConnect => "core.qp_connect",
            SpanName::VerbsCqWait => "verbs.cq_wait",
            SpanName::SocketWriteAll => "socket.write_all",
            SpanName::SocketReadExact => "socket.read_exact",
            SpanName::SocketConnect => "socket.connect",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which call.
    pub name: SpanName,
    /// Phase index (see `phases::Phase`) the span belongs to.
    pub phase: u8,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span in the buffer, if recorded.
    pub parent: Option<u32>,
    /// Shared by all spans of one application operation.
    pub op_id: u64,
}

/// An open span, returned by `begin` and consumed by `end`.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    name: SpanName,
    start_ns: u64,
    slot: Option<u32>,
}

/// Totals per `(phase, name)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations of direct children.
    pub child_ns: u64,
}

impl SpanTotals {
    /// Time spent in the span itself, not in its children.
    pub fn self_ns(&self) -> u64 {
        self.total_ns - self.child_ns
    }
}

/// What the phase loops call. `begin`/`end` must nest.
pub trait Tracer {
    /// Tag subsequent spans with `phase`.
    fn set_phase(&mut self, phase: u8);
    /// Open a span; a root ([`SpanName::AppOp`]) starts a new `op_id`.
    fn begin(&mut self, name: SpanName) -> Token;
    /// Close the innermost open span.
    fn end(&mut self, token: Token);
}

/// Tracing off: compiles to nothing.
#[derive(Debug, Default)]
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn set_phase(&mut self, _phase: u8) {}
    #[inline(always)]
    fn begin(&mut self, name: SpanName) -> Token {
        Token {
            name,
            start_ns: 0,
            slot: None,
        }
    }
    #[inline(always)]
    fn end(&mut self, _token: Token) {}
}

const MAX_PHASES: usize = 8;
const MAX_DEPTH: usize = 4;

/// Tracing on: totals for every span, plus the operations that start
/// within the first `capacity / MAX_PHASES` spans of each phase kept
/// verbatim.
pub struct MemTrace {
    origin: Instant,
    phase: u8,
    next_op: u64,
    spans: Vec<Span>,
    phase_quota: usize,
    phase_used: [usize; MAX_PHASES],
    /// Open spans: `(name, duration of closed children)`.
    open: [(SpanName, u64, Option<u32>); MAX_DEPTH],
    depth: usize,
    totals: [[SpanTotals; SpanName::ALL.len()]; MAX_PHASES],
}

impl MemTrace {
    /// A tracer that keeps at most `capacity` spans verbatim.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            phase: 0,
            next_op: 0,
            spans: Vec::with_capacity(capacity),
            phase_quota: capacity / MAX_PHASES,
            phase_used: [0; MAX_PHASES],
            open: [(SpanName::AppOp, 0, None); MAX_DEPTH],
            depth: 0,
            totals: [[SpanTotals::default(); SpanName::ALL.len()]; MAX_PHASES],
        }
    }

    /// `begin` with an explicit clock (tests drive this by hand).
    pub fn begin_at(&mut self, name: SpanName, now_ns: u64) -> Token {
        assert!(
            self.depth < MAX_DEPTH,
            "span nesting deeper than {MAX_DEPTH}"
        );
        if self.depth == 0 {
            self.next_op += 1;
        }
        let phase = self.phase as usize;
        let parent = self.depth.checked_sub(1).and_then(|d| self.open[d].2);
        // An operation is kept whole or not at all, so a kept span's
        // children are always in the buffer with it.
        let keep = match self.depth {
            0 => self.phase_used[phase] < self.phase_quota,
            _ => parent.is_some(),
        };
        let slot = if keep {
            self.phase_used[phase] += 1;
            self.spans.push(Span {
                name,
                phase: self.phase,
                start_ns: now_ns,
                end_ns: 0,
                parent,
                op_id: self.next_op,
            });
            Some((self.spans.len() - 1) as u32)
        } else {
            None
        };
        self.open[self.depth] = (name, 0, slot);
        self.depth += 1;
        Token {
            name,
            start_ns: now_ns,
            slot,
        }
    }

    /// `end` with an explicit clock.
    pub fn end_at(&mut self, token: Token, now_ns: u64) {
        assert!(self.depth > 0, "end without begin");
        self.depth -= 1;
        let (name, child_ns, _) = self.open[self.depth];
        assert_eq!(name, token.name, "spans must nest");
        let dur = now_ns - token.start_ns;
        let t = &mut self.totals[self.phase as usize][name as usize];
        t.count += 1;
        t.total_ns += dur;
        t.child_ns += child_ns;
        if self.depth > 0 {
            self.open[self.depth - 1].1 += dur;
        }
        if let Some(slot) = token.slot {
            self.spans[slot as usize].end_ns = now_ns;
        }
    }

    /// Totals for `name` within `phase`.
    pub fn totals(&self, phase: u8, name: SpanName) -> SpanTotals {
        self.totals[phase as usize][name as usize]
    }

    /// The spans kept verbatim.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the kept spans as JSON lines; `phase_names[i]` labels phase `i`.
    pub fn write_jsonl(&self, out: &mut impl Write, phase_names: &[&str]) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        for (id, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"phase\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"self_ns\":{self_ns},\"parent\":{parent},\"op_id\":{}}}",
                s.name.as_str(),
                phase_names[s.phase as usize],
                s.start_ns,
                s.end_ns,
                s.op_id
            )?;
        }
        Ok(())
    }
}

impl Tracer for MemTrace {
    fn set_phase(&mut self, phase: u8) {
        assert!((phase as usize) < MAX_PHASES);
        self.phase = phase;
    }
    #[inline]
    fn begin(&mut self, name: SpanName) -> Token {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.begin_at(name, now)
    }
    #[inline]
    fn end(&mut self, token: Token) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.end_at(token, now);
    }
}

/// Self time of every span: duration minus the durations of the spans
/// that name it as `parent`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p as usize] -= s.end_ns - s.start_ns;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = MemTrace::with_capacity(64);
        t.set_phase(1);
        // op [0, 100): post [10, 30), wait [30, 90) — self = 100 - 20 - 60.
        let op = t.begin_at(SpanName::AppOp, 0);
        let post = t.begin_at(SpanName::CorePostSend, 10);
        t.end_at(post, 30);
        let wait = t.begin_at(SpanName::VerbsCqWait, 30);
        t.end_at(wait, 90);
        t.end_at(op, 100);
        // A second op with no children.
        let op = t.begin_at(SpanName::AppOp, 200);
        t.end_at(op, 250);

        let app = t.totals(1, SpanName::AppOp);
        assert_eq!((app.count, app.total_ns, app.child_ns), (2, 150, 80));
        assert_eq!(app.self_ns(), 70);
        assert_eq!(t.totals(1, SpanName::VerbsCqWait).self_ns(), 60);
        assert_eq!(t.totals(0, SpanName::AppOp), SpanTotals::default());

        assert_eq!(self_times(t.spans()), vec![20, 20, 60, 50]);
        let ops: Vec<u64> = t.spans().iter().map(|s| s.op_id).collect();
        assert_eq!(ops, vec![1, 1, 1, 2]);
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.spans()[3].parent, None);
    }

    #[test]
    fn buffer_quota_caps_kept_spans_but_not_totals() {
        let mut t = MemTrace::with_capacity(MAX_PHASES * 2);
        for i in 0..5 {
            let op = t.begin_at(SpanName::AppOp, i * 10);
            t.end_at(op, i * 10 + 4);
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.totals(0, SpanName::AppOp).count, 5);
        assert_eq!(t.totals(0, SpanName::AppOp).total_ns, 20);
        let mut out = Vec::new();
        t.write_jsonl(&mut out, &["lat"]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with(
            "{\"id\":0,\"name\":\"app.op\",\"phase\":\"lat\",\"start_ns\":0,\"end_ns\":4,\
             \"self_ns\":4,\"parent\":null,\"op_id\":1}"
        ));
    }
}
