//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The product has no spans of its own yet, so a traced run sees the
//! layers from outside: `op` → `core.update_bid`, `core.serve` (whose
//! phase children are rebuilt from the `PhaseStats` the call returns) in
//! process, and `op` → `client.encode`, `client.send`, `client.wait`,
//! `client.decode` on the wire, where `client.wait` is the sum of every
//! server-side stage.
//!
//! A [`Tracer`] belongs to one thread. It keeps the first `capacity` spans
//! in a vector sized up front (they go to the trace file) and totals for
//! every span, kept or not (they go to the summary), so a long traced
//! phase neither reallocates nor grows the file without bound.

use crate::json::{obj, Json};
use std::io::Write;
use std::time::{Duration, Instant};

/// The span names the benchmark records, in a fixed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    Op,
    CoreUpdateBid,
    CoreServe,
    CoreProgramEval,
    CoreMatrixFill,
    CoreSolve,
    CoreSettlement,
    CorePricing,
    ClientEncode,
    ClientSend,
    ClientWait,
    ClientDecode,
}

impl SpanName {
    pub const ALL: [SpanName; 12] = [
        SpanName::Op,
        SpanName::CoreUpdateBid,
        SpanName::CoreServe,
        SpanName::CoreProgramEval,
        SpanName::CoreMatrixFill,
        SpanName::CoreSolve,
        SpanName::CoreSettlement,
        SpanName::CorePricing,
        SpanName::ClientEncode,
        SpanName::ClientSend,
        SpanName::ClientWait,
        SpanName::ClientDecode,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Op => "op",
            SpanName::CoreUpdateBid => "core.update_bid",
            SpanName::CoreServe => "core.serve",
            SpanName::CoreProgramEval => "core.program_eval",
            SpanName::CoreMatrixFill => "core.matrix_fill",
            SpanName::CoreSolve => "core.solve",
            SpanName::CoreSettlement => "core.settlement",
            SpanName::CorePricing => "core.pricing",
            SpanName::ClientEncode => "client.encode",
            SpanName::ClientSend => "client.send",
            SpanName::ClientWait => "client.wait",
            SpanName::ClientDecode => "client.decode",
        }
    }
}

/// Index of a span's parent when it has none (or its parent was not kept).
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: SpanName,
    /// Operation the span belongs to; spans of one operation share it.
    op: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// A span that has begun. The tracer keeps the nested ones on its stack;
/// the caller holds a *detached* one itself — a pipelined wire operation is
/// open from its send to its receive while other operations' stages run.
#[derive(Debug)]
pub struct OpenSpan {
    name: SpanName,
    op: u64,
    /// Index in `spans`, or `NO_PARENT` when the vector was already full.
    index: u32,
    start_ns: u64,
    /// Time covered by children closed so far.
    children_ns: u64,
}

/// Count, total time and self time of one span name over a traced phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total time minus the part covered by child spans.
    pub self_ns: u64,
}

impl SpanTotals {
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    capacity: usize,
    stack: Vec<OpenSpan>,
    totals: [SpanTotals; SpanName::ALL.len()],
}

impl Tracer {
    /// A tracer whose clock starts at `epoch` (threads of one run share
    /// it, so their spans share a time axis).
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
            capacity,
            stack: Vec::with_capacity(8),
            totals: [SpanTotals::default(); SpanName::ALL.len()],
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push_span(&mut self, name: SpanName, op: u64, start_ns: u64, end_ns: u64) -> u32 {
        if self.spans.len() >= self.capacity {
            return NO_PARENT;
        }
        let parent = self.stack.last().map_or(NO_PARENT, |open| open.index);
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    fn account(&mut self, name: SpanName, duration_ns: u64, children_ns: u64) {
        let totals = &mut self.totals[name as usize];
        totals.count += 1;
        totals.total_ns += duration_ns;
        totals.self_ns += duration_ns.saturating_sub(children_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += duration_ns;
        }
    }

    fn begin(&mut self, name: SpanName, op: u64) -> OpenSpan {
        let start_ns = self.now_ns();
        OpenSpan {
            name,
            op,
            index: self.push_span(name, op, start_ns, start_ns),
            start_ns,
            children_ns: 0,
        }
    }

    fn end(&mut self, span: OpenSpan) {
        let end_ns = self.now_ns();
        if let Some(kept) = self.spans.get_mut(span.index as usize) {
            kept.end_ns = end_ns;
        }
        self.account(span.name, end_ns - span.start_ns, span.children_ns);
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: SpanName, op: u64) {
        let span = self.begin(name, op);
        self.stack.push(span);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let span = self.stack.pop().expect("close without a matching open");
        self.end(span);
    }

    /// Records finished child spans of the innermost open span from
    /// durations alone, laid end to end from the parent's start: how the
    /// phase children of `core.serve` are rebuilt from `PhaseStats`.
    pub fn children_from_durations(&mut self, op: u64, children: &[(SpanName, u64)]) {
        let mut start_ns = self.stack.last().map_or(0, |open| open.start_ns);
        for &(name, duration_ns) in children {
            self.push_span(name, op, start_ns, start_ns + duration_ns);
            self.account(name, duration_ns, 0);
            start_ns += duration_ns;
        }
    }

    /// Opens a span outside the stack, for the caller to hold.
    pub fn open_detached(&mut self, name: SpanName, op: u64) -> OpenSpan {
        self.begin(name, op)
    }

    /// Runs `f` as a child span of the detached span `parent`.
    pub fn timed_child<T>(
        &mut self,
        parent: &mut OpenSpan,
        name: SpanName,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let result = f();
        let end_ns = self.now_ns();
        let index = self.push_span(name, parent.op, start_ns, end_ns);
        if let Some(span) = self.spans.get_mut(index as usize) {
            span.parent = parent.index;
        }
        self.account(name, end_ns - start_ns, 0);
        parent.children_ns += end_ns - start_ns;
        result
    }

    pub fn close_detached(&mut self, span: OpenSpan) {
        self.end(span);
    }

    pub fn totals(&self, name: SpanName) -> SpanTotals {
        self.totals[name as usize]
    }

    /// Folds another thread's tracer into this one: totals add, kept spans
    /// append with their parent links shifted.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            if span.parent != NO_PARENT {
                span.parent += shift;
            }
            span
        }));
        for (mine, theirs) in self.totals.iter_mut().zip(other.totals) {
            mine.count += theirs.count;
            mine.total_ns += theirs.total_ns;
            mine.self_ns += theirs.self_ns;
        }
    }

    /// Per-name totals as JSON, for the trace file and the printed summary.
    pub fn summary_json(&self) -> Json {
        Json::Arr(
            SpanName::ALL
                .iter()
                .filter(|name| self.totals(**name).count > 0)
                .map(|&name| {
                    let t = self.totals(name);
                    obj([
                        ("name", name.as_str().into()),
                        ("count", t.count.into()),
                        ("total_us", (t.total_ns as f64 / 1e3).into()),
                        ("self_us", (t.self_ns as f64 / 1e3).into()),
                        (
                            "self_us_per_span",
                            (t.self_ns as f64 / 1e3 / t.count as f64).into(),
                        ),
                    ])
                })
                .collect(),
        )
    }

    /// Writes the kept spans and the summary as one JSON document.
    pub fn write_json(&self, out: &mut impl Write, header: &Json) -> std::io::Result<()> {
        writeln!(out, "{{\"run\":{},", header.render())?;
        writeln!(out, "\"summary\":{},", self.summary_json().render())?;
        writeln!(out, "\"spans_kept\":{},", self.spans.len())?;
        writeln!(out, "\"spans\":[")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{}",
                span.name.as_str(),
                span.op,
                span.start_ns,
                span.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_full_vector_still_counts() {
        let mut tracer = Tracer::new(Instant::now(), 3);
        for op in 0..2 {
            tracer.open(SpanName::Op, op);
            tracer.open(SpanName::CoreServe, op);
            tracer.children_from_durations(
                op,
                &[(SpanName::CoreSolve, 10), (SpanName::CorePricing, 5)],
            );
            tracer.close();
            tracer.close();
        }
        assert_eq!(tracer.spans.len(), 3, "capacity caps kept spans");
        assert_eq!(tracer.totals(SpanName::Op).count, 2);
        assert_eq!(tracer.totals(SpanName::CoreSolve).total_ns, 20);
        let serve = tracer.totals(SpanName::CoreServe);
        assert!(serve.self_ns <= serve.total_ns);
        assert_eq!(tracer.totals(SpanName::Op).self_ns, {
            let op = tracer.totals(SpanName::Op);
            op.total_ns - serve.total_ns
        });
        assert_eq!(tracer.spans[1].parent, 0);
        assert_eq!(tracer.spans[2].parent, 1);

        let mut text = Vec::new();
        tracer
            .write_json(&mut text, &obj([("workload", "x".into())]))
            .unwrap();
        let doc = Json::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_array().unwrap().len(), 3);
    }
}
