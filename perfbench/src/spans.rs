//! In-memory spans recorded around calls into the program's layers.
//!
//! Each span has a name, start, end, the span that was open when it
//! began (its parent) and the op it belongs to. Spans are kept in memory
//! and written out once the run ends; a layer's self time is its span's
//! duration minus the durations of its child spans.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// What distinguishes spans of one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    None,
    Window(usize),
    Policy(&'static str),
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub tag: Tag,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        op: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Sets the op id stamped on spans opened from now on.
pub fn set_op(op: u64) {
    TRACER.with(|t| t.borrow_mut().op = op);
}

/// Runs `f` inside a span.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span_tagged(name, Tag::None, f)
}

/// Runs `f` inside a tagged span.
pub fn span_tagged<T>(name: &'static str, tag: Tag, f: impl FnOnce() -> T) -> T {
    let index = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let index = t.spans.len();
        let span = Span {
            name,
            tag,
            op: t.op,
            parent: t.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        };
        t.spans.push(span);
        t.open.push(index);
        let start = t.epoch.elapsed().as_nanos() as u64;
        t.spans[index].start_ns = start;
        index
    });
    let out = f();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end = t.epoch.elapsed().as_nanos() as u64;
        t.spans[index].end_ns = end;
        t.open.pop();
    });
    out
}

/// Every span recorded on this thread so far, in start order.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Per-span self time: duration minus the durations of direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Total self time and span count per (name, tag).
pub fn totals(spans: &[Span]) -> HashMap<(&'static str, Tag), (u64, u64)> {
    let mut out: HashMap<(&'static str, Tag), (u64, u64)> = HashMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry((s.name, s.tag)).or_default();
        e.0 += self_ns;
        e.1 += 1;
    }
    out
}

/// The spans as JSON lines: name, tag, op, parent, start and end (ns).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let tag = match s.tag {
            Tag::None => String::new(),
            Tag::Window(w) => format!("w{w}"),
            Tag::Policy(p) => p.to_string(),
        };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"tag\":\"{tag}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.op, s.start_ns, s.end_ns
        );
    }
    out
}
