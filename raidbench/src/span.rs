//! Host-time spans recorded from the benchmark's own code around every
//! call into a layer of the simulator.
//!
//! A span has a name, a start, an end, the span that encloses it and the
//! id of the operation it belongs to. Recording is off unless the run is
//! traced; an untraced [`span`] call is one thread-local flag test. While
//! on, every span is aggregated by name as it closes (count, duration and
//! self time = duration minus the time covered by its child spans) and
//! kept in memory up to [`KEEP`] raw records, which [`write_chrome`]
//! writes out when the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Raw span records kept for the trace file; aggregation continues past it.
const KEEP: usize = 100_000;

/// One closed span, times in nanoseconds since the recorder was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the kept records, if it was kept.
    pub parent: Option<u32>,
    pub op: u64,
}

/// Per-name totals of the closed spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates since the last [`take`]: per-name totals and the time
/// covered by root spans (spans with no enclosing span).
#[derive(Debug, Clone, Default)]
pub struct Totals {
    pub by_name: BTreeMap<&'static str, Agg>,
    pub root_ns: u64,
}

impl Totals {
    /// Duration summed over every span whose name starts with `prefix`.
    pub fn total_s(&self, prefix: &str) -> f64 {
        self.sum(prefix, |a| a.total_ns)
    }

    /// Self time summed over every span whose name starts with `prefix`.
    pub fn self_s(&self, prefix: &str) -> f64 {
        self.sum(prefix, |a| a.self_ns)
    }

    /// Add the aggregates of `other`.
    pub fn add(&mut self, other: Totals) {
        self.root_ns += other.root_ns;
        for (name, a) in other.by_name {
            let e = self.by_name.entry(name).or_default();
            e.count += a.count;
            e.total_ns += a.total_ns;
            e.self_ns += a.self_ns;
        }
    }

    /// Number of spans whose name starts with `prefix`.
    pub fn count(&self, prefix: &str) -> u64 {
        self.by_name.iter().filter(|(n, _)| n.starts_with(prefix)).map(|(_, a)| a.count).sum()
    }

    fn sum(&self, prefix: &str, f: impl Fn(&Agg) -> u64) -> f64 {
        let ns: u64 =
            self.by_name.iter().filter(|(n, _)| n.starts_with(prefix)).map(|(_, a)| f(a)).sum();
        ns as f64 / 1e9
    }
}

struct Open {
    name: &'static str,
    start: Instant,
    kept: Option<u32>,
    child_ns: u64,
}

struct Recorder {
    epoch: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    totals: Totals,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static OP: Cell<u64> = const { Cell::new(0) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        stack: Vec::new(),
        spans: Vec::new(),
        totals: Totals::default(),
    });
}

/// Turn span recording on or off.
pub fn set_tracing(on: bool) {
    ON.with(|c| c.set(on));
}

/// Tag the spans opened from now on with operation `op`.
pub fn set_op(op: u64) {
    OP.with(|c| c.set(op));
}

/// Run `f` inside a span named `name` (just run it when recording is off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ON.with(Cell::get) {
        return f();
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let start = Instant::now();
        let parent = r.stack.last().and_then(|o| o.kept);
        let kept = (r.spans.len() < KEEP).then(|| {
            let start_ns = start.duration_since(r.epoch).as_nanos() as u64;
            let op = OP.with(Cell::get);
            r.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
            (r.spans.len() - 1) as u32
        });
        r.stack.push(Open { name, start, kept, child_ns: 0 });
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end = Instant::now();
        let open = r.stack.pop().expect("span stack underflow");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(i) = open.kept {
            r.spans[i as usize].end_ns = end.duration_since(r.epoch).as_nanos() as u64;
        }
        match r.stack.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => r.totals.root_ns += dur,
        }
        let agg = r.totals.by_name.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
    });
    out
}

/// Return and reset the aggregates (the kept raw spans stay).
pub fn take() -> Totals {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().totals))
}

/// Write the kept spans as Chrome trace-event JSON (loadable by Perfetto):
/// one complete event per span, with its op id and parent index as args.
pub fn write_chrome(path: &std::path::Path) -> std::io::Result<usize> {
    REC.with(|r| {
        let r = r.borrow();
        let mut out = String::with_capacity(r.spans.len() * 96 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in r.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, i64::from);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            ));
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)?;
        Ok(r.spans.len())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        set_tracing(true);
        let _ = take();
        span("outer", || {
            span("inner", || std::thread::sleep(std::time::Duration::from_millis(3)));
        });
        set_tracing(false);
        let t = take();
        let outer = t.by_name["outer"];
        let inner = t.by_name["inner"];
        assert_eq!(outer.count, 1);
        assert!(inner.total_ns >= 3_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(t.root_ns, outer.total_ns);
    }
}
