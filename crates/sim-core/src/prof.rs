//! Host-side engine profiling: deterministic work counters plus advisory
//! wall-clock phase spans, joined with the tracer into the engine's one
//! observation channel (the private `Observer`).
//!
//! * [`EngineStats`] — always-on, machine-independent work counters
//!   (events popped, heap pushes, queue-scan iterations, task-slot
//!   allocations, tracer calls). They depend only on the simulated
//!   workload, never on the host, so they are *gateable*: verify pass
//!   `perf-smoke` compares them against the committed
//!   `BENCH_engine.json` baseline to catch algorithmic regressions (an
//!   O(n) scan quietly turning O(n²)) without ever trusting a clock.
//! * [`HostProfiler`] — an opt-in, sampled wall-clock profiler over the
//!   engine's dispatch phases, installed with
//!   [`crate::Engine::set_profiler`]. Wall-clock numbers are *advisory*
//!   only: they never feed back into simulated time or results, and
//!   this module is the single sanctioned home for host clocks in
//!   `sim-core` — every `Instant` use below carries a `det-ok`
//!   acknowledgement for the determinism scans.
//! * `Observer` — the stats, the optional [`crate::trace::Tracer`] and
//!   the optional profiler (absent = one branch per hook site). Every
//!   engine trace record and profiler span goes through it.

use std::time::Instant;

use crate::time::SimTime;
use crate::trace::{TraceEvent, Tracer};

/// The engine's one observation channel (see the module docs).
#[derive(Default)]
pub(crate) struct Observer {
    pub(crate) stats: EngineStats,
    pub(crate) tracer: Option<Box<dyn Tracer>>,
    pub(crate) prof: Option<Box<HostProfiler>>,
}

impl Observer {
    /// Record `make()` in a [`Phase::Tracer`] span, if a tracer is installed.
    pub(crate) fn emit(&mut self, at: SimTime, make: impl FnOnce() -> TraceEvent) {
        if let Some(tr) = self.tracer.as_mut() {
            if let Some(p) = self.prof.as_mut() {
                p.enter(Phase::Tracer);
            }
            tr.record(at, make());
            self.stats.on_tracer_records(1);
            if let Some(p) = self.prof.as_mut() {
                p.exit();
            }
        }
    }

    /// Count one dispatched event and open the profiler's event bracket.
    pub(crate) fn event_begin(&mut self) {
        self.stats.on_event();
        if let Some(p) = self.prof.as_mut() {
            p.event_begin();
        }
    }

    /// Close the profiler's event bracket.
    pub(crate) fn event_end(&mut self) {
        if let Some(p) = self.prof.as_mut() {
            p.event_end();
        }
    }

    /// Open a profiler span (no-op without a profiler).
    pub(crate) fn enter(&mut self, phase: Phase) {
        if let Some(p) = self.prof.as_mut() {
            p.enter(phase);
        }
    }

    /// Close the innermost profiler span (no-op without a profiler).
    pub(crate) fn exit(&mut self) {
        if let Some(p) = self.prof.as_mut() {
            p.exit();
        }
    }
}

/// Deterministic lifetime work counters of one [`crate::Engine`].
///
/// Counters only ever grow (saturating at `u64::MAX`), count *work
/// performed* rather than time spent, and are identical across hosts for
/// the same workload — the property the `perf-smoke` verify pass gates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events popped off the heap and dispatched.
    pub events: u64,
    /// Events pushed onto the heap ([`crate::Engine`] `schedule`).
    pub heap_pushes: u64,
    /// Largest event-heap population observed right after a push.
    pub heap_peak: u64,
    /// Tasks spawned (every `Par` child is its own task).
    pub tasks_spawned: u64,
    /// Spawns that had to allocate a fresh task slot (the remainder
    /// reused a free-list slot).
    pub task_slot_allocs: u64,
    /// Demands shown to `select_next` by reordering models (FIFO: never).
    pub queue_scan_iters: u64,
    /// Individual `Tracer::record` calls dispatched.
    pub tracer_records: u64,
}

impl EngineStats {
    /// Count one event pop + dispatch.
    pub fn on_event(&mut self) {
        self.events = self.events.saturating_add(1);
    }

    /// Count one heap push; `len_after` is the heap size after it.
    pub fn on_heap_push(&mut self, len_after: usize) {
        self.heap_pushes = self.heap_pushes.saturating_add(1);
        self.heap_peak = self.heap_peak.max(len_after as u64);
    }

    /// Count one task spawn; `fresh_slot` means a new slot was allocated
    /// rather than reused from the free list.
    pub fn on_task_spawn(&mut self, fresh_slot: bool) {
        self.tasks_spawned = self.tasks_spawned.saturating_add(1);
        if fresh_slot {
            self.task_slot_allocs = self.task_slot_allocs.saturating_add(1);
        }
    }

    /// Count one queue scan over `scanned` pending demands.
    pub fn on_queue_scan(&mut self, scanned: usize) {
        self.queue_scan_iters = self.queue_scan_iters.saturating_add(scanned as u64);
    }

    /// Count `n` tracer record dispatches.
    pub fn on_tracer_records(&mut self, n: u64) {
        self.tracer_records = self.tracer_records.saturating_add(n);
    }

    /// Stable `(name, value)` view in declaration order, for reports and
    /// the `BENCH_engine.json` work-counter objects.
    pub fn pairs(&self) -> [(&'static str, u64); 7] {
        [
            ("events", self.events),
            ("heap_pushes", self.heap_pushes),
            ("heap_peak", self.heap_peak),
            ("tasks_spawned", self.tasks_spawned),
            ("task_slot_allocs", self.task_slot_allocs),
            ("queue_scan_iters", self.queue_scan_iters),
            ("tracer_records", self.tracer_records),
        ]
    }
}

/// Engine phases the host profiler attributes wall time to.
///
/// `Dispatch` is the root span covering one sampled event end-to-end;
/// the others nest inside it (and `Tracer` may nest inside `TaskMgmt`),
/// so a phase's *self* time is its wall time minus its children's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Popping one event and driving its consequences to quiescence.
    Dispatch,
    /// Task spawn, slot allocation/reuse and completion bookkeeping.
    TaskMgmt,
    /// `select_next` scans over a reordering resource's queue.
    QueueScan,
    /// Dispatching `Tracer::record` observations.
    Tracer,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 4] = [Phase::Dispatch, Phase::TaskMgmt, Phase::QueueScan, Phase::Tracer];

    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Dispatch => "dispatch",
            Phase::TaskMgmt => "task-mgmt",
            Phase::QueueScan => "queue-scan",
            Phase::Tracer => "tracer",
        }
    }
}

const PHASES: usize = 4;
const MAX_DEPTH: usize = 8;

#[derive(Debug, Clone, Copy, Default)]
struct SpanAcc {
    wall_ns: u64,
    child_ns: u64,
    entries: u64,
}

/// Sampled hierarchical wall-clock profiler over the engine hot path.
///
/// Every `sample_every`-th dispatched event is timed (the rest cost one
/// branch per hook), which keeps measured profiler-on overhead small
/// while the phase *ratios* converge quickly. Sampling is driven by a
/// deterministic countdown — which events get sampled depends only on
/// the workload, never on the host.
#[derive(Debug)]
pub struct HostProfiler {
    sample_every: u32,
    countdown: u32,
    active: bool,
    depth: usize,
    /// Nested enters beyond `MAX_DEPTH`, paired with their exits.
    skipped: u32,
    span_overflows: u64,
    stack: [(u8, Instant); MAX_DEPTH],
    acc: [SpanAcc; PHASES],
    events_total: u64,
    events_sampled: u64,
}

/// Sampling period [`HostProfiler::default`] uses: a compromise between
/// attribution resolution and profiler-on overhead (< 5% is the budget).
pub const DEFAULT_SAMPLE_EVERY: u32 = 64;

impl Default for HostProfiler {
    fn default() -> Self {
        Self::sampled(DEFAULT_SAMPLE_EVERY)
    }
}

impl HostProfiler {
    /// A profiler timing every event (maximum resolution, highest
    /// overhead — prefer [`HostProfiler::default`] on hot workloads).
    pub fn new() -> Self {
        Self::sampled(1)
    }

    /// A profiler timing every `every`-th event (`0` is clamped to 1).
    pub fn sampled(every: u32) -> Self {
        let every = every.max(1);
        HostProfiler {
            sample_every: every,
            countdown: 1, // sample the first event, then every `every`-th
            active: false,
            depth: 0,
            skipped: 0,
            span_overflows: 0,
            // det-ok: host-profiler stack seed; never observable by the sim.
            stack: [(0u8, Instant::now()); MAX_DEPTH],
            acc: [SpanAcc::default(); PHASES],
            events_total: 0,
            events_sampled: 0,
        }
    }

    /// Engine hook: one event was popped; decide whether to sample it
    /// and, if so, open the root [`Phase::Dispatch`] span.
    pub fn event_begin(&mut self) {
        self.events_total = self.events_total.saturating_add(1);
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.sample_every;
            self.active = true;
            self.events_sampled = self.events_sampled.saturating_add(1);
            self.enter(Phase::Dispatch);
        } else {
            self.active = false;
        }
    }

    /// Is the event currently being dispatched a sampled one?
    pub fn sampling(&self) -> bool {
        self.active
    }

    /// Engine hook: the popped event's dispatch finished; close every
    /// span the sampled event still has open.
    pub fn event_end(&mut self) {
        if self.active {
            while self.depth > 0 || self.skipped > 0 {
                self.exit();
            }
            self.active = false;
        }
    }

    /// Engine hook: open a phase span (no-op on unsampled events).
    pub fn enter(&mut self, phase: Phase) {
        if !self.active {
            return;
        }
        if self.depth == MAX_DEPTH {
            self.skipped += 1;
            self.span_overflows = self.span_overflows.saturating_add(1);
            return;
        }
        // det-ok: host span timestamp; advisory profiling, not sim time.
        self.stack[self.depth] = (phase as u8, Instant::now());
        self.depth += 1;
    }

    /// Engine hook: close the innermost open span (no-op on unsampled
    /// events), charging its elapsed host time to the phase and to the
    /// parent span's child-time.
    pub fn exit(&mut self) {
        if !self.active {
            return;
        }
        if self.skipped > 0 {
            self.skipped -= 1;
            return;
        }
        if self.depth == 0 {
            return;
        }
        self.depth -= 1;
        let (phase, t0) = self.stack[self.depth];
        // det-ok: host span readout; advisory profiling, not sim time.
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let acc = &mut self.acc[phase as usize];
        acc.wall_ns = acc.wall_ns.saturating_add(ns);
        acc.entries = acc.entries.saturating_add(1);
        if self.depth > 0 {
            let parent = &mut self.acc[self.stack[self.depth - 1].0 as usize];
            parent.child_ns = parent.child_ns.saturating_add(ns);
        }
    }

    /// Snapshot the accumulated attribution.
    pub fn report(&self) -> ProfReport {
        let phases = Phase::ALL
            .iter()
            .map(|&p| {
                let a = self.acc[p as usize];
                PhaseStat {
                    phase: p.label(),
                    wall_ns: a.wall_ns,
                    self_ns: a.wall_ns.saturating_sub(a.child_ns),
                    entries: a.entries,
                }
            })
            .collect();
        ProfReport {
            sample_every: self.sample_every,
            events_total: self.events_total,
            events_sampled: self.events_sampled,
            span_overflows: self.span_overflows,
            phases,
        }
    }
}

/// Wall time attributed to one [`Phase`] across all sampled events.
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// [`Phase::label`] of the phase.
    pub phase: &'static str,
    /// Total host wall time inside the phase's spans (includes children).
    pub wall_ns: u64,
    /// Wall time minus time spent in nested child spans.
    pub self_ns: u64,
    /// Number of spans closed for this phase.
    pub entries: u64,
}

/// A [`HostProfiler`] attribution snapshot. All wall-clock figures are
/// advisory (machine-dependent); only the sampling bookkeeping is
/// deterministic.
#[derive(Debug, Clone)]
pub struct ProfReport {
    /// Sampling period the profiler ran with.
    pub sample_every: u32,
    /// Events the engine dispatched while the profiler was installed.
    pub events_total: u64,
    /// Events that were actually timed.
    pub events_sampled: u64,
    /// Span enters dropped because nesting exceeded the fixed stack.
    pub span_overflows: u64,
    /// Per-phase attribution, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseStat>,
}

impl ProfReport {
    /// Total sampled wall time (the root dispatch phase's wall time).
    pub fn sampled_wall_ns(&self) -> u64 {
        self.phases.iter().find(|p| p.phase == "dispatch").map_or(0, |p| p.wall_ns)
    }

    /// Render the attribution as a fixed-width text table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let total = self.sampled_wall_ns().max(1);
        let _ = writeln!(
            out,
            "host profile: {} events, {} sampled (every {}), {} span overflows",
            self.events_total, self.events_sampled, self.sample_every, self.span_overflows
        );
        let _ = writeln!(
            out,
            "{:<12} {:>12} {:>12} {:>10} {:>7}",
            "phase", "wall us", "self us", "entries", "self %"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{:<12} {:>12.1} {:>12.1} {:>10} {:>6.1}%",
                p.phase,
                p.wall_ns as f64 / 1e3,
                p.self_ns as f64 / 1e3,
                p.entries,
                100.0 * p.self_ns as f64 / total as f64
            );
        }
        out
    }

    /// Export the attribution as a Perfetto-loadable Chrome trace with a
    /// single `host-profile` track: the dispatch root span plus its
    /// children laid out sequentially by self-time.
    pub fn chrome_trace_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":9,\"name\":\"process_name\",\
             \"args\":{\"name\":\"host-profile\"}},\n",
        );
        out.push_str(
            "{\"ph\":\"M\",\"pid\":9,\"tid\":0,\"name\":\"thread_name\",\
             \"args\":{\"name\":\"engine hot path (sampled)\"}}",
        );
        let root_us = self.sampled_wall_ns() as f64 / 1e3;
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":9,\"tid\":0,\"ts\":0.0,\"dur\":{root_us:.3},\
             \"name\":\"dispatch\",\"args\":{{\"entries\":{}}}}}",
            self.events_sampled
        );
        let mut cursor = 0.0f64;
        for p in self.phases.iter().filter(|p| p.phase != "dispatch" && p.entries > 0) {
            let dur = p.self_ns as f64 / 1e3;
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":9,\"tid\":0,\"ts\":{cursor:.3},\"dur\":{dur:.3},\
                 \"name\":\"{}\",\"args\":{{\"entries\":{},\"wall_us\":{:.3}}}}}",
                p.phase,
                p.entries,
                p.wall_ns as f64 / 1e3
            );
            cursor += dur;
        }
        out.push_str("\n]}\n");
        out
    }
}
