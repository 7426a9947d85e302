//! What every workload provides: cells (one store in one engine each),
//! built and seeded by a timed set-up, then driven pass by pass.

use std::cell::{Cell as Flag, RefCell};
use std::time::{Duration, Instant};

use cdd::{BlockStore, CacheStats};
use sim_core::trace::EventLog;
use sim_core::{chrome_trace_json, json_is_valid, MetricsRegistry, SimDuration};
use sim_core::{DeadlockError, Engine, Plan, RunReport};

use crate::model::Fnv;
use crate::span::span;
use crate::store::StoreCounts;

/// What one pass of a cell did. A pass is a fixed unit of work whose
/// inputs depend only on the seed and the pass index.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Store ops (`cfs` ops on the Andrew cells) completed.
    pub ops: u64,
    /// Operations attempted and failed (an `IoError`, a deadlock, or
    /// bytes that differ from the shadow model).
    pub attempted: u64,
    pub failed: u64,
    /// Simulated time the pass took.
    pub sim_ns: u64,
    /// Host latency of each closed-loop op, compile start to run return.
    pub op_host_ns: Vec<u64>,
    /// Simulated latency of each closed-loop op.
    pub op_sim_ns: Vec<u64>,
    /// Store calls made inside `cfs` calls.
    pub cfs_store_calls: u64,
    /// Guard failures: the pass stopped exercising what it is for.
    pub guard: Vec<String>,
    /// Fingerprint of the op stream (kinds, clients, addresses, stamps).
    pub fingerprint: Fnv,
}

/// One store in one engine, with its workload state.
pub trait Cell {
    /// Run pass `k` (passes run in order from 0). Time spent generating
    /// payloads and checking results goes through [`unmeasured`].
    fn pass(&mut self, k: u64) -> PassOut;

    /// The engine the store was built in.
    fn engine(&mut self) -> &mut Engine;

    /// Calls and blocks that went through the store so far.
    fn counts(&self) -> StoreCounts;

    /// Block-cache counters, on the cached workload.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// `(hits, misses)` of the `cfs` metadata cache, on the Andrew cells.
    fn meta_stats(&self) -> Option<(u64, u64)> {
        None
    }

    /// Read back a seeded sample of what was written, outside the
    /// measured phase; returns `(attempted, failed)`.
    fn read_back(&mut self, seed: u64) -> (u64, u64);
}

/// A built and seeded cell with its set-up times.
pub struct Built {
    pub cell: Box<dyn Cell>,
    pub build_s: f64,
    pub seed_s: f64,
}

/// Time `build` (store construction) and `seed` (format and data
/// seeding) as the `setup.build` and `setup.seed` spans.
pub fn set_up<B>(build: impl FnOnce() -> B, seed: impl FnOnce(B) -> Box<dyn Cell>) -> Built {
    let t0 = Instant::now();
    let b = span("setup.build", build);
    let t1 = Instant::now();
    let cell = span("setup.seed", || seed(b));
    let t2 = Instant::now();
    Built {
        cell,
        build_s: t1.duration_since(t0).as_secs_f64(),
        seed_s: t2.duration_since(t1).as_secs_f64(),
    }
}

/// Utilization window of the metrics derived from the event log.
const TICK: SimDuration = SimDuration::from_micros(500);
/// Events per Perfetto export call, which bounds the export's memory.
const EXPORT_CHUNK: usize = 100_000;

/// The event log of a traced engine and what its observation checked.
struct Observer {
    log: EventLog,
    names: Vec<String>,
    checks: u64,
    failed: u64,
}

thread_local! {
    static RUNS: Flag<u64> = const { Flag::new(0) };
    static UNMEASURED: Flag<Duration> = const { Flag::new(Duration::ZERO) };
    static OBSERVER: RefCell<Option<Observer>> = const { RefCell::new(None) };
}

/// Run `f` (workload generation or an output check) and leave its time
/// out of the measured host time.
pub fn unmeasured<R>(f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    UNMEASURED.with(|u| u.set(u.get() + t.elapsed()));
    out
}

/// Return and reset the time spent in [`unmeasured`].
pub fn take_unmeasured() -> Duration {
    UNMEASURED.with(|u| u.replace(Duration::ZERO))
}

/// Trace `engine` into an [`EventLog`] that [`observe_pass`] turns into
/// metrics and a Perfetto export after every pass.
pub fn observe(engine: &mut Engine) {
    let log = EventLog::new();
    engine.set_tracer(Box::new(log.clone()));
    let names = engine.resources().map(|(_, n, _)| n.to_string()).collect();
    OBSERVER.with(|o| *o.borrow_mut() = Some(Observer { log, names, checks: 0, failed: 0 }));
}

/// Stop tracing `engine`; returns the observation checks `(attempted, failed)`.
pub fn stop_observing(engine: &mut Engine) -> (u64, u64) {
    engine.clear_tracer();
    OBSERVER.with(|o| o.borrow_mut().take()).map_or((0, 0), |o| (o.checks, o.failed))
}

/// Observe the events logged since the last call, when tracing:
/// `observe.metrics` derives the metric registry from them and
/// `observe.export` renders them as Perfetto JSON, chunk by chunk. Both
/// spans also cover dropping what they built. The first observation of
/// a cell is checked outside the spans: every event counted, and the
/// first chunk's JSON valid.
pub fn observe_pass() {
    OBSERVER.with(|o| {
        let mut o = o.borrow_mut();
        let Some(obs) = o.as_mut() else { return };
        let check = obs.checks == 0;
        let (events, counted) = span("observe.metrics", || {
            let events = obs.log.take();
            let reg = MetricsRegistry::from_events(&events, &obs.names, TICK);
            let counted = !events.is_empty() && reg.counter("events") == Some(events.len() as u64);
            (events, counted)
        });
        let first = span("observe.export", || {
            let mut first = None;
            for chunk in events.chunks(EXPORT_CHUNK) {
                let json = chrome_trace_json(chunk, &obs.names);
                if check && first.is_none() {
                    first = Some(json);
                }
            }
            drop(events);
            first
        });
        if check {
            obs.checks = 1;
            let valid = unmeasured(|| first.is_some_and(|j| json_is_valid(&j)));
            obs.failed += u64::from(!(valid && counted));
        }
    });
}

/// `Engine::run` inside an `engine.run` span, counted.
pub fn run_engine(engine: &mut Engine) -> Result<RunReport, DeadlockError> {
    RUNS.with(|r| r.set(r.get() + 1));
    span("engine.run", || engine.run())
}

/// Number of [`run_engine`] calls so far.
pub fn engine_runs() -> u64 {
    RUNS.with(Flag::get)
}

/// Drain the store's write-behind state: flush, then run the flush plan.
pub fn drain(engine: &mut Engine, store: &mut impl BlockStore) -> Result<(), DeadlockError> {
    let plan = store.flush();
    if matches!(plan, Plan::Noop) {
        return Ok(());
    }
    engine.spawn_job("flush", plan);
    run_engine(engine).map(|_| ())
}
