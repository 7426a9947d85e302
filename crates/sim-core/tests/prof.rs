//! Tests for the host profiler and the deterministic engine stats plane:
//! span nesting, counter saturation, sampling accounting, and the
//! profiler-transparency guarantee (a profiled run is result-identical
//! to an unprofiled one).

use sim_core::plan::{par, seq, use_res};
use sim_core::{
    Demand, Engine, EngineStats, EventLog, FixedRate, HostProfiler, Phase, ServiceModel,
    SimDuration, SimTime,
};

fn busy(us: u64) -> Demand {
    Demand::Busy(SimDuration::from_micros(us))
}

/// FIFO service that still declares itself reordering, so every pick
/// from a queue of two or more is a counted `select_next` scan (which
/// chooses the head).
struct ScanningFifo(FixedRate);

impl ServiceModel for ScanningFifo {
    fn service_time(&mut self, demand: &Demand, now: SimTime) -> SimDuration {
        self.0.service_time(demand, now)
    }

    fn reorders(&self) -> bool {
        true
    }
}

/// A small contended workload: several jobs racing on one disk (deep
/// queues force `select_next` scans) plus a second resource for overlap.
fn workload(e: &mut Engine) {
    workload_on(e, true);
}

/// [`workload`] with the disk either scanning its queue (`scan`) or
/// plain FIFO; both serve in the same order.
fn workload_on(e: &mut Engine, scan: bool) {
    let rate = FixedRate::per_op(SimDuration::from_micros(2));
    let disk: Box<dyn ServiceModel> =
        if scan { Box::new(ScanningFifo(rate)) } else { Box::new(rate) };
    let d = e.add_resource("disk", disk);
    let c = e.add_resource("cpu", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    for i in 0..20u64 {
        e.spawn_job(
            format!("j{i}"),
            seq(vec![
                use_res(c, busy(i % 3 + 1)),
                par(vec![use_res(d, busy(i % 5 + 1)), use_res(d, busy(3))]),
            ]),
        );
    }
}

#[test]
fn stats_count_engine_work() {
    let mut e = Engine::new();
    workload(&mut e);
    e.run().unwrap();
    let s = *e.stats();
    assert!(s.events > 0, "{s:?}");
    assert!(s.heap_pushes >= s.events, "every pop was once pushed: {s:?}");
    assert!(s.heap_peak >= 2, "{s:?}");
    // 20 jobs, each with a 2-way Par: >= 60 tasks.
    assert!(s.tasks_spawned >= 60, "{s:?}");
    assert!(s.task_slot_allocs <= s.tasks_spawned, "{s:?}");
    assert!(s.queue_scan_iters > 0, "contended disk must trigger scans: {s:?}");
    assert_eq!(s.tracer_records, 0, "no tracer installed");

    // A second batch reuses freed slots: spawns grow, allocations don't.
    let allocs_before = s.task_slot_allocs;
    workload(&mut e);
    e.run().unwrap();
    let s2 = *e.stats();
    assert!(s2.tasks_spawned >= 2 * s.tasks_spawned - 1, "{s2:?}");
    assert_eq!(s2.task_slot_allocs, allocs_before, "free-list reuse must not allocate: {s2:?}");
}

#[test]
fn fifo_resources_never_scan() {
    let run = |scan: bool| {
        let mut e = Engine::new();
        workload_on(&mut e, scan);
        e.run().unwrap();
        let ends: Vec<_> = e.jobs().iter().map(|j| j.end).collect();
        (ends, *e.stats())
    };
    let (scan_ends, scan_stats) = run(true);
    let (fifo_ends, fifo_stats) = run(false);
    assert!(scan_stats.queue_scan_iters > 0, "{scan_stats:?}");
    assert_eq!(fifo_stats.queue_scan_iters, 0, "FIFO pops the head without a scan");
    assert_eq!(fifo_ends, scan_ends, "same service order, same job end times");
    assert_eq!(fifo_stats, EngineStats { queue_scan_iters: 0, ..scan_stats });
}

#[test]
fn stats_saturate_instead_of_wrapping() {
    let mut s = EngineStats { events: u64::MAX - 1, ..EngineStats::default() };
    s.on_event();
    s.on_event();
    s.on_event();
    assert_eq!(s.events, u64::MAX);

    let mut s = EngineStats { queue_scan_iters: u64::MAX - 3, ..EngineStats::default() };
    s.on_queue_scan(100);
    assert_eq!(s.queue_scan_iters, u64::MAX);

    let mut s = EngineStats { tracer_records: u64::MAX, ..EngineStats::default() };
    s.on_tracer_records(7);
    assert_eq!(s.tracer_records, u64::MAX);

    let mut s =
        EngineStats { tasks_spawned: u64::MAX, task_slot_allocs: u64::MAX, ..Default::default() };
    s.on_task_spawn(true);
    assert_eq!((s.tasks_spawned, s.task_slot_allocs), (u64::MAX, u64::MAX));
}

#[test]
fn spans_nest_and_attribute_self_time() {
    let mut p = HostProfiler::new(); // sample every event
    p.event_begin();
    assert!(p.sampling());
    p.enter(Phase::TaskMgmt);
    p.enter(Phase::Tracer);
    p.exit();
    p.exit();
    p.enter(Phase::QueueScan);
    p.exit();
    p.event_end();
    let r = p.report();
    assert_eq!(r.events_total, 1);
    assert_eq!(r.events_sampled, 1);
    assert_eq!(r.span_overflows, 0);
    let get = |name: &str| r.phases.iter().find(|p| p.phase == name).unwrap().clone();
    let (dispatch, taskmgmt, tracer, scan) =
        (get("dispatch"), get("task-mgmt"), get("tracer"), get("queue-scan"));
    assert_eq!(dispatch.entries, 1);
    assert_eq!(taskmgmt.entries, 1);
    assert_eq!(tracer.entries, 1);
    assert_eq!(scan.entries, 1);
    // Parents contain their children: wall(dispatch) >= wall(task-mgmt)
    // + wall(queue-scan) >= wall(tracer); self excludes child time.
    assert!(dispatch.wall_ns >= taskmgmt.wall_ns + scan.wall_ns, "{r:?}");
    assert!(taskmgmt.wall_ns >= tracer.wall_ns, "{r:?}");
    assert!(dispatch.self_ns <= dispatch.wall_ns, "{r:?}");
    assert!(taskmgmt.self_ns <= taskmgmt.wall_ns, "{r:?}");
    // The report renders and exports without panicking, and the chrome
    // trace is valid JSON.
    assert!(r.render_table().contains("task-mgmt"));
    assert!(sim_core::json_is_valid(&r.chrome_trace_json()), "{}", r.chrome_trace_json());
}

#[test]
fn span_overflow_is_counted_and_balanced() {
    let mut p = HostProfiler::new();
    p.event_begin();
    for _ in 0..20 {
        p.enter(Phase::TaskMgmt); // far beyond the fixed stack depth
    }
    for _ in 0..20 {
        p.exit();
    }
    p.event_end();
    let r = p.report();
    assert!(r.span_overflows > 0, "{r:?}");
    // The next event starts with a clean stack.
    p.event_begin();
    p.enter(Phase::Tracer);
    p.event_end(); // event_end closes what's still open
    let r = p.report();
    assert_eq!(r.events_total, 2);
}

#[test]
fn unsampled_events_record_nothing() {
    let mut p = HostProfiler::sampled(4);
    for _ in 0..13 {
        p.event_begin();
        p.enter(Phase::QueueScan);
        p.exit();
        p.event_end();
    }
    let r = p.report();
    assert_eq!(r.events_total, 13);
    // Countdown starts at 1: events 1, 5, 9, 13 are sampled.
    assert_eq!(r.events_sampled, 4);
    let scan = r.phases.iter().find(|p| p.phase == "queue-scan").unwrap();
    assert_eq!(scan.entries, 4, "only sampled events may record spans");
}

#[test]
fn profiler_is_transparent_to_results_and_stats() {
    let run = |prof: bool| {
        let mut e = Engine::new();
        if prof {
            e.set_profiler(HostProfiler::new());
        }
        workload(&mut e);
        let rep = e.run().unwrap();
        let jobs: Vec<_> = e.jobs().iter().map(|j| (j.start, j.end)).collect();
        (rep.end, rep.foreground_end, jobs, *e.stats())
    };
    let plain = run(false);
    let profiled = run(true);
    assert_eq!(plain, profiled, "profiler must not perturb results");
}

#[test]
fn profiled_engine_run_produces_attribution() {
    let mut e = Engine::new();
    e.set_profiler(HostProfiler::new());
    workload(&mut e);
    e.run().unwrap();
    let events = e.stats().events;
    let p = e.take_profiler().expect("profiler installed");
    let r = p.report();
    assert_eq!(r.events_total, events, "profiler saw every dispatched event");
    assert_eq!(r.events_sampled, events, "sample_every=1 times every event");
    assert!(r.sampled_wall_ns() > 0, "dispatch wall time must accumulate");
    assert_eq!(r.phases.len(), 4);
    // End of run: RunReport end is unaffected by how long the host took.
    assert_eq!(e.now(), SimTime(e.now().0));
}

#[test]
fn every_traced_record_inside_run_gets_a_tracer_span() {
    let mut e = Engine::new();
    e.set_tracer(Box::new(EventLog::new()));
    e.set_profiler(HostProfiler::new());
    workload(&mut e);
    e.run().unwrap();
    let records = e.stats().tracer_records;
    let r = e.take_profiler().expect("profiler installed").report();
    let tracer = r.phases.iter().find(|p| p.phase == "tracer").unwrap();
    // Spawning a job records one JobSpawned and one root TaskSpawned
    // outside `run`, where no event is being profiled; every record
    // emitted inside `run` gets exactly one span of its own.
    let jobs = e.jobs().len() as u64;
    assert_eq!(tracer.entries, records - 2 * jobs, "{records} records, {jobs} jobs, {r:?}");
}
