//! Edge-case tests of the engine's execution semantics: interactions of
//! Background, Par, Barrier and degenerate plans.

use sim_core::plan::{background, barrier, delay, par, seq, use_res};
use sim_core::{BarrierId, Demand, Engine, FixedRate, ServiceModel, SimDuration, SimTime};

fn busy(us: u64) -> Demand {
    Demand::Busy(SimDuration::from_micros(us))
}

#[test]
fn noop_job_completes_instantly() {
    let mut e = Engine::new();
    e.spawn_job("noop", sim_core::Plan::Noop);
    let r = e.run().unwrap();
    assert_eq!(r.end, SimTime::ZERO);
    assert_eq!(e.jobs()[0].latency(), SimDuration::ZERO);
}

#[test]
fn background_inside_par_does_not_gate_the_join() {
    let mut e = Engine::new();
    let r = e.add_resource("r", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    e.spawn_job(
        "j",
        par(vec![use_res(r, busy(10)), background(use_res(r, busy(1000))), use_res(r, busy(10))]),
    );
    let rep = e.run().unwrap();
    // Foreground: two 10us ops serialized = 20us; background continues.
    assert_eq!(e.jobs()[0].latency(), SimDuration::from_micros(20));
    assert_eq!(rep.end, SimTime(1_020_000));
}

#[test]
fn nested_background_drains() {
    let mut e = Engine::new();
    let r = e.add_resource("r", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    // Background spawning more background work.
    e.spawn_job("j", background(seq(vec![use_res(r, busy(5)), background(use_res(r, busy(7)))])));
    let rep = e.run().unwrap();
    assert_eq!(rep.end, SimTime(12_000));
    assert_eq!(e.jobs()[0].latency(), SimDuration::ZERO);
}

#[test]
fn barrier_inside_background_is_rejected() {
    // A detached task parked on a barrier silently alters the barrier's
    // participant accounting (it used to be allowed and was a reliable
    // source of deadlocks); the plan linter now rejects the shape before
    // any event fires.
    let mut e = Engine::new();
    let bid = BarrierId(3);
    e.register_barrier(bid, 2);
    let plan = seq(vec![
        background(seq(vec![delay(SimDuration::from_micros(50)), barrier(bid)])),
        barrier(bid),
    ]);
    let errs = e.validate(&plan).unwrap_err();
    assert!(
        errs.iter().any(|x| matches!(x, sim_core::PlanError::BarrierInBackground { .. })),
        "{errs:?}"
    );
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "structurally invalid plan")]
fn spawning_barrier_inside_background_asserts() {
    let mut e = Engine::new();
    let bid = BarrierId(3);
    e.register_barrier(bid, 2);
    e.spawn_job("fg", seq(vec![background(barrier(bid)), barrier(bid)]));
}

#[test]
fn par_with_single_child_behaves_like_the_child() {
    let mut e = Engine::new();
    let r = e.add_resource("r", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    e.spawn_job("j", par(vec![use_res(r, busy(42))]));
    let rep = e.run().unwrap();
    assert_eq!(rep.end, SimTime(42_000));
}

#[test]
fn deep_nesting_survives() {
    let mut e = Engine::new();
    let r = e.add_resource("r", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    // 64 levels of alternating seq/par around a single leaf.
    let mut plan = use_res(r, busy(1));
    for i in 0..64 {
        plan = if i % 2 == 0 { seq(vec![plan]) } else { par(vec![plan]) };
    }
    e.spawn_job("deep", plan);
    let rep = e.run().unwrap();
    assert_eq!(rep.end, SimTime(1_000));
}

#[test]
fn wide_fanout_is_linear_not_quadratic() {
    let mut e = Engine::new();
    let rs: Vec<_> = (0..64)
        .map(|i| e.add_resource(format!("r{i}"), Box::new(FixedRate::per_op(SimDuration::ZERO))))
        .collect();
    // 4096 parallel leaves spread over 64 resources.
    e.spawn_job("wide", par((0..4096).map(|i| use_res(rs[i % 64], busy(1))).collect()));
    let rep = e.run().unwrap();
    // 64 ops per resource, 1us each, all resources in parallel.
    assert_eq!(rep.end, SimTime(64_000));
}

#[test]
fn two_engines_are_independent() {
    let mut a = Engine::new();
    let mut b = Engine::new();
    let ra = a.add_resource("r", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    let rb = b.add_resource("r", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    a.spawn_job("a", use_res(ra, busy(10)));
    b.spawn_job("b", use_res(rb, busy(20)));
    assert_eq!(a.run().unwrap().end, SimTime(10_000));
    assert_eq!(b.run().unwrap().end, SimTime(20_000));
}

#[test]
fn sequential_runs_accumulate_time_and_stats() {
    let mut e = Engine::new();
    let r = e.add_resource("r", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    e.spawn_job("first", use_res(r, busy(10)));
    e.run().unwrap();
    let busy_after_first = e.resource_stats(r).busy;
    e.spawn_job("second", use_res(r, busy(10)));
    let rep = e.run().unwrap();
    assert_eq!(rep.end, SimTime(20_000));
    assert_eq!(e.resource_stats(r).busy, busy_after_first * 2);
    assert_eq!(e.resource_stats(r).ops, 2);
}

#[test]
#[should_panic(expected = "cannot start a job in the past")]
fn spawning_in_the_past_panics() {
    let mut e = Engine::new();
    e.spawn_job("x", delay(SimDuration::from_micros(5)));
    e.run().unwrap();
    e.spawn_job_at("late", SimTime::ZERO, sim_core::Plan::Noop);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "structurally invalid plan")]
fn unregistered_barrier_rejected_at_spawn() {
    let mut e = Engine::new();
    e.spawn_job("x", barrier(BarrierId(99)));
}

#[test]
fn unregistered_barrier_fails_validation() {
    let e = Engine::new();
    let errs = e.validate(&barrier(BarrierId(99))).unwrap_err();
    assert!(
        errs.iter()
            .any(|x| matches!(x, sim_core::PlanError::UnregisteredBarrier { id: BarrierId(99) })),
        "{errs:?}"
    );
}

#[test]
fn zero_duration_uses_preserve_order() {
    let mut e = Engine::new();
    let r = e.add_resource("r", Box::new(FixedRate::per_op(SimDuration::ZERO)));
    let a = e.spawn_job("a", use_res(r, Demand::Busy(SimDuration::ZERO)));
    let b = e.spawn_job("b", use_res(r, Demand::Busy(SimDuration::ZERO)));
    e.run().unwrap();
    let end = |j: sim_core::JobId| e.jobs()[j.index()].end.unwrap();
    // Both complete at t=0; FIFO still serves a before b (same timestamp,
    // insertion-ordered events).
    assert_eq!(end(a), SimTime::ZERO);
    assert_eq!(end(b), SimTime::ZERO);
}

#[test]
fn fifo_model_serves_in_arrival_order_without_select_next() {
    // FIFO by default: the engine must pop the queue head itself and
    // never consult `select_next`.
    struct NoPick;
    impl ServiceModel for NoPick {
        fn service_time(&mut self, _: &Demand, _: SimTime) -> SimDuration {
            SimDuration::from_micros(10)
        }
        fn select_next(&mut self, _: &[&Demand]) -> usize {
            panic!("select_next called on a FIFO model")
        }
    }
    let mut e = Engine::new();
    let r = e.add_resource("fifo", Box::new(NoPick));
    // The first job takes the resource; the other five queue behind it.
    for i in 0..6 {
        e.spawn_job(format!("j{i}"), use_res(r, busy(1)));
    }
    e.run().unwrap();
    let ends: Vec<u64> = e.jobs().iter().map(|j| j.end.unwrap().as_nanos()).collect();
    assert_eq!(ends, (1..=6).map(|k| k * 10_000).collect::<Vec<_>>(), "arrival order");
    assert_eq!(e.resource_stats(r).max_queue, 6);
    assert_eq!(e.stats().queue_scan_iters, 0);
}
