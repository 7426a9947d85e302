//! Metric names, units and values, and the printed report.

use crate::driver::{percentile, Outcome, Reference, CLASSES};

/// One reported figure; `None` means "not measured on this workload".
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: Option<f64>, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// True on the workload whose ops run one at a time (the closed-loop
/// per-op latencies exist only there).
fn per_op(o: &Outcome) -> bool {
    !o.reference.op_sim_ns.is_empty()
}

/// The end-to-end metrics, from the untraced phase and pass 0;
/// `peak_rss_mb` comes from a separate process (see `main`).
pub fn end_to_end(o: &Outcome, peak_rss_mb: f64) -> Vec<Metric> {
    let u = &o.untraced;
    let lat = |p| per_op(o).then(|| percentile(&u.op_host_ns, p) as f64 / 1e3);
    let sim_p99 = per_op(o).then(|| percentile(&o.reference.op_sim_ns, 99.0) as f64 / 1e6);
    let ops_per_s = ratio(u.ops as f64, u.host_s);
    let cal_s = ratio(u.cal_s, u.cals as f64);
    vec![
        m("ops_per_s", Some(ops_per_s), "1/s"),
        m("ops_per_cal", Some(ops_per_s * cal_s), "ops/cal"),
        m("host.cal_ms", Some(cal_s * 1e3), "ms"),
        m("op_p50_us", lat(50.0), "us"),
        m("op_p99_us", lat(99.0), "us"),
        m("setup_s", Some(o.setup_s.iter().sum()), "s"),
        m("setup.raw_s", Some(o.setup_raw_s.iter().sum()), "s"),
        m("peak_rss_mb", Some(peak_rss_mb), "MB"),
        m("sim_s", Some(o.reference.sim_ns as f64 / 1e9), "s"),
        m("sim_op_p99_ms", sim_p99, "ms"),
        m("error_rate", Some(ratio(o.failed as f64, o.attempted as f64)), "ratio"),
    ]
}

/// The simulated and count-type layer metrics of pass 0: they repeat
/// exactly for a seed.
pub fn layer_counts(r: &Reference) -> Vec<Metric> {
    let [hits, misses, inval, evict] = r.cache.map(|x| x as f64);
    let events = r.events as f64;
    let c = |name: &str, value: f64, unit| m(name, Some(value), unit);
    let mut v = vec![
        c("sim_s", r.sim_ns as f64 / 1e9, "s"),
        c("sim_op_p99_ms", percentile(&r.op_sim_ns, 99.0) as f64 / 1e6, "ms"),
        c("cdd.blocks_written", r.blocks_written as f64, "count"),
        c("cdd.blocks_read", r.blocks_read as f64, "count"),
        c("cdd.cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        c("cdd.cache.hits", hits, "count"),
        c("cdd.cache.invalidations", inval, "count"),
        c("cdd.cache.evictions", evict, "count"),
        c("cfs.store_calls_per_op", ratio(r.cfs_store_calls as f64, r.ops as f64), "ratio"),
        c("cfs.meta_hit_ratio", ratio(r.meta.0 as f64, (r.meta.0 + r.meta.1) as f64), "ratio"),
        c("engine.events", events, "count"),
        c("engine.events_per_op", ratio(events, r.ops as f64), "ratio"),
        c("engine.runs", r.runs as f64, "count"),
        c("engine.heap_peak", r.heap_peak as f64, "count"),
        c("engine.queue_scan_iters", r.queue_scan_iters as f64, "count"),
        c("engine.scan_per_event", ratio(r.queue_scan_iters as f64, events), "ratio"),
        c("engine.tasks_spawned", r.tasks_spawned as f64, "count"),
        c("engine.task_slot_allocs", r.task_slot_allocs as f64, "count"),
    ];
    for (i, class) in CLASSES.iter().enumerate() {
        v.push(c(&format!("sim.busy_s.{class}"), r.busy_ns[i] as f64 / 1e9, "s"));
        v.push(c(&format!("sim.wait_s.{class}"), r.wait_ns[i] as f64 / 1e9, "s"));
        v.push(c(&format!("sim.max_queue.{class}"), r.max_queue[i] as f64, "count"));
    }
    v
}

/// Every per-layer metric, from the traced phase (host time) and pass 0
/// (counts). Metrics of a layer a workload does not use read 0.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let t = &o.totals;
    let tr = &o.traced;
    let host = tr.host_s;
    // Shares are of the traced host time the program itself used, so
    // they compare with untraced runs: observation is left out, also of
    // `attributed_share`.
    let observe = t.total_s("observe.");
    let program = host - observe;
    let ns = |s: f64, n: u64| ratio(s * 1e9, n as f64);
    let e2e = end_to_end(o, 0.0);
    let get = |name: &str| e2e.iter().find(|x| x.name == name).and_then(|x| x.value);
    let untraced_per_op = ratio(o.untraced.host_s, o.untraced.ops as f64);
    let traced_per_op = ratio(host, tr.ops as f64);
    let mut v = vec![
        m("setup.build_s", Some(o.build_s.iter().sum()), "s"),
        m("setup.seed_s", Some(o.seed_s.iter().sum()), "s"),
        m("cdd.write_s", Some(t.total_s("cdd.write")), "s"),
        m("cdd.read_s", Some(t.total_s("cdd.read")), "s"),
        m("cdd.flush_s", Some(t.total_s("cdd.flush")), "s"),
        m("cdd.write_ns_per_block", Some(ns(t.total_s("cdd.write"), tr.blocks_written)), "ns"),
        m("cdd.read_ns_per_block", Some(ns(t.total_s("cdd.read"), tr.blocks_read)), "ns"),
        m("cdd.share", Some(ratio(t.total_s("cdd."), program)), "ratio"),
        m("cfs.self_s", Some(t.self_s("cfs.")), "s"),
        m("cfs.self_ns_per_op", Some(ns(t.self_s("cfs."), t.count("cfs."))), "ns"),
        m("engine.run_s", Some(t.total_s("engine.run")), "s"),
        m("engine.share", Some(ratio(t.total_s("engine.run"), program)), "ratio"),
        m("engine.ns_per_event", Some(ns(t.total_s("engine.run"), tr.events)), "ns"),
        m("observe.tracer_records", Some(o.reference.tracer_records as f64), "count"),
        m("observe.metrics_s", Some(t.total_s("observe.metrics")), "s"),
        m("observe.export_s", Some(t.total_s("observe.export")), "s"),
        m("observe.overhead_pct", Some(100.0 * (ratio(traced_per_op, untraced_per_op) - 1.0)), "%"),
        m("attributed_share", Some(ratio(t.root_ns as f64 / 1e9 - observe, program)), "ratio"),
        m("ops_per_s", get("ops_per_s"), "1/s"),
        m("host.cal_ms", get("host.cal_ms"), "ms"),
        m("op_p50_us", Some(get("op_p50_us").unwrap_or(0.0)), "us"),
        m("op_p99_us", Some(get("op_p99_us").unwrap_or(0.0)), "us"),
        m("error_rate", get("error_rate"), "ratio"),
    ];
    v.extend(layer_counts(&o.reference));
    v
}

/// Print the table of `metrics` and the final JSON line with the ones
/// named in `json` (in that order).
pub fn print(
    workload: &str,
    seed: u64,
    o: &Outcome,
    metrics: &[Metric],
    json: &[&str],
    correct: bool,
) {
    for (label, ph) in [("untraced", &o.untraced), ("traced", &o.traced)] {
        if ph.passes > 0 {
            println!(
                "{workload} seed {seed} {label}: {} passes, {} ops, {:.3} s measured host time",
                ph.passes, ph.ops, ph.host_s
            );
        }
    }
    println!("  setup medians per cell, at reference speed (s): {:?}", o.setup_s);
    for x in metrics {
        match x.value {
            Some(v) => println!("  {:<26} {v:>16.6} {}", x.name, x.unit),
            None => println!("  {:<26} {:>16} {}", x.name, "n/a", x.unit),
        }
    }
    if !o.untraced.op_host_ns.is_empty() {
        println!("  op latency samples: {}", o.untraced.op_host_ns.len());
    }
    println!("  op-stream fingerprint: {:016x}", o.reference.fingerprint);
    for g in &o.guard {
        println!("  GUARD FAILED: {g}");
    }
    let fields: Vec<String> = json
        .iter()
        .map(|name| {
            let x = metrics.iter().find(|x| x.name == *name).expect("metric is computed");
            let v = x.value.filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}", x.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        fields.join(", ")
    );
}
