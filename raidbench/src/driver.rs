//! Runs a workload's cells: timed set-ups, the measured phase (passes
//! until the time budget is spent), the traced phase, and the read-back.
//!
//! Host-time figures cover every pass of the measured phase. Simulated
//! and count figures come from pass 0 of each cell only, which is the
//! same work on every run with the same seed, so they repeat exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::calib;
use crate::cell::{self as cells, engine_runs, Built, Cell, PassOut};
use crate::span::{self, Totals};

/// A workload: its cells and how to set one up from a seed.
pub struct Workload {
    pub name: &'static str,
    pub cells: usize,
    pub setup: fn(usize, u64) -> Built,
}

/// Resource classes, by resource-name suffix or prefix.
pub const CLASSES: [&str; 4] = ["cpu", "nic", "bus", "disk"];

fn class_of(name: &str) -> Option<usize> {
    if name.ends_with("/cpu") {
        Some(0)
    } else if name.ends_with("/tx") || name.ends_with("/rx") {
        Some(1)
    } else if name.ends_with("/scsi") {
        Some(2)
    } else if name.starts_with("disk") {
        Some(3)
    } else {
        None
    }
}

/// Host time and work of one phase (untraced or traced), over all cells.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub host_s: f64,
    pub ops: u64,
    pub passes: u64,
    pub events: u64,
    pub blocks_written: u64,
    pub blocks_read: u64,
    pub op_host_ns: Vec<u64>,
    /// Host time of the calibration kernel, summed, and its run count.
    pub cal_s: f64,
    pub cals: u64,
}

/// Pass-0 figures, summed over cells: identical on every same-seed run.
#[derive(Debug, Default, Clone)]
pub struct Reference {
    pub sim_ns: u64,
    pub ops: u64,
    pub op_sim_ns: Vec<u64>,
    pub cfs_store_calls: u64,
    pub blocks_written: u64,
    pub blocks_read: u64,
    pub cache: [u64; 4],
    pub meta: (u64, u64),
    pub events: u64,
    pub runs: u64,
    pub heap_peak: u64,
    pub queue_scan_iters: u64,
    pub tasks_spawned: u64,
    pub task_slot_allocs: u64,
    pub tracer_records: u64,
    pub busy_ns: [u64; 4],
    pub wait_ns: [u64; 4],
    pub max_queue: [u64; 4],
    pub fingerprint: u64,
}

/// Everything one run of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub untraced: Phase,
    pub traced: Phase,
    pub totals: Totals,
    pub reference: Reference,
    /// Per cell: the median set-up time scaled to the reference host
    /// speed ([`calib::REFERENCE_S`]), and the raw median.
    pub setup_s: Vec<f64>,
    pub setup_raw_s: Vec<f64>,
    pub build_s: Vec<f64>,
    pub seed_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub guard: Vec<String>,
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The `p`-th percentile (nearest rank) of `v`.
pub fn percentile(v: &[u64], p: f64) -> u64 {
    let mut s = v.to_vec();
    s.sort_unstable();
    if s.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Run `w` for `seconds` of measured host time (split evenly over its
/// cells; a cell always runs at least pass 0), setting each cell up
/// `setups` times and keeping the last. Each set-up follows a run of
/// [`calib::setup_kernel`], which scales it to the reference host speed.
/// Traced runs spend half of each cell's budget traced and half untraced.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool, setups: usize) -> Outcome {
    let mut o = Outcome::default();
    let budget = seconds / w.cells as f64;
    span::set_tracing(trace);
    for c in 0..w.cells {
        let mut built: Option<Built> = None;
        let (mut b, mut s, mut t, mut scaled) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..setups.max(1) {
            drop(built.take());
            // A zero budget (the memory probe and the self-test) reports
            // no times, and the kernel's buffers would add to its RSS.
            let cal = if seconds > 0.0 { calib::setup_kernel() } else { calib::REFERENCE_S };
            let x = (w.setup)(c, seed);
            b.push(x.build_s);
            s.push(x.seed_s);
            t.push(x.build_s + x.seed_s);
            scaled.push((x.build_s + x.seed_s) * calib::REFERENCE_S / cal);
            built = Some(x);
        }
        o.build_s.push(median(&b));
        o.seed_s.push(median(&s));
        o.setup_s.push(median(&scaled));
        o.setup_raw_s.push(median(&t));
        let mut cell = built.expect("at least one set-up").cell;
        let mut next = 0;
        if trace {
            cells::observe(cell.engine());
            let _ = span::take();
            phase(&mut o, true, &mut *cell, &mut next, budget / 2.0);
            span::set_tracing(false);
            let (attempted, failed) = cells::stop_observing(cell.engine());
            o.attempted += attempted;
            o.failed += failed;
            o.totals.add(span::take());
        }
        let rest = if trace { budget / 2.0 } else { budget };
        phase(&mut o, false, &mut *cell, &mut next, rest);
        let (attempted, failed) = cell.read_back(seed);
        o.attempted += attempted;
        o.failed += failed;
        if trace {
            span::set_tracing(true);
        }
    }
    span::set_tracing(false);
    o
}

/// Run passes of `cell` until `budget` seconds of wall time are spent,
/// into the traced or the untraced phase of `o`.
fn phase(o: &mut Outcome, traced: bool, cell: &mut dyn Cell, next: &mut u64, budget: f64) {
    let Outcome { untraced, traced: tr, reference, guard, .. } = o;
    let ph = if traced { tr } else { untraced };
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    let mut next_cal = start;
    let events0 = cell.engine().stats().events;
    let counts0 = cell.counts();
    loop {
        if budget > 0.0 && Instant::now() >= next_cal {
            ph.cal_s += calib::run();
            ph.cals += 1;
            next_cal = Instant::now() + calib::EVERY;
        }
        let k = *next;
        *next += 1;
        let before = (k == 0).then(|| Snapshot::take(cell));
        cells::take_unmeasured();
        let t = Instant::now();
        let mut out = cell.pass(k);
        if traced {
            cells::observe_pass();
        }
        let host = t.elapsed().saturating_sub(cells::take_unmeasured());
        ph.host_s += host.as_secs_f64();
        ph.ops += out.ops;
        ph.passes += 1;
        ph.op_host_ns.extend_from_slice(&out.op_host_ns);
        attempted += out.attempted;
        failed += out.failed;
        if let Some(before) = before {
            before.record(cell, &out, reference);
        }
        let stop = !out.guard.is_empty();
        guard.append(&mut out.guard);
        if stop || start.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    let counts = cell.counts().since(counts0);
    ph.events += cell.engine().stats().events - events0;
    ph.blocks_written += counts.blocks_written;
    ph.blocks_read += counts.blocks_read;
    o.attempted += attempted;
    o.failed += failed;
}

/// Counters of a cell just before pass 0.
struct Snapshot {
    counts: crate::store::StoreCounts,
    cache: [u64; 4],
    meta: (u64, u64),
    stats: sim_core::EngineStats,
    runs: u64,
    busy: Vec<u64>,
    wait: Vec<u64>,
}

fn cache_of(cell: &dyn Cell) -> [u64; 4] {
    cell.cache_stats().map_or([0; 4], |s| [s.hits, s.misses, s.invalidations, s.evictions])
}

impl Snapshot {
    fn take(cell: &mut dyn Cell) -> Snapshot {
        let res: Vec<(u64, u64)> = cell
            .engine()
            .resources()
            .map(|(_, _, s)| (s.busy.as_nanos(), s.queue_wait.as_nanos()))
            .collect();
        Snapshot {
            counts: cell.counts(),
            cache: cache_of(cell),
            meta: cell.meta_stats().unwrap_or_default(),
            stats: *cell.engine().stats(),
            runs: engine_runs(),
            busy: res.iter().map(|r| r.0).collect(),
            wait: res.iter().map(|r| r.1).collect(),
        }
    }

    fn record(self, cell: &mut dyn Cell, out: &PassOut, r: &mut Reference) {
        let counts = cell.counts().since(self.counts);
        let cache = cache_of(cell);
        let meta = cell.meta_stats().unwrap_or_default();
        let st = *cell.engine().stats();
        r.sim_ns += out.sim_ns;
        r.ops += out.ops;
        r.op_sim_ns.extend_from_slice(&out.op_sim_ns);
        r.cfs_store_calls += out.cfs_store_calls;
        r.blocks_written += counts.blocks_written;
        r.blocks_read += counts.blocks_read;
        for ((sum, now), before) in r.cache.iter_mut().zip(cache).zip(self.cache) {
            *sum += now - before;
        }
        r.meta.0 += meta.0 - self.meta.0;
        r.meta.1 += meta.1 - self.meta.1;
        r.events += st.events - self.stats.events;
        r.runs += engine_runs() - self.runs;
        r.heap_peak = r.heap_peak.max(st.heap_peak);
        r.queue_scan_iters += st.queue_scan_iters - self.stats.queue_scan_iters;
        r.tasks_spawned += st.tasks_spawned - self.stats.tasks_spawned;
        r.task_slot_allocs += st.task_slot_allocs - self.stats.task_slot_allocs;
        r.tracer_records += st.tracer_records - self.stats.tracer_records;
        for (i, (_, name, s)) in cell.engine().resources().enumerate() {
            if let Some(k) = class_of(name) {
                r.busy_ns[k] += s.busy.as_nanos() - self.busy[i];
                r.wait_ns[k] += s.queue_wait.as_nanos() - self.wait[i];
                r.max_queue[k] = r.max_queue[k].max(s.max_queue as u64);
            }
        }
        let mut fp = crate::model::Fnv(r.fingerprint);
        fp.add(out.fingerprint.0);
        r.fingerprint = fp.0;
    }
}

/// Peak resident memory of this process so far, in MB (from
/// `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The figures that must repeat exactly across same-seed runs.
pub fn deterministic(r: &Reference) -> BTreeMap<String, f64> {
    crate::report::layer_counts(r).into_iter().map(|x| (x.name, x.value.unwrap_or(0.0))).collect()
}
