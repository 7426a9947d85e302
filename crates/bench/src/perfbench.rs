//! Engine performance harness behind the `perf` binary — the
//! `BENCH_engine.json` events-per-second trajectory.
//!
//! Each scenario is run once as warmup and then `samples` timed times;
//! the wall-clock samples reduce to median + MAD (median absolute
//! deviation — robust against scheduler noise on a shared host). Two
//! kinds of numbers come out:
//!
//! * advisory: median/MAD wall time and `rate = work / median secs`
//!   (events per second for engine scenarios) — machine-dependent;
//! * gateable: the deterministic work counters each run returns, which
//!   must be identical across every repetition (the harness flags a
//!   scenario as *unstable* otherwise — a nondeterminism bug).
//!
//! The gated rows (`perf_smoke`, `model_check_budget`) call straight
//! into [`raidx_verify::perf_smoke`] so the baseline writer and the
//! verify gate can never drift apart; the `zipf_cache` row likewise
//! calls [`raidx_verify::cache_coherence::zipf_cache_work`], whose
//! hit-rate/speedup counters verify pass 12 gates directly. On top of the scenario table the
//! harness measures profiler-on overhead against the same workload and
//! snapshots a per-phase host attribution ([`sim_core::ProfReport`]) for
//! the Perfetto host-track export.

use std::time::Instant;

use cluster::ClusterConfig;
use raidx_core::Arch;
use raidx_verify::benchfile::BenchScenario;
use raidx_verify::cache_coherence;
use raidx_verify::fault_sweep::{self, FaultKind, SweepScenario};
use raidx_verify::perf_smoke;
use sim_core::prof::{HostProfiler, ProfReport};
use sim_core::Engine;
use workloads::{run_parallel_io, IoPattern, ParallelIoConfig};

use crate::harness::{build_store, SystemKind};

/// Harness options.
#[derive(Debug, Clone)]
pub struct PerfOptions {
    /// Timed repetitions per scenario.
    pub samples: usize,
    /// Smoke mode: fewer samples' worth of scenarios — drops the
    /// oversized scale canary so CI stays fast.
    pub smoke: bool,
}

impl Default for PerfOptions {
    fn default() -> Self {
        PerfOptions { samples: 5, smoke: false }
    }
}

/// Everything one `perf` invocation produces.
#[derive(Debug, Clone)]
pub struct PerfRun {
    /// One row per scenario, ready for `benchfile::render`.
    pub rows: Vec<BenchScenario>,
    /// Scenarios whose work counters differed between repetitions
    /// (must be empty — anything here is a determinism bug).
    pub unstable: Vec<String>,
    /// Measured profiler-on overhead on the RAID-x write workload, in
    /// percent of the profiler-off median (advisory; budget < 5%).
    pub overhead_pct: f64,
    /// Per-phase host attribution from a profiled run.
    pub attribution: ProfReport,
}

/// Median and median-absolute-deviation of a sample set (ns). The
/// samples are sorted internally; an empty slice reduces to `(0, 0)`.
pub fn median_mad(samples: &[u64]) -> (u64, u64) {
    if samples.is_empty() {
        return (0, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2];
    let mut dev: Vec<u64> = sorted.iter().map(|&s| s.abs_diff(median)).collect();
    dev.sort_unstable();
    (median, dev[dev.len() / 2])
}

fn stats_pairs(engine: &Engine) -> Vec<(String, u64)> {
    engine.stats().pairs().iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

/// Run a parallel-write workload for `kind` on an `nodes`-node cluster,
/// optionally profiled; returns the engine work counters and, when
/// profiled, the attribution report.
fn arch_run(
    kind: SystemKind,
    nodes: usize,
    clients: usize,
    repeats: usize,
    profiled: bool,
) -> (Vec<(String, u64)>, Option<ProfReport>) {
    let mut engine = Engine::new();
    if profiled {
        engine.set_profiler(HostProfiler::default());
    }
    let mut store = build_store(&mut engine, ClusterConfig::shape(nodes, 1), kind);
    let cfg =
        ParallelIoConfig { clients, pattern: IoPattern::LargeWrite, repeats, ..Default::default() };
    run_parallel_io(&mut engine, &mut store, &cfg).expect("perf workload failed");
    let work = stats_pairs(&engine);
    (work, engine.take_profiler().map(|p| p.report()))
}

struct Scenario {
    name: &'static str,
    rate: &'static str,
    run: Box<dyn Fn() -> Vec<(String, u64)>>,
}

fn scenario_list(smoke: bool) -> Vec<Scenario> {
    let mut out: Vec<Scenario> = vec![Scenario {
        name: perf_smoke::SMOKE_NAME,
        rate: "events",
        run: Box::new(|| perf_smoke::smoke_run(false).work),
    }];
    for kind in SystemKind::MEASURED {
        let name = match kind {
            SystemKind::Nfs => "parallel_write_nfs",
            SystemKind::Raid(Arch::Raid5) => "parallel_write_raid5",
            SystemKind::Raid(Arch::Raid10) => "parallel_write_raid10",
            SystemKind::Raid(Arch::RaidX) => "parallel_write_raidx",
            SystemKind::Raid(Arch::Chained) => "parallel_write_chained",
        };
        out.push(Scenario {
            name,
            rate: "events",
            run: Box::new(move || arch_run(kind, 8, 4, 2, false).0),
        });
    }
    out.push(Scenario {
        name: "fault_smoke",
        rate: "trace_events",
        run: Box::new(|| {
            let sc = SweepScenario {
                arch: Arch::RaidX,
                kind: FaultKind::Permanent,
                inject_at: 18,
                cached: false,
            };
            let outcome = fault_sweep::run_scenario(&sc);
            vec![
                ("trace_events".to_string(), outcome.events as u64),
                ("failed_ops".to_string(), outcome.failed_ops as u64),
            ]
        }),
    });
    out.push(Scenario {
        name: "reconfig_smoke",
        rate: "trace_events",
        run: Box::new(|| {
            // Disk add + retire mid-workload, migration drained after the
            // script: tracks rebalance throughput next to fault recovery.
            let sc = SweepScenario {
                arch: Arch::RaidX,
                kind: FaultKind::Reconfig,
                inject_at: 18,
                cached: false,
            };
            let outcome = fault_sweep::run_scenario(&sc);
            vec![
                ("trace_events".to_string(), outcome.events as u64),
                ("failed_ops".to_string(), outcome.failed_ops as u64),
            ]
        }),
    });
    out.push(Scenario {
        name: perf_smoke::MODEL_NAME,
        rate: "steps",
        run: Box::new(perf_smoke::model_budget_work),
    });
    out.push(Scenario {
        name: cache_coherence::ZIPF_NAME,
        rate: "cache_hits",
        // Cached + uncached runs of the shared Zipf read workload; the
        // hit-rate and speedup counters are what verify pass 12 gates.
        run: Box::new(cache_coherence::zipf_cache_work),
    });
    if !smoke {
        // Deliberately oversized cluster: the scaling canary tracks how
        // engine cost grows toward the north star's cluster sizes.
        out.push(Scenario {
            name: "scale_canary_64",
            rate: "events",
            run: Box::new(|| arch_run(SystemKind::Raid(Arch::RaidX), 64, 64, 1, false).0),
        });
    }
    out
}

fn measure_scenario(sc: &Scenario, samples: usize, unstable: &mut Vec<String>) -> BenchScenario {
    let reference = (sc.run)(); // warmup + reference work counters
    let mut walls = Vec::with_capacity(samples);
    let mut stable = true;
    for _ in 0..samples {
        // det-ok: host stopwatch around a whole run; advisory figures only.
        let t0 = Instant::now();
        let work = (sc.run)();
        // det-ok: host stopwatch readout for the advisory wall figures.
        walls.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        stable &= work == reference;
    }
    if !stable {
        unstable.push(sc.name.to_string());
    }
    let (median, mad) = median_mad(&walls);
    let rate_units = reference.iter().find(|(k, _)| k == sc.rate).map_or(0, |&(_, v)| v);
    BenchScenario {
        name: sc.name.to_string(),
        samples,
        wall_median_ns: median,
        wall_mad_ns: mad,
        rate_counter: sc.rate.to_string(),
        rate_per_sec: rate_units as f64 / (median.max(1) as f64 * 1e-9),
        work: reference,
    }
}

/// Measure profiler-on overhead (percent of the profiler-off median on
/// the RAID-x parallel write) and capture a phase attribution.
pub fn measure_overhead(samples: usize) -> (f64, ProfReport) {
    let samples = samples.max(3);
    let time_one = |profiled: bool| -> (u64, Option<ProfReport>) {
        // det-ok: host stopwatch for the overhead comparison (advisory).
        let t0 = Instant::now();
        let (_, rep) = arch_run(SystemKind::Raid(Arch::RaidX), 8, 4, 2, profiled);
        // det-ok: host stopwatch readout for the overhead comparison.
        (u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX), rep)
    };
    time_one(false); // warmup
    let plain: Vec<u64> = (0..samples).map(|_| time_one(false).0).collect();
    let mut attribution = None;
    let profiled: Vec<u64> = (0..samples)
        .map(|_| {
            let (ns, rep) = time_one(true);
            attribution = rep;
            ns
        })
        .collect();
    let (m_plain, _) = median_mad(&plain);
    let (m_prof, _) = median_mad(&profiled);
    let overhead = 100.0 * (m_prof as f64 - m_plain as f64) / m_plain.max(1) as f64;
    (overhead, attribution.expect("profiled run returns a report"))
}

/// Run the full harness: every scenario, then the overhead measurement.
pub fn run(opts: &PerfOptions) -> PerfRun {
    let samples = opts.samples.max(1);
    let mut unstable = Vec::new();
    let rows = scenario_list(opts.smoke)
        .iter()
        .map(|sc| measure_scenario(sc, samples, &mut unstable))
        .collect();
    let (overhead_pct, attribution) = measure_overhead(samples);
    PerfRun { rows, unstable, overhead_pct, attribution }
}

/// Render the run as a fixed-width terminal table.
pub fn render_summary(run: &PerfRun) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>10} {:>16} {:>14}",
        "scenario", "median ms", "mad ms", "rate", "work counters"
    );
    for r in &run.rows {
        let _ = writeln!(
            out,
            "{:<24} {:>12.3} {:>10.3} {:>12.0}/s {:>14}",
            r.name,
            r.wall_median_ns as f64 / 1e6,
            r.wall_mad_ns as f64 / 1e6,
            r.rate_per_sec,
            format!(
                "{} {}",
                r.rate_counter,
                r.work.iter().find(|(k, _)| *k == r.rate_counter).map_or(0, |&(_, v)| v)
            ),
        );
    }
    let _ = writeln!(
        out,
        "profiler-on overhead: {:.2}% of the profiler-off median (budget < 5%)",
        run.overhead_pct
    );
    for name in &run.unstable {
        let _ = writeln!(out, "WARNING: scenario {name} had unstable work counters");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_mad_reduces_correctly() {
        assert_eq!(median_mad(&[]), (0, 0));
        assert_eq!(median_mad(&[7]), (7, 0));
        // sorted: 1 2 3 9 100 -> median 3; deviations 2 1 0 6 97 -> mad 2.
        assert_eq!(median_mad(&[9, 1, 100, 3, 2]), (3, 2));
        // Even count takes the upper middle, like the microbench reducer.
        assert_eq!(median_mad(&[4, 1, 2, 3]), (3, 1));
    }

    #[test]
    fn smoke_scenarios_measure_stably() {
        let mut unstable = Vec::new();
        let list = scenario_list(true);
        assert!(list.len() >= 4, "smoke mode still covers >= 4 scenarios");
        let sc = &list[0]; // perf_smoke: the cheapest engine scenario
        let row = measure_scenario(sc, 2, &mut unstable);
        assert!(unstable.is_empty(), "{unstable:?}");
        assert_eq!(row.samples, 2);
        assert!(row.wall_median_ns > 0);
        assert!(row.rate_per_sec > 0.0);
        assert!(row.work.iter().any(|(k, v)| k == "events" && *v > 0), "{row:?}");
    }

    #[test]
    fn full_scenario_list_names_are_unique_and_complete() {
        let list = scenario_list(false);
        assert!(list.len() >= 8, "full list covers all scenario families");
        let mut names: Vec<_> = list.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), list.len(), "duplicate scenario names");
        for required in [
            "perf_smoke",
            "parallel_write_raidx",
            "fault_smoke",
            "reconfig_smoke",
            "model_check_budget",
            "zipf_cache",
            "scale_canary_64",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
    }
}
