//! Pass 11 — `perf-smoke`: the engine-performance regression gate.
//!
//! Wall-clock benchmarks cannot gate CI (they measure the host, not the
//! code), so this pass gates what *is* deterministic: the engine's work
//! counters ([`sim_core::EngineStats`] — events dispatched, heap pushes,
//! queue-scan iterations, task-slot allocations, tracer calls). It
//! re-runs the small shared scenarios that `bench::perfbench` also
//! writes into `BENCH_engine.json`, and asserts
//!
//! 1. the fresh work counters match the committed baseline within a
//!    tolerance band — catching accidental algorithmic regressions
//!    (an O(n) scan quietly becoming O(n²) shows up as a blown
//!    `queue_scan_iters` long before anyone profiles);
//! 2. a profiler-on run is *result-identical* to a profiler-off run
//!    (same trace fingerprint, same end time, same work counters) —
//!    the profiler-transparency guarantee;
//! 3. a canary: deliberately inflated baseline counters must be flagged,
//!    proving the comparator is alive.
//!
//! The scenario definitions live here (not in `bench`) so the pass and
//! the baseline writer can never drift apart: `perfbench` calls
//! [`smoke_run`] and [`model_budget_work`] for these rows.

use std::path::Path;

use raidx_core::Arch;
use sim_core::explore::Explorer;
use sim_core::trace::EventLog;
use sim_core::HostProfiler;
use workloads::parallel_io::{run_parallel_io, IoPattern, ParallelIoConfig};

use crate::benchfile::{self, BenchScenario};
use crate::report::PassReport;
use crate::trace_determinism::stream_fingerprint;

/// Scenario name of the gated engine smoke run.
pub const SMOKE_NAME: &str = "perf_smoke";
/// Scenario name of the gated model-check budget run.
pub const MODEL_NAME: &str = "model_check_budget";
/// Schedule budget of the gated model-check scenario.
pub const MODEL_BUDGET: u64 = 20_000;
/// Baseline file the pass reads, relative to the repo root.
pub const BASELINE_FILE: &str = "BENCH_engine.json";
/// Counters may drift by this factor before the gate trips. Wide enough
/// to absorb legitimate engine evolution in the same PR that updates the
/// baseline, narrow enough to catch a complexity-class regression.
pub const TOLERANCE: f64 = 1.5;

/// Everything a smoke-scenario run exposes for comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmokeOutcome {
    /// FNV-1a fingerprint of the full trace-event stream.
    pub fingerprint: u64,
    /// Simulated end time, nanoseconds.
    pub end_ns: u64,
    /// Deterministic engine work counters.
    pub work: Vec<(String, u64)>,
}

/// Run the shared smoke scenario — a small RAID-x parallel-write
/// workload on a 4×1 cluster with tracing enabled — optionally with the
/// host profiler installed (which must not change anything observable).
pub fn smoke_run(profiled: bool) -> SmokeOutcome {
    let (mut engine, mut sys) = cdd::testkit::shape(4, 1, 8 << 20, Arch::RaidX);
    if profiled {
        engine.set_profiler(HostProfiler::sampled(7));
    }
    let log = EventLog::new();
    engine.set_tracer(Box::new(log.clone()));
    let cfg = ParallelIoConfig {
        clients: 4,
        pattern: IoPattern::LargeWrite,
        large_bytes: 128 << 10,
        repeats: 2,
        ..Default::default()
    };
    run_parallel_io(&mut engine, &mut sys, &cfg).expect("smoke workload failed");
    let report = engine.run().expect("drain failed");
    SmokeOutcome {
        fingerprint: stream_fingerprint(&log.events()),
        end_ns: report.end.0,
        work: engine.stats().pairs().iter().map(|&(k, v)| (k.to_string(), v)).collect(),
    }
}

/// Deterministic work counters of the gated model-check scenario: a
/// bounded exploration of the contended CDD lock scenario.
pub fn model_budget_work() -> Vec<(String, u64)> {
    let m = cdd::proto::CddModel::new(cdd::proto::scenario_contended(cdd::Defect::None));
    let r = Explorer { max_schedules: MODEL_BUDGET.max(1), ..Explorer::default() }.explore(&m);
    vec![
        ("schedules".to_string(), r.schedules),
        ("steps".to_string(), r.steps),
        ("pruned".to_string(), r.pruned),
    ]
}

/// Compare fresh work counters against a baseline. Returns one message
/// per violation (missing counter, zero/non-zero flip, or a ratio
/// outside `[1/tol, tol]`).
pub fn compare_work(
    current: &[(String, u64)],
    baseline: &[(String, u64)],
    tol: f64,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (key, base) in baseline {
        let Some((_, cur)) = current.iter().find(|(k, _)| k == key) else {
            problems.push(format!("counter `{key}` missing from the fresh run"));
            continue;
        };
        match (*base, *cur) {
            (0, 0) => {}
            (0, c) => problems.push(format!("`{key}` was 0 at baseline, now {c}")),
            (b, 0) => problems.push(format!("`{key}` was {b} at baseline, now 0")),
            (b, c) => {
                let ratio = c as f64 / b as f64;
                if !(1.0 / tol..=tol).contains(&ratio) {
                    problems.push(format!(
                        "`{key}` drifted {ratio:.2}x (baseline {b}, now {c}, tolerance {tol}x)"
                    ));
                }
            }
        }
    }
    problems
}

fn gate_scenario(
    rep: &mut PassReport,
    baseline: &[BenchScenario],
    name: &str,
    current: &[(String, u64)],
) {
    let check = format!("{name} vs baseline");
    let Some(base) = baseline.iter().find(|s| s.name == name) else {
        rep.fail(check, format!("scenario `{name}` not found in {BASELINE_FILE}"));
        return;
    };
    if base.work.is_empty() {
        rep.fail(check, "baseline carries no work counters");
        return;
    }
    let problems = compare_work(current, &base.work, TOLERANCE);
    if problems.is_empty() {
        let summary: Vec<String> = current.iter().map(|(k, v)| format!("{k}={v}")).collect();
        rep.ok(
            check,
            format!("{} counters within {TOLERANCE}x: {}", base.work.len(), summary.join(" ")),
        );
    } else {
        rep.fail(check, problems.join("; "));
    }
}

/// Run the perf-smoke pass against the baseline at
/// `<repo_root>/BENCH_engine.json`.
pub fn run_pass(repo_root: &Path) -> PassReport {
    let mut rep = PassReport::new("perf-smoke");
    let path = repo_root.join(BASELINE_FILE);
    let baseline = match std::fs::read_to_string(&path) {
        Ok(text) => benchfile::parse(&text),
        Err(e) => {
            rep.fail("baseline file", format!("{}: {e}", path.display()));
            return rep;
        }
    };
    if baseline.is_empty() {
        rep.fail("baseline file", format!("{} contains no scenarios", path.display()));
        return rep;
    }
    rep.ok("baseline file", format!("{} scenarios in {BASELINE_FILE}", baseline.len()));

    // 1. Deterministic work counters match the committed baseline.
    let plain = smoke_run(false);
    gate_scenario(&mut rep, &baseline, SMOKE_NAME, &plain.work);
    gate_scenario(&mut rep, &baseline, MODEL_NAME, &model_budget_work());

    // 2. Profiler transparency: identical results with the profiler on.
    let profiled = smoke_run(true);
    rep.push(
        "profiler transparency",
        plain == profiled,
        if plain == profiled {
            format!(
                "profiled run identical: fingerprint {:016x}, end {}ns, {} counters",
                plain.fingerprint,
                plain.end_ns,
                plain.work.len()
            )
        } else {
            format!("profiled run diverged: {plain:?} vs {profiled:?}")
        },
    );

    // 3. Canary: an inflated baseline must trip the comparator.
    let inflated: Vec<(String, u64)> =
        plain.work.iter().map(|(k, v)| (k.clone(), v.saturating_mul(3).max(1))).collect();
    let caught = !compare_work(&plain.work, &inflated, TOLERANCE).is_empty();
    rep.push(
        "canary: 3x counter drift is caught",
        caught,
        if caught {
            "comparator flagged the planted drift"
        } else {
            "comparator missed a 3x drift"
        },
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_deterministic_and_profiler_transparent() {
        let a = smoke_run(false);
        let b = smoke_run(false);
        assert_eq!(a, b, "same-seed smoke runs must be identical");
        let p = smoke_run(true);
        assert_eq!(a, p, "profiler must be invisible to results");
        assert!(a.work.iter().any(|(k, v)| k == "events" && *v > 0), "{a:?}");
    }

    #[test]
    fn model_budget_work_is_deterministic() {
        let a = model_budget_work();
        assert_eq!(a, model_budget_work());
        assert!(a.iter().any(|(k, v)| k == "schedules" && *v > 0), "{a:?}");
    }

    #[test]
    fn comparator_flags_drift_and_passes_identity() {
        let base = vec![("events".to_string(), 1000u64), ("scans".to_string(), 0)];
        assert!(compare_work(&base, &base, TOLERANCE).is_empty());
        let drifted = vec![("events".to_string(), 4000u64), ("scans".to_string(), 5)];
        let problems = compare_work(&drifted, &base, TOLERANCE);
        assert_eq!(problems.len(), 2, "{problems:?}");
        let missing = vec![("events".to_string(), 1000u64)];
        assert_eq!(compare_work(&missing, &base, TOLERANCE).len(), 1);
    }

    #[test]
    fn pass_against_matching_baseline_is_green() {
        // Build a baseline in a temp dir from a fresh run, then gate it.
        let dir = std::env::temp_dir().join("raidx-perf-smoke-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let smoke = smoke_run(false);
        let rows = vec![
            BenchScenario {
                name: SMOKE_NAME.into(),
                samples: 1,
                rate_counter: "events".into(),
                work: smoke.work.clone(),
                ..Default::default()
            },
            BenchScenario {
                name: MODEL_NAME.into(),
                samples: 1,
                rate_counter: "steps".into(),
                work: model_budget_work(),
                ..Default::default()
            },
        ];
        std::fs::write(dir.join(BASELINE_FILE), benchfile::render(&rows, None))
            .expect("write baseline");
        let rep = run_pass(&dir);
        assert!(rep.all_ok(), "{}", rep.render());

        // A corrupted baseline (counters tripled) must fail the gate.
        let bad: Vec<BenchScenario> = rows
            .iter()
            .map(|r| BenchScenario {
                work: r.work.iter().map(|(k, v)| (k.clone(), v * 3 + 1)).collect(),
                ..r.clone()
            })
            .collect();
        std::fs::write(dir.join(BASELINE_FILE), benchfile::render(&bad, None))
            .expect("write baseline");
        let rep = run_pass(&dir);
        assert!(!rep.all_ok(), "tripled baseline must trip the gate");
    }
}
