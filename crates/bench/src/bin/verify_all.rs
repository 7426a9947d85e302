//! Run the `raidx-verify` passes and exit non-zero on any finding.
//!
//! ```text
//! cargo run -p bench --bin verify_all [-- --pass <name>]... [-- --budget <n>] [-- --smoke] [-- --list-passes] [-- --json <path>]
//! ```
//!
//! Passes: plan linting of every architecture's real I/O plans, lock-order
//! analysis of a recorded lock trace, the layout conformance sweep, the
//! `raidx-model` interleaving checker, Wing–Gong linearizability over
//! explored SIOS histories, the OSM/checkpoint crash-consistency audit,
//! the trace-determinism audit (the full observability event stream must
//! replay byte-identically and untraced and traced runs must agree on
//! their aggregate fingerprints), the fault-injection sweep (every
//! enumerated single-fault point recovers byte-for-byte and replays
//! fingerprint-identically), the happens-before race detector over
//! merged engine + protocol traces, the parser-based whole-workspace
//! static analyzer (`raidx-analyze`: five rule families with
//! planted-defect canaries), the perf-smoke gate
//! (deterministic engine work counters vs the committed
//! `BENCH_engine.json` baseline, plus profiler transparency), and the
//! cache-coherence gate (model check + linearizability of the caching
//! scenario with a skip-invalidation canary, cached-vs-uncached
//! transparency on every architecture, the Zipf hit-rate/speedup gate).
//!
//! `--pass <name>` (repeatable, hyphens and underscores interchangeable)
//! runs only the named passes; `--budget <n>` bounds the schedules
//! explored per model-checking scenario (default 100000); `--smoke`
//! shrinks the fault sweep and race detector to their CI subsets;
//! `--list-passes` prints the registry (stable order) and exits;
//! `--json <path>` additionally writes every
//! pass's checks as machine-readable JSON (stable schema: pass, rule,
//! file, line, message, acknowledged, ok). Each pass reports its
//! wall-clock time.

use cdd::{CddConfig, IoSystem};
use cluster::ClusterConfig;
use raidx_core::Arch;
use raidx_verify::{analyze_lock_trace, conformance_sweep, lint_io_paths};
use raidx_verify::{
    cache_coherence, crash_consistency, fault_sweep, linearizability, model_check, perf_smoke,
    race_detect, static_analysis, trace_determinism,
};
use raidx_verify::{report, report::PassReport};
use sim_core::Engine;
use std::path::Path;

fn lock_order_pass() -> PassReport {
    let mut report = PassReport::new("lock-order");
    for arch in Arch::ALL {
        let mut engine = Engine::new();
        let mut cc = ClusterConfig::shape(4, 2);
        cc.disk.capacity = 8 << 20;
        let bs = cc.block_size as usize;
        let mut sys = IoSystem::new(&mut engine, cc, arch, CddConfig::default());
        sys.enable_lock_trace();
        let name = sys.layout().name();
        let stripe = sys.layout().stripe_width() as u64;
        let buf = vec![0x77; bs];
        let wide = vec![0x11; bs * stripe as usize];
        for client in 0..4u64 {
            for b in 0..6u64 {
                sys.write(client as usize, client * 16 + b, &buf).expect("write");
            }
            sys.write(client as usize, client * 16 + 8, &wide).expect("stripe write");
        }
        let trace = sys.take_lock_trace();
        let audit = analyze_lock_trace(&trace);
        let detail = if audit.clean() {
            format!("{} grants, {} order edges, no defects", audit.grants, audit.order_edges)
        } else {
            audit.defects.iter().map(ToString::to_string).collect::<Vec<_>>().join("; ")
        };
        report.push(format!("{name} lock trace"), audit.clean(), detail);
    }
    report
}

fn layout_pass() -> PassReport {
    let mut report = PassReport::new("layout-conformance");
    for row in conformance_sweep() {
        let name = format!("{} {}x{}", row.arch, row.shape.0, row.shape.1);
        let detail = if row.ok() {
            format!("{} blocks conform", row.checked)
        } else {
            format!(
                "{} violations, first: {}",
                row.violations.len(),
                row.violations.first().map(String::as_str).unwrap_or("")
            )
        };
        report.push(name, row.ok(), detail);
    }
    report
}

/// Registry of every pass with a one-line description, in execution
/// order (the order `--list-passes` prints and a full run executes).
const PASSES: [(&str, &str); 12] = [
    ("plan-lint", "reject Plan DAG shapes that would panic or deadlock the event loop"),
    ("lock-order", "replay recorded lock-group traces for double grants, leaks and order cycles"),
    ("layout-conformance", "exhaustive OSM/parity/mirror placement rules across array shapes"),
    ("model-check", "exhaustive interleaving of small multi-client CDD scenarios"),
    ("linearizability", "Wing-Gong check of explored SIOS histories against a sequential spec"),
    ("crash-consistency", "crash-point enumeration inside OSM flushes and checkpoint commits"),
    ("trace-determinism", "event streams replay byte-identically; untraced and traced aggregate fingerprints agree"),
    ("fault-sweep", "every enumerated single-fault point recovers byte-for-byte"),
    ("race-detect", "vector-clock happens-before races and same-tick commutativity violations"),
    ("static-analysis", "parser-based workspace rules: determinism scopes, trigger conformance, wildcard arms, lock discipline, hygiene"),
    ("perf-smoke", "deterministic engine work counters vs the BENCH_engine.json baseline, plus profiler transparency"),
    ("cache-coherence", "client block-cache gate: model check + linearizability with a skip-invalidation canary, cached-vs-uncached transparency, Zipf hit-rate/speedup"),
];

fn pass_names() -> Vec<&'static str> {
    PASSES.iter().map(|&(n, _)| n).collect()
}

fn run_pass(name: &str, budget: u64, smoke: bool) -> PassReport {
    match name {
        "plan-lint" => lint_io_paths(),
        "lock-order" => lock_order_pass(),
        "layout-conformance" => layout_pass(),
        "model-check" => model_check::run_pass(budget),
        "linearizability" => linearizability::run_pass(budget),
        "crash-consistency" => crash_consistency::run_pass(),
        "trace-determinism" => trace_determinism::run_pass(),
        "fault-sweep" => fault_sweep::run_pass(smoke),
        "race-detect" => race_detect::run_pass(smoke),
        "static-analysis" => {
            let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates dir");
            static_analysis::run_pass(crates_dir)
        }
        "perf-smoke" => {
            let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
                .parent()
                .and_then(Path::parent)
                .expect("repo root");
            perf_smoke::run_pass(repo_root)
        }
        "cache-coherence" => cache_coherence::run_pass(budget),
        other => unreachable!("unregistered pass {other}"),
    }
}

struct Cli {
    passes: Vec<String>,
    budget: u64,
    smoke: bool,
    list: bool,
    json: Option<String>,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        passes: Vec::new(),
        budget: model_check::DEFAULT_BUDGET,
        smoke: false,
        list: false,
        json: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cli.smoke = true,
            "--list-passes" | "--list_passes" => cli.list = true,
            "--pass" => {
                // Accept underscores as separators too (`--pass
                // trace_determinism` names the same pass).
                let name = args.next().ok_or("--pass requires a name")?.replace('_', "-");
                if !pass_names().contains(&name.as_str()) {
                    return Err(format!(
                        "unknown pass `{name}`; available: {}",
                        pass_names().join(", ")
                    ));
                }
                cli.passes.push(name);
            }
            "--budget" => {
                let n = args.next().ok_or("--budget requires a number")?;
                cli.budget =
                    n.parse().map_err(|e| format!("--budget: invalid number `{n}`: {e}"))?;
            }
            "--json" => {
                cli.json = Some(args.next().ok_or("--json requires a path")?);
            }
            "--help" | "-h" => {
                return Err(format!(
                    "usage: verify_all [--pass <name>]... [--budget <n>] [--smoke] [--list-passes] [--json <path>]\npasses: {}",
                    pass_names().join(", ")
                ));
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(cli)
}

fn main() {
    let cli = match parse_args() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if cli.list {
        let width = PASSES.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, desc) in PASSES {
            println!("{name:width$}  {desc}");
        }
        return;
    }
    let selected: Vec<&str> = if cli.passes.is_empty() {
        pass_names()
    } else {
        pass_names().into_iter().filter(|n| cli.passes.iter().any(|p| p == n)).collect()
    };
    let mut failures = 0;
    let mut checks = 0;
    let mut timings: Vec<(&str, f64)> = Vec::new();
    let mut reports: Vec<PassReport> = Vec::new();
    for name in &selected {
        // det-ok: wall-clock spent per pass is reporting, not simulation.
        let t0 = std::time::Instant::now();
        let mut p = run_pass(name, cli.budget, cli.smoke);
        // det-ok: wall-clock readout of the per-pass stopwatch above.
        let secs = t0.elapsed().as_secs_f64();
        p.secs = Some(secs);
        timings.push((name, secs));
        print!("{}", p.render());
        println!("   ({secs:.2}s)\n");
        failures += p.failures();
        checks += p.checks.len();
        reports.push(p);
    }
    if let Some(path) = &cli.json {
        if let Err(e) = std::fs::write(path, report::render_json(&reports)) {
            eprintln!("--json {path}: write failed: {e}");
            std::process::exit(2);
        }
        println!("json report written to {path}");
    }
    let total: f64 = timings.iter().map(|(_, s)| s).sum();
    let slowest = timings.iter().max_by(|a, b| a.1.total_cmp(&b.1));
    if let Some((name, secs)) = slowest {
        println!("timing: {total:.2}s total, slowest pass {name} ({secs:.2}s)");
    }
    if failures == 0 {
        println!("verify_all: all {checks} checks passed across {} passes", selected.len());
    } else {
        println!("verify_all: {failures}/{checks} checks FAILED");
        std::process::exit(1);
    }
}
