#![warn(missing_docs)]
//! # raidx-verify — static analysis and invariant verification
//!
//! Twelve offline passes that check the reproduction's correctness
//! properties *before and between* simulations, independently of the unit
//! tests:
//!
//! 1. [`plan_lint`] — walks the [`sim_core::Plan`] DAGs that the real I/O
//!    engines emit and rejects shapes that would panic or deadlock the
//!    event loop (unknown resources, unregistered barriers, barriers
//!    inside detached subtrees) plus hygiene defects (empty combinators,
//!    zero-byte transfers).
//! 2. [`lock_order`] — replays a recorded [`cdd::LockEvent`] trace and
//!    reports double grants, releases without a matching grant, leaked
//!    lock groups, and cycles in the block-range acquisition order
//!    (potential distributed deadlock).
//! 3. [`layout_check`] — exhaustively verifies the OSM placement rule,
//!    the RAID-5 left-symmetric parity rotation, RAID-10 mirror
//!    disjointness and the chained-declustering neighbor rule across a
//!    sweep of (n, k) array shapes.
//! 4. [`model_check`] — the `raidx-model` checker: exhaustively
//!    interleaves small multi-client CDD scenarios under the
//!    [`sim_core::explore`] scheduler, asserting lock-group invariants
//!    (no double grant, covered writes, no lost wakeups) at every step.
//! 5. [`linearizability`] — Wing–Gong checks the SIOS read/write history
//!    of every explored schedule against a sequential block-store spec.
//! 6. [`crash_consistency`] — enumerates crash points inside OSM
//!    mirror flushes and two-level checkpoint commits and verifies both
//!    recovery paths always reconstruct a consistent image.
//! 7. [`trace_determinism`] — the determinism gate: runs the seeded
//!    workload once untraced and twice with the
//!    [`sim_core::trace::EventLog`] tracer installed, requires the two
//!    full observability event streams to replay byte-identically
//!    (every queue arrival, service start/finish and barrier opening)
//!    and all three runs to agree on their aggregate fingerprints (job
//!    timings + resource stats), plus a perturbation canary that proves
//!    an injected event reorder is detected.
//! 8. [`fault_sweep`] — enumerates deterministic single-fault injection
//!    points (permanent disk failure, transient outage, NIC partition,
//!    node crash, disk slowdown) across every architecture mid-workload,
//!    asserting byte-for-byte survival after recovery (degraded writes
//!    resynced, rebuilds complete, scrub clean) and that every faulted
//!    scenario replays fingerprint-identically from the same seed and
//!    [`sim_core::FaultPlan`].
//! 9. [`race_detect`] — feeds the merged engine + protocol trace of a
//!    seeded scripted workload to the FastTrack-style vector-clock
//!    happens-before analyzer ([`sim_core::hb`]): conflicting cell
//!    accesses unordered by fork/join/barrier/lock edges, protocol
//!    writes outside any lock-group grant, and same-timestamp events
//!    with overlapping footprints (commutativity violations). Planted
//!    defects (a dropped grant, a skipped barrier, twinned same-tick
//!    disk services) prove each detector class catches real bugs, with
//!    ddmin-shrunk counterexample windows.
//! 10. [`static_analysis`] — the [`raidx_analyze`] parser-based
//!     whole-workspace analyzer: scope-aware determinism hazards (wall
//!     clocks, OS entropy, unordered map iteration in simulation paths,
//!     stale `det-ok` acknowledgements), fault-trigger/trace-point
//!     conformance, a wildcard-arm ban on matches over safety-critical
//!     enums, cdd lock-grant discipline, and hygiene gates (module-size
//!     cap, `unwrap`/`expect` outside tests, missing pub docs), each
//!     proved live by a planted-defect canary.
//! 11. [`perf_smoke`] — the engine-performance regression gate: re-runs
//!     the small scenarios shared with `bench::perfbench` and compares
//!     the deterministic [`sim_core::EngineStats`] work counters against
//!     the committed `BENCH_engine.json` baseline ([`benchfile`] holds
//!     the schema) within a tolerance band, asserts a profiler-on run is
//!     result-identical to a profiler-off run, and proves the comparator
//!     live with a planted 3× counter drift. Wall-clock figures in the
//!     baseline are advisory and never gated.
//! 12. [`cache_coherence`] — the client block-cache gate: exhaustive
//!     model checking and linearizability of the `cache-coherence`
//!     scenario (with a planted skip-invalidation canary the checker
//!     must catch), cached-vs-uncached transparency of random op
//!     scripts on every architecture, and the Zipfian payoff gate (≥50%
//!     hit rate at s = 1.0, a >1× simulated-time speedup, zero stale
//!     reads). Shares the `zipf_cache` scenario with `bench::perfbench`.
//!
//! Every pass is a library API first; `cargo run -p bench --bin
//! verify_all` drives all twelve (filterable with `--pass <name>`,
//! listable with `--list-passes`, exportable with `--json <path>`) and
//! exits non-zero on any finding.

pub mod benchfile;
pub mod cache_coherence;
pub mod crash_consistency;
pub mod fault_sweep;
pub mod layout_check;
pub mod linearizability;
pub mod lock_order;
pub mod model_check;
pub mod perf_smoke;
pub mod plan_lint;
pub mod race_detect;
pub mod report;
pub mod static_analysis;
pub mod trace_determinism;

pub use benchfile::BenchScenario;
pub use fault_sweep::{FaultKind, SweepOutcome, SweepScenario};
pub use layout_check::{conformance_sweep, SweepRow};
pub use linearizability::check_history;
pub use lock_order::{analyze_lock_trace, LockAuditReport, LockDefect};
pub use plan_lint::lint_io_paths;
pub use report::{Check, PassReport};
pub use trace_determinism::{
    audit_trace, diff_streams, engine_fingerprint, stream_fingerprint, TraceAudit,
};
