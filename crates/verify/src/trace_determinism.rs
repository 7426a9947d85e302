//! Pass 7 — the determinism gate.
//!
//! The whole reproduction rests on the simulator being a pure function of
//! its configuration: the property tests replay seeds, the experiment
//! harness compares architectures run in separate engines, and regressions
//! are diffed run-over-run. For every architecture this pass runs the same
//! seeded cluster workload three times in fresh engines — once untraced,
//! twice with an [`EventLog`] tracer installed — and checks two things:
//!
//! * **Event streams.** The two traced runs must emit **byte-identical**
//!   event sequences — every job spawn, queue arrival, service
//!   start/finish and barrier opening, in the same order at the same
//!   simulated nanosecond. This is the property the Perfetto/CSV
//!   exporters rely on (a trace you cannot reproduce is a trace you
//!   cannot debug from), and it catches defects that leave the totals
//!   equal while interleaving events differently.
//! * **Aggregates.** All three runs must agree on everything observable
//!   at the end of the run — job completion records and per-resource
//!   statistics ([`trace_lines`]), fingerprinted with FNV-1a. Comparing
//!   the untraced run against the traced ones also proves the tracer
//!   does not perturb what it records.
//!
//! Any divergence is reported with the first differing event or
//! aggregate line. The pass ends with a *perturbation canary*: it swaps
//! one adjacent event pair in a copy of a recorded stream and asserts the
//! comparator catches it — guarding against the fingerprint silently
//! degenerating into a constant.

use raidx_core::Arch;
use sim_core::trace::{render_event, EventLog, TimedEvent};
use sim_core::{fnv1a, Engine, FNV1A_OFFSET};
use workloads::parallel_io::{run_parallel_io, IoPattern, ParallelIoConfig};

use crate::report::PassReport;

/// FNV-1a over `lines`, each terminated by a newline.
fn lines_fingerprint<S: AsRef<str>>(lines: impl IntoIterator<Item = S>) -> u64 {
    lines.into_iter().fold(FNV1A_OFFSET, |h, line| fnv1a(fnv1a(h, line.as_ref().as_bytes()), b"\n"))
}

/// FNV-1a fingerprint over a rendered event stream.
pub fn stream_fingerprint(events: &[TimedEvent]) -> u64 {
    lines_fingerprint(events.iter().map(render_event))
}

/// Render every observable of a finished engine as one trace line per
/// job and per resource (stable, human-diffable).
pub fn trace_lines(engine: &Engine) -> Vec<String> {
    let mut lines = Vec::new();
    for (i, j) in engine.jobs().iter().enumerate() {
        let end = j.end.map_or(u64::MAX, |t| t.as_nanos());
        lines.push(format!("job {i} {} start={} end={end}", j.label, j.start.as_nanos()));
    }
    for (_, name, stats) in engine.resources() {
        lines.push(format!(
            "res {name} busy={} ops={} bytes={} wait={} maxq={}",
            stats.busy.as_nanos(),
            stats.ops,
            stats.bytes,
            stats.queue_wait.as_nanos(),
            stats.max_queue
        ));
    }
    lines
}

/// FNV-1a fingerprint over an engine's end-of-run aggregates
/// ([`trace_lines`]).
pub fn engine_fingerprint(engine: &Engine) -> u64 {
    lines_fingerprint(trace_lines(engine))
}

/// First position where `a` and `b` differ, as `(index, a's item, b's
/// item)`; a length mismatch is reported at the first missing index.
fn first_diff<T: PartialEq>(
    a: &[T],
    b: &[T],
    show: impl Fn(&T) -> String,
    unit: &str,
) -> Option<(usize, String, String)> {
    if let Some(i) = a.iter().zip(b).position(|(x, y)| x != y) {
        return Some((i, show(&a[i]), show(&b[i])));
    }
    (a.len() != b.len()).then(|| {
        let i = a.len().min(b.len());
        (i, format!("{} {unit}", a.len()), format!("{} {unit}", b.len()))
    })
}

/// First divergence between two event streams, as
/// `(index, run A line, run B line)`; length mismatches are reported at
/// the first missing index.
pub fn diff_streams(a: &[TimedEvent], b: &[TimedEvent]) -> Option<(usize, String, String)> {
    first_diff(a, b, render_event, "events")
}

/// Outcome of the untraced + traced double run for one architecture.
#[derive(Debug, Clone)]
pub struct TraceAudit {
    /// Architecture audited.
    pub arch: Arch,
    /// Fingerprint of the first traced run's event stream.
    pub fingerprint_a: u64,
    /// Fingerprint of the second traced run's event stream.
    pub fingerprint_b: u64,
    /// Event stream recorded by the first traced run.
    pub stream: Vec<TimedEvent>,
    /// First differing event, if any.
    pub divergence: Option<(usize, String, String)>,
    /// Aggregate fingerprints of the untraced run and the two traced
    /// runs, in that order.
    pub aggregates: [u64; 3],
    /// Aggregate lines of the untraced run.
    pub aggregate_lines: usize,
    /// First aggregate line where a traced run differs from the untraced
    /// run, as `(index, untraced line, traced line)`.
    pub aggregate_divergence: Option<(usize, String, String)>,
}

impl TraceAudit {
    /// True when both traced runs emitted identical event streams.
    pub fn deterministic(&self) -> bool {
        self.fingerprint_a == self.fingerprint_b && self.divergence.is_none()
    }

    /// True when all three runs produced identical aggregates.
    pub fn aggregates_agree(&self) -> bool {
        self.aggregates.iter().all(|&f| f == self.aggregates[0])
            && self.aggregate_divergence.is_none()
    }
}

/// One run of the seeded Figure-5 style workload, with an [`EventLog`]
/// installed when `traced`: the aggregate lines plus the recorded event
/// stream (empty when untraced).
fn one_run(arch: Arch, traced: bool) -> (Vec<String>, Vec<TimedEvent>) {
    let (mut engine, mut sys) = cdd::testkit::shape(4, 2, 8 << 20, arch);
    let log = EventLog::new();
    if traced {
        engine.set_tracer(Box::new(log.clone()));
    }
    let cfg = ParallelIoConfig {
        clients: 4,
        pattern: IoPattern::LargeWrite,
        large_bytes: 256 << 10,
        repeats: 2,
        ..Default::default()
    };
    run_parallel_io(&mut engine, &mut sys, &cfg).expect("workload failed");
    (trace_lines(&engine), log.events())
}

/// Run the Figure-5 style workload once untraced and twice traced, and
/// compare the event streams and the aggregates.
pub fn audit_trace(arch: Arch) -> TraceAudit {
    let (plain, _) = one_run(arch, false);
    let (lines_a, a) = one_run(arch, true);
    let (lines_b, b) = one_run(arch, true);
    let aggregate_divergence = first_diff(&plain, &lines_a, String::clone, "lines")
        .or_else(|| first_diff(&plain, &lines_b, String::clone, "lines"));
    TraceAudit {
        arch,
        fingerprint_a: stream_fingerprint(&a),
        fingerprint_b: stream_fingerprint(&b),
        divergence: diff_streams(&a, &b),
        aggregates: [&plain, &lines_a, &lines_b].map(lines_fingerprint),
        aggregate_lines: plain.len(),
        aggregate_divergence,
        stream: a,
    }
}

/// Run the full determinism pass: the stream and aggregate audits per
/// architecture plus the perturbation canary.
pub fn run_pass() -> PassReport {
    let mut report = PassReport::new("trace-determinism");
    let mut canary_stream: Vec<TimedEvent> = Vec::new();
    for arch in Arch::ALL {
        let audit = audit_trace(arch);
        let detail = match &audit.divergence {
            None => format!(
                "fingerprint {:016x}, {} events, stream byte-identical",
                audit.fingerprint_a,
                audit.stream.len()
            ),
            Some((i, a, b)) => format!("diverged at event {i}: `{a}` vs `{b}`"),
        };
        let stream_ok = audit.deterministic() && !audit.stream.is_empty();
        report.push(format!("{arch:?} traced double run"), stream_ok, detail);
        let detail = match &audit.aggregate_divergence {
            None => format!(
                "fingerprint {:016x}, {} trace lines, untraced and traced runs agree",
                audit.aggregates[0], audit.aggregate_lines
            ),
            Some((i, a, b)) => format!("diverged at line {i}: untraced `{a}` vs traced `{b}`"),
        };
        let aggregates_ok = audit.aggregates_agree() && audit.aggregate_lines > 0;
        report.push(format!("{arch:?} aggregates"), aggregates_ok, detail);
        if canary_stream.is_empty() {
            canary_stream = audit.stream;
        }
    }
    // Perturbation canary: an injected reorder must be caught.
    if canary_stream.len() >= 2 {
        let mut perturbed = canary_stream.clone();
        let mid = perturbed.len() / 2;
        perturbed.swap(mid - 1, mid);
        let caught = diff_streams(&canary_stream, &perturbed).is_some()
            && stream_fingerprint(&canary_stream) != stream_fingerprint(&perturbed);
        report.push(
            "perturbation canary",
            caught,
            if caught {
                "injected event reorder detected by diff and fingerprint".to_string()
            } else {
                "injected event reorder NOT detected".to_string()
            },
        );
    } else {
        report.fail("perturbation canary", "stream too short to perturb");
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::plan::use_res;
    use sim_core::trace::{TraceEvent, Tracer};
    use sim_core::{Demand, Engine, FixedRate, SimTime};

    #[test]
    fn all_archs_trace_deterministic() {
        for arch in Arch::ALL {
            let audit = audit_trace(arch);
            assert!(audit.deterministic(), "{arch:?} trace diverged at {:?}", audit.divergence);
            assert!(!audit.stream.is_empty(), "{arch:?} recorded no events");
            assert!(
                audit.aggregates_agree(),
                "{arch:?} aggregates diverged at {:?} (fps {:x?})",
                audit.aggregate_divergence,
                audit.aggregates
            );
            assert!(audit.aggregate_lines > 0);
        }
    }

    /// Different workloads must produce different aggregate fingerprints
    /// (the hash actually observes the run).
    #[test]
    fn fingerprint_distinguishes_runs() {
        let fps = [Arch::RaidX, Arch::Raid5].map(|arch| lines_fingerprint(one_run(arch, false).0));
        assert_ne!(fps[0], fps[1]);
    }

    #[test]
    fn fingerprint_sensitive_to_a_single_job() {
        let mut a = Engine::new();
        let mut b = Engine::new();
        for e in [&mut a, &mut b] {
            let d = e.add_resource("disk", Box::new(FixedRate::rate(1 << 20)));
            e.spawn_job("w", use_res(d, Demand::DiskWrite { offset: 0, bytes: 4096 }));
        }
        b.spawn_job("extra", sim_core::Plan::Delay(sim_core::SimDuration::from_micros(1)));
        a.run().expect("run a");
        b.run().expect("run b");
        assert_ne!(engine_fingerprint(&a), engine_fingerprint(&b));
    }

    #[test]
    fn pass_is_green() {
        let report = run_pass();
        assert!(report.all_ok(), "{}", report.render());
    }

    /// A defective tracer that injects nondeterministic event ordering:
    /// it delays one event out of every seven by one slot, with the
    /// perturbation phase taken from a process-global counter, so two
    /// "identical" runs interleave their streams differently — exactly
    /// the defect class this pass exists to catch.
    struct JitterTracer {
        out: std::sync::Arc<std::sync::Mutex<Vec<TimedEvent>>>,
        held: Option<TimedEvent>,
        phase: usize,
        count: usize,
    }

    impl Tracer for JitterTracer {
        fn record(&mut self, at: SimTime, event: TraceEvent) {
            let owned = TimedEvent { at, event };
            self.count += 1;
            let mut out = self.out.lock().expect("jitter buffer");
            if let Some(held) = self.held.take() {
                // Emit the delayed event after the current one: a reorder.
                out.push(owned);
                out.push(held);
            } else if self.count % 7 == self.phase {
                self.held = Some(owned);
            } else {
                out.push(owned);
            }
        }
    }

    #[test]
    fn seeded_nondeterministic_ordering_is_caught() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Mutex};
        static PHASE: AtomicUsize = AtomicUsize::new(1);
        let run = || {
            let mut engine = Engine::new();
            let d = engine.add_resource("disk", Box::new(FixedRate::rate(8 << 20)));
            let buf = Arc::new(Mutex::new(Vec::new()));
            let jitter = JitterTracer {
                out: Arc::clone(&buf),
                held: None,
                phase: PHASE.fetch_add(1, Ordering::SeqCst) % 7,
                count: 0,
            };
            engine.set_tracer(Box::new(jitter));
            for i in 0..8u64 {
                engine.spawn_job(
                    format!("j{i}"),
                    use_res(d, Demand::DiskWrite { offset: i * 4096, bytes: 4096 }),
                );
            }
            engine.run().expect("run");
            let events = buf.lock().expect("jitter buffer").clone();
            events
        };
        let a = run();
        let b = run();
        assert!(
            diff_streams(&a, &b).is_some(),
            "injected nondeterministic ordering was not detected"
        );
        assert_ne!(stream_fingerprint(&a), stream_fingerprint(&b));
    }

    #[test]
    fn fingerprint_observes_event_content_and_order() {
        let mk = |bytes: u64| TimedEvent {
            at: SimTime(10),
            event: sim_core::TraceEvent::ServiceFinished {
                res: 0,
                task: 1,
                kind: sim_core::DemandKind::DiskWrite,
                bytes,
                detached: false,
            },
        };
        let a = vec![mk(1), mk(2)];
        let b = vec![mk(2), mk(1)];
        assert_ne!(stream_fingerprint(&a), stream_fingerprint(&b));
        assert!(diff_streams(&a, &b).is_some());
        assert_eq!(diff_streams(&a, &a.clone()), None);
    }
}
