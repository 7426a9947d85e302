//! Pass 4 — `raidx-model`: exhaustive interleaving exploration of CDD
//! lock-protocol scenarios.
//!
//! Each scenario from [`cdd::proto`] is a small multi-client program over
//! the real [`cdd::LockGroupTable`]; the [`sim_core::explore`] scheduler
//! enumerates every thread interleaving (with sleep-set pruning),
//! checking after every step that
//!
//! * no two clients hold overlapping grants (exclusive write permission),
//! * every store write is covered by a grant the writer holds,
//! * no schedule deadlocks (a client blocked forever is a lost wakeup).
//!
//! The pass explores the clean scenarios (which must come back with zero
//! findings) and one *canary*: a deliberately defective scenario the
//! checker must flag — guarding against the checker itself rotting into
//! a pass-everything no-op.

use crate::report::PassReport;
use cdd::proto::{
    scenario_cache, scenario_contended, scenario_epoch, scenario_reader, scenario_three, CddModel,
    Scenario,
};
use cdd::Defect;
use sim_core::explore::Explorer;

/// Default schedule budget when the driver does not supply one.
pub const DEFAULT_BUDGET: u64 = 100_000;

fn explorer(budget: u64) -> Explorer {
    Explorer { max_schedules: budget.max(1), ..Explorer::default() }
}

/// Explore one scenario under `budget`, appending one check to `rep`.
/// The check fails on any invariant/step/deadlock finding *or* if the
/// budget truncated coverage (an unexplored schedule is an unverified
/// claim).
pub fn check_scenario(rep: &mut PassReport, sc: Scenario, budget: u64) {
    let name = sc.name;
    let m = CddModel::new(sc);
    let r = explorer(budget).explore(&m);
    match (&r.failure, r.truncated) {
        (Some(f), _) => rep.fail(name, f.to_string()),
        (None, true) => rep.fail(
            name,
            format!("budget exhausted after {} schedules ({} pruned)", r.schedules, r.pruned),
        ),
        (None, false) => rep.ok(
            name,
            format!(
                "{} schedules, {} steps, {} branches pruned, all invariants hold",
                r.schedules, r.steps, r.pruned
            ),
        ),
    }
}

/// Run the model-check pass: all clean scenarios plus the defect canary.
pub fn run_pass(budget: u64) -> PassReport {
    let mut rep = PassReport::new("model-check");
    check_scenario(&mut rep, scenario_contended(Defect::None), budget);
    check_scenario(&mut rep, scenario_reader(Defect::None), budget);
    check_scenario(&mut rep, scenario_three(Defect::None), budget);
    check_scenario(&mut rep, scenario_epoch(Defect::None), budget);
    check_scenario(&mut rep, scenario_cache(Defect::None), budget);
    // Canary: the checker must still catch a planted double grant.
    let canary = explorer(budget).explore(&CddModel::new(scenario_contended(Defect::DoubleGrant)));
    rep.push(
        "canary: planted double grant is caught",
        canary.failure.is_some(),
        match &canary.failure {
            Some(f) => format!("caught: {f}"),
            None => "checker missed a planted double grant".to_string(),
        },
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdd::proto::scenario_contended;

    #[test]
    fn clean_pass_reports_zero_findings() {
        let rep = run_pass(DEFAULT_BUDGET);
        assert!(rep.all_ok(), "{}", rep.render());
        assert_eq!(rep.checks.len(), 6);
    }

    #[test]
    fn seeded_double_grant_fails_the_check() {
        let mut rep = PassReport::new("model-check");
        check_scenario(&mut rep, scenario_contended(Defect::DoubleGrant), DEFAULT_BUDGET);
        assert_eq!(rep.failures(), 1, "{}", rep.render());
        assert!(rep.checks[0].detail.contains("invariant"), "{}", rep.checks[0].detail);
    }

    #[test]
    fn seeded_lost_wakeup_fails_the_check() {
        let mut rep = PassReport::new("model-check");
        check_scenario(&mut rep, scenario_contended(Defect::SkipWakeup), DEFAULT_BUDGET);
        assert_eq!(rep.failures(), 1, "{}", rep.render());
        assert!(rep.checks[0].detail.contains("deadlock"), "{}", rep.checks[0].detail);
    }

    #[test]
    fn tiny_budget_reports_truncation() {
        let mut rep = PassReport::new("model-check");
        check_scenario(&mut rep, scenario_three(Defect::None), 2);
        assert_eq!(rep.failures(), 1, "{}", rep.render());
        assert!(rep.checks[0].detail.contains("budget"), "{}", rep.checks[0].detail);
    }
}
