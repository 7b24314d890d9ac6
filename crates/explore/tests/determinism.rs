//! Determinism of the exploration itself.
//!
//! The decision log is recorded in the engine's serial commit phase, so
//! the trace — and everything derived from it: classes, witnesses, the
//! JSON report — must be byte-identical across repeated runs.

use dab_explore::{explore_bench, ExploreConfig, ModelKind, SuiteExploration};
use dab_workloads::scale::Scale;
use dab_workloads::suite::micro_suite;
use gpu_sim::config::GpuConfig;

fn tiny_cfg() -> ExploreConfig {
    let mut cfg = ExploreConfig::new(GpuConfig::tiny());
    cfg.budget = 12;
    cfg.verify = 3;
    cfg
}

/// One racy and one hazard-free micro, explored twice: the rendered JSON
/// must match byte-for-byte.
#[test]
fn exploration_is_repeatable() {
    let benches: Vec<_> = micro_suite(Scale::Ci)
        .into_iter()
        .filter(|b| b.name == "micro_ticket_counter" || b.name == "micro_order_sensitive")
        .collect();
    assert_eq!(benches.len(), 2);
    let first = SuiteExploration::run(&tiny_cfg(), "ci", &benches);
    let second = SuiteExploration::run(&tiny_cfg(), "ci", &benches);
    assert_eq!(first.to_json().pretty(), second.to_json().pretty());
    let racy = first
        .benches
        .iter()
        .find(|b| b.bench == "micro_ticket_counter")
        .unwrap();
    assert!(racy.classes.len() >= 2, "{} classes", racy.classes.len());
}

/// The baseline model is explorable too, and hazard-freedom does *not*
/// prune under it: the analyzer's guarantees are DAB semantics.
#[test]
fn baseline_model_never_statically_prunes() {
    let mut cfg = tiny_cfg();
    cfg.model = ModelKind::Baseline;
    cfg.budget = 6;
    let bench = micro_suite(Scale::Ci)
        .into_iter()
        .find(|b| b.name == "micro_atomic_sum")
        .unwrap();
    let r = explore_bench(&cfg, &bench);
    assert_eq!(r.hazard_choice_points, 0);
    assert!(!r.statically_pruned);
}
