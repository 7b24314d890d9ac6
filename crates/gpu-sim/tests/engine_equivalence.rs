//! The event engine is not dense with extra bookkeeping: it skips cycles.
//!
//! Random grids run on both engines in the oracle table
//! (`tests/oracle.rs`); this pins that the skipping it checks happens.

mod common;

use common::{baseline, build_grid, run, Barriers, Op};
use gpu_sim::config::{EngineKind, GpuConfig};
use gpu_sim::ndet::NdetSource;

/// The event engine must actually skip cycles on a latency-dominated trace
/// (single warp, long dependent loads) — otherwise the equivalence the
/// oracle checks is vacuous.
#[test]
fn event_engine_skips_cycles_on_idle_trace() {
    let loads = (0..8).map(|i| (Op::Load, i * 8, 0)).collect();
    let grid = build_grid(vec![vec![loads]], 8, Barriers::PerCta);
    let r = run(
        &grid,
        &GpuConfig::tiny(),
        baseline,
        EngineKind::Event,
        NdetSource::disabled(),
    );
    assert!(
        r.stats.counter("det.engine.cycles_skipped") > 0,
        "no cycles skipped: {:?}",
        r.stats.counters
    );
    // Skipped plus visited cycles must tile the run exactly.
    assert!(r.stats.counter("det.engine.cycles_skipped") < r.cycles());
}
