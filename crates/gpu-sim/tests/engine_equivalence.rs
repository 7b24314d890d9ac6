//! Property: `DAB_ENGINE` is a throughput knob, never a results knob.
//!
//! Random microbench traces — mixed ALU / load / store / reduction /
//! blocking-atomic / barrier / fence programs — run through the dense
//! engine (the equivalence oracle) and the activity-driven event engine.
//! Digests, cycle counts, and the full statistics set must be
//! byte-identical, with non-determinism injection disabled and with a
//! seeded stream.
//!
//! The only intentional divergence is the `det.engine.*` activity-counter
//! family (`cycles_skipped`, `wakeup_events`, `sms_ticked`,
//! `scheduler_scans`): the event engine exists to make those differ, so
//! the comparison strips them and checks everything else.

mod common;

use proptest::prelude::*;

use common::{build_grid, decode, LANES};
use gpu_sim::config::{EngineKind, GpuConfig};
use gpu_sim::engine::GpuSim;
use gpu_sim::exec::BaselineModel;
use gpu_sim::isa::{Instr, MemAccess, WarpProgram};
use gpu_sim::kernel::{CtaSpec, KernelGrid};
use gpu_sim::ndet::NdetSource;

/// Runs `grid` under the requested engine and returns the determinism
/// triple: final cycle count, memory digest, and the statistics rendered
/// with the by-design-divergent `det.engine.*` activity counters stripped.
fn run(grid: &KernelGrid, engine: EngineKind, ndet: NdetSource) -> (u64, u64, String) {
    let mut cfg = GpuConfig::tiny();
    cfg.engine = engine;
    let sim = GpuSim::new(cfg, Box::new(BaselineModel::new()), ndet);
    let r = sim.run(std::slice::from_ref(grid));
    let mut stats = r.stats.clone();
    stats.counters.retain(|k, _| !k.starts_with("det.engine."));
    (r.cycles(), r.digest(), format!("{stats:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_traces_are_engine_invariant(
        raw in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((0u32..7, 0u64..4, 0u32..8), 1..6),
                1..3,
            ),
            1..5,
        ),
        seed in any::<u64>(),
    ) {
        let grid = build_grid(raw, decode);
        prop_assert_eq!(
            &run(&grid, EngineKind::Dense, NdetSource::disabled()),
            &run(&grid, EngineKind::Event, NdetSource::disabled()),
            "disabled ndet"
        );
        prop_assert_eq!(
            &run(&grid, EngineKind::Dense, NdetSource::seeded(seed)),
            &run(&grid, EngineKind::Event, NdetSource::seeded(seed)),
            "seed={}", seed
        );
    }
}

/// The event engine must actually skip cycles on a latency-dominated trace
/// (single warp, long dependent loads) — otherwise the equivalence above
/// is vacuous and the "event" engine is just dense with extra bookkeeping.
#[test]
fn event_engine_skips_cycles_on_idle_trace() {
    let program = WarpProgram::new(
        (0..8)
            .map(|i| Instr::Load {
                accesses: vec![MemAccess::per_lane_f32(0x1_0000 + i * 0x400, LANES)],
            })
            .collect(),
        LANES,
    );
    let grid = KernelGrid::new("idle", vec![CtaSpec::new(0, vec![program])]);
    let mut cfg = GpuConfig::tiny();
    cfg.engine = EngineKind::Event;
    let sim = GpuSim::new(cfg, Box::new(BaselineModel::new()), NdetSource::disabled());
    let r = sim.run(std::slice::from_ref(&grid));
    assert!(
        r.stats.counter("det.engine.cycles_skipped") > 0,
        "no cycles skipped: {:?}",
        r.stats.counters
    );
    // Skipped plus visited cycles must tile the run exactly.
    assert!(r.stats.counter("det.engine.cycles_skipped") < r.cycles());
}
