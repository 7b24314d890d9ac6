//! Property: the event engine's burst sleeps are exact under every model
//! and every greedy policy.
//!
//! A scheduler whose greedy warp issues an ALU instruction with two or more
//! issues of its burst left sleeps until the burst's last issue or until
//! one of its views changes, and its next visit credits the issues in
//! between. The dense engine visits every one of those cycles and panics if
//! a visit does not issue the burst's next instruction. The shared
//! generator draws bursts of 1-4 issues; here they run up to 64, mixed with
//! loads, `red`s and barriers, so long bursts overlap load responses,
//! barrier releases, token moves and warp exits. The baseline (GTO), DAB
//! under GWAT, GTAR and GTRR, and GPUDet (which counts every issue, so its
//! schedulers never sleep on a burst) must give identical cycles, digest
//! and statistics on both engines; only the `det.engine.*` activity
//! counters may differ.
//!
//! Grids stay within 5 CTAs × 3 warps and leave out the generator's lock
//! sections: larger grids and grids with locks deadlock DAB on some draws
//! with either engine (ROADMAP item 1).

#[path = "../crates/gpu-sim/tests/common/mod.rs"]
mod common;

use proptest::prelude::*;

use common::{build_grid, decode};
use dab::{DabConfig, DabModel};
use gpu_sim::config::{EngineKind, GpuConfig};
use gpu_sim::engine::GpuSim;
use gpu_sim::exec::{BaselineModel, ExecutionModel};
use gpu_sim::isa::Instr;
use gpu_sim::kernel::KernelGrid;
use gpu_sim::ndet::NdetSource;
use gpu_sim::sched::SchedKind;
use gpudet::{GpuDetConfig, GpuDetModel};

/// The models the property runs, by name.
const MODELS: [&str; 5] = ["baseline", "dab-gwat", "dab-gtar", "dab-gtrr", "gpudet"];

fn model(name: &str, gpu: &GpuConfig) -> Box<dyn ExecutionModel> {
    let dab = |kind| {
        Box::new(DabModel::new(
            gpu,
            DabConfig::paper_default().with_scheduler(kind),
        ))
    };
    match name {
        "baseline" => Box::new(BaselineModel::new()),
        "dab-gwat" => dab(SchedKind::Gwat),
        "dab-gtar" => dab(SchedKind::Gtar),
        "dab-gtrr" => dab(SchedKind::Gtrr),
        _ => Box::new(GpuDetModel::new(gpu, GpuDetConfig::default())),
    }
}

/// Opcodes 0-1 draw an ALU burst of 1-64 issues with a 1-4 cycle tail;
/// 2-4 a load, a `red` and a barrier of the shared generator.
fn decode_bursts(opcode: u32, operand: u64, count: u32) -> Instr {
    match opcode {
        0 | 1 => Instr::Alu {
            cycles: 1 + (operand % 4) as u32,
            count: 1 + count % 64,
        },
        2 => decode(1, operand, count),
        3 => decode(3, operand, count),
        _ => decode(5, operand, count),
    }
}

/// Cycles, digest and every statistic except the `det.engine.*` activity
/// counters, which differ between engines by design.
fn run(grid: &KernelGrid, name: &str, engine: EngineKind, seed: u64) -> (u64, u64, String) {
    let mut gpu = GpuConfig::tiny();
    gpu.engine = engine;
    let model = model(name, &gpu);
    let r = GpuSim::new(gpu, model, NdetSource::seeded(seed)).run(std::slice::from_ref(grid));
    let mut stats = r.stats.clone();
    stats.counters.retain(|k, _| !k.starts_with("det.engine."));
    (r.cycles(), r.digest(), format!("{stats:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn long_bursts_are_engine_invariant(
        raw in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((0u32..5, 0u64..4, 0u32..64), 1..8),
                1..4,
            ),
            1..6,
        ),
        seed in any::<u64>(),
    ) {
        let grid = build_grid(raw, decode_bursts);
        for name in MODELS {
            prop_assert_eq!(
                &run(&grid, name, EngineKind::Dense, seed),
                &run(&grid, name, EngineKind::Event, seed),
                "model {}, seed {}", name, seed
            );
        }
    }
}

/// The property above is not vacuous: on a grid of long bursts the event
/// engine visits an SM fewer than once per ten issues under the greedy
/// policies, and under GPUDet, whose schedulers visit every issue, more
/// than ten times as often as under the baseline.
#[test]
fn long_bursts_sleep_except_under_gpudet() {
    let warp = |w: u64| -> Vec<(u32, u64, u32)> { vec![(0, w, 63), (2, w, 0), (0, w, 47)] };
    let raw = (0..4)
        .map(|c| (0..3).map(|w| warp(c + w)).collect())
        .collect();
    let grid = build_grid(raw, decode_bursts);
    let visits = MODELS.map(|name| {
        let mut gpu = GpuConfig::tiny();
        gpu.engine = EngineKind::Event;
        let model = model(name, &gpu);
        let r = GpuSim::new(gpu, model, NdetSource::seeded(1)).run(std::slice::from_ref(&grid));
        assert_eq!(r.stats.warp_instrs, 12 * 113, "{name}");
        r.stats.counter("det.engine.sms_ticked")
    });
    for (name, &n) in MODELS.iter().zip(&visits).take(4) {
        assert!(n * 10 < 12 * 113, "{name}: {n} SM visits");
    }
    assert!(visits[4] > 10 * visits[0], "gpudet: {visits:?} SM visits");
}
