//! Property: on a starved interconnect the event engine's sleeps are exact
//! under every execution model.
//!
//! With an 8-flit injection queue drained one flit per cycle (the machine
//! of `icnt_backpressure_counts_stalls`), most memory picks are refused
//! by the interconnect: a refused store or `red` sleeps until its
//! cluster's injection budget fits it, a refused load retries every cycle,
//! and CTA placements wait for retirements. The dense engine visits every
//! one of those sleeps and panics if a visit it makes would not be refused
//! the same way. Random grids of the gpu-sim generator (loads, stores,
//! `red`, `atom`, barriers and fences) must give identical cycles, digest
//! and statistics on both engines under the baseline, DAB and GPUDet; only
//! the `det.engine.*` activity counters may differ.
//!
//! The draw leaves out the generator's ticket-lock sections, as
//! `engine_equivalence` does: with them, DAB and GPUDet deadlock on some
//! grids, on any interconnect and with either engine.

#[path = "../crates/gpu-sim/tests/common/mod.rs"]
mod common;

use proptest::prelude::*;

use common::{build_grid, decode};
use dab::{DabConfig, DabModel};
use gpu_sim::config::{EngineKind, GpuConfig};
use gpu_sim::engine::GpuSim;
use gpu_sim::exec::{BaselineModel, ExecutionModel};
use gpu_sim::isa::{Instr, MemAccess, WarpProgram};
use gpu_sim::kernel::{CtaSpec, KernelGrid};
use gpu_sim::ndet::NdetSource;
use gpudet::{GpuDetConfig, GpuDetModel};

/// The tiny machine with a starved interconnect.
fn starved(engine: EngineKind) -> GpuConfig {
    let mut cfg = GpuConfig::tiny();
    cfg.icnt_input_buffer = 8;
    cfg.icnt_flits_per_cycle = 1;
    cfg.engine = engine;
    cfg
}

/// Model `which` (0 baseline, 1 DAB, 2 GPUDet) for `gpu`.
fn model(which: usize, gpu: &GpuConfig) -> Box<dyn ExecutionModel> {
    match which {
        0 => Box::new(BaselineModel::new()),
        1 => Box::new(DabModel::new(gpu, DabConfig::paper_default())),
        _ => Box::new(GpuDetModel::new(gpu, GpuDetConfig::default())),
    }
}

/// Cycles, digest and every statistic except the `det.engine.*` activity
/// counters, which differ between engines by design.
fn run(grid: &KernelGrid, which: usize, engine: EngineKind, seed: u64) -> (u64, u64, String) {
    let gpu = starved(engine);
    let model = model(which, &gpu);
    let r = GpuSim::new(gpu, model, NdetSource::seeded(seed)).run(std::slice::from_ref(grid));
    let mut stats = r.stats.clone();
    stats.counters.retain(|k, _| !k.starts_with("det.engine."));
    (r.cycles(), r.digest(), format!("{stats:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn starved_interconnect_is_engine_invariant(
        raw in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((0u32..7, 0u64..4, 0u32..8), 1..8),
                1..4,
            ),
            1..6,
        ),
        seed in any::<u64>(),
    ) {
        let grid = build_grid(raw, decode);
        for (which, name) in ["baseline", "dab", "gpudet"].into_iter().enumerate() {
            prop_assert_eq!(
                &run(&grid, which, EngineKind::Dense, seed),
                &run(&grid, which, EngineKind::Event, seed),
                "model {}, seed {}", name, seed
            );
        }
    }
}

/// The property above is not vacuous: a grid of loads and stores on this
/// machine is refused by the interconnect under the baseline and DAB.
/// (GPUDet buffers stores in its parallel mode, and the generator's loads
/// share four sectors, so its L1 MSHRs merge them.)
#[test]
fn starved_interconnect_refuses_requests() {
    let warp = |w: u64| -> Vec<(u32, u64, u32)> {
        (0..12)
            .map(|i| (1 + (i + w as u32) % 2, w + u64::from(i), 0))
            .collect()
    };
    let grid = build_grid(
        (0..8)
            .map(|c| (0..4).map(|w| warp(c + w)).collect())
            .collect(),
        decode,
    );
    for which in 0..2 {
        let gpu = starved(EngineKind::Event);
        let model = model(which, &gpu);
        let r = GpuSim::new(gpu, model, NdetSource::seeded(1)).run(std::slice::from_ref(&grid));
        assert!(r.stats.icnt_stall_cycles > 0, "model {which}");
    }
}

/// A loads-only grid of 8 CTAs × 4 warps × 12 loads of 32 lanes, each load
/// four sectors from `base(warp, load)` on.
fn loads_grid(base: impl Fn(u64, u64) -> u64) -> KernelGrid {
    let warp = |w: u64| {
        let loads = (0..12)
            .map(|i| Instr::Load {
                accesses: vec![MemAccess::per_lane_f32(base(w, i), 32)],
            })
            .collect();
        WarpProgram::new(loads, 32)
    };
    let ctas = (0..8)
        .map(|c| CtaSpec::new(c, (0..4).map(|w| warp(c as u64 * 4 + w)).collect()))
        .collect();
    KernelGrid::new("loads", ctas)
}

/// Interconnect-refused loads at kernel scale. The generator's loads share
/// four sectors, so its grids seldom see one refused. In the first grid
/// every warp loads lines no other warp touches; in the second, each load
/// shares two sectors with the next warp's, so a fill or a new MSHR key
/// of one warp changes what another's retry finds. A load the interconnect
/// refuses retries every cycle, and both engines must agree under every
/// model.
#[test]
fn starved_interconnect_refused_loads_are_engine_invariant() {
    let grids = [
        loads_grid(|w, i| 0x10_0000 + (w * 12 + i) * 0x400),
        loads_grid(|w, i| 0x10_0000 + (i * 7 + w) * 0x40),
    ];
    for grid in &grids {
        for (which, name) in ["baseline", "dab", "gpudet"].into_iter().enumerate() {
            let gpu = starved(EngineKind::Event);
            let model = model(which, &gpu);
            let r = GpuSim::new(gpu, model, NdetSource::seeded(1)).run(std::slice::from_ref(grid));
            assert!(r.stats.icnt_stall_cycles > 0, "model {name}");
            assert_eq!(
                run(grid, which, EngineKind::Dense, 1),
                run(grid, which, EngineKind::Event, 1),
                "model {name}"
            );
        }
    }
}
