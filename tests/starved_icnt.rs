//! A starved interconnect refuses requests, and its refused loads are
//! engine-invariant at kernel scale.
//!
//! With an 8-flit injection queue drained one flit per cycle (the machine
//! of `icnt_backpressure_counts_stalls`), most memory picks are refused by
//! the interconnect. The oracle's `starved_icnt` row (`tests/oracle.rs`)
//! checks that the dense and event engines agree on random grids there
//! under the baseline, DAB and GPUDet; this pins that refusals happen.

#[path = "../crates/gpu-sim/tests/common/mod.rs"]
mod common;

use common::{baseline, build_grid, run, starved, Barriers, ModelFn, Op, Outcome};
use dab::{DabConfig, DabModel};
use gpu_sim::config::EngineKind;
use gpu_sim::isa::{Instr, MemAccess, WarpProgram};
use gpu_sim::kernel::{CtaSpec, KernelGrid};
use gpu_sim::ndet::NdetSource;
use gpudet::{GpuDetConfig, GpuDetModel};

/// The baseline, DAB and GPUDet, by name.
const MODELS: [(&str, ModelFn); 3] = [
    ("baseline", baseline),
    ("dab", |gpu| {
        Box::new(DabModel::new(gpu, DabConfig::paper_default()))
    }),
    ("gpudet", |gpu| {
        Box::new(GpuDetModel::new(gpu, GpuDetConfig::default()))
    }),
];

/// A grid of loads and stores on this machine is refused by the
/// interconnect under the baseline and DAB. (GPUDet buffers stores in its
/// parallel mode, and the grid's loads share four lines, so its L1 MSHRs
/// merge them.)
#[test]
fn starved_interconnect_refuses_requests() {
    let warp = |w: u64| {
        (0..12)
            .map(|i| {
                let op = if (i + w).is_multiple_of(2) {
                    Op::Load
                } else {
                    Op::Store
                };
                (op, (w + i) % 4, 0)
            })
            .collect()
    };
    let raw = (0..8)
        .map(|c| (0..4).map(|w| warp(c + w)).collect())
        .collect();
    let grid = build_grid(raw, 8, Barriers::PerCta);
    for (name, model) in &MODELS[..2] {
        let r = run(
            &grid,
            &starved(),
            model,
            EngineKind::Event,
            NdetSource::seeded(1),
        );
        assert!(r.stats.icnt_stall_cycles > 0, "model {name}");
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

/// Interconnect-refused loads at kernel scale. Random grids' loads share
/// a few lines, so they seldom see one refused. In the first grid every
/// warp loads lines no other warp touches; in the second, each load
/// shares two sectors with the next warp's, so a fill or a new MSHR key
/// of one warp changes what another's retry finds. A load the
/// interconnect refuses retries every cycle, and both engines must agree
/// under every model.
#[test]
fn starved_interconnect_refused_loads_are_engine_invariant() {
    let grids = [
        loads_grid(|w, i| 0x10_0000 + (w * 12 + i) * 0x400),
        loads_grid(|w, i| 0x10_0000 + (i * 7 + w) * 0x40),
    ];
    for grid in &grids {
        for (name, model) in &MODELS {
            let at = |engine| run(grid, &starved(), model, engine, NdetSource::seeded(1));
            let event = at(EngineKind::Event);
            assert!(event.stats.icnt_stall_cycles > 0, "model {name}");
            assert_eq!(
                Outcome::of(&at(EngineKind::Dense)),
                Outcome::of(&event),
                "model {name}"
            );
        }
    }
}
