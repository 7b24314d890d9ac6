//! GPUDet's parked warps stay parked on the event engine, and its bursts
//! sleep up to the quantum's end.
//!
//! GPUDet is the one model whose `can_issue` refuses warps, and the event
//! engine parks every refused warp until the model reopens issue from its
//! tick (a new serial token holder, a new quantum). It is also the one
//! model with an issue budget: a scheduler sleeps through a warp's ALU
//! burst up to the last issue its quantum allows and credits the skipped
//! issues to the quantum at its next visit. The oracle's `gpudet_quanta`
//! row (`tests/oracle.rs`) checks that both engines agree on random grids
//! at every quantum; this pins that the parking and the sleeps save
//! visits, and that the credit is exact where a quantum ends mid-burst.

#[path = "../../gpu-sim/tests/common/mod.rs"]
mod common;

use common::{build_grid, run, Barriers, Op, Outcome};
use gpu_sim::config::{EngineKind, GpuConfig};
use gpu_sim::engine::RunReport;
use gpu_sim::isa::{Instr, MemAccess, WarpProgram};
use gpu_sim::kernel::{CtaSpec, KernelGrid};
use gpu_sim::ndet::NdetSource;
use gpudet::{GpuDetConfig, GpuDetModel};

fn ticked(r: &RunReport) -> u64 {
    r.stats.counter("det.engine.sms_ticked")
}

/// Runs one CTA of `warps` on the tiny machine under GPUDet at `quantum`,
/// on the dense and the event engine; asserts they agree (cycles, digest,
/// every counter outside `det.engine.*`, the per-mode `det.gpudet.*`
/// cycles included) and returns the event run.
fn dense_equals_event(warps: Vec<Vec<Instr>>, quantum: u32) -> RunReport {
    let warps = warps.into_iter().map(|p| WarpProgram::new(p, 32));
    let grid = KernelGrid::new("bursts", vec![CtaSpec::new(0, warps.collect())]);
    let at = |engine| {
        run(
            &grid,
            &GpuConfig::tiny(),
            |gpu| {
                let cfg = GpuDetConfig {
                    quantum,
                    ..GpuDetConfig::default()
                };
                Box::new(GpuDetModel::new(gpu, cfg))
            },
            engine,
            NdetSource::seeded(1),
        )
    };
    let (event, dense) = (at(EngineKind::Event), at(EngineKind::Dense));
    assert_eq!(Outcome::of(&event), Outcome::of(&dense));
    event
}

fn burst(count: u32) -> Instr {
    Instr::Alu { cycles: 1, count }
}

/// A lone 35-issue burst at quantum 10 issues 10, 10, 10 and 5 in four
/// quanta, the first three ended by a commit. In each full quantum the event engine visits the first issue,
/// sleeps, visits the tenth, and visits once more to park the warp its
/// quantum now refuses; the fourth quantum is two visits, the first issue
/// and the last.
#[test]
fn burst_sleeps_to_each_quantum_end() {
    let event = dense_equals_event(vec![vec![burst(35)]], 10);
    assert_eq!(event.stats.warp_instrs, 35);
    assert_eq!(event.stats.counter("det.gpudet.quanta"), 3);
    assert_eq!(ticked(&event), 3 * 3 + 2);
}

/// The default quantum, 200. Warp 0 issues a load, then warp 4, on the
/// same scheduler, a 300-issue burst, through which the scheduler sleeps
/// up to the quantum's 200th issue. The load's response wakes warp 0, and
/// with it the scheduler, in the middle of that sleep: the visit credits
/// the skipped issues to the burst warp's quantum. If it credited fewer,
/// the warp would issue past its quantum there, and the event engine's
/// quantum would end later than dense's.
#[test]
fn burst_woken_by_a_sibling_response_ends_its_quantum_on_time() {
    let load = Instr::Load {
        accesses: vec![MemAccess::per_lane_f32(0x2000, 32)],
    };
    let mut warps = vec![vec![load, burst(1)]];
    warps.extend((1..4).map(|_| Vec::new()));
    warps.push(vec![burst(300)]);
    let event = dense_equals_event(warps, 200);
    assert_eq!(event.stats.warp_instrs, 302);
    assert!(ticked(&event) * 4 < 302, "{} SM visits", ticked(&event));
}

/// On a serial-dominated grid only the token holder may issue, so the
/// event engine must not visit every SM on every cycle: parked warps stay
/// parked until the model reopens issue.
#[test]
fn serial_mode_parks_refused_warps() {
    let warp = vec![
        (Op::Alu, 1, 0),
        (Op::RedStrided, 0, 0),
        (Op::Alu, 1, 2),
        (Op::RedStrided, 0, 0),
    ];
    let grid = build_grid(vec![vec![warp; 4]; 24], 32, Barriers::PerCta);
    let at = |engine| {
        run(
            &grid,
            &GpuConfig::tiny(),
            |gpu| Box::new(GpuDetModel::new(gpu, GpuDetConfig::default())),
            engine,
            NdetSource::seeded(7),
        )
    };
    let (event, dense) = (at(EngineKind::Event), at(EngineKind::Dense));
    assert_eq!(Outcome::of(&event), Outcome::of(&dense));
    let ticked = |r: &gpu_sim::engine::RunReport| r.stats.counter("det.engine.sms_ticked");
    assert!(
        ticked(&event) * 4 <= ticked(&dense),
        "event engine ticked {} SMs, dense {}",
        ticked(&event),
        ticked(&dense)
    );
}
