//! GPUDet on the dense engine (the oracle) versus the event engine.
//!
//! GPUDet is the one model whose `can_issue` refuses warps, and the event
//! engine parks every refused warp until the model reopens issue from its
//! tick (a new serial token holder, a new quantum). These tests pin that
//! parking: random grids must give identical results on both engines at
//! every quantum, and a serial-dominated grid must visit far fewer SMs.

use proptest::prelude::*;

use gpu_sim::config::{EngineKind, GpuConfig};
use gpu_sim::engine::{GpuSim, RunReport};
use gpu_sim::isa::{AtomicAccess, AtomicOp, Instr, MemAccess, Value, WarpProgram};
use gpu_sim::kernel::{CtaSpec, KernelGrid};
use gpu_sim::ndet::NdetSource;
use gpudet::{GpuDetConfig, GpuDetModel};

/// Quanta from one-instruction rounds (constant commits) to the default.
const QUANTA: [u32; 4] = [1, 7, 50, 200];

fn run(grid: &KernelGrid, quantum: u32, engine: EngineKind) -> RunReport {
    let mut gpu = GpuConfig::tiny();
    gpu.engine = engine;
    let cfg = GpuDetConfig {
        quantum,
        ..GpuDetConfig::default()
    };
    let model = GpuDetModel::new(&gpu, cfg);
    GpuSim::new(gpu, Box::new(model), NdetSource::seeded(7)).run(std::slice::from_ref(grid))
}

/// Cycles, digest and every statistic except the `det.engine.*` activity
/// counters, which differ between engines by design.
fn observable(r: &RunReport) -> (u64, u64, String) {
    let mut stats = r.stats.clone();
    stats.counters.retain(|k, _| !k.starts_with("det.engine."));
    (r.cycles(), r.digest(), format!("{stats:?}"))
}

/// One instruction per code: ALU burst, load, store, or `red` (to a shared
/// hot cell or to strided cells).
fn instr(code: u8, cta: usize, warp: usize, k: usize) -> Instr {
    match code {
        0 => Instr::Alu {
            cycles: 2,
            count: 1 + (k as u32 % 4),
        },
        1 => Instr::Load {
            accesses: vec![MemAccess::per_lane_f32(
                0x10_0000 + (cta * 64 + warp * 8 + k) as u64 * 128,
                32,
            )],
        },
        2 => Instr::Store {
            accesses: vec![MemAccess::per_lane_f32(
                0x20_0000 + (cta * 16 + k) as u64 * 128,
                32,
            )],
        },
        _ => Instr::Red {
            op: AtomicOp::AddF32,
            accesses: (0..32)
                .map(|l| {
                    let addr = if k.is_multiple_of(2) {
                        0x40
                    } else {
                        0x1000 + 4 * ((l + k) as u64 % 64)
                    };
                    let v = 0.1f32 * ((cta * 31 + warp * 7 + l + k) % 97 + 1) as f32;
                    AtomicAccess::new(l, addr, Value::F32(v))
                })
                .collect(),
        },
    }
}

/// A warp's codes with `bars` barriers spread evenly through them, so that
/// every warp of a CTA reaches the same number of barriers.
fn program(codes: &[u8], bars: usize, cta: usize, warp: usize) -> WarpProgram {
    let mut instrs = Vec::new();
    let mut placed = 0;
    for (k, &code) in codes.iter().enumerate() {
        while placed < bars && k * (bars + 1) >= codes.len() * (placed + 1) {
            instrs.push(Instr::Bar);
            placed += 1;
        }
        instrs.push(instr(code, cta, warp, k));
    }
    instrs.extend(std::iter::repeat_n(Instr::Bar, bars - placed));
    WarpProgram::new(instrs, 32)
}

fn grid(ctas: &[(usize, Vec<Vec<u8>>)]) -> KernelGrid {
    let specs = ctas
        .iter()
        .enumerate()
        .map(|(c, (bars, warps))| {
            let programs = warps
                .iter()
                .enumerate()
                .map(|(w, codes)| program(codes, *bars, c, w))
                .collect();
            CtaSpec::new(c, programs)
        })
        .collect();
    KernelGrid::new("gpudet_fuzz", specs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Random grids of 1-24 CTAs x 1-4 warps, each warp 1-10 ALU, load,
    /// store and `red` instructions plus its CTA's 0-2 barriers: both
    /// engines agree at every quantum.
    #[test]
    fn random_grids_match_dense_at_every_quantum(
        ctas in proptest::collection::vec(
            (
                0usize..3,
                proptest::collection::vec(proptest::collection::vec(0u8..5, 1..11), 1..5),
            ),
            1..25
        ),
    ) {
        let grid = grid(&ctas);
        for quantum in QUANTA {
            prop_assert_eq!(
                observable(&run(&grid, quantum, EngineKind::Event)),
                observable(&run(&grid, quantum, EngineKind::Dense)),
                "quantum {}", quantum
            );
        }
    }
}

/// On a serial-dominated grid only the token holder may issue, so the
/// event engine must not visit every SM on every cycle: parked warps stay
/// parked until the model reopens issue.
#[test]
fn serial_mode_parks_refused_warps() {
    let codes = [0u8, 3, 0, 3];
    let ctas: Vec<(usize, Vec<Vec<u8>>)> = (0..24).map(|_| (0, vec![codes.to_vec(); 4])).collect();
    let grid = grid(&ctas);
    let quantum = GpuDetConfig::default().quantum;
    let event = run(&grid, quantum, EngineKind::Event);
    let dense = run(&grid, quantum, EngineKind::Dense);
    assert_eq!(observable(&event), observable(&dense));
    let ticked = |r: &RunReport| r.stats.counter("det.engine.sms_ticked");
    assert!(
        ticked(&event) * 4 <= ticked(&dense),
        "event engine ticked {} SMs, dense {}",
        ticked(&event),
        ticked(&dense)
    );
}
