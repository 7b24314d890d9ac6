//! The one random-kernel generator and runner. Every suite that runs
//! random grids draws them from a [`Shape`] (a proptest strategy) or
//! builds them from explicit draws with [`build_grid`], and runs them
//! through [`run`]: the oracle table (`tests/oracle.rs`), the metrics and
//! trace determinism suites, the non-vacuity tests beside them, and the
//! pinned replays of DAB's shrunken fuzz cases
//! (`crates/dab/tests/regressions.rs`). Each suite uses part of it.
#![allow(dead_code)]

use std::ops::Range;

use gpu_sim::config::{EngineKind, GpuConfig};
use gpu_sim::engine::{GpuSim, RunReport};
use gpu_sim::exec::{BaselineModel, ExecutionModel};
use gpu_sim::isa::{AtomicAccess, AtomicOp, Instr, LockKind, MemAccess, Value, WarpProgram};
use gpu_sim::kernel::{CtaSpec, KernelGrid};
use gpu_sim::ndet::NdetSource;
use gpu_sim::stats::SimStats;
use proptest::strategy::{Strategy, TestRng};
use Op::*;

/// An instruction family. With a drawn `operand` and `count` each decodes
/// into one instruction ([`decode`]); addresses stay in small windows so
/// warps collide on sectors, partitions and atomic cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// An ALU burst of `1 + count` issues, `1 + operand % 4` cycles each.
    Alu,
    /// A load of line `operand` of the load window.
    Load,
    /// A store to line `operand` of the store window.
    Store,
    /// `red.add.u32` of 1 from every lane to integer cell `operand % 4`.
    RedU32,
    /// One lane's `atom.add.u32` of 3 to integer cell `operand % 2`.
    Atom,
    /// `red.add.f32` from every lane to one hot cell, each lane adding a
    /// value of its CTA, warp, lane and position: the most order-sensitive
    /// reduction.
    RedHot,
    /// `red.add.f32` from every lane to 64 strided cells.
    RedStrided,
    /// A CTA barrier.
    Bar,
    /// A device fence.
    Fence,
    /// A ticket-lock section (Test&Set, with backoff on odd operands) whose
    /// critical `red.add.f32` lands on the cells of [`Op::RedU32`].
    Lock,
}

/// How many barriers the warps of one CTA keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Barriers {
    /// Every warp keeps as many as the CTA's warp with the fewest.
    PerCta,
    /// Every warp keeps all it drew; a warp that exits no longer holds
    /// its siblings at a barrier.
    PerWarp,
}

/// A family of random grids: the ranges are half-open, as in proptest.
#[derive(Debug, Clone)]
pub struct Shape {
    /// CTAs per grid.
    pub ctas: Range<usize>,
    /// Warps per CTA.
    pub warps: Range<usize>,
    /// Drawn instructions per warp (before barriers are trimmed).
    pub instrs: Range<usize>,
    /// Lanes per warp.
    pub lanes: usize,
    /// The families drawn from, uniformly; a repeated family weighs more.
    pub ops: &'static [Op],
    /// ALU bursts run 1 to `burst` issues.
    pub burst: u32,
    /// Loads and stores spread over this many lines of their windows.
    pub lines: u64,
    /// The barrier rule.
    pub barriers: Barriers,
}

/// Every family but the order-sensitive `f32` reductions, lock sections
/// last.
pub const MIXED_OPS: [Op; 8] = [Alu, Load, Store, RedU32, Atom, Bar, Fence, Lock];

/// [`MIXED_OPS`] without lock sections: with them, DAB and GPUDet
/// deadlock on some grids with either engine (ROADMAP item 1).
pub const NO_LOCKS: &[Op] = MIXED_OPS.split_at(7).0;

/// Small 8-lane grids of [`MIXED_OPS`], lock sections included: the shape
/// of the metrics and trace determinism suites, which run the baseline
/// only.
pub const MIXED: Shape = Shape {
    ctas: 1..5,
    warps: 1..3,
    instrs: 1..6,
    lanes: 8,
    ops: &MIXED_OPS,
    burst: 4,
    lines: 4,
    barriers: Barriers::PerCta,
};

impl Strategy for Shape {
    type Value = KernelGrid;

    fn generate(&self, rng: &mut TestRng) -> KernelGrid {
        let mut draw = |r: Range<usize>| rng.below(r.start as u64, r.end as u64) as usize;
        let mut raw: RawGrid = Vec::new();
        for _ in 0..draw(self.ctas.clone()) {
            let mut warps = Vec::new();
            for _ in 0..draw(self.warps.clone()) {
                let instrs = (0..draw(self.instrs.clone()))
                    .map(|_| {
                        let op = self.ops[draw(0..self.ops.len())];
                        let operand = draw(0..self.lines as usize) as u64;
                        (op, operand, draw(0..self.burst as usize) as u32)
                    })
                    .collect();
                warps.push(instrs);
            }
            raw.push(warps);
        }
        build_grid(raw, self.lanes, self.barriers)
    }
}

/// A drawn grid: CTAs → warps → `(family, operand, count)` triples.
pub type RawGrid = Vec<Vec<Vec<(Op, u64, u32)>>>;

/// Builds a grid of `lanes`-lane warps from explicit draws, trimming
/// barriers by `barriers`.
pub fn build_grid(raw: RawGrid, lanes: usize, barriers: Barriers) -> KernelGrid {
    let ctas = raw
        .into_iter()
        .enumerate()
        .map(|(c, warps)| {
            let mut programs: Vec<Vec<Instr>> = warps
                .into_iter()
                .enumerate()
                .map(|(w, instrs)| {
                    instrs
                        .into_iter()
                        .enumerate()
                        .map(|(k, (op, operand, count))| {
                            decode(op, operand, count, lanes, [c, w, k])
                        })
                        .collect()
                })
                .collect();
            if barriers == Barriers::PerCta {
                let bars = |p: &Vec<Instr>| p.iter().filter(|x| matches!(x, Instr::Bar)).count();
                let keep = programs.iter().map(bars).min().unwrap_or(0);
                for program in &mut programs {
                    let mut seen = 0;
                    program.retain(|x| {
                        seen += usize::from(matches!(x, Instr::Bar));
                        !matches!(x, Instr::Bar) || seen <= keep
                    });
                }
            }
            let programs = programs
                .into_iter()
                .map(|p| WarpProgram::new(p, lanes))
                .collect();
            CtaSpec::new(c, programs)
        })
        .collect();
    KernelGrid::new("random", ctas)
}

/// Decodes one draw of CTA `site[0]`, warp `site[1]`, position `site[2]`.
pub fn decode(op: Op, operand: u64, count: u32, lanes: usize, site: [usize; 3]) -> Instr {
    let [cta, warp, k] = site;
    // One access per lane, to the cell and with the value `cell` gives.
    let lanes_to = |cell: &dyn Fn(usize) -> (u64, Value)| -> Vec<AtomicAccess> {
        (0..lanes)
            .map(|l| AtomicAccess::new(l, cell(l).0, cell(l).1))
            .collect()
    };
    match op {
        Op::Alu => Instr::Alu {
            cycles: 1 + (operand % 4) as u32,
            count: 1 + count,
        },
        Op::Load => Instr::Load {
            accesses: vec![MemAccess::per_lane_f32(0x10_0000 + operand * 128, lanes)],
        },
        Op::Store => Instr::Store {
            accesses: vec![MemAccess::per_lane_f32(0x20_0000 + operand * 128, lanes)],
        },
        Op::RedU32 => Instr::Red {
            op: AtomicOp::AddU32,
            accesses: lanes_to(&|_| (0x3_0000 + (operand % 4) * 4, Value::U32(1))),
        },
        Op::Atom => Instr::Atom {
            op: AtomicOp::AddU32,
            accesses: vec![AtomicAccess::new(
                0,
                0x4_0000 + (operand % 2) * 4,
                Value::U32(3),
            )],
        },
        Op::RedHot => Instr::Red {
            op: AtomicOp::AddF32,
            accesses: lanes_to(&|l| {
                let v = 0.1f32 * ((cta * 31 + warp * 7 + l + k) % 97 + 1) as f32;
                (0x40, Value::F32(v))
            }),
        },
        Op::RedStrided => Instr::Red {
            op: AtomicOp::AddF32,
            accesses: lanes_to(&|l| {
                let addr = 0x1000 + 4 * ((l + k) as u64 % 64);
                (addr, Value::F32(0.3 + k as f32 * 0.01))
            }),
        },
        Op::Bar => Instr::Bar,
        Op::Fence => Instr::Fence,
        Op::Lock => Instr::LockedSection {
            kind: [LockKind::TestAndSet, LockKind::TestAndSetBackoff][operand as usize % 2],
            lock_addr: 0x5_0000 + (operand % 2) * 0x40,
            op: AtomicOp::AddF32,
            accesses: lanes_to(&|_| (0x3_0000 + (operand % 4) * 4, Value::F32(1.0))),
            critical_cycles: 1 + count % 3,
        },
    }
}

/// The tiny machine with an 8-flit injection queue drained one flit per
/// cycle, so the interconnect refuses most memory picks.
pub fn starved() -> GpuConfig {
    let mut cfg = GpuConfig::tiny();
    cfg.icnt_input_buffer = 8;
    cfg.icnt_flits_per_cycle = 1;
    cfg
}

/// Builds an execution model for a machine, for [`run`].
pub type ModelFn = fn(&GpuConfig) -> Box<dyn ExecutionModel>;

/// The baseline model, for [`run`].
pub fn baseline(_: &GpuConfig) -> Box<dyn ExecutionModel> {
    Box::new(BaselineModel::new())
}

/// Runs `grid` on `machine` with `engine`, under the execution model
/// `model` builds for that machine and the timing noise `ndet`.
pub fn run(
    grid: &KernelGrid,
    machine: &GpuConfig,
    model: impl FnOnce(&GpuConfig) -> Box<dyn ExecutionModel>,
    engine: EngineKind,
    ndet: NdetSource,
) -> RunReport {
    let mut gpu = machine.clone();
    gpu.engine = engine;
    let model = model(&gpu);
    GpuSim::new(gpu, model, ndet).run(std::slice::from_ref(grid))
}

/// What the dense and event engines must agree on: cycles, digest and
/// every statistic except the `det.engine.*` activity counters, which
/// differ between engines by design.
#[derive(Debug, PartialEq)]
pub struct Outcome {
    pub cycles: u64,
    pub digest: u64,
    pub stats: SimStats,
}

impl Outcome {
    /// The outcome of one run.
    pub fn of(r: &RunReport) -> Self {
        let mut stats = r.stats.clone();
        stats.counters.retain(|k, _| !k.starts_with("det.engine."));
        Self {
            cycles: r.cycles(),
            digest: r.digest(),
            stats,
        }
    }
}
