//! The random-kernel oracle: one table, one row per machine, model set and
//! grid shape, all drawn by the shared generator.
//!
//! Every case of a row draws a grid and runs it under each of the row's
//! models on the dense engine, which visits every cycle and panics if a
//! cycle the event engine skips would have acted, and on the event engine.
//! Each pair must give the same cycles, digest and statistics, except the
//! `det.engine.*` activity counters. Every run must also conserve the
//! grid's atomics, counted from the grid alone: each `red`/`atom` lane is
//! applied once or fused into another (`values.atomics_applied()` plus
//! `det.dab.fused_ops`), and every cell that only integer adds touch holds
//! its host sum. A row whose timing is [`Timing::Pair`] also checks the
//! paper's claim (Section V): the digest does not depend on the timing
//! seed.
//!
//! No row draws lock sections, and the DAB rows stay within 5 CTAs × 3
//! warps, so none needs a second CTA batch per scheduler on
//! `GpuConfig::tiny`: larger grids and grids with locks deadlock DAB on
//! some draws with either engine (ROADMAP item 1).
//!
//! A case of row `name` draws from the stream of `name` and its index
//! alone, so `PROPTEST_CASES=500` replays the default cases and adds more;
//! a failure names the row, the case and the model.

#[path = "../crates/gpu-sim/tests/common/mod.rs"]
mod common;

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use proptest::strategy::TestRng;

use common::Op::*;
use common::{run, starved, Barriers, Outcome, Shape, NO_LOCKS};
use dab::{DabConfig, DabModel};
use gpu_sim::config::{EngineKind, GpuConfig};
use gpu_sim::engine::RunReport;
use gpu_sim::exec::ExecutionModel;
use gpu_sim::isa::{AtomicOp, Instr};
use gpu_sim::kernel::KernelGrid;
use gpu_sim::ndet::NdetSource;
use gpu_sim::sched::SchedKind::{self, *};
use gpudet::{GpuDetConfig, GpuDetModel};

/// One execution model of a row.
#[derive(Clone)]
enum Model {
    Baseline,
    Dab(DabConfig),
    /// GPUDet at this quantum.
    GpuDet(u32),
}

impl Model {
    fn build(&self, gpu: &GpuConfig) -> Box<dyn ExecutionModel> {
        match self {
            Model::Baseline => common::baseline(gpu),
            Model::Dab(cfg) => Box::new(DabModel::new(gpu, cfg.clone())),
            Model::GpuDet(quantum) => {
                let cfg = GpuDetConfig {
                    quantum: *quantum,
                    ..GpuDetConfig::default()
                };
                Box::new(GpuDetModel::new(gpu, cfg))
            }
        }
    }

    fn dab(sched: SchedKind) -> Self {
        Model::Dab(DabConfig::paper_default().with_scheduler(sched))
    }

    fn label(&self) -> String {
        match self {
            Model::Baseline => "baseline".into(),
            Model::Dab(cfg) => format!("DAB {}", cfg.label()),
            Model::GpuDet(quantum) => format!("GPUDet q{quantum}"),
        }
    }
}

/// The timing noise a case runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Timing {
    /// Injection off, then one drawn seed.
    OffAndDrawn,
    /// One drawn seed.
    Drawn,
    /// Seeds `a < 1000 <= b`: dense equals event at `a`, and the event
    /// engine's digest at `b` equals that at `a`.
    Pair,
}

impl Timing {
    /// The case's seeds; `None` turns injection off.
    fn draw(self, rng: &mut TestRng) -> Vec<Option<u64>> {
        match self {
            Timing::OffAndDrawn => vec![None, Some(rng.next_u64())],
            Timing::Drawn => vec![Some(rng.next_u64())],
            Timing::Pair => vec![Some(rng.below(0, 1000)), Some(rng.below(1000, 2000))],
        }
    }
}

struct Row {
    name: &'static str,
    machine: fn() -> GpuConfig,
    /// The models a case runs, drawn or fixed.
    models: fn(&mut TestRng) -> Vec<Model>,
    timing: Timing,
    shape: Shape,
    cases: u32,
}

/// Grids of 1-5 CTAs × 1-3 warps × 1-7 instructions of 8 lanes.
const SMALL: Shape = Shape {
    ctas: 1..6,
    warps: 1..4,
    instrs: 1..8,
    lanes: 8,
    ops: NO_LOCKS,
    burst: 4,
    lines: 4,
    barriers: Barriers::PerCta,
};

const ROWS: [Row; 5] = [
    // The baseline's dense and event engines, with and without timing
    // noise.
    Row {
        name: "baseline",
        machine: GpuConfig::tiny,
        models: |_| vec![Model::Baseline],
        timing: Timing::OffAndDrawn,
        shape: Shape {
            ctas: 1..5,
            warps: 1..3,
            instrs: 1..6,
            ..SMALL
        },
        cases: 8,
    },
    // A refused store or `red` sleeps until its cluster's injection
    // budget fits it, a refused load retries every cycle, and CTA
    // placements wait for retirements.
    Row {
        name: "starved_icnt",
        machine: starved,
        models: |_| vec![Model::Baseline, Model::dab(Gwat), Model::GpuDet(200)],
        timing: Timing::Drawn,
        shape: SMALL,
        cases: 64,
    },
    // ALU bursts of up to 64 issues among loads, `red`s and barriers, so
    // the greedy policies' burst sleeps overlap load responses, barrier
    // releases, token moves and warp exits. GPUDet's sleeps end at its
    // quantum's last issue at the latest.
    Row {
        name: "long_bursts",
        machine: GpuConfig::tiny,
        models: |_| {
            let dab = [Gwat, Gtar, Gtrr].map(Model::dab);
            [vec![Model::Baseline], dab.into(), vec![Model::GpuDet(200)]].concat()
        },
        timing: Timing::Drawn,
        shape: Shape {
            ops: &[Alu, Alu, Load, RedU32, Bar],
            burst: 64,
            ..SMALL
        },
        cases: 96,
    },
    // GPUDet parks every warp its `can_issue` refuses until the model
    // reopens issue: from one-instruction quanta (constant commits) to
    // the default.
    Row {
        name: "gpudet_quanta",
        machine: GpuConfig::tiny,
        models: |_| [1, 7, 50, 200].map(Model::GpuDet).into(),
        timing: Timing::Drawn,
        shape: Shape {
            ctas: 1..25,
            warps: 1..5,
            instrs: 1..11,
            lanes: 32,
            ops: &[Alu, Load, Store, RedHot, RedStrided, Bar],
            burst: 4,
            lines: 1024,
            barriers: Barriers::PerCta,
        },
        cases: 30,
    },
    // One drawn DAB design point per case, over the order-sensitive `f32`
    // reductions and per-warp barrier counts: covers the event engine's
    // parking of token-refused warps and DAB's on-demand seal census under
    // every determinism-aware policy.
    Row {
        name: "dab_design_points",
        machine: GpuConfig::tiny,
        models: |rng| {
            let cfg = DabConfig::paper_default()
                .with_scheduler([Srr, Gtrr, Gtar, Gwat][rng.below(0, 4) as usize])
                .with_capacity([32, 96][rng.below(0, 2) as usize])
                .with_fusion(rng.below(0, 2) == 1)
                .with_coalescing(rng.below(0, 2) == 1);
            vec![Model::Dab(cfg)]
        },
        timing: Timing::Pair,
        shape: Shape {
            ctas: 1..6,
            warps: 1..4,
            instrs: 1..10,
            lanes: 32,
            // Weighted as the DAB fuzzer always drew them.
            ops: &[
                Alu, Load, Store, RedHot, RedHot, RedStrided, RedStrided, Bar,
            ],
            burst: 8,
            lines: 1024,
            barriers: Barriers::PerWarp,
        },
        cases: 48,
    },
];

/// Runs every case of row `name`.
fn check(name: &str) {
    let row = ROWS.iter().find(|r| r.name == name).expect("a row of ROWS");
    let machine = (row.machine)();
    let cases = ProptestConfig::with_cases(row.cases).effective_cases();
    let mut case = 0;
    proptest::run_cases(row.name, cases, |rng| {
        let grid = row.shape.generate(rng);
        let models = (row.models)(rng);
        let seeds = row.timing.draw(rng);
        for model in &models {
            let label = model.label();
            let at = |seed: Option<u64>, engine| {
                let on = format!("row {name}, case {case}, {label}, seed {seed:?}, {engine:?}");
                let r = {
                    let _running = Running(&on);
                    let ndet = seed.map_or_else(NdetSource::disabled, NdetSource::seeded);
                    run(&grid, &machine, |gpu| model.build(gpu), engine, ndet)
                };
                conserves(&grid, &r, &on);
                (Outcome::of(&r), on)
            };
            let (first, on) = at(seeds[0], EngineKind::Event);
            assert_eq!(
                at(seeds[0], EngineKind::Dense).0,
                first,
                "dense vs event: {on}"
            );
            for &seed in &seeds[1..] {
                let (event, on) = at(seed, EngineKind::Event);
                if row.timing == Timing::Pair {
                    assert_eq!(event.digest, first.digest, "digest depends on timing: {on}");
                } else {
                    assert_eq!(at(seed, EngineKind::Dense).0, event, "dense vs event: {on}");
                }
            }
        }
        case += 1;
    });
}

/// Names the run on stderr if the simulator panics inside it (a deadlock
/// or a broken skip rule), so every failure names its row and case.
struct Running<'a>(&'a str);

impl Drop for Running<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("panicked running {}", self.0);
        }
    }
}

/// Asserts that run `r` applied every atomic lane of `grid` once, fused
/// ones aside, and left every integer-only cell at its host sum.
fn conserves(grid: &KernelGrid, r: &RunReport, on: &str) {
    let applied = r.values.atomics_applied() + r.stats.counter("det.dab.fused_ops");
    assert_eq!(applied, grid.atomics(), "atomics applied or fused: {on}");
    for (addr, sum) in integer_sums(grid) {
        assert_eq!(r.values.read_u32(addr), sum, "cell {addr:#x}: {on}");
    }
}

/// The host sum of every cell that only integer adds touch.
fn integer_sums(grid: &KernelGrid) -> BTreeMap<u64, u32> {
    let mut sums = BTreeMap::new();
    let mut others = BTreeSet::new();
    for instr in grid
        .ctas
        .iter()
        .flat_map(|c| &c.warps)
        .flat_map(|w| &w.instrs)
    {
        let (Instr::Red { op, accesses }
        | Instr::Atom { op, accesses }
        | Instr::LockedSection { op, accesses, .. }) = instr
        else {
            continue;
        };
        for a in accesses {
            let cell = a.addr & !3;
            if *op == AtomicOp::AddU32 {
                let sum: &mut u32 = sums.entry(cell).or_default();
                *sum = sum.wrapping_add(a.arg.as_u32());
            } else {
                others.insert(cell);
            }
        }
    }
    sums.retain(|cell, _| !others.contains(cell));
    sums
}

/// One test per row, named after it.
macro_rules! rows {
    ($($row:ident),*) => {$(
        #[test]
        fn $row() {
            check(stringify!($row));
        }
    )*};
}

rows!(
    baseline,
    starved_icnt,
    long_bursts,
    gpudet_quanta,
    dab_design_points
);
