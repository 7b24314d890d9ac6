//! Pins a GWAT kernel whose schedulers end in partially filled batches.
//!
//! GWAT lets a warp issue atomics only once every warp of the earlier
//! batches (hardware-slot generations) has exited. The last batch of a
//! scheduler is usually partial and never completes, which gates no warp:
//! no later batch exists to wait on it. The kernel below leaves partial
//! last batches on every scheduler and runs under DAB on both engines
//! against fixed cycles and digest.

use dab::{DabConfig, DabModel};
use gpu_sim::config::{EngineKind, GpuConfig};
use gpu_sim::engine::GpuSim;
use gpu_sim::isa::{AtomicAccess, AtomicOp, Instr, Value, WarpProgram};
use gpu_sim::kernel::{CtaSpec, KernelGrid};
use gpu_sim::ndet::NdetSource;
use gpu_sim::sched::SchedKind;

/// 40 CTAs of 6 warps on the 2-SM tiny machine: per SM and scheduler
/// about 30 arrivals in batches of 16, and 6 warps per CTA is not a
/// multiple of the 4 schedulers, so the schedulers fill unevenly.
fn grid() -> KernelGrid {
    let red = |cta: usize, warp: usize, k: usize| Instr::Red {
        op: AtomicOp::AddF32,
        accesses: (0..32)
            .map(|l| {
                let v = 0.1f32 * ((cta * 31 + warp * 7 + l + k) % 97 + 1) as f32;
                AtomicAccess::new(l, 0x40 + 4 * (l as u64 % 4), Value::F32(v))
            })
            .collect(),
    };
    let alu = |count| Instr::Alu { cycles: 2, count };
    let ctas = (0..40)
        .map(|c| {
            CtaSpec::new(
                c,
                (0..6)
                    .map(|w| {
                        let instrs = vec![
                            alu(1 + (c + w) as u32 % 5),
                            red(c, w, 0),
                            alu(3),
                            red(c, w, 1),
                        ];
                        WarpProgram::new(instrs, 32)
                    })
                    .collect(),
            )
        })
        .collect();
    KernelGrid::new("partial_tail_batch", ctas)
}

fn run(engine: EngineKind) -> (u64, u64) {
    let mut gpu = GpuConfig::tiny();
    gpu.engine = engine;
    let model = DabModel::new(
        &gpu,
        DabConfig::paper_default().with_scheduler(SchedKind::Gwat),
    );
    let report = GpuSim::new(gpu, Box::new(model), NdetSource::seeded(1)).run(&[grid()]);
    (report.cycles(), report.digest())
}

#[test]
fn partial_tail_batch_cycles_and_digest_are_pinned_on_both_engines() {
    for engine in [EngineKind::Dense, EngineKind::Event] {
        assert_eq!(run(engine), (474, 0x5cfc_ce68_920b_cfcd), "{engine:?}");
    }
}
