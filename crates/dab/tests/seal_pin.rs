//! Pins DAB's flush trigger on every scheduler and seal path.
//!
//! A flush epoch starts only once every scheduler is *sealed*: each live
//! warp waits in flush-wait, at a barrier, or (under a determinism-aware
//! policy) at an atomic the policy or the batch gate steadily refuses.
//! The kernel below reaches all three: 32-entry buffers fill and stall
//! warps, every warp crosses two `bar`s, and entries are left over for the
//! kernel-end flush. It runs under scheduler-level DAB with GWAT, GTAR,
//! GTRR and SRR, under warp-level DAB (GTO, where no atomic counts as
//! steadily refused), and under NR-CIF, which seals each cluster on its
//! own. Cycles, digest and the flush count are pinned on both engines.

use dab::{DabConfig, DabModel, Relaxation};
use gpu_sim::config::{EngineKind, GpuConfig};
use gpu_sim::engine::GpuSim;
use gpu_sim::isa::{AtomicAccess, AtomicOp, Instr, Value, WarpProgram};
use gpu_sim::kernel::{CtaSpec, KernelGrid};
use gpu_sim::ndet::NdetSource;
use gpu_sim::sched::SchedKind;

/// 12 CTAs of 6 warps on the 2-SM tiny machine. Each warp issues three
/// rounds of three `red`s, each to 32 of a round's 48 addresses, with a
/// `bar` between rounds, so 32-entry buffers fill within a round.
fn grid() -> KernelGrid {
    let red = |cta: usize, warp: usize, round: usize, k: usize| Instr::Red {
        op: AtomicOp::AddF32,
        accesses: (0..32)
            .map(|l| {
                let v = 0.1f32 * ((cta * 29 + warp * 11 + l + round * 5 + k) % 89 + 1) as f32;
                let addr =
                    0x1000 + 4 * ((l * 7 + warp * 3 + k * 5) as u64 % 48) + 0x400 * round as u64;
                AtomicAccess::new(l, addr, Value::F32(v))
            })
            .collect(),
    };
    let alu = |count| Instr::Alu { cycles: 2, count };
    let ctas = (0..12)
        .map(|c| {
            CtaSpec::new(
                c,
                (0..6)
                    .map(|w| {
                        let mut instrs = Vec::new();
                        for round in 0..3 {
                            instrs.push(alu(1 + (c + w + round) as u32 % 4));
                            instrs.extend((0..3).map(|k| red(c, w, round, k)));
                            if round < 2 {
                                instrs.push(Instr::Bar);
                            }
                        }
                        WarpProgram::new(instrs, 32)
                    })
                    .collect(),
            )
        })
        .collect();
    KernelGrid::new("seal_pin", ctas)
}

/// Runs the kernel at timing seed 1 and returns `(cycles, digest, det.dab.flushes)`.
fn run(dab: DabConfig, engine: EngineKind) -> (u64, u64, u64) {
    let mut gpu = GpuConfig::tiny();
    gpu.engine = engine;
    let model = DabModel::new(&gpu, dab);
    let report = GpuSim::new(gpu, Box::new(model), NdetSource::seeded(1)).run(&[grid()]);
    assert!(
        report.stats.counter("det.stall.atomic_buffer_full") > 0,
        "the kernel must stall on full buffers"
    );
    (
        report.cycles(),
        report.digest(),
        report.stats.counter("det.dab.flushes"),
    )
}

#[test]
fn seal_paths_keep_cycles_digest_and_flushes_on_both_engines() {
    let scheduler = |kind| {
        DabConfig::paper_default()
            .with_capacity(32)
            .with_scheduler(kind)
    };
    // Recorded before the seal became a query on the live machine (when
    // DAB read a per-tick census of every scheduler).
    let cases = [
        (
            "GWAT",
            scheduler(SchedKind::Gwat),
            (9248, 0x41f8_1789_9ecc_eee9, 108),
        ),
        (
            "GTAR",
            scheduler(SchedKind::Gtar),
            (9537, 0x41f8_1789_9ecc_eee9, 108),
        ),
        (
            "GTRR",
            scheduler(SchedKind::Gtrr),
            (2987, 0x24b8_cc48_5d63_fb5b, 18),
        ),
        (
            "SRR",
            scheduler(SchedKind::Srr),
            (2987, 0xb814_7987_ea57_ae72, 18),
        ),
        (
            "warp-level GTO",
            DabConfig::warp_level(),
            (15241, 0xba16_02ed_a0e2_22f4, 9),
        ),
        (
            "NR-CIF",
            scheduler(SchedKind::Gwat).with_relaxation(Relaxation::NrCif),
            (4363, 0xc06b_f431_6868_0137, 216),
        ),
    ];
    for (label, dab, pinned) in cases {
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let got = run(dab.clone(), engine);
            assert_eq!(got, pinned, "{label} on {engine:?}");
        }
    }
}
