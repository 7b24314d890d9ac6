//! The random-grid generator the gpu-sim property suites share: each
//! suite draws `(opcode, operand, count)` triples with its own strategy
//! ranges and turns them into a kernel grid here.

use gpu_sim::isa::{AtomicAccess, AtomicOp, Instr, LockKind, MemAccess, Value, WarpProgram};
use gpu_sim::kernel::{CtaSpec, KernelGrid};

/// Lanes per warp in every generated program.
pub const LANES: usize = 8;

/// Decodes one drawn `(opcode, operand, count)` triple into an instruction.
/// Addresses stay in a small window so warps genuinely collide on sectors,
/// partitions, and atomic cells.
pub fn decode(opcode: u32, operand: u64, count: u32) -> Instr {
    match opcode {
        0 => Instr::Alu {
            cycles: 1 + count % 3,
            count: 1 + count % 4,
        },
        1 => Instr::Load {
            accesses: vec![MemAccess::per_lane_f32(
                0x1_0000 + (operand % 4) * 0x100,
                LANES,
            )],
        },
        2 => Instr::Store {
            accesses: vec![MemAccess::per_lane_f32(
                0x2_0000 + (operand % 4) * 0x100,
                LANES,
            )],
        },
        3 => Instr::Red {
            op: AtomicOp::AddU32,
            accesses: (0..LANES)
                .map(|l| AtomicAccess::new(l, 0x3_0000 + (operand % 4) * 4, Value::U32(1)))
                .collect(),
        },
        4 => Instr::Atom {
            op: AtomicOp::AddU32,
            accesses: vec![AtomicAccess::new(
                0,
                0x4_0000 + (operand % 2) * 4,
                Value::U32(3),
            )],
        },
        5 => Instr::Bar,
        6 => Instr::Fence,
        // Cross-cluster interaction on purpose: every warp contends on one
        // of two shared ticket locks whose home cells sit in the same
        // small window as the atomics above.
        _ => Instr::LockedSection {
            kind: if operand.is_multiple_of(2) {
                LockKind::TestAndSet
            } else {
                LockKind::TestAndSetBackoff
            },
            lock_addr: 0x5_0000 + (operand % 2) * 0x40,
            op: AtomicOp::AddF32,
            accesses: (0..LANES)
                .map(|l| AtomicAccess::new(l, 0x3_0000 + (operand % 4) * 4, Value::F32(1.0)))
                .collect(),
            critical_cycles: 1 + count % 3,
        },
    }
}

/// Raw drawn shape: CTAs → warps → instruction triples.
pub type RawGrid = Vec<Vec<Vec<(u32, u64, u32)>>>;

/// Builds a grid from the raw draw, each triple decoded by `decode` (this
/// module's [`decode`], or a suite's own), trimming every warp of a CTA to
/// the same barrier count so barriers always release.
pub fn build_grid(raw: RawGrid, decode: impl Fn(u32, u64, u32) -> Instr) -> KernelGrid {
    let ctas = raw
        .into_iter()
        .enumerate()
        .map(|(i, warps)| {
            let decoded: Vec<Vec<Instr>> = warps
                .into_iter()
                .map(|instrs| {
                    instrs
                        .into_iter()
                        .map(|(op, operand, count)| decode(op, operand, count))
                        .collect()
                })
                .collect();
            let min_bars = decoded
                .iter()
                .map(|p| p.iter().filter(|x| matches!(x, Instr::Bar)).count())
                .min()
                .unwrap_or(0);
            let programs = decoded
                .into_iter()
                .map(|instrs| {
                    let mut kept = 0usize;
                    let body: Vec<Instr> = instrs
                        .into_iter()
                        .filter(|x| {
                            if matches!(x, Instr::Bar) {
                                kept += 1;
                                kept <= min_bars
                            } else {
                                true
                            }
                        })
                        .collect();
                    WarpProgram::new(body, LANES)
                })
                .collect();
            CtaSpec::new(i, programs)
        })
        .collect();
    KernelGrid::new("random", ctas)
}
