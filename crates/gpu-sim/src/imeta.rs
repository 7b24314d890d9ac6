//! Seed-invariant instruction metadata, precomputed once per kernel.
//!
//! The issue path used to rebuild the same pure-function-of-the-trace data
//! on every issue *attempt* (including structural-stall retries): the
//! sorted, deduplicated sector list of a load/store and the per-sector
//! coalescing groups (plus flit totals) of an atomic. None of that depends
//! on the timing seed — it is a function of the instruction and the machine
//! geometry only — so the engine computes it once per kernel
//! ([`KernelStatics`](crate::engine::KernelStatics)), which removes the
//! per-attempt recomputation from the hot loop.
//!
//! Tables are keyed per [`WarpProgram`](crate::isa::WarpProgram): [`warp_meta`] produces one
//! [`InstrMeta`] per instruction, resolved into each warp's context at CTA
//! placement ([`Sm::add_cta`](crate::sm::Sm::add_cta)).

use std::sync::Arc;

use crate::config::GpuConfig;
use crate::isa::Instr;
use crate::mem::packet::RopOp;
use crate::mem::{partition_of, sector_align};

/// One coalesced atomic transaction: every lane operation of a warp-level
/// `Red`/`Atom` that lands in the same cache sector, in lane-program order.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomicGroup {
    /// Sector-aligned target address.
    pub sector: u64,
    /// Destination memory partition of the sector.
    pub dest: usize,
    /// The lane operations, in first-occurrence order.
    pub ops: Box<[RopOp]>,
}

/// Precomputed, seed-invariant shape of one instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum InstrMeta {
    /// No memory shape to precompute (ALU, barrier, fence, locked section).
    None,
    /// `Load`/`Store`: the unique sector addresses touched, ascending.
    Sectors(Box<[u64]>),
    /// `Red`/`Atom`: per-sector coalescing groups in first-occurrence order
    /// plus the total request flits all groups need together.
    Atomic {
        /// One group per distinct sector.
        groups: Box<[AtomicGroup]>,
        /// Request flits for the whole warp-level atomic.
        total_flits: u32,
    },
}

/// Per-warp instruction metadata table, parallel to
/// [`WarpProgram::instrs`](crate::isa::WarpProgram::instrs).
#[derive(Debug, Clone, PartialEq)]
pub struct WarpMeta {
    /// One entry per instruction, same order as the program.
    pub instrs: Box<[InstrMeta]>,
}

impl WarpMeta {
    /// The metadata of instruction `pc`.
    #[inline]
    pub fn at(&self, pc: usize) -> &InstrMeta {
        &self.instrs[pc]
    }
}

/// Collects the unique sector addresses of a set of accesses, ascending.
fn sectors_of(accesses: &[crate::isa::MemAccess], sector: u64) -> Box<[u64]> {
    let mut sectors: Vec<u64> = accesses
        .iter()
        .flat_map(|a| a.addrs.iter().map(|&addr| sector_align(addr, sector)))
        .collect();
    sectors.sort_unstable();
    sectors.dedup();
    sectors.into_boxed_slice()
}

/// Builds the metadata table for one warp program under `cfg`'s geometry
/// (sector size, partition count, flit size).
pub fn warp_meta(program: &crate::isa::WarpProgram, cfg: &GpuConfig) -> Arc<WarpMeta> {
    let sector = cfg.sector_size as u64;
    let instrs = program
        .instrs
        .iter()
        .map(|instr| match instr {
            Instr::Load { accesses } | Instr::Store { accesses } => {
                InstrMeta::Sectors(sectors_of(accesses, sector))
            }
            Instr::Red { op, accesses } | Instr::Atom { op, accesses } => {
                // Coalesce into one transaction per sector (baseline GPU),
                // groups ordered by first occurrence — byte-identical to
                // the grouping the issue path used to rebuild per attempt.
                let mut groups: Vec<(u64, Vec<RopOp>)> = Vec::new();
                for acc in accesses {
                    let s = sector_align(acc.addr, sector);
                    let rop = RopOp {
                        addr: acc.addr,
                        op: *op,
                        arg: acc.arg,
                    };
                    match groups.iter_mut().find(|(gs, _)| *gs == s) {
                        Some((_, ops)) => ops.push(rop),
                        None => groups.push((s, vec![rop])),
                    }
                }
                let total_flits: u32 = groups
                    .iter()
                    .map(|(_, ops)| (8 + 9 * ops.len()).div_ceil(cfg.icnt_flit_size) as u32)
                    .sum();
                let groups = groups
                    .into_iter()
                    .map(|(s, ops)| AtomicGroup {
                        sector: s,
                        dest: partition_of(s, cfg.num_mem_partitions),
                        ops: ops.into_boxed_slice(),
                    })
                    .collect();
                InstrMeta::Atomic {
                    groups,
                    total_flits,
                }
            }
            Instr::Alu { .. } | Instr::Bar | Instr::Fence | Instr::LockedSection { .. } => {
                InstrMeta::None
            }
        })
        .collect();
    Arc::new(WarpMeta { instrs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AtomicAccess, AtomicOp, MemAccess, Value, WarpProgram};

    #[test]
    fn load_sectors_sorted_and_deduped() {
        let cfg = GpuConfig::tiny();
        let program = WarpProgram::new(
            vec![Instr::Load {
                accesses: vec![MemAccess {
                    addrs: vec![0x240, 0x200, 0x204, 0x1000],
                }],
            }],
            4,
        );
        let meta = warp_meta(&program, &cfg);
        let InstrMeta::Sectors(sectors) = meta.at(0) else {
            panic!("load meta should carry sectors");
        };
        let mut expect: Vec<u64> = vec![0x240, 0x200, 0x204, 0x1000]
            .into_iter()
            .map(|a| sector_align(a, cfg.sector_size as u64))
            .collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(sectors.as_ref(), expect.as_slice());
    }

    #[test]
    fn atomic_groups_preserve_first_occurrence_order() {
        let cfg = GpuConfig::tiny();
        // Lanes alternate between two far-apart sectors; the second sector
        // appears first at lane 1 and must come second in the group list.
        let accesses: Vec<AtomicAccess> = (0..4)
            .map(|l| AtomicAccess::new(l, 0x9000 + (l as u64 % 2) * 0x4000, Value::U32(1)))
            .collect();
        let program = WarpProgram::new(
            vec![Instr::Red {
                op: AtomicOp::AddU32,
                accesses,
            }],
            4,
        );
        let meta = warp_meta(&program, &cfg);
        let InstrMeta::Atomic {
            groups,
            total_flits,
        } = meta.at(0)
        else {
            panic!("atomic meta should carry groups");
        };
        assert_eq!(groups.len(), 2);
        assert_eq!(
            groups[0].sector,
            sector_align(0x9000, cfg.sector_size as u64)
        );
        assert_eq!(
            groups[1].sector,
            sector_align(0xD000, cfg.sector_size as u64)
        );
        assert!(groups.iter().all(|g| g.ops.len() == 2));
        let expect: u32 = groups
            .iter()
            .map(|g| (8 + 9 * g.ops.len()).div_ceil(cfg.icnt_flit_size) as u32)
            .sum();
        assert_eq!(*total_flits, expect);
        for g in groups.iter() {
            assert_eq!(g.dest, partition_of(g.sector, cfg.num_mem_partitions));
        }
    }

    #[test]
    fn non_memory_instrs_have_no_meta() {
        let cfg = GpuConfig::tiny();
        let program = WarpProgram::new(
            vec![
                Instr::Alu {
                    cycles: 1,
                    count: 1,
                },
                Instr::Bar,
                Instr::Fence,
            ],
            4,
        );
        let meta = warp_meta(&program, &cfg);
        assert!(meta.instrs.iter().all(|m| *m == InstrMeta::None));
    }
}
