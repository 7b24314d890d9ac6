//! The commit half of the issue phase, packaged per cluster.
//!
//! Each cycle, [`commit_cluster`] walks one cluster's SMs and schedulers in
//! fixed order, consuming the warp views the prepare phase built, picking
//! and issuing one instruction per scheduler. The walk is written against
//! three explicit capability sets instead of the whole [`GpuSim`]:
//!
//! - [`CommitParams`]: an immutable per-cluster snapshot of everything the
//!   walk reads from global state (cycle, geometry, latencies, and the
//!   cluster's interconnect injection budget — exact because the issue
//!   phase never mutates the interconnect; all packets stage in the
//!   cluster's outbox until the merge point);
//! - [`EngineShared`]: the engine-global mutable resources (execution
//!   model, lock manager, tracer);
//! - [`CommitOut`]: activity counters accumulated by the walk, folded into
//!   the engine's totals in cluster-index order.
//!
//! Everything else the walk touches lives inside the [`ClusterShard`]
//! itself (SMs, warp state, L1s, per-shard stats, the packet outbox).
//!
//! [`GpuSim`]: crate::engine::GpuSim

use std::sync::Arc;

use crate::exec::{
    AtomicIssue, AtomicRoute, BarrierRelease, ExecutionModel, FenceAction, SchedId, StoreRoute,
    WarpId,
};
use crate::imeta::InstrMeta;
use crate::isa::{AtomicAccess, AtomicOp, Instr};
use crate::lock::LockManager;
use crate::mem::cache::Probe;
use crate::mem::packet::{AtomKind, Packet, Payload, WarpRef};
use crate::mem::partition_of;
use crate::par::ClusterShard;
use crate::sched::WarpView;
use crate::sm::WarpState;

/// Flattens an instruction to its trace event class.
pub(crate) fn instr_kind(instr: &Instr) -> obs::InstrKind {
    match instr {
        Instr::Alu { .. } => obs::InstrKind::Alu,
        Instr::Load { .. } => obs::InstrKind::Load,
        Instr::Store { .. } => obs::InstrKind::Store,
        Instr::Red { .. } => obs::InstrKind::Red,
        Instr::Atom { .. } => obs::InstrKind::Atom,
        Instr::Bar => obs::InstrKind::Bar,
        Instr::Fence => obs::InstrKind::Fence,
        Instr::LockedSection { .. } => obs::InstrKind::Lock,
    }
}

/// Immutable per-cluster inputs to a commit walk: a snapshot of the global
/// state the walk reads, taken just before it.
#[derive(Debug, Clone, Copy)]
pub struct CommitParams {
    /// Current simulation cycle.
    pub cycle: u64,
    /// Global index of the cluster being committed.
    pub cluster: usize,
    /// SMs per cluster (converts shard-local SM indices to global ones).
    pub spc: usize,
    /// Warp schedulers per SM.
    pub num_sched: usize,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: u32,
    /// Interconnect flit size in bytes.
    pub icnt_flit_size: usize,
    /// Number of memory partitions (for address interleaving).
    pub num_mem_partitions: usize,
    /// Whether the scheduling policy is determinism-aware (batch gating).
    pub det_aware: bool,
    /// Whether the policy is strict round-robin (SRR-like gating).
    pub srr_like: bool,
    /// Whether the event engine is active (incremental `ready_bound`
    /// maintenance and active-set skipping).
    pub event: bool,
    /// The cluster's request-injection headroom in flits, snapshotted from
    /// [`Interconnect::request_injection_budget`] at the start of the issue
    /// phase. Exact for the whole phase: nothing enters the interconnect
    /// until the post-issue merge point.
    ///
    /// [`Interconnect::request_injection_budget`]:
    ///     crate::mem::icnt::Interconnect::request_injection_budget
    pub icnt_budget: u32,
}

/// Activity accumulated by one commit walk, merged into the engine's
/// [`ActivityCounters`] in cluster-index order.
///
/// [`ActivityCounters`]: crate::engine::GpuSim
#[derive(Debug, Default, Clone, Copy)]
pub struct CommitOut {
    /// SMs entered (not skipped by the active-set walk).
    pub sms_ticked: u64,
    /// Full warp-array ready-bound rescans: the O(warps/scheduler) work
    /// incremental wake lists exist to avoid. Only two sites still scan —
    /// a batch-gate opening (gated warps carry no timer bound, so the
    /// exact bound must be re-derived) and a dirty mid-commit view
    /// rebuild. Before wake lists, every scheduler visit ended in one.
    pub scheduler_scans: u64,
    /// Warp sleep→ready transitions triggered by this walk (barrier
    /// releases, flush parks resolving).
    pub wakeup_events: u64,
    /// Whether any instruction issued or warp retired (feeds the engine's
    /// deadlock watchdog).
    pub progressed: bool,
}

/// The engine-global mutable resources a commit walk may touch.
#[derive(Debug)]
pub struct EngineShared<'a> {
    /// The execution model (commit-phase hooks).
    pub model: &'a mut dyn ExecutionModel,
    /// The deterministic lock manager.
    pub locks: &'a mut LockManager,
    /// The structured event tracer, when tracing is enabled.
    pub tracer: Option<&'a mut obs::Tracer>,
}

impl EngineShared<'_> {
    /// Whether full-detail tracing is on.
    #[inline]
    fn trace_full(&self) -> bool {
        self.tracer.as_deref().is_some_and(obs::Tracer::is_full)
    }

    /// Records a trace event (no-op when tracing is off).
    #[inline]
    fn trace_event(&mut self, ev: obs::Event) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record(ev);
        }
    }
}

/// Commits one cluster for this cycle: the fixed `(SM, scheduler)` walk
/// that consumes prebuilt views, applies model gating, picks, and issues.
pub fn commit_cluster(
    shard: &mut ClusterShard,
    p: &CommitParams,
    sh: &mut EngineShared<'_>,
    out: &mut CommitOut,
) {
    let mut cx = Cx { shard, p, sh, out };
    cx.run();
}

/// Retires the warp in `slot` of shard-local SM `local` if it has finished
/// and drained; entry point for the engine's response/lock/spawn paths.
pub fn try_retire(
    shard: &mut ClusterShard,
    p: &CommitParams,
    sh: &mut EngineShared<'_>,
    out: &mut CommitOut,
    local: usize,
    slot: usize,
) {
    Cx { shard, p, sh, out }.try_retire(local, slot);
}

/// Wakes a flush-parked warp (epoch boundary); entry point for the
/// engine's model-wake path.
pub fn wake_flush_wait(
    shard: &mut ClusterShard,
    p: &CommitParams,
    sh: &mut EngineShared<'_>,
    out: &mut CommitOut,
    local: usize,
    slot: usize,
) {
    Cx { shard, p, sh, out }.wake_flush_wait(local, slot);
}

/// The commit walk's working context: one cluster's shard plus the
/// engine-level capabilities. Methods mirror the engine's former
/// `&mut self` issue machinery one-to-one.
struct Cx<'a, 'b> {
    shard: &'a mut ClusterShard,
    p: &'a CommitParams,
    sh: &'a mut EngineShared<'b>,
    out: &'a mut CommitOut,
}

impl Cx<'_, '_> {
    /// Global SM index of shard-local SM `local`.
    #[inline]
    fn global_sm(&self, local: usize) -> usize {
        self.p.cluster * self.p.spc + local
    }

    /// Marks forward progress (instruction issued or warp retired).
    #[inline]
    fn progress(&mut self) {
        self.out.progressed = true;
    }

    /// Whether the cluster can stage `flits` more request flits this cycle,
    /// against the snapshotted interconnect budget.
    #[inline]
    fn can_send(&self, flits: u32) -> bool {
        self.shard.outbox.flits() + flits <= self.p.icnt_budget
    }

    /// Stages an outbound request packet; it enters the interconnect at
    /// this cycle's merge point.
    #[inline]
    fn send(&mut self, pkt: Packet) {
        self.shard.outbox.stage(pkt);
    }

    /// The full per-cluster commit walk (see [`commit_cluster`]).
    ///
    /// With `event` set, the walk is an active-set traversal: SMs and
    /// schedulers whose cached `ready_bound` lies in the future are skipped
    /// in place. Skipping is equivalent to the dense visit because
    /// `ready_bound > cycle` guarantees `build_views` would return empty or
    /// only warps the model refuses again (the bound is never stale-high;
    /// a repeated refusal has no side effect), and either is a dense visit
    /// that issues nothing.
    ///
    /// Visited schedulers maintain their bound *incrementally* instead of
    /// rescanning warps: the bound is re-armed to `u64::MAX` before the
    /// pick (so mid-issue wakes land on a clean slate), then the prebuilt
    /// per-view timer bounds of non-picked warps are folded back in and
    /// the picked warp is re-evaluated live (`Sm::note_slot_bound`). Dirty
    /// SMs (a barrier release mutated warps mid-commit) rebuild views —
    /// and with them exact bounds — on the spot, so no wake is ever lost.
    fn run(&mut self) {
        let cycle = self.p.cycle;
        let event = self.p.event;
        if event && self.shard.sms.iter().all(|sm| sm.ready_bound() > cycle) {
            return;
        }
        for local in 0..self.p.spc {
            if event && self.shard.sms[local].ready_bound() > cycle {
                continue;
            }
            self.out.sms_ticked += 1;
            for sched in 0..self.p.num_sched {
                if self.shard.sms[local].schedulers[sched].live == 0 {
                    // A dead scheduler can be left holding a stale-low bound:
                    // bounds only ever fall between visits, and a scheduler
                    // with no live warps is never visited again to install an
                    // exact one. Clear it, or it pins the event wheel (and
                    // this SM's walk) to every remaining cycle; a later CTA
                    // placement re-lowers it on arrival.
                    if event {
                        self.shard.sms[local].schedulers[sched].ready_bound = u64::MAX;
                    }
                    continue;
                }
                if event && self.shard.sms[local].schedulers[sched].ready_bound > cycle {
                    continue;
                }
                let row = local * self.p.num_sched + sched;
                let (mut views, agg_bound) = if self.shard.is_dirty(local) {
                    self.out.scheduler_scans += 1;
                    self.shard.sms[local].build_views(
                        sched,
                        cycle,
                        self.p.det_aware,
                        self.p.srr_like,
                    )
                } else {
                    (
                        std::mem::take(&mut self.shard.views[row]),
                        self.shard.view_bounds[row],
                    )
                };
                if event {
                    // Re-arm before the pick: wakes triggered by this
                    // visit (barrier releases, retirements) lower the
                    // bound from MAX via `note_ready`/recompute and are
                    // preserved by the min-folds below.
                    self.shard.sms[local].schedulers[sched].ready_bound = u64::MAX;
                }
                let picked = if views.is_empty() {
                    None
                } else {
                    self.apply_model_gating(local, sched, &mut views);
                    self.pick_and_issue(local, sched, &views)
                };
                if event {
                    let sm = &mut self.shard.sms[local];
                    for v in &views {
                        if Some(v.slot) != picked {
                            sm.schedulers[sched].note_ready(v.bound_at);
                        }
                    }
                    if views.is_empty() {
                        sm.schedulers[sched].note_ready(agg_bound);
                    }
                    if let Some(slot) = picked {
                        sm.note_slot_bound(slot, self.p.det_aware, self.p.srr_like);
                    }
                }
            }
        }
    }

    /// Model gating (GPUDet quanta / serial mode) applied to ready views.
    /// A refusal is steady until the model calls `ModelCtx::reopen_issue`,
    /// so a refused warp is parked: its `bound_at` leaves the event
    /// engine's incremental `ready_bound` fold.
    fn apply_model_gating(&mut self, local: usize, sched: usize, views: &mut [WarpView]) {
        let cycle = self.p.cycle;
        let sm_idx = self.global_sm(local);
        for v in views.iter_mut().filter(|v| v.ready) {
            let warp_id = WarpId {
                sched: SchedId { sm: sm_idx, sched },
                slot: v.slot,
                unique: v.unique,
            };
            if !self.sh.model.can_issue(warp_id, v.next_is_atomic, cycle) {
                v.ready = false;
                v.bound_at = u64::MAX;
            }
        }
    }

    /// Runs the policy pick and issues the chosen warp. Returns the picked
    /// slot (whether or not the issue succeeded) so the event engine can
    /// exclude its stale prebuilt bound from the incremental fold.
    fn pick_and_issue(&mut self, local: usize, sched: usize, views: &[WarpView]) -> Option<usize> {
        let cycle = self.p.cycle;
        let picked = self.shard.sms[local].schedulers[sched]
            .policy
            .pick(views, cycle);
        if let Some(slot) = picked {
            debug_assert!(
                views.iter().any(|v| v.slot == slot && v.ready),
                "scheduler picked a non-ready warp"
            );
            self.issue_one(local, sched, slot);
        }
        picked
    }

    fn issue_one(&mut self, local: usize, sched: usize, slot: usize) {
        let cycle = self.p.cycle;
        let sm_idx = self.global_sm(local);
        let (program, meta, pc, unique, lanes) = {
            let w = self.shard.sms[local].warps[slot]
                .as_ref()
                .expect("picked warp");
            (
                Arc::clone(&w.program),
                Arc::clone(&w.meta),
                w.pc,
                w.unique,
                w.program.active_lanes,
            )
        };
        let instr = &program.instrs[pc];
        let warp_id = WarpId {
            sched: SchedId { sm: sm_idx, sched },
            slot,
            unique,
        };
        let warp_ref = WarpRef { sm: sm_idx, slot };

        let mut issued = true;
        let mut thread_instrs = instr.thread_instr_count(lanes);
        match instr {
            Instr::Alu { cycles, count } => {
                let w = self.shard.sms[local].warps[slot]
                    .as_mut()
                    .expect("picked warp");
                if w.alu_rem == 0 {
                    w.alu_rem = (*count).max(1);
                }
                w.alu_rem -= 1;
                thread_instrs = lanes as u64;
                if w.alu_rem == 0 {
                    w.pc += 1;
                    // Latency tail before the (dependent) next instruction.
                    w.next_ready = cycle + (*cycles).max(1) as u64;
                } else {
                    // Back-to-back issue within the burst.
                    w.next_ready = cycle + 1;
                }
            }
            Instr::Load { .. } => {
                let InstrMeta::Sectors(sectors) = meta.at(pc) else {
                    unreachable!("load without sector metadata")
                };
                issued = self.issue_load(local, slot, sectors);
            }
            Instr::Store { .. } => {
                let InstrMeta::Sectors(sectors) = meta.at(pc) else {
                    unreachable!("store without sector metadata")
                };
                issued = self.issue_store(warp_id, sectors);
            }
            Instr::Red { op, accesses } => {
                issued = self.issue_atomic(warp_id, *op, accesses, AtomKind::Red, meta.at(pc));
            }
            Instr::Atom { op, accesses } => {
                issued = self.issue_atomic(warp_id, *op, accesses, AtomKind::Atom, meta.at(pc));
            }
            Instr::Bar => {
                self.issue_barrier(local, slot);
            }
            Instr::Fence => {
                self.issue_fence(warp_id);
            }
            Instr::LockedSection {
                kind,
                lock_addr,
                op,
                accesses,
                critical_cycles,
            } => {
                let occurrence = {
                    let w = self.shard.sms[local].warps[slot]
                        .as_mut()
                        .expect("picked warp");
                    w.next_lock_occurrence(*lock_addr)
                };
                self.sh.locks.acquire(
                    warp_ref,
                    unique,
                    occurrence,
                    *kind,
                    *lock_addr,
                    accesses,
                    *critical_cycles,
                    *op,
                );
                let w = self.shard.sms[local].warps[slot]
                    .as_mut()
                    .expect("picked warp");
                w.pc += 1;
                w.state = WarpState::WaitLock;
                if self.sh.trace_full() {
                    self.sh.trace_event(obs::Event::Sleep {
                        cycle,
                        sm: sm_idx as u32,
                        slot: slot as u32,
                        reason: obs::SleepReason::Lock,
                    });
                }
            }
        }

        if issued {
            self.progress();
            if self.sh.trace_full() {
                self.sh.trace_event(obs::Event::Issue {
                    cycle,
                    sm: sm_idx as u32,
                    sched: sched as u32,
                    slot: slot as u32,
                    unique,
                    pc: pc as u32,
                    kind: instr_kind(instr),
                });
            }
            // Issue-path counters accumulate per cluster shard and merge in
            // cluster-index order at end of run.
            let shard_stats = &mut self.shard.stats;
            shard_stats.warp_instrs += 1;
            shard_stats.thread_instrs += thread_instrs;
            shard_stats.atomics += instr.atomic_count();
            let was_atomic = instr.is_atomic();
            let sctx = &mut self.shard.sms[local].schedulers[sched];
            if was_atomic {
                // The token may pass to a warp parked as refused.
                sctx.token_event(cycle + 1, |p| p.on_issue(unique, true, cycle));
            } else {
                sctx.policy.on_issue(unique, false, cycle);
            }
            self.sh.model.on_issue(warp_id, was_atomic, cycle);
            self.try_retire(local, slot);
        }
    }

    fn issue_load(&mut self, local: usize, slot: usize, sectors: &[u64]) -> bool {
        let cycle = self.p.cycle;
        let sm_idx = self.global_sm(local);
        // Probe L1 for each precomputed sector.
        let mut missing: Vec<u64> = Vec::new();
        {
            let shard = &mut *self.shard;
            let sm = &mut shard.sms[local];
            for &s in sectors {
                shard.stats.l1_accesses += 1;
                match sm.l1.probe(s) {
                    Probe::Hit => {}
                    Probe::SectorMiss | Probe::LineMiss => {
                        shard.stats.l1_misses += 1;
                        missing.push(s);
                    }
                }
            }
        }
        if missing.is_empty() {
            let l1_hit_latency = self.p.l1_hit_latency as u64;
            let w = self.shard.sms[local].warps[slot]
                .as_mut()
                .expect("picked warp");
            w.pc += 1;
            w.next_ready = cycle + l1_hit_latency;
            return true;
        }
        // Structural checks: MSHR space for new sectors, interconnect room.
        let sm = &self.shard.sms[local];
        let new_sectors: Vec<u64> = missing
            .iter()
            .copied()
            .filter(|s| !sm.l1_mshrs.contains_key(s))
            .collect();
        if sm.l1_mshrs.len() + new_sectors.len() > sm.l1_mshr_capacity {
            self.shard.stats.bump("det.stall.l1_mshr", 1);
            return false;
        }
        let flits_needed = new_sectors.len() as u32;
        if !self.can_send(flits_needed) {
            self.shard.stats.icnt_stall_cycles += 1;
            return false;
        }
        let warp_ref = WarpRef { sm: sm_idx, slot };
        for &s in &missing {
            let is_new = {
                let sm = &mut self.shard.sms[local];
                let is_new = !sm.l1_mshrs.contains_key(&s);
                sm.l1_mshrs.entry(s).or_default().push(slot);
                is_new
            };
            if is_new {
                let pkt = Packet::new(
                    partition_of(s, self.p.num_mem_partitions),
                    Payload::LoadReq {
                        sector_addr: s,
                        warp: warp_ref,
                    },
                    self.p.icnt_flit_size,
                );
                self.shard.stats.mem_transactions += 1;
                self.send(pkt);
            }
        }
        let w = self.shard.sms[local].warps[slot]
            .as_mut()
            .expect("picked warp");
        w.outstanding_loads += missing.len() as u32;
        w.pc += 1;
        w.state = WarpState::WaitMem;
        if self.sh.trace_full() {
            self.sh.trace_event(obs::Event::Sleep {
                cycle,
                sm: sm_idx as u32,
                slot: slot as u32,
                reason: obs::SleepReason::Mem,
            });
        }
        true
    }

    fn issue_store(&mut self, warp_id: WarpId, sectors: &[u64]) -> bool {
        let cycle = self.p.cycle;
        let sm_idx = warp_id.sched.sm;
        let local = sm_idx % self.p.spc;
        let slot = warp_id.slot;
        if self.sh.model.on_store(warp_id, sectors.len(), cycle) == StoreRoute::Buffered {
            // Absorbed by a model-side store buffer: no traffic now.
            let w = self.shard.sms[local].warps[slot]
                .as_mut()
                .expect("picked warp");
            w.pc += 1;
            w.next_ready = cycle + 1;
            return true;
        }
        if !self.can_send(2 * sectors.len() as u32) {
            self.shard.stats.icnt_stall_cycles += 1;
            return false;
        }
        // Store *data* is not modeled: the timing model only needs sector
        // addresses, and reduction outputs are written by atomics.
        let warp_ref = WarpRef { sm: sm_idx, slot };
        for &s in sectors {
            // Write-through, write-evict at the L1.
            self.shard.sms[local].l1.evict_sector(s);
            let pkt = Packet::new(
                partition_of(s, self.p.num_mem_partitions),
                Payload::StoreReq {
                    sector_addr: s,
                    warp: warp_ref,
                },
                self.p.icnt_flit_size,
            );
            self.shard.stats.mem_transactions += 1;
            self.send(pkt);
        }
        let w = self.shard.sms[local].warps[slot]
            .as_mut()
            .expect("picked warp");
        w.outstanding_writes += sectors.len() as u32;
        w.pc += 1;
        w.next_ready = cycle + 1;
        true
    }

    fn issue_atomic(
        &mut self,
        warp_id: WarpId,
        op: AtomicOp,
        accesses: &[AtomicAccess],
        kind: AtomKind,
        meta: &InstrMeta,
    ) -> bool {
        let cycle = self.p.cycle;
        let sm_idx = warp_id.sched.sm;
        let local = sm_idx % self.p.spc;
        let slot = warp_id.slot;
        let route = self.sh.model.on_atomic(
            AtomicIssue {
                warp: warp_id,
                op,
                accesses,
                kind,
            },
            cycle,
        );
        match route {
            AtomicRoute::Buffered { cycles } => {
                let w = self.shard.sms[local].warps[slot]
                    .as_mut()
                    .expect("picked warp");
                w.pc += 1;
                w.next_ready = cycle + cycles.max(1) as u64;
                true
            }
            AtomicRoute::StallFlush => {
                self.set_flush_wait(local, slot);
                self.shard.stats.bump("det.stall.atomic_buffer_full", 1);
                false
            }
            AtomicRoute::ToMemory => {
                // Fast-fail when the injection queue is jammed, before
                // touching the precomputed groups (retried every cycle).
                if !self.can_send(1) {
                    self.shard.stats.icnt_stall_cycles += 1;
                    return false;
                }
                // Per-sector coalescing groups and the flit total are
                // precomputed in the shared [`WarpMeta`] table.
                let InstrMeta::Atomic {
                    groups,
                    total_flits,
                } = meta
                else {
                    unreachable!("atomic without coalescing metadata")
                };
                if !self.can_send(*total_flits) {
                    self.shard.stats.icnt_stall_cycles += 1;
                    return false;
                }
                let warp_ref = WarpRef { sm: sm_idx, slot };
                let unique = self.shard.sms[local].warps[slot]
                    .as_ref()
                    .expect("picked warp")
                    .unique;
                let n_groups = groups.len() as u32;
                for g in groups.iter() {
                    let pkt = Packet::new(
                        g.dest,
                        Payload::AtomicReq {
                            ops: g.ops.to_vec(),
                            warp: warp_ref,
                            kind,
                            unique,
                        },
                        self.p.icnt_flit_size,
                    );
                    self.shard.stats.mem_transactions += 1;
                    self.send(pkt);
                }
                let w = self.shard.sms[local].warps[slot]
                    .as_mut()
                    .expect("picked warp");
                w.outstanding_writes += n_groups;
                w.pc += 1;
                match kind {
                    AtomKind::Red => w.next_ready = cycle + 1,
                    AtomKind::Atom => w.state = WarpState::WaitAtom,
                }
                if kind == AtomKind::Atom && self.sh.trace_full() {
                    self.sh.trace_event(obs::Event::Sleep {
                        cycle,
                        sm: sm_idx as u32,
                        slot: slot as u32,
                        reason: obs::SleepReason::Atom,
                    });
                }
                true
            }
        }
    }

    fn issue_barrier(&mut self, local: usize, slot: usize) {
        let cycle = self.p.cycle;
        let sm_idx = self.global_sm(local);
        let (cta_key, warp_id) = {
            let sm = &mut self.shard.sms[local];
            let w = sm.warps[slot].as_mut().expect("picked warp");
            w.pc += 1;
            w.state = WarpState::WaitBarrier;
            let (cta_key, sched, unique) = (w.cta_key, w.sched, w.unique);
            sm.schedulers[sched].barrier_wait += 1;
            (
                cta_key,
                WarpId {
                    sched: SchedId { sm: sm_idx, sched },
                    slot,
                    unique,
                },
            )
        };
        if self.sh.trace_full() {
            self.sh.trace_event(obs::Event::Sleep {
                cycle,
                sm: sm_idx as u32,
                slot: slot as u32,
                reason: obs::SleepReason::Barrier,
            });
        }
        self.sh.model.on_barrier_wait(warp_id, cycle);
        {
            let sm = &mut self.shard.sms[local];
            // The policy consumes the warp's token/turn so atomic grants
            // never deadlock behind the barrier; the next holder may be a
            // warp parked as refused.
            sm.schedulers[warp_id.sched.sched]
                .token_event(cycle + 1, |p| p.on_barrier_arrival(warp_id.unique));
            let barrier = sm.barriers.get_mut(&cta_key).expect("barrier state");
            barrier.waiting_slots.push(slot);
        }
        self.try_release_barrier(local, cta_key);
    }

    /// Releases a CTA barrier once every *live* warp of the CTA waits at it
    /// (warps that exited without reaching the barrier no longer count, as
    /// with CUDA's exited-threads semantics).
    fn try_release_barrier(&mut self, local: usize, cta_key: u64) {
        let cycle = self.p.cycle;
        let sm_idx = self.global_sm(local);
        let waiting = {
            let sm = &mut self.shard.sms[local];
            let Some(barrier) = sm.barriers.get_mut(&cta_key) else {
                return;
            };
            if barrier.waiting_slots.is_empty()
                || (barrier.waiting_slots.len() as u32) < barrier.live_warps
            {
                return;
            }
            std::mem::take(&mut barrier.waiting_slots)
        };
        // An actual release mutates warp state across this SM's schedulers;
        // views prebuilt for it this cycle are now stale. Barriers are
        // SM-local, so the dirty flag never needs to cross the shard.
        self.shard.mark_dirty(local);
        let waiting_ids: Vec<WarpId> = waiting
            .iter()
            .map(|&s| {
                let w = self.shard.sms[local].warps[s].as_ref().expect("at barrier");
                WarpId {
                    sched: SchedId {
                        sm: sm_idx,
                        sched: w.sched,
                    },
                    slot: s,
                    unique: w.unique,
                }
            })
            .collect();
        let release = self
            .sh
            .model
            .on_barrier_release(sm_idx, &waiting_ids, cycle);
        for id in &waiting_ids {
            self.shard.sms[local].schedulers[id.sched.sched].barrier_wait -= 1;
        }
        match release {
            BarrierRelease::Immediate => {
                for s in waiting {
                    {
                        let sm = &mut self.shard.sms[local];
                        let w = sm.warps[s].as_mut().expect("at barrier");
                        w.state = WarpState::Ready;
                        w.next_ready = cycle + 1;
                        let (sched, unique) = (w.sched, w.unique);
                        sm.schedulers[sched].note_ready(cycle + 1);
                        sm.schedulers[sched].policy.on_barrier_released(unique);
                    }
                    self.out.wakeup_events += 1;
                    if self.sh.trace_full() {
                        self.sh.trace_event(obs::Event::Wake {
                            cycle,
                            sm: sm_idx as u32,
                            slot: s as u32,
                            site: obs::WakeSite::Barrier,
                        });
                    }
                    // The barrier may have been the warp's last instruction.
                    self.try_retire(local, s);
                }
            }
            BarrierRelease::WaitFlush => {
                // The warps stay parked in their schedulers until the flush
                // wake (the epoch boundary), which keeps un-parking — and
                // therefore the token/turn grant order — deterministic.
                for s in waiting {
                    self.set_flush_wait(local, s);
                }
            }
        }
    }

    fn issue_fence(&mut self, warp_id: WarpId) {
        let cycle = self.p.cycle;
        let sm_idx = warp_id.sched.sm;
        let local = sm_idx % self.p.spc;
        let slot = warp_id.slot;
        match self.sh.model.on_fence(warp_id, cycle) {
            FenceAction::DrainWarp => {
                let w = self.shard.sms[local].warps[slot]
                    .as_mut()
                    .expect("picked warp");
                w.pc += 1;
                let drains = w.outstanding_writes > 0;
                if drains {
                    w.state = WarpState::WaitDrain;
                } else {
                    w.next_ready = cycle + 1;
                }
                if drains && self.sh.trace_full() {
                    self.sh.trace_event(obs::Event::Sleep {
                        cycle,
                        sm: sm_idx as u32,
                        slot: slot as u32,
                        reason: obs::SleepReason::Drain,
                    });
                }
            }
            FenceAction::WaitFlush => {
                let w = self.shard.sms[local].warps[slot]
                    .as_mut()
                    .expect("picked warp");
                w.pc += 1;
                self.set_flush_wait(local, slot);
            }
        }
    }

    fn set_flush_wait(&mut self, local: usize, slot: usize) {
        let cycle = self.p.cycle;
        let sm_idx = self.global_sm(local);
        let sm = &mut self.shard.sms[local];
        let w = sm.warps[slot].as_mut().expect("warp resident");
        let mut parked = false;
        if w.state != WarpState::WaitFlush {
            w.state = WarpState::WaitFlush;
            sm.schedulers[w.sched].flush_wait += 1;
            parked = true;
        }
        if parked && self.sh.trace_full() {
            self.sh.trace_event(obs::Event::Sleep {
                cycle,
                sm: sm_idx as u32,
                slot: slot as u32,
                reason: obs::SleepReason::Flush,
            });
        }
    }

    fn wake_flush_wait(&mut self, local: usize, slot: usize) {
        let cycle = self.p.cycle;
        let sm_idx = self.global_sm(local);
        let sm = &mut self.shard.sms[local];
        let mut woke = false;
        if let Some(w) = sm.warps[slot].as_mut() {
            if w.state == WarpState::WaitFlush {
                w.state = WarpState::Ready;
                w.next_ready = cycle + 1;
                let (sched, unique) = (w.sched, w.unique);
                sm.schedulers[sched].flush_wait -= 1;
                sm.schedulers[sched].note_ready(cycle + 1);
                // Un-park barrier waiters at the epoch boundary (no-op for
                // warps that were flush-blocked for other reasons).
                sm.schedulers[sched].policy.on_barrier_released(unique);
                woke = true;
            }
        }
        if woke {
            self.out.wakeup_events += 1;
            if self.sh.trace_full() {
                self.sh.trace_event(obs::Event::Wake {
                    cycle,
                    sm: sm_idx as u32,
                    slot: slot as u32,
                    site: obs::WakeSite::Flush,
                });
            }
        }
        self.try_retire(local, slot);
    }

    /// Retires the warp if it has finished its program and drained all
    /// outstanding transactions.
    fn try_retire(&mut self, local: usize, slot: usize) {
        let cycle = self.p.cycle;
        let sm_idx = self.global_sm(local);
        let mut parked_to_drain = false;
        let retire = {
            match self.shard.sms[local].warps[slot].as_mut() {
                Some(w) if w.finished() => {
                    if w.outstanding_loads == 0 && w.outstanding_writes == 0 {
                        // Only a warp that is not waiting on anything may
                        // retire; a warp whose last instruction parked it
                        // (barrier, flush, lock) retires after its wake.
                        w.state == WarpState::Ready
                    } else {
                        if w.state == WarpState::Ready {
                            w.state = WarpState::WaitDrain;
                            parked_to_drain = true;
                        }
                        false
                    }
                }
                _ => false,
            }
        };
        if parked_to_drain && self.sh.trace_full() {
            self.sh.trace_event(obs::Event::Sleep {
                cycle,
                sm: sm_idx as u32,
                slot: slot as u32,
                reason: obs::SleepReason::Drain,
            });
        }
        if !retire {
            return;
        }
        let (unique, sched) = {
            let w = self.shard.sms[local].warps[slot]
                .as_ref()
                .expect("finished warp");
            (w.unique, w.sched)
        };
        // Warp-level DAB holds finished warps until their buffer flushes.
        if !self.sh.model.can_retire(WarpId {
            sched: SchedId { sm: sm_idx, sched },
            slot,
            unique,
        }) {
            self.set_flush_wait(local, slot);
            return;
        }
        self.progress();
        // `no_more_arrivals` is refreshed by the dispatcher each cycle; the
        // conservative value here only delays partial-batch completion by a
        // cycle at worst.
        let gate_before = self.shard.sms[local].schedulers[sched].completed_batches;
        let warp = self.shard.sms[local].retire_warp(slot, false, cycle);
        debug_assert_eq!(warp.unique, unique);
        if self.p.event && self.shard.sms[local].schedulers[sched].completed_batches != gate_before
        {
            // The batch gate opened: warps this scheduler had parked with
            // no timer bound (gated atomics) may now be pickable, so the
            // incremental bound must be re-derived exactly.
            self.out.scheduler_scans += 1;
            self.shard.sms[local].recompute_ready_bound(sched, self.p.det_aware, self.p.srr_like);
        }
        self.sh.model.on_warp_exit(WarpId {
            sched: SchedId { sm: sm_idx, sched },
            slot,
            unique,
        });
        // A warp exiting without reaching its CTA's barrier may complete it.
        self.try_release_barrier(local, warp.cta_key);
    }
}
