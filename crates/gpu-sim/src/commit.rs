//! The issue walk: one pass over the live machine per cycle.
//!
//! [`GpuSim::issue`] visits every `(SM, scheduler)` pair in fixed global
//! order (cluster-major, which is SM-index order). Each visited scheduler
//! builds its warp views right before its pick, the execution model gates
//! them, the policy picks, and one instruction issues. Memory requests
//! enter the interconnect at the moment they issue, debited against the
//! live per-cluster injection budget; issue-path counters go straight
//! into the run's [`SimStats`](crate::stats::SimStats). Every
//! `ExecutionModel` hook and `WarpScheduler` call of the issue phase
//! therefore happens in one deterministic order.
//!
//! The warp state transitions ([`GpuSim::park`], [`GpuSim::wake`]) and the
//! retirement machinery live here too, because the walk and the engine's
//! response, lock-grant, spawn and model-wake paths share them.

use std::sync::Arc;

use crate::config::EngineKind;
use crate::engine::GpuSim;
use crate::exec::{
    AtomicIssue, AtomicRoute, BarrierRelease, FenceAction, SchedId, StoreRoute, WarpId,
};
use crate::imeta::InstrMeta;
use crate::isa::{AtomicAccess, AtomicOp, Instr};
use crate::mem::cache::Probe;
use crate::mem::packet::{AtomKind, Packet, Payload, WarpRef};
use crate::mem::partition_of;
use crate::sched::{SchedKind, WarpView};
use crate::sm::{Sleeper, WarpState};

/// What one issue attempt did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attempt {
    /// The instruction issued.
    Issued,
    /// Not issued: refused, to be tried again at a later visit (or once
    /// the model wakes the warp it parked).
    Retry,
    /// Every visit until the scheduler wakes repeats this one's pick (see
    /// `SchedulerCtx::sleeper`): refused with no effect, or, for an ALU
    /// instruction that issued, the next instruction of its burst.
    Sleep(Sleeper),
}

/// The state a warp parks in for `reason`.
fn parked_state(reason: obs::SleepReason) -> WarpState {
    match reason {
        obs::SleepReason::Mem => WarpState::WaitMem,
        obs::SleepReason::Atom => WarpState::WaitAtom,
        obs::SleepReason::Drain => WarpState::WaitDrain,
        obs::SleepReason::Lock => WarpState::WaitLock,
        obs::SleepReason::Barrier => WarpState::WaitBarrier,
        obs::SleepReason::Flush => WarpState::WaitFlush,
    }
}

/// The state a warp woken at `site` leaves.
fn woken_state(site: obs::WakeSite) -> WarpState {
    match site {
        obs::WakeSite::LoadResp => WarpState::WaitMem,
        obs::WakeSite::AtomAck => WarpState::WaitAtom,
        obs::WakeSite::StoreDrain => WarpState::WaitDrain,
        obs::WakeSite::LockGrant => WarpState::WaitLock,
        obs::WakeSite::Barrier => WarpState::WaitBarrier,
        obs::WakeSite::Flush => WarpState::WaitFlush,
    }
}

/// Flattens an instruction to its trace event class.
fn instr_kind(instr: &Instr) -> obs::InstrKind {
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

impl GpuSim {
    /// The policy flags `Sm::build_views` and the bound maintenance take:
    /// `(det_aware, srr_like)`.
    fn gate_flags(&self) -> (bool, bool) {
        (
            self.sched_kind.is_determinism_aware(),
            self.sched_kind == SchedKind::Srr,
        )
    }

    /// Whether SM `sm_idx`'s cluster can inject `flits` more request
    /// flits this cycle.
    #[inline]
    fn can_send(&self, sm_idx: usize, flits: u32) -> bool {
        let cluster = sm_idx / self.cfg.sms_per_cluster;
        flits <= self.icnt.request_injection_budget(cluster)
    }

    /// Injects an outbound request packet at SM `sm_idx`'s cluster, on
    /// the models' traced path ([`ModelCtx::inject_request`]).
    ///
    /// [`ModelCtx::inject_request`]: crate::exec::ModelCtx::inject_request
    fn send(&mut self, sm_idx: usize, pkt: Packet) {
        let cluster = sm_idx / self.cfg.sms_per_cluster;
        let (_, _, mut ctx) = self.model_ctx();
        ctx.inject_request(cluster, pkt);
    }

    /// Issues at most one instruction per warp scheduler, walking SMs and
    /// their schedulers in global index order.
    ///
    /// With `skip` set (the event engine), the walk is an active-set
    /// traversal: SMs and schedulers whose cached `ready_bound` lies in the
    /// future are skipped in place. Skipping is equivalent to a visit
    /// because `ready_bound > cycle` guarantees `build_views` would return
    /// empty or only warps the model refuses again (the bound is never
    /// stale-high; a repeated refusal has no side effect), and either is a
    /// visit that issues nothing. A sleeping scheduler is the exception
    /// (`SchedulerCtx::sleeper`): each visit it skips would repeat its last
    /// pick, refused with no effect or issuing the next ALU instruction of
    /// a burst, whose issues its next visit credits first. Without `skip`
    /// (the dense engine) every scheduler is visited and that rule is
    /// checked instead: a visit to a scheduler with `ready_bound > cycle`
    /// that finds a ready view after model gating panics, unless the
    /// scheduler sleeps and the visit repeats the pick it sleeps on.
    ///
    /// Every visited scheduler maintains its bound *incrementally* instead
    /// of rescanning warps: the bound is re-armed to `u64::MAX` before the
    /// pick (so mid-issue wakes land on a clean slate), then the per-view
    /// timer bounds of non-picked warps are folded back in and the picked
    /// warp is re-evaluated live (`Sm::note_slot_bound`). Views are built
    /// at the visit itself (into one buffer every visit reuses), so a
    /// barrier release earlier in the walk is already reflected in them.
    pub(crate) fn issue(&mut self, skip: bool) {
        let cycle = self.cycle;
        if self.icnt_sleeps {
            self.wake_icnt_sleepers();
        }
        let (det_aware, srr_like) = self.gate_flags();
        let mut views = std::mem::take(&mut self.views);
        for sm_idx in 0..self.sms.len() {
            if skip && self.sms[sm_idx].ready_bound() > cycle {
                continue;
            }
            self.activity.sms_ticked += 1;
            for sched in 0..self.cfg.num_schedulers_per_sm {
                let sctx = &mut self.sms[sm_idx].schedulers[sched];
                if sctx.live == 0 {
                    // A dead scheduler can be left holding a stale-low bound:
                    // bounds only ever fall between visits, and a scheduler
                    // with no live warps is never visited again to install an
                    // exact one. Clear it, or it pins the event wheel (and
                    // this SM's walk) to every remaining cycle; a later CTA
                    // placement re-lowers it on arrival.
                    sctx.ready_bound = u64::MAX;
                    sctx.sleeper = None;
                    continue;
                }
                let bound = sctx.ready_bound;
                if skip && bound > cycle {
                    continue;
                }
                let sleeper = sctx.sleeper.take();
                if let Some(Sleeper::Burst { slot, from, .. }) = sleeper {
                    self.credit_burst(sm_idx, slot, from);
                }
                // A visit the event engine would skip may still find a
                // ready warp if the scheduler sleeps; the pick must then be
                // that warp, refused the same way or continuing its burst.
                let sleeper = sleeper.filter(|_| bound > cycle);
                let agg_bound =
                    self.sms[sm_idx].build_views(sched, cycle, det_aware, srr_like, &mut views);
                // Re-arm before the pick: wakes triggered by this visit
                // (barrier releases, retirements) lower the bound from MAX
                // via `note_ready`/recompute and are preserved by the
                // min-folds below.
                self.sms[sm_idx].schedulers[sched].ready_bound = u64::MAX;
                let (picked, sleeps) = if views.is_empty() {
                    (None, None)
                } else {
                    self.apply_model_gating(sm_idx, sched, &mut views);
                    if bound > cycle && sleeper.is_none() && views.iter().any(|v| v.ready) {
                        self.skip_rule_broken(sm_idx, sched, bound);
                    }
                    self.pick_and_issue(sm_idx, sched, &views, bound, sleeper)
                };
                if let (None, Some(Sleeper::Burst { slot, .. })) = (picked, sleeper) {
                    self.burst_broken(sm_idx, sched, slot);
                }
                let sm = &mut self.sms[sm_idx];
                if let Some(sleeper) = sleeps {
                    // Every visit would repeat this pick until a view
                    // changes, the refusal's resource frees or the burst
                    // ends: sleep (see `SchedulerCtx::sleeper`).
                    let sctx = &mut sm.schedulers[sched];
                    for v in views.iter().filter(|v| v.bound_at > cycle) {
                        sctx.note_ready(v.bound_at);
                    }
                    sctx.note_ready(sctx.policy.pick_changes_at(cycle));
                    if let Sleeper::Burst { until, .. } = sleeper {
                        sctx.note_ready(until);
                    }
                    sctx.sleeper = Some(sleeper);
                    self.icnt_sleeps |= matches!(sleeper, Sleeper::Icnt { .. });
                    continue;
                }
                for v in &views {
                    if Some(v.slot) != picked {
                        sm.schedulers[sched].note_ready(v.bound_at);
                    }
                }
                if views.is_empty() {
                    sm.schedulers[sched].note_ready(agg_bound);
                }
                if let Some(slot) = picked {
                    sm.note_slot_bound(slot, det_aware, srr_like);
                }
            }
        }
        self.views = views;
    }

    /// The dense engine's check failed: a visit the event engine would
    /// have skipped found a ready warp, so the scheduler's bound was
    /// stale-high.
    #[cold]
    fn skip_rule_broken(&self, sm_idx: usize, sched: usize, bound: u64) -> ! {
        panic!(
            "skip rule broken: SM {sm_idx} scheduler {sched} has a ready warp at cycle {} \
             but its ready bound is {bound}, so the event engine would have skipped it \
             (model {})",
            self.cycle,
            self.model.name()
        );
    }

    /// The dense engine's check of a burst sleep failed: a visit the event
    /// engine would have skipped did not issue the next ALU instruction of
    /// the burst the scheduler sleeps on, so its credit would be wrong.
    #[cold]
    fn burst_broken(&self, sm_idx: usize, sched: usize, slot: usize) -> ! {
        panic!(
            "skip rule broken: SM {sm_idx} scheduler {sched} sleeps on the ALU burst of slot \
             {slot} at cycle {}, but the visit does not issue the burst's next instruction \
             (model {})",
            self.cycle,
            self.model.name()
        );
    }

    /// Credits the issues the warp in `slot` owes for the cycles its
    /// scheduler slept through on its ALU burst (`Sleeper::Burst`): at
    /// every cycle after `from` and before this visit it would have been
    /// picked and issued the burst's next instruction. Those issues write
    /// the policy's and the model's state again unchanged
    /// (`WarpScheduler::greedy_warp`, `ExecutionModel::counts_issues`) and
    /// end no burst, so only the warp, the issue counters and the watchdog
    /// move.
    fn credit_burst(&mut self, sm_idx: usize, slot: usize, from: u64) {
        let cycle = self.cycle;
        let owed = cycle - from - 1;
        if owed == 0 {
            return;
        }
        let w = self.sms[sm_idx].warps[slot].as_mut().expect("burst warp");
        debug_assert!(
            u64::from(w.alu_rem) > owed,
            "burst credited past its last issue"
        );
        w.alu_rem -= owed as u32;
        w.next_ready = cycle;
        self.stats.warp_instrs += owed;
        self.stats.thread_instrs += owed * w.program.active_lanes as u64;
        self.progress_at(cycle - 1);
    }

    /// Whether the warp in `slot` is in an ALU burst whose last issue is
    /// at `until`: what every visit to its burst sleeper before then
    /// issues.
    fn burst_continues(&self, sm_idx: usize, slot: usize, until: u64) -> bool {
        let w = self.sms[sm_idx].warps[slot].as_ref().expect("burst warp");
        matches!(w.program.instrs[w.pc], Instr::Alu { .. })
            && (until + 1).checked_sub(self.cycle) == Some(u64::from(w.alu_rem))
    }

    /// Model gating (GPUDet quanta / serial mode) applied to ready views.
    /// A refusal is steady until the model calls `ModelCtx::reopen_issue`,
    /// so a refused warp is parked: its `bound_at` leaves the event
    /// engine's incremental `ready_bound` fold.
    fn apply_model_gating(&mut self, sm_idx: usize, sched: usize, views: &mut [WarpView]) {
        let (model, _, mut ctx) = self.model_ctx();
        for v in views.iter_mut().filter(|v| v.ready) {
            let warp_id = WarpId {
                sched: SchedId { sm: sm_idx, sched },
                slot: v.slot,
                unique: v.unique,
            };
            if !model.can_issue(warp_id, v.next_is_atomic, &mut ctx) {
                v.ready = false;
                v.bound_at = u64::MAX;
            }
        }
    }

    /// Runs the policy pick and issues the chosen warp. Returns the picked
    /// slot (whether or not the issue succeeded) so the event engine can
    /// exclude its pre-issue view bound from the incremental fold, and
    /// what the scheduler can sleep on if the pick was refused with no
    /// effect.
    ///
    /// `sleeper` is set only on a dense-engine visit the event engine
    /// would skip (its `bound` is past the cycle) to a sleeping scheduler:
    /// the pick must be that warp, refused the same way (an L1 refusal
    /// whose record stamps no line, or an interconnect refusal of a store
    /// or `red` of the same flits) or issuing its burst's next ALU
    /// instruction, or the visit breaks the skip rule.
    fn pick_and_issue(
        &mut self,
        sm_idx: usize,
        sched: usize,
        views: &[WarpView],
        bound: u64,
        sleeper: Option<Sleeper>,
    ) -> (Option<usize>, Option<Sleeper>) {
        let cycle = self.cycle;
        let picked = self.sms[sm_idx].schedulers[sched].policy.pick(views, cycle);
        let Some(slot) = picked else {
            return (None, None);
        };
        debug_assert!(
            views.iter().any(|v| v.slot == slot && v.ready),
            "scheduler picked a non-ready warp"
        );
        let refused = match sleeper {
            Some(Sleeper::Burst { slot: s, until, .. }) => {
                if s != slot || !self.burst_continues(sm_idx, slot, until) {
                    self.burst_broken(sm_idx, sched, s);
                }
                None
            }
            Some(s) if s.slot() != slot => self.skip_rule_broken(sm_idx, sched, bound),
            refused => refused,
        };
        let sleeps = match self.issue_one(sm_idx, sched, slot) {
            Attempt::Sleep(s) => Some(s),
            Attempt::Issued | Attempt::Retry => None,
        };
        if refused.is_some() && sleeps != refused {
            self.skip_rule_broken(sm_idx, sched, bound);
        }
        (picked, sleeps)
    }

    /// Issues the next instruction of the warp in `slot`. An `Alu` updates
    /// the warp in place; every other kind goes through
    /// [`issue_other`](Self::issue_other). Both share the post-issue tail:
    /// trace, stats, the `on_issue` hooks and retirement. Returns what the
    /// attempt did: an `Alu` that leaves its burst two or more issues, by
    /// the policy's greedy warp, returns a burst sleep unless
    /// `burst_sleeps` is off.
    fn issue_one(&mut self, sm_idx: usize, sched: usize, slot: usize) -> Attempt {
        let cycle = self.cycle;
        let sm = &mut self.sms[sm_idx];
        let l1_generation = sm.l1.generation();
        let w = sm.warps[slot].as_mut().expect("picked warp");
        let (pc, unique, lanes) = (w.pc, w.unique, w.program.active_lanes);
        let instr = &w.program.instrs[pc];
        let (kind, atomics, was_atomic) =
            (instr_kind(instr), instr.atomic_count(), instr.is_atomic());
        let warp_id = WarpId {
            sched: SchedId { sm: sm_idx, sched },
            slot,
            unique,
        };
        let (attempt, thread_instrs, burst_left) = if let Instr::Alu { cycles, count } = *instr {
            if w.alu_rem == 0 {
                w.alu_rem = count.max(1);
            }
            w.alu_rem -= 1;
            if w.alu_rem == 0 {
                w.pc += 1;
                // Latency tail before the (dependent) next instruction.
                w.next_ready = cycle + cycles.max(1) as u64;
            } else {
                // Back-to-back issue within the burst.
                w.next_ready = cycle + 1;
            }
            (Attempt::Issued, lanes as u64, w.alu_rem)
        } else if w.refused_load.holds(pc, l1_generation) {
            (self.replay_refused_load(sm_idx, slot, pc), 0, 0)
        } else {
            let thread_instrs = instr.thread_instr_count(lanes);
            // The other kinds call back into `self` while they read the
            // instruction and its metadata, so they hold their own handles.
            let (program, meta) = (Arc::clone(&w.program), Arc::clone(&w.meta));
            let attempt = self.issue_other(warp_id, &program.instrs[pc], meta.at(pc));
            (attempt, thread_instrs, 0)
        };

        if attempt == Attempt::Issued {
            self.progress();
            if self.trace_full() {
                self.trace_event(obs::Event::Issue {
                    cycle,
                    sm: sm_idx as u32,
                    sched: sched as u32,
                    slot: slot as u32,
                    unique,
                    pc: pc as u32,
                    kind,
                });
            }
            self.stats.warp_instrs += 1;
            self.stats.thread_instrs += thread_instrs;
            self.stats.atomics += atomics;
            let sctx = &mut self.sms[sm_idx].schedulers[sched];
            if was_atomic {
                // The token may pass to a warp parked as refused.
                sctx.token_event(cycle + 1, |p| p.on_issue(unique, true, cycle));
            } else {
                sctx.policy.on_issue(unique, false, cycle);
            }
            let (model, _, mut ctx) = self.model_ctx();
            model.on_issue(warp_id, was_atomic, &mut ctx);
            self.try_retire(sm_idx, slot);
            // Until a view changes, the policy picks this warp again for
            // every issue left in its burst: sleep through all but the last.
            if burst_left >= 2
                && self.burst_sleeps
                && self.sms[sm_idx].schedulers[sched].policy.greedy_warp() == Some(unique)
            {
                return Attempt::Sleep(Sleeper::Burst {
                    slot,
                    from: cycle,
                    until: cycle + u64::from(burst_left),
                });
            }
        }
        attempt
    }

    /// Issues a non-ALU instruction `instr` (with its metadata `meta`) for
    /// `warp_id`; returns what the attempt did.
    fn issue_other(&mut self, warp_id: WarpId, instr: &Instr, meta: &InstrMeta) -> Attempt {
        let (sm_idx, slot) = (warp_id.sched.sm, warp_id.slot);
        match instr {
            Instr::Alu { .. } => unreachable!("ALU instructions issue in place"),
            Instr::Load { .. } => {
                let InstrMeta::Sectors(sectors) = meta else {
                    unreachable!("load without sector metadata")
                };
                self.issue_load(sm_idx, slot, sectors)
            }
            Instr::Store { .. } => {
                let InstrMeta::Sectors(sectors) = meta else {
                    unreachable!("store without sector metadata")
                };
                self.issue_store(warp_id, sectors)
            }
            Instr::Red { op, accesses } => {
                self.issue_atomic(warp_id, *op, accesses, AtomKind::Red, meta)
            }
            Instr::Atom { op, accesses } => {
                self.issue_atomic(warp_id, *op, accesses, AtomKind::Atom, meta)
            }
            Instr::Bar => {
                self.issue_barrier(sm_idx, slot);
                Attempt::Issued
            }
            Instr::Fence => {
                self.issue_fence(warp_id);
                Attempt::Issued
            }
            Instr::LockedSection {
                kind,
                lock_addr,
                op,
                accesses,
                critical_cycles,
            } => {
                let occurrence = {
                    let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
                    w.next_lock_occurrence(*lock_addr)
                };
                self.locks.acquire(
                    WarpRef { sm: sm_idx, slot },
                    warp_id.unique,
                    occurrence,
                    *kind,
                    *lock_addr,
                    accesses,
                    *critical_cycles,
                    *op,
                );
                self.sms[sm_idx].warps[slot]
                    .as_mut()
                    .expect("picked warp")
                    .pc += 1;
                self.park(sm_idx, slot, obs::SleepReason::Lock);
                Attempt::Issued
            }
        }
    }

    /// Charges the interconnect's refusal of the request of the warp in
    /// `slot`, which needs `need` flits: one `icnt_stall_cycles` per
    /// request, at its first refusal, however often it retries. With
    /// `sleeps` set the retries would have no effect but the refusal, so
    /// the scheduler may sleep until its cluster's budget reaches `need`.
    fn icnt_refused(&mut self, sm_idx: usize, slot: usize, need: u32, sleeps: bool) -> Attempt {
        let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
        self.stats.icnt_stall_cycles += u64::from(w.icnt_refused_pc.replace(w.pc) != Some(w.pc));
        if sleeps {
            Attempt::Sleep(Sleeper::Icnt { slot, need })
        } else {
            Attempt::Retry
        }
    }

    /// Wakes, at the current cycle, every scheduler sleeping on an
    /// interconnect refusal whose request now fits its cluster's injection
    /// budget. The budget grows only in the interconnect's tick, before
    /// the issue walk, and the walk's injections only shrink it, so a
    /// sleeper that does not fit now is refused at every visit this cycle.
    /// Runs while `icnt_sleeps` is set, and clears it once none sleeps.
    fn wake_icnt_sleepers(&mut self) {
        let cycle = self.cycle;
        let mut asleep = false;
        for sm in &mut self.sms {
            let budget = self.icnt.request_injection_budget(sm.cluster);
            for sctx in &mut sm.schedulers {
                if let Some(Sleeper::Icnt { need, .. }) = sctx.sleeper {
                    if need <= budget {
                        sctx.sleeper = None;
                        sctx.note_ready(cycle);
                    } else {
                        asleep = true;
                    }
                }
            }
        }
        self.icnt_sleeps = asleep;
    }

    fn issue_load(&mut self, sm_idx: usize, slot: usize, sectors: &[u64]) -> Attempt {
        let cycle = self.cycle;
        // Probe L1 for each precomputed sector; the probes collect in one
        // buffer every load reuses.
        let mut probes = std::mem::take(&mut self.load_probes);
        probes.clear();
        let sm = &mut self.sms[sm_idx];
        probes.extend(sectors.iter().map(|&s| sm.l1.probe_line(s)));
        let misses = probes.iter().filter(|p| p.outcome != Probe::Hit).count() as u64;
        let missing = || {
            sectors
                .iter()
                .zip(&probes)
                .filter(|(_, p)| p.outcome != Probe::Hit)
                .map(|(&s, _)| s)
        };
        let attempt = 'issue: {
            if misses == 0 {
                self.stats.l1_accesses += sectors.len() as u64;
                let l1_hit_latency = self.cfg.l1_hit_latency as u64;
                let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
                w.pc += 1;
                w.next_ready = cycle + l1_hit_latency;
                break 'issue Attempt::Issued;
            }
            // Structural checks: MSHR space for new sectors, interconnect
            // room.
            let sm = &mut self.sms[sm_idx];
            let new_sectors = missing().filter(|s| !sm.l1_mshrs.contains_key(s)).count();
            let demand = sm.l1_mshrs.len() + new_sectors;
            if demand > sm.l1_mshr_capacity {
                // Until the L1's residency changes, each retry replays
                // these probes; a replay that stamps no line has no effect,
                // so the scheduler sleeps. The load counts one reservation
                // failure, at its first refusal.
                let generation = sm.l1.generation();
                let w = sm.warps[slot].as_mut().expect("picked warp");
                let record = &mut w.refused_load;
                if record.pc != Some(w.pc) {
                    self.stats.bump("det.stall.l1_mshr", 1);
                }
                record.pc = Some(w.pc);
                record.generation = generation;
                record.probes.clone_from(&probes);
                record.excess = demand - sm.l1_mshr_capacity;
                break 'issue if record.stamps_nothing() {
                    Attempt::Sleep(Sleeper::L1 { slot })
                } else {
                    Attempt::Retry
                };
            }
            if !self.can_send(sm_idx, new_sectors as u32) {
                // A retry probes again, and a fill or a new MSHR key can
                // change what it finds, so a refused load retries every
                // cycle.
                break 'issue self.icnt_refused(sm_idx, slot, new_sectors as u32, false);
            }
            self.stats.l1_accesses += sectors.len() as u64;
            self.stats.l1_misses += misses;
            let warp_ref = WarpRef { sm: sm_idx, slot };
            for s in missing() {
                let is_new = {
                    let sm = &mut self.sms[sm_idx];
                    let is_new = !sm.l1_mshrs.contains_key(&s);
                    sm.l1_mshrs.entry(s).or_default().push(slot);
                    is_new
                };
                if is_new {
                    let pkt = Packet::new(
                        partition_of(s, self.cfg.num_mem_partitions),
                        Payload::LoadReq {
                            sector_addr: s,
                            warp: warp_ref,
                        },
                        self.cfg.icnt_flit_size,
                    );
                    self.stats.mem_transactions += 1;
                    self.send(sm_idx, pkt);
                }
            }
            let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
            w.outstanding_loads += misses as u32;
            w.pc += 1;
            self.park(sm_idx, slot, obs::SleepReason::Mem);
            Attempt::Issued
        };
        self.load_probes = probes;
        attempt
    }

    /// Retries the load at `pc` that the MSHR table refused, while the
    /// warp's [`RefusedLoad`](crate::sm::RefusedLoad) record holds: the L1
    /// sees the same probes and the warp is refused again, with no tag
    /// scan, no MSHR lookup and no counter charged. The dense engine first
    /// checks the record against the live cache and MSHR table.
    fn replay_refused_load(&mut self, sm_idx: usize, slot: usize, pc: usize) -> Attempt {
        if self.cfg.engine == EngineKind::Dense {
            if let Some(what) = self.stale_refused_load(sm_idx, slot) {
                panic!(
                    "stale refused-load record: SM {sm_idx} slot {slot} pc {pc} at cycle {}: {what}",
                    self.cycle
                );
            }
        }
        let sm = &mut self.sms[sm_idx];
        let record = &sm.warps[slot].as_ref().expect("picked warp").refused_load;
        sm.l1.replay(&record.probes);
        if record.stamps_nothing() {
            Attempt::Sleep(Sleeper::L1 { slot })
        } else {
            Attempt::Retry
        }
    }

    /// The dense engine's check of a replay: what, if anything, makes the
    /// record differ from re-probing. Every recorded probe must be what a
    /// probe would find now, and the MSHR table must still lack room.
    fn stale_refused_load(&self, sm_idx: usize, slot: usize) -> Option<String> {
        let sm = &self.sms[sm_idx];
        let w = sm.warps[slot].as_ref().expect("picked warp");
        let InstrMeta::Sectors(sectors) = w.meta.at(w.pc) else {
            unreachable!("refused load without sector metadata")
        };
        let record = &w.refused_load;
        for (&s, recorded) in sectors.iter().zip(&record.probes) {
            let now = sm.l1.peek_line(s);
            if now != *recorded {
                return Some(format!(
                    "sector {s:#x} was recorded as {recorded:?} but is now {now:?}"
                ));
            }
        }
        let new_sectors = sectors
            .iter()
            .zip(&record.probes)
            .filter(|(s, p)| p.outcome != Probe::Hit && !sm.l1_mshrs.contains_key(s))
            .count();
        (sm.l1_mshrs.len() + new_sectors <= sm.l1_mshr_capacity)
            .then(|| format!("the MSHR table has room for its {new_sectors} new sectors"))
    }

    fn issue_store(&mut self, warp_id: WarpId, sectors: &[u64]) -> Attempt {
        let cycle = self.cycle;
        let sm_idx = warp_id.sched.sm;
        let slot = warp_id.slot;
        let (model, _, mut ctx) = self.model_ctx();
        if model.on_store(warp_id, sectors.len(), &mut ctx) == StoreRoute::Buffered {
            // Absorbed by a model-side store buffer: no traffic now.
            let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
            w.pc += 1;
            w.next_ready = cycle + 1;
            return Attempt::Issued;
        }
        let need = 2 * sectors.len() as u32;
        if !self.can_send(sm_idx, need) {
            return self.icnt_refused(sm_idx, slot, need, true);
        }
        // Store *data* is not modeled: the timing model only needs sector
        // addresses, and reduction outputs are written by atomics.
        let warp_ref = WarpRef { sm: sm_idx, slot };
        for &s in sectors {
            // Write-through, write-evict at the L1.
            self.sms[sm_idx].l1.evict_sector(s);
            let pkt = Packet::new(
                partition_of(s, self.cfg.num_mem_partitions),
                Payload::StoreReq {
                    sector_addr: s,
                    warp: warp_ref,
                },
                self.cfg.icnt_flit_size,
            );
            self.stats.mem_transactions += 1;
            self.send(sm_idx, pkt);
        }
        let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
        w.outstanding_writes += sectors.len() as u32;
        w.pc += 1;
        w.next_ready = cycle + 1;
        Attempt::Issued
    }

    fn issue_atomic(
        &mut self,
        warp_id: WarpId,
        op: AtomicOp,
        accesses: &[AtomicAccess],
        kind: AtomKind,
        meta: &InstrMeta,
    ) -> Attempt {
        let cycle = self.cycle;
        let sm_idx = warp_id.sched.sm;
        let slot = warp_id.slot;
        let (model, _, mut ctx) = self.model_ctx();
        let issue = AtomicIssue {
            warp: warp_id,
            op,
            accesses,
            kind,
        };
        let route = model.on_atomic(issue, &mut ctx);
        match route {
            AtomicRoute::Buffered { cycles } => {
                let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
                w.pc += 1;
                w.next_ready = cycle + cycles.max(1) as u64;
                Attempt::Issued
            }
            AtomicRoute::StallFlush => {
                self.park(sm_idx, slot, obs::SleepReason::Flush);
                self.stats.bump("det.stall.atomic_buffer_full", 1);
                Attempt::Retry
            }
            AtomicRoute::ToMemory => {
                // Per-sector coalescing groups and the flit total are
                // precomputed in the shared [`WarpMeta`] table.
                let InstrMeta::Atomic {
                    groups,
                    total_flits,
                } = meta
                else {
                    unreachable!("atomic without coalescing metadata")
                };
                let need = (*total_flits).max(1);
                if !self.can_send(sm_idx, need) {
                    // An `atom`'s route may depend on the model's global
                    // state, which other schedulers change (DAB sends it
                    // to memory only while every buffer is empty and no
                    // flush runs), so a refused `atom` retries every cycle.
                    return self.icnt_refused(sm_idx, slot, need, kind == AtomKind::Red);
                }
                let warp_ref = WarpRef { sm: sm_idx, slot };
                let unique = self.sms[sm_idx].warps[slot]
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
                        self.cfg.icnt_flit_size,
                    );
                    self.stats.mem_transactions += 1;
                    self.send(sm_idx, pkt);
                }
                let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
                w.outstanding_writes += n_groups;
                w.pc += 1;
                match kind {
                    AtomKind::Red => w.next_ready = cycle + 1,
                    AtomKind::Atom => self.park(sm_idx, slot, obs::SleepReason::Atom),
                }
                Attempt::Issued
            }
        }
    }

    fn issue_barrier(&mut self, sm_idx: usize, slot: usize) {
        let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
        w.pc += 1;
        let cta_key = w.cta_key;
        // The park hands the policy's token/turn on so atomic grants never
        // deadlock behind the barrier; the next holder may be a warp parked
        // as refused.
        self.park(sm_idx, slot, obs::SleepReason::Barrier);
        let barrier = self.sms[sm_idx]
            .barriers
            .get_mut(&cta_key)
            .expect("barrier state");
        barrier.waiting_slots.push(slot);
        self.try_release_barrier(sm_idx, cta_key);
    }

    /// Releases a CTA barrier once every *live* warp of the CTA waits at it
    /// (warps that exited without reaching the barrier no longer count, as
    /// with CUDA's exited-threads semantics).
    fn try_release_barrier(&mut self, sm_idx: usize, cta_key: u64) {
        let waiting = {
            let sm = &mut self.sms[sm_idx];
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
        let (model, _, mut ctx) = self.model_ctx();
        match model.on_barrier_release(sm_idx, &mut ctx) {
            BarrierRelease::Immediate => {
                for s in waiting {
                    let woke = self.wake(sm_idx, s, obs::WakeSite::Barrier);
                    debug_assert!(woke, "barrier waiter in slot {s} was not at the barrier");
                    // The barrier may have been the warp's last instruction.
                    self.try_retire(sm_idx, s);
                }
            }
            BarrierRelease::WaitFlush => {
                // The warps stay parked in their schedulers until the flush
                // wake (the epoch boundary), which keeps un-parking — and
                // therefore the token/turn grant order — deterministic.
                for s in waiting {
                    self.park(sm_idx, s, obs::SleepReason::Flush);
                }
            }
        }
    }

    fn issue_fence(&mut self, warp_id: WarpId) {
        let cycle = self.cycle;
        let sm_idx = warp_id.sched.sm;
        let slot = warp_id.slot;
        let (model, _, mut ctx) = self.model_ctx();
        let action = model.on_fence(warp_id, &mut ctx);
        let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
        w.pc += 1;
        match action {
            FenceAction::DrainWarp if w.outstanding_writes > 0 => {
                self.park(sm_idx, slot, obs::SleepReason::Drain);
            }
            FenceAction::DrainWarp => w.next_ready = cycle + 1,
            FenceAction::WaitFlush => self.park(sm_idx, slot, obs::SleepReason::Flush),
        }
    }

    /// Parks the warp in `slot` of SM `sm_idx` for `reason` ([`Sm::park`])
    /// and records the sleep. Every park site goes through here.
    ///
    /// [`Sm::park`]: crate::sm::Sm::park
    pub(crate) fn park(&mut self, sm_idx: usize, slot: usize, reason: obs::SleepReason) {
        self.sms[sm_idx].park(slot, parked_state(reason), self.cycle);
        if self.trace_full() {
            self.trace_event(obs::Event::Sleep {
                cycle: self.cycle,
                sm: sm_idx as u32,
                slot: slot as u32,
                reason,
            });
        }
    }

    /// Wakes the warp in `slot` of SM `sm_idx` if it is parked in the
    /// state `site` releases ([`Sm::wake`]), counting the wake-up and
    /// recording it; returns whether it woke. Every wake site goes through
    /// here, the site naming which one.
    ///
    /// [`Sm::wake`]: crate::sm::Sm::wake
    pub(crate) fn wake(&mut self, sm_idx: usize, slot: usize, site: obs::WakeSite) -> bool {
        if !self.sms[sm_idx].wake(slot, woken_state(site), self.cycle) {
            return false;
        }
        self.activity.wakeup_events += 1;
        if self.trace_full() {
            self.trace_event(obs::Event::Wake {
                cycle: self.cycle,
                sm: sm_idx as u32,
                slot: slot as u32,
                site,
            });
        }
        true
    }

    /// Retires the warp if it has finished its program and drained all
    /// outstanding transactions; also the entry point for the response,
    /// lock-grant and spawn paths.
    pub(crate) fn try_retire(&mut self, sm_idx: usize, slot: usize) {
        let cycle = self.cycle;
        let Some(w) = self.sms[sm_idx].warps[slot].as_ref() else {
            return;
        };
        // Only a finished warp that is not waiting on anything may retire;
        // a warp whose last instruction parked it (barrier, flush, lock)
        // retires after its wake.
        if !w.finished() || w.state != WarpState::Ready {
            return;
        }
        if w.outstanding_loads > 0 || w.outstanding_writes > 0 {
            self.park(sm_idx, slot, obs::SleepReason::Drain);
            return;
        }
        let (unique, sched) = {
            let w = self.sms[sm_idx].warps[slot]
                .as_ref()
                .expect("finished warp");
            (w.unique, w.sched)
        };
        // Warp-level DAB holds finished warps until their buffer flushes.
        if !self.model.can_retire(WarpId {
            sched: SchedId { sm: sm_idx, sched },
            slot,
            unique,
        }) {
            self.park(sm_idx, slot, obs::SleepReason::Flush);
            return;
        }
        self.progress();
        let gate_before = self.sms[sm_idx].schedulers[sched].completed_batches;
        let warp = self.sms[sm_idx].retire_warp(slot, cycle);
        debug_assert_eq!(warp.unique, unique);
        // The freed slot may fit a CTA a placement scan refused.
        self.dispatch_idle = false;
        if self.sms[sm_idx].schedulers[sched].completed_batches != gate_before {
            // The batch gate opened: warps this scheduler had parked with
            // no timer bound (gated atomics) may now be pickable, so the
            // incremental bound must be re-derived exactly.
            self.activity.scheduler_scans += 1;
            let (det_aware, srr_like) = self.gate_flags();
            self.sms[sm_idx].recompute_ready_bound(sched, det_aware, srr_like);
        }
        self.model.on_warp_exit(WarpId {
            sched: SchedId { sm: sm_idx, sched },
            slot,
            unique,
        });
        // A warp exiting without reaching its CTA's barrier may complete it.
        self.try_release_barrier(sm_idx, warp.cta_key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::exec::BaselineModel;
    use crate::imeta::warp_meta;
    use crate::isa::{AtomicAccess, MemAccess, WarpProgram};
    use crate::kernel::CtaSpec;
    use crate::mem::cache::{Probed, SectoredCache};
    use crate::ndet::NdetSource;

    /// The tiny machine's L1 has 16 sets of 128 B lines: lines 2 KiB apart
    /// share a set.
    const SET_STRIDE: u64 = 16 * 128;
    /// The load's three sectors: a hit, a sector miss on the same line and
    /// a line miss in the same set.
    const HIT: u64 = 0x10_000;
    const SECTOR_MISS: u64 = HIT + 32;
    const LINE_MISS: u64 = HIT + SET_STRIDE;
    /// A resident line of the same set that the load does not touch.
    const OTHER: u64 = HIT + 2 * SET_STRIDE;

    fn load(addrs: &[u64]) -> Instr {
        Instr::Load {
            accesses: vec![MemAccess {
                addrs: addrs.to_vec(),
            }],
        }
    }

    /// SM 0 of the tiny machine holding one warp whose load at pc 0 hits,
    /// sector-misses and line-misses, behind a full MSHR table; pc 1 loads
    /// `LINE_MISS` alone. Returns the simulator and the warp's slot.
    fn refused_load_sim(engine: EngineKind) -> (GpuSim, usize) {
        let mut cfg = GpuConfig::tiny();
        cfg.engine = engine;
        let program = WarpProgram::new(
            vec![load(&[HIT, SECTOR_MISS, LINE_MISS]), load(&[LINE_MISS])],
            3,
        );
        let meta = warp_meta(&program, &cfg);
        let cta = CtaSpec::new(0, vec![program]);
        let mut sim = GpuSim::new(cfg, Box::new(BaselineModel::new()), NdetSource::disabled());
        let sm = &mut sim.sms[0];
        sm.l1.fill(HIT);
        sm.l1.fill(OTHER);
        let slot = sm.add_cta(&cta, 0, 0, &[meta])[0];
        // Sectors the load does not touch, one per MSHR.
        for i in 0..sm.l1_mshr_capacity as u64 {
            sm.l1_mshrs.insert(0x100_0000 + 32 * i, Vec::new());
        }
        (sim, slot)
    }

    /// One issue walk, then the next cycle.
    fn step(sim: &mut GpuSim) {
        sim.issue(sim.cfg.engine == EngineKind::Event);
        sim.cycle += 1;
    }

    fn record(sim: &GpuSim, slot: usize) -> &crate::sm::RefusedLoad {
        &sim.sms[0].warps[slot].as_ref().expect("warp").refused_load
    }

    fn outcomes(probes: &[Probed]) -> Vec<Probe> {
        probes.iter().map(|p| p.outcome).collect()
    }

    /// The issue-path counters a load charges: its accesses and misses
    /// when admitted, one reservation failure at its first refusal.
    fn counts(sim: &GpuSim) -> (u64, u64, u64) {
        (
            sim.stats.l1_accesses,
            sim.stats.l1_misses,
            sim.stats.counter("det.stall.l1_mshr"),
        )
    }

    #[test]
    fn refused_load_replays_what_reprobing_does() {
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let (mut sim, slot) = refused_load_sim(engine);
            step(&mut sim);
            let r = record(&sim, slot);
            assert_eq!(r.pc, Some(0));
            assert_eq!(r.generation, sim.sms[0].l1.generation());
            assert_eq!(
                outcomes(&r.probes),
                [Probe::Hit, Probe::SectorMiss, Probe::LineMiss]
            );
            assert_eq!(counts(&sim), (0, 0, 1));
            // A probe of another line between the attempts reorders the
            // set's LRU; the replay must stamp the load's line after it.
            sim.sms[0].l1.probe(OTHER);
            let mut reprobed: SectoredCache = sim.sms[0].l1.clone();
            step(&mut sim);
            for s in [HIT, SECTOR_MISS, LINE_MISS] {
                reprobed.probe(s);
            }
            let replayed = &mut sim.sms[0].l1;
            assert_eq!(
                format!("{replayed:?}"),
                format!("{reprobed:?}"),
                "{engine:?}"
            );
            // Both pick the same victims from here on.
            for i in 3..70 {
                let a = HIT + i * SET_STRIDE;
                assert_eq!(replayed.fill(a), reprobed.fill(a));
            }
            assert_eq!(format!("{replayed:?}"), format!("{reprobed:?}"));
            // The retry is the same refused load: nothing more is counted.
            assert_eq!(counts(&sim), (0, 0, 1));
            assert_eq!(sim.sms[0].warps[slot].as_ref().expect("warp").pc, 0);
        }
    }

    #[test]
    fn residency_change_or_new_pc_forces_a_full_probe() {
        // A load response fills the sector that missed.
        let (mut sim, slot) = refused_load_sim(EngineKind::Dense);
        step(&mut sim);
        sim.sms[0].l1.fill(SECTOR_MISS);
        step(&mut sim);
        let r = record(&sim, slot);
        assert_eq!(r.generation, sim.sms[0].l1.generation());
        assert_eq!(
            outcomes(&r.probes),
            [Probe::Hit, Probe::Hit, Probe::LineMiss]
        );
        assert_eq!(counts(&sim), (0, 0, 1));

        // A store write-evicts the sector that hit, its line's only valid
        // one, so the line leaves.
        let (mut sim, slot) = refused_load_sim(EngineKind::Dense);
        step(&mut sim);
        sim.sms[0].l1.evict_sector(HIT);
        step(&mut sim);
        let r = record(&sim, slot);
        assert_eq!(r.generation, sim.sms[0].l1.generation());
        assert_eq!(outcomes(&r.probes), [Probe::LineMiss; 3]);
        assert_eq!(counts(&sim), (0, 0, 1));

        // The record is keyed by pc: at pc 1, with the L1 unchanged, the
        // warp probes its new load's one sector.
        let (mut sim, slot) = refused_load_sim(EngineKind::Dense);
        step(&mut sim);
        let generation = sim.sms[0].l1.generation();
        sim.sms[0].warps[slot].as_mut().expect("warp").pc = 1;
        step(&mut sim);
        let r = record(&sim, slot);
        assert_eq!((r.pc, r.generation), (Some(1), generation));
        assert_eq!(outcomes(&r.probes), [Probe::LineMiss]);
        // A new load: its own first refusal.
        assert_eq!(counts(&sim), (0, 0, 2));
    }

    #[test]
    #[should_panic(expected = "stale refused-load record: SM 0 slot 0 pc 0 at cycle 1: \
                               sector 0x10000 was recorded as")]
    fn dense_engine_names_a_stale_probe() {
        let (mut sim, slot) = refused_load_sim(EngineKind::Dense);
        step(&mut sim);
        let w = sim.sms[0].warps[slot].as_mut().expect("warp");
        w.refused_load.probes[0].outcome = Probe::SectorMiss;
        step(&mut sim);
    }

    #[test]
    #[should_panic(expected = "stale refused-load record: SM 0 slot 0 pc 0 at cycle 1: \
                               the MSHR table has room for its 2 new sectors")]
    fn dense_engine_names_an_mshr_table_with_room() {
        let (mut sim, _) = refused_load_sim(EngineKind::Dense);
        step(&mut sim);
        // Keys leaving without a fill: what the exactness argument rules out.
        sim.sms[0].l1_mshrs.clear();
        step(&mut sim);
    }

    /// A fresh line the tiny machine's L1 never holds.
    const ABSENT: u64 = 0x40_000;

    /// The tiny machine on `engine`.
    fn tiny(engine: EngineKind) -> GpuConfig {
        let mut cfg = GpuConfig::tiny();
        cfg.engine = engine;
        cfg
    }

    /// SM 0 of the tiny machine behind a full MSHR table, holding one warp
    /// per program on scheduler 0 (slots 0, 4, 8, … in program order) and
    /// running under `model`. Returns the simulator and the slots.
    fn sleep_sim(
        engine: EngineKind,
        model: Box<dyn crate::exec::ExecutionModel>,
        programs: Vec<Vec<Instr>>,
    ) -> (GpuSim, Vec<usize>) {
        let (mut sim, slots) = sched0_sim(tiny(engine), model, programs);
        let sm = &mut sim.sms[0];
        for i in 0..sm.l1_mshr_capacity as u64 {
            sm.l1_mshrs.insert(0x100_0000 + 32 * i, Vec::new());
        }
        (sim, slots)
    }

    /// SM 0 of the machine `cfg` holding one warp per program on scheduler
    /// 0 (slots 0, 4, 8, … and unique ids 0, 4, 8, … in program order) and
    /// running under `model`. Returns the simulator and the slots.
    fn sched0_sim(
        cfg: GpuConfig,
        model: Box<dyn crate::exec::ExecutionModel>,
        programs: Vec<Vec<Instr>>,
    ) -> (GpuSim, Vec<usize>) {
        let mut sim = GpuSim::new(cfg, model, NdetSource::disabled());
        let ns = sim.cfg.num_schedulers_per_sm;
        let warps: Vec<WarpProgram> = programs
            .into_iter()
            .flat_map(|p| {
                // One warp per scheduler, so each program lands on
                // scheduler 0 and the others get an empty program.
                let mut group = vec![WarpProgram::new(p, 32)];
                group.extend((1..ns).map(|_| WarpProgram::empty(32)));
                group
            })
            .collect();
        let metas: Vec<_> = warps.iter().map(|p| warp_meta(p, &sim.cfg)).collect();
        let cta = CtaSpec::new(0, warps);
        let slots = sim.sms[0].add_cta(&cta, 0, 0, &metas);
        for &slot in slots.iter().filter(|&&s| s % ns != 0) {
            sim.try_retire(0, slot);
        }
        let mine = slots.into_iter().filter(|s| s % ns == 0).collect();
        (sim, mine)
    }

    fn pc(sim: &GpuSim, slot: usize) -> usize {
        sim.sms[0].warps[slot].as_ref().map_or(usize::MAX, |w| w.pc)
    }

    fn alu() -> Instr {
        Instr::Alu {
            cycles: 1,
            count: 1,
        }
    }

    /// Runs the issue walk for `cycles` cycles, freeing one MSHR with a
    /// load response at cycle `free_at`; returns the cycle each watched
    /// slot first left pc `0`, and the SM visits made.
    fn run_sleep(sim: &mut GpuSim, watch: &[usize], cycles: u64, free_at: u64) -> (Vec<u64>, u64) {
        let mut left = vec![u64::MAX; watch.len()];
        while sim.cycle < cycles {
            if sim.cycle == free_at {
                sim.handle_load_resp(0x100_0000, WarpRef { sm: 0, slot: 0 });
            }
            let cycle = sim.cycle;
            step(sim);
            for (i, &slot) in watch.iter().enumerate() {
                if left[i] == u64::MAX && pc(sim, slot) != 0 {
                    left[i] = cycle;
                }
            }
        }
        (left, sim.activity.sms_ticked)
    }

    #[test]
    fn refused_warp_sleeps_past_a_passed_over_ready_warp() {
        // The load warp is oldest, so GTO picks it over the ready ALU warp
        // every cycle and the MSHR table refuses it; its probe stamps no
        // line. The event engine skips the scheduler until the response at
        // cycle 20 frees an MSHR; then the load issues, as on dense.
        let programs = || vec![vec![load(&[ABSENT])], vec![alu()]];
        let mut runs = Vec::new();
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let (mut sim, slots) = sleep_sim(engine, Box::new(BaselineModel::new()), programs());
            runs.push(run_sleep(&mut sim, &slots, 30, 20));
        }
        let (dense, event) = (&runs[0], &runs[1]);
        assert_eq!(
            dense.0,
            vec![20, 21],
            "the load issues at the response, then the ALU"
        );
        assert_eq!(event.0, dense.0);
        // Dense visits every SM every cycle; the event engine visits SM 0
        // at cycle 0, at the wake (20) and for the ALU warp (21).
        assert_eq!(dense.1, 30 * GpuConfig::tiny().num_sms() as u64);
        assert_eq!(event.1, 3);
    }

    /// The baseline GPU under another policy.
    #[derive(Debug)]
    struct PolicyModel(SchedKind);

    impl crate::exec::ExecutionModel for PolicyModel {
        fn name(&self) -> String {
            self.0.label().to_lowercase()
        }

        fn scheduler_kind(&self) -> SchedKind {
            self.0
        }
    }

    #[test]
    fn gtar_holder_issues_when_its_interval_ends_during_a_sleep() {
        // Warp 0 issues its atomic at cycle 0, closing atomics until cycle
        // 4 and passing the token to warp 1. From cycle 1 GTAR passes over
        // warp 1's ready atomic and picks the load warp, which the MSHR
        // table refuses: the scheduler sleeps until the interval ends,
        // where warp 1's atomic issues, as on dense.
        let red = || Instr::Red {
            op: AtomicOp::AddU32,
            accesses: vec![AtomicAccess::new(0, 0x80, crate::isa::Value::U32(1))],
        };
        let programs = || vec![vec![red()], vec![red()], vec![load(&[ABSENT])]];
        let mut runs = Vec::new();
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let (mut sim, slots) =
                sleep_sim(engine, Box::new(PolicyModel(SchedKind::Gtar)), programs());
            runs.push(run_sleep(&mut sim, &slots, 12, u64::MAX));
        }
        let (dense, event) = (&runs[0], &runs[1]);
        let latency = GpuConfig::tiny().alu_latency as u64;
        assert_eq!(dense.0, vec![0, latency, u64::MAX]);
        assert_eq!(event.0, dense.0);
        assert!(event.1 < dense.1, "{} visits vs {}", event.1, dense.1);
    }

    #[test]
    #[should_panic(expected = "skip rule broken: SM 0 scheduler 0 has a ready warp at cycle 5")]
    fn dense_engine_names_a_sleep_no_wake_ends() {
        // The policy's state moves with no wake: GTO now favours the ALU
        // warp, so the sleeping scheduler's next pick differs. Dense sees it.
        let programs = vec![vec![load(&[ABSENT])], vec![alu()]];
        let (mut sim, slots) =
            sleep_sim(EngineKind::Dense, Box::new(BaselineModel::new()), programs);
        run_sleep(&mut sim, &slots, 5, u64::MAX);
        let alu_warp = sim.sms[0].warps[slots[1]].as_ref().expect("warp").unique;
        sim.sms[0].schedulers[0].policy.on_issue(alu_warp, false, 4);
        step(&mut sim);
    }

    /// Fills cluster 0's injection queue with load requests the issue walk
    /// never drains (the tests step the walk alone): every request from
    /// SM 0 is refused by the interconnect.
    fn jam_cluster_0(sim: &mut GpuSim) {
        while sim.icnt.request_injection_budget(0) > 0 {
            let pkt = Packet::new(
                0,
                Payload::LoadReq {
                    sector_addr: 0,
                    warp: WarpRef { sm: 1, slot: 0 },
                },
                sim.cfg.icnt_flit_size,
            );
            sim.icnt.inject_request(0, pkt);
        }
    }

    /// SM 0 of the tiny machine running `model`, with one program on each
    /// of its first schedulers (the others' warps retire at once), and the
    /// walk's cycle at 0. Returns the simulator and the programs' slots.
    fn split_sim(
        engine: EngineKind,
        model: Box<dyn crate::exec::ExecutionModel>,
        programs: Vec<Vec<Instr>>,
    ) -> (GpuSim, Vec<usize>) {
        let mut sim = GpuSim::new(tiny(engine), model, NdetSource::disabled());
        let (n, ns) = (programs.len(), sim.cfg.num_schedulers_per_sm);
        let mut warps: Vec<WarpProgram> = programs
            .into_iter()
            .map(|p| WarpProgram::new(p, 32))
            .collect();
        warps.extend((n..ns).map(|_| WarpProgram::empty(32)));
        let metas: Vec<_> = warps.iter().map(|p| warp_meta(p, &sim.cfg)).collect();
        let slots = sim.sms[0].add_cta(&CtaSpec::new(0, warps), 0, 0, &metas);
        for &slot in &slots[n..] {
            sim.try_retire(0, slot);
        }
        (sim, slots[..n].to_vec())
    }

    /// [`split_sim`] with cluster 0's injection queue jammed.
    fn jammed_sim(
        engine: EngineKind,
        model: Box<dyn crate::exec::ExecutionModel>,
        programs: Vec<Vec<Instr>>,
    ) -> (GpuSim, Vec<usize>) {
        let (mut sim, slots) = split_sim(engine, model, programs);
        jam_cluster_0(&mut sim);
        (sim, slots)
    }

    #[test]
    fn l1_sleep_outlasts_a_store_write_evict() {
        // Scheduler 0's load of an absent line finds the MSHR table full
        // and sleeps. Scheduler 1's store write-evicts a resident line
        // after its ALU op, which moves the L1's generation but re-checks
        // nothing: the load's line stays absent, so the event engine
        // sleeps on, and the dense engine, re-probing in full, finds the
        // same refusal. Freeing an MSHR at cycle 8 issues the load on both.
        let mut runs = Vec::new();
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let store = Instr::Store {
                accesses: vec![MemAccess { addrs: vec![HIT] }],
            };
            let programs = vec![vec![load(&[ABSENT])], vec![alu(), store]];
            let (mut sim, slots) = split_sim(engine, Box::new(BaselineModel::new()), programs);
            let sm = &mut sim.sms[0];
            sm.l1.fill(HIT);
            for i in 0..sm.l1_mshr_capacity as u64 {
                sm.l1_mshrs.insert(0x100_0000 + 32 * i, Vec::new());
            }
            let generation = sim.sms[0].l1.generation();
            let (issued, _) = run_sleep(&mut sim, &slots[..1], 8, u64::MAX);
            assert_eq!(issued, vec![u64::MAX], "{engine:?}");
            assert_ne!(sim.sms[0].l1.generation(), generation, "{engine:?}");
            assert_ne!(sim.sms[0].l1.peek_line(HIT).outcome, Probe::Hit);
            if engine == EngineKind::Event {
                let sleeper = sim.sms[0].schedulers[0].sleeper;
                assert_eq!(sleeper, Some(Sleeper::L1 { slot: slots[0] }));
            }
            runs.push(run_sleep(&mut sim, &slots[..1], 12, 8));
        }
        assert_eq!(runs[0].0, vec![8]);
        assert_eq!(runs[1].0, runs[0].0);
        // Dense visits every SM every cycle; the event engine visits SM 0
        // at cycle 0, for the store (4) and at the wake (8).
        assert_eq!(runs[0].1, 12 * GpuConfig::tiny().num_sms() as u64);
        assert_eq!(runs[1].1, 3);
    }

    /// Disabled arbitration streams, to drain the interconnect by hand.
    fn drain_streams(sim: &GpuSim) -> (Vec<NdetSource>, Vec<NdetSource>) {
        (
            vec![NdetSource::disabled(); sim.cfg.num_mem_partitions],
            vec![NdetSource::disabled(); sim.cfg.num_clusters],
        )
    }

    fn red(addr: u64) -> Instr {
        Instr::Red {
            op: AtomicOp::AddU32,
            accesses: vec![AtomicAccess::new(0, addr, crate::isa::Value::U32(1))],
        }
    }

    #[test]
    fn icnt_refused_red_sleeps_and_counts_once() {
        // The `red` is refused at every attempt. The event engine visits
        // SM 0 once and sleeps on the cluster's budget; dense visits every
        // cycle and checks the refusal. Both count one stall.
        let mut runs = Vec::new();
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let (mut sim, slots) = sleep_sim(
                engine,
                Box::new(BaselineModel::new()),
                vec![vec![red(0x80)]],
            );
            jam_cluster_0(&mut sim);
            let run = run_sleep(&mut sim, &slots, 20, u64::MAX);
            assert_eq!(sim.stats.icnt_stall_cycles, 1, "{engine:?}");
            assert!(sim.icnt_sleeps, "{engine:?}");
            runs.push(run);
        }
        assert_eq!(runs[0].0, vec![u64::MAX]);
        assert_eq!(runs[1].0, runs[0].0);
        assert_eq!(runs[0].1, 20 * GpuConfig::tiny().num_sms() as u64);
        assert_eq!(runs[1].1, 1);
    }

    #[test]
    #[should_panic(expected = "skip rule broken: SM 0 scheduler 0 has a ready warp at cycle 1")]
    fn dense_engine_names_an_icnt_sleep_on_other_flits() {
        // The record of the sleep no longer matches the refusal: the dense
        // visit is refused for other flits than the scheduler sleeps on.
        let (mut sim, slots) = sleep_sim(
            EngineKind::Dense,
            Box::new(BaselineModel::new()),
            vec![vec![red(0x80)]],
        );
        jam_cluster_0(&mut sim);
        step(&mut sim);
        let sctx = &mut sim.sms[0].schedulers[0];
        assert_eq!(
            sctx.sleeper,
            Some(Sleeper::Icnt {
                slot: slots[0],
                need: 1
            })
        );
        sctx.sleeper = Some(Sleeper::Icnt {
            slot: slots[0],
            need: 2,
        });
        step(&mut sim);
    }

    #[test]
    fn icnt_refused_load_retries_past_a_new_mshr_key() {
        // Scheduler 0's load of two absent lines needs 2 flits and finds 1:
        // it is refused and retries every cycle, never sleeping. Scheduler
        // 1's load of one of those sectors fits and takes its MSHR, so the
        // first load now needs 1 flit. Once the interconnect drains a flit
        // it issues, on both engines at once.
        let far = ABSENT + 4 * SET_STRIDE;
        let mut issued_at = Vec::new();
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let programs = vec![vec![load(&[ABSENT, far])], vec![alu(), load(&[ABSENT])]];
            let (mut sim, slots) = jammed_sim(engine, Box::new(BaselineModel::new()), programs);
            let mut drain = drain_streams(&sim);
            // One flit of room: the first load's two do not fit.
            sim.icnt.tick(0, &mut drain.0, &mut drain.1);
            let mut issued = None;
            while sim.cycle < 12 {
                if sim.cycle == 8 {
                    sim.icnt.tick(8, &mut drain.0, &mut drain.1);
                }
                let cycle = sim.cycle;
                step(&mut sim);
                if issued.is_none() && pc(&sim, slots[0]) != 0 {
                    issued = Some(cycle);
                }
                assert_eq!(sim.sms[0].schedulers[0].sleeper, None, "{engine:?}");
            }
            issued_at.push(issued);
        }
        assert_eq!(issued_at, vec![Some(8), Some(8)]);
    }

    #[test]
    fn icnt_refused_load_retries_into_a_fill() {
        // The load of an absent line is refused by the jammed interconnect
        // and retries every cycle, never sleeping; a response fills its
        // sector at cycle 5, so its next attempt hits and issues with no
        // flit to send, on both engines at once.
        let mut issued_at = Vec::new();
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let programs = vec![vec![load(&[ABSENT])]];
            let (mut sim, slots) = jammed_sim(engine, Box::new(BaselineModel::new()), programs);
            let mut issued = None;
            while sim.cycle < 10 {
                if sim.cycle == 5 {
                    sim.handle_load_resp(ABSENT, WarpRef { sm: 0, slot: 0 });
                }
                let cycle = sim.cycle;
                step(&mut sim);
                if issued.is_none() && pc(&sim, slots[0]) != 0 {
                    issued = Some(cycle);
                }
                assert_eq!(sim.sms[0].schedulers[0].sleeper, None, "{engine:?}");
            }
            issued_at.push((issued, sim.stats.icnt_stall_cycles));
        }
        assert_eq!(issued_at, vec![(Some(5), 1), (Some(5), 1)]);
    }

    #[test]
    fn icnt_refused_load_that_stamps_retries_every_cycle() {
        // Like every interconnect-refused load, it retries every cycle, and
        // one of its probes finds its line resident (a sector miss) and
        // stamps it at every attempt: both engines stamp the line on every
        // cycle and end with the same cache.
        let mut caches = Vec::new();
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let programs = vec![vec![load(&[SECTOR_MISS, ABSENT])]];
            let (mut sim, _) = jammed_sim(engine, Box::new(BaselineModel::new()), programs);
            sim.sms[0].l1.fill(HIT);
            while sim.cycle < 6 {
                step(&mut sim);
                assert_eq!(sim.sms[0].schedulers[0].sleeper, None, "{engine:?}");
            }
            assert_eq!(
                sim.activity.sms_ticked,
                6 * (1 + u64::from(engine == EngineKind::Dense))
            );
            caches.push(format!("{:?}", sim.sms[0].l1));
        }
        assert_eq!(caches[0], caches[1]);
    }

    /// DAB's `atom` route in miniature: an `atom` goes to memory only
    /// while no `red` is buffered, and stalls for a flush behind one.
    #[derive(Debug, Default)]
    struct AtomBehindRed {
        buffered: bool,
    }

    impl crate::exec::ExecutionModel for AtomBehindRed {
        fn name(&self) -> String {
            "atom-behind-red".to_string()
        }

        fn on_atomic(
            &mut self,
            issue: AtomicIssue<'_>,
            _ctx: &mut crate::exec::ModelCtx<'_>,
        ) -> AtomicRoute {
            match issue.kind {
                AtomKind::Red => {
                    self.buffered = true;
                    AtomicRoute::Buffered { cycles: 1 }
                }
                AtomKind::Atom if self.buffered => AtomicRoute::StallFlush,
                AtomKind::Atom => AtomicRoute::ToMemory,
            }
        }
    }

    #[test]
    fn icnt_refused_atom_sees_a_red_buffered_meanwhile() {
        // Scheduler 0's `atom` is refused by the interconnect from cycle 0.
        // Scheduler 1's warp buffers a `red` after its ALU burst, so the
        // `atom`'s next attempt stalls for a flush instead: it must not
        // sleep through that on the event engine, and the dense engine
        // must not find a broken sleep.
        let atom = Instr::Atom {
            op: AtomicOp::AddU32,
            accesses: vec![AtomicAccess::new(0, 0x80, crate::isa::Value::U32(1))],
        };
        let alu_burst = Instr::Alu {
            cycles: 1,
            count: 3,
        };
        let mut parked_at = Vec::new();
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let programs = vec![vec![atom.clone()], vec![alu_burst.clone(), red(0x100)]];
            let (mut sim, slots) = jammed_sim(engine, Box::new(AtomBehindRed::default()), programs);
            let atom_slot = slots[0];
            let mut parked = None;
            while sim.cycle < 10 {
                let cycle = sim.cycle;
                step(&mut sim);
                let state = sim.sms[0].warps[atom_slot].as_ref().expect("warp").state;
                if parked.is_none() && state == WarpState::WaitFlush {
                    parked = Some(cycle);
                }
            }
            assert_eq!(sim.stats.icnt_stall_cycles, 1, "{engine:?}");
            parked_at.push(parked);
        }
        // The burst issues at cycles 0-2 and the `red` at 3.
        assert_eq!(parked_at, vec![Some(4), Some(4)]);
    }

    #[test]
    fn event_engine_trusts_its_record() {
        // Without the dense check a stale record is replayed as it stands:
        // the retry stamps the recorded lines, not a fresh probe's.
        let (mut sim, slot) = refused_load_sim(EngineKind::Event);
        step(&mut sim);
        let record = &mut sim.sms[0].warps[slot].as_mut().expect("warp").refused_load;
        let stamped = record.probes[0];
        record.probes = vec![stamped; 5];
        let mut replayed: SectoredCache = sim.sms[0].l1.clone();
        replayed.replay(&[stamped; 5]);
        step(&mut sim);
        assert_eq!(format!("{:?}", sim.sms[0].l1), format!("{replayed:?}"));
        assert_eq!(counts(&sim), (0, 0, 1));
    }

    fn burst(count: u32) -> Instr {
        Instr::Alu { cycles: 1, count }
    }

    fn burst_sleeper(sim: &GpuSim) -> Option<Sleeper> {
        sim.sms[0].schedulers[0]
            .sleeper
            .filter(|s| matches!(s, Sleeper::Burst { .. }))
    }

    /// Steps the walk to cycle `cycles`, calling `before` ahead of each
    /// cycle's walk; returns the cycle each watched slot first left pc `0`.
    fn run_burst(
        sim: &mut GpuSim,
        watch: &[usize],
        cycles: u64,
        mut before: impl FnMut(&mut GpuSim),
    ) -> Vec<u64> {
        let mut left = vec![u64::MAX; watch.len()];
        while sim.cycle < cycles {
            before(sim);
            let cycle = sim.cycle;
            step(sim);
            for (i, &slot) in watch.iter().enumerate() {
                if left[i] == u64::MAX && pc(sim, slot) != 0 {
                    left[i] = cycle;
                }
            }
        }
        left
    }

    /// The issue counters of the run so far.
    fn issued(sim: &GpuSim) -> (u64, u64) {
        (sim.stats.warp_instrs, sim.stats.thread_instrs)
    }

    #[test]
    fn lone_burst_is_visited_at_its_first_and_last_issue() {
        // An 8-issue burst issues at cycles 0-7 on both engines. The event
        // engine visits SM 0 at the first issue, sleeps, and is visited
        // again for the last, crediting the six issues in between.
        let mut runs = Vec::new();
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let model = Box::new(BaselineModel::new());
            let (mut sim, slots) = split_sim(engine, model, vec![vec![burst(8)]]);
            step(&mut sim);
            assert_eq!(
                burst_sleeper(&sim),
                Some(Sleeper::Burst {
                    slot: slots[0],
                    from: 0,
                    until: 7
                }),
                "{engine:?}"
            );
            let left = run_burst(&mut sim, &slots, 12, |_| {});
            runs.push((left, issued(&sim), sim.activity.sms_ticked));
        }
        assert_eq!(runs[0].0, vec![7], "the burst's last issue");
        assert_eq!(runs[1].0, runs[0].0);
        assert_eq!(runs[0].1, (8, 8 * 32));
        assert_eq!(runs[1].1, runs[0].1);
        assert_eq!(runs[0].2, 12 * GpuConfig::tiny().num_sms() as u64);
        assert_eq!(runs[1].2, 2);
    }

    #[test]
    fn sibling_response_mid_burst_wakes_and_credits_the_burst() {
        // The load warp issues at cycle 0 and the burst from cycle 1 on;
        // the event engine sleeps on the burst. The response at cycle 5
        // wakes the load warp for cycle 6, and with it the scheduler: the
        // visit credits the burst's issues at cycles 2-5, then GTO picks
        // the burst again. Counters, `next_ready` and `alu_rem` after that
        // visit equal dense's, which issued at every cycle.
        let mut after_wake = Vec::new();
        let mut runs = Vec::new();
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let programs = vec![vec![load(&[ABSENT]), alu()], vec![burst(16)]];
            let model = Box::new(BaselineModel::new());
            let (mut sim, slots) = sched0_sim(tiny(engine), model, programs);
            let load_slot = slots[0];
            run_burst(&mut sim, &slots, 5, |_| {});
            if engine == EngineKind::Event {
                assert_eq!(issued(&sim), (2, 2 * 32), "credited at the next visit");
            }
            sim.handle_load_resp(
                ABSENT,
                WarpRef {
                    sm: 0,
                    slot: load_slot,
                },
            );
            step(&mut sim);
            step(&mut sim);
            let w = sim.sms[0].warps[slots[1]].as_ref().expect("burst warp");
            after_wake.push((issued(&sim), w.next_ready, w.alu_rem));
            let left = run_burst(&mut sim, &slots[1..], 20, |_| {});
            runs.push((left, pc(&sim, load_slot), issued(&sim)));
        }
        assert_eq!(after_wake[0], ((7, 7 * 32), 7, 10));
        assert_eq!(after_wake[1], after_wake[0]);
        // The burst's last issue at 16, then the load warp's ALU at 17.
        assert_eq!(runs[0], (vec![16], usize::MAX, (18, 18 * 32)));
        assert_eq!(runs[1], runs[0]);
    }

    #[test]
    fn gwat_holder_red_falling_due_mid_burst_issues_on_time() {
        // Under GWAT the token holder issues an ALU op with a 5-cycle tail
        // at cycle 0; its `red` falls due at 5. The other warp's burst
        // issues from cycle 1 and its scheduler sleeps on it, with the
        // holder's bound in the fold: the `red` preempts the burst at
        // cycle 5 on both engines, and the burst ends a cycle later. The
        // burst warp, passed over at 5, holds the credited issues of
        // cycles 2-4 then: its `alu_rem` and `next_ready` equal dense's.
        let red_warp = vec![
            Instr::Alu {
                cycles: 5,
                count: 1,
            },
            red(0x80),
        ];
        let mut runs = Vec::new();
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let model = Box::new(PolicyModel(SchedKind::Gwat));
            let programs = vec![red_warp.clone(), vec![burst(16)]];
            let (mut sim, slots) = sched0_sim(tiny(engine), model, programs);
            let (mut red_at, mut passed_over) = (None, None);
            let left = run_burst(&mut sim, &slots[1..], 20, |sim| {
                if red_at.is_none() && pc(sim, slots[0]) == 2 {
                    red_at = Some(sim.cycle - 1);
                    let w = sim.sms[0].warps[slots[1]].as_ref().expect("burst warp");
                    passed_over = Some((w.alu_rem, w.next_ready));
                }
            });
            runs.push((red_at, passed_over, left, issued(&sim)));
        }
        // The one-lane `red` counts one thread instruction.
        assert_eq!(
            runs[0],
            (Some(5), Some((12, 5)), vec![17], (18, 17 * 32 + 1))
        );
        assert_eq!(runs[1], runs[0]);
    }

    #[test]
    fn sibling_retiring_mid_burst_keeps_the_owed_issues() {
        // The load warp's response at cycle 5 retires it: the exit wakes
        // the scheduler sleeping on the burst but keeps the sleeper, so the
        // visit at cycle 5 still credits the issues at cycles 2-4.
        let mut runs = Vec::new();
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let programs = vec![vec![load(&[ABSENT])], vec![burst(16)]];
            let model = Box::new(BaselineModel::new());
            let (mut sim, slots) = sched0_sim(tiny(engine), model, programs);
            let left = run_burst(&mut sim, &slots[1..], 20, |sim| {
                if sim.cycle == 5 {
                    sim.handle_load_resp(ABSENT, WarpRef { sm: 0, slot: 0 });
                    assert_eq!(pc(sim, slots[0]), usize::MAX, "retired");
                    if sim.cfg.engine == EngineKind::Event {
                        assert!(burst_sleeper(sim).is_some(), "the sleeper stays");
                    }
                }
            });
            runs.push((left, issued(&sim)));
        }
        assert_eq!(runs[0], (vec![16], (17, 17 * 32)));
        assert_eq!(runs[1], runs[0]);
    }

    /// Picks the ready warps in turn, but answers `greedy_warp` as GTO
    /// would: the answer is wrong whenever two warps are ready.
    #[derive(Debug, Default)]
    struct FalselyGreedy {
        last: Option<u64>,
    }

    impl crate::sched::WarpScheduler for FalselyGreedy {
        fn kind(&self) -> SchedKind {
            SchedKind::Gto
        }

        fn pick(&mut self, views: &[WarpView], _cycle: u64) -> Option<usize> {
            let mut ready = views.iter().filter(|v| v.ready);
            let next = ready.clone().find(|v| Some(v.unique) > self.last);
            next.or_else(|| ready.next()).map(|v| v.slot)
        }

        fn greedy_warp(&self) -> Option<u64> {
            self.last
        }

        fn on_issue(&mut self, unique: u64, _was_atomic: bool, _cycle: u64) {
            self.last = Some(unique);
        }
    }

    #[test]
    #[should_panic(
        expected = "skip rule broken: SM 0 scheduler 0 sleeps on the ALU burst of \
                               slot 0 at cycle 1, but the visit does not issue"
    )]
    fn dense_engine_names_a_wrong_greedy_answer() {
        let programs = vec![vec![burst(4)], vec![burst(4)]];
        let model = Box::new(BaselineModel::new());
        let (mut sim, _) = sched0_sim(tiny(EngineKind::Dense), model, programs);
        sim.sms[0].schedulers[0].policy = Box::new(FalselyGreedy::default());
        step(&mut sim);
        step(&mut sim);
    }

    /// A model whose state follows every issue, as GPUDet's quantum does.
    #[derive(Debug)]
    struct CountsIssues;

    impl crate::exec::ExecutionModel for CountsIssues {
        fn name(&self) -> String {
            "counts-issues".to_string()
        }

        fn counts_issues(&self) -> bool {
            true
        }
    }

    #[test]
    fn full_trace_and_issue_counting_models_take_no_burst_sleep() {
        // The event engine visits the burst at every issue: under full
        // tracing, which records each issue, and under a model that
        // counts them. The baseline without a trace sleeps.
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let mut traced = tiny(engine);
            traced.trace = obs::TraceMode::Full;
            let cases: [(GpuConfig, Box<dyn crate::exec::ExecutionModel>, bool); 3] = [
                (traced, Box::new(BaselineModel::new()), false),
                (tiny(engine), Box::new(CountsIssues), false),
                (tiny(engine), Box::new(BaselineModel::new()), true),
            ];
            for (cfg, model, sleeps) in cases {
                let name = model.name();
                let (mut sim, slots) = sched0_sim(cfg, model, vec![vec![burst(8)]]);
                assert_eq!(sim.burst_sleeps, sleeps, "{engine:?} {name}");
                step(&mut sim);
                assert_eq!(burst_sleeper(&sim).is_some(), sleeps, "{engine:?} {name}");
                let left = run_burst(&mut sim, &slots, 10, |_| {});
                assert_eq!(left, vec![7], "{engine:?} {name}");
                assert_eq!(issued(&sim), (8, 8 * 32), "{engine:?} {name}");
                if engine == EngineKind::Event {
                    let visits = if sleeps { 2 } else { 8 };
                    assert_eq!(sim.activity.sms_ticked, visits, "{name}");
                }
            }
        }
    }
}
