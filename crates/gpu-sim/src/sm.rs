//! Streaming multiprocessor state: warp contexts, CTA occupancy, barriers,
//! and the deterministic batch accounting of Section IV-C5.
//!
//! The SM is a passive data structure; the [`engine`](crate::engine) drives
//! issue and memory traffic. What lives here is the state the paper's
//! determinism argument rests on:
//!
//! - every warp carries a deterministic `unique` id (derived from its CTA
//!   and intra-CTA index, never from timing), which all determinism-aware
//!   schedulers order by;
//! - warps arriving at a scheduler are grouped into *batches* (hardware-slot
//!   generations); atomics from batch *b+1* may not issue until every warp
//!   of batch *b* has exited, so buffer fill order stays deterministic even
//!   though slot reuse timing is not.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::config::GpuConfig;
use crate::imeta::{InstrMeta, WarpMeta};
use crate::isa::{Instr, WarpProgram};
use crate::kernel::CtaSpec;
use crate::mem::cache::{Probed, SectoredCache};
use crate::sched::{make_scheduler, AtomicGrant, SchedKind, WarpScheduler, WarpView};

/// Execution state of a warp context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// May issue once `next_ready` is reached.
    Ready,
    /// Blocked until all outstanding load sectors return.
    WaitMem,
    /// Arrived at a CTA barrier, waiting for siblings.
    WaitBarrier,
    /// Waiting for the execution model's flush wake: a full DAB buffer, a
    /// flush fence, a barrier released at the epoch boundary, or a retirement
    /// the model deferred. (Model issue refusals do not use this state; see
    /// `ExecutionModel::can_issue`.)
    WaitFlush,
    /// Waiting for the deterministic lock manager.
    WaitLock,
    /// Blocked on a returning `atom` acknowledgement.
    WaitAtom,
    /// Draining outstanding writes (fence, or exit with writes in flight).
    WaitDrain,
}

/// A resident warp.
#[derive(Debug)]
pub struct WarpCtx {
    /// Deterministic kernel-wide warp id (`cta_id * warps_per_cta + idx`).
    pub unique: u64,
    /// Runtime CTA instance key within this SM (for barrier bookkeeping).
    pub cta_key: u64,
    /// Owning scheduler index.
    pub sched: usize,
    /// Per-scheduler batch (hardware-slot generation) of this warp.
    pub batch: u64,
    /// Per-scheduler arrival sequence (the GTO age).
    pub arrival: u64,
    /// The warp's instruction stream.
    pub program: Arc<WarpProgram>,
    /// Precomputed seed-invariant per-instruction metadata (sector lists,
    /// atomic coalescing groups), parallel to `program.instrs`. Shared
    /// read-only by every warp running the same program.
    pub meta: Arc<WarpMeta>,
    /// Next instruction index.
    pub pc: usize,
    /// Remaining issues of the current run-length-encoded ALU burst.
    pub alu_rem: u32,
    /// Execution state.
    pub state: WarpState,
    /// Earliest cycle the warp may issue again.
    pub next_ready: u64,
    /// Outstanding load sectors (blocks the warp).
    pub outstanding_loads: u32,
    /// Outstanding store/atomic acks (drained by fences, not blocking).
    pub outstanding_writes: u32,
    /// Occurrence counters per lock address, for deterministic tickets.
    pub lock_occurrences: Vec<(u64, u32)>,
    /// The L1 probes of this warp's last load the MSHR table refused.
    pub refused_load: RefusedLoad,
    /// The pc of this warp's last request the interconnect refused, so
    /// `SimStats::icnt_stall_cycles` counts each request once.
    pub icnt_refused_pc: Option<usize>,
}

/// The L1 probes of a load the SM's MSHR table refused, kept so the warp's
/// retries replay them ([`SectoredCache::replay`]) instead of scanning
/// tags and the MSHR table again.
///
/// The record holds while the warp is still at `pc` and the L1 is still at
/// `generation`: no line gained or lost residency, so every probe finds the
/// same outcome on the same line, and the MSHR table has only grown (its
/// keys leave only on a load response, right after that response's fill),
/// so the load is refused again.
#[derive(Debug, Default)]
pub struct RefusedLoad {
    /// The refused load's pc; `None` while no record is held.
    pub pc: Option<usize>,
    /// The L1 residency generation the probes were recorded at.
    pub generation: u64,
    /// One probe per sector, in the load's sector order.
    pub probes: Vec<Probed>,
    /// A lower bound on how far the MSHRs the load needs exceed the
    /// table's capacity: the live keys plus its sectors without one,
    /// less the capacity. Exact at the refusal; a key the load does not
    /// need leaving lowers it by one, and any other change only raises
    /// the true value.
    pub excess: usize,
}

impl RefusedLoad {
    /// Whether the record replays exactly for a warp at `pc` with the L1
    /// at `generation`.
    #[inline]
    pub fn holds(&self, pc: usize, generation: u64) -> bool {
        self.pc == Some(pc) && self.generation == generation
    }

    /// Whether replaying the record stamps no line: every recorded probe
    /// found its line absent. Retrying such a load has no effect at all,
    /// which is what lets its scheduler sleep.
    #[inline]
    pub fn stamps_nothing(&self) -> bool {
        self.probes.iter().all(|p| p.line.is_none())
    }
}

/// What a scheduler sleeps on ([`SchedulerCtx::sleeper`]): the warp in
/// `slot` would be picked at every visit until the scheduler wakes, and
/// each of those visits is known in advance. A refused pick is refused the
/// same way, with no effect; a burst issues its next ALU instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sleeper {
    /// A load the L1 MSHR table refused, whose [`RefusedLoad`] record
    /// stamps no line.
    L1 {
        /// The refused warp's slot.
        slot: usize,
    },
    /// A store or `red` the interconnect refused: it needs `need` request
    /// flits and its cluster's injection budget is smaller. A refused load
    /// never sleeps here: it retries every cycle.
    Icnt {
        /// The refused warp's slot.
        slot: usize,
        /// The request's flits: the budget at which it fits.
        need: u32,
    },
    /// The policy's greedy warp in the middle of an ALU burst: it issued
    /// at cycle `from` and issues again at every cycle up to `until`, the
    /// burst's last issue within the model's issue budget, which the
    /// scheduler is visited for. A visit before then first credits the
    /// issues the warp owes for the cycles in between
    /// (`GpuSim::credit_burst`).
    Burst {
        /// The bursting warp's slot.
        slot: usize,
        /// The cycle of the issue the scheduler fell asleep after.
        from: u64,
        /// The cycle of the burst's last issue within the budget.
        until: u64,
    },
}

impl Sleeper {
    /// The slot of the warp the scheduler sleeps on.
    pub(crate) fn slot(self) -> usize {
        match self {
            Self::L1 { slot } | Self::Icnt { slot, .. } | Self::Burst { slot, .. } => slot,
        }
    }
}

impl WarpCtx {
    /// The warp's next instruction, if any.
    pub fn next_instr(&self) -> Option<&Instr> {
        self.program.instrs.get(self.pc)
    }

    /// Whether the next instruction is an atomic reduction.
    pub fn next_is_atomic(&self) -> bool {
        self.next_instr().is_some_and(Instr::is_atomic)
    }

    /// Whether the warp has retired every instruction.
    pub fn finished(&self) -> bool {
        self.pc >= self.program.instrs.len()
    }

    /// Bumps and returns the occurrence index for a locked section on
    /// `lock_addr` (deterministic ticket component).
    pub fn next_lock_occurrence(&mut self, lock_addr: u64) -> u32 {
        if let Some(entry) = self.lock_occurrences.iter_mut().find(|e| e.0 == lock_addr) {
            let occ = entry.1;
            entry.1 += 1;
            occ
        } else {
            self.lock_occurrences.push((lock_addr, 1));
            0
        }
    }
}

/// Per-scheduler bookkeeping: policy instance, arrival/batch accounting, and
/// the warp counts [`Sm::sealed`] reads.
#[derive(Debug)]
pub struct SchedulerCtx {
    /// The scheduling policy.
    pub policy: Box<dyn WarpScheduler>,
    /// Hardware slots this scheduler manages (`max_warps / num_schedulers`).
    pub width: usize,
    /// Warps ever arrived (drives batch assignment).
    pub arrivals: u64,
    /// Arrivals per batch.
    batch_sizes: BTreeMap<u64, u32>,
    /// Exits per batch.
    batch_exits: BTreeMap<u64, u32>,
    /// All batches `< completed_batches` have fully exited.
    pub completed_batches: u64,
    /// Live warps.
    pub live: u32,
    /// Flush-waiting warps. Private: only [`Sm::park`] and [`Sm::wake`]
    /// change it.
    flush_wait: u32,
    /// Warps waiting at an incomplete CTA barrier. Private: only
    /// [`Sm::park`] and [`Sm::wake`] change it.
    barrier_wait: u32,
    /// Lower bound on the earliest cycle any of this scheduler's warps can
    /// be picked (`u64::MAX` when none is in [`WarpState::Ready`]).
    ///
    /// Invariant: whenever a warp of this scheduler is pickable at cycle
    /// `c`, `ready_bound <= c`. The bound may be stale-*low* (the warp it
    /// tracked has since issued or parked) — the event engine then pays one
    /// empty scheduler visit and tightens it via
    /// [`Sm::recompute_ready_bound`] — but it is never stale-high, so the
    /// activity-driven engine can skip any scheduler with
    /// `ready_bound > cycle` without changing behavior (the dense engine
    /// visits it anyway and panics if it finds a pickable warp). Every
    /// transition into `Ready` goes through [`Sm::wake`] or a spawn, both
    /// of which call [`note_ready`](Self::note_ready). A
    /// warp the execution model refused (`ExecutionModel::can_issue`) is
    /// not pickable until the model reopens issue, which lowers the bound
    /// of every scheduler with live warps.
    ///
    /// A scheduler that sleeps (`sleeper`) may hold a bound above a
    /// pickable warp's cycle: every visit before a wake would pick that
    /// warp, and either be refused again with no effect or issue the next
    /// ALU instruction of its burst.
    pub ready_bound: u64,
    /// What this scheduler sleeps on, if anything (see [`Sleeper`]). Set
    /// after a visit whose pick every later visit repeats: a pick refused
    /// with no effect, or an ALU issue of a burst with at least two issues
    /// left by the policy's [`greedy_warp`]. Taken by the next visit. Until
    /// one of its views changes, the policy makes the same pick (a pick is
    /// a function of the views and the policy state, and a repeated pick
    /// writes the same state); a refused request is refused the same way,
    /// stamping nothing and counting nothing, and a burst issues its next
    /// ALU instruction. So the visit's bound fold leaves out every view
    /// that was already due, and the scheduler wakes on:
    /// - a view that was not yet due falling due;
    /// - every `note_ready` site (a wake, a gate opening, a token move, a
    ///   CTA arrival) and a warp exit, which change the views;
    /// - the policy's [`pick_changes_at`] cycle;
    /// - what the sleep waits for, one per sleeper kind: for an MSHR
    ///   refusal, an L1 fill after which the record no longer holds
    ///   (`Sm::recheck_l1_sleepers`); for an interconnect refusal, room in
    ///   the cluster's injection queue (`GpuSim::wake_icnt_sleepers`); for
    ///   a burst, the cycle of its last issue.
    ///
    /// The warp stays `Ready` and visible to the pick: it is not parked,
    /// since parking it would let the policy pick another warp. A burst
    /// sleeper outlives a warp exit, which wakes it: its warp still owes
    /// the issues of the cycles it slept through.
    ///
    /// [`greedy_warp`]: crate::sched::WarpScheduler::greedy_warp
    /// [`pick_changes_at`]: crate::sched::WarpScheduler::pick_changes_at
    pub(crate) sleeper: Option<Sleeper>,
}

impl SchedulerCtx {
    fn new(kind: SchedKind, width: usize, atomic_exec_latency: u32) -> Self {
        Self {
            policy: make_scheduler(kind, atomic_exec_latency),
            width,
            arrivals: 0,
            batch_sizes: BTreeMap::new(),
            batch_exits: BTreeMap::new(),
            completed_batches: 0,
            live: 0,
            flush_wait: 0,
            barrier_wait: 0,
            ready_bound: u64::MAX,
            sleeper: None,
        }
    }

    /// Lowers the ready bound: a warp of this scheduler became pickable no
    /// earlier than cycle `t`. Called at every wake site and warp spawn.
    pub fn note_ready(&mut self, t: u64) {
        self.ready_bound = self.ready_bound.min(t);
    }

    /// Runs `event`, a policy callback that may move the atomic token (an
    /// atomic issue, a warp exit, a barrier arrival), and lowers the ready
    /// bound to `t` if the policy's [`AtomicGrant`] changed: a warp parked
    /// as refused may now hold the token.
    pub(crate) fn token_event(&mut self, t: u64, event: impl FnOnce(&mut dyn WarpScheduler)) {
        let before = self.policy.atomic_grant();
        event(self.policy.as_mut());
        if self.policy.atomic_grant() != before {
            self.note_ready(t);
        }
    }

    /// Registers a warp arrival and returns `(batch, arrival_seq)`.
    pub fn register_arrival(&mut self) -> (u64, u64) {
        let arrival = self.arrivals;
        let batch = arrival / self.width as u64;
        self.arrivals += 1;
        *self.batch_sizes.entry(batch).or_insert(0) += 1;
        self.live += 1;
        (batch, arrival)
    }

    /// Registers a warp exit and updates completed-batch accounting.
    ///
    /// A batch completes once it is fully populated and every warp of it
    /// has exited. Only a scheduler's last batch can stay partial, and no
    /// warp waits on it: the gate holds back later batches only.
    pub fn register_exit(&mut self, batch: u64) {
        *self.batch_exits.entry(batch).or_insert(0) += 1;
        self.live -= 1;
        let full = self.width as u32;
        while self.batch_sizes.get(&self.completed_batches) == Some(&full)
            && self.batch_exits.get(&self.completed_batches) == Some(&full)
        {
            self.completed_batches += 1;
        }
    }

    /// Whether a warp of `batch` may issue atomics now (all earlier batches
    /// fully exited).
    pub fn batch_may_issue_atomics(&self, batch: u64) -> bool {
        batch <= self.completed_batches
    }

    /// Resets per-kernel accounting.
    pub fn on_kernel_boundary(&mut self) {
        debug_assert_eq!(self.live, 0, "kernel boundary with live warps");
        self.arrivals = 0;
        self.batch_sizes.clear();
        self.batch_exits.clear();
        self.completed_batches = 0;
        // Warps retire only from `Ready`, so the park counts are back to
        // zero by construction.
        debug_assert_eq!(
            (self.flush_wait, self.barrier_wait),
            (0, 0),
            "kernel boundary with parked warps"
        );
        self.ready_bound = u64::MAX;
        self.sleeper = None;
        self.policy.on_kernel_boundary();
    }
}

/// CTA barrier bookkeeping.
#[derive(Debug, Default)]
pub struct BarrierState {
    /// Warps currently waiting at the barrier (slots).
    pub waiting_slots: Vec<usize>,
    /// Live warps of the CTA (barrier releases when all arrive).
    pub live_warps: u32,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    /// Global SM index.
    pub id: usize,
    /// Owning cluster.
    pub cluster: usize,
    /// L1 data cache (tags).
    pub l1: SectoredCache,
    /// L1 MSHRs: sector address → waiting slots.
    pub l1_mshrs: BTreeMap<u64, Vec<usize>>,
    /// MSHR capacity.
    pub l1_mshr_capacity: usize,
    /// Hardware warp slots.
    pub warps: Vec<Option<WarpCtx>>,
    /// Warp schedulers (slot `s` belongs to scheduler `s % schedulers`).
    pub schedulers: Vec<SchedulerCtx>,
    /// Barrier state per resident CTA.
    pub barriers: BTreeMap<u64, BarrierState>,
    /// Resident thread count (occupancy limit).
    pub resident_threads: usize,
    /// Resident CTA count (occupancy limit).
    pub resident_ctas: usize,
    /// Next runtime CTA key.
    next_cta_key: u64,
    max_threads: usize,
    max_ctas: usize,
    num_schedulers: usize,
}

impl Sm {
    /// Builds an SM with the given scheduling policy in every scheduler.
    pub fn new(id: usize, cfg: &GpuConfig, sched_kind: SchedKind) -> Self {
        let num_schedulers = cfg.num_schedulers_per_sm;
        let width = cfg.warps_per_scheduler();
        // `can_accept` counts `width` slots per scheduler.
        debug_assert_eq!(width * num_schedulers, cfg.max_warps_per_sm);
        Self {
            id,
            cluster: id / cfg.sms_per_cluster,
            l1: SectoredCache::new(cfg.l1_size, cfg.l1_assoc, cfg.line_size, cfg.sector_size),
            l1_mshrs: BTreeMap::new(),
            l1_mshr_capacity: cfg.l1_mshrs,
            warps: (0..cfg.max_warps_per_sm).map(|_| None).collect(),
            schedulers: (0..num_schedulers)
                .map(|_| SchedulerCtx::new(sched_kind, width, cfg.alu_latency))
                .collect(),
            barriers: BTreeMap::new(),
            resident_threads: 0,
            resident_ctas: 0,
            next_cta_key: 0,
            max_threads: cfg.max_threads_per_sm,
            max_ctas: cfg.max_ctas_per_sm,
            num_schedulers,
        }
    }

    /// Whether the SM has room for `cta` (warp slots per scheduler, threads,
    /// CTA count).
    ///
    /// Answered from counts: warp `w` of the CTA goes to scheduler
    /// `w % S`, so scheduler `s` takes `ceil((n - s) / S)` of its `n`
    /// warps, and each scheduler's `live` count is its occupied share of
    /// its `width` slots.
    pub fn can_accept(&self, cta: &CtaSpec) -> bool {
        if self.resident_ctas >= self.max_ctas {
            return false;
        }
        if self.resident_threads + cta.num_threads() > self.max_threads {
            return false;
        }
        let (n, ns) = (cta.warps.len(), self.num_schedulers);
        self.schedulers.iter().enumerate().all(|(s, sctx)| {
            let need = (n + ns - 1 - s) / ns;
            sctx.live as usize + need <= sctx.width
        })
    }

    /// Places a CTA onto the SM; returns the slots used.
    ///
    /// `unique_base` is the deterministic id of the CTA's first warp;
    /// `metas` holds one precomputed [`WarpMeta`] per warp of the CTA
    /// (see [`imeta::warp_meta`](crate::imeta::warp_meta)).
    ///
    /// # Panics
    ///
    /// Panics if the CTA does not fit (callers check
    /// [`can_accept`](Self::can_accept) first) or if `metas` does not
    /// cover every warp.
    pub fn add_cta(
        &mut self,
        cta: &CtaSpec,
        unique_base: u64,
        cycle: u64,
        metas: &[Arc<WarpMeta>],
    ) -> Vec<usize> {
        assert_eq!(
            metas.len(),
            cta.warps.len(),
            "CTA {} has {} warps but {} meta tables",
            cta.cta_id,
            cta.warps.len(),
            metas.len()
        );
        assert!(self.can_accept(cta), "CTA does not fit on SM {}", self.id);
        let cta_key = self.next_cta_key;
        self.next_cta_key += 1;
        self.resident_ctas += 1;
        self.resident_threads += cta.num_threads();
        self.barriers.insert(
            cta_key,
            BarrierState {
                waiting_slots: Vec::new(),
                live_warps: cta.warps.len() as u32,
            },
        );
        let mut slots = Vec::with_capacity(cta.warps.len());
        for (w, program) in cta.warps.iter().enumerate() {
            let sched = w % self.num_schedulers;
            let slot = self
                .warps
                .iter()
                .enumerate()
                .position(|(s, ctx)| s % self.num_schedulers == sched && ctx.is_none())
                .expect("can_accept guaranteed a free slot");
            let unique = unique_base + w as u64;
            let (batch, arrival) = self.schedulers[sched].register_arrival();
            self.schedulers[sched].policy.on_warp_arrive(unique);
            self.schedulers[sched].note_ready(cycle);
            self.warps[slot] = Some(WarpCtx {
                unique,
                cta_key,
                sched,
                batch,
                arrival,
                program: Arc::clone(program),
                meta: Arc::clone(&metas[w]),
                pc: 0,
                alu_rem: 0,
                state: WarpState::Ready,
                next_ready: cycle,
                outstanding_loads: 0,
                outstanding_writes: 0,
                lock_occurrences: Vec::new(),
                refused_load: RefusedLoad::default(),
                icnt_refused_pc: None,
            });
            slots.push(slot);
        }
        slots
    }

    /// Retires the warp in `slot` at `cycle`, updating scheduler, barrier,
    /// and occupancy accounting. Returns the warp's context.
    ///
    /// The exit may pass an atomic token to a warp parked as refused, which
    /// could then issue this very cycle, so it is a token event at `cycle`.
    /// It also removes a view, so it wakes a sleeping scheduler. A burst
    /// sleeper stays: the visit it wakes for credits the issues it owes.
    pub fn retire_warp(&mut self, slot: usize, cycle: u64) -> WarpCtx {
        let warp = self.warps[slot].take().expect("slot occupied");
        let sched = &mut self.schedulers[warp.sched];
        if let Some(sleeper) = sched.sleeper {
            if !matches!(sleeper, Sleeper::Burst { .. }) {
                sched.sleeper = None;
            }
            sched.note_ready(cycle);
        }
        sched.token_event(cycle, |p| p.on_warp_exit(warp.unique));
        sched.register_exit(warp.batch);
        self.resident_threads -= warp.program.active_lanes;
        let barrier = self
            .barriers
            .get_mut(&warp.cta_key)
            .expect("CTA barrier state exists");
        barrier.live_warps -= 1;
        if barrier.live_warps == 0 {
            self.barriers.remove(&warp.cta_key);
            self.resident_ctas -= 1;
        }
        warp
    }

    /// Number of live warps on the SM.
    pub fn live_warps(&self) -> usize {
        self.schedulers.iter().map(|s| s.live as usize).sum()
    }

    /// Parks the warp in `slot` in state `to`. With [`wake`](Self::wake)
    /// this is the warp state machine: nothing else moves a resident warp
    /// out of or back into [`WarpState::Ready`], so the scheduler's
    /// `flush_wait`/`barrier_wait` counts (what [`sealed`](Self::sealed)
    /// reads) are right by construction.
    ///
    /// A warp parks from `Ready`, except that a barrier the model releases
    /// into the flush epoch moves its waiters from `WaitBarrier` straight
    /// to `WaitFlush` (no release callback yet: that comes with the flush
    /// wake). A barrier arrival hands the policy's atomic token on, so it
    /// is a token event at `cycle + 1`. Parking needs no bound update:
    /// a stale-low `ready_bound` is allowed.
    pub fn park(&mut self, slot: usize, to: WarpState, cycle: u64) {
        let w = self.warps[slot].as_mut().expect("parked warp is resident");
        let from = w.state;
        debug_assert!(
            (from == WarpState::Ready && to != WarpState::Ready)
                || (from == WarpState::WaitBarrier && to == WarpState::WaitFlush),
            "SM {} slot {slot}: no park from {from:?} to {to:?}",
            self.id
        );
        w.state = to;
        let unique = w.unique;
        let sched = &mut self.schedulers[w.sched];
        if from == WarpState::WaitBarrier {
            sched.barrier_wait -= 1;
        }
        match to {
            WarpState::WaitFlush => sched.flush_wait += 1,
            WarpState::WaitBarrier => {
                sched.barrier_wait += 1;
                sched.token_event(cycle + 1, |p| p.on_barrier_arrival(unique));
            }
            _ => {}
        }
    }

    /// Wakes the warp in `slot` if it is parked in state `from`; returns
    /// whether it woke. The warp may issue from `cycle + 1` on, and its
    /// scheduler's bound is lowered to that cycle. Leaving a barrier or
    /// the flush wait is a barrier release for the policy (a no-op for
    /// warps that were flush-blocked for other reasons).
    pub fn wake(&mut self, slot: usize, from: WarpState, cycle: u64) -> bool {
        debug_assert_ne!(from, WarpState::Ready, "a Ready warp cannot wake");
        let Some(w) = self.warps[slot].as_mut().filter(|w| w.state == from) else {
            return false;
        };
        w.state = WarpState::Ready;
        w.next_ready = cycle + 1;
        let unique = w.unique;
        let sched = &mut self.schedulers[w.sched];
        match from {
            WarpState::WaitFlush => sched.flush_wait -= 1,
            WarpState::WaitBarrier => sched.barrier_wait -= 1,
            _ => {}
        }
        sched.note_ready(cycle + 1);
        if matches!(from, WarpState::WaitBarrier | WarpState::WaitFlush) {
            sched.policy.on_barrier_released(unique);
        }
        true
    }

    /// Re-checks every scheduler sleeping on an MSHR-refused load after a
    /// fill of the sector `filled` moved the L1's residency generation;
    /// `freed` if the fill's response freed that sector's MSHR.
    ///
    /// A sleeper's record stamps no line: every probe found its line
    /// absent. A fill makes only its own line present, so the probes still
    /// hold unless the fill hit one of the record's lines. The refusal
    /// still holds while the MSHR table lacks room for the load's sectors:
    /// a freed key the load does not need lowers the record's `excess` by
    /// one, and once that bound reaches zero the live table is counted. If
    /// both hold, the record moves to the new generation and the scheduler
    /// sleeps on; otherwise it wakes at `cycle`, since its pick's next
    /// attempt would differ.
    pub(crate) fn recheck_l1_sleepers(&mut self, filled: u64, freed: bool, cycle: u64) {
        let generation = self.l1.generation();
        let line = self.l1.line_of(filled);
        for sched in 0..self.num_schedulers {
            let Some(Sleeper::L1 { slot }) = self.schedulers[sched].sleeper else {
                continue;
            };
            let w = self.warps[slot].as_mut().expect("sleeper is resident");
            let InstrMeta::Sectors(sectors) = w.meta.at(w.pc) else {
                unreachable!("refused load without sector metadata")
            };
            let record = &mut w.refused_load;
            let holds = sectors.iter().all(|&s| self.l1.line_of(s) != line)
                && (!freed || {
                    if record.excess <= 1 {
                        let new_sectors = sectors
                            .iter()
                            .filter(|s| !self.l1_mshrs.contains_key(s))
                            .count();
                        let demand = self.l1_mshrs.len() + new_sectors;
                        record.excess = demand.saturating_sub(self.l1_mshr_capacity) + 1;
                    }
                    record.excess -= 1;
                    record.excess > 0
                });
            if holds {
                record.generation = generation;
            } else {
                let sctx = &mut self.schedulers[sched];
                sctx.sleeper = None;
                sctx.note_ready(cycle);
            }
        }
    }

    /// Warp schedulers on this SM.
    pub fn num_schedulers(&self) -> usize {
        self.num_schedulers
    }

    /// Why a timer-ready warp (state `Ready`, not finished) may not be
    /// picked: the one gate predicate [`build_views`](Self::build_views),
    /// [`recompute_ready_bound`](Self::recompute_ready_bound) and
    /// [`note_slot_bound`](Self::note_slot_bound) share, so the three can
    /// never disagree about which warps carry a timer bound.
    ///
    /// - [`Gate::Batch`]: under a determinism-aware policy, a warp of a
    ///   later CTA batch may not issue atomics yet (under SRR —
    ///   `srr_like` — nothing at all). Woken by the gate-opening sites:
    ///   warp retirement and dispatch completion.
    /// - [`Gate::Refused`]: the policy grants atomics to one holder only
    ///   ([`AtomicGrant::Only`]) and this atomic-next warp is not it. Woken
    ///   by the token-moving sites: an atomic issue, a warp exit, a barrier
    ///   arrival (see [`WarpScheduler::atomic_grant`]).
    ///   [`AtomicGrant::Nobody`] never parks: GTRR's greedy pick records
    ///   the pending atomics it sees to decide its phase switch.
    ///
    /// Either way the warp is not ready and has no timer bound. Policies
    /// that refuse a warp never pick it, so parking it cannot change a pick.
    fn gate(
        sctx: &SchedulerCtx,
        grant: AtomicGrant,
        w: &WarpCtx,
        next_is_atomic: bool,
        det_aware: bool,
        srr_like: bool,
    ) -> Gate {
        if det_aware && !sctx.batch_may_issue_atomics(w.batch) && (next_is_atomic || srr_like) {
            Gate::Batch
        } else if next_is_atomic && matches!(grant, AtomicGrant::Only(h) if h != w.unique) {
            Gate::Refused
        } else {
            Gate::Open
        }
    }

    /// Recomputes scheduler `sched`'s exact ready bound from current warp
    /// state, excluding gated warps (see `Sm::gate`). The event engine's
    /// incremental maintenance uses this as its oracle: after a retirement
    /// opens the batch gate the bound is recomputed exactly; elsewhere it
    /// is maintained from per-view `bound_at` values.
    pub fn recompute_ready_bound(&mut self, sched: usize, det_aware: bool, srr_like: bool) {
        let mut bound = u64::MAX;
        let sctx = &self.schedulers[sched];
        let grant = sctx.policy.atomic_grant();
        let mut slot = sched;
        while slot < self.warps.len() {
            if let Some(w) = &self.warps[slot] {
                if w.state == WarpState::Ready
                    && !w.finished()
                    && Self::gate(sctx, grant, w, w.next_is_atomic(), det_aware, srr_like)
                        == Gate::Open
                {
                    bound = bound.min(w.next_ready);
                }
            }
            slot += self.num_schedulers;
        }
        self.schedulers[sched].ready_bound = bound;
    }

    /// Folds slot `slot`'s *current* timer bound into its scheduler's
    /// `ready_bound`. The event engine calls this for the warp it just
    /// issued from — its view's `bound_at` predates the issue, so
    /// the warp is re-evaluated live (its peers' `bound_at` values are
    /// still valid and are folded directly).
    pub fn note_slot_bound(&mut self, slot: usize, det_aware: bool, srr_like: bool) {
        let Some(w) = &self.warps[slot] else { return };
        if w.state != WarpState::Ready || w.finished() {
            return;
        }
        let sctx = &self.schedulers[w.sched];
        let grant = sctx.policy.atomic_grant();
        if Self::gate(sctx, grant, w, w.next_is_atomic(), det_aware, srr_like) == Gate::Open {
            let (sc, t) = (w.sched, w.next_ready);
            self.schedulers[sc].note_ready(t);
        }
    }

    /// SM-level ready bound: the minimum of its schedulers' bounds
    /// (`u64::MAX` when no warp is ready). Like the per-scheduler bounds,
    /// a lower bound — never later than the true earliest pickable cycle.
    pub fn ready_bound(&self) -> u64 {
        self.schedulers
            .iter()
            .map(|s| s.ready_bound)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Fills `views` with scheduler `sched`'s warp views for `cycle`, sorted
    /// by unique id, applying the batch gate and the token refusal
    /// (`Sm::gate`). Leaves `views` empty when no warp is ready after
    /// gating. Whatever `views` held before is discarded, so the issue walk
    /// reuses one buffer for every visit.
    ///
    /// Returns the scheduler's aggregate timer bound: the minimum
    /// `bound_at` over all live warps (`u64::MAX` when every warp waits on
    /// an event or a gate). It is exact at build time, so the event engine
    /// can install it directly instead of rescanning the warps after the
    /// visit.
    ///
    /// This is a pure read of the scheduler's own warps and context — no
    /// interconnect, lock, or execution-model inputs. The issue walk calls
    /// it right before the scheduler's pick and layers model issue gating
    /// (`ExecutionModel::can_issue`) on afterwards.
    pub fn build_views(
        &self,
        sched: usize,
        cycle: u64,
        det_aware: bool,
        srr_like: bool,
        views: &mut Vec<WarpView>,
    ) -> u64 {
        views.clear();
        let sctx = &self.schedulers[sched];
        let grant = sctx.policy.atomic_grant();
        let mut any_ready = false;
        let mut agg_bound = u64::MAX;
        let mut slot = sched;
        while slot < self.warps.len() {
            if let Some(w) = &self.warps[slot] {
                debug_assert_eq!(w.sched, sched);
                let next_is_atomic = w.next_is_atomic();
                let timer_ready = w.state == WarpState::Ready && !w.finished();
                // Gated warps have no timer bound: the gate-opening and
                // token-moving sites wake them.
                let gate = Self::gate(sctx, grant, w, next_is_atomic, det_aware, srr_like);
                let bound_at = if timer_ready && gate == Gate::Open {
                    w.next_ready
                } else {
                    u64::MAX
                };
                agg_bound = agg_bound.min(bound_at);
                let due = timer_ready && w.next_ready <= cycle;
                let ready = due && gate == Gate::Open;
                let batch_gated = due && gate == Gate::Batch;
                views.push(WarpView {
                    slot,
                    unique: w.unique,
                    arrival: w.arrival,
                    ready,
                    next_is_atomic,
                    at_barrier: w.state == WarpState::WaitBarrier,
                    flush_wait: w.state == WarpState::WaitFlush,
                    batch_gated,
                    bound_at,
                });
                any_ready |= ready;
            }
            slot += self.num_schedulers;
        }
        if any_ready {
            views.sort_unstable_by_key(|v| v.unique);
        } else {
            views.clear();
        }
        agg_bound
    }

    /// Reports every Ready atomic-next warp to its policy, for the
    /// schedulers whose policy asks
    /// ([`WarpScheduler::notes_pending_atomics`]: GTRR's greedy phase). The
    /// engine calls this at the end of every cycle it visits.
    pub(crate) fn note_pending_atomics(&mut self) {
        let Self {
            warps,
            schedulers,
            num_schedulers,
            ..
        } = self;
        for (s, sched) in schedulers.iter_mut().enumerate() {
            if !sched.policy.notes_pending_atomics() {
                continue;
            }
            for w in warps[s..].iter().step_by(*num_schedulers).flatten() {
                if Self::atomic_pending(w) {
                    sched.policy.note_atomic_pending(w.unique);
                }
            }
        }
    }

    /// Whether scheduler `sched` is *sealed*: every live warp is blocked at
    /// a deterministic program point, so DAB may flush (its contributions
    /// to the buffer are final until a blocked warp acts). Blocked means
    /// flush-wait, a CTA barrier, or — only under a determinism-aware
    /// policy (`det_aware`) — a Ready warp whose next atomic the batch gate
    /// or the policy steadily refuses ([`AtomicGrant::refuses`]).
    ///
    /// The counts answer first: the flush and barrier waiters are disjoint
    /// from the Ready warps, so `live == flush_wait + barrier_wait` seals
    /// with no refused atomic to count. Otherwise only this scheduler's
    /// warps are walked.
    pub fn sealed(&self, sched: usize, det_aware: bool) -> bool {
        let s = &self.schedulers[sched];
        let blocked = s.flush_wait + s.barrier_wait;
        if s.live == blocked {
            return true;
        }
        if !det_aware {
            return false;
        }
        let grant = s.policy.atomic_grant();
        let stuck = self.warps[sched..]
            .iter()
            .step_by(self.num_schedulers)
            .flatten()
            .filter(|w| Self::atomic_pending(w))
            .filter(|w| !s.batch_may_issue_atomics(w.batch) || grant.refuses(w.unique))
            .count() as u32;
        s.live == blocked + stuck
    }

    /// A Ready warp whose next instruction is an atomic.
    fn atomic_pending(w: &WarpCtx) -> bool {
        w.state == WarpState::Ready && w.next_is_atomic()
    }
}

/// Outcome of [`Sm::gate`] for a timer-ready warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// Pickable once its `next_ready` cycle arrives.
    Open,
    /// Held by the CTA batch gate (the view's `batch_gated` flag).
    Batch,
    /// Its atomic is refused: another warp holds the policy's token.
    Refused,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ModelCtx;
    use crate::isa::{AtomicAccess, AtomicOp, Value};
    use crate::mem::icnt::Interconnect;
    use crate::stats::SimStats;

    /// Deterministic LCG for the random-sequence tests: no time- or
    /// platform-dependent seeding, so the sequence is identical on every
    /// run and host.
    fn seeded_rng(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        }
    }

    fn cta(warps: usize, lanes: usize) -> CtaSpec {
        CtaSpec::new(
            0,
            (0..warps)
                .map(|_| {
                    WarpProgram::new(
                        vec![Instr::Red {
                            op: AtomicOp::AddF32,
                            accesses: vec![AtomicAccess::new(0, 0, Value::F32(1.0))],
                        }],
                        lanes,
                    )
                })
                .collect(),
        )
    }

    fn sm() -> Sm {
        Sm::new(0, &GpuConfig::tiny(), SchedKind::Gto)
    }

    fn metas_for(cta: &CtaSpec) -> Vec<Arc<WarpMeta>> {
        cta.warps
            .iter()
            .map(|p| crate::imeta::warp_meta(p, &GpuConfig::tiny()))
            .collect()
    }

    #[test]
    fn cta_admission_and_slots() {
        let mut sm = sm();
        let cta = cta(8, 32);
        assert!(sm.can_accept(&cta));
        let slots = sm.add_cta(&cta, 100, 0, &metas_for(&cta));
        assert_eq!(slots.len(), 8);
        assert_eq!(sm.live_warps(), 8);
        assert_eq!(sm.resident_threads, 256);
        assert_eq!(sm.resident_ctas, 1);
        // Warps spread across 4 schedulers: 2 each.
        for sched in 0..4 {
            assert_eq!(sm.schedulers[sched].live, 2);
        }
    }

    #[test]
    fn thread_occupancy_limit() {
        let mut sm = sm();
        // 2048 threads max: 8 CTAs of 8x32 = 256 threads each.
        for i in 0..8 {
            let c = cta(8, 32);
            assert!(sm.can_accept(&c), "cta {i} should fit");
            sm.add_cta(&c, i * 8, 0, &metas_for(&c));
        }
        assert!(!sm.can_accept(&cta(8, 32)));
    }

    #[test]
    fn warp_slot_limit_per_scheduler() {
        let mut sm = sm();
        // 64 slots, 16 per scheduler. A 64-warp, 1-lane-per-warp load fills
        // every slot.
        let big = cta(64, 1);
        assert!(sm.can_accept(&big));
        sm.add_cta(&big, 0, 0, &metas_for(&big));
        assert!(!sm.can_accept(&cta(1, 1)));
    }

    #[test]
    fn retire_restores_capacity() {
        let mut sm = sm();
        let c = cta(8, 32);
        let slots = sm.add_cta(&c, 0, 0, &metas_for(&c));
        for slot in slots {
            sm.retire_warp(slot, 0);
        }
        assert_eq!(sm.live_warps(), 0);
        assert_eq!(sm.resident_ctas, 0);
        assert_eq!(sm.resident_threads, 0);
        assert!(sm.can_accept(&cta(8, 32)));
    }

    /// Slot-scan oracle for [`Sm::live_warps`].
    fn live_warps_scan(sm: &Sm) -> usize {
        sm.warps.iter().filter(|w| w.is_some()).count()
    }

    /// Slot-scan oracle for [`Sm::can_accept`]: free slots per scheduler,
    /// counted the way `add_cta` looks for them.
    fn can_accept_scan(sm: &Sm, cta: &CtaSpec) -> bool {
        let ns = sm.num_schedulers();
        sm.resident_ctas < sm.max_ctas
            && sm.resident_threads + cta.num_threads() <= sm.max_threads
            && (0..ns).all(|sched| {
                let need = (0..cta.warps.len()).filter(|w| w % ns == sched).count();
                let free = sm
                    .warps
                    .iter()
                    .enumerate()
                    .filter(|(slot, w)| slot % ns == sched && w.is_none())
                    .count();
                free >= need
            })
    }

    #[test]
    fn placement_counts_match_slot_scan_on_random_sequences() {
        let mut rng = seeded_rng(0x1319_8a2e_0370_7344);
        // Probe sizes 1-16 cover counts below, at and off multiples of the
        // four schedulers; 1-lane CTAs reach the slot limit before the
        // thread limit, 32-lane ones the other way round.
        let probes: Vec<CtaSpec> = (1..=16).flat_map(|n| [cta(n, 1), cta(n, 32)]).collect();
        let mut sm = sm();
        let mut next_base = 0;
        for step in 0..3000u64 {
            let occupied: Vec<usize> = (0..sm.warps.len())
                .filter(|&s| sm.warps[s].is_some())
                .collect();
            if occupied.is_empty() || !rng().is_multiple_of(3) {
                let c = cta(1 + rng() as usize % 16, [1, 7, 32][rng() as usize % 3]);
                if sm.can_accept(&c) {
                    sm.add_cta(&c, next_base, step, &metas_for(&c));
                    next_base += c.warps.len() as u64;
                }
            } else {
                let slot = occupied[rng() as usize % occupied.len()];
                sm.retire_warp(slot, step);
            }
            assert_eq!(sm.live_warps(), live_warps_scan(&sm), "step {step}");
            for (sched, sctx) in sm.schedulers.iter().enumerate() {
                let ns = sm.num_schedulers();
                let occupied = (sched..sm.warps.len())
                    .step_by(ns)
                    .filter(|&s| sm.warps[s].is_some())
                    .count();
                assert_eq!(sctx.live as usize, occupied, "step {step} sched {sched}");
            }
            for p in &probes {
                assert_eq!(
                    sm.can_accept(p),
                    can_accept_scan(&sm, p),
                    "step {step}: {} warps x {} lanes",
                    p.warps.len(),
                    p.num_threads() / p.warps.len()
                );
            }
        }
    }

    #[test]
    fn batch_assignment_by_arrival() {
        let mut sched = SchedulerCtx::new(SchedKind::Gwat, 2, 4);
        assert_eq!(sched.register_arrival(), (0, 0));
        assert_eq!(sched.register_arrival(), (0, 1));
        assert_eq!(sched.register_arrival(), (1, 2));
        assert!(sched.batch_may_issue_atomics(0));
        assert!(!sched.batch_may_issue_atomics(1));
        // Batch 0 fully exits → batch 1 unblocked.
        sched.register_exit(0);
        assert!(!sched.batch_may_issue_atomics(1));
        sched.register_exit(0);
        assert!(sched.batch_may_issue_atomics(1));
    }

    #[test]
    fn only_a_full_batch_completes() {
        let mut sched = SchedulerCtx::new(SchedKind::Gwat, 2, 4);
        for _ in 0..3 {
            sched.register_arrival();
        }
        sched.register_exit(1);
        // Batch 1 (one of two slots) is partial and fully exited, but
        // batch 0 is still live → nothing completes.
        assert_eq!(sched.completed_batches, 0);
        sched.register_exit(0);
        sched.register_exit(0);
        // Batch 0 completes; the partial batch 1 stays open, and no warp
        // waits on it.
        assert_eq!(sched.completed_batches, 1);
        assert!(sched.batch_may_issue_atomics(1));
        assert!(!sched.batch_may_issue_atomics(2));
    }

    #[test]
    fn warp_ctx_helpers() {
        let mut sm = sm();
        let c = cta(1, 32);
        let slots = sm.add_cta(&c, 7, 0, &metas_for(&c));
        let warp = sm.warps[slots[0]].as_mut().expect("warp resident");
        assert_eq!(warp.unique, 7);
        assert!(warp.next_is_atomic());
        assert!(!warp.finished());
        warp.pc = 1;
        assert!(warp.finished());
        assert_eq!(warp.next_lock_occurrence(0x10), 0);
        assert_eq!(warp.next_lock_occurrence(0x10), 1);
        assert_eq!(warp.next_lock_occurrence(0x20), 0);
    }

    #[test]
    fn build_views_sorted_and_ready_gated() {
        let mut sm = sm();
        let c = cta(8, 32);
        sm.add_cta(&c, 0, 0, &metas_for(&c));
        let mut views = Vec::new();
        let bound = sm.build_views(0, 0, false, false, &mut views);
        assert_eq!(views.len(), 2, "scheduler 0 owns 2 of the 8 warps");
        assert!(views.windows(2).all(|w| w[0].unique < w[1].unique));
        assert!(views.iter().all(|v| v.ready));
        assert_eq!(bound, 0, "aggregate bound tracks the earliest next_ready");
        assert!(views.iter().all(|v| v.bound_at == 0));
        // Park every warp of scheduler 0: no pre-gating ready warp → empty,
        // and the aggregate bound reports "event-woken only".
        let slots: Vec<usize> = views.iter().map(|v| v.slot).collect();
        for slot in slots {
            sm.park(slot, WarpState::WaitMem, 0);
        }
        let bound = sm.build_views(0, 0, false, false, &mut views);
        assert!(views.is_empty());
        assert_eq!(bound, u64::MAX);
    }

    #[test]
    fn build_views_discards_a_dirty_buffer() {
        let mut sm = Sm::new(0, &GpuConfig::tiny(), SchedKind::Gwat);
        let c = atomic_heavy_cta();
        let slots = sm.add_cta(&c, 0, 0, &metas_for(&c));
        let ns = sm.num_schedulers();
        // Scheduler 1: one warp parked, one due only at cycle 9.
        let sched1: Vec<usize> = slots.iter().copied().filter(|s| s % ns == 1).collect();
        sm.park(sched1[0], WarpState::WaitMem, 0);
        sm.warps[sched1[1]].as_mut().expect("resident").next_ready = 9;
        // Scheduler 2: every warp parked, so its fresh result is empty.
        for &slot in slots.iter().filter(|s| *s % ns == 2) {
            sm.park(slot, WarpState::WaitFlush, 0);
        }
        let mut reused = Vec::new();
        for cycle in [0, 9] {
            // Schedulers 0 and 3 have ready warps, so each of them both
            // leaves the buffer dirty and refills a dirty one.
            for (dirty_from, sched) in [(0, 3), (3, 0), (0, 1), (0, 2), (2, 0), (3, 1)] {
                sm.build_views(dirty_from, 0, true, false, &mut reused);
                let mut fresh = Vec::new();
                let fresh_bound = sm.build_views(sched, cycle, true, false, &mut fresh);
                let bound = sm.build_views(sched, cycle, true, false, &mut reused);
                assert_eq!(
                    (&reused, bound),
                    (&fresh, fresh_bound),
                    "cycle {cycle}: scheduler {sched} after {dirty_from}"
                );
            }
        }
    }

    /// A CTA of 8 warps, each alternating atomics with ALU work, so warps
    /// keep reaching fresh atomics as they advance.
    fn atomic_heavy_cta() -> CtaSpec {
        let red = || Instr::Red {
            op: AtomicOp::AddF32,
            accesses: vec![AtomicAccess::new(0, 0, Value::F32(1.0))],
        };
        let alu = || Instr::Alu {
            cycles: 1,
            count: 1,
        };
        CtaSpec::new(
            0,
            (0..8)
                .map(|_| WarpProgram::new(vec![red(), alu(), red(), red(), alu(), red()], 32))
                .collect(),
        )
    }

    /// Mirrors an issue-walk visit that picks the warp in `slot` (if it is
    /// a ready view, and an atomic-next one when `atomic`): re-arm the
    /// scheduler's bound, `issue`, then fold the other views' bounds back
    /// in and re-evaluate the picked warp, as the issue walk does.
    fn visit(
        sm: &mut Sm,
        slot: usize,
        cycle: u64,
        det_aware: bool,
        atomic: bool,
        issue: impl FnOnce(&mut Sm),
    ) {
        let sched = slot % sm.num_schedulers();
        let mut views = Vec::new();
        sm.build_views(sched, cycle, det_aware, false, &mut views);
        let picked = |v: &&WarpView| v.slot == slot && v.ready && (v.next_is_atomic || !atomic);
        if !views.iter().any(|v| picked(&v)) {
            return;
        }
        sm.schedulers[sched].ready_bound = u64::MAX;
        issue(sm);
        for v in views.iter().filter(|v| v.slot != slot) {
            sm.schedulers[sched].note_ready(v.bound_at);
        }
        sm.note_slot_bound(slot, det_aware, false);
    }

    /// Drives random warp transitions, each mirroring an engine site, and
    /// checks after every step that each scheduler's incremental bound is
    /// no later than the exact scan, and that the per-visit install (what
    /// the issue walk does with `build_views`' aggregate) equals the
    /// `recompute_ready_bound` oracle. `det_aware` adds the engine's
    /// token-moving sites (atomic issue, exit, barrier arrival and release)
    /// so refused-warp parking is exercised.
    fn check_incremental_ready_bound(kind: SchedKind, det_aware: bool) {
        let mut rng = seeded_rng(0x243f_6a88_85a3_08d3);
        let mut sm = Sm::new(0, &GpuConfig::tiny(), kind);
        let c = if det_aware {
            atomic_heavy_cta()
        } else {
            cta(8, 32)
        };
        let mut next_base = 0;
        let ns = sm.num_schedulers();
        let transitions = if det_aware { 6 } else { 3 };
        for step in 0..2000u64 {
            let cycle = step;
            if sm.live_warps() == 0 {
                sm.add_cta(&c, next_base, cycle, &metas_for(&c));
                next_base += 8;
            }
            // One random warp transition: a park (`Sm::park`; no note —
            // stale-low is allowed), a wake (`Sm::wake`, which notes the
            // bound), an issue-side `next_ready` bump followed by the
            // engine's post-issue `note_slot_bound`, or one of the
            // token-moving sites, each followed by the note the engine
            // makes there.
            let occupied: Vec<usize> = (0..sm.warps.len())
                .filter(|&s| sm.warps[s].is_some())
                .collect();
            let slot = occupied[rng() as usize % occupied.len()];
            let w = sm.warps[slot].as_mut().expect("occupied slot");
            let (sched, unique, state) = (w.sched, w.unique, w.state);
            match rng() % transitions {
                0 => {
                    if state == WarpState::Ready {
                        sm.park(slot, WarpState::WaitMem, cycle);
                    }
                }
                1 => {
                    if state != WarpState::Ready {
                        sm.wake(slot, state, cycle);
                    }
                }
                2 => {
                    if state == WarpState::Ready {
                        w.next_ready = cycle + 1 + rng() % 4;
                        sm.note_slot_bound(slot, det_aware, false);
                    }
                }
                3 => {
                    // The holder issues its atomic and passes the token.
                    visit(&mut sm, slot, cycle, det_aware, true, |sm| {
                        let w = sm.warps[slot].as_mut().expect("resident");
                        w.pc += 1;
                        w.next_ready = cycle + 1;
                        sm.schedulers[sched]
                            .token_event(cycle + 1, |p| p.on_issue(unique, true, cycle));
                    });
                }
                4 => {
                    // The warp arrives at a barrier, passing the token on.
                    visit(&mut sm, slot, cycle, det_aware, false, |sm| {
                        sm.park(slot, WarpState::WaitBarrier, cycle);
                    });
                }
                _ => {
                    if rng().is_multiple_of(4) {
                        sm.retire_warp(slot, cycle);
                    }
                }
            }
            // The token-moving sites after an issue note `cycle + 1`: this
            // scheduler has issued, so the engine next consults the bound
            // for a later cycle. Compare from there on; the plain wake
            // sites are checked exactly.
            let floor = if det_aware { cycle + 1 } else { 0 };
            for s in 0..ns {
                let incremental = sm.schedulers[s].ready_bound.max(floor);
                let scanned = sm.build_views(s, cycle, det_aware, false, &mut Vec::new());
                assert!(
                    incremental <= scanned.max(floor),
                    "{kind:?} step {step}: incremental bound {incremental} exceeds \
                     the scanned bound {scanned} for scheduler {s}"
                );
                sm.schedulers[s].ready_bound = scanned;
                sm.recompute_ready_bound(s, det_aware, false);
                assert_eq!(
                    sm.schedulers[s].ready_bound, scanned,
                    "{kind:?} step {step}: installed aggregate diverges from the \
                     recompute oracle for scheduler {s}"
                );
            }
        }
    }

    #[test]
    fn incremental_ready_bound_matches_scan_on_random_transitions() {
        check_incremental_ready_bound(SchedKind::Gto, false);
        // GWAT parks every atomic-next warp but the token holder; the
        // token moves at atomic issues, exits and barrier arrivals.
        check_incremental_ready_bound(SchedKind::Gwat, true);
    }

    #[test]
    fn census_counts_live_and_refused_atomics() {
        for kind in [SchedKind::Gto, SchedKind::Gwat] {
            let det_aware = kind.is_determinism_aware();
            let mut sm = Sm::new(0, &GpuConfig::tiny(), kind);
            let c = cta(8, 32);
            let slots = sm.add_cta(&c, 0, 0, &metas_for(&c));
            assert!(sm.schedulers.iter().all(|s| s.live == 2));
            // Every warp waits at its atomic: GTO grants them all, GWAT
            // only each scheduler's token holder, so neither seals.
            assert!((0..4).all(|s| !sm.sealed(s, det_aware)), "{kind:?}");
            // Park each token holder (the lower unique) in flush-wait:
            // GWAT then seals on its one refused atomic, GTO does not.
            for &slot in &slots[..4] {
                set_state(&mut sm, slot, WarpState::WaitFlush, 0);
            }
            for s in 0..4 {
                assert_eq!(sm.sealed(s, det_aware), det_aware, "{kind:?}");
                assert_eq!(sm.sealed(s, det_aware), sealed_walk(&sm, s, det_aware));
            }
        }
    }

    /// Moves the warp in `slot` to `state` through the production
    /// transitions: [`Sm::wake`] into `Ready`, [`Sm::park`] out of it or
    /// from a barrier into the flush wait, and a wake then a park for a
    /// move the engine makes in two steps (say, memory wait to flush
    /// wait).
    fn set_state(sm: &mut Sm, slot: usize, state: WarpState, cycle: u64) {
        let old = sm.warps[slot].as_ref().expect("resident").state;
        if old == state {
            return;
        }
        let direct = old == WarpState::Ready
            || (old == WarpState::WaitBarrier && state == WarpState::WaitFlush);
        if !direct {
            assert!(
                sm.wake(slot, old, cycle),
                "slot {slot} is parked in {old:?}"
            );
        }
        if state != WarpState::Ready {
            sm.park(slot, state, cycle);
        }
    }

    /// Full-walk oracle for [`Sm::sealed`], the census formula it replaced:
    /// `live == flush_wait + barrier_wait + stuck`, where `stuck` counts
    /// the Ready atomic-next warps that the batch gate or the policy
    /// refuses, and stays 0 unless `det_aware`. It finds the scheduler's
    /// warps by their `sched` field rather than by slot stride.
    fn sealed_walk(sm: &Sm, sched: usize, det_aware: bool) -> bool {
        let s = &sm.schedulers[sched];
        let grant = s.policy.atomic_grant();
        let stuck = sm
            .warps
            .iter()
            .flatten()
            .filter(|w| w.sched == sched && w.state == WarpState::Ready && w.next_is_atomic())
            .filter(|w| !s.batch_may_issue_atomics(w.batch) || grant.refuses(w.unique))
            .count() as u32;
        let stuck = if det_aware { stuck } else { 0 };
        s.live == s.flush_wait + s.barrier_wait + stuck
    }

    /// One random step on `sm`, each mirroring an engine site: place a CTA
    /// of 1-8 atomic-heavy warps, park or wake a warp (memory, flush,
    /// barrier), issue an ALU or (if granted) an atomic, or retire a warp.
    /// Under GTRR it ends with the per-cycle pending-atomic reports.
    fn seal_step(sm: &mut Sm, rng: &mut impl FnMut() -> u64, next_base: &mut u64, cycle: u64) {
        let occupied: Vec<usize> = (0..sm.warps.len())
            .filter(|&s| sm.warps[s].is_some())
            .collect();
        if occupied.is_empty() || rng().is_multiple_of(8) {
            let mut c = atomic_heavy_cta();
            c.warps.truncate(1 + rng() as usize % 8);
            if sm.can_accept(&c) {
                sm.add_cta(&c, *next_base, cycle, &metas_for(&c));
                *next_base += c.warps.len() as u64;
            }
            return;
        }
        let slot = occupied[rng() as usize % occupied.len()];
        let w = sm.warps[slot].as_ref().expect("occupied slot");
        let (sched, unique, state) = (w.sched, w.unique, w.state);
        let (atomic, finished) = (w.next_is_atomic(), w.finished());
        let batch_open = sm.schedulers[sched].batch_may_issue_atomics(w.batch);
        let granted = !sm.schedulers[sched].policy.atomic_grant().refuses(unique);
        match rng() % 6 {
            0 => {
                let to = [WarpState::Ready, WarpState::WaitMem, WarpState::WaitFlush];
                let to = to[rng() as usize % 3];
                // A barrier waiter leaves only by release (to Ready or
                // flush-wait); only a Ready warp arrives at a barrier.
                if state != WarpState::WaitBarrier || to != WarpState::WaitMem {
                    set_state(sm, slot, to, cycle);
                }
            }
            1 if state == WarpState::Ready && !finished => {
                set_state(sm, slot, WarpState::WaitBarrier, cycle);
            }
            2 if state == WarpState::Ready && !finished && (!atomic || granted && batch_open) => {
                sm.warps[slot].as_mut().expect("resident").pc += 1;
                let sc = &mut sm.schedulers[sched];
                sc.token_event(cycle + 1, |p| p.on_issue(unique, atomic, cycle));
            }
            3 if finished || rng().is_multiple_of(4) => {
                set_state(sm, slot, WarpState::Ready, cycle);
                sm.retire_warp(slot, cycle);
            }
            _ => {}
        }
        if sm.schedulers[0].policy.kind() == SchedKind::Gtrr {
            sm.note_pending_atomics();
        }
    }

    /// Drives seeded random placement, state-change and retirement
    /// sequences and checks after every step that [`Sm::sealed`] agrees
    /// with the full-walk oracle on every scheduler. Also requires each
    /// way of answering to occur: sealed by the counts, sealed only with
    /// refused atomics counted, and not sealed.
    #[test]
    fn seal_matches_full_walk_on_random_sequences() {
        for kind in [SchedKind::Gto, SchedKind::Gwat, SchedKind::Gtrr] {
            let det_aware = kind.is_determinism_aware();
            let mut rng = seeded_rng(0x4528_21e6_38d0_1377);
            let mut sm = Sm::new(0, &GpuConfig::tiny(), kind);
            let (mut next_base, mut seen) = (0, [0u32; 3]);
            for step in 0..4000u64 {
                seal_step(&mut sm, &mut rng, &mut next_base, step);
                for s in 0..sm.num_schedulers() {
                    let sealed = sm.sealed(s, det_aware);
                    assert_eq!(
                        sealed,
                        sealed_walk(&sm, s, det_aware),
                        "{kind:?} step {step} sched {s}"
                    );
                    let sc = &sm.schedulers[s];
                    let by_counts = sc.live == sc.flush_wait + sc.barrier_wait;
                    seen[usize::from(sealed) + usize::from(by_counts)] += 1;
                }
            }
            assert!(seen[0] > 0 && seen[2] > 0, "{kind:?}: {seen:?}");
            // Only a determinism-aware policy seals on refused atomics.
            assert_eq!(seen[1] > 0, det_aware, "{kind:?}: {seen:?}");
        }
    }

    /// [`ModelCtx::sealed`] over every SM range of a 4-SM machine, from
    /// every witness (in range, out of range, and past the machine), must
    /// equal the oracle's conjunction, and a "not sealed" answer must leave
    /// the witness on a scheduler of the range that is not sealed.
    #[test]
    fn seal_query_matches_oracle_from_any_witness() {
        let cfg = GpuConfig::tiny();
        let per_sm = cfg.num_schedulers_per_sm;
        for kind in [SchedKind::Gto, SchedKind::Gwat, SchedKind::Gtrr] {
            let det_aware = kind.is_determinism_aware();
            let mut rng = seeded_rng(0xa409_3822_299f_31d0);
            let mut sms: Vec<Sm> = (0..4).map(|id| Sm::new(id, &cfg, kind)).collect();
            let mut next_base = 0;
            let (mut icnt, mut stats, mut wakes) =
                (Interconnect::new(&cfg), SimStats::default(), Vec::new());
            for step in 0..600u64 {
                for sm in &mut sms {
                    seal_step(sm, &mut rng, &mut next_base, step);
                }
                let oracle: Vec<bool> = (0..4 * per_sm)
                    .map(|g| sealed_walk(&sms[g / per_sm], g % per_sm, det_aware))
                    .collect();
                for lo in 0..=4 {
                    for hi in lo..=4 {
                        let want = oracle[lo * per_sm..hi * per_sm].iter().all(|&b| b);
                        for start in 0..4 * per_sm + 2 {
                            let mut witness = start;
                            let mut ctx = ModelCtx {
                                cycle: step,
                                cfg: &cfg,
                                icnt: &mut icnt,
                                stats: &mut stats,
                                tracer: None,
                                sms: &sms,
                                det_aware,
                                seal_witness: &mut witness,
                                kernel_fully_dispatched: false,
                                wakes: &mut wakes,
                            };
                            let got = ctx.sealed(lo..hi);
                            let at =
                                || format!("{kind:?} step {step} SMs {lo}..{hi} witness {start}");
                            assert_eq!(got, want, "{}", at());
                            if got {
                                assert_eq!(witness, start, "{}", at());
                            } else {
                                let range = lo * per_sm..hi * per_sm;
                                assert!(range.contains(&witness) && !oracle[witness], "{}", at());
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ready_bound_is_a_lower_bound_until_recompute() {
        let mut sm = sm();
        let ns = sm.num_schedulers();
        let c = cta(8, 32);
        let slots = sm.add_cta(&c, 0, 5, &metas_for(&c));
        // Spawn at cycle 5 lowers every scheduler's bound to 5.
        assert_eq!(sm.ready_bound(), 5);
        assert_eq!(sm.schedulers[0].ready_bound, 5);
        // Park scheduler 0's warps; the cached bound is stale-low (allowed)
        // until an explicit recompute tightens it.
        for &slot in slots.iter().filter(|&&s| s % ns == 0) {
            sm.park(slot, WarpState::WaitMem, 5);
        }
        assert_eq!(sm.schedulers[0].ready_bound, 5, "stale-low is allowed");
        sm.recompute_ready_bound(0, false, false);
        assert_eq!(sm.schedulers[0].ready_bound, u64::MAX);
        // A wake lowers it again; raising via note_ready is impossible.
        sm.schedulers[0].note_ready(9);
        assert_eq!(sm.schedulers[0].ready_bound, 9);
        sm.schedulers[0].note_ready(100);
        assert_eq!(sm.schedulers[0].ready_bound, 9);
    }
}
