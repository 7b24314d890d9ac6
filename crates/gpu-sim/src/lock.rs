//! Deterministic ticket-lock modeling for the Fig. 2 microbenchmark.
//!
//! Section II-C of the paper compares non-deterministic `atomicAdd` against
//! three *deterministic* locking reductions: a centralized Test&Set ticket
//! lock, a variant with software exponential backoff, and Test&Test&Set.
//! All three serve threads in global thread-id order (every thread holds the
//! same ticket on every run), so the reduction order — and therefore the
//! floating-point result — is deterministic even on the non-deterministic
//! baseline GPU. What differs is cost: the lock serializes *every* critical
//! section through one home partition, and the variants differ in how much
//! spinning traffic and idle hand-off time each acquisition adds.
//!
//! The [`LockManager`] models this at the timing level: each active lane of
//! a [`LockedSection`](crate::isa::Instr::LockedSection) instruction enqueues
//! a ticket derived from its deterministic warp id and lane; tickets are
//! served strictly in ascending order, each service applying the lane's
//! critical-section atomic to the functional memory and charging a
//! variant-specific hand-off time.

use std::collections::{BTreeMap, HashMap};

use crate::config::GpuConfig;
use crate::isa::{AtomicAccess, AtomicOp, Instr, LockKind, WarpProgram};
use crate::mem::packet::{RopOp, WarpRef};
use crate::values::ValueMem;

/// Encodes the deterministic ticket for a lane of a warp.
///
/// Ordering is warp `unique` id, then occurrence of the locked section
/// within the warp's program, then lane — i.e. global thread-id order for
/// the single-section microbenchmarks.
pub fn ticket_for(unique: u64, occurrence: u32, lane: u8) -> u64 {
    (unique << 14) | ((occurrence as u64 & 0xff) << 6) | (lane as u64 & 0x3f)
}

#[derive(Debug, Clone)]
struct PendingLane {
    op: RopOp,
    warp: WarpRef,
    kind: LockKind,
    critical_cycles: u32,
}

#[derive(Debug)]
struct LockState {
    /// Every ticket that will ever arrive, ascending (from the pre-scan).
    expected: Vec<u64>,
    /// Index of the next ticket to serve.
    serve_idx: usize,
    /// Arrived, unserved lanes keyed by ticket.
    arrived: BTreeMap<u64, PendingLane>,
    /// The lane currently holding the lock and its completion cycle.
    in_service: Option<(u64, u64)>, // (done_cycle, ticket)
    services: u64,
}

/// Global deterministic ticket-lock service.
#[derive(Debug, Default)]
pub struct LockManager {
    locks: HashMap<u64, LockState>,
    /// Outstanding lane count per waiting warp.
    waiting_warps: HashMap<WarpRef, u32>,
    base_roundtrip: u64,
}

/// The seed-invariant product of a whole-grid lock pre-scan: every ticket
/// that will ever arrive at each lock address, sorted ascending.
///
/// The expected-ticket sets are a pure function of the kernel's warp
/// programs and deterministic warp ids — never of the timing seed — so the
/// engine builds one `LockPrescan` per kernel (as part of its
/// [`KernelStatics`](crate::engine::KernelStatics)) and installs it into
/// the [`LockManager`] with [`install_prescan`](LockManager::install_prescan).
#[derive(Debug, Default, Clone)]
pub struct LockPrescan {
    /// Per lock address: the full expected ticket set, ascending. Sorted by
    /// address so installation order is deterministic (the `LockManager`'s
    /// own map is unordered, but its behavior only depends on contents).
    expected: Vec<(u64, Vec<u64>)>,
}

impl LockPrescan {
    /// Accumulates the expected tickets of one warp program, exactly as
    /// [`LockManager::prescan_warp`] would.
    pub fn scan_warp(&mut self, program: &WarpProgram, unique: u64) {
        let mut occurrence: HashMap<u64, u32> = HashMap::new();
        for instr in &program.instrs {
            if let Instr::LockedSection {
                lock_addr,
                accesses,
                ..
            } = instr
            {
                let occ = occurrence.entry(*lock_addr).or_insert(0);
                let tickets = match self.expected.iter_mut().find(|(a, _)| a == lock_addr) {
                    Some((_, tickets)) => tickets,
                    None => {
                        self.expected.push((*lock_addr, Vec::new()));
                        &mut self.expected.last_mut().expect("just pushed").1
                    }
                };
                for acc in accesses {
                    tickets.push(ticket_for(unique, *occ, acc.lane));
                }
                *occ += 1;
            }
        }
    }

    /// Sorts the ticket sets; call once after all scans.
    ///
    /// # Panics
    ///
    /// Panics if two lanes produced the same ticket (a workload bug).
    pub fn finish(&mut self) {
        self.expected.sort_unstable_by_key(|(addr, _)| *addr);
        for (addr, tickets) in &mut self.expected {
            tickets.sort_unstable();
            let before = tickets.len();
            tickets.dedup();
            assert_eq!(
                before,
                tickets.len(),
                "duplicate lock tickets for lock 0x{addr:x}"
            );
        }
    }
}

impl LockManager {
    /// Creates a manager; `cfg` calibrates the memory round-trip cost that
    /// every lock hand-off pays.
    pub fn new(cfg: &GpuConfig) -> Self {
        Self {
            locks: HashMap::new(),
            waiting_warps: HashMap::new(),
            base_roundtrip: 2 * (cfg.icnt_latency as u64 + 2)
                + cfg.l2_hit_latency as u64
                + cfg.rop_latency as u64,
        }
    }

    /// Registers the expected ticket set of one warp program (called by the
    /// engine for every warp at kernel launch, before any execution). `unique`
    /// must be the same deterministic id later passed to [`acquire`].
    ///
    /// [`acquire`]: Self::acquire
    pub fn prescan_warp(&mut self, program: &WarpProgram, unique: u64) {
        let mut occurrence: HashMap<u64, u32> = HashMap::new();
        for instr in &program.instrs {
            if let Instr::LockedSection {
                lock_addr,
                accesses,
                ..
            } = instr
            {
                let occ = occurrence.entry(*lock_addr).or_insert(0);
                let state = self.locks.entry(*lock_addr).or_insert_with(|| LockState {
                    expected: Vec::new(),
                    serve_idx: 0,
                    arrived: BTreeMap::new(),
                    in_service: None,
                    services: 0,
                });
                for acc in accesses {
                    state.expected.push(ticket_for(unique, *occ, acc.lane));
                }
                *occ += 1;
            }
        }
    }

    /// Sorts the expected ticket lists; call once after all pre-scans.
    ///
    /// # Panics
    ///
    /// Panics if two lanes produced the same ticket (a workload bug).
    pub fn finish_prescan(&mut self) {
        for state in self.locks.values_mut() {
            state.expected.sort_unstable();
            let before = state.expected.len();
            state.expected.dedup();
            assert_eq!(before, state.expected.len(), "duplicate lock tickets");
        }
    }

    /// Installs a finished [`LockPrescan`] as this manager's expected
    /// ticket sets — equivalent to replaying [`prescan_warp`] for every
    /// warp followed by [`finish_prescan`], but a memcpy of the already
    /// sorted vectors instead of a re-walk of every program.
    ///
    /// [`prescan_warp`]: Self::prescan_warp
    /// [`finish_prescan`]: Self::finish_prescan
    pub fn install_prescan(&mut self, pre: &LockPrescan) {
        debug_assert!(self.locks.is_empty(), "installing over live lock state");
        for (addr, tickets) in &pre.expected {
            self.locks.insert(
                *addr,
                LockState {
                    expected: tickets.clone(),
                    serve_idx: 0,
                    arrived: BTreeMap::new(),
                    in_service: None,
                    services: 0,
                },
            );
        }
    }

    /// A warp issued a `LockedSection`: enqueue each active lane.
    ///
    /// Returns the number of lanes enqueued; the warp must block until the
    /// manager reports it complete from [`tick`](Self::tick).
    #[allow(clippy::too_many_arguments)]
    pub fn acquire(
        &mut self,
        warp: WarpRef,
        unique: u64,
        occurrence: u32,
        kind: LockKind,
        lock_addr: u64,
        accesses: &[AtomicAccess],
        critical_cycles: u32,
        op: AtomicOp,
    ) -> u32 {
        let state = self
            .locks
            .get_mut(&lock_addr)
            .expect("lock not pre-scanned");
        for acc in accesses {
            state.arrived.insert(
                ticket_for(unique, occurrence, acc.lane),
                PendingLane {
                    op: RopOp {
                        addr: acc.addr,
                        op,
                        arg: acc.arg,
                    },
                    warp,
                    kind,
                    critical_cycles,
                },
            );
        }
        *self.waiting_warps.entry(warp).or_insert(0) += accesses.len() as u32;
        accesses.len() as u32
    }

    fn handoff_cycles(base: u64, kind: LockKind, critical: u32, waiters: u64) -> u64 {
        let crit = critical as u64;
        // Contention effects saturate: once the home partition's bandwidth
        // is fully occupied by failed attempts, more waiters do not make a
        // single hand-off slower.
        let w = waiters.min(128);
        match kind {
            // Continuous polling: every waiter's failed Test&Set congests the
            // home partition, so hand-off cost grows with contention.
            LockKind::TestAndSet => 2 * base + crit + 4 * w,
            // Exponential backoff: less traffic, but the lock sits free for
            // part of the backoff window before the next winner notices.
            LockKind::TestAndSetBackoff => 2 * base + crit + base / 2 + w,
            // Spin on a read (cache-hit local), attempt Test&Set only when
            // the lock looks free: cheapest hand-off, mild contention term.
            LockKind::TestAndTestAndSet => 2 * base + crit + w / 4 + 4,
        }
    }

    /// Advances lock service; applies completed critical sections to
    /// `values` and returns warps whose every lane has been served.
    pub fn tick(&mut self, cycle: u64, values: &mut ValueMem) -> Vec<WarpRef> {
        let mut released = Vec::new();
        let base = self.base_roundtrip;
        for state in self.locks.values_mut() {
            // Complete the current holder.
            if let Some((done, ticket)) = state.in_service {
                if done > cycle {
                    continue;
                }
                let lane = state.arrived.remove(&ticket).expect("holder was arrived");
                values.apply_atomic(lane.op.addr, lane.op.op, lane.op.arg);
                state.services += 1;
                state.serve_idx += 1;
                state.in_service = None;
                let left = self
                    .waiting_warps
                    .get_mut(&lane.warp)
                    .expect("warp is waiting");
                *left -= 1;
                if *left == 0 {
                    self.waiting_warps.remove(&lane.warp);
                    released.push(lane.warp);
                }
            }
            // Start serving the next expected ticket if it has arrived.
            if state.in_service.is_none() {
                if let Some(&ticket) = state.expected.get(state.serve_idx) {
                    if let Some(lane) = state.arrived.get(&ticket) {
                        let waiters = state.arrived.len() as u64;
                        let dur =
                            Self::handoff_cycles(base, lane.kind, lane.critical_cycles, waiters);
                        state.in_service = Some((cycle + dur, ticket));
                    }
                }
            }
        }
        released
    }

    /// Whether any lane is queued or in service.
    /// One-line queue summary for stall diagnostics: per lock address the
    /// served/arrived/expected ticket counts and the in-service ticket,
    /// plus every warp still blocked on a lock.
    pub fn queue_summary(&self) -> String {
        let mut locks: Vec<String> = self
            .locks
            .iter()
            .map(|(addr, s)| {
                format!(
                    "lock 0x{addr:x}: served {}/{} expected, {} arrived unserved, in_service={:?}",
                    s.serve_idx,
                    s.expected.len(),
                    s.arrived.len(),
                    s.in_service
                )
            })
            .collect();
        locks.sort();
        let mut warps: Vec<String> = self
            .waiting_warps
            .iter()
            .map(|(w, lanes)| format!("sm{}.slot{} ({lanes} lanes)", w.sm, w.slot))
            .collect();
        warps.sort();
        format!(
            "[{}] waiting warps: [{}]",
            locks.join("; "),
            warps.join(", ")
        )
    }

    pub fn is_busy(&self) -> bool {
        self.locks.values().any(|s| !s.arrived.is_empty())
    }

    /// Total critical sections served so far across all locks.
    pub fn services(&self) -> u64 {
        self.locks.values().map(|s| s.services).sum()
    }

    /// Earliest future completion cycle, for engine fast-forwarding.
    /// Returns `Some(0)` ("immediately") when a lock could start serving.
    pub fn next_event_cycle(&self) -> Option<u64> {
        let mut next: Option<u64> = None;
        for s in self.locks.values() {
            match s.in_service {
                Some((done, _)) => next = Some(next.map_or(done, |n| n.min(done))),
                None => {
                    if let Some(&ticket) = s.expected.get(s.serve_idx) {
                        if s.arrived.contains_key(&ticket) {
                            return Some(0);
                        }
                    }
                }
            }
        }
        next
    }

    /// Clears per-kernel state (expected sets are per kernel launch).
    pub fn reset(&mut self) {
        debug_assert!(!self.is_busy(), "resetting lock manager with waiters");
        self.locks.clear();
        self.waiting_warps.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Value;

    const LOCK: u64 = 0xF000;

    fn locked_program(unique_lanes: usize) -> WarpProgram {
        WarpProgram::new(
            vec![Instr::LockedSection {
                kind: LockKind::TestAndSet,
                lock_addr: LOCK,
                op: AtomicOp::AddF32,
                accesses: (0..unique_lanes)
                    .map(|l| AtomicAccess::new(l, 0x100, Value::F32(1.0)))
                    .collect(),
                critical_cycles: 10,
            }],
            unique_lanes,
        )
    }

    fn manager_with(programs: &[(u64, &WarpProgram)]) -> LockManager {
        let mut m = LockManager::new(&GpuConfig::tiny());
        for (unique, p) in programs {
            m.prescan_warp(p, *unique);
        }
        m.finish_prescan();
        m
    }

    #[test]
    fn tickets_order_by_warp_then_lane() {
        assert!(ticket_for(0, 0, 0) < ticket_for(0, 0, 1));
        assert!(ticket_for(0, 0, 63) < ticket_for(0, 1, 0));
        assert!(ticket_for(0, 255, 63) < ticket_for(1, 0, 0));
    }

    #[test]
    fn serves_in_ticket_order_across_warps() {
        let p0 = locked_program(2);
        let p1 = locked_program(2);
        let mut m = manager_with(&[(0, &p0), (1, &p1)]);
        let w0 = WarpRef { sm: 0, slot: 0 };
        let w1 = WarpRef { sm: 0, slot: 1 };
        // Warp 1 arrives FIRST, but warp 0 holds smaller tickets.
        if let Instr::LockedSection { accesses, .. } = &p1.instrs[0] {
            m.acquire(
                w1,
                1,
                0,
                LockKind::TestAndSet,
                LOCK,
                accesses,
                10,
                AtomicOp::AddF32,
            );
        }
        let mut values = ValueMem::new();
        // Nothing can be served: ticket 0 hasn't arrived.
        for cycle in 0..1000 {
            assert!(m.tick(cycle, &mut values).is_empty());
        }
        assert_eq!(m.services(), 0);
        if let Instr::LockedSection { accesses, .. } = &p0.instrs[0] {
            m.acquire(
                w0,
                0,
                0,
                LockKind::TestAndSet,
                LOCK,
                accesses,
                10,
                AtomicOp::AddF32,
            );
        }
        let mut released = Vec::new();
        for cycle in 1000..2_000_000 {
            released.extend(m.tick(cycle, &mut values));
            if !m.is_busy() {
                break;
            }
        }
        // Warp 0's lanes finish before warp 1's.
        assert_eq!(released, vec![w0, w1]);
        assert_eq!(values.read_f32(0x100), 4.0);
        assert_eq!(m.services(), 4);
    }

    #[test]
    fn serialization_cost_scales_with_lanes() {
        let run = |lanes: usize| -> u64 {
            let p = locked_program(lanes);
            let mut m = manager_with(&[(0, &p)]);
            let w = WarpRef { sm: 0, slot: 0 };
            if let Instr::LockedSection { accesses, .. } = &p.instrs[0] {
                m.acquire(
                    w,
                    0,
                    0,
                    LockKind::TestAndSet,
                    LOCK,
                    accesses,
                    10,
                    AtomicOp::AddF32,
                );
            }
            let mut values = ValueMem::new();
            const HORIZON: u64 = 10_000_000;
            for cycle in 0..HORIZON {
                m.tick(cycle, &mut values);
                if !m.is_busy() {
                    return cycle;
                }
            }
            panic!(
                "lock 0x{LOCK:x} never drained: warp sm{}.slot{} with {lanes} lanes \
                 still busy at cycle {HORIZON}; {}",
                w.sm,
                w.slot,
                m.queue_summary()
            );
        };
        let t8 = run(8);
        let t32 = run(32);
        assert!(t32 > t8 * 3, "serialized cost should scale: {t8} vs {t32}");
    }

    #[test]
    fn variant_costs_ordered() {
        let cost = |kind: LockKind| -> u64 {
            let m = LockManager::new(&GpuConfig::tiny());
            LockManager::handoff_cycles(m.base_roundtrip, kind, 10, 64)
        };
        let ts = cost(LockKind::TestAndSet);
        let bo = cost(LockKind::TestAndSetBackoff);
        let tts = cost(LockKind::TestAndTestAndSet);
        assert!(
            ts > bo,
            "TS ({ts}) should cost more than BO ({bo}) under contention"
        );
        assert!(bo > tts, "BO ({bo}) should cost more than TTS ({tts})");
    }

    #[test]
    fn deterministic_result_regardless_of_arrival() {
        // Arrival order differs; ticket order (and thus the f32 sum) must not.
        let vals = [1.0e8f32, 1.0, -1.0e8, 0.5];
        let program_for = |unique: u64| {
            WarpProgram::new(
                vec![Instr::LockedSection {
                    kind: LockKind::TestAndTestAndSet,
                    lock_addr: LOCK,
                    op: AtomicOp::AddF32,
                    accesses: vec![AtomicAccess::new(
                        0,
                        0x40,
                        Value::F32(vals[unique as usize]),
                    )],
                    critical_cycles: 5,
                }],
                1,
            )
        };
        let run = |arrival_order: &[u64]| -> u32 {
            let programs: Vec<WarpProgram> = (0..4).map(program_for).collect();
            let refs: Vec<(u64, &WarpProgram)> =
                (0..4u64).map(|u| (u, &programs[u as usize])).collect();
            let mut m = manager_with(&refs);
            let mut values = ValueMem::new();
            let mut cycle = 0u64;
            for &u in arrival_order {
                if let Instr::LockedSection { accesses, .. } = &programs[u as usize].instrs[0] {
                    m.acquire(
                        WarpRef {
                            sm: 0,
                            slot: u as usize,
                        },
                        u,
                        0,
                        LockKind::TestAndTestAndSet,
                        LOCK,
                        accesses,
                        5,
                        AtomicOp::AddF32,
                    );
                }
                // Stagger arrivals.
                for _ in 0..100 {
                    m.tick(cycle, &mut values);
                    cycle += 1;
                }
            }
            while m.is_busy() {
                m.tick(cycle, &mut values);
                cycle += 1;
            }
            values.read_bits(0x40)
        };
        let a = run(&[0, 1, 2, 3]);
        let b = run(&[3, 2, 1, 0]);
        assert_eq!(a, b, "ticket lock must be order-deterministic");
    }

    #[test]
    #[should_panic(expected = "not pre-scanned")]
    fn acquire_without_prescan_panics() {
        let mut m = LockManager::new(&GpuConfig::tiny());
        m.acquire(
            WarpRef { sm: 0, slot: 0 },
            0,
            0,
            LockKind::TestAndSet,
            LOCK,
            &[AtomicAccess::new(0, 0, Value::F32(1.0))],
            1,
            AtomicOp::AddF32,
        );
    }

    #[test]
    fn install_prescan_matches_per_warp_prescan() {
        // The standalone pre-scan plus install must leave the manager in a
        // state behaviorally identical to the classic per-warp walk: same
        // serve order, same release order, same functional result.
        let programs: Vec<WarpProgram> = (0..3).map(|_| locked_program(2)).collect();
        let drive = |mut m: LockManager| -> (Vec<WarpRef>, u32, u64) {
            let mut values = ValueMem::new();
            for (u, p) in programs.iter().enumerate() {
                if let Instr::LockedSection { accesses, .. } = &p.instrs[0] {
                    m.acquire(
                        WarpRef { sm: 0, slot: u },
                        u as u64,
                        0,
                        LockKind::TestAndSet,
                        LOCK,
                        accesses,
                        10,
                        AtomicOp::AddF32,
                    );
                }
            }
            let mut released = Vec::new();
            let mut cycle = 0u64;
            while m.is_busy() {
                released.extend(m.tick(cycle, &mut values));
                cycle += 1;
            }
            (released, values.read_bits(0x100), m.services())
        };
        let classic = manager_with(&[(0, &programs[0]), (1, &programs[1]), (2, &programs[2])]);
        let mut pre = LockPrescan::default();
        for (u, p) in programs.iter().enumerate() {
            pre.scan_warp(p, u as u64);
        }
        pre.finish();
        let mut installed = LockManager::new(&GpuConfig::tiny());
        installed.install_prescan(&pre);
        assert_eq!(drive(classic), drive(installed));
    }

    #[test]
    #[should_panic(expected = "duplicate lock tickets")]
    fn prescan_rejects_duplicate_tickets() {
        let p = locked_program(1);
        let mut pre = LockPrescan::default();
        // Same unique id twice → identical tickets.
        pre.scan_warp(&p, 0);
        pre.scan_warp(&p, 0);
        pre.finish();
    }

    #[test]
    fn reset_clears() {
        let p = locked_program(1);
        let mut m = manager_with(&[(0, &p)]);
        assert!(!m.is_busy());
        m.reset();
        assert_eq!(m.services(), 0);
    }
}
