//! Memory partition: an L2 slice, a ROP atomic unit, and a DRAM channel.
//!
//! Each partition owns a slice of the address space (see
//! [`super::partition_of`]). Load and store requests probe the L2 slice and
//! fall through to DRAM on misses. Atomic operations are performed by the
//! ROP unit — the GPU's raster-operations pipeline, which on real hardware
//! executes global atomics next to the L2 — in strict queue order, which is
//! exactly the property the paper's flush protocol relies on: whoever
//! controls the ROP queue order controls the floating-point reduction order.
//!
//! Execution models enqueue atomic work via [`MemPartition::enqueue_rop`]:
//! the baseline enqueues transactions in (non-deterministic) arrival order,
//! while DAB's flush logic reorders arrivals into a deterministic round-robin
//! order first (Fig. 8).

use std::collections::{BTreeMap, VecDeque};

use crate::config::GpuConfig;
use crate::ndet::NdetSource;
use crate::values::ValueMem;

use super::cache::{Probe, SectoredCache};
use super::dram::{Dram, DramUse};
use super::packet::{AtomKind, Packet, Payload, RopOp, WarpRef};

/// Who gets the acknowledgement when a unit of ROP work retires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckTarget {
    /// Acknowledge an atomic transaction to its issuing warp.
    Warp {
        /// Issuing warp.
        warp: WarpRef,
        /// `red` or `atom` semantics.
        kind: AtomKind,
        /// Issuing warp's grid-wide unique id; for `atom` work the ROP
        /// folds the returned old values into the value memory's outcome
        /// digest under this schedule-invariant observer.
        unique: u64,
    },
    /// Acknowledge a DAB flush transaction to its source SM's controller.
    FlushSm {
        /// Source SM.
        sm: usize,
    },
    /// No acknowledgement (used by tests and lock modeling).
    None,
}

/// One unit of work for the ROP: a vector of atomics plus an ack target.
#[derive(Debug, Clone, PartialEq)]
pub struct RopWork {
    /// Operations applied in vector order.
    pub ops: Vec<RopOp>,
    /// Completion notification target.
    pub ack: AckTarget,
}

#[derive(Debug)]
struct RopState {
    queue: VecDeque<RopWork>,
    /// Index of the next op within the queue head.
    op_index: usize,
    /// Sector the head op is waiting on from DRAM, if any.
    wait_fill: Option<u64>,
    /// Cycle `wait_fill` was set. Fill-stall cycles are computed
    /// arithmetically when the fill returns (`arrival - set - 1`, the
    /// cycles a per-tick counter would have seen) rather than counted per
    /// tick, so the statistic does not depend on how many idle cycles the
    /// engine actually visits.
    wait_fill_since: u64,
    /// The head op's L2 miss has been counted: DRAM admitted its fill.
    op_missed: bool,
    /// The head op's DRAM refusal has been counted.
    op_refused: bool,
    /// The head op waits for a DRAM slot: DRAM refused its fill and its
    /// line was absent, so probing it again stamps nothing. It is probed
    /// again only once a DRAM slot frees or its line fills.
    waits: bool,
}

/// A load or store an L2 MSHR or a DRAM queue slot refused, queued in
/// arrival order to be offered again.
#[derive(Debug, Clone, Copy)]
struct Refused {
    /// The request: a store if `store`, else a load.
    store: bool,
    sector_addr: u64,
    warp: WarpRef,
    /// The refusing probe found the line absent, so another offer stamps
    /// no line and counts nothing: the request waits, and is offered again
    /// only once its cause may have lifted ([`MemPartition::may_admit`]).
    /// A request whose line was resident (a sector miss) re-stamps LRU at
    /// every offer, so it is offered every cycle.
    waits: bool,
    /// The partition's MSHR allocation count when the request was last
    /// found not admissible: until it moves, no MSHR for its sector can
    /// have appeared.
    allocs_seen: u64,
}

/// Counters exported by a partition for whole-run statistics.
///
/// Every request counts once, however often it is offered: one L2 access
/// and at most one miss when the L2 admits it (a load or store that hits
/// or gets its MSHR or DRAM slot, a ROP op when it applies), and one
/// reservation failure the first time an L2 MSHR or a DRAM queue slot
/// refuses it. A request that waits and is offered again counts nothing
/// more, so no counter depends on how often a refusal retries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// L2 accesses (loads, stores, atomics), one per admitted request.
    pub l2_accesses: u64,
    /// L2 misses, at most one per admitted request.
    pub l2_misses: u64,
    /// Requests refused for an L2 MSHR or a DRAM queue slot, once each.
    pub l2_reservation_fails: u64,
    /// Atomic operations retired by the ROP.
    pub rop_ops: u64,
    /// Cycles the ROP spent stalled waiting on DRAM fills.
    pub rop_fill_stall_cycles: u64,
    /// DRAM accesses performed.
    pub dram_accesses: u64,
}

/// A memory sub-partition.
#[derive(Debug)]
pub struct MemPartition {
    id: usize,
    cfg_l2_hit_latency: u32,
    cfg_rop_latency: u32,
    rop_throughput: usize,
    flit_size: usize,
    l2: SectoredCache,
    dram: Dram,
    rop: RopState,
    /// L2 MSHRs: sector address → load waiters.
    mshrs: BTreeMap<u64, Vec<WarpRef>>,
    mshr_capacity: usize,
    /// Requests that could not enter DRAM/MSHR yet, in arrival order.
    retry: VecDeque<Refused>,
    /// How many of `retry` do not wait (their line was resident).
    retry_resident: usize,
    /// A cause of a waiting request's refusal may have lifted since the
    /// last offer pass: a DRAM slot or an L2 MSHR freed, or an MSHR was
    /// allocated (perhaps for the request's own sector).
    retry_dirty: bool,
    /// Lines the DRAM filled this tick; a waiting request or ROP op on
    /// one of them may now hit.
    filled_lines: Vec<u64>,
    /// L2 MSHRs allocated so far.
    mshr_allocs: u64,
    /// The sector of each MSHR allocation no waiting request has seen yet,
    /// with the allocation count before it.
    alloc_log: Vec<(u64, u64)>,
    line_size: u64,
    /// Responses scheduled for a future cycle.
    pending_responses: Vec<(u64, Packet)>,
    /// The earliest cycle in `pending_responses` (`u64::MAX` when empty),
    /// kept so [`next_event_cycle`](Self::next_event_cycle) scans nothing.
    next_response: u64,
    stats: PartitionStats,
    sector_size: u64,
}

impl MemPartition {
    /// Builds partition `id` from the configuration. `dram_jitter` is the
    /// maximum injected DRAM latency perturbation.
    pub fn new(id: usize, cfg: &GpuConfig, dram_jitter: u32) -> Self {
        Self {
            id,
            cfg_l2_hit_latency: cfg.l2_hit_latency,
            cfg_rop_latency: cfg.rop_latency,
            rop_throughput: cfg.rop_throughput,
            flit_size: cfg.icnt_flit_size,
            l2: SectoredCache::new(
                cfg.l2_slice_size(),
                cfg.l2_assoc,
                cfg.line_size,
                cfg.sector_size,
            ),
            dram: Dram::new(cfg, dram_jitter),
            rop: RopState {
                queue: VecDeque::new(),
                op_index: 0,
                wait_fill: None,
                wait_fill_since: 0,
                op_missed: false,
                op_refused: false,
                waits: false,
            },
            mshrs: BTreeMap::new(),
            mshr_capacity: cfg.l2_mshrs,
            retry: VecDeque::new(),
            retry_resident: 0,
            retry_dirty: false,
            filled_lines: Vec::new(),
            mshr_allocs: 0,
            alloc_log: Vec::new(),
            line_size: cfg.line_size as u64,
            pending_responses: Vec::new(),
            next_response: u64::MAX,
            stats: PartitionStats::default(),
            sector_size: cfg.sector_size as u64,
        }
    }

    /// This partition's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Statistic counters so far.
    pub fn stats(&self) -> PartitionStats {
        self.stats
    }

    /// Number of ROP work items queued (including the in-progress head).
    pub fn rop_queue_len(&self) -> usize {
        self.rop.queue.len()
    }

    /// Enqueues atomic work for the ROP, in deterministic queue order.
    pub fn enqueue_rop(&mut self, work: RopWork) {
        self.rop.queue.push_back(work);
    }

    /// Evicts the L2 sector containing `addr`; used by the virtual-write-
    /// queue feasibility experiment (Section V) where each out-of-order
    /// flush atomic repurposes an L2 sector as reorder buffering.
    ///
    /// An eviction never lifts a waiting request's cause: the request's
    /// line was absent when it was refused, and stays absent.
    pub fn evict_sector_for_vwq(&mut self, addr: u64) {
        self.l2.evict_sector(addr);
    }

    /// The L2 slice's tag store, for inspection.
    pub fn l2(&self) -> &SectoredCache {
        &self.l2
    }

    /// Handles one arrived request packet (from the interconnect).
    ///
    /// `FlushEntry`/`PreFlush` packets must be routed to the execution model
    /// by the engine instead; passing one here panics.
    ///
    /// # Panics
    ///
    /// Panics on response payloads or DAB flush payloads.
    pub fn handle_request(&mut self, pkt: Packet, cycle: u64) {
        match pkt.payload {
            Payload::LoadReq { sector_addr, warp } | Payload::StoreReq { sector_addr, warp } => {
                let store = matches!(pkt.payload, Payload::StoreReq { .. });
                if let Some(refused) = self.try_mem_request(store, sector_addr, warp, cycle) {
                    self.stats.l2_reservation_fails += 1;
                    self.retry_resident += usize::from(!refused.waits);
                    self.retry.push_back(refused);
                }
            }
            Payload::AtomicReq {
                ops,
                warp,
                kind,
                unique,
            } => {
                self.enqueue_rop(RopWork {
                    ops,
                    ack: AckTarget::Warp { warp, kind, unique },
                });
            }
            other => panic!("partition cannot handle payload {other:?}"),
        }
    }

    /// Offers a load (or, with `store`, a store) to the L2. Returns the
    /// refusal if an L2 MSHR or a DRAM queue slot refused it; the caller
    /// queues it for another offer. Counts the access (and miss) only when
    /// the request is admitted.
    fn try_mem_request(
        &mut self,
        store: bool,
        sector_addr: u64,
        warp: WarpRef,
        cycle: u64,
    ) -> Option<Refused> {
        let probe = self.l2.probe(sector_addr);
        let refused = Some(Refused {
            store,
            sector_addr,
            warp,
            waits: probe == Probe::LineMiss,
            allocs_seen: self.mshr_allocs,
        });
        let response = if store {
            if probe != Probe::Hit {
                // Write-through, write-no-allocate: forward to DRAM.
                if !self.dram.push(DramUse::Write) {
                    return refused;
                }
                self.stats.dram_accesses += 1;
                self.stats.l2_misses += 1;
            }
            Payload::StoreAck { warp }
        } else {
            if probe != Probe::Hit {
                let sector = sector_addr / self.sector_size * self.sector_size;
                if let Some(waiters) = self.mshrs.get_mut(&sector) {
                    waiters.push(warp);
                } else if self.mshrs.len() < self.mshr_capacity
                    && self.dram.push(DramUse::FillForLoad {
                        sector_addr: sector,
                    })
                {
                    self.stats.dram_accesses += 1;
                    self.mshrs.insert(sector, vec![warp]);
                    self.alloc_log.push((self.mshr_allocs, sector));
                    self.mshr_allocs += 1;
                    self.retry_dirty = true;
                } else {
                    // Structural stall: offered again later.
                    return refused;
                }
                self.stats.l2_accesses += 1;
                self.stats.l2_misses += 1;
                return None;
            }
            Payload::LoadResp { sector_addr, warp }
        };
        self.stats.l2_accesses += 1;
        self.schedule_response(
            cycle + self.cfg_l2_hit_latency as u64,
            Packet::new(warp.sm_cluster_hint(), response, self.flit_size),
        );
        None
    }

    /// Whether a waiting request's cause may have lifted, so that offering
    /// it again could be admitted: its line was filled, or (a load) an
    /// MSHR for its sector exists or there is room for a new MSHR and its
    /// DRAM fill, or (a store) the DRAM queue has room. Otherwise the
    /// offer would probe an absent line (no stamp) and be refused the same
    /// way, so it is not made.
    ///
    /// A waiting load's sector had no MSHR when it was last found not
    /// admissible (or it would have merged), so an MSHR for it can exist
    /// only if one was allocated since: only the allocations it has not
    /// seen are searched.
    fn may_admit(&self, r: &mut Refused) -> bool {
        if self
            .filled_lines
            .contains(&(r.sector_addr / self.line_size))
        {
            return true;
        }
        if r.store {
            return self.dram.can_accept();
        }
        if self.mshrs.len() < self.mshr_capacity && self.dram.can_accept() {
            return true;
        }
        let sector = r.sector_addr / self.sector_size * self.sector_size;
        let seen = std::mem::replace(&mut r.allocs_seen, self.mshr_allocs);
        self.alloc_log
            .iter()
            .rev()
            .take_while(|&&(n, _)| n >= seen)
            .any(|&(_, s)| s == sector)
    }

    fn schedule_response(&mut self, at: u64, pkt: Packet) {
        self.next_response = self.next_response.min(at);
        self.pending_responses.push((at, pkt));
    }

    /// Advances the partition one cycle, applying retired atomics to
    /// `values`. Returns response packets that are ready for injection into
    /// the interconnect (destination field = cluster, filled by the caller
    /// via the SM→cluster map).
    pub fn tick(
        &mut self,
        cycle: u64,
        values: &mut ValueMem,
        ndet: &mut NdetSource,
    ) -> Vec<Packet> {
        // 1. DRAM issue and completions. Either may lift a refused
        // request's cause: an issue frees a queue slot, a completion frees
        // an MSHR or fills a line.
        let queued = self.dram.queue_len();
        let done = self.dram.tick(cycle, ndet);
        self.retry_dirty |= !done.is_empty() || self.dram.queue_len() < queued;
        for usage in done {
            match usage {
                DramUse::FillForLoad { sector_addr } => {
                    self.l2.fill(sector_addr);
                    self.filled_lines.push(sector_addr / self.line_size);
                    if let Some(waiters) = self.mshrs.remove(&sector_addr) {
                        for warp in waiters {
                            self.schedule_response(
                                cycle,
                                Packet::new(
                                    warp.sm_cluster_hint(),
                                    Payload::LoadResp { sector_addr, warp },
                                    self.flit_size,
                                ),
                            );
                        }
                    }
                }
                DramUse::FillForRop { sector_addr } => {
                    self.l2.fill(sector_addr);
                    self.filled_lines.push(sector_addr / self.line_size);
                    if self.rop.wait_fill == Some(sector_addr) {
                        self.rop.wait_fill = None;
                        // The stall spanned the cycles strictly between the
                        // miss and this fill (the fill cycle itself retires
                        // ops again; the miss cycle did the probe).
                        self.stats.rop_fill_stall_cycles += cycle - self.rop.wait_fill_since - 1;
                    }
                }
                DramUse::Write => {}
            }
        }

        // 2. Offer refused requests again, in arrival order. With no cause
        // lifted since the last pass and every request waiting, the pass
        // would refuse them all again with no effect: skip it.
        if self.retry_resident > 0 || self.retry_dirty {
            self.retry_dirty = false;
            let mut retry = std::mem::take(&mut self.retry);
            let mut oldest_seen = u64::MAX;
            retry.retain_mut(|r| {
                if r.waits && !self.may_admit(r) {
                    oldest_seen = oldest_seen.min(r.allocs_seen);
                    return true;
                }
                let resident = usize::from(!r.waits);
                match self.try_mem_request(r.store, r.sector_addr, r.warp, cycle) {
                    Some(again) => {
                        self.retry_resident =
                            self.retry_resident + usize::from(!again.waits) - resident;
                        oldest_seen = oldest_seen.min(again.allocs_seen);
                        *r = again;
                        true
                    }
                    None => {
                        self.retry_resident -= resident;
                        false
                    }
                }
            });
            self.retry = retry;
            // Only allocations some waiting request has not seen matter.
            self.alloc_log.retain(|&(n, _)| n >= oldest_seen);
        } else if self.retry.is_empty() {
            self.alloc_log.clear();
        }

        // 3. ROP: retire up to `rop_throughput` atomic ops.
        self.tick_rop(cycle, values);
        self.filled_lines.clear();

        // 4. Emit due responses.
        let mut out = Vec::new();
        if self.next_response > cycle {
            return out;
        }
        self.next_response = u64::MAX;
        let mut i = 0;
        while i < self.pending_responses.len() {
            if self.pending_responses[i].0 <= cycle {
                out.push(self.pending_responses.swap_remove(i).1);
            } else {
                self.next_response = self.next_response.min(self.pending_responses[i].0);
                i += 1;
            }
        }
        out
    }

    fn tick_rop(&mut self, cycle: u64, values: &mut ValueMem) {
        if self.rop.wait_fill.is_some() {
            // Stall cycles are accounted arithmetically when the fill
            // returns; see `RopState::wait_fill_since`.
            return;
        }
        for _ in 0..self.rop_throughput {
            let Some(head) = self.rop.queue.front() else {
                return;
            };
            if self.rop.op_index >= head.ops.len() {
                // Empty work vector: retire immediately.
                self.retire_rop_head(cycle);
                continue;
            }
            let op = head.ops[self.rop.op_index];
            if self.rop.waits
                && !self.dram.can_accept()
                && !self.filled_lines.contains(&(op.addr / self.line_size))
            {
                // Probing again would miss an absent line and find DRAM
                // full, with no effect.
                return;
            }
            // `atom` return values are observable: fold them into the
            // outcome digest under the observing warp's unique id.
            let observer = match head.ack {
                AckTarget::Warp {
                    kind: AtomKind::Atom,
                    unique,
                    ..
                } => Some(unique),
                _ => None,
            };
            // The atomic is a read-modify-write at the L2: one access when
            // it applies, one miss if its sector had to be fetched first.
            let probe = self.l2.probe(op.addr);
            match probe {
                Probe::Hit => {}
                Probe::SectorMiss | Probe::LineMiss => {
                    let sector = op.addr / self.sector_size * self.sector_size;
                    let admitted = self.dram.push(DramUse::FillForRop {
                        sector_addr: sector,
                    });
                    if admitted {
                        self.stats.dram_accesses += 1;
                        self.stats.l2_misses += u64::from(!self.rop.op_missed);
                        self.rop.op_missed = true;
                        self.rop.wait_fill = Some(sector);
                        self.rop.wait_fill_since = cycle;
                    } else {
                        // DRAM is full: the head is offered again next
                        // cycle, or (absent line) once DRAM can take it.
                        self.stats.l2_reservation_fails += u64::from(!self.rop.op_refused);
                        self.rop.op_refused = true;
                    }
                    self.rop.waits = !admitted && probe == Probe::LineMiss;
                    return;
                }
            }
            self.stats.l2_accesses += 1;
            self.rop.op_missed = false;
            self.rop.op_refused = false;
            self.rop.waits = false;
            match observer {
                Some(unique) => {
                    values.apply_atomic_observed(op.addr, op.op, op.arg, unique);
                }
                None => {
                    values.apply_atomic(op.addr, op.op, op.arg);
                }
            }
            self.stats.rop_ops += 1;
            self.rop.op_index += 1;
            let head_len = self.rop.queue.front().map(|w| w.ops.len()).unwrap_or(0);
            if self.rop.op_index >= head_len {
                self.retire_rop_head(cycle);
            }
        }
    }

    fn retire_rop_head(&mut self, cycle: u64) {
        let work = self.rop.queue.pop_front().expect("head exists");
        self.rop.op_index = 0;
        // The ROP is pipelined: it retires `rop_throughput` ops per cycle,
        // and each completed transaction acknowledges after the pipeline
        // latency.
        match work.ack {
            AckTarget::Warp { warp, kind, .. } => {
                self.schedule_response(
                    cycle + self.cfg_rop_latency as u64,
                    Packet::new(
                        warp.sm_cluster_hint(),
                        Payload::AtomicAck { warp, kind },
                        self.flit_size,
                    ),
                );
            }
            AckTarget::FlushSm { sm } => {
                self.schedule_response(
                    cycle + self.cfg_rop_latency as u64,
                    Packet::new(0, Payload::FlushAck { sm }, self.flit_size),
                );
            }
            AckTarget::None => {}
        }
    }

    /// One-line occupancy summary for diagnostics, in the `lock.rs`/`dram.rs`
    /// panic-context style.
    pub fn queue_summary(&self) -> String {
        format!(
            "rop_queue={} rop_wait_fill={} retry={} (resident {}) pending_responses={} l2_mshrs={} dram[{}]",
            self.rop.queue.len(),
            self.rop.wait_fill.is_some(),
            self.retry.len(),
            self.retry_resident,
            self.pending_responses.len(),
            self.mshrs.len(),
            self.dram.queue_summary(),
        )
    }

    /// Whether the partition still has queued or in-flight work.
    pub fn is_busy(&self) -> bool {
        !self.rop.queue.is_empty()
            || self.rop.wait_fill.is_some()
            || !self.retry.is_empty()
            || !self.pending_responses.is_empty()
            || !self.mshrs.is_empty()
            || self.dram.is_busy()
    }

    /// Earliest cycle at which [`tick`](Self::tick) can act, or `None`
    /// when the partition is idle. A ROP op that is not fill-stalled or
    /// waiting for DRAM, a refused request whose line is resident, or a
    /// refused request whose cause may have lifted since the last offer
    /// pass can act on every visit, reported as cycle 0 (at or before any
    /// present). Otherwise the earliest DRAM issue or completion, or the
    /// earliest response falling due. Waiting requests and a waiting ROP
    /// op need no term of their own: only a DRAM issue (a freed slot) or
    /// completion (a freed MSHR, a filled line), or an arriving request
    /// (which the engine delivers to a partition it then ticks), can lift
    /// their cause.
    ///
    /// While this is after the current cycle and no request has arrived
    /// from the interconnect, `tick` is a provable no-op, so the engine
    /// skips the partition entirely — the "sleeping partition" fast path.
    /// Skipped cycles draw no non-determinism: DRAM jitter is drawn only
    /// when a burst issues, and bursts issue only on due cycles.
    pub fn next_event_cycle(&self) -> Option<u64> {
        let retry = self.retry_resident > 0 || (self.retry_dirty && !self.retry.is_empty());
        let rop = !self.rop.queue.is_empty() && self.rop.wait_fill.is_none() && !self.rop.waits;
        if retry || rop {
            return Some(0);
        }
        debug_assert_eq!(
            self.pending_responses.iter().map(|&(at, _)| at).min(),
            (self.next_response != u64::MAX).then_some(self.next_response)
        );
        let response = (self.next_response != u64::MAX).then_some(self.next_response);
        [self.dram.next_event_cycle(), response]
            .into_iter()
            .flatten()
            .min()
    }
}

impl WarpRef {
    /// Placeholder destination used when building a response before the
    /// engine rewrites it with the real SM→cluster mapping.
    fn sm_cluster_hint(&self) -> usize {
        self.sm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AtomicOp, Value};

    fn part() -> MemPartition {
        MemPartition::new(0, &GpuConfig::tiny(), 0)
    }

    fn op(addr: u64, v: f32) -> RopOp {
        RopOp {
            addr,
            op: AtomicOp::AddF32,
            arg: Value::F32(v),
        }
    }

    fn run_until_idle(p: &mut MemPartition, values: &mut ValueMem) -> Vec<Packet> {
        let mut ndet = NdetSource::disabled();
        let mut out = Vec::new();
        for cycle in 0..100_000 {
            out.extend(p.tick(cycle, values, &mut ndet));
            if !p.is_busy() {
                break;
            }
        }
        out
    }

    #[test]
    fn rop_applies_in_queue_order() {
        let mut p = part();
        let mut values = ValueMem::new();
        // Two work items; the f32 sum depends on order.
        p.enqueue_rop(RopWork {
            ops: vec![op(0x100, 1.0e8), op(0x100, 1.0)],
            ack: AckTarget::None,
        });
        p.enqueue_rop(RopWork {
            ops: vec![op(0x100, -1.0e8)],
            ack: AckTarget::None,
        });
        run_until_idle(&mut p, &mut values);
        let expected = (1.0e8f32 + 1.0) + -1.0e8;
        assert_eq!(values.read_f32(0x100), expected);
        assert_eq!(p.stats().rop_ops, 3);
    }

    #[test]
    fn rop_acks_warp() {
        let mut p = part();
        let mut values = ValueMem::new();
        let warp = WarpRef { sm: 1, slot: 3 };
        p.enqueue_rop(RopWork {
            ops: vec![op(0, 1.0)],
            ack: AckTarget::Warp {
                warp,
                kind: AtomKind::Red,
                unique: 0,
            },
        });
        let out = run_until_idle(&mut p, &mut values);
        assert!(out
            .iter()
            .any(|pkt| matches!(pkt.payload, Payload::AtomicAck { warp: w, .. } if w == warp)));
    }

    #[test]
    fn rop_flush_ack_and_drain() {
        let mut p = part();
        let mut values = ValueMem::new();
        p.enqueue_rop(RopWork {
            ops: vec![op(0, 1.0)],
            ack: AckTarget::FlushSm { sm: 5 },
        });
        let acks: Vec<Payload> = run_until_idle(&mut p, &mut values)
            .into_iter()
            .map(|pkt| pkt.payload)
            .filter(|payload| matches!(payload, Payload::FlushAck { .. }))
            .collect();
        assert_eq!(acks, vec![Payload::FlushAck { sm: 5 }]);
        assert!(!p.is_busy(), "partition drained");
    }

    #[test]
    fn load_miss_then_hit() {
        let mut p = part();
        let mut values = ValueMem::new();
        let warp = WarpRef { sm: 0, slot: 0 };
        let pkt = Packet::new(
            0,
            Payload::LoadReq {
                sector_addr: 0x80,
                warp,
            },
            40,
        );
        p.handle_request(pkt, 0);
        let out = run_until_idle(&mut p, &mut values);
        assert_eq!(out.len(), 1);
        assert_eq!(p.stats().l2_misses, 1);
        assert_eq!(p.stats().dram_accesses, 1);

        // Second access hits.
        let pkt = Packet::new(
            0,
            Payload::LoadReq {
                sector_addr: 0x80,
                warp,
            },
            40,
        );
        p.handle_request(pkt, 0);
        let out = run_until_idle(&mut p, &mut values);
        assert_eq!(out.len(), 1);
        assert_eq!(p.stats().l2_misses, 1, "second access should hit");
    }

    #[test]
    fn mshr_merges_same_sector() {
        let mut p = part();
        let mut values = ValueMem::new();
        for slot in 0..3 {
            let warp = WarpRef { sm: 0, slot };
            p.handle_request(
                Packet::new(
                    0,
                    Payload::LoadReq {
                        sector_addr: 0x80,
                        warp,
                    },
                    40,
                ),
                0,
            );
        }
        let out = run_until_idle(&mut p, &mut values);
        assert_eq!(out.len(), 3, "all waiters woken");
        assert_eq!(p.stats().dram_accesses, 1, "one fill serves all");
    }

    #[test]
    fn store_write_through() {
        let mut p = part();
        let mut values = ValueMem::new();
        let warp = WarpRef { sm: 0, slot: 0 };
        p.handle_request(
            Packet::new(
                0,
                Payload::StoreReq {
                    sector_addr: 0x40,
                    warp,
                },
                40,
            ),
            0,
        );
        let out = run_until_idle(&mut p, &mut values);
        assert!(out
            .iter()
            .any(|pkt| matches!(pkt.payload, Payload::StoreAck { .. })));
        assert_eq!(p.stats().dram_accesses, 1);
    }

    #[test]
    fn atomic_request_via_handle() {
        let mut p = part();
        let mut values = ValueMem::new();
        let warp = WarpRef { sm: 0, slot: 0 };
        p.handle_request(
            Packet::new(
                0,
                Payload::AtomicReq {
                    ops: vec![op(0x10, 2.0)],
                    warp,
                    kind: AtomKind::Atom,
                    unique: 0,
                },
                40,
            ),
            0,
        );
        run_until_idle(&mut p, &mut values);
        assert_eq!(values.read_f32(0x10), 2.0);
    }

    #[test]
    fn rop_miss_goes_to_dram_first() {
        let mut p = part();
        let mut values = ValueMem::new();
        p.enqueue_rop(RopWork {
            ops: vec![op(0x200, 1.0)],
            ack: AckTarget::None,
        });
        run_until_idle(&mut p, &mut values);
        assert_eq!(values.read_f32(0x200), 1.0);
        assert_eq!(p.stats().dram_accesses, 1);
        assert!(p.stats().rop_fill_stall_cycles > 0);
    }

    #[test]
    fn vwq_eviction() {
        let mut p = part();
        let mut values = ValueMem::new();
        p.enqueue_rop(RopWork {
            ops: vec![op(0x300, 1.0)],
            ack: AckTarget::None,
        });
        run_until_idle(&mut p, &mut values);
        let misses_before = p.stats().l2_misses;
        p.evict_sector_for_vwq(0x300);
        p.enqueue_rop(RopWork {
            ops: vec![op(0x300, 1.0)],
            ack: AckTarget::None,
        });
        run_until_idle(&mut p, &mut values);
        assert!(
            p.stats().l2_misses > misses_before,
            "eviction causes a re-miss"
        );
    }

    #[test]
    fn rop_wait_ends_with_its_op() {
        // The head op waited for DRAM on an absent line; a fill of its
        // sector lets it apply. The next op's line is resident, so it must
        // be probed and applied, DRAM still full.
        let mut p = part();
        let mut values = ValueMem::new();
        let (waited, next) = (0x400, 0x800);
        p.l2.fill(waited);
        p.l2.fill(next);
        while p.dram.push(DramUse::Write) {}
        p.enqueue_rop(RopWork {
            ops: vec![op(waited, 1.0), op(next, 2.0)],
            ack: AckTarget::None,
        });
        p.rop.waits = true;
        p.filled_lines.push(waited / p.line_size);
        for cycle in 0..2 {
            p.tick_rop(cycle, &mut values);
            p.filled_lines.clear();
        }
        assert_eq!(p.stats().rop_ops, 2);
        assert_eq!(values.read_f32(next), 2.0);
    }

    #[test]
    #[should_panic(expected = "cannot handle")]
    fn flush_entry_rejected() {
        let mut p = part();
        p.handle_request(
            Packet::new(
                0,
                Payload::FlushEntry {
                    sm: 0,
                    seq: 0,
                    ops: vec![],
                },
                40,
            ),
            0,
        );
    }
}
