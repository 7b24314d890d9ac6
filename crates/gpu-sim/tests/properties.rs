//! Property-based tests on the simulator substrate's core invariants.

use proptest::prelude::*;

use gpu_sim::config::GpuConfig;
use gpu_sim::isa::{AtomicOp, Value};
use gpu_sim::mem::cache::{Probe, Probed, SectoredCache};
use gpu_sim::mem::icnt::Interconnect;
use gpu_sim::mem::packet::{AtomKind, Packet, Payload, RopOp, WarpRef};
use gpu_sim::mem::partition::{AckTarget, MemPartition, PartitionStats, RopWork};
use gpu_sim::mem::{partition_of, sector_align, PARTITION_INTERLEAVE};
use gpu_sim::ndet::NdetSource;
use gpu_sim::values::ValueMem;

proptest! {
    /// Atomic fusion is a lossless local reduction for every fusible
    /// *integer* opcode: applying two buffered operations one after the
    /// other is bit-identical to applying their fused combination once.
    /// This is the algebraic fact that lets DAB fuse buffer entries
    /// without changing results (Section IV-E).
    #[test]
    fn integer_fuse_matches_apply_composition(
        op_idx in 0usize..3,
        x in any::<u32>(),
        a in any::<u32>(),
        b in any::<u32>(),
    ) {
        let op = [AtomicOp::AddU32, AtomicOp::MaxU32, AtomicOp::MinU32][op_idx];
        prop_assert!(op.fusible() && !op.order_sensitive());
        let sequential = op.apply(op.apply(x, Value::U32(a)), Value::U32(b));
        let fused = op.apply(x, op.fuse(Value::U32(a), Value::U32(b)));
        prop_assert_eq!(sequential, fused, "{:?} x={} a={} b={}", op, x, a, b);
    }

    /// `MaxF32` is fusible and order-insensitive too: max is an exact
    /// comparison, so re-association cannot change the result (NaN payloads
    /// excluded — the workloads never produce them, and `apply` drops them).
    #[test]
    fn maxf32_fuse_matches_apply_composition(
        x in any::<f32>(), a in any::<f32>(), b in any::<f32>(),
    ) {
        let op = AtomicOp::MaxF32;
        let sequential = op.apply(op.apply(x.to_bits(), Value::F32(a)), Value::F32(b));
        let fused = op.apply(x.to_bits(), op.fuse(Value::F32(a), Value::F32(b)));
        prop_assert_eq!(sequential, fused);
    }
}

/// `AddF32` fusion is *not* composition-exact: fusing re-associates the
/// reduction (`(x + a) + b` vs `x + (a + b)`), and f32 addition is not
/// associative. Fused entries are therefore only deterministic because
/// DAB's buffer-fill order — the order `fuse` is called in — is itself
/// deterministic; on a timing-dependent fill order fusion would launder
/// rounding non-determinism into results.
#[test]
fn addf32_fusion_is_order_sensitive() {
    assert!(AtomicOp::AddF32.order_sensitive());
    let x = 1.0f32;
    let e = 1.5 * 2f32.powi(-25);
    let sequential = AtomicOp::AddF32.apply(
        AtomicOp::AddF32.apply(x.to_bits(), Value::F32(e)),
        Value::F32(e),
    );
    let fused = AtomicOp::AddF32.apply(
        x.to_bits(),
        AtomicOp::AddF32.fuse(Value::F32(e), Value::F32(e)),
    );
    // (1 + e) + e rounds both addends away; 1 + (e + e) rounds up one ulp.
    assert_ne!(
        sequential, fused,
        "AddF32 composition must differ from fusion for this pattern"
    );
    // Same fill order => same fused value: the pairwise combine itself is
    // commutative (f32 addition is commutative, just not associative).
    assert_eq!(
        AtomicOp::AddF32
            .fuse(Value::F32(0.1), Value::F32(0.2))
            .to_bits(),
        AtomicOp::AddF32
            .fuse(Value::F32(0.2), Value::F32(0.1))
            .to_bits(),
    );
}

proptest! {
    /// Filling a sector makes it resident until evicted; a re-probe
    /// immediately after a fill always hits.
    #[test]
    fn cache_fill_then_probe_hits(addrs in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut cache = SectoredCache::new(8 * 1024, 4, 128, 32);
        for &a in &addrs {
            cache.fill(a);
            prop_assert_eq!(cache.peek(a), Probe::Hit);
            prop_assert_eq!(cache.probe(a), Probe::Hit);
        }
    }

    /// A probe finds what a peek just before it finds, reports a line
    /// exactly when the line is resident, and changes no residency: the
    /// cache keeps no counters, so a probe only stamps LRU.
    #[test]
    fn cache_stats_consistent(ops in proptest::collection::vec((0u64..100_000, any::<bool>()), 1..300)) {
        let mut cache = SectoredCache::new(4 * 1024, 2, 128, 32);
        for (addr, fill) in ops {
            if fill {
                cache.fill(addr);
            } else {
                let (peeked, generation) = (cache.peek_line(addr), cache.generation());
                prop_assert_eq!(peeked.line.is_some(), peeked.outcome != Probe::LineMiss);
                prop_assert_eq!(cache.probe_line(addr), peeked);
                prop_assert_eq!(cache.generation(), generation);
            }
        }
    }

    /// Integer atomic digests are permutation-invariant (associative ops),
    /// so any deterministic architecture must reproduce them exactly.
    #[test]
    fn values_integer_digest_order_invariant(
        mut ops in proptest::collection::vec((0u64..64, any::<u32>()), 1..100),
        rotation in 0usize..100
    ) {
        let mut a = ValueMem::new();
        for &(addr, v) in &ops {
            a.apply_atomic(addr * 4, AtomicOp::AddU32, Value::U32(v));
        }
        let r = rotation % ops.len();
        ops.rotate_left(r);
        let mut b = ValueMem::new();
        for &(addr, v) in &ops {
            b.apply_atomic(addr * 4, AtomicOp::AddU32, Value::U32(v));
        }
        prop_assert_eq!(a.digest(), b.digest());
    }

    /// Fusing two integer arguments then applying equals applying both.
    #[test]
    fn fuse_equals_apply_composition(cur in any::<u32>(), x in any::<u32>(), y in any::<u32>()) {
        for op in [AtomicOp::AddU32, AtomicOp::MaxU32, AtomicOp::MinU32] {
            let fused = op.apply(cur, op.fuse(Value::U32(x), Value::U32(y)));
            let direct = op.apply(op.apply(cur, Value::U32(x)), Value::U32(y));
            prop_assert_eq!(fused, direct, "op {:?}", op);
        }
    }

    /// Address mapping helpers are total and consistent.
    #[test]
    fn address_mapping_properties(addr in 0u64..(u64::MAX / 2), parts in 1usize..64) {
        let p = partition_of(addr, parts);
        prop_assert!(p < parts);
        // Every address within one interleave chunk maps to one partition.
        let chunk = addr / PARTITION_INTERLEAVE * PARTITION_INTERLEAVE;
        prop_assert_eq!(partition_of(chunk, parts), partition_of(chunk + PARTITION_INTERLEAVE - 1, parts));
        let s = sector_align(addr, 32);
        prop_assert!(s <= addr && addr - s < 32);
        prop_assert_eq!(s % 32, 0);
    }

    /// Every injected packet is delivered exactly once, in both directions,
    /// and packets of one flow (source, sink) arrive in injection order.
    /// A second network fed the same traffic, ticked only on injection
    /// cycles and on cycles its `next_event_cycle` declares due, delivers
    /// the same packets on the same cycles and leaves every arbitration
    /// stream at the same position: the cycles the event wheel skips are
    /// no-ops.
    #[test]
    fn icnt_delivers_everything_in_per_flow_order(
        flows in proptest::collection::vec((0usize..2, 0usize..2, any::<bool>(), 1u32..4, 0u64..6), 1..60),
        seed in any::<u64>(),
    ) {
        let (dense, dense_draws) = run_icnt(&flows, seed, false);
        let (skipping, skipping_draws) = run_icnt(&flows, seed, true);
        prop_assert_eq!(dense.len(), flows.len(), "all packets delivered");
        prop_assert_eq!(&dense, &skipping, "skipping changed a delivery");
        prop_assert_eq!(dense_draws, skipping_draws, "skipping moved a stream");
        // Per flow: sequence numbers strictly increase.
        let mut last = std::collections::HashMap::new();
        for &(_, response, sink, tag) in &dense {
            let (source, seq) = (tag >> 32, tag & 0xffff_ffff);
            if let Some(prev) = last.insert((response, source, sink), seq) {
                prop_assert!(seq > prev, "flow order violated");
            }
        }
    }

    /// The partition counterpart: a partition ticked only on cycles a
    /// request reaches it and on cycles its `next_event_cycle` declares
    /// due emits the same responses on the same cycles, applies atomics
    /// in the same order and counts the same statistics as one ticked
    /// every cycle, DRAM jitter included.
    #[test]
    fn partition_skips_only_idle_cycles(
        work in proptest::collection::vec((0u8..3, 0u64..48, 0u64..40), 1..80),
        seed in any::<u64>(),
    ) {
        let dense = run_partition(&work, seed, false);
        let skipping = run_partition(&work, seed, true);
        prop_assert!(skipping.ticks < dense.ticks, "nothing was skipped");
        prop_assert_eq!(&dense.responses, &skipping.responses);
        prop_assert_eq!(dense.digest, skipping.digest);
        prop_assert_eq!(dense.stats, skipping.stats);
        prop_assert_eq!(dense.next_draw, skipping.next_draw);
    }
}

/// One delivery: `(cycle, response?, sink, tag)`, the tag holding the
/// source in its high half and the per-flow sequence number in its low.
type Delivery = (u64, bool, usize, u64);

/// Drives an interconnect with `flows` — `(cluster, partition, response?,
/// flits, gap)`, each injected `gap` cycles after the one before — and
/// returns every delivery plus the next draw of every arbitration stream.
/// With `skip`, the network is ticked only on injection cycles and on
/// cycles `next_event_cycle` declares due.
fn run_icnt(
    flows: &[(usize, usize, bool, u32, u64)],
    seed: u64,
    skip: bool,
) -> (Vec<Delivery>, Vec<usize>) {
    let mut cfg = GpuConfig::tiny();
    // Small buffers, so full sinks hold back some heads.
    cfg.icnt_input_buffer = 6;
    cfg.cluster_ejection_buffer = 4;
    let mut icnt = Interconnect::new(&cfg);
    let root = NdetSource::seeded(seed);
    let mut mem_ndet: Vec<NdetSource> = (0..cfg.num_mem_partitions)
        .map(|p| root.split(p as u64))
        .collect();
    let mut cl_ndet: Vec<NdetSource> = (0..cfg.num_clusters)
        .map(|c| root.split(0x100 + c as u64))
        .collect();
    let mut flow_seq = std::collections::HashMap::new();
    let mut at = 0u64;
    let mut schedule = Vec::new();
    for &(cluster, partition, response, flits, gap) in flows {
        at += gap;
        let (source, sink) = if response {
            (partition, cluster)
        } else {
            (cluster, partition)
        };
        let seq = flow_seq.entry((response, source, sink)).or_insert(0u64);
        let sector_addr = (source as u64) << 32 | *seq;
        *seq += 1;
        let warp = WarpRef {
            sm: cluster,
            slot: 0,
        };
        let payload = if response {
            Payload::LoadResp { sector_addr, warp }
        } else {
            Payload::LoadReq { sector_addr, warp }
        };
        let mut pkt = Packet::new(sink, payload, cfg.icnt_flit_size);
        pkt.flits = flits;
        schedule.push((at, response, source, pkt));
    }
    let mut schedule = schedule.into_iter().peekable();
    let mut delivered = Vec::new();
    for cycle in 0..200_000u64 {
        let mut injected = false;
        while let Some((_, response, source, pkt)) = schedule.next_if(|s| s.0 == cycle) {
            if response {
                icnt.inject_response(source, pkt);
            } else {
                icnt.inject_request(source, pkt);
            }
            injected = true;
        }
        if skip && !injected && icnt.next_event_cycle().is_none_or(|t| t > cycle) {
            continue;
        }
        icnt.tick(cycle, &mut mem_ndet, &mut cl_ndet);
        for sink in 0..2 {
            while let Some(pkt) = icnt.pop_arrived_request(sink) {
                if let Payload::LoadReq { sector_addr, .. } = pkt.payload {
                    delivered.push((cycle, false, sink, sector_addr));
                }
            }
            while let Some(pkt) = icnt.pop_ejected(sink) {
                if let Payload::LoadResp { sector_addr, .. } = pkt.payload {
                    delivered.push((cycle, true, sink, sector_addr));
                }
            }
        }
        if schedule.peek().is_none() && !icnt.is_busy() {
            break;
        }
    }
    let draws = mem_ndet
        .iter_mut()
        .chain(&mut cl_ndet)
        .map(|nd| nd.arbitration_tiebreak(1 << 30))
        .collect();
    (delivered, draws)
}

/// What a partition run leaves behind, for [`run_partition`].
struct PartitionRun {
    responses: Vec<(u64, Vec<Payload>)>,
    digest: u64,
    stats: PartitionStats,
    next_draw: u32,
    ticks: u64,
}

/// Drives one memory partition with `work` — `(kind, sector, gap)`: a
/// load, a store or a ROP transaction of two `f32` adds, each handed over
/// `gap` cycles after the one before — under seeded DRAM jitter. With
/// `skip`, the partition is ticked only on hand-over cycles and on cycles
/// `next_event_cycle` declares due.
fn run_partition(work: &[(u8, u64, u64)], seed: u64, skip: bool) -> PartitionRun {
    let mut cfg = GpuConfig::tiny();
    // Few MSHRs and a short DRAM queue, so requests stall and retry.
    cfg.l2_mshrs = 2;
    cfg.dram_queue_capacity = 2;
    let mut part = MemPartition::new(0, &cfg, 12);
    let mut ndet = NdetSource::seeded(seed);
    let mut values = ValueMem::new();
    let mut at = 0u64;
    let mut schedule = Vec::new();
    for (i, &(kind, sector, gap)) in work.iter().enumerate() {
        at += gap;
        schedule.push((at, i, kind, sector * 32));
    }
    let mut schedule = schedule.into_iter().peekable();
    let mut run = PartitionRun {
        responses: Vec::new(),
        digest: 0,
        stats: PartitionStats::default(),
        next_draw: 0,
        ticks: 0,
    };
    for cycle in 0..200_000u64 {
        let mut arrived = false;
        while let Some((_, i, kind, addr)) = schedule.next_if(|s| s.0 == cycle) {
            let warp = WarpRef { sm: i % 2, slot: i };
            match kind {
                0 => part.handle_request(
                    Packet::new(
                        0,
                        Payload::LoadReq {
                            sector_addr: addr,
                            warp,
                        },
                        cfg.icnt_flit_size,
                    ),
                    cycle,
                ),
                1 => part.handle_request(
                    Packet::new(
                        0,
                        Payload::StoreReq {
                            sector_addr: addr,
                            warp,
                        },
                        cfg.icnt_flit_size,
                    ),
                    cycle,
                ),
                _ => {
                    let add = |addr: u64, v: f32| RopOp {
                        addr,
                        op: AtomicOp::AddF32,
                        arg: Value::F32(v),
                    };
                    let ack = match i % 3 {
                        0 => AckTarget::Warp {
                            warp,
                            kind: AtomKind::Red,
                            unique: i as u64,
                        },
                        1 => AckTarget::FlushSm { sm: i % 2 },
                        _ => AckTarget::None,
                    };
                    part.enqueue_rop(RopWork {
                        ops: vec![add(addr, 1.0e8), add(addr + 4, i as f32 + 0.5)],
                        ack,
                    });
                }
            }
            arrived = true;
        }
        if skip && !arrived && part.next_event_cycle().is_none_or(|t| t > cycle) {
            continue;
        }
        run.ticks += 1;
        let out = part.tick(cycle, &mut values, &mut ndet);
        if !out.is_empty() {
            run.responses
                .push((cycle, out.into_iter().map(|p| p.payload).collect()));
        }
        if schedule.peek().is_none() && !part.is_busy() {
            break;
        }
    }
    assert!(
        !part.is_busy(),
        "partition never drained: {}",
        part.queue_summary()
    );
    run.digest = values.digest();
    run.stats = part.stats();
    run.next_draw = ndet.latency_jitter(1 << 20);
    run
}

/// A reference cache: each set a vector of line records scanned in order,
/// with division-based set indexing. The struct-of-arrays
/// [`SectoredCache`] must be indistinguishable from it.
mod reference {
    use gpu_sim::mem::cache::Probe;

    #[derive(Debug, Clone)]
    struct Line {
        tag: u64,
        sector_valid: u64,
        last_use: u64,
        valid: bool,
    }

    #[derive(Debug)]
    pub struct Cache {
        sets: Vec<Vec<Line>>,
        line_size: u64,
        sector_size: u64,
        use_clock: u64,
    }

    impl Cache {
        pub fn new(size: usize, assoc: usize, line_size: usize, sector_size: usize) -> Self {
            let line = Line {
                tag: 0,
                sector_valid: 0,
                last_use: 0,
                valid: false,
            };
            Self {
                sets: vec![vec![line; assoc]; size / (assoc * line_size)],
                line_size: line_size as u64,
                sector_size: sector_size as u64,
                use_clock: 0,
            }
        }

        fn decompose(&self, addr: u64) -> (usize, u64, u64) {
            let line_addr = addr / self.line_size;
            let sets = self.sets.len() as u64;
            let sector = (addr % self.line_size) / self.sector_size;
            ((line_addr % sets) as usize, line_addr / sets, sector)
        }

        pub fn probe(&mut self, addr: u64) -> Probe {
            self.use_clock += 1;
            let clock = self.use_clock;
            let (set, tag, sector) = self.decompose(addr);
            for line in &mut self.sets[set] {
                if line.valid && line.tag == tag {
                    line.last_use = clock;
                    if line.sector_valid & (1 << sector) != 0 {
                        return Probe::Hit;
                    }
                    return Probe::SectorMiss;
                }
            }
            Probe::LineMiss
        }

        pub fn peek(&self, addr: u64) -> Probe {
            let (set, tag, sector) = self.decompose(addr);
            match self.sets[set].iter().find(|l| l.valid && l.tag == tag) {
                Some(l) if l.sector_valid & (1 << sector) != 0 => Probe::Hit,
                Some(_) => Probe::SectorMiss,
                None => Probe::LineMiss,
            }
        }

        pub fn fill(&mut self, addr: u64) -> bool {
            self.use_clock += 1;
            let clock = self.use_clock;
            let (set, tag, sector) = self.decompose(addr);
            let ways = &mut self.sets[set];
            if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
                line.sector_valid |= 1 << sector;
                line.last_use = clock;
                return false;
            }
            let victim = match ways.iter().position(|l| !l.valid) {
                Some(i) => i,
                None => (0..ways.len())
                    .min_by_key(|&i| ways[i].last_use)
                    .expect("associativity is non-zero"),
            };
            let evicted = ways[victim].valid;
            ways[victim] = Line {
                tag,
                sector_valid: 1 << sector,
                last_use: clock,
                valid: true,
            };
            evicted
        }

        pub fn evict_sector(&mut self, addr: u64) {
            let (set, tag, sector) = self.decompose(addr);
            for line in &mut self.sets[set] {
                if line.valid && line.tag == tag {
                    line.sector_valid &= !(1 << sector);
                    if line.sector_valid == 0 {
                        line.valid = false;
                    }
                }
            }
        }
    }
}

/// Sets in the traced caches; the address pool covers eight lines per set,
/// so sets overflow and evict.
const TRACE_SETS: u64 = 4;
const TRACE_POOL: u64 = 8 * TRACE_SETS * 128;

proptest! {
    /// The struct-of-arrays cache matches the reference on random probe,
    /// peek, fill and evict traces with recorded-then-replayed probe
    /// batches: equal outcomes, eviction reports and residency
    /// of every line after every step (so equal LRU victims), for any
    /// associativity, including a non-power-of-two one like the L2's.
    #[test]
    fn soa_cache_matches_reference(
        assoc in 1usize..6,
        ops in proptest::collection::vec(
            (0u32..12, 0u64..TRACE_POOL, proptest::collection::vec(0u64..TRACE_POOL, 1..8)),
            1..300,
        ),
    ) {
        let size = TRACE_SETS as usize * assoc * 128;
        let mut soa = SectoredCache::new(size, assoc, 128, 32);
        let mut reference = reference::Cache::new(size, assoc, 128, 32);
        let mut kept: Option<(Vec<u64>, Vec<Probed>, u64)> = None;
        // `kind` picks the step: probe, peek, fill, evict, record a batch
        // of probes (as a refused load does), or replay the kept batch if
        // the residency generation still matches it (as its retry does).
        for (kind, a, addrs) in ops {
            match kind {
                0..=2 => prop_assert_eq!(soa.probe(a), reference.probe(a)),
                3 => prop_assert_eq!(soa.peek(a), reference.peek(a)),
                4..=6 => prop_assert_eq!(soa.fill(a), reference.fill(a)),
                7 => {
                    soa.evict_sector(a);
                    reference.evict_sector(a);
                }
                8 => {
                    let probes: Vec<Probed> = addrs.iter().map(|&a| soa.probe_line(a)).collect();
                    for (&a, p) in addrs.iter().zip(&probes) {
                        prop_assert_eq!(p.outcome, reference.probe(a));
                        prop_assert_eq!(p.line.is_some(), p.outcome != Probe::LineMiss);
                    }
                    kept = Some((addrs, probes, soa.generation()));
                }
                _ => {
                    if let Some((addrs, probes, generation)) = &kept {
                        if *generation == soa.generation() {
                            for (&a, p) in addrs.iter().zip(probes) {
                                prop_assert_eq!(soa.peek_line(a), *p);
                            }
                            soa.replay(probes);
                            for &a in addrs {
                                reference.probe(a);
                            }
                        }
                    }
                }
            }
            for a in (0..TRACE_POOL).step_by(32) {
                prop_assert_eq!(soa.peek(a), reference.peek(a), "sector {:#x}", a);
            }
        }
    }
}

/// The L2 lines the waiting-request proptest touches: two sets of a
/// two-way slice, six lines per set, so lines collide and evict.
const WAIT_LINES: u64 = 12;

proptest! {
    /// A refused L2 request that waits for its cause to lift behaves
    /// exactly like one offered again on every cycle. The partition,
    /// ticked only on hand-over cycles and on cycles its
    /// `next_event_cycle` declares due, is compared on every cycle with
    /// the reference: the per-cycle retry loop every partition once ran,
    /// ticked every cycle. Both see the same random loads, stores, ROP
    /// work and VWQ evictions on a slice with 1-2 L2 MSHRs, a 1-2 entry
    /// DRAM queue, four sectors per line (so some waits are sector
    /// misses) and seeded DRAM jitter. Per cycle they must emit the same
    /// responses, hold the same value digest and the same resident
    /// sectors (so the same lines were evicted, in the same order); at the
    /// end, they must have counted the same statistics and left the
    /// jitter stream at the same draw. Some cycles must have been skipped.
    #[test]
    fn waiting_requests_match_per_cycle_retry(
        work in proptest::collection::vec((0u8..4, 0u64..WAIT_LINES * 4, 0u64..12), 1..80),
        mshrs in 1usize..3,
        dram_slots in 1usize..3,
        seed in any::<u64>(),
    ) {
        let mut cfg = GpuConfig::tiny();
        cfg.l2_mshrs = mshrs;
        cfg.dram_queue_capacity = dram_slots;
        cfg.l2_assoc = 2;
        cfg.l2_size = cfg.num_mem_partitions * 2 * 2 * cfg.line_size;
        let mut part = MemPartition::new(0, &cfg, 12);
        let mut reference = reference_partition::Partition::new(&cfg, 12);
        let (mut ndet, mut ref_ndet) = (NdetSource::seeded(seed), NdetSource::seeded(seed));
        let (mut values, mut ref_values) = (ValueMem::new(), ValueMem::new());
        let mut schedule = Vec::new();
        let mut at = 0u64;
        for (i, &(kind, sector, gap)) in work.iter().enumerate() {
            at += gap;
            schedule.push((at, i, kind, sector * 32));
        }
        let mut schedule = schedule.into_iter().peekable();
        let mut skipped = 0u64;
        let mut cycle = 0u64;
        while schedule.peek().is_some() || part.is_busy() || reference.is_busy() {
            prop_assert!(cycle < 100_000, "no drain: {}", part.queue_summary());
            let mut arrived = false;
            while let Some((_, i, kind, addr)) = schedule.next_if(|s| s.0 == cycle) {
                let warp = WarpRef { sm: i % 2, slot: i };
                let payload = match kind {
                    0 => Some(Payload::LoadReq { sector_addr: addr, warp }),
                    1 => Some(Payload::StoreReq { sector_addr: addr, warp }),
                    _ => None,
                };
                match (kind, payload) {
                    (_, Some(payload)) => {
                        let pkt = Packet::new(0, payload, cfg.icnt_flit_size);
                        part.handle_request(pkt.clone(), cycle);
                        reference.handle_request(pkt, cycle);
                    }
                    (2, None) => {
                        // A second op on another sector of the line, so
                        // a head that waited is followed by one that finds
                        // its line resident.
                        let other = addr ^ 32;
                        let add = |addr: u64, v: f32| RopOp { addr, op: AtomicOp::AddF32, arg: Value::F32(v) };
                        let work = RopWork {
                            ops: vec![add(addr, i as f32 + 0.5), add(other, 1.0e8)],
                            ack: AckTarget::Warp { warp, kind: AtomKind::Red, unique: i as u64 },
                        };
                        part.enqueue_rop(work.clone());
                        reference.enqueue_rop(work);
                    }
                    _ => {
                        part.evict_sector_for_vwq(addr);
                        reference.evict_sector(addr);
                    }
                }
                arrived = true;
            }
            let ref_out: Vec<Payload> = reference
                .tick(cycle, &mut ref_values, &mut ref_ndet)
                .into_iter()
                .map(|p| p.payload)
                .collect();
            let out: Vec<Payload> = if arrived || part.next_event_cycle().is_some_and(|t| t <= cycle) {
                part.tick(cycle, &mut values, &mut ndet).into_iter().map(|p| p.payload).collect()
            } else {
                skipped += 1;
                Vec::new()
            };
            prop_assert_eq!(&out, &ref_out, "responses at cycle {}", cycle);
            prop_assert_eq!(values.digest(), ref_values.digest(), "values at cycle {}", cycle);
            for a in (0..WAIT_LINES * 128).step_by(32) {
                prop_assert_eq!(
                    part.l2().peek(a),
                    reference.l2.peek(a),
                    "sector {:#x} at cycle {}", a, cycle
                );
            }
            cycle += 1;
        }
        // Any memory work misses first and waits for DRAM; only a case of
        // bare evictions never has an idle cycle.
        let evictions_only = work.iter().all(|w| w.0 == 3);
        prop_assert!(skipped > 0 || evictions_only, "no partition cycle was skipped");
        prop_assert_eq!(part.stats(), reference.stats);
        prop_assert_eq!(ndet.latency_jitter(1 << 20), ref_ndet.latency_jitter(1 << 20));
    }
}

/// The reference for [`waiting_requests_match_per_cycle_retry`]: a memory
/// partition whose refused loads and stores are all offered again on
/// every cycle, and whose ROP head re-probes on every cycle DRAM refuses
/// it, with the partition's counting rules. Ticked every cycle.
mod reference_partition {
    use std::collections::{BTreeMap, VecDeque};

    use gpu_sim::config::GpuConfig;
    use gpu_sim::mem::cache::{Probe, SectoredCache};
    use gpu_sim::mem::dram::{Dram, DramUse};
    use gpu_sim::mem::packet::{Packet, Payload, WarpRef};
    use gpu_sim::mem::partition::{AckTarget, PartitionStats, RopWork};
    use gpu_sim::ndet::NdetSource;
    use gpu_sim::values::ValueMem;

    pub struct Partition {
        pub l2: SectoredCache,
        dram: Dram,
        rop: VecDeque<RopWork>,
        op_index: usize,
        wait_fill: Option<u64>,
        wait_fill_since: u64,
        op_missed: bool,
        op_refused: bool,
        mshrs: BTreeMap<u64, Vec<WarpRef>>,
        mshr_capacity: usize,
        retry: VecDeque<Packet>,
        pending: Vec<(u64, Packet)>,
        pub stats: PartitionStats,
        l2_hit_latency: u64,
        rop_latency: u64,
        rop_throughput: usize,
        flit_size: usize,
    }

    impl Partition {
        pub fn new(cfg: &GpuConfig, jitter: u32) -> Self {
            Self {
                l2: SectoredCache::new(
                    cfg.l2_slice_size(),
                    cfg.l2_assoc,
                    cfg.line_size,
                    cfg.sector_size,
                ),
                dram: Dram::new(cfg, jitter),
                rop: VecDeque::new(),
                op_index: 0,
                wait_fill: None,
                wait_fill_since: 0,
                op_missed: false,
                op_refused: false,
                mshrs: BTreeMap::new(),
                mshr_capacity: cfg.l2_mshrs,
                retry: VecDeque::new(),
                pending: Vec::new(),
                stats: PartitionStats::default(),
                l2_hit_latency: cfg.l2_hit_latency as u64,
                rop_latency: cfg.rop_latency as u64,
                rop_throughput: cfg.rop_throughput,
                flit_size: cfg.icnt_flit_size,
            }
        }

        pub fn is_busy(&self) -> bool {
            !self.rop.is_empty()
                || self.wait_fill.is_some()
                || !self.retry.is_empty()
                || !self.pending.is_empty()
                || !self.mshrs.is_empty()
                || self.dram.is_busy()
        }

        pub fn enqueue_rop(&mut self, work: RopWork) {
            self.rop.push_back(work);
        }

        pub fn evict_sector(&mut self, addr: u64) {
            self.l2.evict_sector(addr);
        }

        pub fn handle_request(&mut self, pkt: Packet, cycle: u64) {
            if let Some(refused) = self.try_mem_request(pkt, cycle) {
                self.stats.l2_reservation_fails += 1;
                self.retry.push_back(refused);
            }
        }

        fn respond(&mut self, at: u64, payload: Payload) {
            self.pending
                .push((at, Packet::new(0, payload, self.flit_size)));
        }

        fn try_mem_request(&mut self, pkt: Packet, cycle: u64) -> Option<Packet> {
            match pkt.payload {
                Payload::LoadReq { sector_addr, warp } => {
                    if self.l2.probe(sector_addr) == Probe::Hit {
                        self.stats.l2_accesses += 1;
                        self.respond(
                            cycle + self.l2_hit_latency,
                            Payload::LoadResp { sector_addr, warp },
                        );
                        return None;
                    }
                    let sector = sector_addr / 32 * 32;
                    if let Some(waiters) = self.mshrs.get_mut(&sector) {
                        waiters.push(warp);
                    } else if self.mshrs.len() < self.mshr_capacity
                        && self.dram.push(DramUse::FillForLoad {
                            sector_addr: sector,
                        })
                    {
                        self.stats.dram_accesses += 1;
                        self.mshrs.insert(sector, vec![warp]);
                    } else {
                        return Some(pkt);
                    }
                    self.stats.l2_accesses += 1;
                    self.stats.l2_misses += 1;
                }
                Payload::StoreReq { sector_addr, warp } => {
                    if self.l2.probe(sector_addr) != Probe::Hit {
                        if !self.dram.push(DramUse::Write) {
                            return Some(pkt);
                        }
                        self.stats.dram_accesses += 1;
                        self.stats.l2_misses += 1;
                    }
                    self.stats.l2_accesses += 1;
                    self.respond(cycle + self.l2_hit_latency, Payload::StoreAck { warp });
                }
                ref other => panic!("not a memory request: {other:?}"),
            }
            None
        }

        pub fn tick(
            &mut self,
            cycle: u64,
            values: &mut ValueMem,
            ndet: &mut NdetSource,
        ) -> Vec<Packet> {
            for usage in self.dram.tick(cycle, ndet) {
                match usage {
                    DramUse::FillForLoad { sector_addr } => {
                        self.l2.fill(sector_addr);
                        for warp in self.mshrs.remove(&sector_addr).unwrap_or_default() {
                            self.respond(cycle, Payload::LoadResp { sector_addr, warp });
                        }
                    }
                    DramUse::FillForRop { sector_addr } => {
                        self.l2.fill(sector_addr);
                        if self.wait_fill == Some(sector_addr) {
                            self.wait_fill = None;
                            self.stats.rop_fill_stall_cycles += cycle - self.wait_fill_since - 1;
                        }
                    }
                    DramUse::Write => {}
                }
            }
            for _ in 0..self.retry.len() {
                let pkt = self.retry.pop_front().expect("counted");
                if let Some(refused) = self.try_mem_request(pkt, cycle) {
                    self.retry.push_back(refused);
                }
            }
            self.tick_rop(cycle, values);
            let mut out = Vec::new();
            let mut i = 0;
            while i < self.pending.len() {
                if self.pending[i].0 <= cycle {
                    out.push(self.pending.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
            out
        }

        fn tick_rop(&mut self, cycle: u64, values: &mut ValueMem) {
            if self.wait_fill.is_some() {
                return;
            }
            for _ in 0..self.rop_throughput {
                let Some(head) = self.rop.front() else { return };
                let op = head.ops[self.op_index];
                let ack = head.ack;
                if self.l2.probe(op.addr) != Probe::Hit {
                    let sector = op.addr / 32 * 32;
                    if self.dram.push(DramUse::FillForRop {
                        sector_addr: sector,
                    }) {
                        self.stats.dram_accesses += 1;
                        self.stats.l2_misses += u64::from(!self.op_missed);
                        self.op_missed = true;
                        self.wait_fill = Some(sector);
                        self.wait_fill_since = cycle;
                    } else {
                        self.stats.l2_reservation_fails += u64::from(!self.op_refused);
                        self.op_refused = true;
                    }
                    return;
                }
                self.stats.l2_accesses += 1;
                self.op_missed = false;
                self.op_refused = false;
                values.apply_atomic(op.addr, op.op, op.arg);
                self.stats.rop_ops += 1;
                self.op_index += 1;
                if self.op_index == self.rop.front().expect("head").ops.len() {
                    self.rop.pop_front();
                    self.op_index = 0;
                    if let AckTarget::Warp { warp, kind, .. } = ack {
                        self.respond(cycle + self.rop_latency, Payload::AtomicAck { warp, kind });
                    }
                }
            }
        }
    }
}
