//! Property-based tests on DAB's hardware structures.

use proptest::prelude::*;

use dab::buffer::AtomicBuffer;
use dab::flush::PartitionReorder;
use gpu_sim::config::GpuConfig;
use gpu_sim::isa::{AtomicAccess, AtomicOp, Value};
use gpu_sim::mem::packet::RopOp;
use gpu_sim::mem::partition::MemPartition;
use gpu_sim::ndet::NdetSource;
use gpu_sim::values::ValueMem;

proptest! {
    /// The buffer never exceeds its capacity, and a failed insertion leaves
    /// it unchanged with the full bit set.
    #[test]
    fn buffer_capacity_invariant(
        capacity in 1usize..64,
        fusion in any::<bool>(),
        inserts in proptest::collection::vec(
            proptest::collection::vec((0u64..16, 0u32..100), 1..8),
            1..40
        ),
    ) {
        let mut buf = AtomicBuffer::new(capacity, fusion);
        for warp_accesses in inserts {
            let accesses: Vec<AtomicAccess> = warp_accesses
                .iter()
                .enumerate()
                .map(|(lane, &(addr, v))| AtomicAccess::new(lane, addr * 4, Value::U32(v)))
                .collect();
            let before = buf.len();
            let ok = buf.try_insert(AtomicOp::AddU32, &accesses);
            prop_assert!(buf.len() <= capacity);
            if !ok {
                prop_assert_eq!(buf.len(), before, "failed insert must not mutate");
                prop_assert!(buf.full_bit());
            }
        }
    }

    /// For integer ops, draining a fused buffer preserves the per-address
    /// total exactly (fusion is a lossless local reduction).
    #[test]
    fn fusion_preserves_integer_totals(
        inserts in proptest::collection::vec(
            proptest::collection::vec((0u64..8, 0u32..1000), 1..6),
            1..20
        ),
    ) {
        let mut fused = AtomicBuffer::new(4096, true);
        let mut reference: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for warp_accesses in &inserts {
            let accesses: Vec<AtomicAccess> = warp_accesses
                .iter()
                .enumerate()
                .map(|(lane, &(addr, v))| AtomicAccess::new(lane, addr * 4, Value::U32(v)))
                .collect();
            prop_assert!(fused.try_insert(AtomicOp::AddU32, &accesses));
            for &(addr, v) in warp_accesses {
                *reference.entry(addr * 4).or_insert(0) += v as u64;
            }
        }
        let mut totals: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for e in fused.drain() {
            *totals.entry(e.addr).or_insert(0) += e.arg.as_u32() as u64;
        }
        prop_assert_eq!(totals, reference);
    }

    /// Whatever order flush transactions arrive in, the partition reorder
    /// logic serves them in exactly the canonical round-robin order.
    #[test]
    fn reorder_restores_canonical_order(
        counts in proptest::collection::vec(0u32..5, 2..6),
        shuffle_seed in any::<u64>(),
    ) {
        let num_sms = counts.len();
        // Canonical order: rounds over SMs.
        let mut canonical = Vec::new();
        let max = counts.iter().copied().max().unwrap_or(0);
        for round in 0..max {
            for (sm, &c) in counts.iter().enumerate() {
                if round < c {
                    canonical.push((sm, round));
                }
            }
        }
        // Arbitrary arrival order (deterministic shuffle from the seed).
        let mut arrivals: Vec<(usize, u32)> = counts
            .iter()
            .enumerate()
            .flat_map(|(sm, &c)| (0..c).map(move |s| (sm, s)))
            .collect();
        let mut rng_state = shuffle_seed | 1;
        for i in (1..arrivals.len()).rev() {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            arrivals.swap(i, (rng_state as usize) % (i + 1));
        }

        let mut part = MemPartition::new(0, &GpuConfig::tiny(), 0);
        let mut reorder = PartitionReorder::new(num_sms);
        for (sm, &c) in counts.iter().enumerate() {
            reorder.on_pre_flush(sm, c, &mut part);
        }
        // Each transaction encodes its identity in its argument.
        for &(sm, seq) in &arrivals {
            let ops = vec![RopOp {
                addr: 0x100,
                op: AtomicOp::ExchB32,
                arg: Value::U32((sm as u32) << 16 | seq),
            }];
            reorder.on_entry(sm, seq, ops, &mut part, false);
        }
        prop_assert!(reorder.is_done());
        // Drain the ROP: the last-exchanged value at each step follows the
        // canonical order. Reconstruct the applied order by running the
        // partition and observing the exchange sequence.
        let mut values = ValueMem::new();
        let mut ndet = NdetSource::disabled();
        let mut applied = Vec::new();
        let mut last = u32::MAX;
        for cycle in 0..1_000_000u64 {
            part.tick(cycle, &mut values, &mut ndet);
            let cur = values.read_u32(0x100);
            if values.atomics_applied() as usize > applied.len() && cur != last {
                applied.push(((cur >> 16) as usize, cur & 0xffff));
                last = cur;
            }
            if !part.is_busy() {
                break;
            }
        }
        // The final applied value must be the canonical last element.
        if let Some(&(sm, seq)) = canonical.last() {
            prop_assert_eq!(values.read_u32(0x100), (sm as u32) << 16 | seq);
        }
        prop_assert_eq!(values.atomics_applied(), canonical.len() as u64);
    }
}
