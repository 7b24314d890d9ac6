//! Deterministic replay of every case proptest ever shrank to in
//! `properties.proptest-regressions`.
//!
//! The regression file's `cc` hashes only replay under the exact upstream
//! proptest RNG; this test pins the *shrunken inputs themselves* (recorded
//! in the file's comments) as plain `#[test]`s, so the historical
//! flush-protocol bugs stay guarded no matter how the fuzzer's stream or
//! shrinking behaviour changes.
//!
//! Each case asserts the paper's central claim on the recorded kernel:
//! two runs under different hardware-timing seeds produce bitwise
//! identical memory under DAB.

#[path = "../../gpu-sim/tests/common/mod.rs"]
mod common;

use common::{build_grid, run, Barriers, Op};
use dab::{DabConfig, DabModel};
use gpu_sim::config::{EngineKind::Event, GpuConfig};
use gpu_sim::ndet::NdetSource;
use gpu_sim::sched::SchedKind::*;

/// Replays one recorded case through the shared generator. The fuzzer drew
/// codes 0-7 (ALU, load, store, two hot-cell `red`s, two strided `red`s,
/// barrier) for 32-lane warps with per-warp barrier counts; its config
/// table maps `sched_pick` into [Srr, Gtrr, Gtar, Gwat] and
/// `capacity_pick` into [32, 96]. Two runs under the recorded seed pair
/// must leave the same digest.
fn check_case(
    warp_codes: &[&[&[u8]]],
    sched_pick: usize,
    capacity_pick: usize,
    fusion: bool,
    coalescing: bool,
    seeds: (u64, u64),
) {
    let cfg = DabConfig::paper_default()
        .with_scheduler([Srr, Gtrr, Gtar, Gwat][sched_pick])
        .with_capacity([32, 96][capacity_pick])
        .with_fusion(fusion)
        .with_coalescing(coalescing);
    let raw = warp_codes
        .iter()
        .enumerate()
        .map(|(c, warps)| {
            (warps.iter().enumerate())
                .map(|(w, codes)| {
                    (codes.iter().enumerate())
                        .map(|(k, &code)| match code {
                            0 => (Op::Alu, 1, 4),
                            1 => (Op::Load, (c * 64 + w * 8 + k) as u64, 0),
                            2 => (Op::Store, k as u64, 0),
                            3 | 4 => (Op::RedHot, 0, 0),
                            5 | 6 => (Op::RedStrided, 0, 0),
                            _ => (Op::Bar, 0, 0),
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let grid = build_grid(raw, 32, Barriers::PerWarp);
    let machine = GpuConfig::tiny();
    let digest = |seed| {
        let model = |gpu: &GpuConfig| Box::new(DabModel::new(gpu, cfg.clone())) as _;
        run(&grid, &machine, model, Event, NdetSource::seeded(seed)).digest()
    };
    assert_eq!(
        digest(seeds.0),
        digest(seeds.1),
        "config {} must be bitwise deterministic on the recorded kernel",
        cfg.label()
    );
}

#[test]
fn srr_barrier_then_hot_atomic() {
    // cc 7af60e45: one CTA, warps [Bar] and [Red-hot] under SRR-32.
    check_case(&[&[&[7], &[3]]], 0, 0, false, false, (0, 1000));
}

#[test]
fn srr_single_load() {
    // cc e38fb7cc: a lone load under SRR-32.
    check_case(&[&[&[1]]], 0, 0, false, false, (0, 1000));
}

#[test]
fn srr_alu_burst_vs_barrier() {
    // cc 20afcd9e: ALU burst racing a barrier-only warp under SRR-32.
    check_case(&[&[&[0, 0, 0], &[7]]], 0, 0, false, false, (0, 1008));
}

#[test]
fn srr_barrier_then_atomic_same_warp() {
    // cc 10b2e1f0: barrier followed by a hot atomic in one warp.
    check_case(&[&[&[7, 3]]], 0, 0, false, false, (0, 1000));
}

#[test]
fn gtrr_multi_cta_barrier_mix() {
    // cc 74548705: three CTAs mixing ALU, hot atomics, and barriers
    // under GTRR-32.
    check_case(
        &[
            &[&[0], &[0, 3, 3, 3, 3], &[7]],
            &[&[0]],
            &[&[0], &[7], &[3]],
        ],
        1,
        0,
        false,
        false,
        (0, 1000),
    );
}

#[test]
fn gtar_cross_cta_barrier_atomic() {
    // cc bc0c4968: GTAR-32 with a barrier+atomic CTA racing ALU CTAs.
    check_case(
        &[&[&[0, 0]], &[&[0]], &[&[7, 3]]],
        2,
        0,
        false,
        false,
        (0, 1000),
    );
}

#[test]
fn gtar_barrier_fronted_warps() {
    // cc 9399b419: GTAR-32, barriers leading in two of three CTAs.
    check_case(
        &[&[&[7], &[0, 3, 3, 3]], &[&[0]], &[&[3], &[7]]],
        2,
        0,
        false,
        false,
        (0, 1000),
    );
}

#[test]
fn gtar_coalescing_strided_mix() {
    // cc fb690755: GTAR-32 with flush coalescing on, five CTAs mixing
    // hot and strided reductions, stores, and barriers.
    check_case(
        &[
            &[&[3]],
            &[&[2, 0], &[7, 3, 3, 3, 5]],
            &[&[3, 5, 3]],
            &[&[2, 1], &[1, 2, 5, 3]],
            &[&[5]],
        ],
        2,
        0,
        false,
        true,
        (805, 1000),
    );
}

#[test]
fn gtrr_load_heavy_two_ctas() {
    // cc 3c3f9df2: GTRR-32, load/barrier/atomic interleavings across
    // two CTAs, distinct seed pair (365, 1001).
    check_case(
        &[&[&[1, 7, 3, 7, 0, 3]], &[&[1, 3, 0, 0]]],
        1,
        0,
        false,
        false,
        (365, 1001),
    );
}
