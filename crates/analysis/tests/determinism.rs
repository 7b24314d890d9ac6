//! The analyzer's own determinism: rendered reports must be byte-identical
//! across repeated runs and under permutations of warp order within each
//! CTA. Warp order inside a CTA is a scheduling artifact — the
//! happens-before relation (and therefore every finding) may not depend
//! on it.

use std::sync::OnceLock;

use analysis::{analyze_suite, Allowlist};
use dab_workloads::scale::Scale;
use dab_workloads::suite::{analyze_all, micro_suite, Benchmark};
use proptest::prelude::*;

/// Small cross-family subset: barrier phases (conv), irregular graph
/// reductions, and every micro construct (locks, atom-with-return).
fn subset() -> Vec<Benchmark> {
    analyze_all(Scale::Ci)
        .into_iter()
        .filter(|b| matches!(b.name.as_str(), "BC_1k" | "cnv2_3") || b.name.starts_with("micro_"))
        .collect()
}

fn baseline() -> &'static (Vec<Benchmark>, String, String) {
    static BASELINE: OnceLock<(Vec<Benchmark>, String, String)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let benches = subset();
        let report = analyze_suite(&benches, "ci");
        let text = report.render_text(&Allowlist::empty());
        let json = report.to_json(&Allowlist::empty()).pretty();
        (benches, text, json)
    })
}

/// Applies adjacent-swap edits to warp order; any permutation is a
/// composition of such swaps.
fn permute_warps(bench: &Benchmark, swaps: &[(u8, u8, u8)]) -> Benchmark {
    let mut b = bench.clone();
    for &(k, c, i) in swaps {
        let nk = b.kernels.len();
        let grid = &mut b.kernels[k as usize % nk];
        let nc = grid.ctas.len();
        let cta = &mut grid.ctas[c as usize % nc];
        let n = cta.warps.len();
        if n >= 2 {
            let i = i as usize % n;
            cta.warps.swap(i, (i + 1) % n);
        }
    }
    b
}

#[test]
fn repeated_analysis_is_byte_identical() {
    let benches = micro_suite(Scale::Ci);
    let allow = Allowlist::empty();
    let a = analyze_suite(&benches, "ci");
    let b = analyze_suite(&benches, "ci");
    assert_eq!(a.render_text(&allow), b.render_text(&allow));
    assert_eq!(a.to_json(&allow).pretty(), b.to_json(&allow).pretty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn warp_order_does_not_change_the_report(
        swaps in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>()),
            1..24,
        ),
    ) {
        let (benches, text, json) = baseline();
        let permuted: Vec<Benchmark> =
            benches.iter().map(|b| permute_warps(b, &swaps)).collect();
        let report = analyze_suite(&permuted, "ci");
        prop_assert_eq!(&report.render_text(&Allowlist::empty()), text);
        prop_assert_eq!(&report.to_json(&Allowlist::empty()).pretty(), json);
    }
}
