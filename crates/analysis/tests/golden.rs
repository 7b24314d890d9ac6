//! Golden-snapshot tests for `dab-analyze` report rendering.
//!
//! One benchmark per workload family is analyzed at CI scale and the
//! rendered text and JSON reports are compared byte-for-byte against
//! checked-in fixtures under `tests/golden/`. Regenerate after an
//! intentional report change with:
//!
//! ```text
//! DAB_BLESS=1 cargo test -p analysis --test golden
//! ```

use std::path::PathBuf;

use analysis::hbgraph::HbGraph;
use analysis::{analyze_suite, Allowlist, SuiteReport};
use dab_workloads::scale::Scale;
use dab_workloads::suite::analyze_all;

/// One benchmark per family (graph, conv, micro), plus the intentionally
/// racy micro so the fixture pins the allowlisted-hazard rendering too.
const GOLDEN_BENCHES: [&str; 4] = [
    "BC_1k",
    "cnv2_3",
    "micro_atomic_sum",
    "micro_ticket_counter",
];

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn shipped_allowlist() -> Allowlist {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("suite-allowlist.txt");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Allowlist::parse(&text).expect("shipped allowlist parses")
}

fn subset_report() -> SuiteReport {
    let benches: Vec<_> = analyze_all(Scale::Ci)
        .into_iter()
        .filter(|b| GOLDEN_BENCHES.contains(&b.name.as_str()))
        .collect();
    assert_eq!(
        benches.len(),
        GOLDEN_BENCHES.len(),
        "suite no longer contains every golden benchmark"
    );
    analyze_suite(&benches, "ci")
}

fn check(fixture: &str, got: &str) {
    let path = fixture_path(fixture);
    if obs::env::flag("DAB_BLESS") {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e}\n(generate fixtures with \
             `DAB_BLESS=1 cargo test -p analysis --test golden`)",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{fixture} drifted; if the report change is intentional, rerun with \
         `DAB_BLESS=1 cargo test -p analysis --test golden` and commit"
    );
}

#[test]
fn golden_text_report() {
    check(
        "subset.txt",
        &subset_report().render_text(&shipped_allowlist()),
    );
}

#[test]
fn golden_json_report() {
    check(
        "subset.json",
        &subset_report().to_json(&shipped_allowlist()).pretty(),
    );
}

/// Pins the `--emit-hb` exports for a hazard-free and a racy micro: the
/// graph (and therefore the explorer's choice-point input) must stay
/// byte-stable.
#[test]
fn golden_hb_graphs() {
    let hb_benches = ["micro_atomic_sum", "micro_ticket_counter"];
    let benches: Vec<_> = analyze_all(Scale::Ci)
        .into_iter()
        .filter(|b| hb_benches.contains(&b.name.as_str()))
        .collect();
    assert_eq!(benches.len(), hb_benches.len());
    for b in &benches {
        for g in HbGraph::of_benchmark(b) {
            let stem = format!("{}__{}", b.name, g.kernel.replace(['/', ' '], "__"));
            check(&format!("{stem}.hb.json"), &g.to_json().pretty());
            check(&format!("{stem}.hb.dot"), &g.to_dot());
        }
    }
}
