//! The committed exploration report is what the explorer produces today.
//!
//! `dab-explore --suite --json` at `DAB_SCALE=ci` with default knobs
//! writes `results/dab_explore.json`. Its branch-site and decision-site
//! counts and its outcome classes depend on exactly which crossbar and
//! dispatch draws are eligible branch points, so any change to an
//! arbiter's scan, or to when it draws, shows up here as a byte
//! difference.

use std::path::PathBuf;

use dab_explore::{ExploreConfig, SuiteExploration};
use dab_workloads::scale::Scale;
use dab_workloads::suite::micro_suite;

#[test]
fn suite_exploration_matches_committed_report() {
    let scale = Scale::Ci;
    let cfg = ExploreConfig::new(scale.gpu());
    let result = SuiteExploration::run(&cfg, scale.label(), &micro_suite(scale));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/dab_explore.json");
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let fresh = result.to_json().pretty();
    assert!(
        fresh == committed,
        "exploration differs from {}; regenerate it with \
         `DAB_SCALE=ci cargo run --release -p dab-explore -- --suite --json`\n\
         fresh report:\n{fresh}",
        path.display()
    );
}
