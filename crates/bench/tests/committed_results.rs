//! Pins simulation results to the committed figure data.
//!
//! The other engine tests compare the simulator with itself: dense
//! against event engine, one worker count against another. A change to
//! the issue walk both engines share passes all of them. These tests rerun
//! two fig10 benchmarks under all three models at the figure's seed and
//! demand the cycles and memory digest recorded in
//! `results/fig10_overall.json`. `cnv2_3` releases barriers in the middle
//! of an issue walk; `BC_1k` issues sparse atomics with long drains.

use dab::DabConfig;
use dab_bench::Runner;
use dab_workloads::scale::Scale;
use dab_workloads::suite::full_suite;
use obs::json::Json;

const FIG10: &str = include_str!("../../../results/fig10_overall.json");

/// The committed `(seed, cycles, digest)` of the fig10 run `label`.
fn committed(label: &str) -> (u64, u64, String) {
    let doc = Json::parse(FIG10).expect("results/fig10_overall.json parses");
    let run = doc
        .get("runs")
        .and_then(Json::as_arr)
        .expect("fig10 has a runs array")
        .iter()
        .find(|r| r.get("label").and_then(Json::as_str) == Some(label))
        .unwrap_or_else(|| panic!("no run {label:?} in results/fig10_overall.json"));
    let num = |name: &str| {
        run.get(name)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{label}: no numeric {name}")) as u64
    };
    let digest = run
        .get("digest")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{label}: no digest"));
    (num("seed"), num("cycles"), digest.to_string())
}

/// Runs benchmark `name` of the CI-scale suite under baseline, DAB
/// (`paper_default`) and GPUDet, and checks each against fig10.
fn check_against_fig10(name: &str) {
    let runner = Runner::at_scale(Scale::Ci);
    let suite = full_suite(Scale::Ci);
    let bench = suite
        .iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("no benchmark {name} in the CI suite"));
    let reports = [
        ("baseline", runner.baseline(&bench.kernels)),
        (
            "dab",
            runner.dab(DabConfig::paper_default(), &bench.kernels),
        ),
        ("gpudet", runner.gpudet(&bench.kernels)),
    ];
    for (model, report) in reports {
        let label = format!("{name}/{model}");
        let (seed, cycles, digest) = committed(&label);
        assert_eq!(seed, runner.seed, "{label}: fig10 ran at another seed");
        assert_eq!(
            report.cycles(),
            cycles,
            "{label}: cycles drifted from fig10"
        );
        assert_eq!(
            format!("0x{:016x}", report.digest()),
            digest,
            "{label}: memory digest drifted from fig10"
        );
    }
}

#[test]
fn cnv2_3_matches_committed_fig10() {
    check_against_fig10("cnv2_3");
}

#[test]
fn bc_1k_matches_committed_fig10() {
    check_against_fig10("BC_1k");
}
