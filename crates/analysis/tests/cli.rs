//! The `dab-analyze` binary reads its knobs before doing any work: a
//! worker count that is not a positive integer stops it, naming the
//! variable, instead of analysing on the default count.

use std::process::Command;

#[test]
fn malformed_jobs_knob_stops_the_binary() {
    let out = Command::new(env!("CARGO_BIN_EXE_dab-analyze"))
        .args(["--suite", "--quiet"])
        .env("DAB_JOBS", "O8")
        .output()
        .expect("run dab-analyze");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "DAB_JOBS=O8 must fail: {stderr}");
    assert!(
        stderr.contains("DAB_JOBS") && stderr.contains("\"O8\""),
        "the error must name DAB_JOBS and its value: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no analysis may run first");
}
