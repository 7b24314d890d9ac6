//! End-to-end tests for the `dab-perf` binary: exit codes and output
//! for report/compare against synthetic and committed results files.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dab-perf"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dab-perf-cli-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &Path, name: &str, contents: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

fn results(cycles: u64, digest: &str, event_secs: f64, speedup: f64) -> String {
    format!(
        r#"{{
  "target": "synthetic",
  "host": {{ "nproc": 4 }},
  "workloads": [
    {{ "name": "w",
      "det": {{ "cycles": {cycles}, "digest": "{digest}" }},
      "wall": {{ "event_secs": {event_secs}, "speedup": {speedup} }} }}
  ],
  "geomean_speedup": {speedup}
}}"#
    )
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn compare_passes_on_identical_files_and_fails_on_det_drift() {
    let dir = scratch("det");
    let a = write(&dir, "a.json", &results(100, "0xabc", 1.0, 1.5));
    let same = write(&dir, "same.json", &results(100, "0xabc", 1.0, 1.5));
    let drift = write(&dir, "drift.json", &results(101, "0xabc", 1.0, 1.5));

    let ok = bin().args(["compare"]).arg(&a).arg(&same).output().unwrap();
    assert_eq!(ok.status.code(), Some(0), "{}", stdout(&ok));
    assert!(stdout(&ok).contains("PASS"), "{}", stdout(&ok));

    // A det drift fails even with an absurd wall tolerance.
    let bad = bin()
        .args(["compare", "--wall-tolerance", "1000"])
        .arg(&a)
        .arg(&drift)
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1), "{}", stdout(&bad));
    assert!(
        stdout(&bad).contains("workloads.w.det.cycles"),
        "{}",
        stdout(&bad)
    );
    assert!(stdout(&bad).contains("FAIL"), "{}", stdout(&bad));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_applies_the_wall_tolerance() {
    let dir = scratch("wall");
    let a = write(&dir, "a.json", &results(100, "0xabc", 1.0, 1.5));
    // 30% slower event engine, same det section.
    let slower = write(&dir, "b.json", &results(100, "0xabc", 1.3, 1.5));

    let within = bin()
        .args(["compare", "--wall-tolerance", "0.5"])
        .arg(&a)
        .arg(&slower)
        .output()
        .unwrap();
    assert_eq!(within.status.code(), Some(0), "{}", stdout(&within));

    let beyond = bin()
        .args(["compare", "--wall-tolerance", "0.1"])
        .arg(&a)
        .arg(&slower)
        .output()
        .unwrap();
    assert_eq!(beyond.status.code(), Some(1), "{}", stdout(&beyond));
    assert!(
        stdout(&beyond).contains("workloads.w.wall.event_secs"),
        "{}",
        stdout(&beyond)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_pairs_directories_by_file_name() {
    let base = scratch("dir-a");
    let cand = scratch("dir-b");
    write(&base, "one.json", &results(10, "0x1", 1.0, 1.2));
    write(&base, "two.json", &results(20, "0x2", 2.0, 1.4));
    write(&cand, "one.json", &results(10, "0x1", 1.0, 1.2));
    write(&cand, "two.json", &results(21, "0x2", 2.0, 1.4));

    let out = bin()
        .args(["compare"])
        .arg(&base)
        .arg(&cand)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("== one.json"), "{text}");
    assert!(text.contains("== two.json"), "{text}");

    // A baseline file missing from the candidate side is a usage error,
    // not a silent skip.
    std::fs::remove_file(cand.join("two.json")).unwrap();
    let out = bin()
        .args(["compare"])
        .arg(&base)
        .arg(&cand)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&cand).ok();
}

#[test]
fn report_prints_classified_metrics() {
    let dir = scratch("report");
    let a = write(&dir, "a.json", &results(100, "0xabc", 1.0, 1.5));
    let out = bin().args(["report"]).arg(&a).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("det   workloads.w.det.cycles"), "{text}");
    assert!(text.contains("wall  workloads.w.wall.event_secs"), "{text}");
    assert!(text.contains("info  host.nproc"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_exits_2() {
    let out = bin().args(["compare", "only-one.json"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin().args(["frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args(["report", "/nonexistent/x.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn compare_works_against_the_committed_baseline() {
    // A committed figure document must compare clean against itself, and
    // its host timings and host block must classify as wall and info —
    // guards the classifier against schema drift in the results writer.
    let fig10 = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/fig10_overall.json");
    let out = bin()
        .args(["compare"])
        .arg(&fig10)
        .arg(&fig10)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    let out = bin().args(["report"]).arg(&fig10).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    for line in [
        "det   runs.0.cycles",
        "det   runs.0.digest",
        "wall  wall_secs",
        "wall  runs.0.wall_secs",
        "wall  runs.0.cycles_per_sec",
        "info  host.nproc",
    ] {
        assert!(text.contains(line), "{line:?} missing from\n{text}");
    }
}
