//! Append-only performance history.
//!
//! `dab-perf history append <results.json>` distills one results file to
//! a single JSON line — commit SHA, timestamp, host block, headline
//! geomean, per-workload event-engine timings — and appends it to
//! `results/bench_history.jsonl`. The file is append-only on purpose:
//! each line is self-contained, lines never rewrite each other, and a
//! merge conflict is always resolvable by keeping both sides.
//!
//! `dab-perf history` renders the stored trajectory as a table so a
//! slow drift (every commit 2% slower) is visible even though each
//! individual `compare` stayed inside tolerance.

use crate::metrics::Value;
use obs::json::Json;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// Default history location relative to the repository root.
pub const HISTORY_FILE: &str = "results/bench_history.jsonl";

/// One distilled history record.
#[derive(Debug)]
pub struct Record {
    /// Commit the results were produced at (short SHA, or `"unknown"`).
    pub sha: String,
    /// Seconds since the unix epoch when the record was appended.
    pub unix_secs: u64,
    /// The headline geomean event-vs-dense speedup, if present.
    pub geomean_speedup: Option<f64>,
    /// Per-workload `(name, event_secs, speedup)`.
    pub workloads: Vec<(String, Option<f64>, Option<f64>)>,
    /// The raw host block, re-rendered verbatim.
    pub host: Option<Json>,
}

impl Record {
    /// Distills a parsed results document into a record. `sha` and
    /// `unix_secs` come from the environment, not the document, so
    /// re-appending old results still records *when* it happened.
    pub fn from_results(doc: &Json, sha: String, unix_secs: u64) -> Record {
        let mut workloads = Vec::new();
        if let Some(Json::Arr(items)) = doc.get("workloads") {
            for item in items {
                let Some(name) = item.get("name").and_then(Json::as_str) else {
                    continue;
                };
                workloads.push((
                    name.to_string(),
                    item.get("wall")
                        .and_then(|w| w.get("event_secs"))
                        .and_then(Json::as_f64),
                    item.get("wall")
                        .and_then(|w| w.get("speedup"))
                        .and_then(Json::as_f64),
                ));
            }
        }
        Record {
            sha,
            unix_secs,
            geomean_speedup: doc.get("geomean_speedup").and_then(Json::as_f64),
            workloads,
            host: doc.get("host").cloned(),
        }
    }

    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut members = vec![
            ("sha", Json::from(self.sha.as_str())),
            ("unix_secs", Json::from(self.unix_secs)),
        ];
        if let Some(host) = &self.host {
            members.push(("host", host.clone()));
        }
        if let Some(g) = self.geomean_speedup {
            members.push(("geomean_speedup", Json::from(g)));
        }
        let workloads = self.workloads.iter().map(|(name, secs, speedup)| {
            let mut w = vec![("name", Json::from(name.as_str()))];
            w.extend(secs.map(|s| ("event_secs", Json::from(s))));
            w.extend(speedup.map(|s| ("speedup", Json::from(s))));
            Json::obj(w)
        });
        members.push(("workloads", Json::Arr(workloads.collect())));
        Json::obj(members).render()
    }

    /// Parses one history line back into a record.
    pub fn from_json_line(line: &str) -> Result<Record, String> {
        let doc = Json::parse(line)?;
        let mut workloads = Vec::new();
        if let Some(Json::Arr(items)) = doc.get("workloads") {
            for item in items {
                let Some(name) = item.get("name").and_then(Json::as_str) else {
                    continue;
                };
                workloads.push((
                    name.to_string(),
                    item.get("event_secs").and_then(Json::as_f64),
                    item.get("speedup").and_then(Json::as_f64),
                ));
            }
        }
        Ok(Record {
            sha: doc
                .get("sha")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            unix_secs: doc.get("unix_secs").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            geomean_speedup: doc.get("geomean_speedup").and_then(Json::as_f64),
            workloads,
            host: doc.get("host").cloned(),
        })
    }
}

/// Loads every parseable record from a history file. Unparseable lines
/// are skipped with their error collected, not fatal: a half-written
/// final line (killed run) must not brick the whole history.
pub fn load(path: &Path) -> Result<(Vec<Record>, Vec<String>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut records = Vec::new();
    let mut errors = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Record::from_json_line(line) {
            Ok(r) => records.push(r),
            Err(e) => errors.push(format!("line {}: {e}", i + 1)),
        }
    }
    Ok((records, errors))
}

/// Appends one record to the history file, creating parent directories
/// as needed.
pub fn append(path: &Path, record: &Record) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    writeln!(file, "{}", record.to_json_line())
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

/// The current short commit SHA, or `"unknown"` outside a git checkout.
pub fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Renders the trajectory table: one row per record, oldest first.
pub fn render(records: &[Record]) -> String {
    if records.is_empty() {
        return "history is empty\n".to_string();
    }
    // Workload columns, in order of first appearance across the history.
    let mut names: Vec<&str> = Vec::new();
    for r in records {
        for (name, _, _) in &r.workloads {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
    }
    let mut header = vec!["sha".to_string(), "date".to_string(), "geomean".to_string()];
    for name in &names {
        header.push(format!("{name} s"));
    }
    let mut rows: Vec<Vec<String>> = vec![header];
    for r in records {
        let mut row = vec![
            r.sha.clone(),
            format_date(r.unix_secs),
            r.geomean_speedup
                .map_or("-".to_string(), |g| format!("{g:.3}x")),
        ];
        for name in &names {
            let secs = r
                .workloads
                .iter()
                .find(|(n, _, _)| n == name)
                .and_then(|(_, s, _)| *s);
            row.push(secs.map_or("-".to_string(), |s| Value::Num(s).display()));
        }
        rows.push(row);
    }
    let cols = rows[0].len();
    let mut widths = vec![0usize; cols];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for row in &rows {
        let line = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ");
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// `unix_secs` as `YYYY-MM-DD` (proleptic Gregorian, UTC). Good enough
/// for a trajectory table; no external time crates in this workspace.
fn format_date(unix_secs: u64) -> String {
    let days = unix_secs / 86_400;
    // Civil-from-days (Howard Hinnant's algorithm), era-based.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_a_json_line() {
        let doc = Json::parse(include_str!("../../../BENCH_engine.json")).unwrap();
        let rec = Record::from_results(&doc, "abc123def456".to_string(), 1_754_000_000);
        let line = rec.to_json_line();
        let back = Record::from_json_line(&line).unwrap();
        assert_eq!(back.sha, "abc123def456");
        assert_eq!(back.unix_secs, 1_754_000_000);
        assert_eq!(back.geomean_speedup, rec.geomean_speedup);
        assert_eq!(back.workloads, rec.workloads);
        assert_eq!(back.workloads.len(), 2);
        assert!(back
            .workloads
            .iter()
            .all(|(_, s, sp)| s.is_some() && sp.is_some()));
    }

    #[test]
    fn load_skips_garbage_lines() {
        let dir = std::env::temp_dir().join("dab-perf-history-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.jsonl");
        std::fs::write(
            &path,
            "{\"sha\": \"aaa\", \"unix_secs\": 100, \"workloads\": []}\nnot json\n",
        )
        .unwrap();
        let (records, errors) = load(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].sha, "aaa");
        assert_eq!(errors.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn render_shows_one_row_per_record() {
        let records = vec![
            Record {
                sha: "aaa111".to_string(),
                unix_secs: 1_754_000_000,
                geomean_speedup: Some(1.2),
                workloads: vec![("w1".to_string(), Some(0.5), Some(1.1))],
                host: None,
            },
            Record {
                sha: "bbb222".to_string(),
                unix_secs: 1_754_100_000,
                geomean_speedup: Some(1.3),
                workloads: vec![("w1".to_string(), Some(0.4), Some(1.2))],
                host: None,
            },
        ];
        let table = render(&records);
        assert!(table.contains("aaa111"), "{table}");
        assert!(table.contains("bbb222"), "{table}");
        assert!(table.contains("1.200x"), "{table}");
        assert!(table.contains("w1 s"), "{table}");
    }

    #[test]
    fn dates_format_correctly() {
        assert_eq!(format_date(0), "1970-01-01");
        assert_eq!(format_date(1_754_611_200), "2025-08-08");
    }
}
