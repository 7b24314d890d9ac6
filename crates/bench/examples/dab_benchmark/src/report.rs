//! The benchmark's outputs: the line format it prints (and `compare`
//! reads back), the det/wall-split JSON `dab-perf` reads, and the
//! collapsed-stack `trace.folded`.
//!
//! Line format, one fact per line:
//!
//! ```text
//! config DAB_ENGINE event
//! host nproc 2
//! atomic_dense pass_s 5.123 s q1=5.101 q3=5.188 n=5
//! atomic_dense det.fingerprint 0x0123456789abcdef hex
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{lookup, Class, Kind, Metric};
use crate::stats::{quantile, Summary};

/// The knob block (`config`: two outputs compare only when these agree)
/// and the host block (`host`: reported, never compared).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Header {
    pub config: Vec<(String, String)>,
    pub host: Vec<(String, String)>,
}

/// One summarized metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub summary: Summary,
}

/// A complete output: header, metric rows, and per-workload fingerprints
/// of every simulation's `(label, cycles, digest)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Output {
    pub header: Header,
    pub rows: Vec<Row>,
    pub fingerprints: Vec<(String, u64)>,
}

impl Output {
    /// The line format.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.header.config {
            let _ = writeln!(out, "config {k} {v}");
        }
        for (k, v) in &self.header.host {
            let _ = writeln!(out, "host {k} {v}");
        }
        for r in &self.rows {
            let s = &r.summary;
            let _ = writeln!(
                out,
                "{} {} {} {} q1={} q3={} n={}",
                r.workload, r.metric, s.median, r.unit, s.q1, s.q3, s.n
            );
        }
        for (w, fp) in &self.fingerprints {
            let _ = writeln!(out, "{w} det.fingerprint {fp:#018x} hex");
        }
        out
    }

    /// Parses the line format. Blank lines, `#` comments and the JSON
    /// result line `measure` ends with are skipped.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut out = Self::default();
        for line in text.lines() {
            let bad = || format!("malformed line {line:?}");
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                [] => {}
                [first, ..] if first.starts_with('#') || first.starts_with('{') => {}
                ["config", k, v] => out.header.config.push((k.to_string(), v.to_string())),
                ["host", k, v] => out.header.host.push((k.to_string(), v.to_string())),
                [w, "det.fingerprint", fp, "hex"] => {
                    out.fingerprints
                        .push((w.to_string(), crate::pass::parse_hex(fp).ok_or_else(bad)?));
                }
                [w, metric, median, unit, q1, q3, n] => {
                    let field = |s: &str, key: &str| {
                        s.strip_prefix(key).map(str::to_string).ok_or_else(bad)
                    };
                    let num = |s: String| s.parse::<f64>().map_err(|_| bad());
                    out.rows.push(Row {
                        workload: w.to_string(),
                        metric: metric.to_string(),
                        unit: unit.to_string(),
                        summary: Summary {
                            median: median.parse().map_err(|_| bad())?,
                            q1: num(field(q1, "q1=")?)?,
                            q3: num(field(q3, "q3=")?)?,
                            n: field(n, "n=")?.parse().map_err(|_| bad())?,
                        },
                    });
                }
                _ => return Err(bad()),
            }
        }
        Ok(out)
    }
}

/// How one metric moved between two outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    /// Worse by more than the bound, or any det drift.
    Regressed,
    /// The spread of either side exceeds the bound: no call either way.
    Unresolved,
    /// A metric without a bound: reported, never judged.
    Info,
}

/// Judges candidate `b` against baseline `a`. Returns the verdict and
/// the relative change in the worse direction (positive = worse).
pub fn verdict(m: &Metric, a: &Summary, b: &Summary) -> (Verdict, f64) {
    let rel = (b.median - a.median) / a.median.abs().max(1e-12);
    let worse = if m.higher_is_better { -rel } else { rel };
    let v = match (m.class, m.bound) {
        (Class::Det, _) if (a.median, a.q1, a.q3) != (b.median, b.q1, b.q3) => Verdict::Regressed,
        (Class::Det, _) => Verdict::Ok,
        (Class::Wall, None) => Verdict::Info,
        (Class::Wall, Some(bound)) if a.spread().max(b.spread()) > bound => Verdict::Unresolved,
        (Class::Wall, Some(bound)) if worse > bound => Verdict::Regressed,
        (Class::Wall, Some(bound)) if worse < -bound => Verdict::Improved,
        (Class::Wall, Some(_)) => Verdict::Ok,
    };
    (v, worse)
}

/// Compares two outputs. Returns the rendered table and whether
/// anything regressed, or an error when their knob blocks differ.
pub fn compare(a: &Output, b: &Output) -> Result<(String, bool), String> {
    if a.header.config != b.header.config {
        return Err(format!(
            "refusing to compare: the config blocks differ\n  A: {:?}\n  B: {:?}",
            a.header.config, b.header.config
        ));
    }
    let mut regressed = false;
    let mut table = vec![[
        "workload",
        "metric",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "delta",
        "bound",
        "verdict",
    ]
    .map(String::from)];
    let fmt = |s: &Summary| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
    for ra in &a.rows {
        let Some(m) = lookup(&ra.metric) else {
            continue;
        };
        let rb = b
            .rows
            .iter()
            .find(|r| r.workload == ra.workload && r.metric == ra.metric);
        let (cell_b, delta, v) = match rb {
            Some(rb) => {
                let (v, worse) = verdict(m, &ra.summary, &rb.summary);
                (fmt(&rb.summary), format!("{:+.2}%", worse * 100.0), v)
            }
            // Per-layer metrics exist only in traced outputs.
            None if m.kind == Kind::Layer => {
                ("missing".to_string(), "-".to_string(), Verdict::Info)
            }
            None => ("missing".to_string(), "-".to_string(), Verdict::Regressed),
        };
        regressed |= v == Verdict::Regressed;
        let bound = m
            .bound
            .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
        table.push([
            ra.workload.clone(),
            format!("{} ({})", ra.metric, ra.unit),
            fmt(&ra.summary),
            cell_b,
            delta,
            bound,
            format!("{v:?}").to_lowercase(),
        ]);
    }
    for (w, fa) in &a.fingerprints {
        let fb = b.fingerprints.iter().find(|(wb, _)| wb == w).map(|x| x.1);
        let v = if fb == Some(*fa) {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
        regressed |= v == Verdict::Regressed;
        table.push([
            w.clone(),
            "det.fingerprint".to_string(),
            format!("{fa:#018x}"),
            fb.map_or("missing".to_string(), |f| format!("{f:#018x}")),
            "-".to_string(),
            "exact".to_string(),
            format!("{v:?}").to_lowercase(),
        ]);
    }
    if a.header.host != b.header.host {
        table.push([
            "note".to_string(),
            format!(
                "host blocks differ: {:?} vs {:?}",
                a.header.host, b.header.host
            ),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    let mut widths = [0usize; 7];
    for row in &table {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for row in &table {
        let cells: Vec<String> = row
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        let _ = writeln!(out, "{}", cells.join("  ").trim_end());
    }
    Ok((out, regressed))
}

/// JSON number: `null` for a non-finite value.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The det/wall-split JSON document `dab-perf report`/`compare` read:
/// `det` holds simulated quantities (exact), `wall` host measurements
/// (median, quartiles, n), `host` the header (never compared). Labels
/// and metric names are plain ASCII without quotes, so strings need no
/// escaping.
pub fn to_json(out: &Output, sims: &BTreeMap<String, Vec<(String, u64, u64)>>) -> String {
    let mut s = String::from("{\n  \"target\": \"dab_benchmark\",\n  \"host\": {");
    let header: Vec<String> = out
        .header
        .config
        .iter()
        .chain(&out.header.host)
        .map(|(k, v)| format!(" \"{k}\": \"{v}\""))
        .collect();
    let _ = write!(s, "{} }},\n  \"workloads\": [", header.join(","));
    for (i, (w, fp)) in out.fingerprints.iter().enumerate() {
        let rows = out.rows.iter().filter(|r| &r.workload == w);
        let (det, wall): (Vec<&Row>, Vec<&Row>) =
            rows.partition(|r| lookup(&r.metric).is_some_and(|m| m.class == Class::Det));
        let _ = write!(
            s,
            "{}\n    {{ \"name\": \"{w}\",\n      \"det\": {{",
            if i > 0 { "," } else { "" }
        );
        let _ = write!(s, " \"fingerprint\": \"{fp:#018x}\"");
        for r in det {
            let _ = write!(s, ", \"{}\": {}", r.metric, num(r.summary.median));
        }
        s.push_str(",\n        \"runs\": [");
        for (j, (label, cycles, digest)) in sims.get(w).into_iter().flatten().enumerate() {
            let _ = write!(
                s,
                "{}\n          {{ \"name\": \"{label}\", \"cycles\": {cycles}, \"digest\": \"{digest:#018x}\" }}",
                if j > 0 { "," } else { "" }
            );
        }
        s.push_str(" ] },\n      \"wall\": {");
        for (j, r) in wall.iter().enumerate() {
            let m = &r.summary;
            let _ = write!(
                s,
                "{}\n        \"{}\": {{ \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {} }}",
                if j > 0 { "," } else { "" },
                r.metric,
                num(m.median),
                num(m.q1),
                num(m.q3),
                m.n
            );
        }
        s.push_str(" } }");
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// Collapsed-stack text from the traced passes' spans: per path, the
/// median inclusive duration over the passes, minus its direct
/// children's, in whole microseconds (`path self_us` per line).
pub fn folded(passes: &[&[(String, f64)]]) -> String {
    let mut order: Vec<&str> = Vec::new();
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for spans in passes {
        for (path, secs) in spans.iter() {
            let v = samples.entry(path).or_default();
            if v.is_empty() {
                order.push(path);
            }
            v.push(*secs);
        }
    }
    let total: BTreeMap<&str, f64> = samples
        .iter()
        .map(|(p, v)| (*p, quantile(v, 0.5)))
        .collect();
    let mut out = String::new();
    for path in order {
        let children: f64 = total
            .iter()
            .filter(|(c, _)| {
                c.strip_prefix(path)
                    .and_then(|r| r.strip_prefix(';'))
                    .is_some_and(|r| !r.contains(';'))
            })
            .map(|(_, v)| v)
            .sum();
        let self_us = ((total[path] - children) * 1e6).max(0.0).round();
        let _ = writeln!(out, "{path} {self_us}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 5,
        }
    }

    fn metric(name: &str) -> &'static Metric {
        lookup(name).unwrap()
    }

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let wall = metric("pass_s"); // lower is better
        let b = wall.bound.unwrap();
        // Medians at 10 * (1 + k * bound), with a 2% spread unless given.
        let at = |k: f64| {
            summary(
                10.0 * (1.0 + k * b),
                9.9 * (1.0 + k * b),
                10.1 * (1.0 + k * b),
            )
        };
        let base = at(0.0);
        assert_eq!(verdict(wall, &base, &at(0.5)).0, Verdict::Ok);
        assert_eq!(verdict(wall, &base, &at(1.5)).0, Verdict::Regressed);
        assert_eq!(verdict(wall, &base, &at(-1.5)).0, Verdict::Improved);
        // A spread wider than the bound: no call, even for a big move.
        let wide = summary(20.0, 20.0 * (1.0 - b), 20.0 * (1.0 + b));
        assert_eq!(verdict(wall, &base, &wide).0, Verdict::Unresolved);
        let rate = metric("warp_instrs_per_s"); // higher is better
        let (v, worse) = verdict(rate, &base, &at(-1.5));
        assert_eq!(v, Verdict::Regressed);
        assert!((worse - 1.5 * b).abs() < 1e-12);
        assert_eq!(verdict(rate, &base, &at(1.5)).0, Verdict::Improved);
        let prepare = metric("engine.prepare_s");
        assert_eq!(verdict(prepare, &base, &at(9.0)).0, Verdict::Info);
    }

    #[test]
    fn det_drift_is_always_a_regression() {
        let cycles = metric("sim_cycles");
        let a = summary(1000.0, 1000.0, 1000.0);
        assert_eq!(verdict(cycles, &a, &a).0, Verdict::Ok);
        // One cycle of drift is far inside the bound but still regressed,
        // and so is an improvement.
        assert_eq!(
            verdict(cycles, &a, &summary(1001.0, 1001.0, 1001.0)).0,
            Verdict::Regressed
        );
        assert_eq!(
            verdict(cycles, &a, &summary(999.0, 999.0, 999.0)).0,
            Verdict::Regressed
        );
        assert_eq!(
            verdict(metric("rop.ops"), &a, &summary(1000.0, 999.0, 1000.0)).0,
            Verdict::Regressed
        );
    }

    fn output(wall: f64, fp: u64) -> Output {
        Output {
            header: Header {
                config: vec![
                    ("seed".into(), "1".into()),
                    ("DAB_ENGINE".into(), "event".into()),
                ],
                host: vec![("nproc".into(), "2".into())],
            },
            rows: vec![
                Row {
                    workload: "conv_dense".into(),
                    metric: "pass_s".into(),
                    unit: "s".into(),
                    summary: summary(wall, wall * 0.99, wall * 1.01),
                },
                Row {
                    workload: "conv_dense".into(),
                    metric: "sim_cycles".into(),
                    unit: "cycles".into(),
                    summary: summary(5.0, 5.0, 5.0),
                },
            ],
            fingerprints: vec![("conv_dense".into(), fp)],
        }
    }

    #[test]
    fn lines_round_trip() {
        let o = output(5.25, 0xabc);
        let text = format!("# comment\n{}{{\"correct\": true}}\n", o.to_lines());
        assert_eq!(Output::parse(&text).unwrap(), o);
        assert!(Output::parse("conv_dense pass_s 1 s q1=1 q3=1\n").is_err());
        assert!(Output::parse("conv_dense pass_s 1 s q1=1 q3=x n=2\n").is_err());
    }

    #[test]
    fn compare_gates_on_regressions_fingerprints_and_knobs() {
        let a = output(5.0, 1);
        let (table, regressed) = compare(&a, &output(5.1, 1)).unwrap();
        assert!(!regressed, "{table}");
        let (table, regressed) = compare(&a, &output(7.0, 1)).unwrap();
        assert!(regressed && table.contains("regressed"), "{table}");
        let (table, regressed) = compare(&a, &output(5.0, 2)).unwrap();
        assert!(regressed && table.contains("det.fingerprint"), "{table}");
        // A traced baseline against an untraced candidate: the missing
        // per-layer rows are reported, the missing end-to-end row regresses.
        let mut traced = output(5.0, 1);
        traced.rows[0].metric = "engine.prepare_s".into();
        let (table, regressed) = compare(&traced, &output(5.0, 1)).unwrap();
        assert!(!regressed && table.contains("missing"), "{table}");
        let (_, regressed) = compare(&a, &traced).unwrap();
        assert!(regressed);
        let mut knobs = output(5.0, 1);
        knobs.header.config[1].1 = "dense".into();
        assert!(compare(&a, &knobs)
            .unwrap_err()
            .contains("config blocks differ"));
    }

    #[test]
    fn folded_reports_self_time_of_each_span() {
        let p1 = vec![
            ("w".to_string(), 10.0),
            ("w;gen".to_string(), 2.0),
            ("w;run".to_string(), 7.0),
            ("w;run;engine.prepare".to_string(), 3.0),
        ];
        let p2: Vec<(String, f64)> = p1.iter().map(|(p, v)| (p.clone(), v * 3.0)).collect();
        let p3 = p1.clone();
        let text = folded(&[&p1, &p2, &p3]);
        assert_eq!(
            text,
            "w 1000000\nw;gen 2000000\nw;run 4000000\nw;run;engine.prepare 3000000\n"
        );
    }

    #[test]
    fn json_splits_det_and_wall() {
        let o = output(5.0, 0xabc);
        let mut sims = BTreeMap::new();
        sims.insert(
            "conv_dense".to_string(),
            vec![("cnv2_2/dab".to_string(), 7, 0xff)],
        );
        let json = to_json(&o, &sims);
        assert!(
            json.contains("\"det\": { \"fingerprint\": \"0x0000000000000abc\", \"sim_cycles\": 5"),
            "{json}"
        );
        assert!(
            json.contains(
                "{ \"name\": \"cnv2_2/dab\", \"cycles\": 7, \"digest\": \"0x00000000000000ff\" }"
            ),
            "{json}"
        );
        assert!(
            json.contains("\"pass_s\": { \"median\": 5, \"q1\": 4.95"),
            "{json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
