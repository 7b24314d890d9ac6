//! Flattening a results document into classified metrics.
//!
//! A results JSON tree becomes a flat list of `(path, value)` pairs:
//! object members append their key as a path segment, array elements of
//! objects carrying a string `"name"` member use that name as the segment
//! (so `workloads[0]` reads `workloads.atomic_sum_64k`), and other array
//! elements use their index. Every leaf is then classified by the same
//! namespace contract `SimStats` enforces at run time:
//!
//! * **det** — bit-stable for a given scale/seed: any drift between two
//!   runs is a correctness regression, so `dab-perf compare` demands
//!   exact equality. A path is det-class when it passes under a `det`
//!   object, and by default otherwise (cycles, digests, counters, and
//!   derived ratios of deterministic quantities all live here).
//! * **wall** — host timing: compared with a relative tolerance. A path
//!   is wall-class when it passes under a `wall` object, or when its
//!   leaf names a timing
//!   (`*secs*`, `*overhead*`, `*speedup*`, `*_per_sec`).
//! * **info** — host identity (`host.*`, `workers`): reported, never
//!   compared — two valid runs of the same commit may come from
//!   different machines.

use obs::json::Json;

/// The comparison class of one flattened metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Bit-stable: exact equality required.
    Det,
    /// Host timing: tolerance applies.
    Wall,
    /// Host identity: reported only.
    Info,
}

impl Class {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Class::Det => "det",
            Class::Wall => "wall",
            Class::Info => "info",
        }
    }
}

/// A flattened scalar leaf.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A JSON number.
    Num(f64),
    /// A JSON string (digests, labels).
    Str(String),
    /// A JSON boolean.
    Bool(bool),
}

impl Value {
    /// Rendering for report/compare tables.
    pub fn display(&self) -> String {
        match self {
            Value::Num(x) => {
                if *x == x.trunc() && x.abs() < 9e15 {
                    format!("{}", *x as i64)
                } else {
                    format!("{x:.6}")
                }
            }
            Value::Str(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
        }
    }
}

/// One flattened, classified metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Dotted path from the document root, e.g.
    /// `workloads.atomic_sum_64k.det.cycles`.
    pub path: String,
    /// Its comparison class.
    pub class: Class,
    /// The leaf value.
    pub value: Value,
}

/// Classifies a flattened path under the det/wall namespace contract.
pub fn classify(path: &str) -> Class {
    let segments: Vec<&str> = path.split('.').collect();
    let leaf = segments.last().copied().unwrap_or_default();
    if segments.contains(&"host") || leaf == "workers" {
        return Class::Info;
    }
    if segments.contains(&"det") {
        return Class::Det;
    }
    if segments.contains(&"wall") {
        return Class::Wall;
    }
    if leaf.contains("secs")
        || leaf.contains("overhead")
        || leaf.contains("speedup")
        || leaf.ends_with("_per_sec")
    {
        return Class::Wall;
    }
    Class::Det
}

/// Flattens a parsed document into classified metrics, in document order.
pub fn flatten(doc: &Json) -> Vec<Metric> {
    let mut out = Vec::new();
    walk(doc, String::new(), &mut out);
    out
}

fn walk(node: &Json, path: String, out: &mut Vec<Metric>) {
    match node {
        Json::Obj(members) => {
            for (key, value) in members {
                // A "name" member already consumed as the path segment of
                // this object carries no extra information.
                if key == "name"
                    && path.ends_with(value.as_str().unwrap_or_default())
                    && value.as_str().is_some_and(|s| !s.is_empty())
                {
                    continue;
                }
                let child = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                walk(value, child, out);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let segment = item
                    .get("name")
                    .and_then(Json::as_str)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .unwrap_or_else(|| i.to_string());
                let child = if path.is_empty() {
                    segment
                } else {
                    format!("{path}.{segment}")
                };
                walk(item, child, out);
            }
        }
        Json::Null => {}
        Json::Bool(b) => push(out, path, Value::Bool(*b)),
        Json::Num(x) => push(out, path, Value::Num(*x)),
        Json::Str(s) => push(out, path, Value::Str(s.clone())),
    }
}

fn push(out: &mut Vec<Metric>, path: String, value: Value) {
    let class = classify(&path);
    out.push(Metric { path, class, value });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_follows_the_namespace_contract() {
        assert_eq!(classify("workloads.w.det.cycles"), Class::Det);
        assert_eq!(classify("workloads.w.det.digest"), Class::Det);
        assert_eq!(classify("workloads.w.wall.event_secs"), Class::Wall);
        assert_eq!(classify("geomean_speedup"), Class::Wall);
        assert_eq!(classify("max_profile_overhead"), Class::Wall);
        assert_eq!(classify("runs.BC_1k/dab.wall_secs"), Class::Wall);
        assert_eq!(classify("runs.BC_1k/dab.cycles_per_sec"), Class::Wall);
        assert_eq!(classify("host.nproc"), Class::Info);
        assert_eq!(classify("workers"), Class::Info);
        // Defaults to det: cycles, digests, derived deterministic ratios.
        assert_eq!(classify("runs.BC_1k/dab.cycles"), Class::Det);
        assert_eq!(classify("runs.BC_1k/dab.digest"), Class::Det);
        assert_eq!(classify("metrics.geomean_dab"), Class::Det);
        assert_eq!(classify("target"), Class::Det);
    }

    #[test]
    fn flatten_uses_names_as_array_segments() {
        let doc = Json::parse(
            r#"{ "workloads": [
                 { "name": "w1", "det": { "cycles": 10 } },
                 { "name": "w2", "det": { "cycles": 20 } } ],
                 "anon": [1, 2] }"#,
        )
        .unwrap();
        let metrics = flatten(&doc);
        let paths: Vec<&str> = metrics.iter().map(|m| m.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "workloads.w1.det.cycles",
                "workloads.w2.det.cycles",
                "anon.0",
                "anon.1"
            ]
        );
        assert_eq!(metrics[0].class, Class::Det);
        assert_eq!(metrics[0].value, Value::Num(10.0));
    }

    #[test]
    fn flatten_keeps_unconsumed_name_leaves() {
        // A "name" member inside an object that was NOT addressed by that
        // name (object not in an array) stays a metric.
        let doc = Json::parse(r#"{ "thing": { "name": "x", "v": 1 } }"#).unwrap();
        let metrics = flatten(&doc);
        assert!(metrics.iter().any(|m| m.path == "thing.name"));
    }
}
