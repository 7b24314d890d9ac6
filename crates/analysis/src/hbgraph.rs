//! Exportable happens-before graph and schedule choice points.
//!
//! [`crate::conflict`] classifies races and throws the group structure
//! away; this module keeps it. A [`HbGraph`] is the per-kernel view of
//! the ordering structure over *contended words*: nodes are the access
//! groups of every word touched by more than one warp, edges are the
//! happens-before rule that orders a pair (program order, barrier,
//! ticket lock), and the unordered conflicting pairs become explicit
//! [`ChoicePoint`]s — the word-granular units of schedule freedom.
//!
//! Choice points are what turn the analyzer into a model-checking
//! front-end (`dab-explore`): words whose choice points are all
//! order-invariant under DAB (class below [`Class::Hazard`]) cannot
//! produce more than one outcome, so a kernel with **zero hazard choice
//! points is statically proven single-class** and the explorer can skip
//! its schedule enumeration entirely. Racy kernels get a finite list of
//! independent choice points instead of an opaque seed space.
//!
//! Serialization (an `obs::json` document and Graphviz DOT) is byte-stable:
//! nodes are sorted by `(word, walk order)` and words ascending, so the
//! same trace always produces the same bytes — snapshot-tested like the
//! golden suite reports.

use std::fmt::Write as _;

use dab_workloads::suite::Benchmark;
use gpu_sim::kernel::KernelGrid;
use obs::json::Json;

use crate::conflict::{
    classify_pair, group_self_unordered, groups_unordered, walk_kernel, AccessCat,
};
use crate::report::{Class, ConflictKind};

/// One access group: every access to `word` sharing a category and
/// happens-before context. Mirrors the analyzer's internal grouping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbNode {
    /// Byte address of the 32-bit word.
    pub addr: u64,
    /// Access category label (`load`, `store`, `red.add.f32`, …).
    pub cat: String,
    /// CTA index.
    pub cta: u32,
    /// Barrier phase within the CTA.
    pub phase: u32,
    /// Lock word guarding the accesses, if inside a `LockedSection`.
    pub lock: Option<u64>,
    /// Witness warp (first seen); the group's only warp unless
    /// `multi_warp`.
    pub warp: u32,
    /// Whether the group spans several warps.
    pub multi_warp: bool,
    /// Dynamic access count collapsed into this group.
    pub count: u64,
}

/// Why two groups are ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HbRule {
    /// Same warp, single-warp groups: program order.
    Program,
    /// Same CTA, different barrier phases.
    Barrier,
    /// Critical sections guarding the same lock (ticket order).
    Lock,
}

impl HbRule {
    /// Stable label for serialization.
    pub fn label(self) -> &'static str {
        match self {
            HbRule::Program => "program",
            HbRule::Barrier => "barrier",
            HbRule::Lock => "lock",
        }
    }
}

/// A happens-before edge between two nodes of one word (undirected: the
/// rule symmetrically orders every access pair drawn from the groups).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbEdge {
    /// Index into [`HbGraph::nodes`].
    pub a: usize,
    /// Index into [`HbGraph::nodes`] (`a < b`).
    pub b: usize,
    /// The ordering rule.
    pub rule: HbRule,
}

/// One word with at least one unordered conflicting pair: an independent
/// unit of schedule freedom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoicePoint {
    /// Byte address of the contended word.
    pub addr: u64,
    /// Conflict kinds present, in [`crate::report::ALL_KINDS`] order.
    pub kinds: Vec<ConflictKind>,
    /// Number of unordered group pairs (self-pairs included).
    pub pairs: u64,
}

impl ChoicePoint {
    /// The worst class among the kinds present.
    pub fn class(&self) -> Class {
        self.kinds
            .iter()
            .map(|k| k.class())
            .max_by_key(|c| match c {
                Class::Benign => 0,
                Class::WeakDetOk => 1,
                Class::Hazard => 2,
            })
            .unwrap_or(Class::Benign)
    }
}

/// The happens-before graph of one kernel over its contended words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbGraph {
    /// Kernel (grid) name.
    pub kernel: String,
    /// Access groups, sorted by `(addr, walk order)`. Only words with
    /// cross-warp structure appear (≥ 2 groups or a multi-warp group):
    /// single-warp words are ordered by program order trivially and
    /// would bloat the export without adding information.
    pub nodes: Vec<HbNode>,
    /// Happens-before edges between same-word nodes, `(a, b)` ascending.
    pub edges: Vec<HbEdge>,
    /// Words with unordered conflicting pairs, addresses ascending.
    pub choice_points: Vec<ChoicePoint>,
}

fn op_label(op: gpu_sim::isa::AtomicOp) -> &'static str {
    use gpu_sim::isa::AtomicOp::*;
    match op {
        AddF32 => "add.f32",
        AddU32 => "add.u32",
        MaxU32 => "max.u32",
        MinU32 => "min.u32",
        MaxF32 => "max.f32",
        ExchB32 => "exch.b32",
    }
}

fn cat_label(cat: AccessCat) -> String {
    match cat {
        AccessCat::Load => "load".to_string(),
        AccessCat::Store => "store".to_string(),
        AccessCat::Red(op) => format!("red.{}", op_label(op)),
        AccessCat::Atom(op) => format!("atom.{}", op_label(op)),
    }
}

impl HbGraph {
    /// Builds the graph for one kernel grid.
    pub fn of_kernel(grid: &KernelGrid) -> Self {
        let (walk, _) = walk_kernel(grid);
        let mut words: Vec<u64> = walk
            .words
            .iter()
            .filter(|(_, groups)| groups.len() >= 2 || groups.iter().any(|g| g.multi_warp))
            .map(|(&w, _)| w)
            .collect();
        words.sort_unstable();

        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        let mut choice_points = Vec::new();
        for &word in &words {
            let groups = &walk.words[&word];
            let base = nodes.len();
            for g in groups {
                nodes.push(HbNode {
                    addr: word << 2,
                    cat: cat_label(g.cat),
                    cta: g.ctx.cta,
                    phase: g.ctx.phase,
                    lock: g.ctx.lock.map(|l| l << 2),
                    warp: g.ctx.warp,
                    multi_warp: g.multi_warp,
                    count: g.count,
                });
            }
            let mut kinds: Vec<ConflictKind> = Vec::new();
            let mut pairs = 0u64;
            for i in 0..groups.len() {
                for j in i..groups.len() {
                    let unordered = if i == j {
                        group_self_unordered(&groups[i])
                    } else {
                        groups_unordered(&groups[i], &groups[j])
                    };
                    if unordered {
                        if let Some(k) = classify_pair(groups[i].cat, groups[j].cat) {
                            pairs += 1;
                            if !kinds.contains(&k) {
                                kinds.push(k);
                            }
                        }
                        continue;
                    }
                    if i == j {
                        continue;
                    }
                    // Name the rule that ordered the pair, mirroring
                    // `conflict::groups_unordered` clause by clause.
                    let (a, b) = (&groups[i], &groups[j]);
                    let rule = if a.ctx.lock.is_some() && a.ctx.lock == b.ctx.lock {
                        HbRule::Lock
                    } else if a.ctx.cta == b.ctx.cta && a.ctx.phase != b.ctx.phase {
                        HbRule::Barrier
                    } else {
                        HbRule::Program
                    };
                    edges.push(HbEdge {
                        a: base + i,
                        b: base + j,
                        rule,
                    });
                }
            }
            if !kinds.is_empty() {
                kinds.sort_by_key(|k| {
                    crate::report::ALL_KINDS
                        .iter()
                        .position(|x| x == k)
                        .expect("kind is in ALL_KINDS")
                });
                choice_points.push(ChoicePoint {
                    addr: word << 2,
                    kinds,
                    pairs,
                });
            }
        }
        Self {
            kernel: grid.name.clone(),
            nodes,
            edges,
            choice_points,
        }
    }

    /// Graphs for every kernel launch of a benchmark, in launch order.
    pub fn of_benchmark(bench: &Benchmark) -> Vec<Self> {
        bench.kernels.iter().map(Self::of_kernel).collect()
    }

    /// Number of choice points whose class is [`Class::Hazard`] — the
    /// only ones that can split the outcome space under DAB. Zero means
    /// the kernel is statically proven single-class.
    pub fn hazard_choice_points(&self) -> usize {
        self.choice_points
            .iter()
            .filter(|c| c.class() == Class::Hazard)
            .count()
    }

    /// The JSON document (write it with [`Json::pretty`]; byte-stable,
    /// like [`crate::report::SuiteReport::to_json`]).
    pub fn to_json(&self) -> Json {
        let hex = |a: u64| Json::from(format!("{a:#x}"));
        let nodes = self.nodes.iter().enumerate().map(|(i, n)| {
            Json::obj([
                ("id", Json::from(i)),
                ("addr", hex(n.addr)),
                ("cat", Json::from(n.cat.as_str())),
                ("cta", Json::from(n.cta)),
                ("phase", Json::from(n.phase)),
                ("lock", n.lock.map_or(Json::Null, hex)),
                ("warp", Json::from(n.warp)),
                ("multi_warp", Json::from(n.multi_warp)),
                ("count", Json::from(n.count)),
            ])
        });
        let edges = self.edges.iter().map(|e| {
            Json::obj([
                ("a", Json::from(e.a)),
                ("b", Json::from(e.b)),
                ("rule", Json::from(e.rule.label())),
            ])
        });
        let choice_points = self.choice_points.iter().map(|c| {
            Json::obj([
                ("addr", hex(c.addr)),
                ("class", Json::from(c.class().label())),
                (
                    "kinds",
                    Json::Arr(c.kinds.iter().map(|k| Json::from(k.label())).collect()),
                ),
                ("pairs", Json::from(c.pairs)),
            ])
        });
        Json::obj([
            ("kernel", Json::from(self.kernel.as_str())),
            ("nodes", Json::Arr(nodes.collect())),
            ("edges", Json::Arr(edges.collect())),
            ("choice_points", Json::Arr(choice_points.collect())),
        ])
    }

    /// Byte-stable Graphviz DOT rendering for human debugging: one
    /// subgraph cluster per contended word, solid edges for
    /// happens-before rules, red dashed self/pair markers for choice
    /// points.
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "graph \"{}\" {{", self.kernel.replace('"', "'"));
        out.push_str("  node [shape=box, fontsize=10];\n");
        // Group nodes per word for cluster rendering.
        let mut word_ranges: Vec<(u64, usize, usize)> = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            match word_ranges.last_mut() {
                Some((addr, _, end)) if *addr == n.addr => *end = i + 1,
                _ => word_ranges.push((n.addr, i, i + 1)),
            }
        }
        for (addr, lo, hi) in &word_ranges {
            let _ = writeln!(out, "  subgraph \"cluster_{addr:#x}\" {{");
            let _ = writeln!(out, "    label=\"word {addr:#x}\";");
            for i in *lo..*hi {
                let n = &self.nodes[i];
                let warp = if n.multi_warp {
                    format!("warps {}+", n.warp)
                } else {
                    format!("warp {}", n.warp)
                };
                let lock = match n.lock {
                    Some(l) => format!(" lock={l:#x}"),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "    n{i} [label=\"{} cta={} ph={} {}{}\\nx{}\"];",
                    n.cat, n.cta, n.phase, warp, lock, n.count
                );
            }
            out.push_str("  }\n");
        }
        for e in &self.edges {
            let _ = writeln!(
                out,
                "  n{} -- n{} [label=\"{}\"];",
                e.a,
                e.b,
                e.rule.label()
            );
        }
        for c in &self.choice_points {
            let kinds: Vec<&str> = c.kinds.iter().map(|k| k.label()).collect();
            let _ = writeln!(
                out,
                "  \"cp_{addr:#x}\" [shape=ellipse, color=red, \
                 label=\"choice point {addr:#x}\\n{} ({} pairs)\"];",
                kinds.join(","),
                c.pairs,
                addr = c.addr,
            );
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dab_workloads::scale::Scale;
    use dab_workloads::suite::micro_suite;
    use gpu_sim::isa::{AtomicAccess, AtomicOp, Instr, Value, WarpProgram};
    use gpu_sim::kernel::CtaSpec;

    fn micro(name: &str) -> Benchmark {
        micro_suite(Scale::Ci)
            .into_iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("{name} in micro suite"))
    }

    #[test]
    fn hazard_free_micro_benches_have_no_hazard_choice_points() {
        for name in [
            "micro_atomic_sum",
            "micro_lock_ts",
            "micro_lock_bo",
            "micro_lock_tts",
            "micro_order_sensitive",
        ] {
            for g in HbGraph::of_benchmark(&micro(name)) {
                assert_eq!(g.hazard_choice_points(), 0, "{name}/{}", g.kernel);
            }
        }
    }

    #[test]
    fn ticket_counter_has_exactly_one_hazard_choice_point() {
        let graphs = HbGraph::of_benchmark(&micro("micro_ticket_counter"));
        let hazards: usize = graphs.iter().map(HbGraph::hazard_choice_points).sum();
        assert_eq!(hazards, 1, "one shared cursor word");
        let g = graphs
            .iter()
            .find(|g| g.hazard_choice_points() > 0)
            .unwrap();
        let cp = g
            .choice_points
            .iter()
            .find(|c| c.class() == Class::Hazard)
            .unwrap();
        assert!(cp.kinds.contains(&ConflictKind::AtomReturnRace));
        assert!(cp.pairs >= 1);
    }

    #[test]
    fn barrier_and_lock_edges_are_named() {
        let store = |addr| Instr::Store {
            accesses: vec![gpu_sim::isa::MemAccess { addrs: vec![addr] }],
        };
        // Two warps separated by a barrier → one barrier edge, no choice
        // points.
        let grid = KernelGrid::new(
            "bar",
            vec![CtaSpec::new(
                0,
                vec![
                    WarpProgram::new(vec![store(0x100), Instr::Bar], 1),
                    WarpProgram::new(vec![Instr::Bar, store(0x100)], 1),
                ],
            )],
        );
        let g = HbGraph::of_kernel(&grid);
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].rule, HbRule::Barrier);
        assert!(g.choice_points.is_empty());

        // Same-lock critical sections across CTAs → lock edge.
        let locked = |cta: usize| {
            CtaSpec::new(
                cta,
                vec![WarpProgram::new(
                    vec![Instr::LockedSection {
                        kind: gpu_sim::isa::LockKind::TestAndSet,
                        lock_addr: 0x4000,
                        op: AtomicOp::AddF32,
                        accesses: vec![AtomicAccess::new(0, 0x100, Value::F32(1.0))],
                        critical_cycles: 4,
                    }],
                    1,
                )],
            )
        };
        let grid = KernelGrid::new("locked", vec![locked(0), locked(1)]);
        let g = HbGraph::of_kernel(&grid);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].rule, HbRule::Lock);
        assert!(g.choice_points.is_empty());
    }

    #[test]
    fn choice_points_capture_races() {
        let atom = |addr| Instr::Atom {
            op: AtomicOp::AddU32,
            accesses: vec![AtomicAccess::new(0, addr, Value::U32(1))],
        };
        let grid = KernelGrid::new(
            "racy",
            vec![
                CtaSpec::new(0, vec![WarpProgram::new(vec![atom(0x100)], 1)]),
                CtaSpec::new(1, vec![WarpProgram::new(vec![atom(0x100)], 1)]),
            ],
        );
        let g = HbGraph::of_kernel(&grid);
        assert_eq!(g.choice_points.len(), 1);
        assert_eq!(g.choice_points[0].addr, 0x100);
        assert_eq!(g.choice_points[0].kinds, vec![ConflictKind::AtomReturnRace]);
        assert_eq!(g.hazard_choice_points(), 1);
    }

    #[test]
    fn serialization_is_stable() {
        let b = micro("micro_ticket_counter");
        let a1: Vec<String> = HbGraph::of_benchmark(&b)
            .iter()
            .map(|g| g.to_json().pretty())
            .collect();
        let a2: Vec<String> = HbGraph::of_benchmark(&b)
            .iter()
            .map(|g| g.to_json().pretty())
            .collect();
        assert_eq!(a1, a2);
        let d1: Vec<String> = HbGraph::of_benchmark(&b)
            .iter()
            .map(HbGraph::to_dot)
            .collect();
        let d2: Vec<String> = HbGraph::of_benchmark(&b)
            .iter()
            .map(HbGraph::to_dot)
            .collect();
        assert_eq!(d1, d2);
    }
}
