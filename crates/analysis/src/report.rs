//! The hazard taxonomy, deterministic report structures, renderers, and
//! the CI allowlist.
//!
//! Everything in a report is **seed-independent and byte-stable**: reports
//! contain only quantities that are invariant under warp renumbering and
//! analysis-thread scheduling (site counts, access counts, address ranges),
//! never wall-clock, witness warp ids, or hash-map iteration artifacts.
//! `dab-analyze --suite` therefore produces byte-identical output across
//! runs and across `DAB_JOBS` settings.
//!
//! The JSON document is an `obs::json` value with a stable field order
//! and hex-string addresses (`null` for site-less findings), written in
//! the layout every results document shares.

use std::fmt::Write as _;

use obs::json::Json;

/// Determinism class of a conflict, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Unordered, but every interleaving produces the same bits (fusible
    /// commutative-associative integer reductions, same op per address).
    Benign,
    /// Deterministic under DAB's ordered buffers, rounding-divergent on a
    /// timing-ordered baseline — exactly the weak-determinism gap the
    /// paper's Fig. 1 demonstrates. Counted, never gated.
    WeakDetOk,
    /// A genuine determinism hazard: the final bits (or an observed
    /// return value) depend on commit order even under DAB.
    Hazard,
}

impl Class {
    /// Stable kebab-case label (used in reports and the allowlist).
    pub fn label(self) -> &'static str {
        match self {
            Class::Benign => "benign",
            Class::WeakDetOk => "weak-det-ok",
            Class::Hazard => "hazard",
        }
    }
}

/// What kind of unordered conflict a finding describes.
///
/// Every kind maps to exactly one [`Class`] — the taxonomy table lives in
/// DESIGN.md ("Static trace analysis").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConflictKind {
    /// Same-op fusible integer `Red`s race on visibility only.
    CommutativeRedRace,
    /// Same-op floating-point `Red`s whose result is rounding-order
    /// dependent (`red.add.f32`, the Fig. 1 case).
    FpRedRace,
    /// Unordered `exch` atomics: last writer wins, order-dependent.
    ExchRace,
    /// Different atomic opcodes reduce one address: the composite is
    /// non-commutative regardless of the opcodes' own algebra.
    MixedOpAtomics,
    /// An `Atom` (value-returning atomic) races: its return value observes
    /// the commit order even when the final memory bits converge.
    AtomReturnRace,
    /// A plain `Load` races with an atomic update to the same word.
    ReadAtomicRace,
    /// A plain `Store` races with an atomic update to the same word.
    MixedPlainAtomic,
    /// Unordered `Store`/`Store` to one word.
    StoreStore,
    /// Unordered `Store`/`Load` on one word.
    StoreLoad,
    /// Warps of one CTA execute different `Bar` counts: the barrier
    /// pairing (and thus every phase-based ordering) is undefined.
    BarrierDivergence,
}

/// All kinds, in declaration order (used by accumulators and tests).
pub const ALL_KINDS: [ConflictKind; 10] = [
    ConflictKind::CommutativeRedRace,
    ConflictKind::FpRedRace,
    ConflictKind::ExchRace,
    ConflictKind::MixedOpAtomics,
    ConflictKind::AtomReturnRace,
    ConflictKind::ReadAtomicRace,
    ConflictKind::MixedPlainAtomic,
    ConflictKind::StoreStore,
    ConflictKind::StoreLoad,
    ConflictKind::BarrierDivergence,
];

impl ConflictKind {
    /// The determinism class this kind belongs to.
    pub fn class(self) -> Class {
        match self {
            ConflictKind::CommutativeRedRace => Class::Benign,
            ConflictKind::FpRedRace => Class::WeakDetOk,
            _ => Class::Hazard,
        }
    }

    /// Stable kebab-case label (used in reports and the allowlist).
    pub fn label(self) -> &'static str {
        match self {
            ConflictKind::CommutativeRedRace => "commutative-red-race",
            ConflictKind::FpRedRace => "fp-red-race",
            ConflictKind::ExchRace => "exch-race",
            ConflictKind::MixedOpAtomics => "mixed-op-atomics",
            ConflictKind::AtomReturnRace => "atom-return-race",
            ConflictKind::ReadAtomicRace => "read-atomic-race",
            ConflictKind::MixedPlainAtomic => "mixed-plain-atomic",
            ConflictKind::StoreStore => "store-store",
            ConflictKind::StoreLoad => "store-load",
            ConflictKind::BarrierDivergence => "barrier-divergence",
        }
    }
}

/// One aggregated conflict finding (per benchmark, merged across its
/// kernels; grouping key is the [`ConflictKind`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The conflict kind (class is derived).
    pub kind: ConflictKind,
    /// Conflict sites: distinct 32-bit words for memory conflicts,
    /// divergent CTAs for [`ConflictKind::BarrierDivergence`].
    pub sites: u64,
    /// Total accesses issued to the conflicting sites (all categories).
    pub accesses: u64,
    /// Lowest conflicting byte address (`u64::MAX` when site-less).
    pub addr_min: u64,
    /// Highest conflicting byte address (0 when site-less).
    pub addr_max: u64,
    /// How many kernels of the benchmark exhibit this kind.
    pub kernels: u64,
}

impl Finding {
    /// A fresh accumulator for `kind`.
    pub fn new(kind: ConflictKind) -> Self {
        Self {
            kind,
            sites: 0,
            accesses: 0,
            addr_min: u64::MAX,
            addr_max: 0,
            kernels: 0,
        }
    }

    /// Folds another finding of the same kind into this one.
    pub fn merge(&mut self, other: &Finding) {
        assert_eq!(self.kind, other.kind);
        self.sites += other.sites;
        self.accesses += other.accesses;
        self.addr_min = self.addr_min.min(other.addr_min);
        self.addr_max = self.addr_max.max(other.addr_max);
        self.kernels += other.kernels;
    }

    fn addr_range(&self) -> String {
        if self.addr_min > self.addr_max {
            "-".to_string()
        } else {
            format!("0x{:08x}..0x{:08x}", self.addr_min, self.addr_max)
        }
    }
}

/// Sorts findings most-severe first, then by stable label.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        b.kind
            .class()
            .cmp(&a.kind.class())
            .then_with(|| a.kind.label().cmp(b.kind.label()))
    });
}

/// A well-formedness violation of the trace itself (see [`crate::lint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintKind {
    /// An atomic access names a lane ≥ the warp's `active_lanes`.
    LaneOutOfRange,
    /// A load/store access carries more addresses than active lanes.
    TooManyLaneAddrs,
    /// Two atomic accesses of one instruction name the same lane.
    DuplicateLane,
    /// A data or lock address is not 4-byte aligned.
    MisalignedAddress,
    /// A warp with an empty instruction stream.
    EmptyProgram,
    /// A kernel grid with no CTAs (or a CTA with no warps).
    EmptyKernel,
    /// `ctas[i].cta_id != i`: static CTA distribution would misassign.
    CtaIdMismatch,
    /// A ticket-lock variable's word is also accessed as data.
    LockAliasesData,
}

impl LintKind {
    /// Stable kebab-case label (used in reports and the allowlist).
    pub fn label(self) -> &'static str {
        match self {
            LintKind::LaneOutOfRange => "lane-out-of-range",
            LintKind::TooManyLaneAddrs => "too-many-lane-addrs",
            LintKind::DuplicateLane => "duplicate-lane",
            LintKind::MisalignedAddress => "misaligned-address",
            LintKind::EmptyProgram => "empty-program",
            LintKind::EmptyKernel => "empty-kernel",
            LintKind::CtaIdMismatch => "cta-id-mismatch",
            LintKind::LockAliasesData => "lock-aliases-data",
        }
    }
}

/// One deduplicated lint: first offending location plus occurrence count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// What invariant was violated.
    pub kind: LintKind,
    /// First offending location, human-readable.
    pub detail: String,
    /// Total occurrences of this kind in the kernel.
    pub count: u64,
}

/// The analysis of one kernel grid.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Kernel name (from [`gpu_sim::kernel::KernelGrid`]).
    pub name: String,
    /// Warps in the grid.
    pub warps: u64,
    /// Distinct 32-bit words accessed.
    pub sites: u64,
    /// Total dynamic accesses analyzed (lane-level).
    pub accesses: u64,
    /// Coalesced load/store sector transactions
    /// (via [`gpu_sim::isa::MemAccess::sectors`]).
    pub transactions: u64,
    /// Sectors written by ≥ 2 warps through ≥ 2 distinct words: no word
    /// conflict, but transaction-level interference (false sharing).
    /// Informational — sector-granular *hazard* classification would
    /// false-positive on legitimate adjacent-word layouts.
    pub shared_sectors: u64,
    /// Conflict findings, most-severe first.
    pub findings: Vec<Finding>,
    /// Well-formedness lints, deduplicated by kind.
    pub lints: Vec<Lint>,
}

/// A lint qualified with the kernel it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintRecord {
    /// Kernel name within the benchmark.
    pub kernel: String,
    /// The deduplicated lint.
    pub lint: Lint,
}

/// The merged analysis of one benchmark (all its kernel launches).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Benchmark name (suite member name; allowlist key).
    pub name: String,
    /// Family label (`graph` / `conv` / `micro`).
    pub family: String,
    /// Number of kernel launches analyzed.
    pub kernels: u64,
    /// Total warps across kernels.
    pub warps: u64,
    /// Distinct words accessed, summed over kernels.
    pub sites: u64,
    /// Total lane-level accesses analyzed.
    pub accesses: u64,
    /// Coalesced load/store sector transactions.
    pub transactions: u64,
    /// False-sharing sectors, summed over kernels.
    pub shared_sectors: u64,
    /// Findings merged across kernels by kind, most-severe first.
    pub findings: Vec<Finding>,
    /// Lints with their kernel of origin, in kernel order.
    pub lints: Vec<LintRecord>,
}

impl BenchReport {
    /// Merges per-kernel reports into one benchmark report.
    pub fn from_kernels(
        name: impl Into<String>,
        family: impl Into<String>,
        kernels: &[KernelReport],
    ) -> Self {
        let mut findings: Vec<Finding> = Vec::new();
        let mut lints = Vec::new();
        let mut warps = 0;
        let mut sites = 0;
        let mut accesses = 0;
        let mut transactions = 0;
        let mut shared_sectors = 0;
        for k in kernels {
            warps += k.warps;
            sites += k.sites;
            accesses += k.accesses;
            transactions += k.transactions;
            shared_sectors += k.shared_sectors;
            for f in &k.findings {
                match findings.iter_mut().find(|m| m.kind == f.kind) {
                    Some(m) => m.merge(f),
                    None => findings.push(f.clone()),
                }
            }
            for l in &k.lints {
                lints.push(LintRecord {
                    kernel: k.name.clone(),
                    lint: l.clone(),
                });
            }
        }
        sort_findings(&mut findings);
        Self {
            name: name.into(),
            family: family.into(),
            kernels: kernels.len() as u64,
            warps,
            sites,
            accesses,
            transactions,
            shared_sectors,
            findings,
            lints,
        }
    }

    /// Sum of finding sites in the given class.
    pub fn class_sites(&self, class: Class) -> u64 {
        self.findings
            .iter()
            .filter(|f| f.kind.class() == class)
            .map(|f| f.sites)
            .sum()
    }
}

/// A gating violation: a non-allowlisted hazard or lint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Benchmark the violation came from.
    pub bench: String,
    /// The finding/lint label that failed the gate.
    pub label: String,
    /// Human-readable context.
    pub detail: String,
}

/// The whole-suite report: every benchmark, in suite order.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteReport {
    /// Scale label the suite was generated at (`ci` / `paper`).
    pub scale: String,
    /// Per-benchmark reports, in suite order.
    pub benches: Vec<BenchReport>,
}

impl SuiteReport {
    /// Total finding sites per class across the suite.
    pub fn class_totals(&self) -> (u64, u64, u64) {
        let sum = |c| self.benches.iter().map(|b| b.class_sites(c)).sum();
        (
            sum(Class::Benign),
            sum(Class::WeakDetOk),
            sum(Class::Hazard),
        )
    }

    /// Every hazard finding and every lint not covered by `allow`.
    pub fn violations(&self, allow: &Allowlist) -> Vec<Violation> {
        let mut v = Vec::new();
        for b in &self.benches {
            for f in &b.findings {
                if f.kind.class() == Class::Hazard && !allow.allows(&b.name, f.kind.label()) {
                    v.push(Violation {
                        bench: b.name.clone(),
                        label: f.kind.label().to_string(),
                        detail: format!(
                            "{} sites, {} accesses, addrs {}",
                            f.sites,
                            f.accesses,
                            f.addr_range()
                        ),
                    });
                }
            }
            for l in &b.lints {
                if !allow.allows(&b.name, l.lint.kind.label()) {
                    v.push(Violation {
                        bench: b.name.clone(),
                        label: l.lint.kind.label().to_string(),
                        detail: format!(
                            "kernel {}: {} ({} occurrences)",
                            l.kernel, l.lint.detail, l.lint.count
                        ),
                    });
                }
            }
        }
        v
    }

    /// Count of hazard findings that *are* covered by the allowlist.
    pub fn allowlisted_hazards(&self, allow: &Allowlist) -> u64 {
        self.benches
            .iter()
            .flat_map(|b| b.findings.iter().map(move |f| (b, f)))
            .filter(|(b, f)| {
                f.kind.class() == Class::Hazard && allow.allows(&b.name, f.kind.label())
            })
            .count() as u64
    }

    /// Allowlist entries that suppress nothing in this report.
    ///
    /// An entry is *used* when it matches at least one hazard-class
    /// finding or one lint — the only things [`Self::violations`] gates
    /// on. Anything else is a stale exemption: the underlying race was
    /// fixed (or renamed) but the exemption lives on, silently ready to
    /// mask a future regression. `dab-analyze --suite` turns a non-empty
    /// result into its own exit code so CI keeps the allowlist minimal.
    pub fn stale_entries(&self, allow: &Allowlist) -> Vec<(String, String)> {
        allow
            .entries()
            .iter()
            .filter(|(bp, lp)| {
                !self.benches.iter().any(|b| {
                    let bench_hit = glob_match(bp, &b.name);
                    bench_hit
                        && (b.findings.iter().any(|f| {
                            f.kind.class() == Class::Hazard && glob_match(lp, f.kind.label())
                        }) || b.lints.iter().any(|l| glob_match(lp, l.lint.kind.label())))
                })
            })
            .cloned()
            .collect()
    }

    /// Renders the human-readable report (stable, byte-identical across
    /// runs for the same suite).
    pub fn render_text(&self, allow: &Allowlist) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "dab-analyze: static trace determinism analysis (scale {})",
            self.scale
        );
        out.push('\n');

        let header = [
            "benchmark",
            "family",
            "kernels",
            "warps",
            "sites",
            "benign",
            "weak-det-ok",
            "hazard",
            "lints",
            "shared-sectors",
        ];
        let mut rows: Vec<Vec<String>> = Vec::new();
        for b in &self.benches {
            rows.push(vec![
                b.name.clone(),
                b.family.clone(),
                b.kernels.to_string(),
                b.warps.to_string(),
                b.sites.to_string(),
                b.class_sites(Class::Benign).to_string(),
                b.class_sites(Class::WeakDetOk).to_string(),
                b.class_sites(Class::Hazard).to_string(),
                b.lints.len().to_string(),
                b.shared_sectors.to_string(),
            ]);
        }
        render_columns(&mut out, &header, &rows);

        let mut finding_lines = Vec::new();
        for b in &self.benches {
            for f in &b.findings {
                finding_lines.push(vec![
                    b.name.clone(),
                    f.kind.class().label().to_string(),
                    f.kind.label().to_string(),
                    format!("sites={}", f.sites),
                    format!("accesses={}", f.accesses),
                    format!("addrs={}", f.addr_range()),
                    format!("kernels={}", f.kernels),
                ]);
            }
        }
        out.push('\n');
        if finding_lines.is_empty() {
            out.push_str("findings: none\n");
        } else {
            out.push_str("findings:\n");
            let fh = ["benchmark", "class", "kind", "", "", "", ""];
            render_columns(&mut out, &fh, &finding_lines);
        }

        for b in &self.benches {
            for l in &b.lints {
                let _ = writeln!(
                    out,
                    "lint: {} kernel {}: {} — {} ({} occurrences)",
                    b.name,
                    l.kernel,
                    l.lint.kind.label(),
                    l.lint.detail,
                    l.lint.count
                );
            }
        }

        let (benign, weak, hazard) = self.class_totals();
        out.push('\n');
        let _ = writeln!(
            out,
            "totals: {benign} benign, {weak} weak-det-ok, {hazard} hazard sites"
        );
        let violations = self.violations(allow);
        if violations.is_empty() {
            let _ = writeln!(
                out,
                "violations: none ({} hazard finding(s) allowlisted)",
                self.allowlisted_hazards(allow)
            );
        } else {
            let _ = writeln!(out, "violations ({}):", violations.len());
            for v in &violations {
                let _ = writeln!(out, "  {} {}: {}", v.bench, v.label, v.detail);
            }
        }
        out
    }

    /// The JSON document, in stable field order (write it with
    /// [`Json::pretty`]).
    pub fn to_json(&self, allow: &Allowlist) -> Json {
        let benches = self.benches.iter().map(|b| {
            let findings = b.findings.iter().map(|f| {
                // Site-less findings (barrier divergence) have no range.
                let absent = f.addr_min > f.addr_max;
                let addr = |a: u64| {
                    if absent {
                        Json::Null
                    } else {
                        Json::from(format!("0x{a:08x}"))
                    }
                };
                Json::obj([
                    ("class", Json::from(f.kind.class().label())),
                    ("kind", Json::from(f.kind.label())),
                    ("sites", Json::from(f.sites)),
                    ("accesses", Json::from(f.accesses)),
                    ("addr_min", addr(f.addr_min)),
                    ("addr_max", addr(f.addr_max)),
                    ("kernels", Json::from(f.kernels)),
                ])
            });
            let lints = b.lints.iter().map(|l| {
                Json::obj([
                    ("kernel", Json::from(l.kernel.as_str())),
                    ("kind", Json::from(l.lint.kind.label())),
                    ("detail", Json::from(l.lint.detail.as_str())),
                    ("count", Json::from(l.lint.count)),
                ])
            });
            Json::obj([
                ("name", Json::from(b.name.as_str())),
                ("family", Json::from(b.family.as_str())),
                ("kernels", Json::from(b.kernels)),
                ("warps", Json::from(b.warps)),
                ("sites", Json::from(b.sites)),
                ("accesses", Json::from(b.accesses)),
                ("transactions", Json::from(b.transactions)),
                ("shared_sectors", Json::from(b.shared_sectors)),
                ("findings", Json::Arr(findings.collect())),
                ("lints", Json::Arr(lints.collect())),
            ])
        });
        let (benign, weak, hazard) = self.class_totals();
        let violations = self.violations(allow).into_iter().map(|v| {
            Json::obj([
                ("bench", Json::from(v.bench)),
                ("label", Json::from(v.label)),
                ("detail", Json::from(v.detail)),
            ])
        });
        Json::obj([
            ("target", Json::from("dab_analyze")),
            ("scale", Json::from(self.scale.as_str())),
            ("benches", Json::Arr(benches.collect())),
            (
                "totals",
                Json::obj([
                    ("benign", Json::from(benign)),
                    ("weak_det_ok", Json::from(weak)),
                    ("hazard", Json::from(hazard)),
                ]),
            ),
            ("violations", Json::Arr(violations.collect())),
        ])
    }
}

/// Aligned-column rendering (two spaces between columns).
fn render_columns(out: &mut String, header: &[&str], rows: &[Vec<String>]) {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut line = String::new();
    for (i, h) in header.iter().enumerate() {
        if i > 0 {
            line.push_str("  ");
        }
        let _ = write!(line, "{:width$}", h, width = widths[i]);
    }
    let _ = writeln!(out, "{}", line.trim_end());
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            let _ = write!(line, "{:width$}", cell, width = widths[i]);
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
}

/// The CI allowlist: which (benchmark, finding-label) pairs may ship.
///
/// File syntax: one `<benchmark> <label>` pair per line, `*` wildcards in
/// either field, `#` comments. Entries suppress *gating*, never reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allowlist {
    entries: Vec<(String, String)>,
}

impl Allowlist {
    /// An allowlist permitting nothing.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Parses allowlist text; rejects malformed (≠ 2 field) lines.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 2 {
                return Err(format!(
                    "allowlist line {}: expected `<benchmark> <finding>`, got {:?}",
                    lineno + 1,
                    raw
                ));
            }
            entries.push((fields[0].to_string(), fields[1].to_string()));
        }
        Ok(Self { entries })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the allowlist has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `(bench, label)` is covered by any entry.
    pub fn allows(&self, bench: &str, label: &str) -> bool {
        self.entries
            .iter()
            .any(|(b, l)| glob_match(b, bench) && glob_match(l, label))
    }

    /// The `(benchmark-pattern, finding-pattern)` entries, in file order.
    pub fn entries(&self) -> &[(String, String)] {
        &self.entries
    }
}

/// Minimal `*`-wildcard matcher (no character classes, `*` matches any
/// run of characters including the empty one).
pub fn glob_match(pattern: &str, text: &str) -> bool {
    fn inner(p: &[u8], t: &[u8]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some(b'*') => inner(&p[1..], t) || (!t.is_empty() && inner(p, &t[1..])),
            Some(&c) => t.first() == Some(&c) && inner(&p[1..], &t[1..]),
        }
    }
    inner(pattern.as_bytes(), text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_classes() {
        assert_eq!(ConflictKind::CommutativeRedRace.class(), Class::Benign);
        assert_eq!(ConflictKind::FpRedRace.class(), Class::WeakDetOk);
        for k in ALL_KINDS {
            if k != ConflictKind::CommutativeRedRace && k != ConflictKind::FpRedRace {
                assert_eq!(k.class(), Class::Hazard, "{k:?}");
            }
        }
    }

    #[test]
    fn labels_are_unique_and_kebab() {
        let labels: Vec<&str> = ALL_KINDS.iter().map(|k| k.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        for l in labels {
            assert!(l
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'));
        }
    }

    #[test]
    fn severity_ordering() {
        assert!(Class::Hazard > Class::WeakDetOk);
        assert!(Class::WeakDetOk > Class::Benign);
        let mut f = vec![
            Finding::new(ConflictKind::CommutativeRedRace),
            Finding::new(ConflictKind::StoreStore),
            Finding::new(ConflictKind::FpRedRace),
        ];
        sort_findings(&mut f);
        assert_eq!(f[0].kind, ConflictKind::StoreStore);
        assert_eq!(f[2].kind, ConflictKind::CommutativeRedRace);
    }

    #[test]
    fn glob_matching() {
        assert!(glob_match("*", "anything"));
        assert!(glob_match("micro_*", "micro_ticket_counter"));
        assert!(!glob_match("micro_*", "BC_1k"));
        assert!(glob_match("*-race", "atom-return-race"));
        assert!(glob_match("a*b*c", "aXXbYYc"));
        assert!(!glob_match("a*b*c", "aXXbYY"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
    }

    #[test]
    fn allowlist_parse_and_match() {
        let a = Allowlist::parse(
            "# comment\n\nmicro_ticket_counter atom-return-race # trailing\nBC_* store-*\n",
        )
        .expect("parses");
        assert_eq!(a.len(), 2);
        assert!(a.allows("micro_ticket_counter", "atom-return-race"));
        assert!(!a.allows("micro_ticket_counter", "store-store"));
        assert!(a.allows("BC_1k", "store-load"));
        assert!(Allowlist::parse("just-one-field").is_err());
        assert!(Allowlist::empty().is_empty());
    }

    #[test]
    fn stale_allowlist_entries_are_detected() {
        let mut hazard = Finding::new(ConflictKind::AtomReturnRace);
        hazard.sites = 1;
        let racy = BenchReport {
            name: "micro_ticket_counter".to_string(),
            family: "micro".to_string(),
            kernels: 1,
            warps: 4,
            sites: 1,
            accesses: 8,
            transactions: 0,
            shared_sectors: 0,
            findings: vec![hazard],
            lints: Vec::new(),
        };
        let mut clean = racy.clone();
        clean.name = "micro_lock_ts".to_string();
        clean.findings.clear();
        let report = SuiteReport {
            scale: "ci".to_string(),
            benches: vec![racy, clean],
        };

        // Used entry: matches a live hazard.
        let a = Allowlist::parse("micro_ticket_counter atom-return-race\n").unwrap();
        assert!(report.stale_entries(&a).is_empty());
        // Wildcards count as used as long as they hit something.
        let a = Allowlist::parse("micro_* atom-*\n").unwrap();
        assert!(report.stale_entries(&a).is_empty());
        // Bench exists but no longer has the finding: stale.
        let a = Allowlist::parse("micro_lock_ts atom-return-race\n").unwrap();
        assert_eq!(
            report.stale_entries(&a),
            vec![("micro_lock_ts".to_string(), "atom-return-race".to_string())]
        );
        // Bench not in the suite at all: stale.
        let a = Allowlist::parse("gone_bench *\n").unwrap();
        assert_eq!(report.stale_entries(&a).len(), 1);
        // Non-hazard findings don't keep an entry alive (they never gate).
        let a = Allowlist::parse("micro_ticket_counter fp-red-race\n").unwrap();
        assert_eq!(report.stale_entries(&a).len(), 1);
    }

    #[test]
    fn finding_merge_folds_ranges() {
        let mut a = Finding {
            kind: ConflictKind::FpRedRace,
            sites: 2,
            accesses: 10,
            addr_min: 0x100,
            addr_max: 0x200,
            kernels: 1,
        };
        let b = Finding {
            kind: ConflictKind::FpRedRace,
            sites: 3,
            accesses: 5,
            addr_min: 0x80,
            addr_max: 0x180,
            kernels: 1,
        };
        a.merge(&b);
        assert_eq!(a.sites, 5);
        assert_eq!(a.accesses, 15);
        assert_eq!(a.addr_min, 0x80);
        assert_eq!(a.addr_max, 0x200);
        assert_eq!(a.kernels, 2);
    }
}
