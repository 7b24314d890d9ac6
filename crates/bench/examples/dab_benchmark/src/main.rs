//! `dab_benchmark`: the repository benchmark. It runs four workloads
//! through the simulator's public entry points, checks every output, and
//! reports end-to-end and per-layer metrics with their spread. See
//! the package's `README.md` for the workloads, the metrics, and how
//! to run, trace and compare.
//!
//! ```text
//! dab_benchmark run [--seed N] [--reps N] [--out FILE] [--traced]
//! dab_benchmark measure --workload W --seed N --seconds S --trace 0|1
//! dab_benchmark compare A B
//! dab_benchmark goldens
//! ```
//!
//! Every pass of a workload runs in a fresh child process of this binary
//! (`dab_benchmark pass ...`), one at a time, so each pass's peak RSS is
//! its own and no two passes share host caches.

mod metrics;
mod pass;
mod report;
mod speed;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use metrics::{Kind, METRICS};
use pass::{PassOutput, Workload};
use report::{Header, Output, Row};
use stats::{quantile, Summary};

/// Fewest timed passes a `measure` run makes, however short `--seconds`.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage:
  dab_benchmark run [--seed N] [--reps N] [--out FILE] [--traced]
  dab_benchmark measure --workload W --seed N --seconds S --trace 0|1
  dab_benchmark compare A B
  dab_benchmark goldens
workloads: atomic_dense graph_sparse conv_dense seed_sweep";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("measure") => measure(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("pass") => child_pass(&args[1..]),
        Some("goldens") => goldens(),
        _ => Err(String::new()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `--key value` options and `--flag`s.
#[derive(Debug, Default)]
struct Opts {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Opts {
    fn parse(args: &[String], keys: &[&str], flags: &[&str]) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            if flags.contains(&key) {
                opts.flags.push(key.to_string());
            } else if keys.contains(&key) {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                opts.values.insert(key.to_string(), value.clone());
            } else {
                return Err(format!("unknown option {arg:?}"));
            }
        }
        Ok(opts)
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self
            .values
            .get("workload")
            .ok_or("--workload is required")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn num(&self, key: &str, default: Option<u64>) -> Result<u64, String> {
        match self.values.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} must be a whole number, got {v:?}")),
            None => default.ok_or_else(|| format!("--{key} is required")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// Where passes write their results and `measure` its trace: next to
/// this executable, inside the build directory.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    exe.parent()
        .expect("the executable lives in a directory")
        .join("dab_benchmark-out")
}

/// Runs one pass in a fresh child process and waits for it.
fn spawn_pass(w: Workload, seed: u64, traced: bool) -> PassOutput {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["pass", "--workload", w.name(), "--seed", &seed.to_string()]);
    if traced {
        cmd.arg("--traced");
    }
    cmd.stdin(Stdio::null()).stderr(Stdio::inherit());
    match cmd.output() {
        Ok(o) if o.status.success() => PassOutput::parse(&String::from_utf8_lossy(&o.stdout))
            .unwrap_or_else(|e| PassOutput::lost(w, e)),
        Ok(o) => PassOutput::lost(w, format!("the pass process exited with {}", o.status)),
        Err(e) => PassOutput::lost(w, format!("cannot start the pass process: {e}")),
    }
}

/// Points the results sink at [`out_dir`] and silences the runner's
/// per-simulation progress lines. Call before any thread starts.
fn quiet_results() {
    std::env::set_var("DAB_RESULTS_DIR", out_dir().join("results"));
    std::env::set_var("DAB_QUIET", "1");
}

/// `pass --workload W --seed N [--traced]`: one pass, printed as lines.
fn child_pass(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args, &["workload", "seed"], &["traced"])?;
    let w = opts.workload()?;
    let seed = opts.num("seed", None)?;
    quiet_results();
    let out = pass::run_pass(w, seed, opts.flag("traced"), Some(&pass::goldens()));
    print!("{}", out.to_lines());
    Ok(ExitCode::SUCCESS)
}

/// `goldens`: every simulation's seed-1 cycles and digest, in the
/// `goldens.txt` format (checks against the old goldens are skipped).
fn goldens() -> Result<ExitCode, String> {
    quiet_results();
    println!("# bench model cycles digest, at seed 1 (written by `dab_benchmark goldens`)");
    let mut seen = Vec::new();
    for w in Workload::ALL {
        let out = pass::run_pass(w, 1, false, None);
        if out.failed > 0 {
            return Err(format!("{}: {}", w.name(), out.causes.join("; ")));
        }
        for (label, cycles, digest) in out.sims {
            let mut parts = label.split('/');
            let (Some(bench), Some(model)) = (parts.next(), parts.next()) else {
                continue;
            };
            let seeded_1 = parts.next().is_none_or(|s| s == "s1");
            if seeded_1 && !seen.contains(&label) {
                println!("{bench} {model} {cycles} {digest:#018x}");
                seen.push(label);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// The commit being measured, as the short SHA `dab-perf history` keys
/// `results/bench_history.jsonl` by; `unknown` unless the working
/// directory is a checkout's root (git is not asked to look above it).
fn git_sha() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The knob and host blocks every output carries.
fn header(seed: u64) -> Header {
    let gpu = dab_bench::Runner::from_env().gpu;
    let engine = match gpu.engine {
        gpu_sim::config::EngineKind::Dense => "dense",
        gpu_sim::config::EngineKind::Event => "event",
    };
    let config = [
        ("seed", seed.to_string()),
        ("DAB_SIM_THREADS", gpu.sim_threads.to_string()),
        ("DAB_COMMIT_SHARD", u8::from(gpu.commit_shard).to_string()),
        ("DAB_ENGINE", engine.to_string()),
        (
            "DAB_REPLICATIONS",
            gpu_sim::par::replications_from_env().to_string(),
        ),
        ("sweep_workers", pass::sweep_workers().to_string()),
    ];
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Header {
        config: config
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        host: vec![
            ("nproc".into(), nproc.to_string()),
            ("git_sha".into(), git_sha()),
        ],
    }
}

/// What a pass is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Untimed: its outputs are checked, its timings dropped.
    WarmUp,
    /// Untraced: end-to-end metrics.
    Timed,
    /// Profiled: per-layer metrics and spans.
    Traced,
}

/// Every pass of one workload.
#[derive(Default)]
struct Collected {
    /// Timed untraced passes (end-to-end metrics).
    timed: Vec<PassOutput>,
    /// Traced passes (per-layer metrics).
    traced: Vec<PassOutput>,
    attempted: usize,
    failed: usize,
    causes: Vec<String>,
    /// The simulations' `(label, cycles, digest)`, identical in every pass.
    sims: Option<Vec<(String, u64, u64)>>,
}

impl Collected {
    /// Runs one pass in a child process and books it. A pass whose
    /// simulated results differ from the first pass's fails every
    /// simulation: the same seed must give the same results.
    fn pass(&mut self, w: Workload, seed: u64, role: Role) {
        let p = spawn_pass(w, seed, role == Role::Traced);
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.causes.extend(p.causes.iter().cloned());
        if p.failed == 0 {
            match &self.sims {
                None => self.sims = Some(p.sims.clone()),
                Some(first) if *first != p.sims => {
                    self.failed += p.attempted;
                    self.causes.push(format!(
                        "{}: simulated results differ between passes of one seed",
                        w.name()
                    ));
                }
                Some(_) => {}
            }
        }
        match role {
            Role::WarmUp => {}
            Role::Timed => self.timed.push(p),
            Role::Traced => self.traced.push(p),
        }
    }

    /// Summary rows: end-to-end metrics from the timed passes, per-layer
    /// metrics from the traced ones.
    fn rows(&self, w: Workload, kind: Kind) -> Vec<Row> {
        let passes = if kind == Kind::EndToEnd {
            &self.timed
        } else {
            &self.traced
        };
        let wall = |ps: &[PassOutput]| -> Vec<f64> {
            ps.iter()
                .filter_map(|p| p.metrics.get("pass_s").copied())
                .collect()
        };
        let mut rows = Vec::new();
        for m in METRICS.iter().filter(|m| m.kind == kind) {
            let samples: Vec<f64> = match m.name {
                "error_rate" => vec![self.failed as f64 / self.attempted.max(1) as f64],
                "trace.overhead" => {
                    let (traced, untraced) = (wall(&self.traced), wall(&self.timed));
                    if traced.is_empty() || untraced.is_empty() {
                        continue;
                    }
                    traced
                        .iter()
                        .map(|t| t / quantile(&untraced, 0.5) - 1.0)
                        .collect()
                }
                name => passes
                    .iter()
                    .filter_map(|p| p.metrics.get(name).copied())
                    .collect(),
            };
            if !samples.is_empty() {
                rows.push(Row {
                    workload: w.name().to_string(),
                    metric: m.name.to_string(),
                    unit: m.unit.to_string(),
                    summary: Summary::of(&samples),
                });
            }
        }
        rows
    }

    /// FNV-1a over every simulation's label, cycles and digest.
    fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (label, cycles, digest) in self.sims.iter().flatten() {
            for b in label
                .bytes()
                .chain(cycles.to_le_bytes())
                .chain(digest.to_le_bytes())
            {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }
}

/// Prints each failure cause on stderr.
fn report_causes(all: &[(Workload, Collected)]) {
    for (_, c) in all {
        for cause in &c.causes {
            eprintln!("FAILED {cause}");
        }
    }
}

/// `run`: every workload, one warm-up pass each, then `--reps`
/// timed passes interleaved round-robin across workloads, then (with
/// `--traced`) one traced pass each. Exits 1 if any check failed.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args, &["seed", "reps", "out"], &["traced"])?;
    let seed = opts.num("seed", Some(1))?;
    let reps = opts.num("reps", Some(5))?.max(1);
    let traced = opts.flag("traced");
    let mut all: Vec<(Workload, Collected)> = Workload::ALL
        .iter()
        .map(|&w| (w, Collected::default()))
        .collect();
    for (w, c) in &mut all {
        eprintln!("[dab_benchmark] {} warm-up", w.name());
        c.pass(*w, seed, Role::WarmUp);
    }
    for rep in 1..=reps {
        for (w, c) in &mut all {
            eprintln!("[dab_benchmark] {} rep {rep}/{reps}", w.name());
            c.pass(*w, seed, Role::Timed);
        }
    }
    if traced {
        for (w, c) in &mut all {
            eprintln!("[dab_benchmark] {} traced", w.name());
            c.pass(*w, seed, Role::Traced);
        }
    }
    report_causes(&all);
    let out = output(seed, &all, traced);
    print!("{}", out.to_lines());
    let out_path = opts.values.get("out").map(PathBuf::from);
    if let Some(path) = &out_path {
        let sims = all
            .iter()
            .map(|(w, c)| (w.name().to_string(), c.sims.clone().unwrap_or_default()))
            .collect();
        write_file(path, &report::to_json(&out, &sims))?;
    }
    if traced {
        let dir = match &out_path {
            Some(p) => p.parent().map(Path::to_path_buf).unwrap_or_default(),
            None => out_dir(),
        };
        write_folded(&dir.join("trace.folded"), &all)?;
    }
    let failed = all.iter().any(|(_, c)| c.failed > 0);
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The summarized output of a set of collected workloads.
fn output(seed: u64, all: &[(Workload, Collected)], layers: bool) -> Output {
    let mut rows = Vec::new();
    for (w, c) in all {
        rows.extend(c.rows(*w, Kind::EndToEnd));
        if layers {
            rows.extend(c.rows(*w, Kind::Layer));
        }
    }
    Output {
        header: header(seed),
        rows,
        fingerprints: all
            .iter()
            .map(|(w, c)| (w.name().to_string(), c.fingerprint()))
            .collect(),
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("[dab_benchmark] wrote {}", path.display());
    Ok(())
}

fn write_folded(path: &Path, all: &[(Workload, Collected)]) -> Result<(), String> {
    let spans: Vec<&[(String, f64)]> = all
        .iter()
        .flat_map(|(_, c)| c.traced.iter().map(|p| p.spans.as_slice()))
        .collect();
    write_file(path, &report::folded(&spans))
}

/// `measure`: one workload for about `--seconds`: passes run while the
/// next one (estimated as the median pass so far) still fits, and at
/// least [`MIN_PASSES`] run; with `--trace 1`, traced and untraced passes
/// alternate. The last stdout line is the JSON result; exits 0 whenever
/// it printed one.
fn measure(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args, &["workload", "seed", "seconds", "trace"], &[])?;
    let w = opts.workload()?;
    let seed = opts.num("seed", None)?;
    let budget = opts.num("seconds", None)? as f64;
    let trace = match opts.num("trace", Some(0))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let mut c = Collected::default();
    let mut durations = Vec::new();
    let started = Instant::now();
    loop {
        let enough = if trace {
            !c.traced.is_empty() && !c.timed.is_empty()
        } else {
            c.timed.len() >= MIN_PASSES
        };
        if enough && started.elapsed().as_secs_f64() + quantile(&durations, 0.5) > budget {
            break;
        }
        let role = if trace && c.traced.len() <= c.timed.len() {
            Role::Traced
        } else {
            Role::Timed
        };
        let pass_started = Instant::now();
        c.pass(w, seed, role);
        durations.push(pass_started.elapsed().as_secs_f64());
    }
    let all = [(w, c)];
    report_causes(&all);
    let out = output(seed, &all, trace);
    if trace {
        write_folded(&out_dir().join(format!("trace.{}.folded", w.name())), &all)?;
    }
    print!("{}", out.to_lines());
    let c = &all[0].1;
    let kind = if trace { Kind::Layer } else { Kind::EndToEnd };
    let metrics: Vec<String> = out
        .rows
        .iter()
        .filter(|r| {
            metrics::lookup(&r.metric).is_some_and(|m| m.kind == kind) && r.metric != "error_rate"
        })
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.metric, r.summary.median, r.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.failed == 0,
        c.attempted,
        c.failed,
        metrics.join(", ")
    );
    Ok(ExitCode::SUCCESS)
}

/// `compare A B`: judges output B against baseline A, metric by metric.
/// Exits 1 on a regression, 2 when the outputs cannot be compared.
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two output files".into());
    };
    let load = |p: &String| -> Result<Output, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        Output::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    match report::compare(&load(a)?, &load(b)?) {
        Ok((table, regressed)) => {
            print!("{table}");
            Ok(if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        Err(e) => {
            eprintln!("{e}");
            Ok(ExitCode::from(2))
        }
    }
}
