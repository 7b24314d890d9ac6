//! `dab-perf` — performance reporting and regression tracking for DAB
//! bench results.
//!
//! The bench harness writes results as plain JSON (`BENCH_engine.json`,
//! `results/*.json`) split into a `det` section that must be bit-stable
//! across runs and a `wall` section of host timings. This crate turns
//! those files into decisions:
//!
//! * [`metrics`] flattens a results document into classified
//!   `(path, value)` metrics using the same det/wall/info namespace
//!   contract `SimStats` enforces at run time.
//! * [`compare`] diffs two documents: exact equality for `det`,
//!   direction-aware relative tolerance for `wall`, and an exit verdict
//!   for CI.
//! * [`history`] distills results into an append-only
//!   `results/bench_history.jsonl` and renders the trajectory, so a
//!   slow per-commit drift is visible even when every individual
//!   compare stayed inside tolerance.
//!
//! All of it reads and writes through the workspace's one JSON module,
//! [`obs::json`] (the workspace deliberately has no serde).
//!
//! The `dab-perf` binary wraps these as `report`, `compare`, and
//! `history` subcommands; see `main.rs` or `dab-perf --help`.

pub mod compare;
pub mod history;
pub mod metrics;
