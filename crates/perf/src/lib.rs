//! `dab-perf` — performance reporting and comparison for DAB results
//! documents.
//!
//! The bench harness writes results as plain JSON (`results/*.json`)
//! whose leaves are either bit-stable across runs (cycles, digests,
//! counters) or host timings. This crate turns those files into
//! decisions:
//!
//! * [`metrics`] flattens a results document into classified
//!   `(path, value)` metrics using the same det/wall/info namespace
//!   contract `SimStats` enforces at run time.
//! * [`compare`] diffs two documents: exact equality for `det`,
//!   direction-aware relative tolerance for `wall`, and an exit verdict
//!   for CI.
//!
//! All of it reads through the workspace's one JSON module,
//! [`obs::json`] (the workspace deliberately has no serde).
//!
//! The `dab-perf` binary wraps these as `report` and `compare`
//! subcommands; see `main.rs` or `dab-perf --help`. Performance claims
//! are measured with the `dab_benchmark` package
//! (`crates/bench/examples/dab_benchmark`), whose JSON these read too.

pub mod compare;
pub mod metrics;
