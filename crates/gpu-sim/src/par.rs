//! Strict parsing of the simulator's environment knobs.
//!
//! `DAB_JOBS` (sweep worker count) and `DAB_ENGINE` (cycle-loop selector)
//! are parsed strictly: an unparseable value is an operator error and is
//! rejected loudly instead of silently falling back to a default. The
//! retired knobs (`DAB_SIM_THREADS`, `DAB_COMMIT_SHARD`,
//! `DAB_REPLICATIONS`) accept only their one remaining value, so a stale
//! setting stops the run.

use crate::config::EngineKind;

/// Retired environment variable that used to select worker threads
/// *inside* one simulation; every simulation now runs one serial issue
/// path (see [`sim_threads_from_env`]).
pub const SIM_THREADS_VAR: &str = "DAB_SIM_THREADS";

/// Environment variable selecting the cycle-loop implementation
/// (`dense` or `event`; see [`EngineKind`]).
pub const ENGINE_VAR: &str = "DAB_ENGINE";

/// Retired environment variable that used to select a replication-lane
/// count for batched seed sweeps; every sweep job now runs its own solo
/// pass (see [`replications_from_env`]).
pub const REPLICATIONS_VAR: &str = "DAB_REPLICATIONS";

/// Retired environment variable that used to switch independence-sharded
/// commits off; every cluster now commits in cluster order (see
/// [`commit_shard_from_env`]).
pub const COMMIT_SHARD_VAR: &str = "DAB_COMMIT_SHARD";

/// Error from [`parse_count`]: a worker-count environment variable held
/// something other than a positive integer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountError {
    var: String,
    raw: String,
    reason: &'static str,
}

impl std::fmt::Display for CountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} must be a positive integer, got {:?} ({}); unset it to use the default",
            self.var, self.raw, self.reason
        )
    }
}

impl std::error::Error for CountError {}

/// Strictly parses a worker-count environment value: a positive integer,
/// surrounding whitespace allowed. `0`, empty, and non-numeric values are
/// rejected — masking an operator typo by silently using a default has cost
/// hours before ("DAB_JOBS=O8").
///
/// # Errors
///
/// Returns a [`CountError`] naming `var` when `raw` is not a positive
/// integer.
///
/// # Examples
///
/// ```
/// use gpu_sim::par::parse_count;
///
/// assert_eq!(parse_count("DAB_JOBS", " 8 "), Ok(8));
/// assert!(parse_count("DAB_JOBS", "0").is_err());
/// assert!(parse_count("DAB_JOBS", "eight").is_err());
/// ```
pub fn parse_count(var: &str, raw: &str) -> Result<usize, CountError> {
    let err = |reason| {
        Err(CountError {
            var: var.to_string(),
            raw: raw.to_string(),
            reason,
        })
    };
    match raw.trim().parse::<usize>() {
        Ok(0) => err("zero workers cannot make progress"),
        Ok(n) => Ok(n),
        Err(_) => err("not an unsigned integer"),
    }
}

/// Reads the retired `DAB_SIM_THREADS` knob: absent or `1` means `1`, the
/// only thread count left (every simulation runs one serial issue path).
///
/// # Panics
///
/// Panics naming the variable as retired on any other value, so a stale
/// `DAB_SIM_THREADS=4` stops the run instead of being silently ignored.
pub fn sim_threads_from_env() -> usize {
    check_retired(
        SIM_THREADS_VAR,
        "intra-simulation threads were removed; every simulation runs one serial issue path",
    );
    1
}

/// Reads the retired `DAB_REPLICATIONS` knob: absent or `1` means `1`,
/// the only lane count left (every sweep job runs its own solo pass).
///
/// # Panics
///
/// Panics naming the variable as retired on any other value, so a stale
/// `DAB_REPLICATIONS=4` stops the run instead of being silently ignored.
pub fn replications_from_env() -> usize {
    check_retired(
        REPLICATIONS_VAR,
        "replication lanes were removed; every sweep job runs solo",
    );
    1
}

/// Error from [`parse_engine`]: `DAB_ENGINE` held something other than
/// `dense` or `event`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    raw: String,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{ENGINE_VAR} must be \"dense\" or \"event\", got {:?}; unset it to use the default",
            self.raw
        )
    }
}

impl std::error::Error for EngineError {}

/// Strictly parses a `DAB_ENGINE` value: `dense` or `event`, surrounding
/// whitespace allowed. Anything else is rejected — same policy as
/// [`parse_count`].
///
/// # Errors
///
/// Returns an [`EngineError`] when `raw` names no engine.
///
/// # Examples
///
/// ```
/// use gpu_sim::config::EngineKind;
/// use gpu_sim::par::parse_engine;
///
/// assert_eq!(parse_engine(" dense "), Ok(EngineKind::Dense));
/// assert_eq!(parse_engine("event"), Ok(EngineKind::Event));
/// assert!(parse_engine("fast").is_err());
/// ```
pub fn parse_engine(raw: &str) -> Result<EngineKind, EngineError> {
    match raw.trim() {
        "dense" => Ok(EngineKind::Dense),
        "event" => Ok(EngineKind::Event),
        _ => Err(EngineError {
            raw: raw.to_string(),
        }),
    }
}

/// Reads `DAB_ENGINE`; absent means [`EngineKind::default`] (the event
/// engine).
///
/// # Panics
///
/// Panics with the [`EngineError`] message on an invalid value — a typo
/// must stop the run, not silently pick an engine.
pub fn engine_from_env() -> EngineKind {
    match std::env::var(ENGINE_VAR) {
        Ok(raw) => match parse_engine(&raw) {
            Ok(kind) => kind,
            Err(e) => panic!("{e}"),
        },
        Err(std::env::VarError::NotPresent) => EngineKind::default(),
        Err(e) => panic!("{ENGINE_VAR} is not valid unicode: {e}"),
    }
}

/// Reads the retired `DAB_COMMIT_SHARD` knob: absent or `1` means `true`,
/// the only setting left (every cluster commits in cluster order).
///
/// # Panics
///
/// Panics naming the variable as retired on any other value, so a stale
/// `DAB_COMMIT_SHARD=0` stops the run instead of being silently ignored.
pub fn commit_shard_from_env() -> bool {
    check_retired(
        COMMIT_SHARD_VAR,
        "commit sharding was removed; every cluster commits in cluster order",
    );
    true
}

/// The one body of the retired-knob readers: `var` may be absent or `1`
/// (its only remaining value); anything else panics naming the variable
/// and `why` it was retired.
fn check_retired(var: &str, why: &str) {
    match std::env::var(var) {
        Ok(raw) if raw.trim() == "1" => {}
        Ok(raw) => panic!("{var} is retired ({why}), got {raw:?}; unset it"),
        Err(std::env::VarError::NotPresent) => {}
        Err(e) => panic!("{var} is not valid unicode: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_count_accepts_positive_integers() {
        assert_eq!(parse_count("DAB_JOBS", "1"), Ok(1));
        assert_eq!(parse_count("DAB_JOBS", "64"), Ok(64));
        assert_eq!(parse_count("DAB_JOBS", "  4\n"), Ok(4));
    }

    #[test]
    fn parse_count_rejects_zero_and_garbage() {
        for bad in ["0", "", "abc", "-2", "3.5", "0x8", "O8"] {
            let err = parse_count("DAB_JOBS", bad)
                .expect_err("must reject")
                .to_string();
            assert!(
                err.contains("DAB_JOBS") && err.contains("positive integer"),
                "unhelpful error for {bad:?}: {err}"
            );
        }
    }

    #[test]
    fn count_error_reports_the_offending_value() {
        let err = parse_count("DAB_JOBS", "many").expect_err("must reject");
        assert!(err.to_string().contains("\"many\""));
    }

    #[test]
    fn parse_engine_accepts_both_engines() {
        assert_eq!(parse_engine("dense"), Ok(EngineKind::Dense));
        assert_eq!(parse_engine(" event\n"), Ok(EngineKind::Event));
    }

    #[test]
    fn parse_engine_rejects_garbage() {
        for bad in ["", "Dense", "EVENT", "fast", "dense,event", "1"] {
            let err = parse_engine(bad).expect_err("must reject").to_string();
            assert!(
                err.contains("DAB_ENGINE") && err.contains("dense"),
                "unhelpful error for {bad:?}: {err}"
            );
        }
    }
}
