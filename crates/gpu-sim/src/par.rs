//! The simulator's environment knobs.
//!
//! `DAB_ENGINE` selects the cycle loop through [`ENGINES`]. The retired
//! knobs (`DAB_SIM_THREADS`, `DAB_COMMIT_SHARD`, `DAB_REPLICATIONS`)
//! accept only their one remaining value, so a stale setting stops the
//! run. All of them are read through [`obs::env`].

use crate::config::EngineKind;

/// Retired environment variable that used to select worker threads
/// *inside* one simulation; every simulation now runs one serial issue
/// path (see [`sim_threads_from_env`]).
pub const SIM_THREADS_VAR: &str = "DAB_SIM_THREADS";

/// Environment variable selecting the cycle-loop implementation
/// (`dense` or `event`; see [`EngineKind`]).
pub const ENGINE_VAR: &str = "DAB_ENGINE";

/// Every engine by its `DAB_ENGINE` token.
pub const ENGINES: [(&str, EngineKind); 2] =
    [("dense", EngineKind::Dense), ("event", EngineKind::Event)];

/// Retired environment variable that used to select a replication-lane
/// count for batched seed sweeps; every sweep job now runs its own solo
/// pass (see [`replications_from_env`]).
pub const REPLICATIONS_VAR: &str = "DAB_REPLICATIONS";

/// Retired environment variable that used to switch independence-sharded
/// commits off; every cluster now commits in cluster order (see
/// [`commit_shard_from_env`]).
pub const COMMIT_SHARD_VAR: &str = "DAB_COMMIT_SHARD";

/// Reads the retired `DAB_SIM_THREADS` knob: absent or `1` means `1`, the
/// only thread count left (every simulation runs one serial issue path).
///
/// # Panics
///
/// Panics naming the variable as retired on any other value, so a stale
/// `DAB_SIM_THREADS=4` stops the run instead of being silently ignored.
pub fn sim_threads_from_env() -> usize {
    obs::env::retired(
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
    obs::env::retired(
        REPLICATIONS_VAR,
        "replication lanes were removed; every sweep job runs solo",
    );
    1
}

/// Reads the retired `DAB_COMMIT_SHARD` knob: absent or `1` means `true`,
/// the only setting left (every cluster commits in cluster order).
///
/// # Panics
///
/// Panics naming the variable as retired on any other value, so a stale
/// `DAB_COMMIT_SHARD=0` stops the run instead of being silently ignored.
pub fn commit_shard_from_env() -> bool {
    obs::env::retired(
        COMMIT_SHARD_VAR,
        "commit sharding was removed; every cluster commits in cluster order",
    );
    true
}
