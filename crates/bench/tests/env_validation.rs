//! Environment knobs fail loudly on invalid values.
//!
//! `DAB_JOBS` used to (or would otherwise) fall back to a default when
//! unparseable, silently turning a typo'd parallel run into a serial one.
//! These tests pin the strict behavior: garbage or zero panics with a
//! message naming the variable and the offending value. The retired knobs
//! (`DAB_REPLICATIONS`, `DAB_SIM_THREADS`, `DAB_COMMIT_SHARD`) accept only
//! `1` and panic on anything else, naming the variable as retired.
//!
//! The tests mutate process-global environment variables, so each one
//! holds `ENV_LOCK` to keep them sequential.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dab_bench::{jobs_from_env, JOBS_VAR};
use gpu_sim::par::{
    commit_shard_from_env, replications_from_env, sim_threads_from_env, COMMIT_SHARD_VAR,
    REPLICATIONS_VAR, SIM_THREADS_VAR,
};

/// Serializes the tests in this file: they all mutate process-global
/// environment variables. `lock()` instead of a poisoning-prone `unwrap`
/// so one failing test doesn't cascade.
static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn panic_message<R>(f: impl FnOnce() -> R) -> Option<String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(_) => None,
        Err(payload) => Some(
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default(),
        ),
    }
}

/// Runs `body` with `var` removed, then restores its previous value.
fn with_var_saved(var: &str, body: impl FnOnce()) {
    let saved = std::env::var(var).ok();
    std::env::remove_var(var);
    body();
    match saved {
        Some(v) => std::env::set_var(var, v),
        None => std::env::remove_var(var),
    }
}

/// Pins the retired-knob contract: unset and `1` yield `only`; every
/// other value panics naming `var` as retired.
fn check_retired<T: PartialEq + std::fmt::Debug>(var: &str, read: fn() -> T, only: T) {
    with_var_saved(var, || {
        assert_eq!(read(), only, "{var} absent");
        std::env::set_var(var, " 1 ");
        assert_eq!(read(), only, "{var}=1");
        for bad in ["0", "2", "4", "", "abc"] {
            std::env::set_var(var, bad);
            let msg = panic_message(read)
                .unwrap_or_else(|| panic!("{var}={bad:?} must panic, not be ignored"));
            assert!(
                msg.contains(var) && msg.contains("retired"),
                "unhelpful {var} error for {bad:?}: {msg}"
            );
        }
    });
}

#[test]
fn invalid_worker_counts_panic_with_context() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    with_var_saved(JOBS_VAR, || {
        for bad in ["0", "abc", "", "-3", "1.5"] {
            std::env::set_var(JOBS_VAR, bad);
            let msg = panic_message(jobs_from_env)
                .unwrap_or_else(|| panic!("DAB_JOBS={bad:?} must panic, not fall back"));
            assert!(
                msg.contains(JOBS_VAR) && msg.contains("positive integer"),
                "unhelpful DAB_JOBS error for {bad:?}: {msg}"
            );
        }

        // Valid values parse; absent falls back to the machine.
        std::env::set_var(JOBS_VAR, " 6 ");
        assert_eq!(jobs_from_env(), 6);
        std::env::remove_var(JOBS_VAR);
        assert!(jobs_from_env() >= 1, "absent falls back to the machine");
    });
}

#[test]
fn retired_sim_threads_var_rejects_everything_but_one() {
    // Intra-simulation threads are gone: a stale `DAB_SIM_THREADS=4` must
    // stop the run instead of being ignored.
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    check_retired(SIM_THREADS_VAR, sim_threads_from_env, 1);
}

#[test]
fn retired_commit_shard_var_rejects_everything_but_one() {
    // Commit sharding is gone: a stale `DAB_COMMIT_SHARD=0` must stop the
    // run instead of being ignored.
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    check_retired(COMMIT_SHARD_VAR, commit_shard_from_env, true);
}

#[test]
fn retired_replications_var_rejects_everything_but_one() {
    // Replication lanes are gone: unset or `1` is the only accepted value,
    // and a stale lane count must stop the run instead of being ignored.
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    check_retired(REPLICATIONS_VAR, replications_from_env, 1);
}

#[test]
fn runner_from_env_rejects_retired_knobs() {
    // `Runner::from_env` must surface the same strict validation.
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    with_var_saved(SIM_THREADS_VAR, || {
        with_var_saved(COMMIT_SHARD_VAR, || {
            let runner = dab_bench::Runner::from_env();
            assert_eq!(runner.gpu.sim_threads, 1);
            assert!(runner.gpu.commit_shard);

            std::env::set_var(SIM_THREADS_VAR, "4");
            let msg = panic_message(dab_bench::Runner::from_env)
                .expect("Runner::from_env must reject DAB_SIM_THREADS=4");
            assert!(
                msg.contains(SIM_THREADS_VAR) && msg.contains("retired"),
                "{msg}"
            );
            std::env::remove_var(SIM_THREADS_VAR);

            std::env::set_var(COMMIT_SHARD_VAR, "0");
            let msg = panic_message(dab_bench::Runner::from_env)
                .expect("Runner::from_env must reject DAB_COMMIT_SHARD=0");
            assert!(
                msg.contains(COMMIT_SHARD_VAR) && msg.contains("retired"),
                "{msg}"
            );
        });
    });
}
