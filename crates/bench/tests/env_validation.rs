//! Worker-count environment variables fail loudly on invalid values.
//!
//! `DAB_JOBS` and `DAB_SIM_THREADS` used to (or would otherwise) fall back
//! to a default when unparseable, silently turning a typo'd parallel run
//! into a serial one. These tests pin the strict behavior: garbage or zero
//! panics with a message naming the variable and the offending value. The
//! retired `DAB_REPLICATIONS` accepts only `1` and panics on anything else.
//!
//! The tests mutate process-global environment variables, so each one
//! holds `ENV_LOCK` to keep them sequential.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dab_bench::{jobs_from_env, JOBS_VAR};
use gpu_sim::par::{
    replications_from_env, sim_threads_from_env, REPLICATIONS_VAR, SIM_THREADS_VAR,
};

/// Serializes the tests in this file: they all mutate process-global
/// environment variables. `lock()` instead of a poisoning-prone `unwrap`
/// so one failing test doesn't cascade.
static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn panic_message(f: impl FnOnce() -> usize) -> Option<String> {
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

#[test]
fn invalid_worker_counts_panic_with_context() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved_jobs = std::env::var(JOBS_VAR).ok();
    let saved_threads = std::env::var(SIM_THREADS_VAR).ok();

    for bad in ["0", "abc", "", "-3", "1.5"] {
        std::env::set_var(JOBS_VAR, bad);
        let msg = panic_message(jobs_from_env)
            .unwrap_or_else(|| panic!("DAB_JOBS={bad:?} must panic, not fall back"));
        assert!(
            msg.contains(JOBS_VAR) && msg.contains("positive integer"),
            "unhelpful DAB_JOBS error for {bad:?}: {msg}"
        );

        std::env::set_var(SIM_THREADS_VAR, bad);
        let msg = panic_message(sim_threads_from_env)
            .unwrap_or_else(|| panic!("DAB_SIM_THREADS={bad:?} must panic, not fall back"));
        assert!(
            msg.contains(SIM_THREADS_VAR) && msg.contains("positive integer"),
            "unhelpful DAB_SIM_THREADS error for {bad:?}: {msg}"
        );
    }

    // Valid values parse; absent values use the documented defaults.
    std::env::set_var(JOBS_VAR, " 6 ");
    assert_eq!(jobs_from_env(), 6);
    std::env::set_var(SIM_THREADS_VAR, "4");
    assert_eq!(sim_threads_from_env(), 4);
    std::env::remove_var(SIM_THREADS_VAR);
    assert_eq!(sim_threads_from_env(), 1, "absent means the serial engine");
    std::env::remove_var(JOBS_VAR);
    assert!(jobs_from_env() >= 1, "absent falls back to the machine");

    match saved_jobs {
        Some(v) => std::env::set_var(JOBS_VAR, v),
        None => std::env::remove_var(JOBS_VAR),
    }
    match saved_threads {
        Some(v) => std::env::set_var(SIM_THREADS_VAR, v),
        None => std::env::remove_var(SIM_THREADS_VAR),
    }
}

#[test]
fn runner_from_env_rejects_invalid_sim_threads() {
    // `Runner::from_env` must surface the same strict validation.
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved = std::env::var(SIM_THREADS_VAR).ok();

    std::env::set_var(SIM_THREADS_VAR, "zero");
    let result = catch_unwind(AssertUnwindSafe(dab_bench::Runner::from_env));
    assert!(result.is_err(), "Runner::from_env must reject garbage");

    std::env::set_var(SIM_THREADS_VAR, "3");
    let runner = dab_bench::Runner::from_env();
    assert_eq!(runner.gpu.sim_threads, 3);

    match saved {
        Some(v) => std::env::set_var(SIM_THREADS_VAR, v),
        None => std::env::remove_var(SIM_THREADS_VAR),
    }
}

#[test]
fn retired_replications_var_rejects_everything_but_one() {
    // Replication lanes are gone: unset or `1` is the only accepted value,
    // and a stale lane count must stop the run instead of being ignored.
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved = std::env::var(REPLICATIONS_VAR).ok();

    std::env::remove_var(REPLICATIONS_VAR);
    assert_eq!(replications_from_env(), 1, "absent means one lane");
    std::env::set_var(REPLICATIONS_VAR, "1");
    assert_eq!(replications_from_env(), 1);

    for bad in ["4", "0", "abc"] {
        std::env::set_var(REPLICATIONS_VAR, bad);
        let msg = panic_message(replications_from_env)
            .unwrap_or_else(|| panic!("DAB_REPLICATIONS={bad:?} must panic, not be ignored"));
        assert!(
            msg.contains(REPLICATIONS_VAR) && msg.contains("retired"),
            "unhelpful DAB_REPLICATIONS error for {bad:?}: {msg}"
        );
    }

    match saved {
        Some(v) => std::env::set_var(REPLICATIONS_VAR, v),
        None => std::env::remove_var(REPLICATIONS_VAR),
    }
}
