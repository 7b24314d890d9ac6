//! The one reader of the `DAB_*` environment knobs.
//!
//! Every knob follows one rule: unset means the knob's default; a set
//! value is trimmed and parsed; a value the knob does not accept panics
//! with a message that names the variable and quotes the value, so a typo
//! (`DAB_JOBS=O8`, `DAB_SCALE=papr`) stops the run instead of silently
//! running the default. Each knob's name is a constant next to the code it
//! configures; the functions below are the only code that reads one.

use std::path::PathBuf;

/// Reads `var` and parses its trimmed value with `parse`; `None` when the
/// variable is unset. Panics naming `var`, what it `expects` and the
/// quoted value when the value is not unicode or `parse` refuses it.
fn read<T>(var: &str, expects: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    let raw = std::env::var_os(var)?;
    let value = raw.to_str().and_then(|s| parse(s.trim()));
    Some(value.unwrap_or_else(|| {
        panic!("{var} must be {expects}, got {raw:?}; unset it to use the default")
    }))
}

/// Parses a positive integer; `0` and anything non-numeric are `None`.
/// Command-line counts (`dab-explore --budget`) use the same rule.
pub fn parse_count(value: &str) -> Option<usize> {
    value.parse().ok().filter(|&n| n > 0)
}

/// A positive integer knob (`DAB_JOBS`, `DAB_TRACE_SAMPLE`).
///
/// # Panics
///
/// Panics naming the variable and the value on `0`, empty or
/// non-numeric values.
pub fn count(var: &str) -> Option<usize> {
    read(var, "a positive integer", parse_count)
}

/// A `0`/`1` switch; unset is off.
///
/// # Panics
///
/// Panics naming the variable and the value on anything but `0` or `1`.
pub fn flag(var: &str) -> bool {
    read(var, "0 or 1", |v| match v {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    })
    .unwrap_or(false)
}

/// A knob naming one of `choices` by its token.
///
/// # Panics
///
/// Panics naming the variable and the value on any value that is not one
/// of the tokens.
pub fn choice<T: Copy>(var: &str, choices: &[(&str, T)]) -> Option<T> {
    let tokens: Vec<String> = choices.iter().map(|(t, _)| format!("{t:?}")).collect();
    let expects = format!("one of {}", tokens.join(", "));
    read(var, &expects, |v| {
        choices.iter().find(|(t, _)| *t == v).map(|&(_, c)| c)
    })
}

/// A directory knob; unset and empty are both `None`.
///
/// # Panics
///
/// Panics naming the variable on a value that is not unicode.
pub fn dir(var: &str) -> Option<PathBuf> {
    read(var, "a directory", |v| Some(PathBuf::from(v))).filter(|d| !d.as_os_str().is_empty())
}

/// A retired knob: unset or `1`, its one remaining value, passes.
///
/// # Panics
///
/// Panics naming the variable, the value and `why` the knob was retired
/// on any other value, so a stale setting stops the run instead of being
/// ignored.
pub fn retired(var: &str, why: &str) {
    read(var, &format!("1: it is retired ({why})"), |v| {
        (v == "1").then_some(())
    });
}
