//! Strict-parsing building blocks shared by the bench binaries.
//!
//! `repro_all`, `serve_bench`, `serve_monitor` and `trace_tool` each
//! match their arguments against a closed set — anything unknown,
//! duplicated or malformed aborts with a usage message and exit status
//! [`USAGE_EXIT`] instead of being silently ignored. The mechanics of
//! that contract (duplicate detection, value-taking flags,
//! `--flag=VALUE` forms, the error formatting on exit) used to be
//! duplicated per binary and had already drifted in small ways; they
//! live here once so a fix to one parser is a fix to all.

/// Exit status used for command-line errors (the conventional
/// `EX_USAGE`-adjacent value distinct from runtime failures' `1`).
pub const USAGE_EXIT: i32 = 2;

/// Record a boolean flag, rejecting a repeat.
pub fn set_flag(slot: &mut bool, name: &str) -> Result<(), String> {
    if std::mem::replace(slot, true) {
        return Err(format!("duplicate flag '{name}'"));
    }
    Ok(())
}

/// Record a flag's value, rejecting a repeat (covers both the
/// separate-value and `--flag=VALUE` spellings, so `--profile
/// --profile=x` is still one duplicate).
pub fn set_value(slot: &mut Option<String>, name: &str, value: String) -> Result<(), String> {
    if slot.replace(value).is_some() {
        return Err(format!("duplicate flag '{name}'"));
    }
    Ok(())
}

/// Take the next argument as `name`'s value. A missing value and a
/// flag-shaped one (`--…`) are both errors — a value-taking flag at the
/// end of the line must not silently eat the flag that follows it.
pub fn take_value(
    it: &mut impl Iterator<Item = String>,
    name: &str,
) -> Result<String, String> {
    it.next()
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("{name} requires a value"))
}

/// Match the inline form `--name=VALUE`. Returns `Ok(None)` when `arg`
/// is some other argument entirely, and an error for an empty value.
pub fn inline_value<'a>(arg: &'a str, name: &str) -> Result<Option<&'a str>, String> {
    match arg.strip_prefix(name).and_then(|rest| rest.strip_prefix('=')) {
        Some("") => Err(format!("{name}= requires a non-empty value")),
        Some(v) => Ok(Some(v)),
        None => Ok(None),
    }
}

/// Print `bin: err` plus the usage text to stderr and exit with
/// [`USAGE_EXIT`].
pub fn usage_error(bin: &str, err: &str, usage: &str) -> ! {
    eprintln!("{bin}: {err}\n{usage}");
    std::process::exit(USAGE_EXIT);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_reject_duplicates() {
        let mut b = false;
        set_flag(&mut b, "--x").unwrap();
        assert!(b);
        let err = set_flag(&mut b, "--x").unwrap_err();
        assert!(err.contains("--x"));

        let mut v = None;
        set_value(&mut v, "--json", "a".into()).unwrap();
        assert_eq!(v.as_deref(), Some("a"));
        assert!(set_value(&mut v, "--json", "b".into()).is_err());
    }

    #[test]
    fn values_must_not_eat_flags() {
        let mut it = vec!["path".to_string(), "--next".to_string()].into_iter();
        assert_eq!(take_value(&mut it, "--json").unwrap(), "path");
        assert!(take_value(&mut it, "--json").is_err(), "flag-shaped value");
        assert!(take_value(&mut it, "--json").is_err(), "missing value");
    }

    #[test]
    fn inline_values_parse_strictly() {
        assert_eq!(inline_value("--profile=p.json", "--profile").unwrap(), Some("p.json"));
        assert_eq!(inline_value("--other", "--profile").unwrap(), None);
        assert_eq!(inline_value("--profiler=x", "--profile").unwrap(), None);
        assert!(inline_value("--profile=", "--profile").is_err());
    }
}
