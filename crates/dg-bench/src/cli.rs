//! Strict command-line parsing for the `repro_all` binary.
//!
//! The binaries used to scan `std::env::args()` with `any`/`find`,
//! which silently ignored anything unrecognised — a misspelled
//! `--cehck` ran the full figure suite instead of the oracle gate, and
//! a CI script would never notice. Every flag is now matched against a
//! closed set and an unknown or malformed argument aborts with a usage
//! message and a non-zero exit. The matching mechanics are shared with
//! `serve_bench` through [`crate::argparse`].

use crate::argparse::{inline_value, set_flag, set_value, take_value, usage_error};
use crate::experiments::Scale;

pub use crate::argparse::USAGE_EXIT;

/// Representative-interval count used by `--sampled` when no `=K` is
/// given (and by `--sampled-check`). Eight intervals keep the detailed
/// fraction small while leaving enough measured windows for the
/// inter-interval variance estimate to mean something.
pub const DEFAULT_SAMPLED_K: usize = 8;

/// Parsed arguments of the `repro_all` binary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReproArgs {
    /// Reduced-scale run (`--small`).
    pub small: bool,
    /// ~10× the small access count on the same caches (`--medium`).
    pub medium: bool,
    /// Run the differential-oracle gate instead of the figures
    /// (`--check`).
    pub check: bool,
    /// Sampled-simulation run over the configuration grid
    /// (`--sampled[=K]`), with the representative-interval count.
    pub sampled: Option<usize>,
    /// Gate sampled estimates against full-coverage references instead
    /// of running the figures (`--sampled-check`).
    pub sampled_check: bool,
    /// Full-observability profile run instead of the figures
    /// (`--profile[=PATH]`), with the output path.
    pub profile: Option<String>,
    /// Export evaluation rows as JSON (`--json PATH`).
    pub json: Option<String>,
}

impl ReproArgs {
    /// The usage message printed on a parse error.
    pub const USAGE: &'static str = "usage: repro_all [--small | --medium] [--check] \
                                     [--sampled[=K]] [--sampled-check] [--profile[=PATH]] \
                                     [--json PATH]\n\
                                     \n\
                                     --small          reduced-scale run (small kernels, scaled-down caches)\n\
                                     --medium         ~10x the small access count on the same caches\n\
                                     --check          run the differential-oracle gate instead of the figures\n\
                                     --sampled[=K]    sampled run: K >= 2 representative intervals per kernel\n\
                                     --sampled-check  gate sampled estimates against full-coverage references\n\
                                     --profile[=PATH] profiled run; writes PROFILE_repro.json (or PATH)\n\
                                     --json PATH      export every evaluation as JSON result rows";

    /// Parse the arguments after the program name. Rejects unknown
    /// flags, missing values and duplicates.
    pub fn parse<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut out = ReproArgs::default();
        let mut it = args.into_iter().map(Into::into);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--small" => set_flag(&mut out.small, "--small")?,
                "--medium" => set_flag(&mut out.medium, "--medium")?,
                "--check" => set_flag(&mut out.check, "--check")?,
                "--sampled-check" => set_flag(&mut out.sampled_check, "--sampled-check")?,
                "--sampled" => set_sampled(&mut out.sampled, DEFAULT_SAMPLED_K)?,
                "--profile" => {
                    set_value(&mut out.profile, "--profile", "PROFILE_repro.json".into())?
                }
                "--json" => {
                    let path = take_value(&mut it, "--json")?;
                    set_value(&mut out.json, "--json", path)?;
                }
                other => {
                    if let Some(path) = inline_value(other, "--profile")? {
                        set_value(&mut out.profile, "--profile", path.into())?;
                    } else if let Some(k) = inline_value(other, "--sampled")? {
                        let k: usize = k.parse().ok().filter(|&k| k >= 2).ok_or(format!(
                            "--sampled={k} is not an interval count of at least 2 \
                             (the final interval is always one of them)"
                        ))?;
                        set_sampled(&mut out.sampled, k)?;
                    } else {
                        return Err(format!("unknown argument '{other}'"));
                    }
                }
            }
        }
        if out.small && out.medium {
            return Err("--small and --medium select conflicting scales".into());
        }
        if out.check
            && (out.profile.is_some()
                || out.json.is_some()
                || out.sampled.is_some()
                || out.sampled_check)
        {
            return Err("--check replaces the figure run; it cannot be combined with \
                        --profile/--json/--sampled/--sampled-check"
                .into());
        }
        if out.sampled_check && (out.profile.is_some() || out.json.is_some()) {
            return Err("--sampled-check is a gate; it cannot be combined with \
                        --profile/--json"
                .into());
        }
        if out.sampled.is_some() && out.profile.is_some() {
            return Err("--sampled replaces the figure run; it cannot be combined with \
                        --profile"
                .into());
        }
        Ok(out)
    }

    /// Parse the process arguments; on error print the problem plus
    /// [`Self::USAGE`] to stderr and exit with [`USAGE_EXIT`].
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(e) => usage_error("repro_all", &e, Self::USAGE),
        }
    }

    /// The run scale these arguments select.
    pub fn scale(&self) -> Scale {
        if self.small {
            Scale::Small
        } else if self.medium {
            Scale::Medium
        } else {
            Scale::Paper
        }
    }

    /// The representative-interval count of a sampled run (`--sampled`'s
    /// K, defaulted for `--sampled-check`).
    pub fn sampled_k(&self) -> usize {
        self.sampled.unwrap_or(DEFAULT_SAMPLED_K)
    }
}

/// Resolve the `DG_OBS_LEVEL` environment knob: `None` when unset,
/// the parsed [`dg_obs::Level`] when valid, an error naming the bad
/// value otherwise. Pure so it can be tested without touching the
/// process environment.
pub fn parse_obs_level(var: Option<&str>) -> Result<Option<dg_obs::Level>, String> {
    match var {
        None => Ok(None),
        Some(v) => dg_obs::Level::parse(v).map(Some).ok_or(format!(
            "DG_OBS_LEVEL='{v}' is not an observability level (off, spans, metrics, trace)"
        )),
    }
}

/// Apply `DG_OBS_LEVEL` to the process-global observability level.
/// An unset variable leaves the default (`Off`); a malformed value
/// aborts with [`USAGE_EXIT`], same as a bad flag — a typo must not
/// silently run at the wrong level and invalidate a benchmark.
pub fn apply_obs_level_env(bin: &str) {
    let var = std::env::var("DG_OBS_LEVEL").ok();
    match parse_obs_level(var.as_deref()) {
        Ok(Some(level)) => dg_obs::set_level(level),
        Ok(None) => {}
        Err(e) => {
            eprintln!("{bin}: {e}");
            std::process::exit(USAGE_EXIT);
        }
    }
}

fn set_sampled(slot: &mut Option<usize>, k: usize) -> Result<(), String> {
    if slot.replace(k).is_some() {
        return Err("duplicate flag '--sampled'".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ReproArgs, String> {
        ReproArgs::parse(args.iter().copied())
    }

    #[test]
    fn obs_level_knob_parses_and_rejects_typos() {
        assert_eq!(parse_obs_level(None), Ok(None));
        assert_eq!(parse_obs_level(Some("off")), Ok(Some(dg_obs::Level::Off)));
        assert_eq!(parse_obs_level(Some("Trace")), Ok(Some(dg_obs::Level::Trace)));
        assert_eq!(parse_obs_level(Some("METRICS")), Ok(Some(dg_obs::Level::Metrics)));
        let err = parse_obs_level(Some("verbose")).unwrap_err();
        assert!(err.contains("verbose"), "error must name the bad value: {err}");
        assert!(parse_obs_level(Some("")).is_err());
    }

    #[test]
    fn empty_is_paper_scale_defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, ReproArgs::default());
        assert_eq!(a.scale(), Scale::Paper);
    }

    #[test]
    fn every_flag_parses() {
        let a = parse(&["--small", "--json", "out.json"]).unwrap();
        assert!(a.small);
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert_eq!(a.scale(), Scale::Small);

        let a = parse(&["--check", "--small"]).unwrap();
        assert!(a.check);

        assert_eq!(
            parse(&["--profile"]).unwrap().profile.as_deref(),
            Some("PROFILE_repro.json")
        );
        assert_eq!(parse(&["--profile=p.json"]).unwrap().profile.as_deref(), Some("p.json"));
    }

    #[test]
    fn sampled_flags_parse() {
        let a = parse(&["--medium", "--sampled"]).unwrap();
        assert!(a.medium);
        assert_eq!(a.scale(), Scale::Medium);
        assert_eq!(a.sampled, Some(DEFAULT_SAMPLED_K));
        assert_eq!(a.sampled_k(), DEFAULT_SAMPLED_K);

        let a = parse(&["--sampled=12", "--json", "out.json"]).unwrap();
        assert_eq!(a.sampled, Some(12));

        let a = parse(&["--small", "--sampled-check"]).unwrap();
        assert!(a.sampled_check);
        assert_eq!(a.sampled_k(), DEFAULT_SAMPLED_K);
        // --sampled-check may borrow --sampled=K to pick its K.
        assert_eq!(parse(&["--sampled-check", "--sampled=4"]).unwrap().sampled_k(), 4);

        assert!(parse(&["--sampled=0"]).is_err(), "K must be positive");
        assert!(parse(&["--sampled=1"]).is_err(), "K = 1 cannot pin the tail");
        assert_eq!(parse(&["--sampled=2"]).unwrap().sampled, Some(2));
        assert!(parse(&["--sampled=abc"]).is_err());
        assert!(parse(&["--sampled="]).is_err());
        assert!(parse(&["--sampled", "--sampled=3"]).is_err(), "duplicate");
    }

    #[test]
    fn typos_are_rejected_not_ignored() {
        // The motivating bug: '--cehck' used to fall through silently
        // and run the figures, so CI believed the oracle gate passed.
        let err = parse(&["--cehck"]).unwrap_err();
        assert!(err.contains("--cehck"), "error must name the bad argument: {err}");
        assert!(parse(&["--smal"]).is_err());
        assert!(parse(&["--sampledcheck"]).is_err());
        assert!(parse(&["extra"]).is_err());
        assert!(parse(&["--json=out.json"]).is_err(), "--json takes a separate value");
    }

    #[test]
    fn missing_and_duplicate_values_are_rejected() {
        assert!(parse(&["--json"]).is_err());
        assert!(parse(&["--json", "--small"]).is_err(), "flag-shaped value must not be eaten");
        assert!(parse(&["--profile="]).is_err());
        assert!(parse(&["--small", "--small"]).is_err());
        assert!(parse(&["--profile", "--profile=x"]).is_err());
    }

    #[test]
    fn mode_conflicts_are_rejected() {
        assert!(parse(&["--check", "--json", "x"]).is_err());
        assert!(parse(&["--check", "--profile"]).is_err());
        assert!(parse(&["--check", "--sampled"]).is_err());
        assert!(parse(&["--check", "--sampled-check"]).is_err());
        assert!(parse(&["--small", "--medium"]).is_err());
        assert!(parse(&["--sampled-check", "--json", "x"]).is_err());
        assert!(parse(&["--sampled", "--profile"]).is_err());
    }
}
