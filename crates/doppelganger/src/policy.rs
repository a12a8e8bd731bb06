//! Data-array replacement policies.
//!
//! The paper uses LRU in both arrays and explicitly leaves smarter
//! data-array replacement — e.g. accounting for "the number of tags
//! associated to a data entry" — as future work (§3.5). This module
//! implements that extension so it can be evaluated as an ablation
//! (`repro_all`'s "Ablation: data-array policy" tables).

use std::fmt;

/// Victim-selection policy for the approximate data array.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DataPolicy {
    /// Least-recently-used (the paper's baseline policy).
    #[default]
    Lru,
    /// Evict the entry shared by the fewest tags (ties broken by LRU).
    ///
    /// Rationale: evicting an entry invalidates its whole tag list, so
    /// a highly shared entry is worth more cached bytes than a lonely
    /// one. This is the paper's suggested future-work policy.
    FewestSharers,
}

impl fmt::Display for DataPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DataPolicy::Lru => "lru",
            DataPolicy::FewestSharers => "fewest-sharers",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_lru() {
        assert_eq!(DataPolicy::default(), DataPolicy::Lru);
    }

    #[test]
    fn display() {
        assert_eq!(DataPolicy::FewestSharers.to_string(), "fewest-sharers");
    }
}
