//! Digests of simulated statistics and the committed golden files.
//!
//! A change meant only to speed the simulator up must leave every
//! simulated statistic identical. Each evaluation's statistics are
//! folded into one 64-bit value; the per-evaluation values for the
//! default seed are committed under `golden/`, so a mismatch names the
//! (configuration, kernel) pairs that moved.

use dg_obs::Snapshot;
use dg_system::{EvalResult, System};
use std::path::{Path, PathBuf};

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word in, byte by byte.
    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Fold a byte string in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of everything an evaluation reports: cycles, instructions,
/// accesses, off-chip blocks, every LLC counter and the bits of the
/// output error.
pub fn eval_digest(r: &EvalResult) -> u64 {
    let mut h = Fnv::default();
    h.word(r.runtime_cycles).word(r.instructions).word(r.accesses).word(r.off_chip_blocks);
    for (_, v) in r.llc.metrics() {
        h.word(v);
    }
    h.word(r.output_error.to_bits());
    h.finish()
}

/// Digest of a finished system's statistics (trace replay and the
/// level streams have no golden output, hence no output error).
pub fn system_digest(sys: &System) -> u64 {
    let mut h = Fnv::default();
    h.word(sys.runtime_cycles())
        .word(sys.total_instructions())
        .word(sys.accesses())
        .word(sys.off_chip_blocks())
        .word(sys.back_invalidations());
    for (_, v) in sys.llc_counters().metrics() {
        h.word(v);
    }
    for s in [sys.l1_stats(), sys.l2_stats()] {
        h.word(s.hits).word(s.misses).word(s.evictions);
    }
    h.finish()
}

/// Per-evaluation digests of one workload run, keyed `config/kernel`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatDigests {
    rows: Vec<(String, u64)>,
}

impl StatDigests {
    /// Add one evaluation's digest.
    pub fn push(&mut self, key: String, digest: u64) {
        self.rows.push((key, digest));
    }

    /// Number of evaluations.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no evaluation was added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// One digest over all rows, printed so two commits can be
    /// compared on a seed that has no golden file.
    pub fn combined(&self) -> u64 {
        let mut h = Fnv::default();
        for (k, d) in &self.rows {
            h.bytes(k.as_bytes()).word(*d);
        }
        h.finish()
    }

    /// The golden-file text: one `key digest` line per evaluation.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (k, d) in &self.rows {
            s.push_str(&format!("{k} {d:016x}\n"));
        }
        s
    }

    /// Parse golden-file text.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut rows = Vec::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let (key, hex) =
                line.rsplit_once(' ').ok_or_else(|| format!("malformed line {line:?}"))?;
            let digest =
                u64::from_str_radix(hex, 16).map_err(|e| format!("bad digest in {line:?}: {e}"))?;
            rows.push((key.to_string(), digest));
        }
        Ok(StatDigests { rows })
    }

    /// Keys whose digest differs from `golden` (missing or extra keys
    /// count as differing).
    pub fn mismatches(&self, golden: &StatDigests) -> Vec<String> {
        let mut bad = Vec::new();
        for (k, d) in &self.rows {
            if golden.rows.iter().find(|(gk, _)| gk == k).map(|(_, gd)| gd) != Some(d) {
                bad.push(k.clone());
            }
        }
        for (gk, _) in &golden.rows {
            if !self.rows.iter().any(|(k, _)| k == gk) {
                bad.push(gk.clone());
            }
        }
        bad
    }
}

/// Path of the golden file for a workload, size and seed.
pub fn golden_path(bench_dir: &Path, workload: &str, smoke: bool, seed: u64) -> PathBuf {
    let size = if smoke { "_smoke" } else { "" };
    bench_dir.join("golden").join(format!("{workload}{size}_{seed}.digest"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_text_round_trips_and_names_what_moved() {
        let mut a = StatDigests::default();
        a.push("baseline/kmeans".into(), 0x1234);
        a.push("split m=14 data=1/4/jpeg".into(), u64::MAX);
        let parsed = StatDigests::parse(&a.render()).expect("round trip");
        assert_eq!(parsed, a);
        assert!(a.mismatches(&parsed).is_empty());

        let mut b = a.clone();
        b.rows[1].1 = 7;
        assert_eq!(b.mismatches(&a), vec!["split m=14 data=1/4/jpeg".to_string()]);
        assert_ne!(a.combined(), b.combined());

        let mut short = StatDigests::default();
        short.push("baseline/kmeans".into(), 0x1234);
        assert_eq!(short.mismatches(&a), vec!["split m=14 data=1/4/jpeg".to_string()]);
        assert!(StatDigests::parse("no-digest-here\n").is_err());
        assert!(StatDigests::parse("key zz\n").is_err());
    }

    #[test]
    fn fnv_depends_on_order_and_content() {
        let d = |words: &[u64]| {
            let mut h = Fnv::default();
            for &w in words {
                h.word(w);
            }
            h.finish()
        };
        assert_ne!(d(&[1, 2]), d(&[2, 1]));
        assert_ne!(d(&[1]), d(&[1, 0]));
        assert_eq!(d(&[5, 6]), d(&[5, 6]));
    }
}
