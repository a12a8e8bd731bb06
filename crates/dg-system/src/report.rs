//! Human-readable run reports.

use crate::System;
use std::fmt::Write as _;

/// Render a multi-level hierarchy report for a finished system:
/// per-level cache statistics, per-core cycles, traffic and coherence
/// activity.
pub fn hierarchy_report(sys: &System) -> String {
    let mut out = String::new();
    let l1 = sys.l1_stats();
    let l2 = sys.l2_stats();
    let llc = sys.llc_counters();
    writeln!(out, "hierarchy report").unwrap();
    writeln!(out, "  L1 (all cores):  {l1}").unwrap();
    writeln!(out, "  L2 (all cores):  {l2}").unwrap();
    writeln!(
        out,
        "  LLC:             lookups={} hits={} (hit rate {:.1}%)",
        llc.lookups,
        llc.hits,
        if llc.lookups == 0 { 0.0 } else { llc.hits as f64 / llc.lookups as f64 * 100.0 }
    )
    .unwrap();
    if llc.dopp.insertions > 0 {
        writeln!(out, "  Doppelganger:    {}", llc.dopp).unwrap();
    }
    writeln!(
        out,
        "  off-chip:        {} reads + {} writes = {} blocks",
        sys.off_chip_reads(),
        sys.off_chip_writes(),
        sys.off_chip_blocks()
    )
    .unwrap();
    writeln!(out, "  back-inval:      {}", sys.back_invalidations()).unwrap();
    write!(out, "  core cycles:     ").unwrap();
    for (c, cyc) in sys.core_cycles().iter().enumerate() {
        write!(out, "c{c}={cyc} ").unwrap();
    }
    writeln!(out).unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;
    use dg_workloads::kernels::Inversek2j;

    #[test]
    fn reports_render_key_fields() {
        let kernel = Inversek2j::new(256, 1);
        let (sys, _) = crate::run_on_system(&kernel, SystemConfig::tiny_split(), 4);
        let rep = hierarchy_report(&sys);
        assert!(rep.contains("L1"));
        assert!(rep.contains("Doppelganger"));
        assert!(rep.contains("off-chip"));
        assert!(rep.contains("c3="));
    }
}
