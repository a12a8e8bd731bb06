//! Machine-readable result export.

use crate::experiments::Sweep;
use crate::json::{array_document, ObjectWriter};
use dg_obs::Snapshot;
use dg_system::{EvalResult, LlcCounters};
use std::path::Path;

/// One evaluation flattened for export.
#[derive(Debug)]
pub struct ResultRow {
    /// Configuration label (e.g. `split-m14-d1/4`).
    pub config: String,
    /// Benchmark name.
    pub kernel: String,
    /// Simulated runtime, cycles.
    pub runtime_cycles: u64,
    /// Total simulated instructions.
    pub instructions: u64,
    /// Application output error, 0–1.
    pub output_error: f64,
    /// Off-chip traffic, blocks.
    pub off_chip_blocks: u64,
    /// LLC misses per thousand instructions.
    pub mpki: f64,
    /// The full LLC counter block; exported field-by-field through
    /// [`Snapshot::metrics`] so the JSON schema tracks the struct
    /// instead of a hand-maintained subset.
    pub llc: LlcCounters,
    /// LLC dynamic energy, pJ.
    pub llc_dynamic_pj: f64,
    /// LLC leakage energy, pJ.
    pub llc_leakage_pj: f64,
    /// LLC area, mm².
    pub llc_area_mm2: f64,
    /// Average approximate fraction of LLC blocks.
    pub approx_fraction: f64,
}

impl ResultRow {
    /// Flatten one evaluation under a configuration label.
    pub fn from_eval(config: &str, r: &EvalResult) -> Self {
        ResultRow {
            config: config.to_string(),
            kernel: r.kernel.to_string(),
            runtime_cycles: r.runtime_cycles,
            instructions: r.instructions,
            output_error: r.output_error,
            off_chip_blocks: r.off_chip_blocks,
            mpki: r.mpki(),
            llc: r.llc,
            llc_dynamic_pj: r.energy.llc_dynamic_pj,
            llc_leakage_pj: r.energy.llc_leakage_pj,
            llc_area_mm2: r.energy.llc_area_mm2,
            approx_fraction: r.approx_fraction,
        }
    }

    /// Write every field into `o` (shared by the full-run export and
    /// the sampled export, which appends its statistics to the same
    /// base schema).
    pub fn write_fields(&self, o: &mut ObjectWriter) {
        o.str_field("config", &self.config)
            .str_field("kernel", &self.kernel)
            .u64_field("runtime_cycles", self.runtime_cycles)
            .u64_field("instructions", self.instructions)
            .f64_field("output_error", self.output_error)
            .u64_field("off_chip_blocks", self.off_chip_blocks)
            .f64_field("mpki", self.mpki);
        for (name, value) in self.llc.metrics() {
            o.u64_field(&format!("llc.{name}"), value);
        }
        o.f64_field("llc_dynamic_pj", self.llc_dynamic_pj)
            .f64_field("llc_leakage_pj", self.llc_leakage_pj)
            .f64_field("llc_area_mm2", self.llc_area_mm2)
            .f64_field("approx_fraction", self.approx_fraction);
    }

    /// Render as a pretty-printed JSON object at array-element depth.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = ObjectWriter::with_indent(1);
        self.write_fields(&mut o);
        o.finish()
    }
}

/// Export every cached run of a sweep as pretty-printed JSON.
///
/// # Errors
///
/// Returns any I/O error from writing `path`.
pub fn export_sweep(sweep: &Sweep, path: &Path) -> std::io::Result<()> {
    let rows: Vec<String> = sweep
        .cached_runs()
        .flat_map(|(label, results)| {
            results.iter().map(move |r| ResultRow::from_eval(label, r).to_json())
        })
        .collect();
    std::fs::write(path, array_document(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;
    use crate::json::Json;

    #[test]
    fn export_produces_valid_json() {
        let mut sweep = Sweep::new(Scale::Small);
        sweep.baseline();
        let dir = std::env::temp_dir().join("dg_bench_results_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rows.json");
        export_sweep(&sweep, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let rows = Json::parse(&text).unwrap();
        let arr = rows.as_array().unwrap();
        assert_eq!(arr.len(), 9);
        assert_eq!(arr[0].get("config").unwrap().as_str(), Some("baseline"));
        assert!(arr[0].get("runtime_cycles").unwrap().as_u64().unwrap() > 0);
        // The LLC counter block is flattened through Snapshot::metrics,
        // so every field of the struct appears, Doppelgänger ones under
        // the `llc.dopp.` prefix.
        assert!(arr[0].get("llc.lookups").unwrap().as_u64().unwrap() > 0);
        assert!(arr[0].get("llc.dopp.shared_insertions").is_some());
    }
}
