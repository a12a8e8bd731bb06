//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics. `BENCHMARK.json` at the repository
//! root is rendered from these tables (`dg-benchmark manifest`), and a
//! test holds the committed file equal to them.

use dg_bench::json::escape;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// Default workload seed.
pub const DEFAULT_SEED: u64 = 0xd09;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `lower` / `higher`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload and the reason it exists.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line: what it stresses and what it bypasses.
    pub why: &'static str,
}

/// The seven workloads, in run order.
pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "sim_sweep_paper",
        why: "the job a user waits for: paper suite x 11 LLC configurations + Fig. 2/7/8 analyses on 2 workers; kernels, all four organizations, dg-par, energy and similarity on the clock",
    },
    WorkloadDef {
        name: "sim_levels",
        why: "streams pinned to L1-hit / LLC-hit / miss on four tiny systems, loads and stores: locates a change by hierarchy level; kernels, dg-par and dg-sample are bypassed",
    },
    WorkloadDef {
        name: "sim_trace_replay",
        why: "medium-suite traces decoded and replayed under four organizations: real access mix with kernel arithmetic removed; the only user of dg-mem tracefile and of System driven from a trace",
    },
    WorkloadDef {
        name: "sim_sampled_medium",
        why: "K=8 sampled simulation of the medium suite over the 11-config grid: the functional skip/warm path and dg-sample, with accuracy against full-coverage runs reported beside speed",
    },
    WorkloadDef {
        name: "serve_zipf_hit",
        why: "hit rate ~1.0 query stream on a cache-resident 16-shard server, 1 worker: apply is cheapest, so partition, shard lock and scatter are the largest share they will ever be; the miss path is bypassed",
    },
    WorkloadDef {
        name: "serve_mixed_put",
        why: "half puts, half gets on the same keys, 1 worker: write_with and map generation on every put (same bin: a silent update, never a move) beside reads; the pool's inline path bypasses thread dispatch",
    },
    WorkloadDef {
        name: "serve_thrash",
        why: "128 K uniform keys over 16 K tags, hit rate ~0.27, 1 worker: insert, map generation and tag/data eviction on nearly every op; the hit fast path is bypassed, so a miss-path regression shows",
    },
];

/// An end-to-end metric every workload reports, with the share of the
/// parent's median by which it may worsen.
#[derive(Clone, Copy, Debug)]
pub struct EndToEndDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports (README.md defines
/// each per workload).
pub const END_TO_END: [EndToEndDef; 7] = [
    EndToEndDef { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "throughput_mops", unit: "Mops/s", better: Better::Higher, bound: 0.25 },
    EndToEndDef { name: "unit_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "hit_rate", unit: "frac", better: Better::Higher, bound: 0.20 },
    EndToEndDef { name: "agreement", unit: "frac", better: Better::Higher, bound: 0.20 },
];

/// An end-to-end metric only some workloads have. `BENCHMARK.json` can
/// hold only metrics every workload reports, so these are printed as
/// text, kept in `results.json`, and bounded by `compare` from here.
#[derive(Clone, Copy, Debug)]
pub struct ExtraDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound: 0 for simulated numbers that repeat exactly,
    /// `None` for a number that is reported but not judged.
    pub bound: Option<f64>,
}

/// Workload-specific end-to-end metrics.
pub const EXTRA: [ExtraDef; 9] = [
    // Demoted: a batch tail follows the host, not the program, on any
    // estimator tried (README.md, "How the bounds were measured"). The
    // traced run reports it as the per-layer `harness.unit_tail_us`.
    ExtraDef { name: "unit_tail_us", unit: "us", better: Better::Lower, bound: None },
    ExtraDef { name: "access_ns_l1_hit", unit: "ns", better: Better::Lower, bound: Some(0.10) },
    ExtraDef { name: "access_ns_llc_hit", unit: "ns", better: Better::Lower, bound: Some(0.10) },
    ExtraDef { name: "access_ns_miss", unit: "ns", better: Better::Lower, bound: Some(0.10) },
    ExtraDef { name: "paper_dev_max", unit: "frac", better: Better::Lower, bound: Some(0.0) },
    ExtraDef {
        name: "sampled_in_tol_frac",
        unit: "frac",
        better: Better::Higher,
        bound: Some(0.0),
    },
    ExtraDef {
        name: "sim_stat_digest_ok",
        unit: "count",
        better: Better::Higher,
        bound: Some(0.0),
    },
    ExtraDef { name: "ops_attempted", unit: "count", better: Better::Higher, bound: None },
    ExtraDef { name: "ops_failed", unit: "count", better: Better::Lower, bound: Some(0.0) },
];

/// A per-layer metric: an isolated call into one crate, made the same
/// way in every traced run, a layer's share of the traced pass, or the
/// traced pass's unit tail.
#[derive(Clone, Debug)]
pub struct LayerDef {
    /// `<crate>.<what>`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// The per-layer metric the traced pass's unit tail is reported as
/// (`unit_tail_us` of the timed run, which has no bound).
pub const TRACED_TAIL: &str = "harness.unit_tail_us";

/// LLC organizations of `sim_levels` and the replay workload, in
/// reporting order.
pub const ORGS: [&str; 4] = ["baseline", "split", "unified", "compressed"];
/// Hierarchy levels of `sim_levels`.
pub const LEVELS: [&str; 3] = ["l1_hit", "llc_hit", "miss"];
/// Access kinds of `sim_levels`.
pub const KINDS: [&str; 2] = ["ld", "st"];
/// SIMD lanes, scalar first.
pub const LANES: [&str; 3] = ["scalar", "sse2", "avx2"];
/// Batch sizes of `dg-serve.mops_by_batch`.
pub const BATCH_SIZES: [usize; 3] = [256, 4096, 65536];

/// Every per-layer metric of `BENCHMARK.json`, in reporting order.
pub fn per_layer() -> Vec<LayerDef> {
    use Better::{Higher, Lower};
    let mut v = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        v.push(LayerDef { name, unit, better });
    };
    for layer in crate::trace::LAYERS {
        add(format!("{layer}.self_share"), "frac", Lower);
    }
    add(TRACED_TAIL.into(), "us", Lower);
    for org in ORGS {
        for level in LEVELS {
            for kind in KINDS {
                add(format!("dg-system.level_ns.{org}.{level}.{kind}"), "ns", Lower);
            }
        }
    }
    add("dg-system.l2_dir_llc_ns".into(), "ns", Lower);
    add("dg-system.miss_extra_ns".into(), "ns", Lower);
    for name in [
        "conv_read_hit_ns",
        "conv_fill_evict_ns",
        "comp_read_hit_ns",
        "comp_fill_ns",
        "comp_write_ns",
    ] {
        add(format!("dg-cache.{name}"), "ns", Lower);
    }
    for name in ["read_hit_ns", "insert_approx_ns", "write_move_ns"] {
        add(format!("doppelganger.{name}"), "ns", Lower);
    }
    for ty in ["f32", "f64", "i32", "u8"] {
        add(format!("doppelganger.map_block_ns.{ty}"), "ns", Lower);
    }
    for kernel in ["decode_clamp_ns", "match_mask_ns", "eq64_ns"] {
        for lane in LANES {
            add(format!("dg-simd.{kernel}.{lane}"), "ns", Lower);
        }
    }
    for name in ["image_fetch_hot_ns", "image_fetch_cold_ns", "image_set_ns"] {
        add(format!("dg-mem.{name}"), "ns", Lower);
    }
    add("dg-mem.trace_decode_mb_per_s".into(), "MB/s", Higher);
    add("dg-mem.trace_encode_mb_per_s".into(), "MB/s", Higher);
    add("dg-compress.bdi_compress_ns".into(), "ns", Lower);
    add("dg-compress.bdi_decompress_ns".into(), "ns", Lower);
    add("dg-par.dispatch_us_per_batch".into(), "us", Lower);
    for name in [
        "shard_of_ns",
        "execute_ns_per_op",
        "cache_only_ns_per_op",
        "lock_ns_per_op",
        "batch_overhead_ns_per_op",
    ] {
        add(format!("dg-serve.{name}"), "ns", Lower);
    }
    add("dg-serve.parallel_speedup".into(), "ratio", Higher);
    for size in BATCH_SIZES {
        add(format!("dg-serve.mops_by_batch.{size}"), "Mops/s", Higher);
    }
    add("dg-obs.hist_record_ns".into(), "ns", Lower);
    add("dg-obs.metrics_overhead_frac".into(), "frac", Lower);
    v
}

/// Whether `name` is a legal metric or workload name under the
/// benchmark contract.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, escape(w.why)))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.name(),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.name()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_name_is_legal_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .chain(END_TO_END.iter().map(|m| m.name.to_string()))
            .chain(EXTRA.iter().map(|m| m.name.to_string()))
            .chain(per_layer().into_iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(&name), "illegal name {name:?}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!((1..=128).contains(&per_layer().len()));
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.bytes().all(|b| {
                    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')
                })
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(per_layer().iter().all(|m| unit_ok(m.unit)));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn name_rule_rejects_what_the_contract_rejects() {
        for bad in ["", ".hidden", "-x", "has space", "slash/name", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
        assert!(valid_name("dg-system.level_ns.split.l1_hit.ld"));
    }
}
