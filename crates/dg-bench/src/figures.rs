//! One report function per table/figure of the paper's evaluation.
//!
//! The `repro_all` binary calls all of them, sharing one [`Sweep`] and
//! one set of baseline snapshots, so a configuration several tables
//! read — above all the base split design `split-m14-d1/4` — runs once.

use crate::experiments::{
    baseline_artifacts, kernel_names, mean, reduction, suite, BaselineArtifacts, Scale, Sweep, SEED,
};
use crate::Table;
use dg_system::multiprog::run_pair;
use dg_system::similarity::{
    avg_bdi_savings, avg_dedup_savings, avg_dopp_bdi_savings, avg_map_savings,
    avg_threshold_savings, Snapshot,
};
use dg_system::{golden_output, llc_area_mm2, LlcKind, SystemConfig};
use doppelganger::{DataPolicy, DoppelgangerConfig, HardwareCost, MapHash, MapSpace};
use std::fmt::Write as _;
use std::sync::Arc;

/// Per-kernel LLC snapshots under the baseline configuration, in suite
/// order (the input to Figs. 2, 7 and 8), served from the process-wide
/// memoized baseline run — the same simulation that produces the sweep
/// baseline results, so the similarity figures cost no extra runs.
pub fn baseline_snapshots(scale: Scale) -> Arc<BaselineArtifacts> {
    baseline_artifacts(scale, SEED, scale.threads())
}

/// Schedule `labels × kernels` plus the baseline as one batch so the
/// pool sees every job up front.
fn batch_with_baseline(sweep: &mut Sweep, labels: &[&str], configs: &[SystemConfig]) {
    let mut jobs: Vec<(&str, SystemConfig)> = Vec::with_capacity(labels.len() + 1);
    jobs.push(("baseline", sweep.scale().baseline()));
    jobs.extend(labels.iter().copied().zip(configs.iter().copied()));
    sweep.run_batch(&jobs);
}


/// Fig. 2: approximate-data storage savings vs. element-wise similarity
/// threshold T ∈ {0, 0.01, 0.1, 1, 10}%.
pub fn fig02(snaps: &[Vec<Snapshot>]) -> Table {
    let thresholds = [0.0, 0.0001, 0.001, 0.01, 0.1];
    let mut t = Table::new(&["T=0%", "T=0.01%", "T=0.1%", "T=1%", "T=10%"]);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); thresholds.len()];
    for (name, ksnaps) in kernel_names().iter().zip(snaps) {
        let vals: Vec<f64> = thresholds
            .iter()
            .map(|&th| avg_threshold_savings(ksnaps, th, 4096))
            .collect();
        for (c, v) in cols.iter_mut().zip(&vals) {
            c.push(*v);
        }
        t.row_pct(name, &vals);
    }
    t.row_pct("MEAN", &cols.iter().map(|c| mean(c)).collect::<Vec<_>>());
    t
}

/// Table 2: percentage of LLC blocks that are approximate, with the
/// paper's reported values alongside.
pub fn table2(sweep: &mut Sweep) -> Table {
    let paper = [61.8, 38.0, 45.9, 3.6, 99.7, 94.7, 98.4, 59.6, 1.5];
    let results = sweep.baseline();
    let mut t = Table::new(&["measured", "paper"]);
    for (r, p) in results.iter().zip(paper) {
        t.row_strings(
            r.kernel,
            vec![format!("{:.1}%", r.approx_fraction * 100.0), format!("{p:.1}%")],
        );
    }
    let measured: Vec<f64> = results.iter().map(|r| r.approx_fraction).collect();
    t.row_strings(
        "MEAN",
        vec![
            format!("{:.1}%", mean(&measured) * 100.0),
            format!("{:.1}%", paper.iter().sum::<f64>() / paper.len() as f64),
        ],
    );
    t
}

/// Per-kernel approximate-data storage savings of the paper's map
/// space (14 bits, avg+range), in suite order: the one similarity pass
/// that Figs. 7 and 8, the hash ablation and the claims gate share.
pub fn savings_14(snaps: &[Vec<Snapshot>]) -> Vec<f64> {
    snaps.iter().map(|ks| avg_map_savings(ks, MapSpace::new(14))).collect()
}

/// Fig. 7: approximate-data storage savings for 12/13/14-bit map
/// spaces; `s14` is [`savings_14`] of `snaps`.
pub fn fig07(snaps: &[Vec<Snapshot>], s14: &[f64]) -> Table {
    let mut t = Table::new(&["12-bit", "13-bit", "14-bit"]);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for ((name, ksnaps), &m14) in kernel_names().iter().zip(snaps).zip(s14) {
        let vals = vec![
            avg_map_savings(ksnaps, MapSpace::new(12)),
            avg_map_savings(ksnaps, MapSpace::new(13)),
            m14,
        ];
        for (c, v) in cols.iter_mut().zip(&vals) {
            c.push(*v);
        }
        t.row_pct(name, &vals);
    }
    t.row_pct("MEAN", &cols.iter().map(|c| mean(c)).collect::<Vec<_>>());
    t
}

/// Fig. 8: BΔI vs. exact dedup vs. 14-bit Doppelgänger vs. 14-bit
/// Doppelgänger + BΔI; `s14` is [`savings_14`] of `snaps`.
pub fn fig08(snaps: &[Vec<Snapshot>], s14: &[f64]) -> Table {
    let mut t = Table::new(&["BdI", "exact dedup", "14-bit Dopp", "Dopp+BdI"]);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for ((name, ksnaps), &m14) in kernel_names().iter().zip(snaps).zip(s14) {
        let vals = vec![
            avg_bdi_savings(ksnaps),
            avg_dedup_savings(ksnaps),
            m14,
            avg_dopp_bdi_savings(ksnaps, MapSpace::new(14)),
        ];
        for (c, v) in cols.iter_mut().zip(&vals) {
            c.push(*v);
        }
        t.row_pct(name, &vals);
    }
    t.row_pct("MEAN", &cols.iter().map(|c| mean(c)).collect::<Vec<_>>());
    t
}

fn error_and_runtime(
    sweep: &mut Sweep,
    labels: &[&str],
    configs: &[SystemConfig],
    columns: &[&str],
) -> (Table, Table) {
    batch_with_baseline(sweep, labels, configs);
    let baseline = sweep.results("baseline");
    let mut err = Table::new(columns);
    let mut run = Table::new(columns);
    let n = kernel_names().len();
    let mut err_cols = vec![Vec::new(); configs.len()];
    let mut run_cols = vec![Vec::new(); configs.len()];
    let mut per_kernel_err = vec![Vec::new(); n];
    let mut per_kernel_run = vec![Vec::new(); n];
    for ((label, _cfg), (ec, rc)) in labels
        .iter()
        .zip(configs)
        .zip(err_cols.iter_mut().zip(run_cols.iter_mut()))
    {
        let results = sweep.results(label);
        for (i, (r, b)) in results.iter().zip(baseline).enumerate() {
            let norm = r.runtime_cycles as f64 / b.runtime_cycles.max(1) as f64;
            per_kernel_err[i].push(r.output_error);
            per_kernel_run[i].push(norm);
            ec.push(r.output_error);
            rc.push(norm);
        }
    }
    for (i, name) in kernel_names().iter().enumerate() {
        err.row_pct(name, &per_kernel_err[i]);
        run.row_num(name, &per_kernel_run[i]);
    }
    err.row_pct("MEAN", &err_cols.iter().map(|c| mean(c)).collect::<Vec<_>>());
    run.row_num("MEAN", &run_cols.iter().map(|c| mean(c)).collect::<Vec<_>>());
    (err, run)
}

/// Fig. 9: output error (a) and normalized runtime (b) for 12/13/14-bit
/// map spaces (split design, 1/4 data array).
pub fn fig09(sweep: &mut Sweep) -> (Table, Table) {
    let scale = sweep.scale();
    error_and_runtime(
        sweep,
        &["split-m12-d1/4", "split-m13-d1/4", "split-m14-d1/4"],
        &[scale.split(12, 1, 4), scale.split(13, 1, 4), scale.split(14, 1, 4)],
        &["12-bit", "13-bit", "14-bit"],
    )
}

/// Fig. 10: output error (a) and normalized runtime (b) for 1/2, 1/4
/// and 1/8 data arrays (split design, 14-bit maps).
pub fn fig10(sweep: &mut Sweep) -> (Table, Table) {
    let scale = sweep.scale();
    error_and_runtime(
        sweep,
        &["split-m14-d1/2", "split-m14-d1/4", "split-m14-d1/8"],
        &[scale.split(14, 1, 2), scale.split(14, 1, 4), scale.split(14, 1, 8)],
        &["1/2 data", "1/4 data", "1/8 data"],
    )
}

fn energy_tables(
    sweep: &mut Sweep,
    labels: &[&str],
    configs: &[SystemConfig],
    columns: &[&str],
) -> (Table, Table) {
    batch_with_baseline(sweep, labels, configs);
    let baseline = sweep.results("baseline");
    let mut dyn_t = Table::new(columns);
    let mut leak_t = Table::new(columns);
    let n = kernel_names().len();
    let mut dyn_cols = vec![Vec::new(); configs.len()];
    let mut leak_cols = vec![Vec::new(); configs.len()];
    let mut per_kernel_dyn = vec![Vec::new(); n];
    let mut per_kernel_leak = vec![Vec::new(); n];
    for ((label, _cfg), (dc, lc)) in labels
        .iter()
        .zip(configs)
        .zip(dyn_cols.iter_mut().zip(leak_cols.iter_mut()))
    {
        let results = sweep.results(label);
        for (i, (r, b)) in results.iter().zip(baseline).enumerate() {
            let d = reduction(b.energy.llc_dynamic_pj, r.energy.llc_dynamic_pj);
            let l = reduction(b.energy.llc_leakage_pj, r.energy.llc_leakage_pj);
            per_kernel_dyn[i].push(d);
            per_kernel_leak[i].push(l);
            dc.push(d);
            lc.push(l);
        }
    }
    for (i, name) in kernel_names().iter().enumerate() {
        dyn_t.row_ratio(name, &per_kernel_dyn[i]);
        leak_t.row_ratio(name, &per_kernel_leak[i]);
    }
    dyn_t.row_ratio("MEAN", &dyn_cols.iter().map(|c| mean(c)).collect::<Vec<_>>());
    leak_t.row_ratio("MEAN", &leak_cols.iter().map(|c| mean(c)).collect::<Vec<_>>());
    (dyn_t, leak_t)
}

/// Fig. 11: LLC dynamic (a) and leakage (b) energy reduction for 1/2,
/// 1/4 and 1/8 data arrays.
pub fn fig11(sweep: &mut Sweep) -> (Table, Table) {
    let scale = sweep.scale();
    energy_tables(
        sweep,
        &["split-m14-d1/2", "split-m14-d1/4", "split-m14-d1/8"],
        &[scale.split(14, 1, 2), scale.split(14, 1, 4), scale.split(14, 1, 8)],
        &["1/2 data", "1/4 data", "1/8 data"],
    )
}

fn traffic_table(
    sweep: &mut Sweep,
    labels: &[&str],
    configs: &[SystemConfig],
    columns: &[&str],
) -> Table {
    batch_with_baseline(sweep, labels, configs);
    let baseline = sweep.results("baseline");
    let mut t = Table::new(columns);
    let n = kernel_names().len();
    let mut cols = vec![Vec::new(); configs.len()];
    let mut per_kernel = vec![Vec::new(); n];
    for (label, col) in labels.iter().zip(cols.iter_mut()) {
        let results = sweep.results(label);
        for (i, (r, b)) in results.iter().zip(baseline).enumerate() {
            let norm = r.off_chip_blocks as f64 / b.off_chip_blocks.max(1) as f64;
            per_kernel[i].push(norm);
            col.push(norm);
        }
    }
    for (i, name) in kernel_names().iter().enumerate() {
        t.row_num(name, &per_kernel[i]);
    }
    t.row_num("MEAN", &cols.iter().map(|c| mean(c)).collect::<Vec<_>>());
    t
}

/// Fig. 12: off-chip memory traffic normalized to the baseline.
pub fn fig12(sweep: &mut Sweep) -> Table {
    let scale = sweep.scale();
    traffic_table(
        sweep,
        &["split-m14-d1/2", "split-m14-d1/4", "split-m14-d1/8"],
        &[scale.split(14, 1, 2), scale.split(14, 1, 4), scale.split(14, 1, 8)],
        &["1/2 data", "1/4 data", "1/8 data"],
    )
}

/// Fig. 13: LLC area reduction for the split design (1/2, 1/4, 1/8 data
/// arrays) and uniDoppelgänger (3/4, 1/2, 1/4). Pure configuration —
/// no simulation needed, so it always evaluates the paper-scale
/// structures (toy-sized caches would be dominated by the fixed
/// map-generation FPU area).
pub fn fig13(_scale: Scale) -> Table {
    let scale = Scale::Paper;
    let base = llc_area_mm2(&scale.baseline());
    let mut t = Table::new(&["area reduction"]);
    for (label, cfg) in [
        ("Doppelganger 1/2", scale.split(14, 1, 2)),
        ("Doppelganger 1/4", scale.split(14, 1, 4)),
        ("Doppelganger 1/8", scale.split(14, 1, 8)),
        ("uniDoppelganger 3/4", scale.unified(3, 4)),
        ("uniDoppelganger 1/2", scale.unified(1, 2)),
        ("uniDoppelganger 1/4", scale.unified(1, 4)),
    ] {
        t.row_ratio(label, &[reduction(base, llc_area_mm2(&cfg))]);
    }
    t
}

/// Fig. 14: uniDoppelgänger output error (a), normalized runtime (b)
/// and LLC dynamic energy reduction (c) for 3/4, 1/2 and 1/4 data
/// arrays.
pub fn fig14(sweep: &mut Sweep) -> (Table, Table, Table) {
    let scale = sweep.scale();
    let labels = ["uni-d3/4", "uni-d1/2", "uni-d1/4"];
    let configs = [scale.unified(3, 4), scale.unified(1, 2), scale.unified(1, 4)];
    let columns = ["3/4 data", "1/2 data", "1/4 data"];
    let (err, run) = error_and_runtime(sweep, &labels, &configs, &columns);
    let (dyn_t, _) = energy_tables(sweep, &labels, &configs, &columns);
    (err, run, dyn_t)
}

/// Touché-style compressed LLC next to the split base design: output
/// error (a; identically zero — BΔI is exact), normalized runtime (b)
/// and LLC dynamic energy reduction (c), for 2- and 4-block
/// superblocks.
pub fn compressed_compare(sweep: &mut Sweep) -> (Table, Table, Table) {
    let scale = sweep.scale();
    let labels = ["compressed-sb2", "compressed-sb4", "split-m14-d1/4"];
    let configs = [scale.compressed(2), scale.compressed(4), scale.split(14, 1, 4)];
    let columns = ["sb=2", "sb=4", "split 1/4"];
    let (err, run) = error_and_runtime(sweep, &labels, &configs, &columns);
    let (dyn_t, _) = energy_tables(sweep, &labels, &configs, &columns);
    (err, run, dyn_t)
}

/// Fig. 8 cross-check: the storage savings the compressed LLC realizes
/// at runtime — fill-weighted, after segment rounding ("realized") and
/// before it ("exact BdI") — next to the trace-level BΔI bound computed
/// from the baseline similarity snapshots. The runtime numbers also
/// cover precise traffic the snapshot bound never sees, so they may
/// land on either side of it; what they must not do is disagree wildly,
/// which would mean the compressed array and `similarity.rs` implement
/// different BΔI.
pub fn compressed_storage(sweep: &mut Sweep, snaps: &[Vec<Snapshot>]) -> Table {
    let scale = sweep.scale();
    let cfg = scale.compressed(2);
    let seg_bytes = match cfg.llc {
        LlcKind::Compressed(c) => c.segment_bytes,
        _ => unreachable!("Scale::compressed builds a compressed LLC"),
    };
    sweep.run_batch(&[("compressed-sb2", cfg)]);
    let results = sweep.results("compressed-sb2");
    let mut t = Table::new(&["realized", "exact BdI", "snapshot bound"]);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for ((name, ksnaps), r) in kernel_names().iter().zip(snaps).zip(results) {
        let vals = vec![
            1.0 - r.llc.comp.stored_fraction(seg_bytes),
            1.0 - r.llc.comp.bdi_fraction(),
            avg_bdi_savings(ksnaps),
        ];
        for (c, v) in cols.iter_mut().zip(&vals) {
            c.push(*v);
        }
        t.row_pct(name, &vals);
    }
    t.row_pct("MEAN", &cols.iter().map(|c| mean(c)).collect::<Vec<_>>());
    t
}

/// Where the base split design's LLC dynamic energy goes (extends
/// Fig. 11): each benchmark's total split into the precise partition,
/// the tag array, the MTag array, the data array and the
/// map-generation FPUs.
pub fn energy_breakdown(sweep: &mut Sweep) -> Table {
    use dg_system::LlcStructure::*;
    let scale = sweep.scale();
    let results = sweep.run("split-m14-d1/4", scale.split_default());
    let mut t = Table::new(&["precise", "dopp tag", "MTag", "dopp data", "map FPUs"]);
    for (name, r) in kernel_names().iter().zip(results) {
        let b = r.energy.breakdown;
        let total = b.total_pj().max(1e-12);
        t.row_pct(name, &[Precise, DoppTag, MTag, DoppData, Map].map(|s| b.pj(s) / total));
    }
    t
}

/// Multiprogrammed pairs (§4.1): two applications with disjoint
/// address spaces and their own annotations share one split LLC. Each
/// application's output error in the pair sits next to its solo error
/// on the base split design.
pub fn multiprog(sweep: &mut Sweep) -> Table {
    // 4 GiB separation between the two address spaces.
    const OFFSET: u64 = 1 << 32;
    // High-approx / low-approx and high-approx / high-approx pairings.
    const PAIRS: [(&str, &str); 3] =
        [("inversek2j", "swaptions"), ("jpeg", "kmeans"), ("blackscholes", "jmeint")];
    let scale = sweep.scale();
    let cfg = scale.split_default();
    let solo = sweep.run("split-m14-d1/4", cfg);
    let kernels = suite(scale);
    let index = |name| kernel_names().iter().position(|&k| k == name).expect("suite kernel");
    let mut t = Table::new(&["solo error A", "pair error A", "solo error B", "pair error B"]);
    for (na, nb) in PAIRS {
        let (ia, ib) = (index(na), index(nb));
        let (a, b) = (kernels[ia].as_ref(), kernels[ib].as_ref());
        let run = run_pair(a, b, cfg, OFFSET);
        let threads = scale.threads() / 2;
        let pair_ea = a.error_metric(&golden_output(a, threads), &run.output_a);
        let pair_eb = b.error_metric(&golden_output(b, threads), &run.output_b);
        t.row_pct(
            &format!("{na}+{nb}"),
            &[solo[ia].output_error, pair_ea, solo[ib].output_error, pair_eb],
        );
        eprintln!(
            "[multiprog] {na}+{nb}: {} cycles, {} LLC lookups, {} doppel insertions",
            run.system.runtime_cycles(),
            run.system.llc_counters().lookups,
            run.system.llc_counters().dopp.insertions,
        );
    }
    t
}

/// Ablation (§3.5 future work): the paper's LRU data-array replacement
/// — the base split design itself — against the sharing-aware
/// fewest-sharers policy, which evicts the data entry with the fewest
/// tags. Normalized runtime, normalized off-chip traffic and output
/// error.
pub fn ablation_policy(sweep: &mut Sweep) -> (Table, Table, Table) {
    let scale = sweep.scale();
    let mut fewest = scale.split_default();
    fewest.data_policy = DataPolicy::FewestSharers;
    let labels = ["split-m14-d1/4", "policy-fewest-sharers"];
    let configs = [scale.split_default(), fewest];
    let columns = ["LRU", "fewest-sharers"];
    let (err, run) = error_and_runtime(sweep, &labels, &configs, &columns);
    let traffic = traffic_table(sweep, &labels, &configs, &columns);
    (run, traffic, err)
}

/// Ablation (§3.7 future work): the similarity hash pair. Storage
/// savings of each [`MapHash`] at 14 bits on the baseline snapshots
/// (a), and output error on the split design (b). The avg+range
/// columns are [`savings_14`] (`s14`) and the base split design itself.
pub fn ablation_hash(sweep: &mut Sweep, snaps: &[Vec<Snapshot>], s14: &[f64]) -> (Table, Table) {
    let names: Vec<String> = MapHash::ALL.iter().map(|h| h.to_string()).collect();
    let columns: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut savings = Table::new(&columns);
    let mut cols = vec![Vec::new(); MapHash::ALL.len()];
    for ((name, ksnaps), &m14) in kernel_names().iter().zip(snaps).zip(s14) {
        let vals: Vec<f64> = MapHash::ALL
            .iter()
            .map(|&h| match h {
                MapHash::AvgRange => m14,
                _ => avg_map_savings(ksnaps, MapSpace::new(14).with_hash(h)),
            })
            .collect();
        for (c, v) in cols.iter_mut().zip(&vals) {
            c.push(*v);
        }
        savings.row_pct(name, &vals);
    }
    savings.row_pct("MEAN", &cols.iter().map(|c| mean(c)).collect::<Vec<_>>());

    let base = sweep.scale().split_default();
    let (labels, configs): (Vec<String>, Vec<SystemConfig>) = MapHash::ALL
        .iter()
        .map(|&h| {
            let mut cfg = base;
            if let LlcKind::Split(ref mut d) = cfg.llc {
                d.map_space = d.map_space.with_hash(h);
            }
            let label =
                if cfg == base { "split-m14-d1/4".to_string() } else { format!("hash-{h}") };
            (label, cfg)
        })
        .unzip();
    let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
    let (error, _) = error_and_runtime(sweep, &labels, &configs, &columns);
    (savings, error)
}

/// The paper's headline claims, each held to a band: the report
/// `repro_all` prints last, and how many claims left their band.
#[derive(Debug, Default)]
pub struct Claims {
    report: String,
    failures: u32,
}

impl Claims {
    /// Record one claim: PASS when `lo <= value <= hi` (both bounds
    /// inclusive), FAIL otherwise — a NaN value included.
    fn check(&mut self, name: &str, value: f64, lo: f64, hi: f64) {
        let ok = (lo..=hi).contains(&value);
        let verdict = if ok { "PASS" } else { "FAIL" };
        writeln!(self.report, "{verdict} {name}: {value:.3} (expected {lo:.3}..{hi:.3})")
            .expect("writing to a String cannot fail");
        self.failures += u32::from(!ok);
    }

    /// One `PASS`/`FAIL` line per claim, in check order.
    pub fn report(&self) -> &str {
        &self.report
    }

    /// How many claims left their band.
    pub fn failures(&self) -> u32 {
        self.failures
    }
}

/// Check the paper's headline claims. At paper scale the bands are the
/// ones EXPERIMENTS.md records; at the reduced scales only the
/// structural claims (Table 3, Fig. 13 area) and sanity bands on the
/// Fig. 7 savings (`s14`, from [`savings_14`]), the Fig. 9a error and
/// baseline exactness apply.
pub fn claims(sweep: &mut Sweep, s14: &[f64]) -> Claims {
    let scale = sweep.scale();
    let mut c = Claims::default();

    // Structural claims (scale independent).
    let hw = HardwareCost::paper_system();
    let split = DoppelgangerConfig::paper_split();
    c.check(
        "Table 3: Doppelganger tag entry bits",
        hw.doppel_tag_array(&split).tag_entry_bits as f64,
        77.0,
        77.0,
    );
    let baseline_kb = hw.conventional("b", 2 << 20, 16).total_kbytes();
    let ours_kb = hw.conventional("p", 1 << 20, 16).total_kbytes()
        + hw.doppel_tag_array(&split).total_kbytes()
        + hw.doppel_data_array(&split).total_kbytes();
    c.check("Table 3: storage reduction", baseline_kb / ours_kb, 1.40, 1.46);
    let area_red =
        llc_area_mm2(&Scale::Paper.baseline()) / llc_area_mm2(&Scale::Paper.split_default());
    c.check("Fig 13: LLC area reduction @1/4 (paper 1.55x)", area_red, 1.30, 1.75);

    // Behavioural claims.
    let (lo, hi) = match scale {
        Scale::Paper => (0.30, 0.50), // paper: 37.9%
        Scale::Small | Scale::Medium => (0.10, 0.70),
    };
    c.check("Fig 7: mean 14-bit savings (paper 0.379)", mean(s14), lo, hi);

    batch_with_baseline(sweep, &["split-m14-d1/4"], &[scale.split_default()]);
    let baseline = sweep.results("baseline");
    let split_run = sweep.results("split-m14-d1/4");
    let err = mean(&split_run.iter().map(|r| r.output_error).collect::<Vec<_>>());
    c.check("Fig 9a: mean error @14-bit (paper ~0.1 or lower)", err, 0.0, 0.12);
    if scale == Scale::Paper {
        let dyn_red: Vec<f64> = split_run
            .iter()
            .zip(baseline)
            .map(|(r, b)| b.energy.llc_dynamic_pj / r.energy.llc_dynamic_pj.max(1e-12))
            .collect();
        c.check("Fig 11a: mean dynamic reduction (paper 2.55x)", mean(&dyn_red), 2.0, 3.5);
        let run_norm: Vec<f64> = split_run
            .iter()
            .zip(baseline)
            .map(|(r, b)| r.runtime_cycles as f64 / b.runtime_cycles.max(1) as f64)
            .collect();
        c.check("Fig 10b: mean runtime overhead", mean(&run_norm), 0.99, 1.35);
    }
    // Every kernel on the baseline is bit-exact.
    let exact = baseline.iter().filter(|r| r.output_error == 0.0).count();
    c.check("baseline exactness (kernels at 0 error)", exact as f64, 9.0, 9.0);
    c
}

/// Table 3: hardware cost of every structure — our computed bit budgets
/// and CACTI-lite estimates next to the paper's reported values.
pub fn table3() -> String {
    use dg_energy::{CactiLite, PAPER_TABLE3};
    let hw = HardwareCost::paper_system();
    let model = CactiLite::new();
    let split = DoppelgangerConfig::paper_split();
    let uni = DoppelgangerConfig::paper_unified();

    let structures = [
        hw.conventional("baseline 2MB LLC", 2 << 20, 16),
        hw.conventional("1MB precise cache", 1 << 20, 16),
        hw.doppel_tag_array(&split),
        hw.doppel_data_array(&split),
        hw.doppel_tag_array(&uni),
        hw.doppel_data_array(&uni),
    ];

    let mut t = Table::new(&[
        "entries",
        "tag bits",
        "size KB",
        "area mm2",
        "tag ns",
        "data ns",
        "tag pJ",
        "data pJ",
        "paper KB / mm2",
    ]);
    for (s, p) in structures.iter().zip(PAPER_TABLE3) {
        let tag_kb = s.tag_bits_total() as f64 / 8.0 / 1024.0;
        let data_kb = (s.data_bits_total() > 0)
            .then_some(s.data_bits_total() as f64 / 8.0 / 1024.0);
        let est = model.structure(tag_kb, data_kb);
        t.row_strings(
            &s.name,
            vec![
                format!("{}", s.entries),
                format!("{}", s.tag_entry_bits),
                format!("{:.0}", s.total_kbytes()),
                format!("{:.2}", est.area_mm2()),
                format!("{:.2}", est.tag.latency_ns),
                est.data.map_or("-".into(), |d| format!("{:.2}", d.latency_ns)),
                format!("{:.1}", est.tag.read_energy_pj),
                est.data.map_or("-".into(), |d| format!("{:.1}", d.read_energy_pj)),
                format!("{:.0} / {:.2}", p.total_kbytes, p.area_mm2),
            ],
        );
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_area_reductions_match_paper_shape() {
        let t = fig13(Scale::Paper);
        let s = t.render();
        assert!(s.contains("Doppelganger 1/2"));
        assert!(s.contains("uniDoppelganger 1/4"));
    }

    #[test]
    fn table3_includes_all_structures() {
        let s = table3();
        for name in ["baseline 2MB LLC", "uniDoppelganger data array"] {
            assert!(s.contains(name), "missing {name}");
        }
        assert!(s.contains("77"), "Doppelganger tag entry bits");
    }

    #[test]
    fn small_scale_end_to_end_smoke() {
        let mut sweep = Sweep::new(Scale::Small);
        let art = baseline_snapshots(Scale::Small);
        assert_eq!(art.snapshots.len(), 9);
        let _ = fig02(&art.snapshots);
        let s14 = savings_14(&art.snapshots);
        let _ = fig07(&art.snapshots, &s14);
        let _ = fig08(&art.snapshots, &s14);
        let _ = table2(&mut sweep);
        let (e, r) = fig10(&mut sweep);
        assert!(e.render().contains("MEAN"));
        assert!(r.render().contains("MEAN"));
        let _ = fig12(&mut sweep);
        let t = compressed_storage(&mut sweep, &art.snapshots);
        assert!(t.render().contains("MEAN"));
    }

    /// The compressed organization is exact: its output error column
    /// must be identically zero, and the realized storage savings must
    /// stay within segment-rounding distance of the exact BΔI fraction
    /// its own counters report.
    #[test]
    fn compressed_small_scale_is_exact_and_saves_storage() {
        let mut sweep = Sweep::new(Scale::Small);
        let (err, _run, _dyn_t) = compressed_compare(&mut sweep);
        let _ = err;
        for r in sweep.results("compressed-sb2") {
            assert_eq!(r.output_error, 0.0, "{}: BdI must be exact", r.kernel);
            let comp = &r.llc.comp;
            assert!(comp.insertions > 0, "{}: compressed LLC never filled", r.kernel);
            assert!(
                comp.bdi_fraction() <= comp.stored_fraction(8) + 1e-12,
                "{}: segment rounding cannot beat exact BdI",
                r.kernel
            );
        }
        for r in sweep.results("compressed-sb4") {
            assert_eq!(r.output_error, 0.0, "{}: BdI must be exact", r.kernel);
        }
    }

    /// Bounds are inclusive; values outside them, and NaN, fail and are
    /// counted.
    #[test]
    fn claims_gate_counts_out_of_band_and_nan_values() {
        let mut c = Claims::default();
        c.check("at lo", 1.0, 1.0, 2.0);
        c.check("at hi", 2.0, 1.0, 2.0);
        assert_eq!(c.failures(), 0);
        c.check("below", 0.999, 1.0, 2.0);
        c.check("above", 2.001, 1.0, 2.0);
        c.check("nan", f64::NAN, 1.0, 2.0);
        assert_eq!(c.failures(), 3);
        let lines: Vec<&str> = c.report().lines().collect();
        assert_eq!(lines[0], "PASS at lo: 1.000 (expected 1.000..2.000)");
        assert_eq!(lines[1], "PASS at hi: 2.000 (expected 1.000..2.000)");
        assert_eq!(lines[4], "FAIL nan: NaN (expected 1.000..2.000)");
        assert!(lines[2..].iter().all(|l| l.starts_with("FAIL ")));
        assert_eq!(lines.len(), 5);
    }

    /// The extensions and the claims read the base split design's run
    /// instead of re-simulating it: the only labels they add are the
    /// ablation variants that differ from it.
    #[test]
    fn extensions_reuse_the_base_split_run() {
        let mut sweep = Sweep::new(Scale::Small);
        let art = baseline_snapshots(Scale::Small);
        assert!(energy_breakdown(&mut sweep).render().contains("swaptions"));
        assert!(multiprog(&mut sweep).render().contains("jpeg+kmeans"));
        let (run, traffic, err) = ablation_policy(&mut sweep);
        for t in [run, traffic, err] {
            assert!(t.render().contains("canneal"));
        }
        let s14 = savings_14(&art.snapshots);
        let (savings, err) = ablation_hash(&mut sweep, &art.snapshots, &s14);
        assert!(savings.render().contains("MEAN") && err.render().contains("MEAN"));
        let c = claims(&mut sweep, &s14);
        assert_eq!(c.failures(), 0, "{}", c.report());
        let labels: Vec<&str> = sweep.cached_runs().map(|(l, _)| l).collect();
        assert_eq!(
            labels,
            [
                "baseline",
                "hash-avg",
                "hash-avg+stride",
                "hash-min+max",
                "policy-fewest-sharers",
                "split-m14-d1/4"
            ]
        );
    }
}
