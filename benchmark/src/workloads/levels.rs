//! `sim_levels`: host cost of a simulated access, by hierarchy level.
//!
//! Four tiny systems (one per LLC organization), one core, a seeded
//! 8192-block image annotated approximate whose blocks fall in a
//! controlled number of distinct map bins. Three cyclic streams pin
//! where every access is served — `l1_hit` (16 blocks), `llc_hit` (256
//! blocks in 32 bins: they overflow the private levels but fit every
//! LLC, and their maps fit the smallest data array), `miss` (all 8192
//! blocks, 2048 bins) — each as loads and as stores: 24 cells.
//!
//! A pass runs 16 Ki-access batches on every cell in the ratio
//! 32 : 4 : 1 (L1 : LLC : miss), so the three levels take about equal
//! host time and the pass is as sensitive to the L1 fast path as to the
//! miss path. Also the measurement behind the `dg-system.level_ns.*`
//! per-layer metrics, which every traced run takes at a few batches
//! per cell.

use crate::digest::{system_digest, StatDigests};
use crate::harness::{peak_rss_mb, sum_of_fastest, time_setups, timed, Core, Ctx, Timed, Units};
use crate::metrics::{KINDS, LEVELS, ORGS};
use crate::stats::median;
use crate::workloads::{four_orgs, ratio};
use dg_bench::experiments::Scale;
use dg_mem::{Addr, AnnotationTable, ApproxRegion, BlockAddr, BlockData, ElemType, MemoryImage};
use dg_rand::SplitMix64;
use dg_system::{System, SystemConfig};
use doppelganger::MapSpace;
use std::collections::BTreeSet;

/// Simulated accesses per timed batch.
pub const BATCH: usize = 16 * 1024;
/// Blocks in the image.
const IMAGE_BLOCKS: u64 = 8192;
/// Working set of each level's stream, in blocks.
const STREAM_BLOCKS: [u64; 3] = [16, 256, IMAGE_BLOCKS];
/// Distinct map bins among the first 256 blocks, and in the image.
const LLC_BINS: u64 = 32;
const IMAGE_BINS: u64 = 2048;
/// Batches per cell per pass, by level.
const REPS: [usize; 3] = [32, 4, 1];
/// Where the image starts.
const BASE: u64 = 0x10_0000;
/// Odd stride scattering bin ids over the 2^14 quantization bins, so
/// the streams' maps spread over MTag sets (as `dg-serve`'s generator
/// does).
const BIN_STRIDE: u64 = 40503;
const VALUE_MIN: f64 = 0.0;
const VALUE_MAX: f64 = 100.0;

fn region() -> ApproxRegion {
    ApproxRegion::new(Addr(BASE), IMAGE_BLOCKS * 64, ElemType::F32, VALUE_MIN, VALUE_MAX)
}

/// The seeded image: block `i` holds sixteen f32 values inside one
/// quantization bin — bin id `i % 32` for the first 256 blocks,
/// `i % 2048` after — jittered by at most a tenth of a bin so blocks of
/// one bin differ in bytes but not in map. A pure function of the seed.
pub fn build_image(seed: u64) -> MemoryImage {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let bins = 1u64 << 14;
    let width = (VALUE_MAX - VALUE_MIN) / bins as f64;
    let first = rng.next_u64() % bins;
    let mut image = MemoryImage::new();
    for i in 0..IMAGE_BLOCKS {
        let id = if i < STREAM_BLOCKS[1] { i % LLC_BINS } else { i % IMAGE_BINS };
        let bin = (first + id * BIN_STRIDE) % bins;
        let center = VALUE_MIN + (bin as f64 + 0.5) * width;
        let values: Vec<f64> =
            (0..16).map(|_| center + (2.0 * rng.next_f64() - 1.0) * 0.1 * width).collect();
        image.set_block(BlockAddr(BASE / 64 + i), BlockData::from_values(ElemType::F32, &values));
    }
    image
}

/// Distinct 14-bit maps among the first `blocks` blocks of `image`.
fn distinct_maps(image: &MemoryImage, blocks: u64) -> usize {
    let r = region();
    (0..blocks)
        .map(|i| MapSpace::new(14).map_block(&image.block(BlockAddr(BASE / 64 + i)), &r).0)
        .collect::<BTreeSet<_>>()
        .len()
}

/// One (organization, level, access kind) measurement.
struct Cell {
    org: usize,
    level: usize,
    kind: usize,
    sys: System,
    /// The stream: address and the four bytes a store writes there
    /// (the value already stored, so bins stay as built).
    stream: Vec<(Addr, [u8; 4])>,
    cursor: usize,
    /// Host ns per access of each timed batch.
    ns: Vec<f64>,
}

impl Cell {
    fn new(org: usize, level: usize, kind: usize, cfg: SystemConfig, image: &MemoryImage) -> Cell {
        let mut annots = AnnotationTable::new();
        annots.add(region());
        let stream = (0..STREAM_BLOCKS[level])
            .map(|i| {
                let block = image.block(BlockAddr(BASE / 64 + i));
                let mut word = [0u8; 4];
                word.copy_from_slice(&block.as_bytes()[..4]);
                (Addr(BASE + i * 64), word)
            })
            .collect();
        let sys = System::new(cfg, image.clone(), annots);
        Cell { org, level, kind, sys, stream, cursor: 0, ns: Vec::new() }
    }

    /// Issue `n` accesses, continuing round the stream.
    fn run(&mut self, n: usize) {
        let mut buf = [0u8; 4];
        for _ in 0..n {
            let (addr, word) = self.stream[self.cursor];
            if self.kind == 0 {
                self.sys.load(0, addr, &mut buf);
            } else {
                self.sys.store(0, addr, &word);
            }
            self.cursor += 1;
            if self.cursor == self.stream.len() {
                self.cursor = 0;
            }
        }
        std::hint::black_box(buf);
    }

    /// Two passes over the stream: the first populates, the second
    /// settles LRU and steady-state occupancy.
    fn warm(&mut self) {
        self.run(2 * self.stream.len());
    }

    fn name(&self) -> String {
        format!("{}.{}.{}", ORGS[self.org], LEVELS[self.level], KINDS[self.kind])
    }
}

fn build_cells(image: &MemoryImage) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(24);
    for (org, (_, cfg)) in four_orgs(Scale::Small).into_iter().enumerate() {
        for level in 0..LEVELS.len() {
            for kind in 0..KINDS.len() {
                let mut cell = Cell::new(org, level, kind, cfg, image);
                cell.warm();
                cells.push(cell);
            }
        }
    }
    cells
}

/// One timed batch on `cell`.
fn timed_batch(cell: &mut Cell) -> Timed<()> {
    let t = timed(|| cell.run(BATCH));
    cell.ns.push(t.secs() * 1e9 / BATCH as f64);
    t
}

/// Mean over a level's eight cells of the per-cell median ns/access.
fn level_mean(cells: &[Cell], level: usize) -> f64 {
    let of: Vec<f64> = cells.iter().filter(|c| c.level == level).map(|c| median(&c.ns)).collect();
    of.iter().sum::<f64>() / of.len() as f64
}

/// The 24 `dg-system.level_ns.*` values plus the two differences, from
/// `batches` timed batches per cell — the probe every traced run takes.
pub fn probe(seed: u64, batches: usize) -> Vec<(String, f64)> {
    let image = build_image(seed);
    let mut cells = build_cells(&image);
    for cell in &mut cells {
        for _ in 0..batches {
            timed_batch(cell);
        }
    }
    let mut out: Vec<(String, f64)> =
        cells.iter().map(|c| (format!("dg-system.level_ns.{}", c.name()), median(&c.ns))).collect();
    let (l1, llc, miss) = (level_mean(&cells, 0), level_mean(&cells, 1), level_mean(&cells, 2));
    out.push(("dg-system.l2_dir_llc_ns".into(), llc - l1));
    out.push(("dg-system.miss_extra_ns".into(), miss - llc));
    out
}

/// Run the workload.
pub fn run(cx: &mut Ctx) -> Core {
    let seed = cx.seed;
    let ((image, mut cells), setup_s) = time_setups(|| {
        let image = build_image(seed);
        let cells = build_cells(&image);
        (image, cells)
    });
    assert_eq!(distinct_maps(&image, STREAM_BLOCKS[1]), LLC_BINS as usize, "llc_hit stream bins");
    assert_eq!(distinct_maps(&image, IMAGE_BLOCKS), IMAGE_BINS as usize, "image bins");

    let reps = if cx.smoke { [4, 1, 1] } else { REPS };
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut counter = cx.passes(if cx.smoke { 3 } else { 20 });
    while counter.more() {
        let pass = passes.len() as u64;
        let mut batch_s = Vec::new();
        for (ci, cell) in cells.iter_mut().enumerate() {
            for _ in 0..reps[cell.level] {
                let t = timed_batch(cell);
                batch_s.push(t.secs());
                if let Some(tr) = cx.tracer.as_mut() {
                    tr.record("batch", "dg-system", t.start, t.end, None, pass * 24 + ci as u64);
                }
            }
        }
        passes.push(batch_s);
    }
    let peak_rss_mb = peak_rss_mb();
    let per_pass: usize = cells.iter().map(|c| reps[c.level] * BATCH).sum();

    let access_ns = [level_mean(&cells, 0), level_mean(&cells, 1), level_mean(&cells, 2)];
    for (level, ns) in LEVELS.iter().zip(access_ns) {
        cx.extra(&format!("access_ns_{level}"), ns, "ns");
    }
    cx.note(format!(
        "{} passes; batches per cell: l1_hit {}, llc_hit {}, miss {}",
        passes.len(),
        cells[0].ns.len(),
        cells[2].ns.len(),
        cells[4].ns.len()
    ));
    for cell in &cells {
        cell.sys.check_llc_invariants();
    }

    // Verification on a run of fixed length, so its statistics repeat
    // exactly whatever the time budget was: fresh cells, warmed, then
    // two batches with statistics reset.
    let mut digests = StatDigests::default();
    let (mut hits, mut lookups) = (0u64, 0u64);
    let mut purity: f64 = 1.0;
    let mut failed = 0u64;
    let fresh = build_cells(&image);
    let attempted = fresh.len() as u64;
    for mut cell in fresh {
        cell.sys.reset_stats();
        cell.run(2 * BATCH);
        cell.sys.check_llc_invariants();
        let n = cell.sys.accesses() as f64;
        let (l1, llc) = (cell.sys.l1_stats(), cell.sys.llc_counters());
        hits += llc.hits;
        lookups += llc.lookups;
        // Share of accesses served where the stream is meant to pin them.
        let at_level = match cell.level {
            0 => l1.hits as f64 / n,
            1 => llc.hits as f64 / n,
            _ => llc.misses() as f64 / n,
        };
        purity = purity.min(at_level);
        if at_level < 0.99 || llc.hits > llc.lookups {
            failed += 1;
            cx.note(format!("{}: only {at_level:.4} of accesses served at its level", cell.name()));
        }
        digests.push(cell.name(), system_digest(&cell.sys));
    }
    failed += cx.check_golden(&digests).len() as u64;

    Core {
        setup_s,
        wall_s: sum_of_fastest(&passes),
        ops_per_pass: per_pass as f64,
        units: Units::Repeated(passes),
        tail_cap: 0.99,
        peak_rss_mb,
        hit_rate: ratio(hits as f64, lookups as f64),
        agreement: purity,
        attempted,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_is_a_pure_function_of_the_seed_with_the_intended_bins() {
        let a = build_image(11);
        assert!(a.iter_blocks().eq(build_image(11).iter_blocks()));
        assert!(!a.iter_blocks().eq(build_image(12).iter_blocks()));
        assert_eq!(a.populated_blocks(), IMAGE_BLOCKS as usize);
        assert_eq!(distinct_maps(&a, STREAM_BLOCKS[0]), 16);
        assert_eq!(distinct_maps(&a, STREAM_BLOCKS[1]), LLC_BINS as usize);
        assert_eq!(distinct_maps(&a, IMAGE_BLOCKS), IMAGE_BINS as usize);
    }

    #[test]
    fn streams_are_served_at_their_level() {
        let image = build_image(3);
        for mut cell in build_cells(&image) {
            cell.sys.reset_stats();
            cell.run(4096);
            let n = cell.sys.accesses() as f64;
            let share = match cell.level {
                0 => cell.sys.l1_stats().hits as f64 / n,
                1 => cell.sys.llc_counters().hits as f64 / n,
                _ => cell.sys.llc_counters().misses() as f64 / n,
            };
            assert!(share >= 0.99, "{}: {share}", cell.name());
        }
    }
}
