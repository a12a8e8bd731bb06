//! The fixed-width `Memory` path against the byte-slice path, one
//! implementor at a time.
//!
//! A random script of loads and stores — all four widths, offsets up to
//! and including the last one that fits the block, annotated and
//! precise blocks — is issued twice: once through the typed entry
//! points (`load_u8` … `store_f64`) and once through `load_bytes` /
//! `store_bytes` only. Everything an observer can see must agree: the
//! loaded values, the recorded accesses, the memory image, and for the
//! simulated system every counter, cycle and resident block (which
//! pins LRU order: a different victim anywhere changes what hits
//! later). The private implementors (`StreamRecorder`, `HybridMemory`,
//! `FunctionalMemory`) are reached the way production reaches them, by
//! running a kernel that replays the script.

use dg_check::{props, vec};
use dg_mem::{
    Access, Addr, AnnotationTable, ApproxRegion, BlockAddr, BlockData, ElemType, Memory,
    MemoryImage, RecordingMemory, TraceStream,
};
use dg_sample::{SampleSchedule, SelectedInterval};
use dg_system::multiprog::{merge_image, offset_annotations, OffsetMemory};
use dg_system::{golden_output, run_sampled, LlcKind, System, SystemConfig};
use dg_workloads::{Kernel, KernelSource};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// First byte of the scripted address space.
const BASE: u64 = 0x4_0000;
/// Blocks `[0, ANNOTATED)` of it are annotated approximate.
const ANNOTATED: u64 = 2048;
/// Blocks the script may touch (annotated and precise halves).
const BLOCKS: u64 = 4096;

fn annotations() -> AnnotationTable {
    let mut annots = AnnotationTable::new();
    annots.add(ApproxRegion::new(Addr(BASE), ANNOTATED * 64, ElemType::F32, 0.0, 1000.0));
    annots
}

/// Which entry points a run issues its script through.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Path {
    Typed,
    Bytes,
}

/// One scripted access.
#[derive(Clone, Copy, Debug)]
struct Op {
    store: bool,
    width: usize,
    addr: Addr,
    value: u64,
    core: usize,
}

/// `(store, width selector, block seed, offset seed, value)` as generated.
type RawOp = (bool, u8, u64, u64, u64);

fn raw_ops() -> impl dg_check::Strategy<Value = Vec<RawOp>> {
    vec((dg_check::any::<bool>(), 0u8..4, 0u64..1 << 20, 0u64..1 << 20, 0u64..u64::MAX), 1..400)
}

fn decode(raw: &[RawOp]) -> Vec<Op> {
    raw.iter()
        .map(|&(store, sel, block_seed, off_seed, value)| {
            let width = 1usize << sel;
            // Mostly a hot set that fits the private levels, so the L1
            // and L2 hit paths carry traffic; one access in eight goes
            // anywhere, for LLC hits, misses and evictions.
            let block =
                if block_seed % 8 == 0 { block_seed % BLOCKS } else { block_seed % 96 * 31 };
            // One access in four ends exactly at the block's last byte.
            let last = 64 - width as u64;
            let off = if off_seed % 4 == 0 { last } else { off_seed % (last + 1) };
            Op {
                store,
                width,
                addr: Addr(BASE + block * 64 + off),
                value,
                core: (value >> 40) as usize % 4,
            }
        })
        .collect()
}

/// Issue `ops` on `mem`, returning what the loads read (zero-extended).
fn issue(mem: &mut dyn Memory, ops: &[Op], path: Path) -> Vec<u64> {
    let mut seen = Vec::new();
    for op in ops {
        mem.think(op.value as u32 & 3);
        issue_one(mem, op, path, &mut seen);
    }
    seen
}

fn issue_one(mem: &mut dyn Memory, op: &Op, path: Path, seen: &mut Vec<u64>) {
    let (a, v) = (op.addr, op.value);
    // The cast helpers take turns with the unsigned ones.
    let cast = v & 1 == 1;
    match (path, op.store) {
        (Path::Bytes, false) => {
            let mut word = [0u8; 8];
            mem.load_bytes(a, &mut word[..op.width]);
            seen.push(u64::from_le_bytes(word));
        }
        (Path::Bytes, true) => mem.store_bytes(a, &v.to_le_bytes()[..op.width]),
        (Path::Typed, false) => seen.push(match op.width {
            1 => u64::from(mem.load_u8(a)),
            2 => u64::from(mem.load_u16(a)),
            4 if cast && v & 2 == 2 => u64::from(mem.load_f32(a).to_bits()),
            4 if cast => u64::from(mem.load_i32(a) as u32),
            4 => u64::from(mem.load_u32(a)),
            _ if cast => mem.load_f64(a).to_bits(),
            _ => mem.load_u64(a),
        }),
        (Path::Typed, true) => match op.width {
            1 => mem.store_u8(a, v as u8),
            2 => mem.store_u16(a, v as u16),
            4 if cast && v & 2 == 2 => mem.store_f32(a, f32::from_bits(v as u32)),
            4 if cast => mem.store_i32(a, v as u32 as i32),
            4 => mem.store_u32(a, v as u32),
            _ if cast => mem.store_f64(a, f64::from_bits(v)),
            _ => mem.store_u64(a, v),
        },
    }
}

fn blocks_of(image: &MemoryImage) -> Vec<(BlockAddr, BlockData)> {
    image.iter_blocks().map(|(a, d)| (a, *d)).collect()
}

/// An image with something in it, so loads of untouched words differ.
fn seeded_image() -> MemoryImage {
    let mut image = MemoryImage::new();
    for b in (0..BLOCKS).step_by(3) {
        image.store_u64(Addr(BASE + b * 64 + 8), b.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        image.store_f32(Addr(BASE + b * 64 + 40), b as f32 * 0.25);
    }
    image
}

// ----------------------------------------------------------------------
// MemoryImage, &mut M, RecordingMemory.
// ----------------------------------------------------------------------

/// The script on a bare image, directly or through a `&mut` borrow.
fn on_image(
    ops: &[Op],
    path: Path,
    borrowed: bool,
) -> (Vec<u64>, Vec<(BlockAddr, BlockData)>, usize) {
    let mut image = seeded_image();
    let seen =
        if borrowed { issue(&mut &mut image, ops, path) } else { issue(&mut image, ops, path) };
    (seen, blocks_of(&image), image.populated_blocks())
}

fn recorded(ops: &[Op], path: Path) -> (Vec<u64>, Vec<Access>, Vec<(BlockAddr, BlockData)>) {
    let mut image = seeded_image();
    let annots = annotations();
    let mut rec = RecordingMemory::new(&mut image, &annots);
    let seen = issue(&mut rec, ops, path);
    (seen, rec.into_accesses(), blocks_of(&image))
}

// ----------------------------------------------------------------------
// CoreMemory and OffsetMemory over the simulated system.
// ----------------------------------------------------------------------

/// Everything the system shows after a script, its flushed DRAM last.
#[derive(Debug, PartialEq)]
struct SystemView {
    seen: Vec<u64>,
    cycles: Vec<u64>,
    instructions: u64,
    accesses: u64,
    l1: dg_cache::CacheStats,
    l2: dg_cache::CacheStats,
    llc: dg_system::LlcCounters,
    off_chip_reads: u64,
    off_chip_writes: u64,
    back_invalidations: u64,
    resident: Vec<(BlockAddr, BlockData)>,
    dram: Vec<(BlockAddr, BlockData)>,
}

fn view(mut sys: System, seen: Vec<u64>) -> SystemView {
    sys.check_llc_invariants();
    let mut v = SystemView {
        seen,
        cycles: sys.core_cycles().to_vec(),
        instructions: sys.total_instructions(),
        accesses: sys.accesses(),
        l1: sys.l1_stats(),
        l2: sys.l2_stats(),
        llc: sys.llc_counters(),
        off_chip_reads: sys.off_chip_reads(),
        off_chip_writes: sys.off_chip_writes(),
        back_invalidations: sys.back_invalidations(),
        resident: sys.llc_resident_blocks(),
        dram: Vec::new(),
    };
    sys.flush();
    v.dram = blocks_of(sys.dram());
    v
}

fn configs() -> [SystemConfig; 3] {
    [
        SystemConfig::tiny(LlcKind::Baseline),
        SystemConfig::tiny_split(),
        SystemConfig::tiny_compressed(),
    ]
}

/// The script on `cfg`, each access on its own core, then a sweep that
/// evicts the private levels: whichever lines LRU kept decide its hits.
fn on_system(cfg: SystemConfig, ops: &[Op], path: Path, offset: u64) -> SystemView {
    let mut image = MemoryImage::new();
    merge_image(&mut image, &seeded_image(), offset);
    let mut sys = System::new(cfg, image, offset_annotations(&annotations(), offset));
    let mut seen = Vec::new();
    for op in ops {
        let mut mem = OffsetMemory::new(sys.core_memory(op.core), offset);
        mem.think(op.value as u32 & 3);
        issue_one(&mut mem, op, path, &mut seen);
    }
    let mut word = [0u8; 4];
    for b in 0..256u64 {
        sys.core_memory((b % 4) as usize).load_bytes(Addr(BASE + offset + b * 31 * 64), &mut word);
        seen.push(u64::from(u32::from_le_bytes(word)));
    }
    view(sys, seen)
}

// ----------------------------------------------------------------------
// The kernel that replays a script: StreamRecorder, HybridMemory,
// FunctionalMemory.
// ----------------------------------------------------------------------

#[derive(Debug)]
struct Script {
    ops: Vec<Op>,
    path: Path,
    seen: Mutex<Vec<u64>>,
}

impl Script {
    fn new(ops: &[Op], path: Path) -> Self {
        Script { ops: ops.to_vec(), path, seen: Mutex::new(Vec::new()) }
    }

    fn seen(&self) -> Vec<u64> {
        self.seen.lock().expect("no test panics while holding it").clone()
    }
}

impl Kernel for Script {
    fn name(&self) -> &'static str {
        "script"
    }

    fn setup(&self, mem: &mut MemoryImage) -> AnnotationTable {
        *mem = seeded_image();
        annotations()
    }

    fn phases(&self) -> usize {
        1
    }

    fn run_phase(&self, mem: &mut dyn Memory, _phase: usize, tid: usize, _threads: usize) {
        if tid == 0 {
            let seen = issue(mem, &self.ops, self.path);
            self.seen.lock().expect("no test panics while holding it").extend(seen);
        }
    }

    /// Every word the script may have touched in the hot set.
    fn output(&self, mem: &mut dyn Memory) -> Vec<f64> {
        let mut out = Vec::new();
        for b in 0..96u64 {
            for w in 0..16u64 {
                let a = Addr(BASE + b * 31 * 64 + w * 4);
                out.push(f64::from(match self.path {
                    Path::Typed => mem.load_u32(a),
                    Path::Bytes => {
                        let mut word = [0u8; 4];
                        mem.load_bytes(a, &mut word);
                        u32::from_le_bytes(word)
                    }
                }));
            }
        }
        out
    }

    fn error_metric(&self, precise: &[f64], approx: &[f64]) -> f64 {
        let differing = precise.iter().zip(approx).filter(|(p, a)| p != a).count();
        differing as f64 / precise.len().max(1) as f64
    }
}

fn streamed(ops: &[Op], path: Path) -> (Vec<u64>, Vec<(u64, usize, Access)>) {
    let kernel = Script::new(ops, path);
    let mut records = Vec::new();
    KernelSource::new(&kernel, 1, 1).visit(0, u64::MAX, &mut |base, chunk| {
        for (i, &(core, access)) in chunk.iter().enumerate() {
            records.push((base + i as u64, core, access));
        }
    });
    (kernel.seen(), records)
}

/// A schedule with skip, warm and measure regions inside `n` accesses:
/// two measured tenths, each behind half a tenth of warm-up.
fn schedule(n: u64) -> SampleSchedule {
    let interval_len = (n / 10).max(1);
    let pick = |index| SelectedInterval { index, weight: 0.5, cluster_size: 1 };
    SampleSchedule {
        interval_len,
        warmup_len: interval_len / 2,
        total_accesses: n,
        intervals: vec![pick(3), pick(8)],
    }
}

/// What a sampled run of the script shows, as comparable bits.
fn sampled(
    cfg: SystemConfig,
    ops: &[Op],
    path: Path,
) -> (Vec<u64>, Vec<u64>, dg_system::LlcCounters) {
    let golden = golden_output(&Script::new(ops, path), 1);
    let kernel = Script::new(ops, path);
    let out = run_sampled(&kernel, cfg, 1, &schedule(ops.len() as u64), &golden);
    let (r, e) = (&out.result, &out.estimates);
    if ops.len() >= 20 {
        // The premise: both intervals measured, most of the run skipped.
        assert_eq!(e.measured_intervals, 2);
        assert!(e.simulated_fraction < 0.5, "{}", e.simulated_fraction);
    }
    let bits = vec![
        r.runtime_cycles,
        r.instructions,
        r.accesses,
        r.off_chip_blocks,
        r.output_error.to_bits(),
        r.approx_fraction.to_bits(),
        out.hybrid_output_error.to_bits(),
        out.detailed_accesses,
        e.miss_rate.value.to_bits(),
        e.miss_rate.ci.to_bits(),
        e.dopp_hit_rate.value.to_bits(),
        e.measured_intervals as u64,
        e.simulated_fraction.to_bits(),
    ];
    (kernel.seen(), bits, r.llc)
}

props! {
    cases = 48;

    fn image_agrees_across_paths(raw in raw_ops()) {
        let ops = decode(&raw);
        let typed = on_image(&ops, Path::Typed, false);
        assert_eq!(typed, on_image(&ops, Path::Bytes, false));
        // A borrow is the same memory as what it borrows.
        assert_eq!(typed, on_image(&ops, Path::Typed, true));
        assert_eq!(typed, on_image(&ops, Path::Bytes, true));
    }

    fn recording_memory_agrees_across_paths(raw in raw_ops()) {
        let ops = decode(&raw);
        let typed = recorded(&ops, Path::Typed);
        assert_eq!(typed, recorded(&ops, Path::Bytes));
        // The wrapper is transparent: same values and image as without.
        let (seen, blocks, _) = on_image(&ops, Path::Bytes, false);
        assert_eq!((typed.0, typed.2), (seen, blocks));
    }

    fn stream_recorder_agrees_across_paths(raw in raw_ops()) {
        let ops = decode(&raw);
        let typed = streamed(&ops, Path::Typed);
        assert_eq!(typed, streamed(&ops, Path::Bytes));
        // And with the unbounded recorder, record for record.
        let reference = recorded(&ops, Path::Bytes).1;
        assert_eq!(typed.1.iter().map(|r| r.2).collect::<Vec<_>>(), reference);
    }
}

props! {
    cases = 16;

    fn core_memory_agrees_across_paths(raw in raw_ops()) {
        let ops = decode(&raw);
        for cfg in configs() {
            assert_eq!(on_system(cfg, &ops, Path::Typed, 0), on_system(cfg, &ops, Path::Bytes, 0));
        }
    }

    fn offset_memory_agrees_across_paths(raw in raw_ops()) {
        let ops = decode(&raw);
        let offset = 0x100_0000;
        let cfg = SystemConfig::tiny_split();
        let typed = on_system(cfg, &ops, Path::Typed, offset);
        assert_eq!(typed, on_system(cfg, &ops, Path::Bytes, offset));
        // Relocation moves addresses, nothing else: same values, same
        // counters as the unshifted run.
        let home = on_system(cfg, &ops, Path::Bytes, 0);
        assert_eq!((&typed.seen, &typed.cycles, typed.llc), (&home.seen, &home.cycles, home.llc));
    }

    fn hybrid_memory_agrees_across_paths(raw in raw_ops()) {
        let ops = decode(&raw);
        for cfg in configs() {
            // Skip, warm and measure regions all carry accesses, and the
            // output read goes through the functional view.
            assert_eq!(sampled(cfg, &ops, Path::Typed), sampled(cfg, &ops, Path::Bytes));
        }
    }
}

// ----------------------------------------------------------------------
// A borrow, and every wrapper, reaches the inner memory's own
// fixed-width entry point.
// ----------------------------------------------------------------------

/// Counts which kind of entry point it was reached through.
#[derive(Debug, Default)]
struct Tally {
    fixed: u32,
    slices: u32,
}

impl Memory for Tally {
    fn load_bytes(&mut self, _addr: Addr, buf: &mut [u8]) {
        self.slices += 1;
        buf.fill(0);
    }
    fn store_bytes(&mut self, _addr: Addr, _bytes: &[u8]) {
        self.slices += 1;
    }
    fn load_u32(&mut self, _addr: Addr) -> u32 {
        self.fixed += 1;
        0
    }
    fn store_u64(&mut self, _addr: Addr, _v: u64) {
        self.fixed += 1;
    }
}

fn typed_pair(mem: &mut dyn Memory) {
    let _ = mem.load_f32(Addr(64));
    mem.store_f64(Addr(128), 1.0);
}

#[test]
fn typed_calls_reach_the_inner_override_through_every_wrapper() {
    let annots = AnnotationTable::new();

    let mut t = Tally::default();
    typed_pair(&mut &mut t);
    assert_eq!((t.fixed, t.slices), (2, 0), "&mut M");

    let mut t = Tally::default();
    typed_pair(&mut OffsetMemory::new(&mut t, 64));
    assert_eq!((t.fixed, t.slices), (2, 0), "OffsetMemory");

    let mut t = Tally::default();
    typed_pair(&mut RecordingMemory::new(&mut t, &annots));
    assert_eq!((t.fixed, t.slices), (2, 0), "RecordingMemory");

    // And a slice of another length still arrives as a slice.
    let mut t = Tally::default();
    OffsetMemory::new(&mut t, 64).load_bytes(Addr(0), &mut [0u8; 3]);
    assert_eq!((t.fixed, t.slices), (0, 1));
}

// ----------------------------------------------------------------------
// Crossing a block boundary: one message, everywhere.
// ----------------------------------------------------------------------

const CROSSING: &str = "access must not cross a block boundary";

fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the access must be refused");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default(),
    }
}

/// One access, issued on whichever memory it is handed.
type Issue = Box<dyn Fn(&mut dyn Memory)>;

/// The crossing accesses every implementor must refuse: a typed load, a
/// typed store, and slices of fitting and of odd length.
fn crossings() -> Vec<(&'static str, Issue)> {
    vec![
        ("load_u32", Box::new(|m| assert_eq!(m.load_u32(Addr(BASE + 62)), 0))),
        ("load_u16", Box::new(|m| assert_eq!(m.load_u16(Addr(BASE + 63)), 0))),
        ("store_f64", Box::new(|m| m.store_f64(Addr(BASE + 60), 1.0))),
        ("load_bytes", Box::new(|m| m.load_bytes(Addr(BASE + 61), &mut [0u8; 4]))),
        ("store_bytes", Box::new(|m| m.store_bytes(Addr(BASE + 60), &[0u8; 5]))),
        ("wide store_bytes", Box::new(|m| m.store_bytes(Addr(BASE + 56), &[0u8; 16]))),
    ]
}

#[test]
fn every_implementor_refuses_a_crossing_access_by_name() {
    let annots = annotations();
    for (what, access) in crossings() {
        let refused = |who: &str, f: &mut dyn FnMut()| {
            let msg = panic_message(f);
            assert!(msg.contains(CROSSING), "{who} / {what}: {msg:?}");
        };
        refused("MemoryImage", &mut || access(&mut MemoryImage::new()));
        refused("&mut MemoryImage", &mut || access(&mut &mut MemoryImage::new()));
        refused("RecordingMemory", &mut || {
            access(&mut RecordingMemory::new(MemoryImage::new(), &annots))
        });
        refused("CoreMemory", &mut || {
            let mut sys =
                System::new(SystemConfig::tiny_split(), MemoryImage::new(), annotations());
            access(&mut sys.core_memory(1))
        });
        refused("OffsetMemory", &mut || {
            let mut sys =
                System::new(SystemConfig::tiny_split(), MemoryImage::new(), annotations());
            access(&mut OffsetMemory::new(sys.core_memory(0), 128))
        });
    }
}

/// A kernel whose every phase access, and output read, crosses.
#[derive(Debug)]
struct Crosser {
    in_output: bool,
}

impl Kernel for Crosser {
    fn name(&self) -> &'static str {
        "crosser"
    }
    fn setup(&self, _mem: &mut MemoryImage) -> AnnotationTable {
        annotations()
    }
    fn phases(&self) -> usize {
        1
    }
    fn run_phase(&self, mem: &mut dyn Memory, _phase: usize, _tid: usize, _threads: usize) {
        // In bounds first, so a sampled run has a skip and a detailed
        // access to its name before the one that is refused.
        for i in 0..64u64 {
            mem.store_u32(Addr(BASE + i * 4), i as u32);
        }
        if !self.in_output {
            mem.store_u32(Addr(BASE + 62), 7);
        }
    }
    fn output(&self, mem: &mut dyn Memory) -> Vec<f64> {
        vec![f64::from(mem.load_u16(Addr(BASE + if self.in_output { 63 } else { 0 })))]
    }
    fn error_metric(&self, _precise: &[f64], _approx: &[f64]) -> f64 {
        0.0
    }
}

#[test]
fn the_kernel_facing_implementors_refuse_a_crossing_access_by_name() {
    let in_phase = Crosser { in_output: false };
    let msg = panic_message(|| {
        KernelSource::new(&in_phase, 1, 1).visit(0, u64::MAX, &mut |_, _| {});
    });
    assert!(msg.contains(CROSSING), "StreamRecorder: {msg:?}");

    // Access 64 is the refused one; refuse it in skip mode and in a
    // measured interval.
    for measured in [1usize, 4] {
        let sched = SampleSchedule {
            interval_len: 16,
            warmup_len: 0,
            total_accesses: 65,
            intervals: vec![SelectedInterval { index: measured, weight: 1.0, cluster_size: 1 }],
        };
        let msg = panic_message(|| {
            run_sampled(&in_phase, SystemConfig::tiny_split(), 1, &sched, &[0.0]);
        });
        assert!(msg.contains(CROSSING), "HybridMemory, interval {measured}: {msg:?}");
    }

    let in_output = Crosser { in_output: true };
    let msg = panic_message(|| {
        run_sampled(&in_output, SystemConfig::tiny_split(), 1, &schedule(64), &[0.0]);
    });
    assert!(msg.contains(CROSSING), "FunctionalMemory: {msg:?}");
}
