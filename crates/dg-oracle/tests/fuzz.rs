//! Randomized-trace differential fuzzing: generate short two-core
//! access streams over a block pool larger than the (micro-sized)
//! cache hierarchy, replay them in lockstep through the optimized
//! engine and the oracle, and let `dg-check` shrink any diverging
//! trace to a minimal reproducer.
//!
//! The palette of stored values deliberately includes NaN and both
//! infinities so the fuzz reaches the map-quantization edge cases, and
//! the micro configuration keeps every array small enough that a
//! 200-access trace already exercises evictions, back-invalidations,
//! tag-list displacement and the writeback path.

use dg_cache::CompressedConfig;
use dg_check::{props, vec};
use dg_mem::{Access, AccessKind, Addr, AnnotationTable, ApproxRegion, ElemType, MemoryImage, Trace};
use dg_oracle::lockstep;
use dg_system::{LlcKind, SystemConfig};
use doppelganger::{DataPolicy, DoppelgangerConfig, MapSpace};

/// Blocks in the fuzz pool; larger than every micro cache level.
const POOL_BLOCKS: u8 = 48;
/// First approximately-annotated block (the second half of the pool).
const APPROX_START: u8 = 24;

/// Stored f32 values, including the quantization edge cases.
const PALETTE: [f32; 16] = [
    0.0,
    1.0,
    -1.0,
    0.5,
    7.5,
    -7.5,
    100.0, // clamped to the annotation range
    -100.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    3.25,
    -0.125,
    2.0,
    -2.0,
    0.25,
];

/// One raw fuzz op: `(core, block, slot, is_store, value index)`.
type Op = (u8, u8, u8, u8, u8);

/// The op strategy: 0–200 ops over 2 cores × 48 blocks × 16 slots.
fn ops_strategy() -> impl dg_check::Strategy<Value = Vec<Op>> {
    vec((0u8..2, 0u8..POOL_BLOCKS, 0u8..16, 0u8..2, 0u8..16), 0..200usize)
}

/// A hierarchy so small that the 48-block pool thrashes every level:
/// 4-block L1s, 8-block L2s, 32-block (baseline) LLC.
fn micro(llc: LlcKind) -> SystemConfig {
    SystemConfig {
        cores: 2,
        l1_bytes: 256,
        l1_ways: 2,
        l2_bytes: 512,
        l2_ways: 2,
        llc_bytes: 2048,
        llc_ways: 4,
        ..SystemConfig::tiny(llc)
    }
}

fn micro_split() -> SystemConfig {
    micro(LlcKind::Split(DoppelgangerConfig {
        tag_entries: 32,
        tag_ways: 4,
        data_entries: 16,
        data_ways: 4,
        map_space: MapSpace::new(8),
        unified: false,
    }))
}

fn micro_unified() -> SystemConfig {
    micro(LlcKind::Unified(DoppelgangerConfig {
        tag_entries: 64,
        tag_ways: 4,
        data_entries: 32,
        data_ways: 4,
        map_space: MapSpace::new(8),
        unified: true,
    }))
}

/// `cfg` with the sharing-aware data-array policy, whose preferred
/// victim is a one-tag entry — often the one the current miss just
/// filled.
fn fewest_sharers(mut cfg: SystemConfig) -> SystemConfig {
    cfg.data_policy = DataPolicy::FewestSharers;
    cfg
}

fn micro_compressed() -> SystemConfig {
    // 32 segments/set against an 8-block × 8-segment tag reach, so the
    // fuzz hits segment pressure as well as tag conflicts.
    micro(LlcKind::Compressed(CompressedConfig {
        data_bytes: 2048,
        sets: 8,
        tag_ways: 4,
        sb_blocks: 2,
        segment_bytes: 8,
    }))
}

/// Deterministically expand raw ops into a two-core trace. Blocks
/// `APPROX_START..` are annotated as an f32 region with a finite range
/// so stores there flow through map quantization (with clamping).
fn build_trace(ops: &[Op]) -> Trace {
    let annots: AnnotationTable = std::iter::once(ApproxRegion::new(
        Addr(u64::from(APPROX_START) * 64),
        u64::from(POOL_BLOCKS - APPROX_START) * 64,
        ElemType::F32,
        -8.0,
        8.0,
    ))
    .collect();
    let mut cores = vec![Vec::new(), Vec::new()];
    for &(core, block, slot, is_store, val) in ops {
        let addr = Addr(u64::from(block) * 64 + u64::from(slot) * 4);
        let mut a = if is_store == 1 {
            let mut payload = [0u8; 8];
            payload[..4].copy_from_slice(&PALETTE[val as usize].to_le_bytes());
            Access::new(addr, AccessKind::Store, 4).with_data(payload)
        } else {
            Access::new(addr, AccessKind::Load, 4)
        };
        a.think = u32::from(val % 2);
        cores[core as usize].push(a);
    }
    Trace::new(MemoryImage::new(), annots, cores)
}

fn assert_agrees(ops: &[Op], cfg: SystemConfig) {
    let trace = build_trace(ops);
    if let Err(d) = lockstep(&trace, cfg) {
        panic!("{d}");
    }
}

props! {
    cases = 40;

    fn fuzz_baseline_agrees(ops in ops_strategy()) {
        assert_agrees(&ops, micro(LlcKind::Baseline));
    }

    fn fuzz_split_agrees(ops in ops_strategy()) {
        assert_agrees(&ops, micro_split());
    }

    fn fuzz_unified_agrees(ops in ops_strategy()) {
        assert_agrees(&ops, micro_unified());
    }

    fn fuzz_compressed_agrees(ops in ops_strategy()) {
        assert_agrees(&ops, micro_compressed());
    }

    fn fuzz_fewest_sharers_agrees(ops in ops_strategy()) {
        assert_agrees(&ops, fewest_sharers(micro_split()));
        assert_agrees(&ops, fewest_sharers(micro_unified()));
    }
}

/// A fixed dense store/load storm over the approximate half of the
/// pool — a deterministic regression companion to the random cases,
/// heavy on map moves (every palette value in every block).
#[test]
fn dense_approx_storm_agrees() {
    let mut ops = Vec::new();
    for round in 0..4u8 {
        for block in APPROX_START..POOL_BLOCKS {
            let core = block % 2;
            ops.push((core, block, round, 1, (block + round) % 16));
            ops.push((1 - core, block, round, 0, 0));
        }
    }
    for cfg in [
        micro(LlcKind::Baseline),
        micro_split(),
        micro_unified(),
        micro_compressed(),
        fewest_sharers(micro_split()),
        fewest_sharers(micro_unified()),
    ] {
        assert_agrees(&ops, cfg);
    }
}
