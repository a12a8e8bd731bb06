//! Cache-hierarchy characterization with synthetic access patterns:
//! the substrate must respond to classic patterns the way real caches
//! do.

use dg_mem::synth;
use dg_mem::{Access, Addr, AnnotationTable, MemoryImage};
use dg_system::{LlcKind, System, SystemConfig};

fn run_pattern(sys: &mut System, pattern: &[Access]) {
    let mut buf = [0u8; 8];
    for a in pattern {
        match a.payload() {
            Some(bytes) => sys.store(0, a.addr, bytes),
            None => sys.load(0, a.addr, &mut buf[..a.size as usize]),
        }
    }
}

fn fresh() -> System {
    System::new(
        SystemConfig::tiny(LlcKind::Baseline),
        MemoryImage::new(),
        AnnotationTable::new(),
    )
}

/// LLC hit rate of the second pass over a pattern (first pass warms).
fn warmed_llc_hit_rate(pattern: &[Access]) -> f64 {
    let mut sys = fresh();
    run_pattern(&mut sys, pattern);
    sys.reset_stats();
    run_pattern(&mut sys, pattern);
    let c = sys.llc_counters();
    if c.lookups == 0 {
        // Everything hit in the private levels.
        1.0
    } else {
        c.hits as f64 / c.lookups as f64
    }
}

#[test]
fn resident_stream_hits_after_warmup() {
    // 256 blocks = 16 KB: fits the 64 KB tiny LLC easily.
    let pattern = synth::sequential(Addr(0), 256, 512);
    assert!(
        warmed_llc_hit_rate(&pattern) > 0.95,
        "resident stream should hit"
    );
}

#[test]
fn oversized_stream_thrashes_lru() {
    // 2048 blocks = 128 KB, twice the LLC: cyclic + LRU = ~0% hits.
    let pattern = synth::sequential(Addr(0), 2048, 4096);
    assert!(
        warmed_llc_hit_rate(&pattern) < 0.05,
        "cyclic oversize stream must thrash"
    );
}

#[test]
fn zipfian_lands_between_the_extremes() {
    // Universe 4x the LLC, but heavily skewed: the hot head fits.
    let pattern = synth::zipfian(Addr(0), 4096, 20_000, 1.0, 42);
    let rate = warmed_llc_hit_rate(&pattern);
    assert!(
        (0.2..0.98).contains(&rate),
        "zipfian hit rate {rate:.2} should be intermediate"
    );
}

#[test]
fn pointer_chase_defeats_spatial_locality() {
    // Chase over 2x the LLC: every step misses once the cycle exceeds
    // capacity.
    let chase = synth::pointer_chase(Addr(0), 2048, 4096, 3);
    let seq = synth::sequential(Addr(0), 64, 4096);
    assert!(warmed_llc_hit_rate(&chase) < warmed_llc_hit_rate(&seq));
}

#[test]
fn strided_pattern_uses_fewer_blocks() {
    let mut sys = fresh();
    run_pattern(&mut sys, &synth::strided(Addr(0), 1024, 16, 64));
    // 64 accesses at stride 16 over 1024 blocks touch exactly 64 blocks.
    assert_eq!(sys.llc_counters().lookups, 64);
    assert_eq!(sys.llc_counters().misses(), 64);
}

#[test]
fn reset_stats_preserves_contents() {
    let pattern = synth::sequential(Addr(0), 128, 128);
    let mut sys = fresh();
    run_pattern(&mut sys, &pattern);
    let cold_misses = sys.llc_counters().misses();
    assert_eq!(cold_misses, 128);
    sys.reset_stats();
    assert_eq!(sys.llc_counters().lookups, 0);
    assert_eq!(sys.runtime_cycles(), 0);
    assert_eq!(sys.off_chip_blocks(), 0);
    // Contents survived the reset: the second pass hits.
    run_pattern(&mut sys, &pattern);
    assert_eq!(sys.llc_counters().misses(), 0, "reset must not drop cache contents");
}

/// Fig. 2 (T = 0 / 0.01 / 0.1 / 1 / 10 %), Fig. 7 (12/13/14-bit maps)
/// and Fig. 8 (BΔI, exact dedup, 14-bit Dopp+BΔI) savings of one
/// kernel's baseline snapshots, as the `to_bits` of each column.
fn similarity_row(kernel: &dyn dg_workloads::Kernel) -> [u64; 11] {
    use dg_system::similarity::*;
    use doppelganger::MapSpace;
    let snaps = dg_system::collect_snapshots(kernel, SystemConfig::tiny(LlcKind::Baseline), 4);
    let t = |t| avg_threshold_savings(&snaps, t, 4096);
    let m = |m| avg_map_savings(&snaps, MapSpace::new(m));
    [
        t(0.0),
        t(0.0001),
        t(0.001),
        t(0.01),
        t(0.1),
        m(12),
        m(13),
        m(14),
        avg_bdi_savings(&snaps),
        avg_dedup_savings(&snaps),
        avg_dopp_bdi_savings(&snaps, MapSpace::new(14)),
    ]
    .map(f64::to_bits)
}

/// Captured at the commit before `threshold_savings` got its candidate
/// index: Fig. 2 / Fig. 7 / Fig. 8 columns per line, see
/// [`similarity_row`]. Any drift is a changed similarity analysis.
#[rustfmt::skip]
const SIMILARITY_PINS: [(&str, [u64; 11]); 9] = [
    ("blackscholes", [
        0x3fce000000000000, 0x3fdf400000000000, 0x3fdf400000000000, 0x3fdf400000000000, 0x3fe4200000000000,
        0x3fdf400000000000, 0x3fdf400000000000, 0x3fdec00000000000,
        0x0000000000000000, 0x3fce000000000000, 0x3fdec00000000000,
    ]),
    ("canneal", [
        0x3fc7000000000000, 0x3fc7000000000000, 0x3fc7000000000000, 0x3fc7000000000000, 0x3fc7000000000000,
        0x3fc7d55555555555, 0x3fc7555555555555, 0x3fc7555555555555,
        0x3fe7020000000000, 0x3fc7000000000000, 0x3fe7205555555555,
    ]),
    ("ferret", [
        0x3fc7a17a17a17a18, 0x3fd91b91b91b91ba, 0x3fd91b91b91b91ba, 0x3fd91b91b91b91ba, 0x3fe13b13b13b13b1,
        0x3fd91b91b91b91ba, 0x3fd81f81f81f81f8, 0x3fd5a95a95a95a96,
        0x0000000000000000, 0x3fc7a17a17a17a18, 0x3fd5a95a95a95a96,
    ]),
    ("fluidanimate", [
        0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x3fee000000000000,
        0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
        0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    ]),
    ("inversek2j", [
        0x3fdfc00000000000, 0x3fdf800000000000, 0x3fdf800000000000, 0x3fe0a00000000000, 0x3fee800000000000,
        0x3fdf800000000000, 0x3fdf800000000000, 0x3fdf800000000000,
        0x3fdf800000000000, 0x3fdfc00000000000, 0x3fdffe0000000000,
    ]),
    ("jmeint", [
        0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
        0x3f85555555555540, 0x3f6c71c71c71c700, 0x0000000000000000,
        0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
    ]),
    ("jpeg", [
        0x3fea0aaaaaaaaaaa, 0x3fea000000000000, 0x3fea000000000000, 0x3feb777777777778, 0x3fef511111111111,
        0x3fecd77777777778, 0x3fec333333333333, 0x3fec333333333333,
        0x3feca0d555555556, 0x3fea0aaaaaaaaaaa, 0x3feda15dddddddde,
    ]),
    ("kmeans", [
        0x3fd500a957fab541, 0x3fd500a957fab541, 0x3fd500a957fab541, 0x3fd500a957fab541, 0x3feef7668844cbbd,
        0x3fd6bd304a167daf, 0x3fd5fead500a9581, 0x3fd5fead500a9581,
        0x0000000000000000, 0x3fd500a957fab541, 0x3fd5fead500a9581,
    ]),
    ("swaptions", [
        0x3fe0000000000000, 0x3fe0000000000000, 0x3fe0000000000000, 0x3fe0000000000000, 0x3fe0000000000000,
        0x3fe0000000000000, 0x3fe0000000000000, 0x3fe0000000000000,
        0x0000000000000000, 0x3fe0000000000000, 0x3fe0000000000000,
    ]),
];

#[test]
fn similarity_columns_are_pinned_for_the_small_suite() {
    let suite = dg_workloads::small_suite(0xd09);
    assert_eq!(suite.len(), SIMILARITY_PINS.len());
    for (k, (name, pinned)) in suite.iter().zip(SIMILARITY_PINS) {
        assert_eq!(k.name(), name);
        assert_eq!(similarity_row(k.as_ref()), pinned, "{name}: a Fig. 2/7/8 column moved");
    }
}
