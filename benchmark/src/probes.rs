//! Isolated calls into single layers: the per-layer metrics.
//!
//! Every traced run makes the same calls with inputs made from the
//! seed, whatever its workload, so a layer's number can be set beside
//! any workload's whole-path number: the difference is what the rest
//! of the path costs (subtractive attribution). Nanosecond-scale calls
//! are timed in groups of at least 1024 per span, never singly, and
//! the median of several groups is reported.

use crate::metrics::{BATCH_SIZES, LANES};
use crate::stats::median;
use crate::workloads::{levels, serve, WORKERS};
use dg_bench::experiments::{suite_with_seed, Scale};
use dg_cache::{CacheGeometry, CompressedCache, CompressedConfig, ConventionalCache};
use dg_compress::bdi;
use dg_mem::{Addr, ApproxRegion, BlockAddr, BlockData, ElemType, MemoryImage, Trace};
use dg_obs::{Hist64, Level};
use dg_par::Pool;
use dg_rand::SplitMix64;
use dg_serve::{Request, Server, SimilarityWorkload};
use dg_simd::{ElemKind, Lane};
use dg_system::capture_trace;
use doppelganger::{DoppelgangerCache, DoppelgangerConfig, MapSpace};
use std::hint::black_box;
use std::time::Instant;

/// Timed groups per probe (the median is reported).
const GROUPS: usize = 5;
/// Batches per `sim_levels` cell in the level probe.
const LEVEL_BATCHES: usize = 3;

/// Median over [`GROUPS`] groups of host ns per call, each group timing
/// `calls` calls (≥ 1024) as one span, after one untimed group.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    assert!(calls >= 1024, "nanosecond-scale calls are timed in groups");
    let mut i = 0;
    let mut group = |f: &mut dyn FnMut(usize)| {
        let start = Instant::now();
        for _ in 0..calls {
            f(i);
            i += 1;
        }
        start.elapsed().as_nanos() as f64 / calls as f64
    };
    group(&mut f);
    median(&(0..GROUPS).map(|_| group(&mut f)).collect::<Vec<_>>())
}

/// Seeded blocks of `ty` with values spread over `[0, hi]`: each block
/// sits around its own level with a small spread, like real annotated
/// data (and so BΔI finds something to compress in the integer ones).
fn blocks(rng: &mut SplitMix64, ty: ElemType, hi: f64, n: usize) -> Vec<BlockData> {
    (0..n)
        .map(|_| {
            let level = rng.next_f64() * hi * 0.98;
            let values: Vec<f64> =
                (0..ty.elems_per_block()).map(|_| level + rng.next_f64() * hi * 0.02).collect();
            BlockData::from_values(ty, &values)
        })
        .collect()
}

fn region(ty: ElemType, hi: f64) -> ApproxRegion {
    ApproxRegion::new(Addr(0), u64::MAX, ty, 0.0, hi)
}

fn cache_probes(rng: &mut SplitMix64, out: &mut Vec<(String, f64)>) {
    let data = blocks(rng, ElemType::I32, 1.0e6, 4096);

    // L1 geometry, every line resident: the load fast path's array part.
    let mut l1 = ConventionalCache::new(CacheGeometry::from_capacity(16 << 10, 4));
    for b in 0..256 {
        l1.fill(BlockAddr(b), data[b as usize]);
    }
    let mut buf = [0u8; 4];
    out.push((
        "dg-cache.conv_read_hit_ns".into(),
        ns_per_call(16384, |i| {
            black_box(l1.read_bytes(BlockAddr(i as u64 & 255), 0, &mut buf));
        }),
    ));

    // LLC geometry, full: every fill displaces a victim.
    let mut llc = ConventionalCache::new(CacheGeometry::from_capacity(2 << 20, 16));
    let lines = (2u64 << 20) / 64;
    for b in 0..lines {
        llc.fill(BlockAddr(b), data[b as usize & 4095]);
    }
    let mut victim = BlockData::zeroed();
    out.push((
        "dg-cache.conv_fill_evict_ns".into(),
        ns_per_call(8192, |i| {
            black_box(llc.fill_ref_lazy(BlockAddr(lines + i as u64), &data[i & 4095], &mut victim));
        }),
    ));

    let mut comp = CompressedCache::new(CompressedConfig::from_llc(2 << 20, 16, 2));
    let mut drop_evicted = |_| {};
    for b in 0..4096u64 {
        comp.fill(BlockAddr(b), &data[b as usize], false, &mut drop_evicted);
    }
    out.push((
        "dg-cache.comp_read_hit_ns".into(),
        ns_per_call(8192, |i| {
            black_box(comp.read(BlockAddr(i as u64 & 4095)));
        }),
    ));
    out.push((
        "dg-cache.comp_write_ns".into(),
        ns_per_call(4096, |i| {
            black_box(comp.write(
                BlockAddr(i as u64 & 4095),
                &data[(i + 1) & 4095],
                &mut drop_evicted,
            ));
        }),
    ));
    // New addresses only: once the sets fill, each fill also evicts.
    for b in 4096..lines * 2 {
        comp.fill(BlockAddr(b), &data[b as usize & 4095], false, &mut drop_evicted);
    }
    out.push((
        "dg-cache.comp_fill_ns".into(),
        ns_per_call(4096, |i| {
            comp.fill(BlockAddr(lines * 2 + i as u64), &data[i & 4095], false, &mut drop_evicted);
        }),
    ));
}

fn doppelganger_probes(rng: &mut SplitMix64, out: &mut Vec<(String, f64)>) {
    let r = region(ElemType::F32, 100.0);
    let data = blocks(rng, ElemType::F32, 100.0, 4096);
    let mut drop_displaced = |_| {};

    let mut cache = DoppelgangerCache::new(DoppelgangerConfig::paper_split());
    for k in 0..4096u64 {
        cache.insert_approx_with(BlockAddr(k), data[k as usize], &r, &mut drop_displaced);
    }
    out.push((
        "doppelganger.read_hit_ns".into(),
        ns_per_call(8192, |i| {
            black_box(cache.read(BlockAddr(i as u64 & 4095)));
        }),
    ));
    // Resident keys rewritten with another block's values: the map
    // changes, so the tag moves to another sharing list.
    out.push((
        "doppelganger.write_move_ns".into(),
        ns_per_call(4096, |i| {
            let key = i as u64 & 4095;
            let block = data[(i / 4096 + 1 + i) & 4095];
            black_box(cache.write_with(BlockAddr(key), block, Some(&r), &mut drop_displaced));
        }),
    ));
    // New keys only; the arrays are full after the first 16 Ki, so the
    // timed inserts displace a tag, and a data entry when the map is new.
    let mut thrash = DoppelgangerCache::new(DoppelgangerConfig::paper_split());
    for k in 0..(16u64 << 10) {
        thrash.insert_approx_with(BlockAddr(k), data[k as usize & 4095], &r, &mut drop_displaced);
    }
    out.push((
        "doppelganger.insert_approx_ns".into(),
        ns_per_call(4096, |i| {
            let key = (16u64 << 10) + i as u64;
            black_box(thrash.insert_approx_with(
                BlockAddr(key),
                data[i & 4095],
                &r,
                &mut drop_displaced,
            ));
        }),
    ));

    for (name, ty, hi) in [
        ("f32", ElemType::F32, 100.0),
        ("f64", ElemType::F64, 100.0),
        ("i32", ElemType::I32, 1.0e6),
        ("u8", ElemType::U8, 255.0),
    ] {
        let data = blocks(rng, ty, hi, 256);
        let r = region(ty, hi);
        let space = MapSpace::new(14);
        out.push((
            format!("doppelganger.map_block_ns.{name}"),
            ns_per_call(4096, |i| {
                black_box(space.map_block(&data[i & 255], &r));
            }),
        ));
    }
}

/// The lane a `dg-simd.*.<lane>` metric is measured on: the named one
/// when this host has it, else scalar (what the crate falls back to).
fn lane_named(name: &str) -> Lane {
    let lane = Lane::ALL.into_iter().find(|l| l.name() == name).expect("known lane");
    if lane.available() {
        lane
    } else {
        Lane::Scalar
    }
}

fn simd_probes(rng: &mut SplitMix64, out: &mut Vec<(String, f64)>) {
    let data = blocks(rng, ElemType::F32, 100.0, 256);
    let keys: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
    let mut decoded = [0f64; 64];
    for name in LANES {
        let lane = lane_named(name);
        out.push((
            format!("dg-simd.decode_clamp_ns.{name}"),
            ns_per_call(4096, |i| {
                let bytes = data[i & 255].as_bytes();
                black_box(dg_simd::decode_clamp_on(
                    lane,
                    ElemKind::F32,
                    bytes,
                    0.0,
                    100.0,
                    &mut decoded,
                ));
            }),
        ));
        out.push((
            format!("dg-simd.match_mask_ns.{name}"),
            ns_per_call(16384, |i| {
                black_box(dg_simd::match_mask_on(lane, black_box(&keys), keys[i & 15]));
            }),
        ));
        // Equal blocks: the compare cannot stop early.
        out.push((
            format!("dg-simd.eq64_ns.{name}"),
            ns_per_call(16384, |i| {
                let bytes = data[i & 255].as_bytes();
                black_box(dg_simd::eq64_on(lane, black_box(bytes), bytes));
            }),
        ));
    }
}

fn mem_probes(rng: &mut SplitMix64, seed: u64, out: &mut Vec<(String, f64)>) {
    const BLOCKS: u64 = 64 << 10;
    let data = blocks(rng, ElemType::F32, 100.0, 256);
    let mut image = MemoryImage::new();
    for b in 0..BLOCKS {
        image.set_block(BlockAddr(b), data[b as usize & 255]);
    }
    let scattered: Vec<u64> = (0..4096).map(|_| rng.next_u64() % BLOCKS).collect();
    out.push((
        "dg-mem.image_fetch_hot_ns".into(),
        ns_per_call(16384, |i| {
            black_box(image.fetch_block(BlockAddr(i as u64 & 31)));
        }),
    ));
    out.push((
        "dg-mem.image_fetch_cold_ns".into(),
        ns_per_call(16384, |i| {
            black_box(image.fetch_block(BlockAddr(scattered[i & 4095])));
        }),
    ));
    out.push((
        "dg-mem.image_set_ns".into(),
        ns_per_call(16384, |i| image.set_block(BlockAddr(scattered[i & 4095]), data[i & 255])),
    ));

    // Trace encode/decode over the small suite's traces.
    let traces: Vec<Trace> = suite_with_seed(Scale::Small, seed)
        .iter()
        .map(|k| capture_trace(k.as_ref(), 4, 4))
        .collect();
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    let mut rates = (Vec::new(), Vec::new());
    for _ in 0..GROUPS {
        let start = Instant::now();
        encoded = traces
            .iter()
            .map(|t| {
                let mut bytes = Vec::new();
                t.write_to(&mut bytes).expect("writing to memory cannot fail");
                bytes
            })
            .collect();
        let mb = encoded.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
        rates.0.push(mb / start.elapsed().as_secs_f64());
        let start = Instant::now();
        for bytes in &encoded {
            black_box(Trace::read_from(&mut &bytes[..]).expect("own trace decodes"));
        }
        rates.1.push(mb / start.elapsed().as_secs_f64());
    }
    black_box(encoded);
    out.push(("dg-mem.trace_encode_mb_per_s".into(), median(&rates.0)));
    out.push(("dg-mem.trace_decode_mb_per_s".into(), median(&rates.1)));
}

fn compress_probes(rng: &mut SplitMix64, out: &mut Vec<(String, f64)>) {
    let mut data = blocks(rng, ElemType::I32, 1.0e6, 128);
    data.extend(blocks(rng, ElemType::F32, 100.0, 128));
    let compressed: Vec<_> = data.iter().map(bdi::compress).collect();
    out.push((
        "dg-compress.bdi_compress_ns".into(),
        ns_per_call(4096, |i| {
            black_box(bdi::compress(&data[i & 255]));
        }),
    ));
    out.push((
        "dg-compress.bdi_decompress_ns".into(),
        ns_per_call(4096, |i| {
            black_box(bdi::decompress(&compressed[i & 255]));
        }),
    ));
}

/// `Query` served on bare per-shard caches — what `ShardState::apply`
/// (crate-private) does for a query, minus its counters.
fn apply_query(
    cache: &mut DoppelgangerCache,
    key: u64,
    block: BlockData,
    r: &ApproxRegion,
) -> Option<BlockData> {
    let addr = BlockAddr(key);
    if let Some(b) = cache.read(addr) {
        Some(b)
    } else if cache.insert_approx_with(addr, block, r, &mut |_| {}) {
        cache.peek(addr)
    } else {
        None
    }
}

fn serve_probes(seed: u64, out: &mut Vec<(String, f64)>) {
    const WARM: usize = 64;
    const MEASURED: usize = 32;
    const BATCH: usize = 4096;
    // The server and the stream of `serve_zipf_hit`.
    let cfg = serve::config();
    let mut gen = SimilarityWorkload::new(serve::Variant::ZipfHit.spec(seed), &cfg);
    let warm = gen.batch(WARM * BATCH);
    let stream = gen.batch(MEASURED * BATCH);
    // A server that has seen the warm-up and the measured stream once,
    // so every timed application of the stream finds the same state.
    let server = |workers: usize| {
        let s = Server::with_pool(cfg, Pool::with_workers(workers)).expect("bench configuration");
        s.run_batch(&warm);
        s.run_batch(&stream);
        s
    };
    // Median over GROUPS applications of the stream in `size` batches.
    let batch_ns_per_op = |s: &Server, size: usize| {
        let samples: Vec<f64> = (0..GROUPS)
            .map(|_| {
                let start = Instant::now();
                for batch in stream.chunks(size) {
                    black_box(s.run_batch(batch));
                }
                start.elapsed().as_nanos() as f64 / stream.len() as f64
            })
            .collect();
        median(&samples)
    };

    let one = server(1);
    let shard_of = ns_per_call(16384, |i| {
        black_box(one.shard_of(stream[i & (BATCH - 1)].key()));
    });
    let execute = ns_per_call(BATCH, |i| {
        black_box(one.execute(stream[i % stream.len()]));
    });

    let r = cfg.region();
    let mut caches: Vec<DoppelgangerCache> =
        (0..cfg.shards).map(|_| DoppelgangerCache::new(cfg.cache)).collect();
    let mut apply = |req: &Request| match *req {
        Request::Query(key, block) => apply_query(&mut caches[one.shard_of(key)], key, block, &r),
        _ => unreachable!("the probe stream holds queries only"),
    };
    for req in warm.iter().chain(&stream) {
        apply(req);
    }
    let cache_and_route = ns_per_call(BATCH, |i| {
        black_box(apply(&stream[i % stream.len()]));
    });
    let cache_only = cache_and_route - shard_of;

    let serial = batch_ns_per_op(&one, BATCH);
    let two = server(WORKERS);
    let parallel = batch_ns_per_op(&two, BATCH);
    out.push(("dg-serve.shard_of_ns".into(), shard_of));
    out.push(("dg-serve.execute_ns_per_op".into(), execute));
    out.push(("dg-serve.cache_only_ns_per_op".into(), cache_only));
    out.push(("dg-serve.lock_ns_per_op".into(), execute - cache_only - shard_of));
    out.push(("dg-serve.batch_overhead_ns_per_op".into(), serial - cache_only));
    out.push(("dg-serve.parallel_speedup".into(), serial / parallel));
    for size in BATCH_SIZES {
        let ns = if size == BATCH { parallel } else { batch_ns_per_op(&two, size) };
        out.push((format!("dg-serve.mops_by_batch.{size}"), 1e3 / ns));
    }

    // The same batches at Level::Metrics and at Off, interleaved.
    let (mut off, mut metrics) = (Vec::new(), Vec::new());
    for _ in 0..GROUPS {
        for (level, samples) in [(Level::Off, &mut off), (Level::Metrics, &mut metrics)] {
            dg_obs::set_level(level);
            let start = Instant::now();
            for batch in stream.chunks(BATCH) {
                black_box(two.run_batch(batch));
            }
            samples.push(start.elapsed().as_secs_f64());
        }
    }
    dg_obs::set_level(Level::Off);
    out.push(("dg-obs.metrics_overhead_frac".into(), median(&metrics) / median(&off) - 1.0));
}

/// Every per-layer metric that is an isolated call, in no particular
/// order (`lib.rs` emits them in `metrics::per_layer` order).
pub fn run(seed: u64) -> Vec<(String, f64)> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut out = levels::probe(seed, LEVEL_BATCHES);
    cache_probes(&mut rng, &mut out);
    doppelganger_probes(&mut rng, &mut out);
    simd_probes(&mut rng, &mut out);
    mem_probes(&mut rng, seed, &mut out);
    compress_probes(&mut rng, &mut out);

    let pool = Pool::with_workers(WORKERS);
    let dispatch_ns = ns_per_call(1024, |_| {
        black_box(pool.run((0..16).map(|j| move || j).collect()));
    });
    out.push(("dg-par.dispatch_us_per_batch".into(), dispatch_ns / 1e3));

    serve_probes(seed, &mut out);

    let values: Vec<u64> = (0..4096).map(|_| rng.next_u64() >> (rng.next_u64() % 64)).collect();
    let mut hist = Hist64::new();
    out.push((
        "dg-obs.hist_record_ns".into(),
        ns_per_call(65536, |i| hist.record(values[i & 4095])),
    ));
    black_box(hist.count());
    out
}
