//! `sim_trace_replay`: decode a serialized trace and replay it.
//!
//! Set-up captures one trace per medium-suite kernel and serializes it
//! to memory. A pass decodes every trace (`Trace::read_from`) and
//! replays it (`replay`) under one configuration of each organization:
//! the real access mix with kernel arithmetic removed and trace decode
//! included — the `System` driven by `load`/`store` from a trace
//! instead of through `CoreMemory`.

use crate::digest::{system_digest, StatDigests};
use crate::harness::{peak_rss_mb, sum_of_fastest, time_setups, timed, Core, Ctx, Units};
use crate::metrics::ORGS;
use crate::stats::median;
use crate::workloads::{four_orgs, ratio};
use dg_bench::experiments::{suite_with_seed, Scale};
use dg_mem::Trace;
use dg_system::{capture_trace, replay, replay_batched, System};

/// A captured, serialized trace.
struct Serialized {
    kernel: &'static str,
    bytes: Vec<u8>,
    accesses: u64,
}

/// What one (organization, kernel) replay left behind.
struct Replayed {
    decode_s: f64,
    replay_s: f64,
    digest: u64,
    accesses: u64,
    hits: u64,
    lookups: u64,
}

fn observe(sys: &System) -> (u64, u64, u64, u64) {
    sys.check_llc_invariants();
    let llc = sys.llc_counters();
    (system_digest(sys), sys.accesses(), llc.hits, llc.lookups)
}

/// Run the workload.
pub fn run(cx: &mut Ctx) -> Core {
    let scale = if cx.smoke { Scale::Small } else { Scale::Medium };
    let threads = scale.threads();
    let seed = cx.seed;
    let mut capture_s = 0.0;
    let (traces, setup_s) = time_setups(|| {
        let captured = timed(|| {
            suite_with_seed(scale, seed)
                .iter()
                .map(|k| (k.name(), capture_trace(k.as_ref(), threads, threads)))
                .collect::<Vec<_>>()
        });
        capture_s = captured.secs();
        captured
            .value
            .into_iter()
            .map(|(kernel, trace)| {
                let mut bytes = Vec::new();
                trace.write_to(&mut bytes).expect("writing to memory cannot fail");
                Serialized { kernel, bytes, accesses: trace.len() as u64 }
            })
            .collect::<Vec<_>>()
    });
    let configs = four_orgs(scale);

    let mut passes: Vec<Vec<Replayed>> = Vec::new();
    let mut counter = cx.passes(2);
    while counter.more() {
        let mut pass = Vec::with_capacity(configs.len() * traces.len());
        for (oi, &(_, cfg)) in configs.iter().enumerate() {
            for (ki, t) in traces.iter().enumerate() {
                let request = (oi * traces.len() + ki) as u64;
                let decoded =
                    timed(|| Trace::read_from(&mut &t.bytes[..]).expect("own trace decodes"));
                let replayed = timed(|| replay(&decoded.value, cfg));
                if let Some(tr) = cx.tracer.as_mut() {
                    tr.record("read_from", "dg-mem", decoded.start, decoded.end, None, request);
                    tr.record("replay", "dg-system", replayed.start, replayed.end, None, request);
                }
                let (digest, accesses, hits, lookups) = observe(&replayed.value);
                pass.push(Replayed {
                    decode_s: decoded.secs(),
                    replay_s: replayed.secs(),
                    digest,
                    accesses,
                    hits,
                    lookups,
                });
            }
        }
        passes.push(pass);
    }
    let peak_rss_mb = peak_rss_mb();

    // Verification: statistics identical across passes and equal to the
    // committed digest; every access of the trace was replayed; and a
    // decoded trace re-encodes to the bytes it came from.
    let key =
        |i: usize| format!("{}/{}", configs[i / traces.len()].0, traces[i % traces.len()].kernel);
    let digests_of = |pass: &[Replayed]| {
        let mut d = StatDigests::default();
        for (i, r) in pass.iter().enumerate() {
            d.push(key(i), r.digest);
        }
        d
    };
    let first = digests_of(&passes[0]);
    let mut failed = 0u64;
    for p in &passes[1..] {
        failed += digests_of(p).mismatches(&first).len() as u64;
    }
    failed += cx.check_golden(&first).len() as u64;
    for (i, r) in passes[0].iter().enumerate() {
        if r.accesses != traces[i % traces.len()].accesses || r.hits > r.lookups {
            failed += 1;
            cx.note(format!("invariant failed: {}", key(i)));
        }
    }
    for t in &traces {
        let decoded = Trace::read_from(&mut &t.bytes[..]).expect("own trace decodes");
        let mut again = Vec::with_capacity(t.bytes.len());
        decoded.write_to(&mut again).expect("writing to memory cannot fail");
        if again != t.bytes {
            failed += configs.len() as u64;
            cx.note(format!("trace of {} does not survive decode + encode", t.kernel));
        }
    }
    let attempted = (passes.len() * passes[0].len()) as u64;

    let unit_s: Vec<Vec<f64>> =
        passes.iter().map(|p| p.iter().map(|r| r.decode_s + r.replay_s).collect()).collect();
    let accesses: u64 = passes[0].iter().map(|r| r.accesses).sum();
    let hits: u64 = passes[0].iter().map(|r| r.hits).sum();
    let lookups: u64 = passes[0].iter().map(|r| r.lookups).sum();
    let bytes: usize = traces.iter().map(|t| t.bytes.len()).sum();
    cx.note(format!(
        "{} passes; 1 pass = {} decode+replay units, {accesses} accesses, {:.1} MB of trace decoded {} times",
        passes.len(),
        passes[0].len(),
        bytes as f64 / 1e6,
        configs.len()
    ));

    if cx.traced() {
        cx.layer("dg-mem.trace_capture_s", capture_s, "s");
        let decode: f64 = passes.iter().flatten().map(|r| r.decode_s).sum();
        let total: f64 = unit_s.iter().flatten().sum();
        cx.layer("dg-mem.decode_share", decode / total, "frac");
        let (mut primed, mut consumed) = (0u64, 0u64);
        for (oi, (org, (_, cfg))) in ORGS.iter().zip(configs).enumerate() {
            let of_org = |p: &Vec<Replayed>| -> f64 {
                p[oi * traces.len()..(oi + 1) * traces.len()].iter().map(|r| r.replay_s).sum()
            };
            let org_accesses: u64 = traces.iter().map(|t| t.accesses).sum();
            let serial_s = median(&passes.iter().map(of_org).collect::<Vec<_>>());
            cx.layer(
                format!("dg-system.replay_ns_per_access.{org}"),
                serial_s * 1e9 / org_accesses as f64,
                "ns",
            );
            // `replay_batched` has no caller outside tests; this isolated
            // call is the number the keep-or-delete verdict needs.
            let mut batched_s = 0.0;
            for (ki, t) in traces.iter().enumerate() {
                let decoded = Trace::read_from(&mut &t.bytes[..]).expect("own trace decodes");
                let run = timed(|| replay_batched(&decoded, cfg));
                batched_s += run.secs();
                let (p, c) = run.value.map_hint_counters();
                primed += p;
                consumed += c;
                if system_digest(&run.value) != passes[0][oi * traces.len() + ki].digest {
                    failed += 1;
                    cx.note(format!("replay_batched diverges from replay: {org}/{}", t.kernel));
                }
            }
            cx.layer(
                format!("dg-system.replay_batched_ns_per_access.{org}"),
                batched_s * 1e9 / org_accesses as f64,
                "ns",
            );
        }
        cx.layer("dg-system.map_hint_hit_ratio", ratio(consumed as f64, primed as f64), "frac");
    }

    Core {
        setup_s,
        wall_s: sum_of_fastest(&unit_s),
        ops_per_pass: accesses as f64,
        units: Units::Repeated(unit_s),
        tail_cap: 0.75,
        peak_rss_mb,
        hit_rate: ratio(hits as f64, lookups as f64),
        agreement: 1.0 - failed.min(attempted) as f64 / attempted as f64,
        attempted,
        failed,
    }
}
