//! The repository benchmark.
//!
//! Seven seeded workloads over the simulator and the server, each timed
//! from outside through the crates' public functions. One run of one
//! workload (`run_workload`) sets up several times, measures for the
//! requested time with tracing off, verifies the outputs outside the
//! timed sections, and reports the end-to-end metrics; a traced run
//! records spans around the calls into each layer and makes the
//! isolated per-layer calls instead. `README.md` in this directory
//! defines every metric.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod compare;
pub mod digest;
pub mod harness;
pub mod metrics;
pub mod orchestrate;
pub mod probes;
pub mod results;
pub mod stats;
pub mod trace;
pub mod workloads;

use harness::{Ctx, Metric};
use metrics::{per_layer, END_TO_END, WORKLOADS};
use results::RunRecord;
use std::time::Duration;

/// Run one workload in this process. Returns `None` for an unknown
/// workload name.
pub fn run_workload(args: &cli::RunArgs, workload: &str) -> Option<RunRecord> {
    let def = WORKLOADS.iter().find(|w| w.name == workload)?;
    // Timed and traced runs alike leave the crates' own observability
    // off: tracing here means the benchmark's spans, from outside.
    dg_obs::set_level(dg_obs::Level::Off);
    let mut cx = Ctx {
        workload: def.name,
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds()),
        smoke: args.smoke,
        bless: args.bless,
        bench_dir: args.bench_dir.clone(),
        tracer: args.trace.then(trace::Tracer::new),
        extra: Vec::new(),
        layer_extra: Vec::new(),
        notes: Vec::new(),
    };
    let core = workloads::run(def.name, &mut cx).expect("every listed workload has a runner");

    let units = core.units.summary(core.tail_cap);
    cx.note(units.note);
    let values = [
        core.setup_s,
        core.wall_s,
        core.ops_per_pass / core.wall_s / 1e6,
        units.p50_us,
        core.peak_rss_mb,
        core.hit_rate,
        core.agreement,
    ];
    let end_to_end: Vec<Metric> =
        END_TO_END.iter().zip(values).map(|(d, v)| Metric::new(d.name, v, d.unit)).collect();
    cx.extra("unit_tail_us", units.tail_us, "us");
    cx.extra("ops_attempted", core.attempted as f64, "count");
    cx.extra("ops_failed", core.failed as f64, "count");

    let mut layers = Vec::new();
    if let Some(tracer) = cx.tracer.take() {
        // Set beside the timed run's wall_s, this gives the tracing
        // overhead (`run.sh --traced` reports it).
        cx.layer("harness.traced_wall_s", core.wall_s, "s");
        let mut measured = probes::run(args.seed);
        measured.push((metrics::TRACED_TAIL.to_string(), units.tail_us));
        for (layer, share) in trace::LAYERS.iter().zip(trace::layer_shares(tracer.spans())) {
            measured.push((format!("{layer}.self_share"), share));
        }
        for layer in per_layer() {
            let value = measured
                .iter()
                .find(|(name, _)| *name == layer.name)
                .unwrap_or_else(|| panic!("no probe measured {}", layer.name))
                .1;
            layers.push(Metric::new(layer.name, value, layer.unit));
        }
        let out = args.bench_dir.join("out");
        let path = out.join(format!("trace_{}.json", def.name));
        match std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(tracer.spans())))
        {
            Ok(()) => {
                cx.note(format!("{} spans written to {}", tracer.spans().len(), path.display()))
            }
            Err(e) => cx.note(format!("could not write {}: {e}", path.display())),
        }
    }

    Some(RunRecord {
        workload: def.name.to_string(),
        seed: args.seed,
        trace: args.trace,
        attempted: core.attempted,
        failed: core.failed,
        end_to_end,
        extra: cx.extra,
        layers,
        layer_extra: cx.layer_extra,
        notes: cx.notes,
    })
}
