//! The seven workloads. Each is a function from the run context to the
//! raw results ([`Core`]); `lib.rs` turns those into the metrics.

use crate::harness::{Core, Ctx};
use dg_bench::experiments::Scale;
use dg_system::{LlcKind, SystemConfig};

pub mod levels;
pub mod replay;
pub mod sampled;
pub mod serve;
pub mod sweep;

/// Worker threads of the parallel workloads: the host has two cores,
/// and no workload ever runs more than two threads. Every pool is
/// built with an explicit count, never from the environment.
pub const WORKERS: usize = 2;

/// Run the workload called `name`, if there is one.
pub fn run(name: &str, cx: &mut Ctx) -> Option<Core> {
    Some(match name {
        "sim_sweep_paper" => sweep::run(cx),
        "sim_levels" => levels::run(cx),
        "sim_trace_replay" => replay::run(cx),
        "sim_sampled_medium" => sampled::run(cx),
        "serve_zipf_hit" => serve::run(cx, serve::Variant::ZipfHit),
        "serve_mixed_put" => serve::run(cx, serve::Variant::MixedPut),
        "serve_thrash" => serve::run(cx, serve::Variant::Thrash),
        _ => return None,
    })
}

/// `a / b`, or 0 when `b` is not positive.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Which of the four organizations a configuration simulates.
pub fn org_of(cfg: &SystemConfig) -> &'static str {
    match cfg.llc {
        LlcKind::Baseline => "baseline",
        LlcKind::Split(_) => "split",
        LlcKind::Unified(_) => "unified",
        LlcKind::Compressed(_) => "compressed",
    }
}

/// One configuration per organization at `scale`: baseline, the split
/// base design point, uniDoppelgänger with a 1/2 data array, and the
/// compressed LLC with 2-block superblocks — in `metrics::ORGS` order.
pub fn four_orgs(scale: Scale) -> [(&'static str, SystemConfig); 4] {
    [
        ("baseline", scale.baseline()),
        ("split", scale.split(14, 1, 4)),
        ("unified", scale.unified(1, 2)),
        ("compressed", scale.compressed(2)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_workloads::prepare;

    #[test]
    fn suites_are_a_pure_function_of_the_seed() {
        let images = |seed: u64| -> Vec<Vec<(dg_mem::BlockAddr, dg_mem::BlockData)>> {
            dg_bench::experiments::suite_with_seed(Scale::Small, seed)
                .iter()
                .map(|k| prepare(k.as_ref()).image.iter_blocks().map(|(a, b)| (a, *b)).collect())
                .collect()
        };
        let a = images(21);
        assert_eq!(a.len(), 9);
        assert_eq!(a, images(21), "same seed, same inputs");
        assert_ne!(a, images(22), "another seed, other inputs");
    }

    #[test]
    fn four_orgs_are_in_reporting_order() {
        for scale in [Scale::Small, Scale::Paper] {
            let orgs = four_orgs(scale);
            for ((label, cfg), name) in orgs.iter().zip(crate::metrics::ORGS) {
                assert_eq!((*label, org_of(cfg)), (name, name));
                assert_eq!(cfg.validate(), Ok(()));
            }
        }
    }

    #[test]
    fn a_name_outside_the_table_has_no_runner() {
        let mut cx = crate::harness::Ctx {
            workload: "x",
            seed: 0,
            budget: std::time::Duration::ZERO,
            smoke: true,
            bless: false,
            bench_dir: "benchmark".into(),
            tracer: None,
            extra: Vec::new(),
            layer_extra: Vec::new(),
            notes: Vec::new(),
        };
        assert!(run("no_such_workload", &mut cx).is_none());
    }
}
