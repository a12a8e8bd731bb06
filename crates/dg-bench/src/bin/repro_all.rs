//! Runs every table and figure of the paper's evaluation in one pass,
//! sharing simulation runs between figures. This is the binary that
//! generates the data recorded in EXPERIMENTS.md
//! (`artifacts/repro_all_paper.txt` is its paper-scale stdout).
//!
//! Usage:
//! `cargo run --release -p dg-bench --bin repro_all [--small | --medium] [--check] [--sampled[=K]] [--sampled-check] [--profile[=PATH]] [--json PATH]`
//!
//! With no mode flag it prints Tables 2–3 and Figs. 2 and 7–14, then
//! the extensions (Touché-style LLC, LLC energy breakdown,
//! multiprogrammed pairs, the data-array policy and hash ablations) and,
//! last, the paper-claims gate: each headline number against its band.
//! The exit status is 1 if any claim leaves its band.
//!
//! `--check` runs the differential-oracle gate instead of the figures:
//! every kernel trace is replayed in lockstep through the optimized
//! engine and the `dg-oracle` reference across every configuration of
//! the paper's tables and figures (the ablation variants are replayed
//! by the tier-1 test `tests/lockstep.rs` instead), and the process
//! exits non-zero on the first divergence. `--sampled[=K]` replaces the
//! figures with the sampled
//! sweep (K representative intervals per kernel over the same
//! configuration grid); `--sampled-check` gates those estimates against
//! full-coverage references (see `dg_bench::sampled`). `--profile` runs
//! the same configuration grid at full observability instead of the
//! figures, writing `PROFILE_repro.json` (or `PATH`) plus a
//! Chrome-trace timeline and a JSONL event log next to it (see
//! `dg_bench::profile`); the profile is validated before anything is
//! written, and an invalid one exits 1. `--json PATH` additionally exports every
//! evaluation as a JSON array of result rows. Wall-clock is measured by
//! `benchmark/run.sh`, not here (`benchmark/README.md`).
//!
//! Arguments are parsed strictly (`dg_bench::cli`): anything outside
//! this set — including near-miss typos like `--cehck` — aborts with a
//! usage message and exit status 2 instead of being silently ignored.
//!
//! The `DG_OBS_LEVEL` environment variable (off / spans / metrics /
//! trace) sets the process observability level before the run;
//! instrumentation is observation-only, so results are bit-identical at
//! every level (`tests/obs_identity.rs`). A malformed value aborts with
//! exit status 2, like a bad flag. `--profile` still forces
//! `Level::Trace` for its own grid regardless of the variable.

use dg_bench::cli::ReproArgs;
use dg_bench::figures;
use dg_bench::Sweep;

fn main() {
    let args = ReproArgs::from_env();
    dg_bench::cli::apply_obs_level_env("repro_all");
    let scale = args.scale();
    eprintln!("[repro_all] running at {scale:?} scale");

    if args.check {
        let ok = dg_bench::check::print_check(scale);
        std::process::exit(if ok { 0 } else { 1 });
    }

    if args.sampled_check {
        let ok = dg_bench::sampled::print_sampled_check(scale, args.sampled_k());
        std::process::exit(if ok { 0 } else { 1 });
    }

    if let Some(k) = args.sampled {
        let sweep = dg_bench::sampled::run_sampled_suite(scale, k);
        dg_bench::sampled::print_sampled_summary(&sweep);
        if let Some(path) = args.json.as_deref() {
            match dg_bench::sampled::export_sampled_rows(&sweep, std::path::Path::new(path)) {
                Ok(()) => eprintln!("[repro_all] wrote {path}"),
                Err(e) => {
                    eprintln!("[repro_all] failed to write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        std::process::exit(0);
    }

    if let Some(path) = args.profile {
        match dg_bench::profile::write_profile(scale, std::path::Path::new(&path)) {
            Ok(paths) => {
                for p in &paths {
                    eprintln!("[repro_all] wrote {}", p.display());
                }
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("[repro_all] failed to write profile {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    println!("\n== Table 3: hardware cost (CACTI-lite vs paper) ==\n");
    println!("{}", figures::table3());
    figures::fig13(scale).print("Fig. 13: LLC area reduction");

    let base = figures::baseline_snapshots(scale);
    let s14 = figures::savings_14(&base.snapshots);
    figures::fig02(&base.snapshots).print("Fig. 2: storage savings vs similarity threshold T");
    figures::fig07(&base.snapshots, &s14).print("Fig. 7: storage savings vs map space");
    figures::fig08(&base.snapshots, &s14)
        .print("Fig. 8: storage savings vs BdI and exact deduplication");

    let mut sweep = Sweep::new(scale);
    figures::table2(&mut sweep).print("Table 2: approximate LLC footprint");

    let (err, run) = figures::fig09(&mut sweep);
    err.print("Fig. 9a: output error vs map space");
    run.print("Fig. 9b: normalized runtime vs map space");

    let (err, run) = figures::fig10(&mut sweep);
    err.print("Fig. 10a: output error vs data array size");
    run.print("Fig. 10b: normalized runtime vs data array size");

    let (dynamic, leakage) = figures::fig11(&mut sweep);
    dynamic.print("Fig. 11a: LLC dynamic energy reduction");
    leakage.print("Fig. 11b: LLC leakage energy reduction");

    figures::fig12(&mut sweep).print("Fig. 12: normalized off-chip traffic");

    let (err, run, dynamic) = figures::fig14(&mut sweep);
    err.print("Fig. 14a: uniDoppelganger output error");
    run.print("Fig. 14b: uniDoppelganger normalized runtime");
    dynamic.print("Fig. 14c: uniDoppelganger LLC dynamic energy reduction");

    let (err, run, dynamic) = figures::compressed_compare(&mut sweep);
    err.print("Touche LLC (a): output error");
    run.print("Touche LLC (b): normalized runtime");
    dynamic.print("Touche LLC (c): LLC dynamic energy reduction");
    figures::compressed_storage(&mut sweep, &base.snapshots)
        .print("Touche LLC (d): realized BdI storage savings vs the Fig. 8 bound");

    figures::energy_breakdown(&mut sweep)
        .print("LLC dynamic-energy breakdown (split design, 14-bit, 1/4 data)");
    println!("(shares of each benchmark's total dynamic LLC energy)");

    figures::multiprog(&mut sweep)
        .print("Multiprogrammed pairs: per-application output error (split LLC)");
    println!(
        "(Sharing one Doppelganger cache across applications with separate\n\
         annotations; maps never alias across annotation envelopes.)"
    );

    let (run, traffic, err) = figures::ablation_policy(&mut sweep);
    run.print("Ablation: data-array policy — normalized runtime");
    traffic.print("Ablation: data-array policy — normalized off-chip traffic");
    err.print("Ablation: data-array policy — output error");

    let (savings, err) = figures::ablation_hash(&mut sweep, &base.snapshots, &s14);
    savings.print("Ablation: hash functions — storage savings (14-bit map space)");
    err.print("Ablation: hash functions — output error (split design)");

    let claims = figures::claims(&mut sweep, &s14);
    println!("\n== Paper claims: headline numbers against their bands ==\n");
    print!("{}", claims.report());
    if claims.failures() == 0 {
        println!("\nall reproduction claims within band");
    }

    if let Some(path) = args.json.as_deref() {
        match dg_bench::results::export_sweep(&sweep, std::path::Path::new(path)) {
            Ok(()) => eprintln!("[repro_all] wrote {path}"),
            Err(e) => eprintln!("[repro_all] failed to write {path}: {e}"),
        }
    }
    if claims.failures() > 0 {
        eprintln!("\nvalidation FAILED: {} claim(s) out of band", claims.failures());
        std::process::exit(1);
    }
}
