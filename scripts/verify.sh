#!/usr/bin/env bash
# Tier-1 verification: offline build + tests, clippy's deny-level lints,
# rustdoc's broken-link check, the benchmark's smoke run against its golden digests, plus a
# hermeticity check asserting the dependency graph contains only
# in-repo workspace crates (see README.md, "Hermetic build &
# determinism"), and the surface ratchet (scripts/surface.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline, locked) =="
cargo build --release --offline --locked

echo "== test (offline) =="
# Includes the observability gates: obs_identity (a traced run is
# bit-identical to an untraced one) and obs_gating (records and events
# per access at each level, counted: Level::Off records nothing). No
# stage of this script judges a timing.
cargo test -q --offline --workspace

echo "== lint: cargo clippy (exit status only) =="
# Deny-level lints fail the stage; warnings are printed and not judged
# (no -D warnings).
cargo clippy --offline --workspace
echo "ok: clippy reaches and passes every workspace crate"

echo "== docs: cargo doc, broken intra-doc links denied =="
# Every [`item`] link in every workspace crate's docs must resolve, so
# a deleted or renamed item cannot leave a dangling reference behind.
# Links to private items stay warnings.
RUSTDOCFLAGS='-D rustdoc::broken_intra_doc_links' cargo doc --offline --workspace --no-deps
echo "ok: every intra-doc link resolves"

echo "== benchmark smoke: benchmark/run.sh --smoke =="
# The repository benchmark at ~1/20 size with verification: every
# sim_* workload recomputes its statistics digest (simulated counters,
# and for sim_sweep_paper the Fig. 2/7/8 similarity rows) against
# benchmark/golden/*, the sampled workload holds its tolerance rule and
# the servers their replay identity. A mismatch is ops_failed > 0 and
# exit 1, with a "# digest mismatch" note naming the unit in the
# report it prints; the timings there are not judged. (The benchmark
# refuses to start, exit 2, while any DG_* variable is set.)
benchmark/run.sh --smoke
echo "ok: benchmark smoke verified every workload against its golden digest"

echo "== hermeticity: cargo tree must list only workspace crates =="
# Every line of `cargo tree` names a crate with a version. Workspace
# members resolve to a path (printed as "(/…)" with no registry hash);
# anything from a registry or git source is a hermeticity violation.
violations=$(cargo tree --offline --workspace --edges normal,dev,build --prefix none \
  | sort -u \
  | grep -v '^$' \
  | grep -vE '\(/.*\)|\(\*\)' || true)
if [ -n "$violations" ]; then
  echo "non-workspace dependencies found:" >&2
  echo "$violations" >&2
  exit 1
fi
echo "ok: dependency graph is workspace-only"

echo "== surface ratchet: scripts/surface.sh --check =="
# Lines, pub items, binaries, DG_* reads, LlcKind:: sites and LLC
# organization arms must equal scripts/surface.baseline; a change that
# moves one regenerates the baseline in the same diff.
scripts/surface.sh --check
echo "ok: every surface measure equals scripts/surface.baseline"

echo "== differential oracle: repro_all --small --check =="
# The primary correctness gate: every suite kernel's trace is replayed
# in lockstep through the optimized engine and the dg-oracle reference
# across every configuration of the paper's tables and figures (the
# ablation variants are replayed by the tier-1 lockstep test); the
# first diverging observable (counter, victim, writeback, loaded byte,
# final DRAM block) fails with its access index. The oracle is deterministic, so
# agreement with it on every observable implies determinism and pins
# the semantics besides. (Scalar and AVX2 map generation are held to
# each other by the dg-simd, dg-mem and doppelganger lane tests.)
cargo run --release --offline -q -p dg-bench --bin repro_all -- --small --check
echo "ok: optimized engine agrees with the oracle on every paper configuration"

echo "== export determinism + paper claims: repro_all --small --json across worker counts =="
# The result export (a pure function of the simulation, no wall-clock
# or provenance fields) must byte-match between the default worker
# pool and a single worker. Each run also ends with the paper-claims
# gate (Table 3's structural numbers, the Fig. 13 area reduction, and
# sanity bands on the Fig. 7/9a savings and error and on baseline
# exactness) and exits 1 if any claim leaves its band, which fails
# this stage under set -e.
export_dir=$(mktemp -d)
cargo run --release --offline -q -p dg-bench --bin repro_all -- \
  --small --json "$export_dir/rows.json" > /dev/null
DG_PAR_THREADS=1 cargo run --release --offline -q -p dg-bench --bin repro_all -- \
  --small --json "$export_dir/rows_serial.json" > /dev/null
cmp "$export_dir/rows.json" "$export_dir/rows_serial.json"
echo "ok: exports byte-identical across worker counts, every claim within band"

echo "== paper artifact: repro_all at paper scale must reproduce artifacts/repro_all_paper.txt =="
# The committed paper-scale output (every table, figure, extension and
# the claims at the paper's bands) is regenerated and byte-compared, so
# it cannot drift from the code that prints it (~11 s on 2 vCPUs).
# After a change that moves a number, regenerate it with
#   cargo run --release -p dg-bench --bin repro_all > artifacts/repro_all_paper.txt
cargo run --release --offline -q -p dg-bench --bin repro_all > "$export_dir/repro_all_paper.txt"
cmp artifacts/repro_all_paper.txt "$export_dir/repro_all_paper.txt"
rm -rf "$export_dir"
echo "ok: artifacts/repro_all_paper.txt is current"

echo "== profile smoke: repro_all --small --profile =="
# The observability pass: the full configuration grid at Level::Trace,
# exporting metric snapshots, a Chrome-trace timeline and an event log.
# The writer validates PROFILE_repro.json before writing anything (meta
# stamp, full grid, populated histograms) and exits 1 if it is invalid.
profile_dir=$(mktemp -d)
trap 'rm -rf "$profile_dir"' EXIT
cargo run --release --offline -q -p dg-bench --bin repro_all -- \
  --small "--profile=$profile_dir/PROFILE_repro.json" > /dev/null
test -s "$profile_dir/TRACE_repro.json"
test -s "$profile_dir/EVENTS_repro.jsonl"
echo "ok: profile artifacts validated and written"

echo "== serve gate: serve_bench --smoke --check =="
# The concurrent server path: a short multi-threaded batched run over
# the sharded similarity cache whose measured hit rate on the synthetic
# Zipf workload must land inside the Che-approximation tolerance band.
cargo run --release --offline -q -p dg-bench --bin serve_bench -- --smoke --check
echo "ok: serve hit-rate gate holds"

echo "== monitor smoke: serve_monitor --smoke =="
# The online telemetry plane (DESIGN.md §12): a monitored two-phase
# serve. The binary itself gates the monitor's behaviour — zero alarms
# across all 50 steady windows, the injected low-similarity phase
# flagged within 5 windows, and the triggering detectors limited to
# hit-rate drift (plus optionally the displacement watermark). The
# binary validates the window report and the incident dump before
# writing each, and exits 1 on an invalid one; exit 0 needs a
# detection, so the incident is always written.
cargo run --release --offline -q -p dg-bench --bin serve_monitor -- \
  --smoke --json "$profile_dir/MONITOR_serve.json" \
  --incident "$profile_dir/INCIDENT_serve.jsonl"
echo "ok: monitored serve held steady, flagged the anomaly, artifacts validated"

echo "== sampled gate: repro_all --small --sampled-check =="
# Sampled interval simulation (DESIGN.md §10): every (configuration,
# kernel) pair's K-interval estimates — LLC miss rate, Doppelgänger
# hit rate, output error — must land within max(ci, floor) of a
# full-coverage reference run over the same access space. Catches
# selection bias, cold-start bias and any drift between the hybrid
# runner and the detailed model.
cargo run --release --offline -q -p dg-bench --bin repro_all -- --small --sampled-check
echo "ok: sampled estimates within tolerance of full-coverage references"

echo "== sampled determinism: byte-diff exports across runs and workers =="
# Profiling, k-medoids selection and the hybrid run are seeded and
# iteration-order-free; the sampled export must be byte-identical
# across repeated runs and across worker-pool sizes.
cargo run --release --offline -q -p dg-bench --bin repro_all -- \
  --small --sampled --json "$profile_dir/sampled_a.json" > /dev/null
cargo run --release --offline -q -p dg-bench --bin repro_all -- \
  --small --sampled --json "$profile_dir/sampled_b.json" > /dev/null
DG_PAR_THREADS=1 cargo run --release --offline -q -p dg-bench --bin repro_all -- \
  --small --sampled --json "$profile_dir/sampled_serial.json" > /dev/null
cmp "$profile_dir/sampled_a.json" "$profile_dir/sampled_b.json"
cmp "$profile_dir/sampled_a.json" "$profile_dir/sampled_serial.json"
echo "ok: sampled exports byte-identical across runs and worker counts"

echo "== checked release: oracle and sampled gates with debug assertions and overflow checks =="
# The same two gates under the `checked` profile (Cargo.toml: release
# code generation with debug-assertions and overflow-checks on), so an
# assertion or an integer overflow that the release build compiles out
# fails here. Builds into target/checked.
cargo run --profile checked --offline -q -p dg-bench --bin repro_all -- --small --check
cargo run --profile checked --offline -q -p dg-bench --bin repro_all -- --small --sampled-check
echo "ok: no assertion or overflow fired in the checked build"
