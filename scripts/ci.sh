#!/usr/bin/env bash
# CI entry point: one command that gates every merge.
#
# Thin wrapper over scripts/verify.sh (tier-1 build + tests, the
# observability identity and per-level count gates among them +
# cargo clippy on the workspace, exit status only +
# cargo doc with broken intra-doc links denied +
# benchmark smoke run checked against benchmark/golden/* +
# hermeticity + differential oracle +
# byte-diff of deterministic exports across worker counts +
# the paper-claims gate (validate_repro --small) + profile smoke +
# the concurrent server's analytic hit-rate gate +
# monitored-serve smoke asserting the telemetry plane
# flags an injected anomaly without steady-state false positives +
# sampled-simulation gate against full-coverage references with
# byte-diff determinism across runs and worker counts)
# so that CI, pre-commit hooks, and humans all run the *same* check —
# there is no CI-only logic to drift out of sync with local
# verification.
set -euo pipefail
cd "$(dirname "$0")/.."

# CI machines start with a cold cargo cache; the build is offline by
# design (hermetic, workspace-only dependency graph), so no network
# setup or vendoring step is needed before verifying.
exec scripts/verify.sh
