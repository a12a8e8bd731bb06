#!/usr/bin/env bash
# Build the benchmark from source and run it.
#
#   benchmark/run.sh [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1]
#                    [--traced] [--smoke] [--bless] [--repeat N] [--record] [--out FILE]
#
# With one --workload the run happens in this process and the last line
# of standard output is the JSON object of the benchmark contract;
# otherwise each workload runs in a process of its own and the result
# set goes to benchmark/out/results.json. See README.md.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to standard error: standard output is the report.
cargo build --release --offline --locked --quiet \
  --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
exec "$target/release/dg-benchmark" run --bench-dir "$here" "$@"
