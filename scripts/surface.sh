#!/usr/bin/env bash
# The repository's surface, one measure per line ("<measure> <value>"):
#
#   lines.code.<crate>   lines of <crate>/src before its first #[cfg(test)]
#   lines.test.<crate>   the rest of <crate>/src, plus <crate>/tests
#   pub.<crate>          pub fn/struct/enum/trait/type/const/static/mod items
#                        in code lines (re-exports not counted), plus the
#                        methods declared inside a pub trait
#   doc_hidden           #[doc(hidden)] attributes
#   binaries             files under crates/*/src/bin
#   dg_env_reads         distinct "DG_*" string literals in code lines
#   llckind_sites        lines naming LlcKind:: (examples, tests, benchmark/ included)
#   llc_org_arms         lines naming an Llc:: or OracleLlc:: organization variant
#   counter_impls        hand-written `impl ... Snapshot for` / `impl ... AddAssign for`
#                        lines in code lines (what dg_obs::counters! generates is not counted)
#   root_artifacts       *.txt, *.json and *.jsonl files at the repository root
#
# Line and pub measures are taken on each file as rustfmt lays it out
# under the repository's rustfmt.toml, so they count code, not layout:
# joining or splitting lines by hand does not move them. The crate
# "root" is the top-level src/ and tests/.
#
#   scripts/surface.sh           print the measures
#   scripts/surface.sh --check   exit 1 unless they equal scripts/surface.baseline
#
# The baseline always equals the tree. A change that moves a measure, up
# or down, regenerates it in the same diff with
#   scripts/surface.sh > scripts/surface.baseline
# and says why in CHANGES.md when a measure rose.
set -euo pipefail
cd "$(dirname "$0")/.."

# One Rust file as rustfmt lays it out (rustfmt.toml is read from here).
formatted() { rustfmt --edition 2021 --emit stdout < "$1"; }
# Code lines: everything before the first #[cfg(test)]; test lines: the rest.
code_part() { awk '/^#\[cfg\(test\)\]/ { exit } { print }'; }
test_part() { awk 'found || /^#\[cfg\(test\)\]/ { found = 1; print }'; }
# pub items, plus the methods one indent level inside a pub trait.
count_pub() {
  awk 'function indent(s) { match(s, /^ */); return RLENGTH }
       /^ *pub (unsafe )?(fn|struct|enum|trait|type|const|static|mod) / { n++ }
       in_trait && indent($0) == depth && /^ *}/ { in_trait = 0 }
       in_trait && indent($0) == depth + 4 && /^ *(unsafe )?fn / { n++ }
       /^ *pub (unsafe )?trait .*{$/ { in_trait = 1; depth = indent($0) }
       END { print n + 0 }'
}

measure() {
  local name dir f text
  for dir in crates/* .; do
    if [ "$dir" = . ]; then name=root; else name=${dir#crates/}; fi
    local code=0 test=0 pubs=0
    for f in $(find "$dir/src" -name '*.rs' 2>/dev/null | sort); do
      text=$(formatted "$f")
      code=$((code + $(code_part <<< "$text" | wc -l)))
      test=$((test + $(test_part <<< "$text" | wc -l)))
      pubs=$((pubs + $(code_part <<< "$text" | count_pub)))
    done
    for f in $(find "$dir/tests" -name '*.rs' 2>/dev/null | sort); do
      test=$((test + $(formatted "$f" | wc -l)))
    done
    echo "lines.code.$name $code"
    echo "lines.test.$name $test"
    echo "pub.$name $pubs"
  done
  echo "doc_hidden $(grep -rF --include='*.rs' '#[doc(hidden)]' crates src | wc -l)"
  echo "binaries $(find crates/*/src/bin -name '*.rs' | wc -l)"
  local env_reads
  env_reads=$(find crates/*/src src examples -name '*.rs' | sort | while read -r f; do code_part < "$f"; done \
    | grep -v '^\s*//' | grep -oE '"DG_[A-Z0-9_]+"' | sort -u | wc -l)
  echo "dg_env_reads $env_reads"
  echo "llckind_sites $(grep -rn --include='*.rs' 'LlcKind::' crates src examples tests benchmark/src benchmark/tests | wc -l)"
  echo "llc_org_arms $(grep -rnE --include='*.rs' '\b(Oracle)?Llc::(Baseline|Split|Unified|Compressed)\b' crates | wc -l)"
  local counter_impls
  counter_impls=$(find crates/*/src src -name '*.rs' | sort | while read -r f; do code_part < "$f"; done \
    | grep -E '^\s*impl\b.*\b(Snapshot|AddAssign) for [A-Za-z_]' | wc -l)
  echo "counter_impls $counter_impls"
  echo "root_artifacts $(find . -maxdepth 1 -type f \( -name '*.txt' -o -name '*.json' -o -name '*.jsonl' \) | wc -l)"
}

case "${1:-}" in
  "") measure ;;
  --check)
    current=$(measure)
    # Every measure must equal its baseline value, and every baseline
    # measure must still exist.
    if ! awk 'NR == FNR { base[$1] = $2; next }
              !($1 in base) { printf "new measure %s = %s (not in scripts/surface.baseline)\n", $1, $2; bad = 1; next }
              $2 > base[$1] { printf "%s rose: %s -> %s\n", $1, base[$1], $2; bad = 1 }
              $2 < base[$1] { printf "%s fell: %s -> %s\n", $1, base[$1], $2; bad = 1 }
              { seen[$1] = 1 }
              END { for (m in base) if (!(m in seen)) { printf "measure %s is gone\n", m; bad = 1 }
                    exit bad }' scripts/surface.baseline - <<< "$current"; then
      echo "surface differs from scripts/surface.baseline: regenerate it in this diff with" >&2
      echo "  scripts/surface.sh > scripts/surface.baseline" >&2
      echo "and say in CHANGES.md why any measure rose" >&2
      exit 1
    fi
    ;;
  *) echo "usage: scripts/surface.sh [--check]" >&2; exit 2 ;;
esac
