#!/usr/bin/env bash
# Builds the workload benchmark from this checkout's sources, then runs it.
#
#   bash bench_workloads/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash bench_workloads/run.sh --smoke      # all four workloads, 2k docs, 2 s
#   bash bench_workloads/run.sh              # all four workloads, full size
#
# Run from the repository root. The build goes to .bench_build/, spans
# and WAL scratch to .bench_out/. Build output goes to stderr; stdout
# carries the benchmark's JSON lines, the last one being the result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build/bench_workloads"
# The library's configure step runs git describe; it must not look for a
# repository above this checkout.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "$build" --target bench_workloads -j 4 >&2

# The library reports its git describe itself (dbph_build_info); outside
# a git checkout that reads "unknown", so a digest of the sources goes
# with every run.
digest="$(cd "$root" && {
  cat CMakeLists.txt
  find src bench_workloads -type f -print0 | LC_ALL=C sort -z | xargs -0 cat
} | sha256sum | cut -c1-16)"

bench=("$build/bench_workloads" --source-digest "$digest")
workloads=(scan_point hot_point hot_range write_mix)

has_workload=0
smoke=0
for arg in "$@"; do
  case "$arg" in
    --workload|--workload=*) has_workload=1 ;;
    --smoke) smoke=1 ;;
  esac
done

if [[ $has_workload == 1 ]]; then
  cd "$root"
  exec "${bench[@]}" "$@"
fi

# No workload named: run all four, one process each, and check each
# result line's shape in smoke mode.
cd "$root"
status=0
for w in "${workloads[@]}"; do
  out="$("${bench[@]}" --workload "$w" "$@")" || status=1
  printf '%s\n' "$out"
  if [[ $smoke == 1 ]]; then
    printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
assert set(r) == {"correct", "attempted", "failed", "metrics"}, r.keys()
assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1
for name, m in r["metrics"].items():
    assert set(m) == {"value", "unit"}, name
    assert isinstance(m["value"], (int, float)), name
' || { echo "run.sh: $w: result line fails the schema check" >&2; status=1; }
  fi
done
exit $status
