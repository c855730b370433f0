#!/usr/bin/env bash
# Performance trajectory snapshot: runs every bench_e6_performance JSON
# mode — sequential-vs-parallel batch (--threads/--batch), multi-client
# network (--network), mutation durability (--durability), scan-vs-
# trapdoor-index (--index), batched-kernel-vs-scalar scan (--scan),
# Merkle proof overhead (--integrity), and
# metrics overhead + concurrent-reader scaling + lock-wait share
# (--stats; readers=1/2/4 sessions race the snapshot read path) — and
# writes the combined
# results plus run metadata to BENCH_e6.json at the repo root. Committing that file after meaningful perf work is how
# the repo tracks throughput across hardware and revisions. Each mode
# runs three times; a record holds the median of every numeric field,
# the AND of every boolean, and the min and max of every *_qps and
# *_ops_per_sec field, so a row shows its own run-to-run spread. The
# JSON record schema is documented in docs/OPERATIONS.md.
#
# Usage: scripts/bench.sh [build-dir]
#   DBPH_BENCH_DOCS=N    index-mode relation size (default 100000 — the
#                        acceptance-scale run; the index speedup at this
#                        size is the headline number)
#   DBPH_BENCH_SMOKE=1   tiny sizes everywhere and one run per mode (CI
#                        rot check, not a meaningful snapshot; refuses to
#                        overwrite BENCH_e6.json and writes
#                        BENCH_e6.smoke.json)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
BIN="$BUILD_DIR/bench_e6_performance"

if [ ! -x "$BIN" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_e6_performance
fi

INDEX_DOCS="${DBPH_BENCH_DOCS:-100000}"
INDEX_REPEATS=20
SCAN_DOCS="${DBPH_BENCH_DOCS:-100000}" SCAN_REPEATS=20
PAR_DOCS=20000 PAR_BATCH=16 PAR_ROUNDS=2
NET_DOCS=10000 NET_CLIENTS=2 NET_BATCH=8 NET_ROUNDS=2
DUR_DOCS=1000 DUR_MUTATIONS=300 DUR_ROUNDS=3
INTEG_DOCS="${DBPH_BENCH_DOCS:-100000}" INTEG_REPEATS=20 INTEG_MUTATIONS=300
# Stats mode needs long timed windows: at ~16k point-select qps a few
# hundred repeats is a ~10ms window and scheduler noise swamps the
# sub-1% instrumentation cost being measured.
STATS_DOCS=20000 STATS_REPEATS=2000 STATS_ROUNDS=5
OUT="BENCH_e6.json"
RUNS=3
if [ "${DBPH_BENCH_SMOKE:-0}" = "1" ]; then
  RUNS=1
  INDEX_DOCS=2000 INDEX_REPEATS=5
  SCAN_DOCS=2000 SCAN_REPEATS=5
  PAR_DOCS=2000 PAR_BATCH=8 PAR_ROUNDS=1
  NET_DOCS=1000 NET_BATCH=4 NET_ROUNDS=1
  DUR_DOCS=500 DUR_MUTATIONS=100 DUR_ROUNDS=1
  INTEG_DOCS=2000 INTEG_REPEATS=5 INTEG_MUTATIONS=50
  STATS_DOCS=2000 STATS_REPEATS=50 STATS_ROUNDS=1
  OUT="BENCH_e6.smoke.json"
fi

RAW="$(mktemp)"
LINES="$(mktemp)"
trap 'rm -f "$RAW" "$LINES"' EXIT

# Runs one mode RUNS times, back to back; every run appends its records.
repeat() {
  local run
  for ((run = 0; run < RUNS; ++run)); do
    "$BIN" "$@" >> "$RAW"
  done
}

repeat --docs="$PAR_DOCS" --batch="$PAR_BATCH" --rounds="$PAR_ROUNDS"
repeat --network --docs="$NET_DOCS" --clients="$NET_CLIENTS" \
  --batch="$NET_BATCH" --rounds="$NET_ROUNDS"
repeat --durability --docs="$DUR_DOCS" --mutations="$DUR_MUTATIONS" \
  --rounds="$DUR_ROUNDS"
repeat --index --docs="$INDEX_DOCS" --repeats="$INDEX_REPEATS"
repeat --scan --docs="$SCAN_DOCS" --repeats="$SCAN_REPEATS"
repeat --integrity --docs="$INTEG_DOCS" --repeats="$INTEG_REPEATS" \
  --mutations="$INTEG_MUTATIONS"
repeat --stats --docs="$STATS_DOCS" --repeats="$STATS_REPEATS" \
  --rounds="$STATS_ROUNDS"

# One record per (bench, probe), in first-seen order: the median of each
# numeric field, the AND of each boolean, the first value of each string,
# and <field>_min / <field>_max after each *_qps or *_ops_per_sec field.
python3 - "$RAW" > "$LINES" <<'PY'
import json, statistics, sys

groups = {}
for line in open(sys.argv[1]):
    record = json.loads(line)
    groups.setdefault((record["bench"], record.get("probe")), []).append(record)
for runs in groups.values():
    merged = {}
    for field, first in runs[0].items():
        values = [run[field] for run in runs]
        if isinstance(first, bool):
            merged[field] = all(values)
        elif isinstance(first, (int, float)):
            merged[field] = statistics.median(values)
            if field.endswith(("_qps", "_ops_per_sec")):
                merged[field + "_min"] = min(values)
                merged[field + "_max"] = max(values)
        else:
            merged[field] = first
    print(json.dumps(merged, separators=(",", ":")))
PY

{
  printf '{\n'
  printf '  "bench": "e6",\n'
  printf '  "generated_utc": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "git_revision": "%s",\n' \
    "$(git describe --always --dirty 2>/dev/null || echo unknown)"
  printf '  "host": {"nproc": %s, "uname": "%s"},\n' \
    "$(nproc)" "$(uname -srm)"
  printf '  "runs_per_mode": %s,\n' "$RUNS"
  printf '  "results": [\n'
  sed 's/^/    /' "$LINES" | sed '$!s/$/,/'
  printf '  ]\n'
  printf '}\n'
} > "$OUT"

echo "wrote $OUT ($(wc -l < "$LINES") result object(s))"
