#!/usr/bin/env bash
# Tier-1 verify: configure, build, and run every registered test, then a
# ThreadSanitizer pass over the concurrency-sensitive suites (the server
# is multithreaded in two layers: the net event loop and the scan worker
# pool) and an AddressSanitizer pass over the access-path, integrity and
# snapshot suites (snapshots share chunks and trees across publishes, and
# a locked batch republishes between its legs while they read — exactly
# the lifetime bugs ASan catches).
#
# Usage: scripts/ci.sh [build-dir]
#   DBPH_TSAN=0       skip the ThreadSanitizer stage
#   DBPH_TSAN_ONLY=1  run only the ThreadSanitizer stage
#   DBPH_ASAN=0       skip the AddressSanitizer stage
#   DBPH_ASAN_ONLY=1  run only the AddressSanitizer stage
#   DBPH_MATRIX=0     skip the scan-kernel build-matrix stage
#   DBPH_MATRIX_ONLY=1  run only the scan-kernel build-matrix stage
#   DBPH_DOCS_ONLY=1  run only the docs hygiene stage (builds dbph_serverd)
#   DBPH_COVERAGE=1   run the gcov line-coverage stage (off by default;
#                     gates src/crypto + src/protocol against
#                     scripts/coverage_baseline.txt)
#   DBPH_COVERAGE_ONLY=1  run only the coverage stage
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

# Docs hygiene: every relative markdown link in README.md and docs/ must
# resolve, every dbph_serverd flag must be documented in
# docs/OPERATIONS.md, and every flag row there must be one the daemon
# still prints — so the docs tree cannot silently rot as flags and files
# move.
run_docs_stage() {
  local failed=0
  local md
  for md in README.md docs/*.md; do
    [ -f "$md" ] || continue
    local dir
    dir="$(dirname "$md")"
    # Markdown link targets: [text](target). Skip absolute URLs and
    # pure-fragment links; strip fragments from file links.
    local target
    while IFS= read -r target; do
      case "$target" in
        http://*|https://*|mailto:*|\#*) continue ;;
      esac
      local path="${target%%#*}"
      [ -n "$path" ] || continue
      if [ ! -e "$dir/$path" ]; then
        echo "docs: broken link in $md -> $target" >&2
        failed=1
      fi
    done < <(grep -oE '\[[^]]*\]\([^)]+\)' "$md" \
               | sed -E 's/^\[[^]]*\]\(//; s/\)$//')
  done

  # Every flag dbph_serverd advertises must appear in OPERATIONS.md...
  local flag help_flags
  help_flags="$("$BUILD_DIR/dbph_serverd" --help \
                  | grep -oE '^\s+--[a-z-]+' | tr -d ' ' | sort -u)"
  while IFS= read -r flag; do
    if ! grep -q -- "$flag" docs/OPERATIONS.md; then
      echo "docs: dbph_serverd flag $flag missing from docs/OPERATIONS.md" >&2
      failed=1
    fi
  done <<< "$help_flags"
  # ...and every `| `--flag` row there must be one the daemon prints.
  while IFS= read -r flag; do
    if ! grep -qx -- "$flag" <<< "$help_flags"; then
      echo "docs: docs/OPERATIONS.md documents $flag, which dbph_serverd --help does not print" >&2
      failed=1
    fi
  done < <(grep -oE '^\| `--[a-z-]+' docs/OPERATIONS.md \
             | sed -E 's/^\| `//' | sort -u)

  if [ "$failed" != "0" ]; then
    echo "docs hygiene stage FAILED" >&2
    return 1
  fi
  echo "docs hygiene stage OK"
}

run_tsan_stage() {
  local tsan_dir="${BUILD_DIR}-tsan"
  # Debug build: NDEBUG is off, so the exclusive-dispatcher assert in
  # UntrustedServer::HandleRequest is live here (and only here in CI).
  # The recovery/differential suites run here too: the durable store's
  # background checkpointer + group-commit thread races the dispatch
  # path, which is exactly what TSan is for. The access-path suites ride
  # along: index-path selects interleave with scan waves on the pool,
  # and mixed batches memoize and republish under the dispatch lock
  # while readers pin snapshots.
  cmake -B "$tsan_dir" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  # obs_metrics_test rides along by design: the registry's wait-free
  # recording claims (relaxed atomics, copy-under-write histograms) are
  # worthless unless a data-race detector actually watches them.
  # obs_leakage_test likewise: the auditor claims standalone thread
  # safety (its own mutex around the staging ring and fold), and its
  # concurrent record/report test only means something under TSan.
  # concurrency_race_test is the point of this stage: verified readers
  # race a writer across the snapshot read path while stats are polled —
  # any lock-discipline slip in snapshot publication or observation
  # staging is a hard TSan failure here.
  # swp_match_kernel_test and crypto_hmac_test ride along: the SHA-256
  # kernel dispatch resolves through a function-local static, and the
  # batched scan shares one MatchContext per shard across a pooled scan
  # wave — first-use races in either are TSan's to catch.
  # snapshot_seal_test too: its scans fan shards out over a worker pool
  # that reads the sealed chunks the test then shares into successor
  # states.
  cmake --build "$tsan_dir" -j "$(nproc)" --target \
    runtime_test runtime_parallel_test net_frame_test net_server_test \
    net_interleave_test protocol_fuzz_test wal_recovery_test \
    differential_test server_persistence_test planner_test sql_test \
    obs_metrics_test obs_leakage_test concurrency_race_test \
    swp_match_kernel_test crypto_hmac_test snapshot_seal_test
  ctest --test-dir "$tsan_dir" --output-on-failure --no-tests=error \
    -R 'runtime|net_|protocol_fuzz|wal_recovery|differential|server_persistence|planner|sql|obs_metrics|obs_leakage|concurrency_race|swp_match_kernel|crypto_hmac|snapshot_seal' \
    -j "$(nproc)"
}

run_asan_stage() {
  local asan_dir="${BUILD_DIR}-asan"
  cmake -B "$asan_dir" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
  # The integrity suites ride along: the tamper proxy re-frames
  # envelopes and the proof parser walks attacker-shaped buffers —
  # exactly the code that must be clean under ASan.
  # The scan-kernel suites are mandatory here: MatchMany walks an arena
  # through raw-pointer lane batches and the fuzz case feeds it hostile
  # out-of-bounds WordRefs — any missed bounds check is an ASan failure,
  # not a silent wrong answer.
  # crypto_search_tree_test rides the integrity label: proof verifiers
  # walk attacker-shaped neighbor lists. snapshot_seal_test is explicit:
  # appends and deletes rebuild sealed chunks with rebased word refs and
  # document offsets, and its scans read straight from those buffers —
  # a ref left pointing past its chunk is an out-of-bounds read. The
  # word-crypto
  # suites ride along: Feistel rounds, pads and stream inputs run on
  # stack scratch with a heap fallback for long words, and the golden and
  # reference tests drive both sides of every threshold.
  # runtime_parallel_test is explicit: its mixed batches publish a
  # snapshot and read it inside one locked request, memoizing (and so
  # republishing again) while the leg still holds the older snapshot.
  cmake --build "$asan_dir" -j "$(nproc)" --target \
    planner_test sql_test differential_test storage_heapfile_test \
    integrity_test crypto_merkle_test protocol_fuzz_test \
    crypto_search_tree_test snapshot_seal_test \
    swp_match_kernel_test crypto_hmac_test crypto_feistel_test \
    ciphertext_golden_test runtime_parallel_test
  ctest --test-dir "$asan_dir" --output-on-failure --no-tests=error \
    -L planner -j "$(nproc)"
  ctest --test-dir "$asan_dir" --output-on-failure --no-tests=error \
    -L integrity -j "$(nproc)"
  ctest --test-dir "$asan_dir" --output-on-failure --no-tests=error \
    -R 'storage_heapfile|swp_match_kernel|crypto_hmac|crypto_feistel|ciphertext_golden|snapshot_seal|runtime_parallel' \
    -j "$(nproc)"
}

# Line-coverage gate over the proof-bearing layers. A dedicated
# --coverage -O0 build runs the crypto, protocol, and integrity suites,
# then gcov aggregates executed/total lines per source directory. The
# percentages for src/crypto and src/protocol must not fall below
# scripts/coverage_baseline.txt — the code that decides whether a lying
# server is caught does not get to lose test coverage silently.
coverage_for_dir() {
  local cov_dir="$1"
  local src_dir="$2"
  local obj_dir="CMakeFiles/dbph_core.dir/src/$src_dir"
  (cd "$cov_dir" && gcov --no-output "$obj_dir"/*.cc.gcda 2>/dev/null || true) \
    | awk -v want="src/$src_dir/" '
        /^File / {
          keep = index($0, want) > 0 && index($0, ".cc'\''") > 0
        }
        /^Lines executed:/ && keep {
          line = $0
          sub(/^Lines executed:/, "", line)
          split(line, parts, "% of ")
          executed += parts[1] * parts[2] / 100
          total += parts[2]
        }
        END {
          if (total > 0) printf "%.2f\n", 100 * executed / total
          else print "0.00"
        }'
}

run_coverage_stage() {
  local cov_dir="${BUILD_DIR}-cov"
  cmake -B "$cov_dir" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage -O0 -g" \
    -DCMAKE_EXE_LINKER_FLAGS="--coverage"
  cmake --build "$cov_dir" -j "$(nproc)" --target \
    crypto_aes_test crypto_chacha20_test crypto_feistel_test \
    crypto_hmac_test crypto_kat_test crypto_merkle_test \
    crypto_random_test crypto_search_tree_test crypto_sha256_test \
    protocol_fuzz_test integrity_test swp_scheme_test swp_property_test \
    dbph_scheme_test dbph_document_test
  # Stale counters from a previous run would inflate the numbers.
  find "$cov_dir" -name '*.gcda' -delete
  ctest --test-dir "$cov_dir" --output-on-failure --no-tests=error \
    -R 'crypto_|protocol_fuzz|integrity|swp_scheme|swp_property|dbph_' \
    -j "$(nproc)"

  local failed=0
  local src_dir pct floor
  for src_dir in crypto protocol; do
    pct="$(coverage_for_dir "$cov_dir" "$src_dir")"
    floor="$(awk -v d="$src_dir" '$1 == d { print $2 }' \
               scripts/coverage_baseline.txt)"
    if [ -z "$floor" ]; then
      echo "coverage: no baseline for src/$src_dir" >&2
      failed=1
      continue
    fi
    echo "coverage: src/$src_dir ${pct}% (baseline ${floor}%)"
    if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
      echo "coverage: src/$src_dir fell below the baseline" >&2
      failed=1
    fi
  done
  if [ "$failed" != "0" ]; then
    echo "coverage stage FAILED" >&2
    return 1
  fi
  echo "coverage stage OK"
}

run_matrix_stage() {
  # Scan-kernel build matrix. Two axes:
  #   (1) compile baseline: the default build (above) vs an explicit
  #       -march=x86-64-v2 job, so the multi-way compression paths are
  #       exercised both when the compiler baseline already includes
  #       SSE4.1 and when only the per-function target attributes
  #       provide it (AVX2 and AVX-512F always come from the attributes);
  #   (2) runtime dispatch: DBPH_SHA256_KERNEL forces each kernel —
  #       including the portable scalar fallback — through the full
  #       HMAC vector suite, the batched-vs-scalar equivalence tests,
  #       the chunk store's Scan-against-ScanReference property test,
  #       and the SHA-256, Merkle and search-tree suites (tree hashing
  #       runs 16 nodes per Sha256CompressMany call, so every lane
  #       kernel builds roots and proofs). Unsupported values fall back
  #       to the best supported kernel, so the loop is safe on any host.
  local v2_dir="${BUILD_DIR}-v2"
  cmake -B "$v2_dir" -S . \
    -DCMAKE_CXX_FLAGS="-march=x86-64-v2"
  cmake --build "$v2_dir" -j "$(nproc)" --target $MATRIX_TESTS
  local kernel test
  for kernel in portable sse41 avx2 shani avx512; do
    for dir in "$BUILD_DIR" "$v2_dir"; do
      [ -x "$dir/crypto_hmac_test" ] || continue
      echo "kernel matrix: DBPH_SHA256_KERNEL=$kernel in $dir"
      for test in $MATRIX_TESTS; do
        DBPH_SHA256_KERNEL="$kernel" "$dir/$test" --gtest_brief=1
      done
    done
  done
  echo "scan-kernel build matrix OK"
}

# The suites the kernel matrix runs under every DBPH_SHA256_KERNEL.
MATRIX_TESTS="crypto_hmac_test swp_match_kernel_test snapshot_seal_test
  crypto_sha256_test crypto_merkle_test crypto_search_tree_test"

if [ "${DBPH_TSAN_ONLY:-0}" = "1" ]; then
  run_tsan_stage
  exit 0
fi
if [ "${DBPH_ASAN_ONLY:-0}" = "1" ]; then
  run_asan_stage
  exit 0
fi
if [ "${DBPH_MATRIX_ONLY:-0}" = "1" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target $MATRIX_TESTS
  run_matrix_stage
  exit 0
fi
if [ "${DBPH_COVERAGE_ONLY:-0}" = "1" ]; then
  run_coverage_stage
  exit 0
fi
if [ "${DBPH_DOCS_ONLY:-0}" = "1" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target dbph_serverd
  run_docs_stage
  exit 0
fi

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error -j "$(nproc)"
# The labeled durability suites must exist (a glob regression that drops
# them would otherwise pass silently).
ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error -L recovery
ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error -L differential
ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error -L planner
ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error -L integrity

# Docs must stay honest before anything slower runs.
run_docs_stage

# Smoke-test the batch runtime bench (tiny workload; asserts that
# batched results and observation logs match the sequential baseline).
if [ -x "$BUILD_DIR/bench_e6_performance" ]; then
  "$BUILD_DIR/bench_e6_performance" --docs=2000 --batch=8 --rounds=1
  # ...and the network mode: real sockets, concurrent clients, results
  # checked against plaintext ground truth.
  "$BUILD_DIR/bench_e6_performance" --network --docs=1000 --clients=2 \
    --batch=4 --rounds=1
  # ...and the durability mode: mutation throughput at each fsync policy,
  # asserting every mutation reached the WAL.
  "$BUILD_DIR/bench_e6_performance" --durability --docs=500 --mutations=200
  # ...and the index mode: scan vs trapdoor-index selects over identical
  # ciphertext, asserting byte-identical results and observation logs
  # (tiny sizes — the mode must not rot; real numbers via scripts/bench.sh).
  "$BUILD_DIR/bench_e6_performance" --index --docs=2000 --repeats=5
  # ...and the scan mode: the server's batched scan vs the scalar
  # reference sweep over one sealed relation, asserting identical
  # matches (tiny sizes — real numbers via scripts/bench.sh).
  "$BUILD_DIR/bench_e6_performance" --scan --docs=2000 --repeats=5
  # ...and the integrity mode: proof generation + enforced verification
  # vs the proof-free baseline, asserting identical results.
  "$BUILD_DIR/bench_e6_performance" --integrity --docs=2000 --repeats=5 \
    --mutations=50
  # ...and the stats mode: metrics-on vs metrics-off and leakage-on vs
  # leakage-off point selects, asserting the kStats and kLeakageReport
  # round trips work and results match.
  "$BUILD_DIR/bench_e6_performance" --stats --docs=2000 --repeats=50 \
    --rounds=1
fi

# The gated benchmark's own harness (BENCHMARK.json): builds the driver
# from this checkout, runs all four workloads at smoke size, and checks
# every answer and each result line's shape — so the gate cannot rot
# between benchmark changes.
bash bench_workloads/run.sh --smoke > /dev/null

# Metrics smoke + name-drift check: start a daemon with the Prometheus
# endpoint, drive real queries through the SQL REPL, scrape /metrics,
# and (a) assert one series from every instrumented layer is present,
# (b) fail if the daemon exports any dbph_* name that is not documented
# in docs/OPERATIONS.md — new instruments must land with their docs —
# and (c) fail if a metric row there names a series the scrape does not
# export — removed instruments must take their rows with them.
METRICS_DIR="$(mktemp -d)"
"$BUILD_DIR/dbph_serverd" --port=17692 --bind=127.0.0.1 \
  --metrics-port=17693 --persist="$METRICS_DIR" --fsync=always &
SERVERD_PID=$!
sleep 1
REPL_OUT="$METRICS_DIR/repl.out"
printf "SELECT * FROM Emp WHERE dept = 'HR';\nLEAKAGE\nSTATS\n\\\\q\n" \
  | "$BUILD_DIR/example_sql_repl" --connect=127.0.0.1:17692 > "$REPL_OUT"
grep -q "dbph_requests_total" "$REPL_OUT"
# The LEAKAGE command must round-trip a kLeakageReport and show the
# query the session just ran against the demo table.
grep -q "leakage report" "$REPL_OUT"
grep -q "Emp" "$REPL_OUT"
SCRAPE="$METRICS_DIR/metrics.prom"
exec 3<>/dev/tcp/127.0.0.1/17693
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
cat <&3 > "$SCRAPE"
exec 3<&- 3>&-
kill "$SERVERD_PID"
wait "$SERVERD_PID"
grep -q "HTTP/1.0 200 OK" "$SCRAPE"
for series in dbph_requests_total dbph_select_seconds_bucket \
    dbph_dispatch_lock_wait_seconds_sum dbph_net_frames_in_total \
    dbph_wal_append_records_total dbph_index_trapdoors \
    dbph_integrity_proof_build_seconds_count \
    dbph_leakage_observed_queries_total dbph_leakage_advantage_millis \
    dbph_build_info dbph_process_start_time_seconds; do
  grep -q "^$series" "$SCRAPE" \
    || { echo "metrics smoke: $series missing from scrape" >&2; exit 1; }
done
DRIFT=0
EXPORTED="$(grep -oE '^dbph_[a-z_]+' "$SCRAPE" \
              | sed -E 's/_(bucket|sum|count)$//' | sort -u)"
while IFS= read -r name; do
  # Per-op counters are a documented family, not individual rows.
  doc_name="$(echo "$name" \
    | sed -E 's/^dbph_op_[a-z]+_total$/dbph_op_<op>_total/')"
  if ! grep -q -- "$doc_name" docs/OPERATIONS.md; then
    echo "metrics drift: $name exported but not in docs/OPERATIONS.md" >&2
    DRIFT=1
  fi
done <<< "$EXPORTED"
# The other direction: every name in the first cell of a `| `dbph_…` row
# must be exported; the dbph_op_<op>_total row stands for the family.
while IFS= read -r name; do
  if [ "$name" = "dbph_op_<op>_total" ]; then
    grep -qE '^dbph_op_[a-z]+_total$' <<< "$EXPORTED" && continue
  elif grep -qx -- "$name" <<< "$EXPORTED"; then
    continue
  fi
  echo "metrics drift: docs/OPERATIONS.md documents $name," \
    "which the daemon does not export" >&2
  DRIFT=1
done < <(grep -E '^\| `dbph_' docs/OPERATIONS.md | cut -d'|' -f2 \
           | grep -oE '`dbph_[a-z_<>]+`' | tr -d '`' | sort -u)
[ "$DRIFT" = "0" ]
rm -rf "$METRICS_DIR"
echo "metrics smoke + drift check OK"

# End-to-end crash drill: outsource a relation through a live daemon,
# kill -9 it, and assert the restarted daemon recovers that relation
# from the --persist dir (sql_repl outsources its demo Emp table on
# connect, so one scripted session is a real mutation workload).
PERSIST_DIR="$(mktemp -d)"
"$BUILD_DIR/dbph_serverd" --port=17690 --bind=127.0.0.1 \
  --persist="$PERSIST_DIR" --fsync=always &
SERVERD_PID=$!
sleep 1
printf '\\q\n' | "$BUILD_DIR/example_sql_repl" --connect=127.0.0.1:17690 \
  > /dev/null
kill -9 "$SERVERD_PID" 2>/dev/null || true
wait "$SERVERD_PID" 2>/dev/null || true
RESTART_LOG="$PERSIST_DIR/restart.log"
"$BUILD_DIR/dbph_serverd" --port=17691 --bind=127.0.0.1 \
  --persist="$PERSIST_DIR" --fsync=always 2> "$RESTART_LOG" &
SERVERD_PID=$!
sleep 1
printf '\\q\n' | "$BUILD_DIR/example_sql_repl" --connect=127.0.0.1:17691 \
  | grep -q "already on the server"
kill "$SERVERD_PID"
wait "$SERVERD_PID"
grep -q "recovered 1 relation(s)" "$RESTART_LOG"
rm -rf "$PERSIST_DIR"

if [ "${DBPH_MATRIX:-1}" != "0" ]; then
  run_matrix_stage
fi
if [ "${DBPH_TSAN:-1}" != "0" ]; then
  run_tsan_stage
fi
if [ "${DBPH_ASAN:-1}" != "0" ]; then
  run_asan_stage
fi
if [ "${DBPH_COVERAGE:-0}" = "1" ]; then
  run_coverage_stage
fi
