#!/usr/bin/env bash
# Full pre-merge check: build + test the release and sanitizer configurations.
# The release ctest run must also finish inside a wall-time budget
# (tier1_budget_s below), so a suite slowed by machine load or spinning
# threads fails loudly instead of just taking longer.
#
# The ASan/UBSan leg matters for this codebase specifically because the
# steady-ant arena and the Workspace buffer pools hand out raw spans carved
# from larger allocations -- exactly the kind of code where an off-by-one
# survives a release build unnoticed.
#
# The TSan leg builds only the engine and query-index test binaries and runs
# the shared-kernel suites (LRU cache, scheduler, QueryIndex hammer tests):
# many threads share one cached kernel and its once-built index, exactly the
# code where a missing happens-before survives unnoticed on x86.
#
# After the ASan suite passes, the serialize|store label slice is re-run
# under ASan explicitly: those suites parse untrusted bytes (codec fuzz) and
# exercise the mmap seam, so the slice must exist (a label typo would
# silently drop it from the filter) and must be clean.
#
# The frontend label slice is likewise re-run under ASan: the reactor frees
# connections from inside decoder callbacks (the graveyard pattern), which is
# precisely the lifetime bug class ASan sees and release builds survive.
#
# The shard label slice is re-run under ASan as well: the router leases
# pooled connections across threads, discards them from hedge losers, and
# parses health JSON off the wire -- lifetime and parse bugs ASan catches.
#
# The plot label slice is re-run under ASan too: the alignment-plot path
# splices hostile grid dimensions into raw frames, reassembles multi-tile
# streams, and relays them through the router -- byte-parsing code where an
# off-by-one lives or dies by the sanitizer.
#
# The incremental label slice is re-run under ASan as well: a resumed
# corpus upsert composes tail strips onto the previous pair kernel through
# the steady-ant arena, and rolls back partially-published generations on
# injected faults -- lifetime bugs in either direction are exactly ASan's
# beat.
#
# Every bound of the bench and serve gates is a row of bench/gates.tsv, with
# its reason; scripts/gate.py checks result files against it and fails on a
# missing field. Before any build it must report exactly the two faults
# planted in bench/gate_fixture/ and pass the committed results. The bench
# gate checks a scaled-down bench_engine run (release) against the table.
#
# The serve gate then stands up the real semilocal_serve reactor and fires
# the open-loop loadgen at it. One helper (start_server) starts every server
# of the gate and waits for the bound port it prints on stdout, so no leg
# probes readiness with requests. The legs: 10000 concurrent sockets at
# 5000 req/s (loadgen exits nonzero on any stalled socket), an admission
# leg where 200 clients hit a --max-conns 50 server, and the shard failover
# leg; the table then checks their loadgen results.
# SKIP_SERVE_GATE=1 skips it (needs ~20k fds; raise ulimit -n if the default
# hard limit is lower).
#
# With CHECK_FAULTS=1, an extra leg runs the fault-injection scenario runner
# (tests/test_faults) over FAULT_SEEDS extra random schedules beyond the
# suite's built-in 200, starting at FAULT_SEED_BASE (default: derived from
# the current time, printed so any failure can be replayed exactly).
#
# Usage: [CHECK_FAULTS=1] [FAULT_SEEDS=64] [FAULT_SEED_BASE=...] scripts/check.sh [-j N]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
while getopts "j:" opt; do
  case $opt in
    j) jobs=$OPTARG ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
  esac
done

# Tier-1 wall-time budget for the release ctest run, in seconds, scaled with
# the parallelism used: 25 s at -j4 and above, 100 s at -j1. Measured on a
# 4-core host, the 1426-case suite took 6.3-9.6 s at -j4, 9.7 s at -j2 and
# 16.3 s at -j1, so every level keeps at least ~2.5x headroom (more at -j1,
# where a 1-core host also serializes each test's own worker threads). A
# suite that blows it is spending its time on something other than tests
# (OpenMP spin-waiting did, before tests/CMakeLists.txt set OMP_WAIT_POLICY).
tier1_budget_s=$(( 100 / (jobs < 4 ? (jobs < 1 ? 1 : jobs) : 4) ))

echo "==> gate table: self-test (the fixture must fail exactly 2 checks), then the committed results"
fixture_failures=0
python3 scripts/gate.py bench/gates.tsv bench/gate_fixture/bench_engine.json || fixture_failures=$?
if (( fixture_failures != 2 )); then
  echo "error: scripts/gate.py exited $fixture_failures on its fixture, want 2 failed checks" >&2
  exit 1
fi
python3 scripts/gate.py bench/gates.tsv results/bench_engine.json

for preset in release asan tsan; do
  echo "==> configure ($preset)"
  cmake --preset "$preset" >/dev/null
  echo "==> build ($preset)"
  cmake --build --preset "$preset" -j "$jobs"
  echo "==> ctest ($preset)"
  ctest_start=$(date +%s)
  ctest --preset "$preset" -j "$jobs"
  if [[ "$preset" == release ]]; then
    ctest_wall=$(( $(date +%s) - ctest_start ))
    echo "    release ctest wall time: ${ctest_wall} s (budget ${tier1_budget_s} s)"
    if (( ctest_wall > tier1_budget_s )); then
      echo "error: release ctest took ${ctest_wall} s, over the ${tier1_budget_s} s budget" >&2
      exit 1
    fi
  fi
done

echo "==> serialize|store slice under ASan"
# -L with no matching tests exits 0, which would let a label typo silently
# drop the slice; demand a non-empty test list first.
if ! ctest --preset asan -N -L 'serialize|store' | grep -q 'Total Tests: [1-9]'; then
  echo "error: no tests carry the serialize/store labels" >&2
  exit 1
fi
ctest --preset asan -j "$jobs" -L 'serialize|store'

echo "==> frontend slice under ASan"
if ! ctest --preset asan -N -L 'frontend' | grep -q 'Total Tests: [1-9]'; then
  echo "error: no tests carry the frontend label" >&2
  exit 1
fi
ctest --preset asan -j "$jobs" -L 'frontend'

echo "==> shard slice under ASan"
if ! ctest --preset asan -N -L 'shard' | grep -q 'Total Tests: [1-9]'; then
  echo "error: no tests carry the shard label" >&2
  exit 1
fi
ctest --preset asan -j "$jobs" -L 'shard'

echo "==> plot slice under ASan"
if ! ctest --preset asan -N -L 'plot' | grep -q 'Total Tests: [1-9]'; then
  echo "error: no tests carry the plot label" >&2
  exit 1
fi
ctest --preset asan -j "$jobs" -L 'plot'

echo "==> incremental slice under ASan"
if ! ctest --preset asan -N -L 'incremental' | grep -q 'Total Tests: [1-9]'; then
  echo "error: no tests carry the incremental label" >&2
  exit 1
fi
ctest --preset asan -j "$jobs" -L 'incremental'

echo "==> bench gate: scaled bench_engine against bench/gates.tsv"
cmake --build --preset release -j "$jobs" --target bench_engine >/dev/null
# Run from the build dir so the committed results/ JSON is not clobbered.
( cd build/release && SEMILOCAL_BENCH_SCALE="${BENCH_GATE_SCALE:-0.1}" ./bench/bench_engine >/dev/null )
python3 scripts/gate.py bench/gates.tsv build/release/results/bench_engine.json

if [[ "${SKIP_SERVE_GATE:-0}" != "1" ]]; then
  echo "==> serve gate: 10k open-loop sockets against the real reactor"
  cmake --build --preset release -j "$jobs" \
    --target semilocal_serve semilocal_router semilocal_loadgen >/dev/null
  # start_server OUT BINARY ARGS...: starts one server in the background with
  # its stdout in OUT and returns once it has printed its bound port there
  # (semilocal_serve and semilocal_router both print it once they listen).
  # Sets server_pid and server_port. stop_servers (and the EXIT trap) kill
  # every server started since the last stop_servers.
  server_pids=()
  start_server() {
    local out=$1
    shift
    : > "$out"  # truncate first, so an old port line is never read
    "$@" > "$out" &
    server_pid=$!
    server_pids+=("$server_pid")
    for _ in $(seq 50); do
      [[ -s "$out" ]] && break
      sleep 0.1
    done
    server_port=$(head -n1 "$out")
    if [[ -z "$server_port" ]]; then
      echo "error: $1 printed no port within 5 s" >&2
      exit 1
    fi
  }
  stop_servers() {
    for pid in "${server_pids[@]}"; do
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    done
    server_pids=()
  }
  trap 'kill "${server_pids[@]}" 2>/dev/null || true' EXIT

  # The headline leg: 10000 concurrent sockets, 5000 req/s offered for 2 s.
  # loadgen exits nonzero on any stalled socket or decode error.
  start_server build/release/serve_gate_port.txt \
    build/release/tools/semilocal_serve --port 19777 --no-persist
  build/release/tools/semilocal_loadgen --port "$server_port" \
    --arrival-rate 5000 --connections 10000 --duration-ms 2000 --drain-ms 5000 \
    --pairs 8 --length 256 --json | tee build/release/serve_gate_10k.json
  stop_servers

  # Admission leg: 200 clients against a 50-connection gate; every refused
  # connection owes one typed RETRY_AFTER frame before the close.
  start_server build/release/serve_gate_port.txt \
    build/release/tools/semilocal_serve --port 19777 --no-persist --max-conns 50
  build/release/tools/semilocal_loadgen --port "$server_port" \
    --arrival-rate 1000 --connections 200 --duration-ms 1000 --drain-ms 5000 \
    --pairs 4 --length 64 --json | tee build/release/serve_gate_shed.json
  stop_servers

  # Failover leg: three real backends behind the consistent-hash router,
  # kill -9 one of them mid-load. The oracle contract under churn: loadgen
  # --verify exits nonzero on any wrong answer or stalled socket; a dead
  # backend may cost latency or a typed RETRY_AFTER, never a lie.
  echo "==> shard failover gate: kill one of three backends mid-load"
  shard_pids=()
  shard_ports=()
  for i in 0 1 2; do
    start_server "build/release/shard_gate_port_$i.txt" \
      build/release/tools/semilocal_serve --port 0 --no-persist
    shard_pids[i]=$server_pid
    shard_ports[i]=$server_port
  done
  start_server build/release/shard_gate_router.txt \
    build/release/tools/semilocal_router --port 0 \
    --shards "${shard_ports[0]},${shard_ports[1]},${shard_ports[2]}" \
    --replicas 2 --probe-interval-ms 100 --unhealthy-after 2 --hedge-ms 100
  ( sleep 1; kill -9 "${shard_pids[0]}" 2>/dev/null ) &
  killer_pid=$!
  build/release/tools/semilocal_loadgen --port "$server_port" \
    --arrival-rate 400 --connections 16 --duration-ms 2500 --drain-ms 5000 \
    --pairs 8 --length 256 --verify --json | tee build/release/serve_gate_failover.json
  wait "$killer_pid" 2>/dev/null || true
  stop_servers
  trap - EXIT
  python3 scripts/gate.py bench/gates.tsv build/release/serve_gate_10k.json \
    build/release/serve_gate_shed.json build/release/serve_gate_failover.json
fi

if [[ "${CHECK_FAULTS:-0}" == "1" ]]; then
  seeds=${FAULT_SEEDS:-64}
  base=${FAULT_SEED_BASE:-$(( $(date +%s) % 1000000 + 1000 ))}
  echo "==> fault schedules ($seeds extra seeds from base $base)"
  echo "    replay: SEMILOCAL_FAULT_SEED_BASE=$base SEMILOCAL_FAULT_SEEDS=$seeds" \
       "build/release/tests/test_faults --gtest_filter='FaultSchedules.*'"
  SEMILOCAL_FAULT_SEED_BASE="$base" SEMILOCAL_FAULT_SEEDS="$seeds" \
    build/release/tests/test_faults --gtest_filter='FaultSchedules.*'
fi

echo "All checks passed."
