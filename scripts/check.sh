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
# The bench gate then runs a scaled-down bench_engine (release) and fails if
# the happy path ever fell back from mmap to whole-file reads
# (mmap_fallbacks > 0 means the seam is broken on this platform), if any
# frontend-sweep leg stalled a socket (a request answered by neither a frame
# nor a close), or if the overload accounting disagreed between server and
# client (shed_mismatch != 0).
#
# The shard label slice is re-run under ASan as well: the router leases
# pooled connections across threads, discards them from hedge losers, and
# parses health JSON off the wire -- lifetime and parse bugs ASan catches.
# The bench gate additionally enforces the shard_sweep contract: zero wrong
# answers anywhere, and >= 2.5x aggregate throughput at 4 shards vs 1.
#
# The plot label slice is re-run under ASan too: the alignment-plot path
# splices hostile grid dimensions into raw frames, reassembles multi-tile
# streams, and relays them through the router -- byte-parsing code where an
# off-by-one lives or dies by the sanitizer. The bench gate then enforces the
# plot_sweep contract: the grid planner must beat per-window lowering by
# >= 3x warm windows/s, with zero oracle mismatches and zero scan fallbacks
# (a fallback means the planner silently declined a grid it claims to own).
#
# The incremental label slice is re-run under ASan as well: a resumed
# corpus upsert composes tail strips onto the previous pair kernel through
# the steady-ant arena, and rolls back partially-published generations on
# injected faults -- lifetime bugs in either direction are exactly ASan's
# beat. The bench gate then enforces the upsert_sweep contract: an append
# upsert at the gated document length (32000, where the O(mn) recompute
# dominates the compose floor; the 8000 crossover point is reported
# ungated) must be >= 5x cheaper than the whole-recompute ablation, the
# corpus_mixed-shaped leg must cost at most 1.1x whole recompute, and every
# leg's published kernels must be oracle-exact.
#
# The serve gate then stands up the real semilocal_serve reactor and fires
# the open-loop loadgen at it: 10000 concurrent sockets at 5000 req/s, which
# must finish with zero stalled sockets (loadgen exits nonzero otherwise),
# plus an admission leg where 200 clients hit a --max-conns 50 server and
# every refused connection must receive a typed RETRY_AFTER frame.
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

echo "==> bench gate: mmap happy path + frontend sweep (scaled bench_engine)"
cmake --build --preset release -j "$jobs" --target bench_engine >/dev/null
# Run from the build dir so the committed results/ JSON is not clobbered.
( cd build/release && SEMILOCAL_BENCH_SCALE="${BENCH_GATE_SCALE:-0.1}" ./bench/bench_engine >/dev/null )
if grep -Eq '"mmap_fallbacks": *[1-9]' build/release/results/bench_engine.json; then
  echo "error: bench_engine reported mmap_fallbacks > 0 on the happy path" >&2
  grep -o '"mmap_fallbacks": *[0-9]*' build/release/results/bench_engine.json >&2
  exit 1
fi
if grep -Eq '"stalled_sockets": *[1-9]' build/release/results/bench_engine.json; then
  echo "error: a frontend-sweep leg stalled a socket (request with no frame and no close)" >&2
  grep -o '"stalled_sockets": *[0-9]*' build/release/results/bench_engine.json >&2
  exit 1
fi
if grep -Eq '"shed_mismatch": *-?[1-9]' build/release/results/bench_engine.json; then
  echo "error: frontend-sweep overload accounting mismatch (RETRY_AFTER sent != received)" >&2
  grep -Eo '"shed_mismatch": *-?[0-9]+' build/release/results/bench_engine.json >&2
  exit 1
fi
if grep -Eq '"decode_errors": *[1-9]' build/release/results/bench_engine.json; then
  echo "error: frontend-sweep client failed to decode a response frame" >&2
  exit 1
fi
if grep -Eq '"wrong_answers": *[1-9]' build/release/results/bench_engine.json; then
  echo "error: a shard-sweep leg returned a wrong answer (oracle mismatch)" >&2
  grep -o '"wrong_answers": *[0-9]*' build/release/results/bench_engine.json >&2
  exit 1
fi
# The headline sharding claim, enforced: aggregate warm throughput at 4
# shards must be >= 2.5x the 1-shard leg at the same offered rate.
speedup=$(grep -o '"speedup_4x_vs_1x": *[0-9.]*' build/release/results/bench_engine.json \
          | head -n1 | grep -o '[0-9.]*$')
if ! awk -v s="${speedup:-0}" 'BEGIN { exit !(s >= 2.5) }'; then
  echo "error: shard_sweep speedup_4x_vs_1x=${speedup:-unset} < 2.5" >&2
  exit 1
fi
# The alignment-plot planner claim, enforced: every cell oracle-exact, the
# planner never silently falls back to the dominance scan, and warm
# windows/s beat the per-window lowering ablation by >= 3x.
if grep -Eq '"plot_mismatches": *[1-9]' build/release/results/bench_engine.json; then
  echo "error: plot_sweep planner disagreed with the per-window oracle" >&2
  grep -o '"plot_mismatches": *[0-9]*' build/release/results/bench_engine.json >&2
  exit 1
fi
if grep -Eq '"planner_scan_fallbacks": *[1-9]' build/release/results/bench_engine.json; then
  echo "error: plot_sweep planner leg fell back to the dominance scan" >&2
  grep -o '"planner_scan_fallbacks": *[0-9]*' build/release/results/bench_engine.json >&2
  exit 1
fi
plot_speedup=$(grep -o '"plot_speedup": *[0-9.]*' build/release/results/bench_engine.json \
               | head -n1 | grep -o '[0-9.]*$')
if ! awk -v s="${plot_speedup:-0}" 'BEGIN { exit !(s >= 3) }'; then
  echo "error: plot_sweep plot_speedup=${plot_speedup:-unset} < 3" >&2
  exit 1
fi
# The incremental-corpus claim, enforced: every leg's published kernels
# oracle-exact, an append upsert at the gated document length >= 5x cheaper
# than recombing the whole pair from scratch, and corpus-sized upserts no
# more than 1.1x the cost of recomputing every pair whole.
if grep -Eq '"upsert_mismatches": *[1-9]' build/release/results/bench_engine.json; then
  echo "error: upsert_sweep published a kernel that disagreed with a fresh compute" >&2
  grep -o '"upsert_mismatches": *[0-9]*' build/release/results/bench_engine.json >&2
  exit 1
fi
upsert_speedup=$(grep -o '"upsert_speedup": *[0-9.]*' build/release/results/bench_engine.json \
                 | head -n1 | grep -o '[0-9.]*$')
if ! awk -v s="${upsert_speedup:-0}" 'BEGIN { exit !(s >= 5) }'; then
  echo "error: upsert_sweep upsert_speedup=${upsert_speedup:-unset} < 5" >&2
  exit 1
fi
upsert_mixed_ratio=$(grep -o '"upsert_mixed_ratio": *[0-9.]*' build/release/results/bench_engine.json \
                     | head -n1 | grep -o '[0-9.]*$')
if ! awk -v r="${upsert_mixed_ratio:-0}" 'BEGIN { exit !(r > 0 && r <= 1.1) }'; then
  echo "error: upsert_sweep upsert_mixed_ratio=${upsert_mixed_ratio:-unset} not in (0, 1.1]" >&2
  exit 1
fi

if [[ "${SKIP_SERVE_GATE:-0}" != "1" ]]; then
  echo "==> serve gate: 10k open-loop sockets against the real reactor"
  cmake --build --preset release -j "$jobs" --target semilocal_serve semilocal_loadgen >/dev/null
  serve_port=19777
  build/release/tools/semilocal_serve --port "$serve_port" --no-persist &
  serve_pid=$!
  trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do
    if build/release/tools/semilocal_loadgen --port "$serve_port" --requests 1 \
         --pairs 1 --length 64 --threads 1 >/dev/null 2>&1; then break; fi
    sleep 0.1
  done
  # The headline leg: 10000 concurrent sockets, 5000 req/s offered for 2 s.
  # loadgen exits nonzero on any stalled socket or decode error.
  build/release/tools/semilocal_loadgen --port "$serve_port" \
    --arrival-rate 5000 --connections 10000 --duration-ms 2000 --drain-ms 5000 \
    --pairs 8 --length 256 --json | tee build/release/serve_gate_10k.json
  kill "$serve_pid" 2>/dev/null || true
  wait "$serve_pid" 2>/dev/null || true
  # connect_failures > 0 means the fleet silently shrank (fd limit, backlog):
  # the leg would then prove much less than "10k concurrent sockets".
  if ! grep -q '"connect_failures": 0' build/release/serve_gate_10k.json; then
    echo "error: 10k leg lost connections at connect time" >&2
    exit 1
  fi

  # Admission leg: 200 clients against a 50-connection gate; every refused
  # connection owes one typed RETRY_AFTER frame before the close.
  build/release/tools/semilocal_serve --port "$serve_port" --no-persist --max-conns 50 &
  serve_pid=$!
  for _ in $(seq 50); do
    if build/release/tools/semilocal_loadgen --port "$serve_port" --requests 1 \
         --pairs 1 --length 64 --threads 1 >/dev/null 2>&1; then break; fi
    sleep 0.1
  done
  build/release/tools/semilocal_loadgen --port "$serve_port" \
    --arrival-rate 1000 --connections 200 --duration-ms 1000 --drain-ms 5000 \
    --pairs 4 --length 64 --json | tee build/release/serve_gate_shed.json
  kill "$serve_pid" 2>/dev/null || true
  wait "$serve_pid" 2>/dev/null || true
  trap - EXIT
  # 150 connections over the gate: each owes exactly one kOverloaded frame
  # before its close, and nothing may stall (loadgen already exited 0).
  if ! grep -Eq '"overloaded": *1[0-9][0-9]' build/release/serve_gate_shed.json; then
    echo "error: admission leg did not shed ~150 connections with RETRY_AFTER frames" >&2
    exit 1
  fi

  # Failover leg: three real backends behind the consistent-hash router,
  # kill -9 one of them mid-load. The oracle contract under churn: loadgen
  # --verify exits nonzero on any wrong answer or stalled socket; a dead
  # backend may cost latency or a typed RETRY_AFTER, never a lie.
  echo "==> shard failover gate: kill one of three backends mid-load"
  cmake --build --preset release -j "$jobs" --target semilocal_router >/dev/null
  shard_pids=()
  shard_ports=()
  for i in 0 1 2; do
    build/release/tools/semilocal_serve --port 0 --no-persist \
      > "build/release/shard_gate_port_$i.txt" 2>/dev/null &
    shard_pids[i]=$!
  done
  router_pid=""
  cleanup_failover() {
    [[ -n "$router_pid" ]] && kill "$router_pid" 2>/dev/null || true
    for pid in "${shard_pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  }
  trap cleanup_failover EXIT
  for i in 0 1 2; do
    for _ in $(seq 50); do
      [[ -s "build/release/shard_gate_port_$i.txt" ]] && break
      sleep 0.1
    done
    shard_ports[i]=$(head -n1 "build/release/shard_gate_port_$i.txt")
  done
  build/release/tools/semilocal_router --port 0 \
    --shards "${shard_ports[0]},${shard_ports[1]},${shard_ports[2]}" \
    --replicas 2 --probe-interval-ms 100 --unhealthy-after 2 --hedge-ms 100 \
    > build/release/shard_gate_router.txt 2>/dev/null &
  router_pid=$!
  for _ in $(seq 50); do
    [[ -s build/release/shard_gate_router.txt ]] && break
    sleep 0.1
  done
  router_port=$(head -n1 build/release/shard_gate_router.txt)
  for _ in $(seq 50); do
    if build/release/tools/semilocal_loadgen --port "$router_port" --requests 1 \
         --pairs 1 --length 64 --threads 1 >/dev/null 2>&1; then break; fi
    sleep 0.1
  done
  ( sleep 1; kill -9 "${shard_pids[0]}" 2>/dev/null ) &
  killer_pid=$!
  build/release/tools/semilocal_loadgen --port "$router_port" \
    --arrival-rate 400 --connections 16 --duration-ms 2500 --drain-ms 5000 \
    --pairs 8 --length 256 --verify --json | tee build/release/serve_gate_failover.json
  wait "$killer_pid" 2>/dev/null || true
  cleanup_failover
  trap - EXIT
  if ! grep -q '"wrong_answers": 0' build/release/serve_gate_failover.json; then
    echo "error: failover leg returned a wrong answer after a backend was killed" >&2
    exit 1
  fi
  if ! grep -q '"stalled_sockets": 0' build/release/serve_gate_failover.json; then
    echo "error: failover leg stalled a socket after a backend was killed" >&2
    exit 1
  fi
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
