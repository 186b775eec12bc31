#!/usr/bin/env bash
# Sanitizer sweep: builds four dedicated trees (ASan+UBSan, standalone
# UBSan, TSan, lockdep) and runs the concurrency- and robustness-critical
# tests plus a chaos soak under each. The standalone UBSan tree isolates UB
# reports from ASan's interceptors and shadow-memory effects; the lockdep
# tree (Debug, -DAFF_LOCKDEP=ON) turns every aff::Mutex acquisition into a
# lock-order graph edge and fails the soak on any ordering violation — the
# dynamic half of the lock-discipline layer (docs/STATIC_ANALYSIS.md).
# The chaos soak exercises every frame-fault type, a worker kill, and a
# worker stall — the memory- and race-sensitive paths of the runtime layer.
# Usage: scripts/run_sanitizers.sh [--frames N]
#   --frames N   chaos soak size per engine (default 100000; keep small for
#                TSan, which runs ~10x slower)
# Honors CTEST_PARALLEL_LEVEL (the same knob ctest uses) for build
# parallelism; defaults to all cores.
#
# Every tree runs even after an earlier one fails; the per-tree verdicts are
# summarized at the end and any failure makes the script exit non-zero.
set -uo pipefail

frames=100000
if [[ "${1:-}" == "--frames" ]]; then
  frames="${2:?usage: run_sanitizers.sh [--frames N]}"
fi
jobs="${CTEST_PARALLEL_LEVEL:-$(nproc)}"

# Test binaries that cover the runtime/chaos/proto surface. ctest would work
# too, but invoking the binaries directly keeps one process per suite (ASan
# and TSan diagnostics are per-process) and skips the simulator-only suites.
# arena_test rides along for the frame arena's cross-thread free path
# (Treiber return stack + owner drain), which is TSan's home turf.
# ordering_test drives every engine shape and NIC mode with live workers
# (its waits poll only race-free signals); sim_test covers the event
# kernel's cancel, swap-remove and rebuild paths under ASan/UBSan.
# sweep_runner_test and determinism_test are the simulator's threaded code:
# SweepRunner::map and the sharded parallel runs it drives. cache_test and
# rd_model_test cover the cache models, whose footprint-curve lookup does
# iterator arithmetic on the sample vector. obs_test adds concurrently to
# one MeanStat and merges a parallel sweep's histograms into one shared
# registry; stats_test covers the accumulators the registry publishes.
suites=(runtime_test chaos_test proto_test tcp_test property_test arena_test ordering_test
        sim_test sweep_runner_test determinism_test cache_test rd_model_test obs_test
        stats_test)

declare -A verdict

# run_tree <name> <build-type> <cmake-flag> <env-opts> [extra suites...]
run_tree() {
  local name="$1" build_type="$2" cmake_flag="$3" env_opts="$4"
  shift 4
  local tree_suites=("${suites[@]}" "$@")
  local dir="build-$name"
  verdict[$name]=FAIL
  echo "== [$name] configure + build =="
  if [[ ! -f "$dir/CMakeCache.txt" ]]; then
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE="$build_type" "$cmake_flag" || return 1
  fi
  local targets=("${tree_suites[@]}" chaos_soak)
  cmake --build "$dir" -j "$jobs" --target "${targets[@]}" || return 1
  local ok=0
  for t in "${tree_suites[@]}"; do
    echo "== [$name] $t =="
    env $env_opts "$dir/tests/$t" --gtest_brief=1 || ok=1
  done
  echo "== [$name] chaos_soak ($frames frames/engine) =="
  env $env_opts "$dir/tools/chaos_soak" --frames "$frames" || ok=1
  [[ "$ok" -eq 0 ]] && verdict[$name]=PASS
  return "$ok"
}

status=0
run_tree asan RelWithDebInfo -DAFF_ASAN=ON \
  "ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1" || status=1
run_tree ubsan RelWithDebInfo -DAFF_UBSAN=ON \
  "UBSAN_OPTIONS=print_stacktrace=1" || status=1
run_tree tsan RelWithDebInfo -DAFF_TSAN=ON \
  "TSAN_OPTIONS=halt_on_error=1 second_deadlock_stack=1" || status=1
# lockdep_test rides along only here: its dynamic-vs-static cross-check
# needs the live mutex hooks, and GTEST_SKIPs in the other trees.
run_tree lockdep Debug -DAFF_LOCKDEP=ON "" lockdep_test || status=1

echo "== summary =="
for name in asan ubsan tsan lockdep; do
  echo "  $name: ${verdict[$name]:-FAIL}"
done
if [[ "$status" -eq 0 ]]; then
  echo "sanitizers clean: asan+ubsan, ubsan, tsan, and lockdep all passed"
else
  echo "sanitizer sweep FAILED (see per-tree verdicts above)"
fi
exit "$status"
