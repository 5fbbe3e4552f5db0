#!/usr/bin/env bash
# Full local gate: sanitizer builds + tier-1 tests + perf smoke.
#
#   tools/check.sh            # everything (ASAN/UBSAN ctest, TSAN transport
#                             # tests, then perf smoke, the transport, obs,
#                             # service and introspection suites with obs
#                             # compiled out, and the obs gate)
#   tools/check.sh --fast     # sanitizer tests only, skip the rest
#
# The sanitizer builds live in build-asan/ and build-tsan/, and the overhead
# gate's two code-aligned builds in build-obs/ and build-noobs/, so they
# never clobber the regular build/ tree. ASAN and TSAN cannot share a
# binary, so the thread-sanitizer pass is its own build; it covers the
# suites that exercise real threads (the transport dispatcher and the sweep
# fan-out).
# The perf smoke runs the micro benchmarks from the regular (optimized)
# build with a token min-time: it validates that the bench code runs, not
# the timings — see BENCH_hotpath.json / BENCH_transport.json for those.

set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "==> sanitizer build (ASAN + UBSAN)"
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
  > /dev/null
cmake --build build-asan -j "$(nproc)" -- --quiet 2>/dev/null \
  || cmake --build build-asan -j "$(nproc)"

echo "==> tier-1 tests under sanitizers"
ctest --test-dir build-asan --output-on-failure -j "$(nproc)"

echo "==> thread-sanitizer build (transport + sweep threading)"
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
  > /dev/null
cmake --build build-tsan -j "$(nproc)" \
  --target transport_test transport_determinism_test sweep_determinism_test \
           sharded_server_test sharded_transport_test obs_test engine_test \
           service_test introspect_test wal_test durability_test \
  -- --quiet 2>/dev/null \
  || cmake --build build-tsan -j "$(nproc)" \
       --target transport_test transport_determinism_test \
                sweep_determinism_test sharded_server_test \
                sharded_transport_test obs_test engine_test service_test \
                introspect_test wal_test durability_test

echo "==> threaded tests under TSAN"
./build-tsan/tests/transport_test
./build-tsan/tests/transport_determinism_test
# sweep_determinism_test includes the engine-native evidence determinism
# suite (NnoProbeResolver over the async dispatcher at 1/4/8 workers);
# engine_test pins the single-threaded engine contracts under TSAN too.
./build-tsan/tests/sweep_determinism_test
# sharded_server_test covers the parallel per-shard index build;
# sharded_transport_test drives the scatter-gather transport (dispatcher
# workers over per-lane state).
./build-tsan/tests/sharded_server_test
./build-tsan/tests/sharded_transport_test
./build-tsan/tests/obs_test
./build-tsan/tests/engine_test
# service_test drives EstimationService sessions over the shared dedup wire
# with dispatcher workers live (single-flight owner/follower handoff);
# sweep_determinism_test's ServiceDeterminism suites sweep worker counts.
./build-tsan/tests/service_test
# introspect_test races a flight-recorder drainer thread against the
# scheduler's trigger publishes and the dispatcher workers' span emission
# (multi-producer CAS claims, concurrent drain), plus the trigger-registry
# re-entrancy cases.
./build-tsan/tests/introspect_test
# wal_test / durability_test: the durable evidence log's storage layer and
# the crash-recovery matrix. The fork+SIGKILL two-process case compiles out
# under TSAN (it does not survive forked children); the in-process
# byte-truncation matrix covers the same cut points.
./build-tsan/tests/wal_test
./build-tsan/tests/durability_test

if [[ "$FAST" == "0" ]]; then
  echo "==> perf smoke (optimized build, token min-time)"
  cmake -B build -S . > /dev/null
  cmake --build build -j "$(nproc)" --target micro_hotpath
  ./build/bench/micro_hotpath --benchmark_min_time=0.01

  echo "==> LBSAGG_OBS_DISABLED build + transport, obs, service and introspection suites"
  # The wire's own accounting (TransportMetrics) must stay exact with every
  # metric-plane cell compiled out, the one-shard and N-shard gathers must
  # still answer alike, the report document and the service's tallies (its
  # dedup registry, its sections) must work without the counters, and the
  # introspection plane's stubs must keep their contract (nothing recorded,
  # estimates unchanged, statusz an empty report).
  NOOBS_TARGETS=(micro_hotpath transport_test transport_determinism_test
                 sharded_server_test sharded_transport_test
                 sweep_determinism_test obs_test service_test introspect_test)
  # The overhead gate below compares this build's micro_hotpath with an
  # instrumented twin. Both start every function and loop on a 64-byte
  # boundary, so code placement is not what differs between them: unaligned,
  # the gate read -17.8% to +22.0% on k-d tree code neither build had
  # changed. Aligned, it still reads a few percent either way on a shared
  # 4-core VM, above its 1% budget.
  ALIGN_FLAGS="-falign-functions=64 -falign-loops=64"
  cmake -B build-noobs -S . -DLBSAGG_OBS_DISABLED=ON \
    -DCMAKE_CXX_FLAGS="$ALIGN_FLAGS" > /dev/null
  cmake --build build-noobs -j "$(nproc)" --target "${NOOBS_TARGETS[@]}" \
    -- --quiet 2>/dev/null \
    || cmake --build build-noobs -j "$(nproc)" --target "${NOOBS_TARGETS[@]}"
  ./build-noobs/tests/transport_test
  ./build-noobs/tests/transport_determinism_test
  ./build-noobs/tests/sharded_server_test
  ./build-noobs/tests/sharded_transport_test
  ./build-noobs/tests/sweep_determinism_test
  ./build-noobs/tests/obs_test
  ./build-noobs/tests/service_test
  ./build-noobs/tests/introspect_test

  echo "==> observability overhead gate (instrumented vs LBSAGG_OBS_DISABLED)"
  cmake -B build-obs -S . -DCMAKE_CXX_FLAGS="$ALIGN_FLAGS" > /dev/null
  cmake --build build-obs -j "$(nproc)" --target micro_hotpath \
    -- --quiet 2>/dev/null \
    || cmake --build build-obs -j "$(nproc)" --target micro_hotpath
  # Paired interleaved min-of-N between the two aligned builds: the binaries
  # alternate, each benchmark keeps its best time per round, and the gate
  # compares the mins (see DESIGN.md §4.8). The budget is 1% on the kd-tree
  # search benchmarks, the hottest instrumented loop (and the only one the
  # opt-in spatial counters could slow down).
  python3 - <<'PYEOF'
import json, subprocess, sys

ARGS = ["--benchmark_filter=BM_KnnQuery", "--benchmark_format=json",
        "--benchmark_min_time=0.10"]

def run(binary):
    out = subprocess.run([binary] + ARGS, check=True, capture_output=True,
                         text=True).stdout
    return {b["name"]: b["cpu_time"] for b in json.loads(out)["benchmarks"]}

best_on, best_off = {}, {}
for _ in range(5):  # interleave so machine noise hits both binaries alike
    for times, binary in ((best_on, "./build-obs/bench/micro_hotpath"),
                          (best_off, "./build-noobs/bench/micro_hotpath")):
        for name, t in run(binary).items():
            times[name] = min(times.get(name, float("inf")), t)

failed = False
for name in sorted(best_off):
    delta = best_on[name] / best_off[name] - 1.0
    status = "ok" if delta <= 0.01 else "FAIL"
    if delta > 0.01:
        failed = True
    print(f"  {name}: instrumented {best_on[name]:.1f}ns "
          f"vs disabled {best_off[name]:.1f}ns ({delta:+.2%}) {status}")
if failed:
    sys.exit("observability overhead exceeds the 1% budget")
print("  observability overhead within the 1% budget")
PYEOF
fi

echo "==> all checks passed"
