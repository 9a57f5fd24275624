#!/bin/sh
# Builds and runs tests under a sanitizer.
#
#   tools/run_sanitized.sh [thread|address|address+undefined]
#                          (default: thread)
#
# Uses a separate build tree (build-<san>san) so the normal Release
# build stays untouched. address+undefined runs every test binary
# registered in tests/CMakeLists.txt, with UBSan reports fatal (see
# ISREC_SANITIZE in CMakeLists.txt). thread and address run the
# concurrency-sensitive list below. It exercises the thread pool, the intra-op
# ParallelFor kernels, the serving engine (including the v2 outcome
# paths: deadlines, shedding, fault injection, shutdown draining), the
# status/fault primitives, the obs registry/trace buffers, and the
# admin HTTP server (endpoint handlers racing the serving workers and
# the rolling sampler), and the sharded router tier (the replica
# table's acquire/release/drain protocol racing the prober, forwarder
# workers, and concurrent clients) — the code paths where a data race
# would silently break the determinism contract or leave a promise
# unresolved. Also runs the SIMD kernel checker and the int8
# quantization tests: hand-written intrinsics and raw int8 buffers are
# exactly where ASan/UBSan catch out-of-bounds lanes and bad casts.
# The profiler tests race the sampler thread against span push/pop and
# the hooked allocator against 4 allocating threads — the profiling
# plane's TSan/ASan-clean contract (DESIGN.md "Profiling plane").
set -eu
cd "$(dirname "$0")/.."

san="${1:-thread}"
case "$san" in
  thread|address|address+undefined) ;;
  *) echo "usage: $0 [thread|address|address+undefined]" >&2; exit 2 ;;
esac

build="build-$(echo "$san" | tr -d '+')san"
cmake -B "$build" -S . -DISREC_SANITIZE="$san" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
if [ "$san" = "address+undefined" ]; then
  tests=$(sed -n 's/^isrec_add_test(\([a-z0-9_]*\) .*/\1/p' tests/CMakeLists.txt)
else
  tests="thread_pool_test parallel_ops_test lru_cache_test status_test \
serve_test obs_test admin_server_test router_test kernel_checker_test \
quantize_test profiler_test"
fi
# shellcheck disable=SC2086  # Word-splitting the target list is intended.
cmake --build "$build" -j "$(nproc)" --target $tests

# Death tests fork, which TSan flags as a potential deadlock; they are
# covered by the regular build, so skip them here.
filter='-*DeathTest*'
status=0
for t in $tests; do
  echo "== $san sanitizer: $t =="
  "$build/tests/$t" --gtest_filter="$filter" || status=1
done
exit $status
