#!/usr/bin/env sh
# Local mirror of .github/workflows/ci.yml — the tier-1 verification:
# configure, build everything, run the full test suite.
#
#   scripts/check.sh [--sanitize | --tsan] [cmake-args...]
#
# --sanitize builds with ASan+UBSan (KGLINK_SANITIZE=ON) into a separate
# build-asan/ tree. --tsan builds with ThreadSanitizer
# (KGLINK_SANITIZE=thread) into build-tsan/ and runs only the concurrency
# tests (the serving path, chaos, obs, robust and linker suites) — TSan's
# happens-before checking is what certifies the shared read paths
# race-free. Any other argument is forwarded to cmake configure (e.g.
# scripts/check.sh -DKGLINK_ENABLE_OBS=OFF).
set -eu

cd "$(dirname "$0")/.."

BUILD_DIR=build
TSAN=0
if [ "${1:-}" = "--sanitize" ]; then
  shift
  BUILD_DIR=build-asan
  set -- -DKGLINK_SANITIZE=ON "$@"
elif [ "${1:-}" = "--tsan" ]; then
  shift
  BUILD_DIR=build-tsan
  TSAN=1
  set -- -DKGLINK_SANITIZE=thread "$@"
fi

# Warnings (including -Wshadow) are errors on every checked build.
cmake -B "$BUILD_DIR" -S . -DKGLINK_WERROR=ON "$@"
cmake --build "$BUILD_DIR" -j
if [ "$TSAN" = 1 ]; then
  (cd "$BUILD_DIR/tests" &&
   for t in serve_test concurrent_chaos_test overload_test layers_test obs_test robust_test cell_cache_test rolling_window_test metrics_test profiler_test linker_test; do
     echo "== tsan: $t =="
     ./"$t"
   done)
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j
fi
