#!/usr/bin/env bash
# Build and run the `sanitize`-labelled tests under ThreadSanitizer and/or
# AddressSanitizer+UBSan, each in its own build tree (sanitized objects must
# never mix with plain ones).
#
# Usage: tools/run_sanitizers.sh [thread|address|all]   (default: all)
set -euo pipefail

cd "$(dirname "$0")/.."
which="${1:-all}"

run_one() {
  local kind="$1"
  local dir="build-${kind%%,*}san"
  case "$kind" in
    thread)  dir=build-tsan ;;
    address) dir=build-asan ;;
    *) echo "unknown sanitizer '$kind'" >&2; exit 2 ;;
  esac
  echo "=== ${kind} sanitizer -> ${dir} ==="
  cmake -B "$dir" -S . -DPI2M_SANITIZE="$kind" >/dev/null
  cmake --build "$dir" -j "$(nproc)" --target \
    delaunay_test runtime_test torture_test property_test \
    staged_predicates_test telemetry_test check_test \
    classify_cache_test serve_test lattice_test hausdorff_threads_test \
    post_parity_test metrics_io_test pi2m_fuzz
  # halt_on_error: fail the test run on the first report instead of racing on.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="halt_on_error=1 detect_leaks=0" \
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    ctest --test-dir "$dir" -L sanitize --output-on-failure
  # Fixed-seed fuzz smoke: 27 seeds cover every scenario family at 1/2/4
  # threads, with record -> sequential replay -> byte-compare on each case.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="halt_on_error=1 detect_leaks=0" \
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    "$dir/apps/pi2m_fuzz" --corpus 27
}

case "$which" in
  thread|address) run_one "$which" ;;
  all) run_one thread; run_one address ;;
  *) echo "usage: $0 [thread|address|all]" >&2; exit 2 ;;
esac
echo "sanitizer runs clean"
