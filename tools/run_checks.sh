#!/usr/bin/env bash
# Full verification ladder for the repo, from cheapest to most expensive:
#
#   1. default preset  — build everything, run the whole ctest suite
#   2. sanitize preset — ASan+UBSan on the labels in SANITIZE_LABELS
#   3. tsan preset     — ThreadSanitizer on the labels in TSAN_LABELS
#   4. stress          — every concurrency drill (STRESS_FILTER) repeated
#                        STRESS_REPEATS times in the default build and
#                        STRESS_TSAN_REPEATS times under ThreadSanitizer
#
# Usage:
#   tools/run_checks.sh            # the full ladder
#   tools/run_checks.sh default    # just one rung
#   tools/run_checks.sh sanitize
#   tools/run_checks.sh tsan
#   tools/run_checks.sh stress
#
# Exits non-zero on the first failing rung. Each rung configures its own
# build directory (build/, build-sanitize/, build-tsan/) via the CMake
# configure/build presets, so rungs never contaminate each other (the
# stress rung reuses build/ and build-tsan/), and picks its suites with a
# ctest label regex. One suite alone runs the same way,
# e.g. `ctest --test-dir build-sanitize -L '^serving$'`.
#
# Before any rung runs, the script cross-checks the ctest labels declared in
# tests/CMakeLists.txt against the sanitizer rungs' label lists, and fails if
# a label exists that neither rung would exercise — so a new test suite
# cannot be added and silently skipped by CI.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
STAGE="${1:-all}"

# The ctest labels each sanitizer rung runs (the default rung runs the
# entire unfiltered suite). Add a new suite's label to the right rung(s).
SANITIZE_LABELS="faultinjection format sampling serving obs kernel governor shard online ann pq cli"
TSAN_LABELS="parallel serving obs kernel governor shard online ann pq"

# The concurrency drills: every test whose outcome depends on how threads
# interleave (the WAL and deployer races match *Concurren* and *Race*). A
# ctest run starts each once, so a race that fails one run in twenty would
# pass most ladders by luck; the stress rung runs each binary's drills with
# --gtest_repeat instead.
STRESS_FILTER='*Race*:*Concurren*:*HotSwap*:*ThreadCount*:*UnderLoad*'
STRESS_FILTER+=':SgdExecutorParallel.*:ThreadPoolTest.*'
STRESS_FILTER+=':ParallelEvaluatorTest.*:FlightRecorderTest.*'
STRESS_REPEATS=200
STRESS_TSAN_REPEATS=10

# "a b c" -> "^(a|b|c)$", the regex ctest -L matches labels against.
label_regex() {
  local joined
  joined="$(echo "$1" | tr ' ' '|')"
  echo "^(${joined})\$"
}

check_label_coverage() {
  local declared missing=""
  declared="$(sed -n 's/.*LABELS \([a-zA-Z0-9_-]*\).*/\1/p' \
      tests/CMakeLists.txt | sort -u)"
  for label in ${declared}; do
    case " ${SANITIZE_LABELS} ${TSAN_LABELS} " in
      *" ${label} "*) ;;
      *) missing="${missing} ${label}" ;;
    esac
  done
  if [[ -n "${missing}" ]]; then
    echo "error: ctest label(s) declared in tests/CMakeLists.txt but not" >&2
    echo "covered by the run_checks.sh ladder:${missing}" >&2
    echo "add them to SANITIZE_LABELS and/or TSAN_LABELS" >&2
    exit 1
  fi
}

run_default() {
  echo "=== [1/4] default preset: full build + full test suite ==="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "${JOBS}"
  ctest --test-dir build --output-on-failure
}

run_sanitize() {
  echo "=== [2/4] sanitize preset: ASan+UBSan on ${SANITIZE_LABELS} ==="
  cmake --preset sanitize >/dev/null
  cmake --build --preset sanitize -j "${JOBS}"
  ctest --test-dir build-sanitize --output-on-failure \
      -L "$(label_regex "${SANITIZE_LABELS}")"
}

run_tsan() {
  echo "=== [3/4] tsan preset: ThreadSanitizer on ${TSAN_LABELS} ==="
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "${JOBS}"
  ctest --test-dir build-tsan --output-on-failure \
      -L "$(label_regex "${TSAN_LABELS}")"
}

# Runs the drills of every test binary under $1 with --gtest_repeat=$2;
# a binary fails if any repetition fails.
repeat_drills() {
  local bin
  for bin in "$1"/tests/clapf_*tests; do
    echo "--- $(basename "${bin}") x$2"
    "${bin}" --gtest_filter="${STRESS_FILTER}" --gtest_repeat="$2" \
        --gtest_brief=1
  done
}

run_stress() {
  echo "=== [4/4] stress: concurrency drills x${STRESS_REPEATS}," \
       "x${STRESS_TSAN_REPEATS} under tsan ==="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "${JOBS}"
  repeat_drills build "${STRESS_REPEATS}"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "${JOBS}"
  repeat_drills build-tsan "${STRESS_TSAN_REPEATS}"
}

check_label_coverage

case "${STAGE}" in
  default)  run_default ;;
  sanitize) run_sanitize ;;
  tsan)     run_tsan ;;
  stress)   run_stress ;;
  all)      run_default; run_sanitize; run_tsan; run_stress ;;
  *)
    echo "unknown stage '${STAGE}' (want default|sanitize|tsan|stress|all)" >&2
    exit 2
    ;;
esac

echo "=== all requested checks passed ==="
