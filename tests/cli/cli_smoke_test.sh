#!/usr/bin/env bash
# Smoke test of clapf_cli in the README's command shapes: writes a small
# ratings file, trains a model, answers recommend queries on the exact,
# packed, ANN and ANN + pq paths (the ANN query with --exclude and
# --no-cold-fallback), then replays queries through serve: on the ANN path,
# under the ondemand governor with a flight dump, and over four shards.
# Checks every exit code, the "scoring path:" line each query command
# prints, the governor and sharded lines, that serve's --ann implies
# --packed, and that an unknown governor, a negative --k, a queue depth
# below 1, an ondemand tick below 1 ms, a negative --nprobe,
# --rerank-budget or --build-threads, --shards or serve --threads below 1,
# and any of those counts above INT32_MAX are refused with exit 1.
#
# Usage: tests/cli/cli_smoke_test.sh <clapf_cli binary> <scratch dir>
set -euo pipefail

cli="$1"
dir="$2"
rm -rf "${dir}"
mkdir -p "${dir}"
cd "${dir}"

# 80 users x 240 items in 8 taste groups of 30 items: user u rates 12 items
# of group u % 8 with 4 or 5 stars (kept as positive feedback), so the
# trained item factors cluster by group — the catalog shape the ANN recall
# gate is meant for.
awk 'BEGIN {
  for (u = 1; u <= 80; ++u) {
    g = u % 8
    for (j = 0; j < 12; ++j) {
      i = g * 30 + (u * 7 + j * 5) % 30 + 1
      printf "%d\t%d\t%d\t%d\n", u, i, 4 + j % 2, 880000000 + u * 100 + j
    }
  }
}' > u.data

# Runs one clapf_cli command; fails the test on a non-zero exit.
run() {
  local out
  if ! out="$("${cli}" "$@" 2>&1)"; then
    echo "${out}"
    echo "FAIL: clapf_cli $* exited non-zero" >&2
    exit 1
  fi
  echo "${out}"
}

# Runs a query command and checks the scoring path it reports.
expect_path() {
  local want="$1" out
  shift
  out="$(run "$@")"
  echo "${out}"
  if ! grep -qx "scoring path: ${want}" <<< "${out}"; then
    echo "FAIL: clapf_cli $* did not report 'scoring path: ${want}'" >&2
    exit 1
  fi
}

run train --input u.data --format tab --method CLAPF-MAP \
    --iterations 200000 --model-out ml.clpf --dataset-out ml.clds

expect_path exact recommend --model ml.clpf --dataset ml.clds \
    --users 5 --k 10
expect_path packed recommend --model ml.clpf --dataset ml.clds \
    --users 5 --k 10 --packed
expect_path ann recommend --model ml.clpf --dataset ml.clds \
    --users 1,5 --k 10 --ann --nprobe 8 --exclude 3,4 --no-cold-fallback
expect_path ann+pq recommend --model ml.clpf --dataset ml.clds \
    --users 5 --k 10 --ann --pq --rerank-budget 256
expect_path ann serve --model ml.clpf --dataset ml.clds \
    --users 1,5 --ann

# Fails the test unless `out` holds a line starting with `want`.
expect_line() {
  local want="$1" out="$2"
  if ! grep -q "^${want}" <<< "${out}"; then
    echo "FAIL: no line starting '${want}'" >&2
    exit 1
  fi
}

# Adaptive serving quick-start: the ticker thread runs the ondemand
# governor, and the flight recorder lands on disk as JSON at exit.
out="$(run serve --model ml.clpf --dataset ml.clds --users 1,5 \
    --governor ondemand --governor-interval-ms 20 --flight-dump flight.json)"
echo "${out}"
expect_line "governor ondemand active" "${out}"
expect_line "governor: ondemand ticks=" "${out}"
if [[ ! -s flight.json ]] ||
    ! python3 -c 'import json, sys; json.load(open(sys.argv[1]))' \
        flight.json; then
  echo "FAIL: --flight-dump did not write a non-empty JSON document" >&2
  exit 1
fi

# Sharded quick-start: four shards, one stats line per shard.
out="$(run serve --model ml.clpf --dataset ml.clds --users 1,5 --shards 4)"
echo "${out}"
expect_line "sharded serving: " "${out}"
expect_line "published model v1 to 4 shard(s)" "${out}"

# Only off and ondemand name a governor; anything else is refused.
if "${cli}" serve --model ml.clpf --dataset ml.clds \
    --governor schedutil > refused.txt 2>&1; then
  cat refused.txt
  echo "FAIL: serve --governor schedutil exited zero" >&2
  exit 1
fi
expect_line "error: .*off|ondemand" "$(cat refused.txt)"

# --ann implies --packed on serve as on recommend.
expect_path ann serve --model ml.clpf --dataset ml.clds \
    --users 1,5 --ann --packed=false

# Runs a command that must be refused: exit status 1 (not a signal) and an
# error line naming `flag`.
expect_refused() {
  local flag="$1" status=0
  shift
  "${cli}" "$@" > refused.txt 2>&1 || status=$?
  if [[ "${status}" -ne 1 ]]; then
    cat refused.txt
    echo "FAIL: clapf_cli $* exited ${status}, want 1" >&2
    exit 1
  fi
  if ! grep -q "^error: .*${flag}" refused.txt; then
    cat refused.txt
    echo "FAIL: clapf_cli $* did not name ${flag}" >&2
    exit 1
  fi
}

expect_refused --k recommend --model ml.clpf --dataset ml.clds --k -1
expect_refused --k serve --model ml.clpf --dataset ml.clds --k -1
expect_refused --queue-depth serve --model ml.clpf --dataset ml.clds \
    --queue-depth 0
expect_refused --queue-depth serve --model ml.clpf --dataset ml.clds \
    --queue-depth -3
expect_refused --governor-interval-ms serve --model ml.clpf \
    --dataset ml.clds --governor ondemand --governor-interval-ms 0
for cmd in recommend serve; do
  expect_refused --nprobe "${cmd}" --model ml.clpf --dataset ml.clds \
      --ann --nprobe -1
  expect_refused --nprobe "${cmd}" --model ml.clpf --dataset ml.clds \
      --ann --nprobe 2147483648
  expect_refused --rerank-budget "${cmd}" --model ml.clpf \
      --dataset ml.clds --ann --pq --rerank-budget -5
  expect_refused --rerank-budget "${cmd}" --model ml.clpf \
      --dataset ml.clds --ann --pq --rerank-budget 4294967306
  expect_refused --build-threads "${cmd}" --model ml.clpf \
      --dataset ml.clds --build-threads -2
done
expect_refused --shards serve --model ml.clpf --dataset ml.clds --shards 0
expect_refused --shards serve --model ml.clpf --dataset ml.clds \
    --shards 2147483648
expect_refused --threads serve --model ml.clpf --dataset ml.clds --threads 0

echo "PASS"
