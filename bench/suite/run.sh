#!/usr/bin/env bash
# Builds qcbench (Release, its own CMake project in build-suite/) and runs
# it. Three forms:
#
#   bench/suite/run.sh [--seed N] [--seconds S]
#       every workload once at threads = 1, every end-to-end metric by name
#       with its unit; exits non-zero if any check fails.
#   bench/suite/run.sh --smoke
#       the benchmark's self-test: all four workloads at tiny sizes, the
#       traced replay and its checks, and every deterministic metric
#       identical at --threads 1 and --threads 2.
#   bench/suite/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run, as BENCHMARK.json's command; the last stdout line is the
#       result object.
#
# Build output goes to stderr, so stdout carries only qcbench's report.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
if [[ ! -f "$ROOT/CMakeLists.txt" || ! -d "$ROOT/src" ]]; then
  echo "run.sh: $ROOT holds no qcp2p source tree to build" >&2
  exit 2
fi
cd "$ROOT"

BUILD="build-suite"
JOBS="$(nproc 2>/dev/null || echo 1)"
WORKLOADS=(flood-read hybrid-ranked adaptive-churn batch-des-faults)

build() {
  if [[ ! -f "$BUILD/CMakeCache.txt" ]]; then
    cmake -S bench/suite -B "$BUILD" -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "$BUILD" --target qcbench -j "$JOBS" >&2
}

# Prints the seed-determined metrics (compare.py's SEED_DETERMINED) of a
# result line as "name=value" words.
pick() {
  python3 -B -c '
import json, sys
sys.path.insert(0, "bench/suite")
from compare import SEED_DETERMINED
m = json.loads(sys.argv[1])["metrics"]
print(" ".join("%s=%r" % (k, m[k]["value"]) for k in SEED_DETERMINED))
' "$1"
}

smoke() {
  local failed=0 ok w t1 t2 d1 d2
  for w in "${WORKLOADS[@]}"; do
    ok=1
    t1="$("$BUILD/qcbench" --workload "$w" --smoke --seconds 0 --trace 0 \
      --threads 1 | tail -n 1)" || ok=0
    t2="$("$BUILD/qcbench" --workload "$w" --smoke --seconds 0 --trace 0 \
      --threads 2 | tail -n 1)" || ok=0
    "$BUILD/qcbench" --workload "$w" --smoke --seconds 0 --trace 1 \
      --trace-file "$BUILD/smoke-trace-$w.json" > /dev/null || ok=0
    d1="$(pick "$t1")" || ok=0
    d2="$(pick "$t2")" || ok=0
    if [[ "$ok" == 1 && "$d1" == "$d2" ]]; then
      echo "smoke $w: ok ($d1)"
    else
      echo "smoke $w: FAIL (threads 1: $d1; threads 2: $d2)"
      failed=1
    fi
  done
  return "$failed"
}

build
if [[ $# -gt 0 && "$1" == "--smoke" ]]; then
  smoke
elif [[ " $* " == *" --workload "* ]]; then
  exec "$BUILD/qcbench" "$@"
else
  seed=1
  seconds=25
  while [[ $# -gt 0 ]]; do
    case "$1" in
      --seed) seed="$2"; shift 2 ;;
      --seconds) seconds="$2"; shift 2 ;;
      *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
  done
  status=0
  for w in "${WORKLOADS[@]}"; do
    "$BUILD/qcbench" --workload "$w" --seed "$seed" --seconds "$seconds" \
      --trace 0 | sed '$d' || status=1
  done
  exit "$status"
fi
