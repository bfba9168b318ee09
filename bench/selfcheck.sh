#!/usr/bin/env bash
# selfcheck.sh — run the whole benchmark twice on this commit and fail
# unless every end-to-end metric of the second set is within its bound of
# the first, every output check passes, and the determinism digests
# (design cost, visited designs, summed simulated seconds) agree exactly.
# The observed difference is printed next to each bound, so a bound that
# is too tight for this host is visible.
#
# Usage: bench/selfcheck.sh [seed] [seconds]
#   seed     default 1 (the development seed; 7 is held out for claims)
#   seconds  default 20 (BENCHMARK.json's run_seconds)
#
# A third, traced pass writes bench/out/trace-<workload>.json and the
# per-layer metrics, and must reproduce the same digests.
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-1}"
seconds="${2:-20}"
out=bench/out
mkdir -p "$out"

go build -o "$out/bench.bin" ./bench
for set in 1 2; do
  echo "### set $set (untraced)"
  "$out/bench.bin" -workload all -seed "$seed" -seconds "$seconds" -trace 0 -out "$out/set$set.json"
done
echo "### traced pass"
"$out/bench.bin" -workload all -seed "$seed" -seconds "$seconds" -trace 1 -out "$out/traced.json"

echo "### second set against the first"
"$out/bench.bin" -compare "$out/set1.json,$out/set2.json"
echo "### digests of the traced pass against the first set"
"$out/bench.bin" -compare "$out/set1.json,$out/traced.json"
