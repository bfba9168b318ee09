#!/usr/bin/env bash
# train_profile.sh — run one offline training job under the pprof CPU and
# heap profilers (cmd/advisor's -cpuprofile/-memprofile via internal/prof).
# Use it to find where training wall-clock actually goes before optimizing.
#
# Usage: scripts/train_profile.sh [bench] [out-prefix]
#
#   bench       ssb | tpcds | tpcch | tpch | micro   (default ssb)
#   out-prefix  profile file prefix                   (default train)
#
# Inspect afterwards with:
#   go tool pprof -top <prefix>.cpu.pprof
#   go tool pprof -top <prefix>.mem.pprof
set -euo pipefail
cd "$(dirname "$0")/.."

bench="${1:-ssb}"
prefix="${2:-train}"

go run ./cmd/advisor -bench "$bench" -profile test -scale 0.05 \
  -cpuprofile "${prefix}.cpu.pprof" -memprofile "${prefix}.mem.pprof"

echo "wrote ${prefix}.cpu.pprof and ${prefix}.mem.pprof"
