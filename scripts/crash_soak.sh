#!/usr/bin/env bash
# crash_soak.sh — kill-9 crash-restart soak for advisord's durability
# subsystem (DESIGN.md §10). Builds the real advisord + loadgen binaries
# and drives internal/chaos.RunCrashSoak: N seeded SIGKILL/restart
# cycles under live traffic, with one kill aimed mid-checkpoint-write
# and one deliberately truncated newest generation. The soak asserts:
#
#   * every manifest tenant is recovered after every kill,
#   * the truncated generation is skipped for the previous one
#     (corruption falls back, never decodes),
#   * checkpoint generation numbers are monotonic across restarts,
#   * after /readyz answers 200 traffic is 5xx-free, and the bridged
#     loadgen run absorbs the whole kill window with retries
#     (0 terminal 5xx / transport errors).
#
# Usage: scripts/crash_soak.sh [cycles] [seed]
set -euo pipefail
cd "$(dirname "$0")/.."

cycles="${1:-3}"
seed="${2:-1}"

CRASH_SOAK=1 go test -count=1 -timeout 20m -v ./internal/chaos \
  -run 'TestCrashRestartSoak' -crash.cycles="$cycles" -crash.seed="$seed"
